//! The five mapping types of DNNFusion (paper §3.1, Table 2).
//!
//! A mapping type describes the relationship between input elements and
//! output elements of an operator. It is the abstraction that replaces
//! per-operator fusion patterns: the fusion legality/profitability analysis
//! (paper Table 3, implemented in `dnnf-core`) is defined purely over pairs
//! of mapping types.

use std::fmt;

/// Relationship between an operator's input elements and output elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingType {
    /// Each output element is computed from exactly one input element
    /// (e.g. `Add`, `Relu`, `Sigmoid`).
    OneToOne,
    /// One input element contributes to many output elements
    /// (e.g. `Expand`, `Gather`, broadcasted element-wise ops).
    OneToMany,
    /// Many input elements contribute to one or many output elements
    /// (e.g. `Conv`, `GEMM`, reductions, `Softmax`). Includes Many-to-One.
    ManyToMany,
    /// A pure re-interpretation of the data's dimensionality with a 1-1
    /// element mapping and unchanged element order (e.g. `Reshape`, `Flatten`).
    Reorganize,
    /// A 1-1 element mapping whose index function is a permutation of the
    /// dimensions (e.g. `Transpose`, `DepthToSpace`).
    Shuffle,
}

impl MappingType {
    /// All five mapping types, in the paper's order of increasing
    /// *transformation impedance*.
    #[must_use]
    pub fn all() -> &'static [MappingType] {
        &[
            MappingType::OneToOne,
            MappingType::Reorganize,
            MappingType::Shuffle,
            MappingType::OneToMany,
            MappingType::ManyToMany,
        ]
    }

    /// Transformation impedance (paper §3.2): the capability of a mapping
    /// type to decide the fused mapping type when combined with another.
    ///
    /// `One-to-One < (Reorganize, Shuffle) < (One-to-Many, Many-to-Many)`;
    /// Reorganize/Shuffle share a level, as do One-to-Many/Many-to-Many.
    #[must_use]
    pub fn impedance(self) -> u8 {
        match self {
            MappingType::OneToOne => 0,
            MappingType::Reorganize | MappingType::Shuffle => 1,
            MappingType::OneToMany | MappingType::ManyToMany => 2,
        }
    }

    /// Whether this type preserves a 1-1 correspondence between input and
    /// output elements (One-to-One, Reorganize and Shuffle all do).
    #[must_use]
    pub fn is_one_to_one_correspondence(self) -> bool {
        matches!(
            self,
            MappingType::OneToOne | MappingType::Reorganize | MappingType::Shuffle
        )
    }

    /// Short name as used in the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MappingType::OneToOne => "One-to-One",
            MappingType::OneToMany => "One-to-Many",
            MappingType::ManyToMany => "Many-to-Many",
            MappingType::Reorganize => "Reorganize",
            MappingType::Shuffle => "Shuffle",
        }
    }
}

impl fmt::Display for MappingType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impedance_ordering_matches_paper() {
        assert!(MappingType::OneToOne.impedance() < MappingType::Reorganize.impedance());
        assert_eq!(
            MappingType::Reorganize.impedance(),
            MappingType::Shuffle.impedance()
        );
        assert!(MappingType::Shuffle.impedance() < MappingType::OneToMany.impedance());
        assert_eq!(
            MappingType::OneToMany.impedance(),
            MappingType::ManyToMany.impedance()
        );
    }

    #[test]
    fn one_to_one_correspondence_classification() {
        assert!(MappingType::OneToOne.is_one_to_one_correspondence());
        assert!(MappingType::Reorganize.is_one_to_one_correspondence());
        assert!(MappingType::Shuffle.is_one_to_one_correspondence());
        assert!(!MappingType::OneToMany.is_one_to_one_correspondence());
        assert!(!MappingType::ManyToMany.is_one_to_one_correspondence());
    }

    #[test]
    fn all_lists_five_types() {
        assert_eq!(MappingType::all().len(), 5);
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(MappingType::ManyToMany.to_string(), "Many-to-Many");
        assert_eq!(MappingType::Reorganize.to_string(), "Reorganize");
    }
}
