//! Symbolic dimensions: the batch and sequence axes a compiled plan is
//! polymorphic in.
//!
//! A fusion plan is a *grouping* of operators decided by mapping types and
//! data-flow topology, not by shapes, so one plan serves every value of
//! these dimensions. Both follow one convention: the **batch** dimension is
//! the leading axis of every graph input, the **sequence** dimension is the
//! axis marked per input with [`Graph::mark_seq_axis`](crate::Graph::mark_seq_axis).

/// Concrete values for a graph's symbolic dimensions.
///
/// As a *reading* ([`Graph::binding`](crate::Graph::binding)) a field is
/// `None` when the graph is not polymorphic in that dimension; as a
/// *request* ([`Graph::rebind`](crate::Graph::rebind)) `None` leaves the
/// dimension as it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DimBinding {
    /// The leading dimension shared by every graph input.
    pub batch: Option<usize>,
    /// The dimension shared by every seq-marked input axis.
    pub seq: Option<usize>,
}

impl DimBinding {
    /// A binding of the batch size alone.
    #[must_use]
    pub fn batch(batch: usize) -> Self {
        DimBinding {
            batch: Some(batch),
            seq: None,
        }
    }

    /// A binding of the sequence length alone.
    #[must_use]
    pub fn seq(seq: usize) -> Self {
        DimBinding {
            batch: None,
            seq: Some(seq),
        }
    }
}

/// Which symbolic dimensions an operation treats as symbolic — printed as
/// `N` / `S` by [`Graph::symbolic_shape_signature`](crate::Graph::symbolic_shape_signature)
/// and canonicalized by the polymorphic plan-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SymbolicAxes {
    /// The leading (batch) dimension of every input.
    pub batch: bool,
    /// Every seq-marked input axis.
    pub seq: bool,
}

impl SymbolicAxes {
    /// Only the batch dimension.
    pub const BATCH: Self = SymbolicAxes {
        batch: true,
        seq: false,
    };
    /// Only the marked sequence axes.
    pub const SEQ: Self = SymbolicAxes {
        batch: false,
        seq: true,
    };
}
