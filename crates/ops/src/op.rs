//! The operator vocabulary and its per-operator facts.
//!
//! Every operator is declared once, as one row of the `operators!` table
//! below: its Table 2 mapping type, its input arity, its element-wise class
//! and its flags. The enum, [`OpKind::all`] and every fact accessor are
//! generated from, or read, that one row. Behaviour (shape inference,
//! kernels, math properties) stays code, keyed by the enum.

use std::fmt;

use dnnf_tensor::Shape;

use crate::{Attrs, MappingType, MathProperties};

/// One operator's row of the table.
struct Facts {
    name: &'static str,
    mapping: MappingType,
    min_inputs: usize,
    /// `None` for a variadic operator.
    max_inputs: Option<usize>,
    flags: Flags,
}

/// The yes/no columns of a row; a row names the ones it sets.
struct Flags {
    /// `y[i] = f(x[i])`.
    unary: bool,
    /// `y[i] = f(a[i], b[i])` with broadcasting.
    binary: bool,
    /// Moves data without arithmetic.
    data_movement: bool,
    /// A compute-intensive layer (CIL) in the paper's sense.
    compute_intensive: bool,
    /// `execute_fast_into_packed` has a kernel for it.
    fast_kernel: bool,
}

impl Flags {
    const NONE: Flags = Flags {
        unary: false,
        binary: false,
        data_movement: false,
        compute_intensive: false,
        fast_kernel: false,
    };
}

/// Builds [`OpKind`], [`OpKind::all`] and the fact table from one line per
/// operator: `Variant MappingType min max flag*;`, where `max` is `_` for a
/// variadic operator and each flag names a `Flags` field to set.
macro_rules! operators {
    (@max _) => { None };
    (@max $max:literal) => { Some($max) };
    ($($op:ident $mapping:ident $min:literal $max:tt $($flag:ident)*;)*) => {
        /// Operator kinds supported by the reproduction.
        ///
        /// The list covers the ONNX operators the paper's Table 2 classifies
        /// plus the operators needed to express the 15 evaluated models (e.g.
        /// `Mish` for YOLO-v4, `Gelu`/`LayerNormalization` for the
        /// transformer family).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[allow(missing_docs)]
        pub enum OpKind {
            $($op,)*
        }

        impl OpKind {
            /// Every operator kind, in declaration order. Used to regenerate
            /// the paper's Table 2.
            #[must_use]
            pub fn all() -> &'static [OpKind] {
                &[$(OpKind::$op,)*]
            }
        }

        /// The rows, indexed by the [`OpKind`] discriminant.
        static FACTS: &[Facts] = &[$(Facts {
            name: stringify!($op),
            mapping: MappingType::$mapping,
            min_inputs: $min,
            max_inputs: operators!(@max $max),
            flags: Flags { $($flag: true,)* ..Flags::NONE },
        },)*];
    };
}

// The declaration order is the order of `OpKind::all()`, which the paper's
// Table 2 and graph fingerprints follow: append, never reorder. An arity is
// the number of inputs the kernels read; an input no kernel reads is
// rejected rather than ignored.
operators! {
    // Variant             Table 2     inputs  flags
    // --- One-to-One: arithmetic ---
    Add                    OneToOne    2 2     binary;
    Sub                    OneToOne    2 2     binary;
    Mul                    OneToOne    2 2     binary;
    Div                    OneToOne    2 2     binary;
    Pow                    OneToOne    2 2     binary;
    Min                    OneToOne    2 2     binary;
    Max                    OneToOne    2 2     binary;
    Neg                    OneToOne    1 1     unary;
    Abs                    OneToOne    1 1     unary;
    Sqrt                   OneToOne    1 1     unary;
    Square                 OneToOne    1 1     unary;
    Reciprocal             OneToOne    1 1     unary;
    Exp                    OneToOne    1 1     unary;
    Log                    OneToOne    1 1     unary;
    Erf                    OneToOne    1 1     unary;
    Sin                    OneToOne    1 1     unary;
    Cos                    OneToOne    1 1     unary;
    Asin                   OneToOne    1 1     unary;
    BitShift               OneToOne    2 2     binary;
    // --- One-to-One: activations ---
    Relu                   OneToOne    1 1     unary;
    LeakyRelu              OneToOne    1 1     unary;
    PRelu                  OneToOne    2 2     binary;
    Sigmoid                OneToOne    1 1     unary;
    HardSigmoid            OneToOne    1 1     unary;
    HardSwish              OneToOne    1 1     unary;
    Silu                   OneToOne    1 1     unary;
    Mish                   OneToOne    1 1     unary;
    Gelu                   OneToOne    1 1     unary;
    Tanh                   OneToOne    1 1     unary;
    Softplus               OneToOne    1 1     unary;
    Clip                   OneToOne    1 1     unary;
    // --- One-to-One: rounding / casting / logic ---
    Ceil                   OneToOne    1 1     unary;
    Floor                  OneToOne    1 1     unary;
    Round                  OneToOne    1 1     unary;
    Cast                   OneToOne    1 1     unary;
    Greater                OneToOne    2 2     binary;
    Equal                  OneToOne    2 2     binary;
    Not                    OneToOne    1 1     unary;
    Where                  OneToOne    3 3;
    Identity               OneToOne    1 1     unary data_movement;
    // --- One-to-One: normalization (inference form) and data selection ---
    BatchNormalization     OneToOne    5 5;
    Concat                 OneToOne    1 _     data_movement fast_kernel;
    Slice                  OneToOne    1 1     data_movement fast_kernel;
    Split                  OneToOne    1 1     data_movement;
    Pad                    OneToOne    1 1     data_movement;
    // --- One-to-Many ---
    Expand                 OneToMany   1 1     data_movement;
    Gather                 OneToMany   2 2     data_movement fast_kernel;
    Resize                 OneToMany   1 1     fast_kernel;
    Upsample               OneToMany   1 1     fast_kernel;
    Tile                   OneToMany   1 1     data_movement;
    // --- Many-to-Many ---
    Conv                   ManyToMany  2 3     compute_intensive fast_kernel;
    ConvTranspose          ManyToMany  2 3     compute_intensive;
    Gemm                   ManyToMany  2 3     compute_intensive fast_kernel;
    MatMul                 ManyToMany  2 2     compute_intensive fast_kernel;
    AveragePool            ManyToMany  1 1     fast_kernel;
    MaxPool                ManyToMany  1 1     fast_kernel;
    GlobalAveragePool      ManyToMany  1 1     fast_kernel;
    Softmax                ManyToMany  1 1;
    LogSoftmax             ManyToMany  1 1;
    ReduceSum              ManyToMany  1 1     fast_kernel;
    ReduceMean             ManyToMany  1 1     fast_kernel;
    ReduceProd             ManyToMany  1 1     fast_kernel;
    ReduceMax              ManyToMany  1 1     fast_kernel;
    ReduceMin              ManyToMany  1 1     fast_kernel;
    ArgMax                 ManyToMany  1 1;
    CumSum                 ManyToMany  1 1;
    Einsum                 ManyToMany  1 _     compute_intensive;
    InstanceNormalization  ManyToMany  3 3;
    LayerNormalization     ManyToMany  3 3;
    // --- Reorganize ---
    Reshape                Reorganize  1 1     data_movement fast_kernel;
    Flatten                Reorganize  1 1     data_movement fast_kernel;
    Squeeze                Reorganize  1 1     data_movement fast_kernel;
    Unsqueeze              Reorganize  1 1     data_movement fast_kernel;
    // --- Shuffle ---
    Transpose              Shuffle     1 1     data_movement fast_kernel;
    DepthToSpace           Shuffle     1 1     data_movement;
    SpaceToDepth           Shuffle     1 1     data_movement;
}

impl OpKind {
    fn facts(self) -> &'static Facts {
        &FACTS[self as usize]
    }

    /// The ONNX-style operator name.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.facts().name
    }

    /// Parses the ONNX-style name produced by [`OpKind::name`] back into the
    /// operator kind. Returns `None` for names no bundled operator carries —
    /// the strict-import path of the `.dnnfg` graph format turns that into a
    /// typed unknown-operator error rather than guessing.
    #[must_use]
    pub fn from_name(name: &str) -> Option<OpKind> {
        OpKind::all().iter().copied().find(|op| op.name() == name)
    }

    /// The operator's mapping type per the paper's Table 2 classification,
    /// assuming non-broadcasting inputs. Use
    /// [`OpKind::mapping_type_with_shapes`] when input shapes are known.
    #[must_use]
    pub fn mapping_type(self) -> MappingType {
        self.facts().mapping
    }

    /// Mapping type refined with shape information: an element-wise operator
    /// whose inputs broadcast (Table 2: "Elementwise w/ broadcast") is
    /// classified as One-to-Many because a single input element feeds many
    /// output elements.
    #[must_use]
    pub fn mapping_type_with_shapes(self, inputs: &[Shape], output: &Shape) -> MappingType {
        let base = self.mapping_type();
        if base == MappingType::OneToOne
            && self.is_elementwise_binary()
            && inputs.iter().any(|s| s != output)
        {
            return MappingType::OneToMany;
        }
        base
    }

    /// Mathematical properties of the operator, stored in the ECG and used by
    /// the graph-rewriting pass.
    #[must_use]
    pub fn math_properties(self) -> MathProperties {
        use OpKind::*;
        match self {
            Mul => MathProperties::ring_like(),
            Add | Min | Max => MathProperties::semigroup(),
            // Matrix product and convolution are associative and distribute
            // over addition (A·B + A·C = A·(B+C)), but are not commutative.
            MatMul | Gemm | Conv => MathProperties {
                associative: true,
                commutative: false,
                distributive_over_add: true,
                commutes_with_reduction: false,
            },
            // Paper Table 4 "Commutative" rows: BitShift/Exp can be swapped
            // with the reduction that follows them.
            BitShift | Exp => MathProperties {
                associative: false,
                commutative: false,
                distributive_over_add: false,
                commutes_with_reduction: true,
            },
            _ => MathProperties::none(),
        }
    }

    /// Whether the paper would count a layer of this operator as
    /// compute-intensive (CIL: "each input is used more than once, e.g.
    /// MatMul, CONV"). Everything else is memory-intensive (MIL).
    #[must_use]
    pub fn is_compute_intensive(self) -> bool {
        self.facts().flags.compute_intensive
    }

    /// Minimum number of inputs.
    #[must_use]
    pub fn min_inputs(self) -> usize {
        self.facts().min_inputs
    }

    /// Maximum number of inputs, or `None` for variadic operators.
    #[must_use]
    pub fn max_inputs(self) -> Option<usize> {
        self.facts().max_inputs
    }

    /// Whether this is a unary element-wise operator (`y[i] = f(x[i])`).
    #[must_use]
    pub fn is_elementwise_unary(self) -> bool {
        self.facts().flags.unary
    }

    /// Whether this is a binary element-wise operator (`y[i] = f(a[i], b[i])`
    /// with broadcasting).
    #[must_use]
    pub fn is_elementwise_binary(self) -> bool {
        self.facts().flags.binary
    }

    /// Whether the operator only moves data (no arithmetic): the Reorganize
    /// and Shuffle classes plus pure data-selection operators. The latency
    /// models' `member_work` counts these as disrupting a fused anchor's
    /// access pattern.
    #[must_use]
    pub fn is_data_movement(self) -> bool {
        self.facts().flags.data_movement
    }

    /// Whether the operator has an optimized kernel behind
    /// [`crate::execute_fast_into_packed`] (the rows flagged `fast_kernel`).
    /// The fused engine uses this to choose between that kernel and the
    /// reference fallback ([`crate::execute`]).
    #[must_use]
    pub fn has_fast_kernel(self) -> bool {
        self.facts().flags.fast_kernel
    }

    /// Applies the operator as a scalar unary function, if it is one.
    ///
    /// This is the kernel used both by the reference element-wise kernels and
    /// by the fused-block engine when One-to-One operators are inlined into a
    /// fusion block. It delegates to [`crate::ScalarUnaryFn`], the compiled
    /// form with attributes resolved ahead of time, so the two paths share
    /// one implementation and cannot drift apart.
    #[must_use]
    pub fn scalar_unary(self, x: f32, attrs: &Attrs) -> Option<f32> {
        crate::ScalarUnaryFn::compile(self, attrs).map(|f| f.apply(x))
    }

    /// Applies the operator as a scalar binary function, if it is one.
    #[inline]
    #[must_use]
    pub fn scalar_binary(self, a: f32, b: f32) -> Option<f32> {
        use OpKind::*;
        let y = match self {
            Add => a + b,
            Sub => a - b,
            Mul => a * b,
            Div => a / b,
            Pow => a.powf(b),
            Min => a.min(b),
            Max => a.max(b),
            Greater => {
                if a > b {
                    1.0
                } else {
                    0.0
                }
            }
            Equal => {
                if a == b {
                    1.0
                } else {
                    0.0
                }
            }
            BitShift => {
                // Left bit-shift on the integer interpretation, matching the
                // paper's BitShift examples; elements are assumed integral.
                ((a as i64) << (b as i64).clamp(0, 62)) as f32
            }
            PRelu => {
                if a < 0.0 {
                    a * b
                } else {
                    a
                }
            }
            _ => return None,
        };
        Some(y)
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_classification_spot_checks() {
        // Representative rows of Table 2.
        assert_eq!(OpKind::Add.mapping_type(), MappingType::OneToOne);
        assert_eq!(OpKind::Relu.mapping_type(), MappingType::OneToOne);
        assert_eq!(
            OpKind::BatchNormalization.mapping_type(),
            MappingType::OneToOne
        );
        assert_eq!(OpKind::Expand.mapping_type(), MappingType::OneToMany);
        assert_eq!(OpKind::Gather.mapping_type(), MappingType::OneToMany);
        assert_eq!(OpKind::Conv.mapping_type(), MappingType::ManyToMany);
        assert_eq!(OpKind::Gemm.mapping_type(), MappingType::ManyToMany);
        assert_eq!(OpKind::Softmax.mapping_type(), MappingType::ManyToMany);
        assert_eq!(OpKind::Reshape.mapping_type(), MappingType::Reorganize);
        assert_eq!(OpKind::Flatten.mapping_type(), MappingType::Reorganize);
        assert_eq!(OpKind::Transpose.mapping_type(), MappingType::Shuffle);
        assert_eq!(OpKind::DepthToSpace.mapping_type(), MappingType::Shuffle);
    }

    #[test]
    fn broadcasting_elementwise_becomes_one_to_many() {
        let a = Shape::new(vec![2, 3]);
        let b = Shape::new(vec![3]);
        let out = Shape::new(vec![2, 3]);
        assert_eq!(
            OpKind::Add.mapping_type_with_shapes(&[a.clone(), b], &out),
            MappingType::OneToMany
        );
        assert_eq!(
            OpKind::Add.mapping_type_with_shapes(&[a.clone(), a.clone()], &out),
            MappingType::OneToOne
        );
        // Unary ops never become One-to-Many.
        assert_eq!(
            OpKind::Relu.mapping_type_with_shapes(std::slice::from_ref(&a), &out),
            MappingType::OneToOne
        );
    }

    #[test]
    fn cil_mil_classification() {
        assert!(OpKind::Conv.is_compute_intensive());
        assert!(OpKind::MatMul.is_compute_intensive());
        assert!(!OpKind::Relu.is_compute_intensive());
        assert!(!OpKind::MaxPool.is_compute_intensive());
        assert!(!OpKind::Softmax.is_compute_intensive());
    }

    #[test]
    fn math_properties_match_paper_examples() {
        assert!(OpKind::Mul.math_properties().distributive_over_add);
        assert!(OpKind::Add.math_properties().commutative);
        assert!(OpKind::BitShift.math_properties().commutes_with_reduction);
        assert!(OpKind::Exp.math_properties().commutes_with_reduction);
        assert!(OpKind::MatMul.math_properties().distributive_over_add);
        assert!(!OpKind::MatMul.math_properties().commutative);
        assert!(!OpKind::Relu.math_properties().any());
    }

    #[test]
    fn scalar_unary_kernels() {
        let a = Attrs::new();
        assert_eq!(OpKind::Relu.scalar_unary(-2.0, &a), Some(0.0));
        assert_eq!(OpKind::Relu.scalar_unary(3.0, &a), Some(3.0));
        assert_eq!(OpKind::Square.scalar_unary(3.0, &a), Some(9.0));
        assert_eq!(OpKind::Reciprocal.scalar_unary(4.0, &a), Some(0.25));
        assert!((OpKind::Sigmoid.scalar_unary(0.0, &a).unwrap() - 0.5).abs() < 1e-6);
        assert!((OpKind::Gelu.scalar_unary(0.0, &a).unwrap()).abs() < 1e-6);
        assert!((OpKind::Erf.scalar_unary(0.0, &a).unwrap()).abs() < 1e-6);
        assert!(OpKind::Add.scalar_unary(1.0, &a).is_none());
        let clip = Attrs::new().with_float("min", 0.0).with_float("max", 6.0);
        assert_eq!(OpKind::Clip.scalar_unary(8.0, &clip), Some(6.0));
        let leaky = Attrs::new().with_float("alpha", 0.1);
        assert!((OpKind::LeakyRelu.scalar_unary(-1.0, &leaky).unwrap() + 0.1).abs() < 1e-6);
    }

    #[test]
    fn scalar_binary_kernels() {
        assert_eq!(OpKind::Add.scalar_binary(2.0, 3.0), Some(5.0));
        assert_eq!(OpKind::Sub.scalar_binary(2.0, 3.0), Some(-1.0));
        assert_eq!(OpKind::Mul.scalar_binary(2.0, 3.0), Some(6.0));
        assert_eq!(OpKind::Div.scalar_binary(3.0, 2.0), Some(1.5));
        assert_eq!(OpKind::Max.scalar_binary(2.0, 3.0), Some(3.0));
        assert_eq!(OpKind::Greater.scalar_binary(2.0, 3.0), Some(0.0));
        assert_eq!(OpKind::BitShift.scalar_binary(3.0, 2.0), Some(12.0));
        assert_eq!(OpKind::PRelu.scalar_binary(-2.0, 0.5), Some(-1.0));
        assert!(OpKind::Relu.scalar_binary(1.0, 2.0).is_none());
    }

    #[test]
    fn erf_matches_known_values() {
        let erf = |x| OpKind::Erf.scalar_unary(x, &Attrs::new()).unwrap();
        assert!((erf(1.0) - 0.842_700_8).abs() < 1e-4);
        assert!((erf(-1.0) + 0.842_700_8).abs() < 1e-4);
        assert!((erf(2.0) - 0.995_322_3).abs() < 1e-4);
    }

    #[test]
    fn unary_binary_classification_is_consistent_with_scalar_kernels() {
        let attrs = Attrs::new();
        for &op in OpKind::all() {
            if op.is_elementwise_unary() {
                assert!(
                    op.scalar_unary(0.5, &attrs).is_some(),
                    "{op} should have a unary kernel"
                );
            }
            if op.is_elementwise_binary() {
                assert!(
                    op.scalar_binary(0.5, 0.25).is_some(),
                    "{op} should have a binary kernel"
                );
            }
        }
    }

    #[test]
    fn data_movement_classification() {
        assert!(OpKind::Transpose.is_data_movement());
        assert!(OpKind::Reshape.is_data_movement());
        assert!(OpKind::Slice.is_data_movement());
        assert!(OpKind::Concat.is_data_movement());
        assert!(!OpKind::Conv.is_data_movement());
        assert!(!OpKind::Relu.is_data_movement());
    }

    #[test]
    fn all_ops_have_unique_names() {
        let all = OpKind::all();
        let mut names: Vec<&str> = all.iter().map(|o| o.name()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(
            total >= 70,
            "expected a rich operator vocabulary, got {total}"
        );
    }

    #[test]
    fn from_name_round_trips_every_op_and_rejects_unknowns() {
        for &op in OpKind::all() {
            assert_eq!(OpKind::from_name(op.name()), Some(op));
        }
        assert_eq!(OpKind::from_name("NotAnOp"), None);
        assert_eq!(OpKind::from_name("conv"), None); // case-sensitive
        assert_eq!(OpKind::from_name(""), None);
    }

    #[test]
    fn arity_bounds_are_consistent() {
        for &op in OpKind::all() {
            if let Some(max) = op.max_inputs() {
                assert!(max >= op.min_inputs(), "{op}: max < min inputs");
            }
        }
        assert_eq!(OpKind::Where.min_inputs(), 3);
        assert_eq!(OpKind::Concat.max_inputs(), None);
        assert_eq!(OpKind::BatchNormalization.min_inputs(), 5);
    }
}
