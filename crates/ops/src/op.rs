//! The operator vocabulary and its per-operator metadata.

use std::fmt;

use dnnf_tensor::{Layout, Shape};

use crate::{Attrs, MappingType, MathProperties};

/// Operator kinds supported by the reproduction.
///
/// The list covers the ONNX operators the paper's Table 2 classifies plus the
/// operators needed to express the 15 evaluated models (e.g. `Mish` for
/// YOLO-v4, `Gelu`/`LayerNormalization` for the transformer family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum OpKind {
    // --- One-to-One: arithmetic ---
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Min,
    Max,
    Neg,
    Abs,
    Sqrt,
    Square,
    Reciprocal,
    Exp,
    Log,
    Erf,
    Sin,
    Cos,
    Asin,
    BitShift,
    // --- One-to-One: activations ---
    Relu,
    LeakyRelu,
    PRelu,
    Sigmoid,
    HardSigmoid,
    HardSwish,
    Silu,
    Mish,
    Gelu,
    Tanh,
    Softplus,
    Clip,
    // --- One-to-One: rounding / casting / logic ---
    Ceil,
    Floor,
    Round,
    Cast,
    Greater,
    Equal,
    Not,
    Where,
    Identity,
    // --- One-to-One: normalization (inference form) and data selection ---
    BatchNormalization,
    Concat,
    Slice,
    Split,
    Pad,
    // --- One-to-Many ---
    Expand,
    Gather,
    Resize,
    Upsample,
    Tile,
    // --- Many-to-Many ---
    Conv,
    ConvTranspose,
    Gemm,
    MatMul,
    AveragePool,
    MaxPool,
    GlobalAveragePool,
    Softmax,
    LogSoftmax,
    ReduceSum,
    ReduceMean,
    ReduceProd,
    ReduceMax,
    ReduceMin,
    ArgMax,
    CumSum,
    Einsum,
    InstanceNormalization,
    LayerNormalization,
    // --- Reorganize ---
    Reshape,
    Flatten,
    Squeeze,
    Unsqueeze,
    // --- Shuffle ---
    Transpose,
    DepthToSpace,
    SpaceToDepth,
}

impl OpKind {
    /// Every operator kind, in declaration order. Used to regenerate the
    /// paper's Table 2.
    #[must_use]
    pub fn all() -> Vec<OpKind> {
        use OpKind::*;
        vec![
            Add,
            Sub,
            Mul,
            Div,
            Pow,
            Min,
            Max,
            Neg,
            Abs,
            Sqrt,
            Square,
            Reciprocal,
            Exp,
            Log,
            Erf,
            Sin,
            Cos,
            Asin,
            BitShift,
            Relu,
            LeakyRelu,
            PRelu,
            Sigmoid,
            HardSigmoid,
            HardSwish,
            Silu,
            Mish,
            Gelu,
            Tanh,
            Softplus,
            Clip,
            Ceil,
            Floor,
            Round,
            Cast,
            Greater,
            Equal,
            Not,
            Where,
            Identity,
            BatchNormalization,
            Concat,
            Slice,
            Split,
            Pad,
            Expand,
            Gather,
            Resize,
            Upsample,
            Tile,
            Conv,
            ConvTranspose,
            Gemm,
            MatMul,
            AveragePool,
            MaxPool,
            GlobalAveragePool,
            Softmax,
            LogSoftmax,
            ReduceSum,
            ReduceMean,
            ReduceProd,
            ReduceMax,
            ReduceMin,
            ArgMax,
            CumSum,
            Einsum,
            InstanceNormalization,
            LayerNormalization,
            Reshape,
            Flatten,
            Squeeze,
            Unsqueeze,
            Transpose,
            DepthToSpace,
            SpaceToDepth,
        ]
    }

    /// The ONNX-style operator name.
    #[must_use]
    pub fn name(self) -> &'static str {
        use OpKind::*;
        match self {
            Add => "Add",
            Sub => "Sub",
            Mul => "Mul",
            Div => "Div",
            Pow => "Pow",
            Min => "Min",
            Max => "Max",
            Neg => "Neg",
            Abs => "Abs",
            Sqrt => "Sqrt",
            Square => "Square",
            Reciprocal => "Reciprocal",
            Exp => "Exp",
            Log => "Log",
            Erf => "Erf",
            Sin => "Sin",
            Cos => "Cos",
            Asin => "Asin",
            BitShift => "BitShift",
            Relu => "Relu",
            LeakyRelu => "LeakyRelu",
            PRelu => "PRelu",
            Sigmoid => "Sigmoid",
            HardSigmoid => "HardSigmoid",
            HardSwish => "HardSwish",
            Silu => "Silu",
            Mish => "Mish",
            Gelu => "Gelu",
            Tanh => "Tanh",
            Softplus => "Softplus",
            Clip => "Clip",
            Ceil => "Ceil",
            Floor => "Floor",
            Round => "Round",
            Cast => "Cast",
            Greater => "Greater",
            Equal => "Equal",
            Not => "Not",
            Where => "Where",
            Identity => "Identity",
            BatchNormalization => "BatchNormalization",
            Concat => "Concat",
            Slice => "Slice",
            Split => "Split",
            Pad => "Pad",
            Expand => "Expand",
            Gather => "Gather",
            Resize => "Resize",
            Upsample => "Upsample",
            Tile => "Tile",
            Conv => "Conv",
            ConvTranspose => "ConvTranspose",
            Gemm => "Gemm",
            MatMul => "MatMul",
            AveragePool => "AveragePool",
            MaxPool => "MaxPool",
            GlobalAveragePool => "GlobalAveragePool",
            Softmax => "Softmax",
            LogSoftmax => "LogSoftmax",
            ReduceSum => "ReduceSum",
            ReduceMean => "ReduceMean",
            ReduceProd => "ReduceProd",
            ReduceMax => "ReduceMax",
            ReduceMin => "ReduceMin",
            ArgMax => "ArgMax",
            CumSum => "CumSum",
            Einsum => "Einsum",
            InstanceNormalization => "InstanceNormalization",
            LayerNormalization => "LayerNormalization",
            Reshape => "Reshape",
            Flatten => "Flatten",
            Squeeze => "Squeeze",
            Unsqueeze => "Unsqueeze",
            Transpose => "Transpose",
            DepthToSpace => "DepthToSpace",
            SpaceToDepth => "SpaceToDepth",
        }
    }

    /// Parses the ONNX-style name produced by [`OpKind::name`] back into the
    /// operator kind. Returns `None` for names no bundled operator carries —
    /// the strict-import path of the `.dnnfg` graph format turns that into a
    /// typed unknown-operator error rather than guessing.
    #[must_use]
    pub fn from_name(name: &str) -> Option<OpKind> {
        OpKind::all().into_iter().find(|op| op.name() == name)
    }

    /// The operator's mapping type per the paper's Table 2 classification,
    /// assuming non-broadcasting inputs. Use
    /// [`OpKind::mapping_type_with_shapes`] when input shapes are known.
    #[must_use]
    pub fn mapping_type(self) -> MappingType {
        use OpKind::*;
        match self {
            Add | Sub | Mul | Div | Pow | Min | Max | Neg | Abs | Sqrt | Square | Reciprocal
            | Exp | Log | Erf | Sin | Cos | Asin | BitShift | Relu | LeakyRelu | PRelu
            | Sigmoid | HardSigmoid | HardSwish | Silu | Mish | Gelu | Tanh | Softplus | Clip
            | Ceil | Floor | Round | Cast | Greater | Equal | Not | Where | Identity
            | BatchNormalization | Concat | Slice | Split | Pad => MappingType::OneToOne,
            Expand | Gather | Resize | Upsample | Tile => MappingType::OneToMany,
            Conv
            | ConvTranspose
            | Gemm
            | MatMul
            | AveragePool
            | MaxPool
            | GlobalAveragePool
            | Softmax
            | LogSoftmax
            | ReduceSum
            | ReduceMean
            | ReduceProd
            | ReduceMax
            | ReduceMin
            | ArgMax
            | CumSum
            | Einsum
            | InstanceNormalization
            | LayerNormalization => MappingType::ManyToMany,
            Reshape | Flatten | Squeeze | Unsqueeze => MappingType::Reorganize,
            Transpose | DepthToSpace | SpaceToDepth => MappingType::Shuffle,
        }
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
        use OpKind::*;
        matches!(self, Conv | ConvTranspose | Gemm | MatMul | Einsum)
    }

    /// Minimum number of inputs.
    #[must_use]
    pub fn min_inputs(self) -> usize {
        use OpKind::*;
        match self {
            Add | Sub | Mul | Div | Pow | Min | Max | Greater | Equal | BitShift | PRelu
            | MatMul | Gather => 2,
            Where => 3,
            Gemm | Conv | ConvTranspose => 2,
            BatchNormalization => 5,
            InstanceNormalization | LayerNormalization => 3,
            Concat | Einsum => 1,
            _ => 1,
        }
    }

    /// Maximum number of inputs, or `None` for variadic operators.
    #[must_use]
    pub fn max_inputs(self) -> Option<usize> {
        use OpKind::*;
        match self {
            Concat | Einsum | Min | Max => None,
            Where => Some(3),
            Gemm | Conv | ConvTranspose => Some(3),
            BatchNormalization => Some(5),
            InstanceNormalization | LayerNormalization => Some(3),
            Clip => Some(3),
            Slice => Some(5),
            Pad => Some(3),
            Resize | Upsample => Some(4),
            x if x.min_inputs() == 2 => Some(2),
            _ => Some(1),
        }
    }

    /// Whether this is a unary element-wise operator (`y[i] = f(x[i])`).
    #[must_use]
    pub fn is_elementwise_unary(self) -> bool {
        use OpKind::*;
        matches!(
            self,
            Neg | Abs
                | Sqrt
                | Square
                | Reciprocal
                | Exp
                | Log
                | Erf
                | Sin
                | Cos
                | Asin
                | Relu
                | LeakyRelu
                | Sigmoid
                | HardSigmoid
                | HardSwish
                | Silu
                | Mish
                | Gelu
                | Tanh
                | Softplus
                | Clip
                | Ceil
                | Floor
                | Round
                | Cast
                | Not
                | Identity
        )
    }

    /// Whether this is a binary element-wise operator (`y[i] = f(a[i], b[i])`
    /// with broadcasting).
    #[must_use]
    pub fn is_elementwise_binary(self) -> bool {
        use OpKind::*;
        matches!(
            self,
            Add | Sub | Mul | Div | Pow | Min | Max | Greater | Equal | BitShift | PRelu
        )
    }

    /// Whether this operator reduces one or more axes (`Reduce*`, `ArgMax`).
    #[must_use]
    pub fn is_reduction(self) -> bool {
        use OpKind::*;
        matches!(
            self,
            ReduceSum | ReduceMean | ReduceProd | ReduceMax | ReduceMin | ArgMax
        )
    }

    /// Whether the operator only moves data (no arithmetic): the Reorganize
    /// and Shuffle classes plus pure data-selection operators. The latency
    /// models' `member_work` counts these as disrupting a fused anchor's
    /// access pattern.
    #[must_use]
    pub fn is_data_movement(self) -> bool {
        use OpKind::*;
        matches!(
            self.mapping_type(),
            MappingType::Reorganize | MappingType::Shuffle
        ) || matches!(
            self,
            Slice | Split | Concat | Identity | Gather | Expand | Tile | Pad
        )
    }

    /// The data layout this operator prefers, read by code generation's
    /// on-demand `select_layout` when it renders a fused block (paper
    /// §4.4.2). `None` means the operator is layout-agnostic (most
    /// One-to-One operators).
    #[must_use]
    pub fn preferred_layout(self) -> Option<Layout> {
        use OpKind::*;
        match self {
            Conv
            | ConvTranspose
            | MaxPool
            | AveragePool
            | GlobalAveragePool
            | BatchNormalization
            | InstanceNormalization => Some(Layout::Nchw),
            Resize | Upsample | DepthToSpace | SpaceToDepth => Some(Layout::Nhwc),
            Gemm | MatMul | Einsum | Softmax | LogSoftmax | LayerNormalization => {
                Some(Layout::RowMajor)
            }
            _ => None,
        }
    }

    /// Whether this operator is a *dominant* operator for layout selection:
    /// its performance is significantly affected by the data format (the
    /// paper names CONV, GEMM and Softmax as examples).
    #[must_use]
    pub fn is_layout_dominant(self) -> bool {
        use OpKind::*;
        matches!(
            self,
            Conv | ConvTranspose | Gemm | MatMul | Einsum | Softmax | AveragePool | MaxPool
        )
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
        for op in OpKind::all() {
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
    fn layout_preferences() {
        assert_eq!(OpKind::Conv.preferred_layout(), Some(Layout::Nchw));
        assert_eq!(OpKind::Gemm.preferred_layout(), Some(Layout::RowMajor));
        assert_eq!(OpKind::Relu.preferred_layout(), None);
        assert!(OpKind::Conv.is_layout_dominant());
        assert!(!OpKind::Relu.is_layout_dominant());
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
        for op in OpKind::all() {
            assert_eq!(OpKind::from_name(op.name()), Some(op));
        }
        assert_eq!(OpKind::from_name("NotAnOp"), None);
        assert_eq!(OpKind::from_name("conv"), None); // case-sensitive
        assert_eq!(OpKind::from_name(""), None);
    }

    #[test]
    fn arity_bounds_are_consistent() {
        for op in OpKind::all() {
            if let Some(max) = op.max_inputs() {
                assert!(max >= op.min_inputs(), "{op}: max < min inputs");
            }
        }
        assert_eq!(OpKind::Where.min_inputs(), 3);
        assert_eq!(OpKind::Concat.max_inputs(), None);
        assert_eq!(OpKind::BatchNormalization.min_inputs(), 5);
    }
}
