//! Analytical FLOP and memory-traffic model for operators.
//!
//! The paper uses `#FLOPS` as the metric driving graph rewriting (Table 4)
//! and reports memory accesses / intermediate-result sizes in its evaluation.
//! The cost model here serves both purposes: it is machine-independent (the
//! device-specific translation into latency lives in `dnnf-simdev`).

use dnnf_tensor::Shape;

use crate::{Attrs, OpKind};

/// Cost of a single operator invocation, machine-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCost {
    /// Floating point operations performed.
    pub flops: u64,
    /// Elements read from all inputs.
    pub input_elems: u64,
    /// Elements written to all outputs.
    pub output_elems: u64,
}

impl OpCost {
    /// Total elements moved (read + written).
    #[must_use]
    pub fn total_elems(&self) -> u64 {
        self.input_elems + self.output_elems
    }

    /// Bytes moved assuming `elem_bytes`-byte elements.
    #[must_use]
    pub fn bytes(&self, elem_bytes: u64) -> u64 {
        self.total_elems() * elem_bytes
    }
}

/// Computes the full cost of one operator invocation.
#[must_use]
pub fn op_cost(op: OpKind, attrs: &Attrs, inputs: &[Shape], outputs: &[Shape]) -> OpCost {
    OpCost {
        flops: flops(op, attrs, inputs, outputs),
        input_elems: inputs.iter().map(|s| s.numel() as u64).sum(),
        output_elems: outputs.iter().map(|s| s.numel() as u64).sum(),
    }
}

/// Floating point operations performed by one invocation of `op`.
///
/// The counts follow the conventions of the paper: a multiply-accumulate is
/// two FLOPs, data-movement operators perform zero FLOPs, and transcendental
/// activations are costed at a small constant number of FLOPs per element.
#[must_use]
pub fn flops(op: OpKind, attrs: &Attrs, inputs: &[Shape], outputs: &[Shape]) -> u64 {
    use OpKind::*;
    let out_numel: u64 = outputs.iter().map(|s| s.numel() as u64).sum();
    let in_numel: u64 = inputs.iter().map(|s| s.numel() as u64).sum();
    match op {
        // Pure data movement: no arithmetic.
        Reshape | Flatten | Squeeze | Unsqueeze | Transpose | DepthToSpace | SpaceToDepth
        | Identity | Cast | Concat | Slice | Split | Pad | Expand | Gather | Tile | Resize
        | Upsample => 0,
        // Cheap unary arithmetic: one FLOP per output element.
        Neg | Abs | Relu | Ceil | Floor | Round | Not | Square | Reciprocal | Sqrt | Clip
        | LeakyRelu => out_numel,
        // Transcendental / composite activations: a handful of FLOPs each.
        Exp | Log | Sin | Cos | Asin | Sigmoid | Tanh | Erf | Softplus | HardSigmoid => {
            4 * out_numel
        }
        Silu | HardSwish | Gelu | Mish => 6 * out_numel,
        // Binary element-wise.
        Add | Sub | Mul | Div | Pow | Min | Max | Greater | Equal | BitShift | PRelu | Where => {
            out_numel
        }
        // Inference-form BatchNorm: scale and shift.
        BatchNormalization => 2 * outputs.first().map_or(0, |s| s.numel() as u64),
        InstanceNormalization | LayerNormalization => {
            8 * outputs.first().map_or(0, |s| s.numel() as u64)
        }
        Softmax | LogSoftmax => 5 * out_numel,
        ReduceSum | ReduceMean | ReduceMax | ReduceMin | ReduceProd | ArgMax | CumSum => {
            inputs.first().map_or(0, |s| s.numel() as u64)
        }
        GlobalAveragePool => inputs.first().map_or(0, |s| s.numel() as u64),
        AveragePool | MaxPool => {
            let kernel: u64 = attrs
                .ints_or("kernel_shape", &[1])
                .iter()
                .map(|&k| k.max(1) as u64)
                .product();
            out_numel * kernel
        }
        Conv => conv_flops(attrs, inputs, outputs),
        ConvTranspose => conv_transpose_flops(attrs, inputs),
        Gemm => {
            let (m, n) = outputs
                .first()
                .map_or((0, 0), |s| (s.dim(0) as u64, s.dim(1) as u64));
            let k = gemm_inner(attrs, inputs);
            let bias = if inputs.len() > 2 { m * n } else { 0 };
            2 * m * n * k + bias
        }
        MatMul => {
            let out = match outputs.first() {
                Some(s) if s.rank() >= 2 => s,
                _ => return 0,
            };
            let k = inputs.first().map_or(0, |s| s.dim(s.rank() - 1) as u64);
            2 * out.numel() as u64 * k
        }
        Einsum => 2 * in_numel.max(out_numel),
    }
}

fn conv_flops(attrs: &Attrs, inputs: &[Shape], outputs: &[Shape]) -> u64 {
    let (w, out) = match (inputs.get(1), outputs.first()) {
        (Some(w), Some(out)) => (w, out),
        _ => return 0,
    };
    // Weight layout (M, C/group, k...): every output element needs
    // C/group * prod(kernel) multiply-accumulates.
    let per_output: u64 = w.dims()[1..].iter().map(|&d| d as u64).product();
    let bias = if inputs.len() > 2 {
        out.numel() as u64
    } else {
        0
    };
    let _ = attrs;
    2 * out.numel() as u64 * per_output + bias
}

fn conv_transpose_flops(attrs: &Attrs, inputs: &[Shape]) -> u64 {
    let (x, w) = match (inputs.first(), inputs.get(1)) {
        (Some(x), Some(w)) => (x, w),
        _ => return 0,
    };
    let group = attrs.int_or("group", 1).max(1) as u64;
    // Each input element is scattered into C_out/group * prod(kernel) outputs.
    let per_input: u64 = w.dims()[1..].iter().map(|&d| d as u64).product::<u64>() * group;
    2 * x.numel() as u64 * per_input / group
}

fn gemm_inner(attrs: &Attrs, inputs: &[Shape]) -> u64 {
    let a = match inputs.first() {
        Some(a) if a.rank() == 2 => a,
        _ => return 0,
    };
    if attrs.int_or("transA", 0) != 0 {
        a.dim(0) as u64
    } else {
        a.dim(1) as u64
    }
}

/// Bytes read and written by one invocation of `op`, assuming
/// `elem_bytes`-byte elements.
#[must_use]
pub fn bytes_accessed(
    op: OpKind,
    attrs: &Attrs,
    inputs: &[Shape],
    outputs: &[Shape],
    elem_bytes: u64,
) -> u64 {
    op_cost(op, attrs, inputs, outputs).bytes(elem_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(dims: &[usize]) -> Shape {
        Shape::new(dims.to_vec())
    }

    #[test]
    fn data_movement_has_zero_flops() {
        for op in [
            OpKind::Reshape,
            OpKind::Transpose,
            OpKind::Concat,
            OpKind::Gather,
        ] {
            assert_eq!(
                flops(op, &Attrs::new(), &[s(&[8, 8])], &[s(&[8, 8])]),
                0,
                "{op}"
            );
        }
    }

    #[test]
    fn elementwise_flops_scale_with_output() {
        assert_eq!(
            flops(
                OpKind::Add,
                &Attrs::new(),
                &[s(&[4, 4]), s(&[4, 4])],
                &[s(&[4, 4])]
            ),
            16
        );
        assert_eq!(
            flops(OpKind::Relu, &Attrs::new(), &[s(&[10])], &[s(&[10])]),
            10
        );
        assert_eq!(
            flops(OpKind::Sigmoid, &Attrs::new(), &[s(&[10])], &[s(&[10])]),
            40
        );
    }

    #[test]
    fn gemm_flops_are_2mnk() {
        let f = flops(
            OpKind::Gemm,
            &Attrs::new(),
            &[s(&[4, 8]), s(&[8, 16])],
            &[s(&[4, 16])],
        );
        assert_eq!(f, 2 * 4 * 16 * 8);
        // With bias.
        let f = flops(
            OpKind::Gemm,
            &Attrs::new(),
            &[s(&[4, 8]), s(&[8, 16]), s(&[16])],
            &[s(&[4, 16])],
        );
        assert_eq!(f, 2 * 4 * 16 * 8 + 4 * 16);
    }

    #[test]
    fn matmul_flops_account_for_batch() {
        let f = flops(
            OpKind::MatMul,
            &Attrs::new(),
            &[s(&[2, 4, 8]), s(&[2, 8, 16])],
            &[s(&[2, 4, 16])],
        );
        assert_eq!(f, 2 * 2 * 4 * 16 * 8);
    }

    #[test]
    fn conv_flops_match_hand_computation() {
        // out 1x64x112x112, weight 64x3x7x7 -> 2 * out * 3*7*7.
        let f = flops(
            OpKind::Conv,
            &Attrs::new(),
            &[s(&[1, 3, 224, 224]), s(&[64, 3, 7, 7])],
            &[s(&[1, 64, 112, 112])],
        );
        assert_eq!(f, 2 * 64 * 112 * 112 * 3 * 7 * 7);
    }

    #[test]
    fn pooling_flops_scale_with_kernel() {
        let attrs = Attrs::new().with_ints("kernel_shape", vec![3, 3]);
        let f = flops(
            OpKind::MaxPool,
            &attrs,
            &[s(&[1, 8, 16, 16])],
            &[s(&[1, 8, 8, 8])],
        );
        assert_eq!(f, 8 * 8 * 8 * 9);
    }

    #[test]
    fn op_cost_counts_flops_elements_and_bytes() {
        let a = op_cost(OpKind::Add, &Attrs::new(), &[s(&[4]), s(&[4])], &[s(&[4])]);
        assert_eq!(a.flops, 4);
        assert_eq!(a.input_elems, 8);
        assert_eq!(a.output_elems, 4);
        assert_eq!(a.bytes(4), 48);
    }

    #[test]
    fn bytes_accessed_uses_element_width() {
        let b4 = bytes_accessed(OpKind::Relu, &Attrs::new(), &[s(&[10])], &[s(&[10])], 4);
        let b2 = bytes_accessed(OpKind::Relu, &Attrs::new(), &[s(&[10])], &[s(&[10])], 2);
        assert_eq!(b4, 80);
        assert_eq!(b2, 40);
    }

    #[test]
    fn table1_style_flops_are_dominated_by_conv_and_gemm() {
        // A VGG-style conv layer dwarfs its activation in FLOPs — this is the
        // imbalance Table 1 of the paper builds on.
        let conv = flops(
            OpKind::Conv,
            &Attrs::new(),
            &[s(&[1, 64, 56, 56]), s(&[64, 64, 3, 3])],
            &[s(&[1, 64, 56, 56])],
        );
        let relu = flops(
            OpKind::Relu,
            &Attrs::new(),
            &[s(&[1, 64, 56, 56])],
            &[s(&[1, 64, 56, 56])],
        );
        assert!(conv > 100 * relu);
    }
}
