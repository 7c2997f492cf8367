//! Reference kernels.
//!
//! These are deliberately simple, index-based implementations: their job is
//! to define the *semantics* every optimized/fused execution must reproduce.
//! The runtime's fused-kernel interpreter is checked for bit-exact (or
//! tolerance-exact) equivalence against these kernels in the integration and
//! property tests.

mod conv;
mod elementwise;
pub(crate) mod fast;
mod matmul;
mod norm;
mod pool;
mod reduce;
mod shape_ops;

use dnnf_tensor::Tensor;

use crate::{infer_shapes, Attrs, OpError, OpKind};

/// The sum of `values`, folded in order from `+0.0` like every additive
/// kernel fold here. (`Iterator::sum` starts at `-0.0`, so it turns an empty
/// or all-`-0.0` sum into `-0.0` where the fast kernels give `+0.0`.)
fn sum(values: impl Iterator<Item = f32>) -> f32 {
    values.fold(0.0, |acc, v| acc + v)
}

/// Executes one operator on concrete tensors, returning its output(s).
///
/// # Errors
///
/// Returns an [`OpError`] if the inputs are invalid for the operator or the
/// operator has no reference kernel (`Einsum`).
pub fn execute(op: OpKind, attrs: &Attrs, inputs: &[&Tensor]) -> Result<Vec<Tensor>, OpError> {
    // Shape inference doubles as input validation for every kernel.
    let input_shapes: Vec<_> = inputs.iter().map(|t| t.shape().clone()).collect();
    let output_shapes = infer_shapes(op, attrs, &input_shapes)?;

    use OpKind::*;
    let outputs = match op {
        _ if op.is_elementwise_unary() => vec![elementwise::unary(op, attrs, inputs[0])],
        _ if op.is_elementwise_binary() => {
            vec![elementwise::binary(op, inputs[0], inputs[1])?]
        }
        Where => vec![elementwise::where_select(inputs[0], inputs[1], inputs[2])?],
        BatchNormalization => vec![norm::batch_norm(attrs, inputs)?],
        InstanceNormalization => vec![norm::instance_norm(attrs, inputs)?],
        LayerNormalization => vec![norm::layer_norm(attrs, inputs)?],
        Softmax => vec![norm::softmax(attrs, inputs[0], false)?],
        LogSoftmax => vec![norm::softmax(attrs, inputs[0], true)?],
        Concat => vec![shape_ops::concat(attrs, inputs, &output_shapes[0])?],
        Slice => vec![shape_ops::slice(attrs, inputs[0], &output_shapes[0])?],
        Split => shape_ops::split(attrs, inputs[0], &output_shapes)?,
        Pad => vec![shape_ops::pad(attrs, inputs[0], &output_shapes[0])?],
        Expand | Tile => vec![shape_ops::expand_like(inputs[0], &output_shapes[0])?],
        Gather => vec![shape_ops::gather(
            attrs,
            inputs[0],
            inputs[1],
            &output_shapes[0],
        )?],
        Resize | Upsample => vec![shape_ops::resize_nearest(inputs[0], &output_shapes[0])?],
        Conv => vec![conv::conv(attrs, inputs, &output_shapes[0])?],
        ConvTranspose => vec![conv::conv_transpose(attrs, inputs, &output_shapes[0])?],
        Gemm => vec![matmul::gemm(attrs, inputs, &output_shapes[0])?],
        MatMul => vec![matmul::matmul(inputs[0], inputs[1], &output_shapes[0])?],
        AveragePool | MaxPool => vec![pool::pool(op, attrs, inputs[0], &output_shapes[0])?],
        GlobalAveragePool => vec![pool::global_average_pool(inputs[0], &output_shapes[0])?],
        ReduceSum | ReduceMean | ReduceProd | ReduceMax | ReduceMin => {
            vec![reduce::reduce(op, attrs, inputs[0], &output_shapes[0])?]
        }
        ArgMax => vec![reduce::argmax(attrs, inputs[0], &output_shapes[0])?],
        CumSum => vec![reduce::cumsum(attrs, inputs[0])?],
        Reshape | Flatten | Squeeze | Unsqueeze => {
            vec![inputs[0].reshape(output_shapes[0].clone())?]
        }
        Transpose => vec![shape_ops::transpose(attrs, inputs[0])?],
        DepthToSpace => vec![shape_ops::depth_to_space(
            attrs,
            inputs[0],
            &output_shapes[0],
        )?],
        SpaceToDepth => vec![shape_ops::space_to_depth(
            attrs,
            inputs[0],
            &output_shapes[0],
        )?],
        Einsum => return Err(OpError::Unsupported { op }),
        // All One-to-One operators are covered by the unary/binary arms above.
        _ => return Err(OpError::Unsupported { op }),
    };

    debug_assert_eq!(
        outputs
            .iter()
            .map(|t| t.shape().clone())
            .collect::<Vec<_>>(),
        output_shapes,
        "kernel output shape disagrees with shape inference for {op}"
    );
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnf_tensor::Shape;

    #[test]
    fn execute_validates_inputs_before_running() {
        let x = Tensor::zeros(Shape::new(vec![2, 2]));
        assert!(execute(OpKind::Add, &Attrs::new(), &[&x]).is_err());
    }

    #[test]
    fn every_non_einsum_op_with_simple_signature_runs() {
        // Smoke test: unary ops run on a small tensor.
        let x = Tensor::random(Shape::new(vec![2, 3]), 1);
        for &op in OpKind::all() {
            if op.is_elementwise_unary() {
                let out = execute(op, &Attrs::new(), &[&x]).unwrap();
                assert_eq!(out[0].shape(), x.shape(), "{op}");
            }
        }
    }

    #[test]
    fn einsum_reports_unsupported() {
        let x = Tensor::zeros(Shape::new(vec![2, 2]));
        assert!(matches!(
            execute(OpKind::Einsum, &Attrs::new(), &[&x]),
            Err(OpError::Unsupported { .. })
        ));
    }
}
