//! Normalization and softmax kernels.

use dnnf_tensor::Tensor;

use super::sum;
use crate::{Attrs, OpError, OpKind};

/// Inference-form `BatchNormalization`:
/// `y = scale * (x - mean) / sqrt(var + eps) + bias`, per channel (axis 1).
pub fn batch_norm(attrs: &Attrs, inputs: &[&Tensor]) -> Result<Tensor, OpError> {
    let x = inputs[0];
    let scale = inputs[1];
    let bias = inputs[2];
    let mean = inputs[3];
    let var = inputs[4];
    let eps = attrs.float_or("epsilon", 1e-5);
    if let Some(&channels) = x.shape().dims().get(1) {
        if let Some(p) = inputs[1..].iter().find(|p| p.numel() != channels) {
            return Err(OpError::InvalidShape {
                op: OpKind::BatchNormalization,
                reason: format!("{} parameter values for {channels} channels", p.numel()),
            });
        }
    }
    per_channel_affine(x, |c, v| {
        let s = scale.at_linear(c);
        let b = bias.at_linear(c);
        let m = mean.at_linear(c);
        let va = var.at_linear(c);
        s * (v - m) / (va + eps).sqrt() + b
    })
}

/// `InstanceNormalization`: normalizes over the spatial dimensions of each
/// `(n, c)` slice, then applies per-channel scale and bias.
pub fn instance_norm(attrs: &Attrs, inputs: &[&Tensor]) -> Result<Tensor, OpError> {
    let x = inputs[0];
    let scale = inputs[1];
    let bias = inputs[2];
    let eps = attrs.float_or("epsilon", 1e-5);
    if x.shape().rank() < 3 {
        return Err(OpError::InvalidShape {
            op: OpKind::InstanceNormalization,
            reason: "expected at least rank-3 input".into(),
        });
    }
    let batch = x.shape().dim(0);
    let channels = x.shape().dim(1);
    let spatial: usize = x.shape().dims()[2..].iter().product();
    let mut out = Tensor::zeros(x.shape().clone());
    for n in 0..batch {
        for c in 0..channels {
            let base = (n * channels + c) * spatial;
            let mean = sum((0..spatial).map(|s| x.at_linear(base + s))) / spatial as f32;
            let var =
                sum((0..spatial).map(|s| (x.at_linear(base + s) - mean).powi(2))) / spatial as f32;
            let denom = (var + eps).sqrt();
            for s in 0..spatial {
                out.data_mut()[base + s] =
                    scale.at_linear(c) * (x.at_linear(base + s) - mean) / denom + bias.at_linear(c);
            }
        }
    }
    Ok(out)
}

/// `LayerNormalization` over the last axis (the transformer-standard form):
/// `y = scale * (x - mean) / sqrt(var + eps) + bias`.
pub fn layer_norm(attrs: &Attrs, inputs: &[&Tensor]) -> Result<Tensor, OpError> {
    let x = inputs[0];
    let scale = inputs[1];
    let bias = inputs[2];
    let eps = attrs.float_or("epsilon", 1e-5);
    let rank = x.shape().rank();
    if rank == 0 {
        return Err(OpError::InvalidShape {
            op: OpKind::LayerNormalization,
            reason: "expected at least rank-1 input".into(),
        });
    }
    let inner = x.shape().dim(rank - 1);
    let outer = x.numel() / inner;
    let mut out = Tensor::zeros(x.shape().clone());
    for o in 0..outer {
        let base = o * inner;
        let mean = sum((0..inner).map(|i| x.at_linear(base + i))) / inner as f32;
        let var = sum((0..inner).map(|i| (x.at_linear(base + i) - mean).powi(2))) / inner as f32;
        let denom = (var + eps).sqrt();
        for i in 0..inner {
            out.data_mut()[base + i] =
                scale.at_linear(i) * (x.at_linear(base + i) - mean) / denom + bias.at_linear(i);
        }
    }
    Ok(out)
}

/// `Softmax` / `LogSoftmax` along `axis` (default: last).
pub fn softmax(attrs: &Attrs, x: &Tensor, log: bool) -> Result<Tensor, OpError> {
    let rank = x.shape().rank();
    let axis = x.shape().normalize_axis(attrs.int_or("axis", -1))?;
    // Iterate over all slices along `axis`.
    let axis_len = x.shape().dim(axis);
    let outer: usize = x.shape().dims()[..axis].iter().product();
    let inner: usize = x.shape().dims()[axis + 1..].iter().product();
    let _ = rank;
    let mut out = Tensor::zeros(x.shape().clone());
    for o in 0..outer.max(1) {
        for i in 0..inner.max(1) {
            let offset = |a: usize| (o * axis_len + a) * inner + i;
            let max = (0..axis_len)
                .map(|a| x.at_linear(offset(a)))
                .fold(f32::NEG_INFINITY, f32::max);
            let sum = sum((0..axis_len).map(|a| (x.at_linear(offset(a)) - max).exp()));
            for a in 0..axis_len {
                let e = (x.at_linear(offset(a)) - max).exp();
                out.data_mut()[offset(a)] = if log { (e / sum).ln() } else { e / sum };
            }
        }
    }
    Ok(out)
}

/// Helper: applies `f(channel, value)` over an `(N, C, ...)` tensor.
fn per_channel_affine(x: &Tensor, f: impl Fn(usize, f32) -> f32) -> Result<Tensor, OpError> {
    if x.shape().rank() < 2 {
        return Err(OpError::InvalidShape {
            op: OpKind::BatchNormalization,
            reason: "expected at least rank-2 input".into(),
        });
    }
    let batch = x.shape().dim(0);
    let channels = x.shape().dim(1);
    let spatial: usize = x.shape().dims()[2..].iter().product::<usize>().max(1);
    let mut out = Tensor::zeros(x.shape().clone());
    for n in 0..batch {
        for c in 0..channels {
            let base = (n * channels + c) * spatial;
            for s in 0..spatial {
                out.data_mut()[base + s] = f(c, x.at_linear(base + s));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnf_tensor::Shape;

    #[test]
    fn batch_norm_standardizes_with_unit_scale() {
        let x = Tensor::from_vec(Shape::new(vec![1, 1, 4]), vec![2.0, 4.0, 6.0, 8.0]).unwrap();
        let scale = Tensor::full(Shape::new(vec![1]), 1.0);
        let bias = Tensor::zeros(Shape::new(vec![1]));
        let mean = Tensor::full(Shape::new(vec![1]), 5.0);
        let var = Tensor::full(Shape::new(vec![1]), 4.0);
        let attrs = Attrs::new().with_float("epsilon", 0.0);
        let y = batch_norm(&attrs, &[&x, &scale, &bias, &mean, &var]).unwrap();
        assert_eq!(y.data(), &[-1.5, -0.5, 0.5, 1.5]);
    }

    #[test]
    fn batch_norm_scale_and_bias_per_channel() {
        let x = Tensor::full(Shape::new(vec![1, 2, 2]), 1.0);
        let scale = Tensor::from_vec(Shape::new(vec![2]), vec![2.0, 3.0]).unwrap();
        let bias = Tensor::from_vec(Shape::new(vec![2]), vec![10.0, 20.0]).unwrap();
        let mean = Tensor::zeros(Shape::new(vec![2]));
        let var = Tensor::full(Shape::new(vec![2]), 1.0);
        let attrs = Attrs::new().with_float("epsilon", 0.0);
        let y = batch_norm(&attrs, &[&x, &scale, &bias, &mean, &var]).unwrap();
        assert_eq!(y.data(), &[12.0, 12.0, 23.0, 23.0]);
        // Fewer parameters than channels is an error, not an index panic.
        let short = Tensor::full(Shape::new(vec![1]), 1.0);
        let err = batch_norm(&attrs, &[&x, &short, &bias, &mean, &var]);
        assert!(matches!(err, Err(OpError::InvalidShape { .. })), "{err:?}");
    }

    #[test]
    fn instance_norm_zero_mean_unit_variance() {
        let x = Tensor::from_vec(Shape::new(vec![1, 1, 4]), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let scale = Tensor::full(Shape::new(vec![1]), 1.0);
        let bias = Tensor::zeros(Shape::new(vec![1]));
        let y = instance_norm(&Attrs::new(), &[&x, &scale, &bias]).unwrap();
        let mean: f32 = y.iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        let var: f32 = y.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_normalizes_last_axis_rows_independently() {
        let x = Tensor::from_vec(
            Shape::new(vec![2, 3]),
            vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0],
        )
        .unwrap();
        let scale = Tensor::full(Shape::new(vec![3]), 1.0);
        let bias = Tensor::zeros(Shape::new(vec![3]));
        let y = layer_norm(&Attrs::new(), &[&x, &scale, &bias]).unwrap();
        // Both rows have the same normalized pattern.
        assert!((y.at(&[0, 0]).unwrap() - y.at(&[1, 0]).unwrap()).abs() < 1e-4);
        assert!(y.at(&[0, 1]).unwrap().abs() < 1e-5);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::random(Shape::new(vec![3, 5]), 3);
        let y = softmax(&Attrs::new(), &x, false).unwrap();
        for r in 0..3 {
            let sum: f32 = (0..5).map(|c| y.at(&[r, c]).unwrap()).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_respects_axis_zero() {
        let x = Tensor::random(Shape::new(vec![3, 5]), 4);
        let attrs = Attrs::new().with_int("axis", 0);
        let y = softmax(&attrs, &x, false).unwrap();
        for c in 0..5 {
            let sum: f32 = (0..3).map(|r| y.at(&[r, c]).unwrap()).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let x = Tensor::random(Shape::new(vec![2, 4]), 5);
        let sm = softmax(&Attrs::new(), &x, false).unwrap();
        let lsm = softmax(&Attrs::new(), &x, true).unwrap();
        let expected = sm.map(|v| v.ln());
        assert!(lsm.allclose(&expected, 1e-5));
    }

    #[test]
    fn softmax_is_invariant_to_constant_shift() {
        let x = Tensor::random(Shape::new(vec![2, 6]), 6);
        let shifted = x.map(|v| v + 100.0);
        let a = softmax(&Attrs::new(), &x, false).unwrap();
        let b = softmax(&Attrs::new(), &shifted, false).unwrap();
        assert!(a.allclose(&b, 1e-5));
    }
}
