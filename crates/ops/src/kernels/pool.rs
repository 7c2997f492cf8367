//! Pooling kernels (max, average, global average).

use dnnf_tensor::{IndexIter, Shape, Tensor};

use super::sum;
use crate::shape_infer::Window;
use crate::{Attrs, OpError, OpKind};

/// `MaxPool` / `AveragePool` over an `(N, C, spatial...)` input.
pub fn pool(op: OpKind, attrs: &Attrs, x: &Tensor, out_shape: &Shape) -> Result<Tensor, OpError> {
    let spatial_rank = x.shape().rank() - 2;
    let Window {
        kernel,
        strides,
        dilations,
        pads,
    } = Window::parse(op, attrs, spatial_rank, None)?;
    let count_include_pad = attrs.int_or("count_include_pad", 0) != 0;

    let batch = x.shape().dim(0);
    let channels = x.shape().dim(1);
    let out_spatial = Shape::new(out_shape.dims()[2..].to_vec());
    let kernel_shape = Shape::new(kernel.clone());

    let mut out = Tensor::zeros(out_shape.clone());
    let mut offset = 0usize;
    for n in 0..batch {
        for c in 0..channels {
            for out_pos in IndexIter::new(&out_spatial) {
                let mut acc = if op == OpKind::MaxPool {
                    f32::NEG_INFINITY
                } else {
                    0.0
                };
                let mut count = 0usize;
                for k_pos in IndexIter::new(&kernel_shape) {
                    let mut idx = vec![n, c];
                    let mut in_bounds = true;
                    for d in 0..spatial_rank {
                        let pos = out_pos[d] * strides[d] + k_pos[d] * dilations[d];
                        if pos < pads[d] || pos - pads[d] >= x.shape().dim(2 + d) {
                            in_bounds = false;
                            break;
                        }
                        idx.push(pos - pads[d]);
                    }
                    if in_bounds {
                        let v = x.at(&idx)?;
                        if op == OpKind::MaxPool {
                            acc = acc.max(v);
                        } else {
                            acc += v;
                        }
                        count += 1;
                    }
                }
                let v = if op == OpKind::MaxPool {
                    acc
                } else {
                    let denom = if count_include_pad {
                        kernel.iter().product::<usize>()
                    } else {
                        count.max(1)
                    };
                    acc / denom as f32
                };
                out.data_mut()[offset] = v;
                offset += 1;
            }
        }
    }
    Ok(out)
}

/// `GlobalAveragePool`: averages every spatial dimension per channel.
pub fn global_average_pool(x: &Tensor, out_shape: &Shape) -> Result<Tensor, OpError> {
    let batch = x.shape().dim(0);
    let channels = x.shape().dim(1);
    let spatial: usize = x.shape().dims()[2..].iter().product();
    let mut out = Tensor::zeros(out_shape.clone());
    for n in 0..batch {
        for c in 0..channels {
            let base = (n * channels + c) * spatial;
            let total = sum((0..spatial).map(|s| x.at_linear(base + s)));
            out.data_mut()[n * channels + c] = total / spatial.max(1) as f32;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer_shapes;

    fn run(op: OpKind, attrs: &Attrs, x: &Tensor) -> Tensor {
        let out = infer_shapes(op, attrs, &[x.shape().clone()]).unwrap();
        if op == OpKind::GlobalAveragePool {
            global_average_pool(x, &out[0]).unwrap()
        } else {
            pool(op, attrs, x, &out[0]).unwrap()
        }
    }

    #[test]
    fn maxpool_2x2_picks_window_max() {
        let x = Tensor::arange(Shape::new(vec![1, 1, 4, 4]));
        let attrs = Attrs::new()
            .with_ints("kernel_shape", vec![2, 2])
            .with_ints("strides", vec![2, 2]);
        let y = run(OpKind::MaxPool, &attrs, &x);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn averagepool_2x2_averages_window() {
        let x = Tensor::arange(Shape::new(vec![1, 1, 4, 4]));
        let attrs = Attrs::new()
            .with_ints("kernel_shape", vec![2, 2])
            .with_ints("strides", vec![2, 2]);
        let y = run(OpKind::AveragePool, &attrs, &x);
        assert_eq!(y.data(), &[2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn averagepool_with_padding_excludes_pad_by_default() {
        let x = Tensor::full(Shape::new(vec![1, 1, 2, 2]), 4.0);
        let attrs = Attrs::new()
            .with_ints("kernel_shape", vec![3, 3])
            .with_ints("pads", vec![1, 1, 1, 1]);
        let y = run(OpKind::AveragePool, &attrs, &x);
        // Every window sees only in-bounds 4.0s, so the average stays 4.0.
        assert!(y.iter().all(|&v| (v - 4.0).abs() < 1e-6));
    }

    #[test]
    fn maxpool_3d_works() {
        let x = Tensor::arange(Shape::new(vec![1, 1, 2, 2, 2]));
        let attrs = Attrs::new()
            .with_ints("kernel_shape", vec![2, 2, 2])
            .with_ints("strides", vec![2, 2, 2]);
        let y = run(OpKind::MaxPool, &attrs, &x);
        assert_eq!(y.data(), &[7.0]);
    }

    #[test]
    fn global_average_pool_reduces_spatial() {
        let x = Tensor::arange(Shape::new(vec![1, 2, 2, 2]));
        let y = run(OpKind::GlobalAveragePool, &Attrs::new(), &x);
        assert_eq!(y.shape().dims(), &[1, 2, 1, 1]);
        assert_eq!(y.data(), &[1.5, 5.5]);
    }
}
