//! Convolution kernels (N-dimensional spatial, grouped, strided, dilated).

use dnnf_tensor::{IndexIter, Shape, Tensor};

use crate::shape_infer::Window;
use crate::{Attrs, OpError, OpKind};

/// Direct N-dimensional convolution over an `(N, C, spatial...)` input with
/// an `(M, C/group, kernel...)` weight and optional bias.
pub fn conv(attrs: &Attrs, inputs: &[&Tensor], out_shape: &Shape) -> Result<Tensor, OpError> {
    let x = inputs[0];
    let w = inputs[1];
    let bias = inputs.get(2);
    let spatial_rank = x.shape().rank() - 2;
    let p = Window::parse(
        OpKind::Conv,
        attrs,
        spatial_rank,
        Some(&w.shape().dims()[2..]),
    )?;
    let group = attrs.int_or("group", 1).max(1) as usize;
    let batch = x.shape().dim(0);
    let out_channels = w.shape().dim(0);
    let in_per_group = w.shape().dim(1);
    let channels_per_group_out = out_channels / group;
    let kernel_spatial = Shape::new(w.shape().dims()[2..].to_vec());
    let out_spatial = Shape::new(out_shape.dims()[2..].to_vec());

    let mut out = Tensor::zeros(out_shape.clone());
    let mut out_offset = 0usize;
    for n in 0..batch {
        for oc in 0..out_channels {
            let g = oc / channels_per_group_out;
            for out_pos in IndexIter::new(&out_spatial) {
                let mut acc = bias.map_or(Ok(0.0), |b| b.at(&[oc]))?;
                for ic in 0..in_per_group {
                    for k_pos in IndexIter::new(&kernel_spatial) {
                        // Input spatial coordinate for this kernel tap.
                        let mut in_idx = Vec::with_capacity(2 + spatial_rank);
                        in_idx.push(n);
                        in_idx.push(g * in_per_group + ic);
                        let mut in_bounds = true;
                        for d in 0..spatial_rank {
                            let pos = out_pos[d] * p.strides[d] + k_pos[d] * p.dilations[d];
                            if pos < p.pads[d] {
                                in_bounds = false;
                                break;
                            }
                            let pos = pos - p.pads[d];
                            if pos >= x.shape().dim(2 + d) {
                                in_bounds = false;
                                break;
                            }
                            in_idx.push(pos);
                        }
                        if !in_bounds {
                            continue;
                        }
                        let mut w_idx = Vec::with_capacity(2 + spatial_rank);
                        w_idx.push(oc);
                        w_idx.push(ic);
                        w_idx.extend_from_slice(&k_pos);
                        acc += x.at(&in_idx)? * w.at(&w_idx)?;
                    }
                }
                out.data_mut()[out_offset] = acc;
                out_offset += 1;
            }
        }
    }
    Ok(out)
}

/// Transposed convolution implemented by scattering each input element into
/// the output (the adjoint of [`conv`]).
pub fn conv_transpose(
    attrs: &Attrs,
    inputs: &[&Tensor],
    out_shape: &Shape,
) -> Result<Tensor, OpError> {
    let x = inputs[0];
    let w = inputs[1];
    let bias = inputs.get(2);
    let spatial_rank = x.shape().rank() - 2;
    let kernel = &w.shape().dims()[2..];
    let p = Window::parse(OpKind::ConvTranspose, attrs, spatial_rank, Some(kernel))?;
    let group = attrs.int_or("group", 1).max(1) as usize;
    let batch = x.shape().dim(0);
    let in_channels = x.shape().dim(1);
    let out_channels_per_group = w.shape().dim(1);
    let in_per_group = in_channels / group;
    let kernel_spatial = Shape::new(w.shape().dims()[2..].to_vec());
    let in_spatial = Shape::new(x.shape().dims()[2..].to_vec());

    let mut out = Tensor::zeros(out_shape.clone());
    for n in 0..batch {
        for ic in 0..in_channels {
            let g = ic / in_per_group;
            for in_pos in IndexIter::new(&in_spatial) {
                let mut x_idx = vec![n, ic];
                x_idx.extend_from_slice(&in_pos);
                let xv = x.at(&x_idx)?;
                for ocg in 0..out_channels_per_group {
                    let oc = g * out_channels_per_group + ocg;
                    for k_pos in IndexIter::new(&kernel_spatial) {
                        let mut out_idx = vec![n, oc];
                        let mut in_bounds = true;
                        for d in 0..spatial_rank {
                            let pos = in_pos[d] * p.strides[d] + k_pos[d] * p.dilations[d];
                            if pos < p.pads[d] {
                                in_bounds = false;
                                break;
                            }
                            let pos = pos - p.pads[d];
                            if pos >= out_shape.dim(2 + d) {
                                in_bounds = false;
                                break;
                            }
                            out_idx.push(pos);
                        }
                        if !in_bounds {
                            continue;
                        }
                        let mut w_idx = vec![ic, ocg];
                        w_idx.extend_from_slice(&k_pos);
                        let offset = out_shape.linear_offset(&out_idx)?;
                        out.data_mut()[offset] += xv * w.at(&w_idx)?;
                    }
                }
            }
        }
    }
    if let Some(b) = bias {
        let out_channels = out_shape.dim(1);
        let spatial: usize = out_shape.dims()[2..].iter().product();
        for n in 0..batch {
            for oc in 0..out_channels {
                let base = (n * out_channels + oc) * spatial;
                let bv = b.at(&[oc])?;
                for s in 0..spatial {
                    out.data_mut()[base + s] += bv;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{infer_shapes, OpKind};

    fn run_conv(attrs: &Attrs, inputs: &[&Tensor]) -> Tensor {
        let shapes: Vec<_> = inputs.iter().map(|t| t.shape().clone()).collect();
        let out = infer_shapes(OpKind::Conv, attrs, &shapes).unwrap();
        conv(attrs, inputs, &out[0]).unwrap()
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let x = Tensor::arange(Shape::new(vec![1, 1, 3, 3]));
        let w = Tensor::from_vec(Shape::new(vec![1, 1, 1, 1]), vec![1.0]).unwrap();
        let y = run_conv(&Attrs::new(), &[&x, &w]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn box_filter_sums_window() {
        let x = Tensor::full(Shape::new(vec![1, 1, 4, 4]), 1.0);
        let w = Tensor::full(Shape::new(vec![1, 1, 3, 3]), 1.0);
        let y = run_conv(&Attrs::new(), &[&x, &w]);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert!(y.iter().all(|&v| (v - 9.0).abs() < 1e-6));
    }

    #[test]
    fn padding_and_stride() {
        let x = Tensor::full(Shape::new(vec![1, 1, 4, 4]), 1.0);
        let w = Tensor::full(Shape::new(vec![1, 1, 3, 3]), 1.0);
        let attrs = Attrs::new()
            .with_ints("pads", vec![1, 1, 1, 1])
            .with_ints("strides", vec![2, 2]);
        let y = run_conv(&attrs, &[&x, &w]);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        // Top-left window only covers 4 in-bounds ones (corner), center windows 9.
        assert_eq!(y.at(&[0, 0, 0, 0]).unwrap(), 4.0);
        assert_eq!(y.at(&[0, 0, 1, 1]).unwrap(), 9.0);
    }

    #[test]
    fn bias_is_added_per_output_channel() {
        let x = Tensor::zeros(Shape::new(vec![1, 1, 2, 2]));
        let w = Tensor::zeros(Shape::new(vec![2, 1, 1, 1]));
        let b = Tensor::from_vec(Shape::new(vec![2]), vec![1.5, -2.0]).unwrap();
        let y = run_conv(&Attrs::new(), &[&x, &w, &b]);
        assert_eq!(y.at(&[0, 0, 0, 0]).unwrap(), 1.5);
        assert_eq!(y.at(&[0, 1, 1, 1]).unwrap(), -2.0);
    }

    #[test]
    fn depthwise_group_conv_keeps_channels_independent() {
        // Two channels, depthwise 1x1 kernels with distinct scales.
        let x = Tensor::from_vec(Shape::new(vec![1, 2, 1, 2]), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let w = Tensor::from_vec(Shape::new(vec![2, 1, 1, 1]), vec![10.0, 100.0]).unwrap();
        let attrs = Attrs::new().with_int("group", 2);
        let y = run_conv(&attrs, &[&x, &w]);
        assert_eq!(y.data(), &[10.0, 20.0, 300.0, 400.0]);
    }

    #[test]
    fn conv3d_volume_sum() {
        let x = Tensor::full(Shape::new(vec![1, 1, 2, 2, 2]), 1.0);
        let w = Tensor::full(Shape::new(vec![1, 1, 2, 2, 2]), 1.0);
        let y = run_conv(&Attrs::new(), &[&x, &w]);
        assert_eq!(y.shape().dims(), &[1, 1, 1, 1, 1]);
        assert_eq!(y.data(), &[8.0]);
    }

    #[test]
    fn conv_transpose_is_adjoint_of_conv_for_stride_one() {
        // For a 1x1 kernel, transpose conv with the same weight reproduces a
        // per-channel scaling, matching conv.
        let x = Tensor::arange(Shape::new(vec![1, 1, 2, 2]));
        let w = Tensor::from_vec(Shape::new(vec![1, 1, 1, 1]), vec![3.0]).unwrap();
        let shapes = [x.shape().clone(), w.shape().clone()];
        let out_shape = infer_shapes(OpKind::ConvTranspose, &Attrs::new(), &shapes).unwrap();
        let y = conv_transpose(&Attrs::new(), &[&x, &w], &out_shape[0]).unwrap();
        assert_eq!(y.data(), &[0.0, 3.0, 6.0, 9.0]);
    }

    #[test]
    fn conv_transpose_upsamples_with_stride_two() {
        let x = Tensor::full(Shape::new(vec![1, 1, 2, 2]), 1.0);
        let w = Tensor::full(Shape::new(vec![1, 1, 2, 2]), 1.0);
        let attrs = Attrs::new().with_ints("strides", vec![2, 2]);
        let shapes = [x.shape().clone(), w.shape().clone()];
        let out_shape = infer_shapes(OpKind::ConvTranspose, &attrs, &shapes).unwrap();
        let y = conv_transpose(&attrs, &[&x, &w], &out_shape[0]).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 4, 4]);
        // Non-overlapping scatter of ones.
        assert!(y.iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }
}
