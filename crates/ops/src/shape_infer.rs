//! Shape inference for every operator.
//!
//! Shape inference runs when a computational graph is built and is what lets
//! DNNFusion's analyses (intermediate-result sizes, FLOP counts, fusion-seed
//! selection) work without executing anything.

use dnnf_tensor::{broadcast_shapes, Shape};

use crate::{Attrs, OpError, OpKind};

/// Infers the output shape(s) of `op` given its input shapes and attributes.
///
/// Most operators produce exactly one output; `Split` produces several.
///
/// # Errors
///
/// Returns an [`OpError`] if the arity, shapes or attributes are invalid for
/// the operator.
pub fn infer_shapes(op: OpKind, attrs: &Attrs, inputs: &[Shape]) -> Result<Vec<Shape>, OpError> {
    check_arity(op, inputs.len())?;
    use OpKind::*;
    let out = match op {
        // Unary element-wise (and Cast/Identity/Not): shape-preserving.
        _ if op.is_elementwise_unary() => vec![inputs[0].clone()],
        // Binary element-wise: multidirectional broadcasting.
        _ if op.is_elementwise_binary() => {
            vec![broadcast_pair(op, &inputs[0], &inputs[1])?]
        }
        Where => {
            let cond_x = broadcast_pair(op, &inputs[0], &inputs[1])?;
            vec![broadcast_pair(op, &cond_x, &inputs[2])?]
        }
        BatchNormalization
        | InstanceNormalization
        | LayerNormalization
        | Softmax
        | LogSoftmax
        | CumSum => vec![inputs[0].clone()],
        Concat => infer_concat(attrs, inputs).map(|s| vec![s])?,
        Slice => infer_slice(attrs, &inputs[0]).map(|s| vec![s])?,
        Split => infer_split(attrs, &inputs[0])?,
        Pad => infer_pad(attrs, &inputs[0]).map(|s| vec![s])?,
        Expand => infer_expand(attrs, &inputs[0]).map(|s| vec![s])?,
        Gather => infer_gather(attrs, inputs).map(|s| vec![s])?,
        Resize | Upsample => infer_resize(op, attrs, &inputs[0]).map(|s| vec![s])?,
        Tile => infer_tile(attrs, &inputs[0]).map(|s| vec![s])?,
        Conv => infer_conv(attrs, inputs).map(|s| vec![s])?,
        ConvTranspose => infer_conv_transpose(attrs, inputs).map(|s| vec![s])?,
        Gemm => infer_gemm(attrs, inputs).map(|s| vec![s])?,
        MatMul => infer_matmul(inputs).map(|s| vec![s])?,
        AveragePool | MaxPool => infer_pool(op, attrs, &inputs[0]).map(|s| vec![s])?,
        GlobalAveragePool => infer_global_pool(&inputs[0]).map(|s| vec![s])?,
        ReduceSum | ReduceMean | ReduceProd | ReduceMax | ReduceMin => {
            infer_reduce(attrs, &inputs[0]).map(|s| vec![s])?
        }
        ArgMax => infer_argmax(attrs, &inputs[0]).map(|s| vec![s])?,
        Einsum => return Err(OpError::Unsupported { op }),
        Reshape => infer_reshape(op, attrs, &inputs[0]).map(|s| vec![s])?,
        Flatten => infer_flatten(attrs, &inputs[0]).map(|s| vec![s])?,
        Squeeze => infer_squeeze(attrs, &inputs[0]).map(|s| vec![s])?,
        Unsqueeze => infer_unsqueeze(attrs, &inputs[0]).map(|s| vec![s])?,
        Transpose => infer_transpose(attrs, &inputs[0]).map(|s| vec![s])?,
        DepthToSpace => infer_depth_to_space(attrs, &inputs[0]).map(|s| vec![s])?,
        SpaceToDepth => infer_space_to_depth(attrs, &inputs[0]).map(|s| vec![s])?,
        // Remaining One-to-One ops with data inputs handled above.
        _ => vec![inputs[0].clone()],
    };
    Ok(out)
}

fn check_arity(op: OpKind, actual: usize) -> Result<(), OpError> {
    let min = op.min_inputs();
    if actual < min {
        return Err(OpError::ArityMismatch {
            op,
            expected: min,
            actual,
        });
    }
    if let Some(max) = op.max_inputs() {
        if actual > max {
            return Err(OpError::ArityMismatch {
                op,
                expected: max,
                actual,
            });
        }
    }
    Ok(())
}

fn broadcast_pair(op: OpKind, a: &Shape, b: &Shape) -> Result<Shape, OpError> {
    broadcast_shapes(a, b).map_err(|_| OpError::InvalidShape {
        op,
        reason: format!("shapes {a} and {b} do not broadcast"),
    })
}

fn infer_concat(attrs: &Attrs, inputs: &[Shape]) -> Result<Shape, OpError> {
    let op = OpKind::Concat;
    let first = &inputs[0];
    let axis = first
        .normalize_axis(attrs.int_or("axis", 0))
        .map_err(|_| invalid_attr(op, "axis", "out of range"))?;
    let mut dims = first.dims().to_vec();
    for s in &inputs[1..] {
        if s.rank() != first.rank() {
            return Err(OpError::InvalidShape {
                op,
                reason: "rank mismatch across inputs".into(),
            });
        }
        for (ax, (&d, &d0)) in s.dims().iter().zip(first.dims()).enumerate() {
            if ax != axis && d != d0 {
                return Err(OpError::InvalidShape {
                    op,
                    reason: format!("non-concat axis {ax} differs: {d} vs {d0}"),
                });
            }
        }
        dims[axis] += s.dim(axis);
    }
    Ok(Shape::new(dims))
}

fn infer_slice(attrs: &Attrs, input: &Shape) -> Result<Shape, OpError> {
    let op = OpKind::Slice;
    let starts = attrs.ints_or("starts", &[]);
    let ends = attrs.ints_or("ends", &[]);
    let axes = attrs.ints_or("axes", &(0..starts.len() as i64).collect::<Vec<_>>());
    if starts.len() != ends.len() || starts.len() != axes.len() {
        return Err(invalid_attr(op, "starts/ends/axes", "length mismatch"));
    }
    let mut dims = input.dims().to_vec();
    for ((&s, &e), &ax) in starts.iter().zip(&ends).zip(&axes) {
        let axis = input
            .normalize_axis(ax)
            .map_err(|_| invalid_attr(op, "axes", "axis out of range"))?;
        let extent = input.dim(axis) as i64;
        let s = clamp_index(s, extent);
        let e = clamp_index(e, extent);
        dims[axis] = (e - s).max(0) as usize;
    }
    Ok(Shape::new(dims))
}

fn clamp_index(i: i64, extent: i64) -> i64 {
    let i = if i < 0 { i + extent } else { i };
    i.clamp(0, extent)
}

fn infer_split(attrs: &Attrs, input: &Shape) -> Result<Vec<Shape>, OpError> {
    let op = OpKind::Split;
    let axis = input
        .normalize_axis(attrs.int_or("axis", 0))
        .map_err(|_| invalid_attr(op, "axis", "out of range"))?;
    let extent = input.dim(axis);
    let splits = attrs.ints_or("split", &[]);
    let parts: Vec<usize> = if splits.is_empty() {
        let n = attrs.int_or("num_outputs", 2).max(1) as usize;
        if !extent.is_multiple_of(n) {
            return Err(OpError::InvalidShape {
                op,
                reason: format!("axis extent {extent} not divisible into {n} outputs"),
            });
        }
        vec![extent / n; n]
    } else {
        splits.iter().map(|&s| s as usize).collect()
    };
    if parts.iter().sum::<usize>() != extent {
        return Err(invalid_attr(
            op,
            "split",
            "sizes do not sum to the axis extent",
        ));
    }
    Ok(parts
        .into_iter()
        .map(|p| {
            let mut dims = input.dims().to_vec();
            dims[axis] = p;
            Shape::new(dims)
        })
        .collect())
}

fn infer_pad(attrs: &Attrs, input: &Shape) -> Result<Shape, OpError> {
    let op = OpKind::Pad;
    let pads = attrs.ints_or("pads", &vec![0; input.rank() * 2]);
    if pads.len() != input.rank() * 2 {
        return Err(invalid_attr(op, "pads", "expected 2*rank entries"));
    }
    let dims = input
        .dims()
        .iter()
        .enumerate()
        .map(|(i, &d)| (d as i64 + pads[i] + pads[i + input.rank()]).max(0) as usize)
        .collect();
    Ok(Shape::new(dims))
}

fn infer_expand(attrs: &Attrs, input: &Shape) -> Result<Shape, OpError> {
    let op = OpKind::Expand;
    let target = attrs.ints_or("shape", &[]);
    if target.is_empty() {
        return Err(invalid_attr(op, "shape", "missing target shape"));
    }
    let target = Shape::new(target.iter().map(|&d| d as usize).collect());
    broadcast_pair(op, input, &target)
}

fn infer_gather(attrs: &Attrs, inputs: &[Shape]) -> Result<Shape, OpError> {
    let op = OpKind::Gather;
    let data = &inputs[0];
    let indices = &inputs[1];
    let axis = data
        .normalize_axis(attrs.int_or("axis", 0))
        .map_err(|_| invalid_attr(op, "axis", "out of range"))?;
    let mut dims: Vec<usize> = data.dims()[..axis].to_vec();
    dims.extend_from_slice(indices.dims());
    dims.extend_from_slice(&data.dims()[axis + 1..]);
    Ok(Shape::new(dims))
}

fn infer_resize(op: OpKind, attrs: &Attrs, input: &Shape) -> Result<Shape, OpError> {
    let scales = match attrs.get("scales") {
        Some(crate::AttrValue::Floats(v)) => v.clone(),
        _ => vec![1.0; input.rank()],
    };
    if scales.len() != input.rank() {
        return Err(invalid_attr(
            op,
            "scales",
            "expected one scale per dimension",
        ));
    }
    let dims = input
        .dims()
        .iter()
        .zip(&scales)
        .map(|(&d, &s)| ((d as f32) * s).floor().max(1.0) as usize)
        .collect();
    Ok(Shape::new(dims))
}

fn infer_tile(attrs: &Attrs, input: &Shape) -> Result<Shape, OpError> {
    let op = OpKind::Tile;
    let repeats = attrs.ints_or("repeats", &vec![1; input.rank()]);
    if repeats.len() != input.rank() {
        return Err(invalid_attr(
            op,
            "repeats",
            "expected one repeat per dimension",
        ));
    }
    let dims = input
        .dims()
        .iter()
        .zip(&repeats)
        .map(|(&d, &r)| d * r.max(0) as usize)
        .collect();
    Ok(Shape::new(dims))
}

/// The window attributes of a `Conv`, `ConvTranspose` or pooling node, parsed
/// and validated once for shape inference, the reference kernels and the
/// fast kernels alike. All four vectors have one entry per spatial axis,
/// except `pads` (begin pads, then end pads).
pub(crate) struct Window {
    pub(crate) kernel: Vec<usize>,
    pub(crate) strides: Vec<usize>,
    pub(crate) dilations: Vec<usize>,
    pub(crate) pads: Vec<usize>,
}

impl Window {
    /// Parses the window of `op` over `spatial_rank` axes; the kernel extents
    /// come from the weight's trailing dims when the operator has one, from
    /// `kernel_shape` otherwise. Absent attributes take the ONNX defaults and
    /// non-positive strides / dilations / negative pads clamp to them.
    ///
    /// # Errors
    ///
    /// `InvalidAttribute` when an attribute's length does not match the
    /// spatial rank or a kernel extent (from either source) is not positive.
    pub(crate) fn parse(
        op: OpKind,
        attrs: &Attrs,
        spatial_rank: usize,
        kernel_from_weight: Option<&[usize]>,
    ) -> Result<Self, OpError> {
        let ints =
            |name: &str, default: i64, floor: i64, len: usize| -> Result<Vec<usize>, OpError> {
                let values = attrs.ints_or(name, &vec![default; len]);
                if values.len() != len {
                    return Err(invalid_attr(op, name, "length does not match spatial rank"));
                }
                Ok(values.iter().map(|&v| v.max(floor) as usize).collect())
            };
        let kernel = match kernel_from_weight {
            Some(k) => k.to_vec(),
            None => ints("kernel_shape", 1, 0, spatial_rank)?,
        };
        if kernel.contains(&0) {
            return Err(invalid_attr(op, "kernel_shape", "extents must be positive"));
        }
        Ok(Window {
            kernel,
            strides: ints("strides", 1, 1, spatial_rank)?,
            dilations: ints("dilations", 1, 1, spatial_rank)?,
            pads: ints("pads", 0, 0, spatial_rank * 2)?,
        })
    }

    /// Output extent of every spatial axis for the input extents `input`.
    fn out_extents<'a>(&'a self, input: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
        let rank = self.kernel.len();
        (0..rank).map(move |i| {
            let effective = self.dilations[i] * (self.kernel[i] - 1) + 1;
            let padded = input[i] + self.pads[i] + self.pads[rank + i];
            if padded < effective {
                0
            } else {
                (padded - effective) / self.strides[i] + 1
            }
        })
    }
}

fn infer_conv(attrs: &Attrs, inputs: &[Shape]) -> Result<Shape, OpError> {
    let op = OpKind::Conv;
    let x = &inputs[0];
    let w = &inputs[1];
    if x.rank() < 3 || w.rank() != x.rank() {
        return Err(OpError::InvalidShape {
            op,
            reason: format!("expected N+2-D input and weight, got {x} and {w}"),
        });
    }
    let group = attrs.int_or("group", 1).max(1) as usize;
    if x.dim(1) != w.dim(1) * group {
        return Err(OpError::InvalidShape {
            op,
            reason: format!(
                "input channels {} != weight channels {} * group {group}",
                x.dim(1),
                w.dim(1)
            ),
        });
    }
    let window = Window::parse(op, attrs, x.rank() - 2, Some(&w.dims()[2..]))?;
    let mut dims = vec![x.dim(0), w.dim(0)];
    dims.extend(window.out_extents(&x.dims()[2..]));
    Ok(Shape::new(dims))
}

fn infer_conv_transpose(attrs: &Attrs, inputs: &[Shape]) -> Result<Shape, OpError> {
    let op = OpKind::ConvTranspose;
    let x = &inputs[0];
    let w = &inputs[1];
    if x.rank() < 3 || w.rank() != x.rank() {
        return Err(OpError::InvalidShape {
            op,
            reason: "expected N+2-D input and weight".into(),
        });
    }
    let spatial_rank = x.rank() - 2;
    let group = attrs.int_or("group", 1).max(1) as usize;
    let Window {
        kernel,
        strides,
        dilations,
        pads,
    } = Window::parse(op, attrs, spatial_rank, Some(&w.dims()[2..]))?;
    // Weight layout is (C_in, C_out/group, k...).
    let mut dims = vec![x.dim(0), w.dim(1) * group];
    for i in 0..spatial_rank {
        let out = strides[i] * (x.dim(2 + i) - 1) + dilations[i] * (kernel[i] - 1) + 1;
        let out = out.saturating_sub(pads[i] + pads[spatial_rank + i]);
        dims.push(out);
    }
    Ok(Shape::new(dims))
}

fn infer_pool(op: OpKind, attrs: &Attrs, x: &Shape) -> Result<Shape, OpError> {
    if x.rank() < 3 {
        return Err(OpError::InvalidShape {
            op,
            reason: "expected N+2-D input".into(),
        });
    }
    let window = Window::parse(op, attrs, x.rank() - 2, None)?;
    let mut dims = vec![x.dim(0), x.dim(1)];
    dims.extend(window.out_extents(&x.dims()[2..]));
    Ok(Shape::new(dims))
}

fn infer_global_pool(x: &Shape) -> Result<Shape, OpError> {
    if x.rank() < 3 {
        return Err(OpError::InvalidShape {
            op: OpKind::GlobalAveragePool,
            reason: "expected N+2-D input".into(),
        });
    }
    let mut dims = vec![x.dim(0), x.dim(1)];
    dims.extend(std::iter::repeat_n(1, x.rank() - 2));
    Ok(Shape::new(dims))
}

fn infer_gemm(attrs: &Attrs, inputs: &[Shape]) -> Result<Shape, OpError> {
    let op = OpKind::Gemm;
    let a = &inputs[0];
    let b = &inputs[1];
    if a.rank() != 2 || b.rank() != 2 {
        return Err(OpError::InvalidShape {
            op,
            reason: "Gemm operands must be rank-2".into(),
        });
    }
    let trans_a = attrs.int_or("transA", 0) != 0;
    let trans_b = attrs.int_or("transB", 0) != 0;
    let (m, ka) = if trans_a {
        (a.dim(1), a.dim(0))
    } else {
        (a.dim(0), a.dim(1))
    };
    let (kb, n) = if trans_b {
        (b.dim(1), b.dim(0))
    } else {
        (b.dim(0), b.dim(1))
    };
    if ka != kb {
        return Err(OpError::InvalidShape {
            op,
            reason: format!("inner dimensions differ: {ka} vs {kb}"),
        });
    }
    Ok(Shape::new(vec![m, n]))
}

fn infer_matmul(inputs: &[Shape]) -> Result<Shape, OpError> {
    let op = OpKind::MatMul;
    let a = &inputs[0];
    let b = &inputs[1];
    if a.rank() < 2 || b.rank() < 2 {
        return Err(OpError::InvalidShape {
            op,
            reason: "MatMul operands must be rank >= 2".into(),
        });
    }
    let (m, ka) = (a.dim(a.rank() - 2), a.dim(a.rank() - 1));
    let (kb, n) = (b.dim(b.rank() - 2), b.dim(b.rank() - 1));
    if ka != kb {
        return Err(OpError::InvalidShape {
            op,
            reason: format!("inner dimensions differ: {ka} vs {kb}"),
        });
    }
    let batch_a = Shape::new(a.dims()[..a.rank() - 2].to_vec());
    let batch_b = Shape::new(b.dims()[..b.rank() - 2].to_vec());
    let batch = broadcast_pair(op, &batch_a, &batch_b)?;
    let mut dims = batch.dims().to_vec();
    dims.push(m);
    dims.push(n);
    Ok(Shape::new(dims))
}

fn reduce_axes(attrs: &Attrs, input: &Shape) -> Result<Vec<usize>, OpError> {
    let axes = attrs.ints_or("axes", &[]);
    if axes.is_empty() {
        return Ok((0..input.rank()).collect());
    }
    axes.iter()
        .map(|&a| {
            input
                .normalize_axis(a)
                .map_err(|_| invalid_attr(OpKind::ReduceSum, "axes", "axis out of range"))
        })
        .collect()
}

fn infer_reduce(attrs: &Attrs, input: &Shape) -> Result<Shape, OpError> {
    let axes = reduce_axes(attrs, input)?;
    let keepdims = attrs.int_or("keepdims", 1) != 0;
    let mut dims = Vec::new();
    for (i, &d) in input.dims().iter().enumerate() {
        if axes.contains(&i) {
            if keepdims {
                dims.push(1);
            }
        } else {
            dims.push(d);
        }
    }
    Ok(Shape::new(dims))
}

fn infer_argmax(attrs: &Attrs, input: &Shape) -> Result<Shape, OpError> {
    let op = OpKind::ArgMax;
    let axis = input
        .normalize_axis(attrs.int_or("axis", 0))
        .map_err(|_| invalid_attr(op, "axis", "out of range"))?;
    let keepdims = attrs.int_or("keepdims", 1) != 0;
    let mut dims = input.dims().to_vec();
    if keepdims {
        dims[axis] = 1;
    } else {
        dims.remove(axis);
    }
    Ok(Shape::new(dims))
}

fn infer_reshape(op: OpKind, attrs: &Attrs, input: &Shape) -> Result<Shape, OpError> {
    let target = attrs.ints_or("shape", &[]);
    if target.is_empty() {
        return Err(invalid_attr(op, "shape", "missing target shape"));
    }
    let mut dims: Vec<usize> = Vec::with_capacity(target.len());
    let mut infer_pos = None;
    for (i, &t) in target.iter().enumerate() {
        match t {
            -1 => {
                if infer_pos.is_some() {
                    return Err(invalid_attr(op, "shape", "more than one -1"));
                }
                infer_pos = Some(i);
                dims.push(1);
            }
            0 => {
                if i >= input.rank() {
                    return Err(invalid_attr(op, "shape", "0 refers past the input rank"));
                }
                dims.push(input.dim(i));
            }
            t if t > 0 => dims.push(t as usize),
            _ => return Err(invalid_attr(op, "shape", "negative extent")),
        }
    }
    let known: usize = dims
        .iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != infer_pos)
        .map(|(_, &d)| d)
        .product();
    if let Some(pos) = infer_pos {
        if known == 0 || !input.numel().is_multiple_of(known) {
            return Err(OpError::InvalidShape {
                op,
                reason: format!("cannot infer -1: {} elements over {known}", input.numel()),
            });
        }
        dims[pos] = input.numel() / known;
    }
    let out = Shape::new(dims);
    if out.numel() != input.numel() {
        return Err(OpError::InvalidShape {
            op,
            reason: format!(
                "element count changes from {} to {}",
                input.numel(),
                out.numel()
            ),
        });
    }
    Ok(out)
}

fn infer_flatten(attrs: &Attrs, input: &Shape) -> Result<Shape, OpError> {
    let op = OpKind::Flatten;
    let axis_raw = attrs.int_or("axis", 1);
    let axis = if axis_raw == input.rank() as i64 {
        input.rank()
    } else {
        input
            .normalize_axis(axis_raw)
            .map_err(|_| invalid_attr(op, "axis", "out of range"))?
    };
    let first: usize = input.dims()[..axis].iter().product();
    let second: usize = input.dims()[axis..].iter().product();
    Ok(Shape::new(vec![first.max(1), second.max(1)]))
}

fn infer_squeeze(attrs: &Attrs, input: &Shape) -> Result<Shape, OpError> {
    let axes = attrs.ints_or("axes", &[]);
    let dims: Vec<usize> = if axes.is_empty() {
        input.dims().iter().copied().filter(|&d| d != 1).collect()
    } else {
        let mut normalized = Vec::new();
        for &a in &axes {
            normalized.push(
                input
                    .normalize_axis(a)
                    .map_err(|_| invalid_attr(OpKind::Squeeze, "axes", "axis out of range"))?,
            );
        }
        input
            .dims()
            .iter()
            .enumerate()
            .filter(|(i, _)| !normalized.contains(i))
            .map(|(_, &d)| d)
            .collect()
    };
    Ok(Shape::new(dims))
}

fn infer_unsqueeze(attrs: &Attrs, input: &Shape) -> Result<Shape, OpError> {
    let op = OpKind::Unsqueeze;
    let axes = attrs.ints_or("axes", &[]);
    if axes.is_empty() {
        return Err(invalid_attr(op, "axes", "missing axes"));
    }
    let out_rank = input.rank() + axes.len();
    let mut normalized: Vec<usize> = Vec::new();
    for &a in &axes {
        let a = if a < 0 { a + out_rank as i64 } else { a };
        if a < 0 || a as usize >= out_rank {
            return Err(invalid_attr(op, "axes", "axis out of range"));
        }
        normalized.push(a as usize);
    }
    normalized.sort_unstable();
    normalized.dedup();
    if normalized.len() != axes.len() {
        return Err(invalid_attr(op, "axes", "duplicate axes"));
    }
    let mut dims = Vec::with_capacity(out_rank);
    let mut src = input.dims().iter();
    for i in 0..out_rank {
        if normalized.contains(&i) {
            dims.push(1);
        } else {
            dims.push(*src.next().expect("rank bookkeeping"));
        }
    }
    Ok(Shape::new(dims))
}

fn infer_transpose(attrs: &Attrs, input: &Shape) -> Result<Shape, OpError> {
    let op = OpKind::Transpose;
    let default: Vec<i64> = (0..input.rank() as i64).rev().collect();
    let perm: Vec<usize> = attrs
        .ints_or("perm", &default)
        .iter()
        .map(|&p| p as usize)
        .collect();
    input
        .permute(&perm)
        .map_err(|_| invalid_attr(op, "perm", "not a valid permutation"))
}

fn infer_depth_to_space(attrs: &Attrs, input: &Shape) -> Result<Shape, OpError> {
    let op = OpKind::DepthToSpace;
    let b = attrs.int_or("blocksize", 1).max(1) as usize;
    if input.rank() != 4 || !input.dim(1).is_multiple_of(b * b) {
        return Err(OpError::InvalidShape {
            op,
            reason: "expected NCHW input with C divisible by blocksize^2".into(),
        });
    }
    Ok(Shape::new(vec![
        input.dim(0),
        input.dim(1) / (b * b),
        input.dim(2) * b,
        input.dim(3) * b,
    ]))
}

fn infer_space_to_depth(attrs: &Attrs, input: &Shape) -> Result<Shape, OpError> {
    let op = OpKind::SpaceToDepth;
    let b = attrs.int_or("blocksize", 1).max(1) as usize;
    if input.rank() != 4 || !input.dim(2).is_multiple_of(b) || !input.dim(3).is_multiple_of(b) {
        return Err(OpError::InvalidShape {
            op,
            reason: "expected NCHW input with H and W divisible by blocksize".into(),
        });
    }
    Ok(Shape::new(vec![
        input.dim(0),
        input.dim(1) * b * b,
        input.dim(2) / b,
        input.dim(3) / b,
    ]))
}

fn invalid_attr(op: OpKind, name: &str, reason: &str) -> OpError {
    OpError::InvalidAttribute {
        op,
        name: name.to_string(),
        reason: reason.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(dims: &[usize]) -> Shape {
        Shape::new(dims.to_vec())
    }

    #[test]
    fn elementwise_and_broadcast() {
        let out = infer_shapes(OpKind::Relu, &Attrs::new(), &[s(&[2, 3])]).unwrap();
        assert_eq!(out, vec![s(&[2, 3])]);
        let out = infer_shapes(OpKind::Add, &Attrs::new(), &[s(&[2, 3]), s(&[3])]).unwrap();
        assert_eq!(out, vec![s(&[2, 3])]);
        assert!(infer_shapes(OpKind::Add, &Attrs::new(), &[s(&[2]), s(&[3])]).is_err());
        let out = infer_shapes(
            OpKind::Where,
            &Attrs::new(),
            &[s(&[2, 1]), s(&[1, 3]), s(&[2, 3])],
        )
        .unwrap();
        assert_eq!(out, vec![s(&[2, 3])]);
    }

    #[test]
    fn arity_is_enforced() {
        assert!(infer_shapes(OpKind::Add, &Attrs::new(), &[s(&[2])]).is_err());
        assert!(infer_shapes(OpKind::Relu, &Attrs::new(), &[s(&[2]), s(&[2])]).is_err());
    }

    #[test]
    fn concat_and_split_are_inverse_on_shapes() {
        let attrs = Attrs::new().with_int("axis", 1);
        let out = infer_shapes(OpKind::Concat, &attrs, &[s(&[2, 3]), s(&[2, 5])]).unwrap();
        assert_eq!(out, vec![s(&[2, 8])]);
        let attrs = Attrs::new()
            .with_int("axis", 1)
            .with_ints("split", vec![3, 5]);
        let parts = infer_shapes(OpKind::Split, &attrs, &[s(&[2, 8])]).unwrap();
        assert_eq!(parts, vec![s(&[2, 3]), s(&[2, 5])]);
    }

    #[test]
    fn concat_rejects_mismatched_ranks() {
        let attrs = Attrs::new().with_int("axis", 0);
        assert!(infer_shapes(OpKind::Concat, &attrs, &[s(&[2, 3]), s(&[2])]).is_err());
        assert!(infer_shapes(OpKind::Concat, &attrs, &[s(&[2, 3]), s(&[2, 4])]).is_err());
    }

    #[test]
    fn slice_clamps_and_supports_negatives() {
        let attrs = Attrs::new()
            .with_ints("starts", vec![1, -2])
            .with_ints("ends", vec![100, 4])
            .with_ints("axes", vec![0, 1]);
        let out = infer_shapes(OpKind::Slice, &attrs, &[s(&[3, 4])]).unwrap();
        assert_eq!(out, vec![s(&[2, 2])]);
    }

    #[test]
    fn pad_and_tile_and_expand() {
        let attrs = Attrs::new().with_ints("pads", vec![0, 1, 0, 1]);
        assert_eq!(
            infer_shapes(OpKind::Pad, &attrs, &[s(&[2, 3])]).unwrap(),
            vec![s(&[2, 5])]
        );
        let attrs = Attrs::new().with_ints("repeats", vec![2, 3]);
        assert_eq!(
            infer_shapes(OpKind::Tile, &attrs, &[s(&[2, 3])]).unwrap(),
            vec![s(&[4, 9])]
        );
        let attrs = Attrs::new().with_ints("shape", vec![4, 2, 3]);
        assert_eq!(
            infer_shapes(OpKind::Expand, &attrs, &[s(&[2, 3])]).unwrap(),
            vec![s(&[4, 2, 3])]
        );
    }

    #[test]
    fn gather_inserts_index_shape() {
        let attrs = Attrs::new().with_int("axis", 0);
        let out = infer_shapes(OpKind::Gather, &attrs, &[s(&[10, 16]), s(&[4, 5])]).unwrap();
        assert_eq!(out, vec![s(&[4, 5, 16])]);
        let attrs = Attrs::new().with_int("axis", 1);
        let out = infer_shapes(OpKind::Gather, &attrs, &[s(&[10, 16]), s(&[3])]).unwrap();
        assert_eq!(out, vec![s(&[10, 3])]);
    }

    #[test]
    fn conv_shape_matches_onnx_semantics() {
        // 1x3x224x224 conv 64x3x7x7, stride 2, pad 3 -> 1x64x112x112 (ResNet stem).
        let attrs = Attrs::new()
            .with_ints("strides", vec![2, 2])
            .with_ints("pads", vec![3, 3, 3, 3]);
        let out = infer_shapes(
            OpKind::Conv,
            &attrs,
            &[s(&[1, 3, 224, 224]), s(&[64, 3, 7, 7])],
        )
        .unwrap();
        assert_eq!(out, vec![s(&[1, 64, 112, 112])]);
        // Depthwise: group == channels.
        let attrs = Attrs::new()
            .with_int("group", 32)
            .with_ints("pads", vec![1, 1, 1, 1]);
        let out = infer_shapes(
            OpKind::Conv,
            &attrs,
            &[s(&[1, 32, 56, 56]), s(&[32, 1, 3, 3])],
        )
        .unwrap();
        assert_eq!(out, vec![s(&[1, 32, 56, 56])]);
        // 3-D convolution (C3D-style).
        let attrs = Attrs::new().with_ints("pads", vec![1, 1, 1, 1, 1, 1]);
        let out = infer_shapes(
            OpKind::Conv,
            &attrs,
            &[s(&[1, 3, 16, 56, 56]), s(&[64, 3, 3, 3, 3])],
        )
        .unwrap();
        assert_eq!(out, vec![s(&[1, 64, 16, 56, 56])]);
        // Channel mismatch errors.
        assert!(infer_shapes(
            OpKind::Conv,
            &Attrs::new(),
            &[s(&[1, 3, 8, 8]), s(&[8, 4, 3, 3])]
        )
        .is_err());
    }

    #[test]
    fn conv_transpose_doubles_spatial_with_stride_two() {
        let attrs = Attrs::new().with_ints("strides", vec![2, 2]);
        let out = infer_shapes(
            OpKind::ConvTranspose,
            &attrs,
            &[s(&[1, 16, 8, 8]), s(&[16, 8, 2, 2])],
        )
        .unwrap();
        assert_eq!(out, vec![s(&[1, 8, 16, 16])]);
    }

    #[test]
    fn pooling_shapes() {
        let attrs = Attrs::new()
            .with_ints("kernel_shape", vec![2, 2])
            .with_ints("strides", vec![2, 2]);
        let out = infer_shapes(OpKind::MaxPool, &attrs, &[s(&[1, 8, 32, 32])]).unwrap();
        assert_eq!(out, vec![s(&[1, 8, 16, 16])]);
        let out = infer_shapes(
            OpKind::GlobalAveragePool,
            &Attrs::new(),
            &[s(&[1, 8, 7, 7])],
        )
        .unwrap();
        assert_eq!(out, vec![s(&[1, 8, 1, 1])]);
    }

    #[test]
    fn gemm_and_matmul() {
        let out = infer_shapes(OpKind::Gemm, &Attrs::new(), &[s(&[4, 8]), s(&[8, 16])]).unwrap();
        assert_eq!(out, vec![s(&[4, 16])]);
        let attrs = Attrs::new().with_int("transB", 1);
        let out = infer_shapes(OpKind::Gemm, &attrs, &[s(&[4, 8]), s(&[16, 8])]).unwrap();
        assert_eq!(out, vec![s(&[4, 16])]);
        assert!(infer_shapes(OpKind::Gemm, &Attrs::new(), &[s(&[4, 8]), s(&[9, 16])]).is_err());
        let out = infer_shapes(
            OpKind::MatMul,
            &Attrs::new(),
            &[s(&[2, 12, 64, 64]), s(&[2, 12, 64, 32])],
        )
        .unwrap();
        assert_eq!(out, vec![s(&[2, 12, 64, 32])]);
        // Batch broadcasting.
        let out =
            infer_shapes(OpKind::MatMul, &Attrs::new(), &[s(&[1, 4, 8]), s(&[8, 3])]).unwrap();
        assert_eq!(out, vec![s(&[1, 4, 3])]);
    }

    #[test]
    fn reductions_and_argmax() {
        let attrs = Attrs::new()
            .with_ints("axes", vec![-1])
            .with_int("keepdims", 1);
        assert_eq!(
            infer_shapes(OpKind::ReduceMean, &attrs, &[s(&[2, 3, 4])]).unwrap(),
            vec![s(&[2, 3, 1])]
        );
        let attrs = Attrs::new()
            .with_ints("axes", vec![1])
            .with_int("keepdims", 0);
        assert_eq!(
            infer_shapes(OpKind::ReduceSum, &attrs, &[s(&[2, 3, 4])]).unwrap(),
            vec![s(&[2, 4])]
        );
        let attrs = Attrs::new();
        assert_eq!(
            infer_shapes(OpKind::ReduceMax, &attrs, &[s(&[2, 3])]).unwrap(),
            vec![s(&[1, 1])]
        );
        let attrs = Attrs::new().with_int("axis", 1).with_int("keepdims", 0);
        assert_eq!(
            infer_shapes(OpKind::ArgMax, &attrs, &[s(&[2, 5])]).unwrap(),
            vec![s(&[2])]
        );
    }

    #[test]
    fn reshape_supports_zero_and_minus_one() {
        let attrs = Attrs::new().with_ints("shape", vec![0, -1]);
        assert_eq!(
            infer_shapes(OpKind::Reshape, &attrs, &[s(&[2, 3, 4])]).unwrap(),
            vec![s(&[2, 12])]
        );
        let attrs = Attrs::new().with_ints("shape", vec![-1, 6]);
        assert_eq!(
            infer_shapes(OpKind::Reshape, &attrs, &[s(&[2, 3, 4])]).unwrap(),
            vec![s(&[4, 6])]
        );
        let attrs = Attrs::new().with_ints("shape", vec![-1, -1]);
        assert!(infer_shapes(OpKind::Reshape, &attrs, &[s(&[4])]).is_err());
        let attrs = Attrs::new().with_ints("shape", vec![5]);
        assert!(infer_shapes(OpKind::Reshape, &attrs, &[s(&[4])]).is_err());
    }

    #[test]
    fn flatten_squeeze_unsqueeze() {
        let attrs = Attrs::new().with_int("axis", 1);
        assert_eq!(
            infer_shapes(OpKind::Flatten, &attrs, &[s(&[2, 3, 4])]).unwrap(),
            vec![s(&[2, 12])]
        );
        let attrs = Attrs::new();
        assert_eq!(
            infer_shapes(OpKind::Squeeze, &attrs, &[s(&[1, 3, 1, 4])]).unwrap(),
            vec![s(&[3, 4])]
        );
        let attrs = Attrs::new().with_ints("axes", vec![0]);
        assert_eq!(
            infer_shapes(OpKind::Unsqueeze, &attrs, &[s(&[3, 4])]).unwrap(),
            vec![s(&[1, 3, 4])]
        );
        let attrs = Attrs::new().with_ints("axes", vec![0, 0]);
        assert!(infer_shapes(OpKind::Unsqueeze, &attrs, &[s(&[3])]).is_err());
    }

    #[test]
    fn transpose_and_space_depth() {
        let attrs = Attrs::new().with_ints("perm", vec![0, 2, 3, 1]);
        assert_eq!(
            infer_shapes(OpKind::Transpose, &attrs, &[s(&[1, 3, 8, 8])]).unwrap(),
            vec![s(&[1, 8, 8, 3])]
        );
        // Default perm reverses.
        assert_eq!(
            infer_shapes(OpKind::Transpose, &Attrs::new(), &[s(&[2, 3, 4])]).unwrap(),
            vec![s(&[4, 3, 2])]
        );
        let attrs = Attrs::new().with_int("blocksize", 2);
        assert_eq!(
            infer_shapes(OpKind::DepthToSpace, &attrs, &[s(&[1, 8, 4, 4])]).unwrap(),
            vec![s(&[1, 2, 8, 8])]
        );
        assert_eq!(
            infer_shapes(OpKind::SpaceToDepth, &attrs, &[s(&[1, 2, 8, 8])]).unwrap(),
            vec![s(&[1, 8, 4, 4])]
        );
    }

    #[test]
    fn resize_scales_spatial_dims() {
        let attrs = Attrs::new().with_floats("scales", vec![1.0, 1.0, 2.0, 2.0]);
        assert_eq!(
            infer_shapes(OpKind::Resize, &attrs, &[s(&[1, 8, 16, 16])]).unwrap(),
            vec![s(&[1, 8, 32, 32])]
        );
    }

    #[test]
    fn einsum_is_reported_unsupported() {
        assert_eq!(
            infer_shapes(OpKind::Einsum, &Attrs::new(), &[s(&[2, 2])]),
            Err(OpError::Unsupported { op: OpKind::Einsum })
        );
    }

    #[test]
    fn batchnorm_preserves_shape() {
        let c = s(&[16]);
        let out = infer_shapes(
            OpKind::BatchNormalization,
            &Attrs::new(),
            &[s(&[1, 16, 8, 8]), c.clone(), c.clone(), c.clone(), c],
        )
        .unwrap();
        assert_eq!(out, vec![s(&[1, 16, 8, 8])]);
    }
}
