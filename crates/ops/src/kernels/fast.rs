//! Optimized kernels used by the fused-block execution engine: the
//! compute-heavy anchors, one copy kernel for data movement and one
//! reduction kernel.
//!
//! The reference kernels in this crate define the semantics; they index every
//! element through bounds-checked multi-dimensional lookups and allocate
//! scratch index vectors in their innermost loops, which makes them 1–2
//! orders of magnitude slower than necessary. The kernels here compute the
//! *same* result — they visit taps in exactly the same order and accumulate
//! in the same sequence, so outputs are bit-identical — but with precomputed
//! offsets, flat-slice indexing and no allocation inside the hot loops.
//!
//! **One windowed driver.** `Conv`, `MaxPool` and `AveragePool` share one
//! rank-generic geometry, [`WindowRows`]: an output *row* is one position of
//! the outer spatial axes (every axis but the innermost), and for each row
//! the kernel taps of the outer axes that land inside the input are resolved
//! **once per launch** into a table of `(input row offset, weight offset)`
//! pairs. A column kernel is then `for ic { for tap in row_taps { for kx } }`
//! at every spatial rank — outer taps in row-major order followed by `kx`
//! *is* the reference ravel order — and a 2-D convolution is simply the
//! launch whose rows have at most `kh` taps. The innermost axis is split once
//! ([`col_tiles`]) into border columns, whose taps can fall in the padding,
//! and *interior* columns, where every innermost tap is in bounds.
//!
//! Every kernel is **data-parallel** over a [`WorkPool`]: the output index
//! space is partitioned into disjoint tiles (convolution and pooling over
//! `(batch, channel)` planes, matrix products over output rows), and each
//! tile is computed start-to-finish by one thread with the serial kernel's
//! exact accumulation order. No reduction is ever split across threads, so
//! results are bit-identical for every thread count.
//!
//! Within a thread's tile, every kernel is **lane-blocked** over the
//! [`crate::simd`] bundles: 4–8 consecutive output elements accumulate in
//! lockstep, one element per lane, each lane running the scalar kernel's
//! exact operation sequence (two rounding steps per conv/matmul tap, no
//! fused multiply-add, no split reduction; `f32::max` / add-then-one-division
//! for the pools). Each column kernel is written once, generic over its lane
//! width; width 1 is the *checked* instance that tests every innermost tap
//! against the padding, and serves border columns, lane remainders and the
//! scalar mode ([`WorkPool::with_simd`]) alike — so SIMD-on and SIMD-off run
//! the same source and produce the same bytes at every lane width. The
//! packed conv, `MatMul` and `Gemm` share one register-blocked dot
//! micro-kernel, [`dot_step`], generic over its instruction set ([`Isa`]):
//! a launch runs the 256-bit AVX instance where the CPU has it and the SSE
//! one elsewhere ([`WorkPool::avx`]), entering it per chunk through
//! [`Isa::enter`]. The other lane kernels run the SSE instance.
//!
//! **Data movement and reductions.** The Reorganize/Shuffle and One-to-Many
//! operators share one copy kernel, [`AxisMap`]: per-axis source-offset
//! tables walked by one row-major odometer, where an innermost run of unit
//! steps is one slice copy and threads own runs of whole output rows.
//! `Transpose`, `Slice`, `Gather`, nearest `Upsample`/`Resize` and the
//! reshape family only build tables; `Concat` copies each input's
//! contiguous slab into its columns of every output row. The `Reduce*`
//! kernel gives each output element (a lane, within a thread's rows) the
//! reference's initial value and folds its inputs in the reference's
//! row-major order, so its bits are the reference's by construction.
//! `GlobalAveragePool` is that kernel's `ReduceMean` over the spatial axes.
//! Every additive fold here starts where the reference's does, at `+0.0`
//! (or a conv's bias); none is an `Iterator::sum`, which starts at `-0.0`.
//!
//! Inputs are expected to be shape-consistent with `out_shape`, exactly as
//! produced by graph construction / shape inference (the fused engine always
//! calls with graph-derived shapes). The differential test harness pins
//! every kernel here against its reference twin.

use dnnf_tensor::{broadcast_index, Shape, Tensor};

use crate::parallel::WorkPool;
use crate::shape_infer::Window;
use crate::simd::{col_tiles, F32Lanes, Isa, Sse2, LANES};
use crate::{Attrs, OpError, OpKind};

/// Whether `op` has an optimized kernel in this module. The fused engine
/// uses this registry to decide between the fast path and the reference
/// fallback ([`crate::execute`]).
///
/// The rows: the anchors (`Conv`, `MatMul`, `Gemm`, `MaxPool`,
/// `AveragePool`); the axis-map copy kernel (`Transpose`, `Concat`, `Slice`,
/// `Gather`, `Upsample`/`Resize`, `Reshape`/`Flatten`/`Squeeze`/`Unsqueeze`);
/// and the reduce kernel (`ReduceSum`/`Mean`/`Prod`/`Max`/`Min`, and
/// `GlobalAveragePool` as a `ReduceMean` over its spatial axes). Everything
/// else that a scalar tape cannot hold runs the reference kernel: `Pad`,
/// `Expand`/`Tile`, `Split`, `DepthToSpace`/`SpaceToDepth`,
/// `Softmax`/`LogSoftmax`, `ArgMax`, `CumSum`, `ConvTranspose` and the
/// non-decomposed normalizations.
#[must_use]
pub fn has_fast_kernel(op: OpKind) -> bool {
    use OpKind::*;
    matches!(
        op,
        Conv | MatMul
            | Gemm
            | MaxPool
            | AveragePool
            | GlobalAveragePool
            | Transpose
            | Concat
            | Slice
            | Gather
            | Upsample
            | Resize
            | Reshape
            | Flatten
            | Squeeze
            | Unsqueeze
            | ReduceSum
            | ReduceMean
            | ReduceProd
            | ReduceMax
            | ReduceMin
    )
}

/// Output channels per block of a packed conv weight panel — one full
/// [`LANES`]-wide bundle, so a panel tap feeds all lanes with a single
/// contiguous load.
pub const CONV_PANEL_LANES: usize = LANES;

/// Packs a convolution weight `(OC, ICpg, k…)` into the OC-blocked panel
/// layout the lane-blocked conv kernels consume: shape
/// `[OC / LANES, ICpg · ∏k, LANES]`, where `panel[ob][t][l] =
/// w[ob·LANES + l][t]` and `t` ravels `(ic, k…)` row-major — the kernels'
/// exact tap order. Eight SIMD lanes then own eight whole output channels of
/// one output position, and each tap's eight weights are one contiguous
/// load instead of a stride-`ICpg·∏k` gather from the `(OC, ICpg, k…)`
/// layout.
///
/// Returns `None` when the layout does not apply: rank < 3, or `OC` not a
/// multiple of [`CONV_PANEL_LANES`] (the kernels then keep the column-lane
/// path, which handles any channel count).
#[must_use]
pub fn pack_conv_oc_panel(w: &Tensor) -> Option<Tensor> {
    let dims = w.shape().dims();
    if dims.len() < 3 || dims[0] == 0 || !dims[0].is_multiple_of(CONV_PANEL_LANES) {
        return None;
    }
    let oc = dims[0];
    let taps: usize = dims[1..].iter().product();
    if taps == 0 {
        return None;
    }
    let blocks = oc / CONV_PANEL_LANES;
    let src = w.data();
    let mut packed = vec![0.0f32; oc * taps];
    for ob in 0..blocks {
        let block_base = ob * taps * CONV_PANEL_LANES;
        for l in 0..CONV_PANEL_LANES {
            let w_row = (ob * CONV_PANEL_LANES + l) * taps;
            for t in 0..taps {
                packed[block_base + t * CONV_PANEL_LANES + l] = src[w_row + t];
            }
        }
    }
    Some(
        Tensor::from_vec(Shape::new(vec![blocks, taps, CONV_PANEL_LANES]), packed)
            .expect("panel sized to its shape"),
    )
}

/// Executes `op` with its optimized kernel, writing the single output into
/// `out` (length `out_shape.numel()`), splitting the output space over
/// `pool`'s threads. Returns `Ok(false)` without touching `out` when the
/// operator has no fast kernel. Results are bit-identical for every pool
/// (per-element ownership split; the pool's [`WorkPool::for_work`] gate
/// keeps small launches serial).
///
/// `packed_b` is an optional **prepacked operand**: a kernel-friendly
/// re-layout of one input, prepared once by the caller and reused across
/// runs. Two packed forms exist today:
///
/// * a transposed `Gemm` B panel — when `op` is `Gemm` with `transB = 1` and
///   `packed_b` carries `B` already transposed to `(K, N)` row-major, the
///   kernel reads the panel with contiguous loads instead of strided
///   gathers;
/// * an OC-blocked `Conv` weight panel ([`pack_conv_oc_panel`]) — when `op`
///   is an ungrouped `Conv` whose output-channel count is a multiple of
///   [`CONV_PANEL_LANES`], the kernel switches from column lanes to
///   channel-block lanes: eight output channels of one output position
///   accumulate in lockstep, each tap's eight weights arriving as one
///   contiguous panel load instead of an `(OC, ICpg, k…)`-stride gather.
///
/// Packing never changes results — a panel supplies the same operand values
/// in the same accumulation order, so outputs are bit-identical to the
/// unpacked call (pinned by the kernel tests). `packed_b` is ignored for
/// every other operator, for untransposed `Gemm`, for convs the panel
/// layout does not fit (grouped, remainder channels, or the scalar mode),
/// and wherever its shape is not the one the launch expects — each kernel
/// checks it and falls back to the plain operand.
///
/// # Errors
///
/// Returns an [`OpError`] when the inputs are structurally invalid for the
/// operator (wrong arity or rank, malformed window attributes), and the
/// reference kernel's error when a `Gather` index is out of range.
///
/// # Panics
///
/// May panic on inputs whose shapes are inconsistent with `out_shape`;
/// callers are expected to pass shapes produced by shape inference.
pub fn execute_fast_into_packed(
    op: OpKind,
    attrs: &Attrs,
    inputs: &[&Tensor],
    packed_b: Option<&Tensor>,
    out_shape: &Shape,
    out: &mut [f32],
    pool: WorkPool,
) -> Result<bool, OpError> {
    debug_assert_eq!(out.len(), out_shape.numel());
    match op {
        OpKind::Conv => fast_conv(attrs, inputs, packed_b, out_shape, out, pool)?,
        OpKind::MatMul => fast_matmul(op, inputs, out_shape, out, pool)?,
        OpKind::Gemm => fast_gemm(attrs, inputs, packed_b, out_shape, out, pool)?,
        OpKind::MaxPool | OpKind::AveragePool => {
            fast_pool(op, attrs, inputs, out_shape, out, pool)?
        }
        OpKind::GlobalAveragePool
        | OpKind::ReduceSum
        | OpKind::ReduceMean
        | OpKind::ReduceProd
        | OpKind::ReduceMax
        | OpKind::ReduceMin => {
            arity(op, inputs, 1)?;
            let x = inputs[0].shape();
            let reduced = if op == OpKind::GlobalAveragePool {
                if x.rank() < 3 {
                    return Err(shape_error(op, "expected (N, C, spatial...) input".into()));
                }
                (0..x.rank()).map(|d| d >= 2).collect()
            } else {
                reduced_axes(attrs, x)?
            };
            fast_reduce(op, &reduced, inputs[0], out, pool)?
        }
        OpKind::Concat => fast_concat(attrs, inputs, out_shape, out, pool)?,
        OpKind::Gather => {
            arity(op, inputs, 2)?;
            if !out.is_empty() {
                let map = gather_map(attrs, inputs[0].shape(), inputs[1])?;
                map.run(op, inputs[0].data(), out, pool)?;
            }
        }
        OpKind::Transpose
        | OpKind::Slice
        | OpKind::Upsample
        | OpKind::Resize
        | OpKind::Reshape
        | OpKind::Flatten
        | OpKind::Squeeze
        | OpKind::Unsqueeze => {
            arity(op, inputs, 1)?;
            let x = inputs[0];
            let map = match op {
                OpKind::Transpose => transpose_map(attrs, x.shape())?,
                OpKind::Slice => slice_map(attrs, x.shape(), out_shape)?,
                OpKind::Upsample | OpKind::Resize => resize_map(op, x.shape(), out_shape)?,
                _ => AxisMap::run_of(x.numel()),
            };
            map.run(op, x.data(), out, pool)?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn arity(op: OpKind, inputs: &[&Tensor], min: usize) -> Result<(), OpError> {
    if inputs.len() < min {
        return Err(OpError::ArityMismatch {
            op,
            expected: min,
            actual: inputs.len(),
        });
    }
    Ok(())
}

/// Lane widths of the column-lane kernels (conv, pooling): [`LANES`]-wide
/// bundles, then one 4-wide pass; none in the scalar mode.
fn lane_widths(pool: WorkPool) -> &'static [usize] {
    if pool.use_simd() {
        &[LANES, 4]
    } else {
        &[]
    }
}

/// `N` elements `d[at + l * step]`, one per lane: a contiguous load at step
/// 1, a gather otherwise (a single lane is one indexed read).
#[inline(always)]
fn lanes_at<const N: usize, I: Isa>(isa: I, d: &[f32], at: usize, step: usize) -> F32Lanes<N, I> {
    if step == 1 && N > 1 {
        isa.load(&d[at..])
    } else {
        isa.gather(d, at, step)
    }
}

/// Row-major odometer increment.
fn advance(pos: &mut [usize], dims: &[usize]) {
    for axis in (0..dims.len()).rev() {
        pos[axis] += 1;
        if pos[axis] < dims[axis] {
            break;
        }
        pos[axis] = 0;
    }
}

/// One outer-axis kernel tap of an output row that lands inside the input.
#[derive(Clone, Copy)]
struct RowTap {
    /// Offset of the tapped input row within its channel plane.
    x_off: usize,
    /// Offset of the tap's innermost run within one input channel's kernel
    /// (row-major outer tap index × `kw`).
    w_off: usize,
}

/// Rank-generic geometry of one windowed launch (`Conv` or pooling), built
/// once per launch and shared by every plane and thread. An output *row* is
/// one position of the outer spatial axes; [`WindowRows::taps`] lists, in
/// row-major kernel order, the outer-axis taps of that row that fall inside
/// the input — the bounds tests the reference kernel repeats per element,
/// resolved once. The innermost axis keeps its scalars here: the column
/// kernels walk `kx` themselves.
struct WindowRows {
    /// Innermost-axis extents: input, output, kernel.
    iw: usize,
    ow: usize,
    kw: usize,
    /// Innermost-axis stride, dilation and begin pad.
    sw: usize,
    dw: usize,
    pw: usize,
    /// Interior output columns `[x_lo, x_hi)`: every `kx` tap in bounds.
    x_lo: usize,
    x_hi: usize,
    /// Kernel taps per input channel (`∏ kernel`).
    kernel_count: usize,
    taps: Vec<RowTap>,
    /// `taps[row_start[r]..row_start[r + 1]]` are row `r`'s taps.
    row_start: Vec<usize>,
}

impl WindowRows {
    fn new(window: &Window, in_sp: &[usize], out_sp: &[usize]) -> Self {
        let last = in_sp.len() - 1;
        let (iw, ow, kw) = (in_sp[last], out_sp[last], window.kernel[last]);
        let (sw, dw, pw) = (
            window.strides[last],
            window.dilations[last],
            window.pads[last],
        );
        // The left border needs ox*sw >= pw; the right border needs the
        // furthest tap, ox*sw + (kw-1)*dw - pw, to stay below iw.
        let span = (kw - 1) * dw;
        let x_hi = if iw + pw > span {
            ((iw + pw - span - 1) / sw + 1).min(ow)
        } else {
            0
        };
        let x_lo = pw.div_ceil(sw).min(x_hi);

        let (outer_out, outer_kernel) = (&out_sp[..last], &window.kernel[..last]);
        let row_count: usize = outer_out.iter().product();
        let outer_taps: usize = outer_kernel.iter().product();
        let mut taps = Vec::with_capacity(row_count * outer_taps);
        let mut row_start = Vec::with_capacity(row_count + 1);
        row_start.push(0);
        let mut out_pos = vec![0usize; last];
        let mut k_pos = vec![0usize; last];
        for _ in 0..row_count {
            for t in 0..outer_taps {
                let mut x_off = 0;
                let mut axis_stride = iw;
                let mut inside = true;
                for d in (0..last).rev() {
                    let pos = out_pos[d] * window.strides[d] + k_pos[d] * window.dilations[d];
                    if pos < window.pads[d] || pos - window.pads[d] >= in_sp[d] {
                        inside = false;
                        break;
                    }
                    x_off += (pos - window.pads[d]) * axis_stride;
                    axis_stride *= in_sp[d];
                }
                if inside {
                    taps.push(RowTap {
                        x_off,
                        w_off: t * kw,
                    });
                }
                advance(&mut k_pos, outer_kernel);
            }
            row_start.push(taps.len());
            advance(&mut out_pos, outer_out);
        }
        WindowRows {
            iw,
            ow,
            kw,
            sw,
            dw,
            pw,
            x_lo,
            x_hi,
            kernel_count: outer_taps * kw,
            taps,
            row_start,
        }
    }

    fn count(&self) -> usize {
        self.row_start.len() - 1
    }

    fn taps(&self, row: usize) -> &[RowTap] {
        &self.taps[self.row_start[row]..self.row_start[row + 1]]
    }

    /// [`col_tiles`] over one output row of this launch.
    #[inline(always)]
    fn tiles(&self, widths: &[usize], tile: impl FnMut(usize, usize)) {
        col_tiles(self.ow, self.x_lo, self.x_hi, widths, tile);
    }

    /// The input column tap `kx` of output column `ox` reads; `None` when
    /// `checked` and it falls in the padding. Unchecked callers pass interior
    /// columns only, where it never does.
    #[inline]
    fn input_col(&self, ox: usize, kx: usize, checked: bool) -> Option<usize> {
        let xx = ox * self.sw + kx * self.dw;
        if checked && (xx < self.pw || xx - self.pw >= self.iw) {
            None
        } else {
            Some(xx - self.pw)
        }
    }
}

/// The dot micro-kernel shared by the packed conv, `MatMul` and `Gemm`: an
/// `MR × NR` tile of `N`-lane accumulators. One step folds one term into
/// each, `acc[r][c] = acc[r][c] + splat(a(r)) * b(c)`: the rows share each
/// column's load, the columns share each row's splat, and the `MR · NR`
/// accumulators are independent add chains. Per element this is the scalar
/// kernel's `acc = acc + a * b` in the caller's step order, so the bits
/// depend on neither the tile shape nor the ISA.
#[inline(always)]
fn dot_step<const MR: usize, const NR: usize, const N: usize, I: Isa>(
    mut acc: [[F32Lanes<N, I>; NR]; MR],
    isa: I,
    a: impl Fn(usize) -> f32,
    b: impl Fn(usize) -> F32Lanes<N, I>,
) -> [[F32Lanes<N, I>; NR]; MR] {
    let mut bs = [isa.splat(0.0); NR];
    for (c, v) in bs.iter_mut().enumerate() {
        *v = b(c);
    }
    for (r, row) in acc.iter_mut().enumerate() {
        let a = isa.splat(a(r));
        for (acc, &b) in row.iter_mut().zip(&bs) {
            *acc = *acc + a * b;
        }
    }
    acc
}

/// The run `[first, first + len)` of a row-major index space with inner
/// extent `period`, split where the outer index changes: `(outer, inner,
/// count, at)` per piece, `count` indices from `(outer, inner)`, `at` into
/// the run.
fn pieces(first: usize, len: usize, period: usize) -> impl Iterator<Item = [usize; 4]> {
    let mut at = 0;
    std::iter::from_fn(move || {
        let (outer, inner) = ((first + at) / period, (first + at) % period);
        let count = (period - inner).min(len.saturating_sub(at));
        at += count;
        (count > 0).then_some([outer, inner, count, at - count])
    })
}

/// Direct convolution at any spatial rank. Accumulates over input channels
/// then kernel taps in row-major order — the reference kernel's exact
/// summation sequence. Parallel over `(batch, out_channel)` output planes;
/// each plane is owned by one thread. With a prepacked OC panel (`packed`,
/// see [`pack_conv_oc_panel`]), an ungrouped conv whose channel count fills
/// whole lane bundles, and SIMD on, lanes own output channels instead
/// ([`ConvLaunch::panels`]): a chunk is a few panels of one batch element,
/// register-blocked with [`dot_step`] over output columns × panels — same
/// elements, same per-element tap order, different loop nesting across
/// *independent* elements, so results stay bit-identical.
fn fast_conv(
    attrs: &Attrs,
    inputs: &[&Tensor],
    packed: Option<&Tensor>,
    out_shape: &Shape,
    out: &mut [f32],
    pool: WorkPool,
) -> Result<(), OpError> {
    const B: usize = CONV_PANEL_LANES;
    arity(OpKind::Conv, inputs, 2)?;
    let (x, w) = (inputs[0], inputs[1]);
    let bias = inputs.get(2).map(|b| b.data());
    if x.shape().rank() < 3 || w.shape().rank() != x.shape().rank() {
        return Err(OpError::InvalidShape {
            op: OpKind::Conv,
            reason: "expected (N, C, spatial...) input and matching-rank weight".into(),
        });
    }
    if out.is_empty() {
        return Ok(());
    }
    let xd = x.shape().dims();
    let window = Window::parse(
        OpKind::Conv,
        attrs,
        xd.len() - 2,
        Some(&w.shape().dims()[2..]),
    )?;
    let group = attrs.int_or("group", 1).max(1) as usize;
    let rows = WindowRows::new(&window, &xd[2..], &out_shape.dims()[2..]);

    let out_channels = out_shape.dim(1);
    let in_per_group = w.shape().dim(1);
    let channels_per_group_out = (out_channels / group).max(1);
    let plane: usize = out_shape.dims()[2..].iter().product();
    let x_plane: usize = xd[2..].iter().product();
    let x_batch = xd[1] * x_plane;
    let w_per_oc = in_per_group * rows.kernel_count;
    let pool = pool.for_work(out.len().saturating_mul(w_per_oc));

    let panel = packed.filter(|p| {
        pool.use_simd()
            && group == 1
            && out_channels.is_multiple_of(B)
            && p.shape().dims() == [out_channels / B, w_per_oc, B]
    });
    let conv = ConvLaunch {
        rows: &rows,
        xdat: x.data(),
        wdat: panel.unwrap_or(w).data(),
        in_per_group,
        x_plane,
        plane,
    };
    if panel.is_some() {
        let blocks = out_channels / B;
        match pool.avx() {
            Some(avx) => conv.panels(avx, out, bias, blocks, x_batch, pool),
            None => conv.panels(Sse2, out, bias, blocks, x_batch, pool),
        }
        return Ok(());
    }
    let widths = lane_widths(pool);
    pool.run_chunks(out, plane, |p, chunk| {
        let (n, oc) = (p / out_channels, p % out_channels);
        let g = oc / channels_per_group_out;
        let b0 = bias.map_or(0.0, |b| b[oc]);
        let (x_base, w_base) = (n * x_batch + g * in_per_group * x_plane, oc * w_per_oc);
        for (r, row) in chunk.chunks_mut(rows.ow).enumerate() {
            let taps = rows.taps(r);
            rows.tiles(widths, |ox, width| match width {
                LANES => conv.cols::<LANES>(row, taps, x_base, w_base, b0, ox),
                4 => conv.cols::<4>(row, taps, x_base, w_base, b0, ox),
                _ => conv.cols::<1>(row, taps, x_base, w_base, b0, ox),
            });
        }
    });
    Ok(())
}

/// Loop constants of one convolution launch, shared by the column-lane and
/// the OC-panel kernel so both walk the identical tap sequence.
struct ConvLaunch<'a> {
    rows: &'a WindowRows,
    xdat: &'a [f32],
    /// The `(OC, ICpg, k…)` weights for [`ConvLaunch::cols`], the OC-blocked
    /// panel for [`ConvLaunch::panels`].
    wdat: &'a [f32],
    in_per_group: usize,
    /// Elements per input and per output channel plane.
    x_plane: usize,
    plane: usize,
}

impl ConvLaunch<'_> {
    /// Calls `step(x, w)` with the input and weight offsets of each tap of
    /// output column `ox`, in the reference order: input channels, then the
    /// row's outer taps, then `kx` — skipping the `kx` taps in the padding
    /// when `checked`, exactly as the reference does (unchecked callers take
    /// interior columns only). A weight tap is `w_tap` elements wide.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn taps(
        &self,
        taps: &[RowTap],
        x_base: usize,
        w_base: usize,
        w_tap: usize,
        ox: usize,
        checked: bool,
        mut step: impl FnMut(usize, usize),
    ) {
        let g = self.rows;
        for ic in 0..self.in_per_group {
            let x_ic = x_base + ic * self.x_plane;
            let w_ic = w_base + ic * g.kernel_count * w_tap;
            for tap in taps {
                // Hoisted by hand: with these sums inside the `kx` loop the
                // interior tile measured ~20% slower.
                let (x_row, w_row) = (x_ic + tap.x_off, w_ic + tap.w_off * w_tap);
                for kx in 0..g.kw {
                    if let Some(xc) = g.input_col(ox, kx, checked) {
                        step(x_row + xc, w_row + kx * w_tap);
                    }
                }
            }
        }
    }

    /// `N` consecutive output columns of one output channel starting at
    /// `ox`, one element per lane; `N == 1` is the checked instance.
    fn cols<const N: usize>(
        &self,
        row: &mut [f32],
        taps: &[RowTap],
        x_base: usize,
        w_base: usize,
        b0: f32,
        ox: usize,
    ) {
        let (x, w, sw) = (self.xdat, self.wdat, self.rows.sw);
        let mut acc = Sse2.splat::<N>(b0);
        self.taps(taps, x_base, w_base, 1, ox, N == 1, |xi, wi| {
            acc = acc + lanes_at(Sse2, x, xi, sw) * Sse2.splat(w[wi]);
        });
        acc.store(&mut row[ox..]);
    }

    /// The packed launch, in the instruction set `isa`. A chunk is the
    /// output planes of `NR` panels of one image (their first bias at
    /// `bias[0]`), run as tiles of `MR = max(2, 4 / NR)` output columns ×
    /// `NR` panels. `NR` is the largest divisor of the image's `blocks`
    /// panels up to 4 under AVX and 2 under SSE (an accumulator is one of 16
    /// `ymm` or two of 16 `xmm` registers), and smaller when a thread would
    /// idle.
    fn panels<I: Isa>(
        &self,
        isa: I,
        out: &mut [f32],
        bias: Option<&[f32]>,
        blocks: usize,
        x_batch: usize,
        pool: WorkPool,
    ) {
        const B: usize = CONV_PANEL_LANES;
        let (per_panel, w_panel) = (
            B * self.plane,
            self.in_per_group * self.rows.kernel_count * B,
        );
        let most =
            (if I::WIDE { 4 } else { 2 }).min((out.len() / per_panel).div_ceil(pool.threads()));
        let nr = (1..=most)
            .rev()
            .find(|&p| blocks.is_multiple_of(p))
            .unwrap_or(1);
        pool.run_chunks(out, nr * per_panel, |c, dst| {
            let (n, ob) = (c * nr / blocks, c * nr % blocks);
            let (bias, base) = (bias.map(|b| &b[ob * B..]), (n * x_batch, ob * w_panel));
            isa.enter(
                #[inline(always)]
                || match nr {
                    1 => self.panel_rows::<4, 1, _>(isa, dst, bias, base),
                    2 => self.panel_rows::<2, 2, _>(isa, dst, bias, base),
                    3 => self.panel_rows::<2, 3, _>(isa, dst, bias, base),
                    _ => self.panel_rows::<2, 4, _>(isa, dst, bias, base),
                },
            );
        });
    }

    /// Every output row of `NR` panels: interior tiles of `MR` columns, then
    /// of 2 (so at most one interior column is left over), and the checked
    /// one-column instance elsewhere, which keeps all `NR` panels, so border
    /// columns and rows narrower than a tile still run `NR` independent
    /// chains.
    #[inline(always)]
    fn panel_rows<const MR: usize, const NR: usize, I: Isa>(
        &self,
        isa: I,
        dst: &mut [f32],
        bias: Option<&[f32]>,
        base: (usize, usize),
    ) {
        const B: usize = CONV_PANEL_LANES;
        let g = self.rows;
        let mut bias_v = [isa.splat(0.0); NR];
        for (c, v) in bias_v.iter_mut().enumerate() {
            *v = bias.map_or(*v, |b| isa.load(&b[c * B..]));
        }
        for r in 0..g.count() {
            let (taps, row) = (g.taps(r), &mut dst[r * g.ow..]);
            g.tiles(
                if MR > 2 { &[MR, 2] } else { &[MR] },
                #[inline(always)]
                |ox, width| match width {
                    1 => self.panel_tile::<1, NR, I>(isa, row, taps, base, bias_v, ox),
                    2 => self.panel_tile::<2, NR, I>(isa, row, taps, base, bias_v, ox),
                    _ => self.panel_tile::<MR, NR, I>(isa, row, taps, base, bias_v, ox),
                },
            );
        }
    }

    /// `MR` output columns from `ox` × `NR` panels, into `out` (the output
    /// row in the first panel's first plane; input and weights from `base`):
    /// lane `l` of `acc[r][c]` owns column `ox + r` in plane `c · B + l`.
    /// Rows are output columns (an input splat each), columns are panels (a
    /// contiguous weight load each); `MR == 1` is the checked instance.
    #[inline(always)]
    fn panel_tile<const MR: usize, const NR: usize, I: Isa>(
        &self,
        isa: I,
        out: &mut [f32],
        taps: &[RowTap],
        (x_base, w_base): (usize, usize),
        bias: [F32Lanes<CONV_PANEL_LANES, I>; NR],
        ox: usize,
    ) {
        const B: usize = CONV_PANEL_LANES;
        let (x, w, sw) = (self.xdat, self.wdat, self.rows.sw);
        let w_panel = self.in_per_group * self.rows.kernel_count * B;
        let mut acc = [bias; MR];
        self.taps(
            taps,
            x_base,
            w_base,
            B,
            ox,
            MR == 1,
            #[inline(always)]
            |xi, wi| {
                let b = |c| isa.load(&w[wi + c * w_panel..]);
                acc = dot_step(acc, isa, |r| x[xi + r * sw], b);
            },
        );
        for (r, accs) in acc.iter().enumerate() {
            for (c, a) in accs.iter().enumerate() {
                for (l, &v) in a.to_array().iter().enumerate() {
                    out[(c * B + l) * self.plane + ox + r] = v;
                }
            }
        }
    }
}

/// Batched matrix multiplication with broadcasting over batch dimensions.
/// Parallel over output rows across all batches (per-batch operand offsets
/// are precomputed, so a small batch count never caps thread utilization);
/// the per-element dot product is never split.
fn fast_matmul(
    op: OpKind,
    inputs: &[&Tensor],
    out_shape: &Shape,
    out: &mut [f32],
    pool: WorkPool,
) -> Result<(), OpError> {
    arity(op, inputs, 2)?;
    let a = inputs[0];
    let b = inputs[1];
    if a.shape().rank() < 2 || b.shape().rank() < 2 {
        return Err(OpError::InvalidShape {
            op,
            reason: "operands must be rank >= 2".into(),
        });
    }
    if out.is_empty() {
        return Ok(());
    }
    let batch_shape = Shape::new(out_shape.dims()[..out_shape.rank() - 2].to_vec());
    let a_batch = Shape::new(a.shape().dims()[..a.shape().rank() - 2].to_vec());
    let b_batch = Shape::new(b.shape().dims()[..b.shape().rank() - 2].to_vec());
    let a_strides = a.shape().strides();
    let b_strides = b.shape().strides();

    // Broadcast-resolved operand offsets, one entry per batch, computed once
    // so the per-row closure stays index-arithmetic only.
    let bases: Vec<(usize, usize)> = (0..batch_shape.numel().max(1))
        .map(|batch| {
            let batch_idx = batch_shape.multi_index(batch);
            let a_prefix = broadcast_index(&batch_idx, &a_batch);
            let b_prefix = broadcast_index(&batch_idx, &b_batch);
            let a_base = a_prefix.iter().zip(&a_strides).map(|(&i, &s)| i * s).sum();
            let b_base = b_prefix.iter().zip(&b_strides).map(|(&i, &s)| i * s).sum();
            (a_base, b_base)
        })
        .collect();
    let dot = DotLaunch {
        a: a.data(),
        b: b.data(),
        a_strides: (a_strides[a.shape().rank() - 2], 1),
        b_strides: (b_strides[b.shape().rank() - 2], 1),
        bases: &bases,
        m: out_shape.dim(out_shape.rank() - 2),
        n: out_shape.dim(out_shape.rank() - 1),
        k: a.shape().dim(a.shape().rank() - 1),
        gemm: None,
    };
    dot.run(out, pool);
    Ok(())
}

/// ONNX `Gemm` with transpose flags, `alpha`/`beta` scaling and broadcast
/// bias, in the reference kernel's evaluation order. Parallel over output
/// rows.
fn fast_gemm(
    attrs: &Attrs,
    inputs: &[&Tensor],
    packed_b: Option<&Tensor>,
    out_shape: &Shape,
    out: &mut [f32],
    pool: WorkPool,
) -> Result<(), OpError> {
    arity(OpKind::Gemm, inputs, 2)?;
    let a = inputs[0];
    let b = inputs[1];
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(OpError::InvalidShape {
            op: OpKind::Gemm,
            reason: "operands must be rank 2".into(),
        });
    }
    if out.is_empty() {
        return Ok(());
    }
    let trans_a = attrs.int_or("transA", 0) != 0;
    let trans_b = attrs.int_or("transB", 0) != 0;
    let n = out_shape.dim(1);
    let k = if trans_a {
        a.shape().dim(0)
    } else {
        a.shape().dim(1)
    };
    // A prepacked (already transposed, `(K, N)` row-major) B panel replaces
    // the transposed operand: reads become contiguous, while every element
    // value — `packed[p][j] == b[j][p]` — and the accumulation order stay
    // exactly those of the strided loop, so results are bit-identical. A
    // panel of any other shape is ignored, as in `fast_conv`.
    let panel = packed_b.filter(|p| trans_b && p.shape().dims() == [k, n]);
    let (bdat, b_cols, trans_b) = match panel {
        Some(panel) => (panel.data(), n, false),
        None => (b.data(), b.shape().dim(1), trans_b),
    };
    // Broadcast strides of the optional bias over the (m, n) output.
    let c = inputs.get(2).map(|c| {
        let cd = c.shape().dims();
        let (si, sj) = match cd.len() {
            2 => (
                if cd[0] == 1 { 0 } else { cd[1] },
                if cd[1] == 1 { 0 } else { 1 },
            ),
            1 => (0, if cd[0] == 1 { 0 } else { 1 }),
            _ => (0, 0),
        };
        (c.data(), si, sj)
    });
    // `a[i][p]` and `b[p][j]` as strides, so a transposed operand is the same
    // walk with the two strides swapped.
    let a_cols = a.shape().dim(1);
    let dot = DotLaunch {
        a: a.data(),
        b: bdat,
        a_strides: if trans_a { (1, a_cols) } else { (a_cols, 1) },
        b_strides: if trans_b { (1, b_cols) } else { (b_cols, 1) },
        bases: &[(0, 0)],
        m: out_shape.dim(0),
        n,
        k,
        gemm: Some(GemmEpilogue {
            alpha: attrs.float_or("alpha", 1.0),
            beta: attrs.float_or("beta", 1.0),
            c,
        }),
    };
    dot.run(out, pool);
    Ok(())
}

/// Loop constants of one `MatMul` or `Gemm` launch: output `(batch, i, j)`
/// is `Σ_p a[i, p] · b[p, j]` over the batch's operands, folded from zero
/// in `p` order.
struct DotLaunch<'a> {
    a: &'a [f32],
    b: &'a [f32],
    /// Element strides of `a` along `(i, p)` and of `b` along `(p, j)`.
    a_strides: (usize, usize),
    b_strides: (usize, usize),
    /// Per batch, the offsets of its `a` and `b` matrices.
    bases: &'a [(usize, usize)],
    m: usize,
    n: usize,
    k: usize,
    gemm: Option<GemmEpilogue<'a>>,
}

/// What `Gemm` applies to each finished dot product, in the reference's
/// order: `alpha · acc`, then `+ beta · c` with `c` broadcast.
struct GemmEpilogue<'a> {
    alpha: f32,
    beta: f32,
    /// Bias data with its broadcast strides over the `(m, n)` output.
    c: Option<(&'a [f32], usize, usize)>,
}

impl DotLaunch<'_> {
    /// Runs the launch in the instruction set the pool picks.
    fn run(&self, out: &mut [f32], pool: WorkPool) {
        match pool.avx() {
            Some(avx) => self.run_on(avx, out, pool),
            None => self.run_on(Sse2, out, pool),
        }
    }

    /// A chunk is two output rows (one when that leaves a thread idle, and
    /// in the scalar mode), split where a batch ends. Two rows of one batch
    /// run tiles of 2 rows × 2 bundles, other rows one-row tiles of 4
    /// bundles: the conv's `MR = max(2, 4 / NR)` rule.
    fn run_on<I: Isa>(&self, isa: I, out: &mut [f32], pool: WorkPool) {
        let n = self.n;
        let pool = pool.for_work(out.len().saturating_mul(self.k));
        let simd = pool.use_simd();
        let rows = if simd { 2 } else { 1 }.min((out.len() / n).div_ceil(pool.threads()));
        pool.run_chunks(out, rows * n, |c, chunk| {
            isa.enter(
                #[inline(always)]
                || {
                    for [batch, i, count, at] in pieces(c * rows, chunk.len() / n, self.m) {
                        let dst = &mut chunk[at * n..(at + count) * n];
                        if count == 2 {
                            self.rows::<2, 2, I>(isa, simd, dst, batch, i);
                        } else {
                            self.rows::<1, 4, I>(isa, simd, dst, batch, i);
                        }
                    }
                },
            );
        });
    }

    /// Output rows `i .. i + R` of one batch into `dst`: tiles of `NR`
    /// bundles, then one bundle, a 4-lane pass and single columns (single
    /// columns only in the scalar mode).
    #[inline(always)]
    fn rows<const R: usize, const NR: usize, I: Isa>(
        &self,
        isa: I,
        simd: bool,
        dst: &mut [f32],
        b: usize,
        i: usize,
    ) {
        let widths = [NR * LANES, LANES, 4];
        let widths = if simd { &widths[..] } else { &[] };
        col_tiles(
            self.n,
            0,
            self.n,
            widths,
            #[inline(always)]
            |j, width| match width {
                w if w == NR * LANES => self.tile::<R, NR, LANES, I>(isa, dst, b, i, j),
                LANES => self.tile::<R, 1, LANES, I>(isa, dst, b, i, j),
                4 => self.tile::<R, 1, 4, I>(isa, dst, b, i, j),
                _ => self.tile::<R, 1, 1, I>(isa, dst, b, i, j),
            },
        );
    }

    /// Rows `i .. i + R` × columns `j .. j + NR · N` of batch `batch`: lane
    /// `l` of `acc[r][c]` owns output `(i + r, j + c · N + l)`. `a`'s element
    /// is a splat per row, `b` loads contiguously (or gathers with the row
    /// stride when transposed; the form is fixed outside the reduction
    /// loop), and `Gemm`'s bias broadcast reuses its per-axis strides as
    /// gather strides.
    #[inline(always)]
    fn tile<const R: usize, const NR: usize, const N: usize, I: Isa>(
        &self,
        isa: I,
        dst: &mut [f32],
        batch: usize,
        i: usize,
        j: usize,
    ) {
        let (a_base, b_base) = self.bases[batch];
        let ((a_row, a_step), (b_step, b_lane)) = (self.a_strides, self.b_strides);
        // Each row's `k` steps of `a` and the tile's columns of `b`, cut once
        // so that the reduction loop indexes within known lengths.
        let span = self.k.saturating_sub(1) * a_step + usize::from(self.k > 0);
        let mut a: [&[f32]; R] = [&[]; R];
        for (r, a) in a.iter_mut().enumerate() {
            *a = &self.a[a_base + (i + r) * a_row..][..span];
        }
        let b = &self.b[b_base + j * b_lane..];
        let mut acc = [[isa.splat::<N>(0.0); NR]; R];
        if a_step == 1 && b_lane == 1 {
            // Every `MatMul`, and `Gemm` with a packed panel.
            for p in 0..self.k {
                let b = &b[p * b_step..][..NR * N];
                acc = dot_step(acc, isa, |r| a[r][p], |c| isa.load(&b[c * N..]));
            }
        } else {
            for p in 0..self.k {
                let b = |c| lanes_at(isa, b, p * b_step + c * N * b_lane, b_lane);
                acc = dot_step(acc, isa, |r| a[r][p * a_step], b);
            }
        }
        for (r, accs) in acc.iter().enumerate() {
            for (c, &acc) in accs.iter().enumerate() {
                let col = j + c * N;
                let mut v = acc;
                if let Some(gemm) = &self.gemm {
                    v = isa.splat(gemm.alpha) * v;
                    if let Some((cd, si, sj)) = gemm.c {
                        let cv = isa.gather(cd, (i + r) * si + col * sj, sj);
                        v = v + isa.splat(gemm.beta) * cv;
                    }
                }
                v.store(&mut dst[r * self.n + col..]);
            }
        }
    }
}

/// `MaxPool` / `AveragePool` at any spatial rank, with the reference
/// kernel's window order and padding-count semantics. Parallel over
/// `(batch, channel)` output planes.
fn fast_pool(
    op: OpKind,
    attrs: &Attrs,
    inputs: &[&Tensor],
    out_shape: &Shape,
    out: &mut [f32],
    pool: WorkPool,
) -> Result<(), OpError> {
    arity(op, inputs, 1)?;
    let x = inputs[0];
    if x.shape().rank() < 3 {
        return Err(OpError::InvalidShape {
            op,
            reason: "expected (N, C, spatial...) input".into(),
        });
    }
    if out.is_empty() {
        return Ok(());
    }
    let xd = x.shape().dims();
    let window = Window::parse(op, attrs, xd.len() - 2, None)?;
    let rows = WindowRows::new(&window, &xd[2..], &out_shape.dims()[2..]);
    let launch = PoolLaunch {
        rows: &rows,
        xdat: x.data(),
        is_max: op == OpKind::MaxPool,
        count_include_pad: attrs.int_or("count_include_pad", 0) != 0,
    };
    let plane: usize = out_shape.dims()[2..].iter().product();
    let x_plane: usize = xd[2..].iter().product();
    let pool = pool.for_work(out.len().saturating_mul(rows.kernel_count));
    let widths = lane_widths(pool);
    // Output plane `p` is input plane `p`: pooling keeps (batch, channel).
    pool.run_chunks(out, plane, |p, chunk| {
        let x_base = p * x_plane;
        for (r, row) in chunk.chunks_mut(rows.ow).enumerate() {
            let taps = rows.taps(r);
            rows.tiles(widths, |ox, width| match width {
                LANES => launch.cols::<LANES>(row, taps, x_base, ox),
                4 => launch.cols::<4>(row, taps, x_base, ox),
                _ => launch.cols::<1>(row, taps, x_base, ox),
            });
        }
    });
    Ok(())
}

/// Loop constants of one pooling launch.
struct PoolLaunch<'a> {
    rows: &'a WindowRows,
    xdat: &'a [f32],
    is_max: bool,
    count_include_pad: bool,
}

impl PoolLaunch<'_> {
    /// `N` consecutive output columns starting at `ox`, one element per
    /// lane: the row's outer taps then `kx`, the reference window order,
    /// applying the scalar operation per lane (`f32::max` / `+`, then one
    /// IEEE division for averages). `N == 1` is the checked instance that
    /// skips (and does not count) `kx` taps in the padding; wider instances
    /// take interior columns only, so the in-bounds count is uniform across
    /// the lanes.
    fn cols<const N: usize>(&self, row: &mut [f32], taps: &[RowTap], x_base: usize, ox: usize) {
        let g = self.rows;
        let mut acc = Sse2.splat::<N>(if self.is_max { f32::NEG_INFINITY } else { 0.0 });
        let mut count = 0usize;
        for tap in taps {
            let x_row = x_base + tap.x_off;
            for kx in 0..g.kw {
                let Some(xc) = g.input_col(ox, kx, N == 1) else {
                    continue;
                };
                let xv = lanes_at(Sse2, self.xdat, x_row + xc, g.sw);
                acc = if self.is_max { acc.max(xv) } else { acc + xv };
                count += 1;
            }
        }
        if !self.is_max {
            let denom = if self.count_include_pad {
                g.kernel_count
            } else {
                count.max(1)
            };
            acc = acc / Sse2.splat(denom as f32);
        }
        acc.store(&mut row[ox..]);
    }
}

/// Splits `out`, `row` elements per row, into at most one run of whole rows
/// per thread of `pool` and calls `f(first_row, run)` on each.
fn row_parts(pool: WorkPool, out: &mut [f32], row: usize, f: impl Fn(usize, &mut [f32]) + Sync) {
    let per_part = (out.len() / row).div_ceil(pool.threads());
    pool.run_chunks(out, per_part * row, |part, run| f(part * per_part, run));
}

fn shape_error(op: OpKind, reason: String) -> OpError {
    OpError::InvalidShape { op, reason }
}

/// One axis of a copy walk: source index → offset `index · stride`, each
/// index checked against the source `extent`.
fn axis_table(
    op: OpKind,
    indices: impl Iterator<Item = usize>,
    extent: usize,
    stride: usize,
) -> Result<Vec<usize>, OpError> {
    indices
        .map(|i| match i < extent {
            true => Ok(i * stride),
            false => Err(shape_error(
                op,
                format!("source index {i} outside axis extent {extent}"),
            )),
        })
        .collect()
}

/// Whether consecutive entries of `table` differ by exactly `step`.
fn steps_by(table: &[usize], step: usize) -> bool {
    table.windows(2).all(|w| w[1] == w[0] + step)
}

/// The innermost axis of an [`AxisMap`].
enum Inner {
    /// Offsets `base, base + 1, …, base + len − 1`: one slice copy per row.
    Run { base: usize, len: usize },
    /// Any other offsets, read one by one.
    Table(Vec<usize>),
}

/// The copy kernel's walk: output element `o`, whose row-major multi-index
/// is `i`, reads `src[Σ_d table_d[i_d]]`. Each data-movement operator only
/// builds the per-axis tables; one odometer walks them all. Innermost axes
/// whose offsets form one contiguous run merge into an [`Inner::Run`], so a
/// walk that moves whole rows is a sequence of slice copies.
struct AxisMap {
    /// Tables of the outer axes, outermost first.
    outer: Vec<Vec<usize>>,
    inner: Inner,
}

impl AxisMap {
    fn new(mut tables: Vec<Vec<usize>>) -> Self {
        let mut inner = match tables.pop() {
            None => Inner::Run { base: 0, len: 1 },
            Some(t) if steps_by(&t, 1) => Inner::Run {
                base: t.first().copied().unwrap_or(0),
                len: t.len(),
            },
            Some(t) => Inner::Table(t),
        };
        while let (Inner::Run { base, len }, Some(outer)) = (&inner, tables.last()) {
            if !steps_by(outer, *len) {
                break;
            }
            let merged = Inner::Run {
                base: base + outer.first().copied().unwrap_or(0),
                len: len * outer.len(),
            };
            tables.pop();
            inner = merged;
        }
        AxisMap {
            outer: tables,
            inner,
        }
    }

    /// A plain copy of `len` elements.
    fn run_of(len: usize) -> Self {
        AxisMap {
            outer: Vec::new(),
            inner: Inner::Run { base: 0, len },
        }
    }

    fn row_len(&self) -> usize {
        match &self.inner {
            Inner::Run { len, .. } => *len,
            Inner::Table(t) => t.len(),
        }
    }

    /// Fills `out` from `src`; threads own runs of whole output rows.
    fn run(&self, op: OpKind, src: &[f32], out: &mut [f32], pool: WorkPool) -> Result<(), OpError> {
        let numel = self.outer.iter().map(Vec::len).product::<usize>() * self.row_len();
        if numel != out.len() {
            return Err(shape_error(
                op,
                format!("walk of {numel} elements for an output of {}", out.len()),
            ));
        }
        if !out.is_empty() {
            let pool = pool.for_work(out.len());
            row_parts(pool, out, self.row_len(), |first, rows| {
                self.copy_rows(src, first, rows)
            });
        }
        Ok(())
    }

    /// Copies the whole rows `dst` holds, the first of them row `first`.
    fn copy_rows(&self, src: &[f32], first: usize, dst: &mut [f32]) {
        let dims: Vec<usize> = self.outer.iter().map(Vec::len).collect();
        let mut idx = Shape::new(dims.clone()).multi_index(first);
        for row in dst.chunks_mut(self.row_len()) {
            let base: usize = self.outer.iter().zip(&idx).map(|(t, &i)| t[i]).sum();
            match &self.inner {
                Inner::Run { base: at, len } => {
                    row.copy_from_slice(&src[base + at..base + at + len]);
                }
                Inner::Table(t) => {
                    for (o, &off) in row.iter_mut().zip(t) {
                        *o = src[base + off];
                    }
                }
            }
            advance(&mut idx, &dims);
        }
    }
}

/// `Transpose`: output axis `d` walks input axis `perm[d]` at its stride.
fn transpose_map(attrs: &Attrs, x: &Shape) -> Result<AxisMap, OpError> {
    let default: Vec<i64> = (0..x.rank() as i64).rev().collect();
    let perm: Vec<usize> = attrs
        .ints_or("perm", &default)
        .iter()
        .map(|&p| p as usize)
        .collect();
    x.permute(&perm)?;
    let strides = x.strides();
    let tables = perm.iter().map(|&p| {
        let extent = x.dim(p);
        axis_table(OpKind::Transpose, 0..extent, extent, strides[p])
    });
    Ok(AxisMap::new(tables.collect::<Result<_, _>>()?))
}

/// `Slice`: axis `d` reads `(start_d + i) · stride_d`, with the reference's
/// negative wrap and clamping of `starts`.
fn slice_map(attrs: &Attrs, x: &Shape, out_shape: &Shape) -> Result<AxisMap, OpError> {
    let starts = attrs.ints_or("starts", &[]);
    let axes = attrs.ints_or("axes", &(0..starts.len() as i64).collect::<Vec<_>>());
    let mut offsets = vec![0usize; x.rank()];
    for (&s, &ax) in starts.iter().zip(&axes) {
        let axis = x.normalize_axis(ax)?;
        let extent = x.dim(axis) as i64;
        let s = if s < 0 { s + extent } else { s };
        offsets[axis] = s.clamp(0, extent) as usize;
    }
    same_rank(OpKind::Slice, x, out_shape)?;
    let strides = x.strides();
    let tables = (0..x.rank()).map(|d| {
        let indices = (0..out_shape.dim(d)).map(|i| offsets[d] + i);
        axis_table(OpKind::Slice, indices, x.dim(d), strides[d])
    });
    Ok(AxisMap::new(tables.collect::<Result<_, _>>()?))
}

/// `Gather` on any axis: the data's outer axes, then the flattened index
/// tensor read at run time (negative indices wrap once, as in the
/// reference), then the data's inner axes. An out-of-range index is the
/// reference's error, reported for the first offending index in output
/// order. The caller skips an empty output, for which the reference reads
/// no index.
fn gather_map(attrs: &Attrs, data: &Shape, indices: &Tensor) -> Result<AxisMap, OpError> {
    const OP: OpKind = OpKind::Gather;
    let axis = data.normalize_axis(attrs.int_or("axis", 0))?;
    let strides = data.strides();
    let full = |d: usize| axis_table(OP, 0..data.dim(d), data.dim(d), strides[d]);
    let extent = data.dim(axis) as i64;
    let mut tables = (0..axis).map(full).collect::<Result<Vec<_>, _>>()?;
    let picked = indices.data().iter().map(|&v| {
        let g = v as i64;
        let g = if g < 0 { g + extent } else { g };
        match (0..extent).contains(&g) {
            true => Ok(g as usize * strides[axis]),
            false => Err(shape_error(
                OP,
                format!("index {g} out of range for axis extent {extent}"),
            )),
        }
    });
    tables.push(picked.collect::<Result<_, _>>()?);
    for d in axis + 1..data.rank() {
        tables.push(full(d)?);
    }
    Ok(AxisMap::new(tables))
}

/// Nearest `Upsample`/`Resize`: axis `d` reads the reference's
/// `min(floor(i / scale), extent − 1)`, the same f32 expression evaluated
/// once per index.
fn resize_map(op: OpKind, x: &Shape, out_shape: &Shape) -> Result<AxisMap, OpError> {
    same_rank(op, x, out_shape)?;
    let strides = x.strides();
    let tables = (0..x.rank()).map(|d| {
        let (extent, out_extent) = (x.dim(d), out_shape.dim(d));
        let scale = out_extent as f32 / extent as f32;
        let indices = (0..out_extent)
            .map(|i| ((i as f32 / scale).floor() as usize).min(extent.saturating_sub(1)));
        axis_table(op, indices, extent, strides[d])
    });
    Ok(AxisMap::new(tables.collect::<Result<_, _>>()?))
}

fn same_rank(op: OpKind, x: &Shape, out_shape: &Shape) -> Result<(), OpError> {
    match x.rank() == out_shape.rank() {
        true => Ok(()),
        false => Err(shape_error(op, format!("input {x} for output {out_shape}"))),
    }
}

/// `Concat`: every output row (one position of the axes before `axis`) is
/// the inputs' matching rows side by side, so each input is one walk of
/// contiguous slabs into its columns of the output.
fn fast_concat(
    attrs: &Attrs,
    inputs: &[&Tensor],
    out_shape: &Shape,
    out: &mut [f32],
    pool: WorkPool,
) -> Result<(), OpError> {
    arity(OpKind::Concat, inputs, 1)?;
    let axis = out_shape.normalize_axis(attrs.int_or("axis", 0))?;
    if out.is_empty() {
        return Ok(());
    }
    let rows: usize = out_shape.dims()[..axis].iter().product();
    let row = out.len() / rows;
    let slabs: Vec<(&[f32], usize)> = inputs
        .iter()
        .map(|t| (t.data(), t.numel() / rows))
        .collect();
    let widths: usize = slabs.iter().map(|s| s.1).sum();
    if widths != row || inputs.iter().any(|t| t.numel() % rows != 0) {
        return Err(shape_error(
            OpKind::Concat,
            format!("inputs do not tile an output of {out_shape}"),
        ));
    }
    row_parts(pool.for_work(out.len()), out, row, |first, run| {
        for (r, dst) in run.chunks_mut(row).enumerate() {
            let mut at = 0;
            for &(src, width) in &slabs {
                let o = first + r;
                dst[at..at + width].copy_from_slice(&src[o * width..(o + 1) * width]);
                at += width;
            }
        }
    });
    Ok(())
}

/// The fold a `Reduce*` applies to each input in turn.
#[derive(Clone, Copy)]
enum Fold {
    Sum,
    Prod,
    Max,
    Min,
}

impl Fold {
    #[inline]
    fn apply<const N: usize>(self, acc: F32Lanes<N>, v: F32Lanes<N>) -> F32Lanes<N> {
        match self {
            Fold::Sum => acc + v,
            Fold::Prod => acc * v,
            Fold::Max => acc.max(v),
            Fold::Min => acc.min(v),
        }
    }
}

/// Drops unit axes from a row-major `(extent, stride)` walk and merges
/// neighbours that step as one axis: the walk visits the same offsets in
/// the same order.
fn coalesce(axes: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    let mut merged: Vec<(usize, usize)> = Vec::new();
    for (extent, stride) in axes.into_iter().filter(|&(e, _)| e != 1) {
        match merged.last_mut() {
            Some(last) if last.1 == extent * stride => *last = (last.0 * extent, stride),
            _ => merged.push((extent, stride)),
        }
    }
    merged
}

/// Source offsets of a row-major walk over `(extent, stride)` axes.
fn walk_offsets(axes: &[(usize, usize)]) -> Vec<usize> {
    axes.iter().fold(vec![0], |offsets, &(extent, stride)| {
        offsets
            .iter()
            .flat_map(|&base| (0..extent).map(move |i| base + i * stride))
            .collect()
    })
}

/// Per axis of `x`, whether a `Reduce*` with these `axes` folds it (no
/// `axes`: every axis).
fn reduced_axes(attrs: &Attrs, x: &Shape) -> Result<Vec<bool>, OpError> {
    let axes = attrs.ints_or("axes", &[]);
    let mut reduced = vec![axes.is_empty(); x.rank()];
    for &a in &axes {
        if let Some(flag) = reduced.get_mut(x.normalize_axis(a)?) {
            *flag = true;
        }
    }
    Ok(reduced)
}

/// `ReduceSum` / `Mean` / `Prod` / `Max` / `Min` over the axes `reduced`
/// flags, and `GlobalAveragePool` as the `ReduceMean` over its spatial axes.
/// Output element `o` starts at the reference's initial value (`+0.0` for
/// the sums) and folds its inputs in the reference's row-major input order;
/// a mean then divides by the reduced count, as the reference does, so the
/// bits are the reference's. Threads own runs of outputs
/// ([`reduce_span`]), and lanes own consecutive outputs of one row (the
/// innermost kept axis).
fn fast_reduce(
    op: OpKind,
    reduced: &[bool],
    x: &Tensor,
    out: &mut [f32],
    pool: WorkPool,
) -> Result<(), OpError> {
    let (fold, init) = match op {
        OpKind::ReduceProd => (Fold::Prod, 1.0),
        OpKind::ReduceMax => (Fold::Max, f32::NEG_INFINITY),
        OpKind::ReduceMin => (Fold::Min, f32::INFINITY),
        _ => (Fold::Sum, 0.0),
    };
    let (dims, strides) = (x.shape().dims(), x.shape().strides());
    let (mut kept, mut folded) = (Vec::new(), Vec::new());
    for (d, &is_reduced) in reduced.iter().enumerate() {
        let list = if is_reduced { &mut folded } else { &mut kept };
        list.push((dims[d], strides[d]));
    }
    let count: u64 = folded.iter().map(|&(e, _)| e as u64).product();
    let (kept, folded) = (coalesce(kept), coalesce(folded));
    let outputs: usize = kept.iter().map(|&(e, _)| e).product();
    if outputs != out.len() {
        return Err(shape_error(
            op,
            format!("{outputs} reduced outputs for an output of {}", out.len()),
        ));
    }
    if out.is_empty() {
        return Ok(());
    }
    let ((row, col_stride), outer_kept) = match kept.split_last() {
        Some((&inner, outer)) => (inner, outer),
        None => ((1, 0), &[][..]),
    };
    let (inner, outer_folded) = match folded.split_last() {
        Some((&inner, outer)) => (inner, outer),
        None => ((1, 0), &[][..]),
    };
    let launch = ReduceLaunch {
        src: x.data(),
        fold,
        init,
        outer: walk_offsets(outer_folded),
        inner,
        col_stride,
        mean: matches!(op, OpKind::ReduceMean | OpKind::GlobalAveragePool)
            .then(|| count.max(1) as f32),
    };
    let row_base = walk_offsets(outer_kept);
    let pool = pool.for_work(x.numel());
    let widths = lane_widths(pool);
    let span = reduce_span(out.len(), row, pool.threads());
    pool.run_chunks(out, span, |part, run| {
        for [r, col, count, at] in pieces(part * span, run.len(), row) {
            let (dst, base) = (&mut run[at..at + count], row_base[r] + col * col_stride);
            col_tiles(count, 0, count, widths, |c, width| match width {
                LANES => launch.cols::<LANES>(dst, base, c),
                4 => launch.cols::<4>(dst, base, c),
                _ => launch.cols::<1>(dst, base, c),
            });
        }
    });
    Ok(())
}

/// Outputs per thread's run of a reduction's output (`row` outputs per
/// row): whole rows while there are at least as many rows as `threads`, and
/// otherwise [`LANES`]-aligned column runs, so a reduction that keeps a
/// single row (every last-axis reduce of one row, every `GlobalAveragePool`
/// of one image) still splits. At most `threads` runs.
fn reduce_span(outputs: usize, row: usize, threads: usize) -> usize {
    let rows = outputs / row;
    match rows >= threads {
        true => rows.div_ceil(threads) * row,
        false => row.div_ceil(threads / rows).next_multiple_of(LANES),
    }
}

/// Loop constants of one reduction launch.
struct ReduceLaunch<'a> {
    src: &'a [f32],
    fold: Fold,
    init: f32,
    /// Offsets of the outer reduced axes' walk, in row-major order…
    outer: Vec<usize>,
    /// …each followed by `inner.0` steps of `inner.1` along the innermost
    /// reduced axis.
    inner: (usize, usize),
    /// Source distance between consecutive outputs of one row.
    col_stride: usize,
    /// The `ReduceMean` divisor.
    mean: Option<f32>,
}

impl ReduceLaunch<'_> {
    /// `N` consecutive outputs of one row starting at column `col`, the row
    /// starting at source offset `base`: lane `l` folds its own inputs in
    /// row-major order.
    fn cols<const N: usize>(&self, row: &mut [f32], base: usize, col: usize) {
        let (steps, step) = self.inner;
        let base = base + col * self.col_stride;
        let mut acc = Sse2.splat::<N>(self.init);
        for &outer in &self.outer {
            let mut at = base + outer;
            for _ in 0..steps {
                acc = self
                    .fold
                    .apply(acc, lanes_at(Sse2, self.src, at, self.col_stride));
                at += step;
            }
        }
        if let Some(count) = self.mean {
            acc = acc / Sse2.splat(count);
        }
        acc.store(&mut row[col..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, infer_shapes};

    fn infer(op: OpKind, attrs: &Attrs, inputs: &[&Tensor]) -> Shape {
        let shapes: Vec<Shape> = inputs.iter().map(|t| t.shape().clone()).collect();
        infer_shapes(op, attrs, &shapes).unwrap().remove(0)
    }

    /// One launch of the fast kernel into a fresh buffer.
    fn run_fast(
        op: OpKind,
        attrs: &Attrs,
        inputs: &[&Tensor],
        packed: Option<&Tensor>,
        out_shape: &Shape,
        pool: WorkPool,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; out_shape.numel()];
        assert!(
            execute_fast_into_packed(op, attrs, inputs, packed, out_shape, &mut out, pool).unwrap()
        );
        out
    }

    /// Runs `op` through both the fast and reference kernels and checks the
    /// outputs are bit-identical (same taps, same accumulation order). The
    /// fast kernel runs with its lane-blocked (SIMD) path enabled — the
    /// default, in the AVX instance where the host has AVX — so every case
    /// here also pins SIMD == reference; the SSE instance and the explicit
    /// scalar mode are checked against it bit for bit as well.
    fn assert_fast_matches_reference(op: OpKind, attrs: &Attrs, inputs: &[&Tensor]) {
        let out_shape = infer(op, attrs, inputs);
        let fast = run_fast(op, attrs, inputs, None, &out_shape, WorkPool::serial());
        let reference = execute(op, attrs, inputs).unwrap().remove(0);
        assert_eq!(
            fast.as_slice(),
            reference.data(),
            "{op} diverged from reference"
        );
        let sse_pool = WorkPool::serial().with_avx(false);
        let sse = run_fast(op, attrs, inputs, None, &out_shape, sse_pool);
        assert_eq!(sse, fast, "{op} SSE instance diverged from the SIMD path");
        let scalar_pool = WorkPool::serial().with_simd(false);
        let scalar = run_fast(op, attrs, inputs, None, &out_shape, scalar_pool);
        assert_eq!(scalar, fast, "{op} scalar mode diverged from the SIMD path");
        assert_threaded_matches_serial(op, attrs, inputs, &out_shape, &fast);
    }

    /// Runs `op` through the threaded kernel at several thread counts (with
    /// the work gate disabled, so the parallel partitioning really runs) and
    /// checks every output byte matches the serial result.
    fn assert_threaded_matches_serial(
        op: OpKind,
        attrs: &Attrs,
        inputs: &[&Tensor],
        out_shape: &Shape,
        serial: &[f32],
    ) {
        for threads in [2, 3, 8] {
            let pool = WorkPool::with_min_work(threads, 0);
            let threaded = run_fast(op, attrs, inputs, None, out_shape, pool);
            assert_eq!(
                threaded.as_slice(),
                serial,
                "{op} not bit-identical at {threads} threads"
            );
        }
    }

    #[test]
    fn registry_matches_dispatch() {
        use OpKind::*;
        let rows = [
            Conv,
            MatMul,
            Gemm,
            MaxPool,
            AveragePool,
            GlobalAveragePool,
            Transpose,
            Concat,
            Slice,
            Gather,
            Upsample,
            Resize,
            Reshape,
            Flatten,
            Squeeze,
            Unsqueeze,
            ReduceSum,
            ReduceMean,
            ReduceProd,
            ReduceMax,
            ReduceMin,
        ];
        for op in OpKind::all() {
            assert_eq!(has_fast_kernel(op), rows.contains(&op), "{op}");
            if !has_fast_kernel(op) {
                let mut out = [0.0f32];
                let x = Tensor::scalar(1.0);
                // Elementwise ops get Ok(false); the registry is authoritative.
                if op.is_elementwise_unary() {
                    assert!(!execute_fast_into_packed(
                        op,
                        &Attrs::new(),
                        &[&x],
                        None,
                        &Shape::scalar(),
                        &mut out,
                        WorkPool::serial(),
                    )
                    .unwrap());
                }
            }
        }
    }

    #[test]
    fn out_of_range_gather_fails_like_the_reference() {
        // On the first and a non-zero axis, past either end: the fast kernel
        // reports the reference's error for the first offending index.
        let table = Tensor::arange(Shape::new(vec![4, 3]));
        for (axis, ids) in [
            (0, vec![1.0, 9.0, -7.0]),
            (1, vec![-4.0, 0.0]),
            (1, vec![3.0]),
        ] {
            let ids = Tensor::from_vec(Shape::new(vec![ids.len()]), ids).unwrap();
            let attrs = Attrs::new().with_int("axis", axis);
            let expected = execute(OpKind::Gather, &attrs, &[&table, &ids]).unwrap_err();
            let out_shape = infer(OpKind::Gather, &attrs, &[&table, &ids]);
            for pool in [WorkPool::serial(), WorkPool::with_min_work(3, 0)] {
                let mut out = vec![0.0f32; out_shape.numel()];
                let fast = execute_fast_into_packed(
                    OpKind::Gather,
                    &attrs,
                    &[&table, &ids],
                    None,
                    &out_shape,
                    &mut out,
                    pool,
                );
                assert_eq!(fast, Err(expected.clone()), "axis {axis}");
            }
        }
    }

    #[test]
    fn conv_2d_matches_reference_with_padding_strides_and_bias() {
        let x = Tensor::random(Shape::new(vec![2, 3, 9, 7]), 1);
        let w = Tensor::random(Shape::new(vec![4, 3, 3, 3]), 2);
        let b = Tensor::random(Shape::new(vec![4]), 3);
        for attrs in [
            Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
            Attrs::new().with_ints("strides", vec![2, 2]),
            Attrs::new()
                .with_ints("pads", vec![2, 0, 2, 0])
                .with_ints("dilations", vec![2, 1]),
        ] {
            assert_fast_matches_reference(OpKind::Conv, &attrs, &[&x, &w, &b]);
            assert_fast_matches_reference(OpKind::Conv, &attrs, &[&x, &w]);
        }
    }

    #[test]
    fn grouped_conv_matches_reference() {
        let x = Tensor::random(Shape::new(vec![1, 4, 6, 6]), 4);
        let w = Tensor::random(Shape::new(vec![4, 1, 3, 3]), 5);
        let attrs = Attrs::new()
            .with_int("group", 4)
            .with_ints("pads", vec![1, 1, 1, 1]);
        assert_fast_matches_reference(OpKind::Conv, &attrs, &[&x, &w]);
    }

    #[test]
    fn conv_3d_matches_reference() {
        let x = Tensor::random(Shape::new(vec![1, 2, 4, 5, 4]), 6);
        let w = Tensor::random(Shape::new(vec![3, 2, 3, 3, 3]), 7);
        let attrs = Attrs::new().with_ints("pads", vec![1, 1, 1, 1, 1, 1]);
        assert_fast_matches_reference(OpKind::Conv, &attrs, &[&x, &w]);
    }

    #[test]
    fn matmul_matches_reference_including_batch_broadcast() {
        let a = Tensor::random(Shape::new(vec![3, 4]), 8);
        let b = Tensor::random(Shape::new(vec![4, 5]), 9);
        assert_fast_matches_reference(OpKind::MatMul, &Attrs::new(), &[&a, &b]);
        let a = Tensor::random(Shape::new(vec![2, 3, 4]), 10);
        let b = Tensor::random(Shape::new(vec![4, 5]), 11);
        assert_fast_matches_reference(OpKind::MatMul, &Attrs::new(), &[&a, &b]);
        let a = Tensor::random(Shape::new(vec![2, 1, 3, 4]), 12);
        let b = Tensor::random(Shape::new(vec![2, 4, 2]), 13);
        assert_fast_matches_reference(OpKind::MatMul, &Attrs::new(), &[&a, &b]);
        // Leading all-ones batch prefix takes the per-row parallel path.
        let a = Tensor::random(Shape::new(vec![1, 6, 4]), 24);
        let b = Tensor::random(Shape::new(vec![1, 4, 3]), 25);
        assert_fast_matches_reference(OpKind::MatMul, &Attrs::new(), &[&a, &b]);
    }

    #[test]
    fn gemm_matches_reference_with_transpose_and_bias() {
        let a = Tensor::random(Shape::new(vec![3, 4]), 14);
        let bt = Tensor::random(Shape::new(vec![5, 4]), 15);
        let c = Tensor::random(Shape::new(vec![5]), 16);
        let attrs = Attrs::new()
            .with_int("transB", 1)
            .with_float("alpha", 0.5)
            .with_float("beta", 2.0);
        assert_fast_matches_reference(OpKind::Gemm, &attrs, &[&a, &bt, &c]);
        let at = Tensor::random(Shape::new(vec![4, 3]), 17);
        let b = Tensor::random(Shape::new(vec![4, 5]), 18);
        let c2 = Tensor::random(Shape::new(vec![3, 1]), 19);
        let attrs = Attrs::new().with_int("transA", 1);
        assert_fast_matches_reference(OpKind::Gemm, &attrs, &[&at, &b, &c2]);
    }

    #[test]
    fn prepacked_gemm_b_panel_is_bit_identical_to_the_strided_operand() {
        // transB = 1 with a prepacked (K, N) panel: contiguous loads replace
        // the gathers, but every element value and the accumulation order
        // are unchanged, so outputs must match bit for bit — for widths
        // crossing the 8/4/scalar lane splits, and in forced-scalar mode.
        for n in [3usize, 7, 8, 21] {
            let a = Tensor::random(Shape::new(vec![4, 6]), 110 + n as u64);
            let bt = Tensor::random(Shape::new(vec![n, 6]), 120 + n as u64);
            let c = Tensor::random(Shape::new(vec![n]), 130 + n as u64);
            let panel = bt.transpose(&[1, 0]).unwrap();
            let attrs = Attrs::new()
                .with_int("transB", 1)
                .with_float("alpha", 0.75)
                .with_float("beta", 1.5);
            let out_shape = Shape::new(vec![4, n]);
            let inputs = [&a, &bt, &c];
            let serial = WorkPool::serial();
            let unpacked = run_fast(OpKind::Gemm, &attrs, &inputs, None, &out_shape, serial);
            for pool in [
                WorkPool::serial(),
                WorkPool::serial().with_simd(false),
                WorkPool::with_min_work(3, 0),
            ] {
                let packed = run_fast(
                    OpKind::Gemm,
                    &attrs,
                    &inputs,
                    Some(&panel),
                    &out_shape,
                    pool,
                );
                assert_eq!(packed, unpacked, "packed Gemm diverged at n = {n}");
            }
            // An untransposed Gemm ignores the panel entirely.
            let b = Tensor::random(Shape::new(vec![6, n]), 140 + n as u64);
            let plain = Attrs::new();
            let without = run_fast(OpKind::Gemm, &plain, &[&a, &b], None, &out_shape, serial);
            let with = run_fast(
                OpKind::Gemm,
                &plain,
                &[&a, &b],
                Some(&panel),
                &out_shape,
                serial,
            );
            assert_eq!(with, without);
        }
    }

    #[test]
    fn a_mis_shaped_gemm_panel_is_ignored() {
        // A panel of any shape but (K, N) — the untransposed operand, a
        // wider one, a shorter one — falls back to the plain operand: the
        // result is the unpacked one bit for bit, never a misread panel.
        let a = Tensor::random(Shape::new(vec![4, 6]), 150);
        let bt = Tensor::random(Shape::new(vec![9, 6]), 151);
        let attrs = Attrs::new().with_int("transB", 1);
        let out_shape = Shape::new(vec![4, 9]);
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        for pool in [WorkPool::serial(), WorkPool::serial().with_simd(false)] {
            let unpacked = run_fast(OpKind::Gemm, &attrs, &[&a, &bt], None, &out_shape, pool);
            for dims in [vec![9, 6], vec![6, 10], vec![5, 9], vec![54]] {
                let panel = Tensor::random(Shape::new(dims.clone()), 152);
                let packed = run_fast(
                    OpKind::Gemm,
                    &attrs,
                    &[&a, &bt],
                    Some(&panel),
                    &out_shape,
                    pool,
                );
                assert_eq!(bits(packed), bits(unpacked.clone()), "panel {dims:?}");
            }
        }
    }

    #[test]
    fn prepacked_conv_oc_panel_is_bit_identical_to_the_strided_weights() {
        // OC-blocked panels replace the strided weight walk with contiguous
        // lane loads, but every tap value and the per-element accumulation
        // order are the scalar kernel's, so outputs must match bit for bit —
        // across the border/interior split, strides, dilations, bias, every
        // pool configuration, and at spatial rank 2 and 3.
        let x = Tensor::random(Shape::new(vec![2, 3, 7, 13]), 200);
        let w = Tensor::random(Shape::new(vec![CONV_PANEL_LANES * 2, 3, 3, 3]), 201);
        let b = Tensor::random(Shape::new(vec![CONV_PANEL_LANES * 2]), 202);
        let x3 = Tensor::random(Shape::new(vec![1, 2, 4, 5, 11]), 203);
        let w3 = Tensor::random(Shape::new(vec![CONV_PANEL_LANES, 2, 3, 3, 3]), 204);
        let cases: [(&Tensor, &Tensor, Option<&Tensor>, Attrs); 5] = [
            (
                &x,
                &w,
                Some(&b),
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
            ),
            (&x, &w, None, Attrs::new().with_ints("strides", vec![2, 2])),
            (
                &x,
                &w,
                Some(&b),
                Attrs::new()
                    .with_ints("pads", vec![2, 0, 2, 0])
                    .with_ints("dilations", vec![2, 1]),
            ),
            (&x, &w, None, Attrs::new()),
            (
                &x3,
                &w3,
                None,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1, 1, 1]),
            ),
        ];
        for (x, w, b, attrs) in cases {
            let panel = pack_conv_oc_panel(w).expect("lane-aligned OC packs");
            let inputs: Vec<&Tensor> = match b {
                Some(b) => vec![x, w, b],
                None => vec![x, w],
            };
            let out_shape = infer(OpKind::Conv, &attrs, &[x, w]);
            let serial = WorkPool::serial();
            let unpacked = run_fast(OpKind::Conv, &attrs, &inputs, None, &out_shape, serial);
            for pool in [
                WorkPool::serial(),
                WorkPool::serial().with_simd(false),
                WorkPool::with_min_work(3, 0),
                WorkPool::with_min_work(7, 0),
            ] {
                let packed = run_fast(
                    OpKind::Conv,
                    &attrs,
                    &inputs,
                    Some(&panel),
                    &out_shape,
                    pool,
                );
                assert_eq!(packed, unpacked, "packed conv diverged for {attrs:?}");
            }
        }
    }

    #[test]
    fn conv_oc_panel_packing_gates_on_lane_aligned_output_channels() {
        // Non-multiple-of-LANES OC has no panel form.
        let w = Tensor::random(Shape::new(vec![CONV_PANEL_LANES + 1, 2, 3, 3]), 210);
        assert!(pack_conv_oc_panel(&w).is_none());
        // Rank < 3 (not a conv weight) has no panel form either.
        let m = Tensor::random(Shape::new(vec![CONV_PANEL_LANES, 4]), 211);
        assert!(pack_conv_oc_panel(&m).is_none());
        // A grouped conv ignores a (mis-sized for its per-group walk) panel
        // and still matches the unpacked kernel.
        let x = Tensor::random(Shape::new(vec![1, CONV_PANEL_LANES, 6, 6]), 212);
        let w = Tensor::random(Shape::new(vec![CONV_PANEL_LANES, 1, 3, 3]), 213);
        let panel = pack_conv_oc_panel(&w).unwrap();
        let attrs = Attrs::new()
            .with_int("group", CONV_PANEL_LANES as i64)
            .with_ints("pads", vec![1, 1, 1, 1]);
        let out_shape = infer(OpKind::Conv, &attrs, &[&x, &w]);
        let serial = WorkPool::serial();
        let unpacked = run_fast(OpKind::Conv, &attrs, &[&x, &w], None, &out_shape, serial);
        let packed = run_fast(
            OpKind::Conv,
            &attrs,
            &[&x, &w],
            Some(&panel),
            &out_shape,
            serial,
        );
        assert_eq!(packed, unpacked);
    }

    #[test]
    fn pools_match_reference() {
        let x = Tensor::random(Shape::new(vec![1, 3, 7, 7]), 20);
        let attrs = Attrs::new()
            .with_ints("kernel_shape", vec![3, 3])
            .with_ints("strides", vec![2, 2])
            .with_ints("pads", vec![1, 1, 1, 1]);
        assert_fast_matches_reference(OpKind::MaxPool, &attrs, &[&x]);
        assert_fast_matches_reference(OpKind::AveragePool, &attrs, &[&x]);
        let include = attrs.clone().with_int("count_include_pad", 1);
        assert_fast_matches_reference(OpKind::AveragePool, &include, &[&x]);
        let x3 = Tensor::random(Shape::new(vec![1, 2, 4, 4, 4]), 21);
        let attrs3 = Attrs::new()
            .with_ints("kernel_shape", vec![2, 2, 2])
            .with_ints("strides", vec![2, 2, 2]);
        assert_fast_matches_reference(OpKind::MaxPool, &attrs3, &[&x3]);
        assert_fast_matches_reference(OpKind::GlobalAveragePool, &Attrs::new(), &[&x3]);
    }

    #[test]
    fn conv_interiors_cover_every_lane_width_and_stride_form_at_every_rank() {
        // One table over spatial ranks 1–3. Innermost widths (23, 17) force
        // each lane split: 8-lane bundles, the 4-lane pass and scalar tails;
        // pads exercise the border columns (and, at rank 3, outer taps that
        // fall outside the input, so rows really lose taps), strides > 1 the
        // gather load, a pad of 9 a row that is mostly border.
        type Case = (Vec<usize>, Vec<usize>, bool, Vec<Attrs>);
        let cases: Vec<Case> = vec![
            (
                vec![2, 3, 23],
                vec![4, 3, 3],
                true,
                vec![
                    Attrs::new(),
                    Attrs::new().with_ints("pads", vec![1, 1]),
                    Attrs::new()
                        .with_ints("strides", vec![2])
                        .with_ints("pads", vec![2, 2]),
                    Attrs::new().with_ints("dilations", vec![2]),
                    Attrs::new().with_ints("pads", vec![9, 9]),
                ],
            ),
            (
                vec![1, 2, 5, 23],
                vec![3, 2, 3, 3],
                false,
                vec![
                    Attrs::new(),
                    Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                    Attrs::new()
                        .with_ints("strides", vec![1, 2])
                        .with_ints("pads", vec![1, 1, 1, 1]),
                    Attrs::new().with_ints("dilations", vec![1, 2]),
                    Attrs::new().with_ints("pads", vec![0, 9, 0, 9]),
                ],
            ),
            // 1x1 kernel: the whole row is interior.
            (
                vec![1, 2, 5, 23],
                vec![3, 2, 1, 1],
                false,
                vec![Attrs::new()],
            ),
            (
                vec![1, 2, 3, 4, 23],
                vec![3, 2, 2, 3, 3],
                false,
                vec![
                    Attrs::new().with_ints("pads", vec![1, 1, 1, 1, 1, 1]),
                    Attrs::new()
                        .with_ints("strides", vec![1, 1, 2])
                        .with_ints("pads", vec![1, 2, 1, 1, 2, 1]),
                    Attrs::new().with_ints("dilations", vec![2, 1, 2]),
                ],
            ),
            // Grouped 3-D conv: per-group input offsets.
            (
                vec![1, 4, 3, 3, 17],
                vec![4, 2, 2, 2, 3],
                false,
                vec![Attrs::new()
                    .with_int("group", 2)
                    .with_ints("pads", vec![0, 1, 1, 0, 1, 1])],
            ),
        ];
        for (seed, (x_dims, w_dims, with_bias, attr_sets)) in cases.into_iter().enumerate() {
            let seed = 90 + 3 * seed as u64;
            let b = Tensor::random(Shape::new(vec![w_dims[0]]), seed + 2);
            let x = Tensor::random(Shape::new(x_dims), seed);
            let w = Tensor::random(Shape::new(w_dims), seed + 1);
            for attrs in attr_sets {
                if with_bias {
                    assert_fast_matches_reference(OpKind::Conv, &attrs, &[&x, &w, &b]);
                } else {
                    assert_fast_matches_reference(OpKind::Conv, &attrs, &[&x, &w]);
                }
            }
        }
    }

    #[test]
    fn matmul_and_gemm_columns_cover_every_lane_split() {
        // Columns across the 16/8/4/scalar splits (n = 4, 7, 8, 21).
        for n in [4usize, 7, 8, 21] {
            let a = Tensor::random(Shape::new(vec![3, 5]), 53 + n as u64);
            let b = Tensor::random(Shape::new(vec![5, n]), 60 + n as u64);
            assert_fast_matches_reference(OpKind::MatMul, &Attrs::new(), &[&a, &b]);
            let bt = Tensor::random(Shape::new(vec![n, 5]), 70 + n as u64);
            let c = Tensor::random(Shape::new(vec![n]), 80 + n as u64);
            let attrs = Attrs::new().with_int("transB", 1).with_float("beta", 0.5);
            assert_fast_matches_reference(OpKind::Gemm, &attrs, &[&a, &bt, &c]);
        }
    }

    #[test]
    fn pool_interiors_cover_every_lane_width_and_stride_form() {
        // 2-D pools wide enough for 8-lane bundles + 4-lane pass + scalar
        // tail; strides > 1 exercise the gather load, pads the borders.
        let x = Tensor::random(Shape::new(vec![1, 3, 5, 23]), 97);
        for attrs in [
            Attrs::new().with_ints("kernel_shape", vec![3, 3]),
            Attrs::new()
                .with_ints("kernel_shape", vec![3, 3])
                .with_ints("pads", vec![1, 1, 1, 1]),
            Attrs::new()
                .with_ints("kernel_shape", vec![2, 4])
                .with_ints("strides", vec![1, 2])
                .with_ints("pads", vec![1, 2, 1, 2]),
            // Dilated windows: the kernels honour what shape inference does.
            Attrs::new()
                .with_ints("kernel_shape", vec![2, 3])
                .with_ints("dilations", vec![2, 2])
                .with_ints("pads", vec![1, 1, 1, 1]),
        ] {
            assert_fast_matches_reference(OpKind::MaxPool, &attrs, &[&x]);
            assert_fast_matches_reference(OpKind::AveragePool, &attrs, &[&x]);
            let include = attrs.clone().with_int("count_include_pad", 1);
            assert_fast_matches_reference(OpKind::AveragePool, &include, &[&x]);
        }
        // 3-D pools, with padding so outer-axis taps go out of bounds and
        // rows lose taps.
        let x3 = Tensor::random(Shape::new(vec![1, 2, 3, 4, 21]), 98);
        for attrs in [
            Attrs::new().with_ints("kernel_shape", vec![2, 2, 3]),
            Attrs::new()
                .with_ints("kernel_shape", vec![2, 3, 3])
                .with_ints("pads", vec![1, 1, 1, 1, 1, 1]),
            Attrs::new()
                .with_ints("kernel_shape", vec![2, 2, 2])
                .with_ints("strides", vec![2, 1, 2])
                .with_ints("pads", vec![0, 1, 1, 0, 1, 1]),
        ] {
            assert_fast_matches_reference(OpKind::MaxPool, &attrs, &[&x3]);
            assert_fast_matches_reference(OpKind::AveragePool, &attrs, &[&x3]);
            let include = attrs.clone().with_int("count_include_pad", 1);
            assert_fast_matches_reference(OpKind::AveragePool, &include, &[&x3]);
        }
        // 1-D pooling: a single output row.
        let x1 = Tensor::random(Shape::new(vec![2, 3, 19]), 99);
        let attrs1 = Attrs::new()
            .with_ints("kernel_shape", vec![4])
            .with_ints("pads", vec![2, 2]);
        assert_fast_matches_reference(OpKind::MaxPool, &attrs1, &[&x1]);
        assert_fast_matches_reference(OpKind::AveragePool, &attrs1, &[&x1]);
    }

    #[test]
    fn global_average_pool_lane_splits_match_the_scalar_fold() {
        // 21 (n, c) outputs: two 8-lane bundles, one 4-lane pass, one scalar
        // remainder; each lane sums its own plane in the fold order.
        let x = Tensor::random(Shape::new(vec![3, 7, 4, 5]), 100);
        assert_fast_matches_reference(OpKind::GlobalAveragePool, &Attrs::new(), &[&x]);
        // Fewer outputs than a 4-lane bundle stay fully scalar.
        let small = Tensor::random(Shape::new(vec![1, 3, 2, 2]), 101);
        assert_fast_matches_reference(OpKind::GlobalAveragePool, &Attrs::new(), &[&small]);
        // 5-D input: the spatial product covers all trailing axes.
        let x5 = Tensor::random(Shape::new(vec![2, 5, 2, 3, 4]), 102);
        assert_fast_matches_reference(OpKind::GlobalAveragePool, &Attrs::new(), &[&x5]);
    }

    /// The pools a special-value case runs under: SIMD (the AVX instance
    /// where the host has AVX), the SSE instance, scalar, and two threads
    /// with the work gate off.
    fn mode_pools() -> [(&'static str, WorkPool); 4] {
        [
            ("SIMD", WorkPool::serial()),
            ("SSE", WorkPool::serial().with_avx(false)),
            ("scalar", WorkPool::serial().with_simd(false)),
            ("threaded", WorkPool::with_min_work(2, 0)),
        ]
    }

    /// [`Tensor::first_bit_difference`], signed zeros included, except the
    /// payload of a NaN computed from two NaNs, which Rust leaves open
    /// (`crate::simd`).
    fn bit_difference(a: &Tensor, b: &Tensor) -> Option<usize> {
        let first = a.first_bit_difference(b)?;
        if a.shape() != b.shape() {
            return Some(first);
        }
        (first..a.numel()).find(|&i| {
            let (x, y) = (a.data()[i], b.data()[i]);
            x.to_bits() != y.to_bits() && !(x.is_nan() && y.is_nan())
        })
    }

    #[test]
    fn global_average_pool_is_reduce_mean_over_the_spatial_axes_on_negative_zero() {
        // An all −0.0 plane sums to +0.0: every additive fold starts at +0.0,
        // in the lanes, the scalar remainder and the reference alike.
        let x = Tensor::full(Shape::new(vec![1, 16, 2, 2]), -0.0);
        let mean = Attrs::new().with_ints("axes", vec![2, 3]);
        let reference = execute(OpKind::GlobalAveragePool, &Attrs::new(), &[&x]).unwrap();
        let reference_mean = execute(OpKind::ReduceMean, &mean, &[&x]).unwrap();
        assert!(reference[0].iter().all(|v| v.to_bits() == 0), "+0.0");
        assert_eq!(reference[0].first_bit_difference(&reference_mean[0]), None);
        let out_shape = reference[0].shape();
        for (mode, pool) in mode_pools() {
            for (op, attrs) in [
                (OpKind::GlobalAveragePool, &Attrs::new()),
                (OpKind::ReduceMean, &mean),
            ] {
                let fast = run_fast(op, attrs, &[&x], None, out_shape, pool);
                let fast = Tensor::from_vec(out_shape.clone(), fast).unwrap();
                let at = fast.first_bit_difference(&reference[0]);
                assert_eq!(at, None, "{op} {mode}");
            }
        }
    }

    #[test]
    fn every_fast_kernel_is_bit_identical_on_special_values() {
        // Two fills of a [1, 13, 5, 13] input: signed zeros with subnormals
        // (finite, so conv and matmul sums keep their signs and denormals),
        // and the full special set (±inf and two NaN payloads too). Channel
        // 5, inside the 8-lane bundle of a per-channel reduction, is all
        // −0.0. Thirteen channels and columns run 8-lane, 4-lane and scalar
        // tails. Each kernel runs under SIMD (AVX where the host has it),
        // SSE, scalar and two threads, and every run must match the
        // reference and the SIMD run bit for bit.
        const SPECIAL: [f32; 13] = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffc1_2345),
            f32::from_bits(0x0000_0001),
            f32::from_bits(0x807f_ffff),
            f32::MAX,
            f32::from_bits(0x3f80_0001),
            f32::from_bits(0x3f7f_ffff),
        ];
        const TINY: [f32; 6] = [
            0.0,
            -0.0,
            f32::from_bits(0x0000_0001),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::from_bits(0x807f_ffff),
        ];
        let planes = |values: &[f32]| {
            let shape = Shape::new(vec![1, 13, 5, 13]);
            let data = (0..shape.numel())
                .map(|i| match i / 65 {
                    5 => -0.0,
                    _ => values[(i * 5 + i / 13) % values.len()],
                })
                .collect();
            Tensor::from_vec(shape, data).unwrap()
        };
        let w = Tensor::random(Shape::new(vec![16, 13, 3, 3]), 300);
        let bias = Tensor::random(Shape::new(vec![16]), 301);
        let b = Tensor::random(Shape::new(vec![13, 13]), 302);
        let c = Tensor::random(Shape::new(vec![13]), 303);
        let conv_panel = pack_conv_oc_panel(&w).unwrap();
        let gemm_panel = b.transpose(&[1, 0]).unwrap();
        let pad = Attrs::new().with_ints("pads", vec![1, 1, 1, 1]);
        let window = pad.clone().with_ints("kernel_shape", vec![3, 3]);
        let include = window.clone().with_int("count_include_pad", 1);
        let gemm = Attrs::new().with_int("transB", 1).with_float("beta", 0.5);
        let concat = Attrs::new().with_int("axis", 3);
        let (none, reductions) = (Attrs::new(), [vec![2, 3], vec![1], vec![3], vec![]]);
        let reductions = reductions.map(|axes| Attrs::new().with_ints("axes", axes));
        for x in [planes(&TINY), planes(&SPECIAL)] {
            // The planes as five 13×13 matrices and as one 65×13 matrix.
            let x3 = x.reshape(Shape::new(vec![5, 13, 13])).unwrap();
            let a = x.reshape(Shape::new(vec![65, 13])).unwrap();
            let mut cases: Vec<(OpKind, &Attrs, Vec<&Tensor>, Option<&Tensor>)> = vec![
                (OpKind::Conv, &pad, vec![&x, &w, &bias], None),
                (OpKind::Conv, &pad, vec![&x, &w, &bias], Some(&conv_panel)),
                (OpKind::MatMul, &none, vec![&x3, &b], None),
                (OpKind::Gemm, &gemm, vec![&a, &b, &c], None),
                (OpKind::Gemm, &gemm, vec![&a, &b, &c], Some(&gemm_panel)),
                (OpKind::MaxPool, &window, vec![&x], None),
                (OpKind::AveragePool, &window, vec![&x], None),
                (OpKind::AveragePool, &include, vec![&x], None),
                (OpKind::GlobalAveragePool, &none, vec![&x], None),
                (OpKind::Transpose, &none, vec![&x], None),
                (OpKind::Concat, &concat, vec![&x, &x], None),
            ];
            for op in [
                OpKind::ReduceSum,
                OpKind::ReduceMean,
                OpKind::ReduceProd,
                OpKind::ReduceMax,
                OpKind::ReduceMin,
            ] {
                cases.extend(reductions.iter().map(|axes| (op, axes, vec![&x], None)));
            }
            for (op, attrs, inputs, packed) in cases {
                let reference = execute(op, attrs, &inputs).unwrap().remove(0);
                let out_shape = reference.shape();
                let mut simd = None;
                for (mode, pool) in mode_pools() {
                    let fast = run_fast(op, attrs, &inputs, packed, out_shape, pool);
                    let fast = Tensor::from_vec(out_shape.clone(), fast).unwrap();
                    let at = bit_difference(&fast, &reference);
                    assert_eq!(at, None, "{op} {attrs:?} {mode} vs the reference");
                    let simd = simd.get_or_insert_with(|| fast.clone());
                    assert_eq!(bit_difference(&fast, simd), None, "{op} {attrs:?} {mode}");
                }
            }
        }
    }

    #[test]
    fn every_dot_micro_kernel_remainder_is_bit_identical_under_each_isa() {
        // Shapes that reach every tile of the dot micro-kernel and every
        // remainder form: packed convs of 1, 2, 3 and 4 panels (OC 8 / 16 /
        // 24 / 32) on rows 1, 2, 4 and 9 wide at strides 1 and 2, in a
        // batch of two, and one-panel rows whose interior is ≡ 2 and ≡ 3
        // (mod 4) wide (8 and 9 columns: a 2-column tile after the 4-column
        // one, then one checked column); MatMuls with M = 1, odd M and a
        // batched broadcast, 37 and 9 columns wide (32 / 16 / 8 / 4 /
        // single); a transposed-B
        // Gemm with and without its panel. Each runs under every mode pool
        // and at 3 and 4 threads, against the reference bit for bit.
        let mut pools = mode_pools().to_vec();
        pools.push(("3 threads", WorkPool::with_min_work(3, 0)));
        pools.push(("4 threads", WorkPool::with_min_work(4, 0)));
        let check = |op: OpKind, attrs: &Attrs, inputs: &[&Tensor], packed: Option<&Tensor>| {
            let reference = execute(op, attrs, inputs).unwrap().remove(0);
            for (mode, pool) in &pools {
                let fast = run_fast(op, attrs, inputs, packed, reference.shape(), *pool);
                let fast = Tensor::from_vec(reference.shape().clone(), fast).unwrap();
                let at = fast.first_bit_difference(&reference);
                assert_eq!(at, None, "{op} {:?} {attrs:?} {mode}", reference.shape());
            }
        };
        for (oc, width) in [
            (8, 1),
            (16, 2),
            (24, 4),
            (24, 9),
            (16, 9),
            (8, 4),
            (32, 2),
            (32, 9),
            (8, 8),
            (8, 9),
        ] {
            let x = Tensor::random(Shape::new(vec![2, 5, 3, width]), 400 + width as u64);
            let w = Tensor::random(Shape::new(vec![oc, 5, 3, 3]), 410 + oc as u64);
            let b = Tensor::random(Shape::new(vec![oc]), 420);
            let panel = pack_conv_oc_panel(&w).unwrap();
            for strides in [vec![1, 1], vec![1, 2]] {
                let attrs = Attrs::new()
                    .with_ints("pads", vec![1, 1, 1, 1])
                    .with_ints("strides", strides);
                check(OpKind::Conv, &attrs, &[&x, &w, &b], Some(&panel));
                check(OpKind::Conv, &attrs, &[&x, &w], Some(&panel));
            }
        }
        let none = Attrs::new();
        for (a, b) in [
            (vec![1, 6], vec![6, 37]),
            (vec![7, 6], vec![6, 37]),
            (vec![5, 6], vec![6, 37]),
            (vec![2, 1, 7, 6], vec![3, 6, 37]),
            (vec![3, 4, 6], vec![6, 9]),
        ] {
            let a = Tensor::random(Shape::new(a), 430);
            let b = Tensor::random(Shape::new(b), 431);
            check(OpKind::MatMul, &none, &[&a, &b], None);
        }
        for m in [1, 5, 8] {
            let a = Tensor::random(Shape::new(vec![m, 6]), 440);
            let bt = Tensor::random(Shape::new(vec![37, 6]), 441);
            let c = Tensor::random(Shape::new(vec![37]), 442);
            let panel = bt.transpose(&[1, 0]).unwrap();
            let attrs = Attrs::new()
                .with_int("transB", 1)
                .with_float("alpha", 0.75)
                .with_float("beta", 1.5);
            check(OpKind::Gemm, &attrs, &[&a, &bt, &c], None);
            check(OpKind::Gemm, &attrs, &[&a, &bt, &c], Some(&panel));
        }
    }

    #[test]
    fn a_reduction_that_keeps_one_row_splits_its_columns_across_threads() {
        // A last-axis ReduceMean of [1, 4096, 128] keeps one row of 4096
        // outputs; at 2^19 inputs it passes the default work gate, so a
        // 2-thread pool stays parallel and the row splits into two
        // LANES-aligned column runs — each output still folded whole by one
        // thread, so the bits are the serial run's.
        let x = Tensor::random(Shape::new(vec![1, 4096, 128]), 450);
        let attrs = Attrs::new().with_ints("axes", vec![2]);
        let pool = WorkPool::new(2).for_work(x.numel());
        assert_eq!(pool.threads(), 2);
        assert_eq!(reduce_span(4096, 4096, pool.threads()), 2048);
        // Rows fewer than threads split into LANES-aligned runs that may
        // cross rows; rows at least as many as threads stay whole.
        assert_eq!(reduce_span(3 * 20, 20, 8), 16);
        assert_eq!(reduce_span(3 * 20, 20, 2), 40);

        let out_shape = infer(OpKind::ReduceMean, &attrs, &[&x]);
        let serial = run_fast(
            OpKind::ReduceMean,
            &attrs,
            &[&x],
            None,
            &out_shape,
            WorkPool::serial(),
        );
        let threaded = run_fast(
            OpKind::ReduceMean,
            &attrs,
            &[&x],
            None,
            &out_shape,
            WorkPool::new(2),
        );
        let (serial, threaded) = (
            Tensor::from_vec(out_shape.clone(), serial).unwrap(),
            Tensor::from_vec(out_shape.clone(), threaded).unwrap(),
        );
        assert_eq!(serial.first_bit_difference(&threaded), None);
        assert_fast_matches_reference(OpKind::ReduceMean, &attrs, &[&x]);

        // Three rows of 20 outputs over 8 threads: runs of 16 that cross
        // rows, bit-identical to the serial run.
        let x = Tensor::random(Shape::new(vec![3, 5, 20]), 451);
        let attrs = Attrs::new().with_ints("axes", vec![1]);
        let out_shape = infer(OpKind::ReduceMean, &attrs, &[&x]);
        let runs = [WorkPool::serial(), WorkPool::with_min_work(8, 0)]
            .map(|pool| run_fast(OpKind::ReduceMean, &attrs, &[&x], None, &out_shape, pool));
        assert_eq!(
            runs[0].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            runs[1].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn large_conv_passes_the_default_work_gate_bit_identically() {
        // Big enough that WorkPool::new's default gate keeps the region
        // parallel — the production configuration, not just min_work = 0.
        let x = Tensor::random(Shape::new(vec![1, 8, 20, 20]), 26);
        let w = Tensor::random(Shape::new(vec![16, 8, 3, 3]), 27);
        let attrs = Attrs::new().with_ints("pads", vec![1, 1, 1, 1]);
        let out_shape = infer(OpKind::Conv, &attrs, &[&x, &w]);
        let inputs = [&x, &w];
        let serial = run_fast(
            OpKind::Conv,
            &attrs,
            &inputs,
            None,
            &out_shape,
            WorkPool::serial(),
        );
        let threaded = run_fast(
            OpKind::Conv,
            &attrs,
            &inputs,
            None,
            &out_shape,
            WorkPool::new(4),
        );
        assert_eq!(serial, threaded);
    }

    #[test]
    fn invalid_ranks_and_window_attributes_are_rejected_not_panicked() {
        let x = Tensor::random(Shape::new(vec![4]), 22);
        let w = Tensor::random(Shape::new(vec![4]), 23);
        let mut out = vec![0.0f32; 4];
        let shape = Shape::new(vec![4]);
        let mut run = |op, attrs: &Attrs, inputs: &[&Tensor]| {
            execute_fast_into_packed(
                op,
                attrs,
                inputs,
                None,
                &shape,
                &mut out,
                WorkPool::serial(),
            )
        };
        assert!(run(OpKind::Conv, &Attrs::new(), &[&x, &w]).is_err());
        assert!(run(OpKind::MatMul, &Attrs::new(), &[&x, &w]).is_err());
        assert!(run(OpKind::MaxPool, &Attrs::new(), &[&x]).is_err());
        // A 2-D window given 1-D strides, and an empty pooling window.
        let x = Tensor::random(Shape::new(vec![1, 1, 2, 2]), 28);
        let w = Tensor::random(Shape::new(vec![1, 1, 1, 1]), 29);
        let short = Attrs::new().with_ints("strides", vec![2]);
        let invalid = |r| matches!(r, Err(OpError::InvalidAttribute { .. }));
        assert!(invalid(run(OpKind::Conv, &short, &[&x, &w])));
        let empty = Attrs::new().with_ints("kernel_shape", vec![0, 0]);
        assert!(invalid(run(OpKind::MaxPool, &empty, &[&x])));
    }
}
