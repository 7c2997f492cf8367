//! Optimized kernels for the compute-heavy anchor operators, used by the
//! fused-block execution engine.
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
//! the same source and produce the same bytes at every lane width.
//! `GlobalAveragePool` lanes own whole `(n, c)` outputs.
//!
//! Inputs are expected to be shape-consistent with `out_shape`, exactly as
//! produced by graph construction / shape inference (the fused engine always
//! calls with graph-derived shapes). The differential test harness pins
//! every kernel here against its reference twin.

use dnnf_tensor::{broadcast_index, Shape, Tensor};

use crate::parallel::WorkPool;
use crate::shape_infer::Window;
use crate::simd::{col_tiles, F32Lanes, LANES};
use crate::{Attrs, OpError, OpKind};

/// Whether `op` has an optimized kernel in this module. The fused engine
/// uses this registry to decide between the fast path and the reference
/// fallback ([`crate::execute`]).
#[must_use]
pub fn has_fast_kernel(op: OpKind) -> bool {
    use OpKind::*;
    matches!(
        op,
        Conv | MatMul | Gemm | MaxPool | AveragePool | GlobalAveragePool
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
/// every other operator, for untransposed `Gemm`, and for convs the panel
/// layout does not fit (grouped, remainder channels, or the scalar mode).
///
/// # Errors
///
/// Returns an [`OpError`] when the inputs are structurally invalid for the
/// operator (wrong arity or rank, malformed window attributes).
///
/// # Panics
///
/// May panic on inputs whose shapes are inconsistent with `out_shape`, or a
/// `packed_b` whose shape is not the transposed B; callers are expected to
/// pass shapes produced by shape inference and panels produced from the
/// actual operand.
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
        OpKind::GlobalAveragePool => fast_global_average_pool(inputs, out_shape, out, pool)?,
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

/// `N` elements `data[base + l * stride]`, one per lane: a contiguous load
/// at stride 1, a gather otherwise (a single lane is one indexed read).
#[inline]
fn lanes_at<const N: usize>(data: &[f32], base: usize, stride: usize) -> F32Lanes<N> {
    if stride == 1 && N > 1 {
        F32Lanes::load(&data[base..])
    } else {
        F32Lanes::gather(data, base, stride)
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
    #[inline]
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

/// Columns per register-blocked interior tile of the packed conv path: four
/// independent lane-bundle accumulators share each tap's panel load.
const CONV_PACK_COLS: usize = 4;

/// Direct convolution at any spatial rank. Accumulates over input channels
/// then kernel taps in row-major order — the reference kernel's exact
/// summation sequence. Parallel over `(batch, out_channel)` output planes;
/// each plane is owned by one thread. With a prepacked OC panel (`packed`,
/// see [`pack_conv_oc_panel`]), an ungrouped conv whose channel count fills
/// whole lane bundles, and SIMD on, the launch parallelizes over
/// `(batch, channel-block)` super-planes of [`CONV_PANEL_LANES`] planes
/// instead and lanes own whole output channels
/// ([`ConvLaunch::panel_cols`]) — same elements, same per-element tap order,
/// different loop nesting across *independent* elements, so results stay
/// bit-identical.
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
    };
    if panel.is_some() {
        let blocks = out_channels / B;
        // Exact chunks (OC % B == 0): one (n, channel-block) super-plane of
        // B output planes each, written by exactly one thread.
        pool.run_chunks(out, B * plane, |super_plane, chunk| {
            let (n, ob) = (super_plane / blocks, super_plane % blocks);
            let bias_v = bias.map_or_else(
                || F32Lanes::<B>::splat(0.0),
                |b| F32Lanes::<B>::load(&b[ob * B..]),
            );
            let (x_base, w_base) = (n * x_batch, ob * w_per_oc * B);
            for r in 0..rows.count() {
                let (taps, row) = (rows.taps(r), &mut chunk[r * rows.ow..]);
                rows.tiles(&[CONV_PACK_COLS], |ox, width| match width {
                    CONV_PACK_COLS => conv
                        .panel_cols::<CONV_PACK_COLS>(row, plane, taps, x_base, w_base, bias_v, ox),
                    _ => conv.panel_cols::<1>(row, plane, taps, x_base, w_base, bias_v, ox),
                });
            }
        });
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
    /// panel for [`ConvLaunch::panel_cols`].
    wdat: &'a [f32],
    in_per_group: usize,
    /// Elements per input channel plane.
    x_plane: usize,
}

impl ConvLaunch<'_> {
    /// `N` consecutive output columns of one output channel starting at
    /// `ox`, one element per lane, accumulated tap by tap in the reference
    /// order (`acc = acc + x * w` per lane: input channels, then the row's
    /// outer taps, then `kx`). `N == 1` is the checked instance — it skips
    /// the `kx` taps that fall in the padding, exactly as the reference
    /// does; wider instances take interior columns only.
    fn cols<const N: usize>(
        &self,
        row: &mut [f32],
        taps: &[RowTap],
        x_base: usize,
        w_base: usize,
        b0: f32,
        ox: usize,
    ) {
        let g = self.rows;
        let mut acc = F32Lanes::<N>::splat(b0);
        for ic in 0..self.in_per_group {
            let x_ic = x_base + ic * self.x_plane;
            let w_ic = w_base + ic * g.kernel_count;
            for tap in taps {
                let (x_row, w_row) = (x_ic + tap.x_off, w_ic + tap.w_off);
                for kx in 0..g.kw {
                    let Some(xc) = g.input_col(ox, kx, N == 1) else {
                        continue;
                    };
                    let xv = lanes_at::<N>(self.xdat, x_row + xc, g.sw);
                    acc = acc + xv * F32Lanes::<N>::splat(self.wdat[w_row + kx]);
                }
            }
        }
        acc.store(&mut row[ox..]);
    }

    /// `R` consecutive output columns starting at `ox` for the
    /// [`CONV_PANEL_LANES`] output channels of one panel block: lane `l` of
    /// accumulator `c` owns output element `(oc0 + l, row, ox + c)`, each
    /// tap's weights are one contiguous panel load shared by the `R`
    /// accumulators (which also breaks the loop-carried dependence on a
    /// single one) and the input value is a splat. Every element accumulates
    /// in [`ConvLaunch::cols`]'s order, and `R == 1` is again the checked
    /// instance — the padding test depends only on `(ox, kx)`, so it is
    /// uniform across the channel lanes. `row` starts at the output row in
    /// the block's first plane; the planes are `plane` elements apart.
    #[allow(clippy::too_many_arguments)]
    fn panel_cols<const R: usize>(
        &self,
        row: &mut [f32],
        plane: usize,
        taps: &[RowTap],
        x_base: usize,
        w_base: usize,
        bias_v: F32Lanes<CONV_PANEL_LANES>,
        ox: usize,
    ) {
        const B: usize = CONV_PANEL_LANES;
        let g = self.rows;
        let mut acc = [bias_v; R];
        for ic in 0..self.in_per_group {
            let x_ic = x_base + ic * self.x_plane;
            let w_ic = w_base + ic * g.kernel_count * B;
            for tap in taps {
                // Hoisted by hand: with these sums inside the `kx` loop the
                // interior tile measured ~20% slower.
                let (x_row, w_row) = (x_ic + tap.x_off, w_ic + tap.w_off * B);
                for kx in 0..g.kw {
                    let Some(xc) = g.input_col(ox, kx, R == 1) else {
                        continue;
                    };
                    let wv = F32Lanes::<B>::load(&self.wdat[w_row + kx * B..]);
                    for (c, a) in acc.iter_mut().enumerate() {
                        *a = *a + F32Lanes::<B>::splat(self.xdat[x_row + xc + c * g.sw]) * wv;
                    }
                }
            }
        }
        for (c, a) in acc.iter().enumerate() {
            for (l, &v) in a.to_array().iter().enumerate() {
                row[l * plane + ox + c] = v;
            }
        }
    }
}

/// Columns of the widest `MatMul` / `Gemm` tile: a register-blocked pair of
/// [`LANES`]-wide bundles.
const DOT_PAIR: usize = 2 * LANES;

/// Lane widths of the `MatMul` / `Gemm` column tiles: the bundle pair, one
/// bundle, one 4-wide pass; none in the scalar mode.
fn dot_widths(pool: WorkPool) -> &'static [usize] {
    if pool.use_simd() {
        &[DOT_PAIR, LANES, 4]
    } else {
        &[]
    }
}

/// `R` bundles of `N` consecutive output columns of one matrix-product row:
/// lane `l` of bundle `r` accumulates `Σ_p a[p] · b(p, r)[l]` from zero in
/// `p` order — the scalar dot-product sequence on its own column.
/// The bundles share each step's `a` splat, and `R > 1` breaks the
/// loop-carried dependence on a single accumulator; per column the result is
/// the same for every `(N, R)`. `b` is a closure so that each caller's load
/// form (contiguous or gather) is fixed outside the reduction loop.
#[inline]
fn dot_tile<const N: usize, const R: usize>(
    a: impl Iterator<Item = f32>,
    b: impl Fn(usize, usize) -> F32Lanes<N>,
) -> [F32Lanes<N>; R] {
    let mut acc = [F32Lanes::<N>::splat(0.0); R];
    for (p, av) in a.enumerate() {
        let av = F32Lanes::<N>::splat(av);
        for (r, acc) in acc.iter_mut().enumerate() {
            *acc = *acc + av * b(p, r);
        }
    }
    acc
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
    let m = out_shape.dim(out_shape.rank() - 2);
    let n = out_shape.dim(out_shape.rank() - 1);
    let k = a.shape().dim(a.shape().rank() - 1);
    let batch_shape = Shape::new(out_shape.dims()[..out_shape.rank() - 2].to_vec());
    let a_batch = Shape::new(a.shape().dims()[..a.shape().rank() - 2].to_vec());
    let b_batch = Shape::new(b.shape().dims()[..b.shape().rank() - 2].to_vec());
    let a_strides = a.shape().strides();
    let b_strides = b.shape().strides();
    let adat = a.data();
    let bdat = b.data();
    let a_row_stride = a_strides[a.shape().rank() - 2];
    let b_row_stride = b_strides[b.shape().rank() - 2];
    let batches = batch_shape.numel().max(1);
    let pool = pool.for_work(out.len().saturating_mul(k));

    // Broadcast-resolved operand offsets, one entry per batch, computed once
    // so the per-row closure stays index-arithmetic only.
    let bases: Vec<(usize, usize)> = (0..batches)
        .map(|batch| {
            let batch_idx = batch_shape.multi_index(batch);
            let a_prefix = broadcast_index(&batch_idx, &a_batch);
            let b_prefix = broadcast_index(&batch_idx, &b_batch);
            let a_base = a_prefix.iter().zip(&a_strides).map(|(&i, &s)| i * s).sum();
            let b_base = b_prefix.iter().zip(&b_strides).map(|(&i, &s)| i * s).sum();
            (a_base, b_base)
        })
        .collect();

    // One chunk per output row, across all batches. Lane-blocked over the
    // output columns: `b`'s column stride is 1, so each reduction step loads
    // one contiguous `N`-wide slice of `b`'s row `p` per bundle.
    let widths = dot_widths(pool);
    pool.run_chunks(out, n, |row, chunk| {
        let (a_base, b_base) = bases[row / m];
        let i = row % m;
        let a_row = &adat[a_base + i * a_row_stride..a_base + i * a_row_stride + k];
        let b_mat = &bdat[b_base..];
        col_tiles(n, 0, n, widths, |j, width| match width {
            DOT_PAIR => matmul_tile::<LANES, 2>(chunk, j, a_row, b_mat, b_row_stride),
            LANES => matmul_tile::<LANES, 1>(chunk, j, a_row, b_mat, b_row_stride),
            4 => matmul_tile::<4, 1>(chunk, j, a_row, b_mat, b_row_stride),
            _ => matmul_tile::<1, 1>(chunk, j, a_row, b_mat, b_row_stride),
        });
    });
    Ok(())
}

/// `R · N` consecutive output columns of one `MatMul` row starting at `j`.
fn matmul_tile<const N: usize, const R: usize>(
    chunk: &mut [f32],
    j: usize,
    a_row: &[f32],
    b_mat: &[f32],
    b_row_stride: usize,
) {
    let acc = dot_tile::<N, R>(a_row.iter().copied(), |p, r| {
        lanes_at(b_mat, p * b_row_stride + j + r * N, 1)
    });
    for (r, acc) in acc.iter().enumerate() {
        acc.store(&mut chunk[j + r * N..]);
    }
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
    let m = out_shape.dim(0);
    let n = out_shape.dim(1);
    let k = if trans_a {
        a.shape().dim(0)
    } else {
        a.shape().dim(1)
    };
    // A prepacked (already transposed, `(K, N)` row-major) B panel replaces
    // the transposed operand: reads become contiguous, while every element
    // value — `packed[p][j] == b[j][p]` — and the accumulation order stay
    // exactly those of the strided loop, so results are bit-identical.
    let (bdat, b_cols, trans_b) = match packed_b {
        Some(panel) if trans_b => {
            debug_assert_eq!(
                panel.shape().dims(),
                &[k, n],
                "packed B panel must be (K, N)"
            );
            (panel.data(), n, false)
        }
        _ => (b.data(), b.shape().dim(1), trans_b),
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
    let (a_cols, a) = (a.shape().dim(1), a.data());
    let gemm = GemmLaunch {
        a,
        b: bdat,
        a_strides: if trans_a { (1, a_cols) } else { (a_cols, 1) },
        b_strides: if trans_b { (1, b_cols) } else { (b_cols, 1) },
        k,
        alpha: attrs.float_or("alpha", 1.0),
        beta: attrs.float_or("beta", 1.0),
        c,
    };

    let pool = pool.for_work(m.saturating_mul(n).saturating_mul(k));
    let widths = dot_widths(pool);
    pool.run_chunks(out, n, |i, chunk| {
        col_tiles(n, 0, n, widths, |j, width| match width {
            DOT_PAIR => gemm.tile::<LANES, 2>(chunk, i, j),
            LANES => gemm.tile::<LANES, 1>(chunk, i, j),
            4 => gemm.tile::<4, 1>(chunk, i, j),
            _ => gemm.tile::<1, 1>(chunk, i, j),
        });
    });
    Ok(())
}

/// Loop constants of one `Gemm` launch.
struct GemmLaunch<'a> {
    a: &'a [f32],
    b: &'a [f32],
    /// Element strides of `a` along `(i, p)` and of `b` along `(p, j)`.
    a_strides: (usize, usize),
    b_strides: (usize, usize),
    k: usize,
    alpha: f32,
    beta: f32,
    /// Bias data with its broadcast strides over the `(m, n)` output.
    c: Option<(&'a [f32], usize, usize)>,
}

impl GemmLaunch<'_> {
    /// `R · N` consecutive output columns of row `i` starting at `j`: lane
    /// `l` owns one column, accumulating `a[i,:] · b[:,col]` then applying
    /// `alpha`/`beta` and the broadcast bias with the reference kernel's
    /// operation sequence. `a`'s element is uniform per reduction step
    /// (splat), `b` loads contiguously (or gathers with the row stride when
    /// transposed), and the bias broadcast reuses its per-axis strides as
    /// gather strides.
    fn tile<const N: usize, const R: usize>(&self, chunk: &mut [f32], i: usize, j: usize) {
        let ((a_row, a_step), (b_step, b_lane)) = (self.a_strides, self.b_strides);
        let a = (0..self.k).map(|p| self.a[i * a_row + p * a_step]);
        let acc = if b_lane == 1 {
            dot_tile::<N, R>(a, |p, r| lanes_at(self.b, p * b_step + j + r * N, 1))
        } else {
            dot_tile::<N, R>(a, |p, r| {
                F32Lanes::gather(self.b, p * b_step + (j + r * N) * b_lane, b_lane)
            })
        };
        for (r, &acc) in acc.iter().enumerate() {
            let col = j + r * N;
            let mut v = F32Lanes::<N>::splat(self.alpha) * acc;
            if let Some((cd, si, sj)) = self.c {
                let cv = F32Lanes::<N>::gather(cd, i * si + col * sj, sj);
                v = v + F32Lanes::<N>::splat(self.beta) * cv;
            }
            v.store(&mut chunk[col..]);
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
        let mut acc = F32Lanes::<N>::splat(if self.is_max { f32::NEG_INFINITY } else { 0.0 });
        let mut count = 0usize;
        for tap in taps {
            let x_row = x_base + tap.x_off;
            for kx in 0..g.kw {
                let Some(xc) = g.input_col(ox, kx, N == 1) else {
                    continue;
                };
                let xv = lanes_at::<N>(self.xdat, x_row + xc, g.sw);
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
            acc = acc / F32Lanes::<N>::splat(denom as f32);
        }
        acc.store(&mut row[ox..]);
    }
}

/// `GlobalAveragePool` over contiguous per-channel spatial slices, parallel
/// over groups of `(batch, channel)` output elements. With SIMD enabled the
/// groups are lane-blocked: each lane owns one whole `(n, c)` output and
/// runs the scalar summation order over its own channel plane (gather loads
/// with the plane stride), so the lane path is bit-identical to the scalar
/// fold.
fn fast_global_average_pool(
    inputs: &[&Tensor],
    out_shape: &Shape,
    out: &mut [f32],
    pool: WorkPool,
) -> Result<(), OpError> {
    arity(OpKind::GlobalAveragePool, inputs, 1)?;
    let x = inputs[0];
    if x.shape().rank() < 3 {
        return Err(OpError::InvalidShape {
            op: OpKind::GlobalAveragePool,
            reason: "expected (N, C, spatial...) input".into(),
        });
    }
    if out.is_empty() {
        return Ok(());
    }
    let channels = out_shape.dim(1);
    debug_assert_eq!(out.len(), out_shape.dim(0) * channels);
    let spatial: usize = x.shape().dims()[2..].iter().product();
    let xdat = x.data();
    let pool = pool.for_work(xdat.len());
    let simd = pool.use_simd();
    let denom = spatial.max(1) as f32;
    pool.run_chunks(out, LANES, |group, chunk| {
        let mut o = 0usize;
        if simd && spatial > 0 {
            while o + LANES <= chunk.len() {
                gap_lanes::<LANES>(
                    xdat,
                    (group * LANES + o) * spatial,
                    spatial,
                    denom,
                    &mut chunk[o..],
                );
                o += LANES;
            }
            if o + 4 <= chunk.len() {
                gap_lanes::<4>(
                    xdat,
                    (group * LANES + o) * spatial,
                    spatial,
                    denom,
                    &mut chunk[o..],
                );
                o += 4;
            }
        }
        for (i, slot) in chunk.iter_mut().enumerate().skip(o) {
            let base = (group * LANES + i) * spatial;
            let sum: f32 = xdat[base..base + spatial].iter().sum();
            *slot = sum / denom;
        }
    });
    Ok(())
}

/// Sums `N` consecutive channel planes in lockstep, one plane per lane: step
/// `s` adds element `s` of every plane (`acc = acc + x`, the scalar fold's
/// exact order per lane), then divides once per lane.
fn gap_lanes<const N: usize>(
    xdat: &[f32],
    base: usize,
    spatial: usize,
    denom: f32,
    out: &mut [f32],
) {
    let mut acc = F32Lanes::<N>::splat(0.0);
    for s in 0..spatial {
        acc = acc + F32Lanes::<N>::gather(xdat, base + s, spatial);
    }
    let avg = acc / F32Lanes::<N>::splat(denom);
    avg.store(out);
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
    /// default — so every case here also pins SIMD == reference; the
    /// explicit scalar mode is checked against it bit for bit as well.
    fn assert_fast_matches_reference(op: OpKind, attrs: &Attrs, inputs: &[&Tensor]) {
        let out_shape = infer(op, attrs, inputs);
        let fast = run_fast(op, attrs, inputs, None, &out_shape, WorkPool::serial());
        let reference = execute(op, attrs, inputs).unwrap().remove(0);
        assert_eq!(
            fast.as_slice(),
            reference.data(),
            "{op} diverged from reference"
        );
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
        for op in OpKind::all() {
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
        assert!(has_fast_kernel(OpKind::Conv));
        assert!(!has_fast_kernel(OpKind::Softmax));
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
