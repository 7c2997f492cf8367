//! The fused-block execution engine.
//!
//! [`compile_plan`] turns every [`FusionBlock`] of a [`FusionPlan`] into an
//! executable [`FusedKernel`]. Within a kernel, maximal runs of element-wise
//! / broadcast operators (including inference-form `BatchNormalization`,
//! which decomposes into per-channel affine arithmetic) are compiled into a
//! [`ScalarTape`]: a topologically ordered scalar-expression program that is
//! evaluated **once per output element** in a single pass — intermediate
//! tensors inside the run are never materialized, they live in registers.
//! One evaluator runs every tape, one instruction at a time over a strip of
//! elements (vectorized interpretation): a run coalesces the loop (unit
//! axes drop, and adjacent axes every operand steps as one merge, so a
//! `BatchNormalization` over `[1, C, H, W]` walks `[C, H·W]`), cuts each
//! innermost-axis row segment into strips of up to 64 elements, and runs
//! each instruction over a strip as one plain loop with the operator chosen
//! outside it, which the compiler vectorizes (so tapes run the same code in
//! every SIMD mode). Values that are the same along a row, such as a
//! `BatchNormalization`'s `sqrt(var + eps)`, are computed once per row
//! segment.
//! An operator a tape cannot hold runs its optimized `dnnf-ops` kernel
//! where the operator table flags one ([`OpKind::has_fast_kernel`]: the
//! anchors, the copy kernel's data-movement rows and the reduce kernel, all
//! bit-identical to the reference kernels), and otherwise falls back to the
//! reference kernel [`dnnf_ops::execute`], so the engine covers the full
//! operator vocabulary while the differential test harness pins it to the
//! reference semantics.
//!
//! Output buffers are drawn from a [`BufferPool`] so the runtime can recycle
//! allocations across blocks (see `dnnf-runtime`'s arena).

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use dnnf_graph::{Graph, GraphError, NodeId, ValueId};
use dnnf_ops::{
    execute, execute_fast_into_packed, infer_shapes, OpError, OpKind, ScalarUnaryFn, WorkPool,
};
use dnnf_tensor::{broadcast_shapes, Shape, Tensor, TensorError};

use crate::{CoreError, FusionBlock, FusionPlan, PackedWeights};

/// A source of reusable `f32` buffers for kernel outputs.
///
/// The runtime implements this with a liveness-driven arena; [`FreshBuffers`]
/// is the trivial implementation that always allocates.
pub trait BufferPool {
    /// Returns a zero-filled buffer of exactly `numel` elements.
    fn take(&mut self, numel: usize) -> Vec<f32>;
    /// Returns a buffer to the pool once its tensor has died.
    fn recycle(&mut self, buf: Vec<f32>);
}

/// A [`BufferPool`] that always allocates and never reuses.
#[derive(Debug, Clone, Copy, Default)]
pub struct FreshBuffers;

impl BufferPool for FreshBuffers {
    fn take(&mut self, numel: usize) -> Vec<f32> {
        vec![0.0; numel]
    }

    fn recycle(&mut self, _buf: Vec<f32>) {}
}

/// How a tape input is walked by the tape's loop. The strides follow from
/// the rule and the shapes of the tensors a run is handed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Broadcast {
    /// Trailing-aligned broadcast: the value's axes align with the loop's
    /// last axes, and axes of extent 1 or missing get stride 0.
    Trailing,
    /// `BatchNormalization`'s per-channel walk: a rank-1 parameter indexed
    /// by loop axis `axis`, the channel axis (1) of the normalized input,
    /// whose shape is the broadcast of tape inputs `x`.
    PerChannel { axis: usize, x: Vec<usize> },
}

/// One value read by a tape from outside the tape (a block input, a weight,
/// or the output of an earlier step in the same kernel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeInput {
    /// The value read.
    pub value: ValueId,
    rule: Broadcast,
}

/// One instruction of a scalar tape. Instructions are stored in evaluation
/// order; instruction `i` writes scalar register `i`.
#[derive(Debug, Clone, PartialEq)]
pub enum TapeInstr {
    /// Read the current element of an external input.
    Load {
        /// Index into the tape's input table ([`ScalarTape::input_values`]
        /// lists the values in the same order).
        input: usize,
    },
    /// Apply a compiled unary element-wise kernel to a register.
    Unary {
        /// The compiled scalar kernel.
        f: ScalarUnaryFn,
        /// Source register.
        src: usize,
    },
    /// Apply a binary element-wise operator to two registers.
    Binary {
        /// The operator (must have a scalar binary kernel).
        op: OpKind,
        /// Left operand register.
        lhs: usize,
        /// Right operand register.
        rhs: usize,
    },
    /// `Where`: select between two registers on a condition register.
    Select {
        /// Condition register (`!= 0.0` selects `on_true`).
        cond: usize,
        /// Register selected when the condition holds.
        on_true: usize,
        /// Register selected otherwise.
        on_false: usize,
    },
    /// `src * mul + add` — used for constants baked in at compile time
    /// (e.g. the `epsilon` of a decomposed `BatchNormalization`).
    Affine {
        /// Source register.
        src: usize,
        /// Multiplier.
        mul: f32,
        /// Addend.
        add: f32,
    },
}

/// One tensor written by a tape.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TapeOutput {
    value: ValueId,
    reg: usize,
    /// The (trailing-broadcast) tape inputs whose broadcast is this
    /// output's shape.
    shape_of: Vec<usize>,
}

/// A compiled run of element-wise operators evaluated in a single pass per
/// output element.
///
/// A tape holds no extents: its loop shape is the broadcast of its
/// trailing-broadcast inputs, each output's shape the broadcast of the
/// inputs listed for it, and every stride follows from those shapes — all
/// derived from the tensors a run is handed, so one tape serves every
/// binding of a graph's symbolic dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarTape {
    inputs: Vec<TapeInput>,
    instrs: Vec<TapeInstr>,
    outputs: Vec<TapeOutput>,
    nodes: Vec<NodeId>,
}

/// A tape's extents at one run, derived from the shapes of its inputs.
#[derive(Debug)]
struct Geometry {
    /// The loop's rank, coalesced.
    rank: usize,
    /// The loop's extents, coalesced (same element count and flat order as
    /// the broadcast shape, with unit axes dropped and merged runs of axes),
    /// then the element stride per loop axis (0 on broadcast axes), one row
    /// per input in input-table order and then one per output; a row is
    /// `rank` long, or one zero for a rank-0 loop.
    table: Vec<usize>,
    out_shapes: Vec<Shape>,
}

impl ScalarTape {
    /// The graph nodes folded into this tape.
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The tape's instructions; instruction `i` writes register `i`.
    #[must_use]
    pub fn instrs(&self) -> &[TapeInstr] {
        &self.instrs
    }

    /// The external values the tape reads.
    #[must_use]
    pub fn input_values(&self) -> Vec<ValueId> {
        self.inputs.iter().map(|i| i.value).collect()
    }

    /// The tape's extents for inputs of the given shapes (in input-table
    /// order): the loop shape is the broadcast of the trailing-broadcast
    /// inputs, coalesced, each output's shape the broadcast of its listed
    /// inputs, and every stride follows from those.
    ///
    /// # Errors
    ///
    /// Returns the output whose shape failed (`None` for the loop as a
    /// whole) with the operator error, when the shapes do not broadcast or
    /// a per-channel parameter does not match its input's channel count.
    fn geometry(&self, shapes: &[&Shape]) -> Result<Geometry, (Option<ValueId>, OpError)> {
        let broadcast = |of: &[usize]| {
            let mut dims = Vec::new();
            for &i in of {
                broadcast_into(&mut dims, shapes[i]).map_err(OpError::Tensor)?;
            }
            Ok(dims)
        };
        let mut out_shapes = Vec::with_capacity(self.outputs.len());
        for o in &self.outputs {
            let dims = broadcast(&o.shape_of).map_err(|e| (Some(o.value), e))?;
            out_shapes.push(Shape::new(dims));
        }
        let rows = self.inputs.len() + out_shapes.len();
        let axes = shapes.iter().map(|s| s.rank()).max().unwrap_or(0);
        let mut table = Vec::with_capacity(axes + rows * axes.max(1));
        for (input, shape) in self.inputs.iter().zip(shapes) {
            if input.rule == Broadcast::Trailing {
                broadcast_into(&mut table, shape).map_err(|e| (None, OpError::Tensor(e)))?;
            }
        }
        // The broadcast loop's extents, then its stride rows; a rank-0 loop
        // keeps one (zero) stride slot per row, so every input and output
        // still has its row.
        let axes = table.len();
        let width = axes.max(1);
        table.resize(axes + rows * width, 0);
        let (loop_dims, strides) = table.split_at_mut(axes);
        let (in_rows, out_rows) = strides.split_at_mut(self.inputs.len() * width);
        for ((input, shape), row) in self
            .inputs
            .iter()
            .zip(shapes)
            .zip(in_rows.chunks_mut(width))
        {
            match &input.rule {
                Broadcast::Trailing => broadcast_strides(shape, row),
                Broadcast::PerChannel { axis, x } => {
                    let x = broadcast(x).map_err(|e| (None, e))?;
                    let channels = x[1];
                    if shape.dims() != [channels] {
                        return Err((
                            None,
                            OpError::InvalidShape {
                                op: OpKind::BatchNormalization,
                                reason: format!(
                                    "parameter of shape {:?} for an input of shape {x:?}",
                                    shape.dims()
                                ),
                            },
                        ));
                    }
                    row[*axis] = usize::from(channels != 1);
                }
            }
        }
        for (shape, row) in out_shapes.iter().zip(out_rows.chunks_mut(width)) {
            broadcast_strides(shape, row);
        }
        // Coalesce in place: unit axes drop, and an axis merges into the
        // kept axis outside it when every row steps the pair as one axis
        // (`stride[outer] == stride[a] · dim[a]`). Merging adjacent axes keeps
        // the flat iteration order, so thread splits do not move.
        let mut rank = 0;
        for a in 0..axes {
            let dim = loop_dims[a];
            if dim == 1 {
                continue;
            }
            if rank > 0
                && strides
                    .chunks(width)
                    .all(|row| row[rank - 1] == row[a] * dim)
            {
                loop_dims[rank - 1] *= dim;
            } else {
                loop_dims[rank] = dim;
                rank += 1;
            }
            for row in strides.chunks_mut(width) {
                row[rank - 1] = row[a];
            }
        }
        // Close the gaps the dropped axes left: the extents, then each row.
        let kept = rank.max(1);
        for k in 0..rows {
            let from = axes + k * width;
            table.copy_within(from..from + kept, rank + k * kept);
        }
        table.truncate(rank + rows * kept);
        Ok(Geometry {
            rank,
            table,
            out_shapes,
        })
    }

    /// Evaluates the tape: one pass over the loop, all outputs written in
    /// the same sweep, then yielded with their values.
    ///
    /// With a parallel `workers` pool the loop is split into disjoint
    /// contiguous ranges of the flat iteration space, each evaluated by one
    /// thread — every output element is computed exactly once by exactly one
    /// thread, so results are bit-identical for every thread count. The
    /// split only applies when every tape output covers the full loop (no
    /// broadcast-replicated writes); otherwise the sweep stays serial.
    fn run(
        &self,
        graph: &Graph,
        fetch: &mut dyn FnMut(ValueId) -> Option<Arc<Tensor>>,
        pool: &mut dyn BufferPool,
        workers: WorkPool,
    ) -> Result<impl Iterator<Item = (ValueId, Tensor)> + '_, CoreError> {
        // Resolve input handles up front (reference-counted, no data is
        // copied); the tape only reads the data slices.
        let in_tensors: Vec<Arc<Tensor>> = self
            .inputs
            .iter()
            .map(|i| {
                fetch(i.value).ok_or_else(|| CoreError::Plan {
                    reason: format!("tape input value {} is not available", i.value.index()),
                })
            })
            .collect::<Result<_, _>>()?;
        let in_shapes: Vec<&Shape> = in_tensors.iter().map(|t| t.shape()).collect();
        let geo = self.geometry(&in_shapes).map_err(|(value, source)| {
            let node = value
                .and_then(|v| graph.value(v).producer)
                .or(self.nodes.last().copied())
                .map_or_else(String::new, |n| graph.node(n).name.clone());
            CoreError::Graph(GraphError::ShapeInference { node, source })
        })?;

        let mut out_bufs: Vec<Vec<f32>> = geo
            .out_shapes
            .iter()
            .map(|s| pool.take(s.numel()))
            .collect();

        let total: usize = geo.dims().iter().product();
        let workers = workers.for_work(total.saturating_mul(self.instrs.len().max(1)));
        // Writes are contiguous in the flat loop order only when every output
        // spans the whole loop; a smaller (broadcast-strided) output would be
        // written several times per element and must stay on one thread.
        let splittable = geo.out_shapes.iter().all(|s| s.numel() == total);

        if workers.is_serial() || !splittable || total < 2 {
            self.run_span(&geo, &in_tensors, &mut out_bufs, 0, total);
        } else {
            // Balanced contiguous ranges; since every output covers the full
            // loop, range [start, start + count) writes exactly the slice
            // [start, start + count) of each output buffer.
            let threads = workers.threads().min(total);
            let base = total / threads;
            let extra = total % threads;
            let mut cursors: Vec<&mut [f32]> = out_bufs.iter_mut().map(Vec::as_mut_slice).collect();
            let mut parts: Vec<(usize, usize, Vec<&mut [f32]>)> = Vec::with_capacity(threads);
            let mut start = 0usize;
            for t in 0..threads {
                let count = base + usize::from(t < extra);
                let mut mine = Vec::with_capacity(cursors.len());
                let mut rest = Vec::with_capacity(cursors.len());
                for cur in cursors {
                    let (head, tail) = cur.split_at_mut(count);
                    mine.push(head);
                    rest.push(tail);
                }
                cursors = rest;
                parts.push((start, count, mine));
                start += count;
            }
            workers.run_parts(parts, |(start, count, mut slices)| {
                self.run_span(&geo, &in_tensors, &mut slices, start, count);
            });
        }

        Ok(self
            .outputs
            .iter()
            .zip(geo.out_shapes)
            .zip(out_bufs)
            .map(|((o, shape), buf)| {
                let tensor =
                    Tensor::from_vec(shape, buf).expect("tape output buffer sized from its shape");
                (o.value, tensor)
            }))
    }

    /// Evaluates `count` consecutive elements of the flat loop space starting
    /// at `start`, writing each output element through its stride pattern
    /// into `outs`, whose slices start at flat offset `start` (whole buffers
    /// when `start` is 0, a parallel range's sub-slices otherwise).
    ///
    /// The range is walked one innermost-axis row segment at a time (rank 0
    /// is one row of one element), each segment in strips of up to
    /// [`STRIP`] elements, through which every instruction runs in tape
    /// order. A row-uniform instruction ([`ScalarTape::row_uniform`]) runs
    /// once per segment at width 1 and is splatted. Every element still gets
    /// exactly its per-element instruction sequence, so the bits never
    /// depend on the strips. The odometer, offsets and registers live in
    /// this thread's [`SPARE`] vectors.
    fn run_span(
        &self,
        geo: &Geometry,
        ins: &[Arc<Tensor>],
        outs: &mut [impl AsMut<[f32]>],
        start: usize,
        count: usize,
    ) {
        if count == 0 {
            return;
        }
        let (mut table, mut uniform, mut regs) = SPARE.take();
        self.row_uniform(geo, &mut uniform);
        let strip = STRIP.min(count);
        regs.clear();
        regs.resize(self.instrs.len() * strip, 0.0);
        // The odometer at `start`, then each input's and output's offset.
        let dims = geo.dims();
        table.clear();
        table.resize(dims.len(), 0);
        let mut rest = start;
        for (i, &d) in table.iter_mut().zip(dims).rev() {
            *i = rest % d;
            rest /= d;
        }
        for strides in geo.rows() {
            let off = table.iter().zip(strides).map(|(&i, &s)| i * s).sum();
            table.push(off);
        }
        let (idx, off) = table.split_at_mut(dims.len());
        let inputs = self.inputs.len();
        let row = dims.last().copied().unwrap_or(1);
        let mut remaining = count;
        while remaining > 0 {
            let seg = (row - idx.last().copied().unwrap_or(0)).min(remaining);
            for r in (0..self.instrs.len()).filter(|&r| uniform[r]) {
                self.eval(r, &mut regs, strip, (ins, off, geo), 1);
                let reg = &mut regs[r * strip..][..seg.min(strip)];
                reg.fill(reg[0]);
            }
            let mut done = 0;
            while done < seg {
                let n = (seg - done).min(strip);
                for r in (0..self.instrs.len()).filter(|&r| !uniform[r]) {
                    self.eval(r, &mut regs, strip, (ins, off, geo), n);
                }
                for (k, (out, buf)) in self.outputs.iter().zip(outs.iter_mut()).enumerate() {
                    let (src, buf) = (&regs[out.reg * strip..][..n], buf.as_mut());
                    let (at, step) = (off[inputs + k] - start, geo.last(inputs + k));
                    match step {
                        1 => buf[at..at + n].copy_from_slice(src),
                        _ => src
                            .iter()
                            .enumerate()
                            .for_each(|(i, &v)| buf[at + i * step] = v),
                    }
                }
                for (k, off) in off.iter_mut().enumerate() {
                    *off += n * geo.last(k);
                }
                done += n;
            }
            remaining -= seg;
            if remaining > 0 {
                *idx.last_mut().expect("a rank-0 loop is one element") += seg;
                geo.carry_odometer(idx, off);
            }
        }
        SPARE.set((table, uniform, regs));
    }

    /// Sets `uniform[r]` to whether register `r` holds one value along every
    /// row segment: loads whose innermost stride is 0, and instructions that
    /// read only such registers.
    fn row_uniform(&self, geo: &Geometry, uniform: &mut Vec<bool>) {
        uniform.clear();
        for instr in &self.instrs {
            let u = match *instr {
                TapeInstr::Load { input } => geo.last(input) == 0,
                TapeInstr::Unary { src, .. } | TapeInstr::Affine { src, .. } => uniform[src],
                TapeInstr::Binary { lhs, rhs, .. } => uniform[lhs] && uniform[rhs],
                TapeInstr::Select {
                    cond,
                    on_true,
                    on_false,
                } => uniform[cond] && uniform[on_true] && uniform[on_false],
            };
            uniform.push(u);
        }
    }

    /// Runs instruction `r` over the first `n` elements of its register
    /// (register `i` is `regs[i * strip..][..strip]`), reading inputs at
    /// their offsets in `off` with their innermost strides in `geo`: a load
    /// copies at stride 1, splats at stride 0 and gathers otherwise.
    /// Each operation is one loop over the strip, with the operator chosen
    /// outside it: `Add`/`Sub`/`Mul`/`Div`/`Max`/`Min`/`Relu`/`Sqrt`/
    /// `Square`/`Affine` inline their scalar kernel's IEEE operation
    /// (`max`/`min` stay [`f32::max`] / [`f32::min`], `Affine` multiplies and
    /// then adds, never fused), every other operator calls its scalar kernel.
    #[inline(always)]
    fn eval(
        &self,
        r: usize,
        regs: &mut [f32],
        strip: usize,
        (ins, off, geo): (&[Arc<Tensor>], &[usize], &Geometry),
        n: usize,
    ) {
        let (done, rest) = regs.split_at_mut(r * strip);
        let (dst, reg) = (&mut rest[..n], |i: usize| &done[i * strip..][..n]);
        match self.instrs[r] {
            TapeInstr::Load { input } => {
                let (data, at, step) = (ins[input].data(), off[input], geo.last(input));
                match step {
                    0 => dst.fill(data[at]),
                    1 => dst.copy_from_slice(&data[at..at + n]),
                    _ => map_into(dst, 0..n, |i| data[at + i * step]),
                }
            }
            TapeInstr::Unary { ref f, src } => {
                let x = reg(src);
                match f.op() {
                    OpKind::Relu => map_into(dst, x, |&x| x.max(0.0)),
                    OpKind::Sqrt => map_into(dst, x, |&x| x.sqrt()),
                    OpKind::Square => map_into(dst, x, |&x| x * x),
                    _ => map_into(dst, x, |&x| f.apply(x)),
                }
            }
            TapeInstr::Binary { op, lhs, rhs } => {
                let ab = reg(lhs).iter().zip(reg(rhs));
                match op {
                    OpKind::Add => map_into(dst, ab, |(&x, &y)| x + y),
                    OpKind::Sub => map_into(dst, ab, |(&x, &y)| x - y),
                    OpKind::Mul => map_into(dst, ab, |(&x, &y)| x * y),
                    OpKind::Div => map_into(dst, ab, |(&x, &y)| x / y),
                    OpKind::Max => map_into(dst, ab, |(&x, &y)| x.max(y)),
                    OpKind::Min => map_into(dst, ab, |(&x, &y)| x.min(y)),
                    _ => map_into(dst, ab, |(&x, &y)| {
                        op.scalar_binary(x, y)
                            .expect("tape compilation only emits scalar binary ops")
                    }),
                }
            }
            TapeInstr::Select {
                cond,
                on_true,
                on_false,
            } => {
                let cte = reg(cond).iter().zip(reg(on_true)).zip(reg(on_false));
                map_into(dst, cte, |((&c, &t), &e)| if c != 0.0 { t } else { e });
            }
            TapeInstr::Affine { src, mul, add } => map_into(dst, reg(src), |&x| x * mul + add),
        }
    }
}

/// Elements per strip: a tape runs each instruction over up to this many
/// consecutive elements of a row segment per dispatch.
const STRIP: usize = 64;

thread_local! {
    /// The index table, row-uniform flags and register file of this thread's
    /// tape runs, kept between runs (a run takes them and puts them back) so
    /// that running a small tape does not allocate them each time.
    static SPARE: Cell<(Vec<usize>, Vec<bool>, Vec<f32>)> =
        const { Cell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// `dst[i] = f(src[i])` over a strip, where `src` walks the operands (or
/// the strip's indices) in step with `dst`.
#[inline(always)]
fn map_into<S: IntoIterator>(dst: &mut [f32], src: S, f: impl Fn(S::Item) -> f32) {
    for (d, x) in dst.iter_mut().zip(src) {
        *d = f(x);
    }
}

impl Geometry {
    /// The loop's extents.
    fn dims(&self) -> &[usize] {
        &self.table[..self.rank]
    }

    /// Each input's strides in input-table order, then each output's.
    fn rows(&self) -> std::slice::Chunks<'_, usize> {
        self.table[self.rank..].chunks(self.rank.max(1))
    }

    /// The innermost-axis stride of row `k` of [`Geometry::rows`].
    fn last(&self, k: usize) -> usize {
        self.table[self.rank + (k + 1) * self.rank.max(1) - 1]
    }

    /// Propagates an innermost-axis overflow up the odometer: rewinds each
    /// saturated axis and steps the next-outer one, moving every row's
    /// offset in `off` with it.
    fn carry_odometer(&self, idx: &mut [usize], off: &mut [usize]) {
        let dims = self.dims();
        let mut axis = dims.len() - 1;
        while idx[axis] >= dims[axis] {
            idx[axis] = 0;
            for (off, strides) in off.iter_mut().zip(self.rows()) {
                *off -= strides[axis] * dims[axis];
            }
            if axis == 0 {
                break;
            }
            axis -= 1;
            idx[axis] += 1;
            for (off, strides) in off.iter_mut().zip(self.rows()) {
                *off += strides[axis];
            }
        }
    }
}

/// One execution step of a fused kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// A fused element-wise run evaluated in a single pass.
    Tape(ScalarTape),
    /// A single operator executed through the optimized anchor kernels (or
    /// the reference kernel when no fast form exists).
    Op {
        /// The graph node to execute.
        node: NodeId,
        /// Whether `dnnf-ops` has an optimized kernel for it.
        fast: bool,
    },
}

/// The executable form of one fusion block.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedKernel {
    /// Index of the originating fusion block.
    pub block_id: usize,
    steps: Vec<Step>,
    escaping: Vec<ValueId>,
}

impl FusedKernel {
    /// The kernel's execution steps.
    #[must_use]
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of fused element-wise runs in this kernel.
    #[must_use]
    pub fn tape_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Tape(_)))
            .count()
    }

    /// Executes the kernel. `fetch` resolves boundary values (graph inputs,
    /// weights, other blocks' outputs); `packed` supplies any prepacked
    /// weight panels ([`PackedWeights::default`] when the caller has none —
    /// packing only changes access patterns, never results); the returned
    /// tensors are the block's escaping outputs in a deterministic order.
    /// Intra-block intermediates are recycled into `pool` before returning.
    ///
    /// `workers` parallelizes the anchor kernels and scalar tapes over
    /// disjoint output tiles; every output element is owned by exactly one
    /// thread and accumulated in the serial order, so results are
    /// bit-identical for every pool (see `dnnf_ops::parallel`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Op`] when a kernel fails,
    /// [`CoreError::Graph`] (a [`GraphError::ShapeInference`] naming the
    /// node) when the tensors handed in do not fit a step — an operator not
    /// polymorphic in a rebound dimension, or tape operands that no longer
    /// broadcast — and [`CoreError::Plan`] when a value the plan promised is
    /// unavailable (a planner bug).
    pub fn run(
        &self,
        graph: &Graph,
        fetch: &mut dyn FnMut(ValueId) -> Option<Arc<Tensor>>,
        packed: &PackedWeights,
        pool: &mut dyn BufferPool,
        workers: WorkPool,
    ) -> Result<Vec<(ValueId, Tensor)>, CoreError> {
        let mut scratch: BTreeMap<ValueId, Arc<Tensor>> = BTreeMap::new();
        for step in &self.steps {
            match step {
                Step::Op { node, fast } => {
                    let n = graph.node(*node);
                    let inputs: Vec<Arc<Tensor>> = n
                        .inputs
                        .iter()
                        .map(|&v| {
                            scratch
                                .get(&v)
                                .cloned()
                                .or_else(|| fetch(v))
                                .ok_or_else(|| CoreError::Plan {
                                    reason: format!(
                                        "value `{}` not available for node `{}`",
                                        graph.value(v).name,
                                        n.name
                                    ),
                                })
                        })
                        .collect::<Result<_, _>>()?;
                    let input_refs: Vec<&Tensor> = inputs.iter().map(|t| t.as_ref()).collect();
                    if *fast {
                        let out_id = n.outputs[0];
                        // The output extent comes from the tensors handed
                        // in, not from the graph: one kernel serves every
                        // binding, and inference validates the inputs. The
                        // graph's shapes are that inference over its own
                        // input shapes, so inputs carrying exactly those
                        // reuse its result instead of inferring it again.
                        let native = n
                            .inputs
                            .iter()
                            .zip(&inputs)
                            .all(|(&v, t)| &graph.value(v).shape == t.shape());
                        let shape = if native {
                            graph.value(out_id).shape.clone()
                        } else {
                            let in_shapes: Vec<Shape> =
                                inputs.iter().map(|t| t.shape().clone()).collect();
                            infer_shapes(n.op, &n.attrs, &in_shapes)
                                .map_err(|source| GraphError::ShapeInference {
                                    node: n.name.clone(),
                                    source,
                                })?
                                .swap_remove(0)
                        };
                        let mut buf = pool.take(shape.numel());
                        // Gemm consumes transposed B panels, Conv consumes
                        // OC-blocked panels; each kernel re-validates the
                        // panel against its launch and ignores a mismatch.
                        let packed_b = match n.op {
                            OpKind::Gemm => n
                                .inputs
                                .get(1)
                                .and_then(|&v| packed.transposed_b(v))
                                .map(Arc::as_ref),
                            OpKind::Conv => n
                                .inputs
                                .get(1)
                                .and_then(|&v| packed.conv_oc(v))
                                .map(Arc::as_ref),
                            _ => None,
                        };
                        execute_fast_into_packed(
                            n.op,
                            &n.attrs,
                            &input_refs,
                            packed_b,
                            &shape,
                            &mut buf,
                            workers,
                        )?;
                        let tensor = Tensor::from_vec(shape, buf)
                            .expect("anchor output buffer sized from its shape");
                        scratch.insert(out_id, Arc::new(tensor));
                    } else {
                        let outputs = execute(n.op, &n.attrs, &input_refs)?;
                        for (&out_id, tensor) in n.outputs.iter().zip(outputs) {
                            scratch.insert(out_id, Arc::new(tensor));
                        }
                    }
                }
                Step::Tape(tape) => {
                    let produced = tape.run(
                        graph,
                        &mut |v| scratch.get(&v).cloned().or_else(|| fetch(v)),
                        pool,
                        workers,
                    )?;
                    for (out_id, tensor) in produced {
                        scratch.insert(out_id, Arc::new(tensor));
                    }
                }
            }
        }
        let mut result = Vec::with_capacity(self.escaping.len());
        for &v in &self.escaping {
            let handle = scratch.remove(&v).ok_or_else(|| CoreError::Plan {
                reason: format!("block output `{}` was never produced", graph.value(v).name),
            })?;
            let tensor = Arc::try_unwrap(handle).unwrap_or_else(|rc| (*rc).clone());
            result.push((v, tensor));
        }
        // Intra-block intermediates were never visible outside; recycle them.
        for (_, handle) in scratch {
            if let Ok(tensor) = Arc::try_unwrap(handle) {
                pool.recycle(tensor.into_vec());
            }
        }
        Ok(result)
    }

    /// A read-only rendering of the kernel against the graph it was compiled
    /// on: one line per step in execution order naming its nodes (in
    /// backticks) and operators, whether an operator step runs the fast or
    /// the reference kernel, and for each tape its inputs, one line per
    /// instruction in register order, and its outputs.
    #[must_use]
    pub fn listing<'a>(&'a self, graph: &'a Graph) -> impl fmt::Display + 'a {
        Listing {
            kernel: self,
            graph,
        }
    }
}

/// The [`fmt::Display`] behind [`FusedKernel::listing`].
struct Listing<'a> {
    kernel: &'a FusedKernel,
    graph: &'a Graph,
}

impl fmt::Display for Listing<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let graph = self.graph;
        let value = |v: ValueId| &graph.value(v).name;
        let node = |n: NodeId| {
            let n = graph.node(n);
            format!("{} `{}`", n.op, n.name)
        };
        let escaping: Vec<&str> = self
            .kernel
            .escaping
            .iter()
            .map(|&v| value(v).as_str())
            .collect();
        writeln!(
            f,
            "kernel {} -> {}",
            self.kernel.block_id,
            escaping.join(", ")
        )?;
        for (i, step) in self.kernel.steps.iter().enumerate() {
            let tape = match step {
                Step::Op { node: n, fast } => {
                    let kind = if *fast { "fast" } else { "reference" };
                    writeln!(f, "  step {i}: {} ({kind} kernel)", node(*n))?;
                    continue;
                }
                Step::Tape(tape) => tape,
            };
            let nodes: Vec<String> = tape.nodes.iter().map(|&n| node(n)).collect();
            writeln!(f, "  step {i}: tape of {}", nodes.join(", "))?;
            for (k, input) in tape.inputs.iter().enumerate() {
                match input.rule {
                    Broadcast::Trailing => writeln!(f, "    in{k} {}", value(input.value))?,
                    Broadcast::PerChannel { axis, .. } => writeln!(
                        f,
                        "    in{k} {} per channel of axis {axis}",
                        value(input.value)
                    )?,
                }
            }
            for (r, instr) in tape.instrs.iter().enumerate() {
                match instr {
                    TapeInstr::Load { input } => writeln!(f, "    r{r} = load in{input}")?,
                    TapeInstr::Unary { f: op, src } => {
                        writeln!(f, "    r{r} = {} r{src}", op.op())?;
                    }
                    TapeInstr::Binary { op, lhs, rhs } => {
                        writeln!(f, "    r{r} = {op} r{lhs} r{rhs}")?;
                    }
                    TapeInstr::Select {
                        cond,
                        on_true,
                        on_false,
                    } => writeln!(f, "    r{r} = Where r{cond} r{on_true} r{on_false}")?,
                    TapeInstr::Affine { src, mul, add } => {
                        writeln!(f, "    r{r} = r{src} * {mul} + {add}")?;
                    }
                }
            }
            for out in &tape.outputs {
                writeln!(f, "    out {} = r{}", value(out.value), out.reg)?;
            }
        }
        Ok(())
    }
}

/// An entire fusion plan compiled to executable kernels, indexed by block
/// id. They run in the plan's own [`FusionPlan::order`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPlan {
    kernels: Vec<FusedKernel>,
}

impl CompiledPlan {
    /// The kernel compiled for block `block_id`.
    #[must_use]
    pub fn kernel(&self, block_id: usize) -> &FusedKernel {
        &self.kernels[block_id]
    }
}

/// Compiles every block of a plan into a [`FusedKernel`] against `graph` —
/// the graph the plan was built on or any [`Graph::rebind`] of it.
#[must_use]
pub fn compile_plan(graph: &Graph, plan: &FusionPlan) -> CompiledPlan {
    let blocks = plan.blocks().iter();
    CompiledPlan {
        kernels: blocks.map(|b| compile_block(graph, b)).collect(),
    }
}

thread_local! {
    static KERNEL_COMPILES: Cell<u64> = const { Cell::new(0) };
}

/// How many blocks [`compile_block`] has compiled on the calling thread.
/// Per thread, so a caller can count what its own work compiled without
/// interference from other threads.
#[must_use]
pub fn kernel_compiles() -> u64 {
    KERNEL_COMPILES.with(Cell::get)
}

/// Compiles one fusion block: maximal runs of tape-compatible operators
/// become [`ScalarTape`]s, everything else becomes an anchor/reference step.
///
/// Segmentation reads the graph's shapes, but the kernel does not keep
/// them: every step takes its extents from the tensors it runs on, so the
/// kernel serves any binding of the graph's symbolic dimensions.
#[must_use]
pub fn compile_block(graph: &Graph, block: &FusionBlock) -> FusedKernel {
    KERNEL_COMPILES.with(|n| n.set(n.get() + 1));
    let escaping: Vec<ValueId> = block.boundary.writes().collect();
    let mut steps = Vec::new();
    let mut i = 0;
    while i < block.nodes.len() {
        let node = graph.node(block.nodes[i]);
        if !tape_compatible(graph, node) {
            steps.push(Step::Op {
                node: node.id,
                fast: node.op.has_fast_kernel() && node.outputs.len() == 1,
            });
            i += 1;
            continue;
        }
        // Grow a maximal tape segment with one common loop shape. A node
        // joins only when it is dataflow-related to the segment (consumes a
        // segment value) or shares the exact loop shape — merging unrelated
        // chains by shape coincidence would re-evaluate them once per
        // broadcast position. BatchNormalization additionally starts a fresh
        // segment whenever one of its per-channel parameters was computed
        // inside the current segment: parameters are walked along the
        // channel axis, not the trailing-broadcast axes an in-segment
        // register would be evaluated under, so they must come from a
        // materialized tensor.
        let mut segment = vec![node.id];
        let mut in_segment: BTreeSet<ValueId> =
            graph.node(block.nodes[i]).outputs.iter().copied().collect();
        let mut loop_shape = graph.value(node.outputs[0]).shape.clone();
        let mut j = i + 1;
        while j < block.nodes.len() {
            let next = graph.node(block.nodes[j]);
            if !tape_compatible(graph, next) {
                break;
            }
            let out_shape = &graph.value(next.outputs[0]).shape;
            let related = next.inputs.iter().any(|v| in_segment.contains(v));
            if !related && out_shape != &loop_shape {
                break;
            }
            if next.op == OpKind::BatchNormalization
                && next.inputs[1..].iter().any(|v| in_segment.contains(v))
            {
                break;
            }
            match broadcast_shapes(&loop_shape, out_shape) {
                Ok(merged) => {
                    loop_shape = merged;
                    segment.push(next.id);
                    in_segment.extend(next.outputs.iter().copied());
                    j += 1;
                }
                Err(_) => break,
            }
        }
        steps.push(Step::Tape(build_tape(
            graph,
            &escaping,
            &segment,
            loop_shape.rank(),
        )));
        i = j;
    }
    FusedKernel {
        block_id: block.id,
        steps,
        escaping,
    }
}

/// Whether a node can be folded into a scalar tape.
fn tape_compatible(graph: &Graph, node: &dnnf_graph::Node) -> bool {
    let op = node.op;
    if op.is_elementwise_unary() || op.is_elementwise_binary() || op == OpKind::Where {
        return node.outputs.len() == 1;
    }
    if op == OpKind::BatchNormalization && node.inputs.len() == 5 && node.outputs.len() == 1 {
        // Decomposable only in the common inference form: rank >= 2 input
        // with rank-1 per-channel parameters.
        let x = graph.value(node.inputs[0]);
        if x.shape.rank() < 2 {
            return false;
        }
        let channels = x.shape.dim(1);
        return node.inputs[1..].iter().all(|&p| {
            let s = &graph.value(p).shape;
            s.rank() == 1 && s.dim(0) == channels
        });
    }
    false
}

/// Broadcasts `dims` with `shape` in place (trailing-aligned; an empty
/// `dims` is the rank-0 identity).
fn broadcast_into(dims: &mut Vec<usize>, shape: &Shape) -> Result<(), TensorError> {
    let extra = shape.rank().saturating_sub(dims.len());
    dims.resize(dims.len() + extra, 1);
    dims.rotate_right(extra);
    let offset = dims.len() - shape.rank();
    let own = &mut dims[offset..];
    if own
        .iter()
        .zip(shape.dims())
        .any(|(&a, &b)| a != b && a != 1 && b != 1)
    {
        return Err(TensorError::BroadcastMismatch {
            lhs: dims.clone(),
            rhs: shape.dims().to_vec(),
        });
    }
    for (a, &b) in own.iter_mut().zip(shape.dims()) {
        if *a == 1 {
            *a = b;
        }
    }
    Ok(())
}

/// Writes into `row` (one slot per loop axis) the strides of a value of
/// shape `shape` iterated under a loop it broadcasts to: trailing-aligned,
/// with broadcast axes at stride 0.
fn broadcast_strides(shape: &Shape, row: &mut [usize]) {
    let offset = row.len() - shape.rank();
    let mut stride = 1;
    for (own, &dim) in shape.dims().iter().enumerate().rev() {
        if dim != 1 {
            row[offset + own] = stride;
        }
        stride *= dim;
    }
}

/// The tables of one tape under construction; [`build_tape`] walks its
/// segment through [`TapeBuilder::push`], [`TapeBuilder::load`] and
/// [`TapeBuilder::operand`].
struct TapeBuilder {
    inputs: Vec<TapeInput>,
    instrs: Vec<TapeInstr>,
    /// Per register, the trailing-broadcast inputs whose broadcast is the
    /// shape of the value it holds (empty for a per-channel parameter).
    reg_shape: Vec<Vec<usize>>,
    /// Register produced for each value: either a node output computed in the
    /// segment or a memoized Load (keyed by its broadcast rule so the same
    /// value can be read both element-wise and per-channel).
    value_reg: BTreeMap<ValueId, usize>,
    load_reg: BTreeMap<(ValueId, Broadcast), usize>,
}

impl TapeBuilder {
    /// Appends `instr` and returns the register it writes.
    fn push(&mut self, instr: TapeInstr) -> usize {
        let shape = match instr {
            TapeInstr::Load { input } if self.inputs[input].rule == Broadcast::Trailing => {
                vec![input]
            }
            TapeInstr::Load { .. } => Vec::new(),
            TapeInstr::Unary { src, .. } | TapeInstr::Affine { src, .. } => self.union(&[src]),
            TapeInstr::Binary { lhs, rhs, .. } => self.union(&[lhs, rhs]),
            TapeInstr::Select {
                cond,
                on_true,
                on_false,
            } => self.union(&[cond, on_true, on_false]),
        };
        self.reg_shape.push(shape);
        self.instrs.push(instr);
        self.instrs.len() - 1
    }

    /// The sorted union of the shape sources of `regs`.
    fn union(&self, regs: &[usize]) -> Vec<usize> {
        let mut shape: Vec<usize> = regs
            .iter()
            .flat_map(|&r| self.reg_shape[r].iter().copied())
            .collect();
        shape.sort_unstable();
        shape.dedup();
        shape
    }

    /// The register holding `value` read under `rule`: its in-segment
    /// register if it has one, else a Load memoized per rule.
    fn load(&mut self, value: ValueId, rule: Broadcast) -> usize {
        if let Some(&r) = self.value_reg.get(&value) {
            return r;
        }
        let key = (value, rule);
        if let Some(&r) = self.load_reg.get(&key) {
            return r;
        }
        let input = self.inputs.len();
        let rule = key.1.clone();
        self.inputs.push(TapeInput { value, rule });
        let reg = self.push(TapeInstr::Load { input });
        self.load_reg.insert(key, reg);
        reg
    }

    /// The register holding operand `value`, broadcast over the loop.
    fn operand(&mut self, value: ValueId) -> usize {
        self.load(value, Broadcast::Trailing)
    }
}

/// Compiles a segment into a tape whose loop has rank `loop_rank`.
fn build_tape(
    graph: &Graph,
    escaping: &[ValueId],
    segment: &[NodeId],
    loop_rank: usize,
) -> ScalarTape {
    let mut b = TapeBuilder {
        inputs: Vec::new(),
        instrs: Vec::new(),
        reg_shape: Vec::new(),
        value_reg: BTreeMap::new(),
        load_reg: BTreeMap::new(),
    };
    for &nid in segment {
        let node = graph.node(nid);
        let out_reg = match node.op {
            op if op.is_elementwise_unary() => {
                let src = b.operand(node.inputs[0]);
                let f = ScalarUnaryFn::compile(op, &node.attrs)
                    .expect("tape_compatible guarantees a unary kernel");
                b.push(TapeInstr::Unary { f, src })
            }
            op if op.is_elementwise_binary() => {
                let lhs = b.operand(node.inputs[0]);
                let rhs = b.operand(node.inputs[1]);
                b.push(TapeInstr::Binary { op, lhs, rhs })
            }
            OpKind::Where => {
                let cond = b.operand(node.inputs[0]);
                let on_true = b.operand(node.inputs[1]);
                let on_false = b.operand(node.inputs[2]);
                b.push(TapeInstr::Select {
                    cond,
                    on_true,
                    on_false,
                })
            }
            OpKind::BatchNormalization => {
                // y = scale * (x - mean) / sqrt(var + eps) + bias, with the
                // per-channel parameters walked along the input's channel
                // axis — the reference kernel's exact evaluation order.
                let x_rank = graph.value(node.inputs[0]).shape.rank();
                let eps = node.attrs.float_or("epsilon", 1e-5);
                let x = b.operand(node.inputs[0]);
                let per_channel = Broadcast::PerChannel {
                    axis: loop_rank - x_rank + 1,
                    x: b.reg_shape[x].clone(),
                };
                let [scale, bias, mean, var] =
                    [1, 2, 3, 4].map(|i| b.load(node.inputs[i], per_channel.clone()));
                let sqrt = ScalarUnaryFn::compile(OpKind::Sqrt, &dnnf_ops::Attrs::new())
                    .expect("Sqrt is unary");
                let centered = b.push(TapeInstr::Binary {
                    op: OpKind::Sub,
                    lhs: x,
                    rhs: mean,
                });
                let numerator = b.push(TapeInstr::Binary {
                    op: OpKind::Mul,
                    lhs: scale,
                    rhs: centered,
                });
                let shifted = b.push(TapeInstr::Affine {
                    src: var,
                    mul: 1.0,
                    add: eps,
                });
                let denominator = b.push(TapeInstr::Unary {
                    f: sqrt,
                    src: shifted,
                });
                let ratio = b.push(TapeInstr::Binary {
                    op: OpKind::Div,
                    lhs: numerator,
                    rhs: denominator,
                });
                b.push(TapeInstr::Binary {
                    op: OpKind::Add,
                    lhs: ratio,
                    rhs: bias,
                })
            }
            _ => unreachable!("tape_compatible admitted an unsupported operator"),
        };
        b.value_reg.insert(node.outputs[0], out_reg);
    }

    // Tape outputs: values visible beyond the segment — escaping the block
    // entirely, or consumed by a later step of the same kernel.
    let seg_set: BTreeSet<NodeId> = segment.iter().copied().collect();
    let mut outputs = Vec::new();
    for &nid in segment {
        let out_id = graph.node(nid).outputs[0];
        let v = graph.value(out_id);
        if escaping.contains(&out_id) || v.consumers.iter().any(|c| !seg_set.contains(c)) {
            let reg = b.value_reg[&out_id];
            outputs.push(TapeOutput {
                value: out_id,
                reg,
                shape_of: b.reg_shape[reg].clone(),
            });
        }
    }

    ScalarTape {
        inputs: b.inputs,
        instrs: b.instrs,
        outputs,
        nodes: segment.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, CompilerOptions, Ecg, FusionPlan};
    use dnnf_ops::Attrs;
    use std::collections::HashMap;

    fn run_reference(graph: &Graph, env: &HashMap<ValueId, Tensor>) -> HashMap<ValueId, Tensor> {
        let mut env = env.clone();
        for nid in graph.topo_order() {
            let node = graph.node(nid);
            let inputs: Vec<&Tensor> = node.inputs.iter().map(|v| &env[v]).collect();
            let outs = execute(node.op, &node.attrs, &inputs).unwrap();
            for (&out, t) in node.outputs.iter().zip(outs) {
                env.insert(out, t);
            }
        }
        env
    }

    fn run_compiled_with(
        graph: &Graph,
        env: &HashMap<ValueId, Tensor>,
        workers: WorkPool,
    ) -> HashMap<ValueId, Tensor> {
        let mut compiler = Compiler::new(CompilerOptions::without_rewriting());
        let compiled = compiler.compile(graph).unwrap();
        let plan = &compiled.plan;
        let engine = compile_plan(graph, plan);
        let mut store: HashMap<ValueId, Arc<Tensor>> =
            env.iter().map(|(&v, t)| (v, Arc::new(t.clone()))).collect();
        let mut pool = FreshBuffers;
        for block_idx in plan.execution_order(graph) {
            let kernel = engine.kernel(block_idx);
            let produced = kernel
                .run(
                    graph,
                    &mut |v| store.get(&v).cloned(),
                    &PackedWeights::default(),
                    &mut pool,
                    workers,
                )
                .unwrap();
            for (v, t) in produced {
                store.insert(v, Arc::new(t));
            }
        }
        store.into_iter().map(|(v, t)| (v, (*t).clone())).collect()
    }

    fn run_compiled(graph: &Graph, env: &HashMap<ValueId, Tensor>) -> HashMap<ValueId, Tensor> {
        run_compiled_with(graph, env, WorkPool::serial())
    }

    /// Conv anchor + BN + activation + residual add, all in one block.
    fn conv_block_graph() -> (Graph, HashMap<ValueId, Tensor>) {
        let mut g = Graph::new("exec-conv");
        let x = g.add_input("x", Shape::new(vec![1, 3, 6, 6]));
        let w = g.add_weight("w", Shape::new(vec![3, 3, 3, 3]));
        let conv = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w],
                "conv",
            )
            .unwrap()[0];
        let scale = g.add_weight("bn.scale", Shape::new(vec![3]));
        let bias = g.add_weight("bn.bias", Shape::new(vec![3]));
        let mean = g.add_weight("bn.mean", Shape::new(vec![3]));
        let var = g.add_weight("bn.var", Shape::new(vec![3]));
        let bn = g
            .add_op(
                OpKind::BatchNormalization,
                Attrs::new().with_float("epsilon", 1e-5),
                &[conv, scale, bias, mean, var],
                "bn",
            )
            .unwrap()[0];
        let relu = g.add_op(OpKind::Relu, Attrs::new(), &[bn], "relu").unwrap()[0];
        let res = g
            .add_op(OpKind::Add, Attrs::new(), &[relu, x], "res")
            .unwrap()[0];
        g.mark_output(res);
        let mut env = HashMap::new();
        env.insert(x, Tensor::random(Shape::new(vec![1, 3, 6, 6]), 1));
        env.insert(w, Tensor::random(Shape::new(vec![3, 3, 3, 3]), 2));
        env.insert(scale, Tensor::random(Shape::new(vec![3]), 3));
        env.insert(bias, Tensor::random(Shape::new(vec![3]), 4));
        env.insert(mean, Tensor::random(Shape::new(vec![3]), 5));
        env.insert(var, Tensor::random(Shape::new(vec![3]), 6).map(f32::abs));
        (g, env)
    }

    #[test]
    fn compiled_engine_matches_reference_interpreter_on_a_conv_block() {
        let (g, env) = conv_block_graph();
        let reference = run_reference(&g, &env);
        let compiled = run_compiled(&g, &env);
        for &out in g.outputs() {
            let r = &reference[&out];
            let c = &compiled[&out];
            assert_eq!(r.shape(), c.shape());
            assert!(
                r.allclose(c, 1e-6),
                "max diff {}",
                r.max_abs_diff(c).unwrap()
            );
        }
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_serial() {
        // The whole conv block — anchor kernel plus BN/Relu/residual tape —
        // with the work gate disabled so the parallel partitioning really
        // runs even on this small fixture. Any thread count must reproduce
        // the serial engine byte for byte.
        let (g, env) = conv_block_graph();
        let serial = run_compiled(&g, &env);
        for threads in [2, 3, 8] {
            let parallel = run_compiled_with(&g, &env, WorkPool::with_min_work(threads, 0));
            for &out in g.outputs() {
                assert_eq!(
                    serial[&out].first_bit_difference(&parallel[&out]),
                    None,
                    "parallel engine diverged from serial at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn lane_blocked_tapes_are_bit_identical_to_the_scalar_sweep() {
        // Each row of 23 runs as one strip: the [4, 1] bias has innermost
        // stride 0 (a splat load) and outer stride 1, so no axis merges, and
        // the mid-chain escape keeps two outputs live in one sweep. Tapes run
        // the same loops in every SIMD mode, so the comparison against the
        // reference is the independent check.
        let mut g = Graph::new("lane-blocked");
        let x = g.add_input("x", Shape::new(vec![4, 23]));
        let b = g.add_weight("b", Shape::new(vec![4, 1]));
        let add = g.add_op(OpKind::Add, Attrs::new(), &[x, b], "add").unwrap()[0];
        let sig = g
            .add_op(OpKind::Sigmoid, Attrs::new(), &[add], "sig")
            .unwrap()[0];
        let mul = g
            .add_op(OpKind::Mul, Attrs::new(), &[sig, x], "mul")
            .unwrap()[0];
        g.mark_output(add);
        g.mark_output(mul);
        let mut env = HashMap::new();
        env.insert(x, Tensor::random(Shape::new(vec![4, 23]), 60));
        env.insert(b, Tensor::random(Shape::new(vec![4, 1]), 61));

        let reference = run_reference(&g, &env);
        let simd = run_compiled_with(&g, &env, WorkPool::serial());
        let scalar = run_compiled_with(&g, &env, WorkPool::serial().with_simd(false));
        let parallel = run_compiled_with(&g, &env, WorkPool::with_min_work(3, 0));
        for out in [add, mul] {
            assert_eq!(scalar[&out].first_disagreement(&reference[&out], 0.0), None);
            assert_eq!(
                simd[&out].first_bit_difference(&scalar[&out]),
                None,
                "SIMD-mode tape diverged from the scalar mode"
            );
            assert_eq!(parallel[&out].first_bit_difference(&scalar[&out]), None);
        }
    }

    #[test]
    fn vector_lowered_tape_ops_are_bit_identical_on_special_values() {
        // Every pair of special values — ±0, ±1, ±inf, two NaN payloads,
        // the extreme subnormals, f32::MAX, 1 ± ulp — through one block of
        // the operators the tape inlines as IEEE operations. The 13 × 13
        // loop coalesces into one row of 169: two full strips and a third
        // of 41 elements; every chain step escapes, so each operator's
        // result is compared.
        let special = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffc1_2345),
            f32::from_bits(0x0000_0001),
            f32::from_bits(0x007f_ffff),
            f32::MAX,
            f32::from_bits(0x3f80_0001),
            f32::from_bits(0x3f7f_ffff),
        ];
        let n = special.len();
        let shape = Shape::new(vec![n, n]);
        let mut g = Graph::new("special-values");
        let x = g.add_input("x", shape.clone());
        let y = g.add_input("y", shape.clone());
        let mut prev = x;
        let mut outs = Vec::new();
        for (i, op) in [
            OpKind::Add,
            OpKind::Sub,
            OpKind::Mul,
            OpKind::Div,
            OpKind::Max,
            OpKind::Min,
            OpKind::Relu,
            OpKind::Sqrt,
            OpKind::Square,
        ]
        .into_iter()
        .enumerate()
        {
            let inputs = if op.is_elementwise_unary() {
                vec![prev]
            } else if i % 2 == 0 {
                vec![prev, y]
            } else {
                vec![x, prev]
            };
            prev = g.add_op(op, Attrs::new(), &inputs, "step").unwrap()[0];
            g.mark_output(prev);
            outs.push(prev);
        }
        let mut env = HashMap::new();
        let rows = special
            .iter()
            .flat_map(|&a| std::iter::repeat_n(a, n))
            .collect();
        let cols = special.iter().cycle().take(n * n).copied().collect();
        env.insert(x, Tensor::from_vec(shape.clone(), rows).unwrap());
        env.insert(y, Tensor::from_vec(shape, cols).unwrap());
        let plan = Compiler::new(CompilerOptions::without_rewriting())
            .compile(&g)
            .unwrap()
            .plan;
        assert_eq!(plan.blocks().len(), 1, "the chain must fuse into one tape");

        let reference = run_reference(&g, &env);
        let simd = run_compiled_with(&g, &env, WorkPool::serial());
        let scalar = run_compiled_with(&g, &env, WorkPool::serial().with_simd(false));
        let parallel = run_compiled_with(&g, &env, WorkPool::with_min_work(3, 0));
        // Bit for bit, signed zeros included, except the payload of a NaN
        // computed from two NaNs, which Rust leaves open (`dnnf_ops::simd`).
        let same_bits = |a: &Tensor, b: &Tensor| {
            a.shape() == b.shape()
                && a.data()
                    .iter()
                    .zip(b.data())
                    .all(|(&x, &y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
        };
        for out in outs {
            assert_eq!(scalar[&out].first_disagreement(&reference[&out], 0.0), None);
            assert!(same_bits(&simd[&out], &scalar[&out]), "SIMD vs scalar");
            assert!(
                same_bits(&parallel[&out], &scalar[&out]),
                "threads vs scalar"
            );
        }
    }

    #[test]
    fn broadcast_innermost_outputs_store_per_element() {
        // The first node's [3, 1] output escapes while a later node widens
        // the loop to [3, 23]: its TapeOutput has innermost stride 0, so it
        // stores element by element (every element of a row writes the one
        // slot) while the other output stores whole strips.
        let mut g = Graph::new("broadcast-out");
        let b = g.add_input("b", Shape::new(vec![3, 1]));
        let x = g.add_input("x", Shape::new(vec![3, 23]));
        let sig = g
            .add_op(OpKind::Sigmoid, Attrs::new(), &[b], "sig")
            .unwrap()[0];
        let add = g
            .add_op(OpKind::Add, Attrs::new(), &[sig, x], "add")
            .unwrap()[0];
        g.mark_output(sig);
        g.mark_output(add);
        let mut env = HashMap::new();
        env.insert(b, Tensor::random(Shape::new(vec![3, 1]), 62));
        env.insert(x, Tensor::random(Shape::new(vec![3, 23]), 63));
        let reference = run_reference(&g, &env);
        for pool in [WorkPool::serial(), WorkPool::serial().with_simd(false)] {
            let compiled = run_compiled_with(&g, &env, pool);
            for out in [sig, add] {
                assert_eq!(
                    compiled[&out].first_disagreement(&reference[&out], 0.0),
                    None
                );
            }
        }
    }

    #[test]
    fn every_row_geometry_matches_the_reference_in_every_mode() {
        // Loop rank 0–3 × innermost extents around the 4- and 8-lane widths,
        // with and without an escaping innermost-broadcast output (stride 0),
        // under SIMD, scalar and thread splits that start mid-row.
        let pools = [
            WorkPool::serial(),
            WorkPool::serial().with_simd(false),
            WorkPool::with_min_work(3, 0),
            WorkPool::with_min_work(8, 0),
        ];
        for rank in 0..=3usize {
            for width in [1, 3, 4, 5, 8, 9, 17] {
                for sig_escapes in [false, true] {
                    let outer = &[2usize, 3][3 - rank.max(1)..];
                    let with_last = |last| match rank {
                        0 => Shape::new(vec![]),
                        _ => Shape::new([outer, &[last]].concat()),
                    };
                    let mut g = Graph::new("row-geometry");
                    let x = g.add_input("x", with_last(width));
                    let b = g.add_input("b", with_last(1));
                    let sig = g.add_op(OpKind::Sigmoid, Attrs::new(), &[b], "sig");
                    let sig = sig.unwrap()[0];
                    let add = g.add_op(OpKind::Add, Attrs::new(), &[x, sig], "add");
                    let add = add.unwrap()[0];
                    let relu = g.add_op(OpKind::Relu, Attrs::new(), &[add], "relu");
                    let relu = relu.unwrap()[0];
                    let mut outs = vec![add, relu];
                    if sig_escapes {
                        outs.push(sig);
                    }
                    outs.iter().for_each(|&v| g.mark_output(v));
                    let mut env = HashMap::new();
                    env.insert(x, Tensor::random(with_last(width), 70));
                    env.insert(b, Tensor::random(with_last(1), 71));
                    let reference = run_reference(&g, &env);
                    for (p, &pool) in pools.iter().enumerate() {
                        let compiled = run_compiled_with(&g, &env, pool);
                        for out in &outs {
                            assert_eq!(
                                compiled[out].first_disagreement(&reference[out], 0.0),
                                None,
                                "rank {rank}, width {width}, sig escapes {sig_escapes}, pool {p}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The first tape of block 0 of `g` compiled as singletons, and its
    /// geometry at the graph's own shapes.
    fn first_tape_geometry(g: &Graph) -> (ScalarTape, Geometry) {
        let plan = FusionPlan::singletons(&Ecg::new(g.clone()));
        let engine = compile_plan(g, &plan);
        let Step::Tape(tape) = &engine.kernel(0).steps()[0] else {
            panic!("expected tape")
        };
        let shapes: Vec<&Shape> = tape
            .inputs
            .iter()
            .map(|i| &g.value(i.value).shape)
            .collect();
        let geo = tape.geometry(&shapes).unwrap();
        (tape.clone(), geo)
    }

    #[test]
    fn geometry_coalesces_axes_every_operand_steps_as_one() {
        // BN over [1, C, H, W] walks [C, H·W]: the unit batch axis drops, and
        // H and W merge for x (stride W = 1 · W) and for every parameter
        // (stride 0 on both). Its sqrt(var + eps) reads only stride-0 loads,
        // so it is row-uniform; x - mean is not.
        let mut g = Graph::new("bn");
        let x = g.add_input("x", Shape::new(vec![1, 4, 3, 5]));
        let params: Vec<ValueId> = ["scale", "bias", "mean", "var"]
            .iter()
            .map(|&n| g.add_weight(n, Shape::new(vec![4])))
            .collect();
        let bn = g.add_op(
            OpKind::BatchNormalization,
            Attrs::new(),
            &[&[x][..], &params].concat(),
            "bn",
        );
        g.mark_output(bn.unwrap()[0]);
        let (tape, geo) = first_tape_geometry(&g);
        assert_eq!(geo.dims(), &[4, 15]);
        let rows: Vec<&[usize]> = geo.rows().collect();
        let param = &[1, 0][..];
        assert_eq!(rows, [&[15, 1][..], param, param, param, param, &[15, 1]]);
        let mut uniform = Vec::new();
        tape.row_uniform(&geo, &mut uniform);
        let sqrt = tape
            .instrs
            .iter()
            .position(|i| matches!(i, TapeInstr::Unary { f, .. } if f.op() == OpKind::Sqrt));
        assert!(uniform[sqrt.unwrap()]);
        assert_eq!(uniform.iter().filter(|&&u| !u).count(), 5, "x, -, ×, ÷, +");

        // A [B, S, D] + [D] bias walks [B·S, D]; a contiguous Relu one row.
        let mut g = Graph::new("bias");
        let x = g.add_input("x", Shape::new(vec![2, 3, 8]));
        let b = g.add_weight("b", Shape::new(vec![8]));
        let add = g.add_op(OpKind::Add, Attrs::new(), &[x, b], "add").unwrap()[0];
        g.mark_output(add);
        let (_, geo) = first_tape_geometry(&g);
        assert_eq!(geo.dims(), &[6, 8]);
        assert_eq!(
            geo.rows().collect::<Vec<_>>(),
            [&[8, 1][..], &[0, 1], &[8, 1]]
        );
        let mut g = Graph::new("relu");
        let x = g.add_input("x", Shape::new(vec![2, 3, 4]));
        let relu = g.add_op(OpKind::Relu, Attrs::new(), &[x], "relu").unwrap()[0];
        g.mark_output(relu);
        let (_, geo) = first_tape_geometry(&g);
        assert_eq!(geo.dims(), &[24]);
        assert_eq!(geo.rows().collect::<Vec<_>>(), [&[1][..], &[1]]);

        // A [C, 1, W] operand steps 0 along H, so neither H nor C merges.
        let mut g = Graph::new("blocked");
        let x = g.add_input("x", Shape::new(vec![4, 3, 5]));
        let y = g.add_input("y", Shape::new(vec![4, 1, 5]));
        let add = g.add_op(OpKind::Add, Attrs::new(), &[x, y], "add").unwrap()[0];
        g.mark_output(add);
        let (_, geo) = first_tape_geometry(&g);
        assert_eq!(geo.dims(), &[4, 3, 5]);
        assert_eq!(geo.rows().nth(1), Some(&[5, 0, 1][..]));
    }

    #[test]
    fn tape_strips_are_bit_identical_at_every_boundary() {
        // Rows of STRIP − 1, STRIP, STRIP + 1 and 2·STRIP + 3 elements; BN
        // at ranks 3–5 with ±0, ±inf, NaN and subnormals in the per-channel
        // parameters, so the hoisted sqrt and the divide see them; a Where
        // whose operands are all row-uniform; an output broadcast along the
        // innermost axis; and rank 0. Each runs under SIMD, pinned SSE,
        // scalar and 3 threads (split mid-row and mid-strip), bit for bit
        // against the scalar sweep except a NaN's payload, and against the
        // reference.
        let pools = [
            ("simd", WorkPool::serial()),
            ("sse", WorkPool::serial().with_avx(false)),
            ("scalar", WorkPool::serial().with_simd(false)),
            ("3 threads", WorkPool::with_min_work(3, 0)),
        ];
        let same_bits = |a: &Tensor, b: &Tensor| {
            a.shape() == b.shape()
                && a.data()
                    .iter()
                    .zip(b.data())
                    .all(|(&x, &y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
        };
        let check = |g: &Graph, env: &HashMap<ValueId, Tensor>, case: &str| {
            let reference = run_reference(g, env);
            let runs: Vec<_> = pools
                .iter()
                .map(|(_, p)| run_compiled_with(g, env, *p))
                .collect();
            for &out in g.outputs() {
                let scalar = &runs[2][&out];
                assert_eq!(
                    scalar.first_disagreement(&reference[&out], 0.0),
                    None,
                    "{case}"
                );
                for ((mode, _), run) in pools.iter().zip(&runs) {
                    assert!(same_bits(&run[&out], scalar), "{case}: {mode}");
                }
            }
        };
        let special = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            1.5,
            -2.0,
        ];

        for len in [STRIP - 1, STRIP, STRIP + 1, 2 * STRIP + 3] {
            for escapes in [false, true] {
                let mut g = Graph::new("strips");
                let x = g.add_input("x", Shape::new(vec![2, len]));
                let b = g.add_input("b", Shape::new(vec![2, 1]));
                let c = g.add_input("c", Shape::new(vec![2, 1]));
                let mut op = |kind, inputs: &[ValueId]| {
                    g.add_op(kind, Attrs::new(), inputs, "op").unwrap()[0]
                };
                let sig = op(OpKind::Sigmoid, &[b]);
                let pick = op(OpKind::Where, &[c, sig, b]);
                let add = op(OpKind::Add, &[x, pick]);
                let relu = op(OpKind::Relu, &[add]);
                let mul = op(OpKind::Mul, &[relu, x]);
                for v in [add, mul].into_iter().chain(escapes.then_some(sig)) {
                    g.mark_output(v);
                }
                let mut env = HashMap::new();
                env.insert(x, Tensor::random(Shape::new(vec![2, len]), 80));
                env.insert(b, Tensor::random(Shape::new(vec![2, 1]), 81));
                let cond = Tensor::from_vec(Shape::new(vec![2, 1]), vec![0.0, f32::NAN]);
                env.insert(c, cond.unwrap());
                check(&g, &env, &format!("row of {len}, sig escapes {escapes}"));
            }
        }

        for (dims, eps) in [
            (vec![2, 9, 11], 0.0),
            (vec![1, 9, 3, 23], 1e-5),
            (vec![2, 9, 2, 3, 13], 1e-5),
        ] {
            let mut g = Graph::new("bn-special");
            let x = g.add_input("x", Shape::new(dims.clone()));
            let params: Vec<ValueId> = ["scale", "bias", "mean", "var"]
                .iter()
                .map(|&n| g.add_weight(n, Shape::new(vec![9])))
                .collect();
            let attrs = Attrs::new().with_float("epsilon", eps);
            let inputs = [&[x][..], &params].concat();
            let bn = g.add_op(OpKind::BatchNormalization, attrs, &inputs, "bn");
            let relu = g.add_op(OpKind::Relu, Attrs::new(), &bn.unwrap(), "relu");
            g.mark_output(relu.unwrap()[0]);
            let mut env = HashMap::new();
            env.insert(x, Tensor::random(Shape::new(dims.clone()), 82));
            for (k, &p) in params.iter().enumerate() {
                let rotated = (0..9).map(|c| special[(c + 2 * k) % 9]).collect();
                env.insert(p, Tensor::from_vec(Shape::new(vec![9]), rotated).unwrap());
            }
            check(&g, &env, &format!("BN over {dims:?}"));
        }

        let mut g = Graph::new("rank-0");
        let x = g.add_input("x", Shape::new(vec![]));
        let y = g.add_input("y", Shape::new(vec![]));
        let add = g.add_op(OpKind::Add, Attrs::new(), &[x, y], "add").unwrap()[0];
        let sqrt = g
            .add_op(OpKind::Sqrt, Attrs::new(), &[add], "sqrt")
            .unwrap()[0];
        g.mark_output(sqrt);
        let mut env = HashMap::new();
        env.insert(x, Tensor::scalar(2.25));
        env.insert(y, Tensor::scalar(-0.0));
        check(&g, &env, "rank 0");
    }

    #[test]
    fn elementwise_block_compiles_to_a_single_tape() {
        let mut g = Graph::new("tape-only");
        let x = g.add_input("x", Shape::new(vec![2, 8]));
        let b = g.add_weight("b", Shape::new(vec![8]));
        let add = g.add_op(OpKind::Add, Attrs::new(), &[x, b], "add").unwrap()[0];
        let sig = g
            .add_op(OpKind::Sigmoid, Attrs::new(), &[add], "sig")
            .unwrap()[0];
        let mul = g
            .add_op(OpKind::Mul, Attrs::new(), &[sig, x], "mul")
            .unwrap()[0];
        g.mark_output(mul);
        let mut compiler = Compiler::new(CompilerOptions::without_rewriting());
        let compiled = compiler.compile(&g).unwrap();
        assert_eq!(compiled.plan.fused_layer_count(), 1);
        let engine = compile_plan(&g, &compiled.plan);
        let kernel = engine.kernel(0);
        assert_eq!(kernel.tape_count(), 1);
        assert_eq!(kernel.steps().len(), 1);
        // The single tape folds all three operators and only materializes
        // the escaping output.
        let Step::Tape(tape) = &kernel.steps()[0] else {
            panic!("expected tape")
        };
        assert_eq!(tape.nodes().len(), 3);
        assert_eq!(tape.outputs.len(), 1);
        // Inputs: x (used twice but loaded once) and the broadcast bias.
        assert_eq!(tape.input_values().len(), 2);
    }

    #[test]
    fn broadcast_bias_uses_zero_strides() {
        let mut g = Graph::new("broadcast");
        let x = g.add_input("x", Shape::new(vec![2, 3]));
        let b = g.add_weight("b", Shape::new(vec![1, 3]));
        let add = g.add_op(OpKind::Add, Attrs::new(), &[x, b], "add").unwrap()[0];
        g.mark_output(add);
        let ecg = Ecg::new(g.clone());
        let plan = FusionPlan::singletons(&ecg);
        let engine = compile_plan(&g, &plan);
        let Step::Tape(tape) = &engine.kernel(0).steps()[0] else {
            panic!("expected tape")
        };
        let bias = tape.inputs.iter().position(|i| i.value == b).unwrap();
        // The strides follow from the shapes a run is handed: the same tape
        // walks a 5-row input with the same zero-stride bias.
        for rows in [2, 5] {
            let shapes: Vec<Shape> = tape
                .input_values()
                .iter()
                .map(|&v| {
                    if v == x {
                        Shape::new(vec![rows, 3])
                    } else {
                        g.value(v).shape.clone()
                    }
                })
                .collect();
            let geo = tape.geometry(&shapes.iter().collect::<Vec<_>>()).unwrap();
            assert_eq!(geo.dims(), &[rows, 3]);
            assert_eq!(geo.rows().nth(bias), Some(&[0, 1][..]));
        }
        // A shape that does not broadcast is an error, not a panic.
        let bad = [&Shape::new(vec![2, 4]), &Shape::new(vec![1, 3])];
        assert!(tape.geometry(&bad).is_err());

        let mut env = HashMap::new();
        env.insert(x, Tensor::arange(Shape::new(vec![2, 3])));
        env.insert(
            b,
            Tensor::from_vec(Shape::new(vec![1, 3]), vec![1.0, 2.0, 3.0]).unwrap(),
        );
        let result = run_compiled(&g, &env);
        assert_eq!(result[&add].data(), &[1.0, 3.0, 5.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn where_and_clip_fold_into_the_tape() {
        let mut g = Graph::new("where");
        let c = g.add_input("c", Shape::new(vec![4]));
        let a = g.add_input("a", Shape::new(vec![4]));
        let b = g.add_input("b", Shape::new(vec![4]));
        let w = g
            .add_op(OpKind::Where, Attrs::new(), &[c, a, b], "where")
            .unwrap()[0];
        let clip = g
            .add_op(
                OpKind::Clip,
                Attrs::new().with_float("min", -0.5).with_float("max", 0.5),
                &[w],
                "clip",
            )
            .unwrap()[0];
        g.mark_output(clip);
        let mut env = HashMap::new();
        env.insert(
            c,
            Tensor::from_vec(Shape::new(vec![4]), vec![1.0, 0.0, 1.0, 0.0]).unwrap(),
        );
        env.insert(
            a,
            Tensor::from_vec(Shape::new(vec![4]), vec![2.0, 2.0, 0.25, 2.0]).unwrap(),
        );
        env.insert(
            b,
            Tensor::from_vec(Shape::new(vec![4]), vec![-2.0, -2.0, -2.0, -0.25]).unwrap(),
        );
        let result = run_compiled(&g, &env);
        assert_eq!(result[&clip].data(), &[0.5, -0.5, 0.25, -0.25]);
    }

    #[test]
    fn batch_norm_params_computed_in_the_block_stay_channel_aligned() {
        // Regression: when a BN parameter is itself produced by an earlier
        // tape-compatible node (here scale = Abs(w)), reusing its in-segment
        // register would index it along the trailing broadcast axes instead
        // of the channel axis. The segment must split so the parameter is
        // materialized and re-loaded with channel strides. The input shape
        // [1, 3, 2, 3] is adversarial: the channel count equals the last
        // dimension, so trailing alignment would "work" shape-wise while
        // producing silently wrong numbers.
        let mut g = Graph::new("bn-in-segment");
        let x = g.add_input("x", Shape::new(vec![1, 3, 2, 3]));
        let w = g.add_weight("w", Shape::new(vec![3]));
        let scale = g.add_op(OpKind::Abs, Attrs::new(), &[w], "abs").unwrap()[0];
        let bias = g.add_weight("bias", Shape::new(vec![3]));
        let mean = g.add_weight("mean", Shape::new(vec![3]));
        let var = g.add_weight("var", Shape::new(vec![3]));
        let bn = g
            .add_op(
                OpKind::BatchNormalization,
                Attrs::new().with_float("epsilon", 1e-5),
                &[x, scale, bias, mean, var],
                "bn",
            )
            .unwrap()[0];
        g.mark_output(bn);
        let mut env = HashMap::new();
        env.insert(x, Tensor::random(Shape::new(vec![1, 3, 2, 3]), 30));
        env.insert(w, Tensor::random(Shape::new(vec![3]), 31));
        env.insert(bias, Tensor::random(Shape::new(vec![3]), 32));
        env.insert(mean, Tensor::random(Shape::new(vec![3]), 33));
        env.insert(var, Tensor::random(Shape::new(vec![3]), 34).map(f32::abs));
        let reference = run_reference(&g, &env);
        let compiled = run_compiled(&g, &env);
        assert_eq!(
            reference[&bn].first_disagreement(&compiled[&bn], 1e-6),
            None,
            "in-segment BN parameters must be read along the channel axis"
        );
    }

    #[test]
    fn unrelated_equal_shape_chains_share_a_tape_but_disjoint_chains_split() {
        // Two dataflow-unrelated chains: equal shapes may share one loop;
        // a broadcast-mergeable but unrelated chain must not be dragged into
        // a bigger loop shape (it would re-evaluate once per broadcast
        // position).
        let mut g = Graph::new("relatedness");
        let big = g.add_input("big", Shape::new(vec![4, 8]));
        let small = g.add_input("small", Shape::new(vec![8]));
        let rb = g.add_op(OpKind::Relu, Attrs::new(), &[big], "rb").unwrap()[0];
        let rs = g
            .add_op(OpKind::Sigmoid, Attrs::new(), &[small], "rs")
            .unwrap()[0];
        g.mark_output(rb);
        g.mark_output(rs);
        let ecg = Ecg::new(g.clone());
        let plan = FusionPlan::from_blocks(&ecg, vec![g.topo_order()]).unwrap();
        let engine = compile_plan(&g, &plan);
        let kernel = engine.kernel(0);
        // The [8] chain must not run under the [4, 8] loop.
        assert_eq!(kernel.tape_count(), 2);
        let mut env = HashMap::new();
        env.insert(big, Tensor::random(Shape::new(vec![4, 8]), 40));
        env.insert(small, Tensor::random(Shape::new(vec![8]), 41));
        let reference = run_reference(&g, &env);
        let mut store: HashMap<ValueId, Arc<Tensor>> =
            env.into_iter().map(|(v, t)| (v, Arc::new(t))).collect();
        let mut pool = FreshBuffers;
        for block_idx in plan.execution_order(&g) {
            for (v, t) in engine
                .kernel(block_idx)
                .run(
                    &g,
                    &mut |v| store.get(&v).cloned(),
                    &PackedWeights::default(),
                    &mut pool,
                    WorkPool::serial(),
                )
                .unwrap()
            {
                store.insert(v, Arc::new(t));
            }
        }
        for out in [rb, rs] {
            assert_eq!(reference[&out].first_disagreement(&store[&out], 0.0), None);
        }
    }

    #[test]
    fn incompatible_shapes_split_tapes_and_still_execute() {
        // Two element-wise chains over un-broadcastable shapes in one graph.
        let mut g = Graph::new("split");
        let x = g.add_input("x", Shape::new(vec![3]));
        let y = g.add_input("y", Shape::new(vec![4]));
        let rx = g.add_op(OpKind::Relu, Attrs::new(), &[x], "rx").unwrap()[0];
        let ry = g.add_op(OpKind::Relu, Attrs::new(), &[y], "ry").unwrap()[0];
        g.mark_output(rx);
        g.mark_output(ry);
        let mut env = HashMap::new();
        env.insert(
            x,
            Tensor::from_vec(Shape::new(vec![3]), vec![-1.0, 0.0, 1.0]).unwrap(),
        );
        env.insert(
            y,
            Tensor::from_vec(Shape::new(vec![4]), vec![-2.0, 2.0, -2.0, 2.0]).unwrap(),
        );
        let result = run_compiled(&g, &env);
        assert_eq!(result[&rx].data(), &[0.0, 0.0, 1.0]);
        assert_eq!(result[&ry].data(), &[0.0, 2.0, 0.0, 2.0]);
    }

    #[test]
    fn reference_fallback_handles_ops_without_compiled_forms() {
        let mut g = Graph::new("fallback");
        let x = g.add_input("x", Shape::new(vec![2, 6]));
        let sm = g.add_op(OpKind::Softmax, Attrs::new(), &[x], "sm").unwrap()[0];
        let t = g
            .add_op(
                OpKind::Transpose,
                Attrs::new().with_ints("perm", vec![1, 0]),
                &[sm],
                "t",
            )
            .unwrap()[0];
        g.mark_output(t);
        let mut env = HashMap::new();
        env.insert(x, Tensor::random(Shape::new(vec![2, 6]), 9));
        let reference = run_reference(&g, &env);
        let compiled = run_compiled(&g, &env);
        assert!(reference[&t].allclose(&compiled[&t], 0.0));
    }

    #[test]
    fn pool_recycles_intra_block_intermediates() {
        #[derive(Default)]
        struct CountingPool {
            taken: usize,
            recycled: usize,
        }
        impl BufferPool for CountingPool {
            fn take(&mut self, numel: usize) -> Vec<f32> {
                self.taken += 1;
                vec![0.0; numel]
            }
            fn recycle(&mut self, _buf: Vec<f32>) {
                self.recycled += 1;
            }
        }
        let (g, env) = conv_block_graph();
        let mut compiler = Compiler::new(CompilerOptions::without_rewriting());
        let compiled = compiler.compile(&g).unwrap();
        let engine = compile_plan(&g, &compiled.plan);
        let mut pool = CountingPool::default();
        let store: HashMap<ValueId, Arc<Tensor>> =
            env.into_iter().map(|(v, t)| (v, Arc::new(t))).collect();
        for block_idx in compiled.plan.execution_order(&g) {
            engine
                .kernel(block_idx)
                .run(
                    &g,
                    &mut |v| store.get(&v).cloned(),
                    &PackedWeights::default(),
                    &mut pool,
                    WorkPool::serial(),
                )
                .unwrap();
        }
        // The conv output never escapes its block, so at least one buffer
        // must have come back to the pool.
        assert!(pool.taken >= 2);
        assert!(pool.recycled >= 1);
    }
}
