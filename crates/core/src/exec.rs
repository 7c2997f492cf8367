//! The fused-block execution engine.
//!
//! [`compile_plan`] turns every [`FusionBlock`] of a [`FusionPlan`] into an
//! executable [`FusedKernel`]. Within a kernel, maximal runs of element-wise
//! / broadcast operators (including inference-form `BatchNormalization`,
//! which decomposes into per-channel affine arithmetic) are compiled into a
//! [`ScalarTape`]: a topologically ordered scalar-expression program that is
//! evaluated **once per output element** in a single pass — intermediate
//! tensors inside the run are never materialized, they live in registers.
//! One evaluator, generic over its lane width, runs every tape: each
//! innermost-axis row is tiled into 8- / 4-element bundles (one element per
//! lane) and width-1 remainders, and the scalar mode is width 1 throughout.
//! The compute-heavy anchors (`Conv`, `MatMul`, `Gemm`, pooling), the
//! data-movement operators (`Transpose`, `Concat`, `Slice`, `Gather`,
//! nearest `Upsample`/`Resize`, `Reshape`/`Flatten`/`Squeeze`/`Unsqueeze`)
//! and the `Reduce*` family execute through the optimized kernels of
//! `dnnf-ops` (bit-identical to the reference kernels; see
//! [`dnnf_ops::has_fast_kernel`]). Every other operator a tape cannot hold
//! — `Softmax`/`LogSoftmax`, `Pad`, `Expand`/`Tile`, multi-output `Split`,
//! `DepthToSpace`/`SpaceToDepth`, `ArgMax`, `CumSum`, `ConvTranspose` and
//! the non-decomposed normalizations — falls back to the reference kernel
//! [`dnnf_ops::execute`], so the engine covers the full operator vocabulary
//! while the differential test harness pins it to the reference semantics.
//!
//! Output buffers are drawn from a [`BufferPool`] so the runtime can recycle
//! allocations across blocks (see `dnnf-runtime`'s arena).

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use dnnf_graph::{Graph, GraphError, NodeId, ValueId};
use dnnf_ops::simd::{col_tiles, F32Lanes, Isa, Sse2, LANES};
use dnnf_ops::{
    execute, execute_fast_into_packed, has_fast_kernel, infer_shapes, OpError, OpKind,
    ScalarUnaryFn, WorkPool,
};
use dnnf_tensor::{broadcast_shapes, Shape, Tensor, TensorError};

use crate::{CoreError, FusionBlock, FusionPlan};

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
    loop_shape: Shape,
    /// Element stride per loop axis (0 on broadcast axes), one row per
    /// input; a row is the loop's rank long, or one zero for a rank-0 loop.
    in_strides: Vec<usize>,
    /// The same per output.
    out_strides: Vec<usize>,
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
    /// inputs, each output's shape the broadcast of its listed inputs, and
    /// every stride follows from those.
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
        let mut loop_dims = Vec::new();
        for (input, shape) in self.inputs.iter().zip(shapes) {
            if input.rule == Broadcast::Trailing {
                broadcast_into(&mut loop_dims, shape).map_err(|e| (None, OpError::Tensor(e)))?;
            }
        }
        // A rank-0 loop keeps one (zero) stride slot per row, so every
        // input and output still has its row.
        let width = loop_dims.len().max(1);
        let mut in_strides = vec![0; self.inputs.len() * width];
        let rows = in_strides.chunks_mut(width);
        for ((input, shape), row) in self.inputs.iter().zip(shapes).zip(rows) {
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
        let mut out_strides = vec![0; out_shapes.len() * width];
        for (shape, row) in out_shapes.iter().zip(out_strides.chunks_mut(width)) {
            broadcast_strides(shape, row);
        }
        Ok(Geometry {
            loop_shape: Shape::new(loop_dims),
            in_strides,
            out_strides,
            out_shapes,
        })
    }

    /// Evaluates the tape: one pass over the loop, all outputs written in
    /// the same sweep.
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
    ) -> Result<Vec<(ValueId, Tensor)>, CoreError> {
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
        let in_slices: Vec<&[f32]> = in_tensors.iter().map(|t| t.data()).collect();

        let mut out_bufs: Vec<Vec<f32>> = geo
            .out_shapes
            .iter()
            .map(|s| pool.take(s.numel()))
            .collect();

        let total = geo.loop_shape.numel();
        let workers = workers.for_work(total.saturating_mul(self.instrs.len().max(1)));
        // Writes are contiguous in the flat loop order only when every output
        // spans the whole loop; a smaller (broadcast-strided) output would be
        // written several times per element and must stay on one thread.
        let splittable = geo.out_shapes.iter().all(|s| s.numel() == total);
        // A lane bundle needs each lane to own its write slot: every output
        // must advance densely along the innermost axis.
        let dense = geo.out_rows().all(|s| s.last() == Some(&1));
        let widths: &[usize] = if workers.use_simd() && dense {
            &[LANES, 4]
        } else {
            &[]
        };

        if workers.is_serial() || !splittable || total < 2 {
            let mut outs: Vec<(usize, &mut [f32])> =
                out_bufs.iter_mut().map(|b| (0, b.as_mut_slice())).collect();
            self.run_span(&geo, &in_slices, &mut outs, 0, total, widths);
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
                let mut outs: Vec<(usize, &mut [f32])> =
                    slices.iter_mut().map(|s| (start, &mut **s)).collect();
                self.run_span(&geo, &in_slices, &mut outs, start, count, widths);
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
            })
            .collect())
    }

    /// Evaluates `count` consecutive elements of the flat loop space starting
    /// at `start`, writing each output element through its stride pattern.
    /// `outs` pairs each output with the flat offset its slice starts at
    /// (`0` for whole buffers, the range start for parallel sub-slices).
    ///
    /// The range is walked one innermost-axis row segment at a time (rank 0
    /// is one row of one element), and [`col_tiles`] tiles each segment
    /// into `widths`-wide lane bundles of consecutive elements, then width
    /// 1 — the scalar instance of the same evaluator — for the rest; with
    /// `widths` empty (scalar mode, or an output broadcast along the
    /// innermost axis) the whole segment runs at width 1. Every lane runs
    /// the exact per-element instruction sequence, so the bits never depend
    /// on `widths`.
    fn run_span(
        &self,
        geo: &Geometry,
        in_slices: &[&[f32]],
        outs: &mut [(usize, &mut [f32])],
        start: usize,
        count: usize,
        widths: &[usize],
    ) {
        let row = geo.loop_shape.dims().last().copied().unwrap_or(1);
        let mut idx = geo.loop_shape.multi_index(start);
        let offset = |strides: &[usize]| idx.iter().zip(strides).map(|(&i, &s)| i * s).sum();
        let mut in_off: Vec<usize> = geo.in_rows().map(offset).collect();
        let mut out_off: Vec<usize> = geo.out_rows().map(offset).collect();
        let last = |strides: &[usize]| strides.last().copied().unwrap_or(0);
        let in_last: Vec<usize> = geo.in_rows().map(last).collect();
        let out_last: Vec<usize> = geo.out_rows().map(last).collect();
        let mut regs8 = vec![Sse2.splat::<LANES>(0.0); self.instrs.len()];
        let mut regs4 = vec![Sse2.splat::<4>(0.0); self.instrs.len()];
        let mut regs1 = vec![Sse2.splat::<1>(0.0); self.instrs.len()];
        let mut remaining = count;
        while remaining > 0 {
            let seg = (row - idx.last().copied().unwrap_or(0)).min(remaining);
            col_tiles(seg, 0, seg, widths, |_, width| {
                let (ins, outs_at) = (&in_off[..], &out_off[..]);
                match width {
                    LANES => self.eval_lanes(in_slices, ins, &in_last, outs, outs_at, &mut regs8),
                    4 => self.eval_lanes(in_slices, ins, &in_last, outs, outs_at, &mut regs4),
                    _ => self.eval_lanes(in_slices, ins, &in_last, outs, outs_at, &mut regs1),
                }
                in_off
                    .iter_mut()
                    .zip(&in_last)
                    .for_each(|(o, s)| *o += width * s);
                out_off
                    .iter_mut()
                    .zip(&out_last)
                    .for_each(|(o, s)| *o += width * s);
            });
            remaining -= seg;
            if remaining > 0 {
                *idx.last_mut().expect("a rank-0 loop is one element") += seg;
                geo.carry_odometer(&mut idx, &mut in_off, &mut out_off);
            }
        }
    }

    /// Evaluates the tape for `N` consecutive elements of one innermost-axis
    /// row, one element per lane. Lane `l` reads input `i` at
    /// `in_off[i] + l * in_last[i]` (`0` splats a broadcast operand) and
    /// every instruction applies per lane in the tape's order, so lane `l`
    /// computes exactly what the `N = 1` instance computes at its element.
    /// Each instruction picks its operation once for all lanes: the bundle
    /// arithmetic for `Add`/`Sub`/`Mul`/`Div`/`Max`/`Min`/`Relu`/`Sqrt`
    /// (the scalar kernels' own IEEE operations, lane-wise), the scalar
    /// kernel per lane for every other operator. Outputs store as
    /// contiguous `N`-slices (innermost stride 1 whenever `N > 1`, checked
    /// by the caller).
    fn eval_lanes<const N: usize>(
        &self,
        in_slices: &[&[f32]],
        in_off: &[usize],
        in_last: &[usize],
        outs: &mut [(usize, &mut [f32])],
        out_off: &[usize],
        regs: &mut [F32Lanes<N>],
    ) {
        for (r, instr) in self.instrs.iter().enumerate() {
            regs[r] = match *instr {
                TapeInstr::Load { input } => {
                    Sse2.gather(in_slices[input], in_off[input], in_last[input])
                }
                TapeInstr::Unary { ref f, src } => match f.op() {
                    OpKind::Relu => regs[src].max(Sse2.splat(0.0)),
                    OpKind::Sqrt => regs[src].sqrt(),
                    _ => regs[src].map(|v| f.apply(v)),
                },
                TapeInstr::Binary { op, lhs, rhs } => {
                    let (a, b) = (regs[lhs], regs[rhs]);
                    match op {
                        OpKind::Add => a + b,
                        OpKind::Sub => a - b,
                        OpKind::Mul => a * b,
                        OpKind::Div => a / b,
                        OpKind::Max => a.max(b),
                        OpKind::Min => a.min(b),
                        _ => {
                            let (a, b) = (a.to_array(), b.to_array());
                            let mut y = [0.0f32; N];
                            for (l, slot) in y.iter_mut().enumerate() {
                                *slot = op
                                    .scalar_binary(a[l], b[l])
                                    .expect("tape compilation only emits scalar binary ops");
                            }
                            Sse2.bundle(y)
                        }
                    }
                }
                TapeInstr::Select {
                    cond,
                    on_true,
                    on_false,
                } => {
                    let c = regs[cond].to_array();
                    let t = regs[on_true].to_array();
                    let e = regs[on_false].to_array();
                    let mut y = [0.0f32; N];
                    for (l, slot) in y.iter_mut().enumerate() {
                        *slot = if c[l] != 0.0 { t[l] } else { e[l] };
                    }
                    Sse2.bundle(y)
                }
                TapeInstr::Affine { src, mul, add } => {
                    regs[src] * Sse2.splat(mul) + Sse2.splat(add)
                }
            };
        }
        for (o, out) in self.outputs.iter().enumerate() {
            let (bias, buf) = &mut outs[o];
            regs[out.reg].store(&mut buf[out_off[o] - *bias..]);
        }
    }
}

impl Geometry {
    /// Each input's strides, in input-table order.
    fn in_rows(&self) -> impl Iterator<Item = &[usize]> {
        self.in_strides.chunks(self.loop_shape.rank().max(1))
    }

    /// Each output's strides, in output order.
    fn out_rows(&self) -> impl Iterator<Item = &[usize]> {
        self.out_strides.chunks(self.loop_shape.rank().max(1))
    }

    /// Propagates an innermost-axis overflow up the odometer: rewinds each
    /// saturated axis and steps the next-outer one.
    fn carry_odometer(&self, idx: &mut [usize], in_off: &mut [usize], out_off: &mut [usize]) {
        let dims = self.loop_shape.dims();
        let mut axis = dims.len() - 1;
        while idx[axis] >= dims[axis] {
            idx[axis] = 0;
            for (off, strides) in in_off.iter_mut().zip(self.in_rows()) {
                *off -= strides[axis] * dims[axis];
            }
            for (off, strides) in out_off.iter_mut().zip(self.out_rows()) {
                *off -= strides[axis] * dims[axis];
            }
            if axis == 0 {
                break;
            }
            axis -= 1;
            idx[axis] += 1;
            for (off, strides) in in_off.iter_mut().zip(self.in_rows()) {
                *off += strides[axis];
            }
            for (off, strides) in out_off.iter_mut().zip(self.out_rows()) {
                *off += strides[axis];
            }
        }
    }
}

/// Kernel-friendly prepacked weight layouts, keyed by graph value id.
///
/// Built once per model (the runtime's weight store does it alongside weight
/// materialization) and passed to every [`FusedKernel::run`], so the packing
/// cost is paid at compile/first-touch time, never on the inference hot
/// path. It carries two layouts today:
///
/// * **transposed `Gemm` B panels** — a weight consumed by a `Gemm` with
///   `transB = 1` is stored re-laid-out as `(K, N)` row-major, turning the
///   kernel's strided column gathers into contiguous loads;
/// * **OC-blocked `Conv` weight panels** — an ungrouped conv weight with a
///   lane-aligned output-channel count is stored as
///   `(OC / LANES, ICpg·∏k, LANES)`, so the OC-lane conv kernel reads each
///   weight tap for all lanes with one contiguous load instead of a
///   strided gather (see `dnnf_ops::pack_conv_oc_panel`).
///
/// Packing never changes results — a panel supplies the same operand
/// values in the same accumulation order, so outputs are bit-identical with
/// and without it (the kernel tests pin this). An empty
/// (`PackedWeights::default()`) table is always valid: kernels simply read
/// the original operands.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedWeights {
    transposed_b: BTreeMap<ValueId, Arc<Tensor>>,
    conv_oc: BTreeMap<ValueId, Arc<Tensor>>,
}

impl PackedWeights {
    /// Registers the transposed `(K, N)` panel for a `transB = 1` `Gemm`
    /// weight. The caller is responsible for `panel` actually being the
    /// transpose of the operand tensor.
    pub fn insert_transposed_b(&mut self, value: ValueId, panel: Arc<Tensor>) {
        self.transposed_b.insert(value, panel);
    }

    /// The transposed panel packed for `value`, if one was registered.
    #[must_use]
    pub fn transposed_b(&self, value: ValueId) -> Option<&Arc<Tensor>> {
        self.transposed_b.get(&value)
    }

    /// Registers the OC-blocked panel for a `Conv` weight. The caller is
    /// responsible for `panel` being `dnnf_ops::pack_conv_oc_panel` of the
    /// operand tensor (the conv kernel re-validates the panel dimensions
    /// against its launch and falls back to the plain weights on mismatch).
    pub fn insert_conv_oc(&mut self, value: ValueId, panel: Arc<Tensor>) {
        self.conv_oc.insert(value, panel);
    }

    /// The OC-blocked conv panel packed for `value`, if one was registered.
    #[must_use]
    pub fn conv_oc(&self, value: ValueId) -> Option<&Arc<Tensor>> {
        self.conv_oc.get(&value)
    }

    /// Number of packed panels (all layouts).
    #[must_use]
    pub fn len(&self) -> usize {
        self.transposed_b.len() + self.conv_oc.len()
    }

    /// Whether no panel has been packed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transposed_b.is_empty() && self.conv_oc.is_empty()
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
                fast: has_fast_kernel(node.op) && node.outputs.len() == 1,
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
    dims.splice(0..0, std::iter::repeat_n(1, extra));
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
        // Width 23 forces every lane split per row: two 8-lane bundles, one
        // 4-lane pass, a 3-element scalar tail. The [4, 1] bias has
        // innermost stride 0 (splat load) and outer stride 1, and the
        // mid-chain escape keeps two outputs live in one sweep.
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
                "lane-blocked tape diverged from the scalar sweep"
            );
            assert_eq!(parallel[&out].first_bit_difference(&scalar[&out]), None);
        }
    }

    #[test]
    fn vector_lowered_tape_ops_are_bit_identical_on_special_values() {
        // Every pair of special values — ±0, ±1, ±inf, two NaN payloads,
        // the extreme subnormals, f32::MAX, 1 ± ulp — through one block of
        // the operators the tape lowers to bundle arithmetic. Rows of 13
        // run as an 8-lane bundle, a 4-lane pass and a scalar tail; every
        // chain step escapes, so each operator's result is compared.
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
                    .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
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
    fn broadcast_innermost_outputs_fall_back_to_the_scalar_sweep() {
        // The first node's [3, 1] output escapes while a later node widens
        // the loop to [3, 23]: its TapeOutput has innermost stride 0, so the
        // span must not lane-block (each element would be written by every
        // lane) — the fallback path has to reproduce the reference exactly.
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
            assert_eq!(geo.loop_shape.dims(), &[rows, 3]);
            assert_eq!(geo.in_rows().nth(bias), Some(&[0, 1][..]));
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
