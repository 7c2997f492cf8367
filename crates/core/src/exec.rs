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

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dnnf_graph::{Graph, NodeId, ValueId};
use dnnf_ops::simd::{col_tiles, F32Lanes, LANES};
use dnnf_ops::{
    execute, execute_fast_into_packed, has_fast_kernel, OpKind, ScalarUnaryFn, WorkPool,
};
use dnnf_tensor::{broadcast_shapes, Shape, Tensor};

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

/// One value read by a tape from outside the tape (a block input, a weight,
/// or the output of an earlier step in the same kernel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeInput {
    /// The value read.
    pub value: ValueId,
    /// Element stride per loop axis (0 on broadcast axes).
    strides: Vec<usize>,
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
    strides: Vec<usize>,
    shape: Shape,
}

/// A compiled run of element-wise operators evaluated in a single pass per
/// output element.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarTape {
    loop_shape: Shape,
    inputs: Vec<TapeInput>,
    instrs: Vec<TapeInstr>,
    outputs: Vec<TapeOutput>,
    nodes: Vec<NodeId>,
}

impl ScalarTape {
    /// The graph nodes folded into this tape.
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The external values the tape reads.
    #[must_use]
    pub fn input_values(&self) -> Vec<ValueId> {
        self.inputs.iter().map(|i| i.value).collect()
    }

    /// Evaluates the tape: one pass over `loop_shape`, all outputs written
    /// in the same sweep.
    ///
    /// With a parallel `workers` pool the loop is split into disjoint
    /// contiguous ranges of the flat iteration space, each evaluated by one
    /// thread — every output element is computed exactly once by exactly one
    /// thread, so results are bit-identical for every thread count. The
    /// split only applies when every tape output covers the full loop (no
    /// broadcast-replicated writes); otherwise the sweep stays serial.
    fn run(
        &self,
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
        let in_slices: Vec<&[f32]> = in_tensors.iter().map(|t| t.data()).collect();

        let mut out_bufs: Vec<Vec<f32>> = self
            .outputs
            .iter()
            .map(|o| pool.take(o.shape.numel()))
            .collect();

        let total = self.loop_shape.numel();
        let workers = workers.for_work(total.saturating_mul(self.instrs.len().max(1)));
        // Writes are contiguous in the flat loop order only when every output
        // spans the whole loop; a smaller (broadcast-strided) output would be
        // written several times per element and must stay on one thread.
        let splittable = self.outputs.iter().all(|o| o.shape.numel() == total);
        // A lane bundle needs each lane to own its write slot: every output
        // must advance densely along the innermost axis.
        let dense = self.outputs.iter().all(|o| o.strides.last() == Some(&1));
        let widths: &[usize] = if workers.use_simd() && dense {
            &[LANES, 4]
        } else {
            &[]
        };

        if workers.is_serial() || !splittable || total < 2 {
            let mut outs: Vec<(usize, &mut [f32])> =
                out_bufs.iter_mut().map(|b| (0, b.as_mut_slice())).collect();
            self.run_span(&in_slices, &mut outs, 0, total, widths);
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
                self.run_span(&in_slices, &mut outs, start, count, widths);
            });
        }

        Ok(self
            .outputs
            .iter()
            .zip(out_bufs)
            .map(|(o, buf)| {
                let tensor = Tensor::from_vec(o.shape.clone(), buf)
                    .expect("tape output buffer sized from its shape");
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
        in_slices: &[&[f32]],
        outs: &mut [(usize, &mut [f32])],
        start: usize,
        count: usize,
        widths: &[usize],
    ) {
        let row = self.loop_shape.dims().last().copied().unwrap_or(1);
        let mut idx = self.loop_shape.multi_index(start);
        let offset = |strides: &[usize]| idx.iter().zip(strides).map(|(&i, &s)| i * s).sum();
        let mut in_off: Vec<usize> = self.inputs.iter().map(|i| offset(&i.strides)).collect();
        let mut out_off: Vec<usize> = self.outputs.iter().map(|o| offset(&o.strides)).collect();
        let last = |strides: &[usize]| strides.last().copied().unwrap_or(0);
        let in_last: Vec<usize> = self.inputs.iter().map(|i| last(&i.strides)).collect();
        let out_last: Vec<usize> = self.outputs.iter().map(|o| last(&o.strides)).collect();
        let mut regs8 = vec![F32Lanes::<LANES>::splat(0.0); self.instrs.len()];
        let mut regs4 = vec![F32Lanes::<4>::splat(0.0); self.instrs.len()];
        let mut regs1 = vec![F32Lanes::<1>::splat(0.0); self.instrs.len()];
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
                self.carry_odometer(&mut idx, &mut in_off, &mut out_off);
            }
        }
    }

    /// Evaluates the tape for `N` consecutive elements of one innermost-axis
    /// row, one element per lane. Lane `l` reads input `i` at
    /// `in_off[i] + l * in_last[i]` (`0` splats a broadcast operand) and
    /// every instruction applies per lane in the tape's order, so lane `l`
    /// computes exactly what the `N = 1` instance computes at its element.
    /// Outputs store as contiguous `N`-slices (innermost stride 1 whenever
    /// `N > 1`, checked by the caller).
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
                    F32Lanes::gather(in_slices[input], in_off[input], in_last[input])
                }
                TapeInstr::Unary { ref f, src } => regs[src].map(|v| f.apply(v)),
                TapeInstr::Binary { op, lhs, rhs } => {
                    let a = regs[lhs].to_array();
                    let b = regs[rhs].to_array();
                    let mut y = [0.0f32; N];
                    for (l, slot) in y.iter_mut().enumerate() {
                        *slot = op
                            .scalar_binary(a[l], b[l])
                            .expect("tape compilation only emits scalar binary ops");
                    }
                    F32Lanes::from_array(y)
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
                    F32Lanes::from_array(y)
                }
                TapeInstr::Affine { src, mul, add } => {
                    regs[src] * F32Lanes::splat(mul) + F32Lanes::splat(add)
                }
            };
        }
        for (o, out) in self.outputs.iter().enumerate() {
            let (bias, buf) = &mut outs[o];
            regs[out.reg].store(&mut buf[out_off[o] - *bias..]);
        }
    }

    /// Propagates an innermost-axis overflow up the odometer: rewinds each
    /// saturated axis and steps the next-outer one.
    fn carry_odometer(&self, idx: &mut [usize], in_off: &mut [usize], out_off: &mut [usize]) {
        let dims = self.loop_shape.dims();
        let mut axis = dims.len() - 1;
        while idx[axis] >= dims[axis] {
            idx[axis] = 0;
            for (i, input) in self.inputs.iter().enumerate() {
                in_off[i] -= input.strides[axis] * dims[axis];
            }
            for (o, out) in self.outputs.iter().enumerate() {
                out_off[o] -= out.strides[axis] * dims[axis];
            }
            if axis == 0 {
                break;
            }
            axis -= 1;
            idx[axis] += 1;
            for (i, input) in self.inputs.iter().enumerate() {
                in_off[i] += input.strides[axis];
            }
            for (o, out) in self.outputs.iter().enumerate() {
                out_off[o] += out.strides[axis];
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
    /// Returns [`CoreError::Op`] when a kernel fails and [`CoreError::Plan`]
    /// when a value the plan promised is unavailable (a planner bug).
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
                        let shape = graph.value(out_id).shape.clone();
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

/// Compiles one fusion block: maximal runs of tape-compatible operators
/// become [`ScalarTape`]s, everything else becomes an anchor/reference step.
#[must_use]
pub fn compile_block(graph: &Graph, block: &FusionBlock) -> FusedKernel {
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
            graph, &escaping, &segment, loop_shape,
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

/// Broadcast strides of a value of shape `shape` iterated under `loop_shape`
/// (trailing-aligned; broadcast axes get stride 0).
fn broadcast_strides(shape: &Shape, loop_shape: &Shape) -> Vec<usize> {
    let strides = shape.strides();
    let offset = loop_shape.rank() - shape.rank();
    (0..loop_shape.rank())
        .map(|axis| {
            if axis < offset {
                0
            } else {
                let own = axis - offset;
                if shape.dim(own) == 1 {
                    0
                } else {
                    strides[own]
                }
            }
        })
        .collect()
}

/// The tables of one tape under construction; [`build_tape`] walks its
/// segment through [`TapeBuilder::push`], [`TapeBuilder::load`] and
/// [`TapeBuilder::operand`].
struct TapeBuilder {
    loop_shape: Shape,
    inputs: Vec<TapeInput>,
    instrs: Vec<TapeInstr>,
    /// Register produced for each value: either a node output computed in the
    /// segment or a memoized Load (keyed by its stride pattern so the same
    /// value can be read both element-wise and per-channel).
    value_reg: BTreeMap<ValueId, usize>,
    load_reg: BTreeMap<(ValueId, Vec<usize>), usize>,
}

impl TapeBuilder {
    /// Appends `instr` and returns the register it writes.
    fn push(&mut self, instr: TapeInstr) -> usize {
        self.instrs.push(instr);
        self.instrs.len() - 1
    }

    /// The register holding `value` read through `strides`: its in-segment
    /// register if it has one, else a Load memoized per stride pattern.
    fn load(&mut self, value: ValueId, strides: Vec<usize>) -> usize {
        if let Some(&r) = self.value_reg.get(&value) {
            return r;
        }
        let key = (value, strides);
        if let Some(&r) = self.load_reg.get(&key) {
            return r;
        }
        let input = self.inputs.len();
        let strides = key.1.clone();
        self.inputs.push(TapeInput { value, strides });
        let reg = self.push(TapeInstr::Load { input });
        self.load_reg.insert(key, reg);
        reg
    }

    /// The register holding operand `value`, broadcast over the loop.
    fn operand(&mut self, graph: &Graph, value: ValueId) -> usize {
        let strides = broadcast_strides(&graph.value(value).shape, &self.loop_shape);
        self.load(value, strides)
    }
}

fn build_tape(
    graph: &Graph,
    escaping: &[ValueId],
    segment: &[NodeId],
    loop_shape: Shape,
) -> ScalarTape {
    let mut b = TapeBuilder {
        loop_shape,
        inputs: Vec::new(),
        instrs: Vec::new(),
        value_reg: BTreeMap::new(),
        load_reg: BTreeMap::new(),
    };
    for &nid in segment {
        let node = graph.node(nid);
        let out_reg = match node.op {
            op if op.is_elementwise_unary() => {
                let src = b.operand(graph, node.inputs[0]);
                let f = ScalarUnaryFn::compile(op, &node.attrs)
                    .expect("tape_compatible guarantees a unary kernel");
                b.push(TapeInstr::Unary { f, src })
            }
            op if op.is_elementwise_binary() => {
                let lhs = b.operand(graph, node.inputs[0]);
                let rhs = b.operand(graph, node.inputs[1]);
                b.push(TapeInstr::Binary { op, lhs, rhs })
            }
            OpKind::Where => {
                let cond = b.operand(graph, node.inputs[0]);
                let on_true = b.operand(graph, node.inputs[1]);
                let on_false = b.operand(graph, node.inputs[2]);
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
                let x_shape = &graph.value(node.inputs[0]).shape;
                let channel_axis = b.loop_shape.rank() - x_shape.rank() + 1;
                let mut per_channel = vec![0usize; b.loop_shape.rank()];
                per_channel[channel_axis] = usize::from(x_shape.dim(1) != 1);
                let eps = node.attrs.float_or("epsilon", 1e-5);
                let x = b.operand(graph, node.inputs[0]);
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
            outputs.push(TapeOutput {
                value: out_id,
                reg: b.value_reg[&out_id],
                strides: broadcast_strides(&v.shape, &b.loop_shape),
                shape: v.shape.clone(),
            });
        }
    }

    ScalarTape {
        loop_shape: b.loop_shape,
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
                    serial[&out].first_disagreement(&parallel[&out], 0.0),
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
                simd[&out].first_disagreement(&scalar[&out], 0.0),
                None,
                "lane-blocked tape diverged from the scalar sweep"
            );
            assert_eq!(parallel[&out].first_disagreement(&scalar[&out], 0.0), None);
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
        let bias_input = tape.inputs.iter().find(|i| i.value == b).unwrap();
        assert_eq!(bias_input.strides, vec![0, 1]);

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
