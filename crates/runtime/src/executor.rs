//! The model executor.
//!
//! Two things live here, and they do not meet:
//!
//! * **Real runs** execute a graph under an arbitrary fusion plan
//!   (DNNFusion's, a fixed-pattern baseline's, or the unfused singleton plan)
//!   and return the output tensors — nothing else.
//!   [`Executor::run_engine`] is the **fused-block engine**: every block is a
//!   compiled [`dnnf_core::FusedKernel`] (single-pass scalar tapes for
//!   element-wise runs, optimized anchor kernels for Conv/MatMul/pooling),
//!   boundary tensors are stored behind `Arc` in slot-indexed storage and
//!   their buffers recycled through a [`TensorArena`] where the plan
//!   ([`FusionPlan::deaths`]) says they die. Its block loop launches kernels
//!   and moves buffers; everything input-independent was decided when the
//!   plan was built. [`Executor::run_plan_reference`] is the
//!   **reference interpreter**: every operator runs its reference kernel and
//!   every boundary tensor is materialized — the semantic oracle the
//!   differential test harness pins the engine against, and the baseline the
//!   wall-clock benches compare with.
//! * **Estimation** ([`Executor::estimate_plan`]) simulates the phone: the
//!   modeled latency, memory traffic, peak memory, cache/TLB misses, kernel
//!   launches and utilization of a plan on the executor's [`DeviceSpec`],
//!   from the cost model and the access trace alone, without running a
//!   kernel. It is the only place simulated [`Counters`] and a
//!   [`MemoryPlan`] are produced.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;

use dnnf_core::{compile_plan, BufferPool, CompiledModel, CompiledPlan, Ecg, FusionPlan};
use dnnf_graph::{DimBinding, Graph, ValueId};
use dnnf_ops::execute;
use dnnf_profiledb::ProfileDatabase;
use dnnf_simdev::{CacheHierarchy, Counters, DeviceCostModel, DeviceSpec};
use dnnf_tensor::Tensor;

use crate::{DeviceLatencyModel, ExecOptions, MemoryPlan, RuntimeError, TensorArena, WeightStore};

/// The result of one inference run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Output tensors, in the graph's output order.
    pub outputs: Vec<Tensor>,
}

/// Executes models on the host and estimates them on a simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct Executor {
    device: DeviceSpec,
    simulate_cache: bool,
    options: ExecOptions,
}

impl Executor {
    /// Creates an executor for a device with the default [`ExecOptions`]
    /// (thread count from the host, or `DNNF_NUM_THREADS` when set).
    #[must_use]
    pub fn new(device: DeviceSpec) -> Self {
        Executor {
            device,
            simulate_cache: true,
            options: ExecOptions::default(),
        }
    }

    /// Leaves the cache simulation out of [`Executor::estimate_plan`]
    /// (useful for large sweeps where only latency and traffic are needed).
    /// Real runs simulate nothing either way.
    #[must_use]
    pub fn without_cache_simulation(mut self) -> Self {
        self.simulate_cache = false;
        self
    }

    /// Replaces the execution options (thread count and parallelism gate).
    #[must_use]
    pub fn with_options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// The execution options in effect.
    #[must_use]
    pub fn options(&self) -> &ExecOptions {
        &self.options
    }

    /// The device this executor models.
    #[must_use]
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Runs a compiled model through the fused-block engine: [`Executor::run`]
    /// over owned input tensors; same errors.
    pub fn run_compiled(
        &self,
        model: &CompiledModel,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<ExecutionReport, RuntimeError> {
        self.run(model, inputs)
    }

    /// Runs a compiled model at whatever symbolic dimensions the inputs
    /// carry: their leading (batch) dimension and their marked sequence axes
    /// ([`Graph::mark_seq_axis`]) may differ from what the model was
    /// compiled at. Every binding runs the model's own kernels: each step
    /// takes its extents from the tensors it is handed, so nothing is
    /// rebound or compiled per batch size or KV-cache length, and one
    /// compiled plan — one plan-cache entry — serves every batch size of a
    /// request mix and every step of a decode loop whose KV cache grows
    /// token by token.
    ///
    /// The model carries its compiled kernels and (after the first run) its
    /// materialized weight store, shared by every run across executors and
    /// threads; weights are batch- and length-free. Inputs may be owned
    /// tensors or `Arc<Tensor>`s; the latter are shared into the engine
    /// without copying (the growing KV-cache tensors a `DecodeSession`
    /// holds). Because every kernel partitions work so each thread/lane owns
    /// whole output elements of independent batch items, outputs are
    /// **bit-identical** to running each batch row separately, across thread
    /// counts and scalar mode.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if inputs are missing, disagree with each
    /// other on a symbolic dimension, or mismatch the model beyond them; and
    /// [`RuntimeError::Core`] when an operator is not polymorphic in the
    /// requested value (e.g. a `Reshape` whose target bakes in the native
    /// batch size) or a kernel fails.
    pub fn run<T>(
        &self,
        model: &CompiledModel,
        inputs: &HashMap<String, T>,
    ) -> Result<ExecutionReport, RuntimeError>
    where
        T: Borrow<Tensor> + Clone + Into<Arc<Tensor>>,
    {
        let store = WeightStore::of_model(model);
        self.run_engine(
            model.graph(),
            &model.plan,
            &model.engine,
            &store,
            inputs,
            None,
        )
    }

    /// [`Executor::run`] over owned input tensors; same errors.
    pub fn run_compiled_batched(
        &self,
        model: &CompiledModel,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<ExecutionReport, RuntimeError> {
        self.run(model, inputs)
    }

    /// Runs a compiled model like [`Executor::run_compiled`] while recording
    /// each fused block's **measured wall-clock latency** (µs) into `db`,
    /// under exactly the key the fusion planner consults during exploration
    /// ([`dnnf_core::block_profile_key`]). Persisting that database and
    /// pre-loading it into the next compilation
    /// ([`dnnf_core::Compiler::with_database`]) makes the plan search
    /// optimize against values measured on this host instead of the static
    /// analytic estimates — the paper's offline profiling step.
    ///
    /// Outputs are bit-identical to [`Executor::run_compiled`]; only the
    /// timing instrumentation differs.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if inputs are missing or mismatched, or a
    /// kernel fails.
    pub fn profile_compiled(
        &self,
        model: &CompiledModel,
        inputs: &HashMap<String, Tensor>,
        db: &mut ProfileDatabase,
    ) -> Result<ExecutionReport, RuntimeError> {
        let store = WeightStore::of_model(model);
        self.run_engine(
            model.graph(),
            &model.plan,
            &model.engine,
            &store,
            inputs,
            Some(db),
        )
    }

    /// Runs a graph without any fusion (every operator is its own kernel)
    /// through the reference interpreter. This is the unfused baseline —
    /// `OurB` in the paper's evaluation — and the semantic oracle of the
    /// differential tests.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if inputs are missing/mismatched or a
    /// kernel fails.
    pub fn run_unfused(
        &self,
        graph: &Graph,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<ExecutionReport, RuntimeError> {
        let ecg = Ecg::new(graph.clone());
        let plan = FusionPlan::singletons(&ecg);
        self.run_plan_reference(graph, &plan, inputs)
    }

    /// Estimates the counters of executing a graph under a plan *without*
    /// running any kernels: latency, traffic, peak memory, utilization and
    /// (optionally) cache statistics are produced from the cost model and the
    /// access trace alone. Every number in the paper's tables and figures
    /// comes from here; no real run produces or pays for any of it.
    #[must_use]
    pub fn estimate_plan(&self, graph: &Graph, plan: &FusionPlan) -> (Counters, MemoryPlan) {
        let elem_bytes = self.device.elem_bytes;
        let scale = |bytes: usize| bytes as u64 / 4 * elem_bytes;
        let order = plan.order();
        let memory = MemoryPlan::build(graph, plan, order, elem_bytes);
        // Virtual addresses for the cache simulation: each value gets a
        // 64-byte-aligned region of a flat address space.
        let mut addresses: Vec<u64> = Vec::with_capacity(graph.value_count());
        let mut next_addr = 0u64;
        for value in graph.values() {
            addresses.push(next_addr);
            next_addr += scale(value.size_bytes()).max(1).div_ceil(64) * 64;
        }
        let cost_model = DeviceCostModel::new(self.device.clone());
        let work_model = DeviceLatencyModel::new(self.device.clone());
        let mut cache = CacheHierarchy::new(&self.device.cache);
        let mut counters = Counters::default();
        let mut works = Vec::with_capacity(order.len());
        for &block_idx in order {
            let block = &plan.blocks()[block_idx];
            let work = work_model.block_work(graph, &block.nodes, &block.boundary);
            counters.kernel_launches += 1;
            counters.flops += work.flops;
            counters.memory_access_bytes += work.boundary_elems * elem_bytes;
            counters.latency_us += cost_model.kernel_latency_us(&work);
            works.push(work);
            if !self.simulate_cache {
                continue;
            }
            // The block's boundary reads and writes go through the cache
            // simulator, each value once, in the order its nodes touch them
            // (internal values never touch memory).
            for value in block.boundary.values() {
                let bytes = scale(graph.value(value).size_bytes());
                cache.access(addresses[value.index()], bytes);
            }
        }
        counters.peak_memory_bytes = memory.peak_bytes();
        counters.utilization_percent = cost_model.utilization_percent(&works);
        counters.cache = cache.stats();
        (counters, memory)
    }

    /// Estimates the counters of the unfused execution of a graph (every
    /// operator its own kernel), without running kernels.
    #[must_use]
    pub fn estimate_unfused(&self, graph: &Graph) -> (Counters, MemoryPlan) {
        let ecg = Ecg::new(graph.clone());
        let plan = FusionPlan::singletons(&ecg);
        self.estimate_plan(graph, &plan)
    }

    /// Runs a graph under an explicit fusion plan through the fused-block
    /// engine, compiling the plan and materializing the weights on the spot.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if inputs are missing/mismatched or a
    /// kernel fails.
    pub fn run_plan(
        &self,
        graph: &Graph,
        plan: &FusionPlan,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<ExecutionReport, RuntimeError> {
        let engine = compile_plan(graph, plan);
        self.run_engine(
            graph,
            plan,
            &engine,
            &WeightStore::build(graph),
            inputs,
            None,
        )
    }

    /// The one engine path, from explicit parts: each block of `plan`
    /// executes as one kernel of `engine` (its compilation against `graph`)
    /// in the plan's order, at whatever binding of `graph`'s symbolic
    /// dimensions the inputs carry; boundary tensors live in `Arc`-backed slot
    /// storage keyed by value id, weights are handed out of `store` by `Arc`
    /// clone with its prepacked panels forwarded to the kernels, and output
    /// buffers return to an arena at the position the plan lists them dead.
    /// With `profile`, each block's measured wall-clock µs is
    /// recorded under its [`dnnf_core::block_profile_key`].
    ///
    /// Every other engine entry point is this one with its parts looked up:
    /// [`Executor::run_compiled`] and [`Executor::run`] take them from a
    /// [`CompiledModel`] (kernels and weight store carried by the model),
    /// [`Executor::run_plan`] builds them per call. Outputs are bit-identical
    /// for any store built from `graph`, packed or unpacked, cached or fresh.
    /// Each owned input is cloned into a shared handle once per run; `Arc`
    /// inputs are shared as they are.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if inputs are missing/mismatched or a
    /// kernel fails.
    pub fn run_engine<T>(
        &self,
        graph: &Graph,
        plan: &FusionPlan,
        engine: &CompiledPlan,
        store: &WeightStore,
        inputs: &HashMap<String, T>,
        mut profile: Option<&mut ProfileDatabase>,
    ) -> Result<ExecutionReport, RuntimeError>
    where
        T: Borrow<Tensor> + Clone + Into<Arc<Tensor>>,
    {
        // Slot-indexed boundary storage for inputs and block outputs; weights
        // stay in `store` and are looked up there.
        let mut env: Vec<Option<Arc<Tensor>>> = vec![None; graph.value_count()];
        let binding = requested_binding(graph, inputs)?;
        for &input_id in graph.inputs() {
            let tensor = checked_input(graph, binding, input_id, inputs)?;
            env[input_id.index()] = Some(tensor.clone().into());
        }
        let mut arena = TensorArena::new();
        let workers = self.options.pool();

        for (&block_idx, dead) in plan.order().iter().zip(plan.deaths()) {
            let started = profile.as_ref().map(|_| std::time::Instant::now());
            let produced = engine
                .kernel(block_idx)
                .run(
                    graph,
                    &mut |v| env[v.index()].clone().or_else(|| store.get(v).cloned()),
                    store.packed(),
                    &mut arena,
                    workers,
                )
                .map_err(RuntimeError::Core)?;
            if let (Some(db), Some(started)) = (profile.as_deref_mut(), started) {
                let micros = started.elapsed().as_secs_f64() * 1e6;
                let nodes = &plan.blocks()[block_idx].nodes;
                db.record(dnnf_core::block_profile_key(graph, nodes), micros);
            }
            for (out_id, tensor) in produced {
                env[out_id.index()] = Some(Arc::new(tensor));
            }
            for &value in dead {
                if let Some(handle) = env[value.index()].take() {
                    if let Ok(tensor) = Arc::try_unwrap(handle) {
                        arena.recycle(tensor.into_vec());
                    }
                }
            }
        }

        // Graph outputs are never listed dead, so each produced slot holds
        // the only reference and unwraps without copying the tensor; an
        // output that is a weight (or an input) is copied out.
        let outputs = collect_outputs(graph, |id| {
            env[id.index()]
                .take()
                .or_else(|| store.get(id).cloned())
                .map(|handle| Arc::try_unwrap(handle).unwrap_or_else(|rc| (*rc).clone()))
        })?;
        Ok(ExecutionReport { outputs })
    }

    /// Runs a graph under an explicit fusion plan with the per-operator
    /// reference interpreter: every node executes its reference kernel and
    /// every boundary tensor is cloned into the environment. Slower than
    /// [`Executor::run_plan`] by construction — this path *defines* the
    /// semantics the engine must reproduce.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if inputs are missing/mismatched or a
    /// kernel fails.
    pub fn run_plan_reference(
        &self,
        graph: &Graph,
        plan: &FusionPlan,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<ExecutionReport, RuntimeError> {
        // Environment of boundary tensors: inputs and block outputs. Weights
        // come from a fresh, unpacked store, uncached like everything here.
        let store = WeightStore::build_unpacked(graph);
        let mut env: HashMap<ValueId, Tensor> = HashMap::new();
        let binding = requested_binding(graph, inputs)?;
        for &input_id in graph.inputs() {
            let tensor = checked_input(graph, binding, input_id, inputs)?;
            env.insert(input_id, tensor.clone());
        }

        for &block_idx in plan.order() {
            let block = &plan.blocks()[block_idx];
            let mut scratch: HashMap<ValueId, Tensor> = HashMap::new();
            for &node_id in &block.nodes {
                let node = graph.node(node_id);
                let input_tensors: Vec<&Tensor> = node
                    .inputs
                    .iter()
                    .map(|v| {
                        let weight = || store.get(*v).map(AsRef::as_ref);
                        scratch
                            .get(v)
                            .or_else(|| env.get(v))
                            .or_else(weight)
                            .ok_or_else(|| {
                                RuntimeError::Graph(dnnf_graph::GraphError::Invalid {
                                    reason: format!(
                                        "value `{}` not available for node `{}`",
                                        graph.value(*v).name,
                                        node.name
                                    ),
                                })
                            })
                    })
                    .collect::<Result<_, _>>()?;
                let outputs = execute(node.op, &node.attrs, &input_tensors)?;
                for (&out_id, tensor) in node.outputs.iter().zip(outputs) {
                    scratch.insert(out_id, tensor);
                }
            }
            // Promote escaping outputs to the environment; everything else in
            // `scratch` is dropped — it was never "materialized".
            for out_id in block.boundary.writes() {
                if let Some(t) = scratch.get(&out_id) {
                    env.insert(out_id, t.clone());
                }
            }
        }

        let outputs = collect_outputs(graph, |id| {
            env.get(&id)
                .or_else(|| store.get(id).map(AsRef::as_ref))
                .cloned()
        })?;
        Ok(ExecutionReport { outputs })
    }
}

/// The graph's outputs, in order, out of `get`.
fn collect_outputs(
    graph: &Graph,
    mut get: impl FnMut(ValueId) -> Option<Tensor>,
) -> Result<Vec<Tensor>, RuntimeError> {
    graph
        .outputs()
        .iter()
        .map(|&id| {
            get(id).ok_or_else(|| {
                RuntimeError::Graph(dnnf_graph::GraphError::Invalid {
                    reason: "graph output was never produced".into(),
                })
            })
        })
        .collect()
}

/// The graph input `input_id` out of `inputs`, checked against the graph's
/// shape for it with the symbolic axes `binding` names substituted: the
/// leading axis for `batch`, the input's marked axis for `seq`.
fn checked_input<'a, T: Borrow<Tensor>>(
    graph: &Graph,
    binding: DimBinding,
    input_id: ValueId,
    inputs: &'a HashMap<String, T>,
) -> Result<&'a T, RuntimeError> {
    let value = graph.value(input_id);
    let tensor = inputs
        .get(&value.name)
        .ok_or_else(|| RuntimeError::MissingInput {
            name: value.name.clone(),
        })?;
    let seq_axis = graph.seq_axis(input_id);
    let expected = |axis: usize| match (binding.batch, binding.seq) {
        (Some(batch), _) if axis == 0 => batch,
        (_, Some(seq)) if seq_axis == Some(axis) => seq,
        _ => value.shape.dim(axis),
    };
    let actual = tensor.borrow().shape().dims();
    let rank = value.shape.rank();
    if actual.len() != rank || (0..rank).any(|axis| actual[axis] != expected(axis)) {
        return Err(RuntimeError::InputShapeMismatch {
            name: value.name.clone(),
            expected: (0..rank).map(expected).collect(),
            actual: actual.to_vec(),
        });
    }
    Ok(tensor)
}

/// The symbolic dimensions the provided inputs request of `graph`: the
/// leading dimension for batch, the marked axes for sequence length. Only
/// dimensions the graph itself is symbolic in (its [`Graph::binding`]) are
/// read — a graph whose own inputs do not share a leading dimension has no
/// batch to request. A missing input, or one whose rank disagrees with the
/// graph, yields the graph's own binding, so the input check reports it
/// precisely; two inputs disagreeing on a dimension is an error.
fn requested_binding<T: Borrow<Tensor>>(
    graph: &Graph,
    inputs: &HashMap<String, T>,
) -> Result<DimBinding, RuntimeError> {
    let native = graph.binding();
    let mut requested = DimBinding::default();
    for &input_id in graph.inputs() {
        let value = graph.value(input_id);
        let tensor = inputs.get(&value.name).map(Borrow::borrow);
        let Some(tensor) = tensor.filter(|t| t.shape().rank() == value.shape.rank()) else {
            return Ok(native);
        };
        let batch_axis = native.batch.map(|_| 0);
        let seq_axis = native.seq.and(graph.seq_axis(input_id));
        for (axis, slot) in [
            (batch_axis, &mut requested.batch),
            (seq_axis, &mut requested.seq),
        ] {
            let Some(axis) = axis else { continue };
            let dim = tensor.shape().dim(axis);
            let prev = *slot.get_or_insert(dim);
            if prev != dim {
                let mut expected = value.shape.dims().to_vec();
                expected[axis] = prev;
                return Err(RuntimeError::InputShapeMismatch {
                    name: value.name.clone(),
                    expected,
                    actual: tensor.shape().dims().to_vec(),
                });
            }
        }
    }
    Ok(requested)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnf_core::{Compiler, CompilerOptions};
    use dnnf_ops::{Attrs, OpKind};
    use dnnf_tensor::Shape;

    /// Conv -> bias Add -> Relu -> MaxPool -> Flatten -> MatMul network.
    fn small_cnn() -> Graph {
        let mut g = Graph::new("small-cnn");
        let x = g.add_input("x", Shape::new(vec![1, 3, 8, 8]));
        let w = g.add_weight("conv.w", Shape::new(vec![4, 3, 3, 3]));
        let conv = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w],
                "conv",
            )
            .unwrap()[0];
        let b = g.add_weight("conv.b", Shape::new(vec![1, 4, 1, 1]));
        let bias = g
            .add_op(OpKind::Add, Attrs::new(), &[conv, b], "bias")
            .unwrap()[0];
        let relu = g
            .add_op(OpKind::Relu, Attrs::new(), &[bias], "relu")
            .unwrap()[0];
        let pool = g
            .add_op(
                OpKind::MaxPool,
                Attrs::new()
                    .with_ints("kernel_shape", vec![2, 2])
                    .with_ints("strides", vec![2, 2]),
                &[relu],
                "pool",
            )
            .unwrap()[0];
        let flat = g
            .add_op(
                OpKind::Flatten,
                Attrs::new().with_int("axis", 1),
                &[pool],
                "flatten",
            )
            .unwrap()[0];
        let fc = g.add_weight("fc.w", Shape::new(vec![64, 10]));
        let out = g
            .add_op(OpKind::MatMul, Attrs::new(), &[flat, fc], "fc")
            .unwrap()[0];
        g.mark_output(out);
        g
    }

    fn inputs_for(graph: &Graph) -> HashMap<String, Tensor> {
        graph
            .inputs()
            .iter()
            .map(|&id| {
                let v = graph.value(id);
                (v.name.clone(), Tensor::random(v.shape.clone(), 42))
            })
            .collect()
    }

    #[test]
    fn threaded_execution_is_bit_identical_to_serial() {
        let g = small_cnn();
        let inputs = inputs_for(&g);
        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&g).unwrap();
        let serial =
            Executor::new(DeviceSpec::snapdragon_865_cpu()).with_options(ExecOptions::serial());
        let base = serial.run_compiled(&compiled, &inputs).unwrap();
        for threads in [2, 8] {
            // min_parallel_work = 0 forces the parallel partitioning even on
            // this small model.
            let threaded = serial.clone().with_options(ExecOptions {
                num_threads: threads,
                min_parallel_work: 0,
                ..ExecOptions::serial()
            });
            assert_eq!(threaded.options().num_threads, threads);
            let report = threaded.run_compiled(&compiled, &inputs).unwrap();
            for (a, b) in base.outputs.iter().zip(&report.outputs) {
                assert_eq!(
                    a.first_disagreement(b, 0.0),
                    None,
                    "threaded execution diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn force_scalar_execution_is_bit_identical() {
        let g = small_cnn();
        let inputs = inputs_for(&g);
        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&g).unwrap();
        let simd =
            Executor::new(DeviceSpec::snapdragon_865_cpu()).with_options(ExecOptions::serial());
        let base = simd.run_compiled(&compiled, &inputs).unwrap();
        let scalar = simd
            .clone()
            .with_options(ExecOptions::serial().scalar_kernels());
        assert!(scalar.options().force_scalar);
        let report = scalar.run_compiled(&compiled, &inputs).unwrap();
        for (a, b) in base.outputs.iter().zip(&report.outputs) {
            assert_eq!(
                a.first_disagreement(b, 0.0),
                None,
                "force_scalar changed output bits"
            );
        }
    }

    #[test]
    fn batched_execution_is_bit_identical_to_per_request_runs() {
        let g = small_cnn();
        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&g).unwrap();
        let executor = Executor::new(DeviceSpec::snapdragon_865_cpu());
        // One polymorphic plan serves several batch sizes.
        for batch in [1usize, 2, 5] {
            // Batch input: `batch` independent rows concatenated along dim 0.
            let per_row: Vec<Tensor> = (0..batch)
                .map(|i| Tensor::random(Shape::new(vec![1, 3, 8, 8]), 100 + i as u64))
                .collect();
            let mut data = Vec::new();
            for t in &per_row {
                data.extend_from_slice(t.data());
            }
            let batched: HashMap<String, Tensor> = [(
                "x".to_string(),
                Tensor::from_vec(Shape::new(vec![batch, 3, 8, 8]), data).unwrap(),
            )]
            .into();
            let report = executor.run(&compiled, &batched).unwrap();
            assert_eq!(report.outputs[0].shape().dims(), &[batch, 10]);
            // Each row is bit-identical to its own single-request run.
            for (i, row) in per_row.iter().enumerate() {
                let single: HashMap<String, Tensor> = [("x".to_string(), row.clone())].into();
                let direct = executor.run_compiled(&compiled, &single).unwrap();
                let got = &report.outputs[0].data()[i * 10..(i + 1) * 10];
                assert_eq!(
                    got,
                    direct.outputs[0].data(),
                    "batch {batch} row {i} diverged from the direct run"
                );
            }
        }
        // Inconsistent batch sizes across inputs are rejected up front.
        let mut two_inputs = Graph::new("two-in");
        let a = two_inputs.add_input("a", Shape::new(vec![1, 4]));
        let b = two_inputs.add_input("b", Shape::new(vec![1, 4]));
        let sum = two_inputs
            .add_op(OpKind::Add, Attrs::new(), &[a, b], "sum")
            .unwrap()[0];
        two_inputs.mark_output(sum);
        let compiled2 = Compiler::new(CompilerOptions::default())
            .compile(&two_inputs)
            .unwrap();
        let bad: HashMap<String, Tensor> = [
            ("a".to_string(), Tensor::zeros(Shape::new(vec![2, 4]))),
            ("b".to_string(), Tensor::zeros(Shape::new(vec![3, 4]))),
        ]
        .into();
        assert!(matches!(
            executor.run(&compiled2, &bad),
            Err(RuntimeError::InputShapeMismatch { .. })
        ));
    }

    #[test]
    fn fused_and_unfused_execution_agree_numerically() {
        let g = small_cnn();
        let inputs = inputs_for(&g);
        let executor = Executor::new(DeviceSpec::snapdragon_865_cpu());
        let unfused = executor.run_unfused(&g, &inputs).unwrap();

        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&g).unwrap();
        let fused = executor.run_compiled(&compiled, &inputs).unwrap();

        assert_eq!(unfused.outputs.len(), fused.outputs.len());
        for (a, b) in unfused.outputs.iter().zip(&fused.outputs) {
            assert!(a.allclose(b, 1e-4), "fusion changed the numerical result");
        }
    }

    #[test]
    fn engine_and_reference_interpreter_agree_on_the_same_plan() {
        // Same graph, same plan: the compiled engine must reproduce the
        // reference interpreter to within float-identical results.
        let g = small_cnn();
        let inputs = inputs_for(&g);
        let executor = Executor::new(DeviceSpec::snapdragon_865_cpu());
        let ecg = Ecg::new(g.clone());
        let plan = FusionPlan::singletons(&ecg);
        let engine = executor.run_plan(&g, &plan, &inputs).unwrap();
        let reference = executor.run_plan_reference(&g, &plan, &inputs).unwrap();
        for (a, b) in engine.outputs.iter().zip(&reference.outputs) {
            assert!(a.allclose(b, 0.0), "engine diverged from reference");
        }
    }

    #[test]
    fn fusion_reduces_latency_launches_and_memory_traffic() {
        let g = small_cnn();
        let executor = Executor::new(DeviceSpec::snapdragon_865_gpu());
        let (unfused, unfused_memory) = executor.estimate_unfused(&g);
        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&g).unwrap();
        let (fused, fused_memory) = executor.estimate_plan(compiled.graph(), &compiled.plan);

        assert!(fused.kernel_launches < unfused.kernel_launches);
        assert_eq!(
            fused.kernel_launches,
            compiled.plan.fused_layer_count() as u64
        );
        assert!(fused.memory_access_bytes < unfused.memory_access_bytes);
        assert!(fused.latency_us < unfused.latency_us);
        assert!(fused.peak_memory_bytes <= unfused.peak_memory_bytes);
        assert_eq!(fused.peak_memory_bytes, fused_memory.peak_bytes());
        assert_eq!(unfused.peak_memory_bytes, unfused_memory.peak_bytes());
        assert!(fused.utilization_percent >= unfused.utilization_percent);
    }

    #[test]
    fn cache_misses_drop_with_fusion() {
        let g = small_cnn();
        let executor = Executor::new(DeviceSpec::snapdragon_865_cpu());
        let (unfused, _) = executor.estimate_unfused(&g);
        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&g).unwrap();
        let (fused, _) = executor.estimate_plan(compiled.graph(), &compiled.plan);
        let unfused_l2: u64 = unfused.cache.level_misses.get(1).copied().unwrap_or(0);
        let fused_l2: u64 = fused.cache.level_misses.get(1).copied().unwrap_or(0);
        assert!(unfused_l2 > 0);
        assert!(fused_l2 <= unfused_l2);
    }

    #[test]
    fn missing_and_mismatched_inputs_are_rejected() {
        let g = small_cnn();
        let executor = Executor::new(DeviceSpec::snapdragon_865_cpu());
        let empty = HashMap::new();
        assert!(matches!(
            executor.run_unfused(&g, &empty),
            Err(RuntimeError::MissingInput { .. })
        ));
        let bad: HashMap<String, Tensor> =
            [("x".to_string(), Tensor::zeros(Shape::new(vec![2, 2])))].into();
        assert!(matches!(
            executor.run_unfused(&g, &bad),
            Err(RuntimeError::InputShapeMismatch { .. })
        ));
        // The engine path checks inputs the same way.
        let ecg = Ecg::new(g.clone());
        let plan = FusionPlan::singletons(&ecg);
        assert!(matches!(
            executor.run_plan(&g, &plan, &empty),
            Err(RuntimeError::MissingInput { .. })
        ));
    }

    #[test]
    fn estimates_without_cache_simulation_record_no_cache_accesses() {
        let g = small_cnn();
        let executor = Executor::new(DeviceSpec::snapdragon_865_cpu()).without_cache_simulation();
        let (counters, _) = executor.estimate_unfused(&g);
        assert!(counters.flops > 0 && counters.latency_us > 0.0);
        // Cache simulation disabled: no per-level counters recorded.
        assert!(counters.cache.level_accesses.iter().all(|&a| a == 0));
    }

    #[test]
    fn gpu_uses_fp16_traffic_accounting() {
        let g = small_cnn();
        let cpu = Executor::new(DeviceSpec::snapdragon_865_cpu()).without_cache_simulation();
        let gpu = Executor::new(DeviceSpec::snapdragon_865_gpu()).without_cache_simulation();
        let (cpu_counters, _) = cpu.estimate_unfused(&g);
        let (gpu_counters, _) = gpu.estimate_unfused(&g);
        assert_eq!(
            cpu_counters.memory_access_bytes,
            2 * gpu_counters.memory_access_bytes
        );
    }
}
