//! Fixed-size probes of single layers, run after a traced workload on the
//! workload's own models: the per-block split of a run, the same engine
//! without fusion, the simulated-device accounting, weight packing, and the
//! anchor kernels against a measured host ceiling.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dnnf_core::{BufferPool, CompiledModel, Compiler, CompilerOptions};
use dnnf_graph::{Graph, NodeId, ValueId};
use dnnf_ops::simd::LANES;
use dnnf_ops::{execute_fast_into_packed, OpKind};
use dnnf_runtime::{MemoryPlan, TensorArena, WeightStore};
use dnnf_tensor::{Shape, Tensor};

use crate::engine::{bit_identical, exec_options, executor, Tally};
use crate::files::Rng;
use crate::stats;

/// A model under probe with one input set.
pub struct Probe<'a> {
    pub token: &'static str,
    pub model: &'a CompiledModel,
    /// The graph as loaded from its file, before any rewriting.
    pub source: &'a Graph,
    pub inputs: &'a HashMap<String, Tensor>,
}

/// Repeats `f` for about `budget`, at least 5 and at most 200 times, and
/// returns the median of the values it returns (milliseconds).
fn median_over(budget: Duration, mut f: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (start.elapsed() < budget && samples.len() < 200) {
        samples.push(f());
    }
    stats::median(&samples)
}

fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64() * 1e3)
}

/// A minimal walker over `plan.execution_order`: the executor's block loop
/// without its simulated-device accounting, clocking each
/// `FusedKernel::run`. Returns the graph outputs and the summed kernel
/// milliseconds; the outputs must be bit-identical to `run_compiled`'s.
pub fn walk_blocks(
    model: &CompiledModel,
    inputs: &HashMap<String, Tensor>,
) -> Result<(Vec<Tensor>, f64), String> {
    let graph = model.graph();
    let plan = &model.plan;
    let store = WeightStore::of_model(model);
    let order = plan.execution_order(graph);
    let mut env: Vec<Option<Arc<Tensor>>> = vec![None; graph.value_count()];
    for &id in graph.inputs() {
        let name = &graph.value(id).name;
        let tensor = inputs.get(name).ok_or(format!("missing input `{name}`"))?;
        env[id.index()] = Some(Arc::new(tensor.clone()));
    }
    for value in graph.values().filter(|v| v.is_weight()) {
        env[value.id.index()] = store.get(value.id).cloned();
    }
    // Recycle buffers at the memory plan's death positions, as the executor
    // does, so the kernels allocate the way they do in a real run.
    let memory = MemoryPlan::build(graph, plan, &order, 4);
    let mut deaths: Vec<Vec<ValueId>> = vec![Vec::new(); order.len()];
    for lifetime in &memory.lifetimes {
        if !graph.outputs().contains(&lifetime.value) {
            deaths[lifetime.death].push(lifetime.value);
        }
    }
    let mut arena = TensorArena::new();
    let workers = exec_options().pool();
    let mut kernel_ms = 0.0;
    for (pos, &block) in order.iter().enumerate() {
        let (produced, ms) = timed_ms(|| {
            model.engine.kernel(block).run(
                graph,
                &mut |v| env[v.index()].clone(),
                store.packed(),
                &mut arena,
                workers,
            )
        });
        kernel_ms += ms;
        for (id, tensor) in produced.map_err(|e| e.to_string())? {
            env[id.index()] = Some(Arc::new(tensor));
        }
        for &dead in &deaths[pos] {
            if let Some(Ok(tensor)) = env[dead.index()].take().map(Arc::try_unwrap) {
                arena.recycle(tensor.into_vec());
            }
        }
    }
    let outputs = graph
        .outputs()
        .iter()
        .map(|&id| {
            env[id.index()]
                .take()
                .map(|t| Arc::try_unwrap(t).unwrap_or_else(|rc| (*rc).clone()))
                .ok_or_else(|| "graph output was never produced".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((outputs, kernel_ms))
}

/// Every probe on a workload's models: the per-model rows and
/// `runtime.fusion_speedup` (Σ unfused-engine run ÷ Σ fused run, the same
/// engine on both sides), the per-workload sums, and the anchor kernels.
pub fn all(
    probes: &[Probe],
    layers: &mut BTreeMap<String, f64>,
    tally: &mut Tally,
) -> Result<(), String> {
    let (mut fused_ms, mut unfused_ms) = (0.0, 0.0);
    for probe in probes {
        let (run, unfused) = per_model(probe, layers, tally)?;
        fused_ms += run;
        unfused_ms += unfused;
    }
    layers.insert("runtime.fusion_speedup".into(), unfused_ms / fused_ms);
    per_workload(probes, layers);
    anchors(&probes.iter().map(|p| p.model).collect::<Vec<_>>(), layers);
    Ok(())
}

/// Per-model rows: `run_ms`, its split into `kernel_ms` and
/// `dispatch_overhead_ms`, `blocks`, and the same engine without fusion.
/// The three runs alternate, so a slow spell of the host falls on all of
/// them alike. Returns `(run_ms, run_unfused_engine_ms)` for the workload's
/// `fusion_speedup`.
fn per_model(
    probe: &Probe,
    layers: &mut BTreeMap<String, f64>,
    tally: &mut Tally,
) -> Result<(f64, f64), String> {
    let exec = executor();
    let reference = exec
        .run_compiled(probe.model, probe.inputs)
        .map_err(|e| e.to_string())?
        .outputs;
    // The paper's claim without the interpreter in the ratio: the same
    // engine and kernels, compiled with rewriting and fusion off.
    let unfused = Compiler::new(CompilerOptions::baseline())
        .compile(probe.source)
        .map_err(|e| e.to_string())?;

    let (mut run_ms, mut kernel_ms, mut unfused_ms) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while run_ms.len() < 5 || (start.elapsed() < Duration::from_millis(900) && run_ms.len() < 200) {
        run_ms.push(timed_ms(|| black_box(exec.run_compiled(probe.model, probe.inputs))).1);
        let (outputs, ms) = walk_blocks(probe.model, probe.inputs)
            .map_err(|e| format!("{}: block walker: {e}", probe.token))?;
        tally.check(bit_identical(&outputs, &reference));
        kernel_ms.push(ms);
        unfused_ms.push(timed_ms(|| black_box(exec.run_compiled(&unfused, probe.inputs))).1);
    }
    let (run_ms, kernel_ms, unfused_ms) = (
        stats::median(&run_ms),
        stats::median(&kernel_ms),
        stats::median(&unfused_ms),
    );

    let token = probe.token;
    layers.insert(format!("runtime.run_ms.{token}"), run_ms);
    layers.insert(format!("runtime.kernel_ms.{token}"), kernel_ms);
    layers.insert(
        format!("runtime.dispatch_overhead_ms.{token}"),
        run_ms - kernel_ms,
    );
    layers.insert(
        format!("runtime.blocks.{token}"),
        probe.model.plan.blocks().len() as f64,
    );
    layers.insert(format!("runtime.run_unfused_engine_ms.{token}"), unfused_ms);
    Ok((run_ms, unfused_ms))
}

/// Workload-level rows that sum over the models: weight-store build without
/// packing, packed panel count, and the simulated-device estimate.
fn per_workload(probes: &[Probe], layers: &mut BTreeMap<String, f64>) {
    let exec = executor();
    let budget = Duration::from_millis(100);
    let (mut unpacked_ms, mut panels, mut estimate_ms) = (0.0, 0usize, 0.0);
    for probe in probes {
        let graph = probe.model.graph();
        unpacked_ms += median_over(budget, || {
            timed_ms(|| black_box(WeightStore::build_unpacked(graph))).1
        });
        panels += WeightStore::of_model(probe.model).packed().len();
        estimate_ms += median_over(budget, || {
            timed_ms(|| black_box(exec.estimate_plan(graph, &probe.model.plan))).1
        });
    }
    layers.insert("runtime.weight_store_unpacked_ms".into(), unpacked_ms);
    layers.insert("runtime.packed_panels".into(), panels as f64);
    layers.insert("simdev.estimate_ms".into(), estimate_ms);
}

/// Peak single-thread arithmetic rate in GFLOP/s: independent multiply-then-
/// add chains over `LANES`-wide bundles, unfused like the kernels (which
/// never emit an FMA), enough chains in flight to hide the add latency.
pub fn host_peak_gflops() -> f64 {
    const CHAINS: usize = 8;
    const ITERS: usize = 2_000_000;
    let a = black_box([1.000_000_1f32; LANES]);
    let b = black_box([1e-9f32; LANES]);
    let mut best = 0.0f64;
    for _ in 0..5 {
        let mut acc = [[1.0f32; LANES]; CHAINS];
        let start = Instant::now();
        for _ in 0..ITERS {
            for chain in &mut acc {
                for lane in 0..LANES {
                    chain[lane] = chain[lane] * a[lane] + b[lane];
                }
            }
        }
        let seconds = start.elapsed().as_secs_f64();
        black_box(acc);
        best = best.max((2 * LANES * CHAINS * ITERS) as f64 / seconds / 1e9);
    }
    best
}

/// Sustained single-thread memory bandwidth in GB/s: the STREAM triad over
/// three 16 MB arrays, counting the three arrays' bytes once each.
pub fn host_stream_gbps() -> f64 {
    const N: usize = 4 << 20;
    let b = vec![1.0f32; N];
    let c = vec![2.0f32; N];
    let mut a = vec![0.0f32; N];
    let scale = black_box(3.0f32);
    let mut best = 0.0f64;
    for _ in 0..4 {
        let start = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + scale * z;
        }
        let seconds = start.elapsed().as_secs_f64();
        black_box(&a);
        best = best.max((3 * N * 4) as f64 / seconds / 1e9);
    }
    best
}

/// One anchor node to time in isolation.
struct Anchor<'a> {
    model: &'a CompiledModel,
    node: NodeId,
    flops: u64,
    bytes: u64,
}

fn node_shapes(graph: &Graph, ids: &[ValueId]) -> Vec<Shape> {
    ids.iter()
        .map(|&id| graph.value(id).shape.clone())
        .collect()
}

/// `ops.*` rows: the workload's three highest-FLOP anchor nodes (Conv,
/// MatMul, Gemm) run through the public fast-kernel entry point on their
/// real weights, with and without their prepacked panel. FLOPs come from
/// `dnnf_ops::flops`; bytes are **computed** from `dnnf_ops::bytes_accessed`,
/// not measured. Percentages are of [`host_peak_gflops`].
fn anchors(models: &[&CompiledModel], layers: &mut BTreeMap<String, f64>) {
    let peak = host_peak_gflops();
    layers.insert("host.peak_gflops".into(), peak);
    layers.insert("host.stream_gbps".into(), host_stream_gbps());

    let mut candidates: Vec<Anchor> = Vec::new();
    for &model in models {
        let graph = model.graph();
        for node in graph.nodes() {
            if !matches!(node.op, OpKind::Conv | OpKind::MatMul | OpKind::Gemm) {
                continue;
            }
            let ins = node_shapes(graph, &node.inputs);
            let outs = node_shapes(graph, &node.outputs);
            candidates.push(Anchor {
                model,
                node: node.id,
                flops: dnnf_ops::flops(node.op, &node.attrs, &ins, &outs),
                bytes: dnnf_ops::bytes_accessed(node.op, &node.attrs, &ins, &outs, 4),
            });
        }
    }
    candidates.sort_by_key(|a| std::cmp::Reverse(a.flops));
    candidates.truncate(3);

    // (flops, seconds) summed per row; a rate is Σ flops ÷ Σ seconds.
    let mut sums: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut conv_bytes = 0.0;
    let mut rng = Rng::new(1);
    for anchor in &candidates {
        let graph = anchor.model.graph();
        let node = graph.node(anchor.node);
        let store = WeightStore::of_model(anchor.model);
        let operands: Vec<Arc<Tensor>> = node
            .inputs
            .iter()
            .map(|&id| {
                store.get(id).cloned().unwrap_or_else(|| {
                    let shape = graph.value(id).shape.clone();
                    let data = (0..shape.numel()).map(|_| rng.unit() as f32).collect();
                    Arc::new(Tensor::from_vec(shape, data).expect("data sized from the shape"))
                })
            })
            .collect();
        let refs: Vec<&Tensor> = operands.iter().map(Arc::as_ref).collect();
        let out_shape = graph.value(node.outputs[0]).shape.clone();
        let mut out = vec![0.0f32; out_shape.numel()];
        let mut seconds = |panel: Option<&Tensor>| {
            median_over(Duration::from_millis(150), || {
                timed_ms(|| {
                    execute_fast_into_packed(
                        node.op,
                        &node.attrs,
                        &refs,
                        panel,
                        &out_shape,
                        &mut out,
                        exec_options().pool(),
                    )
                    .expect("anchor node runs");
                    black_box(&mut out);
                })
                .1
            }) / 1e3
        };
        let weight = node.inputs.get(1).copied();
        let (plain_row, packed_row, panel) = match node.op {
            OpKind::Conv => (
                "ops.conv_gflops",
                "ops.conv_packed_gflops",
                weight.and_then(|w| store.packed().conv_oc(w)),
            ),
            _ => (
                "ops.matmul_gflops",
                "ops.gemm_packed_gflops",
                weight.and_then(|w| store.packed().transposed_b(w)),
            ),
        };
        let flops = anchor.flops as f64;
        let mut add = |row: &'static str, secs: f64| {
            let sum = sums.entry(row).or_insert((0.0, 0.0));
            sum.0 += flops;
            sum.1 += secs;
        };
        let plain = seconds(None);
        add(plain_row, plain);
        let fastest = match panel {
            Some(panel) => {
                let packed = seconds(Some(panel.as_ref()));
                add(packed_row, packed);
                packed.min(plain)
            }
            None => plain,
        };
        if node.op == OpKind::Conv {
            conv_bytes += anchor.bytes as f64;
            add("conv fastest", fastest);
        } else {
            add("matmul fastest", fastest);
        }
    }
    let rate = |row: &str| {
        sums.get(row)
            .map_or(0.0, |&(flops, secs)| flops / secs / 1e9)
    };
    for row in [
        "ops.conv_gflops",
        "ops.conv_packed_gflops",
        "ops.matmul_gflops",
        "ops.gemm_packed_gflops",
    ] {
        layers.insert(row.into(), rate(row));
    }
    let conv_seconds = sums.get("conv fastest").map_or(0.0, |s| s.1);
    if conv_seconds > 0.0 {
        layers.insert("ops.conv_gbps".into(), conv_bytes / conv_seconds / 1e9);
    }
    layers.insert(
        "ops.conv_pct_peak".into(),
        100.0 * rate("conv fastest") / peak,
    );
    layers.insert(
        "ops.matmul_pct_peak".into(),
        100.0 * rate("matmul fastest") / peak,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::seeded_inputs;
    use dnnf_models::{ModelKind, ModelScale};

    #[test]
    fn block_walker_is_bit_identical_to_run_compiled() {
        let graph = ModelKind::Vgg16.build(ModelScale::tiny()).unwrap();
        let model = Compiler::new(CompilerOptions::default())
            .compile(&graph)
            .unwrap();
        let inputs = seeded_inputs(model.graph(), &mut Rng::new(3));
        let direct = executor().run_compiled(&model, &inputs).unwrap().outputs;
        let (walked, kernel_ms) = walk_blocks(&model, &inputs).unwrap();
        assert!(bit_identical(&walked, &direct));
        assert!(kernel_ms > 0.0);
        // A different input must change the outputs: the check can fail.
        let other = seeded_inputs(model.graph(), &mut Rng::new(4));
        let (moved, _) = walk_blocks(&model, &other).unwrap();
        assert!(!bit_identical(&moved, &direct));
    }
}
