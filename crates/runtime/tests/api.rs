//! Integration tests exercising the `dnnf-runtime` public re-export surface:
//! the executor's run/estimate entry points, the memory planner, the weight
//! materializer and the device latency model, driven end-to-end on a small
//! hand-built graph.

use std::collections::HashMap;

use dnnf_core::{boundary_of, Compiler, CompilerOptions, Ecg, FusionPlan};
use dnnf_graph::Graph;
use dnnf_ops::{Attrs, OpKind};
use dnnf_runtime::{materialize_weights, DeviceLatencyModel, Executor, MemoryPlan};
use dnnf_simdev::DeviceSpec;
use dnnf_tensor::{Shape, Tensor};

/// Conv anchor followed by an element-wise tail and a residual add.
fn small_graph() -> Graph {
    let mut g = Graph::new("runtime_api");
    let x = g.add_input("x", Shape::new(vec![1, 4, 6, 6]));
    let w = g.add_weight("w", Shape::new(vec![4, 4, 3, 3]));
    let conv = g
        .add_op(
            OpKind::Conv,
            Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
            &[x, w],
            "conv",
        )
        .unwrap()[0];
    let relu = g
        .add_op(OpKind::Relu, Attrs::new(), &[conv], "relu")
        .unwrap()[0];
    let sig = g
        .add_op(OpKind::Sigmoid, Attrs::new(), &[relu], "sig")
        .unwrap()[0];
    let res = g
        .add_op(OpKind::Add, Attrs::new(), &[sig, x], "res")
        .unwrap()[0];
    g.mark_output(res);
    g
}

fn inputs() -> HashMap<String, Tensor> {
    [(
        "x".to_string(),
        Tensor::random(Shape::new(vec![1, 4, 6, 6]), 11),
    )]
    .into()
}

#[test]
fn run_compiled_matches_run_unfused_and_launches_fewer_kernels() {
    let graph = small_graph();
    let executor = Executor::new(DeviceSpec::snapdragon_865_cpu());
    let unfused = executor.run_unfused(&graph, &inputs()).unwrap();
    let compiled = Compiler::new(CompilerOptions::default())
        .compile(&graph)
        .unwrap();
    let fused = executor.run_compiled(&compiled, &inputs()).unwrap();
    assert_eq!(unfused.outputs.len(), 1);
    assert!(unfused.outputs[0].allclose(&fused.outputs[0], 1e-4));
    assert!(compiled.plan.fused_layer_count() < graph.node_count());
}

#[test]
fn without_cache_simulation_only_drops_the_cache_statistics() {
    let graph = small_graph();
    let with_cache = Executor::new(DeviceSpec::snapdragon_865_cpu());
    let without_cache = Executor::new(DeviceSpec::snapdragon_865_cpu()).without_cache_simulation();
    assert_eq!(with_cache.device(), without_cache.device());
    let a = with_cache.run_unfused(&graph, &inputs()).unwrap();
    let b = without_cache.run_unfused(&graph, &inputs()).unwrap();
    assert_eq!(a.outputs, b.outputs, "runs simulate nothing either way");
    let (simulated, memory) = with_cache.estimate_unfused(&graph);
    let (plain, plain_memory) = without_cache.estimate_unfused(&graph);
    assert!(simulated.cache.level_accesses.iter().any(|&n| n > 0));
    assert!(plain.cache.level_accesses.iter().all(|&n| n == 0));
    assert_eq!(simulated.latency_us, plain.latency_us);
    assert_eq!(memory, plain_memory);
}

#[test]
fn estimates_count_one_launch_per_block_and_less_traffic_when_fused() {
    let graph = small_graph();
    let executor = Executor::new(DeviceSpec::snapdragon_865_cpu());
    let (unfused_counters, unfused_memory) = executor.estimate_unfused(&graph);
    assert_eq!(unfused_counters.kernel_launches, graph.node_count() as u64);
    assert_eq!(
        unfused_counters.peak_memory_bytes,
        unfused_memory.peak_bytes()
    );

    let compiled = Compiler::new(CompilerOptions::default())
        .compile(&graph)
        .unwrap();
    let (fused_counters, fused_memory) = executor.estimate_plan(compiled.graph(), &compiled.plan);
    assert_eq!(
        fused_counters.kernel_launches,
        compiled.plan.fused_layer_count() as u64
    );
    assert!(fused_counters.kernel_launches < unfused_counters.kernel_launches);
    assert!(
        fused_counters.memory_access_bytes <= unfused_counters.memory_access_bytes,
        "fusion must not increase boundary traffic"
    );
    assert!(fused_memory.peak_bytes() <= unfused_memory.peak_bytes());
    assert!(fused_counters.latency_us > 0.0 && unfused_counters.latency_us > 0.0);
}

#[test]
fn run_plan_accepts_an_explicit_plan_and_rejects_missing_inputs() {
    let graph = small_graph();
    let executor = Executor::new(DeviceSpec::snapdragon_865_cpu());
    let ecg = Ecg::new(graph.clone());
    let singletons = FusionPlan::singletons(&ecg);
    let report = executor.run_plan(&graph, &singletons, &inputs()).unwrap();
    let unfused = executor.run_unfused(&graph, &inputs()).unwrap();
    assert_eq!(report.outputs, unfused.outputs);

    let err = executor.run_plan(&graph, &singletons, &HashMap::new());
    assert!(
        err.is_err(),
        "missing inputs must be a runtime error, not a panic"
    );
}

#[test]
fn memory_plan_accounts_for_residents_and_intermediates() {
    let graph = small_graph();
    let ecg = Ecg::new(graph.clone());
    let plan = FusionPlan::singletons(&ecg);
    let order = plan.execution_order(&graph);
    let memory = MemoryPlan::build(&graph, &plan, &order, 4);
    assert!(memory.resident_bytes > 0, "weights and inputs are resident");
    assert!(
        memory.peak_intermediate_bytes > 0,
        "singleton execution materializes intermediates"
    );
    assert_eq!(
        memory.peak_bytes(),
        memory.resident_bytes + memory.peak_intermediate_bytes
    );
    assert!(memory.boundary_traffic_bytes > 0);
    assert!(memory.materialized_values > 0);
}

#[test]
fn materialize_weights_is_deterministic_and_covers_every_weight() {
    let graph = small_graph();
    let first = materialize_weights(&graph);
    let second = materialize_weights(&graph);
    let weight_count = graph.values().filter(|v| v.is_weight()).count();
    assert_eq!(first.len(), weight_count);
    for (id, tensor) in &first {
        assert_eq!(tensor.shape(), &graph.value(*id).shape);
        assert_eq!(
            tensor, &second[id],
            "weight data must be reproducible across calls"
        );
    }
}

#[test]
fn engine_and_reference_paths_agree_on_the_same_plan() {
    let graph = small_graph();
    let executor = Executor::new(DeviceSpec::snapdragon_865_cpu());
    let compiled = Compiler::new(CompilerOptions::default())
        .compile(&graph)
        .unwrap();
    let engine = executor.run_compiled(&compiled, &inputs()).unwrap();
    let reference = executor
        .run_plan_reference(compiled.graph(), &compiled.plan, &inputs())
        .unwrap();
    for (a, b) in engine.outputs.iter().zip(&reference.outputs) {
        assert!(
            a.allclose(b, 1e-5),
            "engine must reproduce reference semantics"
        );
    }
}

#[test]
fn repeated_engine_runs_are_deterministic_despite_buffer_reuse() {
    // The arena recycles buffers across blocks; stale data must never leak
    // into results, so back-to-back runs are bit-identical.
    let graph = small_graph();
    let executor = Executor::new(DeviceSpec::snapdragon_865_cpu());
    let compiled = Compiler::new(CompilerOptions::default())
        .compile(&graph)
        .unwrap();
    let first = executor.run_compiled(&compiled, &inputs()).unwrap();
    let second = executor.run_compiled(&compiled, &inputs()).unwrap();
    assert_eq!(first.outputs, second.outputs);
}

#[test]
fn memory_plan_lifetimes_cover_every_materialized_value() {
    let graph = small_graph();
    let ecg = Ecg::new(graph.clone());
    let plan = FusionPlan::singletons(&ecg);
    let order = plan.execution_order(&graph);
    let memory = MemoryPlan::build(&graph, &plan, &order, 4);
    assert_eq!(memory.lifetimes.len(), memory.materialized_values);
    assert!(memory
        .lifetimes
        .iter()
        .all(|l| l.birth <= l.death && l.death < order.len()));
}

#[test]
fn device_latency_model_describes_block_work_faithfully() {
    let graph = small_graph();
    let model = DeviceLatencyModel::new(DeviceSpec::snapdragon_865_cpu());
    assert!(model.cost_model().spec().flops_per_us() > 0.0);

    let all_nodes: Vec<_> = graph.nodes().map(|n| n.id).collect();
    let fused_work = model.block_work(&graph, &all_nodes, &boundary_of(&graph, &all_nodes));
    assert!(
        fused_work.has_compute_anchor,
        "the conv is a Many-to-Many anchor"
    );
    assert!(fused_work.flops > 0);
    assert!(fused_work.output_elems > 0);

    // Summing per-node boundary elements over-counts exactly the tensors
    // fusion keeps internal, so the fused block must touch less memory.
    let per_node: u64 = all_nodes
        .iter()
        .map(|&n| {
            model
                .block_work(&graph, &[n], &boundary_of(&graph, &[n]))
                .boundary_elems
        })
        .sum();
    assert!(fused_work.boundary_elems < per_node);
}
