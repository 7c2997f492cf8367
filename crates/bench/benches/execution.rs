//! Criterion benchmarks of actual (reference-kernel) execution with and
//! without fusion, plus the counter-estimation path used by the table
//! harness. The wall-clock ratio between `fused` and `unfused` reflects the
//! interpreter's elimination of intermediate materialization; the modeled
//! latency ratios for the full models are produced by `paper table6`
//! instead.

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dnnf_core::{Compiler, CompilerOptions};
use dnnf_graph::Graph;
use dnnf_models::{ModelKind, ModelScale};
use dnnf_runtime::Executor;
use dnnf_simdev::DeviceSpec;
use dnnf_tensor::Tensor;

fn input_map(graph: &Graph) -> HashMap<String, Tensor> {
    graph
        .inputs()
        .iter()
        .map(|&id| {
            let v = graph.value(id);
            (v.name.clone(), Tensor::random(v.shape.clone(), 7))
        })
        .collect()
}

fn bench_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("execution");
    group.sample_size(10);
    let device = DeviceSpec::snapdragon_865_cpu();
    for kind in [ModelKind::Vgg16, ModelKind::TinyBert] {
        let graph = kind.build(ModelScale::tiny()).expect("model builds");
        let inputs = input_map(&graph);
        let executor = Executor::new(device.clone()).without_cache_simulation();
        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&graph).expect("compiles");

        group.bench_with_input(BenchmarkId::new("unfused", kind.name()), &graph, |b, g| {
            b.iter(|| executor.run_unfused(g, &inputs).expect("runs"));
        });
        group.bench_function(BenchmarkId::new("fused", kind.name()), |b| {
            b.iter(|| executor.run_compiled(&compiled, &inputs).expect("runs"));
        });
        group.bench_function(BenchmarkId::new("estimate", kind.name()), |b| {
            b.iter(|| executor.estimate_plan(compiled.ecg.graph(), &compiled.plan));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_execution);
criterion_main!(benches);
