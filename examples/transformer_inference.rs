//! Transformer inference: compile DistilBERT with DNNFusion and inspect why
//! transformer models benefit so much — the long memory-intensive chains
//! (decomposed LayerNorm / GELU / Softmax) that fixed-pattern fusion cannot
//! touch collapse into a handful of fused operators.
//!
//! Run with `cargo run --release --example transformer_inference`.

use std::collections::HashMap;
use std::error::Error;

use dnnfusion::baselines::{BaselineFramework, PatternFuser};
use dnnfusion::core::{Compiler, CompilerOptions, Ecg};
use dnnfusion::models::{ModelKind, ModelScale};
use dnnfusion::runtime::Executor;
use dnnfusion::simdev::DeviceSpec;
use dnnfusion::tensor::Tensor;

fn main() -> Result<(), Box<dyn Error>> {
    let graph = ModelKind::DistilBert.build(ModelScale::tiny())?;
    let stats = graph.stats();
    println!("model `{}`: {}", graph.name(), stats);
    println!(
        "memory-intensive layers: {} of {} — the workload the paper says fixed patterns cannot cover\n",
        stats.memory_intensive_layers, stats.total_layers
    );

    // Fixed-pattern (TFLite-style) fusion.
    let ecg = Ecg::new(graph.clone());
    let tflite_plan = PatternFuser::for_framework(BaselineFramework::TfLite).plan(&ecg)?;

    // DNNFusion.
    let mut compiler = Compiler::new(CompilerOptions::default());
    let compiled = compiler.compile(&graph)?;

    println!(
        "fused layer count: TFLite-style {} vs DNNFusion {} ({}x vs {}x fusion rate)",
        tflite_plan.fused_layer_count(),
        compiled.stats.fused_layers,
        format_args!(
            "{:.1}",
            graph.node_count() as f64 / tflite_plan.fused_layer_count() as f64
        ),
        format_args!("{:.1}", compiled.stats.fusion_rate()),
    );
    println!(
        "graph rewriting applied {} rewrites ({} FLOPs saved), e.g. the LayerNorm chains",
        compiled.stats.rewrites.len(),
        compiled
            .stats
            .original_flops
            .saturating_sub(compiled.stats.optimized_flops),
    );

    // Show the kernel of the largest fused operator DNNFusion created.
    let biggest = compiled
        .plan
        .blocks()
        .iter()
        .max_by_key(|b| b.nodes.len())
        .expect("non-empty");
    print!(
        "\nlargest fused operator folds {} operators ({} mapping):\n{}",
        biggest.nodes.len(),
        biggest.mapping_type,
        compiled.engine.kernel(biggest.id).listing(compiled.graph())
    );

    // Run both ways on the host and check the outputs agree; then ask the
    // simulated CPU what each schedule would cost on the phone.
    let executor = Executor::new(DeviceSpec::snapdragon_865_cpu()).without_cache_simulation();
    let token_ids: HashMap<String, Tensor> = graph
        .inputs()
        .iter()
        .map(|&id| {
            let v = graph.value(id);
            (v.name.clone(), Tensor::zeros(v.shape.clone()))
        })
        .collect();
    let unfused = executor.run_unfused(&graph, &token_ids)?;
    let fused = executor.run_compiled(&compiled, &token_ids)?;
    assert!(unfused.outputs[0].allclose(&fused.outputs[0], 1e-3));
    let (unfused, _) = executor.estimate_unfused(&graph);
    let (fused, _) = executor.estimate_plan(compiled.graph(), &compiled.plan);
    println!(
        "\nunfused: {:.2} ms, {:.1} MiB traffic  |  DNNFusion: {:.2} ms, {:.1} MiB traffic",
        unfused.latency_us / 1e3,
        unfused.memory_access_mib(),
        fused.latency_us / 1e3,
        fused.memory_access_mib()
    );
    Ok(())
}
