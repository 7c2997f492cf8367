//! Quickstart: build a small CNN, compile it with DNNFusion, and compare the
//! fused execution against the unfused baseline.
//!
//! Run with `cargo run --release --example quickstart`.

use std::collections::HashMap;
use std::error::Error;

use dnnfusion::core::{Compiler, CompilerOptions};
use dnnfusion::graph::Graph;
use dnnfusion::ops::{Attrs, OpKind};
use dnnfusion::runtime::Executor;
use dnnfusion::simdev::DeviceSpec;
use dnnfusion::tensor::{Shape, Tensor};

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Build a computational graph: Conv -> bias -> ReLU -> MaxPool -> FC.
    let mut graph = Graph::new("quickstart-cnn");
    let image = graph.add_input("image", Shape::new(vec![1, 3, 16, 16]));
    let conv_w = graph.add_weight("conv.w", Shape::new(vec![8, 3, 3, 3]));
    let conv = graph.add_op(
        OpKind::Conv,
        Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
        &[image, conv_w],
        "conv",
    )?[0];
    let bias = graph.add_weight("conv.b", Shape::new(vec![1, 8, 1, 1]));
    let biased = graph.add_op(OpKind::Add, Attrs::new(), &[conv, bias], "bias")?[0];
    let relu = graph.add_op(OpKind::Relu, Attrs::new(), &[biased], "relu")?[0];
    let pool = graph.add_op(
        OpKind::MaxPool,
        Attrs::new()
            .with_ints("kernel_shape", vec![2, 2])
            .with_ints("strides", vec![2, 2]),
        &[relu],
        "pool",
    )?[0];
    let flat = graph.add_op(
        OpKind::Flatten,
        Attrs::new().with_int("axis", 1),
        &[pool],
        "flatten",
    )?[0];
    let fc_w = graph.add_weight("fc.w", Shape::new(vec![512, 10]));
    let logits = graph.add_op(OpKind::MatMul, Attrs::new(), &[flat, fc_w], "fc")?[0];
    let probs = graph.add_op(OpKind::Softmax, Attrs::new(), &[logits], "softmax")?[0];
    graph.mark_output(probs);
    println!("built `{}`: {}", graph.name(), graph.stats());

    // 2. Compile with DNNFusion.
    let mut compiler = Compiler::new(CompilerOptions::default());
    let compiled = compiler.compile(&graph)?;
    println!(
        "DNNFusion: {} layers -> {} fused operators (fusion rate {:.1}x), IRS {:.1} KiB -> {:.1} KiB",
        compiled.stats.original_layers,
        compiled.stats.fused_layers,
        compiled.stats.fusion_rate(),
        compiled.stats.original_irs_bytes as f64 / 1024.0,
        compiled.stats.fused_irs_bytes as f64 / 1024.0,
    );
    println!("\nthe compiled kernels, in execution order:");
    for &block in compiled.plan.order() {
        print!(
            "{}",
            compiled.engine.kernel(block).listing(compiled.graph())
        );
    }
    println!();

    // 3. Execute fused and unfused on this machine and check the outputs
    //    agree.
    let executor = Executor::new(DeviceSpec::snapdragon_865_cpu());
    let inputs: HashMap<String, Tensor> = [(
        "image".to_string(),
        Tensor::random(Shape::new(vec![1, 3, 16, 16]), 42),
    )]
    .into();
    let unfused = executor.run_unfused(&graph, &inputs)?;
    let fused = executor.run_compiled(&compiled, &inputs)?;
    assert!(unfused.outputs[0].allclose(&fused.outputs[0], 1e-4));

    // 4. Estimate both schedules on a simulated Snapdragon 865 CPU — no
    //    kernel runs; the numbers come from the device cost model.
    let (unfused, _) = executor.estimate_unfused(&graph);
    let (fused, _) = executor.estimate_plan(compiled.graph(), &compiled.plan);
    println!(
        "unfused: {:.1} µs, {} kernel launches  |  fused: {:.1} µs, {} kernel launches",
        unfused.latency_us, unfused.kernel_launches, fused.latency_us, fused.kernel_launches
    );
    println!("outputs agree — fusion changed the schedule, not the math.");
    Ok(())
}
