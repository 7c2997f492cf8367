//! Custom model fusion: walk through DNNFusion's individual phases on a
//! hand-built graph — ECG annotation, mapping-type analysis, graph
//! rewriting, fusion planning and code generation — the way a compiler
//! developer would debug a new model.
//!
//! Run with `cargo run --release --example custom_model_fusion`.

use std::error::Error;

use dnnfusion::core::exec::compile_block;
use dnnfusion::core::rewrite::RewriteEngine;
use dnnfusion::core::{analyze_pair, AnalyticLatencyModel, Ecg, FusionPlanner, FusionVerdict};
use dnnfusion::graph::Graph;
use dnnfusion::ops::{Attrs, MappingType, OpKind};
use dnnfusion::profiledb::ProfileDatabase;
use dnnfusion::tensor::Shape;

fn main() -> Result<(), Box<dyn Error>> {
    // A graph with a rewritable prefix (A⊙C + A⊙B) feeding a GEMM with a
    // transpose epilogue — the kind of mixed structure the paper targets.
    let mut graph = Graph::new("custom");
    let a = graph.add_input("A", Shape::new(vec![32, 32]));
    let b = graph.add_weight("B", Shape::new(vec![32, 32]));
    let c = graph.add_weight("C", Shape::new(vec![32, 32]));
    let ac = graph.add_op(OpKind::Mul, Attrs::new(), &[a, c], "ac")?[0];
    let ab = graph.add_op(OpKind::Mul, Attrs::new(), &[a, b], "ab")?[0];
    let sum = graph.add_op(OpKind::Add, Attrs::new(), &[ac, ab], "sum")?[0];
    let w = graph.add_weight("W", Shape::new(vec![32, 16]));
    let mm = graph.add_op(OpKind::MatMul, Attrs::new(), &[sum, w], "proj")?[0];
    let act = graph.add_op(OpKind::Gelu, Attrs::new(), &[mm], "gelu")?[0];
    let out = graph.add_op(
        OpKind::Transpose,
        Attrs::new().with_ints("perm", vec![1, 0]),
        &[act],
        "transpose",
    )?[0];
    graph.mark_output(out);

    // Phase 0: the mapping-type analysis that drives everything.
    println!("Table 3 spot checks:");
    for (first, second) in [
        (MappingType::OneToOne, MappingType::ManyToMany),
        (MappingType::ManyToMany, MappingType::ManyToMany),
        (MappingType::ManyToMany, MappingType::Shuffle),
    ] {
        let decision = analyze_pair(first, second);
        let verdict = match decision.verdict {
            FusionVerdict::Direct => "green",
            FusionVerdict::Profile => "yellow",
            FusionVerdict::Break => "red",
        };
        println!(
            "  {first} + {second} -> {} ({verdict})",
            decision.fused_type
        );
    }

    // Phase 1: graph rewriting.
    let engine = RewriteEngine::with_default_rules();
    let (rewritten, applied) = engine.run(&graph);
    println!(
        "\ngraph rewriting: {} -> {} operators",
        graph.node_count(),
        rewritten.node_count()
    );
    for rewrite in &applied {
        println!(
            "  applied {} ({:?}): saved {} FLOPs",
            rewrite.rule, rewrite.category, rewrite.flops_saved
        );
    }

    // Phase 2: ECG + fusion plan.
    let ecg = Ecg::new(rewritten);
    for node in ecg.graph().nodes() {
        println!(
            "  node `{}` [{}] mapping={} CIL={}",
            node.name,
            node.op,
            ecg.mapping_type(node.id),
            node.is_compute_intensive()
        );
    }
    let latency = AnalyticLatencyModel::default();
    let planner = FusionPlanner::new(&ecg, &latency);
    let mut db = ProfileDatabase::new();
    let plan = planner.plan(&mut db)?;
    println!("\nfusion plan: {} blocks", plan.fused_layer_count());

    // Phase 3: fused code generation — each block compiles to the kernel
    // the engine runs.
    for &id in plan.order() {
        let block = &plan.blocks()[id];
        println!(
            "\nblock {id} ({} ops, {} mapping, reads {} / writes {} values)",
            block.nodes.len(),
            block.mapping_type,
            block.boundary.reads().count(),
            block.boundary.writes().count()
        );
        print!("{}", compile_block(ecg.graph(), block).listing(ecg.graph()));
    }
    println!(
        "\nprofiling database now holds {} entries for future compilations",
        db.len()
    );
    Ok(())
}
