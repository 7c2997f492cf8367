//! Integration tests exercising the `dnnf-baselines` public re-export
//! surface: every framework's pattern fuser produces a valid plan on a
//! representative graph, and the TASO-like pass preserves graph structure.

use dnnf_baselines::{taso_optimize, BaselineFramework, PatternConfig, PatternFuser};
use dnnf_core::{Ecg, FusionPlan};
use dnnf_graph::Graph;
use dnnf_ops::{Attrs, OpKind};
use dnnf_tensor::Shape;

/// A Conv → Add(bias) → ReLU → Sigmoid → Tanh chain: the prefix is the
/// pattern every fixed-pattern baseline recognises, the suffix separates the
/// frameworks that fuse trailing element-wise chains from those that don't.
fn conv_chain() -> Graph {
    let mut g = Graph::new("conv_chain");
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
    let b = g.add_weight("b", Shape::new(vec![1, 4, 1, 1]));
    let biased = g
        .add_op(OpKind::Add, Attrs::new(), &[conv, b], "bias")
        .unwrap()[0];
    let relu = g
        .add_op(OpKind::Relu, Attrs::new(), &[biased], "relu")
        .unwrap()[0];
    let sig = g
        .add_op(OpKind::Sigmoid, Attrs::new(), &[relu], "sig")
        .unwrap()[0];
    let tanh = g
        .add_op(OpKind::Tanh, Attrs::new(), &[sig], "tanh")
        .unwrap()[0];
    g.mark_output(tanh);
    g
}

#[test]
fn every_framework_produces_a_valid_plan() {
    let graph = conv_chain();
    let ecg = Ecg::new(graph.clone());
    let unfused_blocks = FusionPlan::singletons(&ecg).fused_layer_count();
    for &fw in BaselineFramework::all() {
        let plan = PatternFuser::for_framework(fw).plan(&ecg).unwrap();
        assert!(
            plan.fused_layer_count() <= unfused_blocks,
            "{fw}: pattern fusion must never produce more blocks than unfused execution"
        );
        assert!(
            plan.fused_layer_count() >= 1,
            "{fw}: plan must cover the graph"
        );
    }
}

#[test]
fn every_framework_fuses_the_conv_bias_relu_prefix() {
    let graph = conv_chain();
    let ecg = Ecg::new(graph.clone());
    let unfused_blocks = FusionPlan::singletons(&ecg).fused_layer_count();
    for &fw in BaselineFramework::all() {
        let plan = PatternFuser::for_framework(fw).plan(&ecg).unwrap();
        // Conv+bias+activation is the one pattern all four frameworks share.
        assert!(
            plan.fused_layer_count() < unfused_blocks,
            "{fw}: expected at least the Conv+Add+ReLU pattern to fuse"
        );
        assert!(
            plan.multi_op_blocks() >= 1,
            "{fw}: expected a multi-operator block"
        );
    }
}

#[test]
fn framework_metadata_is_consistent() {
    assert_eq!(BaselineFramework::all().len(), 4);
    for &fw in BaselineFramework::all() {
        assert!(!fw.name().is_empty());
        assert_eq!(format!("{fw}"), fw.name());
        // `PatternFuser::for_framework` must agree with the standalone config
        // constructor it is documented to wrap.
        let via_fuser = PatternFuser::for_framework(fw);
        let via_config = PatternFuser::new(PatternConfig::for_framework(fw));
        assert_eq!(via_fuser.config(), via_config.config());
    }
}

#[test]
fn taso_pass_preserves_interface_and_reports_rewrites() {
    let graph = conv_chain();
    let (optimized, rewrites) = taso_optimize(&graph);
    assert_eq!(optimized.inputs().len(), graph.inputs().len());
    assert_eq!(optimized.outputs().len(), graph.outputs().len());
    // A plain conv chain offers no substitution opportunities, so the pass
    // must leave it alone rather than inventing rewrites.
    assert_eq!(rewrites, 0);
    assert_eq!(optimized.node_count(), graph.node_count());
}
