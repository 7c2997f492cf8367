//! Property-based integration tests: random element-wise/conv graphs are
//! generated, compiled with DNNFusion, and fused execution is checked
//! against unfused execution; fusion plans from random pattern sets must
//! always stay valid.

use std::collections::HashMap;

use dnnfusion::core::{Compiler, CompilerOptions};
use dnnfusion::graph::Graph;
use dnnfusion::ops::{Attrs, OpKind};
use dnnfusion::runtime::Executor;
use dnnfusion::simdev::DeviceSpec;
use dnnfusion::tensor::{Shape, Tensor};
use proptest::prelude::*;

/// A random chain of unary element-wise operators with occasional residual
/// adds and an optional convolution anchor in the middle.
fn random_graph(ops: &[u8], with_conv: bool) -> Graph {
    let unaries = [
        OpKind::Relu,
        OpKind::Sigmoid,
        OpKind::Tanh,
        OpKind::Abs,
        OpKind::Softplus,
        OpKind::HardSwish,
    ];
    let mut g = Graph::new("random");
    let input = g.add_input("x", Shape::new(vec![1, 4, 6, 6]));
    let mut current = input;
    let mut residual = input;
    for (i, &op_idx) in ops.iter().enumerate() {
        let op = unaries[op_idx as usize % unaries.len()];
        current = g
            .add_op(op, Attrs::new(), &[current], format!("u{i}"))
            .unwrap()[0];
        if op_idx % 4 == 0 {
            // Residual connection back to an earlier value.
            current = g
                .add_op(
                    OpKind::Add,
                    Attrs::new(),
                    &[current, residual],
                    format!("res{i}"),
                )
                .unwrap()[0];
            residual = current;
        }
        if with_conv && i == ops.len() / 2 {
            let w = g.add_weight(format!("w{i}"), Shape::new(vec![4, 4, 3, 3]));
            current = g
                .add_op(
                    OpKind::Conv,
                    Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                    &[current, w],
                    format!("conv{i}"),
                )
                .unwrap()[0];
        }
    }
    g.mark_output(current);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_execution_is_equivalent_on_random_graphs(
        ops in prop::collection::vec(0u8..24, 2..10),
        with_conv in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let graph = random_graph(&ops, with_conv);
        let inputs: HashMap<String, Tensor> =
            [("x".to_string(), Tensor::random(Shape::new(vec![1, 4, 6, 6]), seed))].into();
        let executor = Executor::new(DeviceSpec::snapdragon_865_cpu());
        let unfused = executor.run_unfused(&graph, &inputs).unwrap();
        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&graph).unwrap();
        let fused = executor.run_compiled(&compiled, &inputs).unwrap();
        prop_assert!(unfused.outputs[0].allclose(&fused.outputs[0], 1e-3));
        // Fusion must never increase the number of kernels.
        let (fused_counters, _) = executor.estimate_plan(compiled.graph(), &compiled.plan);
        let (unfused_counters, _) = executor.estimate_unfused(&graph);
        prop_assert!(fused_counters.kernel_launches <= unfused_counters.kernel_launches);
    }

    #[test]
    fn fusion_rate_and_irs_reduction_are_monotone_in_chain_length(
        len in 3usize..12,
        seed in 0u64..100,
    ) {
        let ops: Vec<u8> = (0..len).map(|i| ((seed as usize + i) % 6) as u8).collect();
        let graph = random_graph(&ops, false);
        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&graph).unwrap();
        prop_assert!(compiled.stats.fused_layers <= compiled.stats.original_layers);
        prop_assert!(compiled.stats.fused_irs_bytes <= compiled.stats.original_irs_bytes);
        prop_assert!(compiled.stats.fusion_rate() >= 1.0);
    }
}
