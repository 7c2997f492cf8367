//! The cross-run weight cache's contract:
//!
//! * [`WeightStore::of_model`] builds the store **once** per
//!   [`CompiledModel`] — repeated runs hand out the same `Arc` allocations
//!   (pointer identity, not just equality),
//! * concurrent executors running the same model share that one store, and
//! * the cached path ([`Executor::run_compiled`]) is bit-identical to
//!   [`Executor::run_engine`] over a store materialized for that one run,
//!   including the prepacked `Gemm` panels.

use std::collections::HashMap;
use std::sync::Arc;

use dnnf_core::{CompiledModel, Compiler, CompilerOptions};
use dnnf_graph::Graph;
use dnnf_ops::{Attrs, OpKind};
use dnnf_runtime::{ExecOptions, Executor, WeightStore};
use dnnf_simdev::DeviceSpec;
use dnnf_tensor::{Shape, Tensor};

/// Conv -> Relu -> Flatten -> Gemm (transB weight) network: covers both the
/// plain weight tensors and the transposed-B panel prepacking.
fn gemm_cnn() -> Graph {
    let mut g = Graph::new("weight-cache-cnn");
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
    let relu = g
        .add_op(OpKind::Relu, Attrs::new(), &[conv], "relu")
        .unwrap()[0];
    let flat = g
        .add_op(
            OpKind::Flatten,
            Attrs::new().with_int("axis", 1),
            &[relu],
            "flatten",
        )
        .unwrap()[0];
    // fc.w is stored (out_features, in_features) and consumed transposed —
    // the layout the prepacked panel exists for.
    let fc = g.add_weight("fc.w", Shape::new(vec![10, 256]));
    let out = g
        .add_op(
            OpKind::Gemm,
            Attrs::new().with_int("transB", 1),
            &[flat, fc],
            "fc",
        )
        .unwrap()[0];
    g.mark_output(out);
    g
}

fn compile(graph: &Graph) -> CompiledModel {
    Compiler::new(CompilerOptions::default())
        .compile(graph)
        .unwrap()
}

fn inputs_for(graph: &Graph, seed: u64) -> HashMap<String, Tensor> {
    graph
        .inputs()
        .iter()
        .map(|&id| {
            let v = graph.value(id);
            (v.name.clone(), Tensor::random(v.shape.clone(), seed))
        })
        .collect()
}

fn executor() -> Executor {
    Executor::new(DeviceSpec::snapdragon_865_cpu()).with_options(ExecOptions::serial())
}

#[test]
fn repeated_runs_reuse_the_same_store_and_tensor_allocations() {
    let graph = gemm_cnn();
    let model = compile(&graph);
    assert!(
        !model.runtime_cache().is_initialized(),
        "compilation must not eagerly materialize weights"
    );

    let exec = executor();
    let inputs = inputs_for(&graph, 7);
    let first = exec.run_compiled(&model, &inputs).unwrap();
    assert!(
        model.runtime_cache().is_initialized(),
        "the first run builds the store"
    );

    // The store observed after the first run is the one every later run
    // uses: pointer-identical store, pointer-identical weight tensors.
    let store = WeightStore::of_model(&model);
    let second = exec.run_compiled(&model, &inputs).unwrap();
    let again = WeightStore::of_model(&model);
    assert!(
        Arc::ptr_eq(&store, &again),
        "of_model must return the cached store"
    );
    for value in model.graph().values() {
        if value.is_weight() {
            let a = store.get(value.id).expect("weight materialized");
            let b = again.get(value.id).expect("weight materialized");
            assert!(
                Arc::ptr_eq(a, b),
                "weight `{}` was re-allocated",
                value.name
            );
        }
    }
    // And a clone of the model shares the slot (same Arc, not a rebuild).
    let clone = model.clone();
    assert!(Arc::ptr_eq(&store, &WeightStore::of_model(&clone)));

    for (a, b) in first.outputs.iter().zip(&second.outputs) {
        assert_eq!(
            a.first_bit_difference(b),
            None,
            "cached repeat run changed outputs"
        );
    }
}

#[test]
fn concurrent_executors_share_one_store() {
    let graph = gemm_cnn();
    let model = compile(&graph);
    let inputs = inputs_for(&graph, 11);
    let expected = executor().run_compiled(&model, &inputs).unwrap().outputs;

    // Several executors (distinct instances, some multi-threaded) racing on
    // the same model: exactly one store may be built, and every run must
    // reproduce the serial result bit for bit.
    std::thread::scope(|scope| {
        for threads in [1usize, 2, 4, 8] {
            let model = &model;
            let inputs = &inputs;
            let expected = &expected;
            scope.spawn(move || {
                let exec = Executor::new(DeviceSpec::snapdragon_865_cpu())
                    .with_options(ExecOptions::with_threads(threads));
                let outputs = exec.run_compiled(model, inputs).unwrap().outputs;
                for (a, b) in expected.iter().zip(&outputs) {
                    assert_eq!(a.first_bit_difference(b), None);
                }
            });
        }
    });
    let store = WeightStore::of_model(&model);
    assert!(Arc::ptr_eq(&store, &WeightStore::of_model(&model)));
}

#[test]
fn cached_path_is_bit_identical_to_the_uncached_path() {
    let graph = gemm_cnn();
    let model = compile(&graph);
    let inputs = inputs_for(&graph, 23);
    let exec = executor();

    // A fresh store per call is the pre-cache behaviour; run_compiled reuses
    // the model's cached store.
    let fresh = WeightStore::build(model.graph());
    let uncached = exec
        .run_engine(
            model.graph(),
            &model.plan,
            &model.engine,
            &fresh,
            &inputs,
            None,
        )
        .unwrap();
    let cached = exec.run_compiled(&model, &inputs).unwrap();
    assert_eq!(uncached.outputs.len(), cached.outputs.len());
    for (a, b) in uncached.outputs.iter().zip(&cached.outputs) {
        assert_eq!(
            a.first_bit_difference(b),
            None,
            "weight cache changed outputs"
        );
    }
}

/// Conv with a lane-aligned output-channel count (so the OC-blocked panel
/// actually packs) -> Add bias -> Relu -> MaxPool -> Flatten -> Gemm.
fn lane_aligned_cnn() -> Graph {
    let oc = dnnf_ops::CONV_PANEL_LANES * 2;
    let mut g = Graph::new("lane-aligned-cnn");
    let x = g.add_input("x", Shape::new(vec![1, 3, 8, 8]));
    let w = g.add_weight("conv.w", Shape::new(vec![oc, 3, 3, 3]));
    let conv = g
        .add_op(
            OpKind::Conv,
            Attrs::new()
                .with_ints("pads", vec![1, 1, 1, 1])
                .with_ints("strides", vec![2, 1]),
            &[x, w],
            "conv",
        )
        .unwrap()[0];
    let b = g.add_weight("conv.b", Shape::new(vec![1, oc, 1, 1]));
    let biased = g
        .add_op(OpKind::Add, Attrs::new(), &[conv, b], "bias")
        .unwrap()[0];
    let relu = g
        .add_op(OpKind::Relu, Attrs::new(), &[biased], "relu")
        .unwrap()[0];
    let pooled = g
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
            &[pooled],
            "flatten",
        )
        .unwrap()[0];
    let fc = g.add_weight("fc.w", Shape::new(vec![10, oc * 2 * 4]));
    let out = g
        .add_op(
            OpKind::Gemm,
            Attrs::new().with_int("transB", 1),
            &[flat, fc],
            "fc",
        )
        .unwrap()[0];
    g.mark_output(out);
    g
}

#[test]
fn packed_conv_panels_are_bit_identical_to_unpacked_across_threads_and_scalar_mode() {
    let graph = lane_aligned_cnn();
    let model = compile(&graph);
    let store = WeightStore::of_model(&model);
    let conv_w = model
        .graph()
        .values()
        .find(|v| v.is_weight() && store.packed().conv_oc(v.id).is_some())
        .expect("the lane-aligned conv weight must be packed");
    assert_eq!(
        store.packed().conv_oc(conv_w.id).unwrap().shape().dims(),
        &[2, 3 * 3 * 3, dnnf_ops::CONV_PANEL_LANES]
    );
    let unpacked = WeightStore::build_unpacked(model.graph());
    assert!(unpacked.packed().is_empty());

    let inputs = inputs_for(&graph, 41);
    let mut options: Vec<ExecOptions> = [1usize, 2, 3, 8]
        .iter()
        .map(|&t| ExecOptions::with_threads(t))
        .collect();
    // DNNF_FORCE_SCALAR's programmatic equivalent: panels are ignored
    // entirely in scalar mode, which must not change results either.
    options.push(ExecOptions::serial().scalar_kernels());
    options.push(ExecOptions::with_threads(4).scalar_kernels());

    let baseline = executor().run_compiled(&model, &inputs).unwrap().outputs;
    for opts in options {
        let exec = Executor::new(DeviceSpec::snapdragon_865_cpu()).with_options(opts);
        let run_with = |store: &WeightStore| {
            exec.run_engine(
                model.graph(),
                &model.plan,
                &model.engine,
                store,
                &inputs,
                None,
            )
            .unwrap()
        };
        let packed_run = run_with(&store);
        let unpacked_run = run_with(&unpacked);
        for ((p, u), b) in packed_run
            .outputs
            .iter()
            .zip(&unpacked_run.outputs)
            .zip(&baseline)
        {
            assert_eq!(
                p.first_bit_difference(u),
                None,
                "packed vs unpacked diverged under {opts:?}"
            );
            assert_eq!(
                p.first_bit_difference(b),
                None,
                "run under {opts:?} diverged from the serial baseline"
            );
        }
    }
}

#[test]
fn transposed_gemm_weights_are_prepacked_and_results_match_the_reference() {
    let graph = gemm_cnn();
    let model = compile(&graph);
    let store = WeightStore::of_model(&model);
    // The graph's one transB Gemm weight got its panel; the conv weight and
    // the rewritten graph's other weights did not.
    assert_eq!(
        store.packed().len(),
        1,
        "exactly the transB Gemm weight is packed"
    );
    let packed_value = model
        .graph()
        .values()
        .find(|v| v.is_weight() && store.packed().transposed_b(v.id).is_some())
        .expect("packed weight exists in the compiled graph");
    let original = store.get(packed_value.id).unwrap();
    let panel = store.packed().transposed_b(packed_value.id).unwrap();
    assert_eq!(
        panel.shape().dims(),
        &[original.shape().dim(1), original.shape().dim(0)]
    );

    // End to end, the packed fast path must still reproduce the reference
    // interpreter exactly (the panel only changes the access pattern).
    let inputs = inputs_for(&graph, 31);
    let exec = executor();
    let fused = exec.run_compiled(&model, &inputs).unwrap();
    let reference = exec
        .run_plan_reference(model.graph(), &model.plan, &inputs)
        .unwrap();
    for (a, b) in fused.outputs.iter().zip(&reference.outputs) {
        assert_eq!(
            a.first_disagreement(b, 0.0),
            None,
            "packed Gemm diverged from reference"
        );
    }
}
