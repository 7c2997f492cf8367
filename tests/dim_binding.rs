//! One `DimBinding` for batch and sequence length: `Executor::run`,
//! `CompiledModel::instance_for` and `PlanCache::compile_polymorphic` treat
//! the two symbolic dimensions as one mechanism, so a request may bind both
//! at once, and a graph whose inputs do not share a leading dimension has no
//! batch to bind. A model's own kernels run every binding: they equal the
//! kernels compiled against the rebound graph, and they compute its outputs
//! bit for bit.

use std::collections::HashMap;
use std::sync::Arc;

use dnnf_bench::fuzz::check_plan_facts;
use dnnfusion::baselines::{BaselineFramework, PatternFuser};
use dnnfusion::core::{CompiledModel, Compiler, CompilerOptions, CoreError, Ecg, FusionPlan};
use dnnfusion::graph::{DimBinding, Graph, GraphError, NodeId, SymbolicAxes};
use dnnfusion::models::{decoder_prefill, decoder_step, DecoderConfig, ModelKind, ModelScale};
use dnnfusion::ops::{Attrs, OpKind};
use dnnfusion::runtime::{ExecOptions, Executor, PlanCache, RuntimeError, WeightStore};
use dnnfusion::simdev::DeviceSpec;
use dnnfusion::tensor::{Shape, Tensor};

fn executor_with(threads: usize, force_scalar: bool) -> Executor {
    Executor::new(DeviceSpec::snapdragon_865_cpu()).with_options(ExecOptions {
        num_threads: threads,
        force_scalar,
        min_parallel_work: 0,
        ..ExecOptions::default()
    })
}

fn compile(graph: &Graph) -> CompiledModel {
    Compiler::new(CompilerOptions::default())
        .compile(graph)
        .unwrap()
}

fn native_inputs(graph: &Graph) -> HashMap<String, Tensor> {
    inputs_at(graph, DimBinding::default())
}

/// Seeded inputs for `graph` with the symbolic axes `binding` names set to
/// its values.
fn inputs_at(graph: &Graph, binding: DimBinding) -> HashMap<String, Tensor> {
    graph
        .inputs()
        .iter()
        .map(|&id| {
            let v = graph.value(id);
            let mut dims = v.shape.dims().to_vec();
            if let Some(batch) = binding.batch {
                dims[0] = batch;
            }
            if let (Some(seq), Some(axis)) = (binding.seq, graph.seq_axis(id)) {
                dims[axis] = seq;
            }
            let shape = Shape::new(dims);
            // Token and position ids stay zero so Gather indices are valid.
            let tensor = if shape.dims() == [1] || v.name.contains("token") {
                Tensor::zeros(shape)
            } else {
                Tensor::random(shape, 11 + id.index() as u64)
            };
            (v.name.clone(), tensor)
        })
        .collect()
}

/// `x [1,8] @ table [8,4]` with `table` a graph *input*: the two inputs do
/// not share a leading dimension.
fn lookup_graph() -> Graph {
    let mut g = Graph::new("lookup");
    let x = g.add_input("x", Shape::new(vec![1, 8]));
    let table = g.add_input("table", Shape::new(vec![8, 4]));
    let y = g
        .add_op(OpKind::MatMul, Attrs::new(), &[x, table], "y")
        .unwrap()[0];
    g.mark_output(y);
    g
}

/// Regression: the polymorphic entry read "batch 1" off the first input and
/// then rejected the model's own native inputs
/// (`InputShapeMismatch { name: "table", expected: [1, 4], actual: [8, 4] }`).
#[test]
fn graphs_without_a_shared_leading_dim_have_no_batch_to_bind() {
    let executor = executor_with(1, false);
    let step = decoder_step(&DecoderConfig::test_tiny(), 4).unwrap();
    for graph in [lookup_graph(), step] {
        assert_eq!(graph.binding().batch, None, "{}", graph.name());
        let model = compile(&graph);
        let inputs = native_inputs(model.graph());
        let strict = executor.run_compiled(&model, &inputs).unwrap();
        let polymorphic = executor.run(&model, &inputs).unwrap();
        assert_eq!(strict.outputs, polymorphic.outputs, "{}", graph.name());
        // The batch-named wrappers are the same path.
        let wrapped = executor.run_compiled_batched(&model, &inputs).unwrap();
        assert_eq!(strict.outputs, wrapped.outputs, "{}", graph.name());
        assert!(model.instance_for_batch(2).is_err(), "{}", graph.name());
    }

    // Real mismatches are still reported, by the native path.
    let model = compile(&lookup_graph());
    let mut bad = native_inputs(model.graph());
    bad.insert("table".into(), Tensor::zeros(Shape::new(vec![8, 5])));
    match executor.run(&model, &bad) {
        Err(RuntimeError::InputShapeMismatch { name, expected, .. }) => {
            assert_eq!((name.as_str(), expected), ("table", vec![8, 4]));
        }
        other => panic!("expected a shape mismatch on `table`, got {other:?}"),
    }

    // And the batch-polymorphic cache key is exact-shape by decision, not
    // a symbolic key over a graph that cannot be rebatched.
    let cache = PlanCache::new();
    let mut compiler = Compiler::new(CompilerOptions::default());
    cache
        .compile_batched(&mut compiler, &lookup_graph())
        .unwrap();
    assert!(cache.to_text().contains("\tx=1x8;table=8x4\t"));
}

/// Single-query attention scores over a marked-length KV cache.
fn tiny_seq_model() -> Graph {
    let mut g = Graph::new("tiny-seq");
    let q = g.add_input("q", Shape::new(vec![2, 1, 8]));
    let past = g.add_input("past", Shape::new(vec![2, 4, 8]));
    g.mark_seq_axis(past, 1).unwrap();
    let kt = g
        .add_op(
            OpKind::Transpose,
            Attrs::new().with_ints("perm", vec![0, 2, 1]),
            &[past],
            "kt",
        )
        .unwrap()[0];
    let scores = g
        .add_op(OpKind::MatMul, Attrs::new(), &[q, kt], "scores")
        .unwrap()[0];
    let act = g
        .add_op(OpKind::Relu, Attrs::new(), &[scores], "act")
        .unwrap()[0];
    g.mark_output(act);
    g
}

/// The merge is a unification, not a rename: one request binds batch *and*
/// sequence length, and every row is bit-identical to running that row
/// alone at batch 1.
#[test]
fn one_instance_binds_batch_and_seq_and_rows_match_solo_runs() {
    const BATCH: usize = 3;
    const SEQ: usize = 7;
    let q = Tensor::random(Shape::new(vec![BATCH, 1, 8]), 5);
    let past = Tensor::random(Shape::new(vec![BATCH, SEQ, 8]), 6);
    let row = |t: &Tensor, i: usize| {
        let mut dims = t.shape().dims().to_vec();
        dims[0] = 1;
        let per_row = t.shape().numel() / BATCH;
        let data = t.data()[i * per_row..(i + 1) * per_row].to_vec();
        Tensor::from_vec(Shape::new(dims), data).unwrap()
    };

    for (threads, force_scalar) in [(1, false), (4, false), (1, true)] {
        let executor = executor_with(threads, force_scalar);
        let model = compile(&tiny_seq_model());
        let inputs: HashMap<String, Arc<Tensor>> = [
            ("q".to_string(), Arc::new(q.clone())),
            ("past".to_string(), Arc::new(past.clone())),
        ]
        .into();
        let together = executor.run(&model, &inputs).unwrap();
        assert_eq!(together.outputs[0].shape().dims(), &[BATCH, 1, SEQ]);

        for i in 0..BATCH {
            let solo_inputs: HashMap<String, Tensor> = [
                ("q".to_string(), row(&q, i)),
                ("past".to_string(), row(&past, i)),
            ]
            .into();
            let solo = executor.run(&model, &solo_inputs).unwrap();
            assert_eq!(
                &together.outputs[0].data()[i * SEQ..(i + 1) * SEQ],
                solo.outputs[0].data(),
                "row {i} diverged ({threads} threads, force_scalar {force_scalar})"
            );
        }
    }
}

/// The plan carries its schedule: what it stores about its quotient graph is
/// what the brute-force oracle recomputes, for every compiled model and for
/// the fixed-pattern baselines' plans over the same graphs; and the plan's
/// facts come from ids alone, so they describe a rebound graph too.
#[test]
fn stored_plan_facts_match_the_brute_force_oracle() {
    let config = DecoderConfig::test_tiny();
    let mut graphs: Vec<Graph> = ModelKind::all()
        .iter()
        .map(|kind| kind.build(ModelScale::tiny()).unwrap())
        .collect();
    graphs.push(decoder_prefill(&config, 4).unwrap());
    graphs.push(decoder_step(&config, 4).unwrap());
    for graph in &graphs {
        let name = graph.name();
        let model = compile(graph);
        check_plan_facts(model.graph(), &model.plan).unwrap_or_else(|e| panic!("{name}: {e}"));
        let deaths = model.plan.deaths();
        assert!(
            deaths.iter().any(|d| !d.is_empty()) || deaths.len() == 1,
            "{name}: no buffer is ever recycled"
        );
        let ecg = Ecg::new(graph.clone());
        for &framework in BaselineFramework::all() {
            let plan = PatternFuser::for_framework(framework).plan(&ecg).unwrap();
            check_plan_facts(graph, &plan).unwrap_or_else(|e| panic!("{name} {framework}: {e}"));
        }
    }

    let rebound = [
        (compile(&graphs[1]), DimBinding::batch(3)),
        (compile(graphs.last().unwrap()), DimBinding::seq(7)),
        (
            compile(&tiny_seq_model()),
            DimBinding {
                batch: Some(3),
                seq: Some(7),
            },
        ),
    ];
    for (model, binding) in rebound {
        let instance = model.instance_for(binding).unwrap();
        assert_ne!(instance.graph().binding(), model.graph().binding());
        check_plan_facts(instance.graph(), &model.plan).unwrap();
    }
}

/// The decoder sizes `bench_exec` times.
fn decoder_configs() -> [DecoderConfig; 2] {
    let small = DecoderConfig {
        layers: 4,
        hidden: 32,
        heads: 4,
        vocab: 64,
        max_seq: 64,
        ffn_mult: 2,
    };
    [DecoderConfig::test_tiny(), small]
}

/// `(name, model, binding)`: every model builder at tiny scale at batch 2
/// and 3; both decoder steps compiled as a `DecodeSession` compiles them
/// (at the canonical past length 1) at three past lengths drawn from a
/// fixed seed; and the tiny attention model bound on both axes at once.
fn bound_cases() -> Vec<(String, CompiledModel, DimBinding)> {
    let mut cases = Vec::new();
    for &kind in ModelKind::all() {
        let model = compile(&kind.build(ModelScale::tiny()).unwrap());
        for batch in [2, 3] {
            let name = kind.name().to_string();
            cases.push((name, model.clone(), DimBinding::batch(batch)));
        }
    }
    let mut state = 0x5EED_u64;
    for cfg in decoder_configs() {
        let step = decoder_step(&cfg, 4).unwrap();
        let mut compiler = Compiler::new(CompilerOptions::default());
        let cache = PlanCache::new();
        let (model, _) = cache
            .compile_polymorphic(&mut compiler, &step, SymbolicAxes::SEQ)
            .unwrap();
        for _ in 0..3 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let past = 2 + (state >> 33) as usize % (cfg.max_seq - 2);
            let name = format!("{}-layer decoder step", cfg.layers);
            cases.push((name, (*model).clone(), DimBinding::seq(past)));
        }
    }
    let both = DimBinding {
        batch: Some(3),
        seq: Some(7),
    };
    cases.push(("tiny-seq".into(), compile(&tiny_seq_model()), both));
    cases
}

/// Kernels keep no extents: the plan compiled against the model's own graph
/// and against the graph rebound to another binding are the same kernels —
/// step kinds, tape segmentation, instruction lists and broadcast rules. A
/// segmentation that only held at the compiled shapes (unrelated chains
/// merged because their extents coincide there) would show up here.
#[test]
fn kernels_compiled_at_any_binding_are_the_same_kernels() {
    let mut rebound = 0;
    for (name, model, binding) in bound_cases() {
        let Ok(instance) = model.instance_for(binding) else {
            continue;
        };
        for block in model.plan.blocks() {
            assert_eq!(
                instance.engine().kernel(block.id),
                model.engine.kernel(block.id),
                "{name} at {binding:?}: block {}",
                block.id
            );
        }
        rebound += 1;
    }
    // The other 12 of the 37 cases are the six transformer builders, whose
    // attributes bake in their batch of 1.
    assert_eq!(rebound, 25);
}

/// The differential oracle at tolerance 0: `Executor::run` on the model's
/// own kernels computes, bit for bit, what the plan compiled against the
/// rebound graph computes (`instance_for`, rebuilt per call), in the
/// single-thread, threaded and scalar engine configurations. Where the
/// graph cannot be rebound (an operator bakes in the native batch), the run
/// fails with an error instead.
#[test]
fn shape_generic_runs_match_kernels_compiled_for_the_binding() {
    let executors = [
        executor_with(1, false),
        executor_with(4, false),
        executor_with(1, true),
    ];
    let mut compared = 0;
    for (name, model, binding) in bound_cases() {
        let inputs = inputs_at(model.graph(), binding);
        let Ok(instance) = model.instance_for(binding) else {
            for executor in &executors {
                let run = executor.run(&model, &inputs);
                assert!(
                    run.is_err(),
                    "{name} at {binding:?} ran but does not rebind"
                );
            }
            continue;
        };
        let store = WeightStore::of_model(&model);
        let (graph, engine) = (instance.graph(), instance.engine());
        let oracle = executors[0]
            .run_engine(graph, &model.plan, engine, &store, &inputs, None)
            .unwrap_or_else(|e| panic!("{name} at {binding:?}: oracle failed: {e}"));
        for executor in &executors {
            let run = executor
                .run(&model, &inputs)
                .unwrap_or_else(|e| panic!("{name} at {binding:?}: {e}"));
            assert_eq!(run.outputs.len(), oracle.outputs.len());
            for (i, (a, b)) in run.outputs.iter().zip(&oracle.outputs).enumerate() {
                assert_eq!(
                    a.first_bit_difference(b),
                    None,
                    "{name} at {binding:?}, output {i}, {:?}",
                    executor.options()
                );
            }
        }
        compared += 1;
    }
    assert_eq!(compared, 25);
}

/// A binding the graph cannot take is a typed error from the run, never a
/// panic: an operator whose attributes bake in the native batch fails its
/// shape inference, and a tape whose operands stop broadcasting fails its
/// geometry; each error names the node.
#[test]
fn runs_at_bindings_the_graph_cannot_take_fail_with_typed_errors() {
    let executor = executor_with(1, false);
    let shape_inference_node = |result| match result {
        Err(RuntimeError::Core(CoreError::Graph(GraphError::ShapeInference { node, .. }))) => node,
        other => panic!("expected a shape-inference error, got {other:?}"),
    };

    let mut baked = Graph::new("baked");
    let x = baked.add_input("x", Shape::new(vec![1, 4, 4]));
    let reshape = baked
        .add_op(
            OpKind::Reshape,
            Attrs::new().with_ints("shape", vec![1, 16]),
            &[x],
            "baked.reshape",
        )
        .unwrap()[0];
    let y = baked
        .add_op(OpKind::Relu, Attrs::new(), &[reshape], "relu")
        .unwrap()[0];
    baked.mark_output(y);
    let model = Compiler::new(CompilerOptions::without_rewriting())
        .compile(&baked)
        .unwrap();
    let inputs: HashMap<String, Tensor> =
        [("x".into(), Tensor::random(Shape::new(vec![3, 4, 4]), 1))].into();
    let node = shape_inference_node(executor.run(&model, &inputs));
    assert_eq!(node, "baked.reshape");

    // `a` is seq-marked, `b` is not: at seq 5 the inputs pass their checks
    // but no longer broadcast inside the `Add` tape.
    let mut mismatch = Graph::new("mismatch");
    let a = mismatch.add_input("a", Shape::new(vec![1, 4]));
    mismatch.mark_seq_axis(a, 1).unwrap();
    let b = mismatch.add_input("b", Shape::new(vec![1, 4]));
    let sum = mismatch
        .add_op(OpKind::Add, Attrs::new(), &[a, b], "sum")
        .unwrap()[0];
    mismatch.mark_output(sum);
    let model = compile(&mismatch);
    let inputs: HashMap<String, Tensor> = [
        ("a".into(), Tensor::random(Shape::new(vec![1, 5]), 2)),
        ("b".into(), Tensor::random(Shape::new(vec![1, 4]), 3)),
    ]
    .into();
    let node = shape_inference_node(executor.run(&model, &inputs));
    assert_eq!(node, "sum");
}

/// What the plan constructor refuses and accepts, one condition each, on
/// `a → conv → b` with a skip edge `a → b`.
#[test]
fn the_plan_constructor_rejects_bad_partitions_with_typed_errors() {
    let mut g = Graph::new("skip");
    let x = g.add_input("x", Shape::new(vec![1, 4, 8, 8]));
    let a = g.add_op(OpKind::Relu, Attrs::new(), &[x], "a").unwrap()[0];
    let w = g.add_weight("w", Shape::new(vec![4, 4, 1, 1]));
    let conv = g
        .add_op(OpKind::Conv, Attrs::new(), &[a, w], "conv")
        .unwrap()[0];
    let b = g
        .add_op(OpKind::Add, Attrs::new(), &[a, conv], "b")
        .unwrap()[0];
    g.mark_output(b);
    let node = |name: &str| g.nodes().find(|n| n.name == name).unwrap().id;
    let (a, conv, b) = (node("a"), node("conv"), node("b"));
    let ecg = Ecg::new(g.clone());
    let from_blocks = |groups: Vec<Vec<NodeId>>| FusionPlan::from_blocks(&ecg, groups);

    // {a, b} without conv: the quotient graph has a cycle through conv.
    let cyclic = from_blocks(vec![vec![a, b]]);
    assert!(matches!(cyclic, Err(CoreError::Plan { .. })), "{cyclic:?}");
    // A node in two groups.
    let twice = from_blocks(vec![vec![a], vec![a, conv]]);
    assert!(matches!(twice, Err(CoreError::Plan { .. })), "{twice:?}");
    // A node the graph does not have (what a stale persisted seed names).
    let stale = from_blocks(vec![vec![NodeId::from_index(99_999)]]);
    assert!(matches!(stale, Err(CoreError::Plan { .. })), "{stale:?}");
    // A node no group mentions becomes a singleton block after the groups.
    let plan = from_blocks(vec![vec![conv, a]]).unwrap();
    assert_eq!(plan.blocks()[0].nodes, [a, conv]);
    assert_eq!(plan.blocks()[1].nodes, [b]);
    check_plan_facts(&g, &plan).unwrap();
}

/// Persisted `plans.cache` files are keyed by these strings; moving one
/// means bumping `PLAN_CACHE_HEADER`, or stores saved by earlier builds keep
/// seeds that never disk-hit.
#[test]
fn polymorphic_plan_keys_print_the_pinned_strings() {
    const OPTIONS: &str = "gr=1;fuse=1;max_block_ops=40;max_external_inputs=14;use_profile=1";
    let mut compiler = Compiler::new(CompilerOptions::default());
    let mut key_of = |graph: &Graph, axes| {
        let cache = PlanCache::new();
        cache
            .compile_polymorphic(&mut compiler, graph, axes)
            .unwrap();
        let text = cache.to_text();
        let entry = text.lines().nth(2).unwrap();
        let fields: Vec<&str> = entry.split('\t').take(3).collect();
        fields.join(" ")
    };

    // Presented at batch 4, keyed by its batch-1 canonical form.
    let vgg = ModelKind::Vgg16.build(ModelScale::tiny()).unwrap();
    let vgg4 = vgg.rebind(DimBinding::batch(4)).unwrap();
    assert_eq!(
        key_of(&vgg4, SymbolicAxes::BATCH),
        format!("cea554a7c8afbcd316cb0752c578f468 image=Nx3x32x32 {OPTIONS}")
    );

    // Presented at past length 4, keyed by its length-1 canonical form.
    let step = decoder_step(&DecoderConfig::test_tiny(), 4).unwrap();
    assert_eq!(
        key_of(&step, SymbolicAxes::SEQ),
        format!(
            "82b074cf10b73f4dd123e09f626fe91c \
             token_ids=1;positions=1;past_k0=2xSx8;past_v0=2xSx8;past_k1=2xSx8;past_v1=2xSx8 \
             {OPTIONS}"
        )
    );
}

/// Regression: `simplify.reorganize-chain` collapsed `Flatten → Unsqueeze`
/// into `Reshape{shape = [1, 1, 16]}`, baking the native batch into an
/// attribute, so this batch-polymorphic model ran at batch 3 with rewriting
/// off but failed with the default options (`shape inference failed for node
/// 'rw.reshape': element count changes from 48 to 16`).
#[test]
fn a_collapsed_reorganize_chain_stays_batch_polymorphic() {
    let mut g = Graph::new("reorganize");
    let x = g.add_input("x", Shape::new(vec![1, 4, 4]));
    let relu = g.add_op(OpKind::Relu, Attrs::new(), &[x], "relu").unwrap()[0];
    let flat = g
        .add_op(
            OpKind::Flatten,
            Attrs::new().with_int("axis", 1),
            &[relu],
            "flatten",
        )
        .unwrap()[0];
    let lifted = g
        .add_op(
            OpKind::Unsqueeze,
            Attrs::new().with_ints("axes", vec![1]),
            &[flat],
            "unsqueeze",
        )
        .unwrap()[0];
    let out = g
        .add_op(OpKind::Sigmoid, Attrs::new(), &[lifted], "sigmoid")
        .unwrap()[0];
    g.mark_output(out);

    let rewritten = compile(&g);
    assert_eq!(rewritten.stats.rewrites.len(), 1);
    assert_eq!(
        rewritten.stats.rewrites[0].rule,
        "simplify.reorganize-chain"
    );
    let plain = Compiler::new(CompilerOptions::without_rewriting())
        .compile(&g)
        .unwrap();

    let executor = executor_with(1, false);
    let inputs: HashMap<String, Tensor> = [(
        "x".to_string(),
        Tensor::random(Shape::new(vec![3, 4, 4]), 21),
    )]
    .into();
    let expected = executor.run(&plain, &inputs).unwrap();
    let actual = executor.run(&rewritten, &inputs).unwrap();
    assert_eq!(expected.outputs[0].shape().dims(), &[3, 1, 16]);
    assert_eq!(actual.outputs, expected.outputs);
}
