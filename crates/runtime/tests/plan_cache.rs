//! End-to-end contract of the shape-keyed compilation cache and the
//! persistent profile store:
//!
//! * a memory hit returns the *same* compiled model (`Arc` identity) and
//!   its inference outputs are bit-identical (tolerance 0) to the cold
//!   compile's;
//! * a disk-replayed plan (seed round-tripped through the serialized
//!   format) executes bit-identically too;
//! * corrupted or truncated cache/profile files are rejected at load and
//!   the engine simply compiles cold — damage can cost time, never
//!   correctness;
//! * block latencies measured by [`Executor::profile_compiled`] persist
//!   through the profile store and are visible to the next compilation
//!   under the planner's own keys.

use std::collections::HashMap;
use std::sync::Arc;

use dnnf_core::{block_profile_key, Compiler, CompilerOptions};
use dnnf_graph::Graph;
use dnnf_ops::{Attrs, OpKind};
use dnnf_profiledb::ProfileDatabase;
use dnnf_runtime::{CacheOutcome, ExecOptions, Executor, PlanCache};
use dnnf_simdev::DeviceSpec;
use dnnf_tensor::{Shape, Tensor};

/// Conv -> Mul -> Add -> Relu -> MaxPool -> Flatten -> Gemm: enough
/// structure for rewriting and multi-block fusion to engage.
fn cnn() -> Graph {
    let mut g = Graph::new("plan-cache-cnn");
    let x = g.add_input("x", Shape::new(vec![1, 4, 8, 8]));
    let w = g.add_weight("conv.w", Shape::new(vec![8, 4, 3, 3]));
    let conv = g
        .add_op(
            OpKind::Conv,
            Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
            &[x, w],
            "conv",
        )
        .unwrap()[0];
    let scale = g.add_weight("bn.scale", Shape::new(vec![1, 8, 1, 1]));
    let shift = g.add_weight("bn.shift", Shape::new(vec![1, 8, 1, 1]));
    let mul = g
        .add_op(OpKind::Mul, Attrs::new(), &[conv, scale], "bn.mul")
        .unwrap()[0];
    let add = g
        .add_op(OpKind::Add, Attrs::new(), &[mul, shift], "bn.add")
        .unwrap()[0];
    let relu = g
        .add_op(OpKind::Relu, Attrs::new(), &[add], "relu")
        .unwrap()[0];
    let pool = g
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
            &[pool],
            "flat",
        )
        .unwrap()[0];
    let fc = g.add_weight("fc.w", Shape::new(vec![128, 10]));
    let out = g
        .add_op(OpKind::MatMul, Attrs::new(), &[flat, fc], "fc")
        .unwrap()[0];
    g.mark_output(out);
    g
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
fn cache_hits_are_bit_identical_to_the_cold_compile() {
    let graph = cnn();
    let inputs = inputs_for(&graph, 17);
    let exec = executor();

    let cache = PlanCache::new();
    let mut compiler = Compiler::new(CompilerOptions::default());
    let (cold, outcome) = cache.compile_cached(&mut compiler, &graph).unwrap();
    assert_eq!(outcome, CacheOutcome::Miss);
    let cold_out = exec.run_compiled(&cold, &inputs).unwrap().outputs;

    // Memory hit: same Arc, trivially the same kernels.
    let (warm, outcome) = cache.compile_cached(&mut compiler, &graph).unwrap();
    assert_eq!(outcome, CacheOutcome::MemoryHit);
    assert!(Arc::ptr_eq(&cold, &warm));
    let warm_out = exec.run_compiled(&warm, &inputs).unwrap().outputs;

    // Disk replay: serialize the seeds, start a "new process" (fresh cache,
    // fresh compiler), replay, and run.
    let text = cache.to_text();
    let fresh = PlanCache::new();
    assert_eq!(fresh.merge_text(&text), Ok(1));
    let mut fresh_compiler = Compiler::new(CompilerOptions::default());
    let (replayed, outcome) = fresh.compile_cached(&mut fresh_compiler, &graph).unwrap();
    assert_eq!(outcome, CacheOutcome::DiskHit);
    let replayed_out = exec.run_compiled(&replayed, &inputs).unwrap().outputs;

    for ((a, b), c) in cold_out.iter().zip(&warm_out).zip(&replayed_out) {
        assert_eq!(a.first_disagreement(b, 0.0), None, "memory hit diverged");
        assert_eq!(a.first_disagreement(c, 0.0), None, "disk replay diverged");
    }
}

#[test]
fn corrupted_cache_files_mean_cold_compiles_not_wrong_answers() {
    let graph = cnn();
    let dir = std::env::temp_dir().join("dnnf_plan_cache_integration");
    std::fs::create_dir_all(&dir).unwrap();

    // Build and persist both stores.
    let cache = PlanCache::new();
    let mut compiler = Compiler::new(CompilerOptions::default());
    let (model, _) = cache.compile_cached(&mut compiler, &graph).unwrap();
    let mut profile = ProfileDatabase::new();
    let exec = executor();
    let inputs = inputs_for(&graph, 29);
    let expected = exec
        .profile_compiled(&model, &inputs, &mut profile)
        .unwrap()
        .outputs;

    let plan_path = dir.join("plans.cache");
    let profile_path = dir.join("profile.tsv");
    cache.save(&plan_path).unwrap();
    profile.save(&profile_path).unwrap();

    // Truncate both files mid-entry.
    for path in [&plan_path, &profile_path] {
        let bytes = std::fs::read(path).unwrap();
        std::fs::write(path, &bytes[..bytes.len() * 2 / 3]).unwrap();
    }

    // Loads must fail loudly…
    let fresh = PlanCache::new();
    assert!(fresh.load_seeds(&plan_path).is_err());
    assert!(ProfileDatabase::load(&profile_path).is_err());
    assert_eq!(fresh.stats().seeds, 0);

    // …and the engine recompiles cold with correct results.
    let mut fresh_compiler = Compiler::new(CompilerOptions::default());
    let (recompiled, outcome) = fresh.compile_cached(&mut fresh_compiler, &graph).unwrap();
    assert_eq!(outcome, CacheOutcome::Miss);
    let outputs = exec.run_compiled(&recompiled, &inputs).unwrap().outputs;
    for (a, b) in expected.iter().zip(&outputs) {
        assert_eq!(a.first_disagreement(b, 0.0), None);
    }

    std::fs::remove_file(plan_path).ok();
    std::fs::remove_file(profile_path).ok();
}

/// A persisted seed whose file is intact — header, count and checksum
/// trailer, the right key and rewritten fingerprint — but whose groups name a
/// node the rewritten graph does not have, or one node twice, is refused by
/// the plan constructor: it costs a cold compile, not the process.
#[test]
fn a_seed_naming_a_missing_or_repeated_node_compiles_cold() {
    let graph = cnn();
    let inputs = inputs_for(&graph, 31);
    let exec = executor();
    let cache = PlanCache::new();
    let mut compiler = Compiler::new(CompilerOptions::default());
    let (cold, _) = cache.compile_cached(&mut compiler, &graph).unwrap();
    let expected = exec.run_compiled(&cold, &inputs).unwrap().outputs;

    let saved = cache.to_text();
    let header = saved.lines().next().unwrap();
    let entry = saved.lines().nth(2).unwrap();
    let (key_and_fingerprint, _groups) = entry.rsplit_once('\t').unwrap();
    for groups in ["0,99999", "0;1,0"] {
        let stale = dnnf_profiledb::seal(header, [format!("{key_and_fingerprint}\t{groups}")]);
        let fresh = PlanCache::new();
        assert_eq!(fresh.merge_text(&stale), Ok(1));
        let mut fresh_compiler = Compiler::new(CompilerOptions::default());
        let (model, outcome) = fresh.compile_cached(&mut fresh_compiler, &graph).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss, "groups `{groups}`");
        let outputs = exec.run_compiled(&model, &inputs).unwrap().outputs;
        assert_eq!(outputs, expected, "groups `{groups}`");
    }
}

#[test]
fn measured_block_latencies_persist_and_reach_the_next_compilation() {
    let graph = cnn();
    let mut compiler = Compiler::new(CompilerOptions::default());
    let model = compiler.compile(&graph).unwrap();

    // Measure on the "host" (the simulated-device executor's wall clock).
    let mut profile = compiler.into_database();
    let exec = executor();
    let inputs = inputs_for(&graph, 41);
    let report = exec
        .profile_compiled(&model, &inputs, &mut profile)
        .unwrap();

    // Every fused block was measured under the planner's own key, with a
    // plausible (positive) wall-clock value.
    for block in model.plan.blocks() {
        let key = block_profile_key(model.graph(), &block.nodes);
        let measured = profile.peek(&key);
        assert!(
            measured.is_some_and(|us| us > 0.0),
            "block {:?} missing from the profile store",
            key.to_string()
        );
    }
    // Profiling must not perturb the outputs.
    let plain = exec.run_compiled(&model, &inputs).unwrap();
    for (a, b) in report.outputs.iter().zip(&plain.outputs) {
        assert_eq!(a.first_disagreement(b, 0.0), None);
    }

    // Round-trip through disk and hand the measurements to a fresh
    // compiler: the recorded values are visible to its plan search.
    let dir = std::env::temp_dir().join("dnnf_profile_store_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("profile.tsv");
    profile.save(&path).unwrap();
    let restored = ProfileDatabase::load(&path).unwrap();
    for (key, value) in profile.iter() {
        assert_eq!(restored.peek(key).map(f64::to_bits), Some(value.to_bits()));
    }
    let mut warm_compiler = Compiler::new(CompilerOptions::default()).with_database(restored);
    let warm = warm_compiler.compile(&graph).unwrap();
    assert!(
        warm.stats.profile_db_hits > 0,
        "plan search must consult the persisted measurements"
    );
    std::fs::remove_file(path).ok();
}
