//! CI's warm-start round trip for the compilation cache and profile store.
//!
//! Two modes, run as consecutive CI steps (the second in a fresh process,
//! which is the whole point):
//!
//! * `warm_start save <dir>` — compiles every benchmark model cold through
//!   a [`PlanCache`], profiles each fused block's wall-clock on this host
//!   ([`Executor::profile_compiled`]), and persists both stores:
//!   `<dir>/plans.cache` (plan seeds) and `<dir>/profile.tsv` (measured
//!   block latencies).
//! * `warm_start verify <dir>` — loads both stores and asserts, per model:
//!   the compile is a **disk hit** (the persisted seed replays — no plan
//!   exploration), its outputs are **bit-identical at tolerance 0** to a
//!   cold compile's, and a cold plan search against the loaded profile
//!   database actually consults the persisted measurements
//!   (`profile_db_hits > 0`). Exits non-zero on any violation.
//!
//! Damage tolerance is tested elsewhere (a corrupted store must fail its
//! load and leave callers compiling cold); this binary checks the happy
//! path CI cares about: a second process warm-starts from the artifacts.

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

use dnnf_core::{Compiler, CompilerOptions};
use dnnf_graph::Graph;
use dnnf_models::{ModelKind, ModelScale};
use dnnf_profiledb::ProfileDatabase;
use dnnf_runtime::{CacheOutcome, ExecOptions, Executor, PlanCache};
use dnnf_simdev::DeviceSpec;
use dnnf_tensor::Tensor;

const MODELS: [ModelKind; 3] = [ModelKind::Vgg16, ModelKind::TinyBert, ModelKind::C3d];

fn inputs_for(graph: &Graph) -> HashMap<String, Tensor> {
    graph
        .inputs()
        .iter()
        .map(|&id| {
            let v = graph.value(id);
            let tensor = if v.name.contains("token") {
                Tensor::zeros(v.shape.clone())
            } else {
                Tensor::random(v.shape.clone(), 7)
            };
            (v.name.clone(), tensor)
        })
        .collect()
}

fn executor() -> Executor {
    Executor::new(DeviceSpec::snapdragon_865_cpu()).with_options(ExecOptions::serial())
}

fn save(dir: &std::path::Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let cache = PlanCache::new();
    let mut compiler = Compiler::new(CompilerOptions::default());
    let exec = executor();

    let mut compiled = Vec::new();
    for kind in MODELS {
        let graph = kind.build(ModelScale::tiny()).map_err(|e| e.to_string())?;
        let (model, outcome) = cache
            .compile_cached(&mut compiler, &graph)
            .map_err(|e| e.to_string())?;
        assert_eq!(outcome, CacheOutcome::Miss, "{}: fresh cache", kind.name());
        compiled.push((kind, graph, model));
    }

    // Profile every fused block on this host; the measurements land in the
    // same database the compiler's plan search reads.
    let mut db = compiler.into_database();
    for (kind, graph, model) in &compiled {
        let inputs = inputs_for(graph);
        exec.profile_compiled(model, &inputs, &mut db)
            .map_err(|e| format!("{}: {e}", kind.name()))?;
    }

    let plans = dir.join("plans.cache");
    let profile = dir.join("profile.tsv");
    cache.save(&plans).map_err(|e| e.to_string())?;
    db.save(&profile).map_err(|e| e.to_string())?;
    let stats = cache.stats();
    println!(
        "saved {} plan seed(s) to {} and {} profiled block latenc(ies) to {}",
        stats.seeds,
        plans.display(),
        db.iter().count(),
        profile.display()
    );
    Ok(())
}

fn verify(dir: &std::path::Path) -> Result<(), String> {
    let plans = dir.join("plans.cache");
    let profile = dir.join("profile.tsv");
    let cache = PlanCache::new();
    let seeds = cache
        .load_seeds(&plans)
        .map_err(|e| format!("load {}: {e}", plans.display()))?;
    let db =
        ProfileDatabase::load(&profile).map_err(|e| format!("load {}: {e}", profile.display()))?;
    println!(
        "loaded {seeds} plan seed(s) and {} profiled block latenc(ies)",
        db.iter().count()
    );
    let mut warm_compiler = Compiler::new(CompilerOptions::default()).with_database(db);
    let exec = executor();

    for kind in MODELS {
        let graph = kind.build(ModelScale::tiny()).map_err(|e| e.to_string())?;
        let inputs = inputs_for(&graph);

        let started = Instant::now();
        let mut cold_compiler = Compiler::new(CompilerOptions::default());
        let cold = cold_compiler.compile(&graph).map_err(|e| e.to_string())?;
        let cold_ms = started.elapsed().as_secs_f64() * 1e3;
        let expected = exec
            .run_compiled(&cold, &inputs)
            .map_err(|e| e.to_string())?
            .outputs;

        let started = Instant::now();
        let (warm, outcome) = cache
            .compile_cached(&mut warm_compiler, &graph)
            .map_err(|e| e.to_string())?;
        let warm_ms = started.elapsed().as_secs_f64() * 1e3;
        if outcome != CacheOutcome::DiskHit {
            return Err(format!(
                "{}: expected a disk hit from the persisted seeds, got {outcome:?}",
                kind.name()
            ));
        }
        let outputs = exec
            .run_compiled(&warm, &inputs)
            .map_err(|e| e.to_string())?
            .outputs;
        for (a, b) in expected.iter().zip(&outputs) {
            if let Some(diff) = a.first_disagreement(b, 0.0) {
                return Err(format!(
                    "{}: warm-started outputs diverge from the cold compile at {diff:?}",
                    kind.name()
                ));
            }
        }

        // The persisted host measurements must be visible to plan search.
        let searched = warm_compiler.compile(&graph).map_err(|e| e.to_string())?;
        if searched.stats.profile_db_hits == 0 {
            return Err(format!(
                "{}: plan search never consulted the persisted profile database",
                kind.name()
            ));
        }
        println!(
            "{:<10} cold compile {cold_ms:>8.3} ms, warm start {warm_ms:>8.3} ms \
             ({:.1}x), outputs bit-identical, {} profile-db hit(s)",
            kind.name(),
            cold_ms / warm_ms,
            searched.stats.profile_db_hits
        );
    }
    println!("warm start verified: disk hits, bit-identical outputs, profile reuse");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let result = match &args[..] {
        [_, mode, dir] if mode == "save" => save(std::path::Path::new(dir)),
        [_, mode, dir] if mode == "verify" => verify(std::path::Path::new(dir)),
        _ => {
            eprintln!("usage: warm_start <save|verify> <dir>");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("warm_start: {msg}");
            ExitCode::FAILURE
        }
    }
}
