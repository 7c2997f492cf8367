//! Standalone random-model differential fuzzer.
//!
//! Generates seeded random graphs (element-wise DAGs, anchored
//! Conv/MatMul/Gemm/pool DAGs, attention-shaped MatMul chains including
//! KV-cache `Concat` splices, data-movement chains, chains of planted
//! rewrite-rule motifs), compiles each through the fused engine, and
//! checks every case against the reference interpreter at
//! `num_threads ∈ {1, 2, 8}` with and without `force_scalar` — within
//! `1e-5` of the reference and bit-identical across configurations (all in
//! the SSE instance of the dot micro-kernel under `DNNF_FORCE_SSE=1`). At the
//! end it prints, per rewrite rule, how many planted motifs fired and how
//! many planted near-misses were refused.
//!
//! ```text
//! cargo run --release -p dnnf-bench --bin random_model -- \
//!     [--seed <start>] [--count <n>] [--max-nodes <n>] [--export <dir>]
//! ```
//!
//! Every failure prints its seed; replay one exactly with
//! `--seed <failing-seed> --count 1`. With `--export <dir>`, each failing
//! seed's graph is also saved as `<dir>/seed-<seed>.dnnfg` (the text format
//! of `docs/graph-format.md`), so a repro travels as a file instead of a
//! replay one-liner. Exits non-zero if any seed fails.

use std::path::PathBuf;
use std::process::ExitCode;

use dnnf_bench::fuzz::{check_seed, random_fuzz_graph, FuzzFailure, MotifTally};

struct Args {
    seed: u64,
    count: u64,
    max_nodes: usize,
    export: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 0,
        count: 100,
        max_nodes: 12,
        export: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--count" => {
                args.count = value("--count")?
                    .parse()
                    .map_err(|e| format!("--count: {e}"))?;
            }
            "--max-nodes" => {
                args.max_nodes = value("--max-nodes")?
                    .parse()
                    .map_err(|e| format!("--max-nodes: {e}"))?;
                if args.max_nodes == 0 {
                    return Err("--max-nodes must be at least 1".into());
                }
            }
            "--export" => {
                args.export = Some(PathBuf::from(value("--export")?));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: random_model [--seed <start>] [--count <n>] [--max-nodes <n>] [--export <dir>]"
                        .into(),
                );
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// Regenerates the failing seed's graph (generation is deterministic in the
/// seed) and saves it as a `.dnnfg` repro file.
fn export_repro(dir: &std::path::Path, seed: u64, max_nodes: usize) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("seed-{seed}.dnnfg"));
    let graph = random_fuzz_graph(seed, max_nodes);
    dnnf_io::save(&graph, &path).map_err(|e| e.to_string())?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "random_model: seeds {}..{} (max {} nodes per graph)",
        args.seed,
        args.seed + args.count,
        args.max_nodes
    );
    let mut failures: Vec<FuzzFailure> = Vec::new();
    let mut nodes_total = 0usize;
    let mut blocks_total = 0usize;
    let mut motifs = MotifTally::new();
    for seed in args.seed..args.seed + args.count {
        match check_seed(seed, args.max_nodes) {
            Ok(outcome) => {
                nodes_total += outcome.nodes;
                blocks_total += outcome.fused_blocks;
                outcome.motifs.into_iter().for_each(|m| motifs.add(m));
            }
            Err(failure) => {
                eprintln!("FAIL {failure}");
                eprintln!(
                    "     replay: cargo run --release -p dnnf-bench --bin random_model -- --seed {} --count 1 --max-nodes {}",
                    failure.seed, args.max_nodes
                );
                if let Some(dir) = &args.export {
                    match export_repro(dir, failure.seed, args.max_nodes) {
                        Ok(path) => eprintln!("     repro saved: {}", path.display()),
                        Err(message) => eprintln!("     repro export failed: {message}"),
                    }
                }
                failures.push(failure);
            }
        }
    }
    let checked = args.count as usize;
    println!(
        "checked {checked} seeds: {} passed, {} failed ({nodes_total} ops, {blocks_total} fused blocks total)",
        checked - failures.len(),
        failures.len()
    );
    print!("{motifs}");
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        println!(
            "failing seeds: {:?}",
            failures.iter().map(|f| f.seed).collect::<Vec<_>>()
        );
        ExitCode::FAILURE
    }
}
