//! Exports the bundled model builders as `.dnnfg` files.
//!
//! Writes one file per model — all 15 paper models (tiny scale) plus the
//! autoregressive decoder prefill/step pair — into `--out <dir>`, named by a
//! lowercase slug of the model name (`vgg-16.dnnfg`, `decoder-step.dnnfg`).
//!
//! With `--verify`, every exported file is immediately re-imported and the
//! round-trip contract is enforced end to end:
//!
//! 1. the import's structural fingerprint equals the builder graph's;
//! 2. re-exporting the import reproduces the file byte for byte;
//! 3. compiling *both* graphs through the full default pipeline (rewriting
//!    on) and executing them on identical inputs produces **bit-identical**
//!    outputs — tolerance 0, not an epsilon.
//!
//! This is the CI round-trip gate; it exits non-zero on the first violation.
//!
//! ```text
//! cargo run --release -p dnnf-bench --bin graph_export -- \
//!     --out <dir> [--model <slug>]... [--verify]
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dnnf_bench::fuzz::fuzz_inputs;
use dnnf_core::{Compiler, CompilerOptions};
use dnnf_graph::Graph;
use dnnf_models::{decoder_prefill, decoder_step, DecoderConfig, ModelKind, ModelScale};
use dnnf_runtime::{ExecOptions, Executor};
use dnnf_simdev::DeviceSpec;

/// Input seed for the `--verify` execution comparison; arbitrary but fixed
/// so the gate is deterministic.
const VERIFY_SEED: u64 = 0x1057_F11E;

/// Lowercase slug of a model display name: alphanumerics kept, every other
/// run of characters collapsed to one `-`.
fn slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut dash = false;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            dash = false;
        } else if !dash && !out.is_empty() {
            out.push('-');
            dash = true;
        }
    }
    out.trim_end_matches('-').to_string()
}

/// Every exportable graph: the 15 paper models plus the decoder pair.
fn catalog() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    for kind in ModelKind::all() {
        let graph = kind
            .build(ModelScale::tiny())
            .expect("bundled builders construct at tiny scale");
        out.push((slug(kind.name()), graph));
    }
    let config = DecoderConfig::test_tiny();
    out.push((
        "decoder-prefill".to_string(),
        decoder_prefill(&config, 8).expect("prefill builds at tiny scale"),
    ));
    out.push((
        "decoder-step".to_string(),
        decoder_step(&config, 8).expect("step builds at tiny scale"),
    ));
    out
}

struct Args {
    out: PathBuf,
    models: Vec<String>,
    verify: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: PathBuf::from("dnnfg-models"),
        models: Vec::new(),
        verify: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--model" => args.models.push(value("--model")?),
            "--verify" => args.verify = true,
            "--help" | "-h" => {
                return Err(
                    "usage: graph_export --out <dir> [--model <slug>]... [--verify]".into(),
                );
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// Enforces the round-trip contract for one exported file. Returns a
/// human-readable violation, or `None` when the contract holds.
fn verify(graph: &Graph, path: &Path) -> Option<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return Some(format!("cannot re-read export: {e}")),
    };
    let imported = match dnnf_io::from_text(&text) {
        Ok(g) => g,
        Err(e) => return Some(format!("import rejected own export: {e}")),
    };
    if imported.fingerprint() != graph.fingerprint() {
        return Some(format!(
            "fingerprint drift: builder {} vs import {}",
            graph.fingerprint(),
            imported.fingerprint()
        ));
    }
    if dnnf_io::to_text(&imported) != text {
        return Some("re-export of the import is not byte-identical".into());
    }

    // Full-pipeline tolerance-0 comparison: compile both graphs with the
    // default options (rewriting on) and execute on identical inputs.
    let inputs = fuzz_inputs(graph, VERIFY_SEED);
    let executor =
        Executor::new(DeviceSpec::snapdragon_865_cpu()).with_options(ExecOptions::serial());
    let run = |g: &Graph| -> Result<Vec<dnnf_tensor::Tensor>, String> {
        let compiled = Compiler::new(CompilerOptions::default())
            .compile(g)
            .map_err(|e| format!("compile failed: {e}"))?;
        Ok(executor
            .run_compiled(&compiled, &inputs)
            .map_err(|e| format!("run failed: {e}"))?
            .outputs)
    };
    let original = match run(graph) {
        Ok(outputs) => outputs,
        Err(e) => return Some(format!("builder graph: {e}")),
    };
    let roundtrip = match run(&imported) {
        Ok(outputs) => outputs,
        Err(e) => return Some(format!("imported graph: {e}")),
    };
    for (i, (a, b)) in original.iter().zip(&roundtrip).enumerate() {
        if a.shape() != b.shape() {
            return Some(format!("output {i}: shape drift"));
        }
        if let Some(at) = a.first_disagreement(b, 0.0) {
            return Some(format!(
                "output {i} not bit-identical at element {at}: {} vs {}",
                a.data()[at],
                b.data()[at]
            ));
        }
    }
    None
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let catalog = catalog();
    let selected: Vec<&(String, Graph)> = if args.models.is_empty() {
        catalog.iter().collect()
    } else {
        let mut picked = Vec::new();
        for want in &args.models {
            match catalog.iter().find(|(name, _)| name == want) {
                Some(entry) => picked.push(entry),
                None => {
                    let known: Vec<&str> = catalog.iter().map(|(n, _)| n.as_str()).collect();
                    eprintln!("unknown model `{want}`; known: {}", known.join(", "));
                    return ExitCode::FAILURE;
                }
            }
        }
        picked
    };

    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for (name, graph) in selected {
        let path = args.out.join(format!("{name}.dnnfg"));
        if let Err(e) = dnnf_io::save(graph, &path) {
            eprintln!("FAIL {name}: {e}");
            failed = true;
            continue;
        }
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        if args.verify {
            match verify(graph, &path) {
                None => println!(
                    "ok   {name}: {} ops, {bytes} bytes, fingerprint {} (round-trip verified, outputs bit-identical)",
                    graph.node_count(),
                    graph.fingerprint()
                ),
                Some(violation) => {
                    eprintln!("FAIL {name}: {violation}");
                    failed = true;
                }
            }
        } else {
            println!(
                "ok   {name}: {} ops, {bytes} bytes, fingerprint {}",
                graph.node_count(),
                graph.fingerprint()
            );
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
