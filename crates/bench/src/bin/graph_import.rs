//! Loads `.dnnfg` files, validates them, and optionally executes them.
//!
//! For every path given, the file is parsed with the strict importer (any
//! damage rejects the whole file with a typed error) and a one-line summary
//! is printed: model name, operator/value counts, structural fingerprint
//! and input shape signature. With `--run`, each graph is additionally
//! compiled through the default pipeline and executed on seeded random
//! inputs, and the fused outputs are checked against the reference-kernel
//! interpreter within the fuzzer's `1e-5` tolerance — the same differential
//! the `random_model` fuzzer applies, but driven from a file.
//!
//! Exits non-zero if any file fails to parse, compile or agree.
//!
//! ```text
//! cargo run --release -p dnnf-bench --bin graph_import -- [--run] <file>...
//! ```

use std::process::ExitCode;

use dnnf_bench::fuzz::{fuzz_inputs, FUZZ_TOLERANCE};
use dnnf_core::{Compiler, CompilerOptions, Ecg, FusionPlan};
use dnnf_graph::Graph;
use dnnf_runtime::{ExecOptions, Executor};
use dnnf_simdev::DeviceSpec;

/// Input seed for `--run`; arbitrary but fixed so runs are reproducible.
const RUN_SEED: u64 = 0xD0_0DAD;

/// Compiles and executes the imported graph, differencing fused outputs
/// against the reference interpreter. Returns a violation, or `None`.
fn run_differential(graph: &Graph) -> Option<String> {
    let inputs = fuzz_inputs(graph, RUN_SEED);
    let executor =
        Executor::new(DeviceSpec::snapdragon_865_cpu()).with_options(ExecOptions::serial());
    let ecg = Ecg::new(graph.clone());
    let singletons = FusionPlan::singletons(&ecg);
    let reference = match executor.run_plan_reference(graph, &singletons, &inputs) {
        Ok(report) => report,
        Err(e) => return Some(format!("reference run failed: {e}")),
    };
    let compiled = match Compiler::new(CompilerOptions::default()).compile(graph) {
        Ok(compiled) => compiled,
        Err(e) => return Some(format!("compile failed: {e}")),
    };
    let fused = match executor.run_compiled(&compiled, &inputs) {
        Ok(report) => report,
        Err(e) => return Some(format!("fused run failed: {e}")),
    };
    for (i, (r, f)) in reference.outputs.iter().zip(&fused.outputs).enumerate() {
        if r.shape() != f.shape() {
            return Some(format!("output {i}: shape drift"));
        }
        if let Some(at) = r.first_disagreement(f, FUZZ_TOLERANCE) {
            return Some(format!(
                "output {i} disagrees with reference at element {at}: {} vs {}",
                r.data()[at],
                f.data()[at]
            ));
        }
    }
    None
}

fn main() -> ExitCode {
    let mut run = false;
    let mut paths: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--run" => run = true,
            "--help" | "-h" => {
                eprintln!("usage: graph_import [--run] <file>...");
                return ExitCode::FAILURE;
            }
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() {
        eprintln!("usage: graph_import [--run] <file>...");
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for path in &paths {
        let graph = match dnnf_io::load(path) {
            Ok(graph) => graph,
            Err(e) => {
                eprintln!("FAIL {path}: {e}");
                failed = true;
                continue;
            }
        };
        print!(
            "ok   {path}: `{}` {} ops, {} values, fingerprint {}, inputs {}",
            graph.name(),
            graph.node_count(),
            graph.value_count(),
            graph.fingerprint(),
            graph.shape_signature()
        );
        if run {
            match run_differential(&graph) {
                None => println!(" (executed, within {FUZZ_TOLERANCE:e} of reference)"),
                Some(violation) => {
                    println!();
                    eprintln!("FAIL {path}: {violation}");
                    failed = true;
                }
            }
        } else {
            println!();
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
