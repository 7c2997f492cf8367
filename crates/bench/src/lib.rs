//! Benchmark harness regenerating every table and figure of the DNNFusion
//! paper's evaluation (§5).
//!
//! [`paper::EXPERIMENTS`] holds one row per table or figure; the `paper`
//! binary prints them (`cargo run --release -p dnnf-bench --bin paper --
//! [--reduced] [name ...]`, all twelve in the paper's order by default).
//! The other binaries under `src/bin/` are the engine's wall-clock harnesses
//! (`bench_exec` for execution, compilation and KV-cached decoding,
//! `serve_load` for `dnnf-serve`), each gated by its own table of
//! [`floors`]; the `random_model` differential fuzzer built on [`fuzz`]; the
//! cross-process `warm_start` check; and graph-file tools.

#![warn(missing_docs)]

pub mod floors;
pub mod fuzz;
pub mod paper;
