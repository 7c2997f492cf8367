//! Benchmark harness regenerating every table and figure of the DNNFusion
//! paper's evaluation (§5).
//!
//! [`paper::EXPERIMENTS`] holds one row per table or figure; the `paper`
//! binary prints them (`cargo run --release -p dnnf-bench --bin paper --
//! [--reduced] [name ...]`, all twelve in the paper's order by default).
//! The other binaries under `src/bin/` are the engine's wall-clock harnesses
//! (`bench_exec`, `serve_load`, `bench_decode`), the `random_model`
//! differential fuzzer built on [`fuzz`], and graph-file tools; the Criterion
//! benches under `benches/` measure compilation and execution wall-clock on
//! this machine.

#![warn(missing_docs)]

pub mod fuzz;
pub mod paper;
