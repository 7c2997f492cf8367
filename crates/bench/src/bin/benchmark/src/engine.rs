//! The pinned engine configuration and the output checks every phase shares.

use dnnf_runtime::{ExecOptions, Executor};
use dnnf_simdev::DeviceSpec;
use dnnf_tensor::Tensor;

/// Tolerance against the reference interpreter — the repository's own.
pub const ORACLE_TOLERANCE: f32 = 1e-5;

/// Engine threads, pinned: with one load generator and one serve worker the
/// benchmark never has more runnable threads than the two cores it is
/// specified for.
pub const ENGINE_THREADS: usize = 1;

pub fn exec_options() -> ExecOptions {
    ExecOptions::with_threads(ENGINE_THREADS)
}

/// The executor every direct run goes through: one thread, and no cache
/// simulation, which models a phone's cache and is not part of a real run.
pub fn executor() -> Executor {
    Executor::new(DeviceSpec::snapdragon_865_cpu())
        .without_cache_simulation()
        .with_options(exec_options())
}

/// Whether `outputs` match the interpreter's `expected` data within
/// [`ORACLE_TOLERANCE`], output by output.
pub fn matches_oracle(outputs: &[Tensor], expected: &[Vec<f32>]) -> bool {
    outputs.len() == expected.len()
        && outputs.iter().zip(expected).all(|(got, want)| {
            got.data().len() == want.len()
                && got
                    .data()
                    .iter()
                    .zip(want)
                    .all(|(a, b)| (a - b).abs() <= ORACLE_TOLERANCE)
        })
}

/// Whether two output lists are the same bits.
pub fn bit_identical(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counts verified operations: every attempt, and those that failed,
/// were refused, or returned a wrong answer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one attempt; returns `ok` for chaining.
    pub fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }
}
