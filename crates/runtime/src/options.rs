//! Execution options for the fused-block engine.

use dnnf_ops::parallel::DEFAULT_PARALLEL_WORK_GRAIN;
use dnnf_ops::WorkPool;

/// Environment variable overriding the default thread count (used by CI to
/// pin the whole test suite to a fixed parallelism).
pub const NUM_THREADS_ENV: &str = "DNNF_NUM_THREADS";

/// Environment variable forcing the scalar (non-lane-blocked) kernel paths
/// in [`ExecOptions::default`]: `1` sets [`ExecOptions::force_scalar`], `0`
/// (or unset / empty) leaves the SIMD paths on. This is the third
/// determinism axis CI sweeps — thread count, repeat runs, and SIMD on/off —
/// and, like [`NUM_THREADS_ENV`], it only affects defaulted options, never
/// values set explicitly through the builders.
pub const FORCE_SCALAR_ENV: &str = "DNNF_FORCE_SCALAR";

/// Environment variable pinning the 128-bit SSE instance of the lane-blocked
/// kernels in [`ExecOptions::default`]: `1` sets [`ExecOptions::force_sse`],
/// `0` (or unset / empty) lets a launch run the 256-bit AVX instance where
/// the CPU has AVX. Wired exactly like [`FORCE_SCALAR_ENV`]; on an AVX host
/// it is how the suite covers the instance every other host runs.
pub const FORCE_SSE_ENV: &str = "DNNF_FORCE_SSE";

/// How the executor maps kernels onto host threads and vector lanes.
///
/// The defaults come from the host: `num_threads` is
/// [`std::thread::available_parallelism`] unless the `DNNF_NUM_THREADS`
/// environment variable overrides it. `num_threads = 1` recovers the fully
/// serial engine; any other value changes **only** wall-clock behaviour —
/// the parallel kernels partition output elements by ownership and keep the
/// serial accumulation order, so results are bit-identical across thread
/// counts (the determinism suite pins this). The same contract holds one
/// level down for [`ExecOptions::force_scalar`]: SIMD lanes own whole
/// output elements, so the lane-blocked and scalar paths also produce the
/// same bytes — and so do the 256-bit and 128-bit instances of the lane
/// paths ([`ExecOptions::force_sse`]).
///
/// # Environment-override precedence
///
/// [`ExecOptions::default`] consults `DNNF_NUM_THREADS`, `DNNF_FORCE_SCALAR`
/// and `DNNF_FORCE_SSE`; values set explicitly through the builders are
/// taken verbatim and are never overridden by the environment:
///
/// ```
/// use dnnf_runtime::{ExecOptions, FORCE_SCALAR_ENV, FORCE_SSE_ENV, NUM_THREADS_ENV};
///
/// // Each doc-test runs in its own process, so mutating the environment
/// // here cannot race another test.
/// std::env::set_var(NUM_THREADS_ENV, "3");
/// std::env::set_var(FORCE_SCALAR_ENV, "1");
/// std::env::set_var(FORCE_SSE_ENV, "1");
/// // `default()` reads the environment...
/// assert_eq!(ExecOptions::default().num_threads, 3);
/// assert!(ExecOptions::default().force_scalar);
/// assert!(ExecOptions::default().force_sse);
/// // ...but an explicit builder value wins over it,
/// assert_eq!(ExecOptions::with_threads(2).num_threads, 2);
/// assert!(!ExecOptions::with_threads(2).force_scalar);
/// assert!(!ExecOptions::with_threads(2).force_sse);
/// // and `serial()` is always exactly one SIMD-enabled thread.
/// assert_eq!(ExecOptions::serial().num_threads, 1);
/// assert!(!ExecOptions::serial().force_scalar);
/// std::env::remove_var(NUM_THREADS_ENV);
/// std::env::remove_var(FORCE_SCALAR_ENV);
/// std::env::remove_var(FORCE_SSE_ENV);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Maximum threads a kernel launch may use (clamped to at least 1).
    pub num_threads: usize,
    /// Minimum per-launch work (≈ scalar operations) before a kernel is
    /// split across threads; smaller launches run serially so thread-spawn
    /// latency is only paid where it amortizes. `0` forces the parallel
    /// path everywhere — useful in tests, rarely in production.
    pub min_parallel_work: usize,
    /// Runs the width-1 (scalar) instance of every lane-blocked (SIMD)
    /// kernel — the dot micro-kernel of packed conv, `MatMul` and `Gemm`,
    /// and the other anchor kernels — instead of its SSE or AVX one. Scalar
    /// tapes ignore it: their strip loops are the same plain loops in every
    /// mode. Results are bit-identical either way — lanes map to whole
    /// output elements, never to partial sums — so this is an escape hatch
    /// for differential testing and for measuring the vectorization win
    /// (`bench_exec`'s `simd_speedup` column), not a semantics switch.
    pub force_scalar: bool,
    /// Test-only: pins the 128-bit SSE instance of the dot micro-kernel
    /// (packed conv, `MatMul`, `Gemm`) where the CPU also has AVX, which a
    /// launch otherwise picks at run time. Results are bit-identical either
    /// way (`avx` is enabled alone, never `fma`); the switch exists so a
    /// test run on an AVX host (CI's `DNNF_FORCE_SSE=1` leg) covers the
    /// instance every host without AVX runs. It changes no result and no
    /// workload needs it.
    pub force_sse: bool,
}

impl ExecOptions {
    /// Fully serial execution (today's single-core path).
    #[must_use]
    pub const fn serial() -> Self {
        ExecOptions {
            num_threads: 1,
            min_parallel_work: DEFAULT_PARALLEL_WORK_GRAIN,
            force_scalar: false,
            force_sse: false,
        }
    }

    /// Options using up to `num_threads` threads with the default work gate.
    #[must_use]
    pub fn with_threads(num_threads: usize) -> Self {
        ExecOptions {
            num_threads: num_threads.max(1),
            ..ExecOptions::serial()
        }
    }

    /// These options with the SIMD paths disabled (see
    /// [`ExecOptions::force_scalar`]).
    #[must_use]
    pub const fn scalar_kernels(mut self) -> Self {
        self.force_scalar = true;
        self
    }

    /// The worker pool these options describe.
    #[must_use]
    pub fn pool(&self) -> WorkPool {
        WorkPool::with_min_work(self.num_threads, self.min_parallel_work)
            .with_simd(!self.force_scalar)
            .with_avx(!self.force_sse)
    }
}

/// Parses a `DNNF_NUM_THREADS`-style value: `None`/empty means "unset"
/// (fall back to the host default), otherwise the value must be a positive
/// integer. The error message names the variable so a typo in a CI config
/// fails loudly instead of silently un-pinning the run.
fn parse_num_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    match raw {
        None => Ok(None),
        Some(raw) if raw.trim().is_empty() => Ok(None),
        Some(raw) => raw
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .map(Some)
            .ok_or_else(|| format!("{NUM_THREADS_ENV} must be a positive integer, got `{raw}`")),
    }
}

/// Parses the value of the switch variable `var` (`DNNF_FORCE_SCALAR`,
/// `DNNF_FORCE_SSE`): `None`/empty means "unset" (the switch stays off),
/// otherwise the value must be exactly `0` or `1`.
fn parse_switch(var: &str, raw: Option<&str>) -> Result<Option<bool>, String> {
    match raw {
        None => Ok(None),
        Some(raw) if raw.trim().is_empty() => Ok(None),
        Some(raw) => match raw.trim() {
            "0" => Ok(Some(false)),
            "1" => Ok(Some(true)),
            _ => Err(format!("{var} must be 0 or 1, got `{raw}`")),
        },
    }
}

impl Default for ExecOptions {
    /// `DNNF_NUM_THREADS` when set to a positive integer, otherwise the
    /// host's available parallelism; `DNNF_FORCE_SCALAR=1` additionally
    /// disables the lane-blocked kernel paths, and `DNNF_FORCE_SSE=1` pins
    /// their SSE instance.
    ///
    /// # Panics
    ///
    /// Panics when `DNNF_NUM_THREADS` is set to anything but a positive
    /// integer, or `DNNF_FORCE_SCALAR` / `DNNF_FORCE_SSE` to anything but
    /// `0`/`1` (the empty string counts as unset for all three). The variables exist so CI can pin
    /// the engine's parallelism and vectorization; silently falling back to
    /// the host default on a typo would un-pin the very runs that rely on
    /// them.
    fn default() -> Self {
        let threads_raw = std::env::var(NUM_THREADS_ENV).ok();
        let num_threads = parse_num_threads(threads_raw.as_deref())
            .unwrap_or_else(|e| panic!("{e}"))
            .unwrap_or_else(|| WorkPool::host().threads());
        let switch = |var| {
            parse_switch(var, std::env::var(var).ok().as_deref())
                .unwrap_or_else(|e| panic!("{e}"))
                .unwrap_or(false)
        };
        ExecOptions {
            force_scalar: switch(FORCE_SCALAR_ENV),
            force_sse: switch(FORCE_SSE_ENV),
            ..ExecOptions::with_threads(num_threads)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_options_build_a_serial_pool() {
        let opts = ExecOptions::serial();
        assert_eq!(opts.num_threads, 1);
        assert!(opts.pool().is_serial());
        assert!(!opts.force_scalar);
        assert!(opts.pool().use_simd());
    }

    #[test]
    fn force_scalar_propagates_to_the_pool() {
        let opts = ExecOptions::serial().scalar_kernels();
        assert!(opts.force_scalar);
        assert!(!opts.pool().use_simd());
        let threaded = ExecOptions::with_threads(4).scalar_kernels();
        assert_eq!(threaded.pool().threads(), 4);
        assert!(!threaded.pool().use_simd());
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(ExecOptions::with_threads(0).num_threads, 1);
        assert_eq!(ExecOptions::with_threads(6).num_threads, 6);
        assert_eq!(ExecOptions::with_threads(6).pool().threads(), 6);
    }

    #[test]
    fn default_reflects_host_or_env() {
        // The env var may or may not be set in the environment running the
        // suite; either way the result must be a positive thread count.
        assert!(ExecOptions::default().num_threads >= 1);
        assert_eq!(
            ExecOptions::default().min_parallel_work,
            DEFAULT_PARALLEL_WORK_GRAIN
        );
    }

    #[test]
    fn num_threads_parsing_accepts_positive_integers_only() {
        // Unset / empty fall back to the host default.
        assert_eq!(parse_num_threads(None), Ok(None));
        assert_eq!(parse_num_threads(Some("")), Ok(None));
        assert_eq!(parse_num_threads(Some("   ")), Ok(None));
        // Valid values (whitespace tolerated).
        assert_eq!(parse_num_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_num_threads(Some(" 8 ")), Ok(Some(8)));
        // Malformed values fail loudly, naming the variable.
        for bad in ["0", "-2", "four", "2.5", "1e3", "0x4"] {
            let err = parse_num_threads(Some(bad)).unwrap_err();
            assert!(
                err.contains(NUM_THREADS_ENV) && err.contains(bad),
                "error `{err}` must name the variable and the bad value"
            );
        }
    }

    #[test]
    fn force_scalar_parsing_accepts_zero_or_one_only() {
        for var in [FORCE_SCALAR_ENV, FORCE_SSE_ENV] {
            assert_eq!(parse_switch(var, None), Ok(None));
            assert_eq!(parse_switch(var, Some("")), Ok(None));
            assert_eq!(parse_switch(var, Some("0")), Ok(Some(false)));
            assert_eq!(parse_switch(var, Some(" 1 ")), Ok(Some(true)));
            for bad in ["2", "true", "yes", "on", "-1"] {
                let err = parse_switch(var, Some(bad)).unwrap_err();
                assert!(
                    err.contains(var) && err.contains(bad),
                    "error `{err}` must name the variable and the bad value"
                );
            }
        }
    }

    #[test]
    fn force_sse_propagates_to_the_pool() {
        let opts = ExecOptions::serial();
        assert!(!opts.force_sse);
        assert_eq!(opts.pool().avx(), dnnf_ops::simd::Avx::detect());
        let sse = ExecOptions {
            force_sse: true,
            ..ExecOptions::with_threads(4)
        };
        assert!(sse.pool().use_simd() && sse.pool().avx().is_none());
        assert!(ExecOptions::serial()
            .scalar_kernels()
            .pool()
            .avx()
            .is_none());
    }
}
