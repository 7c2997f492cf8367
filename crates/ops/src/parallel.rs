//! A dependency-free scoped-thread work pool for data-parallel kernels.
//!
//! The fused execution engine splits anchor kernels and scalar tapes over
//! threads by **output ownership**: every output element is computed, start
//! to finish, by exactly one thread, running the very same accumulation loop
//! the serial kernel runs. No reduction is ever split across threads
//! (never a split-K), so results are bit-identical for every thread count
//! and every task-to-thread assignment — determinism is structural, not a
//! property of scheduling.
//!
//! [`WorkPool`] is intentionally tiny: it carries a thread count, a
//! minimum-work threshold and two switches for the lane kernels (SIMD on,
//! AVX allowed), and parallel regions are realized with
//! [`std::thread::scope`] (the build environment has no crate registry, so
//! no rayon). Threads are spawned per parallel region; the
//! [`WorkPool::for_work`] gate keeps small kernels serial so spawn latency
//! is only ever paid where the region is large enough to amortize it.

use crate::simd::Avx;

/// Work (roughly: scalar multiply-accumulates) below which a parallel region
/// is not worth its thread spawns. A region of this size runs in the low
/// hundreds of microseconds serially; scoped spawn + join of a few threads
/// costs tens of microseconds.
pub const DEFAULT_PARALLEL_WORK_GRAIN: usize = 1 << 18;

/// A scoped-thread work pool.
///
/// Copyable and allocation-free to hold; threads only exist for the duration
/// of each parallel region ([`WorkPool::run_parts`] /
/// [`WorkPool::run_chunks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkPool {
    threads: usize,
    min_work: usize,
    simd: bool,
    avx: bool,
}

impl WorkPool {
    /// A pool that runs everything on the calling thread.
    #[must_use]
    pub const fn serial() -> Self {
        WorkPool {
            threads: 1,
            min_work: DEFAULT_PARALLEL_WORK_GRAIN,
            simd: true,
            avx: true,
        }
    }

    /// A pool using up to `threads` threads (clamped to at least 1) with the
    /// default work gate.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        WorkPool {
            threads: threads.max(1),
            ..WorkPool::serial()
        }
    }

    /// A pool with an explicit minimum-work gate. `min_work = 0` forces the
    /// parallel path regardless of region size — the differential tests use
    /// this to exercise the threaded kernels on small fixtures.
    #[must_use]
    pub fn with_min_work(threads: usize, min_work: usize) -> Self {
        WorkPool {
            threads: threads.max(1),
            min_work,
            ..WorkPool::serial()
        }
    }

    /// Enables or disables the lane-blocked (SIMD) kernel paths. Both paths
    /// are bit-identical by construction (lanes own whole output elements —
    /// see [`crate::simd`]); `simd = false` exists so differential suites
    /// can pin that equivalence and benches can measure the vectorization
    /// win (`ExecOptions::force_scalar` in `dnnf-runtime` maps here).
    #[must_use]
    pub const fn with_simd(mut self, simd: bool) -> Self {
        self.simd = simd;
        self
    }

    /// Whether kernels should take their lane-blocked (SIMD) paths.
    #[must_use]
    pub const fn use_simd(&self) -> bool {
        self.simd
    }

    /// Allows or forbids the 256-bit AVX instance of the dot micro-kernel
    /// (allowed by default; it only runs where the CPU has AVX).
    /// `avx = false` pins the SSE instance every other host runs, so a
    /// differential suite on an AVX host covers it too
    /// (`ExecOptions::force_sse` in `dnnf-runtime` maps here); both are
    /// bit-identical by construction.
    #[must_use]
    pub const fn with_avx(mut self, avx: bool) -> Self {
        self.avx = avx;
        self
    }

    /// The AVX token when this pool's dot micro-kernel runs the 256-bit
    /// instance: SIMD on, AVX allowed, and the CPU has it. A launch calls
    /// this once and runs the SSE instance on `None`.
    #[must_use]
    pub fn avx(&self) -> Option<Avx> {
        if self.simd && self.avx {
            Avx::detect()
        } else {
            None
        }
    }

    /// A pool sized to the host's available parallelism.
    #[must_use]
    pub fn host() -> Self {
        WorkPool::new(Self::host_parallelism())
    }

    /// The host's available parallelism (cached after the first query;
    /// at least 1).
    #[must_use]
    pub fn host_parallelism() -> usize {
        use std::sync::OnceLock;
        static HOST: OnceLock<usize> = OnceLock::new();
        *HOST.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// Number of threads parallel regions may use.
    ///
    /// This is the *partition width*: kernels split work into up to this
    /// many parts, so the chunk→data mapping (and therefore every output
    /// bit) follows the requested thread count even when the host cannot
    /// actually run that many threads at once. The number of OS threads a
    /// region really spawns is capped separately — see
    /// [`WorkPool::effective_threads`].
    #[must_use]
    pub const fn threads(&self) -> usize {
        self.threads
    }

    /// Number of OS threads a parallel region will actually occupy:
    /// [`WorkPool::threads`] clamped to the host's available parallelism.
    ///
    /// Requesting more threads than the host has cores (e.g.
    /// `DNNF_NUM_THREADS=4` on a 1-core CI runner) used to spawn them all
    /// and lose time to context switching — oversubscription made the
    /// engine *slower* than serial. Clamping the spawn count fixes the
    /// wall-clock without touching results: parts are still built per
    /// [`WorkPool::threads`] and each part is still executed start-to-finish
    /// by exactly one thread, so outputs stay bit-identical.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        self.threads.min(Self::host_parallelism()).max(1)
    }

    /// Whether this pool runs everything on the calling thread.
    #[must_use]
    pub const fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Gates a parallel region by its size: returns `self` when `work`
    /// (≈ scalar operations in the region) meets the pool's threshold, and a
    /// serial pool otherwise. Kernels call this before partitioning so tiny
    /// launches never pay thread-spawn latency.
    #[must_use]
    pub fn for_work(self, work: usize) -> WorkPool {
        if self.threads > 1 && work >= self.min_work {
            self
        } else {
            WorkPool { threads: 1, ..self }
        }
    }

    /// Runs `f` once per part, each part executed start-to-finish by exactly
    /// one thread. The caller prepares at most [`WorkPool::threads`] parts;
    /// parts are distributed round-robin over
    /// [`WorkPool::effective_threads`] workers (the calling thread is one of
    /// them), so an oversubscribed pool never spawns more OS threads than
    /// the host can run. With one part (or a serial pool) nothing is
    /// spawned.
    pub fn run_parts<T: Send>(&self, parts: Vec<T>, f: impl Fn(T) + Sync) {
        debug_assert!(parts.len() <= self.threads.max(1));
        let workers = self.effective_threads().min(parts.len()).max(1);
        if parts.len() <= 1 || workers <= 1 || self.is_serial() {
            for part in parts {
                f(part);
            }
            return;
        }
        let mut groups: Vec<Vec<T>> = (0..workers)
            .map(|_| Vec::with_capacity(parts.len().div_ceil(workers)))
            .collect();
        for (i, part) in parts.into_iter().enumerate() {
            groups[i % workers].push(part);
        }
        std::thread::scope(|scope| {
            let f = &f;
            let mut rest = groups.into_iter();
            let local = rest.next().expect("more than one worker");
            for group in rest {
                scope.spawn(move || {
                    for part in group {
                        f(part);
                    }
                });
            }
            for part in local {
                f(part);
            }
        });
    }

    /// Splits `data` into consecutive chunks of `chunk_len` elements (the
    /// last may be shorter) and calls `f(chunk_index, chunk)` for each, with
    /// chunks distributed round-robin over the pool's effective workers.
    /// Chunk `i` always covers `data[i * chunk_len ..]` — the mapping from
    /// index to elements never depends on the thread count, and each chunk
    /// is written by exactly one thread.
    pub fn run_chunks(
        &self,
        data: &mut [f32],
        chunk_len: usize,
        f: impl Fn(usize, &mut [f32]) + Sync,
    ) {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let chunks = data.len().div_ceil(chunk_len);
        let workers = self.effective_threads().min(chunks).max(1);
        if workers <= 1 {
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(i, chunk);
            }
            return;
        }
        let mut parts: Vec<Vec<(usize, &mut [f32])>> = (0..workers)
            .map(|_| Vec::with_capacity(chunks.div_ceil(workers)))
            .collect();
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            parts[i % workers].push((i, chunk));
        }
        self.run_parts(parts, |part| {
            for (i, chunk) in part {
                f(i, chunk);
            }
        });
    }
}

impl Default for WorkPool {
    fn default() -> Self {
        WorkPool::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_pool_runs_on_the_calling_thread() {
        let pool = WorkPool::serial();
        assert!(pool.is_serial());
        let caller = std::thread::current().id();
        let mut data = vec![0.0f32; 10];
        pool.run_chunks(&mut data, 3, |i, chunk| {
            assert_eq!(std::thread::current().id(), caller);
            for v in chunk.iter_mut() {
                *v = i as f32;
            }
        });
        assert_eq!(data, vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0]);
    }

    #[test]
    fn chunks_cover_the_slice_exactly_once_under_parallelism() {
        let pool = WorkPool::with_min_work(8, 0);
        let mut data = vec![-1.0f32; 1000];
        pool.run_chunks(&mut data, 7, |i, chunk| {
            let base = i * 7;
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (base + k) as f32;
            }
        });
        for (k, &v) in data.iter().enumerate() {
            assert_eq!(v, k as f32);
        }
    }

    #[test]
    fn run_parts_executes_every_part() {
        let pool = WorkPool::with_min_work(4, 0);
        let counter = AtomicUsize::new(0);
        let parts: Vec<usize> = (0..4).collect();
        pool.run_parts(parts, |p| {
            counter.fetch_add(p + 1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1 + 2 + 3 + 4);
    }

    #[test]
    fn work_gate_serializes_small_regions() {
        let pool = WorkPool::new(8);
        assert!(pool.for_work(16).is_serial());
        assert_eq!(pool.for_work(DEFAULT_PARALLEL_WORK_GRAIN).threads(), 8);
        // An explicit zero gate always stays parallel.
        let eager = WorkPool::with_min_work(8, 0);
        assert_eq!(eager.for_work(0).threads(), 8);
        // Serial pools stay serial regardless of work size.
        assert!(WorkPool::serial().for_work(usize::MAX).is_serial());
    }

    #[test]
    fn chunk_count_caps_the_worker_count() {
        // Two chunks, eight threads: only two parts may be built; the
        // debug_assert in run_parts would catch an oversubscribed split.
        let pool = WorkPool::with_min_work(8, 0);
        let mut data = vec![0.0f32; 8];
        pool.run_chunks(&mut data, 4, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i as f32 + 1.0;
            }
        });
        assert_eq!(&data[..4], &[1.0; 4]);
        assert_eq!(&data[4..], &[2.0; 4]);
    }

    #[test]
    fn host_pool_reports_at_least_one_thread() {
        assert!(WorkPool::host().threads() >= 1);
        assert_eq!(WorkPool::default(), WorkPool::serial());
    }

    #[test]
    fn spawn_count_is_clamped_to_host_parallelism() {
        let host = WorkPool::host_parallelism();
        // An absurdly oversubscribed pool keeps its partition width…
        let pool = WorkPool::with_min_work(1024, 0);
        assert_eq!(pool.threads(), 1024);
        // …but never occupies more OS threads than the host has.
        assert_eq!(pool.effective_threads(), host.min(1024));
        assert_eq!(WorkPool::new(1).effective_threads(), 1);

        // Run a many-part region and count the distinct threads touched.
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let counter = AtomicUsize::new(0);
        let parts: Vec<usize> = (0..64).collect();
        let wide = WorkPool::with_min_work(64, 0);
        wide.run_parts(parts, |p| {
            seen.lock().unwrap().insert(std::thread::current().id());
            counter.fetch_add(p, Ordering::SeqCst);
        });
        // Every part ran exactly once…
        assert_eq!(counter.load(Ordering::SeqCst), (0..64).sum::<usize>());
        // …on no more threads than the host can actually run.
        let distinct = seen.lock().unwrap().len();
        assert!(
            distinct <= host,
            "spawned {distinct} threads on a {host}-way host"
        );
    }

    #[test]
    fn oversubscribed_chunks_stay_deterministic() {
        // The chunk→data mapping must not depend on how many workers
        // actually ran: an oversubscribed pool and a serial pool must fill
        // the slice identically.
        let wide = WorkPool::with_min_work(1024, 0);
        let mut parallel = vec![0.0f32; 999];
        wide.run_chunks(&mut parallel, 13, |i, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (i * 13 + k) as f32 * 0.5;
            }
        });
        let mut serial = vec![0.0f32; 999];
        WorkPool::serial().run_chunks(&mut serial, 13, |i, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (i * 13 + k) as f32 * 0.5;
            }
        });
        assert_eq!(parallel, serial);
    }

    #[test]
    fn simd_flag_defaults_on_and_survives_gating() {
        assert!(WorkPool::serial().use_simd());
        assert!(WorkPool::new(4).use_simd());
        let scalar = WorkPool::new(4).with_simd(false);
        assert!(!scalar.use_simd());
        // The work-size gate must not re-enable the SIMD path.
        assert!(!scalar.for_work(0).use_simd());
        assert!(!scalar.for_work(usize::MAX).use_simd());
        assert!(scalar.with_simd(true).use_simd());
    }
}
