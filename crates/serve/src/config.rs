//! Server tuning knobs.

use std::time::Duration;

use dnnf_runtime::ExecOptions;
use dnnf_simdev::DeviceSpec;

/// Tuning knobs of a [`Server`](crate::Server).
///
/// The two batching knobs trade latency for throughput: a worker dispatches
/// a model's queue as soon as `max_batch` rows are waiting, and otherwise
/// waits at most `batch_window` (measured from the oldest queued request)
/// for co-riders before running a partial batch. `batch_window = 0` gives
/// pass-through behaviour — every request runs as soon as a worker is free,
/// still coalescing whatever already queued up while workers were busy.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most batch rows one dispatch may carry (requests above this are
    /// rejected as [`ServeError::BadRequest`](crate::ServeError)).
    pub max_batch: usize,
    /// How long the oldest queued request may wait for co-riders before its
    /// partial batch is dispatched anyway — the coalescing latency budget.
    pub batch_window: Duration,
    /// Per-model admission limit, in queued *requests*. Submits beyond it
    /// fail fast with [`ServeError::QueueFull`](crate::ServeError) —
    /// backpressure instead of unbounded buffering.
    pub queue_capacity: usize,
    /// Worker threads draining the queues. `0` is allowed (nothing is ever
    /// dispatched — useful for tests exercising admission control).
    pub workers: usize,
    /// Kernel execution options for the workers' executor (thread count,
    /// parallelism gate, SIMD switch). Outputs are bit-identical across all
    /// settings.
    pub exec: ExecOptions,
    /// The simulated device the executor models.
    pub device: DeviceSpec,
    /// Has no effect: a dispatch runs kernels and simulates nothing (the
    /// simulated device lives in `Executor::estimate_plan` only). Frozen
    /// because `crates/bench/src/bin/benchmark/` writes this struct out field
    /// by field; delete it in the PR that next re-baselines the benchmark.
    pub simulate_cache: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            batch_window: Duration::from_millis(2),
            queue_capacity: 64,
            workers: 2,
            exec: ExecOptions::default(),
            device: DeviceSpec::snapdragon_865_cpu(),
            simulate_cache: false,
        }
    }
}

impl ServeConfig {
    /// Normalizes nonsensical values (zero `max_batch` or `queue_capacity`
    /// become 1) — called once when the server starts.
    #[must_use]
    pub(crate) fn normalized(mut self) -> Self {
        self.max_batch = self.max_batch.max(1);
        self.queue_capacity = self.queue_capacity.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane_and_normalization_clamps() {
        let c = ServeConfig::default();
        assert!(c.max_batch >= 1);
        assert!(c.queue_capacity >= 1);
        assert!(c.workers >= 1);
        let clamped = ServeConfig {
            max_batch: 0,
            queue_capacity: 0,
            ..ServeConfig::default()
        }
        .normalized();
        assert_eq!(clamped.max_batch, 1);
        assert_eq!(clamped.queue_capacity, 1);
    }
}
