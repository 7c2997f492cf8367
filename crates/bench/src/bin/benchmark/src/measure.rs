//! What the measured process shares across workloads: its options and
//! result, the interleaved schedule of starts and steady segments, and the
//! estimators that turn their samples into one number per metric.
//!
//! The reference container is a small shared VM whose neighbours slow it by
//! a third or more, for seconds at a time when it is quiet and for most of
//! an hour when it is not, and only ever slow it. The phases are therefore
//! **interleaved**: a run is [`ROUNDS`] rounds of a few cold starts, a few
//! warm starts and a steady segment, so every metric samples the whole run.
//! Each metric is then estimated two ways ([`Estimate`]). `whole` is the
//! plain estimator over every sample of the run: the median of the starts,
//! the median latency, verified operations over the time the segments ran.
//! `quiet` applies the same estimator to each round on its own and takes the
//! quiet quartile across the rounds: the first quartile of a time, the third
//! of a rate. A round holds seconds of operations, so anything the code does
//! periodically is in every round and moves the quartile with them; a burst
//! of the host that spares two rounds in five does not.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use dnnf_core::{CompilationStats, Compiler, CompilerOptions};
use dnnf_graph::Graph;
use dnnf_profiledb::ProfileDatabase;
use dnnf_runtime::{PlanCache, PlanCacheStats};

use crate::engine::Tally;
use crate::spec::{self, Workload};
use crate::stats;
use crate::tracer::Tracer;

pub struct Options {
    /// Work directory holding `setup0/`, `setup1/`, ….
    pub dir: PathBuf,
    /// Total length of the steady measurement, split over the rounds.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    pub smoke: bool,
    pub seed: u64,
    /// Self-test fault: flip one bit in every served reply of one tenant.
    pub corrupt_reply: bool,
}

/// A workload's measurements: verified-operation counts and metric values
/// by name (end-to-end without `setup_s`, or per-layer when traced).
pub struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<String, f64>,
}

/// Rounds a run is split into.
pub const ROUNDS: usize = 5;

/// One steady segment: the operations of one uninterrupted stretch.
#[derive(Default)]
pub struct Segment {
    /// Latency of every operation, milliseconds, in order.
    pub latencies_ms: Vec<f64>,
    /// Operations whose result was verified.
    pub verified: u64,
    /// Verified operations that were also within the latency limit.
    pub within_limit: u64,
    /// From the segment's start to its last operation checked, seconds.
    pub seconds: f64,
}

impl Segment {
    /// Records one checked operation of a segment that began at `start`.
    pub fn push(&mut self, start: Instant, latency_ms: f64, ok: bool, limit_ms: f64) {
        self.latencies_ms.push(latency_ms);
        self.seconds = start.elapsed().as_secs_f64();
        self.verified += u64::from(ok);
        self.within_limit += u64::from(ok && latency_ms <= limit_ms);
    }
}

/// Runs `op` back to back for `seconds`: the closed loop of one client that
/// sends its next operation when the previous one has been answered and
/// checked. `op` returns the operation's latency and whether its result was
/// verified; every call is tallied.
pub fn closed_loop(
    workload: Workload,
    seconds: f64,
    tally: &mut Tally,
    mut op: impl FnMut(u64) -> (f64, bool),
) -> Segment {
    let limit = workload.latency_limit_ms();
    let mut segment = Segment::default();
    let start = Instant::now();
    let mut index = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let (ms, ok) = op(index);
        index += 1;
        segment.push(start, ms, tally.check(ok), limit);
    }
    segment
}

/// What a workload exposes to the interleaved schedule.
pub trait Subject {
    /// One start from files on disk to the first verified result — cold
    /// (every cache empty) or warm (persisted plan seeds and profile store
    /// loaded first) — inside a root span. Returns its milliseconds.
    fn start(&mut self, tracer: &mut Tracer, warm: bool) -> Result<f64, String>;

    /// One steady segment of about `seconds`, on the state the first warm
    /// start left behind.
    fn steady(&mut self, tracer: &mut Tracer, seconds: f64) -> Result<Segment, String>;
}

/// The samples of one round.
#[derive(Default)]
pub struct Round {
    pub cold_ms: Vec<f64>,
    pub warm_ms: Vec<f64>,
    /// The steady segment measured without recording spans.
    pub plain: Segment,
    /// The steady segment measured with spans recorded (traced runs only).
    pub traced: Segment,
}

/// Runs the interleaved schedule. A traced run gives each round's steady
/// time to two shorter segments, one without and one with spans recorded,
/// so the overhead of tracing is itself measured; the rest of the window is
/// left to the fixed-size layer probes.
pub fn run_rounds(
    subject: &mut impl Subject,
    workload: Workload,
    opts: &Options,
    tracer: &mut Tracer,
) -> Result<Vec<Round>, String> {
    let starts = workload.start_reps(opts.smoke);
    let count = if opts.smoke { 1 } else { ROUNDS };
    let mut rounds = Vec::new();
    for index in 0..count {
        let mut round = Round::default();
        // Spread the starts evenly: round r takes the reps whose index
        // falls to it.
        let reps = (index + 1) * starts / count - index * starts / count;
        tracer.set_enabled(opts.trace);
        for _ in 0..reps {
            round.cold_ms.push(subject.start(tracer, false)?);
        }
        for _ in 0..reps {
            round.warm_ms.push(subject.start(tracer, true)?);
        }
        let seconds = opts.seconds / count as f64;
        if opts.trace {
            tracer.set_enabled(false);
            round.plain = subject.steady(tracer, seconds * 0.4)?;
            tracer.set_enabled(true);
            round.traced = subject.steady(tracer, seconds * 0.4)?;
        } else {
            round.plain = subject.steady(tracer, seconds)?;
        }
        rounds.push(round);
    }
    Ok(rounds)
}

/// One metric of a run, estimated over all its samples at once and round
/// by round (see the module text).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    pub whole: f64,
    pub quiet: f64,
}

/// First and third quartile; a lone sample stands for both.
fn quartiles(samples: &[f64]) -> (f64, f64) {
    match samples {
        [] => (0.0, 0.0),
        [only] => (*only, *only),
        _ => stats::quartiles(samples),
    }
}

/// A time-like metric: `samples` holds each round's samples, the estimator
/// is the median. A round without samples does not count.
pub fn median_time(samples: &[&[f64]]) -> Estimate {
    let per_round: Vec<f64> = samples
        .iter()
        .filter(|round| !round.is_empty())
        .map(|round| stats::median(round))
        .collect();
    Estimate {
        whole: stats::median(&samples.concat()),
        quiet: quartiles(&per_round).0,
    }
}

/// Median of the cold (or warm) starts.
pub fn start_ms(rounds: &[Round], warm: bool) -> Estimate {
    let starts = rounds
        .iter()
        .map(|r| if warm { &r.warm_ms } else { &r.cold_ms });
    median_time(&starts.map(|v| &v[..]).collect::<Vec<_>>())
}

/// Median latency of an operation over `segments`, one per round.
pub fn latency_p50<'a>(segments: impl Iterator<Item = &'a Segment>) -> Estimate {
    median_time(&segments.map(|s| &s.latencies_ms[..]).collect::<Vec<_>>())
}

/// Verified operations per second of the time `segments` ran.
pub fn throughput<'a>(segments: impl Iterator<Item = &'a Segment> + Clone) -> Estimate {
    let rate = |verified: u64, seconds: f64| {
        if seconds > 0.0 {
            verified as f64 / seconds
        } else {
            0.0
        }
    };
    let per_round: Vec<f64> = segments
        .clone()
        .filter(|s| s.seconds > 0.0)
        .map(|s| rate(s.verified, s.seconds))
        .collect();
    let (verified, seconds) = segments.fold((0, 0.0), |(v, t), s| (v + s.verified, t + s.seconds));
    Estimate {
        whole: rate(verified, seconds),
        quiet: quartiles(&per_round).1,
    }
}

/// Share of operations answered correctly within the limit.
pub fn within_limit_share<'a>(segments: impl Iterator<Item = &'a Segment>) -> f64 {
    let (within, attempted) = segments.fold((0, 0), |(w, a), s| {
        (w + s.within_limit, a + s.latencies_ms.len())
    });
    within as f64 / attempted.max(1) as f64
}

/// The untraced segments of a run, one per round.
pub fn plain(rounds: &[Round]) -> impl Iterator<Item = &Segment> + Clone {
    rounds.iter().map(|r| &r.plain)
}

/// The four estimated metrics of a run.
pub struct Estimates {
    pub cold_start_ms: Estimate,
    pub warm_start_ms: Estimate,
    pub latency_p50_ms: Estimate,
    pub throughput_per_s: Estimate,
}

impl Estimates {
    /// For a workload whose steady segments are one closed loop: latency
    /// and rate both come from the untraced segments.
    pub fn closed_loop(rounds: &[Round]) -> Estimates {
        Estimates {
            cold_start_ms: start_ms(rounds, false),
            warm_start_ms: start_ms(rounds, true),
            latency_p50_ms: latency_p50(plain(rounds)),
            throughput_per_s: throughput(plain(rounds)),
        }
    }

    /// The end-to-end metrics of the measured process (the parent adds
    /// `setup_s`): the quiet estimates, which are what the gate can hold.
    pub fn end_to_end(&self, within_limit_share: f64) -> BTreeMap<String, f64> {
        BTreeMap::from([
            ("cold_start_quiet_ms".to_string(), self.cold_start_ms.quiet),
            ("warm_start_quiet_ms".to_string(), self.warm_start_ms.quiet),
            (
                "latency_p50_quiet_ms".to_string(),
                self.latency_p50_ms.quiet,
            ),
            (
                "throughput_quiet_per_s".to_string(),
                self.throughput_per_s.quiet,
            ),
            ("within_limit_share".to_string(), within_limit_share),
            ("peak_rss_mb".to_string(), crate::engine::peak_rss_mb()),
        ])
    }

    /// The plain whole-run estimates, reported beside the per-layer rows:
    /// the numbers a user sees on this host, which its noise moves too far
    /// to gate on.
    pub fn whole_run_layers(&self, layers: &mut BTreeMap<String, f64>) {
        for (name, estimate) in [
            ("cold_start_ms", self.cold_start_ms),
            ("warm_start_ms", self.warm_start_ms),
            ("latency_p50_ms", self.latency_p50_ms),
            ("throughput_per_s", self.throughput_per_s),
        ] {
            layers.insert(name.to_string(), estimate.whole);
        }
    }
}

/// Starts a per-layer result with every name of the vocabulary at 0, so a
/// workload only fills in the layers on its path.
pub fn per_layer_zeroes() -> BTreeMap<String, f64> {
    spec::per_layer()
        .into_iter()
        .map(|m| (m.name, 0.0))
        .collect()
}

/// Traced against untraced median latency, minus one.
fn trace_overhead(rounds: &[Round]) -> f64 {
    let plain = latency_p50(plain(rounds)).whole;
    if plain > 0.0 {
        latency_p50(rounds.iter().map(|r| &r.traced)).whole / plain - 1.0
    } else {
        0.0
    }
}

/// The compiler a start uses: a fresh one with default options, and for a
/// warm start the persisted plan seeds loaded into `cache` and the persisted
/// profile store loaded into the compiler first (both clocked as spans).
/// Returns the compiler and the profile store's entry count.
pub fn compiler_for_start(
    t: &mut Tracer,
    dir: &std::path::Path,
    cache: &PlanCache,
    warm: bool,
) -> Result<(Compiler, usize), String> {
    let compiler = Compiler::new(CompilerOptions::default());
    if !warm {
        return Ok((compiler, 0));
    }
    t.time("runtime.plan_cache_load", "", |_| {
        cache.load_seeds(dir.join("plans.cache"))
    })
    .0
    .map_err(|e| e.to_string())?;
    let db = t
        .time("profiledb.load", "", |_| {
            ProfileDatabase::load(dir.join("profile.tsv"))
        })
        .0
        .map_err(|e| e.to_string())?;
    let entries = db.len();
    Ok((compiler.with_database(db), entries))
}

/// The span a start's compile call is recorded under: with the seeds loaded
/// the same call is a plan-cache hit.
pub fn compile_span(warm: bool) -> &'static str {
    if warm {
        "runtime.plan_cache_hit"
    } else {
        "core.compile"
    }
}

/// What the compiler says about the models one start compiled, summed.
#[derive(Default, Clone, Copy)]
pub struct CompileFacts {
    /// The compiler's own phase clocks, milliseconds: rewriting, planning,
    /// code generation.
    pub phases_ms: [f64; 3],
    pub rewrites: usize,
    pub layers_in: usize,
    pub blocks_out: usize,
    pub flops_removed: u64,
}

impl CompileFacts {
    pub fn add(&mut self, stats: &CompilationStats) {
        let phases = [
            stats.time_rewriting,
            stats.time_planning,
            stats.time_codegen,
        ];
        for (sum, phase) in self.phases_ms.iter_mut().zip(phases) {
            *sum += phase.as_secs_f64() * 1e3;
        }
        self.rewrites += stats.rewrites.len();
        self.layers_in += stats.original_layers;
        self.blocks_out += stats.fused_layers;
        self.flops_removed += stats.original_flops.saturating_sub(stats.optimized_flops);
    }
}

/// What one start observed besides its clock.
#[derive(Clone, Copy)]
pub struct StartFacts {
    pub compile: CompileFacts,
    pub cache: PlanCacheStats,
    pub profile_entries: usize,
}

fn median_ms(mut f: impl FnMut(), reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

/// The per-layer rows every workload that loads and compiles its own graphs
/// derives the same way from its start spans: `io.*`, `graph.*`, `core.*`,
/// the plan cache and profile store, the weight store and the first run.
/// `graphs` are the workload's graphs with their file sizes.
pub fn start_layers(
    layers: &mut BTreeMap<String, f64>,
    tracer: &Tracer,
    cold: &[StartFacts],
    warm: &StartFacts,
    graphs: &[(&Graph, u64)],
) {
    let mut put = |name: &str, value: f64| {
        layers.insert(name.to_string(), value);
    };
    let per_cold = |name: &str| stats::median(&tracer.per_root_ms("cold_start", name));
    let per_warm = |name: &str| stats::median(&tracer.per_root_ms("warm_start", name));

    let load_ms = per_cold("io.load");
    let nodes: usize = graphs.iter().map(|(g, _)| g.node_count()).sum();
    put("io.load_ms", load_ms);
    put(
        "io.bytes",
        graphs.iter().map(|&(_, bytes)| bytes).sum::<u64>() as f64,
    );
    put("io.nodes_per_s", nodes as f64 / (load_ms / 1e3));
    put(
        "graph.fingerprint_ms",
        graphs
            .iter()
            .map(|(g, _)| {
                median_ms(
                    || {
                        std::hint::black_box(g.fingerprint());
                    },
                    5,
                )
            })
            .sum(),
    );

    // Per cold start: the compile spans and the compiler's own phase clocks
    // inside them; what the phases leave over (ECG construction, kernel
    // compilation, the eager pseudo-C) is `other`. Spans and facts are both
    // in start order.
    let spans = tracer.per_root_ms("cold_start", "core.compile");
    let phase = |i: usize| {
        cold.iter()
            .map(|c| c.compile.phases_ms[i])
            .collect::<Vec<_>>()
    };
    let other: Vec<f64> = spans
        .iter()
        .zip(cold)
        .map(|(span, c)| span - c.compile.phases_ms.iter().sum::<f64>())
        .collect();
    put("core.compile_ms", stats::median(&spans));
    put("core.rewrite_ms", stats::median(&phase(0)));
    put("core.plan_ms", stats::median(&phase(1)));
    put("core.codegen_ms", stats::median(&phase(2)));
    put("core.other_ms", stats::median(&other));
    let last_cold = cold.last().expect("at least one cold start");
    put("core.rewrites_applied", last_cold.compile.rewrites as f64);
    put("core.layers_in", last_cold.compile.layers_in as f64);
    put("core.blocks_out", last_cold.compile.blocks_out as f64);
    put("core.flops_removed", last_cold.compile.flops_removed as f64);

    put(
        "runtime.plan_cache_hit_ms",
        per_warm("runtime.plan_cache_hit"),
    );
    put(
        "runtime.plan_cache_load_ms",
        per_warm("runtime.plan_cache_load"),
    );
    put(
        "runtime.plan_cache_hits",
        (warm.cache.disk_hits + warm.cache.memory_hits) as f64,
    );
    put("runtime.plan_cache_misses", last_cold.cache.misses as f64);
    // A warm start that still searches for a plan means the seeds did not
    // replay.
    put("runtime.plan_searches", warm.cache.misses as f64);
    put("profiledb.load_ms", per_warm("profiledb.load"));
    put("profiledb.entries", warm.profile_entries as f64);
    put("runtime.weight_store_ms", per_cold("runtime.weight_store"));
    put("runtime.first_run_ms", per_cold("runtime.first_run"));
    put(
        "trace.cold_start_covered_share",
        tracer.covered_share("cold_start"),
    );
}

/// The per-layer rows a closed-loop workload reads off its steady segments:
/// `runtime.run_p99_ms` with its sample count from the traced ones, and the
/// traced-against-untraced `trace.overhead_share`.
pub fn steady_layers(layers: &mut BTreeMap<String, f64>, rounds: &[Round]) {
    let traced = rounds.iter().flat_map(|r| &r.traced.latencies_ms);
    tail_layers(layers, traced.copied().collect());
    layers.insert("trace.overhead_share".into(), trace_overhead(rounds));
}

/// `runtime.run_p99_ms` and its sample count.
pub fn tail_layers(layers: &mut BTreeMap<String, f64>, latencies_ms: Vec<f64>) {
    let sorted = stats::sorted(latencies_ms);
    layers.insert("runtime.run_p99_ms".into(), stats::tail(&sorted).1);
    layers.insert("runtime.run_samples".into(), sorted.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(latencies_ms: Vec<f64>, verified: u64, seconds: f64) -> Segment {
        Segment {
            latencies_ms,
            verified,
            within_limit: verified,
            seconds,
        }
    }

    #[test]
    fn throughput_counts_verified_operations_over_the_time_run() {
        let segments = [
            segment(vec![1.0, 9.0, 2.0], 3, 0.5),
            // One of these four failed its check: it is attempted and
            // timed, but it is not throughput.
            segment(vec![3.0, 4.0, 8.0, 7.0], 3, 1.5),
        ];
        assert_eq!(throughput(segments.iter()).whole, 3.0);
        assert_eq!(latency_p50(segments.iter()).whole, 4.0);
        assert!((within_limit_share(segments.iter()) - 6.0 / 7.0).abs() < 1e-12);
        assert_eq!(throughput([].iter()).whole, 0.0);
    }

    #[test]
    fn quiet_estimates_ignore_slow_rounds_but_not_a_slower_program() {
        // Five rounds, three of them under a burst that slows by half.
        let round = |slow: f64| segment(vec![10.0 * slow, 10.2 * slow, 9.8 * slow], 3, 0.03 * slow);
        let run = |scale: f64| [1.0, 1.5, 1.5, 1.0, 1.5].map(|burst| round(burst * scale));
        let calm = run(1.0);
        let latency = latency_p50(calm.iter());
        // Nine of the fifteen operations were slowed: so is their median.
        assert!(latency.whole > 14.0);
        assert_eq!(latency.quiet, 10.0);
        let rate = throughput(calm.iter());
        assert!((rate.quiet - 100.0).abs() < 1e-9 && rate.whole < 80.0);
        // A program a tenth slower is a tenth slower in every round.
        let slower = run(1.1);
        assert!((latency_p50(slower.iter()).quiet - 11.0).abs() < 1e-9);
        // A lone round, or none, still gives a value.
        assert_eq!(median_time(&[&[4.0, 6.0]]).quiet, 5.0);
        assert_eq!(median_time(&[]).quiet, 0.0);
    }
}
