//! The repository's benchmark of record: one end-to-end ledger from a
//! `.dnnfg` file on disk to the answer — load, import, cold and warm
//! compile, weight packing, steady runs, `dnnf-serve` replies and decoded
//! tokens — over four named workloads, with per-layer spans recorded from
//! outside the product crates. See `README.md` in this directory.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, one JSON object on the last line of stdout (what
//!     `BENCHMARK.json`'s command runs)
//! benchmark run   [--seed n] [--seconds s] [--repeat k] [--out file] [--smoke] [--self-test]
//! benchmark trace [--seed n] [--seconds s] [--out dir] [--smoke]
//! benchmark compare <a.json> <b.json>
//! ```
//!
//! Set-up and measurement are split by process: this process generates each
//! workload's files from the seed and times that as `setup_s`, then measures
//! the workload in a child invocation (`benchmark workload <name> --dir …`)
//! that receives only those files — so `peak_rss_mb` excludes the oracle's
//! memory and no workload warms another's caches.

mod compare;
mod decode;
mod engine;
mod files;
mod json;
mod measure;
mod models;
mod oneshot;
mod probes;
mod serve;
mod setup;
mod spec;
mod stats;
mod tracer;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use measure::{Options, Outcome};
use spec::Workload;

/// Seed of `run` and `trace` when none is given.
const DEFAULT_SEED: u64 = 20210620;

/// Window of `run` and `trace` when none is given.
const DEFAULT_SECONDS: f64 = spec::RUN_SECONDS as f64;

/// Window of a `--smoke` run.
const SMOKE_SECONDS: f64 = 0.3;

/// `GLIBC_TUNABLES` of the measured process: glibc's default mmap threshold,
/// stated, which switches its run-time adjustment off. Left to adjust, glibc
/// raises the mmap and trim thresholds to the sizes a process happens to free
/// first, so two runs of one binary settle into unmapping their activation
/// buffers after every run or into keeping them, a fifth apart in
/// `serve_mix`. With the thresholds fixed every measured process does the
/// former, which is also what keeps its peak memory the same from run to run.
const PINNED_ALLOCATOR: &str = "glibc.malloc.mmap_threshold=131072";

/// A fault the self-test injects to show the checker is alive.
#[derive(Clone, Copy, PartialEq)]
enum Fault {
    None,
    /// One expected value on disk is wrong.
    Expected,
    /// The replies of one tenant are corrupted before they are checked.
    Reply,
}

/// One workload's result as the driver reads it.
struct RunResult {
    attempted: u64,
    failed: u64,
    /// Metric values by name, `setup_s` included when not traced.
    metrics: BTreeMap<String, f64>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of a metric the run must have produced. A metric that
    /// silently stopped being measured must not read as 0, the best value a
    /// lower-is-better metric can have. (A per-layer metric off the
    /// workload's path is a 0 the measured process reports itself.)
    fn metric(&self, name: &str) -> Result<f64, String> {
        let value = self.metrics.get(name).copied();
        value.ok_or(format!("the run produced no `{name}`"))
    }

    /// The contract's result line: every metric of the chosen kind, in
    /// vocabulary order, each with its unit.
    fn to_json(&self, trace: bool) -> Result<Json, String> {
        let mut metrics = Vec::new();
        for (name, unit, _) in spec::reported(trace) {
            let value = Json::Num(self.metric(&name)?);
            metrics.push((
                name,
                json::obj([("value", value), ("unit", json::text(unit))]),
            ));
        }
        Ok(json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", json::obj(metrics)),
        ]))
    }
}

/// Flips the low bit pattern of the first expected value of the workload's
/// first set-up: the oracle file now disagrees with every correct engine.
fn corrupt_expected(workload: Workload, work: &Path) -> Result<(), String> {
    let dir = files::setup_dir(work, 0);
    let path = match workload {
        Workload::DecodeStream => dir.join("expected.u32"),
        Workload::ServeMix => files::io_path(&dir, "mlp.row0", "out", 0),
        _ => files::io_path(&dir, models::models(workload)[0].token, "out", 0),
    };
    let mut data = files::read_f32(&path)?;
    data[0] += 1.0;
    files::write_f32(&path, &data)
}

/// Sets a workload up (several times, timed), measures it in a child
/// process, and returns the merged result.
fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    fault: Fault,
) -> Result<RunResult, String> {
    let work = files::work_root().join(format!("{}-{}", workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let result = (|| {
        let mut setup_s = Vec::new();
        for rep in 0..spec::setup_reps(smoke) {
            let start = Instant::now();
            let rep_seed = seed.wrapping_add((rep as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            setup::prepare(workload, &files::setup_dir(&work, rep), rep_seed, smoke)
                .map_err(|e| format!("{}: set-up: {e}", workload.name()))?;
            setup_s.push(start.elapsed().as_secs_f64());
        }
        if fault == Fault::Expected {
            corrupt_expected(workload, &work)?;
        }

        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe);
        child
            .env("GLIBC_TUNABLES", PINNED_ALLOCATOR)
            .args(["workload", workload.name(), "--dir"])
            .arg(&work)
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if smoke {
            child.arg("--smoke");
        }
        if fault == Fault::Reply {
            child.arg("--corrupt-reply");
        }
        let output = child
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn measured process: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "{}: measured process ended with {}",
                workload.name(),
                output.status
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout
            .lines()
            .last()
            .ok_or("measured process printed nothing")?;
        let parsed = Json::parse(line)?;
        let count = |key: &str| {
            let value = parsed.get(key).and_then(Json::as_f64);
            value
                .map(|v| v as u64)
                .ok_or(format!("the measured process reported no `{key}`"))
        };
        let mut metrics: BTreeMap<String, f64> = parsed
            .get("metrics")
            .map(Json::members)
            .unwrap_or_default()
            .iter()
            .filter_map(|(name, value)| Some((name.clone(), value.as_f64()?)))
            .collect();
        if trace {
            let kept = files::work_root().join(format!("trace-{}.jsonl", workload.name()));
            std::fs::rename(work.join("trace.jsonl"), kept).map_err(|e| e.to_string())?;
        } else {
            metrics.insert("setup_s".into(), stats::median(&setup_s));
        }
        Ok(RunResult {
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    })();
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// The measured process: one workload on the files in `--dir`.
fn measure_workload(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    match workload {
        Workload::CnnBatch1 | Workload::TransformerTiny => oneshot::run(workload, opts),
        Workload::ServeMix => serve::run(opts),
        Workload::DecodeStream => decode::run(opts),
    }
}

fn outcome_json(outcome: &Outcome) -> Json {
    json::obj([
        ("attempted", Json::Num(outcome.tally.attempted as f64)),
        ("failed", Json::Num(outcome.tally.failed as f64)),
        (
            "metrics",
            json::obj(
                outcome
                    .metrics
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::Num(v))),
            ),
        ),
    ])
}

/// Command-line flags after the subcommand: `--key value` pairs, bare
/// `--switches`, and positionals.
struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    const SWITCHES: [&'static str; 3] = ["--smoke", "--self-test", "--corrupt-reply"];

    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            flags: BTreeMap::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if Self::SWITCHES.contains(&arg.as_str()) {
                args.flags.insert(arg.clone(), String::new());
            } else if arg.starts_with("--") {
                let value = it.next().ok_or(format!("{arg} needs a value"))?;
                args.flags.insert(arg.clone(), value.clone());
            } else {
                args.positional.push(arg.clone());
            }
        }
        Ok(args)
    }

    fn has(&self, switch: &str) -> bool {
        self.flags.contains_key(switch)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("bad value for {flag}: {raw}")),
        }
    }

    fn workload(&self, raw: Option<&String>) -> Result<Workload, String> {
        let name = raw.ok_or("which workload?")?;
        Workload::parse(name).ok_or(format!(
            "unknown workload `{name}`; known: {}",
            Workload::ALL.map(Workload::name).join(", ")
        ))
    }
}

/// What every result file records about the run that produced it.
fn meta(seed: u64, seconds: f64, smoke: bool) -> Json {
    let git = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("engine_threads", Json::Num(engine::ENGINE_THREADS as f64)),
        (
            "target_simd_width",
            Json::Num(dnnf_ops::simd::detected_simd_width() as f64),
        ),
        ("git_commit", json::text(git)),
        ("seed", Json::Num(seed as f64)),
        ("window_seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("glibc_tunables", json::text(PINNED_ALLOCATOR)),
        (
            "serve_open_loop_rate_per_s",
            Json::Num(spec::SERVE_OPEN_LOOP_RATE_PER_S),
        ),
        (
            "latency_limit_ms",
            json::obj(
                Workload::ALL
                    .iter()
                    .map(|w| (w.name(), Json::Num(w.latency_limit_ms()))),
            ),
        ),
    ])
}

/// `run` and `trace`: every workload, every metric by name with its unit.
fn run_all(args: &Args, trace: bool) -> Result<bool, String> {
    let smoke = args.has("--smoke");
    let seed = args.get("--seed", DEFAULT_SEED)?;
    let default_seconds = if smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    };
    let seconds = args.get("--seconds", default_seconds)?;
    let repeat: usize = args.get("--repeat", 1)?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut runs = Vec::new();
        for _ in 0..repeat {
            let result = run_workload(workload, seed, seconds, trace, smoke, Fault::None)?;
            all_correct &= result.correct();
            runs.push(result);
        }
        println!(
            "\n{}  ops_attempted {}  ops_failed {}",
            workload.name(),
            runs.iter().map(|r| r.attempted).sum::<u64>(),
            runs.iter().map(|r| r.failed).sum::<u64>()
        );
        let mut metrics = Vec::new();
        for (name, unit, better) in spec::reported(trace) {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| r.metric(&name))
                .collect::<Result<_, _>>()?;
            let bound = spec::end_to_end(&name).map_or(String::new(), |m| {
                format!("; may worsen by {}", m.bound_text())
            });
            println!(
                "  {name:<44} {:>16.6} {unit}  ({} is better{bound})",
                stats::median(&values),
                better.as_str()
            );
            metrics.push((
                name,
                json::obj([
                    ("unit", json::text(unit)),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            ));
        }
        workloads.push((
            workload.name(),
            json::obj([
                (
                    "attempted",
                    Json::Arr(runs.iter().map(|r| Json::Num(r.attempted as f64)).collect()),
                ),
                (
                    "failed",
                    Json::Arr(runs.iter().map(|r| Json::Num(r.failed as f64)).collect()),
                ),
                ("metrics", json::obj(metrics)),
            ]),
        ));
    }
    let out: Option<PathBuf> = args.flags.get("--out").map(PathBuf::from);
    if let Some(out) = out {
        if trace {
            std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
            for workload in Workload::ALL {
                let name = format!("trace-{}.jsonl", workload.name());
                std::fs::copy(files::work_root().join(&name), out.join(&name))
                    .map_err(|e| format!("copy {name}: {e}"))?;
            }
        } else {
            let doc = json::obj([
                ("meta", meta(seed, seconds, smoke)),
                ("workloads", json::obj(workloads)),
            ]);
            std::fs::write(&out, doc.to_text() + "\n").map_err(|e| e.to_string())?;
        }
    }
    Ok(all_correct)
}

/// `run --self-test`: the checker must notice a wrong expected value and a
/// corrupted reply. Each fault must raise `ops_failed` above zero and pull
/// `within_limit_share` below the clean run's.
fn self_test(args: &Args) -> Result<bool, String> {
    let seed = args.get("--seed", DEFAULT_SEED)?;
    let mut alive = true;
    for (workload, fault, what) in [
        (
            Workload::CnnBatch1,
            Fault::Expected,
            "one wrong expected value",
        ),
        (
            Workload::DecodeStream,
            Fault::Expected,
            "one wrong expected token",
        ),
        (
            Workload::ServeMix,
            Fault::Reply,
            "corrupted replies of one tenant",
        ),
    ] {
        let clean = run_workload(workload, seed, SMOKE_SECONDS, false, true, Fault::None)?;
        let faulty = run_workload(workload, seed, SMOKE_SECONDS, false, true, fault)?;
        let share = |r: &RunResult| r.metric("within_limit_share");
        let (clean_share, faulty_share) = (share(&clean)?, share(&faulty)?);
        let caught = clean.failed == 0 && faulty.failed > 0 && faulty_share < clean_share;
        println!(
            "{:<16} {what}: clean failed {} share {:.4}; faulty failed {} share {:.4} — {}",
            workload.name(),
            clean.failed,
            clean_share,
            faulty.failed,
            faulty_share,
            if caught { "caught" } else { "MISSED" }
        );
        alive &= caught;
    }
    Ok(alive)
}

fn dispatch(raw: &[String]) -> Result<bool, String> {
    let (command, rest) = match raw.first() {
        Some(first) if !first.starts_with("--") => (first.as_str(), &raw[1..]),
        _ => ("driver", raw),
    };
    let args = Args::parse(rest)?;
    let smoke = args.has("--smoke");
    match command {
        "driver" => {
            let workload = args.workload(args.flags.get("--workload"))?;
            let trace = args.get("--trace", 0u8)? != 0;
            let result = run_workload(
                workload,
                args.get("--seed", DEFAULT_SEED)?,
                args.get("--seconds", DEFAULT_SECONDS)?,
                trace,
                smoke,
                Fault::None,
            )?;
            println!("{}", result.to_json(trace)?.to_text());
            // The verdict is in the line; a wrong answer is a result, not
            // a crash.
            Ok(true)
        }
        "workload" => {
            let workload = args.workload(args.positional.first())?;
            let opts = Options {
                dir: PathBuf::from(args.flags.get("--dir").ok_or("--dir is required")?),
                seconds: args.get("--seconds", DEFAULT_SECONDS)?,
                trace: args.get("--trace", 0u8)? != 0,
                smoke,
                seed: args.get("--seed", DEFAULT_SEED)?,
                corrupt_reply: args.has("--corrupt-reply"),
            };
            let outcome = measure_workload(workload, &opts)?;
            println!("{}", outcome_json(&outcome).to_text());
            Ok(true)
        }
        "run" if args.has("--self-test") => self_test(&args),
        "run" => run_all(&args, false),
        "trace" => run_all(&args, true),
        "compare" => match &args.positional[..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err("usage: benchmark compare <a.json> <b.json>".into()),
        },
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    // Timings of an unoptimized build say nothing about the engine.
    if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to run a debug build; use --release");
        return ExitCode::from(2);
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_is_well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// The entries of one of `BENCHMARK.json`'s lists as (name, unit,
    /// better, bound); what an entry does not have reads as empty or NaN.
    fn entries(doc: &Json, key: &str) -> Vec<(String, String, String, f64)> {
        let text = |m: &Json, field: &str| {
            let value = m.get(field).and_then(Json::as_str);
            value.unwrap_or_default().to_string()
        };
        let entries: Vec<_> = doc
            .get(key)
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64);
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    bound.unwrap_or(f64::NAN),
                )
            })
            .collect();
        assert!(!entries.is_empty(), "BENCHMARK.json lists no {key}");
        entries
    }

    fn listed(doc: &Json, key: &str) -> Vec<String> {
        entries(doc, key).into_iter().map(|e| e.0).collect()
    }

    /// Every workload and metric name a `--smoke` run prints is present in
    /// `BENCHMARK.json`, well formed, and listed with the same unit,
    /// direction and bound as `spec.rs` has.
    #[test]
    fn smoke_run_prints_exactly_the_names_benchmark_json_lists() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|dir| dir.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the manifest directory");
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            listed(&doc, "workloads"),
            Workload::ALL.map(|w| w.name().to_string())
        );

        let work = files::work_root().join(format!("test-smoke-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        for (workload, trace) in [(Workload::ServeMix, false), (Workload::DecodeStream, true)] {
            let dir = work.join(workload.name());
            setup::prepare(workload, &files::setup_dir(&dir, 0), 5, true).unwrap();
            let opts = Options {
                dir,
                seconds: SMOKE_SECONDS,
                trace,
                smoke: true,
                seed: 5,
                corrupt_reply: false,
            };
            let outcome = measure_workload(workload, &opts).unwrap();
            assert_eq!(
                outcome.tally.failed,
                0,
                "{} failed operations",
                workload.name()
            );
            assert!(outcome.tally.attempted > 0);
            let mut result = RunResult {
                attempted: outcome.tally.attempted,
                failed: 0,
                metrics: outcome.metrics,
            };
            if !trace {
                result.metrics.insert("setup_s".into(), 1.0);
            }
            // Nothing measured falls outside the vocabulary …
            let printed = result.to_json(trace).unwrap();
            let printed: Vec<&String> = printed
                .get("metrics")
                .map(Json::members)
                .unwrap_or_default()
                .iter()
                .map(|(name, _)| name)
                .collect();
            for name in result.metrics.keys() {
                assert!(
                    printed.contains(&name),
                    "{name} is measured but never printed"
                );
            }
            // … and what is printed is what BENCHMARK.json lists.
            let key = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(
                printed.into_iter().cloned().collect::<Vec<_>>(),
                listed(&doc, key)
            );
        }
        std::fs::remove_dir_all(&work).unwrap();

        let mut names = listed(&doc, "end_to_end");
        names.extend(listed(&doc, "per_layer"));
        names.extend(listed(&doc, "workloads"));
        for name in &names {
            assert!(name_is_well_formed(name), "bad name {name:?}");
        }
        names.sort();
        assert!(
            names.windows(2).all(|w| w[0] != w[1]),
            "a name is used twice"
        );
        assert!(listed(&doc, "per_layer").len() <= 128);
        // Units, directions, bounds and the window are those of `spec.rs`.
        for (listed, ours) in entries(&doc, "end_to_end").iter().zip(&spec::END_TO_END) {
            let ours = (ours.name, ours.unit, ours.better.as_str(), ours.bound);
            assert_eq!((&*listed.0, &*listed.1, &*listed.2, listed.3), ours);
        }
        for (listed, ours) in entries(&doc, "per_layer").iter().zip(spec::per_layer()) {
            let ours = (&*ours.name, ours.unit, ours.better.as_str());
            assert_eq!((&*listed.0, &*listed.1, &*listed.2), ours);
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(f64::from(spec::RUN_SECONDS))
        );
    }
}
