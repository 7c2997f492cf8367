//! Multi-tenant serving-layer load harness.
//!
//! Drives a synthetic two-tenant request mix through `dnnf-serve` and writes
//! throughput and latency percentiles to `BENCH_serve.json` (schema
//! `dnnf-bench-serve/v2`), the serving counterpart of `bench_exec`'s
//! `BENCH_exec.json`. Both phases interleave the tenants, so throughput is
//! measured for the whole mix only; each tenant's row carries what is
//! measured per request — latency percentiles and coalescing:
//!
//! * **Baseline** — every request executed one-at-a-time, serially, straight
//!   through `Executor::run` (no queue, no coalescing).
//!   This is the paper-engine's per-request cost and the ISSUE's
//!   "one-request-at-a-time" side.
//! * **Served** — the same requests submitted as one burst to a running
//!   [`dnnf_serve::Server`] hosting both models; workers coalesce same-model
//!   requests along the batch dimension (up to [`MAX_BATCH`] rows) and each
//!   dispatch amortizes the per-run fixed costs (environment setup, one
//!   launch per fused block) over every coalesced row. Served latency is
//!   submit-to-response under burst load, so it *includes queueing* — the
//!   headline column is throughput, latency percentiles are informational.
//!
//! Every served response is compared against the baseline's output for the
//! same request and must be **bit-identical** (tolerance 0) — the ≥2x
//! throughput gate only counts at equal correctness. Both phases run
//! [`TRIALS`] times and each side reports its **fastest** trial: on this
//! single-shared-core host, scheduler noise only ever slows a phase down, so
//! best-of-N is the noise-free estimate of each phase's real cost and the
//! gated ratio cannot be failed (or inflated) by one hiccup landing in a
//! milliseconds-long burst.
//!
//! The `serve_throughput_speedup` floor is armed unconditionally: coalescing
//! amortizes per-dispatch *fixed* costs, a structural saving that — unlike
//! `parallel_speedup` — does not need spare cores.
//!
//! **The floor is currently not met.** While every real run also simulated
//! the phone, that accounting was three quarters of a one-request dispatch
//! on these tiny tenants, a coalesced dispatch paid it once per 32 requests,
//! and the ratio measured 3.3x. Runs now only run kernels: the serial
//! baseline is ~3.3x faster for it, and what coalescing still saves in
//! launches the queue hand-off and reply channel cost back — 0.9–1.2x on one
//! core, so this binary exits non-zero at the [`FLOOR`] after writing
//! `BENCH_serve.json`. The floor stays where it was on purpose: the tenants
//! have to change (ROADMAP item 1: a VGG-16 and a decoder-step tenant,
//! per-model phases, latency at throughput), not the bar. See
//! `docs/serving.md`.
//!
//! Run with `cargo run --release -p dnnf-bench --bin serve_load`.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dnnf_bench::floors::{self, Arm, Floor, Host};
use dnnf_core::{CompiledModel, Compiler, CompilerOptions};
use dnnf_graph::{Graph, SymbolicAxes};
use dnnf_ops::{Attrs, OpKind};
use dnnf_runtime::{ExecOptions, Executor, PlanCache};
use dnnf_serve::{ServeConfig, Server};
use dnnf_simdev::DeviceSpec;
use dnnf_tensor::{Shape, Tensor};

/// Requests per tenant in the mix.
const REQUESTS_PER_MODEL: usize = 96;

/// Per-request row counts cycle through this pattern (mixed batch sizes
/// exercise the polymorphic plan: every distinct coalesced total re-uses the
/// one cached `FusionPlan` and re-runs only code generation).
const ROWS_CYCLE: [usize; 4] = [1, 2, 3, 2];

/// Most rows one coalesced dispatch may carry.
const MAX_BATCH: usize = 64;

/// Serving worker threads. One worker per shared core: the benchmarked win
/// is coalescing (fixed-cost amortization), not parallel dispatch, and on
/// the single-core CI host a second worker only adds context-switch churn
/// to the burst phase.
const WORKERS: usize = 1;

/// The served-vs-baseline throughput gate on the combined mix; its baseline
/// is the value recorded on the 2-core reference host.
const FLOOR: Floor = Floor {
    model: "mix",
    metric: "serve_throughput_speedup",
    floor: 2.0,
    baseline: Some(0.90),
    arm: Arm::Always,
    catches: "coalescing that no longer amortizes per-dispatch fixed costs over a batch",
};

/// Baseline/served measurement pairs; each phase reports its fastest trial
/// (see the module docs for why best-of-N is the right estimator here).
const TRIALS: usize = 5;

/// A tiny two-layer CNN tenant: conv -> bias add -> relu.
fn convnet_graph() -> Graph {
    let mut g = Graph::new("convnet");
    let x = g.add_input("x", Shape::new(vec![1, 2, 4, 4]));
    let w = g.add_weight_with_data("w", Tensor::random(Shape::new(vec![2, 2, 3, 3]), 11));
    let b = g.add_weight_with_data("b", Tensor::random(Shape::new(vec![1, 2, 1, 1]), 13));
    let c = g
        .add_op(
            OpKind::Conv,
            Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
            &[x, w],
            "conv",
        )
        .expect("conv")[0];
    let a = g
        .add_op(OpKind::Add, Attrs::new(), &[c, b], "bias")
        .expect("bias")[0];
    let r = g
        .add_op(OpKind::Relu, Attrs::new(), &[a], "relu")
        .expect("relu")[0];
    g.mark_output(r);
    g
}

/// A tiny MLP tenant: matmul -> add -> relu -> matmul.
fn mlp_graph() -> Graph {
    let mut g = Graph::new("mlp");
    let x = g.add_input("x", Shape::new(vec![1, 16]));
    let w1 = g.add_weight_with_data("w1", Tensor::random(Shape::new(vec![16, 16]), 17));
    let b1 = g.add_weight_with_data("b1", Tensor::random(Shape::new(vec![1, 16]), 19));
    let w2 = g.add_weight_with_data("w2", Tensor::random(Shape::new(vec![16, 8]), 23));
    let h = g
        .add_op(OpKind::MatMul, Attrs::new(), &[x, w1], "fc1")
        .expect("fc1")[0];
    let a = g
        .add_op(OpKind::Add, Attrs::new(), &[h, b1], "bias1")
        .expect("bias1")[0];
    let r = g
        .add_op(OpKind::Relu, Attrs::new(), &[a], "relu1")
        .expect("relu1")[0];
    let y = g
        .add_op(OpKind::MatMul, Attrs::new(), &[r, w2], "fc2")
        .expect("fc2")[0];
    g.mark_output(y);
    g
}

/// One request of the synthetic mix.
struct Request {
    model: &'static str,
    rows: usize,
    inputs: HashMap<String, Tensor>,
}

fn build_mix(tenants: &[(&'static str, &Graph)]) -> Vec<Request> {
    let mut mix = Vec::new();
    for i in 0..REQUESTS_PER_MODEL {
        let rows = ROWS_CYCLE[i % ROWS_CYCLE.len()];
        for (t, (name, graph)) in tenants.iter().enumerate() {
            let seed = 1000 + (i as u64) * 10 + t as u64;
            let inputs = graph
                .inputs()
                .iter()
                .map(|&id| {
                    let v = graph.value(id);
                    let mut dims = v.shape.dims().to_vec();
                    dims[0] = rows;
                    (v.name.clone(), Tensor::random(Shape::new(dims), seed))
                })
                .collect();
            mix.push(Request {
                model: name,
                rows,
                inputs,
            });
        }
    }
    mix
}

/// The p50 and p99 of a phase's request latencies.
fn p50_p99<'a>(latencies_ms: impl IntoIterator<Item = &'a f64>) -> (f64, f64) {
    let mut s: Vec<f64> = latencies_ms.into_iter().copied().collect();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let at = |p: f64| s[((s.len() as f64 - 1.0) * p).round() as usize];
    (at(0.50), at(0.99))
}

struct Row {
    model: &'static str,
    requests: usize,
    rows: usize,
    /// Baseline (p50, p99) request latency.
    baseline_ms: (f64, f64),
    /// Served (p50, p99) submit-to-response latency.
    served_ms: (f64, f64),
    mean_coalesced: f64,
    max_coalesced: u64,
    /// Baseline and served requests per second: the mix row only, since
    /// both phases interleave the tenants.
    rps: Option<(f64, f64)>,
}

/// One baseline+served measurement pair over the full mix.
struct Trial {
    base_total_s: f64,
    serve_total_s: f64,
    base_lat: HashMap<&'static str, Vec<f64>>,
    serve_lat: HashMap<&'static str, Vec<f64>>,
    /// Per-request dispatch width (how many requests rode that batch),
    /// indexed like the mix.
    coalesced: Vec<usize>,
}

impl Trial {
    fn mix_speedup(&self) -> f64 {
        self.base_total_s / self.serve_total_s
    }
}

fn main() -> ExitCode {
    let host = Host::detect();

    let convnet = convnet_graph();
    let mlp = mlp_graph();
    let tenants: [(&'static str, &Graph); 2] = [("convnet", &convnet), ("mlp", &mlp)];

    // Both tenants compile through one shared PlanCache; the batch-1
    // canonical key means each holds exactly one entry regardless of the
    // request batch sizes below.
    let cache = PlanCache::new();
    let models: HashMap<&'static str, Arc<CompiledModel>> = tenants
        .iter()
        .map(|&(name, graph)| {
            let mut compiler = Compiler::new(CompilerOptions::default());
            let (model, _) = cache
                .compile_polymorphic(&mut compiler, graph, SymbolicAxes::BATCH)
                .expect("tenant compiles");
            (name, model)
        })
        .collect();
    assert_eq!(
        cache.stats().models,
        tenants.len(),
        "one polymorphic plan per tenant"
    );

    let mix = build_mix(&tenants);
    for (name, _) in tenants {
        let rows: usize = mix.iter().filter(|r| r.model == name).map(|r| r.rows).sum();
        assert_eq!(
            rows % MAX_BATCH,
            0,
            "per-tenant rows must divide MAX_BATCH exactly so every dispatch \
             is a full batch and no request waits out the batch window"
        );
    }
    let executor =
        Executor::new(DeviceSpec::snapdragon_865_cpu()).with_options(ExecOptions::serial());

    // Untimed warmup + expected outputs: warms every weight store and batch
    // instance, and pins down the bit-exact answer for each request.
    let expected: Vec<Vec<Tensor>> = mix
        .iter()
        .map(|r| {
            executor
                .run(&models[r.model], &r.inputs)
                .expect("warmup run")
                .outputs
        })
        .collect();

    // The server hosts both tenants once for all trials. The window is
    // deliberately generous: dispatch should trigger on the *row threshold*
    // (a full MAX_BATCH accumulated), not on a timer, so batch formation is
    // deterministic instead of at the mercy of how the scheduler interleaves
    // the submitting thread with the worker. The mix is an exact multiple of
    // MAX_BATCH rows per tenant, so no tail request ever waits out the
    // window — every dispatch is a full batch in every trial.
    let server = {
        let mut builder = Server::builder(ServeConfig {
            max_batch: MAX_BATCH,
            batch_window: Duration::from_millis(50),
            queue_capacity: mix.len(),
            workers: WORKERS,
            exec: ExecOptions::serial(),
            device: DeviceSpec::snapdragon_865_cpu(),
            simulate_cache: false,
        });
        for (name, model) in [
            ("convnet", Arc::clone(&models["convnet"])),
            ("mlp", Arc::clone(&models["mlp"])),
        ] {
            builder = builder.model(name, model).expect("register tenant");
        }
        builder.start()
    };

    let mut trials: Vec<Trial> = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        // Phase 1: one-request-at-a-time baseline, serial.
        let mut base_lat: HashMap<&'static str, Vec<f64>> = HashMap::new();
        let base_start = Instant::now();
        for r in &mix {
            let t = Instant::now();
            executor
                .run(&models[r.model], &r.inputs)
                .expect("baseline run");
            base_lat
                .entry(r.model)
                .or_default()
                .push(t.elapsed().as_secs_f64() * 1e3);
        }
        let base_total_s = base_start.elapsed().as_secs_f64();

        // Phase 2: the same mix as one burst through the server.
        let serve_start = Instant::now();
        let tickets: Vec<_> = mix
            .iter()
            .map(|r| {
                (
                    Instant::now(),
                    server.submit(r.model, r.inputs.clone()).expect("submit"),
                )
            })
            .collect();
        // Waiting in submission order: per model, dispatches complete FIFO,
        // so the recorded submit->wait latency tracks completion closely.
        let mut serve_lat: HashMap<&'static str, Vec<f64>> = HashMap::new();
        let mut responses = Vec::with_capacity(mix.len());
        for ((submitted, ticket), r) in tickets.into_iter().zip(&mix) {
            let response = ticket.wait().expect("response");
            serve_lat
                .entry(r.model)
                .or_default()
                .push(submitted.elapsed().as_secs_f64() * 1e3);
            responses.push(response);
        }
        let serve_total_s = serve_start.elapsed().as_secs_f64();

        // Equal correctness, every trial: every served output bit-identical
        // to the baseline.
        for (response, want) in responses.iter().zip(&expected) {
            assert_eq!(response.outputs.len(), want.len());
            for (got, want) in response.outputs.iter().zip(want) {
                assert_eq!(got.shape(), want.shape(), "served shape drifted");
                assert!(
                    got.data() == want.data(),
                    "served output not bit-identical to the per-request baseline"
                );
            }
        }

        trials.push(Trial {
            base_total_s,
            serve_total_s,
            base_lat,
            serve_lat,
            coalesced: responses.iter().map(|r| r.coalesced).collect(),
        });
    }
    server.shutdown();

    // Each side reports its fastest trial: best-of-N per phase is the
    // noise-free estimate of that phase's real cost (noise only slows).
    let fastest = |key: fn(&Trial) -> f64| -> &Trial {
        trials
            .iter()
            .min_by(|a, b| key(a).partial_cmp(&key(b)).expect("finite totals"))
            .expect("at least one trial")
    };
    let base_trial = fastest(|t| t.base_total_s);
    let serve_trial = fastest(|t| t.serve_total_s);

    let model_coalesced = |name: &str| -> (f64, u64) {
        let widths: Vec<usize> = mix
            .iter()
            .zip(&serve_trial.coalesced)
            .filter(|(r, _)| r.model == name)
            .map(|(_, &c)| c)
            .collect();
        let mean = widths.iter().sum::<usize>() as f64 / widths.len() as f64;
        (mean, widths.iter().copied().max().unwrap_or(0) as u64)
    };

    let mut rows: Vec<Row> = Vec::new();
    for (name, _) in tenants {
        let (mean_coalesced, max_coalesced) = model_coalesced(name);
        rows.push(Row {
            model: name,
            requests: REQUESTS_PER_MODEL,
            rows: mix.iter().filter(|r| r.model == name).map(|r| r.rows).sum(),
            baseline_ms: p50_p99(&base_trial.base_lat[name]),
            served_ms: p50_p99(&serve_trial.serve_lat[name]),
            mean_coalesced,
            max_coalesced,
            rps: None,
        });
    }
    let requests = mix.len() as f64;
    rows.push(Row {
        model: "mix",
        requests: mix.len(),
        rows: mix.iter().map(|r| r.rows).sum(),
        baseline_ms: p50_p99(base_trial.base_lat.values().flatten()),
        served_ms: p50_p99(serve_trial.serve_lat.values().flatten()),
        mean_coalesced: serve_trial.coalesced.iter().sum::<usize>() as f64
            / serve_trial.coalesced.len() as f64,
        max_coalesced: rows.iter().map(|r| r.max_coalesced).max().unwrap_or(0),
        rps: Some((
            requests / base_trial.base_total_s,
            requests / serve_trial.serve_total_s,
        )),
    });

    println!(
        "Serving load: {} requests x 2 tenants, rows cycling {ROWS_CYCLE:?}, max_batch \
         {MAX_BATCH}, {WORKERS} worker(s), host parallelism {}",
        REQUESTS_PER_MODEL, host.cores
    );
    println!(
        "trial mix speedups: [{}] -> best-of-{TRIALS} per phase reported below",
        trials
            .iter()
            .map(|t| format!("{:.2}x", t.mix_speedup()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "{:<10} {:>9} {:>7} {:>12} {:>12} {:>9} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "model",
        "requests",
        "rows",
        "base rps",
        "served rps",
        "speedup",
        "base p50",
        "base p99",
        "serve p50",
        "serve p99",
        "coalesce",
        "max"
    );
    for row in &rows {
        let (base_rps, served_rps, speedup) = match row.rps {
            Some((base, served)) => (
                format!("{base:.1}"),
                format!("{served:.1}"),
                format!("{:.2}x", served / base),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        println!(
            "{:<10} {:>9} {:>7} {base_rps:>12} {served_rps:>12} {speedup:>9} {:>8.3}ms {:>8.3}ms \
             {:>8.3}ms {:>8.3}ms {:>9.2} {:>9}",
            row.model,
            row.requests,
            row.rows,
            row.baseline_ms.0,
            row.baseline_ms.1,
            row.served_ms.0,
            row.served_ms.1,
            row.mean_coalesced,
            row.max_coalesced
        );
    }
    println!(
        "correctness: {} served responses ({} trials x {} requests) bit-identical to the \
         one-request-at-a-time baseline",
        TRIALS * mix.len(),
        TRIALS,
        mix.len()
    );

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"dnnf-bench-serve/v2\",\n");
    json.push_str(&format!(
        "  \"requests_per_model\": {REQUESTS_PER_MODEL},\n"
    ));
    json.push_str(&format!("  \"max_batch\": {MAX_BATCH},\n"));
    json.push_str(&format!("  \"workers\": {WORKERS},\n"));
    json.push_str(&format!("  \"host_parallelism\": {},\n", host.cores));
    json.push_str("  \"models\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let throughput = row.rps.map_or(String::new(), |(base, served)| {
            format!(
                "\"baseline_rps\": {base:.1}, \"served_rps\": {served:.1}, \
                 \"serve_throughput_speedup\": {:.2}, ",
                served / base
            )
        });
        json.push_str(&format!(
            "    {{\"model\": \"{}\", \"requests\": {}, \"rows\": {}, {throughput}\
             \"baseline_p50_ms\": {:.3}, \"baseline_p99_ms\": {:.3}, \
             \"served_p50_ms\": {:.3}, \"served_p99_ms\": {:.3}, \
             \"mean_coalesced\": {:.2}, \"max_coalesced\": {}}}{}\n",
            row.model,
            row.requests,
            row.rows,
            row.baseline_ms.0,
            row.baseline_ms.1,
            row.served_ms.0,
            row.served_ms.1,
            row.mean_coalesced,
            row.max_coalesced,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");

    let (base_rps, served_rps) = rows.last().and_then(|r| r.rps).expect("mix throughput");
    floors::report(
        &[FLOOR],
        |_| served_rps / base_rps,
        &host,
        json,
        "BENCH_serve.json",
    )
}
