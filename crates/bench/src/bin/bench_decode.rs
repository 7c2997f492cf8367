//! Wall-clock regression harness for the autoregressive KV-cache decode
//! loop.
//!
//! For each decoder size, times two ways of producing the same
//! `GENERATE`-token greedy completion (medians over [`RUNS`] runs, written
//! to `BENCH_decode.json`, schema `dnnf-bench-decode/v1`):
//!
//! * `cached_decode_ms` — a `DecodeSession`: one prefill, then single-token
//!   steps against the `Arc`-backed KV cache through the seq-polymorphic
//!   step plan (`PlanCache::compile_polymorphic` + `Executor::run`);
//!   `tokens_per_sec` derives from it.
//! * `recompute_decode_ms` — the no-cache baseline: every token recomputes
//!   its full prefix through a prompt-length prefill model. The per-length
//!   models are compiled **outside** the timed region, so the ratio
//!   isolates runtime work (quadratic recompute vs linear stepping), not
//!   plan-search amortization.
//!
//! `cached_vs_recompute_speedup` carries an **always-armed** ≥
//! [`CACHED_SPEEDUP_FLOOR`] floor: both sides run the same kernels on the
//! same host, so the ratio is structural. The run also hard-asserts the two
//! paths decode identical tokens (the determinism oracle, enforced at
//! benchmark time on every CI run), and that the timed decodes trigger
//! **zero** further plan searches (`plan_searches_decode`) — T-token
//! decoding costs exactly the two compile-time searches
//! (`plan_searches_compile`: prefill + step), independent of T.
//!
//! Run with `cargo run --release -p dnnf-bench --bin bench_decode`; CI
//! diffs the JSON against the checked-in `BENCH_decode.json` via
//! `bench_diff`. See `docs/benchmarks.md`.

use std::collections::HashMap;
use std::time::Instant;

use dnnf_core::{Compiler, CompilerOptions};
use dnnf_models::{decoder_prefill, decoder_step, DecoderConfig};
use dnnf_runtime::{greedy_argmax, DecodeSession, ExecOptions, Executor, PlanCache};
use dnnf_simdev::DeviceSpec;
use dnnf_tensor::{Shape, Tensor};

/// Runs per configuration; the median is reported.
const RUNS: usize = 7;

/// Prompt length each decoder is prefilled with.
const PROMPT_LEN: usize = 8;

/// Tokens generated per decode (1 from prefill + the rest from steps).
const GENERATE: usize = 16;

/// Always-armed floor on `recompute_decode_ms / cached_decode_ms`.
const CACHED_SPEEDUP_FLOOR: f64 = 2.0;

/// The decoder sizes benchmarked.
fn configs() -> Vec<(&'static str, DecoderConfig)> {
    vec![
        ("decoder-tiny", DecoderConfig::test_tiny()),
        (
            "decoder-small",
            DecoderConfig {
                layers: 4,
                hidden: 32,
                heads: 4,
                vocab: 64,
                max_seq: 64,
                ffn_mult: 2,
            },
        ),
    ]
}

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn time_ms(mut run: impl FnMut()) -> Vec<f64> {
    (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

struct Row {
    model: &'static str,
    prefill_ms: f64,
    cached_decode_ms: f64,
    recompute_decode_ms: f64,
    /// Plan searches (cache misses) to compile the session: prefill + step.
    plan_searches_compile: u64,
    /// Plan searches triggered by the timed decodes. Must be 0.
    plan_searches_decode: u64,
}

impl Row {
    fn tokens_per_sec(&self) -> f64 {
        GENERATE as f64 / (self.cached_decode_ms / 1e3)
    }

    fn cached_vs_recompute_speedup(&self) -> f64 {
        self.recompute_decode_ms / self.cached_decode_ms
    }
}

fn main() {
    let prompt: Vec<u32> = (0..PROMPT_LEN as u32).collect();
    let executor =
        Executor::new(DeviceSpec::snapdragon_865_cpu()).with_options(ExecOptions::serial());
    let mut rows = Vec::new();

    for (name, cfg) in configs() {
        // Rewriting stays off so cached stepping and full-prefix recompute
        // are the same float expression — the token-identity assertion
        // below is then exact, not approximate.
        let cache = PlanCache::new();
        let mut compiler = Compiler::new(CompilerOptions::without_rewriting());
        let prefill_graph = decoder_prefill(&cfg, PROMPT_LEN).expect("valid decoder config");
        let step_graph = decoder_step(&cfg, PROMPT_LEN).expect("valid decoder config");
        let mut session = DecodeSession::compile(
            executor.clone(),
            &cache,
            &mut compiler,
            &prefill_graph,
            &step_graph,
        )
        .expect("decoder compiles");
        let plan_searches_compile = cache.stats().misses;

        // The no-cache baseline recomputes the full prefix per token; its
        // per-length models are compiled outside the timed region.
        let recompute_models: Vec<_> = (PROMPT_LEN..PROMPT_LEN + GENERATE)
            .map(|len| {
                let graph = decoder_prefill(&cfg, len).expect("valid decoder config");
                cache
                    .compile_cached(&mut compiler, &graph)
                    .expect("decoder compiles")
                    .0
            })
            .collect();
        let recompute_decode = || -> Vec<u32> {
            let mut seq = prompt.clone();
            let mut out = Vec::with_capacity(GENERATE);
            for model in &recompute_models {
                let len = seq.len();
                let make = |values: Vec<f32>| {
                    Tensor::from_vec(Shape::new(vec![len]), values).expect("length matches shape")
                };
                let mut inputs = HashMap::new();
                inputs.insert(
                    "token_ids".to_string(),
                    make(seq.iter().map(|&t| t as f32).collect()),
                );
                inputs.insert(
                    "positions".to_string(),
                    make((0..len).map(|p| p as f32).collect()),
                );
                let report = executor.run_compiled(model, &inputs).expect("prefill runs");
                let logits = report.outputs.last().expect("logits output");
                let data = logits.data();
                let token = greedy_argmax(&data[data.len() - cfg.vocab..]) as u32;
                seq.push(token);
                out.push(token);
            }
            out
        };

        // The two paths must decode identical tokens — the determinism
        // oracle, enforced on every benchmark run before any timing.
        let cached_tokens = session.decode(&prompt, GENERATE).expect("decode runs");
        assert_eq!(
            cached_tokens,
            recompute_decode(),
            "{name}: KV-cached decode diverged from full-prefix recompute"
        );

        let searches_before_timing = cache.stats().misses;
        let prefill_ms = median_ms(time_ms(|| {
            session.prefill(&prompt).expect("prefill runs");
        }));
        let cached_decode_ms = median_ms(time_ms(|| {
            session.decode(&prompt, GENERATE).expect("decode runs");
        }));
        let recompute_decode_ms = median_ms(time_ms(|| {
            recompute_decode();
        }));
        let plan_searches_decode = cache.stats().misses - searches_before_timing;

        rows.push(Row {
            model: name,
            prefill_ms,
            cached_decode_ms,
            recompute_decode_ms,
            plan_searches_compile,
            plan_searches_decode,
        });
    }

    println!(
        "{:<14} {:>11} {:>17} {:>20} {:>14} {:>9} {:>13} {:>12}",
        "model",
        "prefill_ms",
        "cached_decode_ms",
        "recompute_decode_ms",
        "tokens_per_sec",
        "speedup",
        "plan_compile",
        "plan_decode"
    );
    for row in &rows {
        println!(
            "{:<14} {:>11.3} {:>17.3} {:>20.3} {:>14.1} {:>8.2}x {:>13} {:>12}",
            row.model,
            row.prefill_ms,
            row.cached_decode_ms,
            row.recompute_decode_ms,
            row.tokens_per_sec(),
            row.cached_vs_recompute_speedup(),
            row.plan_searches_compile,
            row.plan_searches_decode
        );
    }

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"dnnf-bench-decode/v1\",\n");
    json.push_str(&format!("  \"runs_per_config\": {RUNS},\n"));
    json.push_str(&format!("  \"prompt_len\": {PROMPT_LEN},\n"));
    json.push_str(&format!("  \"generate\": {GENERATE},\n"));
    json.push_str("  \"models\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"model\": \"{}\", \"prefill_ms\": {:.3}, \"cached_decode_ms\": {:.3}, \
             \"recompute_decode_ms\": {:.3}, \"tokens_per_sec\": {:.1}, \
             \"cached_vs_recompute_speedup\": {:.2}, \"plan_searches_compile\": {}, \
             \"plan_searches_decode\": {}}}{}\n",
            row.model,
            row.prefill_ms,
            row.cached_decode_ms,
            row.recompute_decode_ms,
            row.tokens_per_sec(),
            row.cached_vs_recompute_speedup(),
            row.plan_searches_compile,
            row.plan_searches_decode,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"floors\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"model\": \"{}\", \"metric\": \"cached_vs_recompute_speedup\", \
             \"floor\": {CACHED_SPEEDUP_FLOOR:.2}, \"armed\": true, \"value\": {:.2}}}{}\n",
            row.model,
            row.cached_vs_recompute_speedup(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_decode.json", &json).expect("write BENCH_decode.json");
    println!("\nwrote BENCH_decode.json");

    // Enforce the gates after the JSON is on disk, so a regression still
    // leaves the measurements inspectable.
    for row in &rows {
        assert_eq!(
            row.plan_searches_decode, 0,
            "{}: decoding triggered {} plan searches — per-step dispatch must be codegen-only",
            row.model, row.plan_searches_decode
        );
        let speedup = row.cached_vs_recompute_speedup();
        assert!(
            speedup >= CACHED_SPEEDUP_FLOOR,
            "regression: {} cached_vs_recompute_speedup is {speedup:.2}x, below the \
             {CACHED_SPEEDUP_FLOOR:.2}x floor",
            row.model
        );
    }
}
