//! Set-up: everything the measured process receives, generated from the
//! seed in the parent process and timed as `setup_s`.
//!
//! One call to [`prepare`] is one complete set-up of a workload: build the
//! graphs, write them as `.dnnfg`, draw seeded inputs, compute the expected
//! outputs with the reference interpreter, and persist a plan cache and a
//! profile store for the warm start. The measured process never runs the
//! interpreter, so its memory and its caches are the engine's alone.

use std::collections::HashMap;
use std::path::Path;

use dnnf_core::{Compiler, CompilerOptions};
use dnnf_graph::Graph;
use dnnf_models::{decoder_prefill, decoder_step};
use dnnf_runtime::{greedy_argmax, DecodeSession, PlanCache};
use dnnf_tensor::{Shape, Tensor};

use crate::engine::executor;
use crate::files::{self, Rng};
use crate::models::{decoder_config, models_for};
use crate::spec::{decode_generate, Workload, DECODE_PROMPT_LEN};

/// Distinct rows per tenant and set-up that `serve_mix` requests draw from.
pub fn serve_pool_rows(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        4
    }
}

/// Smallest gap between the interpreter's best and second-best logit that
/// set-up accepts along an expected token sequence: ten tolerances, so a
/// numerically equivalent engine cannot legitimately pick another token.
const MIN_LOGIT_GAP: f32 = 1e-4;

/// Runs one complete set-up of `workload` into `dir` (created here).
pub fn prepare(workload: Workload, dir: &Path, seed: u64, smoke: bool) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    match workload {
        Workload::CnnBatch1 | Workload::TransformerTiny => one_shot(workload, dir, seed, smoke),
        Workload::ServeMix => serve(dir, seed, smoke),
        Workload::DecodeStream => decode(dir, seed, smoke),
    }
}

fn save_graph(graph: &Graph, dir: &Path, stem: &str) -> Result<(), String> {
    dnnf_io::save(graph, dir.join(format!("{stem}.dnnfg"))).map_err(|e| e.to_string())
}

fn one_shot(workload: Workload, dir: &Path, seed: u64, smoke: bool) -> Result<(), String> {
    let exec = executor();
    let cache = PlanCache::new();
    let mut compiler = Compiler::new(CompilerOptions::default());
    let mut profiled = Vec::new();
    for def in models_for(workload, smoke) {
        let graph = (def.build)(smoke);
        save_graph(&graph, dir, def.token)?;
        let inputs = files::seeded_inputs(&graph, &mut Rng::derive(seed, def.token));
        files::write_inputs(dir, def.token, &graph, &inputs)?;
        let oracle = exec
            .run_unfused(&graph, &inputs)
            .map_err(|e| e.to_string())?;
        files::write_outputs(dir, def.token, &oracle.outputs)?;
        let (model, _) = cache
            .compile_cached(&mut compiler, &graph)
            .map_err(|e| e.to_string())?;
        profiled.push((model, inputs));
    }
    // Host-measured block latencies, in the database the plan search reads.
    let mut db = compiler.into_database();
    for (model, inputs) in &profiled {
        exec.profile_compiled(model, inputs, &mut db)
            .map_err(|e| e.to_string())?;
    }
    cache
        .save(dir.join("plans.cache"))
        .map_err(|e| e.to_string())?;
    db.save(dir.join("profile.tsv")).map_err(|e| e.to_string())
}

fn serve(dir: &Path, seed: u64, smoke: bool) -> Result<(), String> {
    let exec = executor();
    let cache = PlanCache::new();
    for def in models_for(Workload::ServeMix, smoke) {
        let graph = (def.build)(smoke);
        save_graph(&graph, dir, def.token)?;
        // The oracle answers row by row at batch 1: the serving layer's
        // promise is that coalescing never changes a row's answer.
        let mut rng = Rng::derive(seed, def.token);
        for row in 0..serve_pool_rows(smoke) {
            let stem = format!("{}.row{row}", def.token);
            let inputs = files::seeded_inputs(&graph, &mut rng);
            files::write_inputs(dir, &stem, &graph, &inputs)?;
            let oracle = exec
                .run_unfused(&graph, &inputs)
                .map_err(|e| e.to_string())?;
            files::write_outputs(dir, &stem, &oracle.outputs)?;
        }
        // `ServerBuilder::model_from_dnnfg` compiles with default options
        // under the batch-polymorphic key; seed exactly that key.
        let mut compiler = Compiler::new(CompilerOptions::default());
        cache
            .compile_batched(&mut compiler, &graph)
            .map_err(|e| e.to_string())?;
    }
    cache
        .save(dir.join("plans.cache"))
        .map_err(|e| e.to_string())
}

fn token_tensor(values: impl Iterator<Item = f32>) -> Tensor {
    let data: Vec<f32> = values.collect();
    Tensor::from_vec(Shape::new(vec![data.len()]), data).expect("data sized from the shape")
}

/// Certifies `sequence` (prompt then generated tokens) against the
/// reference interpreter by full recompute: one teacher-forced pass of the
/// prefill graph over all but the last token yields, under the causal mask,
/// the logits every position would see when recomputing its whole prefix.
/// Each generated token must be the interpreter's greedy choice at its
/// position — by induction the sequence then *is* the interpreter's greedy
/// decode. Returns the smallest top-two logit gap seen.
fn certify_by_full_recompute(sequence: &[u32], prompt_len: usize) -> Result<f32, String> {
    let cfg = decoder_config();
    let len = sequence.len() - 1;
    let graph = decoder_prefill(&cfg, len).map_err(|e| e.to_string())?;
    let names: Vec<String> = graph
        .inputs()
        .iter()
        .map(|&id| graph.value(id).name.clone())
        .collect();
    let mut inputs = HashMap::new();
    inputs.insert(
        names[0].clone(),
        token_tensor(sequence[..len].iter().map(|&t| t as f32)),
    );
    inputs.insert(names[1].clone(), token_tensor((0..len).map(|p| p as f32)));
    let report = executor()
        .run_unfused(&graph, &inputs)
        .map_err(|e| e.to_string())?;
    let logits = report
        .outputs
        .last()
        .ok_or("decoder has no outputs")?
        .data();
    let mut min_gap = f32::INFINITY;
    for pos in prompt_len - 1..len {
        let row = &logits[pos * cfg.vocab..(pos + 1) * cfg.vocab];
        let best = greedy_argmax(row);
        if best as u32 != sequence[pos + 1] {
            return Err(format!(
                "token {} of the decode is {} but the interpreter's full recompute picks {best}",
                pos + 1 - prompt_len,
                sequence[pos + 1]
            ));
        }
        let runner_up = row
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != best)
            .map(|(_, &x)| x)
            .fold(f32::NEG_INFINITY, f32::max);
        min_gap = min_gap.min(row[best] - runner_up);
    }
    Ok(min_gap)
}

fn decode(dir: &Path, seed: u64, smoke: bool) -> Result<(), String> {
    let cfg = decoder_config();
    let generate = decode_generate(smoke);
    let prefill_graph = decoder_prefill(&cfg, DECODE_PROMPT_LEN).map_err(|e| e.to_string())?;
    let step_graph = decoder_step(&cfg, DECODE_PROMPT_LEN).map_err(|e| e.to_string())?;
    save_graph(&prefill_graph, dir, "prefill")?;
    save_graph(&step_graph, dir, "step")?;

    let cache = PlanCache::new();
    let mut compiler = Compiler::new(CompilerOptions::default());
    let mut session = DecodeSession::compile(
        executor(),
        &cache,
        &mut compiler,
        &prefill_graph,
        &step_graph,
    )
    .map_err(|e| e.to_string())?;

    // The engine only proposes a sequence; the interpreter decides whether
    // it is the expected one. A prompt whose sequence has a near-tie between
    // two logits is redrawn, so that no later run can fail on rounding.
    let mut accepted = None;
    for attempt in 0..4 {
        let mut rng = Rng::derive(seed, &format!("prompt{attempt}"));
        let prompt: Vec<u32> = (0..DECODE_PROMPT_LEN)
            .map(|_| rng.below(cfg.vocab as u64) as u32)
            .collect();
        let generated = session
            .decode(&prompt, generate)
            .map_err(|e| e.to_string())?;
        let sequence: Vec<u32> = prompt.iter().chain(&generated).copied().collect();
        if certify_by_full_recompute(&sequence, DECODE_PROMPT_LEN)? >= MIN_LOGIT_GAP {
            accepted = Some((prompt, generated));
            break;
        }
    }
    let (prompt, generated) = accepted.ok_or("no prompt with a clear logit margin in 4 draws")?;
    files::write_u32(&dir.join("prompt.u32"), &prompt)?;
    files::write_u32(&dir.join("expected.u32"), &generated)?;

    let mut db = compiler.into_database();
    let prefill_inputs: HashMap<String, Tensor> = [
        token_tensor(prompt.iter().map(|&t| t as f32)),
        token_tensor((0..DECODE_PROMPT_LEN).map(|p| p as f32)),
    ]
    .into_iter()
    .zip(prefill_graph.inputs())
    .map(|(tensor, &id)| (prefill_graph.value(id).name.clone(), tensor))
    .collect();
    executor()
        .profile_compiled(session.prefill_model(), &prefill_inputs, &mut db)
        .map_err(|e| e.to_string())?;
    cache
        .save(dir.join("plans.cache"))
        .map_err(|e| e.to_string())?;
    db.save(dir.join("profile.tsv")).map_err(|e| e.to_string())
}
