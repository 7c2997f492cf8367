//! `decode_stream`: a `DecodeSession` generating greedy tokens from seeded
//! prompts, sequences back to back; an operation is one generated token.
//! `cold_start_ms` is the cold time to first token, `latency_p50_ms` the
//! median time of a token, of which all but one in 128 are the gaps between
//! tokens.

use std::path::PathBuf;
use std::time::Instant;

use dnnf_graph::Graph;
use dnnf_runtime::{DecodeSession, PlanCache, WeightStore};

use crate::engine::{executor, Tally};
use crate::files::{self, Rng};
use crate::measure::{
    self, CompileFacts, Estimates, Options, Outcome, Segment, StartFacts, Subject,
};
use crate::probes::{self, Probe};
use crate::spec::Workload;
use crate::stats;
use crate::tracer::Tracer;

/// A seeded prompt and the tokens the interpreter certified for it.
struct Sequence {
    prompt: Vec<u32>,
    expected: Vec<u32>,
}

struct Decode {
    /// First set-up directory: the graphs and the persisted stores.
    dir: PathBuf,
    sequences: Vec<Sequence>,
    /// Sequences decoded so far; picks the next prompt.
    decoded: usize,
    tally: Tally,
    cold: Vec<StartFacts>,
    warm: Option<StartFacts>,
    /// The session of the first warm start, which the steady segments use.
    session: Option<DecodeSession>,
}

impl Decode {
    /// From files on disk to the first token of the first prompt.
    fn start_once(
        &self,
        t: &mut Tracer,
        warm: bool,
    ) -> Result<(DecodeSession, u32, StartFacts), String> {
        let cache = PlanCache::new();
        let (mut compiler, profile_entries) =
            measure::compiler_for_start(t, &self.dir, &cache, warm)?;
        let load = |t: &mut Tracer, stem: &'static str| {
            t.time("io.load", stem, |_| {
                dnnf_io::load(self.dir.join(format!("{stem}.dnnfg")))
            })
            .0
            .map_err(|e| e.to_string())
        };
        let prefill_graph = load(t, "prefill")?;
        let step_graph = load(t, "step")?;
        let compile_span = measure::compile_span(warm);
        let mut session = t
            .time(compile_span, "", |_| {
                DecodeSession::compile(
                    executor(),
                    &cache,
                    &mut compiler,
                    &prefill_graph,
                    &step_graph,
                )
            })
            .0
            .map_err(|e| e.to_string())?;
        t.time("runtime.weight_store", "", |_| {
            let _prefill = WeightStore::of_model(session.prefill_model());
            let _step = WeightStore::of_model(session.step_model());
        });
        let first_token = t
            .time("runtime.first_run", "prefill", |_| {
                session.prefill(&self.sequences[0].prompt)
            })
            .0
            .map_err(|e| e.to_string())?;
        let mut compile = CompileFacts::default();
        compile.add(&session.prefill_model().stats);
        compile.add(&session.step_model().stats);
        let facts = StartFacts {
            compile,
            cache: cache.stats(),
            profile_entries,
        };
        Ok((session, first_token, facts))
    }
}

impl Subject for Decode {
    fn start(&mut self, tracer: &mut Tracer, warm: bool) -> Result<f64, String> {
        let name = if warm { "warm_start" } else { "cold_start" };
        let (started, ms) = tracer.root(name, |t| self.start_once(t, warm));
        let (session, first_token, facts) = started?;
        self.tally
            .check(first_token == self.sequences[0].expected[0]);
        if warm {
            self.warm = Some(facts);
            self.session.get_or_insert(session);
        } else {
            self.cold.push(facts);
        }
        Ok(ms)
    }

    /// Decodes whole sequences back to back until `seconds` have passed.
    /// Every token is an operation: checked against the certified sequence
    /// and timed on its own.
    fn steady(&mut self, tracer: &mut Tracer, seconds: f64) -> Result<Segment, String> {
        let session = self
            .session
            .as_mut()
            .ok_or("steady segment before a warm start")?;
        let limit = Workload::DecodeStream.latency_limit_ms();
        let mut segment = Segment::default();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let sequence = &self.sequences[self.decoded % self.sequences.len()];
            self.decoded += 1;
            let last = sequence.expected.len() - 1;
            for (i, &want) in sequence.expected.iter().enumerate() {
                let (token, ms) = tracer.root("token", |t| match i {
                    0 => {
                        t.time("runtime.decode_prefill", "", |_| {
                            session.prefill(&sequence.prompt)
                        })
                        .0
                    }
                    // The first and the last step of a sequence are named:
                    // their ratio shows how a step grows with the past.
                    _ => {
                        let position = match i {
                            1 => "first",
                            _ if i == last => "last",
                            _ => "",
                        };
                        t.time("runtime.decode_step", position, |_| session.step())
                            .0
                    }
                });
                let ok = self.tally.check(token.is_ok_and(|t| t == want));
                segment.push(start, ms, ok, limit);
            }
        }
        Ok(segment)
    }
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let workload = Workload::DecodeStream;
    let dirs = files::setup_dirs(&opts.dir);
    let first = dirs.first().ok_or("no set-up directory")?;
    let sequences: Vec<Sequence> = dirs
        .iter()
        .map(|dir| {
            Ok(Sequence {
                prompt: files::read_u32(&dir.join("prompt.u32"))?,
                expected: files::read_u32(&dir.join("expected.u32"))?,
            })
        })
        .collect::<Result<_, String>>()?;
    let mut subject = Decode {
        dir: first.clone(),
        sequences,
        decoded: 0,
        tally: Tally::default(),
        cold: Vec::new(),
        warm: None,
        session: None,
    };
    let mut tracer = Tracer::new(opts.trace);
    let rounds = measure::run_rounds(&mut subject, workload, opts, &mut tracer)?;
    let estimates = Estimates::closed_loop(&rounds);

    if !opts.trace {
        return Ok(Outcome {
            tally: subject.tally,
            metrics: estimates.end_to_end(measure::within_limit_share(measure::plain(&rounds))),
        });
    }

    let mut layers = measure::per_layer_zeroes();
    let graphs: Vec<(Graph, u64)> = ["prefill", "step"]
        .iter()
        .map(|stem| {
            let path = first.join(format!("{stem}.dnnfg"));
            let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            Ok((dnnf_io::load(&path).map_err(|e| e.to_string())?, bytes))
        })
        .collect::<Result<_, String>>()?;
    let sized: Vec<(&Graph, u64)> = graphs.iter().map(|(g, bytes)| (g, *bytes)).collect();
    let warm = subject.warm.ok_or("no warm start ran")?;
    measure::start_layers(&mut layers, &tracer, &subject.cold, &warm, &sized);
    measure::steady_layers(&mut layers, &rounds);
    estimates.whole_run_layers(&mut layers);
    let span_median = |name: &str, detail: &str| {
        stats::median(
            &tracer
                .spans()
                .iter()
                .filter(|s| s.name == name && s.detail == detail)
                .map(|s| s.ms())
                .collect::<Vec<_>>(),
        )
    };
    layers.insert(
        "runtime.decode_prefill_ms".into(),
        span_median("runtime.decode_prefill", ""),
    );
    layers.insert(
        "runtime.decode_step_first_ms".into(),
        span_median("runtime.decode_step", "first"),
    );
    layers.insert(
        "runtime.decode_step_last_ms".into(),
        span_median("runtime.decode_step", "last"),
    );

    // Every new past length respecializes the step plan (shape inference
    // and code generation); time that for lengths no sequence reaches.
    let session = subject.session.as_ref().ok_or("no warm start ran")?;
    let step_model = session.step_model().clone();
    let mut respecialize = Vec::new();
    for past in 1000..1008 {
        let start = Instant::now();
        step_model
            .instance_for_seq(past)
            .map_err(|e| e.to_string())?;
        respecialize.push(start.elapsed().as_secs_f64() * 1e3);
    }
    layers.insert(
        "core.instance_for_seq_ms".into(),
        stats::median(&respecialize),
    );

    // The step graph as compiled (canonical past length 1) with seeded
    // inputs: the probes compare the walker with `run_compiled`, bit for
    // bit, so the values only have to be valid token and position ids.
    let step_inputs = files::seeded_inputs(
        step_model.graph(),
        &mut Rng::derive(opts.seed, "step probe"),
    );
    let probe = Probe {
        token: "decoder_step",
        model: &step_model,
        source: step_model.graph(),
        inputs: &step_inputs,
    };
    probes::all(
        std::slice::from_ref(&probe),
        &mut layers,
        &mut subject.tally,
    )?;

    tracer
        .write_jsonl(&opts.dir.join("trace.jsonl"))
        .map_err(|e| e.to_string())?;
    Ok(Outcome {
        tally: subject.tally,
        metrics: layers,
    })
}
