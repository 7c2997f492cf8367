//! `cnn_batch1` and `transformer_tiny`: one closed-loop client calling
//! `Executor::run_compiled`; an operation is one round — one inference of
//! each of the workload's models on an input set drawn from the seed.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use dnnf_core::CompiledModel;
use dnnf_graph::Graph;
use dnnf_runtime::{Executor, PlanCache, WeightStore};
use dnnf_tensor::Tensor;

use crate::engine::{bit_identical, executor, matches_oracle, Tally};
use crate::files;
use crate::measure::{
    self, closed_loop, CompileFacts, Estimates, Options, Outcome, Segment, StartFacts, Subject,
};
use crate::models::{models_for, ModelDef};
use crate::probes::{self, Probe};
use crate::spec::Workload;
use crate::tracer::Tracer;

/// Benchmark artefacts of one model, read before anything is timed.
struct Artefacts {
    def: &'static ModelDef,
    /// The graph as loaded from its file — for shapes here, and as the
    /// unfused engine's source in the probes.
    graph: Graph,
    /// Per set-up repetition: the seeded inputs and the interpreter's
    /// outputs for them.
    inputs: Vec<HashMap<String, Tensor>>,
    expected: Vec<Vec<Vec<f32>>>,
}

/// The models the steady segments run, with the first verified direct run
/// of every (model, input set): checked against the interpreter once, then
/// the bit-exact reference for every repeat. A run the interpreter
/// contradicts is no reference (`None`): rounds on that input set fail.
struct Steady {
    models: Vec<Arc<CompiledModel>>,
    reference: Vec<Vec<Option<Vec<Tensor>>>>,
}

/// What one start leaves behind: the compiled models, each model's first
/// outputs, and what the start observed.
struct Started {
    models: Vec<Arc<CompiledModel>>,
    first_outputs: Vec<Vec<Tensor>>,
    facts: StartFacts,
}

struct OneShot {
    workload: Workload,
    /// First set-up directory: the graphs and the persisted stores.
    dir: PathBuf,
    exec: Executor,
    artefacts: Vec<Artefacts>,
    tally: Tally,
    cold: Vec<StartFacts>,
    warm: Option<StartFacts>,
    steady: Option<Steady>,
}

impl OneShot {
    /// From files on disk to the first result of every model.
    fn start_once(&self, t: &mut Tracer, warm: bool) -> Result<Started, String> {
        let cache = PlanCache::new();
        let (mut compiler, profile_entries) =
            measure::compiler_for_start(t, &self.dir, &cache, warm)?;
        let compile_span = measure::compile_span(warm);
        let mut models = Vec::new();
        let mut first_outputs = Vec::new();
        let mut compile = CompileFacts::default();
        for a in &self.artefacts {
            let token = a.def.token;
            let path = self.dir.join(format!("{token}.dnnfg"));
            let graph = t
                .time("io.load", token, |_| dnnf_io::load(&path))
                .0
                .map_err(|e| e.to_string())?;
            let (model, _) = t
                .time(compile_span, token, |_| {
                    cache.compile_cached(&mut compiler, &graph)
                })
                .0
                .map_err(|e| e.to_string())?;
            t.time("runtime.weight_store", token, |_| {
                WeightStore::of_model(&model)
            });
            let report = t
                .time("runtime.first_run", token, |_| {
                    self.exec.run_compiled(&model, &a.inputs[0])
                })
                .0
                .map_err(|e| e.to_string())?;
            compile.add(&model.stats);
            first_outputs.push(report.outputs);
            models.push(model);
        }
        Ok(Started {
            models,
            first_outputs,
            facts: StartFacts {
                compile,
                cache: cache.stats(),
                profile_entries,
            },
        })
    }

    fn keep_for_steady(&mut self, models: Vec<Arc<CompiledModel>>) -> Result<(), String> {
        let mut reference = Vec::new();
        for (a, model) in self.artefacts.iter().zip(&models) {
            let mut per_set = Vec::new();
            for (inputs, expected) in a.inputs.iter().zip(&a.expected) {
                let outputs = self
                    .exec
                    .run_compiled(model, inputs)
                    .map_err(|e| e.to_string())?
                    .outputs;
                let verified = self.tally.check(matches_oracle(&outputs, expected));
                per_set.push(verified.then_some(outputs));
            }
            reference.push(per_set);
        }
        self.steady = Some(Steady { models, reference });
        Ok(())
    }
}

impl Subject for OneShot {
    fn start(&mut self, tracer: &mut Tracer, warm: bool) -> Result<f64, String> {
        let name = if warm { "warm_start" } else { "cold_start" };
        let (started, ms) = tracer.root(name, |t| self.start_once(t, warm));
        let started = started?;
        for (a, outputs) in self.artefacts.iter().zip(&started.first_outputs) {
            self.tally.check(matches_oracle(outputs, &a.expected[0]));
        }
        if warm {
            self.warm = Some(started.facts);
            if self.steady.is_none() {
                self.keep_for_steady(started.models)?;
            }
        } else {
            self.cold.push(started.facts);
        }
        Ok(ms)
    }

    fn steady(&mut self, tracer: &mut Tracer, seconds: f64) -> Result<Segment, String> {
        let steady = self
            .steady
            .as_ref()
            .ok_or("steady segment before a warm start")?;
        let (artefacts, exec) = (&self.artefacts, &self.exec);
        let sets = artefacts[0].inputs.len() as u64;
        Ok(closed_loop(
            self.workload,
            seconds,
            &mut self.tally,
            |round| {
                let set = (round % sets) as usize;
                let (outputs, ms) = tracer.root("round", |t| {
                    artefacts
                        .iter()
                        .zip(&steady.models)
                        .map(|(a, model)| {
                            t.time("runtime.run", a.def.token, |_| {
                                exec.run_compiled(model, &a.inputs[set])
                            })
                            .0
                        })
                        .collect::<Vec<_>>()
                });
                let ok = outputs
                    .iter()
                    .zip(&steady.reference)
                    .all(|(report, per_set)| {
                        let want = per_set[set].as_ref();
                        let got = report.as_ref().ok();
                        got.zip(want)
                            .is_some_and(|(got, want)| bit_identical(&got.outputs, want))
                    });
                (ms, ok)
            },
        ))
    }
}

pub fn run(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    let dirs = files::setup_dirs(&opts.dir);
    let first = dirs.first().ok_or("no set-up directory")?;
    let mut artefacts = Vec::new();
    for def in models_for(workload, opts.smoke) {
        let graph =
            dnnf_io::load(first.join(format!("{}.dnnfg", def.token))).map_err(|e| e.to_string())?;
        let mut inputs = Vec::new();
        let mut expected = Vec::new();
        for dir in &dirs {
            inputs.push(files::read_inputs(dir, def.token, &graph, |s| s.clone())?);
            expected.push(files::read_outputs(dir, def.token, &graph)?);
        }
        artefacts.push(Artefacts {
            def,
            graph,
            inputs,
            expected,
        });
    }
    let mut subject = OneShot {
        workload,
        dir: first.clone(),
        exec: executor(),
        artefacts,
        tally: Tally::default(),
        cold: Vec::new(),
        warm: None,
        steady: None,
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
    let sized: Vec<(&Graph, u64)> = subject
        .artefacts
        .iter()
        .map(|a| {
            let path = subject.dir.join(format!("{}.dnnfg", a.def.token));
            (&a.graph, std::fs::metadata(path).map_or(0, |m| m.len()))
        })
        .collect();
    let warm = subject.warm.ok_or("no warm start ran")?;
    measure::start_layers(&mut layers, &tracer, &subject.cold, &warm, &sized);
    measure::steady_layers(&mut layers, &rounds);
    estimates.whole_run_layers(&mut layers);

    let steady = subject.steady.as_ref().ok_or("no warm start ran")?;
    let probe_list: Vec<Probe> = subject
        .artefacts
        .iter()
        .zip(&steady.models)
        .map(|(a, model)| Probe {
            token: a.def.token,
            model,
            source: &a.graph,
            inputs: &a.inputs[0],
        })
        .collect();
    probes::all(&probe_list, &mut layers, &mut subject.tally)?;

    tracer
        .write_jsonl(&opts.dir.join("trace.jsonl"))
        .map_err(|e| e.to_string())?;
    Ok(Outcome {
        tally: subject.tally,
        metrics: layers,
    })
}
