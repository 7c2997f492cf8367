//! `serve_mix`: `dnnf-serve` hosting two tenants loaded from `.dnnfg` files,
//! one worker, request rows cycling 1,2,3,2; an operation is one request.
//!
//! Two phases share every steady segment. The *closed loop* keeps 16
//! tickets outstanding from one thread and gives `throughput_per_s`. The
//! *open loop* submits on a seeded Poisson schedule at a fixed rate, times
//! every request **from its due time**, and gives `latency_p50_ms` and
//! `within_limit_share`; how late the generator itself ran is reported.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dnnf_core::{CompiledModel, Compiler, CompilerOptions};
use dnnf_graph::Graph;
use dnnf_runtime::{PlanCache, PlanCacheStats};
use dnnf_serve::{Response, ServeConfig, ServeError, Server, Ticket};
use dnnf_simdev::DeviceSpec;
use dnnf_tensor::{Shape, Tensor};

use crate::engine::{bit_identical, exec_options, executor, matches_oracle, Tally};
use crate::files::{self, Rng};
use crate::measure::{self, Estimate, Estimates, Options, Outcome, Segment, Subject};
use crate::models::models_for;
use crate::probes::{self, Probe};
use crate::setup::serve_pool_rows;
use crate::spec::{Workload, SERVE_OPEN_LOOP_RATE_PER_S, SERVE_OUTSTANDING, SERVE_ROWS_CYCLE};
use crate::stats;
use crate::tracer::Tracer;

/// Request shapes per tenant: two passes over the row cycle, each drawing
/// different rows from the pool.
const TEMPLATES_PER_TENANT: usize = 8;

fn config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        batch_window: Duration::from_millis(1),
        // Deep enough that a stall of the host delays requests (which then
        // miss the latency limit) rather than has them refused: the workload
        // is one on which no operation fails.
        queue_capacity: 256,
        workers: 1,
        exec: exec_options(),
        device: DeviceSpec::snapdragon_865_cpu(),
        simulate_cache: false,
    }
}

/// A request the generators replay: its inputs, the interpreter's answer
/// row by row, and the first verified direct run's bits.
struct Template {
    inputs: HashMap<String, Tensor>,
    expected: Vec<Vec<f32>>,
    reference: Vec<Tensor>,
}

struct Tenant {
    token: &'static str,
    graph: Graph,
    templates: Vec<Template>,
}

/// Stacks `rows` (each `[1, tail…]` data) along the batch dimension.
fn stack(rows: &[&Vec<f32>]) -> Vec<f32> {
    rows.iter().flat_map(|r| r.iter().copied()).collect()
}

fn load_tenants(dirs: &[std::path::PathBuf], smoke: bool) -> Result<Vec<Tenant>, String> {
    let first = dirs.first().ok_or("no set-up directory")?;
    let mut tenants = Vec::new();
    for def in models_for(Workload::ServeMix, smoke) {
        let graph =
            dnnf_io::load(first.join(format!("{}.dnnfg", def.token))).map_err(|e| e.to_string())?;
        // The row pool: every set-up's rows, inputs and per-row answers.
        let mut pool_in: Vec<Vec<Vec<f32>>> = Vec::new();
        let mut pool_out: Vec<Vec<Vec<f32>>> = Vec::new();
        for dir in dirs {
            for row in 0..serve_pool_rows(smoke) {
                let stem = format!("{}.row{row}", def.token);
                pool_in.push(
                    (0..graph.inputs().len())
                        .map(|i| files::read_f32(&files::io_path(dir, &stem, "in", i)))
                        .collect::<Result<_, _>>()?,
                );
                pool_out.push(files::read_outputs(dir, &stem, &graph)?);
            }
        }
        let templates = (0..TEMPLATES_PER_TENANT)
            .map(|t| {
                let rows = SERVE_ROWS_CYCLE[t % SERVE_ROWS_CYCLE.len()];
                let picks: Vec<usize> = (0..rows).map(|j| (t * 3 + j) % pool_in.len()).collect();
                let inputs = graph
                    .inputs()
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| {
                        let value = graph.value(id);
                        let mut dims = value.shape.dims().to_vec();
                        dims[0] = rows;
                        let data =
                            stack(&picks.iter().map(|&p| &pool_in[p][i]).collect::<Vec<_>>());
                        let tensor = Tensor::from_vec(Shape::new(dims), data)
                            .map_err(|e| format!("{}: {e}", def.token))?;
                        Ok((value.name.clone(), tensor))
                    })
                    .collect::<Result<_, String>>()?;
                let expected = (0..graph.outputs().len())
                    .map(|o| stack(&picks.iter().map(|&p| &pool_out[p][o]).collect::<Vec<_>>()))
                    .collect();
                Ok(Template {
                    inputs,
                    expected,
                    reference: Vec::new(),
                })
            })
            .collect::<Result<_, String>>()?;
        tenants.push(Tenant {
            token: def.token,
            graph,
            templates,
        });
    }
    Ok(tenants)
}

/// Checks a reply against its template: the interpreter's rows within
/// tolerance, and the first verified direct run bit for bit.
fn reply_ok(template: &Template, reply: &Result<Response, ServeError>) -> bool {
    reply.as_ref().is_ok_and(|r| {
        matches_oracle(&r.outputs, &template.expected)
            && bit_identical(&r.outputs, &template.reference)
    })
}

/// From files on disk to the first reply of every tenant.
fn start_once(
    t: &mut Tracer,
    dir: &std::path::Path,
    tenants: &[Tenant],
    warm: bool,
) -> Result<Vec<Result<Response, ServeError>>, String> {
    // `model_from_dnnfg` compiles through the process-wide cache; a start is
    // cold when that cache is empty and warm when it holds the persisted
    // seeds (their load is part of the warm start).
    PlanCache::global().clear();
    if warm {
        t.time("runtime.plan_cache_load", "", |_| {
            PlanCache::global().load_seeds(dir.join("plans.cache"))
        })
        .0
        .map_err(|e| e.to_string())?;
    }
    let server = t
        .time("serve.startup", "", |_| {
            let mut builder = Server::builder(config());
            for tenant in tenants {
                let path = dir.join(format!("{}.dnnfg", tenant.token));
                builder = builder.model_from_dnnfg(tenant.token, path)?;
            }
            Ok::<_, ServeError>(builder.start())
        })
        .0
        .map_err(|e| e.to_string())?;
    let tickets: Vec<Ticket> = tenants
        .iter()
        .map(|tenant| {
            t.time("serve.submit", tenant.token, |_| {
                server.submit(tenant.token, tenant.templates[0].inputs.clone())
            })
            .0
            .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let replies = tickets
        .into_iter()
        .zip(tenants)
        .map(|(ticket, tenant)| {
            t.time("serve.first_reply", tenant.token, |_| ticket.wait())
                .0
        })
        .collect();
    server.shutdown();
    Ok(replies)
}

/// One request of the open loop, clocked on three threads' clocks.
struct Record {
    tenant: usize,
    due: Instant,
    submitted: Instant,
    done: Instant,
    ok: bool,
}

/// Arrival offsets of a Poisson process at `rate` per second over
/// `seconds`, drawn from the seed.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Duration> {
    let mut rng = Rng::derive(seed, "poisson schedule");
    let mut at = 0.0;
    let mut schedule = Vec::new();
    loop {
        at += -(1.0 - rng.unit()).ln() / rate;
        if at >= seconds {
            return schedule;
        }
        schedule.push(Duration::from_secs_f64(at));
    }
}

/// Sleeps until shortly before `due`, then spins: `thread::sleep` alone
/// overshoots by tens of microseconds, which at these latencies is signal.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(150));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The closed loop: keeps [`SERVE_OUTSTANDING`] tickets in flight from this
/// thread for `seconds`. A ticket's latency is clocked when this thread gets
/// to its reply, so only the completion rate is read from the segment.
fn closed_phase(
    server: &Server,
    tenants: &[Tenant],
    next: &mut usize,
    seconds: f64,
    tally: &mut Tally,
) -> Segment {
    let limit = Workload::ServeMix.latency_limit_ms();
    let mut segment = Segment::default();
    let start = Instant::now();
    let mut outstanding: VecDeque<(Ticket, usize, usize, Instant)> = VecDeque::new();
    loop {
        let open = start.elapsed().as_secs_f64() < seconds;
        while open && outstanding.len() < SERVE_OUTSTANDING {
            let tenant = *next % tenants.len();
            let template = (*next / tenants.len()) % TEMPLATES_PER_TENANT;
            *next += 1;
            let inputs = tenants[tenant].templates[template].inputs.clone();
            let submitted = Instant::now();
            match server.submit(tenants[tenant].token, inputs) {
                Ok(ticket) => outstanding.push_back((ticket, tenant, template, submitted)),
                // Refused: attempted and missed, never dropped.
                Err(_) => {
                    tally.check(false);
                }
            }
        }
        let Some((ticket, tenant, template, submitted)) = outstanding.pop_front() else {
            return segment;
        };
        let reply = ticket.wait();
        let ms = submitted.elapsed().as_secs_f64() * 1e3;
        let ok = tally.check(reply_ok(&tenants[tenant].templates[template], &reply));
        segment.push(start, ms, ok, limit);
    }
}

/// The open loop: submits on `schedule` whatever the server's state, each
/// request clocked from its due time. Returns the answered requests and how
/// many were refused.
fn open_phase(
    server: &Server,
    tenants: &[Tenant],
    schedule: &[Duration],
    submit_us: &mut Vec<f64>,
    corrupt_reply: bool,
) -> (Vec<Record>, u64) {
    // One collector per tenant: replies of one model come back in order, so
    // each collector can block on its oldest ticket without delaying the
    // clock of a faster tenant's reply. Collectors sleep in `recv`; the
    // runnable threads stay the generator and the worker.
    type Job = (Ticket, usize, Instant, Instant);
    let mut refused = 0;
    let records = std::thread::scope(|scope| {
        let mut senders = Vec::new();
        let mut collectors = Vec::new();
        for (index, tenant) in tenants.iter().enumerate() {
            let (tx, rx) = mpsc::channel::<Job>();
            senders.push(tx);
            collectors.push(scope.spawn(move || {
                let mut records = Vec::new();
                for (ticket, template, due, submitted) in rx {
                    let mut reply = ticket.wait();
                    let done = Instant::now();
                    // The self-test's fault: one flipped bit in every reply
                    // of the first tenant.
                    if let (true, 0, Ok(r)) = (corrupt_reply, index, &mut reply) {
                        let x = &mut r.outputs[0].data_mut()[0];
                        *x = f32::from_bits(x.to_bits() ^ 1);
                    }
                    records.push(Record {
                        tenant: index,
                        due,
                        submitted,
                        done,
                        ok: reply_ok(&tenant.templates[template], &reply),
                    });
                }
                records
            }));
        }
        let start = Instant::now();
        for (i, &offset) in schedule.iter().enumerate() {
            let tenant = i % tenants.len();
            let template = (i / tenants.len()) % TEMPLATES_PER_TENANT;
            let inputs = tenants[tenant].templates[template].inputs.clone();
            let due = start + offset;
            wait_until(due);
            let submitted = Instant::now();
            let ticket = server.submit(tenants[tenant].token, inputs);
            submit_us.push(submitted.elapsed().as_secs_f64() * 1e6);
            match ticket {
                Ok(ticket) => senders[tenant]
                    .send((ticket, template, due, submitted))
                    .expect("collector outlives the generator"),
                Err(_) => refused += 1,
            }
        }
        drop(senders);
        let mut all = Vec::new();
        for collector in collectors {
            all.extend(collector.join().expect("collector thread panicked"));
        }
        all.sort_by_key(|r: &Record| r.due);
        all
    });
    (records, refused)
}

fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

impl Record {
    fn latency_ms(&self) -> f64 {
        ms_between(self.due, self.done)
    }
}

/// Share of a steady segment the closed loop gets. It completes 600
/// requests a second, so a short stretch fixes its rate; the open loop
/// arrives at a sixth of that and needs the longer stretch for its medians.
const CLOSED_SHARE: f64 = 0.3;

struct Serve {
    /// First set-up directory: the graphs and the persisted seeds.
    dir: PathBuf,
    tenants: Vec<Tenant>,
    seed: u64,
    corrupt_reply: bool,
    tally: Tally,
    cold_cache: PlanCacheStats,
    warm_cache: PlanCacheStats,
    /// The steady server, started after the first warm start.
    server: Option<Server>,
    /// Requests the closed loop has submitted; picks the next shape.
    next: usize,
    /// Open-loop phases run; draws each phase's own schedule.
    open_phases: u64,
    /// Answered open-loop requests of every phase, each phase in due order,
    /// and whether the phase ran with spans recorded.
    open: Vec<(bool, Vec<Record>)>,
    open_attempted: u64,
    open_within_limit: u64,
    submit_us: Vec<f64>,
}

impl Subject for Serve {
    fn start(&mut self, tracer: &mut Tracer, warm: bool) -> Result<f64, String> {
        let name = if warm { "warm_start" } else { "cold_start" };
        let (replies, ms) = tracer.root(name, |t| start_once(t, &self.dir, &self.tenants, warm));
        for (tenant, reply) in self.tenants.iter().zip(&replies?) {
            self.tally.check(reply_ok(&tenant.templates[0], reply));
        }
        let stats = PlanCache::global().stats();
        if warm {
            self.warm_cache = stats;
        } else {
            self.cold_cache = stats;
        }
        Ok(ms)
    }

    fn steady(&mut self, tracer: &mut Tracer, seconds: f64) -> Result<Segment, String> {
        if self.server.is_none() {
            let mut builder = Server::builder(config());
            for tenant in &self.tenants {
                let path = self.dir.join(format!("{}.dnnfg", tenant.token));
                builder = builder
                    .model_from_dnnfg(tenant.token, path)
                    .map_err(|e| e.to_string())?;
            }
            self.server = Some(builder.start());
        }
        let server = self.server.as_ref().expect("started above");
        let closed = closed_phase(
            server,
            &self.tenants,
            &mut self.next,
            seconds * CLOSED_SHARE,
            &mut self.tally,
        );

        self.open_phases += 1;
        let schedule = poisson_schedule(
            self.seed.wrapping_add(self.open_phases),
            SERVE_OPEN_LOOP_RATE_PER_S,
            seconds * (1.0 - CLOSED_SHARE),
        );
        let (records, refused) = open_phase(
            server,
            &self.tenants,
            &schedule,
            &mut self.submit_us,
            self.corrupt_reply,
        );
        let limit = Workload::ServeMix.latency_limit_ms();
        for record in &records {
            let within = self.tally.check(record.ok) && record.latency_ms() <= limit;
            self.open_within_limit += u64::from(within);
        }
        // Refused: attempted and missed, never dropped.
        for _ in 0..refused {
            self.tally.check(false);
        }
        self.open_attempted += schedule.len() as u64;
        self.open.push((tracer.enabled(), records));
        Ok(closed)
    }
}

impl Serve {
    /// The open loop's latency over the untraced phases, one per round: each
    /// tenant's median, averaged over the tenants. The tenants' latencies
    /// differ four-fold, so the median of the mix falls in the thin stretch
    /// between them, where a few requests more or fewer that had to queue
    /// move it by a tenth; each tenant's own median sits where its requests
    /// are densest.
    fn open_latency_p50(&self) -> Estimate {
        let plain = self.open.iter().filter(|(traced, _)| !traced);
        let phases: Vec<&Vec<Record>> = plain.map(|(_, records)| records).collect();
        let of_tenant = |tenant: usize| {
            let per_phase: Vec<Vec<f64>> = phases
                .iter()
                .map(|records| {
                    let own = records.iter().filter(|r| r.tenant == tenant);
                    own.map(Record::latency_ms).collect()
                })
                .collect();
            measure::median_time(&per_phase.iter().map(|v| &v[..]).collect::<Vec<_>>())
        };
        let tenants: Vec<Estimate> = (0..self.tenants.len()).map(of_tenant).collect();
        let mean =
            |f: fn(&Estimate) -> f64| tenants.iter().map(f).sum::<f64>() / tenants.len() as f64;
        Estimate {
            whole: mean(|e| e.whole),
            quiet: mean(|e| e.quiet),
        }
    }
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let workload = Workload::ServeMix;
    let dirs = files::setup_dirs(&opts.dir);
    let first = dirs.first().ok_or("no set-up directory")?.clone();
    let mut tenants = load_tenants(&dirs, opts.smoke)?;
    let mut tally = Tally::default();

    // Direct models: compiled here under the same key the server uses, for
    // the bit-exact references and `serve.direct_batched_ms`.
    let exec = executor();
    let direct_cache = PlanCache::new();
    let mut direct: Vec<Arc<CompiledModel>> = Vec::new();
    let mut direct_ms: Vec<f64> = Vec::new();
    for tenant in &mut tenants {
        let mut compiler = Compiler::new(CompilerOptions::default());
        let (model, _) = direct_cache
            .compile_batched(&mut compiler, &tenant.graph)
            .map_err(|e| e.to_string())?;
        let mut samples = Vec::new();
        for template in &mut tenant.templates {
            let run = || exec.run_compiled_batched(&model, &template.inputs);
            let outputs = run().map_err(|e| e.to_string())?.outputs;
            // A run the interpreter contradicts is no reference: replies
            // to this template then fail their check.
            if tally.check(matches_oracle(&outputs, &template.expected)) {
                template.reference = outputs;
            }
            for _ in 0..5 {
                let start = Instant::now();
                std::hint::black_box(run().map_err(|e| e.to_string())?);
                samples.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
        direct_ms.push(stats::median(&samples));
        direct.push(model);
    }

    let mut subject = Serve {
        dir: first.clone(),
        tenants,
        seed: opts.seed,
        corrupt_reply: opts.corrupt_reply,
        tally,
        cold_cache: PlanCache::global().stats(),
        warm_cache: PlanCache::global().stats(),
        server: None,
        next: 0,
        open_phases: 0,
        open: Vec::new(),
        open_attempted: 0,
        open_within_limit: 0,
        submit_us: Vec::new(),
    };
    let mut tracer = Tracer::new(opts.trace);
    let rounds = measure::run_rounds(&mut subject, workload, opts, &mut tracer)?;
    // The closed loop gives the rate, the open loop the latency.
    let estimates = Estimates {
        latency_p50_ms: subject.open_latency_p50(),
        ..Estimates::closed_loop(&rounds)
    };
    let server = subject.server.take().ok_or("no steady segment ran")?;
    let server_stats = server.stats();
    server.shutdown();

    if !opts.trace {
        let share = subject.open_within_limit as f64 / subject.open_attempted.max(1) as f64;
        return Ok(Outcome {
            tally: subject.tally,
            metrics: estimates.end_to_end(share),
        });
    }

    // Spans of the traced open-loop phases, from the three clocks of each
    // record: the request from its due time, the generator's lateness, and
    // the wait (queue + batch window + run + reply), which cannot be split
    // from outside the server.
    let traced: Vec<&Record> = subject
        .open
        .iter()
        .filter(|(traced, _)| *traced)
        .flat_map(|(_, records)| records)
        .collect();
    let recording = Instant::now();
    for record in &traced {
        let token = subject.tenants[record.tenant].token;
        let root = tracer.record("request", token, None, record.due, record.done);
        tracer.record(
            "serve.generator_late",
            token,
            root,
            record.due,
            record.submitted,
        );
        tracer.record("serve.wait", token, root, record.submitted, record.done);
    }
    // Nothing is recorded while requests are in flight, so the cost of
    // tracing is the loop above against the time the traced phases ran.
    let traced_seconds: f64 = subject
        .open
        .iter()
        .filter(|(traced, _)| *traced)
        .filter_map(|(_, records)| Some((records.first()?.due, records.last()?.done)))
        .map(|(from, to)| ms_between(from, to) / 1e3)
        .sum();
    let overhead = recording.elapsed().as_secs_f64() / traced_seconds.max(f64::MIN_POSITIVE);

    let mut layers = measure::per_layer_zeroes();
    estimates.whole_run_layers(&mut layers);
    let mut put = |name: String, value: f64| {
        layers.insert(name, value);
    };
    let per_cold = |name: &str| stats::median(&tracer.per_root_ms("cold_start", name));
    // The server loads and compiles inside `model_from_dnnfg`: from outside,
    // `io`, `graph` and `core` are all inside `serve.startup`.
    put("serve.startup_ms".into(), per_cold("serve.startup"));
    put("serve.submit_us".into(), stats::median(&subject.submit_us));
    put(
        "runtime.plan_cache_load_ms".into(),
        stats::median(&tracer.per_root_ms("warm_start", "runtime.plan_cache_load")),
    );
    put(
        "runtime.plan_cache_hits".into(),
        (subject.warm_cache.disk_hits + subject.warm_cache.memory_hits) as f64,
    );
    put(
        "runtime.plan_cache_misses".into(),
        subject.cold_cache.misses as f64,
    );
    put(
        "runtime.plan_searches".into(),
        subject.warm_cache.misses as f64,
    );
    put("runtime.first_run_ms".into(), per_cold("serve.first_reply"));
    let bytes: u64 = subject
        .tenants
        .iter()
        .filter_map(|t| std::fs::metadata(first.join(format!("{}.dnnfg", t.token))).ok())
        .map(|m| m.len())
        .sum();
    put("io.bytes".into(), bytes as f64);
    for (index, tenant) in subject.tenants.iter().enumerate() {
        let sorted = stats::sorted(
            traced
                .iter()
                .filter(|r| r.tenant == index)
                .map(|r| r.latency_ms())
                .collect(),
        );
        let p50 = stats::percentile(&sorted, 0.5);
        let token = tenant.token;
        put(format!("serve.direct_batched_ms.{token}"), direct_ms[index]);
        put(format!("serve.latency_p50_ms.{token}"), p50);
        put(
            format!("serve.latency_p99_ms.{token}"),
            stats::tail(&sorted).1,
        );
        // Queue wait + batch window + reply: what serving adds to the run.
        put(format!("serve.overhead_ms.{token}"), p50 - direct_ms[index]);
    }
    let total = |f: fn(&dnnf_serve::ModelStats) -> u64| {
        server_stats.models.iter().map(f).sum::<u64>() as f64
    };
    let batches = total(|m| m.batches);
    put("serve.batches".into(), batches);
    put(
        "serve.mean_coalesced".into(),
        total(|m| m.coalesced_requests) / batches.max(1.0),
    );
    put(
        "serve.max_coalesced".into(),
        server_stats
            .models
            .iter()
            .map(|m| m.max_coalesced)
            .max()
            .unwrap_or(0) as f64,
    );
    put("serve.rejected".into(), total(|m| m.rejected));
    put("serve.failed".into(), total(|m| m.failed));
    put(
        "serve.generator_late_ms".into(),
        stats::median(
            &traced
                .iter()
                .map(|r| ms_between(r.due, r.submitted))
                .collect::<Vec<_>>(),
        ),
    );
    put(
        "trace.cold_start_covered_share".into(),
        tracer.covered_share("cold_start"),
    );
    put("trace.overhead_share".into(), overhead);
    // A new coalesced row count respecializes the tenant's plan: time that
    // for row counts no request of this run has produced.
    let mut respecialize = Vec::new();
    for model in &direct {
        for batch in 9..13 {
            let start = Instant::now();
            model.instance_for_batch(batch).map_err(|e| e.to_string())?;
            respecialize.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    put(
        "core.instance_for_batch_ms".into(),
        stats::median(&respecialize),
    );
    measure::tail_layers(&mut layers, traced.iter().map(|r| r.latency_ms()).collect());

    let probe_list: Vec<Probe> = subject
        .tenants
        .iter()
        .zip(&direct)
        .map(|(tenant, model)| Probe {
            token: tenant.token,
            model,
            source: &tenant.graph,
            inputs: &tenant.templates[0].inputs,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_depends_on_the_seed_alone() {
        let a = poisson_schedule(11, 500.0, 2.0);
        assert_eq!(a, poisson_schedule(11, 500.0, 2.0));
        assert_ne!(a, poisson_schedule(12, 500.0, 2.0));
        // Ascending, inside the window, and about rate × seconds long.
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.last().unwrap().as_secs_f64() < 2.0);
        assert!((800..1200).contains(&a.len()), "{} arrivals", a.len());
    }
}
