//! The request queue + worker pool server.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use dnnf_core::{CompiledModel, Compiler, CompilerOptions};
use dnnf_graph::SymbolicAxes;
use dnnf_runtime::{Executor, PlanCache};
use dnnf_tensor::{Shape, Tensor};

use crate::{ServeConfig, ServeError};

/// One completed inference, as handed back through a [`Ticket`].
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Output tensors for **this request's rows only**, in the model's
    /// output order — batching with other requests never changes them
    /// (bit-identical, see the crate docs).
    pub outputs: Vec<Tensor>,
    /// How many requests the dispatch that served this one coalesced
    /// (1 = the request ran alone).
    pub coalesced: usize,
    /// Total batch rows in that dispatch (≥ this request's rows).
    pub batch_rows: usize,
}

/// A pending response: block on [`Ticket::wait`] to receive it.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// Blocks until the server answers this request.
    ///
    /// # Errors
    ///
    /// Returns the request's [`ServeError`]; if the server was torn down
    /// before answering, [`ServeError::ShuttingDown`].
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }
}

/// Counters for one hosted model (see [`Server::stats`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModelStats {
    /// Model name.
    pub model: String,
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests rejected by backpressure ([`ServeError::QueueFull`]).
    pub rejected: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an engine error.
    pub failed: u64,
    /// Dispatches run (each executes one coalesced batch).
    pub batches: u64,
    /// Sum of requests over all dispatches (`coalesced_requests / batches`
    /// is the mean coalescing factor).
    pub coalesced_requests: u64,
    /// Largest number of requests one dispatch coalesced.
    pub max_coalesced: u64,
    /// Requests currently queued.
    pub pending: usize,
}

/// Snapshot of every hosted model's counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Per-model counters, in registration order.
    pub models: Vec<ModelStats>,
}

impl ServerStats {
    /// The counters for one model, by name.
    #[must_use]
    pub fn model(&self, name: &str) -> Option<&ModelStats> {
        self.models.iter().find(|m| m.model == name)
    }
}

/// One queued request.
struct Pending {
    rows: usize,
    /// Input tensors in graph-input order.
    inputs: Vec<Tensor>,
    reply: mpsc::Sender<Result<Response, ServeError>>,
    enqueued: Instant,
}

/// A hosted model and its counters.
struct Registered {
    name: String,
    model: Arc<CompiledModel>,
    /// Graph input names, in graph order.
    input_names: Vec<String>,
    /// Per input, the dims after the leading batch dimension.
    input_tails: Vec<Vec<usize>>,
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    coalesced_requests: AtomicU64,
    max_coalesced: AtomicU64,
}

struct State {
    /// One queue per registered model (same index as `Shared::models`).
    queues: Vec<VecDeque<Pending>>,
    shutdown: bool,
}

struct Shared {
    config: ServeConfig,
    models: Vec<Registered>,
    index: BTreeMap<String, usize>,
    state: Mutex<State>,
    cvar: Condvar,
}

/// Registers models before the worker pool starts (queues and the worker
/// count are fixed for the server's lifetime — no locking surprises later).
pub struct ServerBuilder {
    config: ServeConfig,
    models: Vec<Registered>,
    index: BTreeMap<String, usize>,
}

impl ServerBuilder {
    /// Hosts `model` under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] when the name is already taken,
    /// the model has no inputs, or an input is rank-0 (no batch dimension
    /// to coalesce along).
    pub fn model(
        mut self,
        name: impl Into<String>,
        model: Arc<CompiledModel>,
    ) -> Result<Self, ServeError> {
        let name = name.into();
        if self.index.contains_key(&name) {
            return Err(ServeError::BadRequest {
                reason: format!("model `{name}` is already registered"),
            });
        }
        let graph = model.graph();
        if graph.inputs().is_empty() {
            return Err(ServeError::BadRequest {
                reason: format!("model `{name}` has no inputs to serve"),
            });
        }
        let mut input_names = Vec::new();
        let mut input_tails = Vec::new();
        for &id in graph.inputs() {
            let value = graph.value(id);
            if value.shape.rank() == 0 {
                return Err(ServeError::BadRequest {
                    reason: format!(
                        "model `{name}` input `{}` is rank-0 and has no batch dimension",
                        value.name
                    ),
                });
            }
            input_names.push(value.name.clone());
            input_tails.push(value.shape.dims()[1..].to_vec());
        }
        self.index.insert(name.clone(), self.models.len());
        self.models.push(Registered {
            name,
            model,
            input_names,
            input_tails,
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            coalesced_requests: AtomicU64::new(0),
            max_coalesced: AtomicU64::new(0),
        });
        Ok(self)
    }

    /// Hosts the graph stored in the `.dnnfg` file at `path` under `name`.
    ///
    /// The file is parsed with the strict importer of `dnnf-io` (see
    /// `docs/graph-format.md`), compiled through the process-wide
    /// [`PlanCache`] under a **batch-polymorphic** key
    /// ([`PlanCache::compile_polymorphic`]), and registered exactly as
    /// [`ServerBuilder::model`] would — so a tenant loaded from disk serves
    /// bit-identical responses to one built and compiled in memory.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelLoad`] when the file cannot be read,
    /// fails strict import, or fails to compile; and the same
    /// [`ServeError::BadRequest`] cases as [`ServerBuilder::model`] (name
    /// taken, no inputs, rank-0 input).
    pub fn model_from_dnnfg(
        self,
        name: impl Into<String>,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, ServeError> {
        let path = path.as_ref();
        let load_error = |message: String| ServeError::ModelLoad {
            path: path.display().to_string(),
            message,
        };
        let graph = dnnf_io::load(path).map_err(|e| load_error(e.to_string()))?;
        let mut compiler = Compiler::new(CompilerOptions::default());
        let (model, _) = PlanCache::global()
            .compile_polymorphic(&mut compiler, &graph, SymbolicAxes::BATCH)
            .map_err(|e| load_error(format!("compile failed: {e}")))?;
        self.model(name, model)
    }

    /// Starts the worker pool and returns the running server.
    #[must_use]
    pub fn start(self) -> Server {
        let queues = self.models.iter().map(|_| VecDeque::new()).collect();
        let shared = Arc::new(Shared {
            config: self.config,
            models: self.models,
            index: self.index,
            state: Mutex::new(State {
                queues,
                shutdown: false,
            }),
            cvar: Condvar::new(),
        });
        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dnnf-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { shared, workers }
    }
}

/// A running multi-tenant inference server (see the crate docs).
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts describing a server; chain [`ServerBuilder::model`] calls and
    /// finish with [`ServerBuilder::start`].
    #[must_use]
    pub fn builder(config: ServeConfig) -> ServerBuilder {
        ServerBuilder {
            config: config.normalized(),
            models: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// Submits an inference request: `inputs` maps each of the model's
    /// input names to a tensor of shape `[rows, tail…]`, where `tail` is
    /// the input's shape beyond the batch dimension and `rows` (1 ≤ rows ≤
    /// [`ServeConfig::max_batch`]) is the same for every input. Entries for
    /// names the model does not declare are ignored.
    ///
    /// Admission is checked here — the call never blocks on a full queue.
    /// On success the request is queued and the returned [`Ticket`] resolves
    /// once a worker has dispatched (and possibly coalesced) it.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`], [`ServeError::BadRequest`] (missing
    /// input, wrong shape, inconsistent or oversized batch),
    /// [`ServeError::QueueFull`] (backpressure) or
    /// [`ServeError::ShuttingDown`].
    pub fn submit(
        &self,
        model: &str,
        inputs: HashMap<String, Tensor>,
    ) -> Result<Ticket, ServeError> {
        let &idx = self
            .shared
            .index
            .get(model)
            .ok_or_else(|| ServeError::UnknownModel {
                model: model.to_string(),
            })?;
        let registered = &self.shared.models[idx];

        let mut rows: Option<usize> = None;
        let mut ordered = Vec::with_capacity(registered.input_names.len());
        for (name, tail) in registered.input_names.iter().zip(&registered.input_tails) {
            let tensor = inputs.get(name).ok_or_else(|| ServeError::BadRequest {
                reason: format!("missing input `{name}`"),
            })?;
            let dims = tensor.shape().dims();
            if dims.is_empty() || &dims[1..] != tail.as_slice() {
                return Err(ServeError::BadRequest {
                    reason: format!(
                        "input `{name}` must be shaped [rows, {tail:?}…], got {dims:?}"
                    ),
                });
            }
            match rows {
                None => rows = Some(dims[0]),
                Some(r) if r != dims[0] => {
                    return Err(ServeError::BadRequest {
                        reason: format!(
                            "inputs disagree on batch size: `{name}` has {} rows, expected {r}",
                            dims[0]
                        ),
                    });
                }
                Some(_) => {}
            }
            ordered.push(tensor.clone());
        }
        let rows = rows.expect("models always have at least one input");
        if rows == 0 {
            return Err(ServeError::BadRequest {
                reason: "request carries zero batch rows".into(),
            });
        }
        if rows > self.shared.config.max_batch {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "request carries {rows} rows, above max_batch {}",
                    self.shared.config.max_batch
                ),
            });
        }

        let (tx, rx) = mpsc::channel();
        {
            let mut state = self.shared.state.lock().expect("serve state lock");
            if state.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if state.queues[idx].len() >= self.shared.config.queue_capacity {
                registered.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::QueueFull {
                    model: registered.name.clone(),
                    capacity: self.shared.config.queue_capacity,
                });
            }
            state.queues[idx].push_back(Pending {
                rows,
                inputs: ordered,
                reply: tx,
                enqueued: Instant::now(),
            });
        }
        registered.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.cvar.notify_one();
        Ok(Ticket { rx })
    }

    /// Snapshot of every model's counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let state = self.shared.state.lock().expect("serve state lock");
        ServerStats {
            models: self
                .shared
                .models
                .iter()
                .enumerate()
                .map(|(i, m)| ModelStats {
                    model: m.name.clone(),
                    submitted: m.submitted.load(Ordering::Relaxed),
                    rejected: m.rejected.load(Ordering::Relaxed),
                    completed: m.completed.load(Ordering::Relaxed),
                    failed: m.failed.load(Ordering::Relaxed),
                    batches: m.batches.load(Ordering::Relaxed),
                    coalesced_requests: m.coalesced_requests.load(Ordering::Relaxed),
                    max_coalesced: m.max_coalesced.load(Ordering::Relaxed),
                    pending: state.queues[i].len(),
                })
                .collect(),
        }
    }

    /// The names of the hosted models, in registration order.
    #[must_use]
    pub fn model_names(&self) -> Vec<String> {
        self.shared.models.iter().map(|m| m.name.clone()).collect()
    }

    /// Gracefully shuts down: already-queued requests are drained and
    /// answered (workers skip the batching window once shutdown begins),
    /// new submits fail with [`ServeError::ShuttingDown`], and the worker
    /// threads are joined. With `workers = 0` the queue cannot drain;
    /// whatever is still pending is answered with
    /// [`ServeError::ShuttingDown`].
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("serve state lock");
            state.shutdown = true;
        }
        self.shared.cvar.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("serve worker panicked");
        }
        // With no workers (or after they exited) anything left gets an
        // explicit shutdown answer rather than a dropped channel.
        let mut state = self.shared.state.lock().expect("serve state lock");
        for queue in &mut state.queues {
            for pending in queue.drain(..) {
                let _ = pending.reply.send(Err(ServeError::ShuttingDown));
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.workers.is_empty() || !self.shared.state.lock().map_or(true, |s| s.shutdown) {
            self.shutdown_inner();
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("models", &self.shared.models.len())
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Pops a coalesced batch off one model's queue: requests from the front,
/// greedily, while the combined rows fit `max_batch` (always at least one —
/// admission guarantees any single request fits).
fn extract_batch(queue: &mut VecDeque<Pending>, max_batch: usize) -> Vec<Pending> {
    let mut batch = Vec::new();
    let mut rows = 0;
    while let Some(front) = queue.front() {
        if !batch.is_empty() && rows + front.rows > max_batch {
            break;
        }
        rows += front.rows;
        batch.push(queue.pop_front().expect("front exists"));
        if rows >= max_batch {
            break;
        }
    }
    batch
}

/// When queue `idx` may dispatch, judged at `now`: `None` while it is empty;
/// `now` once its waiting rows fill a batch or the server is draining for
/// shutdown; otherwise when its oldest request's batching window expires.
/// The queue is ready when this is not after `now`.
fn ready_at(state: &State, config: &ServeConfig, idx: usize, now: Instant) -> Option<Instant> {
    let queue = &state.queues[idx];
    let front = queue.front()?;
    let rows_waiting: usize = queue.iter().map(|p| p.rows).sum();
    if state.shutdown || rows_waiting >= config.max_batch {
        Some(now)
    } else {
        Some(front.enqueued + config.batch_window)
    }
}

fn worker_loop(shared: &Shared) {
    let executor = Executor::new(shared.config.device.clone()).with_options(shared.config.exec);
    let queue_count = shared.models.len();
    let mut state = shared.state.lock().expect("serve state lock");
    // Where the next readiness scan begins. Rotated to just past the last
    // dispatched model, so under sustained load every ready queue is served
    // in turn — a fixed low-to-high scan would let a saturated tenant 0
    // (always ready by row count) starve every later-registered tenant.
    let mut scan_start = 0usize;
    loop {
        let now = Instant::now();
        // Dispatch the first ready model; otherwise remember the earliest
        // deadline to sleep until.
        let mut dispatchable = None;
        let mut earliest_deadline: Option<Instant> = None;
        for k in 0..queue_count {
            let idx = (scan_start + k) % queue_count;
            let Some(deadline) = ready_at(&state, &shared.config, idx, now) else {
                continue;
            };
            if deadline <= now {
                dispatchable = Some(idx);
                break;
            }
            if earliest_deadline.is_none_or(|d| deadline < d) {
                earliest_deadline = Some(deadline);
            }
        }

        if let Some(idx) = dispatchable {
            scan_start = (idx + 1) % queue_count;
            let batch = extract_batch(&mut state.queues[idx], shared.config.max_batch);
            // `submit` only ever wakes one worker per request. If another
            // queue (or the remainder of this one) is already dispatchable,
            // hand the wakeup on before going off to execute — otherwise a
            // sleeping peer stays parked until its batch-window timeout and
            // ready tenants drain serially instead of concurrently.
            let ready = |i| ready_at(&state, &shared.config, i, now).is_some_and(|t| t <= now);
            if (0..queue_count).any(ready) {
                shared.cvar.notify_one();
            }
            drop(state);
            dispatch(&shared.models[idx], batch, &executor);
            state = shared.state.lock().expect("serve state lock");
        } else if let Some(deadline) = earliest_deadline {
            let timeout = deadline.saturating_duration_since(Instant::now());
            state = shared
                .cvar
                .wait_timeout(state, timeout)
                .expect("serve state lock")
                .0;
        } else if state.shutdown {
            return;
        } else {
            state = shared.cvar.wait(state).expect("serve state lock");
        }
    }
}

/// Executes one coalesced batch and fans the outputs back out, one
/// row-slice per request. Requests are concatenated along the batch
/// dimension (row-major tensors: a plain append) and split back the same
/// way, so each request's rows occupy a contiguous range.
fn dispatch(registered: &Registered, batch: Vec<Pending>, executor: &Executor) {
    if batch.is_empty() {
        return;
    }
    let total_rows: usize = batch.iter().map(|p| p.rows).sum();
    let coalesced = batch.len();
    registered.batches.fetch_add(1, Ordering::Relaxed);
    registered
        .coalesced_requests
        .fetch_add(coalesced as u64, Ordering::Relaxed);
    registered
        .max_coalesced
        .fetch_max(coalesced as u64, Ordering::Relaxed);

    let mut inputs = HashMap::with_capacity(registered.input_names.len());
    for (i, (name, tail)) in registered
        .input_names
        .iter()
        .zip(&registered.input_tails)
        .enumerate()
    {
        let tail_elems: usize = tail.iter().product::<usize>().max(1);
        let mut data = Vec::with_capacity(total_rows * tail_elems);
        for pending in &batch {
            data.extend_from_slice(pending.inputs[i].data());
        }
        let mut dims = Vec::with_capacity(tail.len() + 1);
        dims.push(total_rows);
        dims.extend_from_slice(tail);
        let tensor = Tensor::from_vec(Shape::new(dims), data)
            .expect("admission validated every request's input shape");
        // Shared into the engine, not copied a second time.
        inputs.insert(name.clone(), Arc::new(tensor));
    }

    // An engine error, or an output that cannot be split back into
    // per-request row ranges, fails every request of the batch.
    let separable = |t: &Tensor| t.shape().rank() > 0 && t.shape().dim(0) == total_rows;
    let report = executor
        .run(&registered.model, &inputs)
        .map_err(|e| e.to_string());
    let report = report.and_then(|report| {
        let Some(output) = report.outputs.iter().find(|t| !separable(t)) else {
            return Ok(report);
        };
        Err(format!(
            "model `{}` output of shape {} is not batch-separable",
            registered.name,
            output.shape()
        ))
    });
    let report = match report {
        Ok(report) => report,
        Err(message) => {
            registered
                .failed
                .fetch_add(coalesced as u64, Ordering::Relaxed);
            for pending in batch {
                let _ = pending.reply.send(Err(ServeError::Engine {
                    message: message.clone(),
                }));
            }
            return;
        }
    };

    let mut offset = 0usize;
    for pending in batch {
        let outputs: Vec<Tensor> = report
            .outputs
            .iter()
            .map(|t| {
                let per_row = t.shape().numel() / total_rows;
                let mut dims = t.shape().dims().to_vec();
                dims[0] = pending.rows;
                let slice = t.data()[offset * per_row..(offset + pending.rows) * per_row].to_vec();
                Tensor::from_vec(Shape::new(dims), slice)
                    .expect("row slice matches the per-request shape")
            })
            .collect();
        offset += pending.rows;
        registered.completed.fetch_add(1, Ordering::Relaxed);
        let _ = pending.reply.send(Ok(Response {
            outputs,
            coalesced,
            batch_rows: total_rows,
        }));
    }
}
