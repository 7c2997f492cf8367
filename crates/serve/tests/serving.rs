//! End-to-end tests for the serving layer: queue drain, bit-identity,
//! mixed-batch coalescing, backpressure, and PlanCache races under
//! eviction pressure.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dnnf_core::{CompiledModel, Compiler, CompilerOptions};
use dnnf_graph::{Graph, SymbolicAxes};
use dnnf_ops::{Attrs, OpKind};
use dnnf_runtime::{Executor, PlanCache};
use dnnf_serve::{ServeConfig, ServeError, Server};
use dnnf_simdev::DeviceSpec;
use dnnf_tensor::{Shape, Tensor};

/// A tiny conv + bias + relu model with `channels` output channels; the
/// channel count doubles as a knob to mint distinct fingerprints.
fn conv_graph(channels: usize) -> Graph {
    let mut g = Graph::new(format!("conv{channels}"));
    let x = g.add_input("x", Shape::new(vec![1, 3, 8, 8]));
    let w = g.add_weight_with_data(
        "w",
        Tensor::random(Shape::new(vec![channels, 3, 3, 3]), 11 + channels as u64),
    );
    let b = g.add_weight_with_data(
        "b",
        Tensor::random(Shape::new(vec![1, channels, 1, 1]), 23 + channels as u64),
    );
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

fn compile(graph: &Graph) -> Arc<CompiledModel> {
    let mut compiler = Compiler::new(CompilerOptions::default());
    Arc::new(compiler.compile(graph).expect("compile"))
}

fn request(rows: usize, seed: u64) -> HashMap<String, Tensor> {
    [(
        "x".to_string(),
        Tensor::random(Shape::new(vec![rows, 3, 8, 8]), seed),
    )]
    .into()
}

fn direct_outputs(model: &Arc<CompiledModel>, inputs: &HashMap<String, Tensor>) -> Vec<Tensor> {
    Executor::new(DeviceSpec::snapdragon_865_cpu())
        .run(model, inputs)
        .expect("direct run")
        .outputs
}

#[test]
fn empty_queue_drains_and_shuts_down_cleanly() {
    let server = Server::builder(ServeConfig::default())
        .model("conv", compile(&conv_graph(4)))
        .expect("register")
        .start();
    assert_eq!(server.model_names(), vec!["conv".to_string()]);
    let stats = server.stats();
    assert_eq!(stats.model("conv").expect("stats").pending, 0);
    server.shutdown(); // nothing queued: must not hang or panic
}

#[test]
fn single_request_is_bit_identical_to_direct_execution() {
    let model = compile(&conv_graph(4));
    let server = Server::builder(ServeConfig {
        workers: 1,
        batch_window: Duration::ZERO, // pass-through
        ..ServeConfig::default()
    })
    .model("conv", Arc::clone(&model))
    .expect("register")
    .start();

    let inputs = request(1, 42);
    let expected = direct_outputs(&model, &inputs);
    let response = server
        .submit("conv", inputs)
        .expect("submit")
        .wait()
        .expect("response");
    server.shutdown();

    assert_eq!(response.outputs.len(), expected.len());
    for (got, want) in response.outputs.iter().zip(&expected) {
        assert_eq!(got.shape(), want.shape());
        // Tolerance 0: the served result must be the same bits.
        assert_eq!(got.data(), want.data());
    }
}

#[test]
fn mixed_batch_sizes_coalesce_through_one_polymorphic_plan() {
    let cache = PlanCache::new();
    let graph = conv_graph(4);
    let mut compiler = Compiler::new(CompilerOptions::default());
    let (model, _) = cache
        .compile_polymorphic(&mut compiler, &graph, SymbolicAxes::BATCH)
        .expect("compile via cache");

    let server = Server::builder(ServeConfig {
        workers: 1,
        max_batch: 16,
        // Generous window so all three submits land in one dispatch.
        batch_window: Duration::from_millis(400),
        ..ServeConfig::default()
    })
    .model("conv", Arc::clone(&model))
    .expect("register")
    .start();

    let cases: Vec<(usize, u64)> = vec![(1, 1), (2, 2), (3, 3)];
    let tickets: Vec<_> = cases
        .iter()
        .map(|&(rows, seed)| {
            let inputs = request(rows, seed);
            (
                inputs.clone(),
                server.submit("conv", inputs).expect("submit"),
            )
        })
        .collect();
    let responses: Vec<_> = tickets
        .into_iter()
        .map(|(inputs, t)| (inputs, t.wait().expect("response")))
        .collect();

    for ((inputs, response), &(rows, _)) in responses.iter().zip(&cases) {
        let expected = direct_outputs(&model, inputs);
        assert_eq!(response.outputs.len(), expected.len());
        for (got, want) in response.outputs.iter().zip(&expected) {
            assert_eq!(got.shape().dim(0), rows);
            assert_eq!(got.shape(), want.shape());
            assert_eq!(got.data(), want.data()); // bit-identical despite coalescing
        }
    }

    let stats = server.stats();
    let m = stats.model("conv").expect("stats").clone();
    server.shutdown();
    assert_eq!(m.completed, 3);
    // All three rode one dispatch (1 + 2 + 3 = 6 rows ≤ max_batch).
    assert_eq!(m.batches, 1, "expected one coalesced dispatch, got {m:?}");
    assert_eq!(m.max_coalesced, 3);

    // The polymorphic plan means one PlanCache entry served every batch size.
    let cache_stats = cache.stats();
    assert_eq!(cache_stats.models, 1);
}

#[test]
fn backpressure_rejects_submits_beyond_queue_capacity() {
    let server = Server::builder(ServeConfig {
        workers: 0, // nothing drains: the queue fills deterministically
        queue_capacity: 2,
        ..ServeConfig::default()
    })
    .model("conv", compile(&conv_graph(4)))
    .expect("register")
    .start();

    let t1 = server.submit("conv", request(1, 1)).expect("first admit");
    let t2 = server.submit("conv", request(1, 2)).expect("second admit");
    let err = server
        .submit("conv", request(1, 3))
        .expect_err("third must bounce");
    assert_eq!(
        err,
        ServeError::QueueFull {
            model: "conv".into(),
            capacity: 2
        }
    );

    let stats = server.stats();
    let m = stats.model("conv").expect("stats").clone();
    assert_eq!(m.submitted, 2);
    assert_eq!(m.rejected, 1);
    assert_eq!(m.pending, 2);

    // With no workers the pending requests are answered on shutdown.
    server.shutdown();
    assert_eq!(t1.wait(), Err(ServeError::ShuttingDown));
    assert_eq!(t2.wait(), Err(ServeError::ShuttingDown));
}

#[test]
fn submit_validates_model_names_and_shapes() {
    let server = Server::builder(ServeConfig {
        workers: 0,
        max_batch: 4,
        ..ServeConfig::default()
    })
    .model("conv", compile(&conv_graph(4)))
    .expect("register")
    .start();

    assert!(matches!(
        server.submit("nope", request(1, 1)),
        Err(ServeError::UnknownModel { .. })
    ));
    assert!(matches!(
        server.submit("conv", HashMap::new()),
        Err(ServeError::BadRequest { .. })
    ));
    let wrong_tail: HashMap<String, Tensor> = [(
        "x".to_string(),
        Tensor::random(Shape::new(vec![1, 3, 4, 4]), 1),
    )]
    .into();
    assert!(matches!(
        server.submit("conv", wrong_tail),
        Err(ServeError::BadRequest { .. })
    ));
    assert!(matches!(
        server.submit("conv", request(5, 1)), // above max_batch
        Err(ServeError::BadRequest { .. })
    ));
    server.shutdown();
}

#[test]
fn two_tenants_are_served_independently() {
    let small = compile(&conv_graph(2));
    let large = compile(&conv_graph(6));
    let server = Server::builder(ServeConfig {
        workers: 2,
        batch_window: Duration::from_millis(1),
        ..ServeConfig::default()
    })
    .model("small", Arc::clone(&small))
    .expect("register small")
    .model("large", Arc::clone(&large))
    .expect("register large")
    .start();

    let mut tickets = Vec::new();
    for seed in 0..4u64 {
        let inputs = request(1, 100 + seed);
        tickets.push((
            "small",
            inputs.clone(),
            server.submit("small", inputs).unwrap(),
        ));
        let inputs = request(2, 200 + seed);
        tickets.push((
            "large",
            inputs.clone(),
            server.submit("large", inputs).unwrap(),
        ));
    }
    for (name, inputs, ticket) in tickets {
        let response = ticket.wait().expect("response");
        let model = if name == "small" { &small } else { &large };
        let expected = direct_outputs(model, &inputs);
        for (got, want) in response.outputs.iter().zip(&expected) {
            assert_eq!(got.shape(), want.shape());
            assert_eq!(got.data(), want.data());
        }
    }
    server.shutdown();
}

/// Regression test for the lost-wakeup after dispatch: when a worker
/// extracts a batch while *another* tenant's queue is also dispatchable, it
/// must hand the condvar on so the second worker drains that tenant
/// concurrently instead of the first worker serving both serially (or, in
/// the worst interleaving, the second tenant stalling until its batch
/// window expires). With a multi-second window, every full batch must
/// dispatch on the row threshold alone — none may ride out the timeout.
#[test]
fn two_workers_drain_two_ready_tenants_without_window_timeouts() {
    let window = Duration::from_secs(5);
    let server = Server::builder(ServeConfig {
        workers: 2,
        max_batch: 4,
        batch_window: window,
        ..ServeConfig::default()
    })
    .model("a", compile(&conv_graph(2)))
    .expect("register a")
    .model("b", compile(&conv_graph(4)))
    .expect("register b")
    .start();

    let start = Instant::now();
    let rounds = 3u64;
    for round in 0..rounds {
        // Interleave single-row submits so both queues cross the row
        // threshold back to back while the workers are already moving.
        let mut tickets = Vec::new();
        for i in 0..4u64 {
            tickets.push(server.submit("a", request(1, round * 100 + i)).unwrap());
            tickets.push(
                server
                    .submit("b", request(1, round * 100 + 50 + i))
                    .unwrap(),
            );
        }
        for ticket in tickets {
            ticket.wait().expect("response");
        }
    }
    let elapsed = start.elapsed();
    let stats = server.stats();
    let a = stats.model("a").expect("stats a").clone();
    let b = stats.model("b").expect("stats b").clone();
    server.shutdown();

    // If either tenant's ready batch had been left to its window deadline,
    // a round would take ≥ 5 s; dispatched on the row threshold, the whole
    // test takes milliseconds.
    assert!(
        elapsed < window / 2,
        "ready tenants waited out the batch window: {elapsed:?}"
    );
    for (name, m) in [("a", &a), ("b", &b)] {
        assert_eq!(m.completed, rounds * 4, "tenant {name}: {m:?}");
        assert_eq!(
            m.batches, rounds,
            "tenant {name} must dispatch one full batch per round: {m:?}"
        );
        assert_eq!(m.max_coalesced, 4, "tenant {name}: {m:?}");
    }
}

/// Regression test for scan-order starvation: a tenant with a standing
/// backlog of full batches must not monopolize the workers. The rotating
/// scan start guarantees the light tenant's ready batch is picked up after
/// at most one dispatch per worker, so its waits stay bounded by the batch
/// window rather than the length of the heavy tenant's burst.
#[test]
fn a_saturated_tenant_cannot_starve_the_other_tenants_dispatches() {
    let window = Duration::from_millis(400);
    let server = Server::builder(ServeConfig {
        workers: 2,
        max_batch: 4,
        batch_window: window,
        queue_capacity: 64,
        ..ServeConfig::default()
    })
    .model("heavy", compile(&conv_graph(4)))
    .expect("register heavy")
    .model("light", compile(&conv_graph(2)))
    .expect("register light")
    .start();

    let stop = AtomicBool::new(false);
    let mut waits: Vec<Duration> = Vec::new();
    std::thread::scope(|scope| {
        let server = &server;
        let stop = &stop;
        scope.spawn(move || {
            // Keep the heavy queue permanently dispatchable: every request
            // is a full batch, and backpressure only slows the firehose.
            // The wall-clock bound keeps a scheduler regression from
            // turning this test into a deadlock (the light tenant would
            // never finish, so `stop` would never be set).
            let begin = Instant::now();
            let mut seed = 0u64;
            while !stop.load(Ordering::Relaxed) && begin.elapsed() < Duration::from_secs(10) {
                match server.submit("heavy", request(4, seed)) {
                    Ok(_) => seed += 1,
                    Err(ServeError::QueueFull { .. }) => {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(e) => panic!("heavy submit failed: {e:?}"),
                }
            }
        });

        // Let the saturator build a standing backlog before probing.
        while server.stats().model("heavy").expect("stats").pending < 16 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for i in 0..20u64 {
            let begin = Instant::now();
            let ticket = server
                .submit("light", request(4, 1000 + i))
                .expect("light submit");
            ticket.wait().expect("light response");
            waits.push(begin.elapsed());
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);
    });
    let heavy = server.stats().model("heavy").expect("stats").clone();
    server.shutdown();

    // The heavy tenant really was being served the whole time — this is
    // contention, not an idle server.
    assert!(heavy.batches >= 20, "heavy tenant barely ran: {heavy:?}");
    waits.sort();
    let p99 = waits[waits.len() - 1]; // 20 samples: P99 is the max
    assert!(
        p99 <= window,
        "light tenant starved under heavy load: P99 wait {p99:?} > window {window:?} ({waits:?})"
    );
}

#[test]
fn concurrent_clients_race_one_plan_cache_under_eviction_pressure() {
    // Capacity 1 forces every distinct model compile to evict the previous
    // entry, so concurrent clients constantly race memory-hit / disk-hit /
    // miss paths on one shared cache.
    let cache = Arc::new(PlanCache::with_capacity(1));
    let channel_counts = [2usize, 4, 6];

    let handles: Vec<_> = (0..4u64)
        .map(|tid| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                for round in 0..3u64 {
                    for &channels in &channel_counts {
                        let graph = conv_graph(channels);
                        let mut compiler = Compiler::new(CompilerOptions::default());
                        let (model, _) = cache
                            .compile_polymorphic(&mut compiler, &graph, SymbolicAxes::BATCH)
                            .expect("cached compile");
                        let inputs = request(1, tid * 1000 + round * 10 + channels as u64);
                        let report = Executor::new(DeviceSpec::snapdragon_865_cpu())
                            .run(&model, &inputs)
                            .expect("run");
                        assert_eq!(report.outputs[0].shape().dims(), &[1, channels, 8, 8]);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let stats = cache.stats();
    assert_eq!(stats.capacity, 1);
    assert!(
        stats.models <= 1,
        "capped cache held {} entries",
        stats.models
    );
    assert!(stats.evictions > 0, "expected eviction pressure: {stats:?}");
    // Evicted entries still warm-start from their retained plan seeds.
    assert!(
        stats.disk_hits > 0,
        "expected disk-tier warm starts: {stats:?}"
    );
}

#[test]
fn tenant_loaded_from_dnnfg_file_matches_in_memory_tenant_bit_for_bit() {
    let graph = conv_graph(4);
    let dir = std::env::temp_dir().join("dnnf-serve-dnnfg-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("conv4.dnnfg");
    dnnf_io::save(&graph, &path).expect("export model");

    let server = Server::builder(ServeConfig {
        workers: 1,
        batch_window: Duration::ZERO, // pass-through
        ..ServeConfig::default()
    })
    .model("memory", compile(&graph))
    .expect("register in-memory tenant")
    .model_from_dnnfg("file", &path)
    .expect("register file-loaded tenant")
    .start();

    let inputs = request(2, 77);
    let from_memory = server
        .submit("memory", inputs.clone())
        .expect("submit memory")
        .wait()
        .expect("memory response");
    let from_file = server
        .submit("file", inputs)
        .expect("submit file")
        .wait()
        .expect("file response");
    server.shutdown();
    std::fs::remove_file(&path).ok();

    assert_eq!(from_file.outputs.len(), from_memory.outputs.len());
    for (got, want) in from_file.outputs.iter().zip(&from_memory.outputs) {
        assert_eq!(got.shape(), want.shape());
        // Tolerance 0: the file round-trip must not perturb a single bit.
        assert_eq!(got.data(), want.data());
    }
}

#[test]
fn model_from_dnnfg_surfaces_load_errors_without_panicking() {
    let missing = match Server::builder(ServeConfig::default())
        .model_from_dnnfg("ghost", "/nonexistent/ghost.dnnfg")
    {
        Ok(_) => panic!("missing file must be rejected"),
        Err(e) => e,
    };
    match &missing {
        ServeError::ModelLoad { path, .. } => assert!(path.contains("ghost.dnnfg")),
        other => panic!("expected ModelLoad, got {other:?}"),
    }
    assert!(missing.to_string().contains("cannot load model"));

    // A corrupt file fails strict import and is rejected the same way.
    let dir = std::env::temp_dir().join("dnnf-serve-dnnfg-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("corrupt.dnnfg");
    let mut text = dnnf_io::to_text(&conv_graph(4));
    text.truncate(text.len() / 2);
    std::fs::write(&path, text).expect("write corrupt file");
    let corrupt = match Server::builder(ServeConfig::default()).model_from_dnnfg("corrupt", &path) {
        Ok(_) => panic!("corrupt file must be rejected"),
        Err(e) => e,
    };
    std::fs::remove_file(&path).ok();
    assert!(matches!(corrupt, ServeError::ModelLoad { .. }));
}
