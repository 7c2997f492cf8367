//! Determinism and thread-safety suite for the multi-threaded engine.
//!
//! The parallel kernels split work by **output ownership** — every output
//! element is computed by exactly one thread, in the serial kernel's
//! accumulation order, and every SIMD lane owns one whole output element —
//! so neither the thread count nor the lane-blocked (SIMD) paths may change
//! a single bit of any result. This suite pins that invariant end to end:
//!
//! * every one of the 15 model builders, executed twice at each
//!   `num_threads ∈ {1, 2, 8}`, produces bit-identical outputs
//!   ([`Tensor::first_bit_difference`]),
//! * at each of those thread counts, a `force_scalar` run (all lane-blocked
//!   kernel and tape paths disabled) reproduces the same bytes — the
//!   SIMD-vs-scalar differential at tolerance 0,
//! * every model's kernels produce the same bytes in the 256-bit AVX
//!   instance the lane kernels pick where the CPU has AVX and in the SSE
//!   instance `force_sse` pins, and
//! * one `CompiledModel` shared across concurrently-inferring threads
//!   produces the single-threaded result on every thread (guarding the
//!   `Arc`-backed slot storage and the model's cached engine).
//!
//! The parallel work gate is disabled (`min_parallel_work = 0`) so the
//! partitioning genuinely runs on the tiny-scale models.

use std::collections::HashMap;

use dnnfusion::core::{CompiledModel, Compiler, CompilerOptions};
use dnnfusion::graph::Graph;
use dnnfusion::models::{ModelKind, ModelScale};
use dnnfusion::runtime::{ExecOptions, Executor};
use dnnfusion::simdev::DeviceSpec;
use dnnfusion::tensor::Tensor;

fn inputs_for(graph: &Graph, seed: u64) -> HashMap<String, Tensor> {
    graph
        .inputs()
        .iter()
        .map(|&id| {
            let v = graph.value(id);
            // Keep NLP token ids at zero so Gather indices stay valid.
            let tensor = if v.name.contains("token") {
                Tensor::zeros(v.shape.clone())
            } else {
                Tensor::random(v.shape.clone(), seed)
            };
            (v.name.clone(), tensor)
        })
        .collect()
}

fn executor_with_threads(threads: usize) -> Executor {
    Executor::new(DeviceSpec::snapdragon_865_cpu()).with_options(ExecOptions {
        num_threads: threads,
        min_parallel_work: 0,
        ..ExecOptions::serial()
    })
}

fn assert_bit_identical(kind: ModelKind, context: &str, baseline: &[Tensor], run: &[Tensor]) {
    assert_eq!(
        baseline.len(),
        run.len(),
        "{kind}: output arity changed ({context})"
    );
    for (i, (a, b)) in baseline.iter().zip(run).enumerate() {
        assert_eq!(
            a.first_bit_difference(b),
            None,
            "{kind}: output {i} not bit-identical ({context})"
        );
    }
}

#[test]
fn every_model_is_bit_deterministic_across_runs_and_thread_counts() {
    for &kind in ModelKind::all() {
        let graph = kind.build(ModelScale::tiny()).unwrap();
        let inputs = inputs_for(&graph, 7);
        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&graph).unwrap();

        let baseline = executor_with_threads(1)
            .run_compiled(&compiled, &inputs)
            .unwrap()
            .outputs;
        for threads in [1usize, 2, 8] {
            let executor = executor_with_threads(threads);
            for run in 0..2 {
                let outputs = executor.run_compiled(&compiled, &inputs).unwrap().outputs;
                let context = format!("{threads} threads, repeat {run}");
                assert_bit_identical(kind, &context, &baseline, &outputs);
            }
            // The SIMD-vs-scalar differential: with every lane-blocked path
            // disabled, the engine must still produce the same bytes.
            let scalar = executor
                .clone()
                .with_options(executor.options().scalar_kernels())
                .run_compiled(&compiled, &inputs)
                .unwrap()
                .outputs;
            let context = format!("{threads} threads, force_scalar");
            assert_bit_identical(kind, &context, &baseline, &scalar);
        }
    }
}

#[test]
fn every_model_is_bit_identical_under_the_avx_and_sse_instances() {
    // `FusedKernel::run` over every model's tiny kernels, once in the
    // instance the host picks (AVX where the CPU has it) and once with the
    // SSE instance pinned, serially and at two threads. On a host without
    // AVX both runs are the SSE instance and the test still pins them.
    for &kind in ModelKind::all() {
        let graph = kind.build(ModelScale::tiny()).unwrap();
        let inputs = inputs_for(&graph, 11);
        let compiled = Compiler::new(CompilerOptions::default())
            .compile(&graph)
            .unwrap();
        let baseline = executor_with_threads(1)
            .run_compiled(&compiled, &inputs)
            .unwrap()
            .outputs;
        for threads in [1usize, 2] {
            let executor = executor_with_threads(threads);
            let sse = executor.clone().with_options(ExecOptions {
                force_sse: true,
                ..*executor.options()
            });
            let outputs = sse.run_compiled(&compiled, &inputs).unwrap().outputs;
            let context = format!("{threads} threads, force_sse");
            assert_bit_identical(kind, &context, &baseline, &outputs);
        }
    }
}

#[test]
fn concurrent_inference_on_a_shared_compiled_model_matches_single_threaded() {
    // One compiled model (with its cached engine), many concurrent
    // inferences — each itself multi-threaded — over distinct inputs.
    // Every thread must reproduce exactly what the serial engine computes
    // for its own input.
    let graph = ModelKind::Vgg16.build(ModelScale::tiny()).unwrap();
    let mut compiler = Compiler::new(CompilerOptions::default());
    let compiled: CompiledModel = compiler.compile(&graph).unwrap();

    let input_sets: Vec<HashMap<String, Tensor>> =
        (0..4).map(|i| inputs_for(&graph, 100 + i)).collect();
    let serial = executor_with_threads(1);
    let expected: Vec<Vec<Tensor>> = input_sets
        .iter()
        .map(|inputs| serial.run_compiled(&compiled, inputs).unwrap().outputs)
        .collect();

    let concurrent = executor_with_threads(2);
    std::thread::scope(|scope| {
        for (inputs, expected) in input_sets.iter().zip(&expected) {
            let concurrent = &concurrent;
            let compiled = &compiled;
            scope.spawn(move || {
                for _ in 0..2 {
                    let outputs = concurrent.run_compiled(compiled, inputs).unwrap().outputs;
                    assert_bit_identical(
                        ModelKind::Vgg16,
                        "concurrent shared-model inference",
                        expected,
                        &outputs,
                    );
                }
            });
        }
    });
}
