//! Differential property tests for the fused-block execution engine.
//!
//! Random element-wise/broadcast DAGs (unary chains, broadcasting binaries,
//! `Where` selects and inference-form `BatchNormalization`) are executed
//! through the compiled engine — both under the DNNFusion plan and under the
//! unfused singleton plan — and every element must match the
//! reference-kernel interpreter within 1e-5 (non-finite elements must be
//! non-finite on both paths). This pins the scalar tapes, the broadcast
//! stride walking and the anchor dispatch to the reference semantics. Every
//! DNNFusion plan here comes from `CompilerOptions::default()`, so graph
//! rewriting runs under the same oracle.
//!
//! A second generator builds **anchored** DAGs — a random Conv / MatMul /
//! Gemm / pooling anchor with a fused element-wise epilogue — and runs them
//! at `num_threads ∈ {1, 2, 8}` with the parallel work gate disabled, so the
//! threaded anchor kernels and parallel tape sweeps are exercised on every
//! case: each configuration must match the reference within 1e-5 and all
//! thread counts must agree **bit-for-bit** (the determinism invariant of
//! the ownership-split partitioning). Each thread count additionally re-runs
//! with `force_scalar` — every lane-blocked (SIMD) anchor microkernel
//! disabled — and must reproduce the SIMD run's bytes exactly: SIMD lanes
//! own whole output elements, so vectorization must never change a bit.
//! Tapes run the same strip loops in every mode, so for them this
//! comparison checks nothing; the reference comparisons are their
//! independent check.
//!
//! A third generator builds element-wise DAGs whose rows are long: the
//! innermost extent reaches past two tape strips, and every weight
//! broadcasts on the middle axis, so rows stay rows instead of coalescing
//! into one. Those run at tolerance 0 against the reference under SIMD,
//! pinned SSE, scalar and three threads: this, not the SIMD-vs-scalar
//! comparison, is what guards the tapes' strip, coalescing and
//! row-uniform code.

use std::collections::HashMap;

use dnnf_core::{Compiler, CompilerOptions, Ecg, FusionPlan};
use dnnf_graph::{Graph, ValueId};
use dnnf_ops::{Attrs, OpKind};
use dnnf_runtime::{ExecOptions, Executor};
use dnnf_simdev::DeviceSpec;
use dnnf_tensor::{Shape, Tensor};
use proptest::prelude::*;

/// Unary operators that stay finite on bounded inputs.
const UNARY_OPS: &[OpKind] = &[
    OpKind::Relu,
    OpKind::Sigmoid,
    OpKind::Tanh,
    OpKind::Abs,
    OpKind::Neg,
    OpKind::Square,
    OpKind::Exp,
    OpKind::Erf,
    OpKind::Gelu,
    OpKind::HardSwish,
    OpKind::HardSigmoid,
    OpKind::Softplus,
    OpKind::Silu,
    OpKind::Mish,
    OpKind::Sin,
    OpKind::Cos,
    OpKind::Floor,
    OpKind::Ceil,
    OpKind::Round,
    OpKind::LeakyRelu,
    OpKind::Clip,
    OpKind::Identity,
];

/// Binary operators exercised by the random DAGs.
const BINARY_OPS: &[OpKind] = &[
    OpKind::Add,
    OpKind::Sub,
    OpKind::Mul,
    OpKind::Min,
    OpKind::Max,
    OpKind::PRelu,
    OpKind::Greater,
];

/// Builds a random element-wise/broadcast DAG. Every structural choice is
/// drawn from `rng`, so one seed reproduces one graph exactly.
fn random_dag(rng: &mut TestRng) -> Graph {
    let rank = 2 + rng.below(3) as usize; // 2..=4 so BatchNormalization applies
    let dims: Vec<usize> = (0..rank).map(|_| 1 + rng.below(4) as usize).collect();
    let base = Shape::new(dims);
    let mut g = Graph::new("proptest-dag");
    let x = g.add_input("x", base.clone());
    let mut values: Vec<(ValueId, Shape)> = vec![(x, base)];
    let op_count = 3 + rng.below(10) as usize;
    for i in 0..op_count {
        let (src, src_shape) = values[rng.below(values.len() as u64) as usize].clone();
        let choice = rng.below(10);
        let out = if choice < 4 {
            // Unary operator, occasionally with non-default attributes.
            let op = UNARY_OPS[rng.below(UNARY_OPS.len() as u64) as usize];
            let attrs = match op {
                OpKind::LeakyRelu => Attrs::new().with_float("alpha", 0.125),
                OpKind::Clip => Attrs::new()
                    .with_float("min", -0.75)
                    .with_float("max", 0.75),
                _ => Attrs::new(),
            };
            g.add_op(op, attrs, &[src], format!("u{i}")).unwrap()[0]
        } else if choice < 8 {
            // Binary operator against a broadcast-shaped weight or a
            // same-shaped earlier value.
            let op = BINARY_OPS[rng.below(BINARY_OPS.len() as u64) as usize];
            let rhs = if rng.below(2) == 0 {
                let squashed: Vec<usize> = src_shape
                    .dims()
                    .iter()
                    .map(|&d| if rng.below(2) == 0 { 1 } else { d })
                    .collect();
                g.add_weight(format!("w{i}"), Shape::new(squashed))
            } else {
                values
                    .iter()
                    .rev()
                    .find(|(_, s)| s == &src_shape)
                    .map(|(v, _)| *v)
                    .unwrap_or(src)
            };
            g.add_op(op, Attrs::new(), &[src, rhs], format!("b{i}"))
                .unwrap()[0]
        } else if choice == 8 {
            // Where(cond, src, other) with a broadcast condition.
            let cond_dims: Vec<usize> = src_shape
                .dims()
                .iter()
                .map(|&d| if rng.below(2) == 0 { 1 } else { d })
                .collect();
            let cond = g.add_weight(format!("c{i}"), Shape::new(cond_dims));
            let other = g.add_weight(format!("o{i}"), src_shape.clone());
            g.add_op(
                OpKind::Where,
                Attrs::new(),
                &[cond, src, other],
                format!("w{i}"),
            )
            .unwrap()[0]
        } else {
            // Inference-form BatchNormalization over the channel axis.
            let channels = src_shape.dim(1);
            let c = Shape::new(vec![channels]);
            let scale = g.add_weight(format!("{i}.bn.scale"), c.clone());
            let bias = g.add_weight(format!("{i}.bn.bias"), c.clone());
            let mean = g.add_weight(format!("{i}.bn.mean"), c.clone());
            let var = g.add_weight(format!("{i}.bn.var"), c);
            g.add_op(
                OpKind::BatchNormalization,
                Attrs::new().with_float("epsilon", 1e-5),
                &[src, scale, bias, mean, var],
                format!("{i}.bn"),
            )
            .unwrap()[0]
        };
        let shape = g.value(out).shape.clone();
        values.push((out, shape));
    }
    // Mark the final value plus one random earlier value as outputs, so
    // tapes must materialize mid-segment escapes too.
    let (last, _) = *values.last().unwrap();
    g.mark_output(last);
    let (mid, _) = values[1 + rng.below((values.len() - 1) as u64) as usize];
    g.mark_output(mid);
    g
}

/// Appends `count` random element-wise operators (unary chains, broadcast
/// binaries, inference-form `BatchNormalization`) after `src`, returning the
/// final value. Mirrors the epilogues fusion attaches to anchors.
fn random_epilogue(g: &mut Graph, rng: &mut TestRng, src: ValueId, count: usize) -> ValueId {
    let mut value = src;
    for i in 0..count {
        let shape = g.value(value).shape.clone();
        let choice = rng.below(8);
        value = if choice < 4 {
            let op = UNARY_OPS[rng.below(UNARY_OPS.len() as u64) as usize];
            let attrs = match op {
                OpKind::LeakyRelu => Attrs::new().with_float("alpha", 0.125),
                OpKind::Clip => Attrs::new()
                    .with_float("min", -0.75)
                    .with_float("max", 0.75),
                _ => Attrs::new(),
            };
            g.add_op(op, attrs, &[value], format!("ep.u{i}")).unwrap()[0]
        } else if choice < 7 || shape.rank() < 2 {
            let op = BINARY_OPS[rng.below(BINARY_OPS.len() as u64) as usize];
            let squashed: Vec<usize> = shape
                .dims()
                .iter()
                .map(|&d| if rng.below(2) == 0 { 1 } else { d })
                .collect();
            let rhs = g.add_weight(format!("ep.w{i}"), Shape::new(squashed));
            g.add_op(op, Attrs::new(), &[value, rhs], format!("ep.b{i}"))
                .unwrap()[0]
        } else {
            let c = Shape::new(vec![shape.dim(1)]);
            let scale = g.add_weight(format!("ep.{i}.bn.scale"), c.clone());
            let bias = g.add_weight(format!("ep.{i}.bn.bias"), c.clone());
            let mean = g.add_weight(format!("ep.{i}.bn.mean"), c.clone());
            let var = g.add_weight(format!("ep.{i}.bn.var"), c);
            g.add_op(
                OpKind::BatchNormalization,
                Attrs::new().with_float("epsilon", 1e-5),
                &[value, scale, bias, mean, var],
                format!("ep.{i}.bn"),
            )
            .unwrap()[0]
        };
    }
    value
}

/// Builds a random anchored DAG: one Conv (spatial rank 1/2/3) / MatMul /
/// Gemm / MaxPool / AveragePool (rank 2/3) / GlobalAveragePool anchor
/// (random shapes and attributes), a fused element-wise epilogue, and — for
/// rank-4 results — sometimes a pooling tail with its own epilogue. The
/// anchor output escapes as a graph output too, so blocks must materialize
/// a mid-kernel value.
fn random_anchor_dag(rng: &mut TestRng) -> Graph {
    let mut g = Graph::new("proptest-anchor-dag");
    let anchor = match rng.below(6) {
        0 => {
            // Conv at spatial rank 1, 2 or 3 with random padding/stride and
            // optional bias: rank 2 runs the specialized 2-D microkernel,
            // ranks 1 and 3 the generic odometer path — all lane-blocked.
            // The innermost input extent reaches 14 so interior output rows
            // cross the 8-lane SIMD bundle width, not just the 4-lane
            // remainder pass.
            let rank = 1 + rng.below(3) as usize;
            let n = 1 + rng.below(2) as usize;
            let cin = 1 + rng.below(3) as usize;
            let w = 3 + rng.below(12) as usize;
            let mut x_dims = vec![n, cin];
            match rank {
                1 => x_dims.push(w),
                2 => {
                    let h = 3 + rng.below(6) as usize;
                    x_dims.extend([h, w]);
                }
                _ => {
                    let d = 3 + rng.below(3) as usize;
                    let h = 3 + rng.below(4) as usize;
                    x_dims.extend([d, h, w]);
                }
            }
            let cout = 1 + rng.below(4) as usize;
            let k_cap = x_dims[2..].iter().copied().min().unwrap_or(1).min(3);
            let k = 1 + rng.below(k_cap as u64) as usize;
            let x = g.add_input("x", Shape::new(x_dims));
            let mut w_dims = vec![cout, cin];
            w_dims.extend(std::iter::repeat_n(k, rank));
            let wt = g.add_weight("conv.w", Shape::new(w_dims));
            let p = rng.below(2) as i64;
            let s = 1 + rng.below(2) as i64;
            let attrs = Attrs::new()
                .with_ints("pads", vec![p; 2 * rank])
                .with_ints("strides", vec![s; rank]);
            let inputs: Vec<ValueId> = if rng.below(2) == 0 {
                let b = g.add_weight("conv.b", Shape::new(vec![cout]));
                vec![x, wt, b]
            } else {
                vec![x, wt]
            };
            g.add_op(OpKind::Conv, attrs, &inputs, "conv").unwrap()[0]
        }
        1 => {
            // MatMul in one of three batching forms; the column count
            // reaches 12 so the lane-blocked kernel's 8/4/scalar splits all
            // occur across seeds.
            let m = 1 + rng.below(5) as usize;
            let k = 1 + rng.below(5) as usize;
            let n = 1 + rng.below(12) as usize;
            let (a_shape, b_shape) = match rng.below(3) {
                0 => (vec![m, k], vec![k, n]),
                1 => (vec![2, m, k], vec![k, n]),
                _ => (vec![2, 1, m, k], vec![2, k, n]),
            };
            let a = g.add_input("a", Shape::new(a_shape));
            let b = g.add_weight("mm.b", Shape::new(b_shape));
            g.add_op(OpKind::MatMul, Attrs::new(), &[a, b], "matmul")
                .unwrap()[0]
        }
        2 => {
            // Gemm with random transpose flags, scaling and bias form; wide
            // column counts reach the 8-lane path (and its gather loads
            // when transB is set).
            let m = 1 + rng.below(5) as usize;
            let k = 1 + rng.below(5) as usize;
            let n = 1 + rng.below(12) as usize;
            let trans_a = rng.below(2) == 1;
            let trans_b = rng.below(2) == 1;
            let a_shape = if trans_a { vec![k, m] } else { vec![m, k] };
            let b_shape = if trans_b { vec![n, k] } else { vec![k, n] };
            let a = g.add_input("a", Shape::new(a_shape));
            let b = g.add_weight("gemm.b", Shape::new(b_shape));
            let attrs = Attrs::new()
                .with_int("transA", i64::from(trans_a))
                .with_int("transB", i64::from(trans_b))
                .with_float("alpha", [1.0, 0.5, 2.0][rng.below(3) as usize])
                .with_float("beta", [1.0, 0.5, 2.0][rng.below(3) as usize]);
            let mut inputs = vec![a, b];
            let bias_shape = match rng.below(5) {
                0 => None,
                1 => Some(vec![n]),
                2 => Some(vec![1, n]),
                3 => Some(vec![m, 1]),
                _ => Some(vec![m, n]),
            };
            if let Some(dims) = bias_shape {
                inputs.push(g.add_weight("gemm.c", Shape::new(dims)));
            }
            g.add_op(OpKind::Gemm, attrs, &inputs, "gemm").unwrap()[0]
        }
        choice => {
            // Pooling at spatial rank 2 or 3 (rank 3 runs the generic
            // odometer path): the innermost extent reaches 12 so interior
            // rows cross the 8-lane bundle width, and GlobalAveragePool's
            // channel count reaches 8 so its lane-blocked (n, c) groups
            // fill whole bundles.
            let rank = 2 + rng.below(2) as usize;
            let n = 1 + rng.below(2) as usize;
            let c = 1 + rng.below(8) as usize;
            let w = 3 + rng.below(10) as usize;
            // Every spatial extent stays >= 3 (the largest kernel), so no
            // output dimension can collapse to zero.
            let mut x_dims = vec![n, c];
            if rank == 3 {
                x_dims.push(3 + rng.below(3) as usize);
            }
            x_dims.push(3 + rng.below(4) as usize);
            x_dims.push(w);
            let x = g.add_input("x", Shape::new(x_dims));
            if choice == 5 {
                g.add_op(OpKind::GlobalAveragePool, Attrs::new(), &[x], "gap")
                    .unwrap()[0]
            } else {
                let op = if choice == 3 {
                    OpKind::MaxPool
                } else {
                    OpKind::AveragePool
                };
                let k = 2 + rng.below(2) as i64;
                let s = 1 + rng.below(2) as i64;
                let p = rng.below(2) as i64;
                let mut attrs = Attrs::new()
                    .with_ints("kernel_shape", vec![k; rank])
                    .with_ints("strides", vec![s; rank])
                    .with_ints("pads", vec![p; 2 * rank]);
                if op == OpKind::AveragePool && rng.below(2) == 0 {
                    attrs = attrs.with_int("count_include_pad", 1);
                }
                g.add_op(op, attrs, &[x], "pool").unwrap()[0]
            }
        }
    };

    let epilogue_len = 1 + rng.below(4) as usize;
    let mut last = random_epilogue(&mut g, rng, anchor, epilogue_len);
    // Sometimes chain a second anchor: a pooling tail over a spatial result.
    let shape = g.value(last).shape.clone();
    if shape.rank() == 4 && shape.dim(2) >= 2 && shape.dim(3) >= 2 && rng.below(3) == 0 {
        let tail = g
            .add_op(
                OpKind::MaxPool,
                Attrs::new()
                    .with_ints("kernel_shape", vec![2, 2])
                    .with_ints("strides", vec![2, 2]),
                &[last],
                "tail.pool",
            )
            .unwrap()[0];
        let tail_len = rng.below(3) as usize;
        last = random_epilogue(&mut g, rng, tail, tail_len);
    }
    g.mark_output(last);
    if last != anchor {
        // The anchor escapes mid-kernel: the block must materialize it.
        g.mark_output(anchor);
    }
    g
}

fn inputs_for(graph: &Graph, seed: u64) -> HashMap<String, Tensor> {
    graph
        .inputs()
        .iter()
        .map(|&id| {
            let v = graph.value(id);
            (v.name.clone(), Tensor::random(v.shape.clone(), seed))
        })
        .collect()
}

/// Element-wise agreement: within `tol` when finite; non-finite elements
/// must agree in class too (+inf == +inf, -inf == -inf, NaN with NaN).
fn assert_agrees(reference: &Tensor, engine: &Tensor, tol: f32, context: &str) {
    assert_eq!(
        reference.shape(),
        engine.shape(),
        "{context}: shape mismatch"
    );
    if let Some(i) = reference.first_disagreement(engine, tol) {
        panic!(
            "{context}: element {i} reference={} engine={}",
            reference.data()[i],
            engine.data()[i]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fused_engine_matches_reference_interpreter_on_random_dags(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let graph = random_dag(&mut rng);
        let inputs = inputs_for(&graph, seed ^ 0xD1FF);
        let executor = Executor::new(DeviceSpec::snapdragon_865_cpu());

        // The oracle: every operator through its reference kernel.
        let ecg = Ecg::new(graph.clone());
        let singletons = FusionPlan::singletons(&ecg);
        let reference = executor.run_plan_reference(&graph, &singletons, &inputs).unwrap();

        // Engine under the unfused plan: single-node tapes and anchors.
        let engine_singleton = executor.run_plan(&graph, &singletons, &inputs).unwrap();
        for (r, e) in reference.outputs.iter().zip(&engine_singleton.outputs) {
            assert_agrees(r, e, 1e-5, &format!("singleton engine (seed {seed})"));
        }

        // Engine under the DNNFusion plan: multi-op tapes, after graph
        // rewriting — the default compile, as a user would run it.
        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&graph).unwrap();
        let fused = executor.run_compiled(&compiled, &inputs).unwrap();
        for (r, e) in reference.outputs.iter().zip(&fused.outputs) {
            assert_agrees(r, e, 1e-5, &format!("fused engine (seed {seed})"));
        }

        // Fusion must never launch more kernels than the singleton plan. The
        // compiled plan indexes the rewritten graph, so it is costed there.
        let launches = |graph: &Graph, plan: &FusionPlan| {
            executor.estimate_plan(graph, plan).0.kernel_launches
        };
        prop_assert!(launches(compiled.graph(), &compiled.plan) <= launches(&graph, &singletons));
    }

    #[test]
    fn fused_engine_handles_plans_from_explicit_groupings(seed in any::<u64>()) {
        // Exercise FusionPlan::from_blocks-style arbitrary (but valid)
        // groupings: pairwise-grouped topological neighbours.
        let mut rng = TestRng::new(seed);
        let graph = random_dag(&mut rng);
        let inputs = inputs_for(&graph, seed ^ 0xBEEF);
        let executor = Executor::new(DeviceSpec::snapdragon_865_cpu());
        let ecg = Ecg::new(graph.clone());
        let order = graph.topo_order();
        let groups: Vec<Vec<_>> = order.chunks(2).map(<[_]>::to_vec).collect();
        let Ok(plan) = FusionPlan::from_blocks(&ecg, groups) else {
            // Chunked grouping can be cyclic for some DAGs; skip those.
            return;
        };
        let reference = executor.run_plan_reference(&graph, &plan, &inputs).unwrap();
        let engine = executor.run_plan(&graph, &plan, &inputs).unwrap();
        for (r, e) in reference.outputs.iter().zip(&engine.outputs) {
            assert_agrees(r, e, 1e-5, &format!("grouped engine (seed {seed})"));
        }
        // One simulated launch per block, however the nodes are grouped.
        let (counters, _) = executor.estimate_plan(&graph, &plan);
        prop_assert_eq!(counters.kernel_launches, plan.fused_layer_count() as u64);
    }
}

/// The tape evaluator's strip length (`STRIP` in `dnnf_core::exec`).
const STRIP: u64 = 64;

/// An element-wise DAG over `[outer, middle, inner]` with `inner` drawn from
/// `1..=2·STRIP+3`, so rows end before, at and past strip boundaries. Every
/// weight and `Where` condition broadcasts on the middle axis (which keeps
/// the loop from coalescing into one row) and `BatchNormalization`'s
/// channels are that axis, so the per-row uniform values vary by row.
fn random_strip_dag(rng: &mut TestRng) -> Graph {
    let dims = [
        1 + rng.below(3) as usize,
        1 + rng.below(3) as usize,
        1 + rng.below(2 * STRIP + 3) as usize,
    ];
    let mut g = Graph::new("proptest-strips");
    let x = g.add_input("x", Shape::new(dims.to_vec()));
    let mut values = vec![x];
    for i in 0..2 + rng.below(8) {
        let src = values[rng.below(values.len() as u64) as usize];
        let squashed = |rng: &mut TestRng| {
            let mut keep = |d: usize| if rng.below(2) == 0 { 1 } else { d };
            Shape::new(vec![keep(dims[0]), 1, keep(dims[2])])
        };
        let out = match rng.below(5) {
            0 => {
                let op = UNARY_OPS[rng.below(UNARY_OPS.len() as u64) as usize];
                g.add_op(op, Attrs::new(), &[src], format!("u{i}"))
            }
            1 | 2 => {
                let ops = [BINARY_OPS, &[OpKind::Div]].concat();
                let op = ops[rng.below(ops.len() as u64) as usize];
                let w = g.add_weight(format!("w{i}"), squashed(rng));
                let operands = if rng.below(2) == 0 {
                    [src, w]
                } else {
                    [w, src]
                };
                g.add_op(op, Attrs::new(), &operands, format!("b{i}"))
            }
            3 => {
                let cond = g.add_weight(format!("c{i}"), squashed(rng));
                let other = g.add_weight(format!("o{i}"), squashed(rng));
                g.add_op(
                    OpKind::Where,
                    Attrs::new(),
                    &[cond, src, other],
                    format!("w{i}"),
                )
            }
            _ => {
                let c = Shape::new(vec![dims[1]]);
                let params = ["scale", "bias", "mean", "var"]
                    .map(|p| g.add_weight(format!("{i}.bn.{p}"), c.clone()));
                g.add_op(
                    OpKind::BatchNormalization,
                    Attrs::new().with_float("epsilon", 1e-5),
                    &[&[src][..], &params].concat(),
                    format!("{i}.bn"),
                )
            }
        };
        values.push(out.unwrap()[0]);
    }
    g.mark_output(*values.last().unwrap());
    g.mark_output(values[1 + rng.below((values.len() - 1) as u64) as usize]);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn long_row_tapes_match_the_reference_exactly_in_every_mode(seed in any::<u64>()) {
        let graph = random_strip_dag(&mut TestRng::new(seed));
        let inputs = inputs_for(&graph, seed ^ 0x57B1);
        let base = Executor::new(DeviceSpec::snapdragon_865_cpu());
        let singletons = FusionPlan::singletons(&Ecg::new(graph.clone()));
        let reference = base
            .clone()
            .with_options(ExecOptions::serial())
            .run_plan_reference(&graph, &singletons, &inputs)
            .unwrap();
        // No rewriting: a rewrite may reassociate, and this compares at 0.
        let compiled = Compiler::new(CompilerOptions::without_rewriting()).compile(&graph).unwrap();
        let serial = ExecOptions::serial();
        for (mode, options) in [
            ("simd", serial),
            ("sse", ExecOptions { force_sse: true, ..serial }),
            ("scalar", serial.scalar_kernels()),
            ("3 threads", ExecOptions { num_threads: 3, min_parallel_work: 0, ..serial }),
        ] {
            let fused = base.clone().with_options(options).run_compiled(&compiled, &inputs).unwrap();
            for (r, e) in reference.outputs.iter().zip(&fused.outputs) {
                assert_agrees(r, e, 0.0, &format!("{mode} (seed {seed})"));
            }
        }
    }
}

/// The anchored generator must keep producing every anchor kind over a
/// short seed range — otherwise the threaded-kernel coverage of the
/// differential suite silently narrows. It must also produce anchors whose
/// output rows are at least 8 elements wide for each lane-blocked kernel
/// (for `GlobalAveragePool`, at least 8 output elements), so the SIMD
/// differential genuinely exercises the 8-lane path (narrow outputs only
/// cover the 4-lane and scalar remainders) — and, now that the generic-rank
/// paths are lane-blocked too, spatial ranks 1 and 3 for Conv and rank 3
/// for the windowed pools.
#[test]
fn anchor_generator_covers_every_anchor_kind_lane_width_and_spatial_rank() {
    let mut seen: std::collections::BTreeMap<OpKind, u64> = std::collections::BTreeMap::new();
    let mut wide: std::collections::BTreeMap<OpKind, u64> = std::collections::BTreeMap::new();
    let mut conv_ranks: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
    let mut pool_ranks: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
    for seed in 0..64u64 {
        let mut rng = TestRng::new(seed);
        let graph = random_anchor_dag(&mut rng);
        let anchor = graph.node(graph.topo_order()[0]);
        seen.entry(anchor.op).or_insert(seed);
        let out_shape = &graph.value(anchor.outputs[0]).shape;
        let wide_enough = if anchor.op == OpKind::GlobalAveragePool {
            out_shape.numel() >= 8
        } else {
            out_shape.dim(out_shape.rank() - 1) >= 8
        };
        if wide_enough {
            wide.entry(anchor.op).or_insert(seed);
        }
        match anchor.op {
            OpKind::Conv => {
                conv_ranks.entry(out_shape.rank() - 2).or_insert(seed);
            }
            OpKind::MaxPool | OpKind::AveragePool => {
                pool_ranks.entry(out_shape.rank() - 2).or_insert(seed);
            }
            _ => {}
        }
    }
    for op in [
        OpKind::Conv,
        OpKind::MatMul,
        OpKind::Gemm,
        OpKind::MaxPool,
        OpKind::AveragePool,
        OpKind::GlobalAveragePool,
    ] {
        assert!(
            seen.contains_key(&op),
            "no seed in 0..64 produced a {op} anchor: {seen:?}"
        );
    }
    for op in [
        OpKind::Conv,
        OpKind::MatMul,
        OpKind::Gemm,
        OpKind::MaxPool,
        OpKind::AveragePool,
        OpKind::GlobalAveragePool,
    ] {
        assert!(
            wide.contains_key(&op),
            "no seed in 0..64 produced a {op} anchor with >= 8-wide output rows: {wide:?}"
        );
    }
    for rank in [1usize, 2, 3] {
        assert!(
            conv_ranks.contains_key(&rank),
            "no seed in 0..64 produced a rank-{rank} Conv anchor: {conv_ranks:?}"
        );
    }
    for rank in [2usize, 3] {
        assert!(
            pool_ranks.contains_key(&rank),
            "no seed in 0..64 produced a rank-{rank} windowed pool anchor: {pool_ranks:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn threaded_anchor_dags_match_reference_and_are_bit_deterministic(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let graph = random_anchor_dag(&mut rng);
        let inputs = inputs_for(&graph, seed ^ 0xA5C3);
        let base =
            Executor::new(DeviceSpec::snapdragon_865_cpu());

        // The oracle: the serial reference interpreter.
        let ecg = Ecg::new(graph.clone());
        let singletons = FusionPlan::singletons(&ecg);
        let reference = base
            .clone()
            .with_options(ExecOptions::serial())
            .run_plan_reference(&graph, &singletons, &inputs)
            .unwrap();

        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&graph).unwrap();

        let mut fused_per_config: Vec<Vec<Tensor>> = Vec::new();
        for threads in [1usize, 2, 8] {
            // min_parallel_work = 0 disables the work-size gate, so the
            // parallel partitioning really runs on these small fixtures.
            let options =
                ExecOptions { num_threads: threads, min_parallel_work: 0, ..ExecOptions::serial() };
            let executor = base.clone().with_options(options);
            let fused = executor.run_compiled(&compiled, &inputs).unwrap();
            for (r, e) in reference.outputs.iter().zip(&fused.outputs) {
                assert_agrees(r, e, 1e-5, &format!("anchored fused (seed {seed}, {threads} thr)"));
            }
            let singleton = executor.run_plan(&graph, &singletons, &inputs).unwrap();
            for (r, e) in reference.outputs.iter().zip(&singleton.outputs) {
                assert_agrees(r, e, 1e-5, &format!("anchored singleton (seed {seed}, {threads} thr)"));
            }
            // SIMD-vs-scalar differential: disabling every lane-blocked
            // path must reproduce the SIMD run bit for bit.
            let scalar = base
                .clone()
                .with_options(options.scalar_kernels())
                .run_compiled(&compiled, &inputs)
                .unwrap();
            for (v, s) in fused.outputs.iter().zip(&scalar.outputs) {
                prop_assert_eq!(
                    v.first_disagreement(s, 0.0),
                    None,
                    "force_scalar changed output bits (seed {}, {} threads)",
                    seed,
                    threads
                );
            }
            fused_per_config.push(fused.outputs);
        }

        // Determinism: the thread count must not change a single bit.
        for (config, outputs) in fused_per_config.iter().enumerate().skip(1) {
            for (a, b) in fused_per_config[0].iter().zip(outputs) {
                prop_assert_eq!(
                    a.first_disagreement(b, 0.0),
                    None,
                    "thread count changed output bits (seed {}, config {})",
                    seed,
                    config
                );
            }
        }
    }
}

/// Builds an attention-shaped MatMul chain — the dataflow of one decoder
/// attention head: scores = q·kᵀ, scaling, a decomposed softmax
/// (`ReduceMax`/`Sub`/`Exp`/`ReduceSum`/`Div`) and the context MatMul.
/// Random head counts, lengths and widths; half the seeds splice a "past"
/// segment onto the keys/values with `Concat` first (the KV-cache step
/// form), and half escape the attention probabilities mid-chain.
fn random_attention_chain(rng: &mut TestRng) -> Graph {
    let heads = 1 + rng.below(3) as usize;
    let q_len = 1 + rng.below(4) as usize;
    let kv_len = 1 + rng.below(6) as usize;
    let head_dim = 1 + rng.below(8) as usize;
    let mut g = Graph::new("proptest-attention");
    let q = g.add_input("q", Shape::new(vec![heads, q_len, head_dim]));
    let mut k = g.add_input("k", Shape::new(vec![heads, kv_len, head_dim]));
    let mut v = g.add_input("v", Shape::new(vec![heads, kv_len, head_dim]));
    if rng.below(2) == 0 {
        let past_len = 1 + rng.below(6) as usize;
        let past_shape = Shape::new(vec![heads, past_len, head_dim]);
        let pk = g.add_input("past_k", past_shape.clone());
        let pv = g.add_input("past_v", past_shape);
        let cat = Attrs::new().with_int("axis", 1);
        k = g
            .add_op(OpKind::Concat, cat.clone(), &[pk, k], "k.cat")
            .unwrap()[0];
        v = g.add_op(OpKind::Concat, cat, &[pv, v], "v.cat").unwrap()[0];
    }
    let kt = g
        .add_op(
            OpKind::Transpose,
            Attrs::new().with_ints("perm", vec![0, 2, 1]),
            &[k],
            "kt",
        )
        .unwrap()[0];
    let scores = g
        .add_op(OpKind::MatMul, Attrs::new(), &[q, kt], "scores")
        .unwrap()[0];
    let scale = g.add_weight("scale", Shape::new(vec![1]));
    let scaled = g
        .add_op(OpKind::Mul, Attrs::new(), &[scores, scale], "scaled")
        .unwrap()[0];
    let reduce = Attrs::new()
        .with_ints("axes", vec![-1])
        .with_int("keepdims", 1);
    let max = g
        .add_op(OpKind::ReduceMax, reduce.clone(), &[scaled], "softmax.max")
        .unwrap()[0];
    let shifted = g
        .add_op(OpKind::Sub, Attrs::new(), &[scaled, max], "softmax.shift")
        .unwrap()[0];
    let exp = g
        .add_op(OpKind::Exp, Attrs::new(), &[shifted], "softmax.exp")
        .unwrap()[0];
    let sum = g
        .add_op(OpKind::ReduceSum, reduce, &[exp], "softmax.sum")
        .unwrap()[0];
    let probs = g
        .add_op(OpKind::Div, Attrs::new(), &[exp, sum], "softmax.div")
        .unwrap()[0];
    let ctx = g
        .add_op(OpKind::MatMul, Attrs::new(), &[probs, v], "ctx")
        .unwrap()[0];
    g.mark_output(ctx);
    if rng.below(2) == 0 {
        g.mark_output(probs);
    }
    g
}

/// Runs the full differential for one attention-chain seed: reference
/// oracle, then the fused engine at `num_threads ∈ {1, 2, 8}` with and
/// without `force_scalar` — within 1e-5 of the reference and bit-identical
/// across every configuration.
fn check_attention_seed(seed: u64) {
    let mut rng = TestRng::new(seed);
    let graph = random_attention_chain(&mut rng);
    let inputs = inputs_for(&graph, seed ^ 0xAC4E);
    let base = Executor::new(DeviceSpec::snapdragon_865_cpu());

    let ecg = Ecg::new(graph.clone());
    let singletons = FusionPlan::singletons(&ecg);
    let reference = base
        .clone()
        .with_options(ExecOptions::serial())
        .run_plan_reference(&graph, &singletons, &inputs)
        .unwrap();

    let mut compiler = Compiler::new(CompilerOptions::default());
    let compiled = compiler.compile(&graph).unwrap();

    let mut per_config: Vec<Vec<Tensor>> = Vec::new();
    for threads in [1usize, 2, 8] {
        for force_scalar in [false, true] {
            let options = ExecOptions {
                num_threads: threads,
                force_scalar,
                min_parallel_work: 0,
                ..ExecOptions::default()
            };
            let run = base
                .clone()
                .with_options(options)
                .run_compiled(&compiled, &inputs)
                .unwrap();
            for (r, e) in reference.outputs.iter().zip(&run.outputs) {
                assert_agrees(
                    r,
                    e,
                    1e-5,
                    &format!("attention (seed {seed}, {threads} thr, scalar={force_scalar})"),
                );
            }
            per_config.push(run.outputs);
        }
    }
    for (config, outputs) in per_config.iter().enumerate().skip(1) {
        for (a, b) in per_config[0].iter().zip(outputs) {
            assert_eq!(
                a.first_disagreement(b, 0.0),
                None,
                "attention outputs not bit-identical (seed {seed}, config {config})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn attention_chains_match_reference_and_are_bit_deterministic(seed in any::<u64>()) {
        check_attention_seed(seed);
    }
}

/// Pinned regression seeds for the attention-chain differential: one per
/// structural family the generator covers, replayed verbatim on every run
/// so a generator change can never silently retire a once-failing shape.
#[test]
fn pinned_attention_regression_seeds_still_pass() {
    for &seed in PINNED_ATTENTION_SEEDS {
        check_attention_seed(seed);
    }
}

/// Seeds covering each structural family (see the coverage test below).
const PINNED_ATTENTION_SEEDS: &[u64] = &[0, 1, 2, 3, 5, 8, 13, 21];

/// The attention generator must keep producing every structural family
/// over a short seed range: the KV-cache (`Concat`-spliced) and plain
/// forms, single-query (decode-step-shaped) and multi-query chains, the
/// mid-chain probability escape, and head widths crossing the 8-lane SIMD
/// bundle.
#[test]
fn attention_generator_covers_kv_splice_decode_shape_and_lane_widths() {
    let mut spliced = None;
    let mut plain = None;
    let mut single_query = None;
    let mut multi_query = None;
    let mut probs_escape = None;
    let mut wide_head = None;
    for seed in 0..64u64 {
        let mut rng = TestRng::new(seed);
        let graph = random_attention_chain(&mut rng);
        let has_splice = graph.inputs().len() == 5;
        *if has_splice { &mut spliced } else { &mut plain } = Some(seed);
        let q_shape = &graph.value(graph.inputs()[0]).shape;
        *if q_shape.dim(1) == 1 {
            &mut single_query
        } else {
            &mut multi_query
        } = Some(seed);
        if graph.outputs().len() == 2 {
            probs_escape.get_or_insert(seed);
        }
        if q_shape.dim(2) >= 8 {
            wide_head.get_or_insert(seed);
        }
    }
    for (name, seen) in [
        ("KV-spliced (Concat) form", spliced),
        ("plain (no past) form", plain),
        ("single-query (decode-step) shape", single_query),
        ("multi-query shape", multi_query),
        ("mid-chain probability escape", probs_escape),
        (">= 8-wide head dimension", wide_head),
    ] {
        assert!(seen.is_some(), "no seed in 0..64 produced the {name}");
    }
}
