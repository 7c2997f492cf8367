//! Random-graph differential fuzzing of the fused execution engine.
//!
//! One seed deterministically generates one model (an element-wise /
//! broadcast DAG, an anchored Conv/MatMul/Gemm/pool DAG with a fused
//! epilogue, an attention-shaped MatMul chain, a chain of data-movement
//! operators and a reduction between element-wise ones, or a chain of
//! planted rewrite-rule motifs and near-misses), which is then
//! compiled without graph rewriting and executed through the fused engine at
//! `num_threads ∈ {1, 2, 8}` and again with every SIMD path disabled
//! (`force_scalar`). Every configuration must agree with the
//! reference-kernel interpreter within `1e-5` — and all configurations must
//! agree with each other **bit for bit** (the engine's ownership-split
//! determinism invariant). The same model compiled with the default options
//! (graph rewriting on) must agree with the reference within `1e-5` too;
//! rewrites reassociate float arithmetic, so that leg is not bit-exact. In
//! the planted-motif family, that compile must rewrite exactly the planted
//! motifs and leave the near-misses alone.
//!
//! The `random_model` binary drives this over a seed range; any failure
//! prints its seed, which replays the exact graph and inputs.

use std::collections::HashMap;
use std::fmt;

use dnnf_core::rewrite::{AppliedRewrite, RULES};
use dnnf_core::{Compiler, CompilerOptions, Ecg, FusionPlan};
use dnnf_graph::{Graph, NodeId, ValueId};
use dnnf_ops::{Attrs, OpKind};
use dnnf_runtime::{ExecOptions, Executor, MemoryPlan, WeightStore};
use dnnf_simdev::DeviceSpec;
use dnnf_tensor::{Shape, Tensor};
use rand::{rngs::StdRng, RngCore, SeedableRng};

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

fn below(rng: &mut StdRng, n: usize) -> usize {
    debug_assert!(n > 0);
    (rng.next_u64() % n as u64) as usize
}

fn pick(rng: &mut StdRng, ops: &[OpKind]) -> OpKind {
    ops[below(rng, ops.len())]
}

fn unary_attrs(op: OpKind) -> Attrs {
    match op {
        OpKind::LeakyRelu => Attrs::new().with_float("alpha", 0.125),
        OpKind::Clip => Attrs::new()
            .with_float("min", -0.75)
            .with_float("max", 0.75),
        _ => Attrs::new(),
    }
}

/// Appends a random element-wise operator after `src`.
fn random_elementwise(g: &mut Graph, rng: &mut StdRng, src: ValueId, tag: &str) -> ValueId {
    let shape = g.value(src).shape.clone();
    let choice = below(rng, 8);
    if choice < 4 {
        let op = pick(rng, UNARY_OPS);
        g.add_op(op, unary_attrs(op), &[src], format!("{tag}.u"))
            .unwrap()[0]
    } else if choice < 7 || shape.rank() < 2 {
        // Binary against a broadcast-shaped weight.
        let op = pick(rng, BINARY_OPS);
        let squashed: Vec<usize> = shape
            .dims()
            .iter()
            .map(|&d| if below(rng, 2) == 0 { 1 } else { d })
            .collect();
        let rhs = g.add_weight(format!("{tag}.w"), Shape::new(squashed));
        g.add_op(op, Attrs::new(), &[src, rhs], format!("{tag}.b"))
            .unwrap()[0]
    } else {
        // Inference-form BatchNormalization over the channel axis.
        let c = Shape::new(vec![shape.dim(1)]);
        let scale = g.add_weight(format!("{tag}.bn.scale"), c.clone());
        let bias = g.add_weight(format!("{tag}.bn.bias"), c.clone());
        let mean = g.add_weight(format!("{tag}.bn.mean"), c.clone());
        let var = g.add_weight(format!("{tag}.bn.var"), c);
        g.add_op(
            OpKind::BatchNormalization,
            Attrs::new().with_float("epsilon", 1e-5),
            &[src, scale, bias, mean, var],
            format!("{tag}.bn"),
        )
        .unwrap()[0]
    }
}

/// A random element-wise / broadcast DAG of at most `max_nodes` operators,
/// with one mid-graph escape output.
fn elementwise_dag(rng: &mut StdRng, max_nodes: usize) -> Graph {
    let rank = 2 + below(rng, 3);
    let dims: Vec<usize> = (0..rank).map(|_| 1 + below(rng, 4)).collect();
    let mut g = Graph::new("fuzz-elementwise");
    let x = g.add_input("x", Shape::new(dims));
    let mut values = vec![x];
    let op_count = 3 + below(rng, max_nodes.saturating_sub(3).max(1));
    for i in 0..op_count {
        let src = values[below(rng, values.len())];
        let out = random_elementwise(&mut g, rng, src, &format!("n{i}"));
        values.push(out);
    }
    g.mark_output(*values.last().unwrap());
    g.mark_output(values[1 + below(rng, values.len() - 1)]);
    g
}

/// A random anchored DAG: one Conv / MatMul / Gemm / pool anchor with a
/// fused element-wise epilogue; the anchor escapes mid-block.
fn anchored_dag(rng: &mut StdRng, max_nodes: usize) -> Graph {
    let mut g = Graph::new("fuzz-anchor");
    let anchor = match below(rng, 4) {
        0 => {
            // Conv at spatial rank 1–3 with random padding / stride /
            // dilation, ungrouped or one group per input channel, and output
            // channel counts on both sides of the OC-panel gate (8 and 16
            // take the packed kernels every big model runs).
            let rank = 1 + below(rng, 3);
            let n = 1 + below(rng, 2);
            let cin = 1 + below(rng, 3);
            let mut x_dims = vec![n, cin];
            x_dims.extend((1..rank).map(|_| 3 + below(rng, 4)));
            x_dims.push(3 + below(rng, 12));
            let cout = [1, 2, 3, 4, 8, 16][below(rng, 6)];
            let group = if cout % cin == 0 && below(rng, 2) == 1 {
                cin
            } else {
                1
            };
            let min_extent = x_dims[2..].iter().copied().min().unwrap_or(1);
            let k = 1 + below(rng, min_extent.min(3));
            // Dilate only while the dilated window still fits the input.
            let dilation = 1 + below(rng, if 2 * (k - 1) < min_extent { 2 } else { 1 });
            let x = g.add_input("x", Shape::new(x_dims));
            let mut w_dims = vec![cout, cin / group];
            w_dims.extend(std::iter::repeat_n(k, rank));
            let wt = g.add_weight("conv.w", Shape::new(w_dims));
            let attrs = Attrs::new()
                .with_int("group", group as i64)
                .with_ints("pads", vec![below(rng, 2) as i64; 2 * rank])
                .with_ints("strides", vec![1 + below(rng, 2) as i64; rank])
                .with_ints("dilations", vec![dilation as i64; rank]);
            g.add_op(OpKind::Conv, attrs, &[x, wt], "conv").unwrap()[0]
        }
        1 => {
            // MatMul in one of three batching forms.
            let m = 1 + below(rng, 5);
            let k = 1 + below(rng, 5);
            let n = 1 + below(rng, 12);
            let (a_shape, b_shape) = match below(rng, 3) {
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
            // Gemm with random transpose flags and scaling.
            let m = 1 + below(rng, 5);
            let k = 1 + below(rng, 5);
            let n = 1 + below(rng, 12);
            let trans_a = below(rng, 2) == 1;
            let trans_b = below(rng, 2) == 1;
            let a_shape = if trans_a { vec![k, m] } else { vec![m, k] };
            let b_shape = if trans_b { vec![n, k] } else { vec![k, n] };
            let a = g.add_input("a", Shape::new(a_shape));
            let b = g.add_weight("gemm.b", Shape::new(b_shape));
            let attrs = Attrs::new()
                .with_int("transA", i64::from(trans_a))
                .with_int("transB", i64::from(trans_b))
                .with_float("alpha", [1.0, 0.5, 2.0][below(rng, 3)])
                .with_float("beta", [1.0, 0.5, 2.0][below(rng, 3)]);
            g.add_op(OpKind::Gemm, attrs, &[a, b], "gemm").unwrap()[0]
        }
        _ => {
            // MaxPool / AveragePool at spatial rank 1–3.
            let rank = 1 + below(rng, 3);
            let mut x_dims = vec![1 + below(rng, 2), 1 + below(rng, 4)];
            x_dims.extend((1..rank).map(|_| 3 + below(rng, 4)));
            x_dims.push(3 + below(rng, 10));
            let x = g.add_input("x", Shape::new(x_dims));
            let attrs = Attrs::new()
                .with_ints("kernel_shape", vec![2 + below(rng, 2) as i64; rank])
                .with_ints("strides", vec![1 + below(rng, 2) as i64; rank])
                .with_ints("pads", vec![below(rng, 2) as i64; 2 * rank]);
            let (op, attrs) = match below(rng, 3) {
                0 => (OpKind::MaxPool, attrs),
                mode => (
                    OpKind::AveragePool,
                    attrs.with_int("count_include_pad", i64::from(mode == 2)),
                ),
            };
            g.add_op(op, attrs, &[x], "pool").unwrap()[0]
        }
    };
    let epilogue = 1 + below(rng, max_nodes.min(4));
    let mut last = anchor;
    for i in 0..epilogue {
        last = random_elementwise(&mut g, rng, last, &format!("ep{i}"));
    }
    g.mark_output(last);
    if last != anchor {
        g.mark_output(anchor);
    }
    g
}

/// An attention-shaped MatMul chain — scores, scaling, a decomposed
/// causal-style softmax (`ReduceMax`/`Sub`/`Exp`/`ReduceSum`/`Div`) and the
/// context MatMul — the dataflow of one decoder attention head. Random
/// head counts, lengths and head widths; sometimes a `Concat` splices a
/// "past" segment onto the keys/values first, exactly like a KV-cache step
/// graph.
fn attention_chain(rng: &mut StdRng, _max_nodes: usize) -> Graph {
    let heads = 1 + below(rng, 3);
    let q_len = 1 + below(rng, 4);
    let kv_len = 1 + below(rng, 6);
    let head_dim = 1 + below(rng, 8);
    let mut g = Graph::new("fuzz-attention");
    let q = g.add_input("q", Shape::new(vec![heads, q_len, head_dim]));
    let mut k = g.add_input("k", Shape::new(vec![heads, kv_len, head_dim]));
    let mut v = g.add_input("v", Shape::new(vec![heads, kv_len, head_dim]));
    if below(rng, 2) == 0 {
        // KV-cache form: splice a past segment before the fresh keys/values.
        let past_len = 1 + below(rng, 6);
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
    if below(rng, 2) == 0 {
        // The attention probabilities escape mid-chain too.
        g.mark_output(probs);
    }
    g
}

/// A data-movement chain: `Transpose`, `Slice`, `Gather` (in-range indices,
/// negative ones included, held as a weight), nearest `Upsample`,
/// `Reshape`/`Flatten` and one random `Reduce*`, in random order, each
/// followed by an element-wise operator half the time; one value escapes
/// mid-chain.
fn reorganize_chain(rng: &mut StdRng, _max_nodes: usize) -> Graph {
    let rank = 2 + below(rng, 3);
    let dims: Vec<usize> = (0..rank).map(|_| 1 + below(rng, 5)).collect();
    let mut g = Graph::new("fuzz-reorganize");
    let mut values = vec![g.add_input("x", Shape::new(dims))];
    let mut stages = [0, 1, 2, 3, 4, 5];
    for i in (1..stages.len()).rev() {
        stages.swap(i, below(rng, i + 1));
    }
    for (i, stage) in stages.into_iter().enumerate() {
        let src = *values.last().expect("the input");
        let dims = g.value(src).shape.dims().to_vec();
        let rank = dims.len();
        let tag = format!("s{i}");
        let (op, attrs, inputs) = match stage {
            0 => {
                let mut perm: Vec<i64> = (0..rank as i64).collect();
                for j in (1..rank).rev() {
                    perm.swap(j, below(rng, j + 1));
                }
                (
                    OpKind::Transpose,
                    Attrs::new().with_ints("perm", perm),
                    vec![src],
                )
            }
            1 => {
                // Non-empty windows, written with negative starts and
                // past-the-end ends half the time.
                let (mut starts, mut ends) = (Vec::new(), Vec::new());
                for &d in &dims {
                    let start = below(rng, d);
                    let end = start + 1 + below(rng, d - start);
                    let d = d as i64;
                    let wrap = below(rng, 2) as i64;
                    starts.push(start as i64 - wrap * d);
                    ends.push(if end as i64 == d {
                        d + wrap * 3
                    } else {
                        end as i64
                    });
                }
                let attrs = Attrs::new()
                    .with_ints("starts", starts)
                    .with_ints("ends", ends);
                (OpKind::Slice, attrs, vec![src])
            }
            2 => {
                let axis = below(rng, rank);
                let extent = dims[axis] as i64;
                let ids: Vec<f32> = (0..1 + below(rng, 4))
                    .map(|_| (below(rng, 2 * dims[axis]) as i64 - extent) as f32)
                    .collect();
                let ids = Tensor::from_vec(Shape::new(vec![ids.len()]), ids).expect("sized");
                let ids = g.add_weight_with_data(format!("{tag}.ids"), ids);
                let attrs = Attrs::new().with_int("axis", axis as i64);
                (OpKind::Gather, attrs, vec![src, ids])
            }
            3 => {
                let scales = (0..rank)
                    .map(|_| [1.0, 1.0, 1.5, 2.0][below(rng, 4)])
                    .collect();
                let attrs = Attrs::new().with_floats("scales", scales);
                (OpKind::Upsample, attrs, vec![src])
            }
            4 if below(rng, 2) == 0 => {
                let attrs = Attrs::new().with_ints("shape", vec![-1, dims[rank - 1] as i64]);
                (OpKind::Reshape, attrs, vec![src])
            }
            4 => {
                let attrs = Attrs::new().with_int("axis", below(rng, rank + 1) as i64);
                (OpKind::Flatten, attrs, vec![src])
            }
            _ => {
                let ops = [
                    OpKind::ReduceSum,
                    OpKind::ReduceMean,
                    OpKind::ReduceProd,
                    OpKind::ReduceMax,
                    OpKind::ReduceMin,
                ];
                let axes: Vec<i64> = (0..rank as i64).filter(|_| below(rng, 2) == 0).collect();
                // Dropping every axis would leave later stages nothing to move.
                let keepdims = axes.is_empty() || axes.len() == rank || below(rng, 2) == 0;
                let mut attrs = Attrs::new().with_int("keepdims", i64::from(keepdims));
                if !axes.is_empty() {
                    attrs = attrs.with_ints("axes", axes);
                }
                (pick(rng, &ops), attrs, vec![src])
            }
        };
        let mut out = g.add_op(op, attrs, &inputs, tag.clone()).unwrap()[0];
        if below(rng, 2) == 0 {
            out = random_elementwise(&mut g, rng, out, &format!("{tag}.e"));
        }
        values.push(out);
    }
    g.mark_output(*values.last().expect("six stages"));
    g.mark_output(values[1 + below(rng, values.len() - 2)]);
    g
}

/// A rewrite motif planted in a `fuzz-rewrite` graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Motif {
    /// The [`RULES`] row it was built for.
    pub rule: &'static str,
    /// `true` for the row's pattern, which the rule rewrites; `false` for
    /// its near-miss, which differs by one side-condition and is left alone.
    pub fires: bool,
}

/// A random permutation of `0..rank`.
fn permutation(rng: &mut StdRng, rank: usize) -> Vec<i64> {
    let mut perm: Vec<i64> = (0..rank as i64).collect();
    for j in (1..rank).rev() {
        perm.swap(j, below(rng, j + 1));
    }
    perm
}

/// Adds one motif's operators and weights, each named `<tag>.<part>`.
struct MotifBuilder<'g> {
    g: &'g mut Graph,
    tag: &'g str,
}

impl MotifBuilder<'_> {
    fn op(&mut self, op: OpKind, attrs: Attrs, inputs: &[ValueId], part: &str) -> ValueId {
        let name = format!("{}.{part}", self.tag);
        self.g.add_op(op, attrs, inputs, name).unwrap()[0]
    }
    fn un(&mut self, op: OpKind, x: ValueId, part: &str) -> ValueId {
        self.op(op, Attrs::new(), &[x], part)
    }
    fn bin(&mut self, op: OpKind, x: ValueId, y: ValueId, part: &str) -> ValueId {
        self.op(op, Attrs::new(), &[x, y], part)
    }
    /// A weight of `shape` holding data drawn uniformly from `[lo, hi)`.
    fn weight(&mut self, rng: &mut StdRng, part: &str, shape: Shape, lo: f32, hi: f32) -> ValueId {
        let data = Tensor::random(shape, rng.next_u64()).map(|v| lo + (hi - lo) * (v + 1.0) / 2.0);
        self.g
            .add_weight_with_data(format!("{}.{part}", self.tag), data)
    }
    /// A weight of `shape` holding `value` everywhere.
    fn constant(&mut self, part: &str, shape: Shape, value: f32) -> ValueId {
        let data = Tensor::full(shape, value);
        self.g
            .add_weight_with_data(format!("{}.{part}", self.tag), data)
    }
    /// `Sigmoid(x) + 0.5`, in `(0.5, 1.5)`.
    fn positive(&mut self, x: ValueId) -> ValueId {
        let s = self.un(OpKind::Sigmoid, x, "sigmoid");
        let half = self.constant("half", Shape::new(vec![1]), 0.5);
        self.bin(OpKind::Add, s, half, "positive")
    }
    /// `op` over `x`'s widest axis (the last of the widest), so the
    /// reduction shrinks the tensor; dimensions are kept.
    fn reduce_widest(&mut self, op: OpKind, x: ValueId, part: &str) -> ValueId {
        let dims = self.g.value(x).shape.dims().to_vec();
        let axis = (0..dims.len()).rev().max_by_key(|&a| dims[a]).unwrap_or(0);
        let attrs = Attrs::new().with_ints("axes", vec![axis as i64]);
        self.op(op, attrs, &[x], part)
    }
}

/// Plants `rule`'s motif (or, unless `fires`, its near-miss) on `x` and
/// returns the motif's result. Each motif opens with a `Tanh` that bounds
/// its operands, so a reassociating rewrite stays well within
/// [`FUZZ_TOLERANCE`] of the reference and the operator before it cannot
/// amplify an earlier motif's rounding; weights carry data, so
/// `Reciprocal` and `Sqrt` see positive operands. Each near-miss differs
/// from its motif by the one side-condition the rule's own test case
/// varies, or by a second reader where the chain's shapes rule that out.
fn plant_motif(
    g: &mut Graph,
    rng: &mut StdRng,
    rule: &str,
    fires: bool,
    x: ValueId,
    tag: &str,
) -> ValueId {
    use OpKind::*;
    let mut m = MotifBuilder { g, tag };
    let x = m.un(Tanh, x, "tanh");
    let shape = m.g.value(x).shape.clone();
    let last = shape.rank() - 1;
    match rule {
        "assoc.recip-mul" => {
            let a = m.positive(x);
            let b = m.weight(rng, "b", shape, 0.5, 1.5);
            let recip_a = m.un(Reciprocal, a, "recip_a");
            let ab = m.bin(Mul, a, b, "ab");
            let recip_ab = m.un(Reciprocal, ab, "recip_ab");
            if !fires {
                let extra = m.un(Relu, ab, "extra");
                m.g.mark_output(extra);
            }
            m.bin(Mul, recip_a, recip_ab, "out")
        }
        "assoc.sqrt-pair" => {
            let a = m.positive(x);
            let b = m.weight(rng, "b", shape.clone(), 0.5, 1.5);
            let c = m.weight(rng, "c", shape, 0.5, 1.5);
            let sqrt = m.un(Sqrt, b, "sqrt");
            let p = m.bin(Mul, a, sqrt, "p");
            let q = m.bin(Mul, sqrt, c, "q");
            if !fires {
                m.g.mark_output(sqrt);
            }
            m.bin(Mul, p, q, "out")
        }
        "assoc.abs-mul" => {
            let b = m.weight(rng, "b", shape.clone(), -1.0, 1.0);
            let c = m.weight(rng, "c", shape, -1.0, 1.0);
            let abs_a = m.un(Abs, x, "abs_a");
            let inner = m.bin(Mul, abs_a, b, "inner");
            let abs_c = m.un(Abs, c, "abs_c");
            if !fires {
                let extra = m.un(Relu, abs_c, "extra");
                m.g.mark_output(extra);
            }
            m.bin(Mul, inner, abs_c, "out")
        }
        "assoc.reducesum-square" => {
            let a = m.positive(x);
            let b = m.weight(rng, "b", shape.clone(), 0.1, 0.4);
            let c = m.weight(rng, "c", shape, 0.5, 1.5);
            let sum = m.reduce_widest(ReduceSum, b, "sum");
            let p = m.bin(Mul, a, sum, "p");
            let q = m.bin(Mul, sum, c, "q");
            if !fires {
                m.g.mark_output(sum);
            }
            m.bin(Mul, p, q, "out")
        }
        "dist.mul-add-factor" => {
            let a = m.positive(x);
            let mut narrow = shape.dims().to_vec();
            narrow[last] = 1;
            let b = m.weight(rng, "b", shape.clone(), 0.5, 1.5);
            let c = m.weight(rng, "c", Shape::new(narrow), 0.5, 1.5);
            let ac = m.bin(Mul, a, c, "ac");
            // Near-miss: the two products share no operand.
            let left = if fires {
                a
            } else {
                m.weight(rng, "d", shape, 0.5, 1.5)
            };
            let xb = m.bin(Mul, left, b, "xb");
            m.bin(Add, ac, xb, "out")
        }
        "dist.matmul-factor" => {
            let a = m.positive(x);
            let k = shape.dim(last);
            let b = m.weight(rng, "b", Shape::new(vec![k, k]), 0.1, 0.3);
            // Near-miss: the right operands differ in shape.
            let columns = match (fires, k) {
                (true, _) => k,
                (false, 1) => 2,
                (false, _) => 1,
            };
            let c = m.weight(rng, "c", Shape::new(vec![k, columns]), 0.1, 0.3);
            let ab = m.bin(MatMul, a, b, "ab");
            let ac = m.bin(MatMul, a, c, "ac");
            m.bin(Add, ab, ac, "out")
        }
        "dist.square-sub" => {
            let a = m.positive(x);
            let c = m.weight(rng, "c", shape, 0.5, 1.5);
            let square = m.un(Square, a, "square");
            let ac = m.bin(Mul, a, c, "ac");
            if !fires {
                m.g.mark_output(square);
            }
            m.bin(Sub, square, ac, "out")
        }
        "comm.bitshift-reducesum" => {
            // Small integers: the rule is exact only on integral data.
            let four = m.constant("four", Shape::new(vec![1]), 4.0);
            let scaled = m.bin(Mul, x, four, "scaled");
            let a = m.un(Round, scaled, "round");
            // Near-miss: a per-column shift amount instead of a scalar.
            let columns = if fires { 1 } else { shape.dim(last).max(2) };
            let s = m.constant("s", Shape::new(vec![columns]), 2.0);
            let left = Attrs::new().with_str("direction", "LEFT");
            let shifted = m.op(BitShift, left, &[a, s], "shift");
            m.reduce_widest(ReduceSum, shifted, "out")
        }
        "comm.exp-reduceprod" => {
            let quarter = m.constant("quarter", Shape::new(vec![1]), 0.25);
            let a = m.bin(Mul, x, quarter, "small");
            let e = m.un(Exp, a, "exp");
            if !fires {
                let extra = m.un(Relu, e, "extra");
                m.g.mark_output(extra);
            }
            m.reduce_widest(ReduceProd, e, "out")
        }
        "simplify.reorganize-chain" => {
            let flat = m.op(Flatten, Attrs::new().with_int("axis", 1), &[x], "flatten");
            if !fires {
                m.g.mark_output(flat);
            }
            let dims = shape.dims().iter().map(|&d| d as i64).collect();
            m.op(
                Reshape,
                Attrs::new().with_ints("shape", dims),
                &[flat],
                "out",
            )
        }
        "simplify.transpose-pair" => {
            let p1 = permutation(rng, shape.rank());
            // Half the time the pair composes to the identity and vanishes.
            let p2 = if below(rng, 2) == 0 {
                let mut inverse = vec![0; p1.len()];
                for (i, &p) in p1.iter().enumerate() {
                    inverse[p as usize] = i as i64;
                }
                inverse
            } else {
                permutation(rng, shape.rank())
            };
            let t1 = m.op(Transpose, Attrs::new().with_ints("perm", p1), &[x], "t1");
            if !fires {
                let extra = m.un(Sigmoid, t1, "extra");
                m.g.mark_output(extra);
            }
            m.op(Transpose, Attrs::new().with_ints("perm", p2), &[t1], "out")
        }
        "simplify.identity" => {
            let relu = m.un(Relu, x, "relu");
            let out = m.un(Identity, relu, "out");
            // Near-miss: both ends are graph outputs, which rewiring would
            // merge into one.
            if !fires {
                m.g.mark_output(relu);
                m.g.mark_output(out);
            }
            out
        }
        other => panic!("no motif for rule `{other}`"),
    }
}

/// 2–4 [`RULES`] rows' motifs or near-misses (each row at most once),
/// chained through random unary element-wise operators; the last motif's
/// result is the graph output, so its rewrite splices at the end of the
/// graph and may replace a graph output. The size is set by the motif
/// count, not by `max_nodes`.
fn rewrite_motifs(rng: &mut StdRng) -> (Graph, Vec<Motif>) {
    let rank = 2 + below(rng, 3);
    // Extents of at least 2, so a reduction motif saves work.
    let dims: Vec<usize> = (0..rank).map(|_| 2 + below(rng, 3)).collect();
    let mut g = Graph::new("fuzz-rewrite");
    let mut x = g.add_input("x", Shape::new(dims));
    let mut rows: Vec<usize> = (0..RULES.len()).collect();
    for i in (1..rows.len()).rev() {
        rows.swap(i, below(rng, i + 1));
    }
    // `Identity` between motifs would let `simplify.identity` fire where
    // no motif planted it.
    let gaps: Vec<OpKind> = UNARY_OPS
        .iter()
        .copied()
        .filter(|&op| op != OpKind::Identity)
        .collect();
    let mut motifs = Vec::new();
    for (i, &row) in rows.iter().take(2 + below(rng, 3)).enumerate() {
        let gap = pick(rng, &gaps);
        x = g
            .add_op(gap, unary_attrs(gap), &[x], format!("m{i}.gap"))
            .unwrap()[0];
        let motif = Motif {
            rule: RULES[row].name,
            fires: below(rng, 2) == 0,
        };
        x = plant_motif(&mut g, rng, motif.rule, motif.fires, x, &format!("m{i}"));
        motifs.push(motif);
    }
    g.mark_output(x);
    (g, motifs)
}

/// Deterministically generates the model for `seed`: the seed fully
/// determines the family (element-wise, anchored, attention-shaped,
/// data-movement or planted rewrite motifs) and every structural choice
/// inside it.
#[must_use]
pub fn random_fuzz_graph(seed: u64, max_nodes: usize) -> Graph {
    planted_fuzz_graph(seed, max_nodes).0
}

/// [`random_fuzz_graph`] with the rewrite motifs it planted (none outside
/// the `fuzz-rewrite` family).
#[must_use]
pub fn planted_fuzz_graph(seed: u64, max_nodes: usize) -> (Graph, Vec<Motif>) {
    let mut rng = StdRng::seed_from_u64(seed);
    // One fifth of the seeds go to the motif family, chosen by the high half
    // of the first draw so every other seed keeps the graph it always drew.
    let draw = rng.next_u64();
    if (draw >> 32) % 5 == 4 {
        return rewrite_motifs(&mut rng);
    }
    let graph = match draw % 4 {
        0 => elementwise_dag(&mut rng, max_nodes),
        1 => anchored_dag(&mut rng, max_nodes),
        2 => attention_chain(&mut rng, max_nodes),
        _ => reorganize_chain(&mut rng, max_nodes),
    };
    (graph, Vec::new())
}

/// Random inputs for every graph input, seeded so a failing case replays.
#[must_use]
pub fn fuzz_inputs(graph: &Graph, seed: u64) -> HashMap<String, Tensor> {
    graph
        .inputs()
        .iter()
        .map(|&id| {
            let v = graph.value(id);
            (v.name.clone(), Tensor::random(v.shape.clone(), seed))
        })
        .collect()
}

/// A passing seed's summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzOutcome {
    /// The seed checked.
    pub seed: u64,
    /// Operator count of the generated graph.
    pub nodes: usize,
    /// Fused blocks the compiler produced for it.
    pub fused_blocks: usize,
    /// The rewrite motifs planted in the graph, each with whether its rule
    /// fired.
    pub motifs: Vec<(Motif, bool)>,
}

/// Each of `motifs` with whether its rule is among `applied` (a graph
/// plants each rule at most once).
#[must_use]
pub fn motif_outcomes(motifs: &[Motif], applied: &[AppliedRewrite]) -> Vec<(Motif, bool)> {
    motifs
        .iter()
        .map(|&m| (m, applied.iter().any(|a| a.rule == m.rule)))
        .collect()
}

/// One [`RULES`] row's planted motifs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MotifCounts {
    /// Motifs planted.
    pub motifs: usize,
    /// Of those, motifs the rule rewrote.
    pub fired: usize,
    /// Near-misses planted.
    pub near_misses: usize,
    /// Of those, near-misses the rule left alone.
    pub refused: usize,
}

/// Per-[`RULES`]-row counts of planted motifs, in table order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MotifTally {
    /// Each row's name and counts.
    pub rows: Vec<(&'static str, MotifCounts)>,
}

impl MotifTally {
    /// An empty tally over every row of [`RULES`].
    #[must_use]
    pub fn new() -> Self {
        MotifTally {
            rows: RULES
                .iter()
                .map(|r| (r.name, MotifCounts::default()))
                .collect(),
        }
    }

    /// Counts one planted motif and whether its rule fired.
    ///
    /// # Panics
    ///
    /// Panics if the motif names no row of [`RULES`].
    pub fn add(&mut self, (motif, fired): (Motif, bool)) {
        let (_, counts) = self
            .rows
            .iter_mut()
            .find(|(rule, _)| *rule == motif.rule)
            .expect("motifs are planted for rows of RULES");
        if motif.fires {
            counts.motifs += 1;
            counts.fired += usize::from(fired);
        } else {
            counts.near_misses += 1;
            counts.refused += usize::from(!fired);
        }
    }

    /// Rows that never fired or were never refused.
    #[must_use]
    pub fn unexercised(&self) -> Vec<&'static str> {
        self.rows
            .iter()
            .filter(|(_, c)| c.fired == 0 || c.refused == 0)
            .map(|(rule, _)| *rule)
            .collect()
    }
}

impl fmt::Display for MotifTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "planted rewrite motifs (fired/planted, refused/planted near-misses):"
        )?;
        for (rule, c) in &self.rows {
            writeln!(
                f,
                "  {rule:<26} fired {}/{}  refused {}/{}",
                c.fired, c.motifs, c.refused, c.near_misses
            )?;
        }
        Ok(())
    }
}

/// A failing seed: `seed` replays it, `context` says what disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFailure {
    /// The seed that failed.
    pub seed: u64,
    /// Which configuration disagreed, and where.
    pub context: String,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed {}: {}", self.seed, self.context)
    }
}

/// Tolerance for the engine-vs-reference differential; the cross-config
/// comparison (threads, scalar) is bit-exact (tolerance 0).
pub const FUZZ_TOLERANCE: f32 = 1e-5;

fn disagreement(reference: &Tensor, engine: &Tensor, tol: f32) -> Option<String> {
    if reference.shape() != engine.shape() {
        return Some(format!(
            "shape mismatch: {:?} vs {:?}",
            reference.shape().dims(),
            engine.shape().dims()
        ));
    }
    reference.first_disagreement(engine, tol).map(|i| {
        format!(
            "element {i}: {} vs {}",
            reference.data()[i],
            engine.data()[i]
        )
    })
}

/// Brute-force oracle for the facts a [`FusionPlan`] stores about its
/// quotient graph, each recomputed here the slow, obvious way from `graph`
/// and the plan's grouping alone: the blocks partition the nodes; the stored
/// order is a topological order of the quotient graph; every block's
/// boundary reads and writes, the per-value escape bit, each boundary
/// value's birth and death position and the per-position death lists are
/// what a naive walk finds; and [`MemoryPlan`] reports those same positions.
/// `graph` may be any rebinding of the graph the plan was built on.
///
/// # Errors
///
/// Returns a description of the first stored fact that disagrees.
pub fn check_plan_facts(graph: &Graph, plan: &FusionPlan) -> Result<(), String> {
    let blocks = plan.blocks();
    let mut owner: Vec<Option<usize>> = vec![None; graph.node_count()];
    for (id, block) in blocks.iter().enumerate() {
        if block.id != id || block.is_empty() {
            return Err(format!("block {id} is empty or carries id {}", block.id));
        }
        for &n in &block.nodes {
            if owner[n.index()].replace(id).is_some() || plan.block_of(n) != id {
                return Err(format!("node {} is not in exactly one block", n.index()));
            }
        }
    }
    if owner.contains(&None) {
        return Err("some node is in no block".into());
    }

    let order = plan.order();
    let mut position = vec![usize::MAX; blocks.len()];
    for (pos, &block) in order.iter().enumerate() {
        position[block] = pos;
    }
    if order.len() != blocks.len() || position.contains(&usize::MAX) {
        return Err("the order is not a permutation of the block ids".into());
    }
    for node in graph.nodes() {
        for succ in graph.successors(node.id) {
            let (from, to) = (plan.block_of(node.id), plan.block_of(succ));
            if from != to && position[from] >= position[to] {
                return Err(format!(
                    "block {to} runs before block {from}, which feeds it"
                ));
            }
        }
    }

    let is_output = |v: ValueId| graph.outputs().contains(&v);
    let escapes = |v: ValueId| {
        let value = graph.value(v);
        value.producer.is_some_and(|p| {
            let elsewhere = |&c: &NodeId| plan.block_of(c) != plan.block_of(p);
            is_output(v) || value.consumers.is_empty() || value.consumers.iter().any(elsewhere)
        })
    };
    for block in blocks {
        let (mut reads, mut writes, mut touched) = (Vec::new(), Vec::new(), Vec::new());
        for &n in &block.nodes {
            let node = graph.node(n);
            for &input in &node.inputs {
                let producer = graph.value(input).producer;
                let outside = producer.is_none_or(|p| plan.block_of(p) != block.id);
                if outside && !reads.contains(&input) {
                    reads.push(input);
                    touched.push(input);
                }
            }
            for &output in node.outputs.iter().filter(|&&v| escapes(v)) {
                writes.push(output);
                touched.push(output);
            }
        }
        let stored = &block.boundary;
        if stored.reads().collect::<Vec<_>>() != reads
            || stored.writes().collect::<Vec<_>>() != writes
            || stored.values().collect::<Vec<_>>() != touched
        {
            return Err(format!("block {}: boundary {stored:?}", block.id));
        }
    }

    let last = order.len().saturating_sub(1);
    let mut deaths = vec![Vec::new(); order.len()];
    let mut lifetimes = Vec::new();
    for value in graph.values() {
        let expected = escapes(value.id).then(|| {
            let birth = position[plan.block_of(value.producer.expect("escapes"))];
            let readers = value.consumers.iter().map(|&c| position[plan.block_of(c)]);
            let death = match readers.max() {
                Some(reader) if !is_output(value.id) => reader,
                _ => last,
            };
            (birth, death)
        });
        if plan.lifetime(value.id) != expected || plan.value_escapes(value.id) != escapes(value.id)
        {
            return Err(format!(
                "value `{}`: stored lifetime {:?}, expected {expected:?}",
                value.name,
                plan.lifetime(value.id)
            ));
        }
        if let Some((birth, death)) = expected {
            lifetimes.push((value.id, birth, death));
            if !is_output(value.id) {
                deaths[death].push(value.id);
            }
        }
    }
    if plan.deaths() != deaths {
        return Err(format!("deaths {:?}, expected {deaths:?}", plan.deaths()));
    }
    let memory = MemoryPlan::build(graph, plan, &plan.execution_order(graph), 4);
    let planned = memory.lifetimes.iter().map(|l| (l.value, l.birth, l.death));
    if planned.collect::<Vec<_>>() != lifetimes {
        return Err("the memory plan's lifetimes are not the plan's".into());
    }
    Ok(())
}

/// Checks one seed: generates the model, runs the reference interpreter as
/// the oracle, then the fused engine at `num_threads ∈ {1, 2, 8}`, each
/// with and without `force_scalar` (and with the defaulted options'
/// `force_sse`, so `DNNF_FORCE_SSE=1` pins every run to the SSE instance of
/// the dot micro-kernel). Engine runs must match the reference
/// within [`FUZZ_TOLERANCE`] and each other bit for bit. A compile with the
/// default options (graph rewriting on) must match the reference within
/// [`FUZZ_TOLERANCE`] as well. Both compilations' fusion plans must pass
/// [`check_plan_facts`].
///
/// When the graph's inputs share a leading dimension, the compiled model
/// also runs at batch 3 through `Executor::run` — its own kernels, at an
/// extent they were not compiled at — and must match, bit for bit, the plan
/// compiled against the graph rebound to batch 3 (`instance_for_batch`).
///
/// Every seed also exercises the `.dnnfg` serialization round-trip: the
/// graph is exported and re-imported, the import must fingerprint
/// identically (and re-export byte-identically), and a compile of the
/// *imported* graph must produce bit-identical outputs to the original's
/// compile — tolerance 0, not [`FUZZ_TOLERANCE`].
///
/// # Errors
///
/// Returns the [`FuzzFailure`] describing the first disagreement (or a
/// compile/execution/serialization error).
pub fn check_seed(seed: u64, max_nodes: usize) -> Result<FuzzOutcome, FuzzFailure> {
    let fail = |context: String| FuzzFailure { seed, context };
    let (graph, motifs) = planted_fuzz_graph(seed, max_nodes);
    let inputs = fuzz_inputs(&graph, seed ^ 0xF00D_5EED);
    let base = Executor::new(DeviceSpec::snapdragon_865_cpu());

    // The oracle: every operator through its reference kernel, serially.
    let ecg = Ecg::new(graph.clone());
    let singletons = FusionPlan::singletons(&ecg);
    let reference = base
        .clone()
        .with_options(ExecOptions::serial())
        .run_plan_reference(&graph, &singletons, &inputs)
        .map_err(|e| fail(format!("reference run failed: {e}")))?;

    let against_reference = |config: &str, outputs: &[Tensor]| {
        if outputs.len() != reference.outputs.len() {
            return Err(fail(format!(
                "{config}: {} outputs vs the reference's {}",
                outputs.len(),
                reference.outputs.len()
            )));
        }
        for (i, (r, e)) in reference.outputs.iter().zip(outputs).enumerate() {
            if let Some(diff) = disagreement(r, e, FUZZ_TOLERANCE) {
                return Err(fail(format!("{config}: output {i} vs reference: {diff}")));
            }
        }
        Ok(())
    };

    // Rewriting off: the differential compares the same dataflow.
    let mut compiler = Compiler::new(CompilerOptions::without_rewriting());
    let compiled = compiler
        .compile(&graph)
        .map_err(|e| fail(format!("compile failed: {e}")))?;
    check_plan_facts(compiled.graph(), &compiled.plan)
        .map_err(|e| fail(format!("plan facts: {e}")))?;

    let mut baseline: Option<Vec<Tensor>> = None;
    for threads in [1usize, 2, 8] {
        for force_scalar in [false, true] {
            let config = format!("num_threads={threads} force_scalar={force_scalar}");
            let executor = base.clone().with_options(ExecOptions {
                num_threads: threads,
                force_scalar,
                min_parallel_work: 0,
                ..*base.options()
            });
            let run = executor
                .run_compiled(&compiled, &inputs)
                .map_err(|e| fail(format!("{config}: engine run failed: {e}")))?;
            against_reference(&config, &run.outputs)?;
            match &baseline {
                None => baseline = Some(run.outputs),
                Some(first) => {
                    for (i, (b, e)) in first.iter().zip(&run.outputs).enumerate() {
                        if let Some(diff) = disagreement(b, e, 0.0) {
                            return Err(fail(format!(
                                "{config}: output {i} not bit-identical to first config: {diff}"
                            )));
                        }
                    }
                }
            }
        }
    }
    // Batch 3 through the model's own kernels against kernels compiled for
    // batch 3. A graph without a shared leading dimension (or one that
    // bakes its batch into an attribute) has no batch-3 instance.
    if let Ok(instance) = compiled.instance_for_batch(3) {
        let batched = fuzz_inputs(instance.graph(), seed ^ 0xBA7C_4003);
        let store = WeightStore::of_model(&compiled);
        let (graph, engine) = (instance.graph(), instance.engine());
        let oracle = base.run_engine(graph, &compiled.plan, engine, &store, &batched, None);
        match (oracle, base.run(&compiled, &batched)) {
            (Ok(oracle), Ok(run)) => {
                for (i, (o, r)) in oracle.outputs.iter().zip(&run.outputs).enumerate() {
                    if let Some(diff) = disagreement(o, r, 0.0) {
                        return Err(fail(format!(
                            "batch 3: output {i} not bit-identical to the instance's: {diff}"
                        )));
                    }
                }
            }
            // Data the graph holds (gather indices, per-channel parameters)
            // may not fit batch 3; then neither side runs.
            (Err(_), Err(_)) => {}
            (oracle, run) => {
                return Err(fail(format!(
                    "batch 3: the instance run {:?} but the engine run {:?}",
                    oracle.map(|_| "succeeded"),
                    run.map(|_| "succeeded")
                )))
            }
        }
    }

    // Rewriting on: whatever the rule table does to this graph, the
    // compiled model still computes the reference's outputs.
    let rewritten = Compiler::new(CompilerOptions::default())
        .compile(&graph)
        .map_err(|e| fail(format!("rewriting on: compile failed: {e}")))?;
    check_plan_facts(rewritten.graph(), &rewritten.plan)
        .map_err(|e| fail(format!("rewriting on: plan facts: {e}")))?;
    let run = base
        .clone()
        .with_options(ExecOptions::serial())
        .run_compiled(&rewritten, &inputs)
        .map_err(|e| fail(format!("rewriting on: engine run failed: {e}")))?;
    against_reference("rewriting on", &run.outputs)?;
    let motifs = motif_outcomes(&motifs, &rewritten.stats.rewrites);
    if let Some((motif, fired)) = motifs.iter().find(|(m, fired)| m.fires != *fired) {
        let what = if motif.fires { "motif" } else { "near-miss" };
        let verb = if *fired { "fired" } else { "did not fire" };
        return Err(fail(format!(
            "rewriting on: `{}` {verb} on its planted {what}",
            motif.rule
        )));
    }

    // Serialization round-trip. Fingerprint identity means the imported
    // graph would hit the same PlanCache entry; compiling it from scratch
    // and demanding bit-identical outputs proves the stronger claim that
    // nothing the compiler consumes was lost in the text form.
    let text = dnnf_io::to_text(&graph);
    let imported = dnnf_io::from_text(&text)
        .map_err(|e| fail(format!("dnnfg round-trip: import rejected own export: {e}")))?;
    if imported.fingerprint() != graph.fingerprint() {
        return Err(fail(format!(
            "dnnfg round-trip: fingerprint drift ({} -> {})",
            graph.fingerprint(),
            imported.fingerprint()
        )));
    }
    if dnnf_io::to_text(&imported) != text {
        return Err(fail(
            "dnnfg round-trip: re-export is not byte-identical".into(),
        ));
    }
    let recompiled = Compiler::new(CompilerOptions::without_rewriting())
        .compile(&imported)
        .map_err(|e| fail(format!("dnnfg round-trip: compile of import failed: {e}")))?;
    let rerun = base
        .clone()
        .with_options(ExecOptions {
            num_threads: 1,
            force_scalar: false,
            min_parallel_work: 0,
            ..*base.options()
        })
        .run_compiled(&recompiled, &inputs)
        .map_err(|e| fail(format!("dnnfg round-trip: run of import failed: {e}")))?;
    let first = baseline.as_ref().expect("at least one engine config ran");
    for (i, (b, e)) in first.iter().zip(&rerun.outputs).enumerate() {
        if let Some(diff) = disagreement(b, e, 0.0) {
            return Err(fail(format!(
                "dnnfg round-trip: output {i} of imported graph not bit-identical: {diff}"
            )));
        }
    }

    Ok(FuzzOutcome {
        seed,
        nodes: graph.node_count(),
        fused_blocks: compiled.stats.fused_layers,
        motifs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_appears_over_a_short_seed_range() {
        let mut names = std::collections::BTreeSet::new();
        for seed in 0..32u64 {
            names.insert(random_fuzz_graph(seed, 12).name().to_string());
        }
        for family in [
            "fuzz-elementwise",
            "fuzz-anchor",
            "fuzz-attention",
            "fuzz-reorganize",
            "fuzz-rewrite",
        ] {
            assert!(
                names.contains(family),
                "seeds 0..32 never produced {family}"
            );
        }
    }

    #[test]
    fn generated_graphs_validate() {
        for seed in 0..48u64 {
            let graph = random_fuzz_graph(seed, 12);
            assert!(
                graph.validate().is_ok(),
                "seed {seed} built an invalid graph"
            );
        }
    }

    /// Seeds whose graph marks both an `Identity`'s source and its result as
    /// outputs: `simplify.identity` used to rewire the second onto the first
    /// and the compiled model came back one output short. The shape is
    /// asserted, because widening a generator arm reshuffles every later
    /// draw and would silently turn these pins into ordinary seeds.
    #[test]
    fn seeds_that_once_lost_an_output_to_rewriting_pass() {
        for seed in [335u64, 1904, 2577] {
            let graph = random_fuzz_graph(seed, 12);
            let identity = graph.nodes().find(|n| n.op == OpKind::Identity);
            assert!(
                identity.is_some_and(|n| graph.outputs().contains(&n.inputs[0])
                    && graph.outputs().contains(&n.outputs[0])),
                "seed {seed} no longer draws an Identity between two outputs"
            );
            if let Err(failure) = check_seed(seed, 12) {
                panic!("{failure}");
            }
        }
    }

    /// The seeds CI's fuzz smoke steps run (`random_model` at the default
    /// 12 nodes over 0..400, and at 64 nodes over 1000..1200) plant every
    /// rule's motif and its near-miss, and the engine rewrites exactly the
    /// motifs.
    #[test]
    fn the_smoke_seeds_fire_and_refuse_every_rule() {
        use dnnf_core::rewrite::RewriteEngine;
        let engine = RewriteEngine::with_default_rules();
        let mut tally = MotifTally::new();
        let smoke = (0..400u64)
            .map(|s| (s, 12))
            .chain((1000..1200).map(|s| (s, 64)));
        for (seed, max_nodes) in smoke {
            let (graph, motifs) = planted_fuzz_graph(seed, max_nodes);
            let (_, applied) = engine.run(&graph);
            for outcome in motif_outcomes(&motifs, &applied) {
                assert_eq!(outcome.0.fires, outcome.1, "seed {seed}: {:?}", outcome.0);
                tally.add(outcome);
            }
        }
        assert_eq!(tally.unexercised(), Vec::<&str>::new(), "{tally}");
    }

    #[test]
    fn a_seed_range_passes_the_differential() {
        for seed in 0..4u64 {
            if let Err(failure) = check_seed(seed, 10) {
                panic!("{failure}");
            }
        }
    }
}
