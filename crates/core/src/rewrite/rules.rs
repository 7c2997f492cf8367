//! The rule table (paper Table 4 and Figure 2, plus the fusion-facilitating
//! simplifications) and its matchers.
//!
//! A matcher looks at one anchor node and either declines or returns the
//! `Match` it proposes; shape compatibility of the replacement, scoring and
//! the graph edit are the driver's job (see the module docs of
//! [`super`]). To add a rule, write its matcher, add a row to [`RULES`] and
//! an entry to the `cases()` table in this file's tests.

use dnnf_graph::{Graph, Node, ValueId};
use dnnf_ops::{infer_shapes, Attrs, OpKind};
use dnnf_tensor::Shape;

use super::Expr::{self, Old};
use super::RuleCategory::{Associative, Commutative, Distributive, Simplification};
use super::{Match, Rule};

const REORGANIZE_OPS: [OpKind; 4] = [
    OpKind::Reshape,
    OpKind::Flatten,
    OpKind::Squeeze,
    OpKind::Unsqueeze,
];

/// Every rewrite rule, in the order the engine tries them.
#[rustfmt::skip]
pub static RULES: [Rule; 12] = [
    Rule { name: "assoc.recip-mul", category: Associative, anchors: &[OpKind::Mul], find: recip_mul },
    Rule { name: "assoc.sqrt-pair", category: Associative, anchors: &[OpKind::Mul], find: sqrt_pair },
    Rule { name: "assoc.abs-mul", category: Associative, anchors: &[OpKind::Mul], find: abs_mul },
    Rule { name: "assoc.reducesum-square", category: Associative, anchors: &[OpKind::Mul], find: reducesum_square },
    Rule { name: "dist.mul-add-factor", category: Distributive, anchors: &[OpKind::Add], find: mul_add_factor },
    Rule { name: "dist.matmul-factor", category: Distributive, anchors: &[OpKind::Add], find: matmul_factor },
    Rule { name: "dist.square-sub", category: Distributive, anchors: &[OpKind::Sub], find: square_sub },
    Rule { name: "comm.bitshift-reducesum", category: Commutative, anchors: &[OpKind::ReduceSum], find: bitshift_reducesum },
    Rule { name: "comm.exp-reduceprod", category: Commutative, anchors: &[OpKind::ReduceProd], find: exp_reduceprod },
    Rule { name: "simplify.reorganize-chain", category: Simplification, anchors: &REORGANIZE_OPS, find: reorganize_chain },
    Rule { name: "simplify.transpose-pair", category: Simplification, anchors: &[OpKind::Transpose], find: transpose_pair },
    Rule { name: "simplify.identity", category: Simplification, anchors: &[OpKind::Identity], find: identity },
];

fn unary(op: OpKind, x: Expr) -> Expr {
    Expr::Op(op, Attrs::new(), vec![x])
}

fn binary(op: OpKind, x: Expr, y: Expr) -> Expr {
    Expr::Op(op, Attrs::new(), vec![x, y])
}

/// The match that deletes `anchor` and the producers `folded` into it, and
/// replaces the anchor's output.
fn replace(anchor: &Node, folded: &[&Node], replacement: Expr) -> Option<Match> {
    Some(Match {
        removed: std::iter::once(anchor)
            .chain(folded.iter().copied())
            .map(|n| n.id)
            .collect(),
        replaced: anchor.outputs[0],
        replacement,
    })
}

fn binary_inputs(node: &Node) -> Option<(ValueId, ValueId)> {
    match node.inputs[..] {
        [a, b] => Some((a, b)),
        _ => None,
    }
}

fn other_operand(node: &Node, v: ValueId) -> Option<ValueId> {
    let (a, b) = binary_inputs(node)?;
    if a == v {
        Some(b)
    } else if b == v {
        Some(a)
    } else {
        None
    }
}

fn producer(graph: &Graph, value: ValueId) -> Option<&Node> {
    graph.value(value).producer.map(|p| graph.node(p))
}

/// The producer of `value` if it has kind `op` and `value` has exactly one
/// consumer and is not a graph output — the precondition for folding the
/// producer into a rewrite.
fn foldable_producer(graph: &Graph, value: ValueId, op: OpKind) -> Option<&Node> {
    let single_use = graph.value(value).consumers.len() == 1 && !graph.outputs().contains(&value);
    producer(graph, value).filter(|node| node.op == op && single_use)
}

/// `Recip(A) ⊙ Recip(A ⊙ B)  →  Square(Recip(A)) ⊙ Recip(B)`
/// (Figure 2(a) / Table 4, Associative row 1). Same FLOPs, but `A` is loaded
/// once instead of twice and the intermediate `A ⊙ B` disappears.
fn recip_mul(graph: &Graph, mul: &Node) -> Option<Match> {
    let (x, y) = binary_inputs(mul)?;
    [(x, y), (y, x)].into_iter().find_map(|(plain, composed)| {
        let recip_a = foldable_producer(graph, plain, OpKind::Reciprocal)?;
        let recip_ab = foldable_producer(graph, composed, OpKind::Reciprocal)?;
        let inner = foldable_producer(graph, recip_ab.inputs[0], OpKind::Mul)?;
        let a = recip_a.inputs[0];
        let b = other_operand(inner, a)?;
        let square = unary(OpKind::Square, unary(OpKind::Reciprocal, Old(a)));
        let replacement = binary(OpKind::Mul, square, unary(OpKind::Reciprocal, Old(b)));
        replace(mul, &[recip_a, recip_ab, inner], replacement)
    })
}

/// Matches `Mul(Mul(A, S), Mul(S, C))` where `S` comes out of a `shared_op`
/// node and is read by exactly those two inner `Mul`s. Returns `A`, `S`'s
/// producer, `C` and the two inner `Mul`s.
fn shared_operand<'g>(
    graph: &'g Graph,
    mul: &Node,
    shared_op: OpKind,
) -> Option<(ValueId, &'g Node, ValueId, [&'g Node; 2])> {
    let (x, y) = binary_inputs(mul)?;
    let p = foldable_producer(graph, x, OpKind::Mul)?;
    let q = foldable_producer(graph, y, OpKind::Mul)?;
    let shared = p.inputs.iter().copied().find(|&s| {
        q.inputs.contains(&s)
            && producer(graph, s).is_some_and(|n| n.op == shared_op)
            && graph.value(s).consumers.len() == 2
            && !graph.outputs().contains(&s)
    })?;
    let (a, c) = (other_operand(p, shared)?, other_operand(q, shared)?);
    Some((a, producer(graph, shared)?, c, [p, q]))
}

/// `(A ⊙ √B) ⊙ (√B ⊙ C)  →  A ⊙ B ⊙ C` (Table 4, Associative row 2).
fn sqrt_pair(graph: &Graph, mul: &Node) -> Option<Match> {
    let (a, sqrt, c, [p, q]) = shared_operand(graph, mul, OpKind::Sqrt)?;
    let ab = binary(OpKind::Mul, Old(a), Old(sqrt.inputs[0]));
    replace(mul, &[p, q, sqrt], binary(OpKind::Mul, ab, Old(c)))
}

/// `(A ⊙ ReduceSum(B)) ⊙ (ReduceSum(B) ⊙ C) → A ⊙ Square(ReduceSum(B)) ⊙ C`
/// (Table 4, Associative row 4). The reduction itself is kept; its result is
/// squared once instead of being multiplied in twice.
fn reducesum_square(graph: &Graph, mul: &Node) -> Option<Match> {
    let (a, sum, c, [p, q]) = shared_operand(graph, mul, OpKind::ReduceSum)?;
    let square = unary(OpKind::Square, Old(sum.outputs[0]));
    let a_sq = binary(OpKind::Mul, Old(a), square);
    replace(mul, &[p, q], binary(OpKind::Mul, a_sq, Old(c)))
}

/// `Abs(A) ⊙ B ⊙ Abs(C)  →  Abs(A ⊙ C) ⊙ B` (Table 4, Associative row 3 —
/// commutativity swaps `B` and `Abs(C)` first, then associativity merges the
/// two `Abs`).
fn abs_mul(graph: &Graph, mul: &Node) -> Option<Match> {
    let (x, y) = binary_inputs(mul)?;
    [(x, y), (y, x)].into_iter().find_map(|(chain, abs_c)| {
        let abs_c = foldable_producer(graph, abs_c, OpKind::Abs)?;
        // The other operand must be Abs(A) ⊙ B.
        let inner = foldable_producer(graph, chain, OpKind::Mul)?;
        let abs_a = inner
            .inputs
            .iter()
            .find_map(|&v| foldable_producer(graph, v, OpKind::Abs))?;
        let b = other_operand(inner, abs_a.outputs[0])?;
        let ac = binary(OpKind::Mul, Old(abs_a.inputs[0]), Old(abs_c.inputs[0]));
        let replacement = binary(OpKind::Mul, unary(OpKind::Abs, ac), Old(b));
        replace(mul, &[inner, abs_a, abs_c], replacement)
    })
}

/// `A ⊙ C + A ⊙ B  →  A ⊙ (C + B)` (Table 4, Distributive row 1 /
/// Figure 2(b) element-wise case).
fn mul_add_factor(graph: &Graph, add: &Node) -> Option<Match> {
    let (x, y) = binary_inputs(add)?;
    let mul1 = foldable_producer(graph, x, OpKind::Mul)?;
    let mul2 = foldable_producer(graph, y, OpKind::Mul)?;
    let shared = *mul1.inputs.iter().find(|s| mul2.inputs.contains(s))?;
    let (o1, o2) = (other_operand(mul1, shared)?, other_operand(mul2, shared)?);
    let sum = binary(OpKind::Add, Old(o1), Old(o2));
    replace(add, &[mul1, mul2], binary(OpKind::Mul, Old(shared), sum))
}

/// `MatMul(A, B) + MatMul(A, C)  →  MatMul(A, B + C)` — the GEMM form of the
/// distributive property (Figure 2(b)), with a large #FLOPs reduction.
fn matmul_factor(graph: &Graph, add: &Node) -> Option<Match> {
    let (x, y) = binary_inputs(add)?;
    [OpKind::MatMul, OpKind::Gemm].into_iter().find_map(|op| {
        let mm1 = foldable_producer(graph, x, op)?;
        let mm2 = foldable_producer(graph, y, op)?;
        let ((a, b), (a2, c)) = (binary_inputs(mm1)?, binary_inputs(mm2)?);
        if a != a2 || mm1.attrs != mm2.attrs || graph.value(b).shape != graph.value(c).shape {
            return None;
        }
        let sum = binary(OpKind::Add, Old(b), Old(c));
        let product = Expr::Op(op, mm1.attrs.clone(), vec![Old(a), sum]);
        replace(add, &[mm1, mm2], product)
    })
}

/// `Square(X) − X ⊙ C  →  X ⊙ (X − C)` (Table 4, Distributive row 3, with
/// `X = A + B` in the paper's statement).
fn square_sub(graph: &Graph, sub: &Node) -> Option<Match> {
    let (x, y) = binary_inputs(sub)?;
    let square = foldable_producer(graph, x, OpKind::Square)?;
    let mul = foldable_producer(graph, y, OpKind::Mul)?;
    let s = square.inputs[0];
    let c = other_operand(mul, s)?;
    let diff = binary(OpKind::Sub, Old(s), Old(c));
    replace(sub, &[square, mul], binary(OpKind::Mul, Old(s), diff))
}

/// `ReduceSum(BitShift(A, s))  →  BitShift(ReduceSum(A), s)` (Table 4,
/// Commutative row 2 / Figure 2(c)): the shift is applied to the reduced
/// tensor instead of every element.
fn bitshift_reducesum(graph: &Graph, reduce: &Node) -> Option<Match> {
    let shift = foldable_producer(graph, reduce.inputs[0], OpKind::BitShift)?;
    let (a, s) = binary_inputs(shift)?;
    // The shift amount must be a scalar so it still broadcasts after the
    // reduction.
    if graph.value(s).shape.numel() != 1 {
        return None;
    }
    let sum = Expr::Op(OpKind::ReduceSum, reduce.attrs.clone(), vec![Old(a)]);
    let shifted = Expr::Op(OpKind::BitShift, shift.attrs.clone(), vec![sum, Old(s)]);
    replace(reduce, &[shift], shifted)
}

/// `ReduceProd(Exp(A))  →  Exp(ReduceSum(A))` (Table 4, Commutative row 3).
fn exp_reduceprod(graph: &Graph, reduce: &Node) -> Option<Match> {
    let exp = foldable_producer(graph, reduce.inputs[0], OpKind::Exp)?;
    let sum = Expr::Op(
        OpKind::ReduceSum,
        reduce.attrs.clone(),
        vec![Old(exp.inputs[0])],
    );
    replace(reduce, &[exp], unary(OpKind::Exp, sum))
}

/// Collapses a chain of two Reorganize operators (`Reshape`/`Flatten`/
/// `Squeeze`/`Unsqueeze`) into a single `Reshape` to the final shape —
/// removing a redundant intermediate copy. When the chain hands the source's
/// leading dimension through unchanged, the `Reshape` copies it from its
/// input (`0`) instead of baking it in, so a batch-polymorphic chain stays
/// batch-polymorphic.
fn reorganize_chain(graph: &Graph, second: &Node) -> Option<Match> {
    let first = REORGANIZE_OPS
        .iter()
        .find_map(|&op| foldable_producer(graph, second.inputs[0], op))?;
    let source = first.inputs[0];
    let result = &graph.value(second.outputs[0]).shape;
    let mut target: Vec<i64> = result.dims().iter().map(|&d| d as i64).collect();
    if keeps_leading_dim(first, second, &graph.value(source).shape, result) {
        target[0] = 0;
    }
    let attrs = Attrs::new().with_ints("shape", target);
    let reshape = Expr::Op(OpKind::Reshape, attrs, vec![Old(source)]);
    replace(second, &[first], reshape)
}

/// Whether `second ∘ first` maps a leading dimension `d` of `source` to a
/// leading dimension `d` of the result for other `d` too, not just at the
/// current shapes: re-infers the chain with the leading dimension bumped by
/// one and expects exactly that dimension of the result to follow.
fn keeps_leading_dim(first: &Node, second: &Node, source: &Shape, result: &Shape) -> bool {
    if source.rank() == 0 || result.rank() == 0 || source.dim(0) != result.dim(0) {
        return false;
    }
    let bump = |shape: &Shape| {
        let mut dims = shape.dims().to_vec();
        dims[0] += 1;
        Shape::new(dims)
    };
    infer_shapes(first.op, &first.attrs, &[bump(source)])
        .and_then(|mid| infer_shapes(second.op, &second.attrs, &mid))
        .is_ok_and(|out| out == [bump(result)])
}

/// Merges `Transpose(Transpose(x, p1), p2)` into a single `Transpose` (or
/// removes both when the composition is the identity).
fn transpose_pair(graph: &Graph, t2: &Node) -> Option<Match> {
    let t1 = foldable_producer(graph, t2.inputs[0], OpKind::Transpose)?;
    let source = t1.inputs[0];
    let rank = graph.value(source).shape.rank();
    let reversed: Vec<i64> = (0..rank as i64).rev().collect();
    let p1 = t1.attrs.ints_or("perm", &reversed);
    let p2 = t2.attrs.ints_or("perm", &reversed);
    if p1.len() != rank || p2.len() != rank {
        return None;
    }
    let composed = p2
        .iter()
        .map(|&i| p1.get(usize::try_from(i).ok()?).copied())
        .collect::<Option<Vec<i64>>>()?;
    let replacement = if composed.iter().copied().eq(0..rank as i64) {
        Old(source)
    } else {
        let attrs = Attrs::new().with_ints("perm", composed);
        Expr::Op(OpKind::Transpose, attrs, vec![Old(source)])
    };
    replace(t2, &[t1], replacement)
}

/// Removes an `Identity` node by rewiring its consumers to the source value.
fn identity(_graph: &Graph, node: &Node) -> Option<Match> {
    replace(node, &[], Old(node.inputs[0]))
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::rewrite::RewriteEngine;
    use dnnf_graph::ValueKind;
    use dnnf_ops::execute;
    use dnnf_tensor::Tensor;
    use std::collections::HashMap;

    /// Executes a graph with the reference kernels: graph inputs come from
    /// `input`, weights from their attached data.
    fn run_graph(graph: &Graph, input: fn(Shape) -> Tensor) -> Vec<Tensor> {
        let mut env: HashMap<ValueId, Tensor> = HashMap::new();
        for value in graph.values() {
            match value.kind {
                ValueKind::Input => env.insert(value.id, input(value.shape.clone())),
                ValueKind::Weight => {
                    env.insert(value.id, graph.weight_data(value.id).unwrap().clone())
                }
                _ => None,
            };
        }
        for node_id in graph.topo_order() {
            let node = graph.node(node_id);
            let ins: Vec<&Tensor> = node.inputs.iter().map(|v| &env[v]).collect();
            let outs = execute(node.op, &node.attrs, &ins).unwrap();
            env.extend(node.outputs.iter().copied().zip(outs));
        }
        graph.outputs().iter().map(|v| env[v].clone()).collect()
    }

    /// Strictly positive values, so `Reciprocal` and `Sqrt` stay finite.
    fn positive(shape: Shape) -> Tensor {
        Tensor::random(shape, 11).map(|v| v.abs() + 0.5)
    }

    /// Small non-negative integers: `BitShift` works on the integer
    /// interpretation, so its rule is exact only on integral data.
    fn integral(shape: Shape) -> Tensor {
        let data = (0..shape.numel()).map(|i| (i % 7) as f32).collect();
        Tensor::from_vec(shape, data).unwrap()
    }

    fn small(shape: Shape) -> Tensor {
        Tensor::random(shape, 9).map(|v| v * 0.1)
    }

    /// A graph under construction plus the shorthand the cases below share.
    struct Builder(Graph);

    impl Builder {
        fn new() -> (Self, ValueId) {
            Self::input(&[4, 4])
        }
        fn input(dims: &[usize]) -> (Self, ValueId) {
            let mut g = Graph::new("case");
            let a = g.add_input("A", Shape::new(dims.to_vec()));
            (Builder(g), a)
        }
        /// A positive weight with attached data.
        fn weight(&mut self, dims: &[usize]) -> ValueId {
            let seed = self.0.value_count() as u64;
            let data = Tensor::random(Shape::new(dims.to_vec()), seed).map(|v| v.abs() + 0.5);
            self.0.add_weight_with_data(format!("w{seed}"), data)
        }
        fn op(&mut self, op: OpKind, attrs: Attrs, inputs: &[ValueId]) -> ValueId {
            let name = format!("n{}", self.0.node_count());
            self.0.add_op(op, attrs, inputs, name).unwrap()[0]
        }
        fn un(&mut self, op: OpKind, x: ValueId) -> ValueId {
            self.op(op, Attrs::new(), &[x])
        }
        fn bin(&mut self, op: OpKind, x: ValueId, y: ValueId) -> ValueId {
            self.op(op, Attrs::new(), &[x, y])
        }
        fn outputs(mut self, outputs: Vec<ValueId>) -> Graph {
            for out in outputs {
                self.0.mark_output(out);
            }
            self.0
        }
    }

    fn count(graph: &Graph, op: OpKind) -> usize {
        graph.nodes().filter(|n| n.op == op).count()
    }

    fn reduce_axis1() -> Attrs {
        Attrs::new()
            .with_ints("axes", vec![1])
            .with_int("keepdims", 0)
    }

    /// The rewrite only moves data or reorders exact integer arithmetic:
    /// outputs are bit-identical.
    const EXACT: f32 = 0.0;
    /// The rewrite reassociates floating-point arithmetic: outputs agree to
    /// a few units in the last place of the largest output.
    const REASSOCIATED: f32 = 4.0 * f32::EPSILON;

    /// One rule's evidence: a graph it fires on, and a near-miss that differs
    /// from it by exactly one side-condition and must be left alone.
    pub(crate) struct Case {
        pub(crate) rule: &'static str,
        /// Largest output difference the rewrite may introduce, relative to
        /// the largest output magnitude: [`EXACT`] or [`REASSOCIATED`].
        tolerance: f32,
        input: fn(Shape) -> Tensor,
        /// `build(true)` is the firing graph, `build(false)` the near-miss.
        pub(crate) build: fn(bool) -> Graph,
        /// Rule-specific expectations on (original, rewritten) of the firing
        /// graph.
        check: fn(&Graph, &Graph),
    }

    pub(crate) fn cases() -> Vec<Case> {
        vec![
            Case {
                rule: "assoc.recip-mul",
                tolerance: REASSOCIATED,
                input: positive,
                // Near-miss: the inner A ⊙ B has a second consumer.
                build: |fires| {
                    let (mut g, a) = Builder::new();
                    let b = g.weight(&[4, 4]);
                    let recip_a = g.un(OpKind::Reciprocal, a);
                    let ab = g.bin(OpKind::Mul, a, b);
                    let recip_ab = g.un(OpKind::Reciprocal, ab);
                    let out = g.bin(OpKind::Mul, recip_a, recip_ab);
                    if fires {
                        return g.outputs(vec![out]);
                    }
                    let extra = g.un(OpKind::Relu, ab);
                    g.outputs(vec![out, extra])
                },
                check: |_, after| assert_eq!(count(after, OpKind::Square), 1),
            },
            Case {
                rule: "assoc.sqrt-pair",
                tolerance: REASSOCIATED,
                input: positive,
                // Near-miss: √B is also a graph output.
                build: |fires| {
                    let (mut g, a) = Builder::new();
                    let (b, c) = (g.weight(&[4, 4]), g.weight(&[4, 4]));
                    let sqrt = g.un(OpKind::Sqrt, b);
                    let p = g.bin(OpKind::Mul, a, sqrt);
                    let q = g.bin(OpKind::Mul, sqrt, c);
                    let out = g.bin(OpKind::Mul, p, q);
                    g.outputs(if fires { vec![out] } else { vec![out, sqrt] })
                },
                check: |before, after| {
                    assert!(after.stats().flops < before.stats().flops);
                    assert_eq!(count(after, OpKind::Sqrt), 0);
                },
            },
            Case {
                rule: "assoc.abs-mul",
                tolerance: REASSOCIATED,
                input: |shape| Tensor::random(shape, 4),
                // Near-miss: Abs(C) has a second consumer.
                build: |fires| {
                    let (mut g, a) = Builder::new();
                    let (b, c) = (g.weight(&[4, 4]), g.weight(&[4, 4]));
                    let abs_a = g.un(OpKind::Abs, a);
                    let m1 = g.bin(OpKind::Mul, abs_a, b);
                    let abs_c = g.un(OpKind::Abs, c);
                    let out = g.bin(OpKind::Mul, m1, abs_c);
                    if fires {
                        return g.outputs(vec![out]);
                    }
                    let extra = g.un(OpKind::Relu, abs_c);
                    g.outputs(vec![out, extra])
                },
                check: |before, after| {
                    assert!(after.stats().flops < before.stats().flops);
                    assert_eq!(count(after, OpKind::Abs), 1);
                },
            },
            Case {
                rule: "assoc.reducesum-square",
                tolerance: REASSOCIATED,
                input: positive,
                // Near-miss: ReduceSum(B) is also a graph output.
                build: |fires| {
                    let (mut g, a) = Builder::new();
                    let (b, c) = (g.weight(&[4, 4]), g.weight(&[4, 4]));
                    let keep = Attrs::new().with_ints("axes", vec![1]);
                    let sum = g.op(OpKind::ReduceSum, keep, &[b]);
                    let p = g.bin(OpKind::Mul, a, sum);
                    let q = g.bin(OpKind::Mul, sum, c);
                    let out = g.bin(OpKind::Mul, p, q);
                    g.outputs(if fires { vec![out] } else { vec![out, sum] })
                },
                check: |_, after| {
                    assert_eq!(count(after, OpKind::ReduceSum), 1);
                    assert_eq!(count(after, OpKind::Square), 1);
                },
            },
            Case {
                rule: "dist.mul-add-factor",
                tolerance: REASSOCIATED,
                input: positive,
                // Near-miss: the two products share no operand.
                build: |fires| {
                    let (mut g, a) = Builder::new();
                    let (b, c, d) = (g.weight(&[4, 4]), g.weight(&[4, 1]), g.weight(&[4, 4]));
                    let ac = g.bin(OpKind::Mul, a, c);
                    let xb = g.bin(OpKind::Mul, if fires { a } else { d }, b);
                    let out = g.bin(OpKind::Add, ac, xb);
                    g.outputs(vec![out])
                },
                check: |before, after| {
                    assert!(after.stats().flops < before.stats().flops);
                    assert_eq!(after.node_count(), 2);
                },
            },
            Case {
                rule: "dist.matmul-factor",
                tolerance: REASSOCIATED,
                input: positive,
                // Near-miss: the two Gemms disagree on `alpha`.
                build: |fires| {
                    let (mut g, a) = Builder::input(&[8, 16]);
                    let (b, c) = (g.weight(&[8, 16]), g.weight(&[8, 16]));
                    let attrs = |alpha| {
                        Attrs::new()
                            .with_int("transB", 1)
                            .with_float("alpha", alpha)
                    };
                    let ab = g.op(OpKind::Gemm, attrs(0.5), &[a, b]);
                    let ac = g.op(OpKind::Gemm, attrs(if fires { 0.5 } else { 2.0 }), &[a, c]);
                    let out = g.bin(OpKind::Add, ab, ac);
                    g.outputs(vec![out])
                },
                check: |before, after| {
                    // One Gemm instead of two, attributes intact: close to
                    // half the FLOPs.
                    assert!(after.stats().flops * 10 < before.stats().flops * 6);
                    let gemms: Vec<_> = after.nodes().filter(|n| n.op == OpKind::Gemm).collect();
                    assert_eq!(gemms.len(), 1);
                    assert_eq!(gemms[0].attrs.int_or("transB", 0), 1);
                    assert_eq!(gemms[0].attrs.float_or("alpha", 1.0), 0.5);
                },
            },
            Case {
                rule: "dist.square-sub",
                tolerance: REASSOCIATED,
                input: positive,
                // Near-miss: Square(X) is also a graph output.
                build: |fires| {
                    let (mut g, x) = Builder::new();
                    let c = g.weight(&[4, 4]);
                    let sq = g.un(OpKind::Square, x);
                    let xc = g.bin(OpKind::Mul, x, c);
                    let out = g.bin(OpKind::Sub, sq, xc);
                    g.outputs(if fires { vec![out] } else { vec![out, sq] })
                },
                check: |_, after| assert_eq!(count(after, OpKind::Square), 0),
            },
            Case {
                rule: "comm.bitshift-reducesum",
                tolerance: EXACT,
                input: integral,
                // Near-miss: a per-column shift amount instead of a scalar
                // (which on a square input still type-checks afterwards).
                build: |fires| {
                    let (mut g, a) = Builder::input(&[8, 8]);
                    let shift = Tensor::full(Shape::new(vec![if fires { 1 } else { 8 }]), 2.0);
                    let s = g.0.add_weight_with_data("S", shift);
                    let direction = Attrs::new().with_str("direction", "LEFT");
                    let shifted = g.op(OpKind::BitShift, direction, &[a, s]);
                    let out = g.op(OpKind::ReduceSum, reduce_axis1(), &[shifted]);
                    g.outputs(vec![out])
                },
                check: |before, after| {
                    assert!(after.stats().flops < before.stats().flops);
                    // The shift now consumes the reduced tensor, and is the
                    // same shift: its attributes came along.
                    let shift = after.nodes().find(|n| n.op == OpKind::BitShift).unwrap();
                    assert_eq!(after.value(shift.inputs[0]).shape.dims(), &[8]);
                    assert_eq!(shift.attrs.str_or("direction", ""), "LEFT");
                },
            },
            Case {
                rule: "comm.exp-reduceprod",
                tolerance: REASSOCIATED,
                input: small,
                // Near-miss: Exp(A) has a second consumer.
                build: |fires| {
                    let (mut g, a) = Builder::input(&[3, 5]);
                    let e = g.un(OpKind::Exp, a);
                    let out = g.op(OpKind::ReduceProd, reduce_axis1(), &[e]);
                    if fires {
                        return g.outputs(vec![out]);
                    }
                    let extra = g.un(OpKind::Relu, e);
                    g.outputs(vec![out, extra])
                },
                check: |_, after| {
                    assert_eq!(count(after, OpKind::ReduceSum), 1);
                    assert_eq!(count(after, OpKind::ReduceProd), 0);
                },
            },
            Case {
                rule: "simplify.reorganize-chain",
                tolerance: EXACT,
                input: positive,
                // Near-miss: the intermediate [6, 4] view is a graph output.
                build: |fires| {
                    let (mut g, x) = Builder::input(&[2, 3, 4]);
                    let to_6x4 = Attrs::new().with_ints("shape", vec![6, 4]);
                    let r1 = g.op(OpKind::Reshape, to_6x4, &[x]);
                    let r2 = g.op(
                        OpKind::Unsqueeze,
                        Attrs::new().with_ints("axes", vec![0]),
                        &[r1],
                    );
                    let relu = g.un(OpKind::Relu, r2);
                    g.outputs(if fires { vec![relu] } else { vec![relu, r1] })
                },
                check: |_, after| {
                    let reorganizers: Vec<_> = after
                        .nodes()
                        .filter(|n| REORGANIZE_OPS.contains(&n.op))
                        .collect();
                    assert_eq!(reorganizers.len(), 1);
                    // The leading 2 became 1: nothing to copy from the input.
                    assert_eq!(reorganizers[0].attrs.ints_or("shape", &[]), [1, 6, 4]);
                },
            },
            Case {
                rule: "simplify.transpose-pair",
                tolerance: EXACT,
                input: positive,
                // Near-miss: the inner transpose has a second consumer.
                build: |fires| {
                    let (mut g, x) = Builder::input(&[2, 3, 4]);
                    let perm = |p: [i64; 3]| Attrs::new().with_ints("perm", p.to_vec());
                    let t1 = g.op(OpKind::Transpose, perm([1, 2, 0]), &[x]);
                    let t2 = g.op(OpKind::Transpose, perm([2, 0, 1]), &[t1]);
                    let relu = g.un(OpKind::Relu, t2);
                    if fires {
                        return g.outputs(vec![relu]);
                    }
                    let extra = g.un(OpKind::Sigmoid, t1);
                    g.outputs(vec![relu, extra])
                },
                // The two permutations compose to the identity and vanish.
                check: |_, after| assert_eq!(count(after, OpKind::Transpose), 0),
            },
            Case {
                rule: "simplify.identity",
                tolerance: EXACT,
                input: positive,
                // Near-miss: the Identity's source is itself a graph output,
                // so rewiring would merge two outputs into one.
                build: |fires| {
                    let (mut g, x) = Builder::input(&[4]);
                    let relu = g.un(OpKind::Relu, x);
                    let id = g.un(OpKind::Identity, relu);
                    if !fires {
                        return g.outputs(vec![relu, id]);
                    }
                    let out = g.un(OpKind::Sigmoid, id);
                    g.outputs(vec![out])
                },
                check: |_, after| assert_eq!(after.node_count(), 2),
            },
        ]
    }

    #[test]
    fn every_rule_fires_on_its_pattern_and_spares_the_near_miss() {
        let engine = RewriteEngine::with_default_rules();
        let cases = cases();
        for rule in &RULES {
            let matching: Vec<_> = cases.iter().filter(|c| c.rule == rule.name).collect();
            assert_eq!(
                matching.len(),
                1,
                "rule `{}` needs one test case",
                rule.name
            );
        }
        assert_eq!(cases.len(), RULES.len(), "a case names no registered rule");

        for case in &cases {
            for fires in [true, false] {
                let what = format!("{} (fires = {fires})", case.rule);
                let graph = (case.build)(fires);
                let (rewritten, applied) = engine.run(&graph);
                assert_eq!(applied.iter().any(|a| a.rule == case.rule), fires, "{what}");

                let before = run_graph(&graph, case.input);
                let after = run_graph(&rewritten, case.input);
                assert_eq!(before.len(), after.len(), "{what}");
                for (b, a) in before.iter().zip(&after) {
                    let largest = b.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
                    let tolerance = case.tolerance * largest;
                    assert_eq!(b.first_disagreement(a, tolerance), None, "{what}");
                }
                assert!(applied.iter().all(|a| a.flops_saved >= 0), "{what}");
                assert!(rewritten.stats().flops <= graph.stats().flops, "{what}");
                assert_eq!(engine.run(&rewritten).1, [], "{what}: not a fixpoint");
                if fires {
                    (case.check)(&graph, &rewritten);
                }
            }
        }
    }

    /// `Flatten(axis = 0)` maps `[1, 4, 4]` to `[1, 16]` — the same leading
    /// dimension, by coincidence: at batch 3 it would produce `[1, 48]`, so
    /// the collapsed `Reshape` must not copy the leading dimension.
    #[test]
    fn reorganize_chain_only_copies_a_leading_dim_the_chain_preserves() {
        let collapsed_target = |flatten_axis: i64| {
            let (mut g, x) = Builder::input(&[1, 4, 4]);
            let flat = g.op(
                OpKind::Flatten,
                Attrs::new().with_int("axis", flatten_axis),
                &[x],
            );
            let out = g.op(
                OpKind::Unsqueeze,
                Attrs::new().with_ints("axes", vec![1]),
                &[flat],
            );
            let (rewritten, _) = RewriteEngine::with_default_rules().run(&g.outputs(vec![out]));
            let reshape = rewritten.nodes().find(|n| n.op == OpKind::Reshape).unwrap();
            reshape.attrs.ints_or("shape", &[])
        };
        assert_eq!(collapsed_target(1), [0, 1, 16]);
        assert_eq!(collapsed_target(0), [1, 1, 16]);
    }
}
