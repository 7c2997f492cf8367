//! A TASO-like graph-substitution pass (used by the Figure 6 comparison).
//!
//! TASO optimizes computational graphs by applying automatically generated
//! algebraic substitutions, but — as the paper argues — it "does not
//! emphasize the relationship between graph rewriting and fusion". This
//! stand-in applies the same *algebraic* rules DNNFusion uses (associative,
//! distributive, commutative) while leaving out the fusion-facilitating
//! structural simplifications, and it performs no fusion itself: the
//! optimized graph is handed to a fixed-pattern baseline for execution, just
//! like the paper runs TASO-optimized models under TFLite.

use dnnf_core::rewrite::{RewriteEngine, RuleCategory, RULES};
use dnnf_graph::Graph;

/// Applies the TASO-like substitution pass, returning the optimized graph and
/// the number of substitutions applied.
#[must_use]
pub fn taso_optimize(graph: &Graph) -> (Graph, usize) {
    let algebraic = RULES
        .iter()
        .filter(|r| r.category != RuleCategory::Simplification);
    let engine = RewriteEngine::new(algebraic.collect());
    let (optimized, applied) = engine.run(graph);
    (optimized, applied.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnf_ops::{Attrs, OpKind};
    use dnnf_tensor::Shape;

    #[test]
    fn taso_applies_algebraic_substitutions() {
        // A ⊙ C + A ⊙ B is an algebraic substitution TASO finds.
        let mut g = Graph::new("algebra");
        let a = g.add_input("A", Shape::new(vec![8, 8]));
        let b = g.add_weight("B", Shape::new(vec![8, 8]));
        let c = g.add_weight("C", Shape::new(vec![8, 8]));
        let ac = g.add_op(OpKind::Mul, Attrs::new(), &[a, c], "ac").unwrap()[0];
        let ab = g.add_op(OpKind::Mul, Attrs::new(), &[a, b], "ab").unwrap()[0];
        let out = g
            .add_op(OpKind::Add, Attrs::new(), &[ac, ab], "sum")
            .unwrap()[0];
        g.mark_output(out);
        let (optimized, applied) = taso_optimize(&g);
        assert_eq!(applied, 1);
        assert!(optimized.stats().flops < g.stats().flops);
    }

    #[test]
    fn taso_skips_structure_only_cleanups() {
        // An Identity + Reshape/Reshape chain is a structural cleanup that
        // DNNFusion's rewriting removes but the TASO-like pass leaves alone.
        let mut g = Graph::new("structure");
        let x = g.add_input("X", Shape::new(vec![2, 3, 4]));
        let id = g
            .add_op(OpKind::Identity, Attrs::new(), &[x], "id")
            .unwrap()[0];
        let r1 = g
            .add_op(
                OpKind::Reshape,
                Attrs::new().with_ints("shape", vec![6, 4]),
                &[id],
                "r1",
            )
            .unwrap()[0];
        let r2 = g
            .add_op(
                OpKind::Reshape,
                Attrs::new().with_ints("shape", vec![24]),
                &[r1],
                "r2",
            )
            .unwrap()[0];
        g.mark_output(r2);
        let (optimized, applied) = taso_optimize(&g);
        assert_eq!(applied, 0);
        assert_eq!(optimized.node_count(), g.node_count());
    }
}
