//! Rebound plan instances: the test oracle for shape-generic kernels.
//!
//! A [`FusionPlan`](crate::FusionPlan) stores node *groupings*, not shapes:
//! which operators fuse into which block is decided by operator kinds,
//! mapping types and data-flow topology, none of which change when a
//! symbolic dimension — the batch size or a marked sequence length (see
//! [`DimBinding`]) — does; neither do the execution order and buffer deaths
//! the plan carries, which are built from ids alone. The kernels compiled
//! from it keep no shapes either: every step takes its extents from the
//! tensors it runs on, so the model's own [`CompiledPlan`] runs at any
//! binding and nothing is compiled per batch size or KV-cache length.
//!
//! [`CompiledModel::instance_for`] builds what a per-binding compiler would:
//! the model's graph rebound to the requested dimensions ([`Graph::rebind`])
//! and its plan compiled against those shapes ([`compile_plan`]). Nothing
//! caches it and no run path uses it; it is the oracle the differential
//! tests compare the shape-generic run with.

use dnnf_graph::{DimBinding, Graph};

use crate::exec::{compile_plan, CompiledPlan};
use crate::{CompiledModel, CoreError};

/// One binding's view of a compiled model: the model's (rewritten) graph
/// rebound via [`Graph::rebind`] plus the fusion plan compiled to kernels
/// against those shapes.
///
/// Node and value ids are identical to the parent model's graph, so the
/// parent's fusion plan (with the execution order and buffer deaths it
/// carries) and weight store apply unchanged; only shapes differ.
#[derive(Debug)]
pub struct PlanInstance {
    graph: Graph,
    engine: CompiledPlan,
}

impl PlanInstance {
    /// The rebound graph (same ids as the parent model's graph).
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The plan compiled to kernels against the rebound graph.
    #[must_use]
    pub fn engine(&self) -> &CompiledPlan {
        &self.engine
    }
}

impl CompiledModel {
    /// Builds a [`PlanInstance`] of this model for the given binding: shape
    /// inference over the whole graph ([`Graph::rebind`]) and fused code
    /// generation of every block, reusing this model's fusion plan verbatim
    /// (no plan search). Every call rebuilds; no run path needs it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Graph`] when the graph cannot be rebound (a
    /// value of 0, a dimension the graph's inputs do not share, or an
    /// operator whose attributes bake in the native value).
    pub fn instance_for(&self, binding: DimBinding) -> Result<PlanInstance, CoreError> {
        let graph = self.graph().rebind(binding)?;
        let engine = compile_plan(&graph, &self.plan);
        Ok(PlanInstance { graph, engine })
    }

    /// [`CompiledModel::instance_for`] with only the batch size bound.
    pub fn instance_for_batch(&self, batch: usize) -> Result<PlanInstance, CoreError> {
        self.instance_for(DimBinding::batch(batch))
    }

    /// [`CompiledModel::instance_for`] with only the sequence length bound.
    pub fn instance_for_seq(&self, seq_len: usize) -> Result<PlanInstance, CoreError> {
        self.instance_for(DimBinding::seq(seq_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, CompilerOptions};
    use dnnf_ops::{Attrs, OpKind};
    use dnnf_tensor::Shape;

    /// Single-query attention scores over a marked-length KV cache.
    fn tiny_seq_model() -> Graph {
        let mut g = Graph::new("tiny-seq");
        let q = g.add_input("q", Shape::new(vec![2, 1, 8]));
        let past = g.add_input("past", Shape::new(vec![2, 4, 8]));
        g.mark_seq_axis(past, 1).unwrap();
        let kt = g
            .add_op(
                OpKind::Transpose,
                Attrs::new().with_ints("perm", vec![0, 2, 1]),
                &[past],
                "kt",
            )
            .unwrap()[0];
        let scores = g
            .add_op(OpKind::MatMul, Attrs::new(), &[q, kt], "scores")
            .unwrap()[0];
        let act = g
            .add_op(OpKind::Relu, Attrs::new(), &[scores], "act")
            .unwrap()[0];
        g.mark_output(act);
        g
    }

    fn compiled() -> CompiledModel {
        Compiler::new(CompilerOptions::default())
            .compile(&tiny_seq_model())
            .unwrap()
    }

    fn both(n: usize) -> DimBinding {
        DimBinding {
            batch: Some(n),
            seq: Some(n + 1),
        }
    }

    /// The three ways to bind the model, each from one number.
    const CASES: [fn(usize) -> DimBinding; 3] = [DimBinding::batch, DimBinding::seq, both];

    #[test]
    fn rebinding_errors_propagate() {
        for bind in CASES {
            assert!(matches!(
                compiled().instance_for(bind(0)),
                Err(CoreError::Graph(_))
            ));
        }
        // Unmarked models rebatch (weights are batch-free) but cannot
        // produce seq instances.
        let mut g = Graph::new("unmarked");
        let x = g.add_input("x", Shape::new(vec![1, 8]));
        let w = g.add_weight("w", Shape::new(vec![8, 4]));
        let y = g
            .add_op(OpKind::MatMul, Attrs::new(), &[x, w], "proj")
            .unwrap()[0];
        let z = g.add_op(OpKind::Relu, Attrs::new(), &[y], "act").unwrap()[0];
        g.mark_output(z);
        let model = Compiler::new(CompilerOptions::default())
            .compile(&g)
            .unwrap();
        let native = model.graph().binding();
        assert_eq!((native.batch, native.seq), (Some(1), None));
        assert!(matches!(
            model.instance_for_seq(2),
            Err(CoreError::Graph(_))
        ));
        let b4 = model.instance_for_batch(4).unwrap();
        assert_eq!(b4.graph().binding().batch, Some(4));
        let out = b4.graph().outputs()[0];
        assert_eq!(b4.graph().value(out).shape.dims(), &[4, 4]);
    }
}
