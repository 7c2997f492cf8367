//! Inter-block optimization: global data-format (layout) selection (paper
//! §4.4.2).
//!
//! Without fusion, each operator picks its own preferred layout, which can
//! force a conversion on every producer/consumer edge whose preferences
//! differ. DNNFusion instead picks one layout per fusion block — that of the
//! block's *dominant* operator — and only converts at block boundaries.

use dnnf_ops::MappingType;
use dnnf_tensor::Layout;

use crate::{Ecg, FusionBlock, FusionPlan};

/// Result of the inter-block layout selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutDecision {
    /// Chosen layout per block (indexed by block id).
    pub block_layouts: Vec<Layout>,
    /// Layout conversions still required between blocks after fusion.
    pub conversions_with_fusion: usize,
    /// Layout conversions an operator-at-a-time layout policy would perform
    /// (conversions on every edge between operators with conflicting
    /// preferences).
    pub conversions_without_fusion: usize,
}

impl LayoutDecision {
    /// Conversions avoided thanks to the block-level layout policy.
    #[must_use]
    pub fn conversions_avoided(&self) -> usize {
        self.conversions_without_fusion
            .saturating_sub(self.conversions_with_fusion)
    }
}

/// The layout heuristic applied per block: the preferred layout of the
/// dominant operator — the layout-sensitive member with the most output
/// bytes, a cheap proxy for "performance impacted the most" (paper §4.4.2).
pub(crate) fn select_layout(ecg: &Ecg, block: &FusionBlock) -> Layout {
    let graph = ecg.graph();
    block
        .nodes
        .iter()
        .filter(|&&n| graph.node(n).op.is_layout_dominant())
        .max_by_key(|&&n| ecg.node_info(n).output_bytes)
        .and_then(|&n| graph.node(n).op.preferred_layout())
        .or_else(|| {
            block
                .nodes
                .iter()
                .find_map(|&n| graph.node(n).op.preferred_layout())
        })
        .unwrap_or_default()
}

/// Selects a layout for every block and counts the conversions required with
/// and without fusion-aware layout selection.
#[must_use]
pub fn select_block_layouts(ecg: &Ecg, plan: &FusionPlan) -> LayoutDecision {
    let graph = ecg.graph();
    let blocks = plan.blocks().iter();
    let block_layouts: Vec<Layout> = blocks.map(|block| select_layout(ecg, block)).collect();

    // Conversions after fusion: block-boundary edges with differing layouts,
    // ignoring edges into blocks that are layout-agnostic (pure One-to-One).
    let mut conversions_with_fusion = 0usize;
    for node in graph.nodes() {
        let from_block = plan.block_of(node.id);
        for succ in graph.successors(node.id) {
            let to_block = plan.block_of(succ);
            if from_block == to_block {
                continue;
            }
            let to_sensitive = plan.blocks()[to_block]
                .nodes
                .iter()
                .any(|&n| graph.node(n).op.preferred_layout().is_some());
            if to_sensitive
                && block_layouts[from_block].conversion_required(block_layouts[to_block])
            {
                conversions_with_fusion += 1;
            }
        }
    }

    // Conversions without fusion: every producer/consumer edge where both
    // operators have explicit, conflicting preferences, plus edges where a
    // layout-sensitive consumer follows a Shuffle/Reorganize producer (the
    // "redundant transformation" case the paper calls out).
    let mut conversions_without_fusion = 0usize;
    for node in graph.nodes() {
        let from_pref = graph.node(node.id).op.preferred_layout();
        for succ in graph.successors(node.id) {
            let to_pref = graph.node(succ).op.preferred_layout();
            match (from_pref, to_pref) {
                (Some(a), Some(b)) if a.conversion_required(b) => conversions_without_fusion += 1,
                (None, Some(_))
                    if matches!(
                        ecg.mapping_type(node.id),
                        MappingType::Shuffle | MappingType::Reorganize
                    ) =>
                {
                    conversions_without_fusion += 1;
                }
                _ => {}
            }
        }
    }

    LayoutDecision {
        block_layouts,
        conversions_with_fusion,
        conversions_without_fusion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalyticLatencyModel, FusionPlanner};
    use dnnf_graph::Graph;
    use dnnf_ops::{Attrs, OpKind};
    use dnnf_profiledb::ProfileDatabase;
    use dnnf_tensor::Shape;

    fn plan_for(graph: &Graph) -> (Ecg, FusionPlan) {
        let ecg = Ecg::new(graph.clone());
        let model = AnalyticLatencyModel::default();
        let planner = FusionPlanner::new(&ecg, &model);
        let mut db = ProfileDatabase::new();
        let plan = planner.plan(&mut db).unwrap();
        (ecg, plan)
    }

    /// Conv -> Relu -> Reshape -> MatMul -> Softmax: the conv prefers NCHW
    /// and the matmul/softmax prefer row-major.
    fn mixed_graph() -> Graph {
        let mut g = Graph::new("mixed");
        let x = g.add_input("x", Shape::new(vec![1, 8, 8, 8]));
        let w = g.add_weight("w", Shape::new(vec![8, 8, 3, 3]));
        let c = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w],
                "conv",
            )
            .unwrap()[0];
        let r = g.add_op(OpKind::Relu, Attrs::new(), &[c], "relu").unwrap()[0];
        let f = g
            .add_op(
                OpKind::Reshape,
                Attrs::new().with_ints("shape", vec![1, -1]),
                &[r],
                "reshape",
            )
            .unwrap()[0];
        let fcw = g.add_weight("fc", Shape::new(vec![512, 16]));
        let m = g
            .add_op(OpKind::MatMul, Attrs::new(), &[f, fcw], "fc")
            .unwrap()[0];
        let s = g
            .add_op(OpKind::Softmax, Attrs::new(), &[m], "softmax")
            .unwrap()[0];
        g.mark_output(s);
        g
    }

    #[test]
    fn block_layouts_follow_dominant_operators() {
        let g = mixed_graph();
        let (ecg, plan) = plan_for(&g);
        let decision = select_block_layouts(&ecg, &plan);
        assert_eq!(decision.block_layouts.len(), plan.fused_layer_count());
        // The block holding the conv uses NCHW; the block holding the matmul
        // uses row-major.
        let conv = g.nodes().find(|n| n.op == OpKind::Conv).unwrap().id;
        let mm = g.nodes().find(|n| n.op == OpKind::MatMul).unwrap().id;
        assert_eq!(decision.block_layouts[plan.block_of(conv)], Layout::Nchw);
        assert_eq!(decision.block_layouts[plan.block_of(mm)], Layout::RowMajor);
    }

    #[test]
    fn fusion_reduces_layout_conversions() {
        let g = mixed_graph();
        let (ecg, plan) = plan_for(&g);
        let decision = select_block_layouts(&ecg, &plan);
        assert!(decision.conversions_with_fusion <= decision.conversions_without_fusion);
        assert_eq!(
            decision.conversions_avoided(),
            decision.conversions_without_fusion - decision.conversions_with_fusion
        );
    }

    #[test]
    fn elementwise_only_graph_needs_no_conversions() {
        let mut g = Graph::new("eltwise");
        let mut v = g.add_input("x", Shape::new(vec![16]));
        for i in 0..3 {
            v = g
                .add_op(OpKind::Relu, Attrs::new(), &[v], format!("r{i}"))
                .unwrap()[0];
        }
        g.mark_output(v);
        let (ecg, plan) = plan_for(&g);
        let decision = select_block_layouts(&ecg, &plan);
        assert_eq!(decision.conversions_with_fusion, 0);
        assert_eq!(decision.conversions_without_fusion, 0);
        assert!(decision
            .block_layouts
            .iter()
            .all(|&l| l == Layout::RowMajor));
    }
}
