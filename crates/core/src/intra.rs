//! Intra-block optimization: data-movement operator elimination (paper
//! §4.4.2, Figure 5).
//!
//! Inside a fusion block, operators of the Shuffle/Reorganize classes (and
//! pure data-selection operators such as `Slice`) whose result feeds exactly
//! one consumer *within the same block* do not need to materialize anything:
//! the consumer can read the producer's data through a transformed index.
//! This pass identifies those operators and reports the intermediate bytes
//! they no longer have to write.

use dnnf_graph::NodeId;

use crate::{Ecg, FusionPlan};

/// Result of the data-movement elimination pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DataMovementElimination {
    /// Nodes replaced by index transforms.
    pub eliminated_nodes: Vec<NodeId>,
    /// Intermediate-result bytes that no longer need to be written and
    /// re-read.
    pub bytes_saved: u64,
}

impl DataMovementElimination {
    /// Number of eliminated data-movement operators.
    #[must_use]
    pub fn count(&self) -> usize {
        self.eliminated_nodes.len()
    }
}

/// Runs the intra-block data-movement elimination over a fusion plan.
#[must_use]
pub fn eliminate_data_movement(ecg: &Ecg, plan: &FusionPlan) -> DataMovementElimination {
    let graph = ecg.graph();
    let mut result = DataMovementElimination::default();
    for block in plan.blocks() {
        if block.len() < 2 {
            continue;
        }
        for &n in &block.nodes {
            let node = graph.node(n);
            if !node.op.is_data_movement() {
                continue;
            }
            // Every output must have exactly one consumer, inside this block,
            // and must not be a graph output (Figure 5: "the transformed data
            // is used by only one subsequent operator").
            let removable = node.outputs.iter().all(|&out| {
                let v = graph.value(out);
                v.consumers.len() == 1
                    && !graph.outputs().contains(&out)
                    && v.consumers.iter().all(|&c| plan.block_of(c) == block.id)
            });
            if removable {
                result.eliminated_nodes.push(n);
                result.bytes_saved += node
                    .outputs
                    .iter()
                    .map(|&out| graph.value(out).size_bytes() as u64)
                    .sum::<u64>();
            }
        }
    }
    result
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

    #[test]
    fn transpose_feeding_single_consumer_in_block_is_eliminated() {
        // Relu -> Transpose -> Sigmoid : all one block, the Transpose's output
        // feeds exactly one in-block consumer.
        let mut g = Graph::new("t");
        let x = g.add_input("x", Shape::new(vec![2, 3, 4]));
        let r = g.add_op(OpKind::Relu, Attrs::new(), &[x], "relu").unwrap()[0];
        let t = g
            .add_op(
                OpKind::Transpose,
                Attrs::new().with_ints("perm", vec![0, 2, 1]),
                &[r],
                "tr",
            )
            .unwrap()[0];
        let s = g
            .add_op(OpKind::Sigmoid, Attrs::new(), &[t], "sig")
            .unwrap()[0];
        g.mark_output(s);
        let (ecg, plan) = plan_for(&g);
        assert_eq!(plan.fused_layer_count(), 1);
        let elim = eliminate_data_movement(&ecg, &plan);
        assert_eq!(elim.count(), 1);
        assert_eq!(elim.bytes_saved, 2 * 3 * 4 * 4);
    }

    #[test]
    fn graph_output_data_movement_is_not_eliminated() {
        let mut g = Graph::new("t-out");
        let x = g.add_input("x", Shape::new(vec![2, 3]));
        let r = g.add_op(OpKind::Relu, Attrs::new(), &[x], "relu").unwrap()[0];
        let t = g
            .add_op(
                OpKind::Transpose,
                Attrs::new().with_ints("perm", vec![1, 0]),
                &[r],
                "tr",
            )
            .unwrap()[0];
        g.mark_output(t);
        let (ecg, plan) = plan_for(&g);
        let elim = eliminate_data_movement(&ecg, &plan);
        assert_eq!(elim.count(), 0);
    }

    #[test]
    fn multi_consumer_data_movement_survives() {
        // The Transpose output is consumed twice — the data locality benefit
        // may outweigh elimination, so the pass must keep it.
        let mut g = Graph::new("fanout");
        let x = g.add_input("x", Shape::new(vec![2, 3]));
        let r = g.add_op(OpKind::Relu, Attrs::new(), &[x], "relu").unwrap()[0];
        let t = g
            .add_op(
                OpKind::Transpose,
                Attrs::new().with_ints("perm", vec![1, 0]),
                &[r],
                "tr",
            )
            .unwrap()[0];
        let a = g
            .add_op(OpKind::Sigmoid, Attrs::new(), &[t], "sig")
            .unwrap()[0];
        let b = g.add_op(OpKind::Tanh, Attrs::new(), &[t], "tanh").unwrap()[0];
        let add = g.add_op(OpKind::Add, Attrs::new(), &[a, b], "add").unwrap()[0];
        g.mark_output(add);
        let (ecg, plan) = plan_for(&g);
        let elim = eliminate_data_movement(&ecg, &plan);
        assert!(elim
            .eliminated_nodes
            .iter()
            .all(|&n| g.node(n).op != OpKind::Transpose));
    }

    #[test]
    fn singleton_blocks_are_untouched() {
        let mut g = Graph::new("lonely");
        let x = g.add_input("x", Shape::new(vec![4, 4]));
        let t = g
            .add_op(
                OpKind::Transpose,
                Attrs::new().with_ints("perm", vec![1, 0]),
                &[x],
                "tr",
            )
            .unwrap()[0];
        g.mark_output(t);
        let (ecg, plan) = plan_for(&g);
        let elim = eliminate_data_movement(&ecg, &plan);
        assert_eq!(elim.count(), 0);
        assert_eq!(elim.bytes_saved, 0);
    }
}
