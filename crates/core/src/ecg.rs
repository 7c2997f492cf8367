//! The Extended Computational Graph (ECG).
//!
//! The ECG is the paper's IR: the plain computational graph plus, per node,
//! its mapping type (refined with shape information), its mathematical
//! properties and whether it is compute-intensive. The paper's per-value
//! `IR_removable` flag depends on the fusion plan, so it lives there: a
//! produced value is removable exactly when its
//! [`FusionPlan::lifetime`](crate::FusionPlan::lifetime) is `None`.

use dnnf_graph::{Graph, NodeId};
use dnnf_ops::{MappingType, MathProperties, OpKind};
use dnnf_tensor::Shape;

/// Per-node information stored in the ECG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcgNodeInfo {
    /// Mapping type of the operator, refined with the node's actual shapes
    /// (an element-wise operator with broadcasting becomes One-to-Many).
    pub mapping_type: MappingType,
    /// Mathematical properties used by the rewriting pass.
    pub properties: MathProperties,
    /// Whether the node is a compute-intensive layer.
    pub compute_intensive: bool,
    /// Total size in bytes of the node's outputs (its intermediate results).
    pub output_bytes: u64,
}

/// The Extended Computational Graph: a [`Graph`] plus fusion-related
/// annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecg {
    graph: Graph,
    info: Vec<EcgNodeInfo>,
}

impl Ecg {
    /// Builds the ECG for a graph, computing every annotation.
    #[must_use]
    pub fn new(graph: Graph) -> Self {
        let mut info = Vec::with_capacity(graph.node_count());
        for node in graph.nodes() {
            let input_shapes: Vec<Shape> = node
                .inputs
                .iter()
                .map(|&id| graph.value(id).shape.clone())
                .collect();
            let output_shape = node
                .outputs
                .first()
                .map(|&id| graph.value(id).shape.clone())
                .unwrap_or_else(Shape::scalar);
            let output_bytes: u64 = node
                .outputs
                .iter()
                .map(|&id| graph.value(id).size_bytes() as u64)
                .sum();
            info.push(EcgNodeInfo {
                mapping_type: node
                    .op
                    .mapping_type_with_shapes(&input_shapes, &output_shape),
                properties: node.op.math_properties(),
                compute_intensive: node.op.is_compute_intensive(),
                output_bytes,
            });
        }
        Ecg { graph, info }
    }

    /// The underlying computational graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Per-node annotations.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    #[must_use]
    pub fn node_info(&self, id: NodeId) -> &EcgNodeInfo {
        &self.info[id.index()]
    }

    /// Shorthand for the node's mapping type.
    #[must_use]
    pub fn mapping_type(&self, id: NodeId) -> MappingType {
        self.info[id.index()].mapping_type
    }

    /// Operators that participate in graph rewriting even though they carry
    /// none of the three algebraic properties themselves — the unary
    /// operators appearing in the paper's Table 4 rules.
    #[must_use]
    pub fn is_rewrite_participant(op: OpKind) -> bool {
        matches!(
            op,
            OpKind::Reciprocal
                | OpKind::Sqrt
                | OpKind::Square
                | OpKind::Abs
                | OpKind::Exp
                | OpKind::BitShift
                | OpKind::ReduceSum
                | OpKind::ReduceProd
                | OpKind::Sub
                | OpKind::Identity
                | OpKind::Reshape
                | OpKind::Flatten
                | OpKind::Squeeze
                | OpKind::Unsqueeze
                | OpKind::Transpose
        ) || op.math_properties().any()
    }

    /// Partitions the graph for the rewriting pass (paper §4.2): operators
    /// carrying none of the associative/commutative/distributive properties
    /// (and not otherwise participating in rewrite rules) act as partitioning
    /// points; each returned partition is a connected set of participating
    /// nodes inside which rule matching is exhaustive.
    #[must_use]
    pub fn rewrite_partitions(graph: &Graph) -> Vec<Vec<NodeId>> {
        // Non-participants start out visited, so no fill enters them.
        let mut visited: Vec<bool> = graph
            .nodes()
            .map(|n| !Self::is_rewrite_participant(n.op))
            .collect();
        let mut partitions = Vec::new();
        let mut stack = Vec::new();
        for node in graph.nodes() {
            if visited[node.id.index()] {
                continue;
            }
            // Flood fill across participating neighbours: the producers of a
            // node's inputs and the consumers of its outputs.
            visited[node.id.index()] = true;
            stack.push(node.id);
            let mut component = Vec::new();
            while let Some(cur) = stack.pop() {
                component.push(cur);
                let cur = graph.node(cur);
                let producers = cur.inputs.iter().filter_map(|&v| graph.value(v).producer);
                let consumers = cur.outputs.iter().flat_map(|&v| &graph.value(v).consumers);
                for next in producers.chain(consumers.copied()) {
                    if !std::mem::replace(&mut visited[next.index()], true) {
                        stack.push(next);
                    }
                }
            }
            component.sort_unstable();
            partitions.push(component);
        }
        partitions
    }

    /// All nodes whose mapping type is One-to-One — the fusion seed
    /// candidates of the plan-generation algorithm.
    #[must_use]
    pub fn one_to_one_nodes(&self) -> Vec<NodeId> {
        self.graph
            .nodes()
            .filter(|n| self.mapping_type(n.id) == MappingType::OneToOne)
            .map(|n| n.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnf_ops::Attrs;

    fn sample_graph() -> Graph {
        // x -> Conv -> Add(bias broadcast) -> Relu -> Transpose -> out
        let mut g = Graph::new("sample");
        let x = g.add_input("x", Shape::new(vec![1, 4, 8, 8]));
        let w = g.add_weight("w", Shape::new(vec![4, 4, 3, 3]));
        let conv = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w],
                "conv",
            )
            .unwrap()[0];
        let bias = g.add_weight("b", Shape::new(vec![1, 4, 1, 1]));
        let add = g
            .add_op(OpKind::Add, Attrs::new(), &[conv, bias], "bias")
            .unwrap()[0];
        let relu = g
            .add_op(OpKind::Relu, Attrs::new(), &[add], "relu")
            .unwrap()[0];
        let tr = g
            .add_op(
                OpKind::Transpose,
                Attrs::new().with_ints("perm", vec![0, 2, 3, 1]),
                &[relu],
                "t",
            )
            .unwrap()[0];
        g.mark_output(tr);
        g
    }

    #[test]
    fn node_info_reflects_shapes_and_ops() {
        let ecg = Ecg::new(sample_graph());
        assert_eq!(ecg.mapping_type(NodeId_from(0)), MappingType::ManyToMany); // Conv
                                                                               // Add with a broadcast bias is One-to-Many per Table 2's
                                                                               // "Elementwise w/ broadcast" row.
        assert_eq!(ecg.mapping_type(NodeId_from(1)), MappingType::OneToMany);
        assert_eq!(ecg.mapping_type(NodeId_from(2)), MappingType::OneToOne); // Relu
        assert_eq!(ecg.mapping_type(NodeId_from(3)), MappingType::Shuffle); // Transpose
        assert!(ecg.node_info(NodeId_from(0)).compute_intensive);
        assert!(!ecg.node_info(NodeId_from(2)).compute_intensive);
        assert!(ecg.node_info(NodeId_from(2)).output_bytes > 0);
    }

    #[test]
    fn one_to_one_nodes_are_seed_candidates() {
        let ecg = Ecg::new(sample_graph());
        let seeds = ecg.one_to_one_nodes();
        assert_eq!(seeds, vec![NodeId_from(2)]);
    }

    #[test]
    fn rewrite_partitions_group_property_carrying_neighbours() {
        // Recip -> Mul -> Relu -> Mul : Relu splits the two Muls only if Relu
        // does not participate; Relu has no properties and is not a
        // participant, so we get two partitions.
        let mut g = Graph::new("partitions");
        let x = g.add_input("x", Shape::new(vec![8]));
        let r = g
            .add_op(OpKind::Reciprocal, Attrs::new(), &[x], "recip")
            .unwrap()[0];
        let m1 = g
            .add_op(OpKind::Mul, Attrs::new(), &[r, x], "mul1")
            .unwrap()[0];
        let act = g.add_op(OpKind::Relu, Attrs::new(), &[m1], "relu").unwrap()[0];
        let m2 = g
            .add_op(OpKind::Mul, Attrs::new(), &[act, x], "mul2")
            .unwrap()[0];
        g.mark_output(m2);
        let parts = Ecg::rewrite_partitions(&g);
        assert_eq!(parts.len(), 2);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert!(sizes.contains(&2)); // {Recip, Mul1}
        assert!(sizes.contains(&1)); // {Mul2}
    }

    /// The flood fill as it was written first — per-node neighbour lists
    /// and a sorted set per component — as the oracle for the index-based
    /// pass.
    fn reference_partitions(graph: &Graph) -> Vec<Vec<NodeId>> {
        let participates: Vec<bool> = graph
            .nodes()
            .map(|n| Ecg::is_rewrite_participant(n.op))
            .collect();
        let mut visited = vec![false; graph.node_count()];
        let mut partitions = Vec::new();
        for node in graph.nodes() {
            let idx = node.id.index();
            if visited[idx] || !participates[idx] {
                continue;
            }
            let mut stack = vec![node.id];
            let mut component = std::collections::BTreeSet::new();
            visited[idx] = true;
            while let Some(cur) = stack.pop() {
                component.insert(cur);
                for next in graph
                    .predecessors(cur)
                    .into_iter()
                    .chain(graph.successors(cur))
                {
                    let nidx = next.index();
                    if !visited[nidx] && participates[nidx] {
                        visited[nidx] = true;
                        stack.push(next);
                    }
                }
            }
            partitions.push(component.into_iter().collect());
        }
        partitions
    }

    #[test]
    fn rewrite_partitions_match_the_reference_flood_fill_on_every_model() {
        for &kind in dnnf_models::ModelKind::all() {
            let graph = kind.build(dnnf_models::ModelScale::tiny()).unwrap();
            let parts = Ecg::rewrite_partitions(&graph);
            assert_eq!(parts, reference_partitions(&graph), "{}", kind.name());
        }
        for seed in 0..200 {
            let graph = dnnf_bench::fuzz::random_fuzz_graph(seed, 12);
            let parts = Ecg::rewrite_partitions(&graph);
            assert_eq!(parts, reference_partitions(&graph), "fuzz seed {seed}");
        }
        assert_eq!(
            Ecg::rewrite_partitions(&sample_graph()),
            reference_partitions(&sample_graph())
        );
    }

    #[test]
    fn rewrite_participants_include_table4_unaries() {
        assert!(Ecg::is_rewrite_participant(OpKind::Reciprocal));
        assert!(Ecg::is_rewrite_participant(OpKind::Sqrt));
        assert!(Ecg::is_rewrite_participant(OpKind::ReduceSum));
        assert!(Ecg::is_rewrite_participant(OpKind::Mul));
        assert!(!Ecg::is_rewrite_participant(OpKind::Relu));
        assert!(!Ecg::is_rewrite_participant(OpKind::Conv) || OpKind::Conv.math_properties().any());
    }

    /// Helper constructing a `NodeId` from a raw index for tests (node ids
    /// are assigned sequentially by the builder).
    #[allow(non_snake_case)]
    fn NodeId_from(i: usize) -> NodeId {
        // Round-trip through the graph API to obtain a real id.
        // Safe because tests only use indices of existing nodes.
        let g = sample_graph();
        let ids: Vec<NodeId> = g.nodes().map(|n| n.id).collect();
        ids.get(i).copied().unwrap_or(ids[0])
    }
}
