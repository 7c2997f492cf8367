//! Latency models used to resolve the yellow cells of the mapping analysis.
//!
//! The paper measures candidate fusions on the target device and caches the
//! results in a profiling database. Here the measurement is abstracted behind
//! the [`LatencyModel`] trait: the default [`AnalyticLatencyModel`] is a
//! machine-independent roofline-style estimate used by `dnnf-core`'s own
//! tests; `dnnf-runtime` provides a device-calibrated implementation backed
//! by the `dnnf-simdev` device models.

use dnnf_graph::{Graph, NodeId, ValueId};
use dnnf_ops::{cost, MappingType};
use dnnf_tensor::Shape;

use crate::plan::boundary_of;

/// Estimates the latency of executing a set of graph nodes, either as one
/// fused kernel or as separate kernels.
pub trait LatencyModel {
    /// Estimated latency, in microseconds, of executing `nodes` as a single
    /// fused kernel: intermediate values internal to the set are assumed to
    /// stay in registers/cache and are not charged as memory traffic.
    fn fused_latency_us(&self, graph: &Graph, nodes: &[NodeId]) -> f64;

    /// Estimated latency of executing every node as its own kernel.
    fn unfused_latency_us(&self, graph: &Graph, nodes: &[NodeId]) -> f64 {
        nodes
            .iter()
            .map(|&n| self.fused_latency_us(graph, &[n]))
            .sum()
    }
}

/// A simple roofline latency model:
/// `latency = max(flops / peak_flops, bytes / bandwidth) + launch_overhead`,
/// where `bytes` only counts values crossing the kernel boundary, plus a
/// penalty factor when operators with disruptive access patterns (Shuffle,
/// One-to-Many) are fused into a compute-intensive kernel — this is what
/// makes some yellow-cell fusions genuinely unprofitable, as in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticLatencyModel {
    /// Peak floating point throughput in FLOPs per microsecond.
    pub flops_per_us: f64,
    /// Memory bandwidth in bytes per microsecond.
    pub bytes_per_us: f64,
    /// Fixed per-kernel launch/scheduling overhead in microseconds.
    pub kernel_launch_us: f64,
    /// Bytes per element (4 for fp32, 2 for fp16).
    pub elem_bytes: u64,
    /// Multiplicative compute penalty per access-disrupting operator fused
    /// into a block that contains a Many-to-Many anchor.
    pub access_disruption_penalty: f64,
}

impl Default for AnalyticLatencyModel {
    fn default() -> Self {
        // Ballpark mobile-CPU numbers (Kryo 585-class): ~50 GFLOP/s fp32 and
        // ~25 GB/s effective bandwidth, ~5 µs per kernel dispatch.
        AnalyticLatencyModel {
            flops_per_us: 50_000.0,
            bytes_per_us: 25_000.0,
            kernel_launch_us: 5.0,
            elem_bytes: 4,
            access_disruption_penalty: 0.35,
        }
    }
}

impl AnalyticLatencyModel {
    /// External memory traffic (bytes) of executing `nodes` as one kernel:
    /// inputs read from outside the set plus outputs consumed outside the set
    /// (or marked as graph outputs).
    #[must_use]
    pub fn boundary_bytes(&self, graph: &Graph, nodes: &[NodeId]) -> u64 {
        let crossing = boundary_of(graph, nodes);
        let bytes = |v| graph.value(v).size_bytes() as u64 / 4 * self.elem_bytes;
        crossing.values().map(bytes).sum()
    }

    /// Total FLOPs of the node set, with the access-disruption penalty
    /// applied when relevant.
    #[must_use]
    pub fn effective_flops(&self, graph: &Graph, nodes: &[NodeId]) -> f64 {
        let work = member_work(graph, nodes);
        let penalty = if work.has_anchor && nodes.len() > 1 {
            1.0 + self.access_disruption_penalty * work.disruptive as f64
        } else {
            1.0
        };
        work.flops as f64 * penalty
    }
}

/// What both latency models read off a block's members, one node at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemberWork {
    /// FLOPs of every member.
    pub flops: u64,
    /// Whether a member is a Many-to-Many (compute-intensive) anchor.
    pub has_anchor: bool,
    /// Members whose access pattern disrupts an anchor's.
    pub disruptive: usize,
}

/// Walks `nodes` once for their FLOPs, compute anchor and access-disrupting
/// operators. Operators are classified without shapes: shapes only turn a
/// broadcasting element-wise *binary* operator from One-to-One into
/// One-to-Many, and that class counts only data-movement operators, which
/// no element-wise binary operator is.
#[must_use]
pub fn member_work(graph: &Graph, nodes: &[NodeId]) -> MemberWork {
    let mut work = MemberWork::default();
    let shapes = |values: &[ValueId]| -> Vec<Shape> {
        values
            .iter()
            .map(|&v| graph.value(v).shape.clone())
            .collect()
    };
    for &n in nodes {
        let node = graph.node(n);
        let (inputs, outputs) = (shapes(&node.inputs), shapes(&node.outputs));
        work.flops += cost::flops(node.op, &node.attrs, &inputs, &outputs);
        match node.op.mapping_type() {
            MappingType::ManyToMany => work.has_anchor = true,
            // Only data-movement operators (Transpose, Expand, Resize, …)
            // disrupt the anchor's access pattern; a broadcasted bias Add
            // is One-to-Many by classification but reads contiguously.
            MappingType::Shuffle | MappingType::OneToMany if node.op.is_data_movement() => {
                work.disruptive += 1;
            }
            _ => {}
        }
    }
    work
}

impl LatencyModel for AnalyticLatencyModel {
    fn fused_latency_us(&self, graph: &Graph, nodes: &[NodeId]) -> f64 {
        if nodes.is_empty() {
            return 0.0;
        }
        let flops = self.effective_flops(graph, nodes);
        let bytes = self.boundary_bytes(graph, nodes) as f64;
        (flops / self.flops_per_us).max(bytes / self.bytes_per_us) + self.kernel_launch_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnf_graph::Graph;
    use dnnf_ops::{Attrs, OpKind};

    fn elementwise_chain(n: usize) -> Graph {
        let mut g = Graph::new("chain");
        let mut v = g.add_input("x", Shape::new(vec![1, 64, 32, 32]));
        for i in 0..n {
            v = g
                .add_op(OpKind::Relu, Attrs::new(), &[v], format!("relu{i}"))
                .unwrap()[0];
        }
        g.mark_output(v);
        g
    }

    #[test]
    fn fusing_memory_bound_chain_reduces_latency() {
        let g = elementwise_chain(4);
        let nodes: Vec<NodeId> = g.nodes().map(|n| n.id).collect();
        let model = AnalyticLatencyModel::default();
        let fused = model.fused_latency_us(&g, &nodes);
        let unfused = model.unfused_latency_us(&g, &nodes);
        assert!(
            fused < unfused,
            "fused {fused} should beat unfused {unfused}"
        );
        // Fused traffic is one read + one write of the tensor.
        let bytes = model.boundary_bytes(&g, &nodes);
        assert_eq!(bytes, 2 * 64 * 32 * 32 * 4);
    }

    #[test]
    fn boundary_bytes_exclude_internal_values() {
        let g = elementwise_chain(2);
        let nodes: Vec<NodeId> = g.nodes().map(|n| n.id).collect();
        let model = AnalyticLatencyModel::default();
        let all = model.boundary_bytes(&g, &nodes);
        let single = model.boundary_bytes(&g, &nodes[..1]);
        // A single node reads and writes the full tensor; the fused pair does
        // the same amount of boundary traffic (the intermediate is free).
        assert_eq!(all, single);
    }

    #[test]
    fn access_disruption_penalty_applies_to_anchored_blocks() {
        let mut g = Graph::new("conv-transpose");
        let x = g.add_input("x", Shape::new(vec![1, 8, 16, 16]));
        let w = g.add_weight("w", Shape::new(vec![8, 8, 3, 3]));
        let c = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w],
                "conv",
            )
            .unwrap()[0];
        let t = g
            .add_op(
                OpKind::Transpose,
                Attrs::new().with_ints("perm", vec![0, 2, 3, 1]),
                &[c],
                "tr",
            )
            .unwrap()[0];
        g.mark_output(t);
        let model = AnalyticLatencyModel::default();
        let nodes: Vec<NodeId> = g.nodes().map(|n| n.id).collect();
        let conv_only_flops = model.effective_flops(&g, &nodes[..1]);
        let both_flops = model.effective_flops(&g, &nodes);
        assert!(both_flops > conv_only_flops * 1.3);
    }

    #[test]
    fn empty_node_set_has_zero_latency() {
        let g = elementwise_chain(1);
        assert_eq!(
            AnalyticLatencyModel::default().fused_latency_us(&g, &[]),
            0.0
        );
    }

    #[test]
    fn launch_overhead_is_charged_per_kernel() {
        let g = elementwise_chain(3);
        let nodes: Vec<NodeId> = g.nodes().map(|n| n.id).collect();
        let model = AnalyticLatencyModel {
            kernel_launch_us: 100.0,
            ..Default::default()
        };
        let fused = model.fused_latency_us(&g, &nodes);
        let unfused = model.unfused_latency_us(&g, &nodes);
        // Three launches vs one launch dominates with a huge launch cost.
        assert!(unfused > fused + 150.0);
    }
}
