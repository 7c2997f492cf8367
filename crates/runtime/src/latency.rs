//! Adapter exposing the simulated-device cost model as a `dnnf-core`
//! latency model, so fusion-plan exploration profiles candidate blocks
//! against the same device the evaluation later measures.

use dnnf_core::{boundary_of, member_work, Boundary, LatencyModel};
use dnnf_graph::{Graph, NodeId, ValueId};
use dnnf_simdev::{BlockWork, DeviceCostModel, DeviceSpec};

/// A [`LatencyModel`] backed by a simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceLatencyModel {
    cost_model: DeviceCostModel,
}

impl DeviceLatencyModel {
    /// Creates the latency model for a device.
    #[must_use]
    pub fn new(spec: DeviceSpec) -> Self {
        DeviceLatencyModel {
            cost_model: DeviceCostModel::new(spec),
        }
    }

    /// The underlying device cost model.
    #[must_use]
    pub fn cost_model(&self) -> &DeviceCostModel {
        &self.cost_model
    }

    /// Describes the work of executing `nodes`, whose boundary is
    /// `boundary`, as one fused kernel.
    ///
    /// Malformed blocks are costed conservatively, never panicked on — a
    /// long-lived serving process must survive a planner probing a bad
    /// candidate. Concretely: an empty block is zero work, and a node
    /// without outputs (impossible through [`Graph::add_op`], which always
    /// materializes the inferred output values, but representable in a
    /// hand-built block) contributes its FLOPs and boundary reads and is
    /// classified by its operator alone.
    #[must_use]
    pub fn block_work(&self, graph: &Graph, nodes: &[NodeId], boundary: &Boundary) -> BlockWork {
        if nodes.is_empty() {
            // An empty probe does no work; don't fabricate a 1-element
            // output for it below.
            return BlockWork::default();
        }
        let members = member_work(graph, nodes);
        let elems = |v: ValueId| graph.value(v).shape.numel() as u64;
        let mut work = BlockWork {
            flops: members.flops,
            boundary_elems: boundary.values().map(elems).sum(),
            access_disrupting_ops: members.disruptive,
            has_compute_anchor: members.has_anchor,
            output_elems: boundary.writes().map(elems).sum(),
        };
        if work.output_elems == 0 {
            // Internal-only probe: every output is consumed inside the
            // block, so nothing "escaped" above. Real plans never produce
            // such blocks (a block's last value always escapes), but the
            // planner may probe one. Cost it by its last node's output so
            // downstream per-element math never divides by zero; a
            // malformed last node without outputs costs one element.
            work.output_elems = match nodes.last().and_then(|&n| graph.node(n).outputs.first()) {
                Some(&v) => elems(v).max(1),
                None => 1,
            };
        }
        // Widest member step, by first-output element count. The engine
        // executes a fused block step by step, parallelizing each step over
        // its *own* output, so the block's achievable parallelism is set by
        // its widest step — not by what escapes. A block whose tail
        // contracts (Conv + epilogue fused through a pool, Gemm behind a
        // wide Flatten) still parallelizes its anchor over the anchor's full
        // output.
        let widest_step = nodes
            .iter()
            .filter_map(|&n| graph.node(n).outputs.first())
            .map(|&v| elems(v))
            .max()
            .unwrap_or(0);
        work.output_elems = work.output_elems.max(widest_step);
        work
    }
}

impl LatencyModel for DeviceLatencyModel {
    fn fused_latency_us(&self, graph: &Graph, nodes: &[NodeId]) -> f64 {
        if nodes.is_empty() {
            return 0.0;
        }
        let work = self.block_work(graph, nodes, &boundary_of(graph, nodes));
        self.cost_model.kernel_latency_us(&work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnf_graph::Graph;
    use dnnf_ops::{Attrs, OpKind};
    use dnnf_tensor::Shape;

    fn work_of(model: &DeviceLatencyModel, g: &Graph, nodes: &[NodeId]) -> BlockWork {
        model.block_work(g, nodes, &boundary_of(g, nodes))
    }

    fn chain() -> Graph {
        let mut g = Graph::new("chain");
        let mut v = g.add_input("x", Shape::new(vec![1, 16, 32, 32]));
        for i in 0..4 {
            v = g
                .add_op(OpKind::Relu, Attrs::new(), &[v], format!("r{i}"))
                .unwrap()[0];
        }
        g.mark_output(v);
        g
    }

    #[test]
    fn fused_chain_is_faster_than_unfused_on_every_device() {
        let g = chain();
        let nodes: Vec<NodeId> = g.nodes().map(|n| n.id).collect();
        for spec in [
            DeviceSpec::snapdragon_865_cpu(),
            DeviceSpec::snapdragon_865_gpu(),
            DeviceSpec::kirin_980_cpu(),
        ] {
            let model = DeviceLatencyModel::new(spec);
            assert!(model.fused_latency_us(&g, &nodes) < model.unfused_latency_us(&g, &nodes));
        }
    }

    #[test]
    fn block_work_counts_boundary_traffic_once() {
        let g = chain();
        let nodes: Vec<NodeId> = g.nodes().map(|n| n.id).collect();
        let model = DeviceLatencyModel::new(DeviceSpec::snapdragon_865_cpu());
        let work = work_of(&model, &g, &nodes);
        // One read of the input plus one write of the output.
        assert_eq!(work.boundary_elems, 2 * 16 * 32 * 32);
        assert_eq!(work.output_elems, 16 * 32 * 32);
        assert!(!work.has_compute_anchor);
    }

    #[test]
    fn conv_blocks_are_marked_as_anchored() {
        let mut g = Graph::new("conv");
        let x = g.add_input("x", Shape::new(vec![1, 4, 8, 8]));
        let w = g.add_weight("w", Shape::new(vec![4, 4, 3, 3]));
        let c = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w],
                "conv",
            )
            .unwrap()[0];
        g.mark_output(c);
        let model = DeviceLatencyModel::new(DeviceSpec::snapdragon_865_cpu());
        let nodes: Vec<NodeId> = g.nodes().map(|n| n.id).collect();
        let work = work_of(&model, &g, &nodes);
        assert!(work.has_compute_anchor);
        assert!(work.flops > 0);
    }

    #[test]
    fn empty_block_has_zero_latency() {
        let g = chain();
        let model = DeviceLatencyModel::new(DeviceSpec::snapdragon_865_cpu());
        assert_eq!(model.fused_latency_us(&g, &[]), 0.0);
        // And zero work — no fabricated output elements.
        assert_eq!(work_of(&model, &g, &[]), BlockWork::default());
    }

    #[test]
    fn single_interior_node_probe_is_costed_without_panicking() {
        // A probe block of one mid-chain node: its input comes from outside
        // the block and its output escapes to the rest of the chain. The
        // model must cost it like any block, with non-zero output elements.
        let g = chain();
        let model = DeviceLatencyModel::new(DeviceSpec::snapdragon_865_cpu());
        let mid = g.nodes().nth(2).unwrap().id;
        let work = work_of(&model, &g, &[mid]);
        assert_eq!(work.output_elems, 16 * 32 * 32);
        assert_eq!(work.boundary_elems, 2 * 16 * 32 * 32);
        assert!(model.fused_latency_us(&g, &[mid]) > 0.0);
    }
}
