//! Adapter exposing the simulated-device cost model as a `dnnf-core`
//! latency model, so fusion-plan exploration profiles candidate blocks
//! against the same device the evaluation later measures.

use dnnf_core::{boundary_of, LatencyModel};
use dnnf_graph::{Graph, NodeId};
use dnnf_ops::{cost, MappingType};
use dnnf_simdev::{BlockWork, DeviceCostModel, DeviceSpec};
use dnnf_tensor::Shape;

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

    /// Describes the work of executing `nodes` as one fused kernel.
    ///
    /// Malformed blocks are costed conservatively, never panicked on — a
    /// long-lived serving process must survive a planner probing a bad
    /// candidate. Concretely: an empty block is zero work, and a node
    /// without outputs (impossible through [`Graph::add_op`], which always
    /// materializes the inferred output values, but representable in a
    /// hand-built block) contributes its FLOPs and boundary reads but is
    /// never classified as a compute anchor from a fabricated shape.
    #[must_use]
    pub fn block_work(&self, graph: &Graph, nodes: &[NodeId]) -> BlockWork {
        if nodes.is_empty() {
            // An empty probe does no work; don't fabricate a 1-element
            // output for it below.
            return BlockWork::default();
        }
        let mut work = BlockWork::default();
        // Widest member step, by first-output element count. The engine
        // executes a fused block step by step, parallelizing each step over
        // its *own* output, so the block's achievable parallelism is set by
        // its widest step — not by what escapes. A block whose tail
        // contracts (Conv + epilogue fused through a pool, Gemm behind a
        // wide Flatten) still parallelizes its anchor over the anchor's full
        // output.
        let mut widest_step: u64 = 0;
        for &n in nodes {
            let node = graph.node(n);
            if let Some(&out) = node.outputs.first() {
                widest_step = widest_step.max(graph.value(out).shape.numel() as u64);
            }
            let input_shapes: Vec<Shape> = node
                .inputs
                .iter()
                .map(|&id| graph.value(id).shape.clone())
                .collect();
            let output_shapes: Vec<Shape> = node
                .outputs
                .iter()
                .map(|&id| graph.value(id).shape.clone())
                .collect();
            work.flops += cost::flops(node.op, &node.attrs, &input_shapes, &output_shapes);
            // Invariant: every node built by `Graph::add_op` has at least
            // one output (shape inference creates them). Classify an
            // outputless node as plain element-wise work instead of
            // inventing a scalar output shape for it.
            let Some(output_shape) = output_shapes.first() else {
                continue;
            };
            match node
                .op
                .mapping_type_with_shapes(&input_shapes, output_shape)
            {
                MappingType::ManyToMany => work.has_compute_anchor = true,
                // Only data-movement operators disrupt the anchor's access
                // pattern; broadcasted element-wise operators do not.
                MappingType::Shuffle | MappingType::OneToMany if node.op.is_data_movement() => {
                    work.access_disrupting_ops += 1;
                }
                _ => {}
            }
        }
        // Boundary traffic: each value crossing the kernel's edge, once.
        let crossing = boundary_of(graph, nodes);
        let elems = |v| graph.value(v).shape.numel() as u64;
        work.boundary_elems = crossing.values().map(elems).sum();
        work.output_elems = crossing.writes().map(elems).sum();
        if work.output_elems == 0 {
            // Internal-only probe: every output is consumed inside the
            // block, so nothing "escaped" above. Real plans never produce
            // such blocks (a block's last value always escapes), but the
            // planner may probe one. Cost it by its last node's output so
            // downstream per-element math never divides by zero; a
            // malformed last node without outputs costs one element.
            work.output_elems = match nodes.last().and_then(|&n| graph.node(n).outputs.first()) {
                Some(&v) => (graph.value(v).shape.numel() as u64).max(1),
                None => 1,
            };
        }
        work.output_elems = work.output_elems.max(widest_step);
        work
    }
}

impl LatencyModel for DeviceLatencyModel {
    fn fused_latency_us(&self, graph: &Graph, nodes: &[NodeId]) -> f64 {
        if nodes.is_empty() {
            return 0.0;
        }
        self.cost_model
            .kernel_latency_us(&self.block_work(graph, nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnf_graph::Graph;
    use dnnf_ops::{Attrs, OpKind};

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
        let work = model.block_work(&g, &nodes);
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
        let work = model.block_work(&g, &nodes);
        assert!(work.has_compute_anchor);
        assert!(work.flops > 0);
    }

    #[test]
    fn empty_block_has_zero_latency() {
        let g = chain();
        let model = DeviceLatencyModel::new(DeviceSpec::snapdragon_865_cpu());
        assert_eq!(model.fused_latency_us(&g, &[]), 0.0);
        // And zero work — no fabricated output elements.
        assert_eq!(model.block_work(&g, &[]), BlockWork::default());
    }

    #[test]
    fn single_interior_node_probe_is_costed_without_panicking() {
        // A probe block of one mid-chain node: its input comes from outside
        // the block and its output escapes to the rest of the chain. The
        // model must cost it like any block, with non-zero output elements.
        let g = chain();
        let model = DeviceLatencyModel::new(DeviceSpec::snapdragon_865_cpu());
        let mid = g.nodes().nth(2).unwrap().id;
        let work = model.block_work(&g, &[mid]);
        assert_eq!(work.output_elems, 16 * 32 * 32);
        assert_eq!(work.boundary_elems, 2 * 16 * 32 * 32);
        assert!(model.fused_latency_us(&g, &[mid]) > 0.0);
    }
}
