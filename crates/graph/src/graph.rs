//! The computational graph container and builder.

mod splice;

use std::collections::{BTreeMap, VecDeque};

use dnnf_ops::{cost, infer_shapes, Attrs, OpKind};
use dnnf_tensor::{DataType, Shape, Tensor};

use crate::{
    DimBinding, GraphError, GraphStats, Node, NodeId, SymbolicAxes, Value, ValueId, ValueKind,
};

pub use splice::{Splice, SpliceArg, SpliceOp};

/// Name of output `i` of the node called `node`: `<node>:out`, then
/// `<node>:out1`, `<node>:out2`, ….
fn output_name(node: &str, i: usize) -> String {
    if i == 0 {
        format!("{node}:out")
    } else {
        format!("{node}:out{i}")
    }
}

/// A computational graph: operator nodes connected through tensor values.
///
/// Graphs are built incrementally with [`Graph::add_input`],
/// [`Graph::add_weight`] and [`Graph::add_op`]; shape inference runs at
/// `add_op` time so every value always carries a static shape. Graph
/// rewriting edits a graph with [`Graph::splice`].
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    name: String,
    nodes: Vec<Node>,
    values: Vec<Value>,
    inputs: Vec<ValueId>,
    outputs: Vec<ValueId>,
    weight_data: BTreeMap<ValueId, Tensor>,
    /// Inputs whose marked axis is the symbolic sequence dimension, set with
    /// [`Graph::mark_seq_axis`]. Unlike the batch convention (always the
    /// leading axis of every input), sequence axes are opt-in and per-input:
    /// an autoregressive step graph marks only its KV-cache inputs, whose
    /// sequence axis is axis 1 (`[heads, seq, head_dim]`), while the
    /// fixed-length token inputs stay unmarked.
    seq_axes: BTreeMap<ValueId, usize>,
}

impl Graph {
    /// Creates an empty graph with the given model name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Graph {
            name: name.into(),
            nodes: Vec::new(),
            values: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            weight_data: BTreeMap::new(),
            seq_axes: BTreeMap::new(),
        }
    }

    /// Model name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of operator nodes (layers).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of values.
    #[must_use]
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Registers a model input of the given shape and returns its id.
    pub fn add_input(&mut self, name: impl Into<String>, shape: Shape) -> ValueId {
        self.push_value(name.into(), shape, DataType::F32, ValueKind::Input, None)
    }

    /// Registers a weight value of the given shape (data can be attached
    /// later with [`Graph::set_weight_data`], otherwise the runtime
    /// materializes deterministic random data).
    pub fn add_weight(&mut self, name: impl Into<String>, shape: Shape) -> ValueId {
        self.push_value(name.into(), shape, DataType::F32, ValueKind::Weight, None)
    }

    /// Registers a weight with explicit data.
    pub fn add_weight_with_data(&mut self, name: impl Into<String>, data: Tensor) -> ValueId {
        let id = self.push_value(
            name.into(),
            data.shape().clone(),
            data.dtype(),
            ValueKind::Weight,
            None,
        );
        self.weight_data.insert(id, data);
        id
    }

    /// Attaches concrete data to an existing weight value.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownValue`] for an invalid id and
    /// [`GraphError::Invalid`] when the value is not a weight or the shapes
    /// differ.
    pub fn set_weight_data(&mut self, id: ValueId, data: Tensor) -> Result<(), GraphError> {
        let value = self
            .values
            .get(id.0)
            .ok_or(GraphError::UnknownValue { id: id.0 })?;
        if value.kind != ValueKind::Weight {
            return Err(GraphError::Invalid {
                reason: format!("value `{}` is not a weight", value.name),
            });
        }
        if value.shape != *data.shape() {
            return Err(GraphError::Invalid {
                reason: format!(
                    "weight `{}` shape {} != data shape {}",
                    value.name,
                    value.shape,
                    data.shape()
                ),
            });
        }
        self.weight_data.insert(id, data);
        Ok(())
    }

    /// Returns the explicit data attached to a weight, if any.
    #[must_use]
    pub fn weight_data(&self, id: ValueId) -> Option<&Tensor> {
        self.weight_data.get(&id)
    }

    /// Adds an operator node. Shape inference determines the output value
    /// shapes; the new output value ids are returned in operator order.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownValue`] if an input id is invalid or
    /// [`GraphError::ShapeInference`] if the operator rejects the inputs.
    pub fn add_op(
        &mut self,
        op: OpKind,
        attrs: Attrs,
        inputs: &[ValueId],
        name: impl Into<String>,
    ) -> Result<Vec<ValueId>, GraphError> {
        let name = name.into();
        for &id in inputs {
            if id.0 >= self.values.len() {
                return Err(GraphError::UnknownValue { id: id.0 });
            }
        }
        let input_shapes: Vec<Shape> = inputs
            .iter()
            .map(|&id| self.values[id.0].shape.clone())
            .collect();
        let output_shapes = infer_shapes(op, &attrs, &input_shapes).map_err(|source| {
            GraphError::ShapeInference {
                node: name.clone(),
                source,
            }
        })?;

        let node_id = NodeId(self.nodes.len());
        let mut output_ids = Vec::with_capacity(output_shapes.len());
        for (i, shape) in output_shapes.into_iter().enumerate() {
            let vid = self.push_value(
                output_name(&name, i),
                shape,
                DataType::F32,
                ValueKind::Intermediate,
                Some(node_id),
            );
            output_ids.push(vid);
        }
        for &id in inputs {
            self.values[id.0].consumers.push(node_id);
        }
        self.nodes.push(Node {
            id: node_id,
            name,
            op,
            attrs,
            inputs: inputs.to_vec(),
            outputs: output_ids.clone(),
        });
        Ok(output_ids)
    }

    /// Marks a value as a graph output.
    pub fn mark_output(&mut self, id: ValueId) {
        if let Some(v) = self.values.get_mut(id.0) {
            if v.kind == ValueKind::Intermediate {
                v.kind = ValueKind::Output;
            }
            if !self.outputs.contains(&id) {
                self.outputs.push(id);
            }
        }
    }

    /// Graph input values.
    #[must_use]
    pub fn inputs(&self) -> &[ValueId] {
        &self.inputs
    }

    /// Graph output values.
    #[must_use]
    pub fn outputs(&self) -> &[ValueId] {
        &self.outputs
    }

    /// Borrow a node by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is not from this graph.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Borrow a value by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is not from this graph.
    #[must_use]
    pub fn value(&self, id: ValueId) -> &Value {
        &self.values[id.0]
    }

    /// Iterate over all nodes in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Iterate over all values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.values.iter()
    }

    /// Immediate predecessor nodes of `id` (producers of its inputs).
    #[must_use]
    pub fn predecessors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for &input in &self.nodes[id.0].inputs {
            if let Some(p) = self.values[input.0].producer {
                if !out.contains(&p) {
                    out.push(p);
                }
            }
        }
        out
    }

    /// Immediate successor nodes of `id` (consumers of its outputs).
    #[must_use]
    pub fn successors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for &output in &self.nodes[id.0].outputs {
            for &c in &self.values[output.0].consumers {
                if !out.contains(&c) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Nodes in a topological order (producers before consumers).
    ///
    /// Because `add_op` only accepts already-existing values, insertion order
    /// is itself topological; this method nevertheless performs a Kahn-style
    /// sort so the invariant survives graph rewriting.
    #[must_use]
    pub fn topo_order(&self) -> Vec<NodeId> {
        // `seen[n] == id` marks node `n` as already counted for node `id`, so
        // a producer or consumer met twice counts once, as in
        // `predecessors` / `successors`.
        let mut seen = vec![usize::MAX; self.nodes.len()];
        let mut in_degree = vec![0usize; self.nodes.len()];
        for node in &self.nodes {
            for &input in &node.inputs {
                if let Some(p) = self.values[input.0].producer {
                    if seen[p.0] != node.id.0 {
                        seen[p.0] = node.id.0;
                        in_degree[node.id.0] += 1;
                    }
                }
            }
        }
        seen.fill(usize::MAX);
        let mut queue: VecDeque<NodeId> = self
            .nodes
            .iter()
            .filter(|n| in_degree[n.id.0] == 0)
            .map(|n| n.id)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &output in &self.nodes[id.0].outputs {
                for &succ in &self.values[output.0].consumers {
                    if seen[succ.0] == id.0 {
                        continue;
                    }
                    seen[succ.0] = id.0;
                    in_degree[succ.0] -= 1;
                    if in_degree[succ.0] == 0 {
                        queue.push_back(succ);
                    }
                }
            }
        }
        order
    }

    /// Validates graph invariants: every node input exists, every
    /// intermediate value has a producer, outputs are marked, and the graph
    /// is acyclic (topological order covers every node).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Invalid`] describing the first violation found.
    pub fn validate(&self) -> Result<(), GraphError> {
        for node in &self.nodes {
            for &input in &node.inputs {
                if input.0 >= self.values.len() {
                    return Err(GraphError::Invalid {
                        reason: format!(
                            "node `{}` references missing value {}",
                            node.name, input.0
                        ),
                    });
                }
            }
        }
        for value in &self.values {
            if value.is_intermediate() && value.producer.is_none() {
                return Err(GraphError::Invalid {
                    reason: format!("intermediate value `{}` has no producer", value.name),
                });
            }
        }
        if self.outputs.is_empty() && !self.nodes.is_empty() {
            return Err(GraphError::Invalid {
                reason: "no outputs marked".into(),
            });
        }
        if self.topo_order().len() != self.nodes.len() {
            return Err(GraphError::Invalid {
                reason: "graph contains a cycle".into(),
            });
        }
        Ok(())
    }

    /// Computes whole-graph statistics (layer counts, IRS size, FLOPs,
    /// parameters) — the raw material of the paper's Tables 1 and 5.
    #[must_use]
    pub fn stats(&self) -> GraphStats {
        let mut stats = GraphStats {
            total_layers: self.nodes.len(),
            ..GraphStats::default()
        };
        for node in &self.nodes {
            if node.is_compute_intensive() {
                stats.compute_intensive_layers += 1;
            } else {
                stats.memory_intensive_layers += 1;
            }
            let input_shapes: Vec<Shape> = node
                .inputs
                .iter()
                .map(|&id| self.values[id.0].shape.clone())
                .collect();
            let output_shapes: Vec<Shape> = node
                .outputs
                .iter()
                .map(|&id| self.values[id.0].shape.clone())
                .collect();
            stats.flops += cost::flops(node.op, &node.attrs, &input_shapes, &output_shapes);
        }
        for value in &self.values {
            if value.is_intermediate() {
                stats.intermediate_bytes += value.size_bytes() as u64;
            } else if value.is_weight() {
                stats.parameters += value.shape.numel() as u64;
                stats.parameter_bytes += value.size_bytes() as u64;
            }
        }
        stats
    }

    /// The graph's current symbolic dimensions. `batch` is the leading
    /// dimension when the graph has inputs, none is rank-0 and all agree on
    /// it (the NCHW / `[batch, features]` convention every bundled model
    /// follows); `seq` is the marked dimension when at least one input is
    /// seq-marked and all marked axes agree. A dimension the inputs do not
    /// agree on is not symbolic: it reads `None` and cannot be rebound.
    #[must_use]
    pub fn binding(&self) -> DimBinding {
        fn common(mut dims: impl Iterator<Item = Option<usize>>) -> Option<usize> {
            let first = dims.next()??;
            dims.all(|d| d == Some(first)).then_some(first)
        }
        let dim = |id: &ValueId, axis: usize| self.values[id.0].shape.dims().get(axis).copied();
        DimBinding {
            batch: common(self.inputs.iter().map(|id| dim(id, 0))),
            seq: common(self.seq_axes.iter().map(|(id, &axis)| dim(id, axis))),
        }
    }

    /// Rebuilds this graph with every dimension `binding` names set to the
    /// requested value — the leading dimension of every input for `batch`,
    /// every marked axis (see [`Graph::mark_seq_axis`]) for `seq` — and
    /// re-runs shape inference once over all nodes so every value carries
    /// the rebound shape. Node and value ids, names, weights, attached
    /// weight data and the seq-axis markings are preserved exactly, which is
    /// what lets a [`FusionPlan`](https://docs.rs/dnnf-core)-style node
    /// grouping computed at one batch size and KV-cache length be replayed
    /// at another: only shapes change.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Invalid`] when a requested value is 0 or the
    /// graph is not symbolic in a requested dimension (see
    /// [`Graph::binding`]: no inputs, a rank-0 input or disagreeing leading
    /// dimensions for `batch`; no or disagreeing markings for `seq`), and
    /// [`GraphError::ShapeInference`] when an operator is not polymorphic in
    /// it (e.g. a `Reshape` whose target shape bakes in the original value).
    pub fn rebind(&self, binding: DimBinding) -> Result<Graph, GraphError> {
        let native = self.binding();
        for (what, requested, native) in [
            ("batch size", binding.batch, native.batch),
            ("sequence length", binding.seq, native.seq),
        ] {
            if requested == Some(0) {
                return Err(GraphError::Invalid {
                    reason: format!("{what} must be at least 1"),
                });
            }
            if requested.is_some() && native.is_none() {
                return Err(GraphError::Invalid {
                    reason: format!("the graph's inputs do not share a symbolic {what}"),
                });
            }
        }
        let batch_axes = self.inputs.iter().map(|&id| (id, 0, binding.batch));
        let seq_axes = self.seq_axes.iter().map(|(&id, &a)| (id, a, binding.seq));
        let mut g = self.clone();
        let mut changed = false;
        for (id, axis, requested) in batch_axes.chain(seq_axes) {
            let Some(dim) = requested else { continue };
            let v = &mut g.values[id.0];
            if v.shape.dim(axis) != dim {
                let mut dims = v.shape.dims().to_vec();
                dims[axis] = dim;
                v.shape = Shape::new(dims);
                changed = true;
            }
        }
        if changed {
            Self::reinfer_all(&mut g)?;
        }
        Ok(g)
    }

    /// Re-infers every node output in topological order so rebound input
    /// shapes propagate through the whole graph.
    fn reinfer_all(g: &mut Graph) -> Result<(), GraphError> {
        for id in g.topo_order() {
            let input_shapes: Vec<Shape> = g.nodes[id.0]
                .inputs
                .iter()
                .map(|&v| g.values[v.0].shape.clone())
                .collect();
            let node = &g.nodes[id.0];
            let output_shapes =
                infer_shapes(node.op, &node.attrs, &input_shapes).map_err(|source| {
                    GraphError::ShapeInference {
                        node: node.name.clone(),
                        source,
                    }
                })?;
            if output_shapes.len() != node.outputs.len() {
                return Err(GraphError::Invalid {
                    reason: format!("node `{}` changed output arity under rebinding", node.name),
                });
            }
            let outputs = node.outputs.clone();
            for (vid, shape) in outputs.into_iter().zip(output_shapes) {
                g.values[vid.0].shape = shape;
            }
        }
        Ok(())
    }

    /// Marks `axis` of graph input `id` as its symbolic sequence dimension.
    /// Marked axes are the ones [`Graph::rebind`] sets for `seq` and the
    /// ones [`Graph::symbolic_shape_signature`] prints as `S`; unmarked
    /// inputs keep their static shape. The markings survive rebinding.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownValue`] for an invalid id and
    /// [`GraphError::Invalid`] when the value is not a graph input or the
    /// axis is out of range for its rank.
    pub fn mark_seq_axis(&mut self, id: ValueId, axis: usize) -> Result<(), GraphError> {
        let value = self
            .values
            .get(id.0)
            .ok_or(GraphError::UnknownValue { id: id.0 })?;
        if value.kind != ValueKind::Input {
            return Err(GraphError::Invalid {
                reason: format!("value `{}` is not a graph input", value.name),
            });
        }
        if axis >= value.shape.rank() {
            return Err(GraphError::Invalid {
                reason: format!(
                    "seq axis {axis} out of range for input `{}` of rank {}",
                    value.name,
                    value.shape.rank()
                ),
            });
        }
        self.seq_axes.insert(id, axis);
        Ok(())
    }

    /// The marked sequence axis of input `id`, if any.
    #[must_use]
    pub fn seq_axis(&self, id: ValueId) -> Option<usize> {
        self.seq_axes.get(&id).copied()
    }

    /// Computes the deterministic structural fingerprint of this graph:
    /// a 128-bit hash over topology, operator attributes, value shapes and
    /// dtypes, output markings, and weight identities (names plus any
    /// explicit data bits). The model name and intermediate value names are
    /// *not* covered, so structurally identical models fingerprint
    /// identically. See [`crate::Fingerprint`] for the guarantees.
    #[must_use]
    pub fn fingerprint(&self) -> crate::Fingerprint {
        crate::fingerprint::graph_fingerprint(self)
    }

    /// Human-readable signature of the graph's input shapes, e.g.
    /// `x=1x3x224x224`. Used together with [`Graph::fingerprint`] as the
    /// compilation-cache key.
    #[must_use]
    pub fn shape_signature(&self) -> String {
        crate::fingerprint::shape_signature(self, SymbolicAxes::default())
    }

    /// Like [`Graph::shape_signature`] but with the dimensions `axes` names
    /// printed symbolically: every input's leading (batch) dimension as `N`
    /// (`x=Nx3x224x224`), every *marked* sequence axis (see
    /// [`Graph::mark_seq_axis`]) as `S` (`token_ids=1;past_k0=2xSx8`).
    /// Polymorphic cache entries are keyed by this signature so one compiled
    /// plan serves every batch size and every KV-cache length.
    #[must_use]
    pub fn symbolic_shape_signature(&self, axes: SymbolicAxes) -> String {
        crate::fingerprint::shape_signature(self, axes)
    }

    /// Exports the graph in Graphviz DOT format (nodes labelled with operator
    /// and output shape), useful for debugging fusion decisions.
    #[must_use]
    pub fn to_dot(&self) -> String {
        let mut s = format!("digraph \"{}\" {{\n", self.name);
        for node in &self.nodes {
            let shape = node
                .outputs
                .first()
                .map(|&o| self.values[o.0].shape.to_string())
                .unwrap_or_default();
            s.push_str(&format!(
                "  n{} [label=\"{} {}\"];\n",
                node.id.0, node.op, shape
            ));
        }
        for node in &self.nodes {
            for succ in self.successors(node.id) {
                s.push_str(&format!("  n{} -> n{};\n", node.id.0, succ.0));
            }
        }
        s.push_str("}\n");
        s
    }

    fn push_value(
        &mut self,
        name: String,
        shape: Shape,
        dtype: DataType,
        kind: ValueKind,
        producer: Option<NodeId>,
    ) -> ValueId {
        let id = ValueId(self.values.len());
        self.values.push(Value {
            id,
            name,
            shape,
            dtype,
            kind,
            producer,
            consumers: Vec::new(),
        });
        match kind {
            ValueKind::Input => self.inputs.push(id),
            ValueKind::Output => self.outputs.push(id),
            _ => {}
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Conv -> Relu -> MaxPool -> Flatten -> Gemm toy CNN used across tests.
    fn toy_cnn() -> Graph {
        let mut g = Graph::new("toy-cnn");
        let x = g.add_input("x", Shape::new(vec![1, 3, 8, 8]));
        let w = g.add_weight("conv.w", Shape::new(vec![4, 3, 3, 3]));
        let b = g.add_weight("conv.b", Shape::new(vec![4]));
        let conv = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w, b],
                "conv1",
            )
            .unwrap()[0];
        let relu = g
            .add_op(OpKind::Relu, Attrs::new(), &[conv], "relu1")
            .unwrap()[0];
        let pool = g
            .add_op(
                OpKind::MaxPool,
                Attrs::new()
                    .with_ints("kernel_shape", vec![2, 2])
                    .with_ints("strides", vec![2, 2]),
                &[relu],
                "pool1",
            )
            .unwrap()[0];
        let flat = g
            .add_op(
                OpKind::Flatten,
                Attrs::new().with_int("axis", 1),
                &[pool],
                "flatten",
            )
            .unwrap()[0];
        let fc_w = g.add_weight("fc.w", Shape::new(vec![64, 10]));
        let fc = g
            .add_op(OpKind::MatMul, Attrs::new(), &[flat, fc_w], "fc")
            .unwrap()[0];
        g.mark_output(fc);
        g
    }

    #[test]
    fn builder_infers_shapes() {
        let g = toy_cnn();
        assert_eq!(g.node_count(), 5);
        let conv_out = g.node(NodeId(0)).outputs[0];
        assert_eq!(g.value(conv_out).shape.dims(), &[1, 4, 8, 8]);
        let fc_out = *g.outputs().first().unwrap();
        assert_eq!(g.value(fc_out).shape.dims(), &[1, 10]);
        assert_eq!(g.value(fc_out).kind, ValueKind::Output);
    }

    #[test]
    fn add_op_rejects_bad_inputs() {
        let mut g = Graph::new("bad");
        let x = g.add_input("x", Shape::new(vec![2, 3]));
        // Wrong arity.
        assert!(g.add_op(OpKind::Add, Attrs::new(), &[x], "add").is_err());
        // Unknown value id.
        let bogus = ValueId(99);
        assert!(matches!(
            g.add_op(OpKind::Relu, Attrs::new(), &[bogus], "r"),
            Err(GraphError::UnknownValue { id: 99 })
        ));
    }

    #[test]
    fn predecessors_successors_and_topo_order() {
        let g = toy_cnn();
        let order = g.topo_order();
        assert_eq!(order.len(), 5);
        let positions: Vec<usize> = g
            .nodes()
            .map(|n| order.iter().position(|&o| o == n.id).unwrap())
            .collect();
        // Conv before Relu before MaxPool.
        assert!(positions[0] < positions[1]);
        assert!(positions[1] < positions[2]);
        assert_eq!(g.predecessors(NodeId(1)), vec![NodeId(0)]);
        assert_eq!(g.successors(NodeId(0)), vec![NodeId(1)]);
        assert!(g.predecessors(NodeId(0)).is_empty());
    }

    #[test]
    fn validate_accepts_well_formed_and_rejects_outputless() {
        let g = toy_cnn();
        assert!(g.validate().is_ok());
        let mut g = Graph::new("no-out");
        let x = g.add_input("x", Shape::new(vec![2]));
        g.add_op(OpKind::Relu, Attrs::new(), &[x], "r").unwrap();
        assert!(g.validate().is_err());
    }

    #[test]
    fn stats_count_layers_and_bytes() {
        let g = toy_cnn();
        let s = g.stats();
        assert_eq!(s.total_layers, 5);
        assert_eq!(s.compute_intensive_layers, 2); // Conv + MatMul
        assert_eq!(s.memory_intensive_layers, 3);
        assert!(s.flops > 0);
        assert!(s.intermediate_bytes > 0);
        // Parameters: 4*3*3*3 + 4 + 64*10 = 108 + 4 + 640.
        assert_eq!(s.parameters, 752);
    }

    #[test]
    fn weight_data_roundtrip_and_validation() {
        let mut g = Graph::new("w");
        let w = g.add_weight("w", Shape::new(vec![2, 2]));
        assert!(g.weight_data(w).is_none());
        let t = Tensor::arange(Shape::new(vec![2, 2]));
        g.set_weight_data(w, t.clone()).unwrap();
        assert_eq!(g.weight_data(w), Some(&t));
        // Shape mismatch rejected.
        assert!(g
            .set_weight_data(w, Tensor::zeros(Shape::new(vec![3])))
            .is_err());
        // Non-weight values rejected.
        let x = g.add_input("x", Shape::new(vec![2, 2]));
        assert!(g.set_weight_data(x, t).is_err());
        // Explicit-data constructor.
        let w2 = g.add_weight_with_data("w2", Tensor::full(Shape::new(vec![2]), 1.0));
        assert!(g.weight_data(w2).is_some());
    }

    #[test]
    fn multi_output_ops_create_multiple_values() {
        let mut g = Graph::new("split");
        let x = g.add_input("x", Shape::new(vec![2, 8]));
        let outs = g
            .add_op(
                OpKind::Split,
                Attrs::new()
                    .with_int("axis", 1)
                    .with_ints("split", vec![4, 4]),
                &[x],
                "split",
            )
            .unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(g.value(outs[0]).shape.dims(), &[2, 4]);
        assert_eq!(g.value(outs[1]).shape.dims(), &[2, 4]);
    }

    #[test]
    fn rebinding_batch_rebatches_every_value() {
        let g = toy_cnn();
        assert_eq!(g.binding(), DimBinding::batch(1));
        let g4 = g.rebind(DimBinding::batch(4)).unwrap();
        assert_eq!(g4.binding(), DimBinding::batch(4));
        // Same structure, new shapes everywhere downstream of the input.
        assert_eq!(g4.node_count(), g.node_count());
        assert_eq!(g4.value_count(), g.value_count());
        let conv_out = g4.node(NodeId(0)).outputs[0];
        assert_eq!(g4.value(conv_out).shape.dims(), &[4, 4, 8, 8]);
        let fc_out = *g4.outputs().first().unwrap();
        assert_eq!(g4.value(fc_out).shape.dims(), &[4, 10]);
        // Weights are batch-free and untouched.
        for (v, v4) in g.values().zip(g4.values()) {
            if v.is_weight() {
                assert_eq!(v.shape, v4.shape);
            }
        }
        assert!(g4.validate().is_ok());
    }

    /// Single-query attention score fragment over a length-6 KV cache:
    /// `q [2,1,8] @ transpose(past, [0,2,1]) [2,8,S] -> scores [2,1,S]`.
    fn toy_seq_graph() -> Graph {
        let mut g = Graph::new("toy-seq");
        let q = g.add_input("q", Shape::new(vec![2, 1, 8]));
        let past = g.add_input("past", Shape::new(vec![2, 6, 8]));
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
        g.mark_output(scores);
        g
    }

    #[test]
    fn rebinding_seq_rebinds_only_marked_axes() {
        let g = toy_seq_graph();
        assert_eq!(g.binding().seq, Some(6));
        let g3 = g.rebind(DimBinding::seq(3)).unwrap();
        assert_eq!(g3.binding().seq, Some(3));
        assert_eq!(g3.node_count(), g.node_count());
        assert_eq!(g3.value_count(), g.value_count());
        // The unmarked input keeps its static shape; the marked one and
        // everything downstream rebind.
        assert_eq!(g3.value(g3.inputs()[0]).shape.dims(), &[2, 1, 8]);
        assert_eq!(g3.value(g3.inputs()[1]).shape.dims(), &[2, 3, 8]);
        let out = *g3.outputs().first().unwrap();
        assert_eq!(g3.value(out).shape.dims(), &[2, 1, 3]);
        // Markings survive the rebind, so the result rebinds again.
        assert_eq!(g3.seq_axis(g3.inputs()[1]), Some(1));
        assert!(g3.validate().is_ok());
    }

    #[test]
    fn rebinding_both_axes_is_one_pass_over_both() {
        let g = toy_seq_graph();
        let both = DimBinding {
            batch: Some(3),
            seq: Some(7),
        };
        let g37 = g.rebind(both).unwrap();
        assert_eq!(g37.binding(), both);
        assert_eq!(g37.value(g37.inputs()[0]).shape.dims(), &[3, 1, 8]);
        assert_eq!(g37.value(g37.inputs()[1]).shape.dims(), &[3, 7, 8]);
        let out = *g37.outputs().first().unwrap();
        assert_eq!(g37.value(out).shape.dims(), &[3, 1, 7]);
        // The same graph as binding one axis after the other.
        let stepwise = g
            .rebind(DimBinding::batch(3))
            .unwrap()
            .rebind(DimBinding::seq(7))
            .unwrap();
        assert_eq!(g37.fingerprint(), stepwise.fingerprint());
    }

    #[test]
    fn rebinding_round_trips_to_the_same_fingerprint() {
        let g = toy_cnn();
        let g4 = g.rebind(DimBinding::batch(4)).unwrap();
        assert_ne!(g4.fingerprint(), g.fingerprint());
        // Rebatching back to 1 reproduces the original graph exactly.
        let back = g4.rebind(DimBinding::batch(1)).unwrap();
        assert_eq!(back.fingerprint(), g.fingerprint());
        // Rebinding to the current value (or to nothing) is the identity.
        assert_eq!(
            g.rebind(DimBinding::batch(1)).unwrap().fingerprint(),
            g.fingerprint()
        );
        let s = toy_seq_graph();
        assert_eq!(
            s.rebind(DimBinding::seq(6)).unwrap().fingerprint(),
            s.fingerprint()
        );
        let none = DimBinding::default();
        assert_eq!(s.rebind(none).unwrap().fingerprint(), s.fingerprint());
        let back = s
            .rebind(DimBinding::seq(1))
            .unwrap()
            .rebind(DimBinding::seq(6))
            .unwrap();
        assert_eq!(back.fingerprint(), s.fingerprint());
    }

    #[test]
    fn rebinding_rejects_zero_and_dimensions_the_inputs_do_not_share() {
        let g = toy_cnn();
        assert!(matches!(
            g.rebind(DimBinding::batch(0)),
            Err(GraphError::Invalid { .. })
        ));
        let mut scalar = Graph::new("scalar-in");
        scalar.add_input("s", Shape::new(vec![]));
        assert!(matches!(
            scalar.rebind(DimBinding::batch(2)),
            Err(GraphError::Invalid { .. })
        ));
        assert_eq!(scalar.binding().batch, None);
        assert_eq!(Graph::new("empty").binding().batch, None);
        let s = toy_seq_graph();
        assert!(matches!(
            s.rebind(DimBinding::seq(0)),
            Err(GraphError::Invalid { .. })
        ));
        let unmarked = toy_cnn();
        assert_eq!(unmarked.binding().seq, None);
        assert!(matches!(
            unmarked.rebind(DimBinding::seq(2)),
            Err(GraphError::Invalid { .. })
        ));
    }

    #[test]
    fn mark_seq_axis_rejects_non_inputs_and_bad_axes() {
        let mut g = Graph::new("marks");
        let x = g.add_input("x", Shape::new(vec![2, 4]));
        let w = g.add_weight("w", Shape::new(vec![4]));
        assert!(matches!(
            g.mark_seq_axis(w, 0),
            Err(GraphError::Invalid { .. })
        ));
        assert!(matches!(
            g.mark_seq_axis(x, 2),
            Err(GraphError::Invalid { .. })
        ));
        assert!(matches!(
            g.mark_seq_axis(ValueId(99), 0),
            Err(GraphError::UnknownValue { id: 99 })
        ));
        g.mark_seq_axis(x, 1).unwrap();
        assert_eq!(g.seq_axis(x), Some(1));
        assert_eq!(g.seq_axis(w), None);
    }

    #[test]
    fn dot_export_mentions_every_node() {
        let g = toy_cnn();
        let dot = g.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("Conv"));
        assert!(dot.contains("->"));
    }

    #[test]
    fn diamond_graph_topo_order_is_complete() {
        // x -> a -> c, x -> b -> c (residual-style diamond).
        let mut g = Graph::new("diamond");
        let x = g.add_input("x", Shape::new(vec![4]));
        let a = g.add_op(OpKind::Relu, Attrs::new(), &[x], "a").unwrap()[0];
        let b = g.add_op(OpKind::Sigmoid, Attrs::new(), &[x], "b").unwrap()[0];
        let c = g.add_op(OpKind::Add, Attrs::new(), &[a, b], "c").unwrap()[0];
        g.mark_output(c);
        assert!(g.validate().is_ok());
        let order = g.topo_order();
        assert_eq!(order.len(), 3);
        assert_eq!(order.last(), Some(&NodeId(2)));
    }
}
