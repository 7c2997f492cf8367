//! Replacing a connected set of nodes by a few new operators, in place.
//!
//! [`Graph::splice`] is the edit graph rewriting applies: delete some nodes,
//! add a short list of operators, and make every reader of one deleted value
//! read a replacement instead. It produces exactly the graph a rebuild
//! through the builder API would — the surviving nodes re-added in the old
//! topological order, the new operators added just before the first
//! survivor that reads the replaced value — but moves the surviving nodes
//! and values (names, attributes, weight data) instead of cloning and
//! re-inferring them.

use std::collections::BTreeMap;

use dnnf_ops::{infer_shapes, Attrs, OpKind};
use dnnf_tensor::{DataType, Shape};

use super::{output_name, Graph};
use crate::{GraphError, Node, NodeId, Value, ValueId, ValueKind};

/// An operand of a [`SpliceOp`], or the value a [`Splice`] substitutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpliceArg {
    /// A value of the graph being spliced. It must still exist where the new
    /// operators go: a graph input or weight, or an output of a surviving
    /// node that comes before them.
    Value(ValueId),
    /// The first output of the splice's `ops[i]`.
    Op(usize),
}

/// One operator a [`Splice`] adds.
#[derive(Debug, Clone, PartialEq)]
pub struct SpliceOp {
    /// The operator.
    pub op: OpKind,
    /// Its attributes.
    pub attrs: Attrs,
    /// Its operands; an [`SpliceArg::Op`] operand names an earlier op.
    pub inputs: Vec<SpliceArg>,
    /// Node name; outputs are named `<name>:out`, `<name>:out1`, … as by
    /// [`Graph::add_op`].
    pub name: String,
}

/// A splice: delete `removed`, add `ops` in order, and make every use of
/// `replaced` (an output of a removed node) read `with` instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Splice {
    /// Nodes to delete.
    pub removed: Vec<NodeId>,
    /// The one output of a removed node that is still read; every other
    /// output of a removed node must be unused.
    pub replaced: ValueId,
    /// Operators to add, each reading graph values or earlier ops.
    pub ops: Vec<SpliceOp>,
    /// What `replaced`'s readers read from now on; its shape must be
    /// `replaced`'s.
    pub with: SpliceArg,
}

/// Where a node of the spliced graph comes from.
#[derive(Clone, Copy)]
enum Slot {
    /// A surviving node, by old index.
    Kept(usize),
    /// `ops[i]` of the splice.
    Added(usize),
}

const UNMAPPED: usize = usize::MAX;

/// The spliced graph's layout, worked out before anything is moved.
struct Layout {
    /// New node order.
    slots: Vec<Slot>,
    /// Old value index → new value index (or [`UNMAPPED`]).
    value_map: Vec<usize>,
    /// New value index of each added op's first output.
    op_outputs: Vec<usize>,
    /// Output shapes of each added op.
    op_shapes: Vec<Vec<Shape>>,
    /// Values in the spliced graph.
    value_count: usize,
}

impl Graph {
    /// Applies `splice` to this graph and returns the result.
    ///
    /// The result is the graph a rebuild through [`Graph::add_input`],
    /// [`Graph::add_weight_with_data`] and [`Graph::add_op`] produces:
    ///
    /// * nodes run in this graph's [`Graph::topo_order`] minus the removed
    ///   ones, with the added ops just before the first surviving node that
    ///   reads `replaced` (or at the end when none does);
    /// * graph inputs and weights are numbered first, in their old order,
    ///   then node outputs in the new node order;
    /// * names, attributes, weight data and sequence-axis marks are kept;
    ///   added ops carry the splice's names;
    /// * consumer lists follow the new node order.
    ///
    /// Surviving nodes are moved, not re-added: only the added ops go
    /// through shape inference, which is sound because `with` must have
    /// `replaced`'s shape.
    ///
    /// # Errors
    ///
    /// Returns this graph, untouched, boxed together with
    /// [`GraphError::Invalid`] when the result would read or output a value
    /// that no longer exists (or that an added op reads before it is
    /// produced), or when `with`'s shape differs from `replaced`'s;
    /// [`GraphError::UnknownValue`] / [`GraphError::UnknownNode`] for ids
    /// outside the graph; and [`GraphError::ShapeInference`] when an added
    /// op rejects its operands.
    pub fn splice(mut self, splice: Splice) -> Result<Graph, Box<(Graph, GraphError)>> {
        match self.layout(&splice) {
            Ok(layout) => {
                self.apply(splice, layout);
                Ok(self)
            }
            Err(e) => Err(Box::new((self, e))),
        }
    }

    /// Checks `splice` against this graph and lays out the result.
    fn layout(&self, splice: &Splice) -> Result<Layout, GraphError> {
        let mut gone = vec![false; self.nodes.len()];
        for &id in &splice.removed {
            *gone
                .get_mut(id.0)
                .ok_or(GraphError::UnknownNode { id: id.0 })? = true;
        }
        let replaced = self
            .values
            .get(splice.replaced.0)
            .ok_or(GraphError::UnknownValue {
                id: splice.replaced.0,
            })?;
        if !replaced.producer.is_some_and(|p| gone[p.0]) {
            return Err(GraphError::Invalid {
                reason: format!(
                    "splice replaces `{}`, which no removed node produces",
                    replaced.name
                ),
            });
        }
        let lost = |v: ValueId| GraphError::Invalid {
            reason: match self.values.get(v.0) {
                Some(value) => format!("splice would lose value `{}`", value.name),
                None => format!("splice would lose value {}", v.0),
            },
        };

        let mut value_map = vec![UNMAPPED; self.values.len()];
        let mut next = 0;
        for value in &self.values {
            if matches!(value.kind, ValueKind::Input | ValueKind::Weight) {
                value_map[value.id.0] = next;
                next += 1;
            }
        }
        let mut layout = Layout {
            slots: Vec::with_capacity(self.nodes.len() + splice.ops.len()),
            value_map,
            op_outputs: Vec::with_capacity(splice.ops.len()),
            op_shapes: Vec::with_capacity(splice.ops.len()),
            value_count: 0,
        };
        let mapped = |map: &[usize], v: ValueId| match map.get(v.0) {
            Some(&new) if new != UNMAPPED => Ok(new),
            _ => Err(lost(v)),
        };

        // Places the added ops at the current end of the new order and maps
        // `replaced` onto `with`.
        let place_ops = |layout: &mut Layout, next: &mut usize| -> Result<(), GraphError> {
            let shape_of = |layout: &Layout, arg: SpliceArg| -> Result<Shape, GraphError> {
                match arg {
                    SpliceArg::Value(v) => {
                        mapped(&layout.value_map, v)?;
                        Ok(self.values[v.0].shape.clone())
                    }
                    SpliceArg::Op(j) => layout
                        .op_shapes
                        .get(j)
                        .map(|shapes| shapes[0].clone())
                        .ok_or_else(|| GraphError::Invalid {
                            reason: format!("splice op {j} read before it is added"),
                        }),
                }
            };
            for (i, op) in splice.ops.iter().enumerate() {
                let inputs = op
                    .inputs
                    .iter()
                    .map(|&arg| shape_of(layout, arg))
                    .collect::<Result<Vec<_>, _>>()?;
                let shapes = infer_shapes(op.op, &op.attrs, &inputs).map_err(|source| {
                    GraphError::ShapeInference {
                        node: op.name.clone(),
                        source,
                    }
                })?;
                if shapes.is_empty() {
                    return Err(GraphError::Invalid {
                        reason: format!("splice op `{}` has no output", op.name),
                    });
                }
                layout.slots.push(Slot::Added(i));
                layout.op_outputs.push(*next);
                *next += shapes.len();
                layout.op_shapes.push(shapes);
            }
            let shape = shape_of(layout, splice.with)?;
            if shape != replaced.shape {
                return Err(GraphError::Invalid {
                    reason: format!(
                        "splice replaces `{}` of shape {} by a value of shape {shape}",
                        replaced.name, replaced.shape
                    ),
                });
            }
            layout.value_map[splice.replaced.0] = match splice.with {
                SpliceArg::Value(v) => layout.value_map[v.0],
                SpliceArg::Op(j) => layout.op_outputs[j],
            };
            Ok(())
        };

        let mut placed = false;
        for id in self.topo_order() {
            if gone[id.0] {
                continue;
            }
            let node = &self.nodes[id.0];
            let ready = |map: &[usize]| node.inputs.iter().all(|v| map[v.0] != UNMAPPED);
            if !placed && !ready(&layout.value_map) {
                place_ops(&mut layout, &mut next)?;
                placed = true;
            }
            if let Some(&v) = node
                .inputs
                .iter()
                .find(|v| layout.value_map[v.0] == UNMAPPED)
            {
                return Err(lost(v));
            }
            layout.slots.push(Slot::Kept(id.0));
            for &out in &node.outputs {
                layout.value_map[out.0] = next;
                next += 1;
            }
        }
        if !placed {
            place_ops(&mut layout, &mut next)?;
        }
        for &out in &self.outputs {
            mapped(&layout.value_map, out)?;
        }
        layout.value_count = next;
        Ok(layout)
    }

    /// Moves this graph's nodes and values into `layout`'s order and adds
    /// the splice's ops. Cannot fail: [`Graph::layout`] checked everything.
    fn apply(&mut self, splice: Splice, layout: Layout) {
        let Layout {
            slots,
            value_map,
            op_outputs,
            op_shapes,
            value_count,
        } = layout;
        let renumber = |v: &mut ValueId| *v = ValueId(value_map[v.0]);
        let mut old_nodes: Vec<Option<Node>> = std::mem::take(&mut self.nodes)
            .into_iter()
            .map(Some)
            .collect();
        let mut old_values: Vec<Option<Value>> = std::mem::take(&mut self.values)
            .into_iter()
            .map(Some)
            .collect();
        let mut values = Vec::with_capacity(value_count);

        for slot in &mut old_values {
            if let Some(Value {
                kind: ValueKind::Input | ValueKind::Weight,
                ..
            }) = slot
            {
                let mut value = slot.take().expect("just matched");
                value.id = ValueId(values.len());
                value.consumers.clear();
                values.push(value);
            }
        }

        let mut ops: Vec<Option<SpliceOp>> = splice.ops.into_iter().map(Some).collect();
        let mut nodes = Vec::with_capacity(slots.len());
        for slot in slots {
            let id = NodeId(nodes.len());
            let node = match slot {
                Slot::Kept(old) => {
                    let mut node = old_nodes[old].take().expect("each node is placed once");
                    node.id = id;
                    node.inputs.iter_mut().for_each(renumber);
                    for out in &mut node.outputs {
                        let mut value = old_values[out.0].take().expect("one producer");
                        renumber(out);
                        debug_assert_eq!(out.0, values.len());
                        value.id = *out;
                        value.producer = Some(id);
                        value.consumers.clear();
                        values.push(value);
                    }
                    node
                }
                Slot::Added(i) => {
                    let op = ops[i].take().expect("each op is placed once");
                    let first = op_outputs[i];
                    let outputs: Vec<ValueId> =
                        (first..first + op_shapes[i].len()).map(ValueId).collect();
                    for (k, shape) in op_shapes[i].iter().enumerate() {
                        values.push(Value {
                            id: outputs[k],
                            name: output_name(&op.name, k),
                            shape: shape.clone(),
                            dtype: DataType::F32,
                            kind: ValueKind::Intermediate,
                            producer: Some(id),
                            consumers: Vec::new(),
                        });
                    }
                    let inputs = op
                        .inputs
                        .iter()
                        .map(|&arg| match arg {
                            SpliceArg::Value(v) => ValueId(value_map[v.0]),
                            SpliceArg::Op(j) => ValueId(op_outputs[j]),
                        })
                        .collect();
                    Node {
                        id,
                        name: op.name,
                        op: op.op,
                        attrs: op.attrs,
                        inputs,
                        outputs,
                    }
                }
            };
            nodes.push(node);
        }
        for node in &nodes {
            for &input in &node.inputs {
                values[input.0].consumers.push(node.id);
            }
        }
        self.nodes = nodes;
        self.values = values;

        self.inputs.iter_mut().for_each(renumber);
        self.seq_axes = renumber_keys(std::mem::take(&mut self.seq_axes), &value_map);
        self.weight_data = renumber_keys(std::mem::take(&mut self.weight_data), &value_map);
        for (id, data) in &self.weight_data {
            // A weight built by `add_weight_with_data` carries its data's
            // element type.
            self.values[id.0].dtype = data.dtype();
        }
        let outputs = std::mem::take(&mut self.outputs);
        for out in outputs {
            self.mark_output(ValueId(value_map[out.0]));
        }
    }
}

/// Moves `map`'s entries to their values' new ids. Renumbering keeps inputs
/// and weights in their old relative order, so the entries stay sorted.
fn renumber_keys<T>(map: BTreeMap<ValueId, T>, value_map: &[usize]) -> BTreeMap<ValueId, T> {
    map.into_iter()
        .map(|(id, x)| (ValueId(value_map[id.0]), x))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x -> a = Relu -> b = Neg -> c = Sigmoid`, output `c`.
    fn chain() -> Graph {
        let mut g = Graph::new("chain");
        let x = g.add_input("x", Shape::new(vec![4]));
        let a = g.add_op(OpKind::Relu, Attrs::new(), &[x], "a").unwrap()[0];
        let b = g.add_op(OpKind::Neg, Attrs::new(), &[a], "b").unwrap()[0];
        let c = g.add_op(OpKind::Sigmoid, Attrs::new(), &[b], "c").unwrap()[0];
        g.mark_output(c);
        g
    }

    fn node(g: &Graph, name: &str) -> NodeId {
        g.nodes().find(|n| n.name == name).unwrap().id
    }

    fn abs_of(v: SpliceArg) -> SpliceOp {
        SpliceOp {
            op: OpKind::Abs,
            attrs: Attrs::new(),
            inputs: vec![v],
            name: "rw.abs".into(),
        }
    }

    #[test]
    fn a_splice_of_the_output_lands_at_the_end_and_keeps_the_marker() {
        let g = chain();
        let c = node(&g, "c");
        let a_out = g.node(node(&g, "a")).outputs[0];
        let spliced = g
            .clone()
            .splice(Splice {
                removed: vec![c],
                replaced: g.outputs()[0],
                ops: vec![abs_of(SpliceArg::Value(a_out))],
                with: SpliceArg::Op(0),
            })
            .unwrap();
        let names: Vec<&str> = spliced.nodes().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "rw.abs"]);
        let out = spliced.outputs()[0];
        assert_eq!(spliced.value(out).name, "rw.abs:out");
        assert_eq!(spliced.value(out).kind, ValueKind::Output);
        // `a` now feeds `b` and the new `Abs`, in node order.
        assert_eq!(spliced.value(ValueId(1)).consumers, [NodeId(1), NodeId(2)]);
        assert!(spliced.validate().is_ok());
    }

    #[test]
    fn a_refused_splice_hands_back_the_graph_untouched() {
        let g = chain();
        let (a, b) = (node(&g, "a"), node(&g, "b"));
        let b_out = g.node(b).outputs[0];
        let x = g.inputs()[0];
        let refusals = [
            // No such node.
            Splice {
                removed: vec![NodeId(9)],
                replaced: b_out,
                ops: Vec::new(),
                with: SpliceArg::Value(x),
            },
            // `replaced` is not produced by a removed node.
            Splice {
                removed: vec![a],
                replaced: b_out,
                ops: Vec::new(),
                with: SpliceArg::Value(x),
            },
            // An op reads an op that is not added before it.
            Splice {
                removed: vec![b],
                replaced: b_out,
                ops: vec![abs_of(SpliceArg::Op(0))],
                with: SpliceArg::Op(0),
            },
            // The replacement has another shape.
            Splice {
                removed: vec![b],
                replaced: b_out,
                ops: vec![SpliceOp {
                    op: OpKind::Unsqueeze,
                    attrs: Attrs::new().with_ints("axes", vec![0]),
                    inputs: vec![SpliceArg::Value(x)],
                    name: "rw.unsqueeze".into(),
                }],
                with: SpliceArg::Op(0),
            },
            // `with` is `b`'s output, which only exists after `b` — the
            // first reader of `replaced`.
            Splice {
                removed: vec![a],
                replaced: g.node(a).outputs[0],
                ops: Vec::new(),
                with: SpliceArg::Value(b_out),
            },
        ];
        for splice in refusals {
            let what = format!("{splice:?}");
            let (unchanged, _) = *g.clone().splice(splice).expect_err(&what);
            assert_eq!(unchanged, g, "{what}");
        }
    }
}
