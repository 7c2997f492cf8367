//! Fusion code generation (paper §4.4.1, Figure 4).
//!
//! For every fusion block the code generator builds a **data-flow tree**
//! (DFT) whose leaves are the block's external inputs and whose internal
//! nodes are the block's operators, with common sub-trees identified and
//! reused. The DFT plus the per-pair mapping-type code-generation rules fully
//! determine the fused kernel. Everything generated here is **descriptive**
//! and built only when asked for — [`crate::Compiler`] never calls it; what
//! the engine runs is [`crate::exec`]'s [`FusedKernel`](crate::FusedKernel),
//! compiled from the same block. A [`FusedOp`] carries:
//!
//! * the DFT, the rules invoked and the block's preferred layout, which the
//!   examples and tests read, and
//! * a pseudo-C listing (for inspection, examples and documentation), in the
//!   spirit of the C++/OpenCL emitted by the paper's implementation.

use std::collections::BTreeMap;

use dnnf_graph::{NodeId, ValueId};
use dnnf_ops::{Attrs, MappingType, OpKind};
use dnnf_tensor::Layout;

use crate::{analyze_pair, Ecg, FusionBlock, FusionPlan};

/// One node of a data-flow tree.
#[derive(Debug, Clone, PartialEq)]
pub enum DftNode {
    /// A leaf: a value read from outside the fusion block (model input,
    /// weight, or another block's output).
    Leaf {
        /// The external value.
        value: ValueId,
    },
    /// An operator applied to previously-built DFT nodes.
    Op {
        /// The graph node this entry corresponds to.
        node: NodeId,
        /// Operator kind.
        op: OpKind,
        /// Operator attributes.
        attrs: Attrs,
        /// Indices of child entries within the tree's node arena.
        children: Vec<usize>,
        /// The graph value produced by this operator.
        output: ValueId,
    },
}

/// A data-flow tree (really a DAG thanks to common-sub-tree reuse) for one
/// fusion block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataFlowTree {
    /// Arena of tree nodes; children always precede parents.
    pub nodes: Vec<DftNode>,
    /// One root per block output: `(output value, arena index)`.
    pub roots: Vec<(ValueId, usize)>,
}

impl DataFlowTree {
    /// Number of arena entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Leaf values in first-use order.
    #[must_use]
    pub fn leaves(&self) -> Vec<ValueId> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                DftNode::Leaf { value } => Some(*value),
                DftNode::Op { .. } => None,
            })
            .collect()
    }
}

/// A fused operator: the compiled form of one fusion block.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedOp {
    /// Generated operator name (concatenation of member operator names, as
    /// in the paper's "almost each fusion generates a new operator").
    pub name: String,
    /// Index of the originating fusion block.
    pub block_id: usize,
    /// Member graph nodes in topological order.
    pub nodes: Vec<NodeId>,
    /// External values read by the block (activations and weights).
    pub inputs: Vec<ValueId>,
    /// Values produced by the block that are visible outside it.
    pub outputs: Vec<ValueId>,
    /// Mapping type of the fused operator.
    pub mapping_type: MappingType,
    /// The data-flow tree driving execution.
    pub dft: DataFlowTree,
    /// Preferred data layout of the block's dominant operator (paper §4.4.2).
    pub layout: Layout,
    /// Mapping-type pairs whose code-generation rule was invoked, in fusion
    /// order.
    pub rules_used: Vec<(MappingType, MappingType)>,
    /// Number of times an already-built sub-tree was reused (common sub-tree
    /// elimination, Figure 4).
    pub common_subtrees_reused: usize,
    /// Pseudo-C listing of the fused kernel.
    pub source: String,
}

impl FusedOp {
    /// Number of operators folded into this fused operator.
    #[must_use]
    pub fn fused_op_count(&self) -> usize {
        self.nodes.len()
    }
}

/// Generates the fused operator for one block of a plan.
#[must_use]
pub fn generate_fused_op(ecg: &Ecg, plan: &FusionPlan, block: &FusionBlock) -> FusedOp {
    let graph = ecg.graph();
    let in_block = |n: NodeId| plan.block_of(n) == block.id;

    // Block outputs: values produced inside, visible outside.
    let outputs: Vec<ValueId> = block.boundary.writes().collect();

    // Build the DFT bottom-up from each block output, memoizing values so
    // shared sub-trees are built exactly once.
    let mut tree = DataFlowTree::default();
    let mut memo: BTreeMap<ValueId, usize> = BTreeMap::new();
    let mut reused = 0usize;
    let mut inputs: Vec<ValueId> = Vec::new();
    for &out in &outputs {
        let idx = build_dft(
            graph,
            &mut tree,
            &mut memo,
            &mut reused,
            &mut inputs,
            out,
            &in_block,
        );
        tree.roots.push((out, idx));
    }

    // Record the code-generation rules invoked while folding operators
    // pairwise, exactly as Figure 4 narrates.
    let mut rules_used = Vec::new();
    let mut running = block
        .nodes
        .first()
        .map(|&n| ecg.mapping_type(n))
        .unwrap_or(MappingType::OneToOne);
    for &n in block.nodes.iter().skip(1) {
        let next = ecg.mapping_type(n);
        rules_used.push((running, next));
        running = analyze_pair(running, next).fused_type;
    }

    let name = block
        .nodes
        .iter()
        .map(|&n| graph.node(n).op.name())
        .collect::<Vec<_>>()
        .join("_");

    let layout = select_layout(ecg, block);
    let source = emit_pseudo_code(ecg, block, &name, &inputs, &outputs, layout);

    FusedOp {
        name,
        block_id: block.id,
        nodes: block.nodes.clone(),
        inputs,
        outputs,
        mapping_type: block.mapping_type,
        dft: tree,
        layout,
        rules_used,
        common_subtrees_reused: reused,
        source,
    }
}

/// Generates fused operators for every block of a plan, in execution order.
#[must_use]
pub fn generate_all(ecg: &Ecg, plan: &FusionPlan) -> Vec<FusedOp> {
    let order = plan.order().iter();
    order
        .map(|&b| generate_fused_op(ecg, plan, &plan.blocks()[b]))
        .collect()
}

/// The block's layout: the preferred layout of its dominant operator — the
/// layout-sensitive member with the most output bytes, a cheap proxy for
/// "performance impacted the most" (paper §4.4.2).
fn select_layout(ecg: &Ecg, block: &FusionBlock) -> Layout {
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

fn build_dft(
    graph: &dnnf_graph::Graph,
    tree: &mut DataFlowTree,
    memo: &mut BTreeMap<ValueId, usize>,
    reused: &mut usize,
    inputs: &mut Vec<ValueId>,
    value: ValueId,
    in_block: &impl Fn(NodeId) -> bool,
) -> usize {
    if let Some(&idx) = memo.get(&value) {
        if matches!(tree.nodes[idx], DftNode::Op { .. }) {
            *reused += 1;
        }
        return idx;
    }
    let v = graph.value(value);
    let idx = match v.producer {
        Some(p) if in_block(p) => {
            let node = graph.node(p);
            let children: Vec<usize> = node
                .inputs
                .iter()
                .map(|&input| build_dft(graph, tree, memo, reused, inputs, input, in_block))
                .collect();
            tree.nodes.push(DftNode::Op {
                node: p,
                op: node.op,
                attrs: node.attrs.clone(),
                children,
                output: value,
            });
            tree.nodes.len() - 1
        }
        _ => {
            if !inputs.contains(&value) {
                inputs.push(value);
            }
            tree.nodes.push(DftNode::Leaf { value });
            tree.nodes.len() - 1
        }
    };
    memo.insert(value, idx);
    idx
}

fn emit_pseudo_code(
    ecg: &Ecg,
    block: &FusionBlock,
    name: &str,
    inputs: &[ValueId],
    outputs: &[ValueId],
    layout: Layout,
) -> String {
    let graph = ecg.graph();
    let mut code = String::new();
    code.push_str(&format!(
        "// fused operator `{name}` ({} ops, {} mapping, {layout} layout)\n",
        block.nodes.len(),
        block.mapping_type
    ));
    let params: Vec<String> = inputs
        .iter()
        .map(|&v| format!("const float* {}", sanitize(&graph.value(v).name)))
        .chain(
            outputs
                .iter()
                .map(|&v| format!("float* {}", sanitize(&graph.value(v).name))),
        )
        .collect();
    code.push_str(&format!(
        "void fused_block_{}({}) {{\n",
        block.id,
        params.join(", ")
    ));
    let anchor = block
        .nodes
        .iter()
        .find(|&&n| ecg.mapping_type(n) == MappingType::ManyToMany)
        .copied();
    match anchor {
        Some(a) => {
            let out_shape = graph
                .node(a)
                .outputs
                .first()
                .map(|&v| graph.value(v).shape.to_string())
                .unwrap_or_default();
            code.push_str(&format!(
                "  for (out_idx in {out_shape}) {{  // {} anchor\n",
                graph.node(a).op
            ));
            code.push_str(&format!(
                "    float acc = {}_accumulate(out_idx);\n",
                sanitize(&graph.node(a).name)
            ));
            for &n in &block.nodes {
                if n == a {
                    continue;
                }
                let node = graph.node(n);
                code.push_str(&format!(
                    "    acc = {}(acc);  // rule: {} + {}\n",
                    node.op.name().to_lowercase(),
                    MappingType::ManyToMany,
                    ecg.mapping_type(n)
                ));
            }
            code.push_str("    out[out_idx] = acc;\n  }\n");
        }
        None => {
            code.push_str("  for (i in output) {  // element-wise fused loop\n");
            code.push_str("    float v = load_inputs(i);\n");
            for &n in &block.nodes {
                let node = graph.node(n);
                code.push_str(&format!("    v = {}(v);\n", node.op.name().to_lowercase()));
            }
            code.push_str("    out[i] = v;\n  }\n");
        }
    }
    code.push_str("}\n");
    code
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalyticLatencyModel, FusionPlanner};
    use dnnf_graph::Graph;
    use dnnf_profiledb::ProfileDatabase;
    use dnnf_tensor::Shape;

    fn compile_blocks(graph: &Graph) -> (Ecg, FusionPlan, Vec<FusedOp>) {
        let ecg = Ecg::new(graph.clone());
        let model = AnalyticLatencyModel::default();
        let planner = FusionPlanner::new(&ecg, &model);
        let mut db = ProfileDatabase::new();
        let plan = planner.plan(&mut db).unwrap();
        let fused = generate_all(&ecg, &plan);
        (ecg, plan, fused)
    }

    /// Figure 4's example: Out = Recip(A·B ⊙ C) + Square(A·B ⊙ D)-ish shape
    /// with a shared sub-tree.
    fn figure4_graph() -> Graph {
        let mut g = Graph::new("figure4");
        let a = g.add_input("A", Shape::new(vec![4, 4]));
        let b = g.add_weight("B", Shape::new(vec![4, 4]));
        let c = g.add_weight("C", Shape::new(vec![4, 4]));
        let d = g.add_weight("D", Shape::new(vec![4, 4]));
        let gemm = g
            .add_op(OpKind::Gemm, Attrs::new(), &[a, b], "gemm")
            .unwrap()[0];
        let m1 = g
            .add_op(OpKind::Mul, Attrs::new(), &[gemm, c], "mul1")
            .unwrap()[0];
        let m2 = g
            .add_op(OpKind::Mul, Attrs::new(), &[gemm, d], "mul2")
            .unwrap()[0];
        let r = g
            .add_op(OpKind::Reciprocal, Attrs::new(), &[m1], "recip")
            .unwrap()[0];
        let s = g
            .add_op(OpKind::Square, Attrs::new(), &[m2], "square")
            .unwrap()[0];
        let add = g.add_op(OpKind::Add, Attrs::new(), &[r, s], "add").unwrap()[0];
        g.mark_output(add);
        g
    }

    #[test]
    fn dft_reuses_common_subtrees() {
        // Within one fusion block the shared prefix (here a Relu feeding two
        // Muls) is built exactly once in the DFT — the paper's common
        // sub-tree identification.
        let mut g = Graph::new("cse");
        let a = g.add_input("A", Shape::new(vec![4, 4]));
        let c = g.add_weight("C", Shape::new(vec![4, 4]));
        let d = g.add_weight("D", Shape::new(vec![4, 4]));
        let r = g.add_op(OpKind::Relu, Attrs::new(), &[a], "relu").unwrap()[0];
        let m1 = g
            .add_op(OpKind::Mul, Attrs::new(), &[r, c], "mul1")
            .unwrap()[0];
        let m2 = g
            .add_op(OpKind::Mul, Attrs::new(), &[r, d], "mul2")
            .unwrap()[0];
        let add = g
            .add_op(OpKind::Add, Attrs::new(), &[m1, m2], "add")
            .unwrap()[0];
        g.mark_output(add);
        let (_, plan, fused) = compile_blocks(&g);
        assert_eq!(plan.fused_layer_count(), 1);
        let op = &fused[0];
        assert!(op.common_subtrees_reused >= 1);
        // Leaves are exactly the external inputs A, C, D.
        assert_eq!(op.inputs.len(), 3);
        assert_eq!(op.outputs.len(), 1);
    }

    #[test]
    fn figure4_diamond_splits_at_the_gemm_and_reuses_its_subtree() {
        let g = figure4_graph();
        let (_, plan, fused) = compile_blocks(&g);
        // The one-directional seed exploration of Listing 1 yields two
        // blocks for the Figure 4 diamond: one anchored at the GEMM, one for
        // the remaining element-wise chain.
        assert_eq!(plan.fused_layer_count(), 2);
        let gemm_block = fused.iter().find(|f| f.name.contains("Gemm")).unwrap();
        // The GEMM output feeds both Muls; whichever Mul shares its block
        // reuses the already-built GEMM sub-tree.
        assert!(gemm_block.common_subtrees_reused >= 1);
        assert!(gemm_block.outputs.len() >= 2);
    }

    #[test]
    fn fused_op_name_concatenates_member_ops() {
        let g = figure4_graph();
        let (_, _, fused) = compile_blocks(&g);
        assert!(fused
            .iter()
            .any(|f| f.name.contains("Gemm") && f.name.contains("Mul")));
        assert!(fused.iter().any(|f| f.name.contains("Add")));
    }

    #[test]
    fn rules_used_are_pairwise_and_legal() {
        let g = figure4_graph();
        let (_, _, fused) = compile_blocks(&g);
        for op in &fused {
            assert_eq!(op.rules_used.len(), op.nodes.len().saturating_sub(1));
            for &(a, b) in &op.rules_used {
                assert_ne!(
                    crate::analyze_pair(a, b).verdict,
                    crate::FusionVerdict::Break,
                    "codegen must never see a red pair"
                );
            }
        }
    }

    #[test]
    fn pseudo_code_mentions_anchor_and_epilogue() {
        let g = figure4_graph();
        let (_, _, fused) = compile_blocks(&g);
        assert!(fused.iter().all(|f| f.source.contains("fused_block_")));
        assert!(fused.iter().any(|f| f.source.contains("Gemm anchor")));
        assert!(fused.iter().any(|f| f.source.contains("recip")));
    }

    #[test]
    fn elementwise_only_block_emits_flat_loop() {
        let mut g = Graph::new("chain");
        let mut v = g.add_input("x", Shape::new(vec![32]));
        for (i, op) in [OpKind::Relu, OpKind::Sigmoid, OpKind::Tanh]
            .iter()
            .enumerate()
        {
            v = g.add_op(*op, Attrs::new(), &[v], format!("n{i}")).unwrap()[0];
        }
        g.mark_output(v);
        let (_, plan, fused) = compile_blocks(&g);
        assert_eq!(plan.fused_layer_count(), 1);
        assert!(fused[0].source.contains("element-wise fused loop"));
        assert_eq!(fused[0].layout, Layout::RowMajor);
    }

    #[test]
    fn block_outputs_and_inputs_cross_block_boundaries_only() {
        let g = figure4_graph();
        let (ecg, plan, fused) = compile_blocks(&g);
        for op in &fused {
            for &input in &op.inputs {
                let v = ecg.graph().value(input);
                // External inputs are weights, graph inputs, or another
                // block's outputs.
                if let Some(p) = v.producer {
                    assert_ne!(plan.block_of(p), op.block_id);
                }
            }
        }
        assert_eq!(fused.len(), plan.fused_layer_count());
    }

    #[test]
    fn conv_block_prefers_nchw_layout() {
        let mut g = Graph::new("convblock");
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
        let r = g.add_op(OpKind::Relu, Attrs::new(), &[c], "relu").unwrap()[0];
        g.mark_output(r);
        let (_, _, fused) = compile_blocks(&g);
        assert_eq!(fused[0].layout, Layout::Nchw);
    }

    #[test]
    fn block_layouts_follow_dominant_operators() {
        // Conv -> Relu -> Reshape -> MatMul -> Softmax: the conv prefers NCHW
        // and the matmul/softmax prefer row-major.
        let mut g = Graph::new("mixed");
        let x = g.add_input("x", Shape::new(vec![1, 8, 8, 8]));
        let w = g.add_weight("w", Shape::new(vec![8, 8, 3, 3]));
        let pads = Attrs::new().with_ints("pads", vec![1, 1, 1, 1]);
        let c = g.add_op(OpKind::Conv, pads, &[x, w], "conv").unwrap()[0];
        let r = g.add_op(OpKind::Relu, Attrs::new(), &[c], "relu").unwrap()[0];
        let flat = Attrs::new().with_ints("shape", vec![1, -1]);
        let f = g.add_op(OpKind::Reshape, flat, &[r], "reshape").unwrap()[0];
        let fcw = g.add_weight("fc", Shape::new(vec![512, 16]));
        let m = g
            .add_op(OpKind::MatMul, Attrs::new(), &[f, fcw], "fc")
            .unwrap()[0];
        let s = g
            .add_op(OpKind::Softmax, Attrs::new(), &[m], "softmax")
            .unwrap()[0];
        g.mark_output(s);
        let (_, plan, fused) = compile_blocks(&g);
        let layout_of = |kind: OpKind| {
            let node = g.nodes().find(|n| n.op == kind).unwrap().id;
            let block = plan.block_of(node);
            fused.iter().find(|f| f.block_id == block).unwrap().layout
        };
        assert_eq!(layout_of(OpKind::Conv), Layout::Nchw);
        assert_eq!(layout_of(OpKind::MatMul), Layout::RowMajor);
    }
}
