//! Fixed-pattern fusion, parameterized per framework.

use std::collections::BTreeSet;
use std::fmt;

use dnnf_core::{CoreError, Ecg, FusionPlan};
use dnnf_graph::NodeId;
use dnnf_ops::OpKind;

/// The end-to-end frameworks the paper compares against (Table 5 / Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineFramework {
    /// Alibaba MNN.
    Mnn,
    /// Apache TVM (also the pattern set of the paper's `OurB+` baseline).
    Tvm,
    /// TensorFlow-Lite.
    TfLite,
    /// PyTorch-Mobile.
    PytorchMobile,
}

impl BaselineFramework {
    /// All comparison frameworks in the order the paper lists them.
    #[must_use]
    pub fn all() -> &'static [BaselineFramework] {
        &[
            BaselineFramework::Mnn,
            BaselineFramework::Tvm,
            BaselineFramework::TfLite,
            BaselineFramework::PytorchMobile,
        ]
    }

    /// Display name used in the result tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BaselineFramework::Mnn => "MNN",
            BaselineFramework::Tvm => "TVM",
            BaselineFramework::TfLite => "TFLite",
            BaselineFramework::PytorchMobile => "PyTorch",
        }
    }
}

impl fmt::Display for BaselineFramework {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of a fixed-pattern fuser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternConfig {
    /// Name shown in reports.
    pub name: &'static str,
    /// Operators that can anchor a fused group (compute-intensive ops).
    pub anchors: Vec<OpKind>,
    /// Operators that may be appended to an anchor as an epilogue.
    pub epilogue: Vec<OpKind>,
    /// Maximum number of epilogue operators fused behind one anchor.
    pub max_epilogue: usize,
    /// Whether standalone chains of element-wise operators fuse together.
    pub fuse_elementwise_chains: bool,
    /// Maximum length of a fused element-wise chain.
    pub max_elementwise_chain: usize,
}

impl PatternConfig {
    /// TVM-style fusion: any compute anchor followed by a chain of injective
    /// (element-wise) operators, plus standalone injective chains. This is
    /// also the paper's `OurB+` configuration ("OurB with a fixed-pattern
    /// fusion as TVM").
    #[must_use]
    pub fn tvm_like() -> Self {
        PatternConfig {
            name: "TVM-style fixed patterns",
            anchors: vec![
                OpKind::Conv,
                OpKind::ConvTranspose,
                OpKind::Gemm,
                OpKind::MatMul,
                OpKind::AveragePool,
                OpKind::MaxPool,
                OpKind::GlobalAveragePool,
            ],
            epilogue: vec![
                OpKind::Add,
                OpKind::Sub,
                OpKind::Mul,
                OpKind::Div,
                OpKind::Relu,
                OpKind::Clip,
                OpKind::Sigmoid,
                OpKind::Tanh,
                OpKind::LeakyRelu,
                OpKind::BatchNormalization,
            ],
            max_epilogue: 3,
            fuse_elementwise_chains: true,
            max_elementwise_chain: 4,
        }
    }

    /// MNN-style fusion: Conv/Deconv + BN + activation and binary+activation
    /// merges; no generic element-wise chain fusion.
    #[must_use]
    pub fn mnn_like() -> Self {
        PatternConfig {
            name: "MNN-style fixed patterns",
            anchors: vec![
                OpKind::Conv,
                OpKind::ConvTranspose,
                OpKind::Gemm,
                OpKind::MatMul,
            ],
            epilogue: vec![
                OpKind::Add,
                OpKind::Mul,
                OpKind::Relu,
                OpKind::Clip,
                OpKind::BatchNormalization,
            ],
            max_epilogue: 2,
            fuse_elementwise_chains: false,
            max_elementwise_chain: 0,
        }
    }

    /// TensorFlow-Lite-style fusion: bias + a fused activation folded into
    /// Conv / fully-connected kernels only.
    #[must_use]
    pub fn tflite_like() -> Self {
        PatternConfig {
            name: "TFLite-style fixed patterns",
            anchors: vec![
                OpKind::Conv,
                OpKind::ConvTranspose,
                OpKind::Gemm,
                OpKind::MatMul,
            ],
            epilogue: vec![OpKind::Add, OpKind::Relu, OpKind::Clip],
            max_epilogue: 2,
            fuse_elementwise_chains: false,
            max_elementwise_chain: 0,
        }
    }

    /// PyTorch-Mobile-style fusion: Conv+BN folding and Conv+ReLU.
    #[must_use]
    pub fn pytorch_like() -> Self {
        PatternConfig {
            name: "PyTorch-Mobile-style fixed patterns",
            anchors: vec![OpKind::Conv, OpKind::ConvTranspose],
            epilogue: vec![
                OpKind::Add,
                OpKind::Mul,
                OpKind::Relu,
                OpKind::BatchNormalization,
            ],
            max_epilogue: 2,
            fuse_elementwise_chains: false,
            max_elementwise_chain: 0,
        }
    }

    /// The configuration modeling a given framework.
    #[must_use]
    pub fn for_framework(framework: BaselineFramework) -> Self {
        match framework {
            BaselineFramework::Mnn => PatternConfig::mnn_like(),
            BaselineFramework::Tvm => PatternConfig::tvm_like(),
            BaselineFramework::TfLite => PatternConfig::tflite_like(),
            BaselineFramework::PytorchMobile => PatternConfig::pytorch_like(),
        }
    }
}

/// A fixed-pattern fuser producing [`FusionPlan`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternFuser {
    config: PatternConfig,
}

impl PatternFuser {
    /// Creates a fuser from a configuration.
    #[must_use]
    pub fn new(config: PatternConfig) -> Self {
        PatternFuser { config }
    }

    /// Creates the fuser modeling a framework.
    #[must_use]
    pub fn for_framework(framework: BaselineFramework) -> Self {
        PatternFuser::new(PatternConfig::for_framework(framework))
    }

    /// The fuser's configuration.
    #[must_use]
    pub fn config(&self) -> &PatternConfig {
        &self.config
    }

    /// Produces the fixed-pattern fusion plan for a graph.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if the resulting grouping is inconsistent
    /// (which would indicate a bug in the pattern matching).
    pub fn plan(&self, ecg: &Ecg) -> Result<FusionPlan, CoreError> {
        let graph = ecg.graph();
        let mut assigned: BTreeSet<NodeId> = BTreeSet::new();
        let mut groups: Vec<Vec<NodeId>> = Vec::new();

        // Anchor + epilogue patterns.
        for node_id in graph.topo_order() {
            if assigned.contains(&node_id) {
                continue;
            }
            let node = graph.node(node_id);
            if !self.config.anchors.contains(&node.op) {
                continue;
            }
            let mut group = vec![node_id];
            assigned.insert(node_id);
            self.extend_chain(
                ecg,
                node_id,
                &self.config.epilogue,
                self.config.max_epilogue,
                &mut group,
                &mut assigned,
            );
            groups.push(group);
        }

        // Standalone element-wise chains.
        if self.config.fuse_elementwise_chains {
            for node_id in graph.topo_order() {
                if assigned.contains(&node_id) {
                    continue;
                }
                let node = graph.node(node_id);
                if !(node.op.is_elementwise_unary() || node.op.is_elementwise_binary()) {
                    continue;
                }
                let mut group = vec![node_id];
                assigned.insert(node_id);
                self.extend_elementwise_chain(ecg, node_id, &mut group, &mut assigned);
                if group.len() > 1 {
                    groups.push(group);
                } else {
                    assigned.remove(&node_id);
                }
            }
        }

        FusionPlan::from_blocks(ecg, groups)
    }

    /// Follows the single-consumer chain out of `from`, fusing whitelisted
    /// operators.
    fn extend_chain(
        &self,
        ecg: &Ecg,
        from: NodeId,
        whitelist: &[OpKind],
        max_extra: usize,
        group: &mut Vec<NodeId>,
        assigned: &mut BTreeSet<NodeId>,
    ) {
        let graph = ecg.graph();
        let mut current = from;
        for _ in 0..max_extra {
            let outputs = &graph.node(current).outputs;
            if outputs.len() != 1 {
                break;
            }
            let value = graph.value(outputs[0]);
            if value.consumers.len() != 1 || graph.outputs().contains(&outputs[0]) {
                break;
            }
            let next = value.consumers[0];
            if assigned.contains(&next) || !whitelist.contains(&graph.node(next).op) {
                break;
            }
            group.push(next);
            assigned.insert(next);
            current = next;
        }
    }

    fn extend_elementwise_chain(
        &self,
        ecg: &Ecg,
        from: NodeId,
        group: &mut Vec<NodeId>,
        assigned: &mut BTreeSet<NodeId>,
    ) {
        let graph = ecg.graph();
        let mut current = from;
        while group.len() < self.config.max_elementwise_chain {
            let outputs = &graph.node(current).outputs;
            if outputs.len() != 1 {
                break;
            }
            let value = graph.value(outputs[0]);
            if value.consumers.len() != 1 || graph.outputs().contains(&outputs[0]) {
                break;
            }
            let next = value.consumers[0];
            let op = graph.node(next).op;
            if assigned.contains(&next)
                || !(op.is_elementwise_unary() || op.is_elementwise_binary())
            {
                break;
            }
            group.push(next);
            assigned.insert(next);
            current = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnf_graph::Graph;
    use dnnf_ops::Attrs;
    use dnnf_tensor::Shape;

    /// Conv -> bias -> Relu -> Sigmoid -> Tanh -> Gemm graph exercising both
    /// anchor-epilogue and element-wise-chain fusion.
    fn sample() -> Graph {
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
        let b = g.add_weight("b", Shape::new(vec![1, 4, 1, 1]));
        let bias = g
            .add_op(OpKind::Add, Attrs::new(), &[conv, b], "bias")
            .unwrap()[0];
        let relu = g
            .add_op(OpKind::Relu, Attrs::new(), &[bias], "relu")
            .unwrap()[0];
        let sig = g
            .add_op(OpKind::Sigmoid, Attrs::new(), &[relu], "sig")
            .unwrap()[0];
        let tanh = g
            .add_op(OpKind::Tanh, Attrs::new(), &[sig], "tanh")
            .unwrap()[0];
        let flat = g
            .add_op(
                OpKind::Flatten,
                Attrs::new().with_int("axis", 1),
                &[tanh],
                "flat",
            )
            .unwrap()[0];
        let fw = g.add_weight("fw", Shape::new(vec![256, 16]));
        let fc = g
            .add_op(OpKind::MatMul, Attrs::new(), &[flat, fw], "fc")
            .unwrap()[0];
        let out = g
            .add_op(OpKind::Softmax, Attrs::new(), &[fc], "softmax")
            .unwrap()[0];
        g.mark_output(out);
        g
    }

    #[test]
    fn tvm_like_fuses_anchor_epilogues_and_chains() {
        let g = sample();
        let ecg = Ecg::new(g.clone());
        let plan = PatternFuser::for_framework(BaselineFramework::Tvm)
            .plan(&ecg)
            .unwrap();
        // 9 layers shrink, but not as far as DNNFusion would.
        assert!(plan.fused_layer_count() < g.node_count());
        // Conv and its bias/relu epilogue share a block.
        let conv = g.nodes().find(|n| n.op == OpKind::Conv).unwrap().id;
        let bias = g.nodes().find(|n| n.name == "bias").unwrap().id;
        let relu = g.nodes().find(|n| n.name == "relu").unwrap().id;
        assert_eq!(plan.block_of(conv), plan.block_of(bias));
        assert_eq!(plan.block_of(conv), plan.block_of(relu));
        // The Flatten (Reorganize) never fuses under fixed patterns.
        let flat = g.nodes().find(|n| n.op == OpKind::Flatten).unwrap().id;
        assert_eq!(plan.blocks()[plan.block_of(flat)].len(), 1);
    }

    #[test]
    fn framework_pattern_sets_are_ordered_by_generality() {
        let g = sample();
        let ecg = Ecg::new(g.clone());
        let counts: Vec<usize> = BaselineFramework::all()
            .iter()
            .map(|&f| {
                PatternFuser::for_framework(f)
                    .plan(&ecg)
                    .unwrap()
                    .fused_layer_count()
            })
            .collect();
        // TVM (index 1) fuses at least as much as every other baseline.
        assert!(counts[1] <= counts[0]);
        assert!(counts[1] <= counts[2]);
        assert!(counts[1] <= counts[3]);
        // And PyTorch (conv-only patterns) fuses the least.
        assert!(counts[3] >= counts[2]);
    }

    #[test]
    fn dnnfusion_beats_every_fixed_pattern_baseline_on_fusion_rate() {
        use dnnf_core::{Compiler, CompilerOptions};
        let g = sample();
        let ecg = Ecg::new(g.clone());
        let dnnf = Compiler::new(CompilerOptions::default())
            .compile(&g)
            .unwrap();
        for &f in BaselineFramework::all() {
            let baseline = PatternFuser::for_framework(f).plan(&ecg).unwrap();
            assert!(
                dnnf.stats.fused_layers <= baseline.fused_layer_count(),
                "DNNFusion should fuse at least as much as {f}"
            );
        }
    }

    #[test]
    fn chains_stop_at_multi_consumer_values() {
        // conv -> relu -> (two consumers): the relu output fans out, so the
        // chain must stop after relu.
        let mut g = Graph::new("fanout");
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
        let relu = g
            .add_op(OpKind::Relu, Attrs::new(), &[conv], "relu")
            .unwrap()[0];
        let a = g
            .add_op(OpKind::Sigmoid, Attrs::new(), &[relu], "a")
            .unwrap()[0];
        let b = g.add_op(OpKind::Tanh, Attrs::new(), &[relu], "b").unwrap()[0];
        let sum = g.add_op(OpKind::Add, Attrs::new(), &[a, b], "sum").unwrap()[0];
        g.mark_output(sum);
        let ecg = Ecg::new(g.clone());
        let plan = PatternFuser::for_framework(BaselineFramework::Tvm)
            .plan(&ecg)
            .unwrap();
        let conv_block = plan.block_of(g.nodes().find(|n| n.op == OpKind::Conv).unwrap().id);
        let sig_block = plan.block_of(g.nodes().find(|n| n.op == OpKind::Sigmoid).unwrap().id);
        assert_ne!(conv_block, sig_block);
    }

    #[test]
    fn framework_names_and_config_access() {
        assert_eq!(BaselineFramework::Tvm.to_string(), "TVM");
        assert_eq!(BaselineFramework::all().len(), 4);
        let fuser = PatternFuser::for_framework(BaselineFramework::Mnn);
        assert!(fuser.config().name.contains("MNN"));
        assert!(!fuser.config().fuse_elementwise_chains);
    }
}
