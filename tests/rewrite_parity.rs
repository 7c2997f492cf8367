//! The rewrite engine applies the same rewrites and produces the same
//! graphs as the per-rule-struct engine it replaced: for every bundled model
//! at `ModelScale::tiny()`, the `AppliedRewrite` sequence and the rewritten
//! graph's fingerprint are pinned to values recorded from that engine
//! (commit 43c1d7d). The fingerprint keys persisted `plans.cache` entries, so
//! a change here invalidates every stored plan seed.

use dnnfusion::core::rewrite::{AppliedRewrite, RewriteEngine, RuleCategory};
use dnnfusion::models::{ModelKind, ModelScale};

/// (model, applications of `simplify.transpose-pair`, rewritten fingerprint).
/// No other rule fires on a bundled model.
const RECORDED: [(&str, usize, &str); 15] = [
    ("EfficientNet-B0", 0, "5018dcea1f87f8335bff779574457f9b"),
    ("VGG-16", 0, "cea554a7c8afbcd316cb0752c578f468"),
    ("MobileNetV1-SSD", 0, "a3b86fd432646a38eb257b7c59565579"),
    ("YOLO-V4", 0, "e26ccec6e9c71d60021ec8f1fff726db"),
    ("C3D", 0, "8f7542de2cb49f7d426cea03cd4d1de1"),
    ("S3D", 0, "a26c1ec04c1991e47908a301a115d902"),
    ("U-Net", 0, "2cce60ad4d709e2dd1976f1c614fff72"),
    ("Faster R-CNN", 0, "506f75f10dcf6b99ce4e2536ec8fd87a"),
    ("Mask R-CNN", 0, "68f8af9d38df508db71755251f8b38d7"),
    ("TinyBERT", 4, "dbeb856ac9e0e703ea96e180c10824b5"),
    ("DistilBERT", 6, "0b18d697e31c7af2da6060997f876db6"),
    ("ALBERT", 12, "3b83c361419a6112e296856fc4fb86cc"),
    ("BERTBase", 12, "3b83c361419a6112e296856fc4fb86cc"),
    ("MobileBERT", 24, "402e28dee90be5df58d227b7d93a0fb0"),
    ("GPT-2", 24, "be0bc6dc577235782ad6f710c2b59b6f"),
];

#[test]
fn every_bundled_model_rewrites_exactly_as_recorded() {
    let engine = RewriteEngine::with_default_rules();
    let transpose_pair = AppliedRewrite {
        rule: "simplify.transpose-pair".into(),
        category: RuleCategory::Simplification,
        flops_saved: 0,
        nodes_removed: 1,
    };
    assert_eq!(ModelKind::all().len(), RECORDED.len());
    for (&kind, (name, count, fingerprint)) in ModelKind::all().iter().zip(RECORDED) {
        assert_eq!(kind.name(), name);
        let graph = kind.build(ModelScale::tiny()).unwrap();
        let (rewritten, applied) = engine.run(&graph);
        assert_eq!(applied, vec![transpose_pair.clone(); count], "{name}");
        assert_eq!(rewritten.fingerprint().to_string(), fingerprint, "{name}");
        // One graph rebuild per applied rewrite, each dropping one node.
        assert_eq!(rewritten.node_count(), graph.node_count() - count);
    }
}
