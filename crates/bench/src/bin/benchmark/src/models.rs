//! The graphs each workload runs, built from `dnnf-models` during set-up.

use dnnf_graph::Graph;
use dnnf_models::{DecoderConfig, ModelKind, ModelScale};
use dnnf_ops::{Attrs, OpKind};
use dnnf_tensor::{Shape, Tensor};

use crate::files::Rng;
use crate::spec::Workload;

/// A model of a one-shot workload or a tenant of `serve_mix`: its metric
/// token (the `<model>` of `runtime.run_ms.<model>`) and how set-up builds it.
pub struct ModelDef {
    pub token: &'static str,
    pub build: fn(smoke: bool) -> Graph,
}

/// Full structural depth at half of `ModelScale::reduced()`'s channel
/// widths. At `reduced()` the reference interpreter needs 8 s for C3D's
/// expected output alone, three times per run; at this scale C3D and U-Net
/// still run 15–20 ms in a few dozen large blocks and a set-up stays inside
/// the driver's wall-clock cap.
const C3D_SCALE: ModelScale = ModelScale {
    spatial: 32,
    channel_div: 8,
    seq_len: 32,
    depth_div: 1,
};
const UNET_SCALE: ModelScale = ModelScale {
    spatial: 48,
    ..C3D_SCALE
};

fn paper_model(kind: ModelKind, scale: ModelScale, smoke: bool) -> Graph {
    let scale = if smoke { ModelScale::tiny() } else { scale };
    kind.build(scale).expect("paper model builds")
}

/// The `serve_load` harness's MLP: matmul → add → relu → matmul on 16
/// features, so small that a request times the scheduler, not the kernels.
fn mlp(_smoke: bool) -> Graph {
    let mut rng = Rng::derive(0, "mlp weights");
    let mut weight = |dims: Vec<usize>| {
        let shape = Shape::new(dims);
        let data = (0..shape.numel())
            .map(|_| (rng.unit() * 2.0 - 1.0) as f32)
            .collect();
        Tensor::from_vec(shape, data).expect("data sized from the shape")
    };
    let mut g = Graph::new("mlp");
    let x = g.add_input("x", Shape::new(vec![1, 16]));
    let w1 = g.add_weight_with_data("w1", weight(vec![16, 16]));
    let b1 = g.add_weight_with_data("b1", weight(vec![1, 16]));
    let w2 = g.add_weight_with_data("w2", weight(vec![16, 8]));
    let mut op =
        |kind, inputs: &[_], name| g.add_op(kind, Attrs::new(), inputs, name).expect("mlp op")[0];
    let h = op(OpKind::MatMul, &[x, w1], "fc1");
    let a = op(OpKind::Add, &[h, b1], "bias1");
    let r = op(OpKind::Relu, &[a], "relu1");
    let y = op(OpKind::MatMul, &[r, w2], "fc2");
    g.mark_output(y);
    g
}

/// The models of a workload, in the order a round runs them. Empty for
/// `decode_stream`, whose graphs come from [`decoder_config`].
pub fn models(workload: Workload) -> &'static [ModelDef] {
    match workload {
        Workload::CnnBatch1 => &[
            ModelDef {
                token: "vgg16",
                build: |smoke| paper_model(ModelKind::Vgg16, ModelScale::reduced(), smoke),
            },
            ModelDef {
                token: "c3d",
                build: |smoke| paper_model(ModelKind::C3d, C3D_SCALE, smoke),
            },
            ModelDef {
                token: "unet",
                build: |smoke| paper_model(ModelKind::UNet, UNET_SCALE, smoke),
            },
        ],
        Workload::TransformerTiny => &[
            ModelDef {
                token: "tinybert",
                build: |smoke| paper_model(ModelKind::TinyBert, ModelScale::tiny(), smoke),
            },
            ModelDef {
                token: "efficientnet_b0",
                build: |smoke| paper_model(ModelKind::EfficientNetB0, ModelScale::tiny(), smoke),
            },
            ModelDef {
                token: "gpt2",
                build: |smoke| paper_model(ModelKind::Gpt2, ModelScale::tiny(), smoke),
            },
        ],
        Workload::ServeMix => &[
            ModelDef {
                token: "mlp",
                build: mlp,
            },
            // Not `vgg16`: that name is `cnn_batch1`'s graph at `reduced()`.
            ModelDef {
                token: "vgg16_tiny",
                build: |smoke| paper_model(ModelKind::Vgg16, ModelScale::tiny(), smoke),
            },
        ],
        Workload::DecodeStream => &[],
    }
}

/// Models a smoke run keeps: the first of each workload.
pub fn models_for(workload: Workload, smoke: bool) -> &'static [ModelDef] {
    let all = models(workload);
    if smoke {
        &all[..all.len().min(1)]
    } else {
        all
    }
}

/// The decoder `decode_stream` streams from: kernels this small leave the
/// per-step fixed cost, the per-length respecialization and the
/// concat-the-whole-past KV cache to carry the time.
pub fn decoder_config() -> DecoderConfig {
    DecoderConfig {
        layers: 4,
        hidden: 64,
        heads: 4,
        vocab: 256,
        max_seq: 160,
        ffn_mult: 4,
    }
}
