//! GPT-style autoregressive decoder builders with an explicit KV cache.
//!
//! Two builders over one shared weight set:
//!
//! * [`decoder_prefill`] — processes a whole prompt at once under an
//!   explicit lower-triangular causal mask and emits, besides the logits,
//!   every layer's full key/value tensors to seed a KV cache;
//! * [`decoder_step`] — processes exactly **one** token against per-layer
//!   `past_k{l}` / `past_v{l}` cache inputs whose length-`S` axis is marked
//!   as the symbolic sequence dimension ([`Graph::mark_seq_axis`]), so one
//!   compiled plan serves every cache length of the decode loop. Each
//!   layer's appended (`Concat`) keys/values escape as outputs — the grown
//!   cache for the next step.
//!
//! Both graphs name their weights identically, so the runtime's name-seeded
//! weight materialization gives them the *same* parameters: stepping
//! against the cache and recomputing the full prefix from scratch are the
//! same function. Every per-position computation (embedding lookup,
//! layer norm, linear projections, per-row softmax) is independent of the
//! positions after it, and masked scores contribute exactly `exp(-inf) = 0`
//! trailing terms to the softmax sums, so the two evaluation orders agree
//! **bit for bit** — the oracle the decode determinism suite asserts.
//!
//! Output convention (positional): `outputs[2l]` / `outputs[2l + 1]` are
//! layer `l`'s appended keys/values `[heads, S(+1), head_dim]`, and
//! `outputs[2 * layers]` is the raw-logit tensor `[seq, vocab]` (no final
//! softmax: greedy argmax is monotone-invariant and raw logits keep the
//! comparison exact).

use dnnf_graph::{Graph, GraphError, ValueId};
use dnnf_ops::{Attrs, OpKind};
use dnnf_tensor::{Shape, Tensor};

use crate::common::{gelu_decomposed, layer_norm_decomposed, linear, softmax_decomposed};

/// Name of the token-id input (`[seq]`, integer-valued f32).
pub const TOKEN_IDS_INPUT: &str = "token_ids";
/// Name of the absolute-position input (`[seq]`, integer-valued f32).
pub const POSITIONS_INPUT: &str = "positions";

/// Name of layer `layer`'s past-keys cache input (`[heads, S, head_dim]`).
#[must_use]
pub fn past_key_input(layer: usize) -> String {
    format!("past_k{layer}")
}

/// Name of layer `layer`'s past-values cache input (`[heads, S, head_dim]`).
#[must_use]
pub fn past_value_input(layer: usize) -> String {
    format!("past_v{layer}")
}

/// Structural hyper-parameters of the decoder pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecoderConfig {
    /// Number of pre-norm attention blocks.
    pub layers: usize,
    /// Residual-stream width; must be divisible by `heads`.
    pub hidden: usize,
    /// Attention heads per block.
    pub heads: usize,
    /// Vocabulary size (embedding rows and logit columns).
    pub vocab: usize,
    /// Positions the learned position-embedding table covers; prompts plus
    /// generated tokens must stay within it.
    pub max_seq: usize,
    /// Feed-forward expansion factor (`intermediate = ffn_mult * hidden`).
    pub ffn_mult: usize,
}

impl DecoderConfig {
    /// A deliberately tiny decoder for tests and micro-benchmarks: 2 layers,
    /// 16-wide residual stream, 2 heads, 32-token vocabulary.
    #[must_use]
    pub fn test_tiny() -> Self {
        DecoderConfig {
            layers: 2,
            hidden: 16,
            heads: 2,
            vocab: 32,
            max_seq: 32,
            ffn_mult: 2,
        }
    }

    /// Per-head feature width.
    #[must_use]
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    fn check(&self) -> Result<(), GraphError> {
        if self.layers == 0
            || self.heads == 0
            || self.vocab == 0
            || self.max_seq == 0
            || self.ffn_mult == 0
            || self.hidden == 0
            || !self.hidden.is_multiple_of(self.heads)
        {
            return Err(GraphError::Invalid {
                reason: format!("invalid decoder config: {self:?}"),
            });
        }
        Ok(())
    }
}

/// Builds the prefill graph: the whole `prompt_len`-token prompt in one
/// pass under an explicit lower-triangular causal mask. See the module docs
/// for the output convention.
///
/// # Errors
///
/// Returns [`GraphError::Invalid`] for a degenerate config, a zero prompt
/// length, or a prompt longer than `config.max_seq`.
pub fn decoder_prefill(config: &DecoderConfig, prompt_len: usize) -> Result<Graph, GraphError> {
    config.check()?;
    if prompt_len == 0 || prompt_len > config.max_seq {
        return Err(GraphError::Invalid {
            reason: format!("prompt length {prompt_len} outside 1..={}", config.max_seq),
        });
    }
    build_decoder(config, prompt_len, None)
}

/// Builds the single-token step graph against per-layer KV-cache inputs of
/// length `past_len`, each marked seq-polymorphic so the same graph (and
/// the same compiled plan) rebinds to any cache length. See the module docs
/// for the output convention.
///
/// # Errors
///
/// Returns [`GraphError::Invalid`] for a degenerate config or a zero
/// `past_len` (prefill always precedes stepping, so the cache is never
/// empty).
pub fn decoder_step(config: &DecoderConfig, past_len: usize) -> Result<Graph, GraphError> {
    config.check()?;
    if past_len == 0 {
        return Err(GraphError::Invalid {
            reason: "past length must be at least 1".into(),
        });
    }
    build_decoder(config, 1, Some(past_len))
}

/// The shared trunk. `seq` tokens enter; `past` is `Some(cache_len)` for
/// the step form (which adds seq-marked cache inputs and skips the causal
/// mask — a single query attends to everything before it) and `None` for
/// the prefill form (which masks explicitly).
fn build_decoder(
    config: &DecoderConfig,
    seq: usize,
    past: Option<usize>,
) -> Result<Graph, GraphError> {
    let (hidden, heads, head_dim) = (config.hidden, config.heads, config.head_dim());
    let inter = config.ffn_mult * hidden;
    let mut g = Graph::new(match past {
        None => format!("decoder-prefill-{seq}"),
        Some(_) => "decoder-step".to_string(),
    });

    let ids = g.add_input(TOKEN_IDS_INPUT, Shape::new(vec![seq]));
    let positions = g.add_input(POSITIONS_INPUT, Shape::new(vec![seq]));
    let wte = g.add_weight("embeddings.word", Shape::new(vec![config.vocab, hidden]));
    let wpe = g.add_weight(
        "embeddings.position",
        Shape::new(vec![config.max_seq, hidden]),
    );
    let tok = g.add_op(OpKind::Gather, Attrs::new(), &[wte, ids], "embeddings.tok")?[0];
    let pos = g.add_op(
        OpKind::Gather,
        Attrs::new(),
        &[wpe, positions],
        "embeddings.pos",
    )?[0];
    let mut x = g.add_op(OpKind::Add, Attrs::new(), &[tok, pos], "embeddings.add")?[0];

    for l in 0..config.layers {
        let prefix = format!("layer{l}");

        // Pre-norm attention block.
        let h = layer_norm_decomposed(&mut g, x, hidden, &format!("{prefix}.attn.ln"))?;
        let headed = |g: &mut Graph, src: ValueId, proj: &str| -> Result<ValueId, GraphError> {
            let p = linear(
                g,
                src,
                hidden,
                hidden,
                None,
                &format!("{prefix}.attn.{proj}"),
            )?;
            let split = g.add_op(
                OpKind::Reshape,
                Attrs::new().with_ints("shape", vec![seq as i64, heads as i64, head_dim as i64]),
                &[p],
                format!("{prefix}.attn.{proj}.split"),
            )?[0];
            Ok(g.add_op(
                OpKind::Transpose,
                Attrs::new().with_ints("perm", vec![1, 0, 2]),
                &[split],
                format!("{prefix}.attn.{proj}.heads"),
            )?[0])
        };
        let qh = headed(&mut g, h, "q")?;
        let kh = headed(&mut g, h, "k")?;
        let vh = headed(&mut g, h, "v")?;

        // The step form splices the new key/value after the cache; the
        // prefill form's full keys/values *are* the cache. Either way the
        // appended tensors escape as outputs (2 per layer, layer-major).
        let (k_all, v_all) = match past {
            Some(past_len) => {
                let cache_shape = Shape::new(vec![heads, past_len, head_dim]);
                let pk = g.add_input(past_key_input(l), cache_shape.clone());
                g.mark_seq_axis(pk, 1)?;
                let pv = g.add_input(past_value_input(l), cache_shape);
                g.mark_seq_axis(pv, 1)?;
                let cat = Attrs::new().with_int("axis", 1);
                let k = g.add_op(
                    OpKind::Concat,
                    cat.clone(),
                    &[pk, kh],
                    format!("{prefix}.attn.k.cat"),
                )?[0];
                let v = g.add_op(
                    OpKind::Concat,
                    cat,
                    &[pv, vh],
                    format!("{prefix}.attn.v.cat"),
                )?[0];
                (k, v)
            }
            None => (kh, vh),
        };
        g.mark_output(k_all);
        g.mark_output(v_all);

        let kt = g.add_op(
            OpKind::Transpose,
            Attrs::new().with_ints("perm", vec![0, 2, 1]),
            &[k_all],
            format!("{prefix}.attn.kt"),
        )?[0];
        let scores = g.add_op(
            OpKind::MatMul,
            Attrs::new(),
            &[qh, kt],
            format!("{prefix}.attn.scores"),
        )?[0];
        // Explicit 1/sqrt(head_dim) (not a name-seeded weight): both graphs
        // attach the same bits, so scaling stays shared.
        let scale = g.add_weight_with_data(
            format!("{prefix}.attn.scale"),
            Tensor::full(Shape::new(vec![1]), 1.0 / (head_dim as f32).sqrt()),
        );
        let scaled = g.add_op(
            OpKind::Mul,
            Attrs::new(),
            &[scores, scale],
            format!("{prefix}.attn.scaled"),
        )?[0];
        let attended = match past {
            // One query attends to its entire (past + self) context: no mask.
            Some(_) => scaled,
            // Explicit lower-triangular mask data — row i keeps columns
            // j <= i. The masked scores become -inf, so their softmax terms
            // are exactly exp(-inf) = 0 and row i's numbers match any
            // longer recompute bit for bit.
            None => {
                let mut tril = vec![0.0_f32; seq * seq];
                for i in 0..seq {
                    for j in 0..=i {
                        tril[i * seq + j] = 1.0;
                    }
                }
                let mask = g.add_weight_with_data(
                    format!("{prefix}.attn.mask"),
                    Tensor::from_vec(Shape::new(vec![1, seq, seq]), tril)
                        .expect("tril data matches its shape"),
                );
                let neg_inf = g.add_weight_with_data(
                    format!("{prefix}.attn.neg_inf"),
                    Tensor::full(Shape::new(vec![1]), f32::NEG_INFINITY),
                );
                g.add_op(
                    OpKind::Where,
                    Attrs::new(),
                    &[mask, scaled, neg_inf],
                    format!("{prefix}.attn.masked"),
                )?[0]
            }
        };
        let probs = softmax_decomposed(&mut g, attended, &format!("{prefix}.attn.softmax"))?;
        let ctx = g.add_op(
            OpKind::MatMul,
            Attrs::new(),
            &[probs, v_all],
            format!("{prefix}.attn.ctx"),
        )?[0];
        let merged = g.add_op(
            OpKind::Transpose,
            Attrs::new().with_ints("perm", vec![1, 0, 2]),
            &[ctx],
            format!("{prefix}.attn.merge"),
        )?[0];
        let flat = g.add_op(
            OpKind::Reshape,
            Attrs::new().with_ints("shape", vec![seq as i64, hidden as i64]),
            &[merged],
            format!("{prefix}.attn.flat"),
        )?[0];
        let attn_out = linear(
            &mut g,
            flat,
            hidden,
            hidden,
            None,
            &format!("{prefix}.attn.out"),
        )?;
        x = g.add_op(
            OpKind::Add,
            Attrs::new(),
            &[x, attn_out],
            format!("{prefix}.attn.residual"),
        )?[0];

        // Pre-norm feed-forward block.
        let h2 = layer_norm_decomposed(&mut g, x, hidden, &format!("{prefix}.mlp.ln"))?;
        let up = linear(&mut g, h2, hidden, inter, None, &format!("{prefix}.mlp.up"))?;
        let act = gelu_decomposed(&mut g, up, &format!("{prefix}.mlp.gelu"))?;
        let down = linear(
            &mut g,
            act,
            inter,
            hidden,
            None,
            &format!("{prefix}.mlp.down"),
        )?;
        x = g.add_op(
            OpKind::Add,
            Attrs::new(),
            &[x, down],
            format!("{prefix}.mlp.residual"),
        )?[0];
    }

    let normed = layer_norm_decomposed(&mut g, x, hidden, "final.ln")?;
    let lm_w = g.add_weight("lm_head.w", Shape::new(vec![hidden, config.vocab]));
    let logits = g.add_op(OpKind::MatMul, Attrs::new(), &[normed, lm_w], "lm_head")?[0];
    g.mark_output(logits);
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnf_graph::{DimBinding, SymbolicAxes};

    #[test]
    fn prefill_emits_cache_outputs_then_logits() {
        let cfg = DecoderConfig::test_tiny();
        let g = decoder_prefill(&cfg, 4).unwrap();
        assert!(g.validate().is_ok());
        assert_eq!(g.outputs().len(), 2 * cfg.layers + 1);
        for l in 0..cfg.layers {
            let k = g.value(g.outputs()[2 * l]);
            let v = g.value(g.outputs()[2 * l + 1]);
            assert_eq!(k.shape.dims(), &[cfg.heads, 4, cfg.head_dim()]);
            assert_eq!(v.shape.dims(), &[cfg.heads, 4, cfg.head_dim()]);
        }
        let logits = g.value(*g.outputs().last().unwrap());
        assert_eq!(logits.shape.dims(), &[4, cfg.vocab]);
        // The prefill form is not seq-polymorphic (its reshapes and mask
        // bake in the prompt length); only the step form is marked.
        assert_eq!(g.binding().seq, None);
    }

    #[test]
    fn step_is_seq_polymorphic_and_grows_the_cache() {
        let cfg = DecoderConfig::test_tiny();
        let g = decoder_step(&cfg, 4).unwrap();
        assert!(g.validate().is_ok());
        assert_eq!(g.binding().seq, Some(4));
        // Rebinding the cache length moves every cache input and output.
        let g9 = g.rebind(DimBinding::seq(9)).unwrap();
        for l in 0..cfg.layers {
            let k = g9.value(g9.outputs()[2 * l]);
            assert_eq!(k.shape.dims(), &[cfg.heads, 10, cfg.head_dim()]);
        }
        let logits = g9.value(*g9.outputs().last().unwrap());
        assert_eq!(logits.shape.dims(), &[1, cfg.vocab]);
        // One shared signature across cache lengths.
        let sig = g.symbolic_shape_signature(SymbolicAxes::SEQ);
        assert_eq!(g9.symbolic_shape_signature(SymbolicAxes::SEQ), sig);
        assert!(sig.contains("past_k0=2xSx8"));
    }

    #[test]
    fn prefill_and_step_share_every_weight_name() {
        let cfg = DecoderConfig::test_tiny();
        let prefill = decoder_prefill(&cfg, 4).unwrap();
        let step = decoder_step(&cfg, 4).unwrap();
        let names = |g: &Graph| -> std::collections::BTreeSet<String> {
            g.values()
                .filter(|v| v.is_weight())
                .map(|v| v.name.clone())
                .collect()
        };
        let pre = names(&prefill);
        let stp = names(&step);
        // The step form has every weight the prefill form has except the
        // causal mask machinery (a single query needs no mask).
        for name in &stp {
            assert!(pre.contains(name), "step-only weight {name}");
        }
        for name in pre.difference(&stp) {
            assert!(
                name.contains(".mask") || name.contains(".neg_inf"),
                "prefill-only weight {name} is not mask machinery"
            );
        }
    }

    #[test]
    fn builders_reject_degenerate_requests() {
        let cfg = DecoderConfig::test_tiny();
        assert!(decoder_prefill(&cfg, 0).is_err());
        assert!(decoder_prefill(&cfg, cfg.max_seq + 1).is_err());
        assert!(decoder_step(&cfg, 0).is_err());
        let bad = DecoderConfig {
            heads: 3,
            ..DecoderConfig::test_tiny()
        };
        assert!(decoder_prefill(&bad, 4).is_err());
    }
}
