//! Autoregressive greedy decoding over a prefill/step model pair with an
//! `Arc`-backed KV cache.
//!
//! A [`DecodeSession`] drives the decode loop of a decoder built by
//! `dnnf-models::decoder` (or any pair honouring the same conventions):
//!
//! 1. **prefill** — one run of the prompt-length model produces the first
//!    greedy token and every layer's keys/values, which seed the cache;
//! 2. **step** — each further token runs the single-token model against
//!    the cached keys/values through [`Executor::run`]: the cache tensors
//!    are shared into the engine as `Arc`s (no copying of a cache that
//!    grows every token) and the appended keys/values coming back *replace*
//!    the cache for the next step.
//!
//! The step model is compiled **once** through
//! [`PlanCache::compile_polymorphic`](crate::PlanCache::compile_polymorphic)
//! with the sequence axes symbolic, so decoding `T` tokens costs exactly one
//! plan search and compiles no kernel per step: every step runs the step
//! model's own kernels, which take their extents from the cache tensors
//! they are handed. Decoding is greedy argmax over raw logits, which keeps
//! the whole loop deterministic:
//! the token sequence is bit-identical across thread counts, scalar mode,
//! and — because prefill and step share every weight by name and masked
//! softmax terms are exactly zero — identical to recomputing the full
//! prefix from scratch at every position.
//!
//! # Graph conventions
//!
//! The session derives its wiring from the step graph rather than from
//! hard-coded names:
//!
//! * the step graph's **unmarked** inputs, in declaration order, are the
//!   token-id input and the position input, both shape `[1]`
//!   (integer-valued f32);
//! * its **seq-marked** inputs ([`dnnf_graph::Graph::mark_seq_axis`]), in
//!   declaration order, are per-layer `(past keys, past values)` pairs;
//! * outputs are `(appended keys, appended values)` per layer in the same
//!   order, with the logits tensor **last**;
//! * the prefill graph declares the same two unmarked inputs at prompt
//!   length `[P]` and the same output convention, and names its weights
//!   identically to the step graph.

use std::collections::HashMap;
use std::sync::Arc;

use dnnf_core::{CompiledModel, Compiler, LatencyModel};
use dnnf_graph::{Graph, GraphError, SymbolicAxes};
use dnnf_tensor::{Shape, Tensor};

use crate::{Executor, PlanCache, RuntimeError};

/// Index of the first strict maximum of a logit row — the greedy decoding
/// rule. Ties break toward the lower index, so the result is a pure
/// function of the bits of `row`; shared by [`DecodeSession`] and the
/// recompute-from-scratch oracle in the determinism tests.
///
/// Returns 0 for an empty row (a decoder never produces one).
#[must_use]
pub fn greedy_argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in row.iter().enumerate().skip(1) {
        if x > row[best] {
            best = i;
        }
    }
    best
}

/// One layer's cached keys and values (`[heads, S, head_dim]` each).
struct LayerKv {
    k: Arc<Tensor>,
    v: Arc<Tensor>,
}

/// An autoregressive decoding session: a prefill/step model pair, the
/// per-layer KV cache, and the token history. See the module docs.
pub struct DecodeSession {
    executor: Executor,
    prefill: Arc<CompiledModel>,
    step: Arc<CompiledModel>,
    token_input: String,
    position_input: String,
    /// Per-layer `(past keys, past values)` input names, in layer order.
    past_inputs: Vec<(String, String)>,
    /// Empty until [`DecodeSession::prefill`] runs.
    kv: Vec<LayerKv>,
    /// Prompt tokens followed by every generated token.
    tokens: Vec<u32>,
}

fn invalid(reason: impl Into<String>) -> RuntimeError {
    RuntimeError::Graph(GraphError::Invalid {
        reason: reason.into(),
    })
}

impl DecodeSession {
    /// Builds a session over an already-compiled prefill/step pair. The
    /// step model should come from
    /// [`PlanCache::compile_polymorphic`](crate::PlanCache::compile_polymorphic)
    /// with [`SymbolicAxes::SEQ`] so that its single plan serves every cache
    /// length. Both models may be shared with other concurrently-running
    /// sessions — per-session state is only the cache and the token history.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] when either graph violates the decode
    /// conventions in the module docs.
    pub fn new(
        executor: Executor,
        prefill: Arc<CompiledModel>,
        step: Arc<CompiledModel>,
    ) -> Result<Self, RuntimeError> {
        let sg = step.graph();
        let mut unmarked = Vec::new();
        let mut marked = Vec::new();
        for &id in sg.inputs() {
            let value = sg.value(id);
            if sg.seq_axis(id).is_some() {
                marked.push(value.name.clone());
            } else {
                if value.shape.dims() != [1] {
                    return Err(invalid(format!(
                        "step input `{}` must have shape [1], got {:?}",
                        value.name,
                        value.shape.dims()
                    )));
                }
                unmarked.push(value.name.clone());
            }
        }
        let [token_input, position_input] = <[String; 2]>::try_from(unmarked).map_err(|names| {
            invalid(format!(
                "step graph must have exactly 2 unmarked inputs (token ids, positions), got {names:?}"
            ))
        })?;
        if marked.is_empty() || marked.len() % 2 != 0 {
            return Err(invalid(format!(
                "step graph must mark per-layer (past keys, past values) input pairs, got {} marked inputs",
                marked.len()
            )));
        }
        let past_inputs: Vec<(String, String)> = marked
            .chunks_exact(2)
            .map(|pair| (pair[0].clone(), pair[1].clone()))
            .collect();
        let expected_outputs = 2 * past_inputs.len() + 1;
        if sg.outputs().len() != expected_outputs {
            return Err(invalid(format!(
                "step graph must emit (keys, values) per layer then logits: expected {expected_outputs} outputs, got {}",
                sg.outputs().len()
            )));
        }
        let pg = prefill.graph();
        if pg.outputs().len() != expected_outputs {
            return Err(invalid(format!(
                "prefill graph must emit (keys, values) per layer then logits: expected {expected_outputs} outputs, got {}",
                pg.outputs().len()
            )));
        }
        let prefill_names: Vec<&str> = pg
            .inputs()
            .iter()
            .map(|&id| pg.value(id).name.as_str())
            .collect();
        if prefill_names != [token_input.as_str(), position_input.as_str()] {
            return Err(invalid(format!(
                "prefill graph inputs {prefill_names:?} do not match the step graph's `{token_input}`, `{position_input}`"
            )));
        }
        Ok(DecodeSession {
            executor,
            prefill,
            step,
            token_input,
            position_input,
            past_inputs,
            kv: Vec::new(),
            tokens: Vec::new(),
        })
    }

    /// Convenience constructor: compiles the prefill graph through
    /// [`PlanCache::compile_cached`](crate::PlanCache::compile_cached) and
    /// the step graph through
    /// [`PlanCache::compile_polymorphic`](crate::PlanCache::compile_polymorphic)
    /// with the sequence axes symbolic, then builds the session. Repeated
    /// calls with the same graphs hit the cache — further sessions cost no
    /// plan search at all.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors and the convention checks of
    /// [`DecodeSession::new`].
    pub fn compile<L: LatencyModel>(
        executor: Executor,
        cache: &PlanCache,
        compiler: &mut Compiler<L>,
        prefill_graph: &Graph,
        step_graph: &Graph,
    ) -> Result<Self, RuntimeError> {
        let (prefill, _) = cache.compile_cached(compiler, prefill_graph)?;
        let (step, _) = cache.compile_polymorphic(compiler, step_graph, SymbolicAxes::SEQ)?;
        DecodeSession::new(executor, prefill, step)
    }

    /// The prompt length the prefill model was compiled at.
    #[must_use]
    pub fn prompt_len(&self) -> usize {
        let pg = self.prefill.graph();
        pg.value(pg.inputs()[0]).shape.dim(0)
    }

    /// Prompt tokens followed by every generated token so far.
    #[must_use]
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// Current KV-cache length (0 before [`DecodeSession::prefill`]).
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.kv.first().map_or(0, |layer| layer.k.shape().dim(1))
    }

    /// The compiled single-token step model (shared, seq-polymorphic).
    #[must_use]
    pub fn step_model(&self) -> &Arc<CompiledModel> {
        &self.step
    }

    /// The compiled prompt-length prefill model (shared).
    #[must_use]
    pub fn prefill_model(&self) -> &Arc<CompiledModel> {
        &self.prefill
    }

    /// Runs the prompt through the prefill model: seeds the KV cache with
    /// every layer's keys/values, records the prompt, and returns the first
    /// greedily-decoded token (already appended to the history). Calling it
    /// again restarts the session on the new prompt.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] when the prompt length differs from the
    /// length the prefill model was compiled at, or when execution fails.
    pub fn prefill(&mut self, prompt: &[u32]) -> Result<u32, RuntimeError> {
        let expected = self.prompt_len();
        if prompt.len() != expected {
            return Err(invalid(format!(
                "prompt has {} tokens but the prefill model was compiled for {expected}",
                prompt.len()
            )));
        }
        let as_f32 = |values: Vec<f32>| {
            let tensor = Tensor::from_vec(Shape::new(vec![expected]), values);
            Arc::new(tensor.expect("length matches shape"))
        };
        let mut inputs = HashMap::new();
        inputs.insert(
            self.token_input.clone(),
            as_f32(prompt.iter().map(|&t| t as f32).collect()),
        );
        inputs.insert(
            self.position_input.clone(),
            as_f32((0..expected).map(|p| p as f32).collect()),
        );
        let report = self.executor.run(&self.prefill, &inputs)?;
        self.tokens.clear();
        self.tokens.extend_from_slice(prompt);
        Ok(self.absorb(report.outputs))
    }

    /// Decodes one more token: runs the step model on the latest token
    /// against the cache, swaps the appended keys/values in as the new
    /// cache, and returns the greedily-decoded token (already appended to
    /// the history).
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] when called before
    /// [`DecodeSession::prefill`], or when execution fails (e.g. the
    /// position embedding table is exhausted).
    pub fn step(&mut self) -> Result<u32, RuntimeError> {
        if self.kv.is_empty() {
            return Err(invalid("decode step before prefill"));
        }
        let pos = self.tokens.len() - 1;
        let scalar = |value: f32| {
            Arc::new(
                Tensor::from_vec(Shape::new(vec![1]), vec![value]).expect("length matches shape"),
            )
        };
        let mut inputs = HashMap::new();
        inputs.insert(self.token_input.clone(), scalar(self.tokens[pos] as f32));
        inputs.insert(self.position_input.clone(), scalar(pos as f32));
        for ((k_name, v_name), layer) in self.past_inputs.iter().zip(&self.kv) {
            inputs.insert(k_name.clone(), Arc::clone(&layer.k));
            inputs.insert(v_name.clone(), Arc::clone(&layer.v));
        }
        let report = self.executor.run(&self.step, &inputs)?;
        Ok(self.absorb(report.outputs))
    }

    /// Prefills on `prompt` and keeps stepping until `generate` tokens have
    /// been produced; returns exactly the generated tokens.
    ///
    /// # Errors
    ///
    /// As for [`DecodeSession::prefill`] and [`DecodeSession::step`];
    /// `generate` must be at least 1.
    pub fn decode(&mut self, prompt: &[u32], generate: usize) -> Result<Vec<u32>, RuntimeError> {
        if generate == 0 {
            return Err(invalid("must generate at least one token"));
        }
        let mut out = Vec::with_capacity(generate);
        out.push(self.prefill(prompt)?);
        for _ in 1..generate {
            out.push(self.step()?);
        }
        Ok(out)
    }

    /// Installs a run's outputs: per-layer keys/values become the new cache
    /// and the greedy token of the **last** logit row joins the history.
    fn absorb(&mut self, outputs: Vec<Tensor>) -> u32 {
        let mut outputs = outputs.into_iter();
        self.kv = (0..self.past_inputs.len())
            .map(|_| LayerKv {
                k: Arc::new(outputs.next().expect("output arity validated")),
                v: Arc::new(outputs.next().expect("output arity validated")),
            })
            .collect();
        let logits = outputs.next().expect("output arity validated");
        let vocab = logits.shape().dim(logits.shape().rank() - 1);
        let data = logits.data();
        let token = greedy_argmax(&data[data.len() - vocab..]) as u32;
        self.tokens.push(token);
        token
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_argmax_takes_the_first_strict_maximum() {
        assert_eq!(greedy_argmax(&[0.0, 2.0, 1.0]), 1);
        assert_eq!(greedy_argmax(&[3.0, 3.0, 1.0]), 0); // tie -> lower index
        assert_eq!(greedy_argmax(&[-1.0]), 0);
        assert_eq!(greedy_argmax(&[]), 0);
        assert_eq!(greedy_argmax(&[f32::NEG_INFINITY, -5.0]), 1);
    }
}
