//! Deterministic weight materialization and the cross-run weight store.
//!
//! The evaluation only needs structurally-faithful models, not trained
//! weights (the paper notes accuracy is identical across frameworks and
//! irrelevant to latency). Weights without explicit data are materialized as
//! small random tensors seeded by the *name* of the weight, so the same
//! logical weight gets identical data before and after graph rewriting —
//! which is what makes the fused-vs-unfused and rewritten-vs-original
//! numerical equivalence checks meaningful.
//!
//! [`WeightStore`] turns that materialization into a **reusable asset**: all
//! of a graph's weights are materialized once into `Arc`-backed tensors
//! (plus any kernel-friendly prepacked layouts, see
//! [`dnnf_core::PackedWeights`]), and [`WeightStore::of_model`] caches the
//! store on the [`CompiledModel`] itself so every run of every executor —
//! including concurrent ones — shares the same allocations instead of
//! re-materializing per run.

use std::collections::HashMap;
use std::sync::Arc;

use dnnf_core::{CompiledModel, PackedWeights};
use dnnf_graph::{Graph, ValueId};
use dnnf_ops::OpKind;
use dnnf_tensor::Tensor;

/// Scale applied to randomly materialized weights to keep activations in a
/// numerically comfortable range through deep models.
const WEIGHT_SCALE: f32 = 0.05;

/// FNV-1a hash of a name, used as the weight's RNG seed.
fn name_seed(name: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Whether a weight must be non-negative for the model to stay finite:
/// variance parameters feed a `sqrt` (BatchNormalization, decomposed
/// LayerNorm) and epsilon terms must not cancel the variance. A random
/// negative value here would turn half the channels into NaN and make every
/// fused-vs-unfused numerical comparison vacuous.
fn must_be_non_negative(name: &str) -> bool {
    name.ends_with(".var") || name.ends_with(".eps") || name.ends_with(".running_var")
}

/// Materializes every weight of a graph: explicit data when attached,
/// otherwise deterministic (name-seeded) random data.
#[must_use]
pub fn materialize_weights(graph: &Graph) -> HashMap<ValueId, Tensor> {
    let mut weights = HashMap::new();
    for value in graph.values() {
        if !value.is_weight() {
            continue;
        }
        let tensor = match graph.weight_data(value.id) {
            Some(data) => data.clone(),
            None => {
                let t = Tensor::random(value.shape.clone(), name_seed(&value.name))
                    .map(|v| v * WEIGHT_SCALE);
                if must_be_non_negative(&value.name) {
                    t.map(f32::abs)
                } else {
                    t
                }
            }
        };
        weights.insert(value.id, tensor);
    }
    weights
}

/// A graph's weights, materialized once and shared across runs.
///
/// Every weight tensor lives behind an `Arc`, so handing it to a run's
/// environment is a reference-count bump, not a copy; the store also carries
/// the prepacked kernel layouts ([`PackedWeights`] — transposed `Gemm` B
/// panels and OC-blocked `Conv` panels) so repeat inference never re-packs
/// either. The store is
/// immutable after construction and `Send + Sync`: concurrent executors can
/// read it freely.
///
/// Two ways to obtain one:
///
/// * [`WeightStore::of_model`] — the cached path: built at most once per
///   [`CompiledModel`] (stored in the model's
///   [`dnnf_core::RuntimeCacheSlot`]) and shared by clones of the model and
///   by every executor. This is what [`crate::Executor::run_compiled`] uses.
/// * [`WeightStore::build`] — an uncached store for ad-hoc graph/plan
///   combinations (what [`crate::Executor::run_plan`] builds per call, and
///   what a caller of [`crate::Executor::run_engine`] passes in). Outputs
///   are bit-identical either way; only the materialization cost moves.
#[derive(Debug, Clone)]
pub struct WeightStore {
    /// Weight tensors indexed by `ValueId::index()`; non-weight slots stay
    /// `None`.
    tensors: Vec<Option<Arc<Tensor>>>,
    packed: PackedWeights,
}

impl WeightStore {
    /// Materializes every weight of `graph` (and its prepacked layouts)
    /// into a fresh store.
    #[must_use]
    pub fn build(graph: &Graph) -> Self {
        let mut store = Self::build_unpacked(graph);
        // Prepack kernel-friendly layouts once, so the kernels' inner loops
        // load contiguously on every run. Packing is an access-pattern
        // change only; results are bit-identical (pinned by the kernel
        // tests and the runtime packed-vs-unpacked differential).
        //
        // * Gemm, transB = 1: the rank-2 weight's (K, N) transpose panel.
        // * Conv, group = 1, OC lane-aligned: the OC-blocked
        //   (OC/LANES, ICpg·∏k, LANES) panel.
        let mut packed = PackedWeights::default();
        for node_id in graph.topo_order() {
            let node = graph.node(node_id);
            let Some(&b) = node.inputs.get(1) else {
                continue;
            };
            if !graph.value(b).is_weight() {
                continue;
            }
            let Some(tensor) = &store.tensors[b.index()] else {
                continue;
            };
            match node.op {
                OpKind::Gemm
                    if node.attrs.int_or("transB", 0) != 0 && packed.transposed_b(b).is_none() =>
                {
                    if let Ok(panel) = tensor.transpose(&[1, 0]) {
                        packed.insert_transposed_b(b, Arc::new(panel));
                    }
                }
                OpKind::Conv
                    if node.attrs.int_or("group", 1) == 1 && packed.conv_oc(b).is_none() =>
                {
                    if let Some(panel) = dnnf_ops::pack_conv_oc_panel(tensor) {
                        packed.insert_conv_oc(b, Arc::new(panel));
                    }
                }
                _ => {}
            }
        }
        store.packed = packed;
        store
    }

    /// Materializes every weight of `graph` into a store with **no**
    /// prepacked layouts. Kernels then read the original strided operands.
    /// Outputs are bit-identical to a packed store's; only access patterns
    /// differ — this exists for packed-vs-unpacked differential tests and
    /// the `conv_pack_speedup` benchmark column.
    #[must_use]
    pub fn build_unpacked(graph: &Graph) -> Self {
        let mut tensors: Vec<Option<Arc<Tensor>>> = vec![None; graph.value_count()];
        for (id, tensor) in materialize_weights(graph) {
            tensors[id.index()] = Some(Arc::new(tensor));
        }
        WeightStore {
            tensors,
            packed: PackedWeights::default(),
        }
    }

    /// The store cached on `model` — built on first call, pointer-identical
    /// (`Arc::ptr_eq`) on every later call, shared across clones of the
    /// model and across concurrent executors.
    #[must_use]
    pub fn of_model(model: &CompiledModel) -> Arc<Self> {
        model
            .runtime_cache()
            .get_or_init(|| WeightStore::build(model.graph()))
    }

    /// The materialized tensor of weight `id` (`None` for non-weights).
    #[must_use]
    pub fn get(&self, id: ValueId) -> Option<&Arc<Tensor>> {
        self.tensors.get(id.index()).and_then(Option::as_ref)
    }

    /// Every value slot of the graph: `Some` at the weights, `None` elsewhere.
    pub(crate) fn slots(&self) -> &[Option<Arc<Tensor>>] {
        &self.tensors
    }

    /// The prepacked kernel layouts.
    #[must_use]
    pub fn packed(&self) -> &PackedWeights {
        &self.packed
    }

    /// Number of materialized weights.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tensors.iter().filter(|t| t.is_some()).count()
    }

    /// Whether the graph had no weights at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnf_ops::{Attrs, OpKind};
    use dnnf_tensor::Shape;

    #[test]
    fn weights_are_deterministic_in_name_not_id() {
        let mut g1 = Graph::new("a");
        let w1 = g1.add_weight("layer.w", Shape::new(vec![4, 4]));
        let mut g2 = Graph::new("b");
        // Different id (an input precedes it) but the same name.
        let _x = g2.add_input("x", Shape::new(vec![1]));
        let w2 = g2.add_weight("layer.w", Shape::new(vec![4, 4]));
        let m1 = materialize_weights(&g1);
        let m2 = materialize_weights(&g2);
        assert_eq!(m1[&w1], m2[&w2]);
    }

    #[test]
    fn explicit_data_wins_over_random() {
        let mut g = Graph::new("explicit");
        let data = Tensor::full(Shape::new(vec![2]), 3.0);
        let w = g.add_weight_with_data("w", data.clone());
        let m = materialize_weights(&g);
        assert_eq!(m[&w], data);
    }

    #[test]
    fn only_weights_are_materialized() {
        let mut g = Graph::new("mixed");
        let x = g.add_input("x", Shape::new(vec![2]));
        let w = g.add_weight("w", Shape::new(vec![2]));
        let y = g.add_op(OpKind::Add, Attrs::new(), &[x, w], "add").unwrap()[0];
        g.mark_output(y);
        let m = materialize_weights(&g);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(&w));
    }

    #[test]
    fn random_weights_are_small() {
        let mut g = Graph::new("scale");
        let w = g.add_weight("w", Shape::new(vec![64]));
        let m = materialize_weights(&g);
        assert!(m[&w].iter().all(|v| v.abs() <= WEIGHT_SCALE));
    }

    #[test]
    fn store_matches_materialization_and_packs_only_transposed_gemm_weights() {
        let mut g = Graph::new("store");
        let x = g.add_input("x", Shape::new(vec![2, 4]));
        let w_t = g.add_weight("fc.w", Shape::new(vec![3, 4]));
        let w_plain = g.add_weight("fc2.w", Shape::new(vec![3, 5]));
        let gemm = g
            .add_op(
                OpKind::Gemm,
                Attrs::new().with_int("transB", 1),
                &[x, w_t],
                "fc",
            )
            .unwrap()[0];
        let out = g
            .add_op(OpKind::Gemm, Attrs::new(), &[gemm, w_plain], "fc2")
            .unwrap()[0];
        g.mark_output(out);

        let store = WeightStore::build(&g);
        let reference = materialize_weights(&g);
        assert_eq!(store.len(), reference.len());
        assert!(!store.is_empty());
        for (&id, tensor) in &reference {
            assert_eq!(
                store.get(id).unwrap().as_ref(),
                tensor,
                "store diverged for value {id:?}"
            );
        }
        assert!(store.get(x).is_none(), "inputs are not weights");

        // Only the transB-consumed weight gets a panel, and the panel is its
        // exact transpose.
        assert_eq!(store.packed().len(), 1);
        assert!(store.packed().transposed_b(w_plain).is_none());
        let panel = store
            .packed()
            .transposed_b(w_t)
            .expect("transB weight packed");
        assert_eq!(panel.as_ref(), &reference[&w_t].transpose(&[1, 0]).unwrap());
    }

    #[test]
    fn store_packs_lane_aligned_ungrouped_conv_weights() {
        let lanes = dnnf_ops::CONV_PANEL_LANES;
        let mut g = Graph::new("conv-pack");
        let x = g.add_input("x", Shape::new(vec![1, 2, 6, 6]));
        // Lane-aligned OC, group 1: packed.
        let w_ok = g.add_weight("conv.w", Shape::new(vec![lanes, 2, 3, 3]));
        let c1 = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w_ok],
                "conv",
            )
            .unwrap()[0];
        // Ragged OC: no panel form.
        let w_ragged = g.add_weight("conv2.w", Shape::new(vec![3, lanes, 1, 1]));
        let c2 = g
            .add_op(OpKind::Conv, Attrs::new(), &[c1, w_ragged], "conv2")
            .unwrap()[0];
        // Grouped conv: never packed, even with lane-aligned OC.
        let w_grouped = g.add_weight("conv3.w", Shape::new(vec![3, 1, 1, 1]));
        let c3 = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_int("group", 3),
                &[c2, w_grouped],
                "conv3",
            )
            .unwrap()[0];
        g.mark_output(c3);

        let store = WeightStore::build(&g);
        assert_eq!(store.packed().len(), 1);
        let panel = store.packed().conv_oc(w_ok).expect("aligned conv packed");
        assert_eq!(
            panel.shape().dims(),
            &[1, 2 * 3 * 3, lanes],
            "panel is (OC/LANES, ICpg*k, LANES)"
        );
        assert_eq!(
            panel.as_ref(),
            &dnnf_ops::pack_conv_oc_panel(store.get(w_ok).unwrap()).unwrap()
        );
        assert!(store.packed().conv_oc(w_ragged).is_none());
        assert!(store.packed().conv_oc(w_grouped).is_none());

        // The unpacked builder materializes the same tensors, no panels.
        let unpacked = WeightStore::build_unpacked(&g);
        assert!(unpacked.packed().is_empty());
        assert_eq!(unpacked.len(), store.len());
        assert_eq!(
            unpacked.get(w_ok).unwrap().as_ref(),
            store.get(w_ok).unwrap().as_ref()
        );
    }

    #[test]
    fn gemm_fed_by_a_computed_operand_is_not_packed() {
        // The B operand is a graph input here, not a weight: nothing to
        // prepack (its data changes per run).
        let mut g = Graph::new("no-pack");
        let x = g.add_input("x", Shape::new(vec![2, 4]));
        let b = g.add_input("b", Shape::new(vec![3, 4]));
        let out = g
            .add_op(
                OpKind::Gemm,
                Attrs::new().with_int("transB", 1),
                &[x, b],
                "fc",
            )
            .unwrap()[0];
        g.mark_output(out);
        let store = WeightStore::build(&g);
        assert!(store.packed().is_empty());
        assert!(store.is_empty());
    }

    #[test]
    fn variance_like_weights_are_non_negative() {
        let mut g = Graph::new("variance");
        let var = g.add_weight("layer.bn.var", Shape::new(vec![64]));
        let eps = g.add_weight("layer.eps", Shape::new(vec![1]));
        let plain = g.add_weight("layer.w", Shape::new(vec![64]));
        let m = materialize_weights(&g);
        assert!(
            m[&var].iter().all(|&v| v >= 0.0),
            "variance must not feed sqrt a negative"
        );
        assert!(m[&eps].iter().all(|&v| v >= 0.0));
        assert!(
            m[&plain].iter().any(|&v| v < 0.0),
            "ordinary weights stay signed"
        );
    }
}
