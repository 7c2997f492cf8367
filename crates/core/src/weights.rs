//! A compiled model's weights: deterministic materialization, the prepacked
//! kernel layouts, and the store a [`CompiledModel`] owns.
//!
//! The evaluation only needs structurally-faithful models, not trained
//! weights (the paper notes accuracy is identical across frameworks and
//! irrelevant to latency). Weights without explicit data are materialized as
//! small random tensors seeded by the *name* of the weight, so the same
//! logical weight gets identical data before and after graph rewriting —
//! which is what makes the fused-vs-unfused and rewritten-vs-original
//! numerical equivalence checks meaningful. A weight with explicit data
//! shares the graph's payload (`Arc`), never a copy of it.
//!
//! [`WeightStore`] materializes all of a graph's weights once, plus the
//! kernel-friendly prepacked layouts ([`PackedWeights`]), and
//! [`WeightStore::of_model`] keeps the store on the [`CompiledModel`] itself,
//! so every run of every executor — including concurrent ones — shares the
//! same allocations instead of re-materializing per run.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use dnnf_graph::{Graph, Value, ValueId};
use dnnf_ops::OpKind;
use dnnf_profiledb::fnv64;
use dnnf_tensor::Tensor;

use crate::CompiledModel;

/// Scale applied to randomly materialized weights to keep activations in a
/// numerically comfortable range through deep models.
const WEIGHT_SCALE: f32 = 0.05;

/// Whether a weight must be non-negative for the model to stay finite:
/// variance parameters feed a `sqrt` (BatchNormalization, decomposed
/// LayerNorm) and epsilon terms must not cancel the variance. A random
/// negative value here would turn half the channels into NaN and make every
/// fused-vs-unfused numerical comparison vacuous.
fn must_be_non_negative(name: &str) -> bool {
    name.ends_with(".var") || name.ends_with(".eps") || name.ends_with(".running_var")
}

/// The tensor of weight `value`: the graph's own payload when data is
/// attached, otherwise deterministic random data seeded by the FNV-1a hash
/// of its name.
fn materialize(graph: &Graph, value: &Value) -> Arc<Tensor> {
    if let Some(data) = graph.weight_data(value.id) {
        return Arc::clone(data);
    }
    let t =
        Tensor::random(value.shape.clone(), fnv64(value.name.as_bytes())).map(|v| v * WEIGHT_SCALE);
    Arc::new(if must_be_non_negative(&value.name) {
        t.map(f32::abs)
    } else {
        t
    })
}

/// Kernel-friendly prepacked weight layouts, keyed by graph value id.
///
/// Built once per model (the [`WeightStore`] does it alongside weight
/// materialization) and passed to every [`crate::FusedKernel::run`], so the
/// packing cost is paid at compile/first-touch time, never on the inference hot
/// path. It carries two layouts today:
///
/// * **transposed `Gemm` B panels** — a weight consumed by a `Gemm` with
///   `transB = 1` is stored re-laid-out as `(K, N)` row-major, turning the
///   kernel's strided column gathers into contiguous loads;
/// * **OC-blocked `Conv` weight panels** — an ungrouped conv weight with a
///   lane-aligned output-channel count is stored as
///   `(OC / LANES, ICpg·∏k, LANES)`, so the OC-lane conv kernel reads each
///   weight tap for all lanes with one contiguous load instead of a
///   strided gather (see `dnnf_ops::pack_conv_oc_panel`).
///
/// Packing never changes results — a panel supplies the same operand
/// values in the same accumulation order, so outputs are bit-identical with
/// and without it (the kernel tests pin this). An empty
/// (`PackedWeights::default()`) table is always valid: kernels simply read
/// the original operands.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedWeights {
    transposed_b: BTreeMap<ValueId, Arc<Tensor>>,
    conv_oc: BTreeMap<ValueId, Arc<Tensor>>,
}

impl PackedWeights {
    /// Registers the transposed `(K, N)` panel for a `transB = 1` `Gemm`
    /// weight. The caller is responsible for `panel` actually being the
    /// transpose of the operand tensor.
    pub fn insert_transposed_b(&mut self, value: ValueId, panel: Arc<Tensor>) {
        self.transposed_b.insert(value, panel);
    }

    /// The transposed panel packed for `value`, if one was registered.
    #[must_use]
    pub fn transposed_b(&self, value: ValueId) -> Option<&Arc<Tensor>> {
        self.transposed_b.get(&value)
    }

    /// Registers the OC-blocked panel for a `Conv` weight. The caller is
    /// responsible for `panel` being `dnnf_ops::pack_conv_oc_panel` of the
    /// operand tensor (the conv kernel re-validates the panel dimensions
    /// against its launch and falls back to the plain weights on mismatch).
    pub fn insert_conv_oc(&mut self, value: ValueId, panel: Arc<Tensor>) {
        self.conv_oc.insert(value, panel);
    }

    /// The OC-blocked conv panel packed for `value`, if one was registered.
    #[must_use]
    pub fn conv_oc(&self, value: ValueId) -> Option<&Arc<Tensor>> {
        self.conv_oc.get(&value)
    }

    /// Number of packed panels (all layouts).
    #[must_use]
    pub fn len(&self) -> usize {
        self.transposed_b.len() + self.conv_oc.len()
    }

    /// Whether no panel has been packed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transposed_b.is_empty() && self.conv_oc.is_empty()
    }
}

/// A graph's weights, materialized once and shared across runs.
///
/// Every weight tensor lives behind an `Arc`, so handing it to a kernel is a
/// reference-count bump, not a copy; the store also carries the prepacked
/// kernel layouts ([`PackedWeights`] — transposed `Gemm` B panels and
/// OC-blocked `Conv` panels) so repeat inference never re-packs either. The
/// store is immutable after construction and `Send + Sync`: concurrent
/// executors can read it freely.
///
/// Two ways to obtain one:
///
/// * [`WeightStore::of_model`] — the cached path: built at most once per
///   [`CompiledModel`], which owns it, and shared by clones of the model and
///   by every executor. This is what the runtime's real runs of a compiled
///   model use.
/// * [`WeightStore::build`] / [`WeightStore::build_unpacked`] — an uncached
///   store for ad-hoc graph/plan combinations. Outputs are bit-identical
///   either way; only the materialization cost moves.
#[derive(Clone)]
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
            let Some(tensor) = store.get(b) else {
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
    /// differ — this is what the reference interpreter reads, and what the
    /// packed-vs-unpacked differential tests and benchmarks run against.
    #[must_use]
    pub fn build_unpacked(graph: &Graph) -> Self {
        WeightStore {
            tensors: graph
                .values()
                .map(|value| value.is_weight().then(|| materialize(graph, value)))
                .collect(),
            packed: PackedWeights::default(),
        }
    }

    /// The store `model` owns — built on first call, pointer-identical
    /// (`Arc::ptr_eq`) on every later call, shared across clones of the
    /// model (also clones taken before that first call) and across
    /// concurrent executors. Only the first call takes a lock.
    #[must_use]
    pub fn of_model(model: &CompiledModel) -> Arc<Self> {
        Arc::clone(
            model
                .weights
                .get_or_init(|| Arc::new(WeightStore::build(model.graph()))),
        )
    }

    /// The materialized tensor of weight `id` (`None` for non-weights).
    #[must_use]
    pub fn get(&self, id: ValueId) -> Option<&Arc<Tensor>> {
        self.tensors.get(id.index()).and_then(Option::as_ref)
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

impl fmt::Debug for WeightStore {
    /// Counts, not tensors: a model's `Debug` prints its store.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WeightStore")
            .field("weights", &self.len())
            .field("panels", &self.packed.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnf_ops::Attrs;
    use dnnf_tensor::Shape;

    fn tensor(store: &WeightStore, id: ValueId) -> &Tensor {
        store.get(id).expect("weight materialized")
    }

    #[test]
    fn weights_are_deterministic_in_name_not_id() {
        let mut g1 = Graph::new("a");
        let w1 = g1.add_weight("layer.w", Shape::new(vec![4, 4]));
        let mut g2 = Graph::new("b");
        // Different id (an input precedes it) but the same name.
        let _x = g2.add_input("x", Shape::new(vec![1]));
        let w2 = g2.add_weight("layer.w", Shape::new(vec![4, 4]));
        let m1 = WeightStore::build_unpacked(&g1);
        let m2 = WeightStore::build_unpacked(&g2);
        assert_eq!(tensor(&m1, w1), tensor(&m2, w2));
    }

    #[test]
    fn explicit_data_wins_over_random_and_is_shared() {
        let mut g = Graph::new("explicit");
        let data = Tensor::full(Shape::new(vec![2]), 3.0);
        let w = g.add_weight_with_data("w", data.clone());
        let m = WeightStore::build_unpacked(&g);
        assert_eq!(tensor(&m, w), &data);
        assert!(Arc::ptr_eq(m.get(w).unwrap(), g.weight_data(w).unwrap()));
    }

    #[test]
    fn only_weights_are_materialized() {
        let mut g = Graph::new("mixed");
        let x = g.add_input("x", Shape::new(vec![2]));
        let w = g.add_weight("w", Shape::new(vec![2]));
        let y = g.add_op(OpKind::Add, Attrs::new(), &[x, w], "add").unwrap()[0];
        g.mark_output(y);
        let m = WeightStore::build_unpacked(&g);
        assert_eq!(m.len(), 1);
        assert!(m.get(w).is_some());
        assert!(m.get(x).is_none() && m.get(y).is_none());
    }

    #[test]
    fn random_weights_are_small() {
        let mut g = Graph::new("scale");
        let w = g.add_weight("w", Shape::new(vec![64]));
        let m = WeightStore::build_unpacked(&g);
        assert!(tensor(&m, w).iter().all(|v| v.abs() <= WEIGHT_SCALE));
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
        let reference = WeightStore::build_unpacked(&g);
        assert_eq!(store.len(), reference.len());
        assert!(!store.is_empty());
        for value in g.values() {
            assert_eq!(
                store.get(value.id),
                reference.get(value.id),
                "store diverged for value {:?}",
                value.id
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
        assert_eq!(
            panel.as_ref(),
            &tensor(&reference, w_t).transpose(&[1, 0]).unwrap()
        );
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
            &dnnf_ops::pack_conv_oc_panel(tensor(&store, w_ok)).unwrap()
        );
        assert!(store.packed().conv_oc(w_ragged).is_none());
        assert!(store.packed().conv_oc(w_grouped).is_none());

        // The unpacked builder materializes the same tensors, no panels.
        let unpacked = WeightStore::build_unpacked(&g);
        assert!(unpacked.packed().is_empty());
        assert_eq!(unpacked.len(), store.len());
        assert_eq!(tensor(&unpacked, w_ok), tensor(&store, w_ok));
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
        let m = WeightStore::build_unpacked(&g);
        assert!(
            tensor(&m, var).iter().all(|&v| v >= 0.0),
            "variance must not feed sqrt a negative"
        );
        assert!(tensor(&m, eps).iter().all(|&v| v >= 0.0));
        assert!(
            tensor(&m, plain).iter().any(|&v| v < 0.0),
            "ordinary weights stay signed"
        );
    }
}
