//! Shape-polymorphic plan instantiation.
//!
//! A [`FusionPlan`](crate::FusionPlan) stores node *groupings*, not shapes:
//! which operators fuse into which block is decided by operator kinds,
//! mapping types and data-flow topology, none of which change when a
//! symbolic dimension — the batch size or a marked sequence length (see
//! [`DimBinding`]) — does; neither do the execution order and buffer deaths
//! the plan carries, which are built from ids alone. Fused code generation on
//! the other hand bakes loop shapes into its scalar tapes — cheap and
//! deterministic per-shape work.
//!
//! [`CompiledModel::instance_for`] exploits that split: it reuses the
//! expensive profile-driven plan verbatim and re-runs only the cheap codegen
//! ([`compile_plan`]) against the model's graph rebound to the requested
//! dimensions; the instance runs under the model's own plan. The result
//! is one compiled plan (one plan-cache entry) serving *any* batch size and
//! KV-cache length — the engine-side unlock for dynamic request batching in
//! `dnnf-serve` and for a decode loop whose cache grows token by token.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dnnf_graph::{DimBinding, Graph};

use crate::exec::{compile_plan, CompiledPlan};
use crate::{CompiledModel, CoreError};

/// How many distinct bindings a model caches executable instances for.
/// Serving workloads coalesce to a handful of batch sizes (1..=max_batch)
/// and a decode loop walks lengths in order, touching each once, so the
/// least recently used instance — the one evicted beyond this bound — is one
/// that will not be revisited soon. Instances are cheap to rebuild (codegen
/// only), so eviction costs a recompile, never a plan search.
const MAX_CACHED_INSTANCES: usize = 32;

/// One binding's executable view of a compiled model: the model's
/// (rewritten) graph rebound via [`Graph::rebind`] plus the fusion plan
/// recompiled to kernels against those shapes.
///
/// Node and value ids are identical to the parent model's graph, so the
/// parent's fusion plan (with the execution order and buffer deaths it
/// carries) and weight store apply unchanged; only shapes (and therefore
/// loop extents) differ.
#[derive(Debug)]
pub struct PlanInstance {
    binding: DimBinding,
    graph: Graph,
    engine: CompiledPlan,
}

impl PlanInstance {
    /// The binding this instance was requested for (`None` fields keep the
    /// parent model's own dimension).
    #[must_use]
    pub fn binding(&self) -> DimBinding {
        self.binding
    }

    /// The rebound graph (same ids as the parent model's graph).
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The plan compiled to kernels for this binding.
    #[must_use]
    pub fn engine(&self) -> &CompiledPlan {
        &self.engine
    }
}

/// Per-model cache of plan instances, attached (behind a mutex) to the
/// model's [`RuntimeCacheSlot`](crate::RuntimeCacheSlot). Recency-tracked so
/// a long-lived server or decode loop touching many bindings stays bounded.
#[derive(Default)]
struct InstanceMap {
    /// binding -> (last-use tick, instance).
    entries: BTreeMap<DimBinding, (u64, Arc<PlanInstance>)>,
    tick: u64,
}

impl CompiledModel {
    /// Returns an executable [`PlanInstance`] of this model for the given
    /// binding, building it on first use and caching it on the model's
    /// runtime cache slot (shared by clones, dropped with the model).
    ///
    /// Building an instance reuses this model's fusion plan verbatim —
    /// no plan search, no profiling — and re-runs only shape inference
    /// ([`Graph::rebind`]) and fused code generation. The rebound graph has
    /// the model's node and value ids, which is all the plan was built from.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Graph`] when the graph cannot be rebound (a
    /// value of 0, a dimension the graph's inputs do not share, or an
    /// operator whose attributes bake in the native value).
    pub fn instance_for(&self, binding: DimBinding) -> Result<Arc<PlanInstance>, CoreError> {
        let cache = self
            .runtime_cache()
            .get_or_init(Mutex::<InstanceMap>::default);
        {
            let mut state = cache.lock().expect("plan instance lock");
            state.tick += 1;
            let tick = state.tick;
            if let Some(entry) = state.entries.get_mut(&binding) {
                entry.0 = tick;
                return Ok(Arc::clone(&entry.1));
            }
        }

        // Build outside the lock: codegen is cheap but not free, and two
        // threads racing the same new binding must not serialize every
        // other binding behind it. The race loser's instance is dropped.
        let graph = self.graph().rebind(binding)?;
        let engine = compile_plan(&graph, &self.plan);
        let instance = Arc::new(PlanInstance {
            binding,
            graph,
            engine,
        });

        let mut state = cache.lock().expect("plan instance lock");
        state.tick += 1;
        let tick = state.tick;
        let entry = state.entries.entry(binding).or_insert((tick, instance));
        entry.0 = tick;
        let instance = Arc::clone(&entry.1);
        while state.entries.len() > MAX_CACHED_INSTANCES {
            // Evict the least recently used binding. The entry just touched
            // carries the max tick, so it is never the victim.
            let victim = state
                .entries
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(&b, _)| b)
                .expect("non-empty map has a minimum");
            state.entries.remove(&victim);
        }
        Ok(instance)
    }

    /// [`CompiledModel::instance_for`] with only the batch size bound.
    pub fn instance_for_batch(&self, batch: usize) -> Result<Arc<PlanInstance>, CoreError> {
        self.instance_for(DimBinding::batch(batch))
    }

    /// [`CompiledModel::instance_for`] with only the sequence length bound.
    pub fn instance_for_seq(&self, seq_len: usize) -> Result<Arc<PlanInstance>, CoreError> {
        self.instance_for(DimBinding::seq(seq_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, CompilerOptions};
    use dnnf_ops::{Attrs, OpKind};
    use dnnf_tensor::Shape;

    /// Single-query attention scores over a marked-length KV cache.
    fn tiny_seq_model() -> Graph {
        let mut g = Graph::new("tiny-seq");
        let q = g.add_input("q", Shape::new(vec![2, 1, 8]));
        let past = g.add_input("past", Shape::new(vec![2, 4, 8]));
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
        let act = g
            .add_op(OpKind::Relu, Attrs::new(), &[scores], "act")
            .unwrap()[0];
        g.mark_output(act);
        g
    }

    fn compiled() -> CompiledModel {
        Compiler::new(CompilerOptions::default())
            .compile(&tiny_seq_model())
            .unwrap()
    }

    fn both(n: usize) -> DimBinding {
        DimBinding {
            batch: Some(n),
            seq: Some(n + 1),
        }
    }

    /// The three ways to bind the model, each from one number.
    const CASES: [fn(usize) -> DimBinding; 3] = [DimBinding::batch, DimBinding::seq, both];

    #[test]
    fn instances_are_cached_per_binding_and_shared_by_clones() {
        for bind in CASES {
            let model = compiled();
            let native = model.graph().binding();
            assert_eq!((native.batch, native.seq), (Some(2), Some(4)));
            let a = model.instance_for(bind(7)).unwrap();
            assert_eq!(a.binding(), bind(7));
            // Bound axes take the requested value, unbound ones stay native.
            let batch = bind(7).batch.or(native.batch);
            let seq = bind(7).seq.or(native.seq);
            assert_eq!(a.graph().binding(), DimBinding { batch, seq });
            // Same blocks, rebound shapes.
            let out = a.graph().outputs()[0];
            assert_eq!(
                a.graph().value(out).shape.dims(),
                &[batch.unwrap(), 1, seq.unwrap()]
            );
            // Second request hits the cache (pointer-identical), including
            // through a clone of the model (shared runtime cache slot).
            let again = model.clone().instance_for(bind(7)).unwrap();
            assert!(Arc::ptr_eq(&a, &again));
            // A different binding is its own instance.
            let b = model.instance_for(bind(2)).unwrap();
            assert!(!Arc::ptr_eq(&a, &b));
        }
    }

    #[test]
    fn instance_cache_is_bounded() {
        for bind in CASES {
            let model = compiled();
            for n in 1..=(MAX_CACHED_INSTANCES + 8) {
                model.instance_for(bind(n)).unwrap();
            }
            let cache = model
                .runtime_cache()
                .get_or_init(Mutex::<InstanceMap>::default);
            let held = cache.lock().unwrap().entries.len();
            assert!(held <= MAX_CACHED_INSTANCES, "held {held} instances");
            // Evicted bindings rebuild transparently.
            assert_eq!(model.instance_for(bind(1)).unwrap().binding(), bind(1));
        }
    }

    #[test]
    fn rebinding_errors_propagate() {
        for bind in CASES {
            assert!(matches!(
                compiled().instance_for(bind(0)),
                Err(CoreError::Graph(_))
            ));
        }
        // Unmarked models rebatch (weights are batch-free) but cannot
        // produce seq instances.
        let mut g = Graph::new("unmarked");
        let x = g.add_input("x", Shape::new(vec![1, 8]));
        let w = g.add_weight("w", Shape::new(vec![8, 4]));
        let y = g
            .add_op(OpKind::MatMul, Attrs::new(), &[x, w], "proj")
            .unwrap()[0];
        let z = g.add_op(OpKind::Relu, Attrs::new(), &[y], "act").unwrap()[0];
        g.mark_output(z);
        let model = Compiler::new(CompilerOptions::default())
            .compile(&g)
            .unwrap();
        let native = model.graph().binding();
        assert_eq!((native.batch, native.seq), (Some(1), None));
        assert!(matches!(
            model.instance_for_seq(2),
            Err(CoreError::Graph(_))
        ));
        let b4 = model.instance_for_batch(4).unwrap();
        assert_eq!(b4.graph().binding().batch, Some(4));
        let out = b4.graph().outputs()[0];
        assert_eq!(b4.graph().value(out).shape.dims(), &[4, 4]);
    }
}
