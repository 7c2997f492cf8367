//! The end-to-end DNNFusion compiler driver.
//!
//! [`Compiler::compile`] runs the pipeline that produces what executes —
//! graph rewriting, fusion plan generation and kernel compilation — and
//! records per-phase statistics and timings. Rewriting and fusion can each
//! be switched off, which is how the evaluation harness reproduces the
//! optimization-breakdown experiment (Figure 7) and the compilation-time
//! experiment (Figure 9b). The compiled kernels are the paper's generated
//! code; [`crate::FusedKernel::listing`] prints one.

use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dnnf_graph::Graph;
use dnnf_profiledb::ProfileDatabase;

use crate::exec::{compile_plan, CompiledPlan};
use crate::plan::{MAX_BLOCK_OPS, MAX_EXTERNAL_INPUTS, USE_PROFILE};
use crate::rewrite::{AppliedRewrite, RewriteEngine};
use crate::{AnalyticLatencyModel, CoreError, Ecg, FusionPlan, FusionPlanner, LatencyModel};

/// Which optimizations the compiler runs (the knobs of Figure 7's ablation).
///
/// The paper's Figure 7 has a third knob, "Other" (§4.4.2: intra-block
/// data-movement elimination and inter-block layout selection). Nothing
/// here executes or costs it, so it is not an option.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompilerOptions {
    /// Mathematical-property-based graph rewriting (GR in Figure 7).
    pub enable_graph_rewriting: bool,
    /// Profile-driven fusion plan generation (Fuse in Figure 7); off, every
    /// operator is its own block.
    pub enable_fusion: bool,
}

impl Default for CompilerOptions {
    /// Rewriting and fusion both on (the `GR + Fuse` bar of Figure 7).
    fn default() -> Self {
        CompilerOptions {
            enable_graph_rewriting: true,
            enable_fusion: true,
        }
    }
}

impl CompilerOptions {
    /// Everything off: the no-fusion baseline (`OurB`).
    #[must_use]
    pub fn baseline() -> Self {
        CompilerOptions {
            enable_graph_rewriting: false,
            enable_fusion: false,
        }
    }

    /// Graph rewriting only (the `GR` bar of Figure 7).
    #[must_use]
    pub fn rewriting_only() -> Self {
        CompilerOptions {
            enable_fusion: false,
            ..Default::default()
        }
    }

    /// Fusion but *no* graph rewriting (the `Fuse` bar of Figure 7).
    #[must_use]
    pub fn without_rewriting() -> Self {
        CompilerOptions {
            enable_graph_rewriting: false,
            ..Default::default()
        }
    }

    /// A stable, human-readable encoding of every option — and every
    /// plan-search constant — that can change what [`Compiler::compile`]
    /// produces. Two option sets with equal cache keys compile any given
    /// graph to the same plan; the runtime's compilation cache uses this
    /// string as the options component of its `(fingerprint, shape
    /// signature, options)` key, so changing these bytes means bumping the
    /// cache's on-disk format version.
    #[must_use]
    pub fn cache_key(&self) -> String {
        format!(
            "gr={};fuse={};max_block_ops={MAX_BLOCK_OPS};max_external_inputs={MAX_EXTERNAL_INPUTS};use_profile={}",
            u8::from(self.enable_graph_rewriting),
            u8::from(self.enable_fusion),
            u8::from(USE_PROFILE),
        )
    }
}

/// Statistics collected during one compilation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompilationStats {
    /// Model name (from the input graph).
    pub model_name: String,
    /// Operator count before any optimization.
    pub original_layers: usize,
    /// Operator count after graph rewriting.
    pub layers_after_rewriting: usize,
    /// Fused layer count (= number of fusion blocks).
    pub fused_layers: usize,
    /// FLOPs before rewriting.
    pub original_flops: u64,
    /// FLOPs after rewriting.
    pub optimized_flops: u64,
    /// Intermediate-result bytes before fusion.
    pub original_irs_bytes: u64,
    /// Intermediate-result bytes that still cross fused-kernel boundaries.
    pub fused_irs_bytes: u64,
    /// Rewrites applied, in order.
    pub rewrites: Vec<AppliedRewrite>,
    /// Profiling-database hits during plan exploration.
    pub profile_db_hits: u64,
    /// Profiling-database misses (i.e. measurements performed).
    pub profile_db_misses: u64,
    /// Entries in the profiling database after compilation.
    pub profile_db_entries: usize,
    /// Wall-clock time spent in graph rewriting.
    pub time_rewriting: Duration,
    /// Wall-clock time spent in fusion plan generation (including profiling).
    pub time_planning: Duration,
    /// Wall-clock time spent compiling the plan's blocks to executable
    /// kernels ([`compile_plan`]).
    pub time_codegen: Duration,
}

impl CompilationStats {
    /// Fusion rate = original layer count / fused layer count (Table 5).
    #[must_use]
    pub fn fusion_rate(&self) -> f64 {
        if self.fused_layers == 0 {
            1.0
        } else {
            self.original_layers as f64 / self.fused_layers as f64
        }
    }

    /// Intermediate-result reduction factor.
    #[must_use]
    pub fn irs_reduction(&self) -> f64 {
        if self.fused_irs_bytes == 0 {
            1.0
        } else {
            self.original_irs_bytes as f64 / self.fused_irs_bytes as f64
        }
    }

    /// Total compilation time across phases.
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.time_rewriting + self.time_planning + self.time_codegen
    }
}

/// An opaque, lazily initialized cache where the runtime attaches per-model
/// derived state (the materialized weight store of `dnnf-runtime`, the plan
/// cache's bookkeeping, …).
///
/// The slot lives on [`CompiledModel`] so the cached state has exactly the
/// model's lifetime: it is shared by clones of the model and by concurrent
/// executors (`Arc`), and dropped with the last model handle. It is
/// deliberately untyped (`dyn Any`) so `dnnf-core` stays independent of the
/// crates layered above it, and it holds one entry **per consumer type**
/// (keyed by [`TypeId`]), so independent consumers — say a weight store and
/// a serving layer's own state — can share one model without trampling each
/// other. Equality ignores the slot — caches are derived state, not part of
/// a model's semantic identity.
#[derive(Clone, Default)]
pub struct RuntimeCacheSlot(Arc<Mutex<BTreeMap<TypeId, Arc<dyn Any + Send + Sync>>>>);

impl RuntimeCacheSlot {
    /// Returns the cached value of type `T`, initializing it on first call.
    /// Every later call for the same `T` — from any thread, on any clone of
    /// the owning model — returns the same `Arc` (pointer-identical);
    /// concurrent first calls race safely and exactly one `init` result is
    /// kept. Calls for a *different* type get their own independent entry.
    pub fn get_or_init<T: Send + Sync + 'static>(&self, init: impl FnOnce() -> T) -> Arc<T> {
        let key = TypeId::of::<T>();
        if let Some(existing) = self.0.lock().expect("cache slot lock").get(&key) {
            return Arc::clone(existing)
                .downcast::<T>()
                .expect("cache entry is keyed by its own TypeId");
        }
        // Build the candidate outside the lock: a slow init must not block
        // other consumer types, and an init that itself touches the slot
        // must not deadlock. If another thread won the race meanwhile, its
        // value is kept and ours is dropped (same "exactly one init result
        // survives" semantics the old OnceLock gave a single type).
        let candidate: Arc<dyn Any + Send + Sync> = Arc::new(init());
        let mut map = self.0.lock().expect("cache slot lock");
        let entry = map.entry(key).or_insert(candidate);
        Arc::clone(entry)
            .downcast::<T>()
            .expect("cache entry is keyed by its own TypeId")
    }

    /// Whether any consumer has initialized an entry.
    #[must_use]
    pub fn is_initialized(&self) -> bool {
        !self.0.lock().expect("cache slot lock").is_empty()
    }
}

impl fmt::Debug for RuntimeCacheSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries = self.0.lock().expect("cache slot lock").len();
        f.debug_tuple("RuntimeCacheSlot").field(&entries).finish()
    }
}

impl PartialEq for RuntimeCacheSlot {
    /// Always equal: the cache is derived, re-creatable state.
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// The result of compiling a model with DNNFusion.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    /// The (possibly rewritten) extended computational graph.
    pub ecg: Ecg,
    /// The fusion plan.
    pub plan: FusionPlan,
    /// The plan compiled to executable kernels (see [`crate::exec`]), built
    /// once here so repeated inference never re-compiles on the hot path.
    pub engine: CompiledPlan,
    /// Compilation statistics.
    pub stats: CompilationStats,
    runtime_cache: RuntimeCacheSlot,
}

impl CompiledModel {
    /// The optimized computational graph the plan refers to.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.ecg.graph()
    }

    /// The runtime's per-model cache slot (see [`RuntimeCacheSlot`]). Clones
    /// of this model share the slot, so whatever the runtime caches here —
    /// the materialized weight store — is built once per compiled model, not
    /// once per run or per executor.
    #[must_use]
    pub fn runtime_cache(&self) -> &RuntimeCacheSlot {
        &self.runtime_cache
    }
}

/// The DNNFusion compiler.
#[derive(Debug)]
pub struct Compiler<L: LatencyModel = AnalyticLatencyModel> {
    options: CompilerOptions,
    latency: L,
    database: ProfileDatabase,
}

impl Compiler<AnalyticLatencyModel> {
    /// Creates a compiler with the default analytic latency model.
    #[must_use]
    pub fn new(options: CompilerOptions) -> Self {
        Compiler {
            options,
            latency: AnalyticLatencyModel::default(),
            database: ProfileDatabase::new(),
        }
    }
}

impl<L: LatencyModel> Compiler<L> {
    /// Creates a compiler with a custom latency model (e.g. a simulated
    /// device from `dnnf-simdev`).
    #[must_use]
    pub fn with_latency_model(options: CompilerOptions, latency: L) -> Self {
        Compiler {
            options,
            latency,
            database: ProfileDatabase::new(),
        }
    }

    /// Pre-loads a profiling database (the "with database" configuration of
    /// Figure 9b).
    #[must_use]
    pub fn with_database(mut self, database: ProfileDatabase) -> Self {
        self.database = database;
        self
    }

    /// The compiler's options.
    #[must_use]
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    /// The profiling database accumulated so far.
    #[must_use]
    pub fn database(&self) -> &ProfileDatabase {
        &self.database
    }

    /// Consumes the compiler and returns its profiling database (to persist
    /// it for future compilations).
    #[must_use]
    pub fn into_database(self) -> ProfileDatabase {
        self.database
    }

    /// Compiles a model graph.
    ///
    /// # Errors
    ///
    /// Returns an error if the input graph is invalid or a pipeline
    /// invariant is violated.
    pub fn compile(&mut self, graph: &Graph) -> Result<CompiledModel, CoreError> {
        self.compile_inner(graph, None)
    }

    /// Compiles a model graph replaying a previously discovered fusion plan:
    /// phase 2's exploration is replaced by [`FusionPlan::from_blocks`] over
    /// `groups` (node-index groups on the *rewritten* graph). This is the
    /// warm-start path of the runtime's on-disk plan cache — rewriting is
    /// deterministic, so node indices recorded after one compilation's
    /// rewrite phase address the same operators after the next.
    ///
    /// Correctness never depends on the groups being *good*:
    /// `from_blocks` checks that they name nodes of the rewritten graph,
    /// each at most once, and that the fused block graph stays acyclic, and
    /// rejects them otherwise — a stale or corrupted plan produces an error
    /// (and a cold recompile at the caller), never a wrong program.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is invalid or the groups do not form a
    /// valid partition of the rewritten graph's nodes.
    pub fn compile_with_blocks(
        &mut self,
        graph: &Graph,
        groups: Vec<Vec<dnnf_graph::NodeId>>,
    ) -> Result<CompiledModel, CoreError> {
        self.compile_inner(graph, Some(groups))
    }

    fn compile_inner(
        &mut self,
        graph: &Graph,
        replay: Option<Vec<Vec<dnnf_graph::NodeId>>>,
    ) -> Result<CompiledModel, CoreError> {
        graph.validate()?;
        let original_stats = graph.stats();
        let mut stats = CompilationStats {
            model_name: graph.name().to_string(),
            original_layers: original_stats.total_layers,
            original_flops: original_stats.flops,
            original_irs_bytes: original_stats.intermediate_bytes,
            ..CompilationStats::default()
        };

        // Phase 1: mathematical-property-based graph rewriting.
        let t = Instant::now();
        let rewritten = if self.options.enable_graph_rewriting {
            let engine = RewriteEngine::with_default_rules();
            let (g, applied) = engine.run(graph);
            stats.rewrites = applied;
            g
        } else {
            graph.clone()
        };
        stats.time_rewriting = t.elapsed();
        let rewritten_stats = rewritten.stats();
        stats.layers_after_rewriting = rewritten_stats.total_layers;
        stats.optimized_flops = rewritten_stats.flops;

        // Phase 2: fusion plan generation on the ECG.
        let t = Instant::now();
        let ecg = Ecg::new(rewritten);
        self.database.reset_counters();
        let plan = match replay {
            Some(groups) => FusionPlan::from_blocks(&ecg, groups)?,
            None if self.options.enable_fusion => {
                let planner = FusionPlanner::new(&ecg, &self.latency);
                planner.plan(&mut self.database)?
            }
            None => FusionPlan::singletons(&ecg),
        };
        stats.time_planning = t.elapsed();
        stats.fused_layers = plan.fused_layer_count();
        stats.fused_irs_bytes = plan.fused_irs_bytes(ecg.graph());
        stats.profile_db_hits = self.database.hits();
        stats.profile_db_misses = self.database.misses();
        stats.profile_db_entries = self.database.len();

        // Phase 3: the executable kernels the runtime dispatches.
        let t = Instant::now();
        let engine = compile_plan(ecg.graph(), &plan);
        stats.time_codegen = t.elapsed();

        Ok(CompiledModel {
            ecg,
            plan,
            engine,
            stats,
            runtime_cache: RuntimeCacheSlot::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnf_ops::{Attrs, OpKind};
    use dnnf_tensor::Shape;

    /// A small CNN stage with a rewritable tail:
    /// Conv -> BN-ish (Mul/Add with broadcast) -> Relu -> MaxPool, plus the
    /// distributive pattern A⊙C + A⊙B on the side.
    fn sample_model() -> Graph {
        let mut g = Graph::new("sample");
        let x = g.add_input("x", Shape::new(vec![1, 8, 16, 16]));
        let w = g.add_weight("conv.w", Shape::new(vec![8, 8, 3, 3]));
        let conv = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w],
                "conv",
            )
            .unwrap()[0];
        let scale = g.add_weight("bn.scale", Shape::new(vec![1, 8, 1, 1]));
        let shift = g.add_weight("bn.shift", Shape::new(vec![1, 8, 1, 1]));
        let mul = g
            .add_op(OpKind::Mul, Attrs::new(), &[conv, scale], "bn.mul")
            .unwrap()[0];
        let add = g
            .add_op(OpKind::Add, Attrs::new(), &[mul, shift], "bn.add")
            .unwrap()[0];
        let relu = g
            .add_op(OpKind::Relu, Attrs::new(), &[add], "relu")
            .unwrap()[0];
        let pool = g
            .add_op(
                OpKind::MaxPool,
                Attrs::new()
                    .with_ints("kernel_shape", vec![2, 2])
                    .with_ints("strides", vec![2, 2]),
                &[relu],
                "pool",
            )
            .unwrap()[0];
        // Distributive tail: pool⊙C + pool⊙B.
        let cb = g.add_weight("C", Shape::new(vec![1, 8, 8, 8]));
        let bb = g.add_weight("B", Shape::new(vec![1, 8, 8, 8]));
        let pc = g
            .add_op(OpKind::Mul, Attrs::new(), &[pool, cb], "pc")
            .unwrap()[0];
        let pb = g
            .add_op(OpKind::Mul, Attrs::new(), &[pool, bb], "pb")
            .unwrap()[0];
        let out = g
            .add_op(OpKind::Add, Attrs::new(), &[pc, pb], "out")
            .unwrap()[0];
        g.mark_output(out);
        g
    }

    #[test]
    fn full_pipeline_reduces_layers_flops_and_irs() {
        let g = sample_model();
        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&g).unwrap();
        let s = &compiled.stats;
        assert_eq!(s.original_layers, 8);
        assert!(
            s.layers_after_rewriting < s.original_layers,
            "rewriting should drop layers"
        );
        assert!(
            s.fused_layers < s.layers_after_rewriting,
            "fusion should drop layers further"
        );
        assert!(s.optimized_flops <= s.original_flops);
        assert!(s.fused_irs_bytes < s.original_irs_bytes);
        assert!(s.fusion_rate() > 1.0);
        assert!(s.irs_reduction() > 1.0);
    }

    #[test]
    fn baseline_options_do_nothing() {
        let g = sample_model();
        let mut compiler = Compiler::new(CompilerOptions::baseline());
        let compiled = compiler.compile(&g).unwrap();
        assert_eq!(compiled.stats.fused_layers, g.node_count());
        assert_eq!(compiled.stats.layers_after_rewriting, g.node_count());
        assert!(compiled.stats.rewrites.is_empty());
    }

    #[test]
    fn rewriting_only_keeps_every_layer_unfused() {
        let g = sample_model();
        let mut compiler = Compiler::new(CompilerOptions::rewriting_only());
        let compiled = compiler.compile(&g).unwrap();
        assert!(!compiled.stats.rewrites.is_empty());
        assert_eq!(
            compiled.stats.fused_layers,
            compiled.stats.layers_after_rewriting
        );
    }

    #[test]
    fn rewriting_enables_more_fusion_like_the_paper_gpt2_example() {
        let g = sample_model();
        let with = Compiler::new(CompilerOptions::default())
            .compile(&g)
            .unwrap();
        let without = Compiler::new(CompilerOptions::without_rewriting())
            .compile(&g)
            .unwrap();
        assert!(
            with.stats.fused_layers <= without.stats.fused_layers,
            "graph rewriting must never increase the fused layer count"
        );
    }

    #[test]
    fn profile_database_is_reusable_across_compilations() {
        let g = sample_model();
        let mut compiler = Compiler::new(CompilerOptions::default());
        let first = compiler.compile(&g).unwrap();
        let db = compiler.into_database();
        let first_misses = first.stats.profile_db_misses;
        let mut compiler2 = Compiler::new(CompilerOptions::default()).with_database(db);
        let second = compiler2.compile(&g).unwrap();
        assert!(second.stats.profile_db_misses <= first_misses);
        assert!(second.stats.profile_db_hits >= first.stats.profile_db_hits);
    }

    #[test]
    fn timings_are_recorded_and_kernels_list_what_they_run() {
        let g = sample_model();
        let mut compiler = Compiler::new(CompilerOptions::default());
        let compiled = compiler.compile(&g).unwrap();
        assert!(compiled.stats.total_time() >= compiled.stats.time_rewriting);
        // The conv and its epilogue share a kernel: the listing runs the
        // conv through the fast kernel and the epilogue as one tape.
        let conv = compiled.graph().nodes().find(|n| n.name == "conv").unwrap();
        let block = compiled.plan.block_of(conv.id);
        let listing = compiled
            .engine
            .kernel(block)
            .listing(compiled.graph())
            .to_string();
        assert!(listing.contains("Conv `conv` (fast kernel)"), "{listing}");
        assert!(listing.contains("tape of Mul `bn.mul`"), "{listing}");
    }

    #[test]
    fn cache_slot_supports_multiple_consumer_types() {
        // Regression: attaching a second cache type used to panic
        // ("runtime cache slot holds one type per model").
        struct WeightsLike(Vec<f32>);
        struct PlanCacheLike(&'static str);

        let slot = RuntimeCacheSlot::default();
        assert!(!slot.is_initialized());
        let w = slot.get_or_init(|| WeightsLike(vec![1.0, 2.0]));
        let p = slot.get_or_init(|| PlanCacheLike("state"));
        assert_eq!(w.0, vec![1.0, 2.0]);
        assert_eq!(p.0, "state");
        assert!(slot.is_initialized());
        // Each type is built once; later calls return the same Arc and
        // never run the init closure again.
        let w2 = slot.get_or_init::<WeightsLike>(|| unreachable!("already cached"));
        assert!(Arc::ptr_eq(&w, &w2));
        let p2 = slot.get_or_init::<PlanCacheLike>(|| unreachable!("already cached"));
        assert!(Arc::ptr_eq(&p, &p2));
        // Clones of the slot (as clones of a model would hold) share entries.
        let clone = slot.clone();
        let w3 = clone.get_or_init::<WeightsLike>(|| unreachable!("shared with clone"));
        assert!(Arc::ptr_eq(&w, &w3));
    }

    #[test]
    fn options_cache_key_is_stable_and_discriminating() {
        let a = CompilerOptions::default().cache_key();
        assert_eq!(a, CompilerOptions::default().cache_key());
        assert_ne!(a, CompilerOptions::baseline().cache_key());
        let tweaked = CompilerOptions {
            enable_fusion: false,
            ..CompilerOptions::default()
        };
        assert_ne!(a, tweaked.cache_key());
    }

    #[test]
    fn compile_with_blocks_replays_a_plan_exactly() {
        let g = sample_model();
        let mut compiler = Compiler::new(CompilerOptions::default());
        let cold = compiler.compile(&g).unwrap();
        let groups: Vec<Vec<dnnf_graph::NodeId>> =
            cold.plan.blocks().iter().map(|b| b.nodes.clone()).collect();
        let replayed = compiler.compile_with_blocks(&g, groups).unwrap();
        // Same partition, same mapping types (the replay does not record the
        // exploration's seed nodes — they are provenance, not structure).
        for (r, c) in replayed.plan.blocks().iter().zip(cold.plan.blocks()) {
            assert_eq!(r.nodes, c.nodes);
            assert_eq!(r.mapping_type, c.mapping_type);
        }
        assert_eq!(replayed.stats.fused_layers, cold.stats.fused_layers);
        // Garbage groups are rejected, not trusted.
        let bogus = vec![vec![dnnf_graph::NodeId::from_index(0); 2]];
        assert!(compiler.compile_with_blocks(&g, bogus).is_err());
    }

    #[test]
    fn compile_rejects_invalid_graphs() {
        let mut g = Graph::new("invalid");
        let x = g.add_input("x", Shape::new(vec![4]));
        g.add_op(OpKind::Relu, Attrs::new(), &[x], "r").unwrap();
        // No outputs marked.
        let mut compiler = Compiler::new(CompilerOptions::default());
        assert!(compiler.compile(&g).is_err());
    }
}
