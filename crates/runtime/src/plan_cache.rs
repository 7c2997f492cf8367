//! The shape-specialized compilation cache.
//!
//! The paper's Figure 9b point is that profiling data turns plan search into
//! lookups; this module goes one step further and makes the *whole
//! compilation* a lookup when the same model comes back. Compiled plans are
//! keyed by
//!
//! ```text
//! (graph fingerprint, shape signature, compiler-options cache key)
//! ```
//!
//! — [`dnnf_graph::Graph::fingerprint`] covers topology, operator
//! attributes, shapes and weight identities, so *any* structural change
//! yields a new key and the cache can never serve a stale plan. Two tiers
//! back the key:
//!
//! * **In-memory models** — the full [`CompiledModel`] behind an `Arc`. A
//!   hit is a map lookup + `Arc` clone: no rewriting, no plan search, no
//!   kernel compilation, and the weight store the model already holds
//!   comes along for free.
//! * **On-disk plan seeds** — compiled kernels hold closures and cannot be
//!   serialized, so the persistent tier stores each plan's *seed*: the
//!   fusion block partition (node-index groups on the rewritten graph) plus
//!   the rewritten graph's fingerprint. A warm start replays the seed
//!   through [`Compiler::compile_with_blocks`], skipping the profile-driven
//!   plan exploration; kernel compilation runs normally.
//!
//! Replayed plans are **validated, never trusted**: `compile_with_blocks`
//! rejects groups that do not form an acyclic partition of the rewritten
//! graph, and the recorded rewritten-graph fingerprint must match what this
//! binary's rewrite phase actually produced (so a seed recorded by an older
//! build with different rewrite rules is discarded). Either failure falls
//! back to a cold compile; a damaged cache can cost time, not correctness.
//! The on-disk format is the profile store's versioned, checksummed framing
//! ([`dnnf_profiledb::seal`] / [`dnnf_profiledb::open`]); another version,
//! a corrupted or a truncated file fails the load whole — callers start cold.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

use dnnf_core::{CompiledModel, Compiler, CompilerOptions, CoreError, LatencyModel};
use dnnf_graph::{DimBinding, Fingerprint, Graph, NodeId, SymbolicAxes};
use dnnf_profiledb::Damage;

/// Header line of the on-disk plan-cache format; the version moves whenever
/// the bytes of [`CompilerOptions::cache_key`] do.
pub const PLAN_CACHE_HEADER: &str = "dnnf-plancache/v2";

/// The cache key of one compiled plan.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlanKey {
    fingerprint: Fingerprint,
    shape_signature: String,
    options: String,
}

impl PlanKey {
    /// Builds the key for compiling `graph` with `options`.
    #[must_use]
    pub fn of(graph: &Graph, options: &CompilerOptions) -> Self {
        PlanKey {
            fingerprint: graph.fingerprint(),
            shape_signature: graph.shape_signature(),
            options: options.cache_key(),
        }
    }
}

impl fmt::Display for PlanKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}",
            self.fingerprint, self.shape_signature, self.options
        )
    }
}

/// How a [`PlanCache::compile_cached`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The full compiled model was already in memory (`Arc` clone).
    MemoryHit,
    /// A persisted plan seed was replayed, skipping plan exploration.
    DiskHit,
    /// Nothing cached — a full cold compilation ran (and was recorded).
    Miss,
}

/// A persisted plan seed: enough to replay one compilation's fusion
/// decisions on the rewritten graph.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PlanSeed {
    /// Fingerprint of the *rewritten* graph the groups index into. Replay
    /// re-runs rewriting and discards the seed if the result differs (e.g.
    /// the binary's rewrite rules changed since the seed was recorded).
    rewritten_fingerprint: Fingerprint,
    /// Fusion blocks as node-index groups on the rewritten graph.
    groups: Vec<Vec<usize>>,
}

/// Counter snapshot of a [`PlanCache`] (see [`PlanCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Compilations satisfied by an in-memory model.
    pub memory_hits: u64,
    /// Compilations satisfied by replaying a persisted plan seed.
    pub disk_hits: u64,
    /// Compilations that ran cold.
    pub misses: u64,
    /// In-memory compiled models currently held (≤ `capacity`).
    pub models: usize,
    /// Plan seeds currently held (in-memory + loaded from disk).
    pub seeds: usize,
    /// Models evicted from the in-memory tier since creation.
    pub evictions: u64,
    /// Maximum in-memory models (the LRU bound).
    pub capacity: usize,
}

/// Default bound on in-memory compiled models — generous (a server tenant
/// set, not a per-request working set), because each entry pins compiled
/// kernels and weight stores via `Arc<CompiledModel>`.
/// [`PlanCache::global`] uses this; tune per cache with
/// [`PlanCache::with_capacity`] / [`PlanCache::set_capacity`].
pub const DEFAULT_MODEL_CAPACITY: usize = 64;

/// One resident compiled model plus its last-use tick (for LRU eviction).
struct ModelEntry {
    model: Arc<CompiledModel>,
    tick: u64,
}

struct Inner {
    models: BTreeMap<PlanKey, ModelEntry>,
    seeds: BTreeMap<PlanKey, PlanSeed>,
    capacity: usize,
    tick: u64,
    memory_hits: u64,
    disk_hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            models: BTreeMap::new(),
            seeds: BTreeMap::new(),
            capacity: DEFAULT_MODEL_CAPACITY,
            tick: 0,
            memory_hits: 0,
            disk_hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl Inner {
    /// Registers `model` under `key` (first insert wins a race), marks the
    /// entry most recently used, and evicts least-recently-used models until
    /// the tier fits its capacity. Seeds are never evicted — an evicted
    /// model whose seed survives warm-starts as a [`CacheOutcome::DiskHit`].
    fn insert_model(&mut self, key: PlanKey, model: CompiledModel) -> Arc<CompiledModel> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.models.entry(key).or_insert_with(|| ModelEntry {
            model: Arc::new(model),
            tick,
        });
        entry.tick = tick;
        let model = Arc::clone(&entry.model);
        self.enforce_capacity();
        model
    }

    fn enforce_capacity(&mut self) {
        while self.models.len() > self.capacity {
            // The just-touched entry holds the max tick, so it is never the
            // victim (capacity is at least 1).
            let victim = self
                .models
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
                .expect("over-capacity map is non-empty");
            self.models.remove(&victim);
            self.evictions += 1;
        }
    }
}

/// A shape-keyed compilation cache (see the module docs).
#[derive(Default)]
pub struct PlanCache {
    inner: Mutex<Inner>,
}

impl PlanCache {
    /// Creates an empty cache bounded at [`DEFAULT_MODEL_CAPACITY`]
    /// in-memory models.
    #[must_use]
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Creates an empty cache holding at most `capacity` in-memory models
    /// (clamped to at least 1). Beyond it the least recently used model is
    /// dropped; its plan seed stays, so recompiling an evicted model skips
    /// plan exploration ([`CacheOutcome::DiskHit`]), it does not run cold.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let cache = PlanCache::default();
        cache.inner.lock().expect("plan cache lock").capacity = capacity.max(1);
        cache
    }

    /// Changes the in-memory model bound (clamped to at least 1), evicting
    /// least-recently-used models immediately if the tier is over the new
    /// bound.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock().expect("plan cache lock");
        inner.capacity = capacity.max(1);
        inner.enforce_capacity();
    }

    /// The current in-memory model bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("plan cache lock").capacity
    }

    /// The process-wide cache: every caller compiling through it shares one
    /// model/seed pool, so a model compiled anywhere in the process is a
    /// lookup everywhere else.
    #[must_use]
    pub fn global() -> &'static PlanCache {
        static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
        GLOBAL.get_or_init(PlanCache::new)
    }

    /// Compiles `graph` through the cache. In order of preference:
    ///
    /// 1. an in-memory model for `(fingerprint, shapes, options)` — returned
    ///    by `Arc` clone, the compiler is not invoked at all;
    /// 2. a persisted plan seed — replayed via
    ///    [`Compiler::compile_with_blocks`] (no plan exploration) and
    ///    validated against the rewritten graph's fingerprint;
    /// 3. a cold [`Compiler::compile`], whose plan is recorded as a seed
    ///    for future calls and future processes.
    ///
    /// The compiler's profiling database is still consulted and extended
    /// exactly as in an uncached compile, so persistent profile data and
    /// the plan cache compose.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors ([`CoreError`]) from the cold path. A
    /// stale or invalid seed is *not* an error — it falls back to a cold
    /// compile.
    pub fn compile_cached<L: LatencyModel>(
        &self,
        compiler: &mut Compiler<L>,
        graph: &Graph,
    ) -> Result<(Arc<CompiledModel>, CacheOutcome), CoreError> {
        let key = PlanKey::of(graph, compiler.options());
        self.compile_keyed(compiler, graph, key)
    }

    /// Compiles `graph` through the cache under a **shape-polymorphic** key:
    /// the dimensions `axes` names are normalized to 1 ([`Graph::rebind`])
    /// and the entry is keyed by the normalized fingerprint plus the
    /// symbolic shape signature ([`Graph::symbolic_shape_signature`],
    /// `x=Nx3x224x224` / `token_ids=1;past_k0=2xSx8`), so every batch size of
    /// one model — or every KV-cache length of one decode-step graph — shares
    /// a single cache entry. The returned model is that canonical
    /// compilation; run it at any value of the symbolic dimensions with
    /// `Executor::run`, which runs the model's own kernels at every binding.
    /// This is what makes serving a request mix, or decoding `T` tokens,
    /// cost exactly one plan search and one kernel compilation.
    ///
    /// Graphs that are not symbolic in `axes` (see [`Graph::binding`]: inputs
    /// that do not share a leading dimension, rank-0 inputs, no seq-marked
    /// input) or whose operators bake in the native value fall back to the
    /// exact-shape [`PlanCache::compile_cached`] behaviour.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors ([`CoreError`]) from the cold path.
    pub fn compile_polymorphic<L: LatencyModel>(
        &self,
        compiler: &mut Compiler<L>,
        graph: &Graph,
        axes: SymbolicAxes,
    ) -> Result<(Arc<CompiledModel>, CacheOutcome), CoreError> {
        let canonical = DimBinding {
            batch: axes.batch.then_some(1),
            seq: axes.seq.then_some(1),
        };
        let Ok(canonical) = graph.rebind(canonical) else {
            return self.compile_cached(compiler, graph);
        };
        let key = PlanKey {
            fingerprint: canonical.fingerprint(),
            shape_signature: canonical.symbolic_shape_signature(axes),
            options: compiler.options().cache_key(),
        };
        self.compile_keyed(compiler, &canonical, key)
    }

    /// [`PlanCache::compile_polymorphic`] in the batch dimension; same errors.
    pub fn compile_batched<L: LatencyModel>(
        &self,
        compiler: &mut Compiler<L>,
        graph: &Graph,
    ) -> Result<(Arc<CompiledModel>, CacheOutcome), CoreError> {
        self.compile_polymorphic(compiler, graph, SymbolicAxes::BATCH)
    }

    fn compile_keyed<L: LatencyModel>(
        &self,
        compiler: &mut Compiler<L>,
        graph: &Graph,
        key: PlanKey,
    ) -> Result<(Arc<CompiledModel>, CacheOutcome), CoreError> {
        let seed = {
            let mut inner = self.inner.lock().expect("plan cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.models.get_mut(&key) {
                entry.tick = tick;
                let model = Arc::clone(&entry.model);
                inner.memory_hits += 1;
                return Ok((model, CacheOutcome::MemoryHit));
            }
            inner.seeds.get(&key).cloned()
        };

        // Compilation (replay or cold) runs outside the lock: concurrent
        // compilations of *different* models must not serialize on the
        // cache. Concurrent compiles of the same model race benignly — the
        // first insert wins, later ones return the winner's Arc.
        if let Some(seed) = seed {
            let groups: Vec<Vec<NodeId>> = seed
                .groups
                .iter()
                .map(|g| g.iter().map(|&i| NodeId::from_index(i)).collect())
                .collect();
            match compiler.compile_with_blocks(graph, groups) {
                Ok(model) if model.graph().fingerprint() == seed.rewritten_fingerprint => {
                    let mut inner = self.inner.lock().expect("plan cache lock");
                    inner.disk_hits += 1;
                    let model = inner.insert_model(key, model);
                    return Ok((model, CacheOutcome::DiskHit));
                }
                // Stale seed (different rewrite output) or invalid groups:
                // drop it and compile cold below.
                _ => {
                    self.inner
                        .lock()
                        .expect("plan cache lock")
                        .seeds
                        .remove(&key);
                }
            }
        }

        let model = compiler.compile(graph)?;
        let seed = PlanSeed {
            rewritten_fingerprint: model.graph().fingerprint(),
            groups: model
                .plan
                .blocks()
                .iter()
                .map(|b| b.nodes.iter().map(|n| n.index()).collect())
                .collect(),
        };
        let mut inner = self.inner.lock().expect("plan cache lock");
        inner.misses += 1;
        inner.seeds.insert(key.clone(), seed);
        let model = inner.insert_model(key, model);
        Ok((model, CacheOutcome::Miss))
    }

    /// Current counters and sizes.
    #[must_use]
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.inner.lock().expect("plan cache lock");
        PlanCacheStats {
            memory_hits: inner.memory_hits,
            disk_hits: inner.disk_hits,
            misses: inner.misses,
            models: inner.models.len(),
            seeds: inner.seeds.len(),
            evictions: inner.evictions,
            capacity: inner.capacity,
        }
    }

    /// Drops every cached model and seed and zeroes the counters (the
    /// capacity setting survives). Mainly for tests exercising the cold
    /// path against the global cache.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("plan cache lock");
        let capacity = inner.capacity;
        *inner = Inner {
            capacity,
            ..Inner::default()
        };
    }

    /// Drops the in-memory compiled models but keeps the plan seeds — the
    /// state a fresh process starts from after [`PlanCache::load_seeds`].
    /// Tests use this to exercise the disk-replay tier in-process.
    pub fn drop_models(&self) {
        self.inner.lock().expect("plan cache lock").models.clear();
    }

    /// Serializes the plan seeds (the persistent tier) to the versioned,
    /// checksummed text format:
    ///
    /// ```text
    /// dnnf-plancache/v2
    /// entries <n>
    /// <fp>\t<shapes>\t<options>\t<rewritten-fp>\t<idx,idx;idx;…>
    /// …
    /// checksum <16-hex fnv64 of everything above>
    /// ```
    #[must_use]
    pub fn to_text(&self) -> String {
        let inner = self.inner.lock().expect("plan cache lock");
        let lines = inner.seeds.iter().map(|(key, seed)| {
            let groups = seed
                .groups
                .iter()
                .map(|g| {
                    g.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect::<Vec<_>>()
                .join(";");
            format!(
                "{}\t{}\t{}\t{}\t{}",
                key.fingerprint,
                key.shape_signature,
                key.options,
                seed.rewritten_fingerprint,
                groups
            )
        });
        dnnf_profiledb::seal(PLAN_CACHE_HEADER, lines)
    }

    /// Strictly parses text produced by [`PlanCache::to_text`] and merges
    /// the seeds into this cache (existing seeds with the same key are
    /// overwritten; in-memory models are untouched). Returns the number of
    /// seeds merged.
    ///
    /// # Errors
    ///
    /// Returns the [`Damage`] found — wrong header, malformed entry,
    /// truncation, checksum mismatch. Nothing is merged on error.
    pub fn merge_text(&self, text: &str) -> Result<usize, Damage> {
        let lines = dnnf_profiledb::open(PLAN_CACHE_HEADER, text)?;
        let entries = lines.iter().enumerate();
        let parsed = entries
            .map(|(i, line)| parse_seed_line(line).ok_or(Damage::BadEntry { line: i + 3 }))
            .collect::<Result<Vec<(PlanKey, PlanSeed)>, _>>()?;

        let count = parsed.len();
        let mut inner = self.inner.lock().expect("plan cache lock");
        for (key, seed) in parsed {
            inner.seeds.insert(key, seed);
        }
        Ok(count)
    }

    /// Saves the plan seeds to a file.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_text().as_bytes())
    }

    /// Loads plan seeds from a file written by [`PlanCache::save`] and
    /// merges them into this cache; returns how many were merged.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a damaged file fails with
    /// [`io::ErrorKind::InvalidData`] and merges nothing (callers simply
    /// start cold).
    pub fn load_seeds(&self, path: impl AsRef<Path>) -> io::Result<usize> {
        let mut text = String::new();
        std::fs::File::open(path)?.read_to_string(&mut text)?;
        self.merge_text(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("models", &stats.models)
            .field("seeds", &stats.seeds)
            .finish()
    }
}

fn parse_seed_line(line: &str) -> Option<(PlanKey, PlanSeed)> {
    let mut fields = line.split('\t');
    let fingerprint = Fingerprint::from_hex(fields.next()?)?;
    let shape_signature = fields.next()?.to_string();
    let options = fields.next()?.to_string();
    let rewritten_fingerprint = Fingerprint::from_hex(fields.next()?)?;
    let groups_text = fields.next()?;
    if fields.next().is_some() {
        return None;
    }
    let groups: Vec<Vec<usize>> = if groups_text.is_empty() {
        Vec::new()
    } else {
        groups_text
            .split(';')
            .map(|g| g.split(',').map(|i| i.parse::<usize>().ok()).collect())
            .collect::<Option<Vec<Vec<usize>>>>()?
    };
    Some((
        PlanKey {
            fingerprint,
            shape_signature,
            options,
        },
        PlanSeed {
            rewritten_fingerprint,
            groups,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnf_ops::{Attrs, OpKind};
    use dnnf_tensor::{Shape, Tensor};

    fn model(name: &str, channels: usize) -> Graph {
        let mut g = Graph::new(name);
        let x = g.add_input("x", Shape::new(vec![1, channels, 8, 8]));
        let w = g.add_weight("conv.w", Shape::new(vec![channels, channels, 3, 3]));
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
        g
    }

    #[test]
    fn memory_hit_returns_the_same_model() {
        let cache = PlanCache::new();
        let g = model("m", 4);
        let mut compiler = Compiler::new(CompilerOptions::default());
        let (first, outcome) = cache.compile_cached(&mut compiler, &g).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let (second, outcome) = cache.compile_cached(&mut compiler, &g).unwrap();
        assert_eq!(outcome, CacheOutcome::MemoryHit);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.memory_hits), (1, 1));
        assert_eq!((stats.models, stats.seeds), (1, 1));
    }

    #[test]
    fn different_shapes_options_and_structure_miss() {
        let cache = PlanCache::new();
        let mut compiler = Compiler::new(CompilerOptions::default());
        let (_, o1) = cache.compile_cached(&mut compiler, &model("a", 4)).unwrap();
        let (_, o2) = cache.compile_cached(&mut compiler, &model("b", 8)).unwrap();
        assert_eq!((o1, o2), (CacheOutcome::Miss, CacheOutcome::Miss));
        // Same graph, different options: its own entry.
        let mut baseline = Compiler::new(CompilerOptions::baseline());
        let (_, o3) = cache.compile_cached(&mut baseline, &model("a", 4)).unwrap();
        assert_eq!(o3, CacheOutcome::Miss);
        assert_eq!(cache.stats().models, 3);
        // Each is a memory hit the second time around.
        let (_, o4) = cache.compile_cached(&mut compiler, &model("a", 4)).unwrap();
        assert_eq!(o4, CacheOutcome::MemoryHit);
    }

    #[test]
    fn capacity_bounds_the_model_tier_with_lru_eviction() {
        let cache = PlanCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        let mut compiler = Compiler::new(CompilerOptions::default());
        // Three distinct models through a 2-slot cache.
        cache.compile_cached(&mut compiler, &model("a", 2)).unwrap();
        cache.compile_cached(&mut compiler, &model("b", 4)).unwrap();
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        let (_, o) = cache.compile_cached(&mut compiler, &model("a", 2)).unwrap();
        assert_eq!(o, CacheOutcome::MemoryHit);
        cache.compile_cached(&mut compiler, &model("c", 8)).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.models, 2, "tier must hold <= capacity models");
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.seeds, 3, "seeds are never evicted");
        // `a` survived (recently used), `b` was evicted but warm-starts
        // from its seed instead of compiling cold.
        let (_, o) = cache.compile_cached(&mut compiler, &model("a", 2)).unwrap();
        assert_eq!(o, CacheOutcome::MemoryHit);
        let (_, o) = cache.compile_cached(&mut compiler, &model("b", 4)).unwrap();
        assert_eq!(o, CacheOutcome::DiskHit, "evicted model replays its seed");
        // Shrinking the capacity evicts immediately; zero clamps to one.
        cache.set_capacity(0);
        assert_eq!(cache.capacity(), 1);
        assert_eq!(cache.stats().models, 1);
        // clear() keeps the configured capacity.
        cache.clear();
        assert_eq!(cache.capacity(), 1);
        assert_eq!(cache.stats().models, 0);
    }

    #[test]
    fn batched_key_shares_one_entry_across_batch_sizes() {
        let cache = PlanCache::new();
        let mut compiler = Compiler::new(CompilerOptions::default());
        let g1 = model("m", 4);
        let (m1, o1) = cache
            .compile_polymorphic(&mut compiler, &g1, SymbolicAxes::BATCH)
            .unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        // The same model presented at batch 8 is a memory hit on the same
        // canonical (batch-1) entry.
        let g8 = g1.rebind(DimBinding::batch(8)).unwrap();
        let (m8, o8) = cache
            .compile_polymorphic(&mut compiler, &g8, SymbolicAxes::BATCH)
            .unwrap();
        assert_eq!(o8, CacheOutcome::MemoryHit);
        assert!(Arc::ptr_eq(&m1, &m8));
        assert_eq!(cache.stats().models, 1);
        // The canonical model compiles at batch 1 regardless of how it was
        // presented.
        assert_eq!(m8.graph().binding().batch, Some(1));
    }

    #[test]
    fn seed_roundtrip_and_disk_replay() {
        let cache = PlanCache::new();
        let g = model("m", 4);
        let mut compiler = Compiler::new(CompilerOptions::default());
        let (cold, _) = cache.compile_cached(&mut compiler, &g).unwrap();
        let text = cache.to_text();

        // A fresh cache (fresh process) warm-starts from the text.
        let fresh = PlanCache::new();
        assert_eq!(fresh.merge_text(&text), Ok(1));
        let (warm, outcome) = fresh.compile_cached(&mut compiler, &g).unwrap();
        assert_eq!(outcome, CacheOutcome::DiskHit);
        // The replayed plan is the same partition.
        for (w, c) in warm.plan.blocks().iter().zip(cold.plan.blocks()) {
            assert_eq!(w.nodes, c.nodes);
        }

        // drop_models keeps seeds: same replay without re-merging.
        cache.drop_models();
        let (_, outcome) = cache.compile_cached(&mut compiler, &g).unwrap();
        assert_eq!(outcome, CacheOutcome::DiskHit);
    }

    #[test]
    fn corrupted_text_is_rejected_wholesale() {
        let cache = PlanCache::new();
        let g = model("m", 4);
        let mut compiler = Compiler::new(CompilerOptions::default());
        cache.compile_cached(&mut compiler, &g).unwrap();
        let good = cache.to_text();

        let fresh = PlanCache::new();
        assert!(matches!(
            fresh.merge_text("dnnf-plancache/v3\n"),
            Err(Damage::BadHeader { .. })
        ));
        assert_eq!(fresh.merge_text(PLAN_CACHE_HEADER), Err(Damage::BadCount));
        // Flip a digit inside the groups field: checksum catches it.
        let corrupted = good.replacen("\t0,", "\t1,", 1);
        if corrupted != good {
            assert_eq!(fresh.merge_text(&corrupted), Err(Damage::BadChecksum));
        }
        // Truncate the entry lines.
        let mut lines: Vec<&str> = good.lines().collect();
        lines.remove(2);
        let truncated = lines.join("\n") + "\n";
        assert!(matches!(
            fresh.merge_text(&truncated),
            Err(Damage::Truncated { .. })
        ));
        // The checksum must be the last line, in its one canonical spelling:
        // junk after it, an uppercase and a signed checksum are all damage.
        let (body, _) = dnnf_profiledb::verify_checksum(&good).unwrap();
        let digits = &good[body.len() + "checksum ".len()..good.len() - 1];
        for damaged in [
            format!("{good}junk\nmore junk\n"),
            format!("{body}checksum {}\n", digits.to_uppercase()),
            format!("{body}checksum +{digits}\n"),
        ] {
            assert_eq!(fresh.merge_text(&damaged), Err(Damage::BadChecksum));
        }
        // Nothing was merged by any failed attempt.
        assert_eq!(fresh.stats().seeds, 0);
        // The intact text still merges.
        assert_eq!(fresh.merge_text(&good), Ok(1));
    }

    #[test]
    fn a_v1_store_is_rejected_whole_and_the_next_compile_runs_cold() {
        // What an older build saved: the same seed, sealed under the v1
        // header with that build's options key (two more option fields).
        let g = model("m", 4);
        let mut compiler = Compiler::new(CompilerOptions::default());
        let old = PlanCache::new();
        let (cold, _) = old.compile_cached(&mut compiler, &g).unwrap();
        let text = old.to_text();
        let lines = dnnf_profiledb::open(PLAN_CACHE_HEADER, &text).unwrap();
        let v1_lines = lines
            .iter()
            .map(|line| line.replacen("\tgr=1;fuse=1;", "\tgr=1;fuse=1;intra=1;inter=1;", 1));
        let v1 = dnnf_profiledb::seal("dnnf-plancache/v1", v1_lines);
        assert!(v1.contains("\tgr=1;fuse=1;intra=1;inter=1;max_block_ops="));

        let fresh = PlanCache::new();
        assert_eq!(
            fresh.merge_text(&v1),
            Err(Damage::BadHeader {
                expected: PLAN_CACHE_HEADER.to_string(),
                found: "dnnf-plancache/v1".to_string()
            })
        );
        assert_eq!(fresh.stats().seeds, 0);
        let (model, outcome) = fresh.compile_cached(&mut compiler, &g).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);

        let executor = crate::Executor::new(dnnf_simdev::DeviceSpec::snapdragon_865_cpu());
        let x = Tensor::random(Shape::new(vec![1, 4, 8, 8]), 7);
        let inputs = std::collections::HashMap::from([("x".to_string(), x)]);
        let expected = executor.run_compiled(&cold, &inputs).unwrap().outputs;
        let outputs = executor.run_compiled(&model, &inputs).unwrap().outputs;
        for (got, want) in outputs.iter().zip(&expected) {
            assert_eq!(got.first_disagreement(want, 0.0), None);
        }
    }

    #[test]
    fn stale_seed_falls_back_to_cold_compile() {
        let cache = PlanCache::new();
        let g = model("m", 4);
        let mut compiler = Compiler::new(CompilerOptions::default());
        cache.compile_cached(&mut compiler, &g).unwrap();
        // Sabotage the stored seed: wrong rewritten fingerprint.
        {
            let mut inner = cache.inner.lock().unwrap();
            let seed = inner.seeds.values_mut().next().unwrap();
            seed.rewritten_fingerprint = Fingerprint::from_hex(&"0".repeat(32)).unwrap();
        }
        cache.drop_models();
        let (_, outcome) = cache.compile_cached(&mut compiler, &g).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss, "stale seed must compile cold");
        // The bad seed was replaced by a fresh one; next time replays fine.
        cache.drop_models();
        let (_, outcome) = cache.compile_cached(&mut compiler, &g).unwrap();
        assert_eq!(outcome, CacheOutcome::DiskHit);
    }

    #[test]
    fn save_and_load_roundtrip() {
        let cache = PlanCache::new();
        let g = model("m", 4);
        let mut compiler = Compiler::new(CompilerOptions::default());
        cache.compile_cached(&mut compiler, &g).unwrap();

        let dir = std::env::temp_dir().join("dnnf_plan_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plans.cache");
        cache.save(&path).unwrap();

        let fresh = PlanCache::new();
        assert_eq!(fresh.load_seeds(&path).unwrap(), 1);
        let (_, outcome) = fresh.compile_cached(&mut compiler, &g).unwrap();
        assert_eq!(outcome, CacheOutcome::DiskHit);

        // Corrupt the file on disk: load fails with InvalidData.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let another = PlanCache::new();
        let err = another.load_seeds(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(another.stats().seeds, 0);
        std::fs::remove_file(path).ok();
    }
}
