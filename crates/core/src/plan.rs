//! Light-weight profile-driven fusion plan generation (paper §4.3, Listing 1).
//!
//! The planner repeatedly
//!
//! 1. selects a **fusion seed**: the not-yet-fused One-to-One operator with
//!    the smallest intermediate result,
//! 2. explores fusion candidates recursively along the seed's **successors**
//!    and then its **predecessors**, deciding each candidate with the
//!    mapping-type analysis (green → fuse, red → stop, yellow → consult the
//!    profiling database / latency model), subject to a constraint check
//!    (block size, register-pressure proxy, and block convexity so the fused
//!    graph stays acyclic),
//! 3. closes the block and repeats until no seed remains; remaining operators
//!    become single-operator blocks.

use std::collections::BTreeSet;

use dnnf_graph::{Graph, NodeId, ValueId};
use dnnf_ops::{MappingType, OpKind};
use dnnf_profiledb::{ProfileDatabase, ProfileKey};

use crate::{analyze_pair, CoreError, Ecg, FusionVerdict, LatencyModel};

/// Anchors a block may fuse *through* downstream: reduction-shaped operators
/// that are memory-bound, not compute-bound, so absorbing one costs the
/// block nothing while letting the scalar-tape epilogue **after** it stay in
/// the same block instead of being stranded behind a fusion barrier. Table 3
/// paints a Many-to-Many successor red because a compute-intensive consumer
/// loses its continuous reads — a concern for a second Conv/Gemm, not for a
/// pooling window or a softmax normalization, which read each input a
/// bounded number of times and have no weight panel to disrupt.
///
/// The override is safe for determinism: a fused block executes its steps
/// sequentially against block-local scratch in the same tap/accumulation
/// order as standalone dispatch, so moving one of these anchors inside a
/// block changes only where its output buffer lives, never its bytes (the
/// anchored-DAG differential proptests and the golden model test pin this).
fn fuses_through_anchor(op: OpKind) -> bool {
    matches!(
        op,
        OpKind::MaxPool | OpKind::AveragePool | OpKind::GlobalAveragePool | OpKind::Softmax
    )
}

/// Maximum number of operators in one fusion block (constraint check — the
/// paper's "empirically determined threshold" against register spills).
/// The three exploration constants decide plans, so
/// [`CompilerOptions::cache_key`](crate::CompilerOptions::cache_key) emits
/// them: persisted plan keys name the values they were searched with.
pub(crate) const MAX_BLOCK_OPS: usize = 40;
/// Maximum number of distinct external input tensors a block may read
/// (register-pressure proxy).
pub(crate) const MAX_EXTERNAL_INPUTS: usize = 14;
/// Whether yellow cells consult the profiling database / latency model.
pub(crate) const USE_PROFILE: bool = true;

/// The values crossing the boundary of a set of nodes run as one kernel.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Boundary {
    /// Each crossing value once, in the order the nodes touch them — a
    /// node's outside inputs, then its escaping outputs; `true` marks a write.
    crossings: Vec<(ValueId, bool)>,
}

impl Boundary {
    /// Values read from outside the set: graph inputs, weights, and other
    /// kernels' outputs.
    pub fn reads(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.crossings.iter().filter(|c| !c.1).map(|c| c.0)
    }

    /// Values produced inside the set and visible outside it: graph
    /// outputs, dead ends, and values some node outside the set consumes.
    pub fn writes(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.crossings.iter().filter(|c| c.1).map(|c| c.0)
    }

    /// Reads and writes together, in the order the nodes touch them.
    pub fn values(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.crossings.iter().map(|c| c.0)
    }
}

/// The boundary of executing `nodes` as one kernel. This is the one place
/// the "escapes its kernel" rule is written: the plan constructor calls it
/// per block, and the latency models and the planner's constraint check call
/// it on candidate sets that are not blocks yet.
#[must_use]
pub fn boundary_of(graph: &Graph, nodes: &[NodeId]) -> Boundary {
    let inside: BTreeSet<NodeId> = nodes.iter().copied().collect();
    let mut read: BTreeSet<ValueId> = BTreeSet::new();
    let mut crossings = Vec::new();
    for &n in nodes {
        let node = graph.node(n);
        for &input in &node.inputs {
            let producer = graph.value(input).producer;
            let internal = producer.is_some_and(|p| inside.contains(&p));
            if !internal && read.insert(input) {
                crossings.push((input, false));
            }
        }
        for &output in &node.outputs {
            let v = graph.value(output);
            if graph.outputs().contains(&output)
                || v.consumers.is_empty()
                || v.consumers.iter().any(|c| !inside.contains(c))
            {
                crossings.push((output, true));
            }
        }
    }
    Boundary { crossings }
}

/// One fusion block: a set of operators compiled into a single fused kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionBlock {
    /// Block index within its plan.
    pub id: usize,
    /// The seed operator the block grew from (`None` for singleton blocks
    /// created for leftover operators).
    pub seed: Option<NodeId>,
    /// Member nodes in topological order.
    pub nodes: Vec<NodeId>,
    /// Mapping type of the fused operator.
    pub mapping_type: MappingType,
    /// What the block reads from and writes to the rest of the graph.
    pub boundary: Boundary,
}

impl FusionBlock {
    /// Number of operators fused into this block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the block is a single unfused operator.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// A group of nodes on its way to becoming a block: the members in any
/// order and, for a block the planner grew, its seed and the mapping type
/// the exploration arrived at (`None`: no seed, fold the members' types).
type Group = (Vec<NodeId>, Option<(NodeId, MappingType)>);

/// A topological order of a graph and each node's position in it.
type Ranked = (Vec<NodeId>, Vec<usize>);

fn topo_rank(graph: &Graph) -> Result<Ranked, CoreError> {
    let topo = graph.topo_order();
    if topo.len() != graph.node_count() {
        let reason = "the graph is cyclic".into();
        return Err(CoreError::Plan { reason });
    }
    let mut rank = vec![0usize; topo.len()];
    for (i, n) in topo.iter().enumerate() {
        rank[n.index()] = i;
    }
    Ok((topo, rank))
}

/// A complete fusion plan: a partition of the graph's nodes into convex
/// blocks, together with the facts of its quotient graph every later layer
/// consumes — the order blocks run in, what crosses each block's boundary,
/// and when each boundary value is born and dies. All of it is derived once,
/// by the one constructor, from node and value ids alone: a plan that exists
/// is valid, and it fits every [`Graph::rebind`] of the graph it was built
/// on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionPlan {
    blocks: Vec<FusionBlock>,
    node_block: Vec<usize>,
    order: Vec<usize>,
    lifetimes: Vec<Option<(usize, usize)>>,
    deaths: Vec<Vec<ValueId>>,
}

impl FusionPlan {
    /// Builds the trivial plan in which every operator is its own block —
    /// the "no fusion" baseline (`OurB` in the paper's evaluation).
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic (it failed [`Graph::validate`]).
    #[must_use]
    pub fn singletons(ecg: &Ecg) -> FusionPlan {
        FusionPlan::from_blocks(ecg, Vec::new()).expect("singleton blocks of an acyclic graph")
    }

    /// Builds a plan from an explicit grouping of nodes into blocks — used by
    /// the fixed-pattern fusion baselines (`OurB+`, TVM/MNN/TFLite-style) so
    /// they can be executed and measured by the same runtime, and by the
    /// plan cache to replay a persisted partition.
    ///
    /// Nodes not mentioned in `groups` become singleton blocks.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Plan`] if a group names a node the graph does not
    /// have, a node appears in more than one group, or the resulting block
    /// graph is cyclic.
    pub fn from_blocks(ecg: &Ecg, groups: Vec<Vec<NodeId>>) -> Result<FusionPlan, CoreError> {
        let groups = groups.into_iter().map(|g| (g, None)).collect();
        FusionPlan::assemble(ecg, topo_rank(ecg.graph())?, groups)
    }

    /// The one constructor. Orders each group by the graph's topological
    /// rank ([`topo_rank`]), checks that the groups are disjoint and in range
    /// (unmentioned nodes become singleton blocks, in topological order,
    /// after the groups), sorts the quotient graph, and stores what falls
    /// out of that.
    fn assemble(ecg: &Ecg, ranked: Ranked, groups: Vec<Group>) -> Result<FusionPlan, CoreError> {
        let (graph, (topo, rank)) = (ecg.graph(), ranked);
        let plan_error = |reason: String| Err(CoreError::Plan { reason });
        let mut grouped = vec![false; topo.len()];
        for &n in groups.iter().flat_map(|(nodes, _)| nodes) {
            match grouped.get_mut(n.index()) {
                None => return plan_error(format!("node {} is not in the graph", n.index())),
                Some(true) => {
                    return plan_error(format!(
                        "node {} assigned to more than one group",
                        n.index()
                    ))
                }
                Some(slot) => *slot = true,
            }
        }
        let leftovers = topo.iter().filter(|n| !grouped[n.index()]);
        let leftovers = leftovers.map(|&n| (vec![n], None));

        let mut node_block = vec![0usize; topo.len()];
        let mut blocks: Vec<FusionBlock> = Vec::new();
        for (mut nodes, grown) in groups.into_iter().chain(leftovers) {
            if nodes.is_empty() {
                continue;
            }
            let id = blocks.len();
            for &n in &nodes {
                node_block[n.index()] = id;
            }
            nodes.sort_unstable_by_key(|n| rank[n.index()]);
            let (seed, mapping_type) = match grown {
                Some((seed, mapping_type)) => (Some(seed), mapping_type),
                // Fold the members' mapping types pairwise, in block order.
                None => {
                    let first = ecg.mapping_type(nodes[0]);
                    let fold = nodes[1..].iter().fold(first, |folded, &n| {
                        analyze_pair(folded, ecg.mapping_type(n)).fused_type
                    });
                    (None, fold)
                }
            };
            blocks.push(FusionBlock {
                id,
                seed,
                mapping_type,
                boundary: boundary_of(graph, &nodes),
                nodes,
            });
        }

        // Kahn's algorithm over the quotient graph, last-in first-out.
        let n = blocks.len();
        let mut succs: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        let mut in_degree = vec![0usize; n];
        for node in graph.nodes() {
            let from = node_block[node.id.index()];
            for succ in graph.successors(node.id) {
                let to = node_block[succ.index()];
                if from != to && succs[from].insert(to) {
                    in_degree[to] += 1;
                }
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&b| in_degree[b] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(b) = ready.pop() {
            order.push(b);
            for &next in &succs[b] {
                in_degree[next] -= 1;
                if in_degree[next] == 0 {
                    ready.push(next);
                }
            }
        }
        if order.len() != n {
            return plan_error("fused block graph contains a cycle".into());
        }

        // A boundary value is born where its block runs and dies with its
        // last reading block; graph outputs and values nobody reads live to
        // the end.
        let mut position = vec![0usize; n];
        for (pos, &block) in order.iter().enumerate() {
            position[block] = pos;
        }
        let last = n.saturating_sub(1);
        let mut lifetimes = vec![None; graph.value_count()];
        for block in &blocks {
            for value in block.boundary.writes() {
                lifetimes[value.index()] = Some((position[block.id], last));
            }
        }
        let mut deaths = vec![Vec::new(); n];
        for value in graph.values() {
            let Some((_, death)) = &mut lifetimes[value.id.index()] else {
                continue;
            };
            if !graph.outputs().contains(&value.id) {
                let readers = value.consumers.iter();
                let readers = readers.map(|c| position[node_block[c.index()]]);
                *death = readers.max().unwrap_or(last);
                deaths[*death].push(value.id);
            }
        }

        Ok(FusionPlan {
            blocks,
            node_block,
            order,
            lifetimes,
            deaths,
        })
    }

    /// The fusion blocks.
    #[must_use]
    pub fn blocks(&self) -> &[FusionBlock] {
        &self.blocks
    }

    /// Number of fused layers (= number of blocks), the denominator of the
    /// paper's fusion rate.
    #[must_use]
    pub fn fused_layer_count(&self) -> usize {
        self.blocks.len()
    }

    /// Index of the block containing `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the planned graph.
    #[must_use]
    pub fn block_of(&self, node: NodeId) -> usize {
        self.node_block[node.index()]
    }

    /// Number of blocks containing more than one operator.
    #[must_use]
    pub fn multi_op_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.len() > 1).count()
    }

    /// Block ids in execution order: a topological order of the quotient
    /// graph.
    #[must_use]
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// [`FusionPlan::order`], owned. The graph is not consulted.
    #[must_use]
    pub fn execution_order(&self, _graph: &Graph) -> Vec<usize> {
        self.order.clone()
    }

    /// The `(birth, death)` positions in [`FusionPlan::order`] of a value
    /// that escapes its block: where its producing block runs and where its
    /// last reading block does — the last position for a graph output or a
    /// value nobody reads. `None` for everything that is never materialized
    /// between blocks: block-internal values, graph inputs and weights.
    #[must_use]
    pub fn lifetime(&self, value: ValueId) -> Option<(usize, usize)> {
        self.lifetimes.get(value.index()).copied().flatten()
    }

    /// Whether a produced value is visible outside its producer's block — a
    /// graph output, a dead end, or consumed by another block. What the
    /// fused engine materializes, what the memory planner tracks and what
    /// the cache simulation touches is exactly these values.
    #[must_use]
    pub fn value_escapes(&self, value: ValueId) -> bool {
        self.lifetime(value).is_some()
    }

    /// Per position of [`FusionPlan::order`], the boundary values whose
    /// lifetime ends there, graph outputs excepted: a run recycles their
    /// buffers once that block has finished.
    #[must_use]
    pub fn deaths(&self) -> &[Vec<ValueId>] {
        &self.deaths
    }

    /// Total bytes of intermediate results that still have to be
    /// materialized after fusion: values crossing a block boundary or marked
    /// as graph outputs. This is the paper's post-fusion "IRS size".
    #[must_use]
    pub fn fused_irs_bytes(&self, graph: &Graph) -> u64 {
        let writes = self.blocks.iter().flat_map(|b| b.boundary.writes());
        writes.map(|v| graph.value(v).size_bytes() as u64).sum()
    }
}

/// Exploration direction relative to the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Successor,
    Predecessor,
}

impl Direction {
    /// The successors or predecessors of `node`, without collecting them.
    fn neighbours(self, graph: &Graph, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let node = graph.node(node);
        let (outputs, inputs) = match self {
            Direction::Successor => (&node.outputs[..], &[][..]),
            Direction::Predecessor => (&[][..], &node.inputs[..]),
        };
        let consumers = outputs.iter().flat_map(|&v| &graph.value(v).consumers);
        let producers = inputs.iter().filter_map(|&v| graph.value(v).producer);
        consumers.copied().chain(producers)
    }
}

/// The fusion planner (Listing 1 of the paper).
#[derive(Debug)]
pub struct FusionPlanner<'a, L: LatencyModel> {
    ecg: &'a Ecg,
    latency: &'a L,
}

impl<'a, L: LatencyModel> FusionPlanner<'a, L> {
    /// Creates a planner over an ECG with a latency model for yellow cells.
    #[must_use]
    pub fn new(ecg: &'a Ecg, latency: &'a L) -> Self {
        FusionPlanner { ecg, latency }
    }

    /// Generates the fusion plan, consulting (and extending) the profiling
    /// database for yellow-cell decisions.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Plan`] if the blocks the exploration grew do not
    /// form an acyclic partition — a planner bug the convexity check exists
    /// to prevent, reported rather than executed.
    pub fn plan(&self, db: &mut ProfileDatabase) -> Result<FusionPlan, CoreError> {
        let graph = self.ecg.graph();
        let (topo, rank) = topo_rank(graph)?;
        let mut search = Search::new(rank);
        let mut groups: Vec<Group> = Vec::new();

        // Step 1 (iterated): pick seeds in order of increasing IRS size.
        // One-to-One operators are preferred (lowest transformation
        // impedance, paper §4.3.1); once they are exhausted, the remaining
        // light-weight mapping types (Reorganize, Shuffle, One-to-Many — e.g.
        // a broadcasted bias Add with no activation after it) may also seed a
        // block so their producers are not stranded unfused. Sorted once:
        // the next seed is the first candidate no block has taken yet.
        let by_size = |n: &NodeId| (self.ecg.node_info(*n).output_bytes, n.index());
        let mut one_to_one = self.ecg.one_to_one_nodes();
        one_to_one.sort_unstable_by_key(by_size);
        let mut light: Vec<NodeId> = graph.nodes().map(|n| n.id).collect();
        light.retain(|&n| self.ecg.mapping_type(n) != MappingType::ManyToMany);
        light.sort_unstable_by_key(by_size);
        for seed in one_to_one.into_iter().chain(light) {
            if search.assigned[seed.index()] {
                continue;
            }
            search.members = BTreeSet::from([seed]);
            search.mapping = self.ecg.mapping_type(seed);

            // Steps 2 and 3: propagate along the seed's predecessors and then
            // its successors. The paper notes the two steps can be swapped;
            // predecessor-first lets the compute-intensive producer (e.g. the
            // Conv feeding a bias/activation seed) join the block before a
            // downstream Many-to-Many operator locks the block's mapping type.
            for pred in graph.predecessors(seed) {
                self.explore(pred, Direction::Predecessor, &mut search, db);
            }
            for succ in graph.successors(seed) {
                self.explore(succ, Direction::Successor, &mut search, db);
            }

            let members = std::mem::take(&mut search.members);
            for &n in &members {
                search.assigned[n.index()] = true;
            }
            groups.push((members.into_iter().collect(), Some((seed, search.mapping))));
        }

        // Remaining operators become singleton blocks, in topological order.
        FusionPlan::assemble(self.ecg, (topo, search.rank), groups)
    }

    /// Recursive candidate exploration (Listing 1, `fuse_successor` /
    /// `fuse_predecessor`).
    fn explore(
        &self,
        candidate: NodeId,
        direction: Direction,
        search: &mut Search,
        db: &mut ProfileDatabase,
    ) {
        if search.members.contains(&candidate) || search.assigned[candidate.index()] {
            return;
        }
        let graph = self.ecg.graph();
        let candidate_type = self.ecg.mapping_type(candidate);
        // Step 2.1: mapping type analysis (Table 3).
        let decision = match direction {
            Direction::Successor => analyze_pair(search.mapping, candidate_type),
            Direction::Predecessor => analyze_pair(candidate_type, search.mapping),
        };
        if decision.verdict == FusionVerdict::Break
            && !(direction == Direction::Successor
                && fuses_through_anchor(graph.node(candidate).op))
        {
            // Red cell — except for the through-anchor override: a
            // pool/softmax *successor* joins the block anyway (see
            // `fuses_through_anchor`), so the epilogue tape behind it is
            // reachable instead of stranded.
            return;
        }
        // Once the block has absorbed a compute-intensive anchor, stop
        // claiming plain One-to-One operators further up the predecessor
        // chain: those are the natural epilogue of the *previous* anchor's
        // block, and stealing them would strand that anchor in a singleton
        // block (lowering the overall fusion rate). Data-movement operators
        // (Reorganize/Shuffle) and One-to-Many operators feeding the anchor —
        // the paper's "MatMul + Reshape + Transpose + Add" GPT-2 example —
        // are still absorbed.
        if direction == Direction::Predecessor
            && search.mapping == MappingType::ManyToMany
            && candidate_type == MappingType::OneToOne
        {
            return;
        }
        // Step 2.2: constraint check (block size, register proxy, convexity).
        if !self.constraints_allow(&search.members, candidate) {
            return;
        }
        if search.breaks_convexity(graph, candidate) {
            return;
        }
        // Step 2.3: profile-based selection for yellow cells.
        if decision.verdict == FusionVerdict::Profile && USE_PROFILE {
            let mut fused: Vec<NodeId> = search.members.iter().copied().collect();
            fused.push(candidate);
            let fused_latency = db.lookup_or_measure(self.profile_key(&fused), || {
                self.latency.fused_latency_us(graph, &fused)
            });
            let current: Vec<NodeId> = search.members.iter().copied().collect();
            let block_latency = db.lookup_or_measure(self.profile_key(&current), || {
                self.latency.fused_latency_us(graph, &current)
            });
            let candidate_latency = db.lookup_or_measure(self.profile_key(&[candidate]), || {
                self.latency.fused_latency_us(graph, &[candidate])
            });
            if fused_latency > block_latency + candidate_latency {
                return;
            }
        }
        // Fuse and recurse (Step 2.4).
        search.members.insert(candidate);
        search.mapping = decision.fused_type;
        let next = match direction {
            Direction::Successor => graph.successors(candidate),
            Direction::Predecessor => graph.predecessors(candidate),
        };
        for n in next {
            self.explore(n, direction, search, db);
        }
    }

    fn constraints_allow(&self, members: &BTreeSet<NodeId>, candidate: NodeId) -> bool {
        if members.len() + 1 > MAX_BLOCK_OPS {
            return false;
        }
        // Register-pressure proxy: count distinct external inputs after the
        // candidate joins.
        let mut extended: Vec<NodeId> = members.iter().copied().collect();
        extended.push(candidate);
        let external_inputs = boundary_of(self.ecg.graph(), &extended).reads().count();
        external_inputs <= MAX_EXTERNAL_INPUTS
    }

    fn profile_key(&self, nodes: &[NodeId]) -> ProfileKey {
        block_profile_key(self.ecg.graph(), nodes)
    }
}

/// The profiling-database key for a (candidate) fusion block: its operator
/// names plus the first-output shape of every member. This is the key the
/// planner consults during exploration — exposed so the runtime can record
/// *measured* block latencies under exactly the same keys
/// (`Executor::profile_compiled` in `dnnf-runtime`), letting the next
/// compilation's plan search optimize against host-measured values instead
/// of the analytic model.
#[must_use]
pub fn block_profile_key(graph: &Graph, nodes: &[NodeId]) -> ProfileKey {
    let ops: Vec<String> = nodes
        .iter()
        .map(|&n| graph.node(n).op.name().to_string())
        .collect();
    let shapes: Vec<String> = nodes
        .iter()
        .filter_map(|&n| graph.node(n).outputs.first().copied())
        .map(|v| graph.value(v).shape.to_string())
        .collect();
    ProfileKey::new(ops, shapes.join(";"))
}

/// The state of one plan search: the nodes earlier blocks took, the block
/// being grown and its mapping type, and what the convexity check reuses
/// across queries — a topological rank per node, an epoch-stamped visited
/// array and a stack.
struct Search {
    assigned: Vec<bool>,
    members: BTreeSet<NodeId>,
    mapping: MappingType,
    rank: Vec<usize>,
    seen: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
}

impl Search {
    fn new(rank: Vec<usize>) -> Search {
        Search {
            assigned: vec![false; rank.len()],
            members: BTreeSet::new(),
            mapping: MappingType::OneToOne,
            seen: vec![0; rank.len()],
            rank,
            epoch: 0,
            stack: Vec::new(),
        }
    }

    /// Whether adding `candidate` to the convex block `members` would make
    /// the block graph cyclic: whether an outside node lies on a path between
    /// the block and the candidate, either way. Ranks strictly increase along
    /// a path, so the forward walk from the block needs only nodes ranked
    /// below the candidate, the backward walk only those ranked above it; a
    /// walk that has left a convex block never re-enters it.
    fn breaks_convexity(&mut self, graph: &Graph, candidate: NodeId) -> bool {
        // One query per explored edge end, so the epoch cannot wrap; the two
        // windows are disjoint, so one epoch serves both walks.
        self.epoch += 1;
        let bound = self.rank[candidate.index()];
        for direction in [Direction::Successor, Direction::Predecessor] {
            self.stack.clear();
            for &m in &self.members {
                self.seen[m.index()] = self.epoch;
                self.stack.push(m);
            }
            while let Some(n) = self.stack.pop() {
                for next in direction.neighbours(graph, n) {
                    if next == candidate && !self.members.contains(&n) {
                        return true;
                    }
                    let rank = self.rank[next.index()];
                    let in_window = match direction {
                        Direction::Successor => rank < bound,
                        Direction::Predecessor => rank > bound,
                    };
                    if in_window && self.seen[next.index()] != self.epoch {
                        self.seen[next.index()] = self.epoch;
                        self.stack.push(next);
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalyticLatencyModel;
    use dnnf_ops::{Attrs, OpKind};
    use dnnf_tensor::Shape;

    /// Returns `true` if adding `candidate` to the convex set `members` would
    /// break convexity, i.e. some path between the set and the candidate passes
    /// through an outside node — which would make the fused block graph cyclic.
    fn would_break_convexity(graph: &Graph, members: &BTreeSet<NodeId>, candidate: NodeId) -> bool {
        let mut extended: BTreeSet<NodeId> = members.clone();
        extended.insert(candidate);
        // Paths from the set to the candidate.
        let desc_of_set = reachable(graph, members.iter().copied(), |g, n| g.successors(n));
        let anc_of_candidate = reachable(graph, [candidate], |g, n| g.predecessors(n));
        if desc_of_set
            .intersection(&anc_of_candidate)
            .any(|n| !extended.contains(n))
        {
            return true;
        }
        // Paths from the candidate to the set.
        let desc_of_candidate = reachable(graph, [candidate], |g, n| g.successors(n));
        let anc_of_set = reachable(graph, members.iter().copied(), |g, n| g.predecessors(n));
        desc_of_candidate
            .intersection(&anc_of_set)
            .any(|n| !extended.contains(n))
    }

    fn reachable(
        graph: &Graph,
        start: impl IntoIterator<Item = NodeId>,
        next: impl Fn(&Graph, NodeId) -> Vec<NodeId>,
    ) -> BTreeSet<NodeId> {
        let mut stack: Vec<NodeId> = start.into_iter().collect();
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        while let Some(n) = stack.pop() {
            for m in next(graph, n) {
                if seen.insert(m) {
                    stack.push(m);
                }
            }
        }
        seen
    }

    fn plan_graph(graph: &Graph) -> FusionPlan {
        let ecg = Ecg::new(graph.clone());
        let model = AnalyticLatencyModel::default();
        let planner = FusionPlanner::new(&ecg, &model);
        let mut db = ProfileDatabase::new();
        planner.plan(&mut db).unwrap()
    }

    /// Conv -> Add(bias) -> Relu -> Mul -> Sub, plus a separate GEMM joining
    /// at the Mul — the example of Figure 3.
    fn figure3_graph() -> Graph {
        let mut g = Graph::new("figure3");
        let x = g.add_input("x", Shape::new(vec![1, 8, 8, 8]));
        let add_c = g.add_weight("add.c", Shape::new(vec![1, 8, 8, 8]));
        let add = g
            .add_op(OpKind::Add, Attrs::new(), &[x, add_c], "add")
            .unwrap()[0];
        let w = g.add_weight("conv.w", Shape::new(vec![8, 8, 3, 3]));
        let conv = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[add, w],
                "conv",
            )
            .unwrap()[0];
        let relu = g
            .add_op(OpKind::Relu, Attrs::new(), &[conv], "relu")
            .unwrap()[0];
        // A separate GEMM branch that merges into Mul.
        let a = g.add_input("a", Shape::new(vec![64, 8]));
        let b = g.add_weight("gemm.b", Shape::new(vec![8, 8]));
        let gemm = g
            .add_op(OpKind::Gemm, Attrs::new(), &[a, b], "gemm")
            .unwrap()[0];
        let gemm_r = g
            .add_op(
                OpKind::Reshape,
                Attrs::new().with_ints("shape", vec![1, 8, 8, 8]),
                &[gemm],
                "reshape",
            )
            .unwrap()[0];
        let mul = g
            .add_op(OpKind::Mul, Attrs::new(), &[relu, gemm_r], "mul")
            .unwrap()[0];
        let sub_c = g.add_weight("sub.c", Shape::new(vec![1, 8, 8, 8]));
        let sub = g
            .add_op(OpKind::Sub, Attrs::new(), &[mul, sub_c], "sub")
            .unwrap()[0];
        g.mark_output(sub);
        g
    }

    #[test]
    fn conv_bias_relu_fuses_into_one_block() {
        let mut g = Graph::new("cbr");
        let x = g.add_input("x", Shape::new(vec![1, 8, 16, 16]));
        let w = g.add_weight("w", Shape::new(vec![8, 8, 3, 3]));
        let c = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w],
                "conv",
            )
            .unwrap()[0];
        let b = g.add_weight("b", Shape::new(vec![1, 8, 1, 1]));
        let bias = g
            .add_op(OpKind::Add, Attrs::new(), &[c, b], "bias")
            .unwrap()[0];
        let r = g
            .add_op(OpKind::Relu, Attrs::new(), &[bias], "relu")
            .unwrap()[0];
        g.mark_output(r);
        let plan = plan_graph(&g);
        assert_eq!(plan.fused_layer_count(), 1);
        assert_eq!(plan.blocks()[0].mapping_type, MappingType::ManyToMany);
    }

    #[test]
    fn epilogues_fuse_through_pool_anchors() {
        // Conv -> bias -> Relu -> MaxPool -> Mul(scale) -> Conv: the pool is
        // a Many-to-Many successor (a red cell), but the through-anchor
        // override absorbs it, so the scalar epilogue behind it joins the
        // conv's block instead of being stranded. The trailing conv stays a
        // hard barrier.
        let mut g = Graph::new("through-pool");
        let x = g.add_input("x", Shape::new(vec![1, 8, 16, 16]));
        let w = g.add_weight("w", Shape::new(vec![8, 8, 3, 3]));
        let c = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w],
                "conv",
            )
            .unwrap()[0];
        let b = g.add_weight("b", Shape::new(vec![1, 8, 1, 1]));
        let bias = g
            .add_op(OpKind::Add, Attrs::new(), &[c, b], "bias")
            .unwrap()[0];
        let r = g
            .add_op(OpKind::Relu, Attrs::new(), &[bias], "relu")
            .unwrap()[0];
        let p = g
            .add_op(
                OpKind::MaxPool,
                Attrs::new()
                    .with_ints("kernel_shape", vec![2, 2])
                    .with_ints("strides", vec![2, 2]),
                &[r],
                "pool",
            )
            .unwrap()[0];
        let s = g.add_weight("scale", Shape::new(vec![1, 8, 1, 1]));
        let scaled = g
            .add_op(OpKind::Mul, Attrs::new(), &[p, s], "scale_mul")
            .unwrap()[0];
        let w2 = g.add_weight("w2", Shape::new(vec![8, 8, 3, 3]));
        let c2 = g
            .add_op(OpKind::Conv, Attrs::new(), &[scaled, w2], "conv2")
            .unwrap()[0];
        g.mark_output(c2);

        let plan = plan_graph(&g);
        let block_of = |name: &str| plan.block_of(g.nodes().find(|n| n.name == name).unwrap().id);
        assert_eq!(block_of("conv"), block_of("pool"), "pool joins the block");
        assert_eq!(
            block_of("pool"),
            block_of("scale_mul"),
            "the epilogue behind the pool is not stranded"
        );
        assert_ne!(
            block_of("conv"),
            block_of("conv2"),
            "a second conv is still a barrier"
        );
    }

    #[test]
    fn softmax_joins_its_producer_block_but_never_as_a_predecessor() {
        // Gemm -> Add -> Softmax (the classifier-tail shape): Softmax is a
        // Many-to-Many successor of the Gemm-anchored block — a red cell —
        // but the override absorbs it, so the whole tail is one block.
        let mut g = Graph::new("through-softmax");
        let x = g.add_input("x", Shape::new(vec![4, 16]));
        let w = g.add_weight("w", Shape::new(vec![16, 16]));
        let mm = g
            .add_op(OpKind::Gemm, Attrs::new(), &[x, w], "gemm")
            .unwrap()[0];
        let b = g.add_weight("b", Shape::new(vec![16]));
        let biased = g
            .add_op(OpKind::Add, Attrs::new(), &[mm, b], "bias")
            .unwrap()[0];
        let sm = g
            .add_op(
                OpKind::Softmax,
                Attrs::new().with_int("axis", 1),
                &[biased],
                "softmax",
            )
            .unwrap()[0];
        g.mark_output(sm);
        let plan = plan_graph(&g);
        let block_of = |name: &str| plan.block_of(g.nodes().find(|n| n.name == name).unwrap().id);
        assert_eq!(block_of("gemm"), block_of("bias"));
        assert_eq!(block_of("bias"), block_of("softmax"));

        // Predecessor direction gets no override: a block growing upstream
        // into a pool/softmax still stops at the red cell. Pool -> Conv ->
        // Relu: the conv block must not swallow the upstream pool.
        let mut g = Graph::new("pool-upstream");
        let x = g.add_input("x", Shape::new(vec![1, 4, 16, 16]));
        let p = g
            .add_op(
                OpKind::MaxPool,
                Attrs::new()
                    .with_ints("kernel_shape", vec![2, 2])
                    .with_ints("strides", vec![2, 2]),
                &[x],
                "pool",
            )
            .unwrap()[0];
        let w = g.add_weight("w", Shape::new(vec![4, 4, 3, 3]));
        let c = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[p, w],
                "conv",
            )
            .unwrap()[0];
        let r = g.add_op(OpKind::Relu, Attrs::new(), &[c], "relu").unwrap()[0];
        g.mark_output(r);
        let plan = plan_graph(&g);
        let pool_id = g.nodes().find(|n| n.name == "pool").unwrap().id;
        let conv_id = g.nodes().find(|n| n.name == "conv").unwrap().id;
        assert_ne!(
            plan.block_of(pool_id),
            plan.block_of(conv_id),
            "upstream pools stay outside — the override is successor-only"
        );
    }

    #[test]
    fn two_convs_never_fuse_together() {
        let mut g = Graph::new("two-convs");
        let x = g.add_input("x", Shape::new(vec![1, 4, 8, 8]));
        let w1 = g.add_weight("w1", Shape::new(vec![4, 4, 3, 3]));
        let w2 = g.add_weight("w2", Shape::new(vec![4, 4, 3, 3]));
        let c1 = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w1],
                "c1",
            )
            .unwrap()[0];
        let r1 = g.add_op(OpKind::Relu, Attrs::new(), &[c1], "r1").unwrap()[0];
        let c2 = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[r1, w2],
                "c2",
            )
            .unwrap()[0];
        let r2 = g.add_op(OpKind::Relu, Attrs::new(), &[c2], "r2").unwrap()[0];
        g.mark_output(r2);
        let plan = plan_graph(&g);
        assert_eq!(plan.fused_layer_count(), 2);
        // The two convs must land in different blocks.
        let conv_blocks: Vec<usize> = g
            .nodes()
            .filter(|n| n.op == OpKind::Conv)
            .map(|n| plan.block_of(n.id))
            .collect();
        assert_ne!(conv_blocks[0], conv_blocks[1]);
    }

    #[test]
    fn figure3_example_keeps_gemm_outside_the_seed_block() {
        let g = figure3_graph();
        let plan = plan_graph(&g);
        // The GEMM (Many-to-Many) cannot join the block that already absorbed
        // the Conv (fused type Many-to-Many): Table 3's red cell.
        let gemm = g.nodes().find(|n| n.op == OpKind::Gemm).unwrap().id;
        let conv = g.nodes().find(|n| n.op == OpKind::Conv).unwrap().id;
        assert_ne!(plan.block_of(gemm), plan.block_of(conv));
        // But Add/Relu/Mul/Sub all join the conv block (Figure 3's result).
        for name in ["add", "relu", "mul", "sub"] {
            let n = g.nodes().find(|n| n.name == name).unwrap().id;
            assert_eq!(
                plan.block_of(n),
                plan.block_of(conv),
                "{name} should fuse with conv"
            );
        }
        assert!(plan.fused_layer_count() < g.node_count());
    }

    #[test]
    fn fused_irs_bytes_shrinks_versus_original() {
        let g = figure3_graph();
        let plan = plan_graph(&g);
        let original: u64 = g
            .values()
            .filter(|v| v.is_intermediate())
            .map(|v| v.size_bytes() as u64)
            .sum();
        assert!(plan.fused_irs_bytes(&g) < original);
        // Some produced value never leaves its block (`IR_removable`).
        let mut produced = g.values().filter(|v| v.producer.is_some());
        assert!(produced.any(|v| !plan.value_escapes(v.id)));
    }

    /// Figure 4's example: a GEMM feeding two Muls whose Reciprocal and
    /// Square branches meet at an Add.
    fn figure4_graph() -> Graph {
        let mut g = Graph::new("figure4");
        let a = g.add_input("A", Shape::new(vec![4, 4]));
        let b = g.add_weight("B", Shape::new(vec![4, 4]));
        let c = g.add_weight("C", Shape::new(vec![4, 4]));
        let d = g.add_weight("D", Shape::new(vec![4, 4]));
        let gemm = g
            .add_op(OpKind::Gemm, Attrs::new(), &[a, b], "gemm")
            .unwrap()[0];
        let m1 = g
            .add_op(OpKind::Mul, Attrs::new(), &[gemm, c], "mul1")
            .unwrap()[0];
        let m2 = g
            .add_op(OpKind::Mul, Attrs::new(), &[gemm, d], "mul2")
            .unwrap()[0];
        let r = g
            .add_op(OpKind::Reciprocal, Attrs::new(), &[m1], "recip")
            .unwrap()[0];
        let s = g
            .add_op(OpKind::Square, Attrs::new(), &[m2], "square")
            .unwrap()[0];
        let add = g.add_op(OpKind::Add, Attrs::new(), &[r, s], "add").unwrap()[0];
        g.mark_output(add);
        g
    }

    /// Asserts that no block folds a pair Table 3 marks red, folding each
    /// block's members pairwise in order.
    fn assert_no_red_pair(graph: &Graph, plan: &FusionPlan) {
        let ecg = Ecg::new(graph.clone());
        for block in plan.blocks() {
            let mut members = block.nodes.iter().map(|&n| ecg.mapping_type(n));
            let mut running = members.next().unwrap();
            for next in members {
                let decision = crate::analyze_pair(running, next);
                assert_ne!(decision.verdict, crate::FusionVerdict::Break);
                running = decision.fused_type;
            }
        }
    }

    #[test]
    fn figure4_diamond_splits_after_the_gemm_and_one_mul() {
        // The one-directional seed exploration of Listing 1 yields two
        // blocks for the Figure 4 diamond: one anchored at the GEMM with
        // one of its Muls, one for the remaining element-wise chain.
        let g = figure4_graph();
        let plan = plan_graph(&g);
        assert_eq!(plan.fused_layer_count(), 2);
        let gemm = g.nodes().find(|n| n.op == OpKind::Gemm).unwrap().id;
        let block = &plan.blocks()[plan.block_of(gemm)];
        assert!(block.nodes.iter().any(|&n| g.node(n).op == OpKind::Mul));
        assert_no_red_pair(&g, &plan);
    }

    #[test]
    fn elementwise_diamond_fuses_into_one_block() {
        // A Relu feeding two Muls that meet at an Add: every pair is
        // One-to-One, so the whole diamond is one block.
        let mut g = Graph::new("cse");
        let a = g.add_input("A", Shape::new(vec![4, 4]));
        let c = g.add_weight("C", Shape::new(vec![4, 4]));
        let d = g.add_weight("D", Shape::new(vec![4, 4]));
        let r = g.add_op(OpKind::Relu, Attrs::new(), &[a], "relu").unwrap()[0];
        let m1 = g
            .add_op(OpKind::Mul, Attrs::new(), &[r, c], "mul1")
            .unwrap()[0];
        let m2 = g
            .add_op(OpKind::Mul, Attrs::new(), &[r, d], "mul2")
            .unwrap()[0];
        let add = g
            .add_op(OpKind::Add, Attrs::new(), &[m1, m2], "add")
            .unwrap()[0];
        g.mark_output(add);
        let plan = plan_graph(&g);
        assert_eq!(plan.fused_layer_count(), 1);
        assert_no_red_pair(&g, &plan);
    }

    #[test]
    fn execution_order_respects_dependencies() {
        let g = figure3_graph();
        let plan = plan_graph(&g);
        let order = plan.execution_order(&g);
        assert_eq!(order.len(), plan.fused_layer_count());
        // The block containing the final Sub must come last.
        let sub = g.nodes().find(|n| n.op == OpKind::Sub).unwrap().id;
        assert_eq!(*order.last().unwrap(), plan.block_of(sub));
    }

    #[test]
    fn convexity_check_prevents_cyclic_blocks() {
        // a -> conv -> b ; a -> b  (b = Add(conv_out, relu_out)). Fusing
        // {a, b} without conv would create a cycle between the block and conv.
        let mut g = Graph::new("convexity");
        let x = g.add_input("x", Shape::new(vec![1, 4, 8, 8]));
        let a = g.add_op(OpKind::Relu, Attrs::new(), &[x], "a").unwrap()[0];
        let w = g.add_weight("w", Shape::new(vec![4, 4, 3, 3]));
        let conv = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[a, w],
                "conv",
            )
            .unwrap()[0];
        let b = g
            .add_op(OpKind::Add, Attrs::new(), &[a, conv], "b")
            .unwrap()[0];
        g.mark_output(b);
        let plan = plan_graph(&g);
        // Either the conv joined the same block (fine) or a/b are split; in
        // both cases the quotient graph must be acyclic, or the constructor
        // would have refused the plan. Additionally the plan must cover all
        // 3 nodes.
        let covered: usize = plan.blocks().iter().map(FusionBlock::len).sum();
        assert_eq!(covered, 3);
    }

    #[test]
    fn max_block_ops_constraint_is_respected() {
        let mut g = Graph::new("long-chain");
        let mut v = g.add_input("x", Shape::new(vec![64]));
        for i in 0..100 {
            v = g
                .add_op(OpKind::Relu, Attrs::new(), &[v], format!("r{i}"))
                .unwrap()[0];
        }
        g.mark_output(v);
        let plan = plan_graph(&g);
        assert!(plan.blocks().iter().all(|b| b.len() <= MAX_BLOCK_OPS));
        assert!(plan.blocks().iter().any(|b| b.len() == MAX_BLOCK_OPS));
        assert!(plan.fused_layer_count() >= 100usize.div_ceil(MAX_BLOCK_OPS));
    }

    #[test]
    fn profiling_database_is_populated_by_yellow_decisions() {
        // Conv -> Upsample (Many-to-Many then One-to-Many) is a yellow cell.
        let mut g = Graph::new("yellow");
        let x = g.add_input("x", Shape::new(vec![1, 4, 8, 8]));
        let w = g.add_weight("w", Shape::new(vec![4, 4, 3, 3]));
        let c = g
            .add_op(
                OpKind::Conv,
                Attrs::new().with_ints("pads", vec![1, 1, 1, 1]),
                &[x, w],
                "conv",
            )
            .unwrap()[0];
        let r = g.add_op(OpKind::Relu, Attrs::new(), &[c], "relu").unwrap()[0];
        let up = g
            .add_op(
                OpKind::Upsample,
                Attrs::new().with_floats("scales", vec![1.0, 1.0, 2.0, 2.0]),
                &[r],
                "up",
            )
            .unwrap()[0];
        g.mark_output(up);
        let ecg = Ecg::new(g.clone());
        let model = AnalyticLatencyModel::default();
        let planner = FusionPlanner::new(&ecg, &model);
        let mut db = ProfileDatabase::new();
        planner.plan(&mut db).unwrap();
        assert!(
            !db.is_empty(),
            "yellow decision should have recorded profile entries"
        );
    }

    #[test]
    fn plan_covers_graphs_without_one_to_one_seeds() {
        let mut g = Graph::new("no-seed");
        let x = g.add_input("x", Shape::new(vec![4, 8]));
        let w = g.add_weight("w", Shape::new(vec![8, 8]));
        let m = g
            .add_op(OpKind::MatMul, Attrs::new(), &[x, w], "mm")
            .unwrap()[0];
        let s = g.add_op(OpKind::Softmax, Attrs::new(), &[m], "sm").unwrap()[0];
        g.mark_output(s);
        let plan = plan_graph(&g);
        assert_eq!(plan.fused_layer_count(), 2);
        assert!(plan.blocks().iter().all(|b| b.seed.is_none()));
    }

    /// One-to-One operators seed first, whatever their size; the lighter
    /// mapping types seed only once those are exhausted, smallest first; a
    /// Many-to-Many operator never seeds.
    #[test]
    fn seeds_are_one_to_one_first_then_by_output_size() {
        // Two disconnected chains: x -> Conv -> Add(bias broadcast) -> Relu,
        // and a smaller y -> Transpose.
        let mut g = Graph::new("seeds");
        let x = g.add_input("x", Shape::new(vec![1, 4, 8, 8]));
        let w = g.add_weight("w", Shape::new(vec![4, 4, 3, 3]));
        let pads = Attrs::new().with_ints("pads", vec![1, 1, 1, 1]);
        let conv = g.add_op(OpKind::Conv, pads, &[x, w], "conv").unwrap()[0];
        let b = g.add_weight("b", Shape::new(vec![1, 4, 1, 1]));
        let add = g
            .add_op(OpKind::Add, Attrs::new(), &[conv, b], "bias")
            .unwrap()[0];
        let relu = g
            .add_op(OpKind::Relu, Attrs::new(), &[add], "relu")
            .unwrap()[0];
        let y = g.add_input("y", Shape::new(vec![2, 3]));
        let perm = Attrs::new().with_ints("perm", vec![1, 0]);
        let t = g.add_op(OpKind::Transpose, perm, &[y], "t").unwrap()[0];
        g.mark_output(relu);
        g.mark_output(t);
        let producer = |v: ValueId| g.value(v).producer.unwrap();

        let plan = plan_graph(&g);
        let seeds: Vec<NodeId> = plan.blocks().iter().filter_map(|b| b.seed).collect();
        assert_eq!(seeds, vec![producer(relu), producer(t)]);
        assert_eq!(plan.block_of(producer(conv)), plan.block_of(producer(relu)));
    }

    /// xorshift64: a seeded stream without a dev-dependency behind it.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Mostly one of the last few values (long chains), otherwise any
    /// earlier one (skip edges, diamonds).
    fn pick(rng: &mut XorShift, values: &[ValueId]) -> ValueId {
        let back = if rng.below(2) == 0 {
            rng.below(4)
        } else {
            rng.below(values.len())
        };
        values[values.len() - 1 - back.min(values.len() - 1)]
    }

    /// A random DAG of `nodes` operators: unary and binary element-wise
    /// operators and two-output `Split`s.
    fn random_dag(rng: &mut XorShift, nodes: usize) -> Graph {
        let mut g = Graph::new("random-dag");
        let mut values = vec![g.add_input("x", Shape::new(vec![2, 4]))];
        while g.node_count() < nodes {
            let a = pick(rng, &values);
            let name = format!("n{}", g.node_count());
            let outputs = match rng.below(5) {
                0 if g.value(a).shape.dim(0) == 2 => {
                    let axis = Attrs::new().with_int("axis", 0);
                    g.add_op(OpKind::Split, axis, &[a], name)
                }
                0 | 1 => g.add_op(OpKind::Relu, Attrs::new(), &[a], name),
                _ => {
                    let b = pick(rng, &values);
                    g.add_op(OpKind::Add, Attrs::new(), &[a, b], name)
                }
            };
            values.extend(outputs.unwrap());
        }
        g
    }

    /// The rank-windowed check answers what the whole-graph walks answer:
    /// on random DAGs of 8–300 nodes, for every candidate tried while a
    /// random convex set grows through its neighbours, and then for every
    /// node left outside it.
    #[test]
    fn windowed_convexity_check_matches_the_brute_force_oracle() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let mut verdicts = [0usize; 2];
        for _ in 0..200 {
            let nodes = 8 + rng.below(293);
            let g = random_dag(&mut rng, nodes);
            let mut search = Search::new(topo_rank(&g).unwrap().1);
            let mut check = |members: &BTreeSet<NodeId>, candidate: NodeId| {
                search.members.clone_from(members);
                let windowed = search.breaks_convexity(&g, candidate);
                let oracle = would_break_convexity(&g, members, candidate);
                assert_eq!(windowed, oracle, "{members:?} + {candidate:?}");
                verdicts[usize::from(windowed)] += 1;
                windowed
            };
            let mut members = BTreeSet::from([NodeId::from_index(rng.below(nodes))]);
            for _ in 0..rng.below(40) {
                let from = *members.iter().nth(rng.below(members.len())).unwrap();
                let mut around = g.successors(from);
                around.extend(g.predecessors(from));
                around.retain(|n| !members.contains(n));
                if !around.is_empty() {
                    let next = around[rng.below(around.len())];
                    if !check(&members, next) {
                        members.insert(next);
                    }
                }
            }
            for n in g.nodes().map(|n| n.id).filter(|n| !members.contains(n)) {
                check(&members, n);
            }
        }
        assert!(verdicts.iter().all(|&v| v > 1000), "{verdicts:?}");
    }
}
