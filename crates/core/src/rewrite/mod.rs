//! Mathematical-property-based graph rewriting (paper §4.2, Table 4,
//! Figure 2).
//!
//! Rules are data: [`RULES`] is a table whose rows name a rule, its property
//! family, the operators it can be anchored at, and a matcher that inspects
//! the neighbourhood of one anchor node and describes what it would do as a
//! `Match` — the nodes to delete and a small expression tree (`Expr`) over
//! existing values to put in their place. Matchers never build graphs.
//!
//! One driver, [`RewriteEngine::run`], does everything else. Each iteration
//! it partitions the graph at operators that carry none of the associative /
//! commutative / distributive properties, walks partitions × rules × anchors,
//! type-checks every proposed replacement with `dnnf_ops::infer_shapes` (a
//! replacement that fails inference, or whose shape differs from the value
//! it replaces, is not a match) and scores it *locally*: the #FLOPs, loaded
//! elements and operator count of the deleted nodes minus those of the
//! replacement operators. The match with the largest #FLOPs reduction wins —
//! the paper's greedy procedure. Ties on #FLOPs are broken by memory loads
//! and then by operator count, which captures the rules the paper annotates
//! with "although #FLOPS is not reduced, A is loaded once instead of twice";
//! a remaining tie goes to the match found first. Only the winner is applied,
//! and the loop repeats until no match improves.
//!
//! The winner is applied in place: `Match::into_splice` flattens its
//! replacement into new operators (arguments first, left to right, named
//! `rw.<op>`) and [`Graph::splice`] moves the surviving nodes and values
//! into their new order instead of re-adding them. The result is the graph a
//! full rebuild would give — the old topological order minus the removed
//! nodes, the new operators just before the first survivor that reads the
//! replaced value, inputs and weights numbered first, consumer lists in the
//! new node order — so the next iteration walks the same graph either way.
//! Only the new operators are shape-inferred, and `validate` still runs on
//! every result. On GPT-2 tiny (24 applied rewrites) that brought an applied
//! rewrite from about 2.1 ms (one full rebuild) to about 0.27 ms, matching
//! included. A splice that fails hands the graph back untouched, and the
//! driver stops with the last valid graph.
//!
//! The rule set covers every rewrite the paper presents explicitly (Table 4
//! and Figure 2) plus the fusion-facilitating simplifications (§4.2's "remove
//! unnecessary operations, eliminate redundant intermediate data copies");
//! the paper's full 149-rule catalogue enumerates operand-order and operator
//! variants of these same patterns — each would be one more row.

mod rules;

use std::fmt;

use dnnf_graph::{Graph, Node, NodeId, Splice, SpliceArg, SpliceOp, ValueId, ValueKind};
use dnnf_ops::{cost, infer_shapes, Attrs, OpKind};
use dnnf_tensor::Shape;

use crate::Ecg;

pub use rules::RULES;

/// Upper bound on rewrites applied by one [`RewriteEngine::run`]; every
/// applied rewrite strictly improves the score, so this is only a backstop.
const MAX_APPLICATIONS: usize = 10_000;

/// Category of a rewrite rule (the paper's three property families plus the
/// structural simplifications that facilitate fusion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleCategory {
    /// Exploits associativity to reorder an operator chain.
    Associative,
    /// Exploits distributivity to factor a common operand.
    Distributive,
    /// Exploits commutativity (with a reduction) to reorder operators.
    Commutative,
    /// Removes redundant data-movement / identity structure.
    Simplification,
}

impl fmt::Display for RuleCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuleCategory::Associative => "associative",
            RuleCategory::Distributive => "distributive",
            RuleCategory::Commutative => "commutative",
            RuleCategory::Simplification => "simplification",
        };
        f.write_str(s)
    }
}

/// One row of the rule table.
pub struct Rule {
    /// Stable rule name (used in reports).
    pub name: &'static str,
    /// The property family the rule belongs to.
    pub category: RuleCategory,
    /// Operators the rule can be anchored at; `find` only sees such nodes.
    anchors: &'static [OpKind],
    /// Matches the rule at one anchor node, or declines.
    find: fn(&Graph, &Node) -> Option<Match>,
}

/// What a rule would do at one anchor: delete `removed` and make every use
/// of `replaced` (an output of one of them, the only one still needed) read
/// `replacement` instead.
struct Match {
    removed: Vec<NodeId>,
    replaced: ValueId,
    replacement: Expr,
}

/// A replacement expression over values of the graph being rewritten.
enum Expr {
    /// An existing value, kept as is.
    Old(ValueId),
    /// A new single-output operator over sub-expressions.
    Op(OpKind, Attrs, Vec<Expr>),
}

/// What a rewrite saves: (#FLOPs, elements loaded as operator inputs,
/// operators), compared lexicographically.
type Score = (i64, i64, i64);

/// Record of one applied rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedRewrite {
    /// Rule name.
    pub rule: String,
    /// Rule category.
    pub category: RuleCategory,
    /// FLOPs eliminated by this application.
    pub flops_saved: i64,
    /// Change in operator count (positive = fewer operators).
    pub nodes_removed: i64,
}

/// The greedy, FLOPs-driven rewrite engine.
pub struct RewriteEngine {
    rules: Vec<&'static Rule>,
}

impl fmt::Debug for RewriteEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<_> = self.rules.iter().map(|r| r.name).collect();
        f.debug_struct("RewriteEngine")
            .field("rules", &names)
            .finish()
    }
}

impl Default for RewriteEngine {
    fn default() -> Self {
        RewriteEngine::with_default_rules()
    }
}

impl RewriteEngine {
    /// Creates an engine with the full rule table.
    #[must_use]
    pub fn with_default_rules() -> Self {
        RewriteEngine::new(RULES.iter().collect())
    }

    /// Creates an engine with a subset of the rule table's rows, tried in
    /// the given order.
    #[must_use]
    pub fn new(rules: Vec<&'static Rule>) -> Self {
        RewriteEngine { rules }
    }

    /// Names of the registered rules with their categories.
    #[must_use]
    pub fn rule_names(&self) -> Vec<(&'static str, RuleCategory)> {
        self.rules.iter().map(|r| (r.name, r.category)).collect()
    }

    /// Runs the engine to fixpoint, returning the rewritten graph and the
    /// rewrites applied (in application order).
    #[must_use]
    pub fn run(&self, graph: &Graph) -> (Graph, Vec<AppliedRewrite>) {
        let mut current = graph.clone();
        let mut applied = Vec::new();
        while applied.len() < MAX_APPLICATIONS {
            let Some((rule, found, score)) = self.best_match(&current) else {
                break;
            };
            // A type-checked match always splices; should that ever be
            // untrue, the splice hands back the last valid graph untouched.
            let next = match current.splice(found.into_splice()) {
                Ok(next) => next,
                Err(refused) => return (refused.0, applied),
            };
            // A splice of a valid graph is valid by construction; should that
            // ever be untrue, the input is the last graph known to be valid.
            if next.validate().is_err() {
                return (graph.clone(), Vec::new());
            }
            current = next;
            applied.push(AppliedRewrite {
                rule: rule.name.to_string(),
                category: rule.category,
                flops_saved: score.0,
                nodes_removed: score.2,
            });
        }
        (current, applied)
    }

    /// The best-scoring improving match over partitions × rules, where each
    /// rule proposes its first well-typed match per partition. Earlier
    /// proposals win ties.
    fn best_match(&self, graph: &Graph) -> Option<(&'static Rule, Match, Score)> {
        let mut best: Option<(&'static Rule, Match, Score)> = None;
        for partition in Ecg::rewrite_partitions(graph) {
            for &rule in &self.rules {
                let proposal = partition
                    .iter()
                    .map(|&id| graph.node(id))
                    .filter(|node| rule.anchors.contains(&node.op))
                    .find_map(|node| {
                        let found = (rule.find)(graph, node)?;
                        let score = evaluate(graph, &found)?;
                        Some((found, score))
                    });
                if let Some((found, score)) = proposal {
                    let improves = score > (0, 0, 0);
                    if improves && best.as_ref().is_none_or(|(_, _, b)| score > *b) {
                        best = Some((rule, found, score));
                    }
                }
            }
        }
        best
    }
}

/// Type-checks a match and scores it; `None` when it is not applicable.
fn evaluate(graph: &Graph, found: &Match) -> Option<Score> {
    let replaced = graph.value(found.replaced);
    let is_output = graph.outputs().contains(&found.replaced);
    if let (Expr::Old(v), true) = (&found.replacement, is_output) {
        // Forwarding a graph output onto a graph input, a weight or another
        // graph output would drop or merge an output marker.
        if graph.value(*v).kind != ValueKind::Intermediate {
            return None;
        }
    }
    let mut added = (0, 0, 0);
    if infer(graph, &found.replacement, &mut added)? != replaced.shape {
        return None;
    }
    let shapes = |ids: &[ValueId]| -> Vec<Shape> {
        ids.iter().map(|&v| graph.value(v).shape.clone()).collect()
    };
    let mut removed = (0, 0, 0);
    for &id in &found.removed {
        let node = graph.node(id);
        let (inputs, outputs) = (shapes(&node.inputs), shapes(&node.outputs));
        add_op_cost(&mut removed, node.op, &node.attrs, &inputs, &outputs);
    }
    Some((
        removed.0 - added.0,
        removed.1 - added.1,
        removed.2 - added.2,
    ))
}

/// Infers the shape of a replacement expression bottom-up, accumulating the
/// cost of its operators.
fn infer(graph: &Graph, expr: &Expr, total: &mut Score) -> Option<Shape> {
    match expr {
        Expr::Old(v) => Some(graph.value(*v).shape.clone()),
        Expr::Op(op, attrs, args) => {
            let inputs = args
                .iter()
                .map(|arg| infer(graph, arg, total))
                .collect::<Option<Vec<_>>>()?;
            let outputs = infer_shapes(*op, attrs, &inputs).ok()?;
            add_op_cost(total, *op, attrs, &inputs, &outputs);
            outputs.into_iter().next()
        }
    }
}

fn add_op_cost(total: &mut Score, op: OpKind, attrs: &Attrs, inputs: &[Shape], outputs: &[Shape]) {
    total.0 += cost::flops(op, attrs, inputs, outputs) as i64;
    total.1 += inputs.iter().map(|s| s.numel() as i64).sum::<i64>();
    total.2 += 1;
}

impl Match {
    /// The graph edit that applies this match: its replacement's operators
    /// in emission order (arguments first, left to right), each named
    /// `rw.<op>`.
    fn into_splice(self) -> Splice {
        fn flatten(expr: Expr, ops: &mut Vec<SpliceOp>) -> SpliceArg {
            match expr {
                Expr::Old(v) => SpliceArg::Value(v),
                Expr::Op(op, attrs, args) => {
                    let inputs = args.into_iter().map(|arg| flatten(arg, ops)).collect();
                    let name = format!("rw.{}", op.name().to_lowercase());
                    ops.push(SpliceOp {
                        op,
                        attrs,
                        inputs,
                        name,
                    });
                    SpliceArg::Op(ops.len() - 1)
                }
            }
        }
        let mut ops = Vec::new();
        let with = flatten(self.replacement, &mut ops);
        Splice {
            removed: self.removed,
            replaced: self.replaced,
            ops,
            with,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, HashMap};

    use dnnf_graph::GraphError;

    use super::*;

    // The driver as it was before splicing, kept verbatim as the oracle:
    // one full graph rebuild per applied rewrite.

    /// Rebuilds `graph` with the nodes in `found.removed` deleted and
    /// `found.replacement` spliced in where the first surviving consumer of a
    /// deleted node's output used to be (or at the end, if nothing consumes it).
    fn rebuild_replacing(graph: &Graph, found: &Match) -> Result<Graph, GraphError> {
        let mut new = Graph::new(graph.name());
        let mut map: BTreeMap<ValueId, ValueId> = BTreeMap::new();

        // Carry over inputs and weights.
        for value in graph.values() {
            match value.kind {
                ValueKind::Input => {
                    let id = new.add_input(value.name.clone(), value.shape.clone());
                    if let Some(axis) = graph.seq_axis(value.id) {
                        new.mark_seq_axis(id, axis)?;
                    }
                    map.insert(value.id, id);
                }
                ValueKind::Weight => {
                    let id = match graph.weight_data(value.id) {
                        Some(data) => new.add_weight_with_data(value.name.clone(), data.clone()),
                        None => new.add_weight(value.name.clone(), value.shape.clone()),
                    };
                    map.insert(value.id, id);
                }
                _ => {}
            }
        }

        let mut spliced = false;
        for node_id in graph.topo_order() {
            if found.removed.contains(&node_id) {
                continue;
            }
            let node = graph.node(node_id);
            if !spliced && node.inputs.iter().any(|i| !map.contains_key(i)) {
                let value = emit(graph, &found.replacement, &mut new, &map)?;
                map.insert(found.replaced, value);
                spliced = true;
            }
            let new_inputs: Vec<ValueId> = node
                .inputs
                .iter()
                .map(|&i| mapped(graph, &map, i))
                .collect::<Result<_, _>>()?;
            let outs = new.add_op(node.op, node.attrs.clone(), &new_inputs, node.name.clone())?;
            for (old, newv) in node.outputs.iter().zip(outs) {
                map.insert(*old, newv);
            }
        }
        if !spliced {
            let value = emit(graph, &found.replacement, &mut new, &map)?;
            map.insert(found.replaced, value);
        }

        for &out in graph.outputs() {
            new.mark_output(mapped(graph, &map, out)?);
        }
        Ok(new)
    }

    /// Adds a replacement expression's operators to `new` (arguments first, left
    /// to right) and returns the value it evaluates to.
    fn emit(
        graph: &Graph,
        expr: &Expr,
        new: &mut Graph,
        map: &BTreeMap<ValueId, ValueId>,
    ) -> Result<ValueId, GraphError> {
        match expr {
            Expr::Old(v) => mapped(graph, map, *v),
            Expr::Op(op, attrs, args) => {
                let inputs = args
                    .iter()
                    .map(|arg| emit(graph, arg, new, map))
                    .collect::<Result<Vec<_>, _>>()?;
                let name = format!("rw.{}", op.name().to_lowercase());
                Ok(new.add_op(*op, attrs.clone(), &inputs, name)?[0])
            }
        }
    }

    fn mapped(
        graph: &Graph,
        map: &BTreeMap<ValueId, ValueId>,
        old: ValueId,
    ) -> Result<ValueId, GraphError> {
        map.get(&old).copied().ok_or_else(|| GraphError::Invalid {
            reason: format!("rewrite lost value `{}`", graph.value(old).name),
        })
    }

    fn reference_run(engine: &RewriteEngine, graph: &Graph) -> (Graph, Vec<AppliedRewrite>) {
        let mut current = graph.clone();
        let mut applied = Vec::new();
        while applied.len() < MAX_APPLICATIONS {
            let Some((rule, found, score)) = engine.best_match(&current) else {
                break;
            };
            let Ok(next) = rebuild_replacing(&current, &found).and_then(|g| {
                g.validate()?;
                Ok(g)
            }) else {
                break;
            };
            current = next;
            applied.push(AppliedRewrite {
                rule: rule.name.to_string(),
                category: rule.category,
                flops_saved: score.0,
                nodes_removed: score.2,
            });
        }
        (current, applied)
    }

    /// Where two graphs first differ, for a failure message short enough to
    /// read (`Graph`'s `Debug` runs to megabytes on a model).
    fn first_difference(got: &Graph, want: &Graph) -> Option<String> {
        if got.node_count() != want.node_count() || got.value_count() != want.value_count() {
            return Some(format!(
                "{} nodes / {} values, want {} / {}",
                got.node_count(),
                got.value_count(),
                want.node_count(),
                want.value_count()
            ));
        }
        if let Some((a, b)) = got.nodes().zip(want.nodes()).find(|(a, b)| a != b) {
            return Some(format!("node {a:?}, want {b:?}"));
        }
        if let Some((a, b)) = got.values().zip(want.values()).find(|(a, b)| a != b) {
            return Some(format!("value {a:?}, want {b:?}"));
        }
        (got != want).then(|| "inputs, outputs, weight data or seq axes differ".into())
    }

    /// Runs the engine and the rebuilding oracle on `graph` and demands the
    /// same applied rewrites and the same graph, field for field; returns the
    /// number of rewrites applied.
    fn assert_matches_reference(graph: &Graph, what: &str) -> usize {
        let engine = RewriteEngine::with_default_rules();
        let (got, applied) = engine.run(graph);
        let (want, want_applied) = reference_run(&engine, graph);
        assert_eq!(applied, want_applied, "{what}");
        if let Some(difference) = first_difference(&got, &want) {
            panic!("{what}: the spliced graph is not the rebuilt one: {difference}");
        }
        applied.len()
    }

    #[test]
    fn the_splicing_driver_rewrites_every_model_as_the_rebuilding_one_did() {
        let mut applied = 0;
        for &kind in dnnf_models::ModelKind::all() {
            let mut graph = kind.build(dnnf_models::ModelScale::tiny()).unwrap();
            applied += assert_matches_reference(&graph, kind.name());
            // Weight data and sequence marks must move with their values.
            let mut weights = 0;
            for id in graph.values().map(|v| v.id).collect::<Vec<_>>() {
                if graph.value(id).is_weight() && weights < 3 {
                    let data = dnnf_tensor::Tensor::random(graph.value(id).shape.clone(), 5);
                    graph.set_weight_data(id, data).unwrap();
                    weights += 1;
                }
            }
            let marked = graph.inputs()[0];
            if graph.value(marked).shape.rank() > 1 {
                graph.mark_seq_axis(marked, 1).unwrap();
            }
            assert_matches_reference(&graph, &format!("{} with data and marks", kind.name()));
        }
        assert!(applied > 0, "no model rewrote at all");
    }

    #[test]
    fn the_splicing_driver_rewrites_every_rule_case_as_the_rebuilding_one_did() {
        for case in rules::tests::cases() {
            for fires in [true, false] {
                let applied = assert_matches_reference(
                    &(case.build)(fires),
                    &format!("{} (fires = {fires})", case.rule),
                );
                assert_eq!(applied > 0, fires, "{}", case.rule);
            }
        }
    }

    #[test]
    fn the_splicing_driver_rewrites_every_fuzz_family_as_the_rebuilding_one_did() {
        const PER_FAMILY: usize = 200;
        let mut seen: HashMap<String, usize> = HashMap::new();
        let mut seed = 0u64;
        while seen.len() < 5 || seen.values().any(|&n| n < PER_FAMILY) {
            let graph = dnnf_bench::fuzz::random_fuzz_graph(seed, 12);
            let count = seen.entry(graph.name().to_string()).or_default();
            if *count < PER_FAMILY {
                *count += 1;
                assert_matches_reference(&graph, &format!("fuzz seed {seed}"));
            }
            seed += 1;
            assert!(seed < 100_000, "a fuzz family stopped appearing: {seen:?}");
        }
    }

    fn relu_chain() -> Graph {
        let mut g = Graph::new("chain");
        let x = g.add_input("x", Shape::new(vec![4]));
        let a = g.add_op(OpKind::Relu, Attrs::new(), &[x], "a").unwrap()[0];
        let b = g.add_op(OpKind::Identity, Attrs::new(), &[a], "b").unwrap()[0];
        let c = g.add_op(OpKind::Sigmoid, Attrs::new(), &[b], "c").unwrap()[0];
        g.mark_output(c);
        g
    }

    /// Deletes the `Relu` and the `Identity` of [`relu_chain`] and forwards
    /// the `Identity`'s readers to a new `Neg` of the `Relu`'s output — a
    /// value the same match deletes.
    fn reads_a_removed_value(graph: &Graph, node: &Node) -> Option<Match> {
        let relu = graph.value(node.inputs[0]).producer?;
        Some(Match {
            removed: vec![node.id, relu],
            replaced: node.outputs[0],
            replacement: Expr::Op(OpKind::Neg, Attrs::new(), vec![Expr::Old(node.inputs[0])]),
        })
    }

    static BROKEN: Rule = Rule {
        name: "test.reads-a-removed-value",
        category: RuleCategory::Simplification,
        anchors: &[OpKind::Identity],
        find: reads_a_removed_value,
    };

    #[test]
    fn a_failed_splice_keeps_the_last_valid_graph() {
        let g = relu_chain();
        let identity = g.nodes().find(|n| n.op == OpKind::Identity).unwrap();
        let found = reads_a_removed_value(&g, identity).unwrap();
        // The match type-checks and improves, so the driver would apply it.
        assert!(evaluate(&g, &found).is_some_and(|score| score > (0, 0, 0)));
        let Err(refused) = g.clone().splice(found.into_splice()) else {
            panic!("a splice reading a deleted value succeeded");
        };
        let (unchanged, GraphError::Invalid { reason }) = *refused else {
            panic!("a splice reading a deleted value failed for another reason");
        };
        assert!(reason.contains("a:out"), "{reason}");
        assert_eq!(unchanged, g);
        assert!(unchanged.validate().is_ok());

        let (rewritten, applied) = RewriteEngine::new(vec![&BROKEN]).run(&g);
        assert_eq!(applied, []);
        assert_eq!(rewritten, g);
        assert!(rewritten.validate().is_ok());
    }

    #[test]
    fn a_splice_without_removals_is_refused() {
        let g = relu_chain();
        let out = g.outputs()[0];
        let nothing = Match {
            removed: Vec::new(),
            replaced: out,
            replacement: Expr::Old(out),
        };
        let (unchanged, _) = *g.clone().splice(nothing.into_splice()).unwrap_err();
        assert_eq!(unchanged, g);
    }

    #[test]
    fn a_splice_can_drop_an_identity_node() {
        let g = relu_chain();
        let identity = g.nodes().find(|n| n.op == OpKind::Identity).unwrap();
        let drop_it = || Match {
            removed: vec![identity.id],
            replaced: identity.outputs[0],
            replacement: Expr::Old(identity.inputs[0]),
        };
        assert_eq!(evaluate(&g, &drop_it()), Some((0, 4, 1)));
        let spliced = g.clone().splice(drop_it().into_splice()).unwrap();
        assert_eq!(spliced.node_count(), 2);
        assert!(spliced.validate().is_ok());
        assert_eq!(spliced, rebuild_replacing(&g, &drop_it()).unwrap());
    }

    #[test]
    fn ill_typed_replacements_are_not_matches() {
        let g = relu_chain();
        let identity = g.nodes().find(|n| n.op == OpKind::Identity).unwrap();
        let with = |replacement| Match {
            removed: vec![identity.id],
            replaced: identity.outputs[0],
            replacement,
        };
        // Inference fails: Conv rejects rank-1 operands.
        let x = Expr::Old(identity.inputs[0]);
        let y = Expr::Old(identity.inputs[0]);
        let conv = Expr::Op(OpKind::Conv, Attrs::new(), vec![x, y]);
        assert_eq!(evaluate(&g, &with(conv)), None);
        // Inference succeeds but the shape changes: [4] -> [1, 4].
        let unsqueezed = Expr::Op(
            OpKind::Unsqueeze,
            Attrs::new().with_ints("axes", vec![0]),
            vec![Expr::Old(identity.inputs[0])],
        );
        assert_eq!(evaluate(&g, &with(unsqueezed)), None);
    }

    #[test]
    fn engine_reports_rule_names() {
        let engine = RewriteEngine::with_default_rules();
        let names = engine.rule_names();
        assert!(names.len() >= 10);
        assert!(names.iter().any(|(_, c)| *c == RuleCategory::Associative));
        assert!(names.iter().any(|(_, c)| *c == RuleCategory::Distributive));
        assert!(names.iter().any(|(_, c)| *c == RuleCategory::Commutative));
        assert!(names
            .iter()
            .any(|(_, c)| *c == RuleCategory::Simplification));
    }

    #[test]
    fn engine_is_idempotent_on_graphs_without_matches() {
        let g = relu_chain();
        let engine = RewriteEngine::with_default_rules();
        let (rewritten, applied) = engine.run(&g);
        // Only the Identity elimination can fire here.
        assert!(applied
            .iter()
            .all(|a| a.category == RuleCategory::Simplification));
        let (again, applied2) = engine.run(&rewritten);
        assert!(applied2.is_empty());
        assert_eq!(again.node_count(), rewritten.node_count());
    }
}
