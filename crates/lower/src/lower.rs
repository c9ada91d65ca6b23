//! Algorithm 1 — srDFG lowering.
//!
//! ```text
//! function Lower(srdfg, Om)
//!     let (N, E) = srdfg.subDfg
//!     let Ot = Om[srdfg.domain]
//!     for each n ∈ N do
//!         if n.name ∉ Ot then
//!             let subDfg = Lower(n, Om)
//!             srdfg ← srdfg[n ↦ subDfg]
//!     return srdfg
//! ```
//!
//! Every node whose operation name the domain's target does not support is
//! replaced by its finer-granularity sub-srDFG — `Lower(n, Om)` is
//! [`Refinement::of`], `srdfg[n ↦ subDfg]` is [`SrDfg::instantiate`] — until
//! only supported operations remain. If an unsupported node cannot be
//! refined further, compilation fails for that accelerator — exactly the
//! paper's stated behaviour ("if the nodes in the srDFG cannot be lowered
//! to a specific hardware because of unsupported nodes, the compilation
//! fails for that accelerator").

use crate::spec::{SupportMemo, TargetMap};
use pmlang::Span;
use srdfg::budget::{Budget, BudgetExceeded};
use srdfg::{NodeId, RefineError, Refinement, SrDfg, TemplateCache};
use std::fmt;
use std::ops::Range;

/// Why lowering failed.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerError {
    /// Human-readable description.
    pub message: String,
    /// PMLang source location of the node Algorithm 1 got stuck on, when
    /// the failure is a stuck node and its statement is known.
    pub span: Option<Span>,
    /// Set when the failure is a cooperative-cancellation unwind (the
    /// request's [`Budget`] ran out mid-lowering) rather than a real
    /// lowering defect. The serve layer maps this to a typed
    /// `deadline_exceeded` wire error instead of `compile`.
    pub budget: Option<BudgetExceeded>,
}

impl LowerError {
    /// A plain lowering failure.
    pub fn msg(message: impl Into<String>) -> Self {
        LowerError { message: message.into(), span: None, budget: None }
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.budget {
            Some(b) => b.fmt(f),
            None => write!(f, "lowering failed: {}", self.message),
        }
    }
}

impl std::error::Error for LowerError {}

impl From<BudgetExceeded> for LowerError {
    fn from(e: BudgetExceeded) -> Self {
        LowerError { message: e.to_string(), span: None, budget: Some(e) }
    }
}

/// Lowers `graph` in place until every node's operation is supported by
/// its domain's target in `targets` (paper Algorithm 1, iterated because a
/// refinement may introduce nodes that need further refinement).
///
/// # Errors
///
/// Returns a [`LowerError`] when an unsupported node cannot be refined
/// (already at the finest granularity, too large to expand, or
/// data-dependent).
pub fn lower(graph: &mut SrDfg, targets: &TargetMap) -> Result<(), LowerError> {
    // Even without a caller-provided cache, a transient one dedups the
    // repeated expansions *within* this program (an FFT expands one
    // butterfly fabric per stage; they are structurally identical).
    lower_budgeted(graph, targets, Some(&TemplateCache::new()), &Budget::unlimited())
}

/// [`lower`] with an explicit [`TemplateCache`] policy and under a
/// cooperative-cancellation [`Budget`].
///
/// `Some` threads a (possibly shared, cross-program) cache through every
/// scalar expansion; `None` disables caching entirely. Both go through
/// [`Refinement::of`] and [`SrDfg::instantiate`], so their lowered graphs
/// are byte-identical — the cache only decides whether the expansion work
/// is skipped.
///
/// Each round charges one fuel unit per pending refinement before it
/// refines anything and unwinds with a budget-tagged [`LowerError`] the
/// moment the request's deadline or fuel runs out. Charges happen only
/// at round granularity — an in-flight round always completes — so a
/// cancelled lowering leaves the template cache coherent.
///
/// # Errors
///
/// Everything [`lower`] returns, plus a [`LowerError`] carrying
/// [`LowerError::budget`] on cancellation.
pub fn lower_budgeted(
    graph: &mut SrDfg,
    targets: &TargetMap,
    cache: Option<&TemplateCache>,
    budget: &Budget,
) -> Result<(), LowerError> {
    budget.check("lower")?;
    stamp_overrides(graph, targets);
    // A node's support status depends only on its own fields, which never
    // change after creation, and splicing only *appends* node slots — so
    // after the first full scan, each later round needs to examine only
    // the slots the previous round's splices created.
    let mut frontier = 0..slot_count(graph);
    let mut memo = SupportMemo::new();
    // Refinements strictly reduce granularity, so this terminates; the
    // iteration bound is a defensive backstop.
    for _ in 0..64 {
        match round(graph, targets, cache, budget, &mut memo, frontier)? {
            Some(created) => frontier = created,
            None => return Ok(()),
        }
    }
    Err(LowerError::msg("lowering did not converge"))
}

/// One round of Algorithm 1 over the node slots in `frontier`: refines
/// every live node there that its target does not support, then
/// instantiates them all. Returns the slots the instantiations appended —
/// the next round's frontier — or `None` when the frontier is supported.
///
/// Refining all before instantiating any is equivalent to the paper's
/// interleaved loop: refinement reads only the node and its edge
/// metadata, and instantiation removes no node but the one it replaces, so
/// no pending refinement can observe another's splice.
fn round(
    graph: &mut SrDfg,
    targets: &TargetMap,
    cache: Option<&TemplateCache>,
    budget: &Budget,
    memo: &mut SupportMemo,
    frontier: Range<u32>,
) -> Result<Option<Range<u32>>, LowerError> {
    let mut pending = Vec::new();
    for id in frontier.map(NodeId).filter(|&id| graph.is_live(id)) {
        let node = graph.node(id);
        let target = targets.target_for(node, graph.domain);
        if !memo.supports(target, &node.name) {
            pending.push(id);
        }
    }
    if pending.is_empty() {
        return Ok(None);
    }
    // One fuel unit per refinement this round: the charge total is a pure
    // function of the program, so fuel-driven cancellation is
    // deterministic (the chaos soak relies on this).
    budget.charge("lower", pending.len() as u64)?;

    // `Lower(n, Om)` for each, in id order: a node structurally equal to
    // an earlier one of this round hits the template that one just stored,
    // and the round holds every template it will instantiate, so an
    // eviction mid-round costs a re-expansion at most.
    let mut refined = Vec::with_capacity(pending.len());
    let (mut add_nodes, mut add_edges) = (0usize, 0usize);
    for id in pending {
        let refinement =
            Refinement::of(graph, id, cache).map_err(|e| stuck(graph, targets, id, e))?;
        add_nodes += refinement.graph().node_count();
        add_edges += refinement.graph().edge_count();
        refined.push((id, refinement));
    }
    // Reserve the whole round's growth up front: each instantiation
    // appends its sub-graph's nodes/edges, and letting the tables double
    // mid-round re-copies the (multi-megabyte) graph repeatedly.
    let slots_before = slot_count(graph);
    graph.reserve(add_nodes, add_edges);
    // `srdfg ← srdfg[n ↦ subDfg]`, in the same deterministic order.
    for (id, refinement) in &refined {
        graph.instantiate(*id, refinement);
    }
    Ok(Some(slots_before..slot_count(graph)))
}

/// The graph's node-slot count as the `u32` bound of its node ids.
fn slot_count(graph: &SrDfg) -> u32 {
    u32::try_from(graph.node_slots()).expect("srDFG node ids are u32")
}

/// The paper's failure rule: node `id`, still live because a round
/// instantiates nothing until all of it is refined, is unsupported by its
/// target and cannot be refined.
fn stuck(graph: &SrDfg, targets: &TargetMap, id: NodeId, e: RefineError) -> LowerError {
    let node = graph.node(id);
    let target = targets.target_for(node, graph.domain);
    let domain = node.domain.or(graph.domain).map_or("unannotated", |d| d.keyword());
    LowerError {
        message: format!(
            "`{}` (domain {domain}) is not supported by target `{}` and cannot be refined: {e}",
            node.name, target.name
        ),
        span: (!node.span.is_synthetic()).then_some(node.span),
        budget: None,
    }
}

/// Stamps per-component target overrides onto component nodes (and,
/// recursively, their bodies) so the assignment survives splicing.
/// Idempotent: stamping an already-stamped graph changes nothing.
pub fn stamp_overrides(graph: &mut SrDfg, targets: &TargetMap) {
    for id in graph.node_ids().collect::<Vec<_>>() {
        let node = graph.node_mut(id);
        if let Some(spec) = targets.override_for(&node.name) {
            stamp_node(node, &spec.name.as_str().into());
        } else if let srdfg::NodeKind::Component(body) = &mut node.kind {
            stamp_overrides(body, targets);
        }
    }
}

/// Marks a node and (for components) its whole body with a target name.
fn stamp_node(node: &mut srdfg::Node, target: &srdfg::Ident) {
    node.target = Some(target.clone());
    if let srdfg::NodeKind::Component(body) = &mut node.kind {
        for id in body.node_ids().collect::<Vec<_>>() {
            stamp_node(body.node_mut(id), target);
        }
    }
}

/// Checks (without mutating) whether every node is supported already.
pub fn fully_lowered(graph: &SrDfg, targets: &TargetMap) -> bool {
    let mut memo = SupportMemo::new();
    graph
        .iter_nodes()
        .all(|(_, node)| memo.supports(targets.target_for(node, graph.domain), &node.name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AcceleratorSpec;
    use pmlang::Domain;
    use srdfg::{Bindings, Machine, NodeKind, Tensor};
    use std::collections::HashMap;

    const MATVEC_SRC: &str = "mvmul(input float A[m][n], input float B[n], output float C[m]) {
         index i[0:n-1], j[0:m-1];
         C[j] = sum[i](A[j][i]*B[i]);
     }
     main(input float W[2][3], input float x[3], output float y[2]) {
         DA: mvmul(W, x, y);
     }";

    fn build_graph(src: &str) -> SrDfg {
        let prog = pmlang::parse(src).unwrap();
        pmlang::check(&prog).unwrap();
        srdfg::build(&prog, &Bindings::default()).unwrap()
    }

    fn feeds() -> HashMap<String, Tensor> {
        HashMap::from([
            (
                "W".to_string(),
                Tensor::from_vec(pmlang::DType::Float, vec![2, 3], vec![1., 2., 3., 4., 5., 6.])
                    .unwrap(),
            ),
            (
                "x".to_string(),
                Tensor::from_vec(pmlang::DType::Float, vec![3], vec![1., 1., 1.]).unwrap(),
            ),
        ])
    }

    #[test]
    fn lowering_to_group_granularity() {
        // Target supports tensor-level matvec: nothing to do but flatten
        // the component wrapper.
        let mut g = build_graph(MATVEC_SRC);
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics);
        let mut targets = TargetMap::host_only(host);
        targets.set(AcceleratorSpec::new("GROUPY", Domain::DataAnalytics, ["matvec"]));
        lower(&mut g, &targets).unwrap();
        assert!(fully_lowered(&g, &targets));
        assert!(g.iter_nodes().all(|(_, n)| !matches!(n.kind, NodeKind::Component(_))));
        let out = Machine::new(g).invoke(&feeds()).unwrap();
        assert_eq!(out["y"].as_real_slice().unwrap(), &[6.0, 15.0]);
    }

    #[test]
    fn lowering_to_scalar_granularity() {
        // TABLA-style target: only scalar ops + marshalling.
        let mut g = build_graph(MATVEC_SRC);
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics);
        let mut targets = TargetMap::host_only(host);
        targets.set(AcceleratorSpec::new(
            "SCALARY",
            Domain::DataAnalytics,
            ["add", "sub", "mul", "div", "const", "unpack", "pack"],
        ));
        lower(&mut g, &targets).unwrap();
        assert!(fully_lowered(&g, &targets));
        // All compute is now scalar nodes.
        let scalar = g.iter_nodes().filter(|(_, n)| matches!(n.kind, NodeKind::Scalar(_))).count();
        assert!(scalar >= 10, "expected an expanded mul/add fabric, got {scalar}");
        let out = Machine::new(g).invoke(&feeds()).unwrap();
        assert_eq!(out["y"].as_real_slice().unwrap(), &[6.0, 15.0]);
    }

    #[test]
    fn intermediate_granularity_stops_early() {
        // Target supports group `sum` and elementwise `mul`: lowering stops
        // at the decomposed level rather than expanding to scalars.
        let mut g = build_graph(MATVEC_SRC);
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics);
        let mut targets = TargetMap::host_only(host);
        targets.set(AcceleratorSpec::new(
            "ROBOXY",
            Domain::DataAnalytics,
            ["sum", "map.mul", "map"],
        ));
        lower(&mut g, &targets).unwrap();
        assert!(fully_lowered(&g, &targets));
        let kinds: Vec<_> = g
            .iter_nodes()
            .map(|(_, n)| (n.name.clone(), matches!(n.kind, NodeKind::Reduce(_))))
            .collect();
        assert!(kinds.iter().any(|(n, is_red)| n == "sum" && *is_red), "{kinds:?}");
        let out = Machine::new(g).invoke(&feeds()).unwrap();
        assert_eq!(out["y"].as_real_slice().unwrap(), &[6.0, 15.0]);
    }

    #[test]
    fn unsupported_scalar_fails_compilation() {
        // Program needs sigmoid; target has no sigmoid unit.
        let mut g = build_graph(
            "main(input float x[2], output float y[2]) { index i[0:1]; y[i] = sigmoid(x[i]); }",
        );
        // Force everything to the DA accelerator by annotating via graph
        // domain (main has no annotation; set graph-level domain).
        g.domain = Some(Domain::DataAnalytics);
        let host = AcceleratorSpec::new("HOSTLESS", Domain::DataAnalytics, []);
        let mut targets = TargetMap::host_only(host);
        targets.set(AcceleratorSpec::new(
            "NOSIG",
            Domain::DataAnalytics,
            ["add", "mul", "unpack", "pack", "const"],
        ));
        let err = lower(&mut g, &targets).unwrap_err();
        assert!(err.message.contains("sigmoid"), "{err}");
    }

    #[test]
    fn host_handles_unannotated_glue() {
        let mut g = build_graph(
            "f(input float x[2], output float y[2]) { index i[0:1]; y[i] = x[i] * 2.0; }
             main(input float a[2], output float b[2]) {
                 index i[0:1];
                 float t[2];
                 DSP: f(a, t);
                 b[i] = t[i] + 1.0;
             }",
        );
        let host = AcceleratorSpec::general_purpose("CPU", Domain::Dsp);
        let mut targets = TargetMap::host_only(host);
        targets.set(AcceleratorSpec::new(
            "DECOISH",
            Domain::Dsp,
            ["mul", "add", "const", "unpack", "pack"],
        ));
        lower(&mut g, &targets).unwrap();
        // The DSP component was flattened; the glue map stayed tensor-level
        // under the host.
        assert!(g
            .iter_nodes()
            .any(|(_, n)| n.domain.is_none() && matches!(n.kind, NodeKind::Map(_))));
        assert!(fully_lowered(&g, &targets));
    }

    #[test]
    fn stuck_node_error_carries_the_source_span_and_a_budget_unwind_none() {
        // `pick` is flattened in round one; only then does the scan reach
        // the `argmax` inside it, which has no scalar expansion.
        let src = "pick(input float x[4], output float y) { index i[0:3]; y = argmax[i](x[i]); }
main(input float a[4], output float b) {
    DSP: pick(a, b);
}";
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics);
        let mut targets = TargetMap::host_only(host);
        targets.set(AcceleratorSpec::new("DECOISH", Domain::Dsp, ["add", "mul", "const"]));
        let err = lower(&mut build_graph(src), &targets).unwrap_err();
        assert_eq!(
            err.message,
            "`argmax` (domain DSP) is not supported by target `DECOISH` and cannot be \
             refined: node `argmax` has no scalar expansion"
        );
        let span = err.span.expect("stuck node span");
        assert_eq!(&src[span.start..span.end], "y = argmax[i](x[i]);");
        assert_eq!(err.budget, None);

        let starved = Budget::new(None, Some(0));
        let err = lower_budgeted(&mut build_graph(src), &targets, None, &starved).unwrap_err();
        assert!(err.budget.is_some(), "{err}");
        assert_eq!(err.span, None);
    }

    /// `main` with one single-op map per entry of `ops`, all over the same
    /// 4-element input: each is a scalar expansion of round one, and two
    /// with the same operator are structurally identical.
    fn maps_program(ops: &[&str]) -> SrDfg {
        let outs: String = (0..ops.len()).map(|k| format!(", output float y{k}[4]")).collect();
        let body: String =
            ops.iter().enumerate().map(|(k, op)| format!("y{k}[i] = x[i] {op} 2.0; ")).collect();
        build_graph(&format!("main(input float x[4]{outs}) {{ index i[0:3]; {body}}}"))
    }

    /// A host that supports only scalar `+`/`*`, constants and marshalling.
    fn scalar_targets() -> TargetMap {
        let ops = ["add", "mul", "const", "unpack", "pack"];
        TargetMap::host_only(AcceleratorSpec::new("SCALARY", Domain::DataAnalytics, ops))
    }

    /// Lowers `graph` to scalar ops; returns the cache's `(misses, hits,
    /// inserts, evictions, bypassed)`.
    fn lower_to_scalars(
        graph: &mut SrDfg,
        cache: Option<&TemplateCache>,
        budget: &Budget,
    ) -> (Result<(), LowerError>, [u64; 5]) {
        let result = lower_budgeted(graph, &scalar_targets(), cache, budget);
        let s = cache.map(TemplateCache::stats).unwrap_or_default();
        (result, [s.misses, s.hits, s.inserts, s.evictions, s.bypassed])
    }

    #[test]
    fn same_round_siblings_hit_the_template_their_leader_stored() {
        let cache = TemplateCache::new();
        let (result, stats) =
            lower_to_scalars(&mut maps_program(&["*"; 3]), Some(&cache), &Budget::unlimited());
        assert_eq!((result, stats), (Ok(()), [1, 2, 1, 0, 0]));
    }

    #[test]
    fn a_cache_that_evicts_within_the_round_lowers_like_no_cache() {
        // Capacity 1: every insert evicts the template before it, so the
        // second `*` finds its leader's template gone and expands again.
        let ops = ["*", "+", "*", "+"];
        let (mut uncached, mut cached) = (maps_program(&ops), maps_program(&ops));
        lower_to_scalars(&mut uncached, None, &Budget::unlimited()).0.unwrap();
        let cache = TemplateCache::with_capacity(1);
        let (result, stats) = lower_to_scalars(&mut cached, Some(&cache), &Budget::unlimited());
        assert_eq!((result, stats), (Ok(()), [4, 0, 4, 3, 0]));
        assert_eq!(cached, uncached);
    }

    #[test]
    fn a_round_that_cannot_finish_refining_instantiates_nothing() {
        // Round one holds a good expansion (lower id) and a stuck `argmax`.
        let mut g = build_graph(
            "main(input float x[4], output float y[4], output float z) {
                 index i[0:3];
                 y[i] = x[i] * 2.0;
                 z = argmax[i](x[i]);
             }",
        );
        let before = g.clone();
        let (result, _) = lower_to_scalars(&mut g, None, &Budget::unlimited());
        let err = result.unwrap_err();
        assert!(err.message.contains("`argmax`") && err.span.is_some(), "{err}");
        assert_eq!(g, before);

        // A fuel-starved round unwinds before it refines anything.
        let cache = TemplateCache::new();
        let (result, stats) = lower_to_scalars(&mut g, Some(&cache), &Budget::new(None, Some(0)));
        assert!(result.unwrap_err().budget.is_some());
        assert_eq!(stats, [0; 5]);
    }

    #[test]
    fn a_round_scans_only_its_frontier_and_hands_on_the_slots_it_created() {
        let mut g = maps_program(&["*", "+"]);
        let maps: Vec<NodeId> = g.node_ids().collect();
        assert_eq!(maps.len(), 2);
        let (targets, budget, mut memo) =
            (scalar_targets(), Budget::unlimited(), SupportMemo::new());
        let slots = slot_count(&g);

        // A frontier holding only the second map refines only that one.
        let created = round(&mut g, &targets, None, &budget, &mut memo, maps[1].0..slots)
            .unwrap()
            .expect("the `+` map is unsupported");
        assert!(g.is_live(maps[0]) && !g.is_live(maps[1]));
        assert_eq!(created, slots..slot_count(&g), "the next frontier is the splice's slots");

        // Those slots are all supported scalar ops, so the next round ends
        // Algorithm 1 without reaching back to the unsupported `*` map.
        assert_eq!(round(&mut g, &targets, None, &budget, &mut memo, created), Ok(None));
        assert!(g.is_live(maps[0]));
    }
}
