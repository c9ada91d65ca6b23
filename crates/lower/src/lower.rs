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
//! replaced by its finer-granularity sub-srDFG ([`srdfg::refine`]) until
//! only supported operations remain. If an unsupported node cannot be
//! refined further, compilation fails for that accelerator — exactly the
//! paper's stated behaviour ("if the nodes in the srDFG cannot be lowered
//! to a specific hardware because of unsupported nodes, the compilation
//! fails for that accelerator").

use crate::spec::{SupportMemo, TargetMap};
use pmlang::Span;
use srdfg::budget::{Budget, BudgetExceeded};
use srdfg::expand::{refine_for_splice, scalar_expansion_eligible, RefineError};
use srdfg::template::{TemplateCache, TemplateKey};
use srdfg::{Consed, EdgeMeta, FxBuildHasher, NodeId, SrDfg};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

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

/// How one pending refinement will be instantiated this round.
enum Plan {
    /// Expand live; for scalar expansions (`Some(key)`) the result is
    /// also stored in the cache as a template.
    Expand(Option<TemplateKey>),
    /// A cached template: instantiation is pure id-remapping.
    Hit(Arc<SrDfg>),
    /// Same key as an earlier `Expand` in this round — resolved from the
    /// cache after that expansion has been inserted (batch dedup).
    Deferred(TemplateKey),
}

/// [`lower`] with an explicit [`TemplateCache`] policy and under a
/// cooperative-cancellation [`Budget`].
///
/// `Some` threads a (possibly shared, cross-program) cache through every
/// scalar expansion; `None` disables caching entirely. Both paths route
/// refinements through the same canonical-expansion +
/// [`SrDfg::splice_template`] mechanism, so their lowered graphs are
/// byte-identical — the cache only decides whether the expansion work is
/// skipped.
///
/// The splice loop charges one fuel unit per pending refinement at every
/// round boundary and unwinds with a budget-tagged [`LowerError`] the
/// moment the request's deadline or fuel runs out. Charges happen only
/// at round granularity — an in-flight round always completes, no thread
/// is ever killed — so a cancelled lowering leaves the template cache
/// coherent.
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
    // the nodes the previous round's splices created.
    let mut scan_from: u32 = 0;
    let mut memo = SupportMemo::new();
    // Refinements strictly reduce granularity, so this terminates; the
    // iteration bound is a defensive backstop.
    for _ in 0..64 {
        let slots_before = graph.node_slots() as u32;
        // Collect this round's unsupported nodes, then refine them all at
        // once. Batching is equivalent to the interleaved loop: `refine`
        // reads only the node and its edge metadata, and `splice` removes
        // no node but the one it replaces, so no pending refinement can
        // observe another's splice.
        let mut pending = Vec::new();
        for id in graph.node_ids().filter(|id| id.0 >= scan_from).collect::<Vec<_>>() {
            let node = graph.node(id);
            let target = targets.target_for(node, graph.domain);
            if memo.supports(target, &node.name) {
                continue;
            }
            pending.push((id, target.expand));
        }
        if pending.is_empty() {
            return Ok(());
        }
        // One fuel unit per refinement this round: the charge total is a
        // pure function of the program, so fuel-driven cancellation is
        // deterministic (the chaos soak relies on this).
        budget.charge("lower", pending.len() as u64)?;
        scan_from = slots_before;

        // Plan each job against the cache: template hits skip expansion
        // entirely, and only the *first* job of each distinct key expands
        // (identical siblings defer to its inserted template).
        let mut plans: Vec<Plan> = Vec::with_capacity(pending.len());
        if let Some(cache) = cache {
            let mut first_of_fp: HashMap<u64, usize, FxBuildHasher> = HashMap::default();
            for (i, &(id, opts)) in pending.iter().enumerate() {
                let node = graph.node(id);
                if !scalar_expansion_eligible(node) {
                    // Not template-shaped (e.g. component flattening):
                    // the cache is never consulted, which a warm-run
                    // stats line reports as `bypassed` rather than as a
                    // miss.
                    cache.record_bypass();
                    plans.push(Plan::Expand(None));
                    continue;
                }
                let in_metas: Vec<Consed<EdgeMeta>> =
                    node.inputs.iter().map(|&e| graph.edge(e).meta.clone()).collect();
                let out_metas: Vec<Consed<EdgeMeta>> =
                    node.outputs.iter().map(|&e| graph.edge(e).meta.clone()).collect();
                let key = TemplateKey::new(node, &in_metas, &out_metas, &opts);
                if let Some(t) = cache.lookup(&key) {
                    plans.push(Plan::Hit(t));
                    continue;
                }
                match first_of_fp.entry(key.fingerprint()) {
                    std::collections::hash_map::Entry::Occupied(prev) if matches!(&plans[*prev.get()], Plan::Expand(Some(k)) if *k == key) =>
                    {
                        plans.push(Plan::Deferred(key));
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(i);
                        plans.push(Plan::Expand(Some(key)));
                    }
                    // Fingerprint collision with a different key: expand
                    // live without deduplication.
                    std::collections::hash_map::Entry::Occupied(_) => {
                        plans.push(Plan::Expand(Some(key)));
                    }
                }
            }
        } else {
            plans = pending.iter().map(|_| Plan::Expand(None)).collect();
        }

        // Expand the non-deduplicated jobs.
        let mut expanded: Vec<Option<Result<SrDfg, RefineError>>> = plans
            .iter()
            .zip(&pending)
            .map(|(plan, &(id, opts))| {
                matches!(plan, Plan::Expand(_)).then(|| refine_for_splice(graph, id, &opts))
            })
            .collect();

        // Reserve the whole round's growth up front: each splice appends
        // its sub-graph's nodes/edges, and letting the tables double
        // mid-round re-copies the (multi-megabyte) graph repeatedly.
        let (mut add_nodes, mut add_edges) = (0usize, 0usize);
        for (i, plan) in plans.iter().enumerate() {
            let (n, e) = match plan {
                Plan::Expand(_) => match &expanded[i] {
                    Some(Ok(sub)) => (sub.node_slots(), sub.edge_count()),
                    _ => (0, 0),
                },
                Plan::Hit(t) => (t.node_slots(), t.edge_count()),
                Plan::Deferred(_) => (0, 0),
            };
            add_nodes += n;
            add_edges += e;
        }
        graph.reserve(add_nodes, add_edges);
        // Splice serially, in collection (deterministic id) order.
        for (i, plan) in plans.into_iter().enumerate() {
            let (id, opts) = pending[i];
            match plan {
                Plan::Expand(key) => {
                    let sub = expanded[i]
                        .take()
                        .expect("planned")
                        .map_err(|e| stuck(graph, targets, id, e))?;
                    match (cache, key) {
                        (Some(cache), Some(key)) => {
                            let template = Arc::new(sub);
                            cache.insert(key, Arc::clone(&template));
                            graph.splice_template(id, &template);
                        }
                        _ if scalar_expansion_eligible(graph.node(id)) => {
                            graph.splice_template(id, &sub)
                        }
                        _ => graph.splice(id, &sub),
                    }
                }
                Plan::Hit(template) => graph.splice_template(id, &template),
                Plan::Deferred(key) => {
                    // The leading expansion of this key was inserted above;
                    // a miss is only possible if capacity pressure evicted
                    // it within this very round — then expand live.
                    let cache = cache.expect("deferred implies cache");
                    match cache.lookup(&key) {
                        Some(t) => graph.splice_template(id, &t),
                        None => {
                            let sub = refine_for_splice(graph, id, &opts)
                                .map_err(|e| stuck(graph, targets, id, e))?;
                            graph.splice_template(id, &sub);
                        }
                    }
                }
            }
        }
    }
    Err(LowerError::msg("lowering did not converge"))
}

/// The paper's failure rule: node `id`, still live because its splice
/// never happened, is unsupported by its target and cannot be refined.
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
    let ids: Vec<_> = graph.node_ids().collect();
    for id in ids {
        let name = graph.node(id).name.clone();
        if let Some(spec) = targets.override_for(&name) {
            let target: srdfg::Ident = spec.name.as_str().into();
            stamp_node(graph, id, &target);
        } else if let srdfg::NodeKind::Component(_) = &graph.node(id).kind {
            // Recurse into nested components.
            let srdfg::NodeKind::Component(sub) = &mut graph.node_mut(id).kind else {
                unreachable!()
            };
            let mut inner = std::mem::replace(sub.as_mut(), SrDfg::new(""));
            stamp_overrides(&mut inner, targets);
            if let srdfg::NodeKind::Component(slot) = &mut graph.node_mut(id).kind {
                **slot = inner;
            }
        }
    }
}

/// Marks a node and (for components) its whole body with a target name.
fn stamp_node(graph: &mut SrDfg, id: srdfg::NodeId, target: &srdfg::Ident) {
    graph.node_mut(id).target = Some(target.clone());
    if let srdfg::NodeKind::Component(sub) = &mut graph.node_mut(id).kind {
        let mut inner = std::mem::replace(sub.as_mut(), SrDfg::new(""));
        let ids: Vec<_> = inner.node_ids().collect();
        for nid in ids {
            stamp_node(&mut inner, nid, target);
        }
        if let srdfg::NodeKind::Component(slot) = &mut graph.node_mut(id).kind {
            **slot = inner;
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
}
