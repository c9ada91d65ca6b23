//! Graph-level checks over the srDFG.
//!
//! These exploit the span provenance threaded through `srdfg::build` and
//! `srdfg::expand`: every node and edge carries the PMLang span of the
//! statement or declaration that introduced it, so a defect found deep in
//! the IR still renders with a caret into the original source.

use crate::diagnostic::Diagnostic;
use crate::for_each_graph;
use pm_lower::TargetMap;
use srdfg::{KExpr, NodeKind, Odometer, Scalar, SrDfg};
use std::collections::HashMap;

/// Largest iteration space the race detector enumerates exhaustively.
const MAX_RACE_POINTS: usize = 4096;

/// Scalar sample values for probing custom combiners. Chosen to break
/// symmetry: distinct magnitudes and signs expose non-commutativity and
/// non-associativity of anything that is not genuinely order-insensitive.
const SAMPLES: [f64; 5] = [-2.5, -1.0, 0.5, 1.5, 3.0];

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

/// Evaluates a combiner kernel on `(acc, elem)`, returning `None` when the
/// kernel leaves the scalar-real fragment (operand reads, complex values).
fn combine(combiner: &KExpr, a: f64, b: f64) -> Option<f64> {
    match combiner.eval(&[], &[], &[Scalar::Real(a), Scalar::Real(b)]) {
        Ok(Scalar::Real(v)) => Some(v),
        _ => None,
    }
}

/// `PM-W004` — reduction/write races. Two shapes of hazard:
///
/// 1. an indexed assignment whose left-hand-side index expressions are not
///    injective over the iteration space, so several iteration points write
///    the same element (the result then depends on evaluation order);
/// 2. a custom reduction whose combiner is not associative/commutative, so
///    a parallel or reassociated reduction tree changes the result.
pub(crate) fn reduction_race(graph: &SrDfg, out: &mut Vec<Diagnostic>) {
    for_each_graph(graph, None, &mut |graph, _| {
        for (_, node) in graph.iter_nodes() {
            let (out_space, write) = match &node.kind {
                NodeKind::Map(m) => (&m.out_space, &m.write),
                NodeKind::Reduce(r) => {
                    if let srdfg::ReduceOp::Custom { name, combiner } = &r.op {
                        check_combiner(node, name, combiner, out);
                    }
                    (&r.out_space, &r.write)
                }
                _ => continue,
            };
            // Identity writes are injective by construction.
            let identity = write.lhs.iter().enumerate().all(|(i, k)| *k == KExpr::Idx(i));
            if identity || srdfg::graph::space_size(out_space) > MAX_RACE_POINTS {
                continue;
            }
            // The lhs may only address the output space; anything else
            // is structurally broken and validate's territory.
            if write.lhs.iter().filter_map(KExpr::max_idx).max() >= Some(out_space.len()) {
                continue;
            }
            let mut writes: HashMap<Vec<i64>, usize> = HashMap::new();
            let mut points = Odometer::new(out_space);
            while let Some(point) = points.next_point() {
                let coord: Option<Vec<i64>> =
                    write.lhs.iter().map(|k| k.eval_index(point).ok()).collect();
                if let Some(coord) = coord {
                    *writes.entry(coord).or_insert(0) += 1;
                }
            }
            // Tie-break on the coordinate so the report is deterministic.
            if let Some((coord, count)) = writes
                .iter()
                .filter(|(_, &c)| c > 1)
                .max_by(|(ca, a), (cb, b)| a.cmp(b).then(cb.cmp(ca)))
            {
                let target = graph
                    .edge(node.outputs[0])
                    .meta
                    .name
                    .split('.')
                    .next()
                    .unwrap_or("")
                    .to_string();
                out.push(
                    Diagnostic::warning(
                        "PM-W004",
                        format!(
                            "indexed assignment to `{target}` writes element {coord:?} \
                             from {count} iteration points; the stored value depends \
                             on iteration order"
                        ),
                    )
                    .at(node.span)
                    .with_note(
                        "left-hand-side index expressions are not injective over \
                         the iteration space, so a parallel lowering may race",
                    ),
                );
            }
        }
    });
}

/// Probes a custom combiner for commutativity and associativity on the
/// sample set, reporting the first counterexample of each kind.
fn check_combiner(node: &srdfg::Node, name: &str, combiner: &KExpr, out: &mut Vec<Diagnostic>) {
    let mut broken: Vec<String> = Vec::new();
    'comm: for &a in &SAMPLES {
        for &b in &SAMPLES {
            let (Some(ab), Some(ba)) = (combine(combiner, a, b), combine(combiner, b, a)) else {
                return; // leaves the scalar-real fragment; nothing to probe
            };
            if !close(ab, ba) {
                broken.push(format!(
                    "not commutative: {name}({a}, {b}) = {ab} but {name}({b}, {a}) = {ba}"
                ));
                break 'comm;
            }
        }
    }
    'assoc: for &a in &SAMPLES {
        for &b in &SAMPLES {
            for &c in &SAMPLES {
                let left = combine(combiner, a, b).and_then(|ab| combine(combiner, ab, c));
                let right = combine(combiner, b, c).and_then(|bc| combine(combiner, a, bc));
                let (Some(l), Some(r)) = (left, right) else { return };
                if !close(l, r) {
                    broken.push(format!(
                        "not associative: {name}({name}({a}, {b}), {c}) = {l} but \
                         {name}({a}, {name}({b}, {c})) = {r}"
                    ));
                    break 'assoc;
                }
            }
        }
    }
    if !broken.is_empty() {
        let mut d = Diagnostic::warning(
            "PM-W004",
            format!(
                "custom reduction `{name}` is not safe to reorder; a parallel \
                 reduction tree gives an unspecified result"
            ),
        )
        .at(node.span);
        for b in broken {
            d = d.with_note(b);
        }
        out.push(d);
    }
}

/// `PM-W005` — cross-domain edges that reach Algorithm 2 without a
/// marshaling load/store pair. Algorithm 2 inserts DMA fragments when an
/// edge crosses *targets*; the paper's marshaling requirement is stated
/// over *domains*. When two different domains resolve to the same
/// accelerator (per-component overrides, shared backends), a domain
/// crossing slips through with no load/store pair — this check flags it.
/// Overrides resolve through the target stamped on each node, so `graph`
/// must already have been through `pm_lower::stamp_overrides`.
pub(crate) fn cross_domain_marshal(graph: &SrDfg, targets: &TargetMap, out: &mut Vec<Diagnostic>) {
    let host = targets.host().name.clone();
    for_each_graph(graph, None, &mut |graph, eff| {
        for e in graph.edge_ids() {
            let edge = graph.edge(e);
            let Some((p, _)) = edge.producer else { continue };
            let pn = graph.node(p);
            if is_marshalling(&pn.kind) {
                continue;
            }
            let pd = pn.domain.or(eff);
            for &(c, _) in &edge.consumers {
                let cn = graph.node(c);
                let cd = cn.domain.or(eff);
                let (Some(pd), Some(cd)) = (pd, cd) else { continue };
                if pd == cd || is_marshalling(&cn.kind) {
                    continue;
                }
                let pt = targets.target_for(pn, eff).name.clone();
                let ct = targets.target_for(cn, eff).name.clone();
                if pt == ct && pt != host {
                    out.push(
                        Diagnostic::warning(
                            "PM-W005",
                            format!(
                                "edge `{}` crosses the {}:→{}: domain boundary but \
                                 both endpoints compile to `{pt}`; Algorithm 2 will \
                                 not insert a marshaling load/store pair",
                                edge.meta.name,
                                pd.keyword(),
                                cd.keyword()
                            ),
                        )
                        .at(edge.meta.span)
                        .with_note(
                            "data crossing a domain boundary inside one accelerator \
                             bypasses DMA marshaling; verify the layout contract",
                        ),
                    );
                    break; // one report per edge is enough
                }
            }
        }
    });
}

fn is_marshalling(kind: &NodeKind) -> bool {
    matches!(kind, NodeKind::Load | NodeKind::Store | NodeKind::Pack | NodeKind::Unpack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{build, build_program, host_targets};
    use pm_lower::AcceleratorSpec;
    use pmlang::Domain;

    fn race(source: &str) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        reduction_race(&build(source), &mut out);
        out
    }

    fn marshal(source: &str, targets: &TargetMap) -> Vec<Diagnostic> {
        let mut graph = build(source);
        pm_lower::stamp_overrides(&mut graph, targets);
        let mut out = Vec::new();
        cross_domain_marshal(&graph, targets, &mut out);
        out
    }

    #[test]
    fn clean_program_has_consistent_edges() {
        let (program, graph) = build_program(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 y[i] = x[i] * 2.0;
             }",
        );
        let diags = crate::lint(&program, &graph, &host_targets());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn non_injective_write_is_a_race() {
        let diags = race(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 y[i % 2] = x[i];
             }",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "PM-W004");
        assert!(diags[0].message.contains("2 iteration points"), "{}", diags[0].message);
        assert!(!diags[0].span.unwrap().is_synthetic());
    }

    #[test]
    fn injective_writes_are_quiet() {
        let diags = race(
            "main(input float x[4], output float y[8]) {
                 index i[0:3];
                 y[2 * i] = x[i];
             }",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn non_associative_custom_reduction_is_flagged() {
        let diags = race(
            "reduction diff(a, b) = a - b;
             main(input float x[4], output float y) {
                 index i[0:3];
                 y = diff[i](x[i]);
             }",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`diff`"), "{}", diags[0].message);
        assert!(diags[0].notes.iter().any(|n| n.contains("not commutative")), "{diags:?}");
        assert!(diags[0].notes.iter().any(|n| n.contains("not associative")), "{diags:?}");
    }

    #[test]
    fn associative_custom_reduction_is_quiet() {
        let diags = race(
            "reduction smax(a, b) = a > b ? a : b;
             main(input float x[4], output float y) {
                 index i[0:3];
                 y = smax[i](x[i]);
             }",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn shared_target_domain_crossing_is_flagged() {
        // Both DSP and DA resolve to the same accelerator: the DSP→DA edge
        // gets no load/store pair from Algorithm 2.
        let mut targets =
            TargetMap::host_only(AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics));
        targets.set(AcceleratorSpec::new("SHARED", Domain::Dsp, ["matvec", "dot", "sum"]));
        let mut shared_da = AcceleratorSpec::new("SHARED", Domain::DataAnalytics, ["sum", "dot"]);
        shared_da.supports_all = true;
        targets.set(shared_da);
        let diags = marshal(
            "f(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i] * 0.5; }
             g(input float x[4], output float y) { index i[0:3]; y = sum[i](x[i]); }
             main(input float a[4], output float b) {
                 float t[4];
                 DSP: f(a, t);
                 DA: g(t, b);
             }",
            &targets,
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "PM-W005");
        assert!(diags[0].message.contains("SHARED"), "{}", diags[0].message);
    }

    #[test]
    fn distinct_targets_get_their_dma_pair_quietly() {
        let mut targets =
            TargetMap::host_only(AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics));
        targets.set(AcceleratorSpec::new("DECOISH", Domain::Dsp, ["mul"]));
        targets.set(AcceleratorSpec::new("TABLAISH", Domain::DataAnalytics, ["sum"]));
        let diags = marshal(
            "f(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i] * 0.5; }
             g(input float x[4], output float y) { index i[0:3]; y = sum[i](x[i]); }
             main(input float a[4], output float b) {
                 float t[4];
                 DSP: f(a, t);
                 DA: g(t, b);
             }",
            &targets,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn overrides_onto_one_target_draw_the_crossing_warning() {
        // Two components of different domains, each pinned onto the same
        // non-host accelerator: no domain default names `SHARED`, only the
        // stamped overrides do.
        let shared = |domain| AcceleratorSpec::general_purpose("SHARED", domain);
        let mut targets = host_targets();
        targets.set_override("f", shared(Domain::Dsp));
        targets.set_override("g", shared(Domain::DataAnalytics));
        let (program, graph) = build_program(
            "f(input float x[4], output float y[4]) { index i[0:3]; y[i] = x[i] * 0.5; }
             g(input float x[4], output float y) { index i[0:3]; y = sum[i](x[i]); }
             main(input float a[4], output float b) {
                 float t[4];
                 DSP: f(a, t);
                 DA: g(t, b);
             }",
        );
        let diags = crate::lint(&program, &graph, &targets);
        let crossings: Vec<_> = diags.iter().filter(|d| d.code == "PM-W005").collect();
        assert_eq!(crossings.len(), 1, "{diags:?}");
        assert!(crossings[0].message.contains("`SHARED`"), "{}", crossings[0].message);
    }
}
