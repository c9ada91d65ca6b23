//! # pm-analyze — diagnostics and static verification for the PolyMath stack
//!
//! One crate answers "is anything wrong with this program?" at every
//! layer, in one type: a [`Diagnostic`] carries a stable machine-readable
//! code, a severity class, a PMLang source [`Span`](pmlang::Span), and
//! supplementary notes, and renders as a rustc-style caret block or as
//! JSON. The span provenance threaded through `srdfg::build`/
//! `srdfg::expand` means graph-level findings still point into the
//! original source line.
//!
//! ## Checks
//!
//! | code | name | severity | checks |
//! |------|------|----------|--------|
//! | `PM-W001` | `unused-decl` | warning | `input`/`param`/`state` declarations never referenced |
//! | `PM-N002` | `state-read-before-write` | note | state read before its first write (carried value) |
//! | `PM-W004` | `reduction-race` | warning | non-injective indexed writes; non-associative custom reductions |
//! | `PM-W005` | `cross-domain-marshal` | warning | domain crossings Algorithm 2 won't wrap in a load/store pair |
//! | `PM-W006` | `lowering-feasibility` | warning | `pm_lower::lower` fails for the target map |
//! | `PM-E102` | `analyze-bounds` | error | operand accesses interval analysis proves out of bounds |
//! | `PM-W103` | `analyze-arith-range` | warning | possible out-of-bounds, division by zero, or overflow |
//! | `PM-E104` | `analyze-uninitialized` | error | values consumed but never produced |
//! | `PM-W105` | `analyze-stale-state` | warning | state read but never updated across invocations |
//! | `PM-W111` | `dma-war` | warning | unordered DMA read/write of one host buffer |
//!
//! ## Entry points
//!
//! * [`lint`] / [`lint_source`] (`pmc lint`) — the first nine rows: the AST
//!   checks, the pattern checks over the unoptimized graph,
//!   [`analyze_graph`] once, and lowering feasibility, which *is*
//!   `pm_lower::lower` on a scratch clone.
//! * [`analyze_graph`] — **the graph analyses**. The srDFG is a DAG, so
//!   [`interval`] propagates value ranges in one sweep over
//!   [`SrDfg::try_topo_order`] (that sweep is the fixpoint) and proves
//!   index-variable accesses in-bounds, flagging possible division by zero
//!   and index-arithmetic overflow on the way (`PM-E102`, `PM-W103`), and
//!   [`init`] scans for reads of values that are never produced and
//!   `state` buffers that are never updated (`PM-E104`, `PM-W105`).
//! * [`analyze_schedule`] — **the DMA race lint**: [`hazard`] reads the
//!   per-target fragment plan Algorithm 2 emits and warns where a
//!   partition reads a circulated `state` buffer with no dependency path
//!   to or from its one writer on another partition (`PM-W111`). The
//!   plan's own invariants (every crossing marshalled, one writer per
//!   value, no deadlock) are checked where it is built, by
//!   `pm_lower::check_schedule`.
//! * [`certify_bounds`] states the soundness contract the fuzzer
//!   cross-checks: a program this crate certifies in-bounds must never
//!   trap in the srDFG interpreter. It is `srdfg::validate` plus the
//!   [`interval`] kernel walk behind `PM-E102`/`PM-W103`, read strictly:
//!   anything the walk could not prove is a refusal.
//!
//! Every entry point that returns diagnostics returns them through
//! [`finish`]: sorted by source position, deduplicated.
//!
//! ```
//! use pm_lower::{AcceleratorSpec, TargetMap};
//!
//! let targets =
//!     TargetMap::host_only(AcceleratorSpec::general_purpose("CPU", pmlang::Domain::DataAnalytics));
//! let diags = pm_analyze::lint_source(
//!     "main(input float x[4], param float dead, output float y[4]) {
//!          index i[0:3];
//!          y[i % 2] = x[i];
//!      }",
//!     &srdfg::Bindings::default(),
//!     &targets,
//! )
//! .unwrap();
//! let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
//! assert_eq!(codes, ["PM-W001", "PM-W004"]);
//! assert!(diags[0].render("…", "demo.pm").starts_with("warning[PM-W001]: param `dead`"));
//! ```

#![warn(missing_docs)]

mod ast_lints;
mod diagnostic;
mod feasibility;
mod graph_lints;
pub mod hazard;
pub mod init;
pub mod interval;

pub use diagnostic::{render_json, render_text, Diagnostic, Severity};
pub use hazard::analyze_schedule;
pub use interval::certify_bounds;

use pm_lower::TargetMap;
use pmlang::{Domain, Program};
use srdfg::{NodeKind, SrDfg};
use std::fmt;

/// Stable codes of the analysis engines, one per defect class.
pub mod codes {
    /// An operand access is provably out of bounds at every evaluation.
    pub const OUT_OF_BOUNDS: &str = "PM-E102";
    /// An access may go out of bounds, a divisor range includes zero, or
    /// index arithmetic may overflow.
    pub const ARITH_RANGE: &str = "PM-W103";
    /// A consumed value is never produced (the interpreter would trap).
    pub const UNINITIALIZED: &str = "PM-E104";
    /// A `state` buffer is read but never updated across invocations.
    pub const STALE_STATE: &str = "PM-W105";
    /// Unordered DMA read/write of the same host buffer (WAR).
    pub const DMA_WAR: &str = "PM-W111";
}

/// Visits `graph` and every nested component sub-graph, root first,
/// passing the effective domain at each level (a sub-graph inherits its
/// instantiating node's domain when it has none of its own).
pub(crate) fn for_each_graph<'g>(
    graph: &'g SrDfg,
    inherited: Option<Domain>,
    f: &mut impl FnMut(&'g SrDfg, Option<Domain>),
) {
    let eff = graph.domain.or(inherited);
    f(graph, eff);
    for (_, node) in graph.iter_nodes() {
        if let NodeKind::Component(sub) = &node.kind {
            for_each_graph(sub, node.domain.or(eff), f);
        }
    }
}

/// Runs every graph-level engine (intervals, initialization)
/// over `graph` and all nested component sub-graphs, returning the
/// diagnostics through [`finish`].
pub fn analyze_graph(graph: &SrDfg) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for_each_graph(graph, None, &mut |g, _| {
        interval::check_graph(g, &mut out);
        // The runtime circulates state through the root's boundary only.
        init::check_graph(g, std::ptr::eq(g, graph), &mut out);
    });
    finish(out)
}

/// Everything `pmc lint` reports: the AST checks over `program`, the
/// pattern checks and [`analyze_graph`] over `graph` (built from
/// `program` *without* optimization passes, so every node still
/// corresponds to a statement the user wrote), and whether `graph` lowers
/// for `targets` — returned through [`finish`].
pub fn lint(program: &Program, graph: &SrDfg, targets: &TargetMap) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    ast_lints::unused_decl(program, &mut out);
    ast_lints::state_read_before_write(program, &mut out);
    graph_lints::reduction_race(graph, &mut out);
    out.extend(analyze_graph(graph));
    // The target-dependent checks see the graph the way lowering will:
    // with per-component overrides stamped onto the nodes they pin.
    let mut scratch = graph.clone();
    pm_lower::stamp_overrides(&mut scratch, targets);
    graph_lints::cross_domain_marshal(&scratch, targets, &mut out);
    feasibility::lowering_feasibility(scratch, targets, &mut out);
    finish(out)
}

/// An error in the frontend/build pipeline that feeds [`lint_source`].
#[derive(Debug, Clone, PartialEq)]
pub enum LintPipelineError {
    /// Lexing, parsing, or semantic analysis failed.
    Frontend(pmlang::FrontendError),
    /// srDFG generation failed.
    Build(srdfg::BuildError),
}

impl fmt::Display for LintPipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintPipelineError::Frontend(e) => e.fmt(f),
            LintPipelineError::Build(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for LintPipelineError {}

/// Front door: runs the frontend and srDFG generation on `source`, then
/// [`lint`] against `targets`.
///
/// # Errors
///
/// Returns [`LintPipelineError`] when the program does not parse, check,
/// or build — the checks only run on well-formed programs (build errors
/// carry their own spans through `pmlang`'s error types).
pub fn lint_source(
    source: &str,
    bindings: &srdfg::Bindings,
    targets: &TargetMap,
) -> Result<Vec<Diagnostic>, LintPipelineError> {
    let (program, _) = pmlang::frontend(source).map_err(LintPipelineError::Frontend)?;
    let graph = srdfg::build(&program, bindings).map_err(LintPipelineError::Build)?;
    Ok(lint(&program, &graph, targets))
}

/// Deduplicates and orders diagnostics: by source position (spanless
/// last), most severe first, then code. A defect inside a component
/// instantiated twice is one diagnostic, not two.
pub fn finish(mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags.sort_by(|a, b| {
        let ka = a.span.map_or((usize::MAX, 0), |s| (s.start, s.end));
        let kb = b.span.map_or((usize::MAX, 0), |s| (s.start, s.end));
        ka.cmp(&kb).then(b.severity.cmp(&a.severity)).then(a.code.cmp(b.code))
    });
    diags.dedup_by(|a, b| a.code == b.code && a.message == b.message && a.span == b.span);
    diags
}

/// True if any diagnostic is error-severity.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
pub(crate) mod test_util {
    use pm_lower::{AcceleratorSpec, TargetMap};
    use pmlang::{Domain, Program};
    use srdfg::SrDfg;

    /// Host-only target map for checks that do not care about targets.
    pub fn host_targets() -> TargetMap {
        TargetMap::host_only(AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics))
    }

    /// Frontend + build (no optimization), panicking on bad test input.
    pub fn build_program(source: &str) -> (Program, SrDfg) {
        let (program, _) = pmlang::frontend(source).expect("test source must check");
        let graph =
            srdfg::build(&program, &srdfg::Bindings::default()).expect("test source must build");
        (program, graph)
    }

    /// [`build_program`] for tests that only look at the graph.
    pub fn build(source: &str) -> SrDfg {
        build_program(source).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::host_targets;

    #[test]
    fn clean_program_has_no_findings() {
        let g = test_util::build(
            "main(input float x[4], output float y[4]) {
                 index i[0:3];
                 y[i] = x[i] * 2.0;
             }",
        );
        let findings = analyze_graph(&g);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn analyses_terminate_on_a_cyclic_graph() {
        // Two nodes consuming each other's outputs, and one node consuming
        // its own: `validate` rejects both graphs, and neither entry point
        // may spin or panic on them.
        use srdfg::graph::{EdgeMeta, Modifier, ScalarKind};
        let meta = |name| EdgeMeta::new(name, pmlang::DType::Float, Modifier::Temp, vec![]);
        let neg = || NodeKind::scalar(ScalarKind::Un(pmlang::UnOp::Neg));
        let mut g = SrDfg::new("cyclic");
        let (e1, e2) = (g.add_edge(meta("e1")), g.add_edge(meta("e2")));
        g.add_node("a", neg(), None, [e2], [e1]);
        g.add_node("b", neg(), None, [e1], [e2]);
        let mut own = SrDfg::new("self");
        let e = own.add_edge(meta("e"));
        own.add_node("a", neg(), None, [e], [e]);
        for g in [g, own] {
            analyze_graph(&g);
            let err = certify_bounds(&g).unwrap_err();
            assert!(err.contains("cycle"), "{err}");
        }
    }

    #[test]
    fn findings_sort_errors_first_at_same_span() {
        let span = pmlang::Span::new(3, 7, 1, 4);
        let fs = finish(vec![
            Diagnostic::warning(codes::ARITH_RANGE, "b").at(span),
            Diagnostic::error(codes::OUT_OF_BOUNDS, "a").at(span),
        ]);
        assert_eq!(fs[0].severity, Severity::Error);
    }

    #[test]
    fn finish_dedupes_identical_findings() {
        let f = Diagnostic::error(codes::UNINITIALIZED, "same");
        assert_eq!(finish(vec![f.clone(), f]).len(), 1);
    }

    #[test]
    fn lint_source_sorts_by_span_position() {
        let diags = lint_source(
            "main(input float x[4], param float dead, state float s, output float y[4]) {
                 index i[0:3];
                 s = s + x[0];
                 y[i % 2] = x[i];
             }",
            &srdfg::Bindings::default(),
            &host_targets(),
        )
        .unwrap();
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        // Two decl warnings (line 1), the state note (line 3), the race
        // warning (line 4) — in source order.
        assert_eq!(codes, vec!["PM-W001", "PM-N002", "PM-W004"], "{diags:?}");
        let starts: Vec<usize> = diags.iter().map(|d| d.span.expect("all spanned").start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn lint_source_reports_frontend_errors() {
        let err =
            lint_source("not a program", &srdfg::Bindings::default(), &host_targets()).unwrap_err();
        assert!(matches!(err, LintPipelineError::Frontend(_)), "{err}");
    }

    #[test]
    fn defect_in_a_component_instantiated_twice_is_reported_once() {
        let diags = lint_source(
            "fold(input float x[4], output float y[2]) { index i[0:3]; y[i % 2] = x[i]; }
             main(input float a[4], input float b[4], output float p[2], output float q[2]) {
                 fold(a, p);
                 fold(b, q);
             }",
            &srdfg::Bindings::default(),
            &host_targets(),
        )
        .unwrap();
        let races = diags.iter().filter(|d| d.code == "PM-W004").count();
        assert_eq!(races, 1, "{diags:?}");
    }
}
