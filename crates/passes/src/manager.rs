//! The modular pass framework (paper §IV.B).
//!
//! PolyMath "implements a modular framework and set of APIs that enable
//! custom, target-independent passes over the IR. These passes take an
//! srDFG as an input and produce a transformed srDFG", composing into
//! pipelines. Passes recurse into component sub-graphs so a transformation
//! applies at every granularity level.

use srdfg::{NodeKind, SrDfg, ValidateError};
use std::fmt;
use std::time::{Duration, Instant};

/// A pass left the graph structurally invalid (caught by the verifier).
#[derive(Debug, Clone, PartialEq)]
pub struct PassVerifyError {
    /// Name of the offending pass.
    pub pass: &'static str,
    /// The structural defect it introduced.
    pub error: ValidateError,
}

impl fmt::Display for PassVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pass `{}` produced an invalid srDFG: {}", self.pass, self.error)
    }
}

impl std::error::Error for PassVerifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Statistics from one pass execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Whether the pass changed the graph.
    pub changed: bool,
    /// Number of individual rewrites applied.
    pub rewrites: usize,
}

impl PassStats {
    /// Merges another run's statistics into this one.
    pub fn merge(&mut self, other: PassStats) {
        self.changed |= other.changed;
        self.rewrites += other.rewrites;
    }
}

/// A target-independent srDFG → srDFG transformation.
pub trait Pass {
    /// The pass's diagnostic name.
    fn name(&self) -> &'static str;

    /// Transforms one graph level (no recursion); [`run`](Pass::run)
    /// handles component sub-graphs.
    fn run_on_graph(&self, graph: &mut SrDfg) -> PassStats;

    /// Runs the pass on `graph` and every nested component sub-graph.
    fn run(&self, graph: &mut SrDfg) -> PassStats {
        let mut stats = self.run_on_graph(graph);
        // Raw-slot iteration instead of collecting ids: slot count never
        // grows here (component processing adds no nodes at this level).
        for slot in 0..graph.node_slots() {
            let id = srdfg::NodeId(slot as u32);
            // A rewrite at this level may have removed the slot's node.
            if !graph.is_live(id) {
                continue;
            }
            if let NodeKind::Component(_) = &graph.node(id).kind {
                // Temporarily detach the sub-graph to avoid aliasing.
                let mut sub = match &mut graph.node_mut(id).kind {
                    NodeKind::Component(sub) => std::mem::replace(sub.as_mut(), SrDfg::new("")),
                    _ => unreachable!(),
                };
                stats.merge(self.run(&mut sub));
                if let NodeKind::Component(slot) = &mut graph.node_mut(id).kind {
                    **slot = sub;
                }
            }
        }
        stats
    }
}

/// An ordered pipeline of passes (paper: "conveniently enables applying
/// pipelines of passes on the same IR").
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    /// Iterate the whole pipeline until no pass changes the graph.
    run_to_fixpoint: bool,
}

/// Safety bound on fixpoint iterations.
const MAX_FIXPOINT_ITERATIONS: usize = 10;

impl fmt::Debug for PassManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassManager")
            .field("passes", &self.passes.iter().map(|p| p.name()).collect::<Vec<_>>())
            .field("run_to_fixpoint", &self.run_to_fixpoint)
            .finish()
    }
}

impl PassManager {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        PassManager::default()
    }

    /// The standard optimization pipeline: constant folding, algebraic
    /// simplification, constant propagation, input pruning, CSE, and DCE,
    /// iterated to a fixpoint.
    pub fn standard() -> Self {
        let mut pm = PassManager::new();
        pm.add(crate::fold::ConstantFold)
            .add(crate::fold::AlgebraicSimplify)
            .add(crate::constprop::ConstantPropagation)
            .add(crate::prune::PruneUnusedInputs)
            .add(crate::cse::CommonSubexpressionElimination)
            .add(crate::dce::DeadNodeElimination);
        pm.run_to_fixpoint = true;
        pm
    }

    /// A pipeline for a numeric optimization level: `0` is the empty
    /// pipeline (interpret the graph as built), `1` a single sweep of the
    /// cheap local rewrites (folding, simplification, propagation, input
    /// pruning — no CSE/DCE, no fixpoint), and `2`+ the full
    /// [`standard`](PassManager::standard) fixpoint pipeline.
    pub fn at_opt_level(level: u8) -> Self {
        match level {
            0 => PassManager::new(),
            1 => {
                let mut pm = PassManager::new();
                pm.add(crate::fold::ConstantFold)
                    .add(crate::fold::AlgebraicSimplify)
                    .add(crate::constprop::ConstantPropagation)
                    .add(crate::prune::PruneUnusedInputs);
                pm
            }
            _ => PassManager::standard(),
        }
    }

    /// Appends a pass to the pipeline.
    pub fn add(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Runs the pipeline on `graph`, returning per-pass cumulative stats.
    ///
    /// In debug builds this verifies the graph after every pass (see
    /// [`run_checked`](PassManager::run_checked)) and panics naming the
    /// offending pass; release builds skip the verifier for speed.
    pub fn run(&self, graph: &mut SrDfg) -> Vec<(&'static str, PassStats)> {
        self.run_timed(graph).into_iter().map(|t| (t.pass, t.stats)).collect()
    }

    /// Like [`run`](PassManager::run), additionally reporting per-pass
    /// wall time (cumulative across fixpoint iterations).
    pub fn run_timed(&self, graph: &mut SrDfg) -> Vec<PassTiming> {
        self.run_inner(graph, cfg!(debug_assertions)).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the pipeline with the pass verifier always on: after each pass,
    /// `srdfg::validate` re-checks every graph invariant, each node's
    /// shape/dtype rule included, and the first violation is reported with
    /// the name of the pass that introduced it.
    ///
    /// # Errors
    ///
    /// Returns a [`PassVerifyError`] naming the offending pass. The graph is
    /// left in its (invalid) post-pass state for inspection.
    pub fn run_checked(
        &self,
        graph: &mut SrDfg,
    ) -> Result<Vec<(&'static str, PassStats)>, PassVerifyError> {
        self.run_inner(graph, true)
            .map(|totals| totals.into_iter().map(|t| (t.pass, t.stats)).collect())
    }

    fn run_inner(
        &self,
        graph: &mut SrDfg,
        verify: bool,
    ) -> Result<Vec<PassTiming>, PassVerifyError> {
        let mut totals: Vec<PassTiming> = self
            .passes
            .iter()
            .map(|p| PassTiming {
                pass: p.name(),
                stats: PassStats::default(),
                duration: Duration::ZERO,
            })
            .collect();
        // Pass-level dirty bits: a pass is *clean* once it has run with no
        // graph change since. Fixpoint iteration re-runs only dirty passes;
        // when a pass changes the graph, every pass (itself included) is
        // re-dirtied, so convergence matches the plain run-everything
        // fixpoint while already-converged passes are skipped.
        let mut dirty = vec![true; self.passes.len()];
        for _ in 0..MAX_FIXPOINT_ITERATIONS {
            let mut any = false;
            for (i, pass) in self.passes.iter().enumerate() {
                if !dirty[i] {
                    continue;
                }
                let t0 = Instant::now();
                let stats = pass.run(graph);
                totals[i].duration += t0.elapsed();
                totals[i].stats.merge(stats);
                dirty[i] = false;
                if stats.changed {
                    any = true;
                    for d in dirty.iter_mut() {
                        *d = true;
                    }
                    if verify {
                        srdfg::validate(graph)
                            .map_err(|error| PassVerifyError { pass: pass.name(), error })?;
                    }
                }
            }
            if !self.run_to_fixpoint || !any {
                break;
            }
        }
        Ok(totals)
    }
}

/// One pipeline entry's cumulative result from a timed run.
#[derive(Debug, Clone, Copy)]
pub struct PassTiming {
    /// Pass name.
    pub pass: &'static str,
    /// Cumulative stats across fixpoint iterations.
    pub stats: PassStats,
    /// Cumulative wall time across fixpoint iterations.
    pub duration: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingPass;
    impl Pass for CountingPass {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn run_on_graph(&self, _graph: &mut SrDfg) -> PassStats {
            PassStats { changed: false, rewrites: 1 }
        }
    }

    #[test]
    fn pipeline_runs_all_passes() {
        let mut pm = PassManager::new();
        pm.add(CountingPass).add(CountingPass);
        let mut g = SrDfg::new("t");
        let stats = pm.run(&mut g);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].1.rewrites, 1);
    }

    #[test]
    fn recurses_into_components() {
        use srdfg::{EdgeMeta, Modifier};
        struct MarkAll;
        impl Pass for MarkAll {
            fn name(&self) -> &'static str {
                "mark"
            }
            fn run_on_graph(&self, graph: &mut SrDfg) -> PassStats {
                PassStats { changed: false, rewrites: graph.node_count() }
            }
        }
        // Outer graph with one component node wrapping one inner node.
        let mut inner = SrDfg::new("inner");
        let ie = inner.add_edge(EdgeMeta::new("x", pmlang::DType::Float, Modifier::Temp, vec![]));
        let oe = inner.add_edge(EdgeMeta::new("y", pmlang::DType::Float, Modifier::Temp, vec![]));
        inner.boundary_inputs.push(ie);
        inner.boundary_outputs.push(oe);
        inner.add_node(
            "neg",
            NodeKind::scalar(srdfg::ScalarKind::Un(pmlang::UnOp::Neg)),
            None,
            vec![ie],
            vec![oe],
        );
        let mut outer = SrDfg::new("outer");
        let a = outer.add_edge(EdgeMeta::new("a", pmlang::DType::Float, Modifier::Input, vec![]));
        let b = outer.add_edge(EdgeMeta::new("b", pmlang::DType::Float, Modifier::Output, vec![]));
        outer.boundary_inputs.push(a);
        outer.boundary_outputs.push(b);
        outer.add_node("inner", NodeKind::Component(Box::new(inner)), None, vec![a], vec![b]);

        let stats = MarkAll.run(&mut outer);
        assert_eq!(stats.rewrites, 2, "outer component node + inner scalar node");
    }

    #[test]
    fn verifier_names_corrupting_pass() {
        use srdfg::{EdgeMeta, Modifier};
        /// Deliberately severs a consumer back-link, leaving the graph
        /// structurally invalid.
        struct CorruptingPass;
        impl Pass for CorruptingPass {
            fn name(&self) -> &'static str {
                "corruptor"
            }
            fn run_on_graph(&self, graph: &mut SrDfg) -> PassStats {
                let edges: Vec<_> = graph.edge_ids().collect();
                for e in edges {
                    if !graph.edge(e).consumers.is_empty() {
                        graph.consumers_mut(e).clear();
                        return PassStats { changed: true, rewrites: 1 };
                    }
                }
                PassStats::default()
            }
        }
        let mut g = SrDfg::new("t");
        let a = g.add_edge(EdgeMeta::new("a", pmlang::DType::Float, Modifier::Input, vec![]));
        let b = g.add_edge(EdgeMeta::new("b", pmlang::DType::Float, Modifier::Output, vec![]));
        g.boundary_inputs.push(a);
        g.boundary_outputs.push(b);
        g.add_node(
            "neg",
            NodeKind::scalar(srdfg::ScalarKind::Un(pmlang::UnOp::Neg)),
            None,
            vec![a],
            vec![b],
        );

        let mut pm = PassManager::new();
        pm.add(CountingPass).add(CorruptingPass);
        let err = pm.run_checked(&mut g).unwrap_err();
        assert_eq!(err.pass, "corruptor");
        assert!(err.to_string().contains("corruptor"), "{err}");
    }

    #[test]
    fn verifier_names_metadata_corrupting_pass() {
        use srdfg::{EdgeMeta, Modifier};
        /// Leaves every back-link, arity and edge intact but rewrites a
        /// map's write target in place, so its output edge's claimed shape
        /// no longer matches what the node writes.
        struct ShapeCorruptor;
        impl Pass for ShapeCorruptor {
            fn name(&self) -> &'static str {
                "shape-corruptor"
            }
            fn run_on_graph(&self, graph: &mut SrDfg) -> PassStats {
                let ids: Vec<_> = graph.node_ids().collect();
                for id in ids {
                    if let NodeKind::Map(m) = &mut graph.node_mut(id).kind {
                        let mut spec = (**m).clone();
                        spec.write.target_shape = vec![99];
                        *m = spec.into();
                        return PassStats { changed: true, rewrites: 1 };
                    }
                }
                PassStats::default()
            }
        }
        let mut g = SrDfg::new("t");
        let a = g.add_edge(EdgeMeta::new("a", pmlang::DType::Float, Modifier::Input, vec![4]));
        let b = g.add_edge(EdgeMeta::new("b", pmlang::DType::Float, Modifier::Output, vec![4]));
        g.boundary_inputs.push(a);
        g.boundary_outputs.push(b);
        g.add_node(
            "copy",
            NodeKind::map(srdfg::MapSpec {
                out_space: vec![srdfg::IndexRange { name: "i".into(), lo: 0, hi: 3 }],
                kernel: srdfg::KExpr::Operand { slot: 0, indices: vec![srdfg::KExpr::Idx(0)] },
                write: srdfg::WriteSpec::identity(&[4]),
            }),
            None,
            [a],
            [b],
        );

        let mut pm = PassManager::new();
        pm.add(ShapeCorruptor);
        let err = pm.run_checked(&mut g).unwrap_err();
        assert_eq!(err.pass, "shape-corruptor");
        assert!(err.to_string().contains("claims shape [4]"), "{err}");
    }

    #[test]
    fn fixpoint_stops_when_unchanged() {
        struct OncePass(std::cell::Cell<bool>);
        impl Pass for OncePass {
            fn name(&self) -> &'static str {
                "once"
            }
            fn run_on_graph(&self, _g: &mut SrDfg) -> PassStats {
                let first = !self.0.get();
                self.0.set(true);
                PassStats { changed: first, rewrites: usize::from(first) }
            }
        }
        let mut pm = PassManager::new();
        pm.add(OncePass(std::cell::Cell::new(false)));
        pm.run_to_fixpoint = true;
        let mut g = SrDfg::new("t");
        let stats = pm.run(&mut g);
        assert_eq!(stats[0].1.rewrites, 1);
    }
}
