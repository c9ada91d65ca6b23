//! Property tests over randomly generated *program structures*: multiple
//! dependent statements, mixed map/reduce kinds (built-in and custom
//! reductions), persistent `state` vectors, component wraps, and random
//! per-statement domain annotations. The generator and its direct Rust
//! evaluator live in `pm_fuzz::model` / `pm_fuzz::gen` — the same machinery
//! `pmc fuzz` drives at scale — so every program shape the fuzzer can emit
//! is also exercised here under proptest's seeded regime. The differential
//! check is `pm_fuzz::check_case`, the one `pmc fuzz` runs: every route
//! (interpreted, optimized, fused, lowered and partitioned) must agree with
//! the model evaluator within float tolerance.

use pm_fuzz::{check_case, gen::strategies, CaseResult, DiffConfig};
use pm_lower::FragmentKind;
use polymath::Compiler;
use proptest::prelude::*;
use srdfg::Bindings;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random program structures match the model evaluator on every
    /// defined value across invocations, on the host-only and cross-domain
    /// pipelines (with their random statement-level domain annotations
    /// honoured) and after algebraic combination.
    #[test]
    fn random_programs_evaluate_correctly(
        (program, xs, ys, z0) in strategies::case(),
    ) {
        if let CaseResult::Fail(f) = check_case(&program, &xs, &ys, &z0, &DiffConfig::default()) {
            return Err(TestCaseError::fail(format!("{f}\n{}", program.to_pmlang())));
        }
    }

    /// The standard pipeline is idempotent: after one full run has reached
    /// its fixpoint, a second run must find nothing left to do (every
    /// pass's `changed` stays false). Guards the dirty-tracking pass
    /// manager against passes that report convergence prematurely or
    /// oscillate.
    #[test]
    fn standard_pipeline_is_idempotent(program in strategies::program()) {
        let src = program.to_pmlang();
        let (prog, _) = pmlang::frontend(&src)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{src}")))?;
        let mut graph = srdfg::build(&prog, &Bindings::default())
            .map_err(|e| TestCaseError::fail(format!("{e}\n{src}")))?;
        pm_passes::PassManager::standard().run(&mut graph);
        let second = pm_passes::PassManager::standard().run(&mut graph);
        for (name, stats) in &second {
            prop_assert!(
                !stats.changed,
                "pass `{name}` still changed the graph on the second run\n{src}"
            );
        }
    }

    /// The generator only emits well-formed programs, so the standard lint
    /// batch must never report an Error-severity diagnostic on them (notes
    /// and warnings — carried state, races the generator may synthesize —
    /// are acceptable; errors would mean the lints misread valid IR).
    #[test]
    fn random_valid_programs_lint_without_errors(program in strategies::program()) {
        let src = program.to_pmlang();
        let diags =
            pm_analyze::lint_source(&src, &Bindings::default(), Compiler::cross_domain().targets())
                .map_err(|e| TestCaseError::fail(format!("{e}\n{src}")))?;
        for d in &diags {
            prop_assert!(
                d.severity != pm_analyze::Severity::Error,
                "lint error {} on a valid program: {}\n{src}", d.code, d.message
            );
        }
    }

    /// Partitioning invariants hold for every random cross-domain program:
    /// compute fragments only name ops their target supports, and every
    /// accelerator load of an accelerator-produced value has a matching
    /// store.
    #[test]
    fn random_programs_partition_consistently(program in strategies::program()) {
        let src = program.to_pmlang();
        let compiler = Compiler::cross_domain();
        let compiled = compiler
            .compile(&src, &Bindings::default())
            .map_err(|e| TestCaseError::fail(format!("{e}\n{src}")))?;

        // Structural validity of the fully lowered graph (edge back-links,
        // live references, marshalling arity).
        srdfg::validate::validate(&compiled.graph)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{src}")))?;

        let stored: std::collections::HashSet<_> = compiled
            .partitions
            .iter()
            .flat_map(|p| p.fragments.iter())
            .filter(|f| f.kind == FragmentKind::Store)
            .map(|f| f.arg.as_ref().unwrap().edge)
            .collect();

        for p in compiled.partitions.iter() {
            for frag in &p.fragments {
                match frag.kind {
                    FragmentKind::Compute => {
                        let node = compiled.graph.node(frag.node.unwrap());
                        let spec = compiler.targets().target_for(node, compiled.graph.domain);
                        prop_assert_eq!(
                            &spec.name, &p.target,
                            "fragment `{}` landed on `{}`", node.name, p.target
                        );
                        prop_assert!(
                            spec.supports(&node.name),
                            "`{}` not in {}'s op set\n{src}", node.name, p.target
                        );
                    }
                    FragmentKind::Load => {
                        let e = frag.arg.as_ref().unwrap().edge;
                        let boundary = compiled.graph.edge(e).producer.is_none();
                        prop_assert!(
                            boundary || stored.contains(&e),
                            "{}: load without store\n{src}", p.target
                        );
                    }
                    FragmentKind::Store => {}
                }
            }
        }
    }
}
