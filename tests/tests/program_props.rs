//! Property tests over randomly generated *program structures*: multiple
//! dependent statements, mixed map/reduce kinds (built-in and custom
//! reductions), persistent `state` vectors, component wraps, and random
//! per-statement domain annotations. The generator and its direct Rust
//! evaluator live in `pm_fuzz::model` / `pm_fuzz::gen` — the same machinery
//! `pmc fuzz` drives at scale — so every program shape the fuzzer can emit
//! is also exercised here under proptest's seeded regime. The compiled
//! (optimized, lowered, partitioned) graph must agree with the model
//! evaluator within float tolerance, whatever the accelerator assignment.

use pm_fuzz::{gen::strategies, EvalStep, PProgram};
use pm_lower::{CompiledProgram, FragmentKind};
use polymath::{Compiler, PolyMathError};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use srdfg::{Bindings, Budget, Machine, Tensor};
use std::collections::HashMap;

/// A full differential case: a program plus inputs sized to its `n`.
type Case = (PProgram, Vec<f64>, Vec<f64>, Vec<f64>);

fn case_strategy() -> BoxedStrategy<Case> {
    BoxedStrategy::from_fn(|rng| {
        let program = pm_fuzz::gen_program(rng);
        let xs = pm_fuzz::gen_inputs(rng, program.n);
        let ys = pm_fuzz::gen_inputs(rng, program.n);
        let z0 = pm_fuzz::gen_inputs(rng, program.n);
        (program, xs, ys, z0)
    })
}

fn feeds(n: usize, x: &[f64], y: &[f64]) -> HashMap<String, Tensor> {
    HashMap::from([
        ("x".to_string(), Tensor::from_vec(pmlang::DType::Float, vec![n], x.to_vec()).unwrap()),
        ("y".to_string(), Tensor::from_vec(pmlang::DType::Float, vec![n], y.to_vec()).unwrap()),
    ])
}

/// Relative-ish tolerance: optimization passes may legally reassociate.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

/// The model-evaluator trajectory (one step per invocation; `state`
/// programs run three), or `None` when any step is numerically unstable —
/// those cases are skipped rather than compared against noise.
fn trajectory(program: &PProgram, xs: &[f64], ys: &[f64], z0: &[f64]) -> Option<Vec<EvalStep>> {
    let mut steps = Vec::new();
    let mut z = program.has_state().then(|| z0.to_vec());
    for _ in 0..program.invocations() {
        let step = program.eval(xs, ys, z.as_deref());
        if !step.stable {
            return None;
        }
        z = step.state_next.clone();
        steps.push(step);
    }
    Some(steps)
}

/// The cross-domain pipeline with the cross-granularity
/// algebraic-combination pass run after the mid-end: the graph
/// `Compiler::build_graph` returns, fused, then lowered and compiled.
fn compile_fused(src: &str) -> Result<CompiledProgram, PolyMathError> {
    let compiler = Compiler::cross_domain();
    let mut graph = compiler.build_graph(src, &Bindings::default())?;
    pm_passes::Pass::run(&pm_passes::AlgebraicCombination, &mut graph);
    let cache = compiler.template_cache();
    let budget = Budget::unlimited();
    Ok(pm_passes::lower_and_compile(graph, compiler.targets(), Some(&cache), &budget)?.0)
}

/// Compiles with `compile`, executes every invocation, and checks each
/// defined value (and the persisted state) against the model.
fn run_and_check(
    compile: impl FnOnce(&str) -> Result<CompiledProgram, PolyMathError>,
    program: &PProgram,
    xs: &[f64],
    ys: &[f64],
    z0: &[f64],
) -> Result<(), TestCaseError> {
    let Some(steps) = trajectory(program, xs, ys, z0) else {
        return Ok(()); // unstable: nothing meaningful to compare
    };
    let src = program.to_pmlang();
    let compiled = compile(&src).map_err(|e| TestCaseError::fail(format!("{e}\n{src}")))?;
    let mut machine = Machine::new((*compiled.graph).clone());
    if program.has_state() {
        machine.set_state(
            "z",
            Tensor::from_vec(pmlang::DType::Float, vec![program.n], z0.to_vec()).unwrap(),
        );
    }
    let feeds = feeds(program.n, xs, ys);
    for (k, step) in steps.iter().enumerate() {
        let out = machine
            .invoke(&feeds)
            .map_err(|e| TestCaseError::fail(format!("invocation {k}: {e}\n{src}")))?;
        for (j, expect) in step.vecs.iter().enumerate() {
            let got = out[&format!("t{j}")].as_real_slice().unwrap();
            for (i, (g, e)) in got.iter().zip(expect).enumerate() {
                prop_assert!(close(*g, *e), "invocation {k}: t{j}[{i}]: {g} vs {e}\n{src}");
            }
        }
        for (j, expect) in step.scalars.iter().enumerate() {
            let got = out[&format!("s{j}")].scalar_value().unwrap();
            prop_assert!(close(got, *expect), "invocation {k}: s{j}: {got} vs {expect}\n{src}");
        }
        if let Some(expect) = &step.state_next {
            let got = machine.state("z").and_then(|t| t.as_real_slice()).unwrap();
            for (i, (g, e)) in got.iter().zip(expect).enumerate() {
                prop_assert!(close(*g, *e), "invocation {k}: state z[{i}]: {g} vs {e}\n{src}");
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random program structures compile host-only (optimized) and match
    /// the model evaluator on every defined value across invocations.
    #[test]
    fn random_programs_evaluate_correctly(
        (program, xs, ys, z0) in case_strategy(),
    ) {
        let host = |src: &str| Compiler::host_only().compile(src, &Bindings::default());
        run_and_check(host, &program, &xs, &ys, &z0)?;
    }

    /// The same programs, with their random statement-level domain
    /// annotations honoured by the full cross-domain pipeline (lowering to
    /// TABLA/DECO/RoboX granularities + marshalling elision + Algorithm 2),
    /// still agree with the model evaluator.
    #[test]
    fn random_cross_domain_programs_survive_lowering(
        (program, xs, ys, z0) in case_strategy(),
    ) {
        let cross = |src: &str| Compiler::cross_domain().compile(src, &Bindings::default());
        run_and_check(cross, &program, &xs, &ys, &z0)?;
    }

    /// The optional cross-granularity algebraic-combination pass
    /// (`compile_fused`) must also preserve semantics on random program
    /// structures.
    #[test]
    fn random_programs_survive_algebraic_combination(
        (program, xs, ys, z0) in case_strategy(),
    ) {
        run_and_check(compile_fused, &program, &xs, &ys, &z0)?;
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
