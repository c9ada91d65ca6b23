//! Property-based tests over the whole stack: randomly generated PMLang
//! expressions must (1) evaluate exactly as the model's direct Rust
//! evaluation of the same tree, through the interpreter, the optimization
//! pipeline and lowering, and (2) lower all the way to scalar granularity
//! on an accelerator that has every op they use.
//!
//! The expression generator, its evaluator and the differential check are
//! `pm_fuzz`'s — the same model and `check_case` that `pmc fuzz` runs at
//! scale — so there is exactly one definition of "what a random PMLang
//! expression means" in the workspace.

use pm_fuzz::{
    check_case, gen::strategies, CaseResult, DiffConfig, PExpr, PProgram, PStmt, RedKind,
};
use pm_lower::{AcceleratorSpec, TargetMap};
use pm_passes::lower_and_compile;
use pm_tests::vec_t;
use pmlang::Domain;
use proptest::prelude::*;
use srdfg::{Bindings, Budget, Machine, Tensor};
use std::collections::HashMap;

/// Wraps a single random expression as the model program
/// `t0[i] = <expr>; s0 = sum[i](t0[i]);` — one map, one reduction — so the
/// model evaluator provides the expected values (and the stability verdict)
/// for both.
fn expr_program(expr: PExpr, n: usize, wrap: Option<Domain>) -> PProgram {
    // `Var(2)` renders as `t0[i]` once one vector is defined (inputs x, y
    // occupy slots 0 and 1).
    PProgram {
        n,
        stmts: vec![PStmt::Map(expr, None), PStmt::Reduce(RedKind::Sum, PExpr::Var(2), None)],
        state_update: None,
        wrap,
    }
}

/// Runs `pm_fuzz::check_case` on a stateless program.
fn agrees_with_the_model(program: &PProgram, xs: &[f64], ys: &[f64]) -> Result<(), TestCaseError> {
    match check_case(program, xs, ys, &[], &DiffConfig::default()) {
        CaseResult::Fail(f) => Err(TestCaseError::fail(format!("{f}\n{}", program.to_pmlang()))),
        CaseResult::Pass | CaseResult::Unstable => Ok(()),
    }
}

/// A scalar-granularity DSP accelerator covering every op the expression
/// generator can emit, so lowering refines all the way down.
fn scalar_target() -> TargetMap {
    let host = AcceleratorSpec::general_purpose("CPU", Domain::Dsp);
    let mut t = TargetMap::host_only(host);
    t.set(AcceleratorSpec::new(
        "SCALAR",
        Domain::Dsp,
        [
            "add", "sub", "mul", "div", "neg", "not", "select", "const", "min2", "max2", "abs",
            "sigmoid", "tanh", "relu", "gaussian", "sin", "cos", "cmp.<", "cmp.<=", "cmp.>",
            "cmp.>=", "cmp.==", "cmp.!=", "unpack", "pack",
        ],
    ));
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every route — the interpreter before and after the pass pipeline
    /// and algebraic combination, and the lowered programs — equals the
    /// model's direct evaluation of the same tree (numerically unstable
    /// draws are skipped, per the model's own verdict).
    #[test]
    fn interpreter_matches_direct_eval(
        expr in strategies::expr(4),
        xs in strategies::inputs(6),
        ys in strategies::inputs(6),
    ) {
        agrees_with_the_model(&expr_program(expr, 6, None), &xs, &ys)?;
    }

    /// An expression keeps its meaning through lowering, and under a DSP
    /// annotation the compiler's back half refines it to scalar granularity
    /// on an accelerator that supports every op, leaving only supported ops
    /// and the O0 results unchanged. (`check_case` runs it unannotated: the
    /// cross-domain DSP target lacks the sigmoid family this strategy draws.)
    #[test]
    fn lowering_preserves_semantics(
        expr in strategies::expr(4),
        xs in strategies::inputs(5),
        ys in strategies::inputs(5),
    ) {
        agrees_with_the_model(&expr_program(expr.clone(), 5, None), &xs, &ys)?;
        let program = expr_program(expr, 5, Some(Domain::Dsp));
        if !program.eval(&xs, &ys, None).stable {
            return Ok(()); // numerically unstable draw: skip
        }
        let src = program.to_pmlang();
        let (prog, _) = pmlang::frontend(&src).unwrap();
        let graph = srdfg::build(&prog, &Bindings::default()).unwrap();
        let feeds = HashMap::from([("x".to_string(), vec_t(xs)), ("y".to_string(), vec_t(ys))]);
        let base = Machine::new(graph.clone()).invoke(&feeds).unwrap();

        let targets = scalar_target();
        let (compiled, _) = lower_and_compile(graph, &targets, None, &Budget::unlimited()).unwrap();
        srdfg::validate::validate(&compiled.graph).unwrap();
        prop_assert!(pm_lower::fully_lowered(&compiled.graph, &targets), "{src}");
        prop_assert!(compiled.partition(Some(Domain::Dsp)).is_some(), "{src}");

        let low = Machine::new(compiled.graph).invoke(&feeds).unwrap();
        for (k, v) in &base {
            let d = v.max_abs_diff(&low[k]).unwrap();
            let scale = 1.0 + v.as_real_slice()
                .map(|s| s.iter().fold(0.0f64, |m, x| m.max(x.abs())))
                .or_else(|| v.scalar_value().ok().map(f64::abs))
                .unwrap_or(0.0);
            prop_assert!(d <= 1e-6 * scale, "output {k} diverged by {d}\n{src}");
        }
    }

    /// Tensor element access round-trips and flat indexing is row-major.
    #[test]
    fn tensor_roundtrip(
        rows in 1usize..6,
        cols in 1usize..6,
        vals in proptest::collection::vec(-100.0..100.0f64, 36),
    ) {
        let mut t = Tensor::zeros(pmlang::DType::Float, vec![rows, cols]);
        for r in 0..rows {
            for c in 0..cols {
                t.set(&[r as i64, c as i64], srdfg::Scalar::Real(vals[r * cols + c])).unwrap();
            }
        }
        for r in 0..rows {
            for c in 0..cols {
                let got = t.get(&[r as i64, c as i64]).unwrap().as_real().unwrap();
                prop_assert_eq!(got, vals[r * cols + c]);
                prop_assert_eq!(t.flat_index(&[r as i64, c as i64]).unwrap(), r * cols + c);
            }
        }
    }

    /// Synthetic graphs always have in-range endpoints, no self loops, and
    /// deterministic regeneration.
    #[test]
    fn datagen_graph_invariants(v in 8usize..128, deg in 1usize..6, seed in 0u64..1000) {
        let g = pm_workloads::datagen::power_law_graph(v, deg, seed);
        prop_assert_eq!(g.vertices, v);
        for &(s, d, w) in &g.edges {
            prop_assert!((s as usize) < v && (d as usize) < v);
            prop_assert!(s != d, "self loop at {s}");
            prop_assert!(w >= 1.0);
        }
        let g2 = pm_workloads::datagen::power_law_graph(v, deg, seed);
        prop_assert_eq!(g.edges, g2.edges);
    }
}
