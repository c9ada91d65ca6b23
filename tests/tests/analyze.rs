//! Integration tests for the static analyzer: every checked-in
//! reproducer under `tests/corpus/analyze/` triggers exactly the lint
//! code its filename names, the analyzer reports zero error-severity
//! findings across the shipped examples and differential-fuzz corpus
//! (false errors on valid programs are analyzer bugs), `lint` carries the
//! graph engines' diagnostics unchanged, and certification
//! is sound under proptest — a program `certify_bounds` accepts never
//! traps in the srDFG interpreter.

use polymath::Compiler;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use srdfg::{Bindings, Machine, Tensor};
use std::collections::HashMap;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Mirrors `pmc analyze`: abstract interpretation on the unoptimized
/// graph, plus schedule hazards when cross-domain compilation succeeds.
fn analyze_source(src: &str) -> Vec<pm_analyze::Diagnostic> {
    let (program, _) = pmlang::frontend(src).expect("frontend");
    let graph = srdfg::build(&program, &Bindings::default()).expect("build");
    let mut findings = pm_analyze::analyze_graph(&graph);
    let compiler = Compiler::cross_domain();
    if let Ok(compiled) = compiler.compile(src, &Bindings::default()) {
        findings.extend(pm_analyze::analyze_schedule(&compiled, compiler.targets()));
    }
    pm_analyze::finish(findings)
}

fn pm_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "pm"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_analyzer_reproducer_triggers_the_code_it_names() {
    let dir = repo_root().join("tests/corpus/analyze");
    let files = pm_files(&dir);
    assert!(!files.is_empty(), "analyzer corpus at {} is empty", dir.display());
    for path in files {
        // `pm-e102-out-of-bounds.pm` names `PM-E102`.
        let stem = path.file_stem().unwrap().to_str().unwrap();
        let code = stem.splitn(3, '-').take(2).collect::<Vec<_>>().join("-").to_uppercase();
        let src = std::fs::read_to_string(&path).unwrap();
        let findings = analyze_source(&src);
        assert!(
            findings.iter().any(|f| f.code == code),
            "{} does not trigger {code}; findings: {findings:?}",
            path.display()
        );
    }
}

#[test]
fn analyzer_reports_no_errors_on_shipped_programs() {
    // Examples and differential-fuzz reproducers are valid programs: an
    // error-severity finding on any of them is an analyzer false
    // positive. (Warnings are fine — hazard_demo.pm exists to warn.)
    let mut files = pm_files(&repo_root().join("examples/pm"));
    files.extend(pm_files(&repo_root().join("tests/corpus")));
    let mut errors = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path).unwrap();
        for f in analyze_source(&src) {
            if f.severity == pm_analyze::Severity::Error {
                errors.push(format!("{}: {f}", path.display()));
            }
        }
    }
    assert!(errors.is_empty(), "analyzer false positives:\n{}", errors.join("\n"));
}

#[test]
fn lint_carries_exactly_what_analyze_graph_reports() {
    // `lint` runs `analyze_graph` once and merges its four codes with the
    // other checks' diagnostics: nothing added, dropped, or reordered.
    const GRAPH_CODES: [&str; 4] = ["PM-E102", "PM-W103", "PM-E104", "PM-W105"];
    let mut files = pm_files(&repo_root().join("tests/corpus/analyze"));
    files.extend(pm_files(&repo_root().join("examples/pm")));
    let compiler = Compiler::cross_domain();
    let mut seen = 0;
    for path in &files {
        let src = std::fs::read_to_string(path).unwrap();
        let (program, _) = pmlang::frontend(&src).expect("frontend");
        let graph = srdfg::build(&program, &Bindings::default()).expect("build");
        let analyzed = pm_analyze::analyze_graph(&graph);
        assert!(analyzed.iter().all(|d| GRAPH_CODES.contains(&d.code)), "{analyzed:?}");
        let linted: Vec<_> = pm_analyze::lint(&program, &graph, compiler.targets())
            .into_iter()
            .filter(|d| GRAPH_CODES.contains(&d.code))
            .collect();
        assert_eq!(linted, analyzed, "{}", path.display());
        seen += analyzed.len();
    }
    assert!(seen > 0, "no program exercised the comparison");
}

#[test]
fn a_map_writing_between_real_and_complex_tensors_lints_and_compiles() {
    // A map's result has the declared dtype of the variable it writes: a
    // real value is promoted, a complex one where a real is expected is an
    // execution error. Neither is a metadata disagreement.
    let compiler = Compiler::cross_domain();
    for src in [
        "main(input float x[4], output complex y[4]) { index i[0:3]; y[i] = x[i] * 2.0; }",
        "main(input complex x[4], output float y[4]) { index i[0:3]; y[i] = x[i] * 2.0; }",
    ] {
        let lint = pm_analyze::lint_source(src, &Bindings::default(), compiler.targets());
        let lint = lint.unwrap_or_else(|e| panic!("{src}: {e}"));
        assert!(lint.iter().all(|d| d.severity != pm_analyze::Severity::Error), "{lint:?}");
        compiler.compile(src, &Bindings::default()).unwrap_or_else(|e| panic!("{src}: {e}"));
    }
}

/// A generated program plus inputs sized to its `n`.
type Case = (pm_fuzz::PProgram, Vec<f64>, Vec<f64>, Vec<f64>);

fn case_strategy() -> BoxedStrategy<Case> {
    BoxedStrategy::from_fn(|rng| {
        let program = pm_fuzz::gen_program(rng);
        let xs = pm_fuzz::gen_inputs(rng, program.n);
        let ys = pm_fuzz::gen_inputs(rng, program.n);
        let z0 = pm_fuzz::gen_inputs(rng, program.n);
        (program, xs, ys, z0)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The certification soundness contract: when `certify_bounds`
    /// accepts a program, the interpreter must complete every invocation
    /// without trapping, whatever the (metadata-conforming) feeds.
    #[test]
    fn certified_programs_never_trap((program, xs, ys, z0) in case_strategy()) {
        let src = program.to_pmlang();
        let (p, _) = pmlang::frontend(&src).expect("generated programs parse");
        let graph = srdfg::build(&p, &Bindings::default()).expect("generated programs build");
        if pm_analyze::certify_bounds(&graph).is_ok() {
            let n = program.n;
            let tensor = |v: &[f64]| {
                Tensor::from_vec(pmlang::DType::Float, vec![n], v.to_vec()).unwrap()
            };
            let feeds = HashMap::from([
                ("x".to_string(), tensor(&xs)),
                ("y".to_string(), tensor(&ys)),
            ]);
            let has_state = program.has_state();
            let mut machine = Machine::new(graph);
            if has_state {
                machine.set_state("z", tensor(&z0));
            }
            for k in 0..program.invocations() {
                machine.invoke(&feeds).unwrap_or_else(|e| {
                    panic!("certified program trapped at invocation {k}: {e}\n{src}")
                });
            }
        }
    }
}
