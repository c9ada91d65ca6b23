//! Integration tests for the static analyzer: every checked-in
//! reproducer under `tests/corpus/analyze/` triggers exactly the lint
//! code its filename names, the analyzer reports zero error-severity
//! findings across the shipped examples and differential-fuzz corpus
//! (false errors on valid programs are analyzer bugs), `lint` carries the
//! graph engines' diagnostics unchanged, the analyzer's verdicts on the
//! shipped programs are the recorded ones, and certification is sound —
//! a program `certify_bounds` accepts never traps in the srDFG
//! interpreter, on the shipped programs and under proptest.

use pm_workloads::{apps, programs};
use polymath::Compiler;
use proptest::prelude::*;
use srdfg::graph::Modifier;
use srdfg::{Bindings, FxHasher, Machine, SrDfg, Tensor};
use std::collections::HashMap;
use std::hash::Hasher;
use std::path::{Path, PathBuf};

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
    let valid = files.len();
    files.extend(pm_files(&repo_root().join("tests/corpus/analyze")));
    let (mut errors, mut races) = (Vec::new(), std::collections::BTreeSet::new());
    for (i, path) in files.iter().enumerate() {
        let src = std::fs::read_to_string(path).unwrap();
        for f in analyze_source(&src) {
            if f.severity == pm_analyze::Severity::Error && i < valid {
                errors.push(format!("{}: {f}", path.display()));
            }
            if f.code == "PM-W111" {
                races.insert(format!("{} {}", f.code, path.file_name().unwrap().to_str().unwrap()));
            }
        }
    }
    assert!(errors.is_empty(), "analyzer false positives:\n{}", errors.join("\n"));
    // The DMA race lint fires on exactly the two programs written to show
    // one.
    let races: Vec<_> = races.into_iter().collect();
    assert_eq!(races, ["PM-W111 hazard_demo.pm", "PM-W111 pm-w111-war-hazard.pm"]);
}

#[test]
fn w111_counts_a_path_from_the_writer_to_the_read_as_ordering() {
    // RoboX has no `const`, so the host builds `t0` after it updates `z`,
    // and RoboX loads `t0` before `z`: a dependency path runs from the one
    // writer of `z` to the read. W111 reports only a read with no path in
    // either direction, so it reports none here.
    let src = "main(input float x[5], state float z[5], output float t0[5], output float t1[5]) {
                   index i[0:4];
                   RBT: t0[i] = (1.0 + 1.0);
                   RBT: t1[i] = ((i > 0.0 ? 1.0 : i) - min2(t0[i], z[i]));
                   z[i] = (i * z[i]);
               }";
    let compiled = Compiler::cross_domain().compile(src, &Bindings::default()).unwrap();
    let robox = compiled.partition_by_target("RoboX").expect("a RoboX partition");
    let dma: Vec<&str> =
        robox.fragments.iter().filter_map(|f| f.arg.as_ref()).map(|a| a.name()).collect();
    assert_eq!(dma[..2], ["t0", "z"], "{dma:?}");
    let races: Vec<_> = analyze_source(src).into_iter().filter(|f| f.code == "PM-W111").collect();
    assert!(races.is_empty(), "{races:?}");
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

/// `(program, certify_bounds of the built graph, certify_bounds of the
/// post-midend graph, digest of the rendered analyze_graph findings)` for
/// every benchmark program `frontend_golden.rs` lists and every `.pm` file
/// under `examples/` and `tests/corpus/`, recorded when certification
/// still ran its own strict evaluator beside the lint's.
const VERDICTS: &[(&str, bool, bool, u64)] = &[
    ("brain-256-64", false, false, 0x961306ec4c793591),
    ("option-4096-512", false, false, 0xef09083105f3c203),
    ("resnet18-224", false, false, 0x693a24577ad29ef6),
    ("mobilenet-224", false, false, 0xdef0a07ac09430d5),
    ("mpc-64", true, true, 0x235cd735a2f95334),
    ("kmeans-784x10", true, true, 0x4f09fb0e8a2174f2),
    ("lrmf-1682x16", true, true, 0xe810c60a5e09a53e),
    ("fft-1024", false, false, 0xdc6bc990d41e4450),
    ("dct-block", true, true, 0xa870621fa29209ce),
    ("logistic-64", true, true, 0xe81e92efba9e6f3e),
    ("logistic-256", true, true, 0xc82ba25a0a38f856),
    ("logistic-1024", true, true, 0x237455d737ce36b0),
    ("kmeans-16x4", true, true, 0x01f8f6bd2cbe83d4),
    ("kmeans-64x8", true, true, 0xff009fd04148d3d2),
    ("blackscholes-32", false, false, 0x4de65089d5bd2e92),
    ("blackscholes-256", false, false, 0x532e69e80f3f8aeb),
    ("logistic-700", true, true, 0x0ce8cd8def737c3f),
    ("kmeans-50x7", true, true, 0x2273dc4d97de9308),
    ("blackscholes-500", false, false, 0xfb1695d85c74751c),
    ("examples/pm/accumulator.pm", true, true, 0xfaf91953c08276b0),
    ("examples/pm/hazard_demo.pm", true, true, 0x95ff79ae0761df00),
    ("examples/pm/lint_demo.pm", true, true, 0x47f9d80e98ee570e),
    ("examples/pm/moving_average.pm", true, true, 0xb9a79b646a338a6b),
    ("examples/pm/pagerank.pm", true, true, 0x163c659974604496),
    ("tests/corpus/analyze/pm-e102-out-of-bounds.pm", false, false, 0x5a75944feb1c0f41),
    ("tests/corpus/analyze/pm-w103-possible-oob.pm", false, false, 0x1da979566c090532),
    ("tests/corpus/analyze/pm-w105-stale-state.pm", true, true, 0xf91629194c9c61d4),
    ("tests/corpus/analyze/pm-w111-war-hazard.pm", true, true, 0xca6feaa1d713f974),
    ("tests/corpus/conditioned-padding.pm", false, false, 0x38692d4bd6320e11),
    ("tests/corpus/cross-domain-annotations.pm", true, true, 0x1218604e321984b1),
    ("tests/corpus/cse-duplicate-outputs.pm", true, true, 0x94c30bbd126149a7),
    ("tests/corpus/custom-reduction-rss.pm", true, true, 0xcb6d97e68c43065d),
    ("tests/corpus/state-accumulator.pm", true, true, 0xc5a707cd3398b512),
    ("tests/corpus/wrapped-component.pm", true, true, 0x54dbbe7f0225e656),
];

fn digest(text: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(text.as_bytes());
    h.finish()
}

fn pm_files_under(dir: &Path, out: &mut Vec<(String, String)>) {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir).expect("read_dir").map(|e| e.expect("entry").path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            pm_files_under(&path, out);
        } else if path.extension().is_some_and(|x| x == "pm") {
            let name =
                path.strip_prefix(repo_root()).expect("under the repo").display().to_string();
            out.push((name, std::fs::read_to_string(&path).expect("read .pm file")));
        }
    }
}

fn shipped_programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = [
        ("brain-256-64", apps::brain_stimul(256, 64).source),
        ("option-4096-512", apps::option_pricing(4096, 512).source),
        ("resnet18-224", programs::resnet18(224)),
        ("mobilenet-224", programs::mobilenet(224)),
        ("mpc-64", programs::mobile_robot(64)),
        ("kmeans-784x10", programs::kmeans(784, 10)),
        ("lrmf-1682x16", programs::lrmf(1682, 16)),
        ("fft-1024", programs::fft(1024)),
        ("dct-block", programs::dct_block()),
        ("logistic-64", programs::logistic(64)),
        ("logistic-256", programs::logistic(256)),
        ("logistic-1024", programs::logistic(1024)),
        ("kmeans-16x4", programs::kmeans(16, 4)),
        ("kmeans-64x8", programs::kmeans(64, 8)),
        ("blackscholes-32", programs::black_scholes(32)),
        ("blackscholes-256", programs::black_scholes(256)),
        ("logistic-700", programs::logistic(700)),
        ("kmeans-50x7", programs::kmeans(50, 7)),
        ("blackscholes-500", programs::black_scholes(500)),
    ]
    .into_iter()
    .map(|(name, source)| (name.to_string(), source))
    .collect();
    pm_files_under(&repo_root().join("examples"), &mut out);
    pm_files_under(&repo_root().join("tests/corpus"), &mut out);
    out
}

/// Feeds for every `input` and `param` of `graph`: zeros, or with a
/// `seed`, small seeded values of each edge's dtype.
fn feeds_for(graph: &SrDfg, seed: Option<u64>) -> HashMap<String, Tensor> {
    let mut feeds = HashMap::new();
    let mut h = seed.unwrap_or(0);
    for &e in &graph.boundary_inputs {
        let meta = &graph.edge(e).meta;
        if meta.modifier == Modifier::State {
            continue;
        }
        let data = (0..meta.volume())
            .map(|_| match seed {
                None => 0.0,
                Some(_) => {
                    h = srdfg::hash::splitmix64(h);
                    match meta.dtype {
                        pmlang::DType::Float => (h % 17) as f64 / 4.0 - 2.0,
                        _ => (h % 2) as f64,
                    }
                }
            })
            .collect();
        let tensor = Tensor::from_vec(meta.dtype, meta.shape.clone(), data).expect("conforming");
        feeds.insert(meta.name.to_string(), tensor);
    }
    feeds
}

#[test]
fn analyzer_verdicts_on_the_shipped_programs_are_the_recorded_ones_and_certified_ones_run() {
    let compiler = Compiler::cross_domain();
    let mut got = Vec::new();
    for (name, source) in shipped_programs() {
        let (program, _) = pmlang::frontend(&source).expect("frontend");
        let built = srdfg::build(&program, &Bindings::default()).expect("build");
        let midend = compiler.build_graph(&source, &Bindings::default()).expect("mid-end");
        let findings = pm_analyze::analyze_graph(&built);
        let rendered = pm_analyze::render_text(&findings, &source, &name);
        let certified = [&built, &midend].map(|g| pm_analyze::certify_bounds(g).is_ok());
        for (graph, _) in [built, midend].into_iter().zip(certified).filter(|(_, ok)| *ok) {
            let mut machine = Machine::new(graph);
            for seed in [None, Some(0x5EED)] {
                let feeds = feeds_for(machine.graph(), seed);
                if let Err(e) = machine.invoke(&feeds) {
                    panic!("{name}: certified program trapped with seed {seed:?}: {e}");
                }
            }
        }
        got.push((name, certified[0], certified[1], digest(&rendered)));
    }
    let table: String = got
        .iter()
        .map(|(name, b, m, d)| format!("    ({name:?}, {b}, {m}, {d:#018x}),\n"))
        .collect();
    let expected: Vec<(String, bool, bool, u64)> =
        VERDICTS.iter().map(|&(n, b, m, d)| (n.to_string(), b, m, d)).collect();
    assert_eq!(got, expected, "analyzer verdicts moved; this run computed:\n{table}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The certification soundness contract: when `certify_bounds`
    /// accepts a program, the interpreter must complete every invocation
    /// without trapping, whatever the (metadata-conforming) feeds.
    #[test]
    fn certified_programs_never_trap((program, xs, ys, z0) in pm_fuzz::gen::strategies::case()) {
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
