//! Chaos-runtime integration tests: the resilient SoC dispatch loop
//! against the checked-in regression corpus.
//!
//! The sentinel here is the paper-stack equivalent of pulling every
//! accelerator card out of the chassis mid-run: with all non-host
//! backends persistently down, every corpus program must still complete
//! via host-fallback re-lowering and produce outputs matching the
//! unoptimized-interpreter oracle — the same oracle the fuzzer holds
//! every other route to.

use pm_accel::{ChaosConfig, ChaosProfile, TrajectoryInputs};
use polymath::{standard_soc, Compiler};
use srdfg::{Bindings, Machine, Modifier, Tensor};
use std::collections::HashMap;
use std::path::PathBuf;

fn corpus_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "pm"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus at {} is empty", dir.display());
    entries
}

/// One corpus case prepared for execution: feeds, state seeds (as the
/// trajectory runner wants them), and the number of invocations the
/// differential replayer would use.
struct Case {
    source: String,
    feeds: HashMap<String, Tensor>,
    seeds: Vec<(String, Tensor)>,
    invocations: u64,
}

fn load_case(path: &PathBuf) -> Case {
    let source = std::fs::read_to_string(path).unwrap();
    let header = pm_fuzz::corpus::parse_feeds(&source);
    let (program, _) = pmlang::frontend(&source).unwrap();
    let graph = srdfg::build(&program, &Bindings::default()).unwrap();
    let (feeds, seed_map) = pm_fuzz::corpus::build_feeds(&graph, &header).unwrap();
    let has_state =
        graph.boundary_inputs.iter().any(|&e| graph.edge(e).meta.modifier == Modifier::State);
    let mut seeds: Vec<(String, Tensor)> = seed_map.into_iter().collect();
    seeds.sort_by(|a, b| a.0.cmp(&b.0));
    Case { source, feeds, seeds, invocations: if has_state { 3 } else { 1 } }
}

/// The oracle: the unoptimized interpreter stepped through the same
/// trajectory.
fn oracle_outputs(case: &Case) -> HashMap<String, Tensor> {
    let (program, _) = pmlang::frontend(&case.source).unwrap();
    let graph = srdfg::build(&program, &Bindings::default()).unwrap();
    let mut machine = Machine::new(graph);
    for (name, value) in &case.seeds {
        machine.set_state(name, value.clone());
    }
    let mut out = HashMap::new();
    for _ in 0..case.invocations {
        out = machine.invoke(&case.feeds).unwrap();
    }
    out
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

fn assert_matches_oracle(
    label: &str,
    got: &HashMap<String, Tensor>,
    want: &HashMap<String, Tensor>,
) {
    assert_eq!(got.len(), want.len(), "{label}: output sets differ");
    for (name, w) in want {
        let g = got.get(name).unwrap_or_else(|| panic!("{label}: missing output `{name}`"));
        match (g.as_real_slice(), w.as_real_slice()) {
            (Some(gs), Some(ws)) => {
                assert_eq!(gs.len(), ws.len(), "{label}: `{name}` length");
                for (i, (a, b)) in gs.iter().zip(ws).enumerate() {
                    assert!(close(*a, *b), "{label}: `{name}`[{i}] = {a}, oracle says {b}");
                }
            }
            _ => {
                let (a, b) = (g.scalar_value().unwrap(), w.scalar_value().unwrap());
                assert!(close(a, b), "{label}: `{name}` = {a}, oracle says {b}");
            }
        }
    }
}

/// The sentinel persistent-fault test: every attached accelerator is
/// forced down, so anything the cross-domain compiler put on a DSA must
/// be re-lowered onto the host — and the degraded run must still match
/// the oracle on the whole corpus.
#[test]
fn all_backends_down_corpus_still_matches_oracle() {
    let soc = standard_soc();
    let mut cfg = ChaosConfig::new(0xDEAD, ChaosProfile::Hostile);
    for name in soc.attached_names() {
        cfg = cfg.with_down(name);
    }
    let downed: Vec<String> = soc.attached_names();

    let mut total_fallbacks = 0usize;
    for path in corpus_files() {
        let label = path.file_name().unwrap().to_string_lossy().to_string();
        let case = load_case(&path);
        let want = oracle_outputs(&case);

        let compiler = Compiler::cross_domain();
        let compiled = compiler.compile(&case.source, &Bindings::default()).unwrap();
        let inputs = TrajectoryInputs {
            feeds: &case.feeds,
            state_seeds: &case.seeds,
            invocations: case.invocations,
        };
        let outcome = soc
            .run_trajectory(&compiled, &HashMap::new(), &cfg, Some(compiler.targets()), &inputs)
            .unwrap_or_else(|e| panic!("{label}: degraded trajectory failed: {e}"));

        // No fragment of the final schedule may still sit on a downed
        // device.
        for p in &outcome.last.partitions {
            assert!(
                !downed.contains(&p.target),
                "{label}: partition still on downed `{}`",
                p.target
            );
        }
        total_fallbacks += outcome.fallbacks.len();
        assert_matches_oracle(&label, &outcome.outputs, &want);
    }
    assert!(
        total_fallbacks > 0,
        "the corpus never exercised host-fallback re-lowering — sentinel is vacuous"
    );
}

/// Transient chaos never changes the schedule permanently, so outputs are
/// bit-identical to the fault-free run, and the same seed reproduces the
/// same report — the replay determinism contract, end to end.
#[test]
fn transient_chaos_is_deterministic_and_output_preserving() {
    let soc = standard_soc();
    for path in corpus_files() {
        let label = path.file_name().unwrap().to_string_lossy().to_string();
        let case = load_case(&path);
        let compiler = Compiler::cross_domain();
        let compiled = compiler.compile(&case.source, &Bindings::default()).unwrap();
        let inputs = TrajectoryInputs {
            feeds: &case.feeds,
            state_seeds: &case.seeds,
            invocations: case.invocations,
        };
        let run = |cfg: &ChaosConfig| {
            soc.run_trajectory(&compiled, &HashMap::new(), cfg, Some(compiler.targets()), &inputs)
                .unwrap_or_else(|e| panic!("{label}: {e}"))
        };

        let clean = run(&ChaosConfig::off());
        let cfg = ChaosConfig::new(0xC0FFEE, ChaosProfile::Transient);
        let a = run(&cfg);
        let b = run(&cfg);

        assert_eq!(a.last, b.last, "{label}: same seed must give the same report");
        assert_eq!(a.faults_injected, b.faults_injected, "{label}");
        assert_eq!(a.virtual_ns, b.virtual_ns, "{label}");
        assert!(a.fallbacks.is_empty(), "{label}: transient chaos must never down a device");
        assert_eq!(clean.outputs.len(), a.outputs.len(), "{label}");
        for (name, t) in &clean.outputs {
            assert_eq!(Some(t), a.outputs.get(name), "{label}: output `{name}` diverged");
        }
    }
}
