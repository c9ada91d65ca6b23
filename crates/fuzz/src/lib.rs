//! # pm-fuzz — cross-layer differential fuzzing for the PolyMath stack
//!
//! The paper's core promise is that one PMLang program survives many
//! independent transformations — srDFG construction, the optimization
//! pipeline, Algorithm-1 lowering per accelerator, Algorithm-2
//! partitioning — and still computes the same function. This crate turns
//! that promise into a standing, executable oracle:
//!
//! 1. [`gen`] produces seeded random PMLang programs (components, index
//!    ranges, built-in and custom reductions, `state` vectors, nonlinear
//!    intrinsics, per-statement domain annotations), constrained so every
//!    program is feasible on the accelerators its annotations name.
//! 2. [`diff`] runs each program through every route the stack offers —
//!    interpreter at opt levels 0/1/2 (± fusion), lowered and partitioned
//!    host-only and cross-domain — and cross-checks all outputs (including
//!    multi-invocation `state` trajectories) against the model's own Rust
//!    evaluator within float tolerance.
//! 3. On any mismatch, panic, or validation error, [`minimize`] shrinks
//!    the program with greedy delta debugging to a minimal reproducer, and
//!    [`corpus`] writes it as a self-contained `.pm` file that the
//!    regression suite replays forever after.
//!
//! The generator doubles as the workspace's proptest strategy source
//! ([`gen::strategies`]), replacing the hand-rolled duplicates the
//! property-test suites used to carry.

pub mod corpus;
pub mod diff;
pub mod gen;
pub mod minimize;
pub mod model;
pub mod wire;

pub use diff::{check_case, check_source, CaseResult, DiffConfig, Failure, SabotagePass};
pub use gen::{gen_inputs, gen_program, palette, Palette, WordSource};
pub use minimize::{minimize, minimize_with, Minimized};
pub use model::{EvalStep, NonLin, PExpr, PProgram, PStmt, RedKind};
pub use wire::{run_wire_fuzz, WireFailure, WireFuzzConfig, WireReport};

use rand::{rngs::StdRng, SeedableRng};
use std::path::PathBuf;

/// A whole fuzzing campaign's knobs.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; case `i` derives its own independent stream from it,
    /// so any case is reproducible in isolation.
    pub seed: u64,
    /// Number of cases to run.
    pub cases: usize,
    /// Differential-execution knobs (sabotage sentinel, chaos route).
    pub diff: DiffConfig,
    /// Shrink the first failure with delta debugging.
    pub minimize: bool,
    /// Where to write the minimized reproducer (`tests/corpus/` in-repo).
    pub corpus_dir: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            cases: 1000,
            diff: DiffConfig::default(),
            minimize: true,
            corpus_dir: None,
        }
    }
}

/// Everything known about the first failing case of a campaign.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// Zero-based index of the failing case.
    pub case: usize,
    /// The route that diverged and how.
    pub failure: Failure,
    /// The failing program, post-minimization when enabled.
    pub program: PProgram,
    /// Input `x` for the failing run.
    pub xs: Vec<f64>,
    /// Input `y` for the failing run.
    pub ys: Vec<f64>,
    /// Initial state for the failing run.
    pub z0: Vec<f64>,
    /// Statement count before minimization.
    pub original_stmts: usize,
    /// Differential runs the minimizer spent (0 when disabled).
    pub shrink_attempts: usize,
    /// Where the reproducer was written, when a corpus dir was given.
    pub reproducer: Option<PathBuf>,
}

/// Campaign outcome.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cases executed (stops early at the first failure).
    pub executed: usize,
    /// Cases that passed every route.
    pub passed: usize,
    /// Cases skipped as numerically unstable.
    pub unstable: usize,
    /// The first failure, if any.
    pub failure: Option<FailureReport>,
}

/// Derives case `index`'s independent RNG from the master seed.
fn case_rng(seed: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
}

/// Runs a fuzzing campaign: generate, differentially execute, and on the
/// first failure minimize and (optionally) write a corpus reproducer.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    run_fuzz_with_progress(cfg, &mut |_, _| {})
}

/// [`run_fuzz`] with a progress callback `(cases_done, unstable_so_far)`,
/// invoked every 100 cases.
pub fn run_fuzz_with_progress(
    cfg: &FuzzConfig,
    progress: &mut dyn FnMut(usize, usize),
) -> FuzzReport {
    let mut report = FuzzReport { executed: 0, passed: 0, unstable: 0, failure: None };
    for case in 0..cfg.cases {
        let mut rng = case_rng(cfg.seed, case);
        let program = gen_program(&mut rng);
        let xs = gen_inputs(&mut rng, program.n);
        let ys = gen_inputs(&mut rng, program.n);
        let z0 = gen_inputs(&mut rng, program.n);
        // Each case draws an independent chaos fault schedule; the mix is
        // deterministic so a failing case replays with the same faults.
        let diff = DiffConfig {
            chaos_seed: cfg
                .diff
                .chaos_seed
                .wrapping_add((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ..cfg.diff.clone()
        };
        report.executed += 1;
        match check_case(&program, &xs, &ys, &z0, &diff) {
            CaseResult::Pass => report.passed += 1,
            CaseResult::Unstable => report.unstable += 1,
            CaseResult::Fail(failure) => {
                let original_stmts = program.stmt_count();
                let (program, xs, ys, z0, shrink_attempts) = if cfg.minimize {
                    let m = minimize(program, xs, ys, z0, &diff);
                    (m.program, m.xs, m.ys, m.z0, m.attempts)
                } else {
                    (program, xs, ys, z0, 0)
                };
                // Re-derive the (possibly sharper) failure from the final
                // program so the report names the minimized divergence.
                let failure = match check_case(&program, &xs, &ys, &z0, &diff) {
                    CaseResult::Fail(f) => f,
                    _ => failure,
                };
                let reproducer = cfg.corpus_dir.as_ref().and_then(|dir| {
                    let states: &[(&str, &[f64])] =
                        if program.has_state() { &[("z", &z0)] } else { &[] };
                    let content = corpus::render_reproducer(
                        &program.to_pmlang(),
                        &failure.route,
                        cfg.seed,
                        case,
                        &[("x", &xs), ("y", &ys)],
                        states,
                    );
                    corpus::write_reproducer(dir, &content).ok()
                });
                report.failure = Some(FailureReport {
                    case,
                    failure,
                    program,
                    xs,
                    ys,
                    z0,
                    original_stmts,
                    shrink_attempts,
                    reproducer,
                });
                return report;
            }
        }
        if (case + 1) % 100 == 0 {
            progress(case + 1, report.unstable);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_clean_campaign_passes() {
        let cfg = FuzzConfig { cases: 25, ..FuzzConfig::default() };
        let report = run_fuzz(&cfg);
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert_eq!(report.executed, 25);
        assert_eq!(report.passed + report.unstable, 25);
    }

    #[test]
    fn chaos_campaign_passes_clean_stack() {
        let cfg = FuzzConfig {
            cases: 25,
            diff: DiffConfig {
                chaos: Some(pm_accel::ChaosProfile::Transient),
                chaos_seed: 0xC0FFEE,
                ..DiffConfig::default()
            },
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg);
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert_eq!(report.passed + report.unstable, 25);
    }

    #[test]
    fn sabotage_campaign_fails_and_minimizes_small() {
        let cfg = FuzzConfig {
            cases: 1000,
            diff: DiffConfig { sabotage: true, ..DiffConfig::default() },
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg);
        let failure = report.failure.expect("sabotage must be detected within 1000 cases");
        assert!(
            failure.program.stmt_count() <= 10,
            "reproducer has {} statements",
            failure.program.stmt_count()
        );
    }
}
