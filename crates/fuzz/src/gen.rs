//! Seeded random program generation.
//!
//! The generator is written against [`WordSource`] — any deterministic
//! 64-bit stream — so the exact same program distribution backs both the
//! `pmc fuzz` loop (driven by `rand::StdRng`) and the workspace's proptest
//! strategies (driven by `proptest`'s `TestRng`); see [`strategies`].
//!
//! Every generated statement is restricted to the operation palette its
//! domain annotation's accelerator can execute after Algorithm-1 lowering
//! ([`palette`]), so generation never produces programs whose compilation
//! *legitimately* fails — any lowering error the differential executor
//! sees is a real bug.

use crate::model::{NonLin, PExpr, PProgram, PStmt, RedKind};
use pmlang::Domain;

/// A deterministic stream of 64-bit words driving generation.
pub trait WordSource {
    /// The next 64 random bits.
    fn next_word(&mut self) -> u64;

    /// Uniform draw in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_word() % n as u64) as usize
    }

    /// Uniform draw in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_word() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

impl WordSource for rand::rngs::StdRng {
    fn next_word(&mut self) -> u64 {
        rand::RngCore::next_u64(self)
    }
}

impl WordSource for proptest::strategy::TestRng {
    fn next_word(&mut self) -> u64 {
        self.next_u64()
    }
}

// The shape of a generated program: vector length `n` in MIN_N..=MAX_N,
// 1..=MAX_STMTS body statements, expressions at most MAX_DEPTH deep, and
// the chances of a persistent `state` vector, of wrapping the whole body
// into an annotated component, and (unwrapped only) of a per-statement
// domain annotation.
const MIN_N: usize = 2;
const MAX_N: usize = 8;
const MAX_STMTS: usize = 5;
const MAX_DEPTH: usize = 3;
const STATE_PROB: f64 = 0.25;
const WRAP_PROB: f64 = 0.15;
const ANNOTATE_PROB: f64 = 0.4;

/// Operations a statement under `domain` may use so that Algorithm-1
/// lowering is feasible by construction on the paper's accelerators.
#[derive(Debug, Clone, Copy)]
pub struct Palette {
    /// Nonlinear intrinsics the target (or its scalar expansion) executes.
    pub nonlin: &'static [NonLin],
    /// Reduction operators the target supports (whole or scalar-expanded).
    pub reductions: &'static [RedKind],
}

const ALL_REDUCTIONS: &[RedKind] =
    &[RedKind::Sum, RedKind::Prod, RedKind::Max, RedKind::Min, RedKind::Rss, RedKind::PickMax];
const BUILTIN_REDUCTIONS: &[RedKind] = &[RedKind::Sum, RedKind::Prod, RedKind::Max, RedKind::Min];

/// The feasible palette for a statement annotated with `domain` (`None` is
/// the host, which supports everything).
pub fn palette(domain: Option<Domain>) -> Palette {
    match domain {
        // Host CPU: every operation.
        None => Palette {
            nonlin: &[
                NonLin::Sigmoid,
                NonLin::Tanh,
                NonLin::Relu,
                NonLin::Gaussian,
                NonLin::Sin,
                NonLin::Cos,
            ],
            reductions: ALL_REDUCTIONS,
        },
        // DECO's DSP blocks have CORDIC sin/cos/sqrt but no sigmoid-family
        // lookup units; everything scalar-expands, so custom reductions
        // (sqrt, compare/select) are fine.
        Some(Domain::Dsp) => {
            Palette { nonlin: &[NonLin::Sin, NonLin::Cos], reductions: ALL_REDUCTIONS }
        }
        // TABLA has the sigmoid-family nonlinear units but no sin/cos.
        Some(Domain::DataAnalytics) => Palette {
            nonlin: &[NonLin::Sigmoid, NonLin::Tanh, NonLin::Relu, NonLin::Gaussian],
            reductions: ALL_REDUCTIONS,
        },
        // RoboX keeps maps at vector granularity (generic `map`, plus
        // `map.sin`/`map.cos` when simplification isolates a single call)
        // and executes built-in reductions as group ops; custom reductions
        // would scalar-expand into ops (scalar sqrt, scalar compare) its
        // op set lacks.
        Some(Domain::Robotics) => {
            Palette { nonlin: &[NonLin::Sin, NonLin::Cos], reductions: BUILTIN_REDUCTIONS }
        }
        // No accelerator generated for these domains; treat as host.
        Some(_) => palette(None),
    }
}

/// Domains the generator annotates with (the paper's three statement-level
/// targets exercised by the differential routes).
pub const DOMAINS: [Domain; 3] = [Domain::Dsp, Domain::DataAnalytics, Domain::Robotics];

/// A dyadic literal in `[-4, 4]` (multiples of 1/8, exactly representable
/// so cross-route arithmetic stays bit-comparable).
fn gen_lit<R: WordSource + ?Sized>(rng: &mut R) -> f64 {
    (rng.below(65) as f64 - 32.0) / 8.0
}

/// A random expression at most `depth` levels deep, drawn from `pal`.
/// `allow_state` gates `z[i]` leaves.
pub fn gen_expr<R: WordSource + ?Sized>(
    rng: &mut R,
    depth: usize,
    pal: &Palette,
    allow_state: bool,
) -> PExpr {
    if depth == 0 || rng.chance(0.25) {
        return match rng.below(if allow_state { 5 } else { 4 }) {
            0 => PExpr::Var(rng.next_word() as u8),
            1 => PExpr::SVar(rng.next_word() as u8),
            2 => PExpr::Idx,
            3 => PExpr::Lit(gen_lit(rng)),
            _ => PExpr::State,
        };
    }
    let sub = |rng: &mut R| Box::new(gen_expr(rng, depth - 1, pal, allow_state));
    match rng.below(9) {
        0 => PExpr::Add(sub(rng), sub(rng)),
        1 => PExpr::Sub(sub(rng), sub(rng)),
        2 => PExpr::Mul(sub(rng), sub(rng)),
        3 => PExpr::Min(sub(rng), sub(rng)),
        4 => PExpr::Max(sub(rng), sub(rng)),
        5 => PExpr::Neg(sub(rng)),
        6 => PExpr::Abs(sub(rng)),
        7 if !pal.nonlin.is_empty() => {
            PExpr::Fun(pal.nonlin[rng.below(pal.nonlin.len())], sub(rng))
        }
        _ => PExpr::Select(sub(rng), sub(rng), sub(rng)),
    }
}

/// A random statement under an already-chosen domain.
fn gen_stmt<R: WordSource + ?Sized>(
    rng: &mut R,
    domain: Option<Domain>,
    allow_state: bool,
) -> PStmt {
    let pal = palette(domain);
    let depth = 1 + rng.below(MAX_DEPTH);
    let expr = gen_expr(rng, depth, &pal, allow_state);
    if rng.chance(0.3) {
        PStmt::Reduce(pal.reductions[rng.below(pal.reductions.len())], expr, domain)
    } else {
        PStmt::Map(expr, domain)
    }
}

/// Generates one random program.
pub fn gen_program<R: WordSource + ?Sized>(rng: &mut R) -> PProgram {
    let n = MIN_N + rng.below(MAX_N - MIN_N + 1);
    let wrap = if rng.chance(WRAP_PROB) { Some(DOMAINS[rng.below(DOMAINS.len())]) } else { None };
    let has_state = wrap.is_none() && rng.chance(STATE_PROB);
    let count = 1 + rng.below(MAX_STMTS);
    let mut stmts = Vec::with_capacity(count);
    for _ in 0..count {
        let domain = match wrap {
            Some(d) => Some(d),
            None if rng.chance(ANNOTATE_PROB) => Some(DOMAINS[rng.below(DOMAINS.len())]),
            None => None,
        };
        stmts.push(gen_stmt(rng, domain, has_state));
    }
    let state_update = if has_state {
        let pal = palette(None);
        let depth = 1 + rng.below(MAX_DEPTH);
        Some(gen_expr(rng, depth, &pal, true))
    } else {
        None
    };
    PProgram { n, stmts, state_update, wrap }
}

/// Deterministic input data for one differential case: values quantized to
/// multiples of 1/16 in `[-3, 3]`.
pub fn gen_inputs<R: WordSource + ?Sized>(rng: &mut R, n: usize) -> Vec<f64> {
    (0..n).map(|_| (rng.below(97) as f64 - 48.0) / 16.0).collect()
}

/// Proptest strategies over the shared model, for the workspace's
/// property-test suites.
pub mod strategies {
    use super::*;
    use proptest::strategy::BoxedStrategy;

    /// An unconstrained (host-palette) expression, up to `depth` deep.
    pub fn expr(depth: usize) -> BoxedStrategy<PExpr> {
        BoxedStrategy::from_fn(move |rng| {
            let d = 1 + rng.below(depth.max(1));
            gen_expr(rng, d, &palette(None), false)
        })
    }

    /// A whole random program.
    pub fn program() -> BoxedStrategy<PProgram> {
        BoxedStrategy::from_fn(gen_program)
    }

    /// A program with its `x`, `y` and initial-state inputs.
    pub type Case = (PProgram, Vec<f64>, Vec<f64>, Vec<f64>);

    /// A whole random program plus inputs sized to its `n`: one
    /// differential case for [`crate::check_case`].
    pub fn case() -> BoxedStrategy<Case> {
        BoxedStrategy::from_fn(|rng| {
            let program = gen_program(rng);
            let xs = gen_inputs(rng, program.n);
            let ys = gen_inputs(rng, program.n);
            let z0 = gen_inputs(rng, program.n);
            (program, xs, ys, z0)
        })
    }

    /// A vector of `n` quantized input values in `[-3, 3]`.
    pub fn inputs(n: usize) -> BoxedStrategy<Vec<f64>> {
        BoxedStrategy::from_fn(move |rng| gen_inputs(rng, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = gen_program(&mut StdRng::seed_from_u64(7));
        let b = gen_program(&mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = gen_program(&mut StdRng::seed_from_u64(8));
        assert_ne!(a, c, "distinct seeds should disagree almost surely");
    }

    #[test]
    fn generated_programs_always_parse() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let p = gen_program(&mut rng);
            let src = p.to_pmlang();
            pmlang::frontend(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        }
    }

    #[test]
    fn palettes_respect_accelerator_op_sets() {
        // RoboX cannot scalar-expand custom reductions.
        assert!(!palette(Some(Domain::Robotics)).reductions.contains(&RedKind::Rss));
        // DECO has no sigmoid-family units; TABLA no trig.
        assert!(!palette(Some(Domain::Dsp)).nonlin.contains(&NonLin::Sigmoid));
        assert!(!palette(Some(Domain::DataAnalytics)).nonlin.contains(&NonLin::Sin));
    }

    #[test]
    fn inputs_are_quantized_and_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        for v in gen_inputs(&mut rng, 100) {
            assert!((-3.0..=3.0).contains(&v));
            assert_eq!(v * 16.0, (v * 16.0).round());
        }
    }
}
