//! The random-program model: a compact AST of PMLang programs that the
//! fuzzer (and the workspace's property tests) generate, render, evaluate
//! directly in Rust, and shrink.
//!
//! Design constraints, inherited from the property tests this model
//! replaces and hardened for high-volume fuzzing:
//!
//! * **Total rendering** — any value of [`PProgram`] is a *valid* PMLang
//!   program. Variable references wrap modulo the names defined so far, a
//!   state read degrades to an input read when the program carries no
//!   state, and reduction definitions are emitted only when used. This
//!   makes both generation and delta-debugging trivial: every mutation of
//!   the model stays inside the language.
//! * **Feasible by construction** — each statement's operation palette is
//!   restricted to what its domain annotation's accelerator can execute
//!   after Algorithm-1 refinement (see [`Palette`]), so a generated
//!   program never trips lowering-feasibility errors and `pmc lint` stays
//!   error-free on it.
//! * **Self-evaluating** — [`PProgram::eval`] is an independent Rust
//!   implementation of the program's semantics (the differential oracle),
//!   which also flags *unstable* cases: discontinuity boundaries and
//!   magnitude overflows where two float-equivalent compilations may
//!   legitimately diverge.

use pmlang::Domain;

/// Nonlinear intrinsics the generator may apply (all continuous, so a
/// float-tolerance comparison between routes is meaningful).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonLin {
    /// `sigmoid(x)`
    Sigmoid,
    /// `tanh(x)`
    Tanh,
    /// `relu(x)`
    Relu,
    /// `gaussian(x)`
    Gaussian,
    /// `sin(x)`
    Sin,
    /// `cos(x)`
    Cos,
}

impl NonLin {
    /// The PMLang surface name.
    pub fn name(&self) -> &'static str {
        match self {
            NonLin::Sigmoid => "sigmoid",
            NonLin::Tanh => "tanh",
            NonLin::Relu => "relu",
            NonLin::Gaussian => "gaussian",
            NonLin::Sin => "sin",
            NonLin::Cos => "cos",
        }
    }

    fn eval(&self, v: f64) -> f64 {
        match self {
            NonLin::Sigmoid => 1.0 / (1.0 + (-v).exp()),
            NonLin::Tanh => v.tanh(),
            NonLin::Relu => v.max(0.0),
            NonLin::Gaussian => (-v * v / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt(),
            NonLin::Sin => v.sin(),
            NonLin::Cos => v.cos(),
        }
    }
}

/// A scalar expression over the inputs `x[i]`/`y[i]`, previously defined
/// vectors (`Var`), previously defined reduction scalars (`SVar`), the
/// persistent state vector (`State`), the index `i`, and literals.
///
/// Out-of-range `Var`/`SVar` references wrap over what is defined at the
/// statement's position, so every expression is renderable in every
/// program context (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum PExpr {
    /// `x[i]`, `y[i]`, or `t{k}[i]` — wraps over inputs + defined vectors.
    Var(u8),
    /// `s{k}` — wraps over defined scalars; renders `1.0` when none exist.
    SVar(u8),
    /// `z[i]` — the pre-update state element; renders `x[i]` when the
    /// program carries no state.
    State,
    /// The index variable `i`.
    Idx,
    /// A literal (the generator quantizes to dyadic rationals so that
    /// sums and differences across routes stay bit-exact where possible).
    Lit(f64),
    /// `a + b`
    Add(Box<PExpr>, Box<PExpr>),
    /// `a - b`
    Sub(Box<PExpr>, Box<PExpr>),
    /// `a * b`
    Mul(Box<PExpr>, Box<PExpr>),
    /// `min2(a, b)`
    Min(Box<PExpr>, Box<PExpr>),
    /// `max2(a, b)`
    Max(Box<PExpr>, Box<PExpr>),
    /// `(0.0 - a)` — negation, spelled the way the legacy generator did.
    Neg(Box<PExpr>),
    /// `abs(a)`
    Abs(Box<PExpr>),
    /// A nonlinear intrinsic application.
    Fun(NonLin, Box<PExpr>),
    /// `(c > 0.0 ? a : b)`
    Select(Box<PExpr>, Box<PExpr>, Box<PExpr>),
}

/// A reduction operator of the model: built-ins plus two user-defined
/// (custom) reductions that are associative and commutative in exact
/// arithmetic, so the interpreter's left fold and the scalar expansion's
/// balanced combiner tree agree within float tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedKind {
    /// Built-in `sum`.
    Sum,
    /// Built-in `prod`.
    Prod,
    /// Built-in `max`.
    Max,
    /// Built-in `min`.
    Min,
    /// Custom root-sum-square fold: `reduction rss(a, b) = sqrt(a*a + b*b);`
    Rss,
    /// Custom ternary maximum: `reduction pickmax(a, b) = a > b ? a : b;`
    PickMax,
}

impl RedKind {
    /// The reduction's PMLang operator name.
    pub fn name(&self) -> &'static str {
        match self {
            RedKind::Sum => "sum",
            RedKind::Prod => "prod",
            RedKind::Max => "max",
            RedKind::Min => "min",
            RedKind::Rss => "rss",
            RedKind::PickMax => "pickmax",
        }
    }

    /// True for the model's custom (user-defined) reductions.
    pub fn is_custom(&self) -> bool {
        matches!(self, RedKind::Rss | RedKind::PickMax)
    }

    /// The `reduction ...;` definition line for a custom reduction.
    pub fn definition(&self) -> Option<&'static str> {
        match self {
            RedKind::Rss => Some("reduction rss(a, b) = sqrt(a*a + b*b);"),
            RedKind::PickMax => Some("reduction pickmax(a, b) = a > b ? a : b;"),
            _ => None,
        }
    }

    /// Left-fold combine, matching the interpreter's semantics (the
    /// accumulator is seeded with the first element).
    fn combine(&self, acc: f64, elem: f64) -> f64 {
        match self {
            RedKind::Sum => acc + elem,
            RedKind::Prod => acc * elem,
            RedKind::Max => acc.max(elem),
            RedKind::Min => acc.min(elem),
            RedKind::Rss => (acc * acc + elem * elem).sqrt(),
            RedKind::PickMax => {
                if acc > elem {
                    acc
                } else {
                    elem
                }
            }
        }
    }
}

/// One statement: an elementwise map defining a new vector `t{k}`, or a
/// reduction defining a new scalar `s{k}`. The optional domain is the
/// paper's statement-level domain annotation.
#[derive(Debug, Clone, PartialEq)]
pub enum PStmt {
    /// `t{k}[i] = expr;`
    Map(PExpr, Option<Domain>),
    /// `s{k} = red[i](expr);`
    Reduce(RedKind, PExpr, Option<Domain>),
}

impl PStmt {
    /// The statement's domain annotation.
    pub fn domain(&self) -> Option<Domain> {
        match self {
            PStmt::Map(_, d) | PStmt::Reduce(_, _, d) => *d,
        }
    }

    /// The statement's expression.
    pub fn expr(&self) -> &PExpr {
        match self {
            PStmt::Map(e, _) | PStmt::Reduce(_, e, _) => e,
        }
    }
}

/// A whole random program: `main(input x[n], input y[n], ...)` with a body
/// of [`PStmt`]s, optionally a persistent `state float z[n]` updated by
/// `state_update` as the final statement, and optionally the entire body
/// wrapped into a helper component instantiated under one domain
/// annotation (exercising component build + inlining + Algorithm 2 at the
/// component boundary).
#[derive(Debug, Clone, PartialEq)]
pub struct PProgram {
    /// Vector length; the single index range is `i[0:n-1]`.
    pub n: usize,
    /// Body statements, in order.
    pub stmts: Vec<PStmt>,
    /// When `Some(e)`: declares `state float z[n]` and appends
    /// `z[i] = e;` as the final (host) statement.
    pub state_update: Option<PExpr>,
    /// When `Some(d)`: the body lives in a component `kern` instantiated
    /// from `main` as `d: kern(...)`. Mutually exclusive with state in
    /// generated programs (the minimizer only ever removes features, so
    /// the combination never arises).
    pub wrap: Option<Domain>,
}

/// One invocation's direct-evaluation result.
#[derive(Debug, Clone)]
pub struct EvalStep {
    /// `t0..` in definition order, each of length `n`.
    pub vecs: Vec<Vec<f64>>,
    /// `s0..` in definition order.
    pub scalars: Vec<f64>,
    /// The post-invocation state vector (present iff the program has state).
    pub state_next: Option<Vec<f64>>,
    /// False when the case sat on a discontinuity boundary or overflowed —
    /// two legitimate compilations may then diverge beyond tolerance, so
    /// the fuzzer skips it rather than reporting a spurious bug.
    pub stable: bool,
}

/// The evaluation environment: inputs plus everything defined so far.
struct Env<'a> {
    x: &'a [f64],
    y: &'a [f64],
    z: Option<&'a [f64]>,
    vecs: Vec<Vec<f64>>,
    scalars: Vec<f64>,
}

/// A select condition closer to its branch point than this is "unstable":
/// optimization or lowering may legally perturb the condition value by a
/// few ulps and flip the branch.
const SELECT_GUARD: f64 = 1e-5;
/// Magnitudes beyond this risk crossing the overflow boundary under legal
/// reassociation (balanced reduction trees vs. sequential folds).
const MAGNITUDE_GUARD: f64 = 1e100;

impl PExpr {
    /// Renders against the vectors/scalars defined so far. `has_state`
    /// selects whether `State` reads `z[i]` or falls back to `x[i]`.
    pub fn render(&self, vecs: usize, scalars: usize, has_state: bool) -> String {
        let bin = |op: &str, a: &PExpr, b: &PExpr| {
            format!(
                "({} {op} {})",
                a.render(vecs, scalars, has_state),
                b.render(vecs, scalars, has_state)
            )
        };
        match self {
            PExpr::Var(v) => match (*v as usize) % (vecs + 2) {
                0 => "x[i]".into(),
                1 => "y[i]".into(),
                k => format!("t{}[i]", k - 2),
            },
            PExpr::SVar(v) => {
                if scalars == 0 {
                    "1.0".into()
                } else {
                    format!("s{}", (*v as usize) % scalars)
                }
            }
            PExpr::State => {
                if has_state {
                    "z[i]".into()
                } else {
                    "x[i]".into()
                }
            }
            PExpr::Idx => "i".into(),
            PExpr::Lit(v) => format!("{v:?}"),
            PExpr::Add(a, b) => bin("+", a, b),
            PExpr::Sub(a, b) => bin("-", a, b),
            PExpr::Mul(a, b) => bin("*", a, b),
            PExpr::Min(a, b) => format!(
                "min2({}, {})",
                a.render(vecs, scalars, has_state),
                b.render(vecs, scalars, has_state)
            ),
            PExpr::Max(a, b) => format!(
                "max2({}, {})",
                a.render(vecs, scalars, has_state),
                b.render(vecs, scalars, has_state)
            ),
            PExpr::Neg(a) => format!("(0.0 - {})", a.render(vecs, scalars, has_state)),
            PExpr::Abs(a) => format!("abs({})", a.render(vecs, scalars, has_state)),
            PExpr::Fun(f, a) => {
                format!("{}({})", f.name(), a.render(vecs, scalars, has_state))
            }
            PExpr::Select(c, a, b) => format!(
                "({} > 0.0 ? {} : {})",
                c.render(vecs, scalars, has_state),
                a.render(vecs, scalars, has_state),
                b.render(vecs, scalars, has_state)
            ),
        }
    }

    fn eval(&self, env: &Env, i: usize, stable: &mut bool) -> f64 {
        let v = match self {
            PExpr::Var(v) => match (*v as usize) % (env.vecs.len() + 2) {
                0 => env.x[i],
                1 => env.y[i],
                k => env.vecs[k - 2][i],
            },
            PExpr::SVar(v) => {
                if env.scalars.is_empty() {
                    1.0
                } else {
                    env.scalars[(*v as usize) % env.scalars.len()]
                }
            }
            PExpr::State => match env.z {
                Some(z) => z[i],
                None => env.x[i],
            },
            PExpr::Idx => i as f64,
            PExpr::Lit(v) => *v,
            PExpr::Add(a, b) => a.eval(env, i, stable) + b.eval(env, i, stable),
            PExpr::Sub(a, b) => a.eval(env, i, stable) - b.eval(env, i, stable),
            PExpr::Mul(a, b) => a.eval(env, i, stable) * b.eval(env, i, stable),
            PExpr::Min(a, b) => a.eval(env, i, stable).min(b.eval(env, i, stable)),
            PExpr::Max(a, b) => a.eval(env, i, stable).max(b.eval(env, i, stable)),
            PExpr::Neg(a) => -a.eval(env, i, stable),
            PExpr::Abs(a) => a.eval(env, i, stable).abs(),
            PExpr::Fun(f, a) => f.eval(a.eval(env, i, stable)),
            PExpr::Select(c, a, b) => {
                let cond = c.eval(env, i, stable);
                if cond.abs() < SELECT_GUARD {
                    *stable = false;
                }
                if cond > 0.0 {
                    a.eval(env, i, stable)
                } else {
                    b.eval(env, i, stable)
                }
            }
        };
        if !v.is_finite() || v.abs() > MAGNITUDE_GUARD {
            *stable = false;
        }
        v
    }

    /// Direct children (for the minimizer's subtree-hoisting step).
    pub fn children(&self) -> Vec<&PExpr> {
        match self {
            PExpr::Var(_) | PExpr::SVar(_) | PExpr::State | PExpr::Idx | PExpr::Lit(_) => vec![],
            PExpr::Add(a, b)
            | PExpr::Sub(a, b)
            | PExpr::Mul(a, b)
            | PExpr::Min(a, b)
            | PExpr::Max(a, b) => vec![a, b],
            PExpr::Neg(a) | PExpr::Abs(a) | PExpr::Fun(_, a) => vec![a],
            PExpr::Select(c, a, b) => vec![c, a, b],
        }
    }

    /// Direct children, mutably (for the minimizer's in-place rewrites).
    pub fn children_mut(&mut self) -> Vec<&mut PExpr> {
        match self {
            PExpr::Var(_) | PExpr::SVar(_) | PExpr::State | PExpr::Idx | PExpr::Lit(_) => vec![],
            PExpr::Add(a, b)
            | PExpr::Sub(a, b)
            | PExpr::Mul(a, b)
            | PExpr::Min(a, b)
            | PExpr::Max(a, b) => vec![a, b],
            PExpr::Neg(a) | PExpr::Abs(a) | PExpr::Fun(_, a) => vec![a],
            PExpr::Select(c, a, b) => vec![c, a, b],
        }
    }

    /// Number of nodes in the expression tree.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|c| c.size()).sum::<usize>()
    }
}

impl PProgram {
    /// True when the program carries a persistent state vector. A state
    /// update under a component wrap is ignored (the wrapped body cannot
    /// see `z`), so the two features are mutually exclusive in effect; the
    /// generator never combines them, and the minimizer only removes
    /// features.
    pub fn has_state(&self) -> bool {
        self.state_update.is_some() && self.wrap.is_none()
    }

    /// Number of invocations a differential run should execute (state
    /// programs need several to exercise persistence).
    pub fn invocations(&self) -> usize {
        if self.has_state() {
            3
        } else {
            1
        }
    }

    /// Custom reductions used anywhere in the body, in definition order.
    fn custom_reductions(&self) -> Vec<RedKind> {
        let mut out = Vec::new();
        for stmt in &self.stmts {
            if let PStmt::Reduce(kind, _, _) = stmt {
                if kind.is_custom() && !out.contains(kind) {
                    out.push(*kind);
                }
            }
        }
        out
    }

    /// Renders the model as PMLang source.
    pub fn to_pmlang(&self) -> String {
        let n = self.n;
        let m = n - 1;
        let has_state = self.has_state();
        let mut decls = Vec::new();
        let mut body = Vec::new();
        let (mut vecs, mut scalars) = (0usize, 0usize);
        for stmt in &self.stmts {
            // Statement annotations are suppressed under a component wrap:
            // the instantiation's annotation already fixes the domain.
            let pre = match (self.wrap, stmt.domain()) {
                (None, Some(d)) => format!("{}: ", d.keyword()),
                _ => String::new(),
            };
            match stmt {
                PStmt::Map(e, _) => {
                    body.push(format!(
                        "    {pre}t{vecs}[i] = {};",
                        e.render(vecs, scalars, has_state)
                    ));
                    decls.push(format!("output float t{vecs}[{n}]"));
                    vecs += 1;
                }
                PStmt::Reduce(kind, e, _) => {
                    body.push(format!(
                        "    {pre}s{scalars} = {}[i]({});",
                        kind.name(),
                        e.render(vecs, scalars, has_state)
                    ));
                    decls.push(format!("output float s{scalars}"));
                    scalars += 1;
                }
            }
        }
        if has_state {
            let update = self.state_update.as_ref().expect("has_state implies an update");
            body.push(format!("    z[i] = {};", update.render(vecs, scalars, has_state)));
        }

        let mut source = String::new();
        for kind in self.custom_reductions() {
            source.push_str(kind.definition().expect("custom reduction"));
            source.push('\n');
        }
        let state_decl = if has_state { format!(", state float z[{n}]") } else { String::new() };
        let decl_list =
            if decls.is_empty() { String::new() } else { format!(", {}", decls.join(", ")) };
        match self.wrap {
            None => {
                source.push_str(&format!(
                    "main(input float x[{n}], input float y[{n}]{state_decl}{decl_list}) {{\n    index i[0:{m}];\n{}\n}}\n",
                    body.join("\n"),
                ));
            }
            Some(domain) => {
                // Positional call argument names, mirroring the decl order.
                let mut call_args = vec!["x".to_string(), "y".to_string()];
                let (mut vi, mut si) = (0usize, 0usize);
                for stmt in &self.stmts {
                    match stmt {
                        PStmt::Map(..) => {
                            call_args.push(format!("t{vi}"));
                            vi += 1;
                        }
                        PStmt::Reduce(..) => {
                            call_args.push(format!("s{si}"));
                            si += 1;
                        }
                    }
                }
                source.push_str(&format!(
                    "kern(input float x[{n}], input float y[{n}]{decl_list}) {{\n    index i[0:{m}];\n{}\n}}\n",
                    body.join("\n"),
                ));
                source.push_str(&format!(
                    "main(input float x[{n}], input float y[{n}]{decl_list}) {{\n    {}: kern({});\n}}\n",
                    domain.keyword(),
                    call_args.join(", "),
                ));
            }
        }
        source
    }

    /// Directly evaluates one invocation. `z` is the pre-invocation state
    /// (ignored unless the program has state).
    pub fn eval(&self, x: &[f64], y: &[f64], z: Option<&[f64]>) -> EvalStep {
        let mut stable = true;
        let mut env = Env {
            x,
            y,
            z: if self.has_state() { z } else { None },
            vecs: Vec::new(),
            scalars: Vec::new(),
        };
        for stmt in &self.stmts {
            match stmt {
                PStmt::Map(e, _) => {
                    let v: Vec<f64> = (0..self.n).map(|i| e.eval(&env, i, &mut stable)).collect();
                    env.vecs.push(v);
                }
                PStmt::Reduce(kind, e, _) => {
                    let mut acc: Option<f64> = None;
                    for i in 0..self.n {
                        let elem = e.eval(&env, i, &mut stable);
                        acc = Some(match acc {
                            None => elem,
                            Some(a) => kind.combine(a, elem),
                        });
                    }
                    let v = acc.unwrap_or(0.0);
                    if !v.is_finite() || v.abs() > MAGNITUDE_GUARD {
                        stable = false;
                    }
                    env.scalars.push(v);
                }
            }
        }
        let state_next = if self.has_state() {
            self.state_update
                .as_ref()
                .map(|update| (0..self.n).map(|i| update.eval(&env, i, &mut stable)).collect())
        } else {
            None
        };
        EvalStep { vecs: env.vecs, scalars: env.scalars, state_next, stable }
    }

    /// Total statement count (body plus the state update), the measure the
    /// minimizer reports and the sentinel check bounds.
    pub fn stmt_count(&self) -> usize {
        self.stmts.len() + usize::from(self.has_state())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(v: u8) -> Box<PExpr> {
        Box::new(PExpr::Var(v))
    }

    #[test]
    fn rendering_wraps_references() {
        let p = PProgram {
            n: 4,
            stmts: vec![
                PStmt::Map(PExpr::Add(var(0), var(1)), None),
                PStmt::Map(PExpr::Var(2), Some(Domain::DataAnalytics)),
            ],
            state_update: None,
            wrap: None,
        };
        let src = p.to_pmlang();
        assert!(src.contains("t0[i] = (x[i] + y[i]);"), "{src}");
        assert!(src.contains("DA: t1[i] = t0[i];"), "{src}");
        pmlang::frontend(&src).expect("model renders valid PMLang");
    }

    #[test]
    fn state_program_renders_and_steps() {
        let p = PProgram {
            n: 3,
            stmts: vec![PStmt::Reduce(RedKind::Sum, PExpr::State, None)],
            state_update: Some(PExpr::Add(Box::new(PExpr::State), var(0))),
            wrap: None,
        };
        let src = p.to_pmlang();
        assert!(src.contains("state float z[3]"), "{src}");
        pmlang::frontend(&src).expect("state model renders valid PMLang");
        let step = p.eval(&[1.0, 2.0, 3.0], &[0.0; 3], Some(&[1.0, 1.0, 1.0]));
        assert_eq!(step.scalars, vec![3.0]);
        assert_eq!(step.state_next, Some(vec![2.0, 3.0, 4.0]));
        assert!(step.stable);
    }

    #[test]
    fn wrapped_program_renders_component_call() {
        let p = PProgram {
            n: 4,
            stmts: vec![
                PStmt::Map(PExpr::Mul(var(0), var(1)), None),
                PStmt::Reduce(RedKind::Rss, PExpr::Var(2), None),
            ],
            state_update: None,
            wrap: Some(Domain::DataAnalytics),
        };
        let src = p.to_pmlang();
        assert!(src.starts_with("reduction rss"), "{src}");
        assert!(src.contains("DA: kern(x, y, t0, s0);"), "{src}");
        pmlang::frontend(&src).expect("wrapped model renders valid PMLang");
    }

    #[test]
    fn instability_is_flagged_near_select_boundaries() {
        let p = PProgram {
            n: 2,
            stmts: vec![PStmt::Map(PExpr::Select(Box::new(PExpr::Lit(0.0)), var(0), var(1)), None)],
            state_update: None,
            wrap: None,
        };
        let step = p.eval(&[1.0, 1.0], &[2.0, 2.0], None);
        assert!(!step.stable);
    }

    #[test]
    fn custom_reductions_fold_like_the_interpreter() {
        let p = PProgram {
            n: 4,
            stmts: vec![PStmt::Reduce(RedKind::Rss, PExpr::Var(0), None)],
            state_update: None,
            wrap: None,
        };
        let step = p.eval(&[1.0, 2.0, 2.0, 4.0], &[0.0; 4], None);
        assert!((step.scalars[0] - 25.0f64.sqrt()).abs() < 1e-12);
    }
}
