//! The differential executor: one generated program, every compilation
//! route, one oracle.
//!
//! Each case is evaluated by the model's own Rust evaluator (the oracle)
//! and then run through every route the stack offers — the interpreter on
//! the unoptimized srDFG, the interpreter after the pass pipeline at opt
//! levels 0/1/2 (plus the optional fusion pass), and the fully lowered /
//! partitioned program for the host-only and cross-domain target
//! assignments. All outputs (including multi-invocation `state`
//! trajectories) must agree within float tolerance, and every lowered
//! route's Algorithm-2 schedule must pass `pm_lower::check_schedule`
//! (marshalled, executable, placed on supported targets). Any divergence,
//! validation error, or panic is reported with the route that produced it.
//!
//! Two analyzer cross-checks ride along: the `analyze@graph` route fails
//! when `pm-analyze` reports an error-severity finding on a valid
//! generated program (a static-analysis false positive), and programs
//! `pm_analyze::certify_bounds` certifies in-bounds must never trap in
//! the interpreter — a trap under a certificate is attributed to the
//! analyzer (`analyze@certified`), not the generator.

use crate::model::PProgram;
use pm_accel::{cross_domain_targets, host_targets, ChaosConfig, ChaosProfile, Soc};
use pm_lower::{check_schedule, CompiledProgram, TargetMap};
use pm_passes::{lower_and_compile, Pass, PassManager, PassStats};
use srdfg::{Bindings, Budget, KExpr, Machine, NodeKind, SrDfg, TemplateCache, Tensor};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Differential-run knobs.
#[derive(Debug, Clone, Default)]
pub struct DiffConfig {
    /// Applies the deliberate miscompilation ([`SabotagePass`]) after the
    /// optimizer — the sentinel that proves the harness detects bugs.
    pub sabotage: bool,
    /// Adds the chaos route: the cross-domain compilation is dispatched
    /// through the resilient SoC runtime under this fault-injection
    /// profile, and the surviving schedule (original or host-fallback
    /// re-lowered) must still match the oracle. Any dispatch error is a
    /// structured route failure — never a panic.
    pub chaos: Option<ChaosProfile>,
    /// Base seed of the chaos fault schedule (the campaign driver mixes
    /// the case index in, so every case draws an independent schedule).
    pub chaos_seed: u64,
}

/// Relative float tolerance between routes and the oracle.
const TOLERANCE: f64 = 1e-6;

/// One route's divergence, crash, or structural failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which route failed (e.g. `interp@O2`, `lowered@cross-domain`).
    pub route: String,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.route, self.detail)
    }
}

/// Outcome of one differential case.
#[derive(Debug, Clone)]
pub enum CaseResult {
    /// Every route agreed with the oracle.
    Pass,
    /// The oracle flagged the case as numerically unstable (discontinuity
    /// boundary or magnitude overflow); skipped, not counted as a bug.
    Unstable,
    /// A route diverged, crashed, or produced an invalid program.
    Fail(Failure),
}

/// The deliberately miscompiling pass behind the `--sabotage` sentinel:
/// flips the first `+` into a `-` inside the first map/reduce kernel it
/// finds. Semantically wrong, structurally pristine — exactly the class of
/// bug only differential execution catches.
pub struct SabotagePass;

fn flip_first_add(e: &mut KExpr) -> bool {
    if let KExpr::Binary(op, _, _) = e {
        if *op == pmlang::BinOp::Add {
            *op = pmlang::BinOp::Sub;
            return true;
        }
    }
    match e {
        KExpr::Const(_) | KExpr::Idx(_) | KExpr::Arg(_) => false,
        KExpr::Operand { indices, .. } => indices.iter_mut().any(flip_first_add),
        KExpr::Unary(_, a) => flip_first_add(a),
        KExpr::Binary(_, a, b) => flip_first_add(a) || flip_first_add(b),
        KExpr::Select(c, a, b) => flip_first_add(c) || flip_first_add(a) || flip_first_add(b),
        KExpr::Call(_, args) => args.iter_mut().any(flip_first_add),
    }
}

impl Pass for SabotagePass {
    fn name(&self) -> &'static str {
        "sabotage"
    }

    fn run_on_graph(&self, graph: &mut SrDfg) -> PassStats {
        for id in graph.node_ids().collect::<Vec<_>>() {
            let node = graph.node_mut(id);
            // Copy-on-write: sabotage must not reach sibling instances
            // sharing the payload record, so clone, flip, build a new record.
            let flipped = match &mut node.kind {
                NodeKind::Map(m) => {
                    let mut owned = m.get().clone();
                    let hit = flip_first_add(&mut owned.kernel);
                    if hit {
                        *m = srdfg::Consed::new(owned);
                    }
                    hit
                }
                NodeKind::Reduce(r) => {
                    let mut owned = r.get().clone();
                    let hit = flip_first_add(&mut owned.body);
                    if hit {
                        *r = srdfg::Consed::new(owned);
                    }
                    hit
                }
                _ => continue,
            };
            if flipped {
                return PassStats { changed: true, rewrites: 1 };
            }
        }
        PassStats::default()
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOLERANCE * (1.0 + a.abs().max(b.abs()))
}

fn tensor(values: &[f64]) -> Tensor {
    Tensor::from_vec(pmlang::DType::Float, vec![values.len()], values.to_vec()).unwrap()
}

/// The chaos route: dispatch the cross-domain program through the
/// resilient SoC runtime under fault injection, and return the graph of
/// whatever schedule survived (the original, or the host-fallback
/// re-lowering after a persistent outage). The caller then checks that
/// graph against the oracle, so a fault-injected run must either match or
/// surface a structured diagnostic.
fn chaos_route(
    compiled: &CompiledProgram,
    targets: &TargetMap,
    cfg: &DiffConfig,
    profile: ChaosProfile,
) -> Result<Arc<SrDfg>, String> {
    let chaos = ChaosConfig::new(cfg.chaos_seed, profile);
    // The five domain defaults, matching `cross_domain_targets`.
    let outcome = Soc::with(pm_accel::domain_defaults())
        .run_chaos(compiled, &HashMap::new(), &chaos, Some(targets))
        .map_err(|e| format!("chaos dispatch: {e}"))?;
    Ok(Arc::clone(&outcome.relowered.as_ref().unwrap_or(compiled).graph))
}

/// Compiles `graph` for `targets` through the compiler's back half and
/// checks the invariants Algorithm 2 builds into its schedule.
fn lowered_route(graph: SrDfg, targets: &TargetMap) -> Result<CompiledProgram, String> {
    let (compiled, _) =
        lower_and_compile(graph, targets, Some(&TemplateCache::new()), &Budget::unlimited())
            .map_err(|e| e.to_string())?;
    check_schedule(&compiled, targets).map_err(|e| format!("schedule: {e}"))?;
    Ok(compiled)
}

/// Runs `body`, turning a panic anywhere under it into a `panic` route
/// failure.
fn guarded(body: impl FnOnce() -> CaseResult) -> CaseResult {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(result) => result,
        Err(payload) => {
            let detail = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            CaseResult::Fail(Failure { route: "panic".into(), detail })
        }
    }
}

/// The route table: builds `source`, prepares every route's graph and
/// hands each to `check` in order, stopping at the first failure. The
/// first route is always `interp@O0` on the unoptimized graph.
fn check_routes(
    source: &str,
    cfg: &DiffConfig,
    mut check: impl FnMut(Arc<SrDfg>) -> Result<(), String>,
) -> Result<(), Failure> {
    let fail = |route: &str, detail: String| Failure { route: route.into(), detail };
    let (program, _) = pmlang::frontend(source).map_err(|e| fail("frontend", e.to_string()))?;
    let base =
        srdfg::build(&program, &Bindings::default()).map_err(|e| fail("build", e.to_string()))?;
    // A valid program must produce no error-severity static findings —
    // any would be an analyzer false positive.
    if let Some(f) =
        pm_analyze::analyze_graph(&base).iter().find(|f| f.severity == pm_analyze::Severity::Error)
    {
        return Err(fail("analyze@graph", f.to_string()));
    }
    let certified = pm_analyze::certify_bounds(&base).is_ok();

    // The sabotaged graphs also seed the lowered routes, so a miscompile
    // propagates everywhere the real pipeline would carry it.
    let at_opt_level = |level| {
        let mut graph = base.clone();
        PassManager::at_opt_level(level).run(&mut graph);
        if cfg.sabotage {
            SabotagePass.run(&mut graph);
        }
        graph
    };
    let o1 = at_opt_level(1);
    let optimized = at_opt_level(2);
    let mut fused = optimized.clone();
    pm_passes::AlgebraicCombination.run(&mut fused);
    let cross = cross_domain_targets();

    let mut route = |name: &str, graph: Result<Arc<SrDfg>, String>| {
        let graph = graph.map_err(|e| fail(name, e))?;
        srdfg::validate(&graph).map_err(|e| fail(name, format!("validate: {e}")))?;
        check(graph).map_err(|e| {
            // An O0 interpreter trap under an in-bounds certificate is a
            // soundness hole in the analyzer, not a generator artifact
            // (divergence from the oracle stays an interpreter failure).
            if name == "interp@O0" && certified && !e.contains("oracle says") {
                fail("analyze@certified", format!("certified in-bounds, but {e}"))
            } else {
                fail(name, e)
            }
        })
    };
    route("interp@O0", Ok(Arc::new(base)))?;
    route("interp@O1", Ok(Arc::new(o1)))?;
    route("interp@O2", Ok(Arc::new(optimized.clone())))?;
    route("interp@O2+fusion", Ok(Arc::new(fused.clone())))?;
    route("lowered@host", lowered_route(optimized.clone(), &host_targets()).map(|p| p.graph))?;
    // The chaos route dispatches the program this route checked.
    let served = lowered_route(optimized, &cross);
    route("lowered@cross-domain", served.clone().map(|p| p.graph))?;
    route("lowered@cross-domain+fusion", lowered_route(fused, &cross).map(|p| p.graph))?;
    if let (Some(profile), Ok(served)) = (cfg.chaos, &served) {
        route(&format!("chaos@{profile}"), chaos_route(served, &cross, cfg, profile))?;
    }
    Ok(())
}

fn case_result(routes: Result<(), Failure>) -> CaseResult {
    routes.map_or_else(CaseResult::Fail, |()| CaseResult::Pass)
}

/// Differentially checks one program on one input set against the model's
/// own evaluator. Never panics: route panics are caught and reported as
/// failures.
pub fn check_case(
    prog: &PProgram,
    xs: &[f64],
    ys: &[f64],
    z0: &[f64],
    cfg: &DiffConfig,
) -> CaseResult {
    guarded(|| {
        // Oracle: step the model through every invocation.
        let mut reference: Vec<TrajectoryStep> = Vec::with_capacity(prog.invocations());
        let mut z = z0.to_vec();
        for _ in 0..prog.invocations() {
            let step = prog.eval(xs, ys, Some(&z));
            if !step.stable {
                return CaseResult::Unstable;
            }
            let vecs = step.vecs.iter().enumerate().map(|(j, v)| (format!("t{j}"), tensor(v)));
            let scalars = step
                .scalars
                .iter()
                .enumerate()
                .map(|(j, s)| (format!("s{j}"), Tensor::scalar(pmlang::DType::Float, *s)));
            let outputs = vecs.chain(scalars).collect();
            let state = step.state_next.iter().map(|next| ("z".to_string(), tensor(next)));
            reference.push((outputs, state.collect()));
            if let Some(next) = step.state_next {
                z = next;
            }
        }
        let feeds = HashMap::from([("x".to_string(), tensor(xs)), ("y".to_string(), tensor(ys))]);
        let seeds: HashMap<_, _> =
            prog.has_state().then(|| ("z".to_string(), tensor(z0))).into_iter().collect();
        case_result(check_routes(&prog.to_pmlang(), cfg, |graph| {
            let got = record_trajectory(graph, &feeds, &seeds, reference.len())?;
            compare_trajectories(&got, &reference)
        }))
    })
}

/// Compares two real tensors of one shape element-wise within the
/// relative tolerance.
fn compare_tensors(label: &str, got: &Tensor, want: &Tensor) -> Result<(), String> {
    if got.shape() != want.shape() {
        return Err(format!("{label}: shape {:?}, oracle has {:?}", got.shape(), want.shape()));
    }
    let (Some(g), Some(w)) = (got.as_real_slice(), want.as_real_slice()) else {
        return Err(format!("{label}: non-real tensors cannot be compared"));
    };
    for (i, (a, b)) in g.iter().zip(w).enumerate() {
        if !close(*a, *b) {
            let at = if got.rank() == 0 { String::new() } else { format!("[{i}]") };
            return Err(format!("{label}{at} = {a}, oracle says {b}"));
        }
    }
    Ok(())
}

/// Names of the graph's `state` variables (boundary inputs carrying the
/// `state` modifier).
fn state_names(graph: &SrDfg) -> Vec<String> {
    graph
        .boundary_inputs
        .iter()
        .filter(|&&e| graph.edge(e).meta.modifier == srdfg::Modifier::State)
        .map(|&e| graph.edge(e).meta.name.clone())
        .collect()
}

/// One invocation's observables, `(outputs, post-step state snapshot)`, by
/// name — ordered, so the first divergence reported is always the same one.
type TrajectoryStep = (BTreeMap<String, Tensor>, BTreeMap<String, Tensor>);

/// Runs `graph` for `invocations`, recording outputs and the post-step
/// state trajectory.
fn record_trajectory(
    graph: Arc<SrDfg>,
    feeds: &HashMap<String, Tensor>,
    seeds: &HashMap<String, Tensor>,
    invocations: usize,
) -> Result<Vec<TrajectoryStep>, String> {
    let states = state_names(&graph);
    let mut machine = Machine::new(graph);
    for (name, value) in seeds {
        machine.set_state(name, value.clone());
    }
    let mut steps = Vec::with_capacity(invocations);
    for k in 0..invocations {
        let out = machine.invoke(feeds).map_err(|e| format!("invocation {k}: {e}"))?;
        let state = states
            .iter()
            .filter_map(|name| Some((name.clone(), machine.state(name)?.clone())))
            .collect();
        steps.push((out.into_iter().collect(), state));
    }
    Ok(steps)
}

/// Checks one recorded trajectory against the reference, step by step.
fn compare_trajectories(
    got: &[TrajectoryStep],
    reference: &[TrajectoryStep],
) -> Result<(), String> {
    for (k, ((out, state), (ref_out, ref_state))) in got.iter().zip(reference).enumerate() {
        for (name, want) in ref_out {
            let got =
                out.get(name).ok_or_else(|| format!("invocation {k}: missing output `{name}`"))?;
            compare_tensors(&format!("invocation {k}: {name}"), got, want)?;
        }
        for (name, want) in ref_state {
            let got = state
                .get(name)
                .ok_or_else(|| format!("invocation {k}: state `{name}` not persisted"))?;
            compare_tensors(&format!("invocation {k}: state {name}"), got, want)?;
        }
    }
    Ok(())
}

/// Differentially replays arbitrary PMLang source: the interpreter on the
/// unoptimized srDFG is the oracle, and every other route must agree with
/// it. This is the corpus-replay entry point — reproducers are plain `.pm`
/// files with no attached model.
///
/// `feeds` must cover every non-state boundary input; `seeds` optionally
/// pre-loads state variables. State-carrying programs are stepped three
/// times, stateless ones once.
pub fn check_source(
    source: &str,
    feeds: &HashMap<String, Tensor>,
    seeds: &HashMap<String, Tensor>,
    cfg: &DiffConfig,
) -> CaseResult {
    guarded(|| {
        // Oracle: the first route's trajectory (the unoptimized interpreter).
        let mut reference: Option<Vec<TrajectoryStep>> = None;
        case_result(check_routes(source, cfg, |graph| match &reference {
            None => {
                let invocations = if state_names(&graph).is_empty() { 1 } else { 3 };
                reference = Some(record_trajectory(graph, feeds, seeds, invocations)?);
                Ok(())
            }
            Some(reference) => {
                let got = record_trajectory(graph, feeds, seeds, reference.len())?;
                compare_trajectories(&got, reference)
            }
        }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PExpr, PStmt, RedKind};
    use pmlang::Domain;

    fn dot_program() -> PProgram {
        PProgram {
            n: 4,
            stmts: vec![
                PStmt::Map(
                    PExpr::Mul(Box::new(PExpr::Var(0)), Box::new(PExpr::Var(1))),
                    Some(Domain::Dsp),
                ),
                PStmt::Reduce(RedKind::Sum, PExpr::Var(2), None),
            ],
            state_update: None,
            wrap: None,
        }
    }

    #[test]
    fn clean_case_passes_every_route() {
        let prog = dot_program();
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [0.5, -1.0, 2.0, 0.25];
        let result = check_case(&prog, &xs, &ys, &[0.0; 4], &DiffConfig::default());
        assert!(matches!(result, CaseResult::Pass), "{result:?}");
    }

    #[test]
    fn sabotage_is_detected() {
        let prog = PProgram {
            n: 4,
            stmts: vec![PStmt::Map(
                PExpr::Add(Box::new(PExpr::Var(0)), Box::new(PExpr::Var(1))),
                None,
            )],
            state_update: None,
            wrap: None,
        };
        let cfg = DiffConfig { sabotage: true, ..DiffConfig::default() };
        let result = check_case(&prog, &[1.0; 4], &[1.0; 4], &[0.0; 4], &cfg);
        let CaseResult::Fail(f) = result else { panic!("sabotage went undetected: {result:?}") };
        assert!(f.route.starts_with("interp@O"), "{f}");
        // A source replay walks the same table, so it too trips on O1.
        let feeds = ["x", "y"].map(|name| (name.to_string(), tensor(&[1.0; 4])));
        let result = check_source(&prog.to_pmlang(), &feeds.into(), &HashMap::new(), &cfg);
        let CaseResult::Fail(f) = result else { panic!("sabotage went undetected: {result:?}") };
        assert_eq!(f.route, "interp@O1", "{f}");
    }

    #[test]
    fn chaos_routes_match_the_oracle() {
        let prog = dot_program();
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [0.5, -1.0, 2.0, 0.25];
        for profile in [ChaosProfile::Transient, ChaosProfile::Hostile] {
            for seed in 0..8u64 {
                let cfg =
                    DiffConfig { chaos: Some(profile), chaos_seed: seed, ..Default::default() };
                let result = check_case(&prog, &xs, &ys, &[0.0; 4], &cfg);
                assert!(matches!(result, CaseResult::Pass), "{profile} seed {seed}: {result:?}");
            }
        }
    }

    #[test]
    fn chaos_route_survives_stateful_programs() {
        let prog = PProgram {
            n: 3,
            stmts: vec![PStmt::Reduce(RedKind::Sum, PExpr::State, None)],
            state_update: Some(PExpr::Add(Box::new(PExpr::State), Box::new(PExpr::Lit(1.0)))),
            wrap: None,
        };
        let cfg =
            DiffConfig { chaos: Some(ChaosProfile::Hostile), chaos_seed: 5, ..Default::default() };
        let result = check_case(&prog, &[0.0; 3], &[0.0; 3], &[1.0, 2.0, 3.0], &cfg);
        assert!(matches!(result, CaseResult::Pass), "{result:?}");
    }

    #[test]
    fn analyze_route_catches_out_of_bounds_source() {
        let src = "main(input float x[4], output float y[4]) {
             index i[0:3];
             y[i] = x[i + 4];
         }";
        let feeds = HashMap::from([("x".to_string(), tensor(&[1.0, 2.0, 3.0, 4.0]))]);
        let result = check_source(src, &feeds, &HashMap::new(), &DiffConfig::default());
        let CaseResult::Fail(f) = result else { panic!("expected a failure: {result:?}") };
        assert_eq!(f.route, "analyze@graph");
        assert!(f.detail.contains("PM-E102"), "{f}");
    }

    #[test]
    fn generated_programs_survive_the_analyze_routes() {
        // A small seeded sweep: no generated case may trip the analyzer's
        // error findings or the schedule hazard checks.
        let cfg = crate::FuzzConfig { seed: 0xA11A, cases: 40, ..Default::default() };
        let report = crate::run_fuzz(&cfg);
        assert!(report.failure.is_none(), "{:?}", report.failure);
    }

    #[test]
    fn state_persists_across_invocations() {
        let prog = PProgram {
            n: 3,
            stmts: vec![PStmt::Reduce(RedKind::Sum, PExpr::State, None)],
            state_update: Some(PExpr::Add(Box::new(PExpr::State), Box::new(PExpr::Lit(1.0)))),
            wrap: None,
        };
        let result =
            check_case(&prog, &[0.0; 3], &[0.0; 3], &[1.0, 2.0, 3.0], &DiffConfig::default());
        assert!(matches!(result, CaseResult::Pass), "{result:?}");
    }
}
