//! The warm serve path allocates what it allocates today.
//!
//! A request whose program is already in the program cache skips
//! Algorithms 1 and 2: it is parse, frontend, build, mid-end, key,
//! lookup, execution and render. A counting global allocator holds that
//! whole request (`ServeEngine::handle_line`, which runs on the calling
//! thread) to a budget, and `Machine::invoke` on a lowered program to a
//! budget per interpreted node. The budgets are the counts measured when
//! the tests were written: a change that allocates more on the path that
//! serves traffic fails here, and one that allocates less lowers them.

use pm_tests::{allocations, vec_t, Counting};
use polymath::{Compiler, Json, ServeConfig, ServeEngine};
use srdfg::graph::ScalarKind;
use srdfg::{Bindings, Machine, NodeKind, SrDfg, Tensor};
use std::collections::HashMap;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A DSP stage feeding a DA stage: the warm request crosses two
/// accelerators and the DMA between them.
const PROGRAM: &str = "filt(input float x[16], param float h[16], output float y) {
    index i[0:15];
    y = sum[i](h[i]*x[i]);
}
clas(input float f, param float w[2], output float c) {
    c = sigmoid(w[0]*f + w[1]);
}
main(input float sig[16], param float taps[16], param float w[2], output float cls) {
    float feat;
    DSP: filt(sig, taps, feat);
    DA: clas(feat, w, cls);
}";

fn ramp(n: usize) -> Vec<f64> {
    (0..n).map(|i| i as f64 * 0.125 - 1.0).collect()
}

fn tensor_json(values: &[f64]) -> Json {
    Json::Obj(vec![
        ("dims".into(), Json::Arr(vec![Json::Num(values.len() as f64)])),
        ("values".into(), Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())),
    ])
}

/// One `run` line, without the wall-clock `*_us` fields (their digits
/// would move the rendered length, and with it the reallocations).
fn run_line() -> String {
    let feeds = Json::Obj(vec![
        ("sig".into(), tensor_json(&ramp(16))),
        ("taps".into(), tensor_json(&[0.5; 16])),
        ("w".into(), tensor_json(&[1.0, 0.25])),
    ]);
    Json::Obj(vec![
        ("op".into(), Json::Str("run".into())),
        ("id".into(), Json::Str("warm".into())),
        ("program".into(), Json::Str(PROGRAM.into())),
        ("feeds".into(), feeds),
        ("timings".into(), Json::Bool(false)),
    ])
    .render()
}

fn program_cache(resp: &str) -> String {
    let v = Json::parse(resp).unwrap_or_else(|e| panic!("bad response {resp}: {e}"));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    v.get("program_cache").and_then(Json::as_str).unwrap_or_default().to_string()
}

#[test]
fn a_warm_served_request_stays_within_its_allocation_budget() {
    let engine = ServeEngine::new(&ServeConfig::default());
    let line = run_line();
    assert_eq!(program_cache(&engine.handle_line(&line)), "miss");
    // A first hit settles what a shard grows once (its price memo, the
    // tenant's ledger).
    assert_eq!(program_cache(&engine.handle_line(&line)), "hit");

    let (resp, allocs) = allocations(|| engine.handle_line(&line));
    assert_eq!(program_cache(&resp), "hit");
    assert!(allocs <= WARM_REQUEST_BUDGET, "{allocs} allocations for one warm request");
}

/// Allocations of one warm served request of [`PROGRAM`] at the time of
/// writing.
const WARM_REQUEST_BUDGET: u64 = 577;

/// The nodes one invocation of `graph` executes that `pick` selects: its
/// own and, for each component node, those of its body.
fn interpreted(graph: &SrDfg, pick: &impl Fn(&NodeKind) -> bool) -> u64 {
    graph
        .node_ids()
        .map(|id| match &graph.node(id).kind {
            NodeKind::Component(body) => 1 + interpreted(body, pick),
            kind => u64::from(pick(kind)),
        })
        .sum()
}

/// Allocations of the second invocation of `graph` on `feeds` (the first
/// settles what a machine grows once).
fn second_invocation(graph: &SrDfg, feeds: &[(&str, Tensor)]) -> u64 {
    let feeds: HashMap<String, Tensor> =
        feeds.iter().map(|(name, t)| (name.to_string(), t.clone())).collect();
    let mut machine = Machine::new(graph.clone());
    machine.invoke(&feeds).expect("first invocation");
    let (out, allocs) = allocations(|| machine.invoke(&feeds));
    out.expect("second invocation");
    allocs
}

#[test]
fn an_interpreted_node_stays_within_its_allocation_budget() {
    let compiled = Compiler::cross_domain()
        .compile(&pm_workloads::programs::logistic(64), &Bindings::default())
        .expect("compile logistic-64");
    let label = Tensor::scalar(pmlang::DType::Float, 1.0);
    let allocs = second_invocation(&compiled.graph, &[("x", vec_t(ramp(64))), ("label", label)]);
    let nodes = interpreted(&compiled.graph, &|_| true);
    assert!(nodes >= 200, "logistic-64 lowered to only {nodes} nodes");
    assert!(
        allocs * 100 <= NODE_BUDGET_PERCENT * nodes,
        "{allocs} allocations for {nodes} interpreted nodes"
    );
}

/// Allocations per interpreted node of a lowered logistic-64 invocation,
/// in hundredths, at the time of writing (1,666 for 266 nodes).
const NODE_BUDGET_PERCENT: u64 = 627;

#[test]
fn a_lowered_black_scholes_invocation_stays_within_its_allocation_budget() {
    let compiled = Compiler::cross_domain()
        .compile(&pm_workloads::programs::black_scholes(32), &Bindings::default())
        .expect("compile blackscholes-32");
    let shifted = |by: f64, scale: f64| vec_t(ramp(32).iter().map(|v| by + v * scale).collect());
    let scalar = |v| Tensor::scalar(pmlang::DType::Float, v);
    let allocs = second_invocation(
        &compiled.graph,
        &[
            ("spot", shifted(100.0, 4.0)),
            ("strike", shifted(100.0, -4.0)),
            ("vol", shifted(0.3, 0.1)),
            ("rate", scalar(0.05)),
            ("tte", scalar(0.5)),
        ],
    );
    let calls = interpreted(
        &compiled.graph,
        &|kind| matches!(kind, NodeKind::Scalar(s) if matches!(s.get(), ScalarKind::Func(f) if f.arity() > 0)),
    );
    assert!(calls >= 128, "blackscholes-32 lowered to only {calls} builtin calls");
    assert!(allocs <= BLACK_SCHOLES_BUDGET, "{allocs} allocations for one invocation");
}

/// Allocations of one invocation of a lowered blackscholes-32 (720
/// interpreted nodes, 192 of them builtin calls) at the time of writing.
const BLACK_SCHOLES_BUDGET: u64 = 3_671;
