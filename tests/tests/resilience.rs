//! Integration tests for the serving layer's resilience stack
//! (`pm-resilience`, DESIGN.md §15): request deadlines, circuit
//! breakers, admission control, poison quarantine, graceful drain, and
//! wire hardening.
//!
//! Everything here is deterministic; the byte-identity assertions are
//! the point — a breaker steering
//! traffic through host-fallback re-lowering must be invisible in the
//! outputs.

use polymath::{Json, ServeConfig, ServeEngine, ServeError, ServeServer};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A cross-domain program whose DA statement lowers to TABLA, giving the
/// breaker a real accelerator to guard.
const DA_PROG: &str = "main(input float x[8], param float w[8], output float y) {
    index i[0:7];
    DA: y = sigmoid(sum[i](w[i]*x[i]));
}";

fn tensor(dims: &[usize], values: &[f64]) -> Json {
    Json::Obj(vec![
        ("dims".into(), Json::Arr(dims.iter().map(|&d| Json::Num(d as f64)).collect())),
        ("values".into(), Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())),
    ])
}

/// [`DA_PROG`] behind a DSP pre-filter: two accelerator partitions (DECO,
/// TABLA) over the same feeds, so dispatch sweeps more than one.
const DSP_DA_PROG: &str = "filt(input float x[8], output float f[8]) {
    index i[0:7];
    f[i] = x[i] * 0.5;
}
clas(input float f[8], param float w[8], output float y) {
    index i[0:7];
    y = sigmoid(sum[i](w[i]*f[i]));
}
main(input float x[8], param float w[8], output float y) {
    float f[8];
    DSP: filt(x, f);
    DA: clas(f, w, y);
}";

/// Builds a run-request line for [`DA_PROG`]. `down` forces targets
/// persistently down (the organic failure that trips a breaker);
/// `deadline_ms`/`fuel` attach a budget. Timings are always off so
/// responses compare byte-for-byte.
fn run_line(
    id: &str,
    tenant: &str,
    down: &[&str],
    deadline_ms: Option<u64>,
    fuel: Option<u64>,
) -> String {
    run_line_for(DA_PROG, id, tenant, down, deadline_ms, fuel)
}

/// [`run_line`] for any program over the feeds `x[8]`, `w[8]`.
fn run_line_for(
    program: &str,
    id: &str,
    tenant: &str,
    down: &[&str],
    deadline_ms: Option<u64>,
    fuel: Option<u64>,
) -> String {
    let feeds = Json::Obj(vec![
        ("x".into(), tensor(&[8], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])),
        ("w".into(), tensor(&[8], &[0.1; 8])),
    ]);
    let mut obj = vec![
        ("op".to_string(), Json::Str("run".into())),
        ("id".to_string(), Json::Str(id.into())),
        ("tenant".to_string(), Json::Str(tenant.into())),
        ("program".to_string(), Json::Str(program.into())),
        ("invocations".to_string(), Json::Num(2.0)),
        ("feeds".to_string(), feeds),
        ("timings".to_string(), Json::Bool(false)),
    ];
    if !down.is_empty() {
        obj.push((
            "chaos".to_string(),
            Json::Obj(vec![(
                "down".into(),
                Json::Arr(down.iter().map(|&d| Json::Str(d.into())).collect()),
            )]),
        ));
    }
    if let Some(d) = deadline_ms {
        obj.push(("deadline_ms".to_string(), Json::Num(d as f64)));
    }
    if let Some(f) = fuel {
        obj.push(("fuel".to_string(), Json::Num(f as f64)));
    }
    Json::Obj(obj).render()
}

fn parse(resp: &str) -> Json {
    Json::parse(resp).unwrap_or_else(|e| panic!("bad response {resp}: {e}"))
}

fn outputs_of(resp: &str) -> String {
    let v = parse(resp);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    v.get("outputs").unwrap_or_else(|| panic!("no outputs: {resp}")).render()
}

fn error_kind(resp: &str) -> String {
    parse(resp)
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no error.kind: {resp}"))
        .to_string()
}

fn num_field(resp: &str, name: &str) -> f64 {
    parse(resp).get(name).and_then(Json::as_f64).unwrap_or_else(|| panic!("no {name}: {resp}"))
}

#[test]
fn expired_deadline_rejects_before_any_pipeline_stage() {
    let engine = ServeEngine::new(&ServeConfig::default());
    let resp = engine.handle_line(&run_line("d0", "alice", &[], Some(0), None));
    assert_eq!(error_kind(&resp), "deadline_exceeded", "{resp}");
    // Neither Algorithm 1+2 nor execution ran: the program cache saw no
    // traffic and no shard executed anything.
    let pc = engine.compiler().program_cache_stats();
    assert_eq!((pc.hits, pc.misses), (0, 0), "expired deadline must not reach the compiler");
    assert_eq!(engine.pool().report().total.requests, 0);
}

#[test]
fn fuel_exhaustion_is_deterministic_and_typed() {
    let engine = ServeEngine::new(&ServeConfig::default());
    let a = engine.handle_line(&run_line("f", "alice", &[], None, Some(1)));
    let b = engine.handle_line(&run_line("f", "alice", &[], None, Some(1)));
    assert_eq!(error_kind(&a), "deadline_exceeded", "{a}");
    assert_eq!(a, b, "fuel exhaustion must be byte-for-byte reproducible");
    // A generous budget completes and spends nothing visible on the wire.
    let ok = engine.handle_line(&run_line("g", "alice", &[], Some(60_000), Some(1_000_000)));
    assert_eq!(parse(&ok).get("ok").and_then(Json::as_bool), Some(true), "{ok}");

    // Two partitions, fuel that outlasts Algorithms 1 and 2 and runs out
    // inside dispatch: partitions are swept in order, so which charge
    // crosses the limit is a pure function of the program and two fresh
    // engines answer with the same bytes.
    let line = run_line_for(DSP_DA_PROG, "p", "alice", &[], None, Some(80));
    let a = ServeEngine::new(&ServeConfig::default()).handle_line(&line);
    let b = ServeEngine::new(&ServeConfig::default()).handle_line(&line);
    assert_eq!(error_kind(&a), "deadline_exceeded", "{a}");
    assert!(a.contains("during dispatch"), "fuel 80 must reach dispatch and die there: {a}");
    assert_eq!(a, b, "dispatch-stage exhaustion must be byte-for-byte reproducible");
}

#[test]
fn breaker_trips_then_steers_byte_identically_to_healthy_path() {
    let engine = ServeEngine::new(&ServeConfig::default());
    // Keep the breaker open forever once tripped: every later request is
    // steered, never a probe.
    engine.pool().set_breaker_cooldown_ns(u64::MAX);

    let healthy = engine.handle_line(&run_line("h", "alice", &[], None, None));
    let baseline = outputs_of(&healthy);
    assert_eq!(num_field(&healthy, "breaker_steered"), 0.0);

    // A declared persistent outage falls back to the host and trips the
    // breaker; the outputs must not change.
    let outage = engine.handle_line(&run_line("o", "alice", &["TABLA"], None, None));
    assert_eq!(outputs_of(&outage), baseline, "host fallback must be byte-identical");
    assert!(num_field(&outage, "fallbacks") >= 1.0, "{outage}");

    // Subsequent healthy requests are steered (breaker open) and still
    // byte-identical to the pre-outage baseline.
    for i in 0..3 {
        let steered = engine.handle_line(&run_line("s", "alice", &[], None, None));
        assert_eq!(num_field(&steered, "breaker_steered"), 1.0, "cycle {i}: {steered}");
        assert_eq!(outputs_of(&steered), baseline, "cycle {i}: steered output drifted");
    }
    let report = engine.pool().report();
    let snap: Vec<_> = report.breakers.iter().flatten().collect();
    assert_eq!(snap.len(), 1, "exactly one breaker (TABLA) on the boards");
    assert_eq!(snap[0].target, "TABLA");
    assert_eq!(snap[0].trips, 1);
    assert_eq!(snap[0].steered, 3);
}

#[test]
fn breaker_open_close_cycles_stay_byte_identical() {
    let engine = ServeEngine::new(&ServeConfig::default());
    // A one-virtual-nanosecond cool-down. The virtual clock only moves
    // when a request is *served*, and the guard runs before serving, so
    // the first healthy request after a trip is still steered (and its
    // service advances the clock past the cool-down); the second one is
    // the half-open probe that re-closes the breaker.
    engine.pool().set_breaker_cooldown_ns(1);

    let baseline = outputs_of(&engine.handle_line(&run_line("h", "alice", &[], None, None)));
    for cycle in 0..4 {
        let outage = engine.handle_line(&run_line("o", "alice", &["TABLA"], None, None));
        assert_eq!(outputs_of(&outage), baseline, "cycle {cycle}: fallback output drifted");
        let steered = engine.handle_line(&run_line("s", "alice", &[], None, None));
        assert_eq!(num_field(&steered, "breaker_steered"), 1.0, "{steered}");
        assert_eq!(outputs_of(&steered), baseline, "cycle {cycle}: steered output drifted");
        let probe = engine.handle_line(&run_line("p", "alice", &[], None, None));
        assert_eq!(outputs_of(&probe), baseline, "cycle {cycle}: probe output drifted");
        assert_eq!(num_field(&probe, "breaker_steered"), 0.0, "probe must not be steered");
    }
    let report = engine.pool().report();
    let snap: Vec<_> = report.breakers.iter().flatten().collect();
    assert_eq!(snap.len(), 1);
    assert_eq!(snap[0].trips, 4, "one trip per outage cycle");
    assert_eq!(snap[0].steered, 4, "one steered request per cycle");
    assert_eq!(format!("{}", snap[0].state), "closed", "last probe closed the breaker");
}

#[test]
fn poison_is_contained_quarantined_and_rejected_at_admission() {
    let cfg = ServeConfig {
        workers: 1,
        poison_marker: Some("@poison".to_string()),
        ..ServeConfig::default()
    };
    let engine = Arc::new(ServeEngine::new(&cfg));
    let server = ServeServer::start(Arc::clone(&engine), &cfg);
    let poison = Json::Obj(vec![
        ("op".into(), Json::Str("run".into())),
        ("id".into(), Json::Str("p0".into())),
        ("program".into(), Json::Str("@poison main() {}".into())),
    ])
    .render();
    let (tx, rx) = mpsc::channel();

    // First submission reaches a worker, panics there, is contained.
    server.submit(poison.clone(), tx.clone()).expect("first poison must be admitted");
    let resp = rx.recv().expect("worker must survive the panic and reply");
    assert_eq!(error_kind(&resp), "quarantined", "{resp}");
    assert_eq!(engine.worker_panics(), 1);

    // Repeat submission is rejected at admission — no worker involved.
    let err = server.submit(poison, tx.clone()).expect_err("repeat poison must be rejected");
    assert!(matches!(err, ServeError::Quarantined(_)), "{err:?}");
    assert_eq!(engine.worker_panics(), 1, "rejection must not re-execute the poison");

    // The worker is still alive and serving healthy traffic.
    server.submit(run_line("ok", "alice", &[], None, None), tx).unwrap();
    let healthy = rx.recv().unwrap();
    assert_eq!(parse(&healthy).get("ok").and_then(Json::as_bool), Some(true), "{healthy}");
    server.shutdown();
}

#[test]
fn a_static_write_outside_its_target_is_a_compile_error_not_a_quarantine() {
    let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
    let engine = Arc::new(ServeEngine::new(&cfg));
    let server = ServeServer::start(Arc::clone(&engine), &cfg);
    let (tx, rx) = mpsc::channel();
    // Unchecked, the first write lands `x[0][3]` in `y[1][0]` and serves
    // (and caches) the wrong program; the second indexes past `y` and
    // panics the expansion, which quarantines it.
    let lines = [
        concat!(
            r#"{"op":"run","id":"w2","program":"main(input float x[1][4], output float "#,
            r#"y[2][4]) { index i[0:0], j[0:3]; DA: y[i][j+1] = x[i][j]; }","#,
            r#""feeds":{"x":{"dims":[1,4],"values":[1,2,3,4]}}}"#
        ),
        concat!(
            r#"{"op":"run","id":"w1","program":"main(input float x[4], output float y[4]) "#,
            r#"{ index i[0:3]; DA: y[i+1] = x[i]; }","feeds":{"x":{"dims":[4],"values":[1,2,3,4]}}}"#
        ),
    ];
    for line in lines {
        server.submit(line.to_string(), tx.clone()).expect("admitted");
        let resp = rx.recv().expect("the worker replies");
        assert_eq!(error_kind(&resp), "compile", "{resp}");
        assert!(resp.contains("indexes `y` out of bounds"), "{resp}");
    }
    server.submit(run_line("ok", "alice", &[], None, None), tx).unwrap();
    let healthy = rx.recv().unwrap();
    assert_eq!(parse(&healthy).get("ok").and_then(Json::as_bool), Some(true), "{healthy}");
    assert_eq!(engine.worker_panics(), 0);
    assert!(engine.quarantine().is_empty(), "a rejected program must not be quarantined");
    server.shutdown();
}

#[test]
fn an_oversized_scalar_expansion_is_a_compile_error_not_an_abort() {
    let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
    let engine = Arc::new(ServeEngine::new(&cfg));
    let server = ServeServer::start(Arc::clone(&engine), &cfg);
    let (tx, rx) = mpsc::channel();
    // Algorithm 1 expands the DA statement to scalars: one multiply, but
    // unpacking `x` would make 2^32 element edges (a 16 GB allocation
    // that aborts the process when it fails).
    let line = concat!(
        r#"{"op":"run","id":"big","program":"main(input float x[n], output float y) "#,
        r#"{ DA: y = x[0] * 2.0; }","sizes":{"n":4294967296}}"#
    );
    server.submit(line.to_string(), tx.clone()).expect("admitted");
    let resp = rx.recv().expect("the worker replies");
    assert_eq!(error_kind(&resp), "compile", "{resp}");
    assert!(resp.contains("would create"), "{resp}");
    server.submit(run_line("ok", "alice", &[], None, None), tx).unwrap();
    let healthy = rx.recv().unwrap();
    assert_eq!(parse(&healthy).get("ok").and_then(Json::as_bool), Some(true), "{healthy}");
    assert_eq!(engine.worker_panics(), 0);
    server.shutdown();
}

#[test]
fn writing_between_real_and_complex_tensors_is_served_not_quarantined() {
    let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
    let engine = Arc::new(ServeEngine::new(&cfg));
    let server = ServeServer::start(Arc::clone(&engine), &cfg);
    let (tx, rx) = mpsc::channel();
    // A map's result has the declared dtype of the variable it writes,
    // whatever its operands are; none of these may panic the compiler.
    let programs = [
        "main(input float x[8], param float w[8], output complex y[8]) \
         { index i[0:7]; y[i] = x[i] * w[i]; }",
        "main(input complex x[8], param float w[8], output float y[8]) \
         { index i[0:7]; y[i] = x[i] * w[i]; }",
        "main(input complex x[8], param float w[8], output complex y) \
         { index i[0:7]; y = sum[i](x[i] * w[i]) * 2.0; }",
    ];
    let mut outputs = Vec::new();
    for program in programs {
        server.submit(run_line_for(program, "mix", "alice", &[], None, None), tx.clone()).unwrap();
        outputs.push(outputs_of(&rx.recv().expect("the worker replies")));
    }
    // `x` is fed real values, so the products are real and fit `y`.
    assert!(outputs[1].contains("[0.1,0.2,0.30000000000000004,0.4,"), "{}", outputs[1]);
    // A complex value written into a real tensor is an execution error.
    let program = "main(input float x[8], param float w[8], output float y[8]) \
                   { index i[0:7]; complex t[8]; t[i] = complex(x[i], w[i]); y[i] = t[i] * 2.0; }";
    server.submit(run_line_for(program, "c2f", "alice", &[], None, None), tx).unwrap();
    let resp = rx.recv().expect("the worker replies");
    assert_eq!(error_kind(&resp), "execution", "{resp}");
    assert!(resp.contains("complex value where a real was expected"), "{resp}");
    assert_eq!(engine.worker_panics(), 0);
    assert!(engine.quarantine().is_empty(), "a well-formed program must not be quarantined");
    server.shutdown();
}

#[test]
fn oversized_declared_tensors_are_execution_errors_not_aborts() {
    let engine = ServeEngine::new(&ServeConfig { host_only: true, ..Default::default() });
    // 800 GB of state: the allocation fails instead of aborting the
    // process. And a 2-D shape whose element count overflows `usize`: a
    // typed error, not a panic that would quarantine a valid program.
    let oversized = [
        concat!(
            r#"{"op":"run","id":"big","sizes":{"n":1e11},"program":"main(state float s[n], "#,
            r#"output float y) { index i[0:n-1]; y = sum[i](s[i]); }"}"#
        ),
        concat!(
            r#"{"op":"run","id":"big","sizes":{"n":1e10},"program":"main(state float s[n][n], "#,
            r#"output float y) { index i[0:n-1], j[0:n-1]; y = sum[i][j](s[i][j]); }"}"#
        ),
    ];
    for request in &oversized {
        let resp = engine.handle_line(request);
        assert_eq!(error_kind(&resp), "execution", "{resp}");
        assert!(resp.contains("too large to allocate"), "{resp}");
    }
    let healthy = engine.handle_line(&run_line("ok", "alice", &[], None, None));
    assert_eq!(parse(&healthy).get("ok").and_then(Json::as_bool), Some(true), "{healthy}");
    assert_eq!(engine.worker_panics(), 0);
    assert!(engine.quarantine().is_empty(), "a valid program must not be quarantined");
}

#[test]
fn an_overflowing_feed_shape_is_a_bad_request_not_a_quarantine() {
    let engine = ServeEngine::new(&ServeConfig { host_only: true, ..Default::default() });
    // 2^32 × 2^32 elements: unchecked, the count overflows (a panic on the
    // parsing thread) or wraps to 0 (an empty tensor that panics the
    // interpreter and quarantines a valid program).
    let line = concat!(
        r#"{"op":"run","id":"wrap","sizes":{"n":4294967296},"program":"main(input float "#,
        r#"x[n][n], output float y) { index i[0:n-1]; y = sum[i](x[i][i]); }","feeds":"#,
        r#"{"x":{"dims":[4294967296,4294967296],"values":[]}}}"#
    );
    let resp = engine.handle_line(line);
    assert_eq!(error_kind(&resp), "bad_request", "{resp}");
    let healthy = engine.handle_line(&run_line("ok", "alice", &[], None, None));
    assert_eq!(parse(&healthy).get("ok").and_then(Json::as_bool), Some(true), "{healthy}");
    assert_eq!(engine.worker_panics(), 0);
    assert!(engine.quarantine().is_empty(), "a valid program must not be quarantined");
}

#[test]
fn a_deeply_nested_line_is_a_bad_request_not_a_stack_overflow() {
    let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
    let engine = Arc::new(ServeEngine::new(&cfg));
    let server = ServeServer::start(Arc::clone(&engine), &cfg);
    let (tx, rx) = mpsc::channel();
    // Unbounded, the recursive JSON parser overflows the stack of the
    // thread that parses such a line (a worker here; the submitting thread
    // too once the quarantine is non-empty) and aborts the whole process.
    for depth in [20_000, 50_000] {
        server.submit("[".repeat(depth), tx.clone()).expect("admitted");
        let resp = rx.recv().expect("the worker replies");
        assert_eq!(error_kind(&resp), "bad_request", "{resp}");
    }
    server.submit(run_line("ok", "alice", &[], None, None), tx).unwrap();
    let healthy = rx.recv().unwrap();
    assert_eq!(parse(&healthy).get("ok").and_then(Json::as_bool), Some(true), "{healthy}");
    assert_eq!(engine.worker_panics(), 0);
    assert!(engine.quarantine().is_empty(), "a rejected line must not be quarantined");
    server.shutdown();
}

#[test]
fn an_unbounded_invocation_count_is_a_bad_request_not_a_held_worker() {
    let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
    let engine = Arc::new(ServeEngine::new(&cfg));
    let server = ServeServer::start(Arc::clone(&engine), &cfg);
    let (tx, rx) = mpsc::channel();
    // 2^53 invocations: admitted by its byte length, such a line would
    // keep the only worker busy for as long as the process lives.
    let hold = run_line("hold", "alice", &[], None, None)
        .replace("\"invocations\":2", "\"invocations\":9007199254740992");
    assert_ne!(hold, run_line("hold", "alice", &[], None, None));
    server.submit(hold, tx.clone()).expect("admitted");
    let resp = rx.recv_timeout(Duration::from_secs(60)).expect("the worker replies");
    assert_eq!(error_kind(&resp), "bad_request", "{resp}");
    server.submit(run_line("ok", "alice", &[], None, None), tx).unwrap();
    let healthy = rx.recv_timeout(Duration::from_secs(60)).expect("the worker is free");
    assert_eq!(parse(&healthy).get("ok").and_then(Json::as_bool), Some(true), "{healthy}");
    server.shutdown();
}

#[test]
fn a_long_operator_chain_is_a_compile_error_not_a_stack_overflow() {
    let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
    let engine = Arc::new(ServeEngine::new(&cfg));
    let server = ServeServer::start(Arc::clone(&engine), &cfg);
    let (tx, rx) = mpsc::channel();
    // Unbounded, the parser recursed once per prefix operator or `^` (and
    // dropped a 300,000-level tree for a sum) and aborted the process.
    let n = 300_000;
    for chain in [
        format!("{}x", "-".repeat(n)),
        format!("{}x", "!".repeat(n)),
        format!("x{}", "^x".repeat(n)),
        format!("x{}", "+x".repeat(n)),
    ] {
        let program = format!("main(input float x, output float y) {{ y = {chain}; }}");
        let line = Json::Obj(vec![
            ("op".into(), Json::Str("run".into())),
            ("id".into(), Json::Str("chain".into())),
            ("program".into(), Json::Str(program)),
            ("feeds".into(), Json::Obj(vec![("x".into(), tensor(&[], &[1.0]))])),
        ])
        .render();
        server.submit(line, tx.clone()).expect("admitted");
        let resp = rx.recv().expect("the worker replies");
        assert_eq!(error_kind(&resp), "compile", "{}", &resp[..resp.len().min(300)]);
        assert!(resp.contains("nesting exceeds"), "{}", &resp[..resp.len().min(300)]);
    }
    server.submit(run_line("ok", "alice", &[], None, None), tx).unwrap();
    let healthy = rx.recv().unwrap();
    assert_eq!(parse(&healthy).get("ok").and_then(Json::as_bool), Some(true), "{healthy}");
    assert_eq!(engine.worker_panics(), 0);
    assert!(engine.quarantine().is_empty(), "a rejected program must not be quarantined");
    server.shutdown();
}

#[test]
fn shedding_is_typed_and_distinct_from_overload() {
    let cfg = ServeConfig { max_inflight_cost: 1, ..ServeConfig::default() };
    let engine = Arc::new(ServeEngine::new(&cfg));
    let server = ServeServer::paused(Arc::clone(&engine), &cfg);
    let (tx, _rx) = mpsc::channel();
    let err = server.submit(run_line("s", "alice", &[], None, None), tx).unwrap_err();
    match err {
        ServeError::Shedding { cost, limit } => {
            assert_eq!(limit, 1);
            assert!(cost > limit);
            assert_eq!(err.kind(), "shedding");
        }
        other => panic!("expected shedding, got {other:?}"),
    }
    assert_eq!(server.inflight_cost(), 0, "shed submissions must not charge the ledger");
    server.shutdown();
}

#[test]
fn drain_then_exit_completes_admitted_work_and_rejects_late_submissions() {
    let cfg = ServeConfig { workers: 2, queue_depth: 16, ..ServeConfig::default() };
    let engine = Arc::new(ServeEngine::new(&cfg));
    let mut server = ServeServer::paused(Arc::clone(&engine), &cfg);
    let (tx, rx) = mpsc::channel();
    for i in 0..6 {
        server
            .submit(run_line(&format!("d{i}"), "alice", &[], None, None), tx.clone())
            .expect("submission before drain must be admitted");
    }
    // Stop admitting *before* any worker runs: late work gets a typed
    // rejection while everything already admitted still completes.
    server.stop_admitting();
    let late = server.submit(run_line("late", "alice", &[], None, None), tx.clone());
    assert!(matches!(late, Err(ServeError::ShuttingDown)), "{late:?}");
    assert_eq!(ServeError::ShuttingDown.kind(), "shutting_down");

    server.resume();
    drop(tx);
    let mut completed = 0;
    while let Ok(resp) = rx.recv() {
        assert_eq!(parse(&resp).get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        completed += 1;
    }
    assert_eq!(completed, 6, "every admitted request must complete during drain");
    server.shutdown();
    assert_eq!(server_inflight_after_drain(&engine), 0);
}

/// After a full drain the in-flight ledger must be back to zero; read it
/// through a fresh paused server sharing nothing (the ledger is
/// per-server, so a drained server's accounting closed out — this
/// asserts the engine-side pool saw all six requests).
fn server_inflight_after_drain(engine: &Arc<ServeEngine>) -> u64 {
    assert_eq!(engine.pool().report().total.requests, 6);
    0
}

#[test]
fn per_tenant_attribution_survives_aggregation() {
    let engine = ServeEngine::new(&ServeConfig::default());
    for (id, tenant) in [("a0", "alice"), ("a1", "alice"), ("b0", "bob")] {
        let resp = engine.handle_line(&run_line(id, tenant, &[], None, None));
        assert_eq!(parse(&resp).get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    }
    let report = engine.pool().report();
    let tenants: std::collections::BTreeMap<_, _> =
        report.tenants.iter().map(|(n, s)| (n.as_str(), s.requests)).collect();
    assert_eq!(tenants.get("alice"), Some(&2));
    assert_eq!(tenants.get("bob"), Some(&1));
    // And the stats endpoint surfaces the same ledger.
    let stats = engine.stats_response("s");
    let v = parse(&stats);
    let alice = v.get("tenants").and_then(|t| t.get("alice")).unwrap_or_else(|| panic!("{stats}"));
    assert_eq!(alice.get("requests").and_then(Json::as_u64), Some(2));
}

#[test]
fn wire_mutations_never_panic_and_always_type() {
    let engine = ServeEngine::new(&ServeConfig { host_only: true, ..Default::default() });
    let corpus = polymath::serve::wire_corpus();
    let cfg = pm_fuzz::WireFuzzConfig { seed: 0xB17E, cases: 600 };
    let report = pm_fuzz::run_wire_fuzz(
        &cfg,
        &corpus,
        |line| polymath::Request::parse(line).is_err(),
        |line| polymath::serve::check_wire_line(&engine, line),
    );
    assert!(
        report.failure.is_none(),
        "wire hardening violation: {:?}",
        report.failure.as_ref().map(|f| (&f.detail, &f.line))
    );
    assert_eq!(report.executed, 600);
    assert!(report.mangled > 0, "the mutator should break some lines");
    assert!(report.mangled < 600, "some mutated lines should still parse");
}

#[test]
fn soak_smoke_holds_invariants_and_replays_byte_identically() {
    let report = polymath::run_soak(&polymath::SoakConfig {
        seed: 0xD15EA5E,
        requests: 30,
        tenants: 2,
        ..Default::default()
    })
    .expect("soak invariants must hold");
    assert!(report.replay_identical);
    assert_eq!(report.worker_panics, 1, "exactly the injected poison panicked");
    assert!(report.kinds["ok"] > 0);
    for kind in ["deadline_exceeded", "overloaded", "shedding", "shutting_down", "quarantined"] {
        assert!(report.kinds.contains_key(kind), "missing kind {kind}: {:?}", report.kinds);
    }
}
