//! Service-level differential tests for `pmc serve` (DESIGN.md §14).
//!
//! Three contracts, all deterministic under fixed seeds:
//!
//! 1. **Cold/warm byte-identity** — a content-addressed program-cache hit
//!    must skip lower+compile entirely and still produce outputs
//!    byte-identical to the cold compile.
//! 2. **Tenant isolation** — one tenant's device-down chaos profile must
//!    not perturb another tenant's results; chaos config is per-request,
//!    never pool state.
//! 3. **Typed overload** — a full admission queue rejects with
//!    [`ServeError::Overloaded`], not a panic or deadlock, and admitted
//!    requests still complete.

use polymath::{Json, ServeConfig, ServeEngine, ServeError, ServeServer};
use std::sync::{mpsc, Arc};

/// A cross-domain program: the DA statement lowers to TABLA, so a
/// device-down profile for TABLA has something to take down.
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

/// Builds a run-request line; `chaos` is `(profile, seed, down)`.
fn run_line(id: &str, tenant: &str, chaos: Option<(&str, u64, &[&str])>) -> String {
    let feeds = Json::Obj(vec![
        ("x".into(), tensor(&[8], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])),
        ("w".into(), tensor(&[8], &[0.1; 8])),
    ]);
    let mut obj = vec![
        ("op".to_string(), Json::Str("run".into())),
        ("id".to_string(), Json::Str(id.into())),
        ("tenant".to_string(), Json::Str(tenant.into())),
        ("program".to_string(), Json::Str(DA_PROG.into())),
        ("invocations".to_string(), Json::Num(2.0)),
        ("feeds".to_string(), feeds),
    ];
    if let Some((profile, seed, down)) = chaos {
        obj.push((
            "chaos".to_string(),
            Json::Obj(vec![
                ("profile".into(), Json::Str(profile.into())),
                ("seed".into(), Json::Num(seed as f64)),
                ("max_retries".into(), Json::Num(2.0)),
                ("down".into(), Json::Arr(down.iter().map(|&d| Json::Str(d.into())).collect())),
            ]),
        ));
    }
    Json::Obj(obj).render()
}

fn outputs_of(resp: &str) -> String {
    let v = Json::parse(resp).unwrap_or_else(|e| panic!("bad response {resp}: {e}"));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    v.get("outputs").unwrap_or_else(|| panic!("no outputs: {resp}")).render()
}

fn field(resp: &str, name: &str) -> f64 {
    Json::parse(resp).unwrap().get(name).and_then(Json::as_f64).unwrap()
}

#[test]
fn warm_cache_hit_is_byte_identical_to_cold_compile() {
    let engine = ServeEngine::new(&ServeConfig::default());
    let cold = engine.handle_line(&run_line("c", "alice", None));
    let warm = engine.handle_line(&run_line("w", "alice", None));

    let cv = Json::parse(&cold).unwrap();
    let wv = Json::parse(&warm).unwrap();
    assert_eq!(cv.get("program_cache").and_then(Json::as_str), Some("miss"), "{cold}");
    assert_eq!(wv.get("program_cache").and_then(Json::as_str), Some("hit"), "{warm}");
    // The hit skipped Algorithm 1 + Algorithm 2 entirely.
    assert_eq!(field(&warm, "lower_us"), 0.0, "{warm}");
    assert_eq!(field(&warm, "compile_us"), 0.0, "{warm}");
    assert!(field(&cold, "lower_us") > 0.0, "{cold}");
    // ... and the outputs are byte-identical.
    assert_eq!(outputs_of(&cold), outputs_of(&warm));

    let stats = engine.compiler().program_cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
}

#[test]
fn tenant_device_down_chaos_does_not_perturb_other_tenants() {
    // Baseline: tenant B served by a quiet engine.
    let quiet = ServeEngine::new(&ServeConfig::default());
    let baseline = outputs_of(&quiet.handle_line(&run_line("b0", "bob", None)));

    // Same request interleaved with tenant A's hostile, TABLA-down
    // traffic on a shared engine.
    let noisy = ServeEngine::new(&ServeConfig { shards: 2, ..Default::default() });
    let chaos = Some(("hostile", 7, &["TABLA"][..]));
    let a1 = noisy.handle_line(&run_line("a1", "alice", chaos));
    let b1 = noisy.handle_line(&run_line("b1", "bob", None));
    let a2 = noisy.handle_line(&run_line("a2", "alice", chaos));
    let b2 = noisy.handle_line(&run_line("b2", "bob", None));

    // Tenant A really lost its accelerator: the run fell back to host.
    for a in [&a1, &a2] {
        assert!(field(a, "fallbacks") >= 1.0, "device-down must fall back: {a}");
    }
    // Tenant B's results are byte-identical to the quiet baseline, cold
    // and warm both.
    assert_eq!(outputs_of(&b1), baseline, "tenant A's chaos leaked into B (cold)");
    assert_eq!(outputs_of(&b2), baseline, "tenant A's chaos leaked into B (warm)");
    // A's fallback output still matches functionally (same math on host).
    assert_eq!(outputs_of(&a1), baseline, "host fallback must preserve semantics");

    // Determinism under the fixed seed: a fresh engine replays A's chaos
    // trajectory exactly.
    let replay = ServeEngine::new(&ServeConfig { shards: 2, ..Default::default() });
    let a1r = replay.handle_line(&run_line("a1", "alice", chaos));
    for key in ["outputs", "faults_injected", "retries", "fallbacks", "virtual_ns"] {
        let (x, y) = (Json::parse(&a1).unwrap(), Json::parse(&a1r).unwrap());
        assert_eq!(
            x.get(key).map(Json::render),
            y.get(key).map(Json::render),
            "chaos replay diverged on `{key}`"
        );
    }
}

#[test]
fn overload_rejects_typed_and_admitted_requests_complete() {
    let cfg = ServeConfig { queue_depth: 1, workers: 1, ..Default::default() };
    let engine = Arc::new(ServeEngine::new(&cfg));
    let mut server = ServeServer::paused(Arc::clone(&engine), &cfg);
    let (tx, rx) = mpsc::channel();

    assert!(server.submit(run_line("ok", "alice", None), tx.clone()).is_ok());
    let err = server.submit(run_line("no", "alice", None), tx.clone()).unwrap_err();
    assert_eq!(err, ServeError::Overloaded { depth: 1 });
    assert_eq!(err.kind(), "overloaded");

    // The admitted request survives the overload episode.
    server.resume();
    drop(tx);
    let responses: Vec<String> = rx.into_iter().collect();
    server.shutdown();
    assert_eq!(responses.len(), 1);
    assert!(responses[0].contains("\"id\":\"ok\""), "{responses:?}");
    assert!(responses[0].contains("\"ok\":true"), "{responses:?}");
}
