//! `pmc soak` — the deterministic chaos soak harness.
//!
//! The resilience layers in [`crate::serve`] (deadlines, circuit
//! breakers, load shedding, poison quarantine — DESIGN.md §15) are only
//! trustworthy if they hold up under *sustained, adversarial, mixed*
//! traffic — not just the one-shot unit tests. The soak harness drives a
//! live [`ServeServer`] through a seed-derived multi-tenant workload and
//! asserts the service-level invariants:
//!
//! * **no worker death** — poison programs panic inside the isolation
//!   region; the panic count equals exactly the poison programs that
//!   *executed* (repeats are quarantined at admission), and the server
//!   still answers a healthy request after the storm;
//! * **every response is typed** — each transcript line is valid JSON
//!   carrying `ok:true` or a known `error.kind`; nothing is dropped;
//! * **breaker convergence** — any breaker left open or half-open has
//!   actually tripped (state is never invented);
//! * **byte-identical replay** — the whole soak runs twice against fresh
//!   engines, and the two transcripts must match byte for byte. This is
//!   why soak requests set `"timings":false` and use `fuel` (plus the
//!   trivially-deterministic `deadline_ms:0`) for deadline jitter: every
//!   remaining bit of the run is a pure function of the seed.
//!
//! The workload interleaves admission mini-phases (a paused server with a
//! tiny queue for `overloaded`, a tiny in-flight cost limit for
//! `shedding`, a stopped-admission late submission for `shutting_down`)
//! with a lockstep main phase: one worker, one request in flight at a
//! time, so completion order — and therefore the transcript — is
//! deterministic. Chaos profiles, tenants, program variants, feed values,
//! fuel jitter and poison injection are all drawn from a splitmix64
//! stream over the seed.

use crate::json::Json;
use crate::serve::{reject_line, ServeConfig, ServeEngine, ServeError, ServeServer};
use pm_accel::{BreakerState, ChaosProfile};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The marker [`ServeConfig::poison_marker`] is set to during a soak; any
/// generated program containing it panics inside the worker's isolation
/// region.
pub const POISON_MARKER: &str = "@soak-poison";

/// One soak campaign's knobs (`pmc soak` flags map 1:1).
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Master seed; the entire workload is a pure function of it.
    pub seed: u64,
    /// Chaos profile attached to every main-phase request.
    pub profile: ChaosProfile,
    /// Main-phase request count (the admission mini-phases add a handful
    /// more). Values below 12 are rounded up so the forced poison /
    /// deadline / fuel cases always exist.
    pub requests: usize,
    /// Distinct tenant names to spread requests across.
    pub tenants: usize,
    /// Compile host-only instead of cross-domain.
    pub host_only: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 0x50AC,
            profile: ChaosProfile::Hostile,
            requests: 200,
            tenants: 3,
            host_only: false,
        }
    }
}

/// What a completed soak proved, as consumed by `pmc soak --format json`
/// and the benchmark harness.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The seed the workload derived from.
    pub seed: u64,
    /// The chaos profile used.
    pub profile: ChaosProfile,
    /// Transcript lines produced (admitted responses + typed rejections).
    pub responses: usize,
    /// Tenants the workload spread across.
    pub tenants: usize,
    /// Response count per wire kind (`ok`, `deadline_exceeded`, …).
    pub kinds: BTreeMap<String, u64>,
    /// Panics caught by the isolation region — must equal the poison
    /// programs that reached a worker.
    pub worker_panics: u64,
    /// Quarantined source hashes at the end of the run.
    pub quarantined_sources: usize,
    /// Quarantined graph fingerprints at the end of the run.
    pub quarantined_graphs: usize,
    /// Breaker trips summed across every shard.
    pub breaker_trips: u64,
    /// Requests steered away from open breakers, summed across shards.
    pub breaker_steered: u64,
    /// Whether the second pass reproduced the first byte for byte.
    pub replay_identical: bool,
}

impl SoakReport {
    /// Renders the report as a single JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seed".into(), Json::Num(self.seed as f64)),
            ("profile".into(), Json::Str(self.profile.to_string())),
            ("responses".into(), Json::Num(self.responses as f64)),
            ("tenants".into(), Json::Num(self.tenants as f64)),
            (
                "kinds".into(),
                Json::Obj(
                    self.kinds.iter().map(|(k, n)| (k.clone(), Json::Num(*n as f64))).collect(),
                ),
            ),
            ("worker_panics".into(), Json::Num(self.worker_panics as f64)),
            ("quarantined_sources".into(), Json::Num(self.quarantined_sources as f64)),
            ("quarantined_graphs".into(), Json::Num(self.quarantined_graphs as f64)),
            ("breaker_trips".into(), Json::Num(self.breaker_trips as f64)),
            ("breaker_steered".into(), Json::Num(self.breaker_steered as f64)),
            ("replay_identical".into(), Json::Bool(self.replay_identical)),
        ])
    }
}

/// Single-line program variants (single-line so the JSON escaping path
/// stays boring). All take `x[4]` and produce scalar `y`, so one feed
/// shape serves every variant while still exercising distinct
/// program-cache entries. The domain annotations spread the workload
/// across TABLA, DECO, RoboX and the host, so hostile chaos actually
/// faults accelerator dispatches and the breaker path gets traffic.
const VARIANTS: &[&str] = &[
    "f(input float x[4], output float y) { index i[0:3]; y = sum[i](x[i]*x[i]); } \
     main(input float x[4], output float y) { DA: f(x, y); }",
    "f(input float x[4], output float y) { index i[0:3]; y = sum[i](x[i]*x[i] + x[i]); } \
     main(input float x[4], output float y) { DSP: f(x, y); }",
    "f(input float x[4], output float y) { index i[0:3]; y = sum[i](x[i] * 2); } \
     main(input float x[4], output float y) { RBT: f(x, y); }",
    "main(input float x[4], output float y) { index i[0:3]; y = sum[i](x[i]); }",
];

/// The fixed poison source: repeats must hash identically so the second
/// submission is rejected at admission, not re-executed.
const POISON_PROGRAM: &str = "@soak-poison main() {}";

/// One generated main-phase request.
struct SoakRequest {
    line: String,
    poison: bool,
}

/// Everything that varies between generated run requests.
struct RunSpec<'a> {
    id: &'a str,
    tenant: &'a str,
    program: &'a str,
    feeds: &'a [f64],
    invocations: u64,
    profile: ChaosProfile,
    chaos_seed: u64,
    deadline_ms: Option<u64>,
    fuel: Option<u64>,
}

fn run_request_line(spec: &RunSpec) -> String {
    let &RunSpec {
        id,
        tenant,
        program,
        feeds,
        invocations,
        profile,
        chaos_seed,
        deadline_ms,
        fuel,
    } = spec;
    let mut fields = vec![
        ("op".into(), Json::Str("run".into())),
        ("id".into(), Json::Str(id.into())),
        ("tenant".into(), Json::Str(tenant.into())),
        ("program".into(), Json::Str(program.into())),
        (
            "feeds".into(),
            Json::Obj(vec![(
                "x".into(),
                Json::Obj(vec![
                    ("dims".into(), Json::Arr(vec![Json::Num(4.0)])),
                    ("values".into(), Json::Arr(feeds.iter().map(|&v| Json::Num(v)).collect())),
                ]),
            )]),
        ),
        ("invocations".into(), Json::Num(invocations as f64)),
        ("timings".into(), Json::Bool(false)),
    ];
    if profile != ChaosProfile::Off {
        fields.push((
            "chaos".into(),
            Json::Obj(vec![
                ("profile".into(), Json::Str(profile.to_string())),
                ("seed".into(), Json::Num((chaos_seed % (1 << 32)) as f64)),
            ]),
        ));
    }
    if let Some(d) = deadline_ms {
        fields.push(("deadline_ms".into(), Json::Num(d as f64)));
    }
    if let Some(f) = fuel {
        fields.push(("fuel".into(), Json::Num(f as f64)));
    }
    Json::Obj(fields).render()
}

/// Generates the main-phase workload for a seed. Requests 3 and 7 are
/// always the (identical) poison program — the first panics a worker,
/// the second proves admission-level quarantine; request 5 always
/// carries an already-expired deadline; request 9 always carries starving
/// fuel. Everything else is drawn from the seed stream.
fn generate(cfg: &SoakConfig) -> Vec<SoakRequest> {
    let n = cfg.requests.max(12);
    let tenants = cfg.tenants.max(1);
    (0..n)
        .map(|i| {
            // Step `i` of the splitmix64 stream seeded with `cfg.seed`.
            let step = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let draw = srdfg::hash::splitmix64(cfg.seed.wrapping_add(step));
            let tenant = format!("t{}", draw % tenants as u64);
            let id = format!("r{i:04}");
            let poison = i == 3 || i == 7 || draw.is_multiple_of(29);
            if poison {
                // Poison lines skip feeds/chaos: the marker panics before
                // the program is even parsed.
                let line = Json::Obj(vec![
                    ("op".into(), Json::Str("run".into())),
                    ("id".into(), Json::Str(id)),
                    ("tenant".into(), Json::Str(tenant)),
                    ("program".into(), Json::Str(POISON_PROGRAM.into())),
                    ("timings".into(), Json::Bool(false)),
                ])
                .render();
                return SoakRequest { line, poison: true };
            }
            let program = VARIANTS[(draw >> 8) as usize % VARIANTS.len()];
            let feeds: Vec<f64> =
                (0..4).map(|k| ((draw >> (16 + 4 * k)) & 0xF) as f64 - 7.0).collect();
            let invocations = 1 + (draw >> 40) % 3;
            // Deterministic deadline jitter: an already-expired wall-clock
            // deadline (request 5 and a thin seeded stream) or a starving
            // fuel budget (request 9 and another stream). Fuel exhaustion
            // is bit-for-bit reproducible; `deadline_ms:0` is the one
            // wall-clock deadline whose outcome does not depend on timing.
            let deadline_ms = (i == 5 || draw.is_multiple_of(31)).then_some(0);
            let fuel = (deadline_ms.is_none() && (i == 9 || draw.is_multiple_of(23)))
                .then_some(1 + (draw >> 48) % 8);
            let line = run_request_line(&RunSpec {
                id: &id,
                tenant: &tenant,
                program,
                feeds: &feeds,
                invocations,
                profile: cfg.profile,
                chaos_seed: draw,
                deadline_ms,
                fuel,
            });
            SoakRequest { line, poison: false }
        })
        .collect()
}

/// A healthy host-path request used by the admission mini-phases and the
/// final worker-liveness probe.
fn healthy_line(id: &str) -> String {
    run_request_line(&RunSpec {
        id,
        tenant: "adm",
        program: VARIANTS[0],
        feeds: &[1.0, 2.0, 3.0, 4.0],
        invocations: 1,
        profile: ChaosProfile::Off,
        chaos_seed: 0,
        deadline_ms: None,
        fuel: None,
    })
}

struct PassOutcome {
    transcript: Vec<String>,
    worker_panics: u64,
    quarantined: (usize, usize),
    breaker_trips: u64,
    breaker_steered: u64,
    poison_executed: u64,
    poison_total: u64,
}

fn recv_response(rx: &mpsc::Receiver<String>) -> Result<String, String> {
    rx.recv_timeout(Duration::from_secs(120))
        .map_err(|_| "soak: worker did not respond within 120 s (worker death?)".to_string())
}

/// Admission mini-phases: deterministic `overloaded`, `shedding`, and
/// `shutting_down` rejections against paused servers sharing the soak
/// engine.
fn admission_phase(engine: &Arc<ServeEngine>, transcript: &mut Vec<String>) -> Result<(), String> {
    // Overload: a depth-2 paused queue rejects the third submission.
    let cfg = ServeConfig { workers: 1, queue_depth: 2, ..ServeConfig::default() };
    let mut server = ServeServer::paused(Arc::clone(engine), &cfg);
    let (tx, rx) = mpsc::channel();
    for id in ["adm-0", "adm-1"] {
        server
            .submit(healthy_line(id), tx.clone())
            .map_err(|e| format!("soak: admission phase: unexpected rejection: {e}"))?;
    }
    let over = healthy_line("adm-2");
    match server.submit(over.clone(), tx.clone()) {
        Err(e @ ServeError::Overloaded { .. }) => transcript.push(reject_line(&over, &e)),
        other => return Err(format!("soak: expected overloaded, got {other:?}")),
    }
    server.resume();
    for _ in 0..2 {
        transcript.push(recv_response(&rx)?);
    }
    // Graceful drain: stopped admission rejects late work with a typed
    // `shutting_down` while (already drained) admitted work completed.
    server.stop_admitting();
    let late = healthy_line("adm-3");
    match server.submit(late.clone(), tx.clone()) {
        Err(e @ ServeError::ShuttingDown) => transcript.push(reject_line(&late, &e)),
        other => return Err(format!("soak: expected shutting_down, got {other:?}")),
    }
    server.shutdown();

    // Shedding: an in-flight cost limit of one byte sheds any submission.
    let cfg = ServeConfig { workers: 1, max_inflight_cost: 1, ..ServeConfig::default() };
    let server = ServeServer::paused(Arc::clone(engine), &cfg);
    let (tx, _rx) = mpsc::channel();
    let shed = healthy_line("adm-4");
    match server.submit(shed.clone(), tx) {
        Err(e @ ServeError::Shedding { .. }) => transcript.push(reject_line(&shed, &e)),
        other => return Err(format!("soak: expected shedding, got {other:?}")),
    }
    server.shutdown();
    Ok(())
}

/// One full pass of the workload against a fresh engine.
fn run_pass(cfg: &SoakConfig, script: &[SoakRequest]) -> Result<PassOutcome, String> {
    let serve_cfg = ServeConfig {
        shards: 2,
        workers: 1,
        queue_depth: 64,
        host_only: cfg.host_only,
        poison_marker: Some(POISON_MARKER.to_string()),
        ..ServeConfig::default()
    };
    let engine = Arc::new(ServeEngine::new(&serve_cfg));
    // Shrink the breaker cool-down (virtual time) so open → half-open →
    // closed recovery cycles actually happen within a short soak, not
    // just the initial trip.
    engine.pool().set_breaker_cooldown_ns(500_000);
    let mut transcript = Vec::new();
    admission_phase(&engine, &mut transcript)?;

    // Main phase, in lockstep: one worker, one request in flight, so the
    // transcript order is the submission order.
    let server = ServeServer::start(Arc::clone(&engine), &serve_cfg);
    let (tx, rx) = mpsc::channel();
    let mut poison_executed = 0u64;
    let mut poison_total = 0u64;
    let mut poison_seen = false;
    for req in script {
        if req.poison {
            poison_total += 1;
        }
        match server.submit(req.line.clone(), tx.clone()) {
            Ok(()) => {
                if req.poison {
                    // First poison reaches a worker (and panics there);
                    // afterwards the source hash is quarantined, so any
                    // repeat must be rejected at admission below.
                    if poison_seen {
                        return Err("soak: repeat poison program reached a worker".to_string());
                    }
                    poison_seen = true;
                    poison_executed += 1;
                }
                transcript.push(recv_response(&rx)?);
            }
            Err(e @ ServeError::Quarantined(_)) if req.poison => {
                transcript.push(reject_line(&req.line, &e));
            }
            Err(e) => return Err(format!("soak: unexpected admission rejection: {e}")),
        }
    }
    // Worker-liveness probe: the pool must still serve healthy traffic
    // after every panic, deadline and breaker trip above.
    let probe = healthy_line("probe");
    server.submit(probe, tx.clone()).map_err(|e| format!("soak: liveness probe rejected: {e}"))?;
    let probe_resp = recv_response(&rx)?;
    let pv = Json::parse(&probe_resp).map_err(|e| format!("soak: probe response: {e}"))?;
    if pv.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("soak: liveness probe failed: {probe_resp}"));
    }
    transcript.push(probe_resp);
    // A stats snapshot closes the transcript, so the replay check also
    // covers the deterministic counters.
    transcript.push(engine.stats_response("soak-stats"));
    server.shutdown();

    let report = engine.pool().report();
    let mut breaker_trips = 0;
    let mut breaker_steered = 0;
    for shard in &report.breakers {
        for b in shard {
            breaker_trips += b.trips;
            breaker_steered += b.steered;
            // Breaker convergence: a breaker can only be away from
            // `Closed` because it actually tripped.
            if b.state != BreakerState::Closed && b.trips == 0 {
                return Err(format!(
                    "soak: breaker for {} is {} without ever tripping",
                    b.target, b.state
                ));
            }
        }
    }
    Ok(PassOutcome {
        transcript,
        worker_panics: engine.worker_panics(),
        quarantined: engine.quarantine().counts(),
        breaker_trips,
        breaker_steered,
        poison_executed,
        poison_total,
    })
}

/// Runs the full soak: two passes over the seed-derived workload against
/// fresh engines, invariant checks, and the byte-identical replay
/// comparison.
///
/// # Errors
///
/// A human-readable description of the first violated invariant (worker
/// death, untyped response, breaker divergence, replay mismatch, …).
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, String> {
    let script = generate(cfg);
    let first = run_pass(cfg, &script)?;
    let second = run_pass(cfg, &script)?;

    // Invariant: every transcript line is a typed response.
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    for line in &first.transcript {
        let v = Json::parse(line).map_err(|e| format!("soak: untyped response `{line}`: {e}"))?;
        let kind = match v.get("ok").and_then(Json::as_bool) {
            Some(true) => "ok".to_string(),
            _ => v
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .ok_or_else(|| format!("soak: response with neither ok nor error.kind: {line}"))?
                .to_string(),
        };
        *kinds.entry(kind).or_insert(0) += 1;
    }
    // Invariant: panics are exactly the poison programs that executed —
    // no worker died for any other reason, and no poison executed twice.
    if first.worker_panics != first.poison_executed {
        return Err(format!(
            "soak: {} worker panics but {} poison executions",
            first.worker_panics, first.poison_executed
        ));
    }
    if first.poison_total > 0 && first.poison_executed != 1 {
        return Err(format!(
            "soak: {} poison programs injected but {} executed (quarantine must stop repeats)",
            first.poison_total, first.poison_executed
        ));
    }
    // Invariant: every rejection class was actually exercised.
    for must in ["ok", "overloaded", "shedding", "shutting_down", "quarantined"] {
        if !kinds.contains_key(must) {
            return Err(format!("soak: workload never produced a `{must}` response"));
        }
    }
    if !kinds.contains_key("deadline_exceeded") {
        return Err("soak: workload never produced a `deadline_exceeded` response".to_string());
    }
    // Invariant: byte-identical replay.
    let replay_identical = first.transcript == second.transcript;
    if !replay_identical {
        let diverged =
            first.transcript.iter().zip(&second.transcript).position(|(a, b)| a != b).map_or_else(
                || format!("lengths {} vs {}", first.transcript.len(), second.transcript.len()),
                |i| format!("first divergence at line {i}"),
            );
        return Err(format!("soak: replay not byte-identical ({diverged})"));
    }

    Ok(SoakReport {
        seed: cfg.seed,
        profile: cfg.profile,
        responses: first.transcript.len(),
        tenants: cfg.tenants.max(1),
        kinds,
        worker_panics: first.worker_panics,
        quarantined_sources: first.quarantined.0,
        quarantined_graphs: first.quarantined.1,
        breaker_trips: first.breaker_trips,
        breaker_steered: first.breaker_steered,
        replay_identical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_generation_is_deterministic_and_seed_sensitive() {
        let cfg = SoakConfig { requests: 40, ..Default::default() };
        let a: Vec<String> = generate(&cfg).into_iter().map(|r| r.line).collect();
        let b: Vec<String> = generate(&cfg).into_iter().map(|r| r.line).collect();
        assert_eq!(a, b, "same seed, same workload");
        let other = SoakConfig { seed: cfg.seed + 1, requests: 40, ..Default::default() };
        let c: Vec<String> = generate(&other).into_iter().map(|r| r.line).collect();
        assert_ne!(a, c, "different seed, different workload");
    }

    #[test]
    fn forced_cases_are_always_present() {
        let reqs = generate(&SoakConfig { requests: 12, ..Default::default() });
        assert!(reqs[3].poison && reqs[7].poison);
        // Ids differ but the program (the quarantine key) must not.
        assert!(reqs[3].line.contains(POISON_MARKER) && reqs[7].line.contains(POISON_MARKER));
        assert!(reqs[5].line.contains("\"deadline_ms\":0"));
        assert!(reqs[9].poison || reqs[9].line.contains("\"fuel\":"));
    }

    #[test]
    fn small_hostile_soak_holds_all_invariants() {
        let cfg = SoakConfig { requests: 24, host_only: false, ..Default::default() };
        let report = run_soak(&cfg).expect("soak invariants");
        assert!(report.replay_identical);
        assert_eq!(report.worker_panics, 1);
        assert!(report.quarantined_sources >= 1);
        assert!(report.kinds["ok"] > 0);
    }
}
