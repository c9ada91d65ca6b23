//! `pmc serve` — the long-lived compile-and-run service.
//!
//! The ROADMAP's north star is serving the PolyMath pipeline to many
//! users; this module is that serving layer. It admits line-delimited
//! JSON requests (PMLang program + invocation feeds), compiles each
//! through the driver's **content-addressed program cache** (see
//! [`crate::Compiler::compile_cached_checked`] and `pm_lower::progcache`), and
//! executes it on a **sharded pool of simulated SoCs**
//! ([`pm_accel::SocPool`]) with per-tenant shard affinity. Three layers:
//!
//! * [`ServeEngine`] — stateless-per-request processing: parse → compile
//!   (cached) → [`pm_accel::SocPool::run`] (route to the tenant's shard,
//!   steer, run the trajectory, record) → render the response. Shared
//!   across worker threads behind an `Arc`; every piece of shared state
//!   (template cache, program cache, pool ledgers) is internally
//!   synchronized.
//! * [`ServeServer`] — admission control: a bounded queue plus a
//!   hand-rolled worker thread pool (no async runtime dependency) — the
//!   only threads the stack creates. A full queue rejects
//!   with a typed `overloaded` error instead of blocking or panicking.
//!   A worker takes one request per wake, so a queued request goes to
//!   whichever worker is free first, never behind another worker's
//!   backlog.
//! * [`serve_stdio`] / [`serve_tcp`] — the transports: newline-delimited
//!   JSON over stdin/stdout (robust for scripts and tests — no port
//!   races) or over TCP connections.
//!
//! ## Wire protocol
//!
//! One JSON object per line in, one per line out. Requests:
//!
//! ```json
//! {"op":"run","id":"r1","tenant":"alice","program":"main(...){...}",
//!  "feeds":{"x":{"dims":[4],"values":[1,2,3,4]}},
//!  "state":{"z":{"dims":[],"values":[0]}},
//!  "invocations":3,"sizes":{"n":64},
//!  "chaos":{"profile":"transient","seed":7,"max_retries":3,"down":["DECO"]}}
//! {"op":"stats","id":"s1"}
//! {"op":"shutdown","id":"bye"}
//! ```
//!
//! A `run` response echoes the request id, names the shard and whether
//! the program cache served the compile, and carries the outputs of the
//! final invocation plus the deterministic execution counters:
//!
//! ```json
//! {"id":"r1","op":"run","ok":true,"tenant":"alice","shard":1,
//!  "program_cache":"hit","outputs":{"y":{"dims":[],"values":[30]}},
//!  "invocations":3,"replayed_invocations":0,"faults_injected":0,
//!  "retries":0,"fallbacks":0,"virtual_ns":6000,
//!  "frontend_us":812,"lower_us":0,"compile_us":0,"execute_us":95}
//! ```
//!
//! Failures are typed, never panics:
//! `{"id":"r1","op":"run","ok":false,"error":{"kind":"overloaded","detail":"..."}}`
//! with kinds `bad_request` | `overloaded` | `shedding` | `deadline_exceeded`
//! | `quarantined` | `shutting_down` | `panic` | `compile` | `execution`.
//!
//! `invocations` is at most 4,096: admission charges a line by its bytes,
//! so a short line must not be able to hold a worker for longer than that.
//!
//! Responses are emitted in completion order; match them to requests by
//! `id`. All tensors are `float`; outputs render with names sorted, so a
//! cache hit's response bytes are identical to the cold compile's.
//!
//! ## Resilience (`pm-resilience`, DESIGN.md §15)
//!
//! The service contains faults at four layers:
//!
//! * **deadlines** — a request may carry `deadline_ms` (wall clock) and
//!   `fuel` (deterministic work units); the resulting [`srdfg::Budget`]
//!   is threaded through Algorithm 1's round loop, Algorithm 2's entry,
//!   and every SoC dispatch/retry/invocation loop. Exhaustion returns a
//!   typed `deadline_exceeded` error at the next loop boundary — no
//!   thread is ever killed, and an already-expired deadline is rejected
//!   before the frontend runs.
//! * **circuit breakers** — each shard tracks per-backend breakers
//!   ([`pm_accel::BreakerBoard`]); an admitted request steers away from
//!   open breakers by merging them into its chaos `force_down` set,
//!   which reuses the byte-identical host-fallback re-lowering path.
//! * **admission control** — beyond the bounded queue (`overloaded`),
//!   submissions are load-shed with a distinct `shedding` error when the
//!   total in-flight request cost passes `max_inflight_cost`, and
//!   requests whose content address is quarantined after a prior panic
//!   are rejected (`quarantined`) without reaching a worker.
//! * **panic isolation** — each request runs under `catch_unwind`; a
//!   panic is caught, counted, its program's source hash and graph
//!   fingerprint quarantined, and a typed error returned while the
//!   worker lives on.

use crate::compiler::{standard_soc, Compiler, PolyMathError};
use crate::json::Json;
use pm_accel::{ChaosConfig, ChaosProfile, SocError, SocPool, TrajectoryInputs};
use pm_lower::ProgramKey;
use srdfg::{Bindings, Budget, Tensor};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The most invocations one `run` line may ask for: more than 500× what
/// any benchmark or soak request sends, and few enough that a line whose
/// admission cost is its length cannot occupy a worker indefinitely.
const MAX_INVOCATIONS: u64 = 4096;

/// Configuration of one serve instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of SoC shards (tenants are pinned to shards by name hash).
    pub shards: usize,
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it are rejected with a
    /// typed `overloaded` error.
    pub queue_depth: usize,
    /// Compile against the host-only target map instead of the
    /// cross-domain one.
    pub host_only: bool,
    /// Total in-flight request cost (admitted line bytes, queued or
    /// executing) beyond which submissions are load-shed with a typed
    /// `shedding` error — distinct from the queue-depth `overloaded`
    /// rejection, so operators can tell "too many requests" from "too
    /// much work".
    pub max_inflight_cost: u64,
    /// Programs containing this marker panic inside the worker's
    /// `catch_unwind` region — the deterministic poison-program hook the
    /// chaos soak and the quarantine tests use. `None` in production.
    pub poison_marker: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 2,
            workers: 2,
            queue_depth: 64,
            host_only: false,
            max_inflight_cost: 4 << 20,
            poison_marker: None,
        }
    }
}

/// Typed request-level failure. The service returns these on the wire;
/// it never panics or drops a request silently.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request line was not a valid protocol object.
    BadRequest(String),
    /// The admission queue is full.
    Overloaded {
        /// The configured queue depth that was exceeded.
        depth: usize,
    },
    /// The in-flight cost limit was exceeded (load shedding).
    Shedding {
        /// In-flight cost the submission would have reached.
        cost: u64,
        /// The configured in-flight cost limit.
        limit: u64,
    },
    /// The request's budget (wall-clock deadline or deterministic fuel)
    /// ran out; the pipeline unwound cooperatively.
    DeadlineExceeded(String),
    /// The program's content address is quarantined after a prior
    /// worker panic.
    Quarantined(String),
    /// The server has stopped admitting requests.
    ShuttingDown,
    /// Request processing panicked outside the engine's isolation region
    /// (worker-level backstop; the worker thread survives).
    Panic(String),
    /// The compile pipeline rejected the program.
    Compile(String),
    /// The SoC runtime could not execute the compiled program.
    Execution(String),
}

impl ServeError {
    /// The wire `error.kind` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::BadRequest(_) => "bad_request",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::Shedding { .. } => "shedding",
            ServeError::DeadlineExceeded(_) => "deadline_exceeded",
            ServeError::Quarantined(_) => "quarantined",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::Panic(_) => "panic",
            ServeError::Compile(_) => "compile",
            ServeError::Execution(_) => "execution",
        }
    }

    fn detail(&self) -> String {
        match self {
            ServeError::BadRequest(d)
            | ServeError::DeadlineExceeded(d)
            | ServeError::Quarantined(d)
            | ServeError::Panic(d)
            | ServeError::Compile(d)
            | ServeError::Execution(d) => d.clone(),
            ServeError::Overloaded { depth } => format!("queue full (depth {depth})"),
            ServeError::Shedding { cost, limit } => {
                format!("in-flight cost {cost} exceeds limit {limit}")
            }
            ServeError::ShuttingDown => "server is shutting down; request not admitted".to_string(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind(), self.detail())
    }
}

impl std::error::Error for ServeError {}

/// A parsed `run` request.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Request id, echoed in the response (`""` when omitted).
    pub id: String,
    /// Tenant name — decides the SoC shard (`"default"` when omitted).
    pub tenant: String,
    /// PMLang source.
    pub program: String,
    /// Boundary `input`/`param` feeds.
    pub feeds: HashMap<String, Tensor>,
    /// Initial values for `state` variables.
    pub state: Vec<(String, Tensor)>,
    /// Invocations to run (defaults to 1, at most 4,096).
    pub invocations: u64,
    /// Size bindings for symbolic dimensions.
    pub sizes: Bindings,
    /// Fault-injection configuration (defaults to chaos off).
    pub chaos: ChaosConfig,
    /// Wall-clock deadline in milliseconds (measured from the moment a
    /// worker picks the request up; `None` = no deadline).
    pub deadline_ms: Option<u64>,
    /// Deterministic work-unit budget (`None` = unlimited). Exhaustion
    /// is bit-for-bit reproducible, unlike the wall-clock deadline.
    pub fuel: Option<u64>,
    /// Whether the response carries the wall-clock `*_us` timing fields
    /// (`true` by default; the soak harness turns them off so replays
    /// compare byte-for-byte).
    pub timings: bool,
}

/// A parsed protocol request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Compile (through the program cache) and execute.
    Run(Box<RunRequest>),
    /// Report cache and pool statistics.
    Stats {
        /// Request id.
        id: String,
    },
    /// Acknowledge and stop serving.
    Shutdown {
        /// Request id.
        id: String,
    },
}

impl Request {
    /// The request id (echoed in responses).
    pub fn id(&self) -> &str {
        match self {
            Request::Run(r) => &r.id,
            Request::Stats { id } | Request::Shutdown { id } => id,
        }
    }

    /// The wire `op` tag.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Run(_) => "run",
            Request::Stats { .. } => "stats",
            Request::Shutdown { .. } => "shutdown",
        }
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] with a description of the first
    /// malformed field.
    pub fn parse(line: &str) -> Result<Request, ServeError> {
        let bad = |d: &str| ServeError::BadRequest(d.to_string());
        let v = Json::parse(line).map_err(|e| ServeError::BadRequest(e.to_string()))?;
        let id = v.get("id").and_then(Json::as_str).unwrap_or("").to_string();
        let op = v.get("op").and_then(Json::as_str).ok_or_else(|| bad("missing `op`"))?;
        match op {
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            "run" => {
                let program = v
                    .get("program")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("run: missing `program`"))?
                    .to_string();
                let tenant =
                    v.get("tenant").and_then(Json::as_str).unwrap_or("default").to_string();
                let invocations = match v.get("invocations") {
                    None => 1,
                    Some(n) => n.as_u64().filter(|&n| n <= MAX_INVOCATIONS).ok_or_else(|| {
                        bad(&format!("run: `invocations` must be an integer ≤ {MAX_INVOCATIONS}"))
                    })?,
                };
                let mut feeds = HashMap::new();
                if let Some(obj) = v.get("feeds") {
                    for (name, t) in
                        obj.members().ok_or_else(|| bad("run: `feeds` must be an object"))?
                    {
                        feeds.insert(name.clone(), parse_tensor(name, t)?);
                    }
                }
                let mut state = Vec::new();
                if let Some(obj) = v.get("state") {
                    for (name, t) in
                        obj.members().ok_or_else(|| bad("run: `state` must be an object"))?
                    {
                        state.push((name.clone(), parse_tensor(name, t)?));
                    }
                }
                let mut sizes = Bindings::default();
                if let Some(obj) = v.get("sizes") {
                    for (name, n) in
                        obj.members().ok_or_else(|| bad("run: `sizes` must be an object"))?
                    {
                        // `i64::MAX as f64` rounds up to 2^63, hence `..`.
                        let in_range = |x: &f64| (i64::MIN as f64..i64::MAX as f64).contains(x);
                        let val = n
                            .as_f64()
                            .filter(|x| x.fract() == 0.0 && in_range(x))
                            .ok_or_else(|| bad("run: bad size value"))?;
                        sizes.sizes.insert(name.clone(), val as i64);
                    }
                }
                let chaos = parse_chaos(v.get("chaos"))?;
                let deadline_ms = match v.get("deadline_ms") {
                    None => None,
                    Some(n) => Some(n.as_u64().ok_or_else(|| bad("run: bad `deadline_ms`"))?),
                };
                let fuel = match v.get("fuel") {
                    None => None,
                    Some(n) => Some(n.as_u64().ok_or_else(|| bad("run: bad `fuel`"))?),
                };
                let timings = match v.get("timings") {
                    None => true,
                    Some(b) => b.as_bool().ok_or_else(|| bad("run: bad `timings`"))?,
                };
                Ok(Request::Run(Box::new(RunRequest {
                    id,
                    tenant,
                    program,
                    feeds,
                    state,
                    invocations,
                    sizes,
                    chaos,
                    deadline_ms,
                    fuel,
                    timings,
                })))
            }
            other => Err(bad(&format!("unknown op `{other}`"))),
        }
    }
}

fn parse_tensor(name: &str, v: &Json) -> Result<Tensor, ServeError> {
    let bad = |d: String| ServeError::BadRequest(d);
    let dims: Vec<usize> = v
        .get("dims")
        .and_then(Json::as_array)
        .ok_or_else(|| bad(format!("tensor `{name}`: missing `dims`")))?
        .iter()
        .map(|d| d.as_u64().map(|u| u as usize))
        .collect::<Option<_>>()
        .ok_or_else(|| bad(format!("tensor `{name}`: bad dims")))?;
    let values: Vec<f64> = v
        .get("values")
        .and_then(Json::as_array)
        .ok_or_else(|| bad(format!("tensor `{name}`: missing `values`")))?
        .iter()
        .map(Json::as_f64)
        .collect::<Option<_>>()
        .ok_or_else(|| bad(format!("tensor `{name}`: bad values")))?;
    Tensor::from_vec(pmlang::DType::Float, dims, values)
        .map_err(|e| bad(format!("tensor `{name}`: {e}")))
}

fn parse_chaos(v: Option<&Json>) -> Result<ChaosConfig, ServeError> {
    let bad = |d: &str| ServeError::BadRequest(d.to_string());
    let Some(v) = v else {
        return Ok(ChaosConfig::off());
    };
    let seed = match v.get("seed") {
        None => 0,
        Some(n) => n.as_u64().ok_or_else(|| bad("chaos: bad `seed`"))?,
    };
    let profile = match v.get("profile").and_then(Json::as_str) {
        None => ChaosProfile::Off,
        Some(p) => p.parse().map_err(|e: String| ServeError::BadRequest(e))?,
    };
    let mut cfg = ChaosConfig::new(seed, profile);
    if let Some(n) = v.get("max_retries") {
        let retries = n
            .as_u64()
            .and_then(|r| u32::try_from(r).ok())
            .ok_or_else(|| bad("chaos: bad `max_retries`"))?;
        cfg = cfg.with_max_retries(retries);
    }
    if let Some(down) = v.get("down") {
        for d in down.as_array().ok_or_else(|| bad("chaos: `down` must be an array"))? {
            cfg = cfg.with_down(d.as_str().ok_or_else(|| bad("chaos: bad `down` entry"))?);
        }
    }
    Ok(cfg)
}

fn tensor_json(t: &Tensor) -> Json {
    let dims = Json::Arr(t.shape().iter().map(|&d| Json::Num(d as f64)).collect());
    let values = match t.as_real_slice() {
        Some(s) => Json::Arr(s.iter().map(|&v| Json::Num(v)).collect()),
        None => Json::Null,
    };
    Json::Obj(vec![("dims".into(), dims), ("values".into(), values)])
}

fn error_response(id: &str, op: &str, e: &ServeError) -> String {
    Json::Obj(vec![
        ("id".into(), Json::Str(id.into())),
        ("op".into(), Json::Str(op.into())),
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::Obj(vec![
                ("kind".into(), Json::Str(e.kind().into())),
                ("detail".into(), Json::Str(e.detail())),
            ]),
        ),
    ])
    .render()
}

/// Renders the typed rejection for a line that could not be admitted
/// (best-effort id/op echo — the line may itself be malformed).
pub fn reject_line(line: &str, e: &ServeError) -> String {
    let (id, op) = match Request::parse(line) {
        Ok(req) => (req.id().to_string(), req.op().to_string()),
        Err(_) => (String::new(), String::new()),
    };
    error_response(&id, &op, e)
}

/// A representative corpus of valid wire requests, used as the seed set
/// for the `serve@wire` byte-mutation fuzz route (`pmc fuzz --wire` and
/// the resilience integration tests). Covers every op and every optional
/// `run` field, so mutations reach all parser states.
pub fn wire_corpus() -> Vec<String> {
    vec![
        concat!(
            r#"{"op":"run","id":"w0","tenant":"alice","program":"main(input float x[4], "#,
            r#"output float y) { index i[0:3]; y = sum[i](x[i]*x[i]); }","feeds":{"x":"#,
            r#"{"dims":[4],"values":[1,2,3,4]}},"invocations":2,"timings":false}"#
        )
        .to_string(),
        concat!(
            r#"{"op":"run","id":"w1","tenant":"bob","program":"main(input float x[n], "#,
            r#"output float y) { index i[0:n-1]; y = sum[i](x[i]); }","sizes":{"n":4},"#,
            r#""feeds":{"x":{"dims":[4],"values":[1,1,1,1]}},"state":{"z":{"dims":[],"#,
            r#""values":[0]}},"chaos":{"profile":"transient","seed":7,"max_retries":2,"#,
            r#""down":["DECO"]},"deadline_ms":1000,"fuel":100000}"#
        )
        .to_string(),
        r#"{"op":"stats","id":"w2"}"#.to_string(),
        r#"{"op":"shutdown","id":"w3"}"#.to_string(),
    ]
}

/// The wire-hardening oracle: feeds one (possibly mutated) line through
/// the engine under `catch_unwind` and demands a typed response — valid
/// JSON carrying either `ok:true` or a non-empty `error.kind`. Any
/// panic or malformed output is a hardening failure.
///
/// # Errors
///
/// A description of the violation (panic payload or the malformed
/// response), for the fuzz report.
pub fn check_wire_line(engine: &ServeEngine, line: &str) -> Result<(), String> {
    let resp = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.handle_line(line)))
        .map_err(|p| format!("panicked: {}", panic_message(p.as_ref())))?;
    let v = Json::parse(&resp).map_err(|e| format!("response is not JSON ({e}): {resp}"))?;
    if v.get("ok").and_then(Json::as_bool) == Some(true) {
        return Ok(());
    }
    let kind = v.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str).unwrap_or("");
    if kind.is_empty() {
        return Err(format!("response has neither ok:true nor error.kind: {resp}"));
    }
    Ok(())
}

/// Content hash of a request's compile inputs (program source plus size
/// bindings) — the cheap admission-level quarantine key. The graph
/// fingerprint is the precise content address, but computing it requires
/// running the frontend and mid-end; this hash lets [`ServeServer::submit`]
/// reject known-poison requests without any pipeline work.
pub fn source_hash(program: &str, sizes: &Bindings) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = srdfg::FxHasher::default();
    program.hash(&mut h);
    let mut entries: Vec<_> = sizes.sizes.iter().collect();
    entries.sort();
    for (name, value) in entries {
        name.hash(&mut h);
        value.hash(&mut h);
    }
    h.finish()
}

/// The poison-program quarantine: content addresses of requests that
/// panicked a worker. Dual-keyed — the cheap [`source_hash`] is checked
/// at admission (before the request reaches a worker), the precise
/// [`srdfg::graph_fingerprint`] is checked by the compile gate (catching
/// re-encodings of the same graph) — so a repeat offender is rejected
/// with a typed `quarantined` error instead of re-panicking a worker.
#[derive(Debug, Default)]
pub struct Quarantine {
    sources: Mutex<BTreeSet<u64>>,
    graphs: Mutex<BTreeSet<u64>>,
    populated: AtomicBool,
}

impl Quarantine {
    /// Fast emptiness probe (lock-free), so the admission path pays
    /// nothing until the first panic has actually happened.
    pub fn is_empty(&self) -> bool {
        !self.populated.load(Ordering::Acquire)
    }

    /// Quarantines a request's source hash, and its graph fingerprint
    /// when the pipeline got far enough to compute one.
    pub fn record(&self, source: u64, graph: Option<u64>) {
        self.sources.lock().unwrap_or_else(|e| e.into_inner()).insert(source);
        if let Some(g) = graph {
            self.graphs.lock().unwrap_or_else(|e| e.into_inner()).insert(g);
        }
        self.populated.store(true, Ordering::Release);
    }

    /// Whether a source hash is quarantined.
    pub fn has_source(&self, source: u64) -> bool {
        !self.is_empty() && self.sources.lock().unwrap_or_else(|e| e.into_inner()).contains(&source)
    }

    /// Whether a graph fingerprint is quarantined.
    pub fn has_graph(&self, graph: u64) -> bool {
        !self.is_empty() && self.graphs.lock().unwrap_or_else(|e| e.into_inner()).contains(&graph)
    }

    /// `(source hashes, graph fingerprints)` currently quarantined.
    pub fn counts(&self) -> (usize, usize) {
        (
            self.sources.lock().unwrap_or_else(|e| e.into_inner()).len(),
            self.graphs.lock().unwrap_or_else(|e| e.into_inner()).len(),
        )
    }
}

/// Best-effort panic payload rendering for the typed wire error.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The per-request processing core: compile through the program cache,
/// route to the tenant's shard, execute, render. Shared by every worker
/// thread and transport.
pub struct ServeEngine {
    compiler: Compiler,
    pool: SocPool,
    quarantine: Quarantine,
    worker_panics: AtomicU64,
    poison_marker: Option<String>,
}

impl fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeEngine").field("shards", &self.pool.len()).finish()
    }
}

impl ServeEngine {
    /// Builds the engine: one compiler (host-only or cross-domain) whose
    /// template and program caches are shared by all shards, and a
    /// [`SocPool`] whose every shard carries the standard accelerator
    /// complement plus the compiler's template cache (so device-down
    /// re-lowering under chaos reuses the templates the original compile
    /// populated).
    pub fn new(cfg: &ServeConfig) -> ServeEngine {
        let compiler = if cfg.host_only { Compiler::host_only() } else { Compiler::cross_domain() };
        let template_cache = compiler.template_cache();
        let pool = SocPool::new(cfg.shards, |_| {
            let mut soc = standard_soc();
            soc.with_template_cache(template_cache.clone());
            soc
        });
        ServeEngine {
            compiler,
            pool,
            quarantine: Quarantine::default(),
            worker_panics: AtomicU64::new(0),
            poison_marker: cfg.poison_marker.clone(),
        }
    }

    /// The engine's compiler (cache handles, target map).
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// The engine's SoC pool (shard routing, ledgers).
    pub fn pool(&self) -> &SocPool {
        &self.pool
    }

    /// The engine's poison quarantine.
    pub fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// Panics caught (and contained) across the engine's lifetime. The
    /// soak harness asserts its workers all survived by checking this
    /// equals the number of poison requests it injected.
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Counts a panic the worker-level backstop caught (outside the
    /// engine's own isolation region).
    fn note_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Processes one request line and renders the response line.
    pub fn handle_line(&self, line: &str) -> String {
        match Request::parse(line) {
            Err(e) => error_response("", "", &e),
            Ok(req) => self.handle(&req),
        }
    }

    /// Processes one parsed request and renders the response line.
    pub fn handle(&self, req: &Request) -> String {
        let mut line = match req {
            Request::Run(r) => match self.run(r) {
                Ok(resp) => resp,
                Err(e) => error_response(&r.id, "run", &e),
            },
            Request::Stats { id } => self.stats_response(id),
            Request::Shutdown { id } => Json::Obj(vec![
                ("id".into(), Json::Str(id.clone())),
                ("op".into(), Json::Str("shutdown".into())),
                ("ok".into(), Json::Bool(true)),
            ])
            .render(),
        };
        // Rendering grows the line by doubling; whoever queues replies (the
        // worker channel, a client's backlog) should hold the bytes, not
        // the up-to-half-again of slack behind them.
        line.shrink_to_fit();
        line
    }

    /// Executes one `run` request under panic isolation: a panic anywhere
    /// in the pipeline is caught, counted, and quarantines the program's
    /// content address — the worker thread survives and the client gets a
    /// typed `quarantined` error.
    fn run(&self, req: &RunRequest) -> Result<String, ServeError> {
        // Side-slot the compile gate populates with the graph fingerprint
        // once the mid-end has computed it, so a panic *after* that point
        // quarantines the precise content address too.
        let graph_fp: Mutex<Option<u64>> = Mutex::new(None);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_inner(req, &graph_fp)
        }));
        match result {
            Ok(r) => r,
            Err(payload) => {
                self.worker_panics.fetch_add(1, Ordering::Relaxed);
                let source = source_hash(&req.program, &req.sizes);
                let graph = *graph_fp.lock().unwrap_or_else(|e| e.into_inner());
                self.quarantine.record(source, graph);
                Err(ServeError::Quarantined(format!(
                    "request panicked ({}); program quarantined",
                    panic_message(payload.as_ref())
                )))
            }
        }
    }

    fn run_inner(
        &self,
        req: &RunRequest,
        graph_fp: &Mutex<Option<u64>>,
    ) -> Result<String, ServeError> {
        if let Some(marker) = &self.poison_marker {
            if !marker.is_empty() && req.program.contains(marker.as_str()) {
                panic!("poison marker tripped");
            }
        }
        let budget = Budget::new(req.deadline_ms.map(Duration::from_millis), req.fuel);
        let gate = |key: &ProgramKey| {
            *graph_fp.lock().unwrap_or_else(|e| e.into_inner()) = Some(key.graph);
            !self.quarantine.has_graph(key.graph)
        };
        let cc = self
            .compiler
            .compile_cached_checked(&req.program, &req.sizes, &budget, &gate)
            .map_err(|e| match e {
                PolyMathError::Budget(b) => ServeError::DeadlineExceeded(b.to_string()),
                PolyMathError::Quarantined { fingerprint } => ServeError::Quarantined(format!(
                    "graph fingerprint {fingerprint:016x} is quarantined"
                )),
                other => ServeError::Compile(other.to_string()),
            })?;
        let chaos = req.chaos.clone().with_budget(budget);
        let inputs = TrajectoryInputs {
            feeds: &req.feeds,
            state_seeds: &req.state,
            invocations: req.invocations,
        };
        let t = Instant::now();
        let (outcome, shard, steered) = self
            .pool
            .run(&req.tenant, &cc.program, chaos, self.compiler.targets(), &inputs)
            .map_err(|e| match e {
                SocError::BudgetExhausted(b) => ServeError::DeadlineExceeded(b.to_string()),
                other => ServeError::Execution(other.to_string()),
            })?;
        let execute_us = t.elapsed().as_micros() as f64;

        let mut names: Vec<&String> = outcome.outputs.keys().collect();
        names.sort();
        let outputs = Json::Obj(
            names.iter().map(|n| ((*n).clone(), tensor_json(&outcome.outputs[*n]))).collect(),
        );
        let us = |d: std::time::Duration| Json::Num(d.as_micros() as f64);
        let frontend = cc.timings.frontend + cc.timings.build + cc.timings.midend;
        let mut fields = vec![
            ("id".into(), Json::Str(req.id.clone())),
            ("op".into(), Json::Str("run".into())),
            ("ok".into(), Json::Bool(true)),
            ("tenant".into(), Json::Str(req.tenant.clone())),
            ("shard".into(), Json::Num(shard as f64)),
            ("program_cache".into(), Json::Str(if cc.cache_hit { "hit" } else { "miss" }.into())),
            ("outputs".into(), outputs),
            ("invocations".into(), Json::Num(outcome.invocations as f64)),
            ("replayed_invocations".into(), Json::Num(outcome.replayed_invocations as f64)),
            ("faults_injected".into(), Json::Num(outcome.faults_injected as f64)),
            ("retries".into(), Json::Num(outcome.retries as f64)),
            ("fallbacks".into(), Json::Num(outcome.fallbacks.len() as f64)),
            ("breaker_steered".into(), Json::Num(steered as f64)),
            ("virtual_ns".into(), Json::Num(outcome.virtual_ns as f64)),
        ];
        if req.timings {
            fields.push(("frontend_us".into(), us(frontend)));
            fields.push(("lower_us".into(), us(cc.timings.lower + cc.timings.post_lower)));
            fields.push(("compile_us".into(), us(cc.timings.compile)));
            fields.push(("execute_us".into(), Json::Num(execute_us)));
        }
        Ok(Json::Obj(fields).render())
    }

    /// Renders the `stats` response: program-cache, template-cache,
    /// pool-level and price-memo counters.
    pub fn stats_response(&self, id: &str) -> String {
        // All three caches are one LRU type, so one rendering (only the
        // template cache is ever bypassed: the others' count is always 0).
        let cache = |s: srdfg::CacheStats| {
            Json::Obj(vec![
                ("hits".into(), Json::Num(s.hits as f64)),
                ("misses".into(), Json::Num(s.misses as f64)),
                ("inserts".into(), Json::Num(s.inserts as f64)),
                ("evictions".into(), Json::Num(s.evictions as f64)),
                ("entries".into(), Json::Num(s.entries as f64)),
                ("bytes".into(), Json::Num(s.bytes as f64)),
                ("capacity_bytes".into(), Json::Num(s.capacity_bytes as f64)),
                ("hit_rate".into(), Json::Num(s.hit_rate())),
                ("bypassed".into(), Json::Num(s.bypassed as f64)),
            ])
        };
        let pool = self.pool.report();
        Json::Obj(vec![
            ("id".into(), Json::Str(id.into())),
            ("op".into(), Json::Str("stats".into())),
            ("ok".into(), Json::Bool(true)),
            ("program_cache".into(), cache(self.compiler.program_cache_stats())),
            ("template_cache".into(), cache(self.compiler.cache_stats())),
            (
                "pool".into(),
                Json::Obj(vec![
                    ("shards".into(), Json::Num(self.pool.len() as f64)),
                    ("requests".into(), Json::Num(pool.total.requests as f64)),
                    ("invocations".into(), Json::Num(pool.total.invocations as f64)),
                    (
                        "replayed_invocations".into(),
                        Json::Num(pool.total.replayed_invocations as f64),
                    ),
                    ("faults_injected".into(), Json::Num(pool.total.faults_injected as f64)),
                    ("retries".into(), Json::Num(pool.total.retries as f64)),
                    ("fallbacks".into(), Json::Num(pool.total.fallbacks as f64)),
                    ("virtual_ns".into(), Json::Num(pool.total.virtual_ns as f64)),
                ]),
            ),
            (
                "tenants".into(),
                Json::Obj(
                    pool.tenants
                        .iter()
                        .map(|(name, s)| {
                            (
                                name.clone(),
                                Json::Obj(vec![
                                    ("requests".into(), Json::Num(s.requests as f64)),
                                    ("invocations".into(), Json::Num(s.invocations as f64)),
                                    (
                                        "replayed_invocations".into(),
                                        Json::Num(s.replayed_invocations as f64),
                                    ),
                                    ("faults_injected".into(), Json::Num(s.faults_injected as f64)),
                                    ("retries".into(), Json::Num(s.retries as f64)),
                                    ("fallbacks".into(), Json::Num(s.fallbacks as f64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "breakers".into(),
                Json::Arr(
                    pool.breakers
                        .iter()
                        .map(|shard| {
                            Json::Arr(
                                shard
                                    .iter()
                                    .map(|b| {
                                        Json::Obj(vec![
                                            ("target".into(), Json::Str(b.target.clone())),
                                            ("state".into(), Json::Str(b.state.to_string())),
                                            ("trips".into(), Json::Num(b.trips as f64)),
                                            ("steered".into(), Json::Num(b.steered as f64)),
                                        ])
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "resilience".into(),
                Json::Obj(vec![
                    ("worker_panics".into(), Json::Num(self.worker_panics() as f64)),
                    ("quarantined_sources".into(), Json::Num(self.quarantine.counts().0 as f64)),
                    ("quarantined_graphs".into(), Json::Num(self.quarantine.counts().1 as f64)),
                ]),
            ),
            ("price_memo".into(), cache(pool.price_memo)),
        ])
        .render()
    }
}

/// One admitted request: the raw line, its admission cost, and where its
/// response goes.
struct Job {
    line: String,
    cost: u64,
    reply: mpsc::Sender<String>,
}

/// Queue state shared between submitters and workers.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    not_empty: Condvar,
    depth: usize,
    /// Cost (line bytes) of every admitted request not yet fully
    /// processed — queued or executing. Charged at admission, released
    /// by the worker after the response is sent.
    inflight_cost: AtomicU64,
    max_inflight_cost: u64,
    /// Once set, no further submissions are admitted; workers drain the
    /// queue and exit.
    stopping: AtomicBool,
}

/// Admission control + worker pool around a [`ServeEngine`].
pub struct ServeServer {
    engine: Arc<ServeEngine>,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    worker_count: usize,
}

impl fmt::Debug for ServeServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeServer")
            .field("workers", &self.workers.len())
            .field("depth", &self.shared.depth)
            .finish()
    }
}

impl ServeServer {
    /// Starts the worker pool immediately.
    pub fn start(engine: Arc<ServeEngine>, cfg: &ServeConfig) -> ServeServer {
        let mut server = ServeServer::paused(engine, cfg);
        server.resume();
        server
    }

    /// Builds the server without starting workers — submissions queue up
    /// (and overflow deterministically), which is how the overload test
    /// fills the queue without racing the drain. Call
    /// [`ServeServer::resume`] to start processing.
    pub fn paused(engine: Arc<ServeEngine>, cfg: &ServeConfig) -> ServeServer {
        ServeServer {
            engine,
            shared: Arc::new(Shared {
                queue: Mutex::new(VecDeque::new()),
                not_empty: Condvar::new(),
                depth: cfg.queue_depth.max(1),
                inflight_cost: AtomicU64::new(0),
                max_inflight_cost: cfg.max_inflight_cost.max(1),
                stopping: AtomicBool::new(false),
            }),
            workers: Vec::new(),
            worker_count: cfg.workers.max(1),
        }
    }

    /// Spawns the worker threads (idempotent after the first call).
    pub fn resume(&mut self) {
        if !self.workers.is_empty() {
            return;
        }
        for _ in 0..self.worker_count {
            let engine = Arc::clone(&self.engine);
            let shared = Arc::clone(&self.shared);
            self.workers.push(std::thread::spawn(move || loop {
                let job = {
                    let mut q = shared.queue.lock().unwrap();
                    loop {
                        if let Some(job) = q.pop_front() {
                            break job;
                        }
                        if shared.stopping.load(Ordering::Acquire) {
                            return;
                        }
                        q = shared.not_empty.wait(q).unwrap();
                    }
                };
                // The engine isolates request panics itself; this backstop
                // guarantees the worker survives even a panic outside that
                // region (parse, stats, render).
                let resp = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    engine.handle_line(&job.line)
                }))
                .unwrap_or_else(|_| {
                    engine.note_worker_panic();
                    reject_line(&job.line, &ServeError::Panic("request processing panicked".into()))
                });
                // A dropped receiver (client went away) is not an error.
                let _ = job.reply.send(resp);
                shared.inflight_cost.fetch_sub(job.cost, Ordering::Relaxed);
            }));
        }
    }

    /// Admits one request line; its response will be sent to `reply`.
    ///
    /// # Errors
    ///
    /// In check order: [`ServeError::ShuttingDown`] once admission has
    /// stopped, [`ServeError::Quarantined`] when the request's source
    /// hash is quarantined (rejected before reaching a worker),
    /// [`ServeError::Overloaded`] when the queue is at capacity, and
    /// [`ServeError::Shedding`] when the in-flight cost limit would be
    /// exceeded.
    pub fn submit(&self, line: String, reply: mpsc::Sender<String>) -> Result<(), ServeError> {
        let depth = self.shared.depth;
        if self.shared.stopping.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        // Admission-level quarantine: the parse is paid only once a panic
        // has actually populated the quarantine.
        if !self.engine.quarantine().is_empty() {
            if let Ok(Request::Run(r)) = Request::parse(&line) {
                if self.engine.quarantine().has_source(source_hash(&r.program, &r.sizes)) {
                    return Err(ServeError::Quarantined(
                        "program source is quarantined after a prior worker panic".into(),
                    ));
                }
            }
        }
        let cost = line.len() as u64;
        {
            let mut q = self.shared.queue.lock().unwrap();
            if q.len() >= depth {
                return Err(ServeError::Overloaded { depth });
            }
            // The in-flight counter only moves under the queue lock on
            // the admission side, so the check-then-charge is atomic
            // against other submitters; workers decrement lock-free.
            let inflight = self.shared.inflight_cost.load(Ordering::Relaxed);
            let would_be = inflight.saturating_add(cost);
            if would_be > self.shared.max_inflight_cost {
                return Err(ServeError::Shedding {
                    cost: would_be,
                    limit: self.shared.max_inflight_cost,
                });
            }
            self.shared.inflight_cost.fetch_add(cost, Ordering::Relaxed);
            q.push_back(Job { line, cost, reply });
        }
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Cost (line bytes) of admitted requests not yet fully processed.
    pub fn inflight_cost(&self) -> u64 {
        self.shared.inflight_cost.load(Ordering::Relaxed)
    }

    /// Stops admitting new requests without joining the workers: late
    /// submissions get a typed `shutting_down` rejection while already
    /// admitted requests keep draining. The graceful-drain half of
    /// [`ServeServer::shutdown`].
    pub fn stop_admitting(&self) {
        self.shared.stopping.store(true, Ordering::Release);
        self.shared.not_empty.notify_all();
    }

    /// Stops admitting, drains the queue, and joins every worker.
    pub fn shutdown(mut self) {
        self.stop_admitting();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The transports' shared read loop: submits every non-blank line of
/// `lines` to `server`, answering a refused one on `tx` with its typed
/// rejection, until EOF or a `shutdown` request (which is submitted too,
/// for its acknowledgement). Returns whether a shutdown was requested.
fn pump_lines(
    lines: impl Iterator<Item = std::io::Result<String>>,
    server: &ServeServer,
    tx: &mpsc::Sender<String>,
) -> std::io::Result<bool> {
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let is_shutdown = matches!(Request::parse(&line), Ok(Request::Shutdown { .. }));
        if let Err(e) = server.submit(line.clone(), tx.clone()) {
            let _ = tx.send(reject_line(&line, &e));
        }
        if is_shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Serves newline-delimited JSON over stdin/stdout until EOF or a
/// `shutdown` request. Responses are written in completion order by a
/// dedicated writer thread; queued requests are drained before exit.
///
/// # Errors
///
/// Only transport failures (stdin read errors); request-level failures
/// go on the wire as typed error responses.
pub fn serve_stdio(cfg: &ServeConfig) -> Result<(), String> {
    use std::io::BufRead;
    let engine = Arc::new(ServeEngine::new(cfg));
    let server = ServeServer::start(Arc::clone(&engine), cfg);
    let (tx, rx) = mpsc::channel::<String>();
    let writer = std::thread::spawn(move || {
        use std::io::Write;
        let stdout = std::io::stdout();
        for line in rx {
            let mut out = stdout.lock();
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        }
    });

    let pumped = pump_lines(std::io::stdin().lock().lines(), &server, &tx);
    server.shutdown();
    drop(tx);
    let _ = writer.join();
    pumped.map(|_| ()).map_err(|e| format!("stdin: {e}"))
}

/// Serves newline-delimited JSON over TCP. Each connection gets its own
/// reader thread and response channel; all connections share one engine,
/// admission queue, and worker pool. A `shutdown` request from any
/// client stops the listener after its acknowledgement is sent.
///
/// # Errors
///
/// Binding failures; per-connection I/O errors only end that connection.
pub fn serve_tcp(cfg: &ServeConfig, addr: &str) -> Result<(), String> {
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    serve_listener(cfg, listener)
}

/// [`serve_tcp`] on an already-bound listener.
fn serve_listener(cfg: &ServeConfig, listener: std::net::TcpListener) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};

    let local = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!("pmc serve: listening on {local}");
    let engine = Arc::new(ServeEngine::new(cfg));
    let server = Arc::new(ServeServer::start(Arc::clone(&engine), cfg));
    let stop = Arc::new(AtomicBool::new(false));
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();

    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        // Reap closed connections: a long-lived listener holds handles
        // for the open ones only, not for every connection ever accepted.
        conns.retain(|c| !c.is_finished());
        let Ok(stream) = stream else { continue };
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        conns.push(std::thread::spawn(move || {
            let (tx, rx) = mpsc::channel::<String>();
            let Ok(write_half) = stream.try_clone() else { return };
            let writer = std::thread::spawn(move || {
                let mut out = write_half;
                for line in rx {
                    if writeln!(out, "{line}").is_err() {
                        break;
                    }
                    let _ = out.flush();
                }
            });
            // A read error only ends this connection.
            if pump_lines(BufReader::new(stream).lines(), &server, &tx).unwrap_or(false) {
                stop.store(true, Ordering::Release);
                // Unblock the accept loop so the listener can close.
                let _ = std::net::TcpStream::connect(local);
            }
            drop(tx);
            let _ = writer.join();
        }));
    }
    for c in conns {
        let _ = c.join();
    }
    if let Ok(s) = Arc::try_unwrap(server) {
        s.shutdown();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOT: &str = "main(input float x[4], output float y) {
         index i[0:3];
         y = sum[i](x[i]*x[i]);
     }";

    fn run_line(id: &str, program: &str) -> String {
        Json::Obj(vec![
            ("op".into(), Json::Str("run".into())),
            ("id".into(), Json::Str(id.into())),
            ("tenant".into(), Json::Str("t0".into())),
            ("program".into(), Json::Str(program.into())),
            (
                "feeds".into(),
                Json::Obj(vec![(
                    "x".into(),
                    Json::Obj(vec![
                        ("dims".into(), Json::Arr(vec![Json::Num(4.0)])),
                        (
                            "values".into(),
                            Json::Arr(vec![
                                Json::Num(1.0),
                                Json::Num(2.0),
                                Json::Num(3.0),
                                Json::Num(4.0),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
        .render()
    }

    /// `line` with one more top-level field.
    fn with_field(line: &str, name: &str, value: Json) -> String {
        let Ok(Json::Obj(mut fields)) = Json::parse(line) else { panic!("not an object: {line}") };
        fields.push((name.into(), value));
        Json::Obj(fields).render()
    }

    fn id_of(resp: &str) -> String {
        let v = Json::parse(resp).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        v.get("id").and_then(Json::as_str).unwrap().to_string()
    }

    #[test]
    fn run_request_round_trips() {
        let engine = ServeEngine::new(&ServeConfig { host_only: true, ..Default::default() });
        let resp = engine.handle_line(&run_line("r1", DOT));
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("r1"));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("program_cache").and_then(Json::as_str), Some("miss"));
        let y = v.get("outputs").and_then(|o| o.get("y")).unwrap();
        assert_eq!(y.get("values").and_then(Json::as_array), Some(&[Json::Num(30.0)][..]));
        assert_eq!(resp.capacity(), resp.len(), "a queued reply carries no rendering slack");
    }

    #[test]
    fn warm_response_hits_and_outputs_match_cold_byte_for_byte() {
        let engine = ServeEngine::new(&ServeConfig { host_only: true, ..Default::default() });
        let cold = engine.handle_line(&run_line("c", DOT));
        let warm = engine.handle_line(&run_line("w", DOT));
        let cv = Json::parse(&cold).unwrap();
        let wv = Json::parse(&warm).unwrap();
        assert_eq!(cv.get("program_cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(wv.get("program_cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(
            cv.get("outputs").unwrap().render(),
            wv.get("outputs").unwrap().render(),
            "cache hit must be byte-identical to the cold compile"
        );
        assert_eq!(wv.get("lower_us").and_then(Json::as_f64), Some(0.0));
        assert_eq!(wv.get("compile_us").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn malformed_lines_get_typed_errors() {
        let engine = ServeEngine::new(&ServeConfig { host_only: true, ..Default::default() });
        for (line, kind) in [
            ("not json", "bad_request"),
            ("{\"id\":\"x\"}", "bad_request"),
            ("{\"op\":\"run\",\"id\":\"x\"}", "bad_request"),
            ("{\"op\":\"warp\",\"id\":\"x\"}", "bad_request"),
            ("{\"op\":\"run\",\"id\":\"x\",\"program\":\"main(\"}", "compile"),
            // Out of range for their types: rejected, not truncated.
            (r#"{"op":"run","id":"x","program":"p","sizes":{"n":1e300}}"#, "bad_request"),
            (r#"{"op":"run","id":"x","program":"p","sizes":{"n":-1e19}}"#, "bad_request"),
            (
                r#"{"op":"run","id":"x","program":"p","chaos":{"max_retries":4294967297}}"#,
                "bad_request",
            ),
            // The most invocations a line may ask for, and one more.
            (r#"{"op":"run","id":"x","program":"p","invocations":4096}"#, "compile"),
            (r#"{"op":"run","id":"x","program":"p","invocations":4097}"#, "bad_request"),
            // 2^32 × 2^32 elements: the count overflows, it does not wrap
            // to an empty tensor.
            (
                r#"{"op":"run","id":"x","program":"p","feeds":{"x":{"dims":[4294967296,4294967296],"values":[]}}}"#,
                "bad_request",
            ),
        ] {
            let v = Json::parse(&engine.handle_line(line)).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
            let k = v.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
            assert_eq!(k, Some(kind), "{line}");
        }
    }

    #[test]
    fn overload_rejects_with_typed_error() {
        let cfg = ServeConfig { queue_depth: 2, host_only: true, ..Default::default() };
        let engine = Arc::new(ServeEngine::new(&cfg));
        // Paused server: the queue fills deterministically.
        let mut server = ServeServer::paused(Arc::clone(&engine), &cfg);
        let (tx, rx) = mpsc::channel();
        assert!(server.submit(run_line("a", DOT), tx.clone()).is_ok());
        assert!(server.submit(run_line("b", DOT), tx.clone()).is_ok());
        let err = server.submit(run_line("c", DOT), tx.clone()).unwrap_err();
        assert_eq!(err, ServeError::Overloaded { depth: 2 });
        assert_eq!(err.kind(), "overloaded");
        // The rejection renders as a response, echoing the request id.
        let rejection = reject_line(&run_line("c", DOT), &err);
        let v = Json::parse(&rejection).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("c"));
        assert_eq!(
            v.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
            Some("overloaded")
        );
        // Resume: both admitted requests complete.
        server.resume();
        drop(tx);
        let mut got = Vec::new();
        for _ in 0..2 {
            got.push(rx.recv().expect("admitted requests must complete"));
        }
        server.shutdown();
        for resp in got {
            let v = Json::parse(&resp).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        }
    }

    #[test]
    fn stats_reports_cache_and_pool_counters() {
        let engine = ServeEngine::new(&ServeConfig { host_only: true, ..Default::default() });
        engine.handle_line(&run_line("a", DOT));
        engine.handle_line(&run_line("b", DOT));
        let v = Json::parse(&engine.handle_line("{\"op\":\"stats\",\"id\":\"s\"}")).unwrap();
        let pc = v.get("program_cache").unwrap();
        assert_eq!(pc.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(pc.get("misses").and_then(Json::as_u64), Some(1));
        let tc = v.get("template_cache").unwrap();
        let inserts = tc.get("inserts").and_then(Json::as_u64).unwrap();
        assert_eq!(tc.get("entries").and_then(Json::as_u64), Some(inserts), "nothing evicted");
        for c in [pc, tc] {
            let bytes = c.get("bytes").and_then(Json::as_u64).unwrap();
            let capacity = c.get("capacity_bytes").and_then(Json::as_u64).unwrap();
            let entries = c.get("entries").and_then(Json::as_u64).unwrap();
            assert!(bytes <= capacity, "{bytes} of {capacity} bytes");
            assert_eq!(bytes > 0, entries > 0, "{bytes} bytes in {entries} entries");
            assert_eq!(capacity, srdfg::DEFAULT_CAPACITY_BYTES as u64);
        }
        assert!(tc.get("bypassed").and_then(Json::as_u64).is_some());
        let pool = v.get("pool").unwrap();
        assert_eq!(pool.get("requests").and_then(Json::as_u64), Some(2));
        // The second request ran the cached program: same artifact, so
        // every partition the first one priced is a memo hit.
        let pm = v.get("price_memo").unwrap();
        let priced = pm.get("misses").and_then(Json::as_u64).unwrap();
        assert!(priced > 0);
        assert_eq!(pm.get("hits").and_then(Json::as_u64), Some(priced));
        assert_eq!(pm.get("entries").and_then(Json::as_u64), Some(priced));
    }

    #[test]
    fn a_queued_request_goes_to_the_free_worker() {
        let cfg = ServeConfig { workers: 2, host_only: true, ..Default::default() };
        let engine = Arc::new(ServeEngine::new(&cfg));
        let mut server = ServeServer::paused(Arc::clone(&engine), &cfg);
        let (tx, rx) = mpsc::channel();
        // The most invocations a line may ask for, of a 256-term sum, queued
        // ahead of one invocation of a 4-term one: the worker that takes the
        // first must leave the second to the other worker, not run it
        // afterwards.
        let wide = "main(input float x[4], output float y) {
             index i[0:3], j[0:63];
             y = sum[i][j](x[i]*x[i]);
         }";
        let most = Json::Num(MAX_INVOCATIONS as f64);
        let slow = with_field(&run_line("slow", wide), "invocations", most);
        server.submit(slow, tx.clone()).unwrap();
        server.submit(run_line("quick", DOT), tx.clone()).unwrap();
        server.resume();
        let order = [rx.recv().unwrap(), rx.recv().unwrap()].map(|resp| id_of(&resp));
        server.shutdown();
        assert_eq!(order, ["quick", "slow"]);
    }

    #[test]
    fn tcp_round_trip_matches_the_engine_and_the_listener_joins() {
        use std::io::{BufRead, BufReader, Write};
        let cfg = ServeConfig { host_only: true, ..Default::default() };
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let serving = {
            let cfg = cfg.clone();
            std::thread::spawn(move || serve_listener(&cfg, listener))
        };
        let mut out = std::net::TcpStream::connect(addr).unwrap();
        let mut replies = BufReader::new(out.try_clone().unwrap()).lines();
        // Lock-step, so completion order is request order; wall-clock
        // fields off, so a fresh engine renders the same bytes.
        let reference = ServeEngine::new(&cfg);
        for line in [
            with_field(&run_line("r", DOT), "timings", Json::Bool(false)),
            "{\"op\":\"stats\",\"id\":\"s\"}".to_string(),
            "{\"op\":\"shutdown\",\"id\":\"bye\"}".to_string(),
        ] {
            writeln!(out, "{line}").unwrap();
            let reply = replies.next().expect("one reply per request").unwrap();
            assert_eq!(reply, reference.handle_line(&line), "{line}");
        }
        serving.join().expect("listener thread panicked").expect("serve_listener failed");
    }
}
