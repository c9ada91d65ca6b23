//! `serve-warm` and `serve-churn`: what tenants of `pmc serve` pay per
//! request, through the in-process `ServeServer`.
//!
//! Load comes from this one thread as a closed loop of two clients: each
//! has one request outstanding and sends its next when the reply arrives.
//! Tenants are callers that wait for their answer; an open-loop rate sweep
//! needs more cores than two workers and a generator leave on this box.

use crate::catalogue::{self, ServeRequest, CLIENTS};
use crate::pipeline::{self, Caches, CompileFacts, Inputs};
use crate::report::{proc_status, Report, Samples};
use crate::stats::{self, ms, SplitMix};
use crate::trace::Tracer;
use polymath::{Request, ServeConfig, ServeEngine, ServeServer};
use std::sync::{mpsc, Arc};
use std::time::Instant;

pub struct Setup {
    engine: Arc<ServeEngine>,
    server: ServeServer,
    pool: Vec<ServeRequest>,
    /// Names of the groups latencies are kept apart by.
    groups: &'static [&'static str],
    /// What every timed response must say about the program cache.
    cache: &'static str,
    /// Hands each client its next request (an index into `pool`).
    next: Box<dyn FnMut(usize) -> Option<usize>>,
}

impl Setup {
    /// Drains the queue and joins the workers.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Sends one request and waits for its reply.
fn round_trip(server: &ServeServer, req: &ServeRequest) -> Result<String, String> {
    let (tx, rx) = mpsc::channel();
    server.submit(req.line.clone(), tx).map_err(|e| format!("{}: {e}", req.id))?;
    rx.recv().map_err(|e| format!("{}: {e}", req.id))
}

/// Renders the request lines and their expected outputs, starts the
/// engine and the server, and sends the untimed warm-up requests.
pub fn setup(workload: &str, seed: u64, report: &mut Report) -> Setup {
    let cfg = ServeConfig { shards: 2, workers: 2, queue_depth: 64, ..Default::default() };
    let engine = Arc::new(ServeEngine::new(&cfg));
    let server = ServeServer::start(Arc::clone(&engine), &cfg);
    let mut warm_up = |requests: &[&ServeRequest]| {
        for req in requests {
            let reply = round_trip(&server, req);
            report.check(reply.and_then(|r| catalogue::check_response(req, &r, "miss")).map(drop));
        }
    };

    if workload == "serve-warm" {
        let pool = catalogue::warm_pool(seed);
        // The pool starts with one request of every entry per client.
        let first: Vec<&ServeRequest> = pool.iter().step_by(CLIENTS).take(8).collect();
        warm_up(&first);
        // Each client deals its requests from a shuffled deck, so every
        // seed sends every entry equally often.
        let mut decks: Vec<(SplitMix, Vec<usize>, Vec<usize>)> = (0..CLIENTS)
            .map(|c| {
                let own = (0..pool.len()).filter(|&i| pool[i].client == c).collect();
                (SplitMix(seed ^ (c as u64 + 1)), own, Vec::new())
            })
            .collect();
        let next = move |client: usize| {
            let (rng, own, deck) = &mut decks[client];
            if deck.is_empty() {
                deck.clone_from(own);
                rng.shuffle(deck);
            }
            deck.pop()
        };
        let groups = &catalogue::WARM_ENTRIES;
        Setup { engine, server, pool, groups, cache: "hit", next: Box::new(next) }
    } else {
        let warm = catalogue::churn_warmup(seed);
        warm_up(&warm.iter().collect::<Vec<_>>());
        let pool = catalogue::churn_catalogue(seed);
        // Clients walk alternate catalogue positions; no program repeats.
        let mut cursors: Vec<usize> = (0..CLIENTS).collect();
        let len = pool.len();
        let next = move |client: usize| {
            let at = cursors[client];
            cursors[client] += CLIENTS;
            (at < len).then_some(at)
        };
        let groups = &catalogue::CHURN_FAMILIES;
        Setup { engine, server, pool, groups, cache: "miss", next: Box::new(next) }
    }
}

struct Reply {
    request: usize,
    latency_ms: f64,
    response: String,
}

/// The client whose request a response answers, from its `c<k>-…` id.
fn client_of(response: &str) -> Option<usize> {
    let digit = response.strip_prefix("{\"id\":\"c")?.chars().next()?.to_digit(10)?;
    ((digit as usize) < CLIENTS).then_some(digit as usize)
}

/// Runs the closed loop for `seconds`, or until the requests run out;
/// returns the replies, the wall time and the number of refusals.
fn closed_loop(setup: &mut Setup, seconds: f64) -> Result<(Vec<Reply>, f64, u64), String> {
    let (tx, rx) = mpsc::channel();
    let mut inflight: [Option<(usize, Instant)>; CLIENTS] = [None; CLIENTS];
    let mut replies = Vec::new();
    let mut rejected = 0;
    let start = Instant::now();
    let mut send = |client: usize, inflight: &mut [Option<(usize, Instant)>; CLIENTS]| {
        while let Some(request) = (setup.next)(client) {
            let line = setup.pool[request].line.clone();
            let sent = Instant::now();
            match setup.server.submit(line, tx.clone()) {
                Ok(()) => {
                    inflight[client] = Some((request, sent));
                    return;
                }
                Err(_) => rejected += 1,
            }
        }
    };
    for client in 0..CLIENTS {
        send(client, &mut inflight);
    }
    while inflight.iter().any(Option::is_some) {
        let response = rx.recv().map_err(|e| format!("server hung up: {e}"))?;
        let now = Instant::now();
        let answered = client_of(&response).and_then(|c| Some((c, inflight[c].take()?)));
        let Some((client, (request, sent))) = answered else {
            return Err(format!("response matches no outstanding request: {response}"));
        };
        replies.push(Reply { request, latency_ms: ms(now - sent), response });
        if start.elapsed().as_secs_f64() < seconds {
            send(client, &mut inflight);
        }
    }
    Ok((replies, start.elapsed().as_secs_f64(), rejected))
}

/// What the closed loop measured.
struct Measured {
    requests: usize,
    wall_s: f64,
    rejected: u64,
    /// Per group: `client` latencies in ms, and `execute`, the execution
    /// time per invocation the responses themselves report.
    samples: Samples,
}

/// Runs the closed loop, then verifies every kept reply, counts refusals
/// as failed operations and prints the per-group rows that explain the
/// pooled percentiles. `None` when the server stopped answering.
fn measure(setup: &mut Setup, seconds: f64, report: &mut Report) -> Option<Measured> {
    let (replies, wall_s, rejected) = match closed_loop(setup, seconds) {
        Ok(done) => done,
        Err(why) => {
            report.fail(why);
            return None;
        }
    };
    report.attempted += rejected;
    report.failed += rejected;
    let mut samples = Samples::default();
    for reply in &replies {
        let req = &setup.pool[reply.request];
        samples.add("client", req.group, reply.latency_ms);
        let checked = catalogue::check_response(req, &reply.response, setup.cache);
        if let Some(us) = checked.as_ref().ok().and_then(|doc| doc.get("execute_us")?.as_f64()) {
            samples.add("execute", req.group, us / 1e3 / req.invocations as f64);
        }
        report.check(checked.map(drop));
    }
    for (name, group) in setup.groups.iter().zip(samples.groups("client")) {
        report.timing(&format!("core.serve.p50_ms.{name}"), "ms", group);
    }
    Some(Measured { requests: replies.len(), wall_s, rejected, samples })
}

/// The untraced run: the end-to-end metrics.
pub fn run(setup: &mut Setup, seconds: f64, report: &mut Report) {
    let Some(Measured { requests, wall_s, samples, .. }) = measure(setup, seconds, report) else {
        return;
    };
    let latencies = samples.pooled("client");
    report.timing("latency_ms", "ms", &latencies);
    report.note(
        "execute_ms",
        samples.geomean_of_medians("execute"),
        "ms",
        "geomean over groups of the median `execute_us` the responses report / invocations".into(),
    );
    report.note(
        "ops_per_s",
        requests as f64 / wall_s,
        "1/s",
        format!("{requests} requests in {wall_s:.3} s, {CLIENTS} clients"),
    );
    report.metric("serve_p90_ms", stats::quantile(&latencies, 0.9), "ms");
}

/// Share of a traced run spent in the real closed loop; the rest replays
/// requests stage by stage on this thread.
const CLOSED_LOOP_SHARE: f64 = 0.4;

/// What a staged replay learnt about its request.
struct Replayed {
    facts: CompileFacts,
    lowered_nodes: usize,
}

/// One request through the engine's public constituents, a span around
/// each, against the engine's own caches and the tenant's own SoC shard —
/// so the stages see the cache state real requests see.
fn replay(
    tr: &mut Tracer,
    op: u32,
    engine: &ServeEngine,
    req: &ServeRequest,
    expect_hit: bool,
) -> Result<Replayed, String> {
    let compiler = engine.compiler();
    let (templates, programs) = (compiler.template_cache(), compiler.program_cache());
    let caches =
        Caches { targets: compiler.targets(), templates: &templates, programs: Some(&programs) };
    let parsed = tr.leaf("core.serve.parse", op, || Request::parse(&req.line));
    let Ok(Request::Run(run)) = parsed else {
        return Err(format!("{}: request line does not parse as a run", req.id));
    };
    // The verifier guards no served request today; it is timed on the
    // miss path, where ROADMAP item 4c would put it.
    let (compiled, facts) =
        pipeline::compile(tr, op, "core.serve.compile", &run.program, &caches, !expect_hit)?;
    if facts.program_cache_hit != expect_hit {
        return Err(format!("{}: replay found program_cache hit={}", req.id, !expect_hit));
    }
    let soc = engine.pool().shard(engine.pool().shard_for(&run.tenant));
    let inputs = Inputs { feeds: &run.feeds, state: &run.state, invocations: run.invocations };
    let outcome = pipeline::execute(tr, op, soc, &compiled, compiler.targets(), &inputs)?;
    catalogue::check_tensors(&req.expected, &outcome.outputs)
        .map_err(|e| format!("{}: {e}", req.id))?;
    Ok(Replayed { facts, lowered_nodes: compiled.graph.node_count() })
}

/// The traced run. First the real closed loop, for client-observed
/// latency. Then, request by request on this thread with the server idle,
/// `ServeEngine::handle_line` called directly and the staged [`replay`].
///
/// On `serve-warm` each request goes both ways: everything hits, so the
/// second pass finds what the first found, and the two must agree within
/// 15 %. On `serve-churn` whichever went second would find the interner
/// and the template cache warmed by the first, so client 0's requests go
/// through `handle_line` and client 1's through the replay: both see
/// programs nothing has seen, and the comparison is between two samples
/// of one distribution, reported but not enforced.
pub fn run_traced(setup: &mut Setup, seconds: f64, tr: &mut Tracer, report: &mut Report) {
    let caches_before = {
        let compiler = setup.engine.compiler();
        (compiler.program_cache_stats(), compiler.cache_stats())
    };
    let measured = measure(setup, seconds * CLOSED_LOOP_SHARE, report);
    let Some(Measured { requests, rejected, samples: client, .. }) = measured else { return };
    let threads = proc_status("Threads");

    let paired = setup.cache == "hit";
    let mut op_group: Vec<usize> = Vec::new();
    let mut rates = Samples::default();
    let mut facts: Vec<CompileFacts> = Vec::new();
    let mut request_bytes = Vec::new();
    let start = Instant::now();
    let budget = seconds * (1.0 - CLOSED_LOOP_SHARE);
    'replay: while start.elapsed().as_secs_f64() < budget {
        for client in 0..CLIENTS {
            let Some(request) = (setup.next)(client) else { break 'replay };
            let req = &setup.pool[request];
            let op = op_group.len() as u32;
            op_group.push(req.group);
            request_bytes.push(req.line.len() as f64);

            if paired || client == 0 {
                let response =
                    tr.leaf("core.serve.handle", op, || setup.engine.handle_line(&req.line));
                report.check(catalogue::check_response(req, &response, setup.cache).map(drop));
            }
            if paired || client == 1 {
                let first_span = tr.spans().len();
                let whole = tr.open("core.serve.request", op);
                let replayed = replay(tr, op, &setup.engine, req, paired);
                tr.close(whole);
                report.check(replayed.as_ref().map(drop).map_err(String::clone));
                let Ok(Replayed { facts: f, lowered_nodes }) = replayed else { continue };
                facts.push(f);
                pipeline::record_per_node(tr, first_span, lowered_nodes, req.group, &mut rates);
            }
        }
    }

    let traced = pipeline::span_samples(tr, &op_group);
    let stage = |name: &str| traced.mean_of_medians(name);
    pipeline::report_layers(&traced, &rates, &facts, report);

    // What `handle_line` does beyond its three public constituents:
    // render the response and update the pool's ledger.
    let handle = stage("core.serve.handle");
    let equivalent =
        stage("core.serve.parse") + stage("core.serve.compile") + stage("accel.trajectory");
    report.metric("core.serve.other_us", (handle - equivalent) * 1e3, "us");
    report.metric("trace.overhead_frac", equivalent / handle - 1.0, "ratio");
    if paired && (equivalent / handle - 1.0).abs() > 0.15 {
        report.fail(format!("replayed stages take {equivalent:.4} ms, handle_line {handle:.4} ms"));
    }
    report.metric("core.serve.queue_wait_ms", client.mean_of_medians("client") - handle, "ms");
    let latencies = client.pooled("client");
    report.timing("core.serve.p50_ms", "ms", &latencies);
    report.metric("core.serve.p90_ms", stats::quantile(&latencies, 0.9), "ms");
    report.metric("core.serve.p99_ms", stats::quantile(&latencies, 0.99), "ms");
    report.metric("core.serve.requests", (requests + op_group.len()) as f64, "count");
    report.metric("core.serve.request_bytes", stats::mean(&request_bytes), "bytes");
    report.metric("core.serve.rejected", rejected as f64, "count");
    report.metric("core.execute_ms", client.geomean_of_medians("execute"), "ms");

    // The engine's own caches, over everything sent since the warm-up.
    let pc = setup.engine.compiler().program_cache_stats().since(&caches_before.0);
    report.metric("lower.progcache.hits", pc.hits as f64, "count");
    report.metric("lower.progcache.misses", pc.misses as f64, "count");
    report.metric("lower.progcache.evictions", pc.evictions as f64, "count");
    report.metric("lower.progcache.entries", pc.entries as f64, "count");
    report.metric("lower.progcache.hit_ratio", pc.hit_rate(), "ratio");
    let tc = setup.engine.compiler().cache_stats().since(&caches_before.1);
    pipeline::report_template_cache(&tc, report);
    let pool = setup.engine.pool().report().total;
    report.metric("accel.sim_seconds", pool.seconds, "s");
    report.metric("accel.sim_energy_j", pool.energy_j, "J");
    report.metric("accel.retries", pool.retries as f64, "count");
    report.metric("accel.fallbacks", pool.fallbacks as f64, "count");
    report.metric("trace.spans", tr.spans().len() as f64, "count");
    report.metric("env.threads", threads, "count");
}
