//! The programs under test: PMLang sources from `pm_workloads`, inputs
//! generated from the seed, and the outputs each must produce.
//!
//! Expected outputs come from `pm_workloads::reference` (hand-written
//! Rust, independent of the compiler), stepped once per invocation with
//! state carried across invocations exactly as `Soc::run_trajectory`
//! carries it. The two cross-domain applications have no hand-written
//! reference; they are checked against the unoptimised, unlowered graph on
//! `srdfg::Machine`, which shares the frontend and the interpreter with
//! the program under test and is therefore the weaker oracle.

use crate::stats::SplitMix;
use pm_workloads::{apps, datagen, programs, reference};
use pmlang::DType;
use polymath::Json;
use srdfg::{Bindings, Machine, Tensor};
use std::collections::HashMap;

/// Where a program's expected outputs come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// `pm_workloads::reference`.
    Reference,
    /// The unoptimised, unlowered graph on `srdfg::Machine` (weaker).
    UnloweredGraph,
    /// Compiled and priced only; never executed functionally.
    NotExecuted,
}

/// Output name → flattened values (complex as interleaved `re, im`).
pub type Outputs = Vec<(String, Vec<f64>)>;

/// One program with its seeded inputs and expected outputs.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: String,
    pub source: String,
    pub feeds: HashMap<String, Tensor>,
    pub state: Vec<(String, Tensor)>,
    /// Invocations per trajectory; 0 for [`Oracle::NotExecuted`].
    pub invocations: u64,
    pub expected: Outputs,
    pub oracle: Oracle,
}

fn vec_t(v: &[f64]) -> Tensor {
    Tensor::from_vec(DType::Float, vec![v.len()], v.to_vec()).expect("shape matches")
}

fn mat_t(rows: usize, cols: usize, v: Vec<f64>) -> Tensor {
    Tensor::from_vec(DType::Float, vec![rows, cols], v).expect("shape matches")
}

fn scalar_t(v: f64) -> Tensor {
    Tensor::scalar(DType::Float, v)
}

fn rows(flat: &[f64], cols: usize) -> Vec<Vec<f64>> {
    flat.chunks(cols).map(<[f64]>::to_vec).collect()
}

fn named<const N: usize>(pairs: [(&str, Tensor); N]) -> HashMap<String, Tensor> {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

pub fn logistic(n: usize, invocations: u64, seed: u64) -> Program {
    let x = datagen::normal_vec(n, 1.0, seed);
    let w0 = datagen::normal_vec(n, 0.2, seed ^ 1);
    let label = (seed & 1) as f64;
    let mut w = w0.clone();
    let mut prob = 0.0;
    for _ in 0..invocations {
        prob = reference::logistic_step(&x, label, &mut w);
    }
    Program {
        name: format!("logistic-{n}"),
        source: programs::logistic(n),
        feeds: named([("x", vec_t(&x)), ("label", scalar_t(label))]),
        state: vec![("w".into(), vec_t(&w0))],
        invocations,
        expected: vec![("prob".into(), vec![prob])],
        oracle: Oracle::Reference,
    }
}

pub fn kmeans(features: usize, k: usize, invocations: u64, seed: u64) -> Program {
    let (samples, _) = datagen::gaussian_clusters(k + 1, features, k, seed);
    let mut centroids = samples[..k].to_vec();
    let init: Vec<f64> = centroids.iter().flatten().copied().collect();
    let x = &samples[k];
    let mut assign = 0;
    for _ in 0..invocations {
        assign = reference::kmeans_step(x, &mut centroids);
    }
    Program {
        name: format!("kmeans-{features}x{k}"),
        source: programs::kmeans(features, k),
        feeds: named([("x", vec_t(x))]),
        state: vec![("c".into(), mat_t(k, features, init))],
        invocations,
        expected: vec![("assign".into(), vec![assign as f64])],
        oracle: Oracle::Reference,
    }
}

pub fn lrmf(movies: usize, rank: usize, invocations: u64, seed: u64) -> Program {
    let (ratings, mask) = datagen::low_rank_ratings(1, movies, rank, 0.3, seed);
    let mut user = vec![0.1; rank];
    let mut factors = vec![vec![0.1; rank]; movies];
    let mut err = 0.0;
    for _ in 0..invocations {
        err = reference::lrmf_step(&ratings[0], &mask[0], &mut user, &mut factors);
    }
    Program {
        name: format!("lrmf-{movies}x{rank}"),
        source: programs::lrmf(movies, rank),
        feeds: named([("r_u", vec_t(&ratings[0])), ("mask", vec_t(&mask[0]))]),
        state: vec![
            ("u_f".into(), vec_t(&vec![0.1; rank])),
            ("m_f".into(), mat_t(movies, rank, vec![0.1; movies * rank])),
        ],
        invocations,
        expected: vec![("err".into(), vec![err])],
        oracle: Oracle::Reference,
    }
}

pub fn fft(n: usize, seed: u64) -> Program {
    let input: Vec<(f64, f64)> = datagen::signal(n, seed).into_iter().map(|v| (v, 0.0)).collect();
    let mut spectrum = input.clone();
    reference::fft(&mut spectrum);
    Program {
        name: format!("fft-{n}"),
        source: programs::fft(n),
        feeds: named([("x", Tensor::from_complex_vec(vec![n], input).expect("shape matches"))]),
        state: Vec::new(),
        invocations: 1,
        expected: vec![("X".into(), spectrum.iter().flat_map(|&(re, im)| [re, im]).collect())],
        oracle: Oracle::Reference,
    }
}

pub fn dct_block(seed: u64) -> Program {
    let img = datagen::image(8, seed);
    let ck = datagen::dct_kernel();
    Program {
        name: "dct-block".into(),
        source: programs::dct_block(),
        expected: vec![("out".into(), reference::dct(&img, 8, &ck))],
        feeds: named([("blk", mat_t(8, 8, img)), ("ck", mat_t(8, 8, ck))]),
        state: Vec::new(),
        invocations: 1,
        oracle: Oracle::Reference,
    }
}

const RATE: f64 = 0.03;
const TTE: f64 = 0.75;

pub fn black_scholes(n: usize, invocations: u64, seed: u64) -> Program {
    let mut r = SplitMix(seed);
    let spot: Vec<f64> = (0..n).map(|_| r.range_f64(60.0, 140.0)).collect();
    let strike: Vec<f64> = (0..n).map(|_| r.range_f64(80.0, 120.0)).collect();
    let vol: Vec<f64> = (0..n).map(|_| r.range_f64(0.1, 0.4)).collect();
    let call = (0..n).map(|i| reference::black_scholes_call(spot[i], strike[i], vol[i], RATE, TTE));
    Program {
        name: format!("blackscholes-{n}"),
        source: programs::black_scholes(n),
        expected: vec![("call".into(), call.collect())],
        feeds: named([
            ("spot", vec_t(&spot)),
            ("strike", vec_t(&strike)),
            ("vol", vec_t(&vol)),
            ("rate", scalar_t(RATE)),
            ("tte", scalar_t(TTE)),
        ]),
        state: Vec::new(),
        invocations,
        oracle: Oracle::Reference,
    }
}

/// The condensed-MPC matrices shared by `mpc` and `brain`: `(P, H,
/// pos_ref, HQ_g, R_g)` for `c` predicted states and `b` controls.
fn mpc_model(c: usize, b: usize, seed: u64) -> [Vec<f64>; 5] {
    [
        datagen::normal_vec(c * 3, 0.1, seed),
        datagen::normal_vec(c * b, 0.1, seed ^ 1),
        datagen::normal_vec(c, 1.0, seed ^ 2),
        datagen::normal_vec(b * c, 0.1, seed ^ 3),
        datagen::normal_vec(b * b, 0.1, seed ^ 4),
    ]
}

pub fn mpc(horizon: usize, invocations: u64, seed: u64) -> Program {
    let (c, b) = (3 * horizon, 2 * horizon);
    let [p, h, pos_ref, hq, rg] = mpc_model(c, b, seed);
    let pos = [0.1, -0.2, 0.05];
    let mut ctrl = vec![0.0; b];
    let mut signal = Vec::new();
    for _ in 0..invocations {
        signal = reference::mpc_step(
            &pos,
            &mut ctrl,
            &rows(&p, 3),
            &rows(&h, b),
            &pos_ref,
            &rows(&hq, c),
            &rows(&rg, b),
            horizon,
        );
    }
    Program {
        name: format!("mpc-{horizon}"),
        source: programs::mobile_robot(horizon),
        feeds: named([
            ("pos", vec_t(&pos)),
            ("P", mat_t(c, 3, p)),
            ("H", mat_t(c, b, h)),
            ("pos_ref", vec_t(&pos_ref)),
            ("HQ_g", mat_t(b, c, hq)),
            ("R_g", mat_t(b, b, rg)),
        ]),
        state: vec![("ctrl_mdl".into(), vec_t(&vec![0.0; b]))],
        invocations,
        expected: vec![("ctrl_sgnl".into(), signal)],
        oracle: Oracle::Reference,
    }
}

/// Runs the unoptimised, unlowered graph — the oracle for programs with
/// no hand-written reference.
fn unlowered_outputs(
    source: &str,
    feeds: &HashMap<String, Tensor>,
    state: &[(String, Tensor)],
    invocations: u64,
) -> Outputs {
    let (program, _) = pmlang::frontend(source).expect("catalogue sources pass the frontend");
    let graph = srdfg::build(&program, &Bindings::default()).expect("catalogue sources build");
    let mut machine = Machine::new(graph);
    for (name, value) in state {
        machine.set_state(name, value.clone());
    }
    let mut out = HashMap::new();
    for _ in 0..invocations {
        out = machine.invoke(feeds).expect("catalogue feeds match the program");
    }
    let mut flat: Outputs = out.iter().map(|(k, t)| (k.clone(), flatten(t))).collect();
    flat.sort_by(|a, b| a.0.cmp(&b.0));
    flat
}

/// Fills in `expected` for a program whose oracle is the unlowered graph.
fn with_unlowered_outputs(mut p: Program) -> Program {
    p.expected = unlowered_outputs(&p.source, &p.feeds, &p.state, p.invocations);
    p
}

/// BrainStimul (FFT → logistic regression → MPC across three domains).
pub fn brain(fft_n: usize, horizon: usize, invocations: u64, seed: u64) -> Program {
    let (c, b) = (3 * horizon, 2 * horizon);
    let [p, h, pos_ref, hq, rg] = mpc_model(c, b, seed);
    with_unlowered_outputs(Program {
        name: format!("brain-{fft_n}-{horizon}"),
        source: apps::brain_stimul(fft_n, horizon).source,
        feeds: named([
            ("ecog", vec_t(&datagen::signal(fft_n, seed ^ 5))),
            ("P", mat_t(c, 3, p)),
            ("H", mat_t(c, b, h)),
            ("pos_ref", vec_t(&pos_ref)),
            ("HQ_g", mat_t(b, c, hq)),
            ("R_g", mat_t(b, b, rg)),
        ]),
        state: vec![("w".into(), vec_t(&datagen::normal_vec(fft_n, 0.001, seed ^ 6)))],
        invocations,
        expected: Vec::new(),
        oracle: Oracle::UnloweredGraph,
    })
}

/// OptionPricing (sentiment regression scaling a Black-Scholes book).
pub fn option(words: usize, options: usize, invocations: u64, seed: u64) -> Program {
    let book = black_scholes(options, invocations, seed);
    let mut feeds = book.feeds;
    let vol0 = feeds.remove("vol").expect("black_scholes feeds vol");
    feeds.insert("vol0".into(), vol0);
    feeds.insert("wordv".into(), vec_t(&datagen::normal_vec(words, 0.1, seed ^ 1)));
    with_unlowered_outputs(Program {
        name: format!("option-{words}-{options}"),
        source: apps::option_pricing(words, options).source,
        feeds,
        state: vec![("w".into(), vec_t(&datagen::normal_vec(words, 0.05, seed ^ 2)))],
        invocations,
        expected: Vec::new(),
        oracle: Oracle::UnloweredGraph,
    })
}

fn priced_only(name: &str, source: String) -> Program {
    Program {
        name: name.into(),
        source,
        feeds: HashMap::new(),
        state: Vec::new(),
        invocations: 0,
        expected: Vec::new(),
        oracle: Oracle::NotExecuted,
    }
}

/// `compile-large`: Table III's single-domain rows, scaled so one round
/// takes under two seconds (paper-scale FFT-8192 alone compiles for 4 s).
pub fn compile_large(seed: u64) -> Vec<Program> {
    let mut r = SplitMix(seed);
    vec![
        kmeans(784, 10, 2, r.next_u64()),
        lrmf(1682, 16, 2, r.next_u64()),
        fft(1024, r.next_u64()),
        dct_block(r.next_u64()),
    ]
}

/// `compile-apps`: the multi-partition applications, the coarse-grained
/// networks (where frontend and mid-end dominate) and the template-cache
/// bypass path (RoboX keeps `mpc-64` at nine group nodes).
pub fn compile_apps(seed: u64) -> Vec<Program> {
    let mut r = SplitMix(seed);
    vec![
        brain(256, 64, 2, r.next_u64()),
        option(4096, 512, 2, r.next_u64()),
        priced_only("resnet18-224", programs::resnet18(224)),
        priced_only("mobilenet-224", programs::mobilenet(224)),
        mpc(64, 2, r.next_u64()),
    ]
}

/// Flattens a tensor the way [`Outputs`] stores it.
pub fn flatten(t: &Tensor) -> Vec<f64> {
    match (t.as_real_slice(), t.as_complex_slice()) {
        (Some(real), _) => real.to_vec(),
        (None, Some(complex)) => complex.iter().flat_map(|&(re, im)| [re, im]).collect(),
        (None, None) => Vec::new(),
    }
}

/// Compares produced outputs with the expected ones: every expected name
/// present, same length, each value within `1e-6 · max(1, |expected|)`.
pub fn check_outputs(
    expected: &Outputs,
    got: impl Fn(&str) -> Option<Vec<f64>>,
) -> Result<(), String> {
    for (name, want) in expected {
        let have = got(name).ok_or_else(|| format!("output `{name}` missing"))?;
        if have.len() != want.len() {
            return Err(format!("output `{name}`: {} values, expected {}", have.len(), want.len()));
        }
        for (i, (h, w)) in have.iter().zip(want).enumerate() {
            // Written so a NaN on either side fails.
            if (h - w).abs().partial_cmp(&(1e-6 * w.abs().max(1.0)))
                != Some(std::cmp::Ordering::Less)
            {
                return Err(format!("output `{name}`[{i}] = {h}, expected {w}"));
            }
        }
    }
    Ok(())
}

/// Checks a trajectory's final outputs.
pub fn check_tensors(expected: &Outputs, got: &HashMap<String, Tensor>) -> Result<(), String> {
    check_outputs(expected, |name| got.get(name).map(flatten))
}

// ---------------------------------------------------------------------
// Serve requests
// ---------------------------------------------------------------------

/// Closed-loop clients; each owns the requests whose id starts `c<k>-`.
pub const CLIENTS: usize = 2;
const TENANTS: usize = 4;

/// One rendered request line with what its response must contain.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    pub id: String,
    pub client: usize,
    /// Index into the workload's group names (entry or program family).
    pub group: usize,
    pub line: String,
    pub invocations: u64,
    pub expected: Outputs,
}

fn tensor_json(t: &Tensor) -> Json {
    let nums = |v: &mut dyn Iterator<Item = f64>| Json::Arr(v.map(Json::Num).collect());
    Json::Obj(vec![
        ("dims".into(), nums(&mut t.shape().iter().map(|&d| d as f64))),
        ("values".into(), nums(&mut flatten(t).into_iter())),
    ])
}

fn tensors_json<'a>(tensors: impl Iterator<Item = (&'a String, &'a Tensor)>) -> Json {
    let mut members: Vec<(String, Json)> =
        tensors.map(|(name, t)| (name.clone(), tensor_json(t))).collect();
    // HashMap order differs between runs; request bytes must not.
    members.sort_by(|a, b| a.0.cmp(&b.0));
    Json::Obj(members)
}

fn serve_request(index: usize, client: usize, group: usize, p: &Program) -> ServeRequest {
    let id = format!("c{client}-{index}");
    let line = Json::Obj(vec![
        ("op".into(), Json::Str("run".into())),
        ("id".into(), Json::Str(id.clone())),
        ("tenant".into(), Json::Str(format!("tenant-{}", (index / CLIENTS) % TENANTS))),
        ("program".into(), Json::Str(p.source.clone())),
        ("invocations".into(), Json::Num(p.invocations as f64)),
        ("feeds".into(), tensors_json(p.feeds.iter())),
        ("state".into(), tensors_json(p.state.iter().map(|(n, t)| (n, t)))),
    ])
    .render();
    ServeRequest {
        id,
        client,
        group,
        line,
        invocations: p.invocations,
        expected: p.expected.clone(),
    }
}

/// The eight `serve-warm` entries, by name.
pub const WARM_ENTRIES: [&str; 8] = [
    "logistic-64",
    "logistic-256",
    "logistic-1024",
    "kmeans-16x4",
    "kmeans-64x8",
    "blackscholes-32",
    "blackscholes-256",
    "dct-block",
];

fn warm_entry(entry: usize, seed: u64) -> Program {
    match entry {
        0 => logistic(64, 1, seed),
        1 => logistic(256, 4, seed),
        2 => logistic(1024, 1, seed),
        3 => kmeans(16, 4, 8, seed),
        4 => kmeans(64, 8, 2, seed),
        5 => black_scholes(32, 1, seed),
        6 => black_scholes(256, 2, seed),
        _ => dct_block(seed),
    }
}

/// Distinct-feed variants of each `serve-warm` entry per client.
const WARM_VARIANTS: usize = 4;

/// The `serve-warm` request pool: per client, [`WARM_VARIANTS`] requests
/// of every entry with different feeds. Same program text per entry, so
/// everything after the warm-up is a program-cache hit.
pub fn warm_pool(seed: u64) -> Vec<ServeRequest> {
    let mut r = SplitMix(seed);
    let mut pool = Vec::new();
    for _ in 0..WARM_VARIANTS {
        for entry in 0..WARM_ENTRIES.len() {
            for client in 0..CLIENTS {
                let p = warm_entry(entry, r.next_u64());
                pool.push(serve_request(pool.len(), client, entry, &p));
            }
        }
    }
    pool
}

/// The three `serve-churn` program families, by name.
pub const CHURN_FAMILIES: [&str; 3] = ["logistic", "kmeans", "blackscholes"];

/// Programs in the `serve-churn` catalogue.
pub const CHURN_PROGRAMS: usize = 3000;

/// The `serve-churn` catalogue: [`CHURN_PROGRAMS`] programs, no two alike
/// and none equal to a warm-up program, in seeded order (not size order),
/// one invocation each. Clients take alternate positions.
pub fn churn_catalogue(seed: u64) -> Vec<ServeRequest> {
    let mut r = SplitMix(seed);
    let mut shapes: Vec<(usize, usize, usize)> = Vec::with_capacity(CHURN_PROGRAMS);
    shapes.extend((16..1216).map(|n| (0, n, 0)));
    shapes.extend((4..94).flat_map(|f| (2..12).map(move |k| (1, f, k))));
    shapes.extend((8..908).map(|n| (2, n, 0)));
    debug_assert_eq!(shapes.len(), CHURN_PROGRAMS);
    r.shuffle(&mut shapes);
    shapes
        .into_iter()
        .enumerate()
        .map(|(i, (family, a, b))| {
            let seed = r.next_u64();
            let p = match family {
                0 => logistic(a, 1, seed),
                1 => kmeans(a, b, 1, seed),
                _ => black_scholes(a, 1, seed),
            };
            serve_request(i, i % CLIENTS, family, &p)
        })
        .collect()
}

/// Untimed `serve-churn` warm-up: one small program per family, sized
/// outside the catalogue's ranges.
pub fn churn_warmup(seed: u64) -> Vec<ServeRequest> {
    [logistic(8, 1, seed), kmeans(3, 2, 1, seed), black_scholes(4, 1, seed)]
        .iter()
        .enumerate()
        .map(|(family, p)| serve_request(CHURN_PROGRAMS + family, family % CLIENTS, family, p))
        .collect()
}

/// Verifies one response line — `ok`, the expected program-cache outcome,
/// no retries or fallbacks, outputs equal to the reference — and returns
/// the parsed response.
pub fn check_response(req: &ServeRequest, response: &str, cache: &str) -> Result<Json, String> {
    let v = Json::parse(response).map_err(|e| format!("{}: response is not JSON: {e}", req.id))?;
    let fail = |what: String| format!("{}: {what}", req.id);
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(fail(format!("not ok: {response}")));
    }
    let outcome = v.get("program_cache").and_then(Json::as_str).unwrap_or("");
    if outcome != cache {
        return Err(fail(format!("program_cache is `{outcome}`, expected `{cache}`")));
    }
    for counter in ["retries", "fallbacks"] {
        if v.get(counter).and_then(Json::as_u64) != Some(0) {
            return Err(fail(format!("`{counter}` is not 0")));
        }
    }
    let outputs = v.get("outputs");
    check_outputs(&req.expected, |name| {
        let values = outputs?.get(name)?.get("values")?.as_array()?;
        values.iter().map(Json::as_f64).collect()
    })
    .map_err(fail)?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn corrupted_expected_value_is_caught() {
        let p = dct_block(3);
        let got: HashMap<String, Tensor> =
            p.expected.iter().map(|(k, v)| (k.clone(), mat_t(8, 8, v.clone()))).collect();
        assert_eq!(check_tensors(&p.expected, &got), Ok(()));
        let mut corrupted = p.expected.clone();
        corrupted[0].1[5] += 1e-3;
        assert!(check_tensors(&corrupted, &got).unwrap_err().contains("`out`[5]"));
        let mut nan = p.expected.clone();
        nan[0].1[0] = f64::NAN;
        assert!(check_tensors(&nan, &got).is_err());
        assert!(check_tensors(&p.expected, &HashMap::new()).unwrap_err().contains("missing"));
    }

    #[test]
    fn churn_catalogue_has_no_duplicate_program() {
        let catalogue = churn_catalogue(11);
        assert_eq!(catalogue.len(), CHURN_PROGRAMS);
        let program = |line: &str| {
            let v = Json::parse(line).unwrap();
            v.get("program").and_then(Json::as_str).unwrap().to_string()
        };
        let mut seen: HashSet<String> = churn_warmup(11).iter().map(|r| program(&r.line)).collect();
        assert_eq!(seen.len(), CHURN_FAMILIES.len());
        for req in &catalogue {
            assert!(seen.insert(program(&req.line)), "{} repeats a program", req.id);
        }
        let ids: HashSet<&str> = catalogue.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids.len(), CHURN_PROGRAMS);
        // Seeded order, not size order.
        assert!(catalogue.windows(2).any(|w| w[0].line.len() > w[1].line.len()));
    }

    #[test]
    fn one_seed_renders_byte_identical_request_lines() {
        let lines = |pool: Vec<ServeRequest>| pool.into_iter().map(|r| r.line).collect::<Vec<_>>();
        assert_eq!(lines(warm_pool(5)), lines(warm_pool(5)));
        assert_ne!(lines(warm_pool(5)), lines(warm_pool(6)));
        assert_eq!(lines(churn_catalogue(5)), lines(churn_catalogue(5)));
        let pool = warm_pool(5);
        assert_eq!(pool.len(), WARM_VARIANTS * WARM_ENTRIES.len() * CLIENTS);
        for client in 0..CLIENTS {
            for entry in 0..WARM_ENTRIES.len() {
                let n = pool.iter().filter(|r| r.client == client && r.group == entry).count();
                assert_eq!(n, WARM_VARIANTS);
            }
        }
    }

    #[test]
    fn wrong_cache_outcome_or_output_fails_the_response_check() {
        let req = &warm_pool(1)[0];
        let prob = req.expected[0].1[0];
        let response = |cache: &str, prob: f64| {
            format!(
                "{{\"id\":\"{}\",\"op\":\"run\",\"ok\":true,\"program_cache\":\"{cache}\",\
                 \"outputs\":{{\"prob\":{{\"dims\":[],\"values\":[{prob}]}}}},\
                 \"retries\":0,\"fallbacks\":0}}",
                req.id
            )
        };
        assert!(check_response(req, &response("hit", prob), "hit").is_ok());
        assert!(check_response(req, &response("miss", prob), "hit").is_err());
        assert!(check_response(req, &response("hit", prob + 0.01), "hit").is_err());
        assert!(check_response(req, "{\"ok\":false}", "hit").is_err());
    }
}
