//! Differential suite for the hash-consed srDFG store (DESIGN.md §13).
//!
//! The arena refactor must be *unobservable* except through speed and
//! memory: build → lower → post-lower → Algorithm 2 must produce the same
//! node/edge id assignment, the same fragment streams, and the same run
//! outputs as the pre-refactor flat representation. The goldens below were
//! captured from the flat `Vec<Node>`/`Vec<Edge>` implementation
//! immediately before the arena landed (same projection code, same seeds),
//! so any divergence the sharing introduces — now or later — trips these
//! tests. They are the only flat-store reference left: the env-selected
//! unshared mode was deleted after a 5000-case fuzz run in both modes
//! found no divergence.
//!
//! Every workload is compiled through each of the driver's entry points
//! (`compile`, `compile_timed`, `compile_cached_checked` on a miss and on
//! a hit), so the goldens also pin that those are one pipeline.
//!
//! `PM_PRINT_GOLDENS=1 cargo test -p tests --test structural_sharing -- --nocapture`
//! reprints the table for intentional re-baselining.

use pm_workloads::{apps, programs};
use polymath::Compiler;
use srdfg::{Bindings, Budget, EdgeId, FxHasher, Machine, Modifier, SrDfg, Tensor};
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Arc;

/// Test-scale versions of the five benchmark families (debug builds),
/// plus the two multi-partition apps: the only rows whose fragment
/// streams interleave `load`/`store` DMA across partitions.
fn small_workloads() -> Vec<(&'static str, String)> {
    vec![
        ("mpc-16", programs::mobile_robot(16)),
        ("fft-64", programs::fft(64)),
        ("kmeans-64", programs::kmeans(64, 4)),
        ("dct-block", programs::dct_block()),
        ("logistic-64", programs::logistic(64)),
        ("brain-stimul-64", apps::brain_stimul(64, 8).source),
        ("option-pricing-32", apps::option_pricing(32, 8).source),
    ]
}

/// Full benchmark-scale versions (release builds; the `#[ignore]`d test).
fn full_workloads() -> Vec<(&'static str, String)> {
    vec![
        ("mpc-64", programs::mobile_robot(64)),
        ("fft-256", programs::fft(256)),
        ("kmeans-784", programs::kmeans(784, 10)),
        ("dct-block", programs::dct_block()),
        ("logistic-256", programs::logistic(256)),
    ]
}

fn h(hasher: &mut FxHasher, bytes: &[u8]) {
    hasher.write(bytes);
}

fn hu(hasher: &mut FxHasher, v: u64) {
    hasher.write_u64(v);
}

/// Digest of a lowered graph through refactor-stable accessors: ids,
/// names, kind payloads (via `Debug`, which only covers pre-refactor
/// types: `MapSpec`, `KExpr`, `ScalarKind`, …), wiring, metadata, spans.
fn graph_digest(g: &SrDfg) -> u64 {
    let mut hasher = FxHasher::default();
    h(&mut hasher, g.name.as_bytes());
    h(&mut hasher, format!("{:?}", g.domain).as_bytes());
    for (id, node) in g.iter_nodes() {
        hu(&mut hasher, u64::from(id.0));
        h(&mut hasher, node.name.as_bytes());
        h(&mut hasher, format!("{:?}", node.kind()).as_bytes());
        h(&mut hasher, format!("{:?}", node.domain).as_bytes());
        for e in &node.inputs {
            hu(&mut hasher, u64::from(e.0));
        }
        hu(&mut hasher, u64::MAX);
        for e in &node.outputs {
            hu(&mut hasher, u64::from(e.0));
        }
        hu(&mut hasher, u64::MAX);
        h(&mut hasher, format!("{:?}", node.pattern()).as_bytes());
        h(&mut hasher, format!("{:?}", node.target).as_bytes());
        h(&mut hasher, format!("{:?}", node.span).as_bytes());
    }
    for e in g.edge_ids() {
        let edge = g.edge(e);
        hu(&mut hasher, u64::from(e.0));
        h(&mut hasher, format!("{:?}", edge.producer).as_bytes());
        h(&mut hasher, format!("{:?}", &edge.consumers[..]).as_bytes());
        let m = edge.meta();
        h(&mut hasher, m.name.as_bytes());
        h(&mut hasher, format!("{:?}{:?}{:?}", m.dtype, m.modifier, m.shape).as_bytes());
        h(&mut hasher, format!("{:?}", edge.span()).as_bytes());
    }
    h(&mut hasher, format!("{:?}", g.boundary_inputs).as_bytes());
    h(&mut hasher, format!("{:?}", g.boundary_outputs).as_bytes());
    hasher.finish()
}

/// Digest of Algorithm 2's output: per-partition target/domain and the
/// full fragment stream (ops, kinds, originating node ids, argument
/// metadata and edge ids, op counts). A compute fragment's arguments are
/// its node's operands then results, read through the graph; a DMA
/// fragment's is the one edge it moves.
fn partitions_digest(compiled: &pm_lower::CompiledProgram) -> u64 {
    let g = &compiled.graph;
    let mut hasher = FxHasher::default();
    for p in compiled.partitions.iter() {
        h(&mut hasher, p.target.as_bytes());
        h(&mut hasher, format!("{:?}", p.domain).as_bytes());
        for f in &p.fragments {
            h(&mut hasher, f.op(g).as_bytes());
            h(&mut hasher, format!("{:?}{:?}", f.kind, f.node).as_bytes());
            hu(&mut hasher, f.ops);
            let args: Vec<EdgeId> = match (&f.arg, f.node) {
                (Some(a), _) => vec![a.edge],
                (None, Some(id)) => {
                    g.node(id).inputs.iter().chain(&g.node(id).outputs).copied().collect()
                }
                (None, None) => vec![],
            };
            for e in args {
                let m = g.edge(e).meta();
                h(&mut hasher, m.name.as_bytes());
                h(&mut hasher, format!("{:?}{:?}{:?}", m.dtype, m.modifier, m.shape).as_bytes());
                hu(&mut hasher, u64::from(e.0));
            }
            hu(&mut hasher, u64::MAX);
        }
    }
    hasher.finish()
}

/// Deterministic feeds for every boundary input: values are a pure
/// function of the variable name and element index, kept in (-1, 1) so
/// sigmoids/divisions stay finite on every family.
fn synth_feeds(g: &SrDfg) -> HashMap<String, Tensor> {
    let mut feeds = HashMap::new();
    for &e in &g.boundary_inputs {
        let m = g.edge(e).meta();
        if m.modifier == Modifier::State {
            continue; // states self-initialize inside the machine
        }
        let mut seed = FxHasher::default();
        seed.write(m.name.as_bytes());
        let base = seed.finish();
        let volume: usize = m.shape.iter().product::<usize>().max(1);
        let data: Vec<f64> = (0..volume)
            .map(|i| {
                let x = base.wrapping_add(i as u64).wrapping_mul(2654435761);
                ((x % 2000) as f64 / 1000.0) - 1.0
            })
            .collect();
        let shape: Vec<usize> = m.shape.to_vec();
        feeds.insert(
            m.name.to_string(),
            Tensor::from_vec(m.dtype, shape, data).expect("synth feed shape"),
        );
    }
    feeds
}

/// Bit-exact digest of two interpreter invocations (exercises state
/// circulation) of the lowered graph.
fn run_digest(g: &SrDfg) -> u64 {
    fn tensor_digest(hasher: &mut FxHasher, name: &str, t: &Tensor) {
        h(hasher, name.as_bytes());
        h(hasher, format!("{:?}{:?}", t.dtype(), t.shape()).as_bytes());
        for i in 0..t.len() {
            let (re, im) = match t.get_flat(i) {
                srdfg::Scalar::Real(v) => (v, 0.0),
                srdfg::Scalar::Complex(re, im) => (re, im),
            };
            // A NaN's sign and payload are not part of any contract (they
            // differ between debug and release builds of the same code).
            let bits = |v: f64| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
            hu(hasher, bits(re));
            hu(hasher, bits(im));
        }
    }
    let feeds = synth_feeds(g);
    let mut state_names: Vec<String> = g
        .boundary_inputs
        .iter()
        .filter(|&&e| g.edge(e).meta().modifier == Modifier::State)
        .map(|&e| g.edge(e).meta().name.to_string())
        .collect();
    state_names.sort();
    state_names.dedup();
    let mut machine = Machine::new(g.clone());
    let mut hasher = FxHasher::default();
    for _ in 0..2 {
        let out = machine.invoke(&feeds).expect("run lowered graph");
        let mut names: Vec<&String> = out.keys().collect();
        names.sort();
        for name in names {
            tensor_digest(&mut hasher, name, &out[name]);
        }
        // Persistent state after each invocation (covers families like
        // kmeans whose only visible result is the state trajectory).
        for name in &state_names {
            if let Some(t) = machine.state(name) {
                tensor_digest(&mut hasher, name, t);
            }
        }
    }
    hasher.finish()
}

/// One compile through each public entry point of the driver, on one
/// compiler (so the later ones also see a warm template cache): the
/// pipeline is written once, and cached, timed and plain callers must get
/// the same artifact out of it.
fn pipeline(compiler: &Compiler, src: &str) -> Vec<(&'static str, Arc<pm_lower::CompiledProgram>)> {
    let bindings = Bindings::default();
    let cached = |expect_hit: bool| {
        let cc = compiler
            .compile_cached_checked(src, &bindings, &Budget::unlimited(), &|_| true)
            .expect("compile_cached_checked");
        assert_eq!(cc.cache_hit, expect_hit);
        cc.program
    };
    vec![
        ("compile", Arc::new(compiler.compile(src, &bindings).expect("compile"))),
        ("compile_timed", Arc::new(compiler.compile_timed(src, &bindings).expect("timed").0)),
        ("compile_cached_checked (miss)", cached(false)),
        ("compile_cached_checked (hit)", cached(true)),
    ]
}

fn check(workloads: Vec<(&'static str, String)>, goldens: &[(&str, u64, u64, u64)]) {
    let printing = std::env::var_os("PM_PRINT_GOLDENS").is_some();
    for (name, src) in workloads {
        let compiler = Compiler::cross_domain();
        for (entry, compiled) in pipeline(&compiler, &src) {
            let gd = graph_digest(&compiled.graph);
            let pd = partitions_digest(&compiled);
            let rd = run_digest(&compiled.graph);
            if printing {
                println!("    (\"{name}\", {gd:#018x}, {pd:#018x}, {rd:#018x}), // {entry}");
                continue;
            }
            let (_, egd, epd, erd) =
                goldens.iter().find(|(n, ..)| *n == name).expect("golden entry exists");
            assert_eq!(
                gd, *egd,
                "{name} via {entry}: lowered-graph digest diverged from the flat-store golden"
            );
            assert_eq!(
                pd, *epd,
                "{name} via {entry}: fragment-stream digest diverged from the flat-store golden"
            );
            assert_eq!(
                rd, *erd,
                "{name} via {entry}: run-output digest diverged from the flat-store golden"
            );
        }
    }
}

/// Captured from the pre-arena flat representation (see module docs).
const SMALL_GOLDENS: &[(&str, u64, u64, u64)] = &[
    ("mpc-16", 0xf7005e6305885b98, 0xe7bccb786fd14349, 0x33d7e2594db82a43),
    ("fft-64", 0xf92b20a0c5333304, 0x611909b906229a78, 0x3eef8d5ec10cc69a),
    ("kmeans-64", 0xd078318a9637d995, 0xbdb0c54adace6e0c, 0x5be8f80720e49424),
    ("dct-block", 0xa330d99d7106b6c1, 0x977426cbe2a39027, 0xa01ea690a1232ce7),
    ("logistic-64", 0xfb7e751a50b49572, 0x2abc51374972713b, 0x9f425bdb46134084),
    // The two app rows postdate the flat store: captured from the
    // chunk-parallel Algorithm 2 immediately before it became one sweep.
    ("brain-stimul-64", 0x62277d835b7a151c, 0x31a8f17769b1df2c, 0x93ca1925b0db6122),
    ("option-pricing-32", 0x93fc0d215183e696, 0xc5a0100e7a7b8d8a, 0x6e19c8cc6ff8d33f),
];

/// Captured from the pre-arena flat representation at benchmark scale.
const FULL_GOLDENS: &[(&str, u64, u64, u64)] = &[
    ("mpc-64", 0x37f03f6c9701c510, 0x8a92b2fe02d0f065, 0xeae7e846c4736921),
    ("fft-256", 0x98a99182e1bec647, 0x9b23db0cf04e87dd, 0xa3d21dfbf2a5f7eb),
    ("kmeans-784", 0xef86db099de92f63, 0x871101199dab925c, 0xe28acd7957571d48),
    ("dct-block", 0xa330d99d7106b6c1, 0x977426cbe2a39027, 0xa01ea690a1232ce7),
    ("logistic-256", 0xd6282728cefb3a25, 0x15329695e5d82170, 0xa40f59b3230c6d66),
];

/// Every family at test scale: graphs, fragments, and run outputs must be
/// byte-identical to the pre-refactor flat store.
#[test]
fn pipeline_matches_flat_store_goldens() {
    check(small_workloads(), SMALL_GOLDENS);
}

/// Benchmark-scale byte-identity (slow; run under `--release -- --ignored`,
/// as `scripts/verify.sh` does).
#[test]
#[ignore = "benchmark-scale; run with --release -- --ignored"]
fn pipeline_matches_flat_store_goldens_full_scale() {
    check(full_workloads(), FULL_GOLDENS);
}
