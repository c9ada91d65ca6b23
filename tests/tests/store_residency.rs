//! Residency of the shared srDFG payloads (DESIGN.md §13): a record lives
//! exactly as long as a handle to it, so a process that compiles programs
//! it never sees again holds what its caches hold and no more.
//!
//! One test in its own binary: `srdfg::store_stats` counts the records
//! alive in the whole process, and the counting allocator its live bytes,
//! so no other thread may build payloads or allocate while they are read.

use pm_lower::{ProgramCache, ProgramKey};
use pm_passes::PassManager;
use pm_tests::{live_bytes, Counting};
use pm_workloads::programs;
use polymath::{Compiler, Json, ServeConfig, ServeEngine};
use srdfg::{store_stats, Bindings, Budget, TemplateCache};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Programs in each stream.
const PROGRAMS: usize = 200;

/// Program `i` of a never-repeating stream in the `serve-churn` mix:
/// logistic regression, k-means and Black-Scholes in turn, each at a size
/// no earlier program of its family had. The sizes of a family are 67
/// consecutive values taken 41 apart (67 is prime), so any run of a few
/// dozen programs spans the whole range and the caches below hold about
/// as many records after 50 programs as after 200. Returns the source and
/// the request's `feeds` and `state`.
fn churn_program(i: usize) -> (String, Json, Json) {
    let step = (i / 3 * 41) % 67;
    let t = |dims: &[usize], v: f64| {
        let n = dims.iter().product::<usize>();
        Json::Obj(vec![
            ("dims".into(), Json::Arr(dims.iter().map(|&d| Json::Num(d as f64)).collect())),
            ("values".into(), Json::Arr(vec![Json::Num(v); n])),
        ])
    };
    let obj = |members: Vec<(&str, Json)>| {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    match i % 3 {
        0 => {
            let n = 256 + step;
            let feeds = obj(vec![("x", t(&[n], 0.5)), ("label", t(&[], 1.0))]);
            (programs::logistic(n), feeds, obj(vec![("w", t(&[n], 0.1))]))
        }
        1 => {
            let (f, k) = (64 + step, 3);
            let state = obj(vec![("c", t(&[k, f], 0.2))]);
            (programs::kmeans(f, k), obj(vec![("x", t(&[f], 0.5))]), state)
        }
        _ => {
            let n = 128 + step;
            let feeds = obj(vec![
                ("spot", t(&[n], 100.0)),
                ("strike", t(&[n], 95.0)),
                ("vol", t(&[n], 0.2)),
                ("rate", t(&[], 0.05)),
                ("tte", t(&[], 1.0)),
            ]);
            (programs::black_scholes(n), feeds, obj(vec![]))
        }
    }
}

fn run_line(i: usize) -> String {
    let (source, feeds, state) = churn_program(i);
    Json::Obj(vec![
        ("op".into(), Json::Str("run".into())),
        ("id".into(), Json::Str(format!("r{i}"))),
        ("tenant".into(), Json::Str(format!("tenant-{}", i % 4))),
        ("program".into(), Json::Str(source)),
        ("feeds".into(), feeds),
        ("state".into(), state),
        ("timings".into(), Json::Bool(false)),
    ])
    .render()
}

#[test]
fn payload_records_are_freed_and_plateau_under_churn() {
    // Freed: everything a serve engine compiled goes when it does.
    let before = store_stats();
    let engine = ServeEngine::new(&ServeConfig::default());
    for i in 0..PROGRAMS {
        let resp = engine.handle_line(&run_line(i));
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        assert_eq!(v.get("program_cache").and_then(Json::as_str), Some("miss"), "{resp}");
    }
    assert!(store_stats().records() > before.records(), "the engine holds what it cached");
    drop(engine);
    let after = store_stats();
    assert_eq!(
        (after.records(), after.bytes()),
        (before.records(), before.bytes()),
        "records outlived every handle to them"
    );

    // Plateau: behind bounded caches (full after some 35 programs here),
    // what stays alive is what the caches hold, however many programs
    // went through — in records and in bytes, and neither cache holds more
    // than its budget at any point.
    let targets = Compiler::cross_domain().targets().clone();
    let templates = TemplateCache::with_capacity(4 << 20);
    let compiled = ProgramCache::with_capacity(24 << 20);
    let heap_before = live_bytes();
    let live =
        || (store_stats().records() - before.records(), live_bytes().saturating_sub(heap_before));
    let mut at_50 = (0, 0);
    for i in 0..PROGRAMS {
        let (source, _, _) = churn_program(i);
        let (program, _) = pmlang::frontend(&source).unwrap();
        let mut graph = srdfg::build(&program, &Bindings::default()).unwrap();
        PassManager::standard().run(&mut graph);
        let key = ProgramKey::new(&graph, &targets);
        assert!(compiled.lookup(&key).is_none(), "program {i} repeats an earlier one");
        let budget = Budget::unlimited();
        let (program, _) =
            pm_passes::lower_and_compile(graph, &targets, Some(&templates), &budget).unwrap();
        compiled.insert(key, Arc::new(program));
        for s in [compiled.stats(), templates.stats()] {
            assert!(s.bytes <= s.capacity_bytes, "program {i}: {s:?}");
        }
        if i == 49 {
            at_50 = live();
        }
    }
    assert!(compiled.stats().evictions > 0 && templates.stats().evictions > 0);
    let (records, bytes) = live();
    assert!(
        records as f64 <= 1.1 * at_50.0 as f64,
        "live records grew from {} after 50 programs to {records} after {PROGRAMS}",
        at_50.0
    );
    assert!(
        bytes as f64 <= 1.1 * at_50.1 as f64,
        "live bytes grew from {} after 50 programs to {bytes} after {PROGRAMS}",
        at_50.1
    );
}
