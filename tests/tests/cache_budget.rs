//! The default cache budget (`srdfg::DEFAULT_CAPACITY_BYTES`, DESIGN.md
//! §12) holds the working sets the benchmark relies on: the largest
//! single compile it makes keeps every template resident for the warm
//! recompile, and the serve smoke's five programs all hit on their second
//! pass.

use pm_workloads::programs;
use polymath::{Compiler, Json, ServeConfig, ServeEngine};
use srdfg::Bindings;

fn tensor(dims: &[usize], value: f64) -> Json {
    let n = dims.iter().product::<usize>();
    Json::Obj(vec![
        ("dims".into(), Json::Arr(dims.iter().map(|&d| Json::Num(d as f64)).collect())),
        ("values".into(), Json::Arr(vec![Json::Num(value); n])),
    ])
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The serve smoke's programs (`scripts/verify.sh`), with their feeds and
/// state.
fn serve_smoke() -> Vec<(&'static str, String, Json, Json)> {
    let logistic = |n: usize| {
        let feeds = obj(vec![("x", tensor(&[n], 0.01)), ("label", tensor(&[], 1.0))]);
        (programs::logistic(n), feeds, obj(vec![("w", tensor(&[n], 0.0))]))
    };
    let (l64, l64_feeds, l64_state) = logistic(64);
    let (l256, l256_feeds, l256_state) = logistic(256);
    let bs_feeds = obj(vec![
        ("spot", tensor(&[32], 100.0)),
        ("strike", tensor(&[32], 95.0)),
        ("vol", tensor(&[32], 0.2)),
        ("rate", tensor(&[], 0.03)),
        ("tte", tensor(&[], 1.0)),
    ]);
    vec![
        ("logistic-64", l64, l64_feeds, l64_state),
        ("logistic-256", l256, l256_feeds, l256_state),
        (
            "kmeans-16x4",
            programs::kmeans(16, 4),
            obj(vec![("x", tensor(&[16], 0.1))]),
            obj(vec![("c", tensor(&[4, 16], 0.05))]),
        ),
        (
            "dct-block",
            programs::dct_block(),
            obj(vec![("blk", tensor(&[8, 8], 1.0)), ("ck", tensor(&[8, 8], 0.01))]),
            obj(vec![]),
        ),
        ("blackscholes-32", programs::black_scholes(32), bs_feeds, obj(vec![])),
    ]
}

#[test]
fn default_budget_holds_the_benchmark_working_sets() {
    // compile-large's warm compile: lrmf-1682x16's 13 templates (about
    // 51 MB) stay resident between two compiles on one driver.
    let compiler = Compiler::cross_domain();
    let source = programs::lrmf(1682, 16);
    compiler.compile(&source, &Bindings::default()).unwrap();
    let cold = compiler.cache_stats();
    compiler.compile(&source, &Bindings::default()).unwrap();
    let warm = compiler.cache_stats().since(&cold);
    assert_eq!((warm.hits, warm.misses, warm.evictions), (13, 0, 0), "{warm:?}");
    assert!(0 < warm.bytes && warm.bytes <= warm.capacity_bytes, "{warm:?}");
    drop(compiler);

    // The serve smoke: every second pass is a program-cache hit.
    let engine = ServeEngine::new(&ServeConfig::default());
    let programs = serve_smoke();
    for pass in 1..=2 {
        for (name, source, feeds, state) in &programs {
            let line = obj(vec![
                ("op", Json::Str("run".into())),
                ("id", Json::Str(format!("{name}#{pass}"))),
                ("tenant", Json::Str((*name).into())),
                ("program", Json::Str(source.clone())),
                ("invocations", Json::Num(3.0)),
                ("feeds", feeds.clone()),
                ("state", state.clone()),
            ]);
            let resp = engine.handle_line(&line.render());
            let v = Json::parse(&resp).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
            let expect = if pass == 1 { "miss" } else { "hit" };
            assert_eq!(v.get("program_cache").and_then(Json::as_str), Some(expect), "{resp}");
        }
    }
    let programs = engine.compiler().program_cache_stats();
    assert_eq!((programs.hits, programs.misses, programs.evictions), (5, 5, 0), "{programs:?}");
    assert!(programs.bytes <= programs.capacity_bytes, "{programs:?}");
}
