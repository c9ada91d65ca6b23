//! Differential tests for template-cached lowering: the cache is a pure
//! memoization, so cached, warm-cached, and uncached lowering must produce
//! *identical* graphs and identical accelerator programs — on every Table
//! III workload family (at test scale) and through the chaos-runtime
//! re-lowering path.

use pm_accel::Backend;
use pm_passes::Pass;
use pm_workloads::programs;
use polymath::Compiler;
use srdfg::{Bindings, Budget, TemplateCache};
use std::collections::HashMap;
use std::sync::Arc;

/// The five benchmark workload families at sizes debug builds can chew.
fn workloads() -> Vec<(&'static str, String)> {
    vec![
        ("mpc", programs::mobile_robot(16)),
        ("fft", programs::fft(64)),
        ("kmeans", programs::kmeans(64, 4)),
        ("dct", programs::dct_block()),
        ("logistic", programs::logistic(64)),
    ]
}

/// Runs the post-mid-end tail of the pipeline (lower → post-lower passes →
/// Algorithm 2) with an optional template cache, mirroring
/// `Compiler::compile`.
fn lower_and_compile(
    compiler: &Compiler,
    src: &str,
    cache: Option<&TemplateCache>,
) -> (srdfg::SrDfg, pm_lower::CompiledProgram) {
    let mut graph = compiler.build_graph(src, &Bindings::default()).expect("build");
    let unlimited = Budget::unlimited();
    // Not `pm_passes::lower_and_compile`: this compares the Algorithm-1 graph.
    pm_lower::lower_budgeted(&mut graph, compiler.targets(), cache, &unlimited).expect("lower");
    let lowered = graph.clone();
    pm_passes::ElideMarshalling.run(&mut graph);
    pm_passes::PruneUnusedInputs.run(&mut graph);
    let compiled =
        pm_lower::compile_program_budgeted(Arc::new(graph), compiler.targets(), true, &unlimited)
            .expect("algorithm 2");
    (lowered, compiled)
}

/// Cold-cached and warm-cached lowering must both equal the uncached
/// lowering, node for node and edge for edge, and compile to the same
/// accelerator programs.
#[test]
fn cached_lowering_is_byte_identical_to_uncached() {
    for (name, src) in workloads() {
        let compiler = Compiler::cross_domain();
        let (g_uncached, c_uncached) = lower_and_compile(&compiler, &src, None);

        let cache = TemplateCache::new();
        let (g_cold, c_cold) = lower_and_compile(&compiler, &src, Some(&cache));
        assert_eq!(g_uncached, g_cold, "{name}: cold-cached lowering diverged from uncached");
        assert_eq!(
            c_uncached.partitions, c_cold.partitions,
            "{name}: cold-cached partitions diverged"
        );

        let cold_stats = cache.stats();
        let (g_warm, c_warm) = lower_and_compile(&compiler, &src, Some(&cache));
        let warm_stats = cache.stats();
        assert_eq!(g_uncached, g_warm, "{name}: warm-cached lowering diverged from uncached");
        assert_eq!(
            c_uncached.partitions, c_warm.partitions,
            "{name}: warm-cached partitions diverged"
        );
        // Workloads that lower without any refinement (everything coarsely
        // supported) legitimately never touch the cache.
        if cold_stats.inserts > 0 {
            assert!(warm_stats.hits > 0, "{name}: warm run never hit the template cache");
            assert_eq!(
                warm_stats.inserts, cold_stats.inserts,
                "{name}: warm run should instantiate existing templates, not insert new ones"
            );
        }
    }
}

/// A persistent `Compiler` reuses its cache across programs: a second
/// compile of the same source is all hits and yields identical output.
#[test]
fn compiler_reuses_cache_across_compiles() {
    let compiler = Compiler::cross_domain();
    let src = programs::fft(64);
    let a = compiler.compile(&src, &Bindings::default()).expect("first compile");
    let before = compiler.cache_stats();
    let b = compiler.compile(&src, &Bindings::default()).expect("second compile");
    let delta = compiler.cache_stats().since(&before);
    assert_eq!(a.partitions, b.partitions, "warm compile diverged");
    assert_eq!(*a.graph, *b.graph, "warm compile produced a different lowered graph");
    assert!(delta.hits > 0, "second compile never hit the cache");
    assert_eq!(delta.misses, 0, "second compile of identical source should be all hits");
}

/// Two identical DA components: `a1` gets pinned to VTA (which supports
/// `map.mul`/`sum` *coarsely*, so its body survives lowering unexpanded),
/// `a2` lowers to TABLA's scalar fabric, warming the template cache with
/// exactly the expansions `a1` will need when VTA dies.
const TWIN_DOT: &str = "a1(input float x[8], param float w[8], output float y) {
    index i[0:7];
    y = sum[i](w[i]*x[i]);
}
a2(input float x[8], param float w[8], output float z) {
    index i[0:7];
    z = sum[i](w[i]*x[i]);
}
main(input float x[8], param float w[8], output float y, output float z) {
    DA: a1(x, w, y);
    DA: a2(x, w, z);
}";

/// Device-down re-lowering (the chaos/fault path) through a warmed cache
/// must match the uncached re-lowering bit for bit — and actually use the
/// cache: `a1`'s coarse VTA nodes re-resolve to TABLA and their scalar
/// expansions hit the templates `a2` warmed during the initial compile.
#[test]
fn relower_after_fault_hits_cache_and_matches_uncached() {
    let compiler =
        Compiler::cross_domain().with_target_override("a1", pm_accel::Vta::default().accel_spec());
    let compiled = compiler.compile(TWIN_DOT, &Bindings::default()).expect("compile");
    let down = "TVM-VTA".to_string();
    assert!(
        compiled.partitions.iter().any(|p| p.target == down && !p.fragments.is_empty()),
        "override should have pinned a1 to VTA"
    );

    let cache = compiler.template_cache();
    let before = cache.stats();
    let relower = |cache| {
        pm_lower::relower_without(&compiled, compiler.targets(), std::slice::from_ref(&down), cache)
            .expect("re-lower")
    };
    let re_cached = relower(Some(&cache));
    let delta = cache.stats().since(&before);
    let re_uncached = relower(None);

    assert!(delta.hits > 0, "re-lowering never hit the warmed template cache");
    assert_eq!(delta.misses, 0, "every re-expansion should have been warmed by a2: {delta:?}");
    assert_eq!(
        re_cached.partitions, re_uncached.partitions,
        "cached re-lowering diverged from uncached"
    );
    assert_eq!(*re_cached.graph, *re_uncached.graph, "re-lowered graphs diverged");
    assert!(
        !re_cached.partitions.iter().any(|p| p.target == down),
        "downed target must not reappear"
    );

    // And the re-lowered program still computes the dot product.
    let feeds = HashMap::from([
        (
            "x".to_string(),
            srdfg::Tensor::from_vec(
                pmlang::DType::Float,
                vec![8],
                (0..8).map(|i| i as f64).collect(),
            )
            .unwrap(),
        ),
        (
            "w".to_string(),
            srdfg::Tensor::from_vec(pmlang::DType::Float, vec![8], vec![0.5; 8]).unwrap(),
        ),
    ]);
    let out = srdfg::Machine::new((*re_cached.graph).clone()).invoke(&feeds).expect("run");
    let expect: f64 = (0..8).map(|i| 0.5 * i as f64).sum();
    for name in ["y", "z"] {
        let got = out[name].scalar_value().unwrap();
        assert!((got - expect).abs() < 1e-9, "{name}: {got} != {expect}");
    }
}
