//! A cache charges each entry what it keeps alive on the heap (DESIGN.md
//! §12): `CompiledProgram::heap_bytes`, and the template cache's resident
//! `bytes`, are held to within 15 % of what a counting allocator sees
//! freed when the artifact goes, on the benchmark's program families.
//!
//! One test in its own binary: the allocator counts the live bytes of the
//! whole process, so no other test may allocate while it measures.

use pm_tests::{live_bytes, Counting};
use pm_workloads::programs;
use polymath::Compiler;
use srdfg::Bindings;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The live bytes `value` holds: the count with it less the count once it
/// is dropped.
fn held<T>(value: T) -> usize {
    let with = live_bytes();
    drop(value);
    with.saturating_sub(live_bytes())
}

fn assert_within(name: &str, what: &str, charged: usize, measured: usize) {
    let ratio = charged as f64 / measured as f64;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "{name}: {what} charged {charged} B, holding it costs {measured} B ({ratio:.3}x)"
    );
}

#[test]
fn cache_charges_match_the_live_heap() {
    let bindings = Bindings::default();
    let sources = [
        ("dct-block", programs::dct_block()),
        ("blackscholes-256", programs::black_scholes(256)),
        ("kmeans-64x8", programs::kmeans(64, 8)),
        ("logistic-1024", programs::logistic(1024)),
        ("lrmf-1682x16", programs::lrmf(1682, 16)),
        ("fft-1024", programs::fft(1024)),
    ];
    // A first compile builds what lives as long as the process.
    Compiler::cross_domain().compile(&sources[0].1, &bindings).unwrap();
    for (name, source) in &sources {
        // The compiler goes first, so every record the program shares
        // with a template is the program's alone.
        let compiler = Compiler::cross_domain();
        let program = compiler.compile(source, &bindings).unwrap();
        drop(compiler);
        assert_within(name, "program", program.heap_bytes(), held(program));

        // The program goes first, so every record a template shares with
        // it is the cache's alone.
        let compiler = Compiler::cross_domain();
        drop(compiler.compile(source, &bindings).unwrap());
        let stats = compiler.cache_stats();
        assert_eq!(stats.evictions, 0, "{name}");
        assert_within(name, "templates", stats.bytes, held(compiler));
    }
}
