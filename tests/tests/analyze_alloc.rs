//! The graph analyses and certification allocate per graph, not per
//! kernel.
//!
//! The kernel walk behind `PM-E102`/`PM-W103` and `certify_bounds` keeps
//! its state on the stack and reads each operand's metadata from the edge
//! in its slot; the interval sweep keeps one range per edge and one
//! operand buffer, and the initialization scans allocate only when they
//! find an unproduced read. A counting global allocator holds
//! `analyze_graph`, the interval sweep and certification, on the
//! post-midend graph of four benchmark programs, to the counts measured
//! for one sweep per graph and one walk with two readings: no change may
//! raise them.

use pm_tests::{allocations, Counting};
use pm_workloads::programs;
use polymath::Compiler;
use srdfg::Bindings;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(program, source, analyze_graph, interval::check_graph, certify_bounds)`
/// allocations. When both graph analyses ran through a worklist solver,
/// `analyze_graph` made 16, 12, 20 and 49 and `check_graph` 8, 6, 10 and
/// 7; when certification ran a strict copy of the evaluator, which built
/// one heap slot table per expression, `certify_bounds` made 4, 8, 17 and
/// 22.
fn budgets() -> [(&'static str, String, u64, u64, u64); 4] {
    [
        ("fft-1024", programs::fft(1024), 5, 5, 4),
        ("kmeans-784x10", programs::kmeans(784, 10), 3, 3, 1),
        ("resnet18-224", programs::resnet18(224), 7, 7, 8),
        ("mpc-64", programs::mobile_robot(64), 13, 4, 4),
    ]
}

#[test]
fn interval_analysis_and_certification_stay_within_their_allocation_counts() {
    let compiler = Compiler::cross_domain();
    let mut over = Vec::new();
    for (name, source, analyze_budget, check_budget, certify_budget) in budgets() {
        let graph = compiler.build_graph(&source, &Bindings::default()).expect("builds");
        let (_, analyze) = allocations(|| pm_analyze::analyze_graph(&graph));
        let (_, check) = allocations(|| {
            let mut out = Vec::new();
            pm_analyze::interval::check_graph(&graph, &mut out);
            out
        });
        let (_, certify) = allocations(|| pm_analyze::certify_bounds(&graph));
        if analyze > analyze_budget || check > check_budget || certify > certify_budget {
            over.push(format!(
                "{name}: analyze_graph {analyze} (≤ {analyze_budget}), \
                 check_graph {check} (≤ {check_budget}), \
                 certify_bounds {certify} (≤ {certify_budget})"
            ));
        }
    }
    assert!(over.is_empty(), "allocation counts rose:\n{}", over.join("\n"));
}
