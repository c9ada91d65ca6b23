//! The interval analysis and certification allocate per graph, not per
//! kernel.
//!
//! The kernel walk behind `PM-E102`/`PM-W103` and `certify_bounds` keeps
//! its state on the stack and reads each operand's metadata from the edge
//! in its slot. A counting global allocator holds both consumers, on the
//! post-midend graph of four benchmark programs, to the counts measured
//! for one walk with two readings: no change may raise them.

use pm_tests::{allocations, Counting};
use pm_workloads::programs;
use polymath::Compiler;
use srdfg::Bindings;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(program, source, interval::check_graph, certify_bounds)` allocations.
/// When certification ran a strict copy of the evaluator, which built one
/// heap slot table per expression, `certify_bounds` made 4, 8, 17 and 22.
fn budgets() -> [(&'static str, String, u64, u64); 4] {
    [
        ("fft-1024", programs::fft(1024), 8, 4),
        ("kmeans-784x10", programs::kmeans(784, 10), 6, 1),
        ("resnet18-224", programs::resnet18(224), 10, 8),
        ("mpc-64", programs::mobile_robot(64), 7, 4),
    ]
}

#[test]
fn interval_analysis_and_certification_stay_within_their_allocation_counts() {
    let compiler = Compiler::cross_domain();
    let mut over = Vec::new();
    for (name, source, check_budget, certify_budget) in budgets() {
        let graph = compiler.build_graph(&source, &Bindings::default()).expect("builds");
        let (_, check) = allocations(|| {
            let mut out = Vec::new();
            pm_analyze::interval::check_graph(&graph, &mut out);
            out
        });
        let (_, certify) = allocations(|| pm_analyze::certify_bounds(&graph));
        if check > check_budget || certify > certify_budget {
            over.push(format!(
                "{name}: check_graph {check} (≤ {check_budget}), \
                 certify_bounds {certify} (≤ {certify_budget})"
            ));
        }
    }
    assert!(over.is_empty(), "allocation counts rose:\n{}", over.join("\n"));
}
