//! Algorithm 2 allocates per partition, not per fragment.
//!
//! A fragment is a reference into the lowered graph — a node id for a
//! compute fragment, one shared edge handle for a `load`/`store` — so
//! building a partition's stream costs its one `Vec`, whatever the number
//! of fragments in it. A counting global allocator holds the compile to
//! that, and the type to its size.

use pm_lower::{compile_program_budgeted, Fragment, FragmentKind};
use pm_tests::{allocations, Counting};
use polymath::Compiler;
use srdfg::{Bindings, Budget};

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_fragment_is_a_reference_of_at_most_forty_bytes() {
    assert!(std::mem::size_of::<Fragment>() <= 40, "{} B", std::mem::size_of::<Fragment>());
}

#[test]
fn algorithm_2_allocates_per_partition_not_per_fragment() {
    let compiler = Compiler::cross_domain();
    let source = pm_workloads::programs::kmeans(64, 4);
    let lowered = compiler.compile(&source, &Bindings::default()).expect("compile kmeans-64");
    let budget = Budget::unlimited();
    let graph = lowered.graph.clone();

    let (compiled, allocs) = allocations(|| {
        compile_program_budgeted(graph, compiler.targets(), false, &budget).expect("Algorithm 2")
    });
    let fragments: usize = compiled.partitions.iter().map(|p| p.fragments.len()).sum();
    let dma = compiled
        .partitions
        .iter()
        .flat_map(|p| &p.fragments)
        .filter(|f| f.kind != FragmentKind::Compute)
        .count();
    let partitions = compiled.partitions.len() as u64;
    assert!(fragments >= 1_000, "kmeans-64 compiled to only {fragments} fragments");
    assert!(dma > 0, "kmeans-64 moves no data across a boundary");
    assert!(
        allocs <= 32 + 4 * partitions,
        "{allocs} allocations for {fragments} fragments in {partitions} partition(s)"
    );
}
