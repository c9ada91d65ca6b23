//! Algorithm 2 allocates per partition, not per fragment.
//!
//! A fragment is a reference into the lowered graph — a node id for a
//! compute fragment, one interned edge handle for a `load`/`store` — so
//! building a partition's stream costs its one `Vec`, whatever the number
//! of fragments in it. A counting global allocator holds the compile to
//! that, and the type to its size.

use pm_lower::{compile_program_budgeted, Fragment, FragmentKind};
use polymath::Compiler;
use srdfg::{Bindings, Budget};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations (fresh blocks and resizes) made by the current
/// thread while `COUNTING` is set; the test harness's other threads are
/// never counted.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.with(Cell::get))
}

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
