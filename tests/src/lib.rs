//! Cross-crate integration tests for the PolyMath stack (see `tests/`).
//!
//! The library half holds what more than one test binary shares: the
//! counting allocator the allocation-budget and heap-residency tests
//! install with `#[global_allocator] static GLOBAL: Counting = Counting;`,
//! and the float-vector feed builder [`vec_t`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts the allocations (fresh blocks and resizes) made by the current
/// thread while [`allocations`] runs, which the test harness's other
/// threads never reach, and the bytes live in the whole process
/// ([`live_bytes`]).
pub struct Counting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

/// Moves the live count by a block that came (`+`) or went (`-`); a
/// failed allocation moves nothing.
fn live(ptr: *mut u8, grew: usize, shrank: usize) -> *mut u8 {
    if !ptr.is_null() {
        LIVE_BYTES.fetch_add(grew, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(shrank, Ordering::Relaxed);
    }
    ptr
}

// SAFETY: every method forwards to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        live(unsafe { System.alloc(layout) }, layout.size(), 0)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        live(unsafe { System.alloc_zeroed(layout) }, layout.size(), 0)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        live(unsafe { System.realloc(ptr, layout, new_size) }, new_size, layout.size())
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Bytes allocated and not yet freed by the whole process, as requested
/// (allocator overhead and rounding excluded); zero unless the test binary
/// installed [`Counting`] as its global allocator.
pub fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Allocations `f` makes on this thread (zero unless the test binary
/// installed [`Counting`] as its global allocator).
pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.with(Cell::get))
}

/// A float tensor of shape `[values.len()]`.
pub fn vec_t(values: Vec<f64>) -> srdfg::Tensor {
    srdfg::Tensor::from_vec(pmlang::DType::Float, vec![values.len()], values).unwrap()
}
