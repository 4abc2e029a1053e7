//! A counting global allocator: turns "the hot loop is allocation-free"
//! from prose into a measured number.
//!
//! The type is always compiled (it is inert unless installed); binaries
//! that want the gauge install it explicitly:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ecn_bench::alloc::CountingAlloc = ecn_bench::alloc::CountingAlloc;
//! ```
//!
//! `ecnbench`'s traced runs install it for their per-observation
//! allocation rows, and the `alloc_regression` integration test installs
//! it to gate the allocation budgets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

/// `System`, plus two relaxed counters per allocation and one per free.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counters
// are side-effect-only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // only the growth is newly-requested memory; counting the full
        // new_size would overstate realloc-heavy (Vec-growth) workloads
        if new_size >= layout.size() {
            ALLOCATED_BYTES.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
        } else {
            FREED_BYTES.fetch_add((layout.size() - new_size) as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (malloc + realloc calls) since process start.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes requested since process start.
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Bytes allocated and not yet freed: the live heap as the program
/// requested it (allocator overhead not included). Exact while no other
/// thread allocates or frees.
pub fn live_bytes() -> u64 {
    ALLOCATED_BYTES
        .load(Ordering::Relaxed)
        .wrapping_sub(FREED_BYTES.load(Ordering::Relaxed))
}

/// Allocation count delta across `f` (meaningful only in binaries that
/// installed [`CountingAlloc`]; returns 0 delta otherwise).
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocation_count();
    let value = f();
    (value, allocation_count() - before)
}
