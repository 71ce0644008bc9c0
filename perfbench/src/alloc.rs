//! A counting global allocator for the traced run's `alloc.*` metrics.
//!
//! Counting is off until [`enable`] and never counts a thread marked with
//! [`exempt_thread`] (the load generator) or code run under [`exempt`]
//! (the benchmark's own bookkeeping), so the totals are what the
//! program allocated. Untraced runs pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Wraps the system allocator, adding up bytes requested.
pub struct Counting;

// Relaxed throughout: the flag and the totals publish no other data.
static ON: AtomicBool = AtomicBool::new(false);

/// Totals sharded by thread, one cache line each, so counting threads
/// do not contend on one line.
#[repr(align(64))]
struct Shard(AtomicU64);

const SHARDS: usize = 16;
static TOTALS: [Shard; SHARDS] = [const { Shard(AtomicU64::new(0)) }; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static EXEMPT: Cell<bool> = const { Cell::new(false) };
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count(bytes: usize) {
    if !ON.load(Ordering::Relaxed) || EXEMPT.try_with(Cell::get).unwrap_or(true) {
        return;
    }
    let shard = SHARD
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            s.get()
        })
        .unwrap_or(0);
    TOTALS[shard].0.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; counting touches only atomics
// and a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts counting.
pub fn enable() {
    ON.store(true, Ordering::Relaxed);
}

/// Bytes counted so far.
pub fn bytes() -> u64 {
    TOTALS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// Stops counting the calling thread's allocations for good.
pub fn exempt_thread() {
    EXEMPT.with(|e| e.set(true));
}

/// Runs `f` without counting the calling thread's allocations.
pub fn exempt<T>(f: impl FnOnce() -> T) -> T {
    let was = EXEMPT.with(|e| e.replace(true));
    let out = f();
    EXEMPT.with(|e| e.set(was));
    out
}
