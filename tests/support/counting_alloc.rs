//! A counting global allocator for the heap guards: forwards to the
//! system allocator and tracks the live heap, its high-water mark and the
//! number of allocations.
//!
//! The counters are process-wide, so a binary that installs it must run
//! its measurements on one thread at a time (one `#[test]` per binary).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, tracking live and peak bytes.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Counts one allocation (a fresh block or a grown one) of `bytes`.
fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never influence the allocation itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Runs `f` and returns its result with the heap's peak growth above
/// the live heap at the call, in MB (2^20 bytes).
#[allow(dead_code)] // each test binary uses one of the two probes
pub fn peak_mb_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    (out, peak as f64 / f64::from(1u32 << 20))
}

/// Runs `f` and returns its result with the number of allocations it
/// made: fresh blocks plus grown ones.
#[allow(dead_code)] // each test binary uses one of the two probes
pub fn allocs_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - base)
}
