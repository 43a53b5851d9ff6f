//! Heap regression guard: the peak heap of one 32-node V-COMA FFT point.
//!
//! A counting global allocator records the live heap's high-water mark
//! while the point runs. About 21 MB of it is fixed by the machine (the
//! attraction-memory arrays); what grows with the workload's footprint
//! is mostly the coherence directory. The bound catches a directory
//! whose per-block record grows again: with a fixed 1024-node copy set
//! (136 bytes per entry) this point peaked at 48.3 MB; with copy sets
//! sized to the machine (16 bytes per entry at 32 nodes) at 25.3 MB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use vcoma::workloads::by_name;
use vcoma::{MachineConfig, Scheme, Simulator};

/// Forwards to the system allocator, tracking live and peak bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
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

#[global_allocator]
static ALLOC: Counting = Counting;

/// Workload scale of the guarded point.
const SCALE: f64 = 0.05;

/// Peak heap bound for the point, in MB (2^20 bytes).
const PEAK_BOUND_MB: f64 = 32.0;

#[test]
fn vcoma_fft_point_stays_under_its_peak_heap_bound() {
    // The only test in this binary, so no other thread allocates while
    // the point runs.
    let w = by_name("FFT", SCALE).expect("FFT is a paper benchmark");
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let report = Simulator::new(Scheme::V_COMA)
        .machine(MachineConfig::paper_baseline())
        .run(w.as_ref());
    let peak_mb = (PEAK.load(Ordering::Relaxed) - base) as f64 / f64::from(1u32 << 20);
    assert!(report.total_refs() > 0);
    eprintln!("peak heap {peak_mb:.1} MB over {} refs", report.total_refs());
    assert!(
        peak_mb <= PEAK_BOUND_MB,
        "peak heap {peak_mb:.1} MB exceeds the {PEAK_BOUND_MB} MB bound"
    );
}
