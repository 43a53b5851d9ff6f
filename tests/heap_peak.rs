//! Heap regression guard: the peak heap of one 32-node V-COMA FFT point.
//!
//! A counting global allocator records the live heap's high-water mark
//! while the point runs. About 21 MB of it is fixed by the machine (the
//! attraction-memory arrays); what grows with the workload's footprint
//! is mostly the coherence directory. The bound catches a directory
//! whose per-block record grows again: with a fixed 1024-node copy set
//! (136 bytes per entry) this point peaked at 48.3 MB; with copy sets
//! sized to the machine (16 bytes per entry at 32 nodes) at 25.3 MB.
//! The buffered op streams are a small share: packing them at about two
//! bytes per op instead of 16 took the point to 23.6 MB.
//! `tests/heap_peak_streams.rs` guards the op streams themselves.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{peak_mb_of, Counting};
use vcoma::workloads::by_name;
use vcoma::{MachineConfig, Scheme, Simulator};

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
    let (report, peak_mb) = peak_mb_of(|| {
        Simulator::new(Scheme::V_COMA)
            .machine(MachineConfig::paper_baseline())
            .run(w.as_ref())
    });
    assert!(report.total_refs() > 0);
    eprintln!("peak heap {peak_mb:.1} MB over {} refs", report.total_refs());
    assert!(
        peak_mb <= PEAK_BOUND_MB,
        "peak heap {peak_mb:.1} MB exceeds the {PEAK_BOUND_MB} MB bound"
    );
}
