//! Heap regression guard: a freshly built 32-node paper machine, and the
//! peak heap of one 32-node V-COMA FFT point.
//!
//! A counting global allocator records the live heap's high-water mark.
//! About 9.6 MB of the point is fixed by the machine, nearly all of it
//! the attraction-memory arrays: 1 Mi lines at an 8-byte tag plus a
//! 1-byte state each. They keep no recency state, because the protocol
//! draws its victims at random. With a `u16` LRU rank per line, which
//! padded each state to 4 bytes, the machine took 12.6 MB and the point
//! 17.2 MB; with a `u64` LRU stamp per line, 19.0 and 23.6 MB. The
//! machine bound catches a per-line record that grows again. What grows
//! with the workload's footprint is mostly the coherence directory, and
//! the point bound catches a directory whose per-block record grows
//! again: with a fixed 1024-node copy set (136 bytes per entry) the point
//! peaked at 48.3 MB; with copy sets sized to the machine (16 bytes per
//! entry at 32 nodes) at 25.3 MB. The buffered op streams are a small
//! share: packing them at about two bytes per op instead of 16 took the
//! point from 25.3 to 23.6 MB. `tests/heap_peak_streams.rs` guards the op
//! streams themselves.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{peak_mb_of, Counting};
use vcoma::workloads::by_name;
use vcoma::{simulate, Machine, MachineConfig, Scheme, SimConfig};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Workload scale of the guarded point.
const SCALE: f64 = 0.05;

/// Peak heap bound for building the paper machine, in MB (2^20 bytes).
const MACHINE_BOUND_MB: f64 = 11.0;

/// Peak heap bound for the point, in MB (2^20 bytes).
const PEAK_BOUND_MB: f64 = 16.0;

#[test]
fn vcoma_fft_point_stays_under_its_peak_heap_bound() {
    // The only test in this binary, so no other thread allocates while
    // the machine is built or the point runs.
    let (machine, machine_mb) = peak_mb_of(|| {
        Machine::new(SimConfig::new(MachineConfig::paper_baseline(), Scheme::V_COMA))
    });
    drop(machine);
    eprintln!("paper machine {machine_mb:.2} MB");
    assert!(
        machine_mb <= MACHINE_BOUND_MB,
        "building the paper machine took {machine_mb:.2} MB, over the {MACHINE_BOUND_MB} MB bound"
    );

    let w = by_name("FFT", SCALE).expect("FFT is a paper benchmark");
    let (report, peak_mb) = peak_mb_of(|| {
        let sim = SimConfig::new(MachineConfig::paper_baseline(), Scheme::V_COMA);
        simulate(sim, w.as_ref()).unwrap()
    });
    assert!(report.total_refs() > 0);
    eprintln!("peak heap {peak_mb:.1} MB over {} refs", report.total_refs());
    assert!(
        peak_mb <= PEAK_BOUND_MB,
        "peak heap {peak_mb:.1} MB exceeds the {PEAK_BOUND_MB} MB bound"
    );
}
