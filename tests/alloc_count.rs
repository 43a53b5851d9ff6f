//! Allocation guard: a run makes no heap allocation per memory reference
//! or coherence transaction.
//!
//! A counting global allocator counts the allocations one replay makes,
//! for the same workload at two scales: one-pass plus two-pass (warm-up)
//! V-COMA runs of FFT on the paper's 32-node machine. The traces are
//! materialized and the machine built before counting starts, so only the
//! run itself is counted. What a run may allocate is fixed or nearly so:
//! the per-pass source boxes and replay state, the report, and
//! logarithmic growth of the page table and the coherence directory.
//! When every transaction that invalidated or injected built a fresh
//! invalidation list, the two scales took 1,520 and 11,064 allocations;
//! when every barrier episode grew a fresh arrival list and collected a
//! fresh release list, 361 and 375.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs_of, Counting};
use vcoma::workloads::by_name;
use vcoma::{materialize, Machine, MachineConfig, Op, Scheme, SimConfig};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations a sync op may make: none, because a barrier episode reuses
/// the previous episode's arrival list and releases into the loop's
/// resume list. (A lock's wait queue is allocated once per lock id; FFT
/// takes no locks.)
const PER_SYNC_OP: usize = 0;

/// Allocations the larger run may add beyond its extra sync ops: the
/// page table and directory double a few more times.
const TABLE_GROWTH: usize = 64;

/// The allocations of a one-pass plus a two-pass run of FFT at `scale`,
/// with the run's references and sync ops.
fn allocations_at(scale: f64) -> (usize, u64, usize) {
    let w = by_name("FFT", scale).expect("FFT is a paper benchmark");
    let m = MachineConfig::paper_baseline();
    let (mut allocs, mut refs, mut syncs) = (0, 0, 0);
    for warmup in [false, true] {
        let traces = materialize(w.sources(&m));
        let passes = if warmup { 2 } else { 1 };
        syncs += passes
            * traces
                .iter()
                .flatten()
                .filter(|op| matches!(op, Op::Barrier(_) | Op::Lock(_) | Op::Unlock(_)))
                .count();
        let mut cfg = SimConfig::new(m.clone(), Scheme::V_COMA);
        if warmup {
            cfg = cfg.with_warmup();
        }
        let machine = Machine::new(cfg);
        let (report, n) = allocs_of(|| machine.run(traces).expect("FFT replays"));
        allocs += n;
        refs += passes as u64 * report.total_refs();
    }
    (allocs, refs, syncs)
}

#[test]
fn run_allocations_do_not_grow_with_references() {
    // The only test in this binary, so no other thread allocates while a
    // run is counted.
    let (small, small_refs, small_syncs) = allocations_at(0.02);
    let (large, large_refs, large_syncs) = allocations_at(0.05);
    eprintln!(
        "{small} allocations over {small_refs} refs, {large} over {large_refs} refs \
         ({small_syncs} and {large_syncs} sync ops)"
    );
    assert!(large_refs >= 2 * small_refs, "the scales differ enough to show growth");
    let allowed = PER_SYNC_OP * large_syncs.saturating_sub(small_syncs) + TABLE_GROWTH;
    assert!(
        large <= small + allowed,
        "{} more references took {} more allocations, over the {allowed} allowed",
        large_refs - small_refs,
        large.saturating_sub(small)
    );
}
