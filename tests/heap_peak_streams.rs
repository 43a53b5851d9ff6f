//! Heap regression guards for the workloads' packed op streams.
//!
//! Each node's pending ops live in a packed byte stream at about two
//! bytes per op, and a phase is generated only when some node runs dry,
//! so the live op buffers are about two phases' worth, whatever the
//! scale. Two measurements, taken one after the other in this binary's
//! only test so that no other thread allocates meanwhile:
//!
//! - FMM's 32 sources drained round-robin, one op each in turn, at scale
//!   1.0: 195.4 MB with 16-byte ops copied into per-node deques, 16.0 MB
//!   packed. A stream that keeps its consumed prefix would grow towards
//!   the whole trace here, because every node but the one that triggers
//!   a phase still holds its barrier at that moment.
//! - One FMM point at scale 0.1 under L0-TLB with Table 2's 8/32/128
//!   fully-associative bank: 42.0 MB with deques, 21.7 MB packed. The
//!   rest of that peak is the machine itself.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{peak_mb_of, Counting};
use vcoma::workloads::by_name;
use vcoma::{simulate, MachineConfig, Scheme, SimConfig, TlbOrg};
use vcoma_experiments::table2::TABLE2_SIZES;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak heap bound for the scale-1.0 round-robin drain, in MB.
const DRAIN_BOUND_MB: f64 = 24.0;

/// Peak heap bound for the scale-0.1 L0-TLB point, in MB.
const POINT_BOUND_MB: f64 = 28.0;

/// Pulls every op from FMM's sources at scale 1.0, one per node in turn;
/// returns the op count.
fn drain_fmm_round_robin() -> u64 {
    let w = by_name("FMM", 1.0).expect("FMM is a paper benchmark");
    let mut sources = w.sources(&MachineConfig::paper_baseline());
    let mut live = vec![true; sources.len()];
    let mut ops = 0u64;
    while live.contains(&true) {
        for (source, live) in sources.iter_mut().zip(&mut live) {
            if *live {
                match source.next_op() {
                    Some(_) => ops += 1,
                    None => *live = false,
                }
            }
        }
    }
    ops
}

#[test]
fn fmm_op_streams_stay_under_their_peak_heap_bounds() {
    let (ops, drain_mb) = peak_mb_of(drain_fmm_round_robin);
    eprintln!("FMM drain at scale 1.0: peak heap {drain_mb:.1} MB over {ops} ops");

    let w = by_name("FMM", 0.1).expect("FMM is a paper benchmark");
    let bank = TABLE2_SIZES.iter().map(|&s| (s, TlbOrg::FullyAssociative)).collect();
    let (report, point_mb) = peak_mb_of(|| {
        let sim = SimConfig::new(MachineConfig::paper_baseline(), Scheme::L0_TLB)
            .with_translation_specs(bank);
        simulate(sim, w.as_ref()).unwrap()
    });
    eprintln!("FMM L0-TLB point at scale 0.1: peak heap {point_mb:.1} MB over {} refs", report.total_refs());

    assert!(ops > 0 && report.total_refs() > 0);
    assert!(
        drain_mb <= DRAIN_BOUND_MB,
        "FMM drain peak heap {drain_mb:.1} MB exceeds the {DRAIN_BOUND_MB} MB bound"
    );
    assert!(
        point_mb <= POINT_BOUND_MB,
        "FMM point peak heap {point_mb:.1} MB exceeds the {POINT_BOUND_MB} MB bound"
    );
}
