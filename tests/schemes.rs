//! Cross-crate integration: all six scheme variants run every benchmark
//! end to end on the paper machine.

use vcoma::workloads::{all_benchmarks, PingPong, PrivateStream, UniformRandom};
use vcoma::{all_schemes, simulate, MachineConfig, Scheme, SimConfig};

/// The paper's 32-node machine running `scheme`.
fn paper(scheme: Scheme) -> SimConfig {
    SimConfig::new(MachineConfig::paper_baseline(), scheme)
}

#[test]
fn every_scheme_runs_every_benchmark() {
    for w in all_benchmarks(0.003) {
        let mut refs = Vec::new();
        for scheme in all_schemes() {
            let report = simulate(paper(scheme).with_entries(8), w.as_ref()).unwrap();
            assert!(report.exec_time() > 0, "{} {}", w.name(), scheme);
            assert!(report.total_refs() > 0, "{} {}", w.name(), scheme);
            refs.push(report.total_refs());
        }
        // The processor reference stream is scheme-independent.
        assert!(
            refs.windows(2).all(|w| w[0] == w[1]),
            "{}: reference counts differ across schemes: {refs:?}",
            w.name()
        );
    }
}

#[test]
fn private_data_stays_local_in_steady_state() {
    // A private streaming workload, once warm, generates no remote stalls
    // in any scheme with a virtually-indexed AM (no capacity pressure at
    // this size) — and almost none in the physical ones.
    let w = PrivateStream { bytes_per_node: 64 << 10, passes: 3 };
    for scheme in [Scheme::L3_TLB, Scheme::V_COMA] {
        let report = simulate(paper(scheme).with_warmup(), &w).unwrap();
        let b = report.aggregate_breakdown();
        assert_eq!(
            b.remote_stall, 0,
            "{scheme}: private data must not stall remotely when warm"
        );
    }
}

#[test]
fn ping_pong_is_remote_bound_everywhere() {
    let w = PingPong { rounds: 200 };
    for scheme in all_schemes() {
        let report = simulate(paper(scheme), &w).unwrap();
        let b = report.aggregate_breakdown();
        assert!(
            b.remote_stall > b.local_stall,
            "{scheme}: write ping-pong must be dominated by coherence stalls"
        );
        assert!(report.protocol().remote_transactions() > 300, "{scheme}");
    }
}

#[test]
fn vcoma_never_uses_a_processor_tlb() {
    // In V-COMA the only translation structure is the home-side DLB; its
    // access count equals the number of home lookups, which is bounded by
    // the protocol transactions, not by the reference count.
    let w = UniformRandom { pages: 128, refs_per_node: 2000, write_fraction: 0.3 };
    let report = simulate(paper(Scheme::V_COMA), &w).unwrap();
    assert!(
        report.translation_accesses_total(0) <= report.protocol().remote_transactions(),
        "DLB accesses ({}) cannot exceed protocol transactions ({})",
        report.translation_accesses_total(0),
        report.protocol().remote_transactions()
    );
    // While L0 translates every single reference.
    let l0 = simulate(paper(Scheme::L0_TLB), &w).unwrap();
    assert_eq!(l0.translation_accesses_total(0), l0.total_refs());
}

#[test]
fn translation_access_counts_are_filtered_down_the_hierarchy() {
    let w = UniformRandom { pages: 64, refs_per_node: 3000, write_fraction: 0.2 };
    // Within the physically-addressed family the protocol dynamics are
    // identical, so filtering is strict: L0 ≥ L1 ≥ L2.
    let mut last = u64::MAX;
    for scheme in [Scheme::L0_TLB, Scheme::L1_TLB, Scheme::L2_TLB_NO_WB] {
        let report = simulate(paper(scheme), &w).unwrap();
        let accesses = report.translation_accesses_total(0);
        assert!(
            accesses <= last,
            "{scheme}: {accesses} accesses, more than the level above ({last})"
        );
        last = accesses;
    }
    // L3 and V-COMA use page coloring / virtual homes, which perturbs the
    // coherence dynamics slightly; allow a small band against L0 while
    // still requiring deep filtering relative to the top of the hierarchy.
    let l0 = simulate(paper(Scheme::L0_TLB), &w).unwrap().translation_accesses_total(0);
    for scheme in [Scheme::L3_TLB, Scheme::V_COMA] {
        let accesses = simulate(paper(scheme), &w).unwrap().translation_accesses_total(0);
        assert!(
            accesses <= l0,
            "{scheme}: {accesses} accesses, more than L0's {l0}"
        );
    }
}
