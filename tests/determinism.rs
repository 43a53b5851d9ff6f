//! Bit-level reproducibility: a run is a pure function of (configuration,
//! seed, workload).

use vcoma::workloads::{all_benchmarks, UniformRandom};
use vcoma::{all_schemes, simulate, MachineConfig, Scheme, SimConfig};

/// The paper's 32-node machine running `scheme`.
fn paper(scheme: Scheme) -> SimConfig {
    SimConfig::new(MachineConfig::paper_baseline(), scheme)
}

#[test]
fn identical_seeds_give_identical_reports() {
    for scheme in all_schemes() {
        let sim = paper(scheme).with_entries(8).with_seed(1234);
        let w = UniformRandom { pages: 200, refs_per_node: 1500, write_fraction: 0.4 };
        let (a, b) = (simulate(sim.clone(), &w).unwrap(), simulate(sim, &w).unwrap());
        assert_eq!(a.exec_time(), b.exec_time(), "{scheme}");
        assert_eq!(a.total_refs(), b.total_refs(), "{scheme}");
        assert_eq!(
            a.translation_misses_total(0),
            b.translation_misses_total(0),
            "{scheme}"
        );
        assert_eq!(a.aggregate_breakdown(), b.aggregate_breakdown(), "{scheme}");
        assert_eq!(a.protocol(), b.protocol(), "{scheme}");
        assert_eq!(a.net_msgs(), b.net_msgs(), "{scheme}");
        for (na, nb) in a.nodes().iter().zip(b.nodes()) {
            assert_eq!(na.time, nb.time, "{scheme}");
            assert_eq!(na.translation, nb.translation, "{scheme}");
        }
    }
}

#[test]
fn different_seeds_perturb_random_replacement() {
    // With random TLB replacement, different seeds give (almost surely)
    // different miss counts on a thrashing workload.
    let w = UniformRandom { pages: 64, refs_per_node: 4000, write_fraction: 0.3 };
    let a = simulate(paper(Scheme::L0_TLB).with_entries(8).with_seed(1), &w).unwrap();
    let b = simulate(paper(Scheme::L0_TLB).with_entries(8).with_seed(2), &w).unwrap();
    assert_ne!(
        a.translation_misses_total(0),
        b.translation_misses_total(0),
        "seeds must drive the random replacement"
    );
    // But the reference stream itself is seed-independent.
    assert_eq!(a.total_refs(), b.total_refs());
}

#[test]
fn benchmark_generation_is_reproducible_through_the_facade() {
    let machine = vcoma::MachineConfig::paper_baseline();
    for w in all_benchmarks(0.002) {
        assert_eq!(w.generate(&machine), w.generate(&machine), "{}", w.name());
    }
}

#[test]
fn warmup_changes_stats_not_determinism() {
    let w = UniformRandom { pages: 64, refs_per_node: 1000, write_fraction: 0.3 };
    let cold = simulate(paper(Scheme::V_COMA).with_seed(7), &w).unwrap();
    let warm = paper(Scheme::V_COMA).with_seed(7).with_warmup();
    let warm_a = simulate(warm.clone(), &w).unwrap();
    let warm_b = simulate(warm, &w).unwrap();
    assert_eq!(warm_a.exec_time(), warm_b.exec_time());
    // The warm window must see fewer protocol cold fills than the cold one.
    assert!(warm_a.protocol().cold_fills < cold.protocol().cold_fills);
    // And the same number of references.
    assert_eq!(warm_a.total_refs(), cold.total_refs());
}
