//! End-to-end fault-injection guarantees: faulty runs complete under the
//! auditor on every scheme, traced or not, the recovery work is visible
//! in the protocol and crossbar stats, zero-probability plans
//! are byte-inert, and fault runs are a pure function of `(plan, seed)`.

use vcoma::faults::FaultPlan;
use vcoma::workloads::{PingPong, UniformRandom, Workload};
use vcoma::{all_schemes, simulate, MachineConfig, Scheme, SimConfig, TraceConfig};

/// The 4-node test machine running `scheme`.
fn tiny(scheme: Scheme) -> SimConfig {
    SimConfig::new(MachineConfig::tiny(), scheme)
}

/// The tracing the traced cases arm.
const TRACE: TraceConfig = TraceConfig { sample_every: 7, capacity: 256 };

fn workload() -> UniformRandom {
    UniformRandom { pages: 96, refs_per_node: 800, write_fraction: 0.4 }
}

#[test]
fn every_scheme_survives_a_lossy_crossbar_with_the_auditor_armed() {
    let plan = FaultPlan::parse("drop=0.01,dup=0.005,delay=32,nack=0.02").unwrap();
    for (scheme, traced) in all_schemes().into_iter().flat_map(|s| [(s, false), (s, true)]) {
        let sim = tiny(scheme).with_fault_plan(plan.clone()).with_audit();
        let sim = if traced { sim.with_trace(TRACE) } else { sim };
        let report = simulate(sim, &workload()).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert_eq!(report.trace().is_some(), traced, "{scheme}");
        assert_eq!(report.total_refs(), 4 * 800, "{scheme}");
        let p = report.protocol();
        assert!(
            p.fault_recoveries() + p.nacks > 0,
            "{scheme}: the plan must trip visible recovery work"
        );
        assert!(
            report.net().dropped_msgs + report.net().duplicated_msgs > 0,
            "{scheme}: the crossbar must record fault events"
        );
        // And recovery time is attributed to its own latency category,
        // without leaking a cycle of any node's clock.
        assert!(report.aggregate_fine().fault > 0, "{scheme}");
        for (i, n) in report.nodes().iter().enumerate() {
            assert_eq!(n.fine.total(), n.time, "{scheme} traced={traced} node {i}");
        }
    }
}

#[test]
fn zero_probability_plan_is_byte_inert() {
    for scheme in all_schemes() {
        let plain = simulate(tiny(scheme), &workload()).unwrap();
        let zeroed =
            simulate(tiny(scheme).with_fault_plan(FaultPlan::default()), &workload()).unwrap();
        assert_eq!(plain.exec_time(), zeroed.exec_time(), "{scheme}");
        assert_eq!(plain.protocol(), zeroed.protocol(), "{scheme}");
        assert_eq!(plain.net(), zeroed.net(), "{scheme}");
        assert_eq!(plain.aggregate_fine(), zeroed.aggregate_fine(), "{scheme}");
        assert_eq!(plain.metrics(), zeroed.metrics(), "{scheme}");
    }
}

#[test]
fn fault_runs_are_a_pure_function_of_plan_and_seed() {
    let plan = FaultPlan::parse("drop=0.02,nack=0.05").unwrap().with_seed(0xBEEF);
    // The traced ping-pong is sync-heavy: every op is a coherence
    // transaction, so any drift in replay order shows up.
    let cases: [(&dyn Workload, bool); 2] =
        [(&workload(), false), (&PingPong { rounds: 300 }, true)];
    for (w, traced) in cases {
        let run = || {
            let sim = tiny(Scheme::V_COMA).with_fault_plan(plan.clone()).with_audit();
            let sim = if traced { sim.with_trace(TRACE) } else { sim };
            simulate(sim, w).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.exec_time(), b.exec_time());
        assert_eq!(a.protocol(), b.protocol());
        assert_eq!(a.net(), b.net());
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(format!("{:?}", a.trace()), format!("{:?}", b.trace()));
    }
}

#[test]
fn fault_seed_changes_the_fault_pattern_but_not_the_references() {
    let plan = FaultPlan::parse("drop=0.03,nack=0.05").unwrap();
    let run = |seed: u64| {
        let sim = tiny(Scheme::L0_TLB).with_fault_plan(plan.clone().with_seed(seed));
        simulate(sim, &workload()).unwrap()
    };
    let (a, b) = (run(1), run(2));
    assert_eq!(a.total_refs(), b.total_refs());
    // Different fault seeds pick different victims (almost surely).
    assert_ne!(
        (a.exec_time(), a.protocol().retries, a.net().dropped_msgs),
        (b.exec_time(), b.protocol().retries, b.net().dropped_msgs),
        "fault decisions must be keyed on the plan seed"
    );
}
