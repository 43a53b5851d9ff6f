//! Event-ring overflow behaviour: the ring keeps the newest events and
//! counts what it sheds. The ring lives in the
//! `MetricsRegistry`, never in a `SimReport`, so its capacity cannot
//! change what a full simulation reports.

use vcoma::metrics::{Event, EventRing};
use vcoma::workloads::{UniformRandom, Workload};
use vcoma::{codec, Machine, MachineConfig, Scheme, SimConfig};

fn event(cycle: u64) -> Event {
    Event { cycle, node: (cycle % 4) as u16, kind: "tlb_miss", addr: cycle * 64 }
}

#[test]
fn overflow_counts_drops_and_keeps_the_newest_events() {
    let mut ring = EventRing::new(8);
    for c in 0..20 {
        ring.push(event(c));
    }
    assert_eq!(ring.dropped(), 12);
    let snap = ring.snapshot();
    assert_eq!(snap.len(), 8);
    // Oldest-first, and only the most recent survive.
    let cycles: Vec<u64> = snap.iter().map(|e| e.cycle).collect();
    assert_eq!(cycles, (12..20).collect::<Vec<u64>>());
}

#[test]
fn zero_capacity_ring_drops_everything() {
    let mut ring = EventRing::new(0);
    for c in 0..5 {
        ring.push(event(c));
    }
    assert_eq!(ring.dropped(), 5);
    assert!(ring.snapshot().is_empty());
}

#[test]
fn a_real_run_overflows_a_tiny_ring_without_losing_counters() {
    // A TLB-thrashing workload overflows a 4-entry ring and fits in a
    // 2^20-entry one; the two runs must report exactly the same thing.
    let machine = MachineConfig::tiny();
    let w = UniformRandom { pages: 200, refs_per_node: 1000, write_fraction: 0.3 };
    let traces = w.generate(&machine);
    let run = |capacity: usize| {
        let cfg = SimConfig::new(machine.clone(), Scheme::L0_TLB)
            .with_seed(9)
            .with_event_capacity(capacity);
        Machine::new(cfg).run(traces.clone()).unwrap()
    };
    let small = run(4);
    let big = run(1 << 20);
    // The envelope holds everything a report carries except its config,
    // and the configs differ only in the ring's capacity.
    assert_eq!(codec::encode(&small, "fp", "k"), codec::encode(&big, "fp", "k"));
    assert_eq!(
        format!("{:?}", small.config().clone().with_event_capacity(1 << 20)),
        format!("{:?}", big.config())
    );
    assert_eq!(small.metrics(), big.metrics());
    assert_eq!(big.exec_time(), small.exec_time());
}
