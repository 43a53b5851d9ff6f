//! Event-ring overflow behaviour: the ring keeps the newest events, counts
//! what it sheds and folds across registries. The ring lives in the
//! `MetricsRegistry`, never in a `SimReport`, so its capacity cannot
//! change what a full simulation reports.

use vcoma::metrics::{Event, EventRing, Mergeable, MetricsRegistry};
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
fn registry_merge_carries_the_drop_count() {
    let mut a = MetricsRegistry::new(4);
    let mut b = MetricsRegistry::new(4);
    for c in 0..10 {
        a.trace(event(c));
        b.trace(event(100 + c));
    }
    assert_eq!(a.events().dropped(), 6);
    a.merge(&b);
    // Both retained tails meet in a 4-entry ring: b's newer four stay,
    // and every one of the 20 events is either retained or counted.
    let cycles: Vec<u64> = a.events().iter().map(|e| e.cycle).collect();
    assert_eq!(cycles, (106..110).collect::<Vec<u64>>());
    assert_eq!(a.events().dropped(), 16);
    assert_eq!(a.events().len() as u64 + a.events().dropped(), 20);
}

#[test]
fn event_rings_merge_in_cycle_order() {
    let mut a = EventRing::new(4);
    let mut b = EventRing::new(4);
    for c in [3, 9] {
        a.push(event(c));
    }
    for c in [1, 7] {
        b.push(event(c));
    }
    a.merge(&b);
    let snap = a.snapshot();
    assert_eq!(snap.iter().map(|e| e.cycle).collect::<Vec<_>>(), vec![1, 3, 7, 9]);
    assert_eq!(snap[0].kind, "tlb_miss");
    assert_eq!(a.dropped(), 0);
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
