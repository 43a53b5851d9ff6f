//! Streaming replay equivalence: a node's ops must not depend on the
//! order in which nodes pull them, pulling ops lazily from a workload's
//! [`OpSource`] cursors must be indistinguishable — down to the debug
//! rendering of the whole report — from replaying the generated traces,
//! and the engine's trace-shape failures must surface as [`SimError`]
//! values through the facade instead of panics.

use vcoma::workloads::{all_benchmarks, PingPong, PrivateStream, UniformRandom, Workload};
use vcoma::{
    all_schemes, simulate, Machine, MachineConfig, Op, OpSource, Scheme, SimConfig, SimError,
    SyncId,
};

/// The paper's six benchmarks at smoke scale plus the three
/// micro-workloads.
fn every_workload() -> Vec<Box<dyn Workload>> {
    let mut ws = all_benchmarks(0.01);
    ws.push(Box::new(UniformRandom { pages: 64, refs_per_node: 500, write_fraction: 0.3 }));
    ws.push(Box::new(PrivateStream { bytes_per_node: 64 << 10, passes: 1 }));
    ws.push(Box::new(PingPong { rounds: 400 }));
    ws
}

/// Pulls up to `max` ops from `source` into `out`; `false` once the
/// source is exhausted.
fn pull(source: &mut Box<dyn OpSource>, out: &mut Vec<Op>, max: usize) -> bool {
    for _ in 0..max {
        match source.next_op() {
            Some(op) => out.push(op),
            None => return false,
        }
    }
    true
}

#[test]
fn sources_concatenate_to_the_generated_traces() {
    let cfg = MachineConfig::paper_baseline();
    let n = cfg.nodes as usize;
    for w in every_workload() {
        let eager = w.generate(&cfg);

        let mut sources = w.sources(&cfg);
        let mut reverse = vec![Vec::new(); n];
        for i in (0..n).rev() {
            pull(&mut sources[i], &mut reverse[i], usize::MAX);
        }
        assert_eq!(eager, reverse, "{}: reverse node order", w.name());

        let mut sources = w.sources(&cfg);
        let mut round_robin = vec![Vec::new(); n];
        let mut live = vec![true; n];
        while live.contains(&true) {
            for i in 0..n {
                if live[i] {
                    live[i] = pull(&mut sources[i], &mut round_robin[i], 1);
                }
            }
        }
        assert_eq!(eager, round_robin, "{}: round-robin, one op at a time", w.name());

        let mut sources = w.sources(&cfg);
        let mut node0_first = vec![Vec::new(); n];
        pull(&mut sources[0], &mut node0_first[0], eager[0].len() / 2);
        for i in (1..n).chain([0]) {
            pull(&mut sources[i], &mut node0_first[i], usize::MAX);
        }
        assert_eq!(eager, node0_first, "{}: node 0 partly before the others", w.name());
    }
}

#[test]
fn streaming_reports_match_materialized_reports_for_every_workload() {
    let machine = MachineConfig::paper_baseline();
    for w in every_workload() {
        let sim = SimConfig::new(machine.clone(), Scheme::V_COMA).with_seed(42).with_warmup();
        let streamed = simulate(sim.clone(), w.as_ref()).unwrap();
        let built = Machine::new(sim).run(w.generate(&machine)).unwrap();
        assert_eq!(format!("{streamed:?}"), format!("{built:?}"), "{}", w.name());
    }
}

#[test]
fn streaming_matches_materialized_for_every_scheme() {
    let w = UniformRandom { pages: 128, refs_per_node: 800, write_fraction: 0.4 };
    let machine = MachineConfig::paper_baseline();
    for scheme in all_schemes() {
        let sim = SimConfig::new(machine.clone(), scheme).with_entries(8).with_seed(7);
        let streamed = simulate(sim.clone(), &w).unwrap();
        let built = Machine::new(sim).run(w.generate(&machine)).unwrap();
        assert_eq!(format!("{streamed:?}"), format!("{built:?}"), "{scheme}");
    }
}

/// The same per-node ops reach the machine three ways — the workload's
/// own sources, owned `Vec<Op>` iterators, and [`Machine::run`]'s
/// borrowed traces — and every way must give the same report, warm-up
/// pass included.
#[test]
fn every_op_source_adapter_gives_identical_reports() {
    let w = UniformRandom { pages: 32, refs_per_node: 300, write_fraction: 0.4 };
    let machine = MachineConfig::tiny();
    let traces = w.generate(&machine);
    for scheme in all_schemes() {
        let sim = SimConfig::new(machine.clone(), scheme).with_seed(3).with_warmup();
        let generated = simulate(sim.clone(), &w).unwrap();
        let owned_sources = || {
            traces.iter().map(|t| Box::new(t.clone().into_iter()) as Box<dyn OpSource>).collect()
        };
        let owned = Machine::new(sim.clone()).run_streaming(owned_sources).unwrap();
        let borrowed = Machine::new(sim).run(traces.clone()).unwrap();
        let generated = format!("{generated:?}");
        assert_eq!(generated, format!("{owned:?}"), "{scheme}: owned iterators");
        assert_eq!(generated, format!("{borrowed:?}"), "{scheme}: borrowed traces");
    }
}

/// A workload whose fixed traces park node 0 at a barrier no one else
/// reaches — the facade must report the deadlock, not hang or panic.
struct Unbalanced;

impl Workload for Unbalanced {
    fn name(&self) -> &'static str {
        "UNBALANCED"
    }

    fn params(&self) -> String {
        String::new()
    }

    fn shared_mb(&self) -> f64 {
        0.0
    }

    fn sources(&self, cfg: &MachineConfig) -> Vec<Box<dyn OpSource>> {
        let mut traces = vec![Vec::new(); cfg.nodes as usize];
        traces[0].push(Op::Barrier(SyncId(0)));
        traces.into_iter().map(|t| Box::new(t.into_iter()) as Box<dyn OpSource>).collect()
    }
}

#[test]
fn missing_barrier_participant_surfaces_as_a_deadlock_error() {
    let sim = SimConfig::new(MachineConfig::tiny(), Scheme::L0_TLB);
    let built = Machine::new(sim.clone()).run(Unbalanced.generate(&sim.machine));
    for result in [simulate(sim, &Unbalanced), built] {
        match result {
            Err(SimError::Deadlock { parked }) => assert_eq!(parked, vec![0]),
            other => panic!("expected a deadlock error, got {other:?}"),
        }
    }
}

/// A workload that yields the wrong number of per-node sources.
struct WrongArity;

impl Workload for WrongArity {
    fn name(&self) -> &'static str {
        "WRONG-ARITY"
    }

    fn params(&self) -> String {
        String::new()
    }

    fn shared_mb(&self) -> f64 {
        0.0
    }

    fn sources(&self, _cfg: &MachineConfig) -> Vec<Box<dyn OpSource>> {
        vec![Box::new(std::iter::once(Op::Compute(1)))]
    }
}

#[test]
fn wrong_source_count_surfaces_as_bad_traces() {
    let sim = SimConfig::new(MachineConfig::tiny(), Scheme::V_COMA);
    let built = Machine::new(sim.clone()).run(WrongArity.generate(&sim.machine));
    for result in [simulate(sim, &WrongArity), built] {
        match result {
            Err(SimError::BadTraces { got, want }) => {
                assert_eq!((got, want), (1, 4));
            }
            other => panic!("expected a bad-traces error, got {other:?}"),
        }
    }
}
