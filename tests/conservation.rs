//! Conservation and accounting invariants that must hold across the whole
//! stack, whatever the scheme or workload.

use vcoma::workloads::all_benchmarks;
use vcoma::{all_schemes, simulate, Machine, MachineConfig, Scheme, SimConfig};
use vcoma_types::Op;

/// The paper's 32-node machine running `scheme`.
fn paper(scheme: Scheme) -> SimConfig {
    SimConfig::new(MachineConfig::paper_baseline(), scheme)
}

#[test]
fn reference_counts_match_the_traces() {
    let machine = MachineConfig::paper_baseline();
    for w in all_benchmarks(0.003) {
        let traces = w.generate(&machine);
        let trace_reads = traces
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Read(_)))
            .count() as u64;
        let trace_writes = traces
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Write(_)))
            .count() as u64;
        for scheme in all_schemes() {
            let report = Machine::new(paper(scheme)).run(traces.clone()).unwrap();
            assert_eq!(report.total_refs(), trace_reads + trace_writes, "{scheme}");
            assert_eq!(report.total_writes(), trace_writes, "{scheme}");
        }
    }
}

#[test]
fn time_accounting_is_consistent() {
    for w in all_benchmarks(0.003) {
        for scheme in all_schemes() {
            let report = simulate(paper(scheme), w.as_ref()).unwrap();
            for (i, n) in report.nodes().iter().enumerate() {
                // A node's final clock equals the sum of its breakdown
                // categories, fine and Figure-10 alike: every elapsed
                // cycle is attributed exactly once.
                let ctx = || format!("{} {scheme} node {i}", w.name());
                assert_eq!(n.time, n.fine.total(), "{}: fine breakdown leaks cycles", ctx());
                assert_eq!(n.time, n.fine.coarse().total(), "{}: coarse view leaks", ctx());
                // Busy time includes at least the one issue cycle per ref.
                assert!(n.fine.busy >= n.refs, "{}", ctx());
            }
        }
    }
}

#[test]
fn fine_breakdown_conserves_every_cycle() {
    // The fine latency attribution behind `--breakdown` must account for
    // every simulated cycle, per node and machine-wide, in every scheme.
    for w in all_benchmarks(0.003) {
        for scheme in all_schemes() {
            let report = simulate(paper(scheme), w.as_ref()).unwrap();
            for (i, n) in report.nodes().iter().enumerate() {
                let ctx = || format!("{} {scheme} node {i}", w.name());
                assert_eq!(n.time, n.fine.total(), "{}: fine breakdown leaks cycles", ctx());
            }
            let fine = report.aggregate_fine();
            assert_eq!(
                fine.total(),
                report.simulated_cycles(),
                "{} {scheme}: machine-wide fine total != simulated cycles",
                w.name()
            );
            // Scheme-specific attribution: node TLB walks belong to the
            // TLB schemes, home DLB lookups to V-COMA.
            if scheme == vcoma::Scheme::V_COMA {
                assert_eq!(fine.tlb_walk, 0, "{}: V-COMA has no node TLBs", w.name());
            } else {
                assert_eq!(fine.dlb_lookup, 0, "{} {scheme}: only V-COMA has DLBs", w.name());
            }
            // The contention-free paper model never queues at ports.
            assert_eq!(fine.queue, 0, "{} {scheme}: queueing without contention", w.name());
        }
    }
}

#[test]
fn both_ledgers_conserve_at_nonzero_flc_hit() {
    // The paper charges nothing for an FLC hit, which hides a missing
    // charge. With a nonzero `flc_hit`, every node's fine total and its
    // Figure-10 projection must both still equal its clock, and the FLC
    // charge must show up as local stall.
    use vcoma::{MachineConfig, Scheme};
    let mut machine = MachineConfig::paper_baseline();
    machine.timing.flc_hit = 2;
    for w in all_benchmarks(0.003) {
        for scheme in [Scheme::L0_TLB, Scheme::V_COMA] {
            let report = simulate(SimConfig::new(machine.clone(), scheme), w.as_ref()).unwrap();
            for (i, n) in report.nodes().iter().enumerate() {
                let ctx = || format!("{} {scheme} flc_hit=2 node {i}", w.name());
                let coarse = n.fine.coarse();
                assert_eq!(n.time, coarse.total(), "{}: coarse view leaks cycles", ctx());
                assert_eq!(n.time, n.fine.total(), "{}: fine ledger leaks cycles", ctx());
                assert!(coarse.local_stall >= 2 * n.refs, "{}: FLC charge missing", ctx());
            }
        }
    }
}

#[test]
fn metrics_reconcile_with_report_counters() {
    // The observation-only metrics layer must agree with the first-class
    // statistics it mirrors.
    for w in all_benchmarks(0.003) {
        for scheme in all_schemes() {
            let report = simulate(paper(scheme), w.as_ref()).unwrap();
            let m = report.metrics();
            let reads: u64 = report.nodes().iter().map(|n| n.reads).sum();
            let writes = report.total_writes();
            let h_read = m.histogram("latency.read");
            let h_write = m.histogram("latency.write");
            assert_eq!(
                h_read.map_or(0, |h| h.count),
                reads,
                "{} {scheme}: read-latency histogram must have one sample per load",
                w.name()
            );
            assert_eq!(
                h_write.map_or(0, |h| h.count),
                writes,
                "{} {scheme}: write-latency histogram must have one sample per store",
                w.name()
            );
        }
    }
}

#[test]
fn translation_misses_never_exceed_accesses() {
    for w in all_benchmarks(0.003) {
        for scheme in all_schemes() {
            let report = simulate(paper(scheme), w.as_ref()).unwrap();
            assert!(
                report.translation_misses_total(0) <= report.translation_accesses_total(0),
                "{} {scheme}",
                w.name()
            );
        }
    }
}

#[test]
fn protocol_hits_plus_transactions_cover_probes() {
    // Every memory reference that reaches the AM level either hits locally
    // or produces exactly one protocol transaction; the sum is bounded by
    // the reference count.
    for w in all_benchmarks(0.003) {
        for scheme in all_schemes() {
            let report = simulate(paper(scheme), w.as_ref()).unwrap();
            let p = report.protocol();
            let am_level = p.local_read_hits + p.local_write_hits + p.remote_transactions();
            assert!(
                am_level <= report.total_refs(),
                "{} {scheme}: AM-level events {} exceed refs {}",
                w.name(),
                am_level,
                report.total_refs()
            );
        }
    }
}

#[test]
fn over_capacity_workload_swaps_and_conserves_refs() {
    // 400 distinct pages on the 256-page tiny machine: the page daemon
    // must swap, and accounting must stay exact, in every scheme.
    use vcoma::{MachineConfig, VAddr};
    for scheme in all_schemes() {
        let machine = MachineConfig::tiny();
        let mut traces = vec![Vec::new(); machine.nodes as usize];
        for (i, tr) in traces.iter_mut().enumerate() {
            for p in 0..400u64 {
                let page = (p * 3 + i as u64 * 17) % 400;
                tr.push(Op::Read(VAddr::new(page * machine.page_size)));
            }
        }
        let report = Machine::new(SimConfig::new(machine, scheme)).run(traces).unwrap();
        assert_eq!(report.total_refs(), 1600, "{scheme}");
        assert!(report.swap_outs() > 0, "{scheme}: must swap");
        for n in report.nodes() {
            assert_eq!(n.time, n.fine.total(), "{scheme}");
        }
    }
}

#[test]
fn protection_changes_are_accounted_and_deterministic() {
    use vcoma::{Protection, Scheme, VAddr};
    let mk = || {
        let mut traces = vec![Vec::new(); 32];
        for (i, tr) in traces.iter_mut().enumerate() {
            for k in 0..50u64 {
                tr.push(Op::Read(VAddr::new((k % 8) * 4096)));
                if i == 0 && k % 10 == 9 {
                    let prot = if k % 20 == 9 {
                        Protection::read_only()
                    } else {
                        Protection::read_write()
                    };
                    tr.push(Op::Protect(VAddr::new((k % 8) * 4096), prot));
                }
            }
        }
        traces
    };
    for scheme in [Scheme::L0_TLB, Scheme::L3_TLB, Scheme::V_COMA] {
        let a = Machine::new(paper(scheme).with_seed(4)).run(mk()).unwrap();
        let b = Machine::new(paper(scheme).with_seed(4)).run(mk()).unwrap();
        assert_eq!(a.exec_time(), b.exec_time(), "{scheme}");
        assert_eq!(a.total_refs(), 32 * 50, "{scheme}: protects are not refs");
        let shootdowns: u64 =
            a.nodes().iter().map(|n| n.translation[0].shootdowns).sum();
        assert!(shootdowns > 0, "{scheme}: protection changes must shoot down");
    }
}

#[test]
fn fixed_seed_grid_conserves_refs_and_messages() {
    // A plain (non-proptest) grid over all five schemes and two master
    // seeds, so the accounting invariants are exercised even when the
    // `proptest-tests` feature is off: every reference is a read or a
    // write, every translation/cache access is a hit or a miss, and the
    // protocol's remote transactions are carried by crossbar messages.
    for &seed in &[1u64, 0x5EED] {
        for w in all_benchmarks(0.003) {
            for scheme in all_schemes() {
                let report = simulate(paper(scheme).with_seed(seed), w.as_ref()).unwrap();
                for (i, n) in report.nodes().iter().enumerate() {
                    let ctx = || format!("{} {scheme} seed {seed} node {i}", w.name());
                    assert_eq!(n.refs, n.reads + n.writes, "{}", ctx());
                    for t in &n.translation {
                        assert_eq!(t.hits() + t.misses, t.accesses, "{}", ctx());
                    }
                    assert_eq!(n.flc.hits() + n.flc.misses(), n.flc.accesses(), "{}", ctx());
                    assert_eq!(n.slc.hits() + n.slc.misses(), n.slc.accesses(), "{}", ctx());
                }
                let p = report.protocol();
                assert!(
                    p.remote_transactions() <= report.net_msgs(),
                    "{} {scheme} seed {seed}: {} remote transactions but only {} messages",
                    w.name(),
                    p.remote_transactions(),
                    report.net_msgs()
                );
                assert!(
                    p.injections_forwarded <= p.injection_hops,
                    "{} {scheme} seed {seed}: forwarded acceptances without hops",
                    w.name()
                );
            }
        }
    }
}

#[test]
fn no_spills_on_paper_workloads() {
    // The paper's working sets fit (§5.1): the injection protocol must
    // never be forced to spill a master copy to backing store.
    for w in all_benchmarks(0.01) {
        for scheme in all_schemes() {
            let report = simulate(paper(scheme), w.as_ref()).unwrap();
            assert_eq!(
                report.protocol().spills,
                0,
                "{} {scheme}: memory pressure forced {} spills",
                w.name(),
                report.protocol().spills
            );
        }
    }
}

#[test]
fn ccnuma_ledger_conserves_every_cycle() {
    use vcoma::sim::ccnuma::{private_streams, NumaMachine, NumaScheme};
    use vcoma::{LatencyBreakdown, MachineConfig, Protection, Scheme, SimConfig, SyncId, VAddr};
    // Each node's private stream, with writes and reads of eight shared
    // blocks, a lock-protected counter, a protection change and a closing
    // barrier mixed in.
    let traces: Vec<Vec<Op>> = private_streams(4, 4 << 10, 2)
        .into_iter()
        .enumerate()
        .map(|(node, mut private)| {
            let mut trace = Vec::new();
            for (k, op) in std::iter::from_fn(|| private.next_op()).enumerate() {
                trace.push(op);
                if k % 16 == 0 {
                    let shared = VAddr::new(0x40 * (k as u64 / 16 % 8));
                    let write = (k / 16 + node) % 2 == 0;
                    trace.push(if write { Op::Write(shared) } else { Op::Read(shared) });
                }
                if k % 200 == 0 {
                    let counter = VAddr::new(0x800);
                    trace.extend([Op::Lock(SyncId(1)), Op::Write(counter), Op::Unlock(SyncId(1))]);
                }
            }
            trace.push(Op::Protect(VAddr::new(0x40), Protection::read_only()));
            trace.push(Op::Barrier(SyncId(0)));
            trace
        })
        .collect();
    for scheme in NumaScheme::ALL {
        let cfg = SimConfig::new(MachineConfig::tiny(), Scheme::L0_TLB);
        let report = NumaMachine::new(cfg, scheme).run(traces.clone()).unwrap();
        for (i, n) in report.nodes.iter().enumerate() {
            assert_eq!(n.time, n.fine.total(), "{scheme} node {i}: the ledger leaks cycles");
            assert!(n.fine.busy >= n.refs, "{scheme} node {i}");
        }
        let sum = |f: fn(&LatencyBreakdown) -> u64| -> u64 {
            report.nodes.iter().map(|n| f(&n.fine)).sum()
        };
        assert!(sum(|b| b.sync) > 0, "{scheme}: the lock and barrier cost sync time");
        assert!(sum(|b| b.network) > 0, "{scheme}: shared blocks cross the network");
        let translation = sum(|b| b.tlb_walk + b.dlb_lookup);
        assert!(translation > 0, "{scheme}: translation misses are charged");
    }
}
