//! Host-time micro-benchmarks for the simulator's per-reference layers.
//!
//! [`micro`] holds one deterministic kernel per layer; the
//! `hotpath_micro` bench target times them with [`plain_bench`].
//! Whole-artifact timings come from the `vcoma-experiments` CLI, which
//! writes each run's sweep throughput to `BENCH_sweep.json`.

/// Minimal wall-clock harness: one warmup run, then `samples` timed runs,
/// printing mean/min/max milliseconds.
pub fn plain_bench<F: FnMut()>(label: &str, samples: u32, mut f: F) {
    f();
    let mut times = Vec::with_capacity(samples as usize);
    for _ in 0..samples.max(1) {
        let t0 = std::time::Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!("bench {label}: mean {mean:.3} ms, min {min:.3} ms, max {max:.3} ms ({} samples)", times.len());
}

/// Micro-benchmark kernels for the per-access hot path.
///
/// Each kernel is a deterministic closed loop over one layer of the
/// simulator — op generation, TLB lookup, the TLB bank, FLC/SLC probe,
/// page-table mapping, a coherence transaction, and the full
/// `Machine::access` path — returning a checksum so the optimizer cannot
/// discard the work and so the smoke test can pin the result.
/// The `hotpath_micro` bench target times them; `cargo test` runs them
/// once at a small iteration count.
pub mod micro {
    use vcoma::cachesim::{Flc, Slc};
    use vcoma::coherence::{NullTranslation, Protocol};
    use vcoma::net::Crossbar;
    use vcoma::vm::{PageTable, RoundRobinAllocator};
    use vcoma::workloads::by_name;
    use vcoma::{
        AccessKind, DetRng, Machine, MachineConfig, NodeId, Op, Scheme, SimConfig, Tlb, TlbBank,
        TlbOrg, VAddr, VPage,
    };

    /// Pulls up to `ops` ops from FFT's per-node sources on the paper
    /// machine, one node at a time in turn, skipping nodes whose stream
    /// has ended. At scale 0.1 FFT has about 614k references, so the
    /// bench target's count never runs the streams dry. Returns the op
    /// count plus the sum of every accessed address.
    pub fn op_gen(ops: u64) -> u64 {
        let w = by_name("FFT", 0.1).expect("FFT is a paper benchmark");
        let mut sources = w.sources(&MachineConfig::paper_baseline());
        let (mut pulled, mut addrs, mut n) = (0u64, 0u64, 0usize);
        while pulled < ops && !sources.is_empty() {
            n %= sources.len();
            match sources[n].next_op() {
                Some(op) => {
                    pulled += 1;
                    addrs = addrs.wrapping_add(op.addr().map_or(0, VAddr::raw));
                    n += 1;
                }
                None => {
                    sources.remove(n);
                }
            }
        }
        pulled + addrs
    }

    /// Pages in the TLB kernel's working set: 1.5x the TLB's capacity,
    /// so the stream mixes hits, capacity misses, and refills.
    const TLB_WORKING_SET: usize = 96;

    /// Random lookups against a 64-entry fully-associative TLB.
    /// Returns hits plus misses (equal to `iters`, but computed from the
    /// TLB's own counters so the loop cannot be elided).
    pub fn tlb_lookup(iters: u64) -> u64 {
        let mut tlb = Tlb::new(64, TlbOrg::FullyAssociative, 7);
        let mut rng = DetRng::new(42);
        let mut hits = 0u64;
        for _ in 0..iters {
            let page = VPage::new(rng.gen_index(TLB_WORKING_SET) as u64);
            hits += u64::from(tlb.translate(page));
        }
        hits + tlb.stats().misses
    }

    /// Pages in the bank kernel's working set: 1.5x the largest member.
    const BANK_WORKING_SET: usize = 192;

    /// Table 2's 8/32/128 fully-associative bank over a stream of
    /// same-page runs: four references in five repeat the previous page,
    /// about the repeat rate of BARNES and FMM under L0-TLB, and the rest
    /// pick a random page. Returns primary hits plus every member's
    /// misses.
    pub fn tlb_bank(iters: u64) -> u64 {
        let specs = [8, 32, 128].map(|e| (e, TlbOrg::FullyAssociative));
        let mut bank = TlbBank::new(&specs, 7);
        let mut rng = DetRng::new(43);
        let mut page = VPage::new(0);
        let mut hits = 0u64;
        for _ in 0..iters {
            if rng.gen_index(5) == 0 {
                page = VPage::new(rng.gen_index(BANK_WORKING_SET) as u64);
            }
            hits += u64::from(bank.access(page));
        }
        hits + bank.all_stats().map(|s| s.misses).sum::<u64>()
    }

    /// Pages mapped before the page-table kernel starts looking them up.
    const RESIDENT_PAGES: usize = 4096;

    /// `PageTable::map_physical` on resident pages of the paper machine:
    /// the idempotent lookup every physically-addressed reference makes.
    /// Returns the sum of the frames handed back.
    pub fn page_table_map(iters: u64) -> u64 {
        let m = MachineConfig::paper_baseline();
        let mut table = PageTable::new(m.clone());
        let mut alloc = RoundRobinAllocator::new(&m);
        for p in 0..RESIDENT_PAGES as u64 {
            table.map_physical(VPage::new(p), &mut alloc).expect("the paper machine has room");
        }
        let mut rng = DetRng::new(44);
        let mut sum = 0u64;
        for _ in 0..iters {
            let page = VPage::new(rng.gen_index(RESIDENT_PAGES) as u64);
            sum += table.map_physical(page, &mut alloc).expect("page is resident").raw();
        }
        sum
    }

    /// Mixed read/write probes against the tiny machine's FLC + SLC pair,
    /// over twice the SLC's block capacity so both levels keep evicting.
    pub fn cache_probe(iters: u64) -> u64 {
        let m = MachineConfig::tiny();
        let mut flc = Flc::new(m.flc);
        let mut slc = Slc::new(m.slc);
        let working_set = 2 * (m.slc.size_bytes / m.slc.block_size) as usize;
        let mut rng = DetRng::new(9);
        let mut hits = 0u64;
        for i in 0..iters {
            let block = rng.gen_index(working_set) as u64;
            let flc_hit = if i % 4 == 0 {
                flc.write(block).is_hit()
            } else {
                flc.read(block).is_hit()
            };
            hits += u64::from(flc_hit);
            if !flc_hit {
                let kind = if i % 4 == 0 { AccessKind::Write } else { AccessKind::Read };
                hits += u64::from(slc.access(block, kind).hit);
            }
        }
        hits
    }

    /// Blocks in the coherence kernel's shared set: an eighth of one
    /// tiny-machine attraction memory, so every transaction comes from
    /// sharing (cold fills, remote reads, upgrades, invalidations) rather
    /// than from capacity.
    const SHARED_BLOCKS: usize = 64;

    /// `Protocol::read`/`write` from the tiny machine's nodes over a
    /// small shared block set, through a crossbar and free home lookups;
    /// one access in four is a write. Returns local hits plus remote
    /// transactions plus invalidations.
    pub fn coherence_txn(iters: u64) -> u64 {
        let m = MachineConfig::tiny();
        let mut protocol = Protocol::new(&m, 5);
        let mut net = Crossbar::new(m.nodes, m.timing);
        let mut xl = NullTranslation;
        let mut rng = DetRng::new(45);
        let mut now = 0u64;
        for i in 0..iters {
            let node = NodeId::new(rng.gen_index(m.nodes as usize) as u16);
            let block = rng.gen_index(SHARED_BLOCKS) as u64;
            let home = NodeId::new((block % m.nodes) as u16);
            let out = if i % 4 == 0 {
                protocol.write(node, block, home, &mut net, &mut xl, now)
            } else {
                protocol.read(node, block, home, &mut net, &mut xl, now)
            };
            now += out.latency + 1;
        }
        let s = protocol.stats();
        s.local_read_hits + s.local_write_hits + s.remote_transactions() + s.invalidations
    }

    /// The full `Machine::access` path on the tiny 4-node machine: every
    /// node replays a trace mixing a hot shared region with a private
    /// strided region. Returns simulated exec time plus total refs.
    pub fn end_to_end(refs_per_node: u64, scheme: Scheme) -> u64 {
        let m = MachineConfig::tiny();
        let page = m.page_size;
        let nodes = m.nodes;
        let cfg = SimConfig::new(m, scheme).with_seed(11);
        let mut traces = Vec::with_capacity(nodes as usize);
        for n in 0..nodes {
            let mut rng = DetRng::new(0xB0B + n);
            let ops = (0..refs_per_node)
                .map(|i| {
                    let addr = if i % 7 == 0 {
                        // Hot region shared by all nodes: drives coherence.
                        VAddr::new(rng.gen_index(64) as u64 * 32)
                    } else {
                        // Private strided region, two pages per node.
                        VAddr::new(page * (n + 4) * 2 + (i * 32) % (page * 2))
                    };
                    if i % 5 == 0 {
                        Op::Write(addr)
                    } else {
                        Op::Read(addr)
                    }
                })
                .collect();
            traces.push(ops);
        }
        let report = Machine::new(cfg).run(traces).expect("micro-bench trace replays");
        report.exec_time() + report.total_refs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoma::Scheme;

    #[test]
    fn micro_kernels_run_and_are_deterministic() {
        // Every kernel the hotpath_micro bench target times must run and
        // give the same checksum twice (the harness relies on run-to-run
        // determinism).
        let tlb = micro::tlb_lookup(20_000);
        assert!(tlb >= 20_000, "hits + misses covers every lookup");
        assert_eq!(tlb, micro::tlb_lookup(20_000));

        let bank = micro::tlb_bank(20_000);
        assert!(bank > 20_000, "primary hits + misses covers every access, shadows add more");
        assert_eq!(bank, micro::tlb_bank(20_000));

        let pages = micro::page_table_map(20_000);
        assert!(pages > 0);
        assert_eq!(pages, micro::page_table_map(20_000));

        let cache = micro::cache_probe(20_000);
        assert!(cache > 0);
        assert_eq!(cache, micro::cache_probe(20_000));

        let ops = micro::op_gen(20_000);
        assert!(ops > 20_000, "op count plus a nonzero address sum");
        assert_eq!(ops, micro::op_gen(20_000));

        let coherence = micro::coherence_txn(20_000);
        assert!(coherence >= 20_000, "local hits plus remote transactions cover every access");
        assert_eq!(coherence, micro::coherence_txn(20_000));

        let e2e = micro::end_to_end(1_000, Scheme::V_COMA);
        assert!(e2e > 4_000, "exec time plus 4 nodes x 1000 refs");
        assert_eq!(e2e, micro::end_to_end(1_000, Scheme::V_COMA));
        assert!(micro::end_to_end(1_000, Scheme::L0_TLB) > 4_000);
    }

    #[test]
    fn plain_bench_runs_the_closure() {
        let mut calls = 0u32;
        plain_bench("test-label", 3, || calls += 1);
        assert_eq!(calls, 4, "one warmup plus three samples");
    }
}
