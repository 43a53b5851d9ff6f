//! Host-time micro-benchmarks for the simulator's per-reference layers.
//!
//! [`micro`] holds one deterministic kernel per layer; the
//! `hotpath_micro` bench target times them with [`plain_bench`].
//! Whole-artifact timings come from the `vcoma-experiments` CLI, which
//! writes each run's sweep throughput to `BENCH_sweep.json`.

/// Minimal wall-clock harness: one warmup run, then `samples` timed runs,
/// printing mean/min/max milliseconds.
pub fn plain_bench<F: FnMut()>(label: &str, samples: u32, mut f: F) {
    plain_bench_fresh(label, samples, || (), |()| f());
}

/// [`plain_bench`] for a kernel that needs fresh state each run: `setup`
/// builds it before the clock starts, and it is dropped after the clock
/// stops, so only `f` is timed.
pub fn plain_bench_fresh<S, F: FnMut(&mut S)>(
    label: &str,
    samples: u32,
    mut setup: impl FnMut() -> S,
    mut f: F,
) {
    f(&mut setup());
    let mut times = Vec::with_capacity(samples as usize);
    for _ in 0..samples.max(1) {
        let mut state = setup();
        let t0 = std::time::Instant::now();
        f(&mut state);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(state);
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
/// attraction-memory probes at paper scale, page-table mapping, a
/// coherence transaction, a directory fill at paper scale, the full
/// `Machine::access` path, the replay loop at paper scale, and the store
/// codec — returning a checksum so
/// the optimizer cannot discard the work and so the smoke test can pin
/// the result.
/// The `hotpath_micro` bench target times them; `cargo test` runs them
/// once at a small iteration count.
pub mod micro {
    use vcoma::cachesim::{Flc, Slc};
    use vcoma::coherence::{AmArray, AmState, NullTranslation, Protocol};
    use vcoma::net::Crossbar;
    use vcoma::vm::{PageTable, RoundRobinAllocator};
    use vcoma::workloads::{by_name, UniformRandom};
    use vcoma::{
        codec, AccessKind, DetRng, Machine, MachineConfig, NodeId, Op, OpSource, Scheme,
        SimConfig, SimReport, Tlb, TlbBank, TlbOrg, VAddr, VPage,
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

    /// The paper machine's attraction-memory arrays for [`am_probe`]: 32
    /// arrays of 4 MB, 4 ways and 128-byte blocks, about 1 Mi lines and
    /// 4 MB of packed ways, which no per-core host cache holds. Every
    /// way starts filled.
    #[must_use]
    pub fn am_arrays() -> Vec<AmArray> {
        let m = MachineConfig::paper_baseline();
        (0..m.nodes)
            .map(|_| {
                let mut am = AmArray::new(m.am);
                for block in 0..m.am.lines() {
                    am.insert(block, AmState::Shared);
                }
                am
            })
            .collect()
    }

    /// A seeded mix of array operations on `ams`, over blocks spanning
    /// twice each array's capacity: three quarters lookups (`contains` or
    /// `get`), an eighth `insert` where the set has room (the protocol
    /// makes room before it inserts) and an eighth `invalidate`, so full
    /// arrays stay mostly full. This is the mix the protocol runs.
    /// `cache_probe` fits in host L1; on
    /// [`am_arrays`] this kernel shows what a probe costs when its set
    /// comes from memory.
    /// Returns hits plus the peeked states plus the lines resident at the
    /// end.
    pub fn am_probe(ams: &mut [AmArray], iters: u64) -> u64 {
        let lines = ams[0].capacity();
        let mut rng = DetRng::new(46);
        let mut sum = 0u64;
        for _ in 0..iters {
            let am = &mut ams[rng.gen_index(ams.len())];
            let block = rng.gen_index(2 * lines) as u64;
            match rng.gen_index(8) {
                0..=3 => sum += u64::from(am.contains(block)),
                4 | 5 => sum += am.get(block).map_or(0, |s| s as u64 + 1),
                6 => {
                    if am.set_has_room(block) && !am.contains(block) {
                        am.insert(block, AmState::Exclusive);
                    }
                }
                _ => sum += u64::from(am.invalidate(block).is_some()),
            }
        }
        sum + ams.iter().map(|am| am.len() as u64).sum::<u64>()
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

    /// `Protocol::read` on the paper's 32-node machine over `blocks`
    /// distinct blocks: every block is cold-filled by one node, then read
    /// back by the next node (a remote read that adds a sharer). At the
    /// bench target's 100k blocks the directory grows to about the size
    /// it reaches in a scale-0.1 FFT run, which the tiny machine's
    /// `coherence_txn` never sees. The filling node rotates with the
    /// block's AM set so no node takes more than two blocks of one set:
    /// nothing is replaced. `protocol` is a fresh [`directory_protocol`].
    /// Returns cold fills plus remote reads plus the final simulated time.
    pub fn directory_fill(protocol: &mut Protocol, blocks: u64) -> u64 {
        let m = MachineConfig::paper_baseline();
        let (nodes, sets, blocks_per_page) = (m.nodes, m.am.sets(), m.blocks_per_page());
        let mut net = Crossbar::new(nodes, m.timing);
        let mut xl = NullTranslation;
        let mut now = 0u64;
        for pass in 0..2 {
            for block in 0..blocks {
                let node = NodeId::new(((block + block / sets + pass) % nodes) as u16);
                let home = NodeId::new((block / blocks_per_page % nodes) as u16);
                now += protocol.read(node, block, home, &mut net, &mut xl, now).latency + 1;
            }
        }
        let s = protocol.stats();
        s.cold_fills + s.remote_reads + now
    }

    /// The paper machine's empty protocol state for [`directory_fill`].
    #[must_use]
    pub fn directory_protocol() -> Protocol {
        Protocol::new(&MachineConfig::paper_baseline(), 6)
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

    /// The shared replay loop on the paper's 32-node machine under
    /// L0-TLB: every node streams `refs_per_node` references, each after a
    /// `Compute(2)` as the workload generators emit them. Seven references
    /// in eight walk the node's own two pages (FLC and TLB hits), the rest
    /// hit a 2 KB region every node shares, and one in five is a write.
    /// [`end_to_end`]'s 4 nodes and compute-free traces barely exercise the
    /// `(time, node)` heap; this kernel's 32 do. Returns simulated exec
    /// time plus total refs.
    pub fn replay_paper(refs_per_node: u64) -> u64 {
        let m = MachineConfig::paper_baseline();
        let (page, nodes) = (m.page_size, m.nodes);
        let cfg = SimConfig::new(m, Scheme::L0_TLB).with_seed(12);
        let report = Machine::new(cfg)
            .run_streaming(|| {
                (0..nodes)
                    .map(|n| {
                        let mut rng = DetRng::new(0xCAFE + n);
                        Box::new((0..refs_per_node).flat_map(move |i| {
                            let addr = if i % 8 == 0 {
                                VAddr::new(rng.gen_index(64) as u64 * 32)
                            } else {
                                VAddr::new(page * (n + 1) * 2 + (i * 32) % (page * 2))
                            };
                            let op = if i % 5 == 0 { Op::Write(addr) } else { Op::Read(addr) };
                            [Op::Compute(2), op]
                        })) as Box<dyn OpSource>
                    })
                    .collect()
            })
            .expect("micro-bench streams replay");
        report.exec_time() + report.total_refs()
    }

    /// The report [`codec_roundtrip`] stores: a short V-COMA run of
    /// `UniformRandom` on the paper's 32-node machine, the shape of one
    /// sweep point in the daemon's store.
    #[must_use]
    pub fn codec_report() -> SimReport {
        let w = UniformRandom { pages: 64, refs_per_node: 200, write_fraction: 0.3 };
        let cfg = SimConfig::new(MachineConfig::paper_baseline(), Scheme::V_COMA).with_seed(9);
        vcoma::simulate(cfg, &w).expect("codec report run completes")
    }

    /// Encodes `report` into a store envelope and decodes it back, `iters`
    /// times: one store write plus one store hit, without the file I/O.
    /// Returns the envelope bytes plus the decoded references, summed.
    pub fn codec_roundtrip(report: &SimReport, iters: u64) -> u64 {
        let mut sum = 0u64;
        for _ in 0..iters {
            let text = codec::encode(report, "fingerprint", "key");
            let decoded = codec::decode(&text, report.config().clone()).expect("own envelope");
            sum += text.len() as u64 + decoded.report.total_refs();
        }
        sum
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

        let am = micro::am_probe(&mut micro::am_arrays(), 20_000);
        assert!(am > 32 << 15, "the 32 arrays start with 2^15 lines each and lose few");
        assert_eq!(am, micro::am_probe(&mut micro::am_arrays(), 20_000));

        let ops = micro::op_gen(20_000);
        assert!(ops > 20_000, "op count plus a nonzero address sum");
        assert_eq!(ops, micro::op_gen(20_000));

        let coherence = micro::coherence_txn(20_000);
        assert!(coherence >= 20_000, "local hits plus remote transactions cover every access");
        assert_eq!(coherence, micro::coherence_txn(20_000));

        let fill = micro::directory_fill(&mut micro::directory_protocol(), 2_000);
        assert!(fill > 4_000, "2000 cold fills plus 2000 remote reads plus a nonzero time");
        assert_eq!(fill, micro::directory_fill(&mut micro::directory_protocol(), 2_000));

        let e2e = micro::end_to_end(1_000, Scheme::V_COMA);
        assert!(e2e > 4_000, "exec time plus 4 nodes x 1000 refs");
        assert_eq!(e2e, micro::end_to_end(1_000, Scheme::V_COMA));
        assert!(micro::end_to_end(1_000, Scheme::L0_TLB) > 4_000);

        let replay = micro::replay_paper(500);
        assert!(replay > 32 * 500 * 3, "exec time covers two compute cycles per ref, plus refs");
        assert_eq!(replay, micro::replay_paper(500));

        let report = micro::codec_report();
        let codec = micro::codec_roundtrip(&report, 2);
        assert!(codec > 2 * report.total_refs(), "envelope bytes plus refs, twice");
        assert_eq!(codec, micro::codec_roundtrip(&report, 2));
    }

    #[test]
    fn plain_bench_runs_the_closure() {
        let mut calls = 0u32;
        plain_bench("test-label", 3, || calls += 1);
        assert_eq!(calls, 4, "one warmup plus three samples");
    }
}
