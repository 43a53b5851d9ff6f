//! Shared helpers for the Criterion benchmarks.
//!
//! Each bench in `benches/` regenerates one of the paper's tables or
//! figures through the `vcoma-experiments` entry points, prints the
//! rendered artifact once (so `cargo bench` output doubles as a miniature
//! reproduction report), and then measures the regeneration time at a
//! reduced scale.

use vcoma_experiments::ExperimentConfig;

/// The configuration used by the benches: the paper machine at a very
/// small workload scale, so a full `cargo bench --workspace` stays within
/// minutes.
pub fn bench_config() -> ExperimentConfig {
    ExperimentConfig::smoke().with_scale(0.004)
}

/// A slightly larger configuration for the one-shot artifact print.
pub fn print_config() -> ExperimentConfig {
    ExperimentConfig::smoke()
}

/// Minimal wall-clock harness used when the `criterion-benches` feature is
/// off: one warmup run, then `samples` timed runs, printing mean/min/max
/// milliseconds in the same spirit as the Criterion output.
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
/// simulator — TLB lookup, the TLB bank, FLC/SLC probe, page-table
/// mapping, and the full `Machine::access` path — returning a checksum
/// so the optimizer cannot discard the work and so the smoke test can pin
/// the result.
/// The `hotpath_micro` bench target times them; `cargo test` runs them
/// once at a small iteration count.
pub mod micro {
    use vcoma::cachesim::{Flc, Slc};
    use vcoma::vm::{PageTable, RoundRobinAllocator};
    use vcoma::{
        AccessKind, DetRng, Machine, MachineConfig, Op, Scheme, SimConfig, Tlb, TlbBank, TlbOrg,
        VAddr, VPage,
    };

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
    fn configs_are_small() {
        assert!(bench_config().scale < print_config().scale);
        assert_eq!(bench_config().machine.nodes, 32);
    }

    #[test]
    fn micro_kernels_run_and_are_deterministic() {
        // Smoke for the plain-timer fallback path: every kernel the
        // hotpath_micro bench target times must run and give the same
        // checksum twice (the harness relies on run-to-run determinism).
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
