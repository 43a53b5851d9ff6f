//! The paper's shape claims (DESIGN.md §4), asserted end to end at a
//! reduced scale. Absolute numbers differ from the paper — the claims here
//! are about orderings and magnitudes of effects.

use vcoma::workloads::{Radix, Raytrace, Workload};
use vcoma::{simulate, Scheme, SimConfig, SimReport, TlbOrg};
use vcoma_experiments::{fig8, fig9, table2, table4, ExperimentConfig};

fn cfg() -> ExperimentConfig {
    ExperimentConfig::smoke().with_scale(0.02)
}

fn run(sim: SimConfig, w: &dyn Workload) -> SimReport {
    simulate(sim, w).unwrap()
}

/// Claim 1 (filtering effect): translation *accesses* fall monotonically
/// with the TLB level, for every benchmark.
#[test]
fn filtering_effect_on_access_counts() {
    let cfg = cfg();
    for w in cfg.benchmarks() {
        // Strict ordering within the physically-addressed family (same
        // protocol dynamics)…
        let mut last = u64::MAX;
        for scheme in [Scheme::L0_TLB, Scheme::L1_TLB, Scheme::L2_TLB_NO_WB] {
            let report = run(cfg.simulator(scheme).with_entries(8), w.as_ref());
            let acc = report.translation_accesses_total(0);
            assert!(acc <= last, "{} {}: {} > {}", w.name(), scheme, acc, last);
            last = acc;
        }
        // …while L3 and V-COMA use page coloring / virtual homes, which
        // changes the coherence dynamics (RAYTRACE's 32 KB-aligned stacks
        // conflict under coloring — the paper's §5.3 effect), so they get
        // a 15 % band against L2 and must sit well below L0.
        let l0 = run(cfg.simulator(Scheme::L0_TLB).with_entries(8), w.as_ref())
            .translation_accesses_total(0);
        for scheme in [Scheme::L3_TLB, Scheme::V_COMA] {
            let acc =
                run(cfg.simulator(scheme).with_entries(8), w.as_ref()).translation_accesses_total(0);
            assert!(
                acc as f64 <= (last as f64 * 1.15).max(l0 as f64),
                "{} {}: {} above L2's {} band",
                w.name(),
                scheme,
                acc,
                last
            );
        }
    }
}

/// Claim 2 (writeback effect): L2-TLB with writeback translation misses
/// strictly more than L2-TLB/no_wback on the writeback-heavy streams (FFT,
/// OCEAN, RADIX).
#[test]
fn writeback_effect_on_l2() {
    let cfg = cfg();
    for w in cfg.benchmarks() {
        if !matches!(w.name(), "FFT" | "OCEAN" | "RADIX") {
            continue;
        }
        let with_wb = run(cfg.simulator(Scheme::L2_TLB).with_entries(8), w.as_ref());
        let no_wb = run(cfg.simulator(Scheme::L2_TLB_NO_WB).with_entries(8), w.as_ref());
        assert!(
            with_wb.translation_misses_total(0) > no_wb.translation_misses_total(0),
            "{}: writebacks must add L2 misses ({} vs {})",
            w.name(),
            with_wb.translation_misses_total(0),
            no_wb.translation_misses_total(0)
        );
    }
}

/// Claim 3 (sharing + prefetching): for RADIX, a small DLB beats a much
/// larger private TLB (the paper: a 16-entry DLB beats a 512-entry L3
/// TLB).
#[test]
fn radix_dlb_sharing_and_prefetching() {
    let cfg = cfg();
    let w = Radix::paper().scaled(cfg.scale);
    let dlb16 = run(cfg.simulator(Scheme::V_COMA).with_entries(16), &w);
    let tlb512 = run(cfg.simulator(Scheme::L3_TLB).with_entries(512), &w);
    assert!(
        dlb16.translation_misses_total(0) < tlb512.translation_misses_total(0),
        "16-entry DLB ({}) must beat a 512-entry L3 TLB ({})",
        dlb16.translation_misses_total(0),
        tlb512.translation_misses_total(0)
    );
}

/// Claim 4: RADIX shows no clear TLB working set until the output-array
/// size (~512 pages): the L0 miss curve decays slowly, then collapses.
#[test]
fn radix_has_no_small_working_set() {
    let cfg = cfg();
    // The flat-curve claim needs enough permutation volume for the output
    // pages to be revisited; replay 30 % of the keys.
    let w = Radix::paper().scaled(0.3);
    let specs: Vec<(u64, TlbOrg)> = [8u64, 64, 512, 2048]
        .iter()
        .map(|&s| (s, TlbOrg::FullyAssociative))
        .collect();
    let report = run(cfg.simulator(Scheme::L0_TLB).with_translation_specs(specs), &w);
    // Compare *capacity* misses (above the compulsory floor measured at
    // 2048 entries, where everything fits).
    let floor = report.translation_misses_total(3) as f64;
    let cap8 = report.translation_misses_total(0) as f64 - floor;
    let cap64 = report.translation_misses_total(1) as f64 - floor;
    let cap512 = report.translation_misses_total(2) as f64 - floor;
    assert!(cap8 > 0.0, "the 8-entry TLB must thrash");
    assert!(
        cap64 > 0.5 * cap8,
        "8→64 entries must barely help (capacity {cap8:.0} → {cap64:.0})"
    );
    assert!(
        cap512 < 0.25 * cap8,
        "the curve must collapse once the arrays fit (capacity {cap8:.0} → {cap512:.0})"
    );
}

/// Claim 5 (Figure 9): the direct-mapped penalty shrinks with the level —
/// the mean DM/FA gap at L0 exceeds V-COMA's on average.
#[test]
fn dm_gap_shrinks_with_level() {
    let cfg = cfg();
    let panels = fig9::run(&cfg);
    let mean_gap = |scheme| {
        let mut sum = 0.0;
        for p in &panels {
            let c = p.curves.iter().find(|c| c.scheme == scheme).unwrap();
            sum += c.mean_gap();
        }
        sum / panels.len() as f64
    };
    let l0 = mean_gap(Scheme::L0_TLB);
    let vc = mean_gap(Scheme::V_COMA);
    assert!(
        vc <= l0 + 0.05,
        "DM/FA gap must not grow towards V-COMA (L0 {l0:.2}x vs V-COMA {vc:.2}x)"
    );
}

/// Claim 6 (Table 4): the DLB's translation overhead is a small fraction
/// of the L0 TLB's for every benchmark.
#[test]
fn dlb_overhead_is_negligible() {
    let cols = table4::run(&cfg());
    for c in &cols {
        assert!(
            c.dlb[0] < 0.5 * c.l0[0] + 1e-9,
            "{}: DLB overhead ratio {:.4} not well below L0's {:.4}",
            c.benchmark,
            c.dlb[0],
            c.l0[0]
        );
    }
}

/// Claim 7 (Figure 10 RAYTRACE): the page-aligned V2 layout does not
/// perform worse than the 32 KB-aligned layout under V-COMA (the paper
/// reports a large sync-time recovery; we assert the direction).
#[test]
fn raytrace_v2_recovers_time() {
    let cfg = cfg();
    let sim = cfg.simulator(Scheme::V_COMA).with_entries(8).with_warmup();
    let v1 = run(sim.clone(), &Raytrace::paper().scaled(cfg.scale));
    let v2 = run(sim, &Raytrace::v2().scaled(cfg.scale));
    assert!(
        v2.exec_time() <= v1.exec_time() * 102 / 100,
        "V2 layout must not be slower than the 32 KB-aligned one ({} vs {})",
        v2.exec_time(),
        v1.exec_time()
    );
}

/// Claim 8 (miss-curve sanity): every Figure 8 curve is monotone
/// non-increasing in the TLB/DLB size (up to random-replacement noise).
#[test]
fn fig8_curves_are_monotone() {
    let cfg = cfg();
    for panel in fig8::run_schemes(&cfg, &[Scheme::L0_TLB, Scheme::L2_TLB, Scheme::V_COMA]) {
        for c in &panel.curves {
            assert!(
                c.is_monotone_decreasing(0.2),
                "{} {}: {:?}",
                panel.benchmark,
                c.scheme,
                c.points
            );
        }
    }
}

/// Claim 9 (Table 2 aggregate): summed over the six benchmarks, the
/// V-COMA miss rate is the lowest of all five schemes at 32 and 128
/// entries.
#[test]
fn vcoma_is_lowest_in_aggregate() {
    let rows = table2::run(&cfg());
    for si in 1..table2::TABLE2_SIZES.len() {
        let sums: Vec<f64> = (0..table2::TABLE2_SCHEMES.len())
            .map(|pi| rows.iter().map(|r| r.rate(si, pi)).sum())
            .collect();
        let vcoma = sums[table2::TABLE2_SCHEMES.len() - 1];
        for (pi, &s) in sums.iter().enumerate().take(table2::TABLE2_SCHEMES.len() - 1) {
            assert!(
                vcoma <= s + 1e-12,
                "size {}: V-COMA aggregate {vcoma:.4} above {} ({s:.4})",
                table2::TABLE2_SIZES[si],
                table2::TABLE2_SCHEMES[pi]
            );
        }
    }
}
