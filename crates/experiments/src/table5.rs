//! Table 5 — the post-1998 extension table: every scheme in the registry
//! (the paper's six plus the post-1998 schemes, e.g. Victima-style SLC
//! spilling and the multi-page-size TLB) over every benchmark, reporting
//! execution time relative to the first scheme in the roster (L0-TLB
//! unless `--schemes` filters it out) and the primary translation
//! structure's miss rate.
//!
//! This is the artifact new schemes land in: add your spec to the
//! registry's `BUILTINS` and it shows up here without touching the
//! harness, while the paper artifacts (tables 1–4, figures 8–11) keep
//! iterating the 1998 roster byte-exactly.

use crate::render::{pct, TextTable};
use crate::sweep::{self, SweepPoint, SweepResult};
use crate::ExperimentConfig;
use vcoma::workloads::Workload;
use vcoma::{all_schemes, Scheme};

/// One (benchmark, scheme) cell of Table 5.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Benchmark name.
    pub benchmark: String,
    /// The scheme.
    pub scheme: Scheme,
    /// Execution time in cycles (the slowest node).
    pub exec_time: u64,
    /// `exec_time` relative to the roster's first scheme on the same
    /// benchmark (1.0 for the reference itself).
    pub rel_time: f64,
    /// Primary TLB/DLB miss rate per processor reference.
    pub miss_rate: f64,
    /// Total cycles charged to translation across all nodes.
    pub translation_cycles: u64,
}

/// The roster Table 5 iterates: every registered scheme, optionally
/// narrowed by `--schemes`.
pub fn roster(cfg: &ExperimentConfig) -> Vec<Scheme> {
    cfg.schemes_or(all_schemes)
}

/// Runs the full grid: every benchmark × every registered scheme, one row
/// per pair in (benchmark, registry-order) order.
pub fn run(cfg: &ExperimentConfig) -> Vec<Table5Row> {
    let schemes = roster(cfg);
    let benchmarks = cfg.benchmarks();
    if schemes.is_empty() {
        return Vec::new();
    }
    let points: Vec<SweepPoint<(&dyn Workload, Scheme)>> = benchmarks
        .iter()
        .flat_map(|w| {
            schemes.iter().map(move |&scheme| {
                SweepPoint::new(
                    format!("{}/{}", w.name(), scheme.label()),
                    (w.as_ref(), scheme),
                )
            })
        })
        .collect();
    let cells = sweep::run_progress("table5", cfg.effective_jobs(), cfg.progress.as_deref(), points, |&(w, scheme)| {
        let report = cfg.run_cached(cfg.simulator(scheme), w);
        SweepResult::new(
            (
                report.exec_time(),
                report.translation_miss_rate(0),
                report.aggregate_breakdown().translation,
            ),
            report.simulated_cycles(),
        )
    });
    let mut rows = Vec::new();
    for (w, chunk) in benchmarks.iter().zip(cells.chunks(schemes.len())) {
        let reference = chunk[0].0.max(1);
        for (&scheme, &(exec_time, miss_rate, translation_cycles)) in schemes.iter().zip(chunk) {
            rows.push(Table5Row {
                benchmark: w.name().to_string(),
                scheme,
                exec_time,
                rel_time: exec_time as f64 / reference as f64,
                miss_rate,
                translation_cycles,
            });
        }
    }
    rows
}

/// Renders the grid: one row per scheme, a relative-time column per
/// benchmark, then the scheme's mean miss rate across benchmarks.
pub fn render(rows: &[Table5Row]) -> TextTable {
    let mut benchmarks: Vec<String> = Vec::new();
    for r in rows {
        if !benchmarks.contains(&r.benchmark) {
            benchmarks.push(r.benchmark.clone());
        }
    }
    let mut schemes: Vec<Scheme> = Vec::new();
    for r in rows {
        if !schemes.contains(&r.scheme) {
            schemes.push(r.scheme);
        }
    }
    let mut header = vec!["SCHEME".to_string()];
    header.extend(benchmarks.iter().map(|b| format!("{b} rel")));
    header.push("mean miss rate".to_string());
    let mut t = TextTable::new(header);
    for &scheme in &schemes {
        let mut cells = vec![scheme.label().to_string()];
        let mut rates = Vec::new();
        for b in &benchmarks {
            let cell = rows
                .iter()
                .find(|r| r.scheme == scheme && &r.benchmark == b)
                .expect("run emits the full grid");
            cells.push(format!("{:.3}", cell.rel_time));
            rates.push(cell.miss_rate);
        }
        cells.push(pct(rates.iter().sum::<f64>() / rates.len().max(1) as f64));
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoma::SchemeSet;

    #[test]
    fn every_registered_scheme_appears_in_the_grid() {
        // The registry-exhaustiveness guarantee: a scheme cannot be
        // registered yet silently missing from the extension artifact.
        let cfg = ExperimentConfig::smoke();
        let rows = run(&cfg);
        let benchmarks = cfg.benchmarks().len();
        assert_eq!(rows.len(), benchmarks * all_schemes().len());
        for scheme in all_schemes() {
            let n = rows.iter().filter(|r| r.scheme == scheme).count();
            assert_eq!(n, benchmarks, "{scheme}: one row per benchmark");
        }
        let rendered = render(&rows).render();
        for scheme in all_schemes() {
            assert!(rendered.contains(scheme.label()), "missing rendered row for {scheme}");
        }
    }

    #[test]
    fn reference_scheme_is_exactly_one() {
        let rows = run(&ExperimentConfig::smoke());
        for chunk in rows.chunks(all_schemes().len()) {
            assert_eq!(chunk[0].rel_time, 1.0, "{}", chunk[0].benchmark);
            for r in chunk {
                assert!(r.rel_time > 0.0, "{}/{}", r.benchmark, r.scheme);
                assert!(r.exec_time > 0, "{}/{}", r.benchmark, r.scheme);
            }
        }
    }

    #[test]
    fn victima_never_misses_more_translation_time_than_l0() {
        // The spill structure services part of L0's walk penalty at SLC
        // latency, so Victima's translation cycles are bounded by L0's on
        // every benchmark.
        let rows = run(&ExperimentConfig::smoke());
        for chunk in rows.chunks(all_schemes().len()) {
            let l0 = chunk.iter().find(|r| r.scheme == Scheme::L0_TLB).unwrap();
            let vic = chunk.iter().find(|r| r.scheme == Scheme::VICTIMA).unwrap();
            assert!(
                vic.translation_cycles <= l0.translation_cycles,
                "{}: Victima {} > L0 {}",
                l0.benchmark,
                vic.translation_cycles,
                l0.translation_cycles
            );
        }
    }

    #[test]
    fn schemes_filter_narrows_the_grid() {
        let set = SchemeSet::parse("victima,l0_tlb").expect("both keys are registered");
        let cfg = ExperimentConfig::smoke().with_schemes(set);
        let rows = run(&cfg);
        assert_eq!(rows.len(), cfg.benchmarks().len() * 2);
        // Roster order is registry order, so L0-TLB stays the reference.
        assert_eq!(rows[0].scheme, Scheme::L0_TLB);
        assert_eq!(rows[0].rel_time, 1.0);
        assert_eq!(rows[1].scheme, Scheme::VICTIMA);
    }
}
