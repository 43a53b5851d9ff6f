//! Fine-grained latency breakdown (`--breakdown`) and the merged protocol
//! counts and latency histograms behind `--metrics-out`.
//!
//! Runs every translation scheme over every benchmark with the paper's
//! default 8-entry fully-associative TLB/DLB and attributes **every**
//! simulated cycle to one of the [`LATENCY_CATEGORIES`]: issue/compute,
//! barrier/lock waiting, TLB walks, DLB lookups, local hierarchy stalls,
//! remote memory service, wire latency and port queueing. The attribution
//! is conservative by construction — for each row the category total
//! equals the run's [`SimReport::simulated_cycles`] exactly, which the
//! conservation integration test enforces for all five schemes.

use crate::render::TextTable;
use crate::sweep::{self, SweepPoint};
use crate::ExperimentConfig;
use serde::Serialize;
use std::collections::BTreeMap;
use vcoma::coherence::ProtocolStats;
use vcoma::metrics::{HistogramSnapshot, Mergeable, MetricsSnapshot};
use vcoma::workloads::Workload;
use vcoma::{paper_schemes, LatencyBreakdown, Scheme, SimReport, LATENCY_CATEGORIES};

/// One scheme × benchmark row of the breakdown table.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// Benchmark name.
    pub benchmark: String,
    /// The translation scheme.
    pub scheme: Scheme,
    /// Machine-wide fine latency attribution (summed over nodes).
    pub fine: LatencyBreakdown,
    /// Total simulated cycles of the run; equals `fine.total()`.
    pub simulated_cycles: u64,
    /// The run's protocol event counts.
    pub protocol: ProtocolStats,
    /// The run's metrics snapshot (latency histograms).
    pub metrics: MetricsSnapshot,
}

impl BreakdownRow {
    fn from_report(benchmark: &str, scheme: Scheme, report: &SimReport) -> Self {
        BreakdownRow {
            benchmark: benchmark.to_string(),
            scheme,
            fine: report.aggregate_fine(),
            simulated_cycles: report.simulated_cycles(),
            protocol: *report.protocol(),
            metrics: report.metrics().clone(),
        }
    }
}

/// Runs every scheme over every benchmark (cold machines, full traces at
/// the configured scale) and returns one row per pair.
pub fn run(cfg: &ExperimentConfig) -> Vec<BreakdownRow> {
    let benchmarks = cfg.benchmarks();
    type RowSpec<'a> = (Scheme, &'a dyn Workload);
    let mut points: Vec<SweepPoint<RowSpec>> = Vec::new();
    for w in &benchmarks {
        for scheme in cfg.schemes_or(paper_schemes) {
            points.push(SweepPoint::new(format!("{}/{scheme}", w.name()), (scheme, w.as_ref())));
        }
    }
    sweep::run(cfg, "breakdown", points, |&(scheme, wl)| {
        BreakdownRow::from_report(wl.name(), scheme, &cfg.run_cached(cfg.simulator(scheme), wl))
    })
}

/// Renders the rows as the `--breakdown` table: one column per
/// [`LATENCY_CATEGORIES`] entry plus the conserved total.
pub fn render(rows: &[BreakdownRow]) -> TextTable {
    let mut header: Vec<String> = vec!["benchmark/scheme".to_string()];
    header.extend(LATENCY_CATEGORIES.iter().map(|c| c.to_string()));
    header.push("total".to_string());
    let mut t = TextTable::new(header);
    for r in rows {
        let mut cells = vec![format!("{}/{}", r.benchmark, r.scheme)];
        cells.extend(r.fine.as_array().iter().map(|v| v.to_string()));
        cells.push(r.fine.total().to_string());
        t.row(cells);
    }
    t
}

/// The `--metrics-out` document: every row's protocol counts and latency
/// histograms, each summed over the rows.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MergedMetrics {
    /// Protocol event counts summed over the rows.
    pub protocol: ProtocolStats,
    /// Latency histograms merged over the rows, by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Folds every row's protocol counts and metrics snapshot into one
/// machine-readable document (the payload of `--metrics-out`).
pub fn merged_metrics(rows: &[BreakdownRow]) -> MergedMetrics {
    let mut protocol = ProtocolStats::default();
    let mut metrics = MetricsSnapshot::default();
    for r in rows {
        protocol.merge(&r.protocol);
        metrics.merge(&r.metrics);
    }
    MergedMetrics { protocol, histograms: metrics.histograms }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_conserves_cycles_and_renders() {
        let rows = run(&ExperimentConfig::smoke());
        assert_eq!(rows.len(), 6 * paper_schemes().len());
        for r in &rows {
            assert_eq!(
                r.fine.total(),
                r.simulated_cycles,
                "{}/{}: fine breakdown must conserve simulated cycles",
                r.benchmark,
                r.scheme
            );
        }
        // V-COMA attributes translation to DLB lookups, the TLB schemes to
        // TLB walks.
        for r in rows.iter().filter(|r| r.scheme == Scheme::V_COMA) {
            assert_eq!(r.fine.tlb_walk, 0, "{}: V-COMA has no node TLB walks", r.benchmark);
        }
        for r in rows.iter().filter(|r| r.scheme == Scheme::L0_TLB) {
            assert_eq!(r.fine.dlb_lookup, 0, "{}: L0-TLB has no home DLBs", r.benchmark);
        }
        let table = render(&rows).render();
        for c in LATENCY_CATEGORIES {
            assert!(table.contains(c), "missing column {c}");
        }
        let merged = merged_metrics(&rows);
        assert!(merged.histograms.contains_key("latency.read"));
    }

    #[test]
    fn metrics_out_protocol_is_the_sum_over_rows() {
        use vcoma::metrics::json::{from_json_str, to_json_pretty};
        // Every `ProtocolStats` field, by name, through its serialized form.
        let fields = |p: &ProtocolStats| -> BTreeMap<String, u64> {
            from_json_str(&to_json_pretty(p).expect("serializes")).expect("flat map")
        };
        let rows = run(&ExperimentConfig::smoke());
        let mut expected = BTreeMap::new();
        for (k, v) in rows.iter().flat_map(|r| fields(&r.protocol)) {
            *expected.entry(k).or_insert(0) += v;
        }
        let merged = merged_metrics(&rows);
        assert_eq!(fields(&merged.protocol), expected);
        assert!(merged.protocol.remote_transactions() > 0);
    }
}
