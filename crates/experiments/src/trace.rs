//! Transaction tracing artifact (`trace`): per-scheme critical-path
//! percentile tables and the Chrome-trace/Perfetto export behind
//! `--trace-out`.
//!
//! Runs every translation scheme over the first benchmark with causal
//! tracing enabled: (on average) one in [`SAMPLE_EVERY`] references per
//! node is recorded as a cycle-stamped span tree. The critical-path
//! analyzer then attributes each sampled reference's end-to-end latency
//! along its chain of interval spans, and the end-to-end latencies feed a
//! power-of-two [`Histogram`] whose quantile query yields the p50/p90/p99
//! columns. Sampling keys on `(seed, node, reference index)` only, so the
//! table, CSV and exported JSON are byte-identical at any `--jobs` value.

use crate::render::TextTable;
use crate::sweep::{self, SweepPoint};
use crate::ExperimentConfig;
use std::collections::BTreeMap;
use vcoma::metrics::{critical_paths, trace_export, Histogram, TraceSnapshot};
use vcoma::{paper_schemes, Scheme, TraceConfig};

/// Sampling period of the artifact's runs: one in eight references per
/// node (deterministic keyed-hash selection, not strided).
pub const SAMPLE_EVERY: u64 = 8;

/// Per-node span-buffer bound; overflowing transactions are dropped whole
/// and surface in the table's `dropped` column.
pub const CAPACITY: usize = 1 << 16;

/// Every interval span kind the simulator emits, in table-column order.
pub const PATH_KINDS: [&str; 11] = [
    "issue",
    "tlb_miss",
    "wb_translation",
    "flc",
    "slc",
    "am",
    "dlb_lookup",
    "directory",
    "net",
    "queue",
    "fault",
];

/// One scheme's traced run over the profiled benchmark.
#[derive(Debug, Clone)]
pub struct TraceRow {
    /// Benchmark name.
    pub benchmark: String,
    /// The translation scheme.
    pub scheme: Scheme,
    /// The run's merged span snapshot (all nodes).
    pub snapshot: TraceSnapshot,
    /// End-to-end latencies of the sampled references.
    pub latency: Histogram,
    /// Critical-path cycles attributed to each span kind, summed over all
    /// sampled references.
    pub attributed: BTreeMap<&'static str, u64>,
    /// Root cycles no interval child covered (0 for simulator traces —
    /// the conservation property the integration suite asserts).
    pub unattributed: u64,
}

/// Runs every scheme over the first benchmark with tracing on and
/// analyzes the sampled span trees.
pub fn run(cfg: &ExperimentConfig) -> Vec<TraceRow> {
    let benchmarks = cfg.benchmarks();
    let w = &benchmarks[0];
    let points: Vec<SweepPoint<Scheme>> = cfg
        .schemes_or(paper_schemes)
        .into_iter()
        .map(|scheme| SweepPoint::new(format!("{}/{scheme}", w.name()), scheme))
        .collect();
    sweep::run(cfg, "trace", points, |&scheme| {
        let tc = TraceConfig { sample_every: SAMPLE_EVERY, capacity: CAPACITY };
        let report = cfg.run_cached(cfg.simulator(scheme).with_trace(tc), w.as_ref());
        let snapshot = report.trace().expect("traced run carries a snapshot").clone();
        let mut latency = Histogram::new();
        let mut attributed: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut unattributed = 0u64;
        for p in critical_paths(&snapshot.spans) {
            latency.record(p.latency);
            for (kind, cycles) in p.attributed {
                *attributed.entry(kind).or_insert(0) += cycles;
            }
            unattributed += p.unattributed;
        }
        TraceRow {
            benchmark: w.name().to_string(),
            scheme,
            snapshot,
            latency,
            attributed,
            unattributed,
        }
    })
}

/// Renders the per-scheme critical-path table: sampled/dropped counts,
/// latency percentiles from the histogram quantile query, and the
/// attributed cycles per span kind.
pub fn render(rows: &[TraceRow]) -> TextTable {
    let mut header: Vec<String> =
        vec!["benchmark/scheme".into(), "sampled".into(), "dropped".into()];
    header.extend(["p50", "p90", "p99"].iter().map(|q| format!("{q} cycles")));
    header.extend(PATH_KINDS.iter().map(|k| (*k).to_string()));
    header.push("unattributed".to_string());
    let mut t = TextTable::new(header);
    for r in rows {
        let mut cells = vec![
            format!("{}/{}", r.benchmark, r.scheme),
            r.snapshot.sampled_txns.to_string(),
            r.snapshot.dropped_txns.to_string(),
        ];
        for q in [0.50, 0.90, 0.99] {
            cells.push(r.latency.quantile(q).map_or_else(|| "-".into(), |v| v.to_string()));
        }
        for kind in PATH_KINDS {
            cells.push(r.attributed.get(kind).copied().unwrap_or(0).to_string());
        }
        cells.push(r.unattributed.to_string());
        t.row(cells);
    }
    t
}

/// Serializes every row's span snapshot as one Chrome trace-event JSON
/// document (`--trace-out`), loadable in `ui.perfetto.dev` or
/// `chrome://tracing`.
pub fn export(rows: &[TraceRow]) -> String {
    let labels: Vec<String> =
        rows.iter().map(|r| format!("{}/{}", r.benchmark, r.scheme)).collect();
    trace_export::to_chrome_trace(
        labels.iter().map(String::as_str).zip(rows.iter().map(|r| &r.snapshot)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_rows_cover_all_schemes_and_conserve_latency() {
        let rows = run(&ExperimentConfig::smoke().with_jobs(2));
        assert_eq!(rows.len(), paper_schemes().len());
        for r in &rows {
            assert!(r.snapshot.sampled_txns > 0, "{}: nothing sampled", r.scheme);
            assert_eq!(r.unattributed, 0, "{}: critical path must conserve cycles", r.scheme);
            let attributed: u64 = r.attributed.values().sum();
            assert_eq!(attributed, r.latency.sum(), "{}: attribution == latency sum", r.scheme);
            for kind in r.attributed.keys() {
                assert!(PATH_KINDS.contains(kind), "{}: unknown span kind {kind}", r.scheme);
            }
            let (p50, p99) = (r.latency.quantile(0.5).unwrap(), r.latency.quantile(0.99).unwrap());
            assert!(p50 <= p99, "{}: percentiles are monotone", r.scheme);
        }
        // V-COMA attributes home-side translation to DLB lookups and never
        // to node TLB walks; L0 is the opposite.
        let vcoma = rows.iter().find(|r| r.scheme == Scheme::V_COMA).unwrap();
        assert_eq!(vcoma.attributed.get("tlb_miss"), None);
        let l0 = rows.iter().find(|r| r.scheme == Scheme::L0_TLB).unwrap();
        assert_eq!(l0.attributed.get("dlb_lookup"), None);

        let table = render(&rows).render();
        for scheme in paper_schemes() {
            assert!(table.contains(&scheme.to_string()), "missing row for {scheme}");
        }
        assert!(table.contains("p50 cycles"));

        let json = export(&rows);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        // Every event carries ts/dur/pid — the CI smoke invariant.
        let events = json.matches("\"ph\": ").count();
        assert_eq!(json.matches("\"ts\": ").count(), events);
        assert_eq!(json.matches("\"dur\": ").count(), events);
        assert_eq!(json.matches("\"pid\": ").count(), events);
    }

    #[test]
    fn trace_artifact_is_jobs_invariant() {
        let serial = run(&ExperimentConfig::smoke().with_jobs(1));
        let parallel = run(&ExperimentConfig::smoke().with_jobs(8));
        assert_eq!(render(&serial).render(), render(&parallel).render());
        assert_eq!(export(&serial), export(&parallel));
    }
}
