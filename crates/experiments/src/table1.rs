//! Table 1 — benchmark parameters.

use crate::render::TextTable;
use crate::sweep::{self, SweepPoint, SweepResult};
use crate::ExperimentConfig;
use vcoma::workloads::TraceAnalysis;

/// One benchmark's row of Table 1, plus the measured trace characteristics.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// The paper's parameter string.
    pub params: String,
    /// Nominal shared footprint from the paper (MB).
    pub shared_mb: f64,
    /// Distinct pages actually touched by the generated traces.
    pub touched_pages: u64,
    /// Footprint actually touched (MB).
    pub touched_mb: f64,
    /// Total memory references generated.
    pub refs: u64,
    /// Fraction of references that are writes.
    pub write_fraction: f64,
    /// Pages touched by two or more nodes.
    pub shared_pages: u64,
    /// Mean number of nodes touching a page.
    pub mean_sharing: f64,
}

/// Streams each benchmark's traces and summarises them (one sweep point
/// per benchmark; no simulation, so the sweep reports zero cycles).
pub fn run(cfg: &ExperimentConfig) -> Vec<Table1Row> {
    let points =
        cfg.benchmarks().into_iter().map(|w| SweepPoint::new(w.name(), w)).collect();
    sweep::run_progress("table1", cfg.effective_jobs(), cfg.progress.as_deref(), points, |w| {
        let a = TraceAnalysis::of_sources(w.sources(&cfg.machine), &cfg.machine);
        SweepResult::new(
            Table1Row {
                name: w.name(),
                params: w.params(),
                shared_mb: w.shared_mb(),
                touched_pages: a.pages,
                touched_mb: a.footprint_mb(cfg.machine.page_size),
                refs: a.refs(),
                write_fraction: a.write_fraction(),
                shared_pages: a.shared_pages(),
                mean_sharing: a.mean_sharing_degree(),
            },
            0,
        )
    })
}

/// Renders the rows as a paper-style table.
pub fn render(rows: &[Table1Row]) -> TextTable {
    let mut t = TextTable::new(vec![
        "Benchmark",
        "Parameters",
        "Shared MB (paper)",
        "Touched MB",
        "Pages",
        "Refs",
        "Write %",
        "Shared pages",
        "Mean sharing",
    ]);
    for r in rows {
        t.row(vec![
            r.name.to_string(),
            r.params.clone(),
            format!("{:.2}", r.shared_mb),
            format!("{:.2}", r.touched_mb),
            r.touched_pages.to_string(),
            r.refs.to_string(),
            format!("{:.1}", 100.0 * r.write_fraction),
            r.shared_pages.to_string(),
            format!("{:.2}", r.mean_sharing),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_rows_with_positive_footprints() {
        let rows = run(&ExperimentConfig::smoke());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.touched_pages > 0, "{}", r.name);
            assert!(r.refs > 0, "{}", r.name);
            assert!(r.write_fraction > 0.0 && r.write_fraction < 1.0, "{}", r.name);
        }
        let rendered = render(&rows).render();
        assert!(rendered.contains("RADIX"));
        assert!(rendered.contains("BARNES"));
    }
}
