//! Table 4 — address-translation time divided by total memory stall time
//! (%), for `L0-TLB` vs the V-COMA DLB at 8 and 16 entries.
//!
//! These runs use the warm-up pass so the ratio reflects steady state, as
//! in the paper's preloaded measurement window.

use crate::render::TextTable;
use crate::sweep::{self, SweepPoint};
use crate::ExperimentConfig;
use vcoma::workloads::Workload;
use vcoma::Scheme;

/// The sizes Table 4 tabulates.
pub const TABLE4_SIZES: [u64; 2] = [8, 16];

/// One benchmark's Table-4 column.
#[derive(Debug, Clone)]
pub struct Table4Col {
    /// Benchmark name.
    pub benchmark: String,
    /// `translation / (local + remote stall)` for `L0-TLB` at each size.
    pub l0: Vec<f64>,
    /// The same ratio for the V-COMA DLB at each size.
    pub dlb: Vec<f64>,
}

/// Runs the Table-4 experiment: one sweep point per
/// (benchmark, scheme, size), merged back into per-benchmark columns.
pub fn run(cfg: &ExperimentConfig) -> Vec<Table4Col> {
    let benchmarks = cfg.benchmarks();
    let mut points: Vec<SweepPoint<(&dyn Workload, Scheme, u64)>> = Vec::new();
    for w in &benchmarks {
        for scheme in [Scheme::L0_TLB, Scheme::V_COMA] {
            for &size in &TABLE4_SIZES {
                points.push(SweepPoint::new(
                    format!("{}/{}/{}", w.name(), scheme.label(), size),
                    (w.as_ref(), scheme, size),
                ));
            }
        }
    }
    let ratios = sweep::run(cfg, "table4", points, |&(w, scheme, entries)| {
        let report = cfg.run_cached(cfg.simulator(scheme).with_entries(entries).with_warmup(), w);
        report.aggregate_breakdown().translation_over_stall()
    });
    benchmarks
        .iter()
        .zip(ratios.chunks(2 * TABLE4_SIZES.len()))
        .map(|(w, chunk)| Table4Col {
            benchmark: w.name().to_string(),
            l0: chunk[..TABLE4_SIZES.len()].to_vec(),
            dlb: chunk[TABLE4_SIZES.len()..].to_vec(),
        })
        .collect()
}

/// Renders Table 4 in the paper's layout (rows = system/size, columns =
/// benchmarks).
pub fn render(cols: &[Table4Col]) -> TextTable {
    let mut header = vec!["xlation/stall %".to_string()];
    header.extend(cols.iter().map(|c| c.benchmark.clone()));
    let mut t = TextTable::new(header);
    for (i, &size) in TABLE4_SIZES.iter().enumerate() {
        let mut row = vec![format!("L0-TLB/{size}")];
        row.extend(cols.iter().map(|c| format!("{:.2}", 100.0 * c.l0[i])));
        t.row(row);
        let mut row = vec![format!("DLB/{size}")];
        row.extend(cols.iter().map(|c| format!("{:.2}", 100.0 * c.dlb[i])));
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dlb_overhead_is_far_below_l0() {
        let cols = run(&ExperimentConfig::smoke());
        assert_eq!(cols.len(), 6);
        for c in &cols {
            for i in 0..TABLE4_SIZES.len() {
                assert!(
                    c.dlb[i] <= c.l0[i] + 1e-9,
                    "{}: DLB ratio {} above L0 ratio {}",
                    c.benchmark,
                    c.dlb[i],
                    c.l0[i]
                );
            }
            // Bigger structures never increase the overhead materially.
            assert!(c.l0[1] <= c.l0[0] * 1.2 + 1e-9, "{}", c.benchmark);
        }
        let rendered = render(&cols).render();
        assert!(rendered.contains("DLB/16"));
    }
}
