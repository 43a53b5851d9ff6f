//! Table 2 — TLB/DLB miss rates per processor reference (%), at sizes
//! 8, 32 and 128, for the five schemes the paper tabulates (`L0`, `L1`,
//! `L2` with writebacks, `L3`, V-COMA).

use crate::render::{pct, TextTable};
use crate::sweep::{self, SweepPoint};
use crate::ExperimentConfig;
use vcoma::workloads::Workload;
use vcoma::{Scheme, TlbOrg};

/// The sizes Table 2 tabulates.
pub const TABLE2_SIZES: [u64; 3] = [8, 32, 128];

/// The schemes Table 2 tabulates (the paper's column order).
pub const TABLE2_SCHEMES: [Scheme; 5] =
    [Scheme::L0_TLB, Scheme::L1_TLB, Scheme::L2_TLB, Scheme::L3_TLB, Scheme::V_COMA];

/// One benchmark's Table-2 row block: `rates[size_idx][scheme_idx]`.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Miss rate per processor reference, indexed `[size][scheme]`.
    pub rates: Vec<Vec<f64>>,
}

/// Runs the Table-2 grid (one run per benchmark × scheme; the three sizes
/// ride in one shadow bank).
pub fn run(cfg: &ExperimentConfig) -> Vec<Table2Row> {
    let specs: Vec<(u64, TlbOrg)> =
        TABLE2_SIZES.iter().map(|&s| (s, TlbOrg::FullyAssociative)).collect();
    let benchmarks = cfg.benchmarks();
    let points: Vec<SweepPoint<(&dyn Workload, Scheme)>> = benchmarks
        .iter()
        .flat_map(|w| {
            TABLE2_SCHEMES.iter().map(move |&scheme| {
                SweepPoint::new(
                    format!("{}/{}", w.name(), scheme.label()),
                    (w.as_ref(), scheme),
                )
            })
        })
        .collect();
    let specs = &specs;
    let by_scheme = sweep::run(cfg, "table2", points, |&(w, scheme)| {
        let report = cfg.run_cached(cfg.simulator(scheme).with_translation_specs(specs.clone()), w);
        (0..TABLE2_SIZES.len()).map(|i| report.translation_miss_rate(i)).collect::<Vec<f64>>()
    });
    benchmarks
        .iter()
        .zip(by_scheme.chunks(TABLE2_SCHEMES.len()))
        .map(|(w, rates_by_scheme)| {
            // Transpose to [size][scheme].
            let rates = (0..TABLE2_SIZES.len())
                .map(|si| rates_by_scheme.iter().map(|v| v[si]).collect())
                .collect();
            Table2Row { benchmark: w.name().to_string(), rates }
        })
        .collect()
}

/// Renders the table in the paper's layout: one super-column per size.
pub fn render(rows: &[Table2Row]) -> TextTable {
    let mut header = vec!["SYSTEM".to_string()];
    for s in TABLE2_SIZES {
        for scheme in TABLE2_SCHEMES {
            header.push(format!("{}/{}", scheme.label(), s));
        }
    }
    let mut t = TextTable::new(header);
    for r in rows {
        let mut cells = vec![r.benchmark.clone()];
        for si in 0..TABLE2_SIZES.len() {
            for pi in 0..TABLE2_SCHEMES.len() {
                cells.push(pct(r.rates[si][pi]));
            }
        }
        t.row(cells);
    }
    t
}

impl Table2Row {
    /// Miss rate for `(size index, scheme index)`.
    pub fn rate(&self, size_idx: usize, scheme_idx: usize) -> f64 {
        self.rates[size_idx][scheme_idx]
    }

    /// The V-COMA miss rate at a size index.
    pub fn vcoma(&self, size_idx: usize) -> f64 {
        self.rate(size_idx, TABLE2_SCHEMES.len() - 1)
    }

    /// The L0 miss rate at a size index.
    pub fn l0(&self, size_idx: usize) -> f64 {
        self.rate(size_idx, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vcoma_rates_are_the_smallest_column() {
        let rows = run(&ExperimentConfig::smoke());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            // At 32 and 128 entries the sharing effect must put V-COMA
            // below L0 for every benchmark. At 8 entries our sampled
            // traces' high transaction rate can push streaming benchmarks
            // (FFT) slightly above — a documented deviation — so the
            // 8-entry check allows a 1.5× band.
            for (si, &size) in TABLE2_SIZES.iter().enumerate().skip(1) {
                assert!(
                    r.vcoma(si) <= r.l0(si) + 1e-9,
                    "{}: V-COMA {} > L0 {} at size {}",
                    r.benchmark,
                    r.vcoma(si),
                    r.l0(si),
                    size
                );
            }
            assert!(
                r.vcoma(0) <= 1.5 * r.l0(0) + 1e-9,
                "{}: V-COMA {} far above L0 {} at size 8",
                r.benchmark,
                r.vcoma(0),
                r.l0(0)
            );
        }
        let rendered = render(&rows).render();
        assert!(rendered.contains("V-COMA/8"));
    }
}
