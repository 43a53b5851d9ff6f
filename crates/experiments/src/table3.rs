//! Table 3 — the TLB size each private-TLB scheme needs to match the miss
//! count of an 8-entry V-COMA DLB.
//!
//! One run per benchmark per scheme carries a dense shadow-size grid; the
//! equivalent size is found by log-linear interpolation between the two
//! grid sizes that bracket the V-COMA target.

use crate::render::TextTable;
use crate::sweep::{self, SweepPoint};
use crate::ExperimentConfig;
use vcoma::workloads::Workload;
use vcoma::{Scheme, TlbOrg};

/// The dense size grid used for interpolation.
pub const GRID: [u64; 13] = [8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024];

/// The schemes Table 3 tabulates.
pub const TABLE3_SCHEMES: [Scheme; 4] =
    [Scheme::L0_TLB, Scheme::L1_TLB, Scheme::L2_TLB, Scheme::L3_TLB];

/// One benchmark's equivalent sizes.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Machine-wide misses of the 8-entry DLB (the target).
    pub dlb8_misses: u64,
    /// Equivalent TLB size per scheme (in [`TABLE3_SCHEMES`] order);
    /// `None` when even the largest grid size cannot match the target.
    pub equivalent: Vec<Option<f64>>,
}

/// One Table-3 sweep point's outcome: either the 8-entry DLB target run
/// or one scheme's dense miss curve.
enum Probe {
    Target(u64),
    Curve(Vec<(u64, u64)>),
}

/// Runs the Table-3 experiment: per benchmark, one sweep point for the
/// V-COMA target run plus one per tabulated scheme.
pub fn run(cfg: &ExperimentConfig) -> Vec<Table3Row> {
    let specs: Vec<(u64, TlbOrg)> =
        GRID.iter().map(|&s| (s, TlbOrg::FullyAssociative)).collect();
    let benchmarks = cfg.benchmarks();
    let mut points: Vec<SweepPoint<(&dyn Workload, Option<Scheme>)>> = Vec::new();
    for w in &benchmarks {
        points.push(SweepPoint::new(format!("{}/DLB-8", w.name()), (w.as_ref(), None)));
        for &scheme in &TABLE3_SCHEMES {
            points.push(SweepPoint::new(
                format!("{}/{}", w.name(), scheme.label()),
                (w.as_ref(), Some(scheme)),
            ));
        }
    }
    let specs = &specs;
    let probes = sweep::run(cfg, "table3", points, |&(w, scheme)| {
        match scheme {
            None => {
                let vc = cfg.run_cached(cfg.simulator(Scheme::V_COMA).with_entries(8), w);
                Probe::Target(vc.translation_misses_total(0))
            }
            Some(scheme) => {
                let sim = cfg.simulator(scheme).with_translation_specs(specs.clone());
                let report = cfg.run_cached(sim, w);
                let curve = GRID
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| (s, report.translation_misses_total(i)))
                    .collect();
                Probe::Curve(curve)
            }
        }
    });
    benchmarks
        .iter()
        .zip(probes.chunks(1 + TABLE3_SCHEMES.len()))
        .map(|(w, chunk)| {
            let target = match &chunk[0] {
                Probe::Target(t) => *t,
                Probe::Curve(_) => unreachable!("target probe leads each chunk"),
            };
            let equivalent = chunk[1..]
                .iter()
                .map(|p| match p {
                    Probe::Curve(curve) => equivalent_size(curve, target),
                    Probe::Target(_) => unreachable!("curve probes follow the target"),
                })
                .collect();
            Table3Row { benchmark: w.name().to_string(), dlb8_misses: target, equivalent }
        })
        .collect()
}

/// Interpolates the size at which `curve` (size → misses, non-increasing)
/// crosses `target` misses. Returns `None` if even the largest size misses
/// more than the target, and the smallest size if it is already below.
pub fn equivalent_size(curve: &[(u64, u64)], target: u64) -> Option<f64> {
    if curve.is_empty() {
        return None;
    }
    if curve[0].1 <= target {
        return Some(curve[0].0 as f64);
    }
    for w in curve.windows(2) {
        let (s0, m0) = w[0];
        let (s1, m1) = w[1];
        if m1 <= target {
            // Log-linear interpolation in size between (s0, m0) and (s1, m1).
            if m0 == m1 {
                return Some(s1 as f64);
            }
            let f = (m0 - target) as f64 / (m0 - m1) as f64;
            let ls = (s0 as f64).ln() + f * ((s1 as f64).ln() - (s0 as f64).ln());
            return Some(ls.exp());
        }
    }
    None
}

/// Renders Table 3.
pub fn render(rows: &[Table3Row]) -> TextTable {
    let mut header = vec!["(8-entry DLB)".to_string()];
    header.extend(TABLE3_SCHEMES.iter().map(|s| s.label().to_string()));
    let mut t = TextTable::new(header);
    for r in rows {
        let mut cells = vec![r.benchmark.clone()];
        cells.extend(r.equivalent.iter().map(|e| match e {
            Some(v) => format!("{v:.0}"),
            None => format!(">{}", GRID[GRID.len() - 1]),
        }));
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_brackets_correctly() {
        let curve = vec![(8u64, 1000u64), (16, 500), (32, 100), (64, 10)];
        // Exactly at a grid point (up to floating-point rounding).
        assert!((equivalent_size(&curve, 500).unwrap() - 16.0).abs() < 1e-9);
        // Between 16 and 32: somewhere in (16, 32).
        let e = equivalent_size(&curve, 300).unwrap();
        assert!(e > 16.0 && e < 32.0, "{e}");
        // Already satisfied by the smallest size.
        assert_eq!(equivalent_size(&curve, 2000), Some(8.0));
        // Unreachable.
        assert_eq!(equivalent_size(&curve, 5), None);
        assert_eq!(equivalent_size(&[], 5), None);
    }

    #[test]
    fn flat_curve_segment_interpolates_to_right_edge() {
        let curve = vec![(8u64, 100u64), (16, 100), (32, 50)];
        assert_eq!(equivalent_size(&curve, 100), Some(8.0));
        assert_eq!(equivalent_size(&curve, 70), Some(32.0).map(|_| equivalent_size(&curve, 70).unwrap()));
    }

    #[test]
    fn smoke_run_produces_equivalents_above_8() {
        let rows = run(&ExperimentConfig::smoke());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            for (i, e) in r.equivalent.iter().enumerate() {
                if let Some(v) = e {
                    assert!(
                        *v >= 8.0,
                        "{} {}: equivalent size {v} below the DLB's own size",
                        r.benchmark,
                        TABLE3_SCHEMES[i]
                    );
                }
            }
        }
        let rendered = render(&rows).render();
        assert!(rendered.contains("L3-TLB"));
    }
}
