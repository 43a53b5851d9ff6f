//! Figure 8 — number of address-translation misses per node vs TLB/DLB
//! size, per benchmark, one curve per scheme.
//!
//! One simulation per (benchmark, scheme) carries the whole size axis as a
//! shadow TLB/DLB bank, so the 6×6 grid needs 36 runs.

use crate::render::TextTable;
use crate::sweep::{self, SweepPoint};
use crate::{ExperimentConfig, SIZE_AXIS};
use vcoma::workloads::Workload;
use vcoma::{paper_schemes, Scheme, TlbOrg};

/// One scheme's miss curve for one benchmark.
#[derive(Debug, Clone)]
pub struct Curve {
    /// The scheme.
    pub scheme: Scheme,
    /// `(size, misses per node)` points along [`SIZE_AXIS`].
    pub points: Vec<(u64, f64)>,
}

/// All curves for one benchmark.
#[derive(Debug, Clone)]
pub struct Fig8Panel {
    /// Benchmark name.
    pub benchmark: String,
    /// One curve per scheme, in registry presentation order.
    pub curves: Vec<Curve>,
}

/// Runs the full Figure-8 grid over the paper's six schemes.
pub fn run(cfg: &ExperimentConfig) -> Vec<Fig8Panel> {
    run_schemes(cfg, &cfg.schemes_or(paper_schemes))
}

/// Runs the Figure-8 sweep for a subset of schemes: one sweep point per
/// (benchmark, scheme), the whole size axis riding in one shadow bank.
pub fn run_schemes(cfg: &ExperimentConfig, schemes: &[Scheme]) -> Vec<Fig8Panel> {
    let benchmarks = cfg.benchmarks();
    if schemes.is_empty() {
        return benchmarks
            .iter()
            .map(|w| Fig8Panel { benchmark: w.name().to_string(), curves: Vec::new() })
            .collect();
    }
    let specs: Vec<(u64, TlbOrg)> =
        SIZE_AXIS.iter().map(|&s| (s, TlbOrg::FullyAssociative)).collect();
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
    let specs = &specs;
    let curves = sweep::run(cfg, "fig8", points, |&(w, scheme)| {
        let report = cfg.run_cached(cfg.simulator(scheme).with_translation_specs(specs.clone()), w);
        Curve {
            scheme,
            points: SIZE_AXIS
                .iter()
                .enumerate()
                .map(|(i, &s)| (s, report.translation_misses_per_node(i)))
                .collect(),
        }
    });
    benchmarks
        .iter()
        .zip(curves.chunks(schemes.len()))
        .map(|(w, cs)| Fig8Panel { benchmark: w.name().to_string(), curves: cs.to_vec() })
        .collect()
}

/// Renders one benchmark's panel as a table (rows = schemes, columns =
/// sizes).
pub fn render(panel: &Fig8Panel) -> TextTable {
    let mut header = vec![format!("{} misses/node", panel.benchmark)];
    header.extend(SIZE_AXIS.iter().map(|s| s.to_string()));
    let mut t = TextTable::new(header);
    for c in &panel.curves {
        let mut row = vec![c.scheme.label().to_string()];
        row.extend(c.points.iter().map(|(_, m)| format!("{m:.1}")));
        t.row(row);
    }
    t
}

impl Fig8Panel {
    /// The curve for one scheme.
    pub fn curve(&self, scheme: Scheme) -> Option<&Curve> {
        self.curves.iter().find(|c| c.scheme == scheme)
    }
}

impl Curve {
    /// Misses per node at a given size.
    pub fn at(&self, size: u64) -> Option<f64> {
        self.points.iter().find(|(s, _)| *s == size).map(|(_, m)| *m)
    }

    /// Returns `true` if the curve is non-increasing along the size axis
    /// (more TLB entries never hurt, up to random-replacement noise
    /// `tolerance`).
    pub fn is_monotone_decreasing(&self, tolerance: f64) -> bool {
        self.points.windows(2).all(|w| w[1].1 <= w[0].1 * (1.0 + tolerance) + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_has_expected_shape() {
        let cfg = ExperimentConfig::smoke();
        let panels = run_schemes(&cfg, &[Scheme::L0_TLB, Scheme::V_COMA]);
        assert_eq!(panels.len(), 6);
        for p in &panels {
            assert_eq!(p.curves.len(), 2);
            for c in &p.curves {
                assert_eq!(c.points.len(), SIZE_AXIS.len());
                assert!(
                    c.is_monotone_decreasing(0.15),
                    "{} {} curve not monotone: {:?}",
                    p.benchmark,
                    c.scheme,
                    c.points
                );
            }
            // V-COMA misses fewer than L0 at every size from 32 up; at 8
            // and 16 entries the (cold-dominated, smoke-scale) streaming
            // benchmarks may sit slightly above — a documented deviation —
            // so those sizes get a 1.6× band.
            let l0 = p.curve(Scheme::L0_TLB).unwrap();
            let vc = p.curve(Scheme::V_COMA).unwrap();
            for &s in &SIZE_AXIS[2..] {
                assert!(
                    vc.at(s).unwrap() <= l0.at(s).unwrap() + 1.0,
                    "{}: V-COMA above L0 at {s}",
                    p.benchmark
                );
            }
            for &s in &SIZE_AXIS[..2] {
                assert!(
                    vc.at(s).unwrap() <= 1.6 * l0.at(s).unwrap() + 1.0,
                    "{}: V-COMA far above L0 at {s}",
                    p.benchmark
                );
            }
        }
        let rendered = render(&panels[0]).render();
        assert!(rendered.contains("L0-TLB") || rendered.contains("V-COMA"));
    }
}
