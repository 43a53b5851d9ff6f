//! Figure 9 — direct-mapped vs fully-associative TLB/DLB miss curves.
//!
//! The paper's point: the DM/FA gap is huge at `L0` (which is why no real
//! processor ships a direct-mapped L0 TLB), small by `L2`/`L3`, and
//! smaller still in V-COMA, because cache filtering and DLB sharing shrink
//! the stream the structure must capture.

use crate::render::TextTable;
use crate::sweep::{self, SweepPoint};
use crate::{ExperimentConfig, SIZE_AXIS};
use vcoma::workloads::Workload;
use vcoma::{Scheme, TlbOrg};

/// The schemes Figure 9 plots.
pub const FIG9_SCHEMES: [Scheme; 4] =
    [Scheme::L0_TLB, Scheme::L2_TLB, Scheme::L3_TLB, Scheme::V_COMA];

/// One benchmark's DM-vs-FA curves for one scheme.
#[derive(Debug, Clone)]
pub struct DmFaCurves {
    /// The scheme.
    pub scheme: Scheme,
    /// `(size, FA misses/node, DM misses/node)` points.
    pub points: Vec<(u64, f64, f64)>,
}

/// One benchmark's Figure-9 panel.
#[derive(Debug, Clone)]
pub struct Fig9Panel {
    /// Benchmark name.
    pub benchmark: String,
    /// One curve pair per scheme in [`FIG9_SCHEMES`] order.
    pub curves: Vec<DmFaCurves>,
}

/// Runs the Figure-9 grid (FA and DM ride in one shadow bank per run; one
/// sweep point per (benchmark, scheme)).
pub fn run(cfg: &ExperimentConfig) -> Vec<Fig9Panel> {
    let mut specs: Vec<(u64, TlbOrg)> = Vec::new();
    for &s in &SIZE_AXIS {
        specs.push((s, TlbOrg::FullyAssociative));
        specs.push((s, TlbOrg::DirectMapped));
    }
    let benchmarks = cfg.benchmarks();
    let points: Vec<SweepPoint<(&dyn Workload, Scheme)>> = benchmarks
        .iter()
        .flat_map(|w| {
            FIG9_SCHEMES.iter().map(move |&scheme| {
                SweepPoint::new(
                    format!("{}/{}", w.name(), scheme.label()),
                    (w.as_ref(), scheme),
                )
            })
        })
        .collect();
    let specs = &specs;
    let curves = sweep::run(cfg, "fig9", points, |&(w, scheme)| {
        let report = cfg.run_cached(cfg.simulator(scheme).with_translation_specs(specs.clone()), w);
        DmFaCurves {
            scheme,
            points: SIZE_AXIS
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    (
                        s,
                        report.translation_misses_per_node(2 * i),
                        report.translation_misses_per_node(2 * i + 1),
                    )
                })
                .collect(),
        }
    });
    benchmarks
        .iter()
        .zip(curves.chunks(FIG9_SCHEMES.len()))
        .map(|(w, cs)| Fig9Panel { benchmark: w.name().to_string(), curves: cs.to_vec() })
        .collect()
}

impl DmFaCurves {
    /// Mean multiplicative DM/FA gap over the size axis (1.0 = no gap).
    /// Sizes where the FA structure already misses fewer than one miss per
    /// node are skipped (the ratio would be noise).
    pub fn mean_gap(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for &(_, fa, dm) in &self.points {
            if fa >= 1.0 {
                sum += dm / fa;
                n += 1;
            }
        }
        if n == 0 {
            1.0
        } else {
            sum / n as f64
        }
    }
}

/// Renders one panel: per scheme, the FA and DM rows.
pub fn render(panel: &Fig9Panel) -> TextTable {
    let mut header = vec![format!("{} misses/node", panel.benchmark)];
    header.extend(SIZE_AXIS.iter().map(|s| s.to_string()));
    let mut t = TextTable::new(header);
    for c in &panel.curves {
        let mut fa = vec![format!("{}", c.scheme.label())];
        fa.extend(c.points.iter().map(|(_, f, _)| format!("{f:.1}")));
        t.row(fa);
        let mut dm = vec![format!("{}/DM", c.scheme.label())];
        dm.extend(c.points.iter().map(|(_, _, d)| format!("{d:.1}")));
        t.row(dm);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dm_is_never_materially_better_than_fa() {
        let panels = run(&ExperimentConfig::smoke());
        for p in &panels {
            for c in &p.curves {
                // DM can beat FA-random on specific streams, but on average
                // over sizes it should be at least comparable.
                assert!(
                    c.mean_gap() > 0.5,
                    "{} {}: implausible DM/FA gap {}",
                    p.benchmark,
                    c.scheme,
                    c.mean_gap()
                );
            }
        }
        let rendered = render(&panels[0]).render();
        assert!(rendered.contains("/DM"));
    }
}
