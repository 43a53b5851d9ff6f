//! Figure 11 — the memory-pressure profile over global page sets under
//! V-COMA.

use crate::render::TextTable;
use crate::sweep::{self, SweepPoint};
use crate::ExperimentConfig;
use vcoma::Scheme;

/// One benchmark's pressure profile.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Per-global-page-set pressure in `[0, 1]`.
    pub profile: Vec<f64>,
    /// Mean pressure.
    pub mean: f64,
    /// Maximum pressure.
    pub max: f64,
    /// Coefficient of variation across the sets (the uniformity metric).
    pub cv: f64,
}

/// Runs the Figure-11 experiment (one sweep point per benchmark).
pub fn run(cfg: &ExperimentConfig) -> Vec<Fig11Row> {
    let points =
        cfg.benchmarks().into_iter().map(|w| SweepPoint::new(w.name(), w)).collect();
    sweep::run(cfg, "fig11", points, |w| {
        let report = cfg.run_cached(cfg.simulator(Scheme::V_COMA), w.as_ref());
        let p = report.pressure();
        Fig11Row {
            benchmark: w.name().to_string(),
            profile: p.as_slice().to_vec(),
            mean: p.mean(),
            max: p.max(),
            cv: p.coefficient_of_variation(),
        }
    })
}

/// Renders the summary statistics table (the full profile is available on
/// each [`Fig11Row`]).
pub fn render(rows: &[Fig11Row]) -> TextTable {
    let mut t = TextTable::new(vec!["Benchmark", "mean", "max", "cv", "profile (32 buckets)"]);
    for r in rows {
        t.row(vec![
            r.benchmark.clone(),
            format!("{:.4}", r.mean),
            format!("{:.4}", r.max),
            format!("{:.3}", r.cv),
            sparkline(&r.profile, 32),
        ]);
    }
    t
}

/// Buckets a profile into `cols` columns and renders an ASCII sparkline.
pub fn sparkline(profile: &[f64], cols: usize) -> String {
    if profile.is_empty() || cols == 0 {
        return String::new();
    }
    let per = (profile.len() / cols).max(1);
    let peak = profile.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
    (0..cols.min(profile.len()))
        .map(|c| {
            let start = c * per;
            let end = (start + per).min(profile.len());
            let avg =
                profile[start..end].iter().sum::<f64>() / (end - start).max(1) as f64;
            let i = ((avg / peak) * 7.0).round() as usize;
            [' ', '.', ':', '-', '=', '+', '*', '#'][i.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_near_uniform() {
        let rows = run(&ExperimentConfig::smoke());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.mean > 0.0, "{}", r.benchmark);
            assert!(
                r.cv < 3.0,
                "{}: implausibly skewed profile (cv={})",
                r.benchmark,
                r.cv
            );
        }
        let rendered = render(&rows).render();
        assert!(rendered.contains("cv"));
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[], 8), "");
        assert_eq!(sparkline(&[1.0], 0), "");
        let s = sparkline(&[0.0, 0.0, 1.0, 1.0], 4);
        assert_eq!(s.len(), 4);
        assert!(s.ends_with("##"));
        assert!(s.starts_with("  "));
    }
}
