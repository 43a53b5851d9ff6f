//! Figure 10 — execution time per node, broken into busy / sync /
//! local-stall / remote-stall / translation, for:
//!
//! * `TLB/8` — physical COMA (`L0-TLB`), 8-entry fully-associative TLB;
//! * `TLB/8/DM` — the same with a direct-mapped TLB;
//! * `DLB/8` — V-COMA, 8-entry fully-associative DLB;
//! * `DLB/8/DM` — the same with a direct-mapped DLB;
//! * `DLB/8/V2` — V-COMA running the RAYTRACE variant whose `raystruct`
//!   padding is realigned from 32 KB to one page (§5.3) — only meaningful
//!   for RAYTRACE, where the paper reports the sync-time recovery.

use crate::render::TextTable;
use crate::sweep::{self, SweepPoint};
use crate::ExperimentConfig;
use vcoma::workloads::{Raytrace, Workload};
use vcoma::sim::TimeBreakdownF;
use vcoma::{Scheme, SimReport, TlbOrg};

/// One Figure-10 bar.
#[derive(Debug, Clone)]
pub struct Bar {
    /// Bar label (`TLB/8`, `DLB/8/DM`, …).
    pub label: String,
    /// Per-node average cycles in each Figure-10 category.
    pub time: TimeBreakdownF,
}

impl Bar {
    fn from_report(label: &str, report: &SimReport) -> Self {
        Bar { label: label.to_string(), time: report.mean_breakdown() }
    }
}

/// One benchmark's Figure-10 panel.
#[derive(Debug, Clone)]
pub struct Fig10Panel {
    /// Benchmark name.
    pub benchmark: String,
    /// The bars, in the order listed in the module docs (`DLB/8/V2` only
    /// for RAYTRACE).
    pub bars: Vec<Bar>,
}

/// Runs the Figure-10 experiment (warm machines, steady-state windows):
/// one sweep point per bar, merged back into per-benchmark panels.
pub fn run(cfg: &ExperimentConfig) -> Vec<Fig10Panel> {
    let benchmarks = cfg.benchmarks();
    let v2 = Raytrace::v2().scaled(cfg.scale);
    let fa = [(8u64, TlbOrg::FullyAssociative)];
    let dm = [(8u64, TlbOrg::DirectMapped)];
    type BarSpec<'a> = (&'static str, Scheme, &'a [(u64, TlbOrg)], &'a dyn Workload);
    let mut points: Vec<SweepPoint<BarSpec>> = Vec::new();
    let mut bars_per_panel = Vec::new();
    for w in &benchmarks {
        let mut bars: Vec<BarSpec> = vec![
            ("TLB/8", Scheme::L0_TLB, &fa, w.as_ref()),
            ("TLB/8/DM", Scheme::L0_TLB, &dm, w.as_ref()),
            ("DLB/8", Scheme::V_COMA, &fa, w.as_ref()),
            ("DLB/8/DM", Scheme::V_COMA, &dm, w.as_ref()),
        ];
        if w.name() == "RAYTRACE" {
            bars.push(("DLB/8/V2", Scheme::V_COMA, &fa, &v2));
        }
        bars_per_panel.push(bars.len());
        for bar in bars {
            points.push(SweepPoint::new(format!("{}/{}", w.name(), bar.0), bar));
        }
    }
    let bars = sweep::run(cfg, "fig10", points, |&(label, scheme, specs, wl)| {
        let sim = cfg.simulator(scheme).with_translation_specs(specs.to_vec()).with_warmup();
        Bar::from_report(label, &cfg.run_cached(sim, wl))
    });
    let mut bars = bars.into_iter();
    benchmarks
        .iter()
        .zip(bars_per_panel)
        .map(|(w, count)| Fig10Panel {
            benchmark: w.name().to_string(),
            bars: bars.by_ref().take(count).collect(),
        })
        .collect()
}

/// Renders one panel.
pub fn render(panel: &Fig10Panel) -> TextTable {
    let mut t = TextTable::new(vec![
        panel.benchmark.clone(),
        "busy".to_string(),
        "sync".to_string(),
        "loc-stall".to_string(),
        "rem-stall".to_string(),
        "xlation".to_string(),
        "total".to_string(),
    ]);
    for Bar { label, time } in &panel.bars {
        t.row(vec![
            label.clone(),
            format!("{:.0}", time.busy),
            format!("{:.0}", time.sync),
            format!("{:.0}", time.local_stall),
            format!("{:.0}", time.remote_stall),
            format!("{:.0}", time.translation),
            format!("{:.0}", time.total()),
        ]);
    }
    t
}

impl Fig10Panel {
    /// Finds a bar by label.
    pub fn bar(&self, label: &str) -> Option<&Bar> {
        self.bars.iter().find(|b| b.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vcoma_translation_time_is_negligible_vs_l0() {
        let panels = run(&ExperimentConfig::smoke());
        assert_eq!(panels.len(), 6);
        for p in &panels {
            let tlb8 = p.bar("TLB/8").unwrap().time;
            let dlb8 = p.bar("DLB/8").unwrap().time;
            assert!(
                dlb8.translation <= tlb8.translation,
                "{}: DLB xlation {} above TLB {}",
                p.benchmark,
                dlb8.translation,
                tlb8.translation
            );
        }
        // RAYTRACE has the extra V2 bar.
        let ray = panels.iter().find(|p| p.benchmark == "RAYTRACE").unwrap();
        assert!(ray.bar("DLB/8/V2").is_some());
        assert_eq!(ray.bars.len(), 5);
        let rendered = render(ray).render();
        assert!(rendered.contains("DLB/8/V2"));
    }
}
