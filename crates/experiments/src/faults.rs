//! Fault-injection robustness sweep: one benchmark under every
//! translation scheme while a deterministic [`FaultPlan`] drops,
//! duplicates and delays crossbar messages and homes answer with
//! transient NACKs — with the coherence-invariant auditor armed.
//!
//! The sweep scales the base plan along [`INTENSITY_AXIS`] (intensity 0 is
//! the fault-free baseline, so every row's *slowdown* is relative to the
//! same scheme without faults) and reports the recovery work: NACK
//! retries, request timeouts, link-level retransmissions and the cycles
//! charged to fault recovery. Every point runs under the auditor; a
//! violated coherence invariant aborts the artifact with the offending
//! cycle and event trace instead of producing a table.

use crate::render::TextTable;
use crate::sweep::{self, SweepPoint};
use crate::ExperimentConfig;
use vcoma::faults::FaultPlan;
use vcoma::{paper_schemes, Scheme, SimError};

/// Multipliers applied to the base plan's probabilities (delay and pause
/// windows are left unscaled). `0.0` is the fault-free baseline.
pub const INTENSITY_AXIS: [f64; 4] = [0.0, 1.0, 2.0, 4.0];

/// One (scheme, intensity) point of the robustness sweep.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Scheme label (e.g. `V-COMA`).
    pub scheme: String,
    /// The intensity multiplier from [`INTENSITY_AXIS`].
    pub intensity: f64,
    /// Execution time in cycles (the slowest node).
    pub exec_time: u64,
    /// `exec_time` divided by the same scheme's intensity-0 time.
    pub slowdown: f64,
    /// Transient NACKs answered by busy home directories.
    pub nacks: u64,
    /// End-to-end request retries (NACKed or timed-out requests).
    pub retries: u64,
    /// Link-level retransmissions of non-abortable hops.
    pub link_retries: u64,
    /// Request timeouts observed before a retry.
    pub timeouts: u64,
    /// Requests that exhausted the retry budget and fell back to the
    /// reliable path.
    pub exhausted: u64,
    /// Messages the fault layer dropped on the crossbar.
    pub dropped: u64,
    /// Cycles attributed to fault recovery across all nodes.
    pub fault_cycles: u64,
}

/// Runs the robustness sweep: the first benchmark × every scheme × every
/// intensity, auditor on.
///
/// # Errors
///
/// Returns the first [`SimError`] any point hit — in practice an audit
/// violation, since the retry path makes faulty runs complete.
pub fn run(cfg: &ExperimentConfig, base: &FaultPlan) -> Result<Vec<FaultRow>, SimError> {
    let benchmarks = cfg.benchmarks();
    let workload = benchmarks.first().expect("the paper defines benchmarks");
    let mut points: Vec<SweepPoint<(Scheme, f64)>> = Vec::new();
    for scheme in cfg.schemes_or(paper_schemes) {
        for &intensity in &INTENSITY_AXIS {
            points.push(SweepPoint::new(
                format!("{}/{}x{intensity}", workload.name(), scheme.label()),
                (scheme, intensity),
            ));
        }
    }
    let results = sweep::run(cfg, "faults", points, |&(scheme, intensity)| {
        let mut sim = cfg.simulator(scheme).with_audit();
        let plan = base.scaled(intensity);
        if !plan.is_zero() {
            sim = sim.with_fault_plan(plan);
        }
        cfg.try_run_cached(sim, workload.as_ref()).map(|report| (scheme, intensity, report))
    });

    let mut rows = Vec::new();
    let mut baseline = 0u64;
    for r in results {
        let (scheme, intensity, report) = r?;
        if intensity == 0.0 {
            baseline = report.exec_time();
        }
        let p = report.protocol();
        rows.push(FaultRow {
            scheme: scheme.label().to_string(),
            intensity,
            exec_time: report.exec_time(),
            slowdown: if baseline > 0 {
                report.exec_time() as f64 / baseline as f64
            } else {
                1.0
            },
            nacks: p.nacks,
            retries: p.retries,
            link_retries: p.link_retries,
            timeouts: p.timeouts,
            exhausted: p.retry_exhausted,
            dropped: report.net().dropped_msgs,
            fault_cycles: report.aggregate_fine().fault,
        });
    }
    Ok(rows)
}

/// Renders the sweep as a table: one row per (scheme, intensity).
pub fn render(base: &FaultPlan, rows: &[FaultRow]) -> TextTable {
    let mut t = TextTable::new(vec![
        format!("scheme (plan {base})"),
        "intensity".to_string(),
        "cycles".to_string(),
        "slowdown".to_string(),
        "nacks".to_string(),
        "retries".to_string(),
        "link-retry".to_string(),
        "timeouts".to_string(),
        "exhausted".to_string(),
        "dropped".to_string(),
        "fault-cycles".to_string(),
    ]);
    for r in rows {
        t.row(vec![
            r.scheme.clone(),
            format!("{:.0}x", r.intensity),
            r.exec_time.to_string(),
            format!("{:.3}", r.slowdown),
            r.nacks.to_string(),
            r.retries.to_string(),
            r.link_retries.to_string(),
            r.timeouts.to_string(),
            r.exhausted.to_string(),
            r.dropped.to_string(),
            r.fault_cycles.to_string(),
        ]);
    }
    t
}

/// The plan the CLI uses when `faults` is requested without
/// `--fault-plan`.
pub fn default_plan() -> FaultPlan {
    FaultPlan::parse("drop=0.01,dup=0.005,delay=32,nack=0.02").expect("default plan parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulty_sweep_completes_and_recovers() {
        let rows = run(&ExperimentConfig::smoke(), &default_plan()).expect("no violations");
        assert_eq!(rows.len(), paper_schemes().len() * INTENSITY_AXIS.len());
        for chunk in rows.chunks(INTENSITY_AXIS.len()) {
            // Intensity 0 is the per-scheme baseline…
            assert_eq!(chunk[0].slowdown, 1.0, "{}", chunk[0].scheme);
            assert_eq!(chunk[0].nacks + chunk[0].dropped, 0, "{}", chunk[0].scheme);
            // …and nonzero intensities do visible recovery work.
            let worked: u64 = chunk[1..]
                .iter()
                .map(|r| r.nacks + r.retries + r.link_retries + r.dropped)
                .sum();
            assert!(worked > 0, "{}: no faults at any intensity", chunk[0].scheme);
        }
        let rendered = render(&default_plan(), &rows).render();
        assert!(rendered.contains("slowdown"));
        assert!(rendered.contains("V-COMA"));
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        let base = default_plan();
        let serial = run(&ExperimentConfig::smoke().with_jobs(1), &base).unwrap();
        let parallel = run(&ExperimentConfig::smoke().with_jobs(8), &base).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.exec_time, b.exec_time, "{}@{}", a.scheme, a.intensity);
            assert_eq!(a.retries, b.retries, "{}@{}", a.scheme, a.intensity);
        }
    }
}
