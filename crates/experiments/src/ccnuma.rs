//! The §2 motivation experiment: why SHARED-TLB fails in CC-NUMA.
//!
//! Runs a private-working-set workload (the pattern first-touch placement
//! handles perfectly) on the CC-NUMA reference machine under all four
//! Figure-1 translation options, and reports how many capacity misses go
//! remote. The paper's claim: with the home selected by the virtual
//! address, "capacity misses are remote most of the time".

use crate::render::TextTable;
use crate::sweep::{self, SweepPoint, SweepResult};
use crate::ExperimentConfig;
use vcoma::sim::ccnuma::{NumaMachine, NumaScheme};
use vcoma::{Op, Scheme, SimConfig, VAddr};

/// The four CC-NUMA translation options of Figure 1.
pub const NUMA_SCHEMES: [NumaScheme; 4] =
    [NumaScheme::L0Tlb, NumaScheme::L1Tlb, NumaScheme::L2Tlb, NumaScheme::SharedTlb];

/// One scheme's outcome.
#[derive(Debug, Clone)]
pub struct CcNumaRow {
    /// The translation option.
    pub scheme: NumaScheme,
    /// Execution time in cycles.
    pub exec_time: u64,
    /// Translation misses machine-wide.
    pub translation_misses: u64,
    /// Fraction of memory accesses served by a remote home.
    pub remote_fraction: f64,
}

/// Builds the private-working-set traces: each node streams over its own
/// region, several times the SLC size, for `passes` passes.
pub fn private_traces(cfg: &ExperimentConfig, bytes_per_node: u64, passes: u64) -> Vec<Vec<Op>> {
    let nodes = cfg.machine.nodes;
    let mut traces = vec![Vec::new(); nodes as usize];
    for (i, t) in traces.iter_mut().enumerate() {
        let base = 0x1000_0000 + i as u64 * (bytes_per_node * 2);
        for _ in 0..passes {
            for off in (0..bytes_per_node).step_by(64) {
                t.push(Op::Read(VAddr::new(base + off)));
                if off % 256 == 0 {
                    t.push(Op::Write(VAddr::new(base + off)));
                }
            }
        }
    }
    traces
}

/// Runs the experiment (one sweep point per CC-NUMA scheme; all four
/// share the same generated traces).
pub fn run(cfg: &ExperimentConfig) -> Vec<CcNumaRow> {
    let bytes = (cfg.machine.slc.size_bytes * 4).max(64 << 10);
    let traces = private_traces(cfg, bytes, 2);
    let sim_cfg = SimConfig::new(cfg.machine.clone(), Scheme::L0_TLB)
        .with_translation_specs(vec![(32, vcoma::TlbOrg::FullyAssociative)])
        .with_seed(cfg.seed);
    let points =
        NUMA_SCHEMES.iter().map(|&s| SweepPoint::new(s.label(), s)).collect();
    let traces = &traces;
    let sim_cfg = &sim_cfg;
    sweep::run(cfg, "ccnuma", points, |&scheme| {
        let report = NumaMachine::new(sim_cfg.clone(), scheme).run(traces.clone());
        SweepResult::new(
            CcNumaRow {
                scheme,
                exec_time: report.exec_time,
                translation_misses: report.translation_misses,
                remote_fraction: report.remote_fraction(),
            },
            report.exec_time,
        )
    })
}

/// Renders the rows.
pub fn render(rows: &[CcNumaRow]) -> TextTable {
    let mut t = TextTable::new(vec!["CC-NUMA scheme", "exec cycles", "xl-misses", "remote %"]);
    for r in rows {
        t.row(vec![
            r.scheme.label().to_string(),
            r.exec_time.to_string(),
            r.translation_misses.to_string(),
            format!("{:.1}", 100.0 * r.remote_fraction),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_tlb_turns_private_misses_remote() {
        let rows = run(&ExperimentConfig::smoke());
        assert_eq!(rows.len(), 4);
        let shared = rows.last().unwrap();
        assert_eq!(shared.scheme, NumaScheme::SharedTlb);
        assert!(
            shared.remote_fraction > 0.8,
            "SHARED-TLB must push most misses remote (got {:.2})",
            shared.remote_fraction
        );
        for r in &rows[..3] {
            assert_eq!(
                r.remote_fraction, 0.0,
                "{}: first-touch placement keeps private misses local",
                r.scheme
            );
            assert!(shared.exec_time > r.exec_time, "{}", r.scheme);
        }
        assert!(render(&rows).render().contains("SHARED-TLB"));
    }
}
