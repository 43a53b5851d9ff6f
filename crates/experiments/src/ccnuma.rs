//! The §2 motivation experiment: why SHARED-TLB fails in CC-NUMA.
//!
//! Runs a private-working-set workload (the pattern first-touch placement
//! handles perfectly) on the CC-NUMA reference machine under all four
//! Figure-1 translation options, and reports how many capacity misses go
//! remote. The paper's claim: with the home selected by the virtual
//! address, "capacity misses are remote most of the time".

use crate::render::TextTable;
use crate::sweep::{self, SweepPoint};
use crate::ExperimentConfig;
use vcoma::sim::ccnuma::{private_streams, NumaMachine, NumaReport, NumaScheme};
use vcoma::{Scheme, SimConfig};

/// Runs the experiment: one sweep point per CC-NUMA scheme, each
/// replaying the same private streams of four SLCs (at least 64 KB) per
/// node, two passes each ([`private_streams`]).
///
/// # Panics
///
/// Panics if a point fails, as the other standard artifacts do.
pub fn run(cfg: &ExperimentConfig) -> Vec<NumaReport> {
    let bytes = (cfg.machine.slc.size_bytes * 4).max(64 << 10);
    let nodes = cfg.machine.nodes;
    let sim_cfg = SimConfig::new(cfg.machine.clone(), Scheme::L0_TLB)
        .with_translation_specs(vec![(32, vcoma::TlbOrg::FullyAssociative)])
        .with_seed(cfg.seed);
    let points = NumaScheme::ALL.iter().map(|&s| SweepPoint::new(s.label(), s)).collect();
    let sim_cfg = &sim_cfg;
    sweep::run(cfg, "ccnuma", points, |&scheme| {
        let report = NumaMachine::new(sim_cfg.clone(), scheme)
            .run_sources(private_streams(nodes, bytes, 2))
            .unwrap_or_else(|e| panic!("simulation failed: {e}"));
        // No `SimReport` here: report the summed node times it would.
        let cycles = report.nodes.iter().map(|n| n.time).sum();
        cfg.resolved(cycles, report.total_refs(), false);
        report
    })
}

/// Renders the rows.
pub fn render(rows: &[NumaReport]) -> TextTable {
    let mut t = TextTable::new(vec!["CC-NUMA scheme", "exec cycles", "xl-misses", "remote %"]);
    for r in rows {
        t.row(vec![
            r.scheme.label().to_string(),
            r.exec_time().to_string(),
            r.translation_misses().to_string(),
            format!("{:.1}", 100.0 * r.remote_fraction()),
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
            shared.remote_fraction() > 0.8,
            "SHARED-TLB must push most misses remote (got {:.2})",
            shared.remote_fraction()
        );
        for r in &rows[..3] {
            assert_eq!(
                r.remote_fraction(), 0.0,
                "{}: first-touch placement keeps private misses local",
                r.scheme
            );
            assert!(shared.exec_time() > r.exec_time(), "{}", r.scheme);
        }
        assert!(render(&rows).render().contains("SHARED-TLB"));
    }
}
