//! Design-choice ablations beyond the paper's figures (DESIGN.md §5).
//!
//! * **Injection policy** — the paper's random-forward protocol vs a home
//!   that displaces a Shared copy immediately.
//! * **Crossbar contention** — the paper's contention-free model vs
//!   output-port serialisation.
//! * **Page coloring for L3** — the cost of the colored allocator's
//!   conflicts relative to the round-robin physical COMA (run the same
//!   workload under `L2-TLB` (round-robin frames) and `L3-TLB` (colored)
//!   and compare AM-level behaviour).

use crate::render::TextTable;
use crate::sweep::{self, SweepPoint};
use crate::ExperimentConfig;
use vcoma::workloads::Workload;
use vcoma::{Scheme, SimReport};

/// One ablation outcome: a labelled pair of runs.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Label of the variant pair (e.g. `contention off/on`).
    pub what: &'static str,
    /// Baseline execution time (cycles).
    pub base_exec: u64,
    /// Variant execution time (cycles).
    pub variant_exec: u64,
    /// Baseline figure of merit (ablation-specific, see `what`).
    pub base_metric: f64,
    /// Variant figure of merit.
    pub variant_metric: f64,
}

fn exec(report: &SimReport) -> u64 {
    report.exec_time()
}

/// Runs one ablation as a sweep with one point per benchmark; `eval`
/// produces the base/variant report pair for one workload.
fn sweep_pairs<F>(
    name: &str,
    what: &'static str,
    cfg: &ExperimentConfig,
    eval: F,
    metric: impl Fn(&SimReport) -> f64 + Sync,
) -> Vec<AblationRow>
where
    F: Fn(&dyn Workload) -> (SimReport, SimReport) + Sync,
{
    let points =
        cfg.benchmarks().into_iter().map(|w| SweepPoint::new(w.name(), w)).collect();
    sweep::run(cfg, name, points, |w| {
        let (base, variant) = eval(w.as_ref());
        AblationRow {
            benchmark: w.name().to_string(),
            what,
            base_exec: exec(&base),
            variant_exec: exec(&variant),
            base_metric: metric(&base),
            variant_metric: metric(&variant),
        }
    })
}

/// Contention ablation: V-COMA with and without crossbar port contention.
pub fn contention(cfg: &ExperimentConfig) -> Vec<AblationRow> {
    sweep_pairs(
        "ablation_contention",
        "crossbar contention off/on",
        cfg,
        |w| {
            (
                cfg.run_cached(cfg.simulator(Scheme::V_COMA), w),
                cfg.run_cached(cfg.simulator(Scheme::V_COMA).with_contention(), w),
            )
        },
        |r| r.mean_breakdown().remote_stall,
    )
}

/// Coloring ablation: the same workload under round-robin physical frames
/// (`L2-TLB`, virtually-indexed caches but physical AM) vs colored frames
/// (`L3-TLB`, virtual AM). The metric is protocol spills + injections —
/// the AM conflict pressure the coloring constraint induces.
pub fn coloring(cfg: &ExperimentConfig) -> Vec<AblationRow> {
    sweep_pairs(
        "ablation_coloring",
        "AM indexing: physical(rr)/virtual(colored)",
        cfg,
        |w| {
            (
                cfg.run_cached(cfg.simulator(Scheme::L2_TLB), w),
                cfg.run_cached(cfg.simulator(Scheme::L3_TLB), w),
            )
        },
        |r| (r.protocol().injections() + r.protocol().spills) as f64,
    )
}

/// Injection-policy ablation: the paper's random forwarding (§4.2, where
/// the home only accepts with a spare Invalid way) against a home that
/// displaces one of its Shared copies immediately. The metric is total
/// injection forwarding hops — the protocol traffic the policy saves.
pub fn injection(cfg: &ExperimentConfig) -> Vec<AblationRow> {
    use vcoma::coherence::InjectionPolicy;
    sweep_pairs(
        "ablation_injection",
        "injection: random-forward vs home-displace",
        cfg,
        |w| {
            (
                cfg.run_cached(cfg.simulator(Scheme::V_COMA), w),
                cfg.run_cached(
                    cfg.simulator(Scheme::V_COMA)
                        .with_injection_policy(InjectionPolicy::HomeDisplace),
                    w,
                ),
            )
        },
        |r| r.protocol().injection_hops as f64,
    )
}

/// Software-managed address translation (Jacob & Mudge, cited in §3.3 as a
/// 0-entry `L2-TLB` that traps on every SLC miss): compare the paper's
/// 8-entry L2 TLB against the 0-entry variant. The metric is translation
/// cycles per node.
pub fn software_managed(cfg: &ExperimentConfig) -> Vec<AblationRow> {
    sweep_pairs(
        "ablation_software_managed",
        "L2 TLB: 8-entry vs software-managed (0-entry)",
        cfg,
        |w| {
            (
                cfg.run_cached(cfg.simulator(Scheme::L2_TLB_NO_WB).with_entries(8), w),
                cfg.run_cached(cfg.simulator(Scheme::L2_TLB_NO_WB).with_entries(0), w),
            )
        },
        |r| r.mean_breakdown().translation,
    )
}

/// Renders ablation rows.
pub fn render(rows: &[AblationRow]) -> TextTable {
    let mut t = TextTable::new(vec![
        "Benchmark",
        "ablation",
        "base exec",
        "variant exec",
        "base metric",
        "variant metric",
    ]);
    for r in rows {
        t.row(vec![
            r.benchmark.clone(),
            r.what.to_string(),
            r.base_exec.to_string(),
            r.variant_exec.to_string(),
            format!("{:.1}", r.base_metric),
            format!("{:.1}", r.variant_metric),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_never_speeds_things_up() {
        let cfg = ExperimentConfig::smoke();
        for r in contention(&cfg) {
            assert!(
                r.variant_exec >= r.base_exec,
                "{}: contention made execution faster ({} < {})",
                r.benchmark,
                r.variant_exec,
                r.base_exec
            );
        }
    }

    #[test]
    fn home_displace_never_forwards_more() {
        let cfg = ExperimentConfig::smoke();
        for r in injection(&cfg) {
            assert!(
                r.variant_metric <= r.base_metric,
                "{}: home-displace must not take more hops ({} vs {})",
                r.benchmark,
                r.variant_metric,
                r.base_metric
            );
        }
    }

    #[test]
    fn coloring_rows_render() {
        let cfg = ExperimentConfig::smoke();
        let rows = coloring(&cfg);
        assert_eq!(rows.len(), 6);
        assert!(render(&rows).render().contains("colored"));
    }

    #[test]
    fn software_managed_translation_costs_more() {
        let cfg = ExperimentConfig::smoke();
        for r in software_managed(&cfg) {
            assert!(
                r.variant_metric >= r.base_metric,
                "{}: a 0-entry TLB cannot translate for less ({} vs {})",
                r.benchmark,
                r.variant_metric,
                r.base_metric
            );
            assert!(r.variant_exec >= r.base_exec, "{}", r.benchmark);
        }
    }
}
