//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section (§5) plus the ablations listed in `DESIGN.md`.
//!
//! Each module owns one artifact and exposes a `run(&ExperimentConfig)`
//! returning plain data plus a `render(..)` producing the paper-style
//! table. The CLI binary (`cargo run -p vcoma-experiments`) calls these
//! entry points, so the numbers in `EXPERIMENTS.md` are regenerable from
//! it.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — benchmark parameters |
//! | [`fig8`] | Figure 8 — translation misses/node vs TLB/DLB size |
//! | [`table2`] | Table 2 — miss rate per processor reference |
//! | [`table3`] | Table 3 — TLB size equivalent to an 8-entry DLB |
//! | [`fig9`] | Figure 9 — direct-mapped vs fully-associative |
//! | [`table4`] | Table 4 — translation time / stall time |
//! | [`fig10`] | Figure 10 — execution-time breakdown |
//! | [`fig11`] | Figure 11 — global-page-set pressure profile |
//! | [`table5`] | Table 5 — post-1998 registry schemes vs the 1998 options |
//! | [`ablations`] | design-choice ablations (injection policy, contention, coloring) |
//! | [`ccnuma`] | §2 motivation: SHARED-TLB in CC-NUMA vs first-touch placement |
//! | [`breakdown`] | fine latency attribution (`--breakdown`, `--metrics-out`) |
//! | [`faults`] | fault-injection robustness sweep (`--fault-plan`, `--fault-seed`) |
//! | [`trace`] | causal transaction tracing: critical-path percentiles and Perfetto export (`--trace-out`) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod artifacts;
pub mod breakdown;
pub mod cache;
pub mod ccnuma;
pub mod client;
pub mod faults;
pub mod fig10;
pub mod fig11;
pub mod fig8;
pub mod fig9;
pub mod progress;
pub mod protocol;
pub mod render;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod trace;

use std::sync::Arc;

use vcoma::workloads::{all_benchmarks, Workload};
use vcoma::{simulate, MachineConfig, Scheme, SchemeSet, SimConfig, SimError, SimReport};

/// Shared configuration for all experiments.
#[derive(Clone)]
pub struct ExperimentConfig {
    /// Machine under test (defaults to the paper's 32-node baseline).
    pub machine: MachineConfig,
    /// Workload scale: the fraction of each benchmark's iterations
    /// replayed. `1.0` regenerates the full traces; the default `0.1`
    /// keeps a full sweep under a few minutes.
    pub scale: f64,
    /// Master seed for all runs.
    pub seed: u64,
    /// Worker threads for sweep evaluation; `0` means one per available
    /// core. The sweep output is byte-identical for any value.
    pub jobs: usize,
    /// Optional scheme filter (`--schemes a,b,c`): artifacts intersect
    /// their natural roster with this set. `None` (the default) runs every
    /// artifact's full roster, which is what every golden fixture records.
    pub schemes: Option<SchemeSet>,
    /// Optional content-addressed result store: when set, every sweep
    /// point routed through [`ExperimentConfig::run_cached`] is served
    /// from the store on a key hit and persisted on a miss. `None` (the
    /// default, and the CLI's direct mode) simulates everything; because
    /// cached reports decode byte-identical to fresh ones, the rendered
    /// artifacts are the same either way.
    pub cache: Option<Arc<dyn cache::ReportCache>>,
    /// Optional progress observer: sweeps report grid-point starts and
    /// completions, and [`ExperimentConfig::run_cached`] reports each
    /// resolution (cache hit or simulation) with its cycle cost. `None`
    /// (the default) costs nothing; sinks never influence artifact
    /// bytes — see [`progress::ProgressSink`].
    pub progress: Option<Arc<dyn progress::ProgressSink>>,
}

impl std::fmt::Debug for ExperimentConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentConfig")
            .field("machine", &self.machine)
            .field("scale", &self.scale)
            .field("seed", &self.seed)
            .field("jobs", &self.jobs)
            .field("schemes", &self.schemes)
            .field("cache", &self.cache.as_ref().map(|_| "ReportCache"))
            .field("progress", &self.progress.as_ref().map(|_| "ProgressSink"))
            .finish()
    }
}

impl ExperimentConfig {
    /// The default setup: paper machine, 10 % workload scale.
    pub fn new() -> Self {
        ExperimentConfig {
            machine: MachineConfig::paper_baseline(),
            scale: 0.1,
            seed: 0x5EED,
            jobs: 0,
            schemes: None,
            cache: None,
            progress: None,
        }
    }

    /// A very small setup for smoke tests and benches: the paper machine
    /// at ~1 % scale. (The node count stays at 32: the benchmarks'
    /// footprints need the full machine's memory, as in the paper.)
    pub fn smoke() -> Self {
        ExperimentConfig { scale: 0.01, ..Self::new() }
    }

    /// Sets the workload scale.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the sweep worker count (`0` = one per available core).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Replaces the machine under test (e.g. a 64- or 256-node scale-up
    /// of the paper baseline).
    pub fn with_machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Restricts every artifact to the schemes in `set` (the `--schemes`
    /// CLI flag). Artifacts keep their natural roster order; schemes
    /// outside an artifact's roster are ignored.
    pub fn with_schemes(mut self, set: SchemeSet) -> Self {
        self.schemes = Some(set);
        self
    }

    /// An artifact's effective roster: `base()` intersected with the
    /// `--schemes` filter, in `base`'s order. With no filter the roster is
    /// unchanged — the byte-exact golden path.
    pub fn schemes_or(&self, base: fn() -> Vec<Scheme>) -> Vec<Scheme> {
        let roster = base();
        match &self.schemes {
            None => roster,
            Some(set) => set.filter(&roster),
        }
    }

    /// The worker count sweeps actually use: `jobs`, or the machine's
    /// available parallelism when `jobs` is `0`.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }

    /// The paper's six benchmarks at this configuration's scale.
    pub fn benchmarks(&self) -> Vec<Box<dyn Workload>> {
        all_benchmarks(self.scale)
    }

    /// Installs a content-addressed result store; every sweep point
    /// routed through [`ExperimentConfig::run_cached`] consults it.
    pub fn with_cache(mut self, cache: Arc<dyn cache::ReportCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Installs a progress observer; sweeps and
    /// [`ExperimentConfig::run_cached`] report to it. Artifact outputs
    /// are byte-identical with or without one.
    pub fn with_progress(mut self, sink: Arc<dyn progress::ProgressSink>) -> Self {
        self.progress = Some(sink);
        self
    }

    /// Runs `sim` on `w`, consulting the configured result store first.
    ///
    /// Without a store this is exactly [`vcoma::simulate`]. With one, the
    /// point's [`cache::PointKey`] — built from the full [`SimConfig`],
    /// the workload, the scale and the process
    /// [`cache::code_fingerprint`] — is looked up; a hit returns the
    /// stored report (byte-identical to a fresh run by the codec's
    /// round-trip guarantee), a miss simulates and persists. Either way
    /// the progress sink hears the resolution once, and a fresh run's
    /// cost is added to the sweep point this thread is evaluating.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] of a failed run; nothing is stored or
    /// reported for it.
    pub fn try_run_cached(&self, sim: SimConfig, w: &dyn Workload) -> Result<SimReport, SimError> {
        let store = self.cache.as_ref().map(|store| {
            (store, cache::point_key(&sim, w, self.scale, cache::code_fingerprint()))
        });
        let hit = store.as_ref().and_then(|(store, key)| store.load(key, &sim));
        let from_cache = hit.is_some();
        let report = match hit {
            Some(report) => report,
            None => {
                let report = simulate(sim, w)?;
                if let Some((store, key)) = &store {
                    store.store(key, &report);
                }
                report
            }
        };
        self.resolved(report.simulated_cycles(), report.total_refs(), from_cache);
        Ok(report)
    }

    /// [`ExperimentConfig::try_run_cached`], panicking on a failed run.
    ///
    /// # Panics
    ///
    /// Panics on a [`SimError`] (virtual-memory exhaustion or an audit
    /// violation).
    pub fn run_cached(&self, sim: SimConfig, w: &dyn Workload) -> SimReport {
        self.try_run_cached(sim, w).unwrap_or_else(|e| panic!("simulation failed: {e}"))
    }

    /// The one place a simulation's cost is reported: the progress sink
    /// hears every resolution, and a fresh run's `cycles` and `refs` are
    /// added to the sweep point being evaluated on this thread (a store
    /// hit simulated nothing, so it adds nothing).
    pub(crate) fn resolved(&self, cycles: u64, refs: u64, from_cache: bool) {
        if let Some(p) = &self.progress {
            p.point_resolved(cycles, from_cache);
        }
        if !from_cache {
            sweep::meter(cycles, refs);
        }
    }

    /// The run configuration for `scheme` on this configuration's machine
    /// and seed.
    pub fn simulator(&self, scheme: Scheme) -> SimConfig {
        SimConfig::new(self.machine.clone(), scheme).with_seed(self.seed)
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::new()
    }
}

/// The TLB/DLB size axis of Figures 8 and 9.
pub const SIZE_AXIS: [u64; 7] = [8, 16, 32, 64, 128, 256, 512];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_paper_machine() {
        let c = ExperimentConfig::new();
        assert_eq!(c.machine.nodes, 32);
        assert_eq!(c.benchmarks().len(), 6);
    }

    #[test]
    fn smoke_config_is_small() {
        let c = ExperimentConfig::smoke();
        assert_eq!(c.machine.nodes, 32);
        assert!(c.scale < 0.1);
    }

    #[test]
    fn effective_jobs_resolves_auto() {
        let c = ExperimentConfig::smoke();
        assert!(c.effective_jobs() >= 1);
        assert_eq!(c.with_jobs(3).effective_jobs(), 3);
    }

    #[test]
    fn simulator_carries_machine_and_seed() {
        let c = ExperimentConfig::smoke();
        let s = c.simulator(Scheme::V_COMA);
        assert_eq!(s.machine.nodes, 32);
        assert_eq!(s.seed, c.seed);
    }
}
