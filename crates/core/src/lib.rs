//! # vcoma — dynamic address translation in COMA multiprocessors
//!
//! A from-scratch reproduction of Qiu & Dubois, *Options for Dynamic
//! Address Translation in COMAs* (USC CENG 98-08, 1998): a trace-driven
//! simulator of a 32-node flat-COMA multiprocessor that compares five
//! placements of the virtual-address-translation mechanism —
//!
//! * **L0-TLB** — the conventional TLB in front of the first-level cache;
//! * **L1-TLB** — virtual FLC, TLB between FLC and a physical SLC;
//! * **L2-TLB** — virtual FLC + SLC, TLB at the SLC→memory boundary (with
//!   and without the writeback-translation penalty);
//! * **L3-TLB** — virtual caches *and* virtually-indexed attraction memory
//!   with page coloring, TLB used only on local-node misses;
//! * **V-COMA** — the paper's proposal: no physical addresses at all, home
//!   nodes selected by virtual address, and a shared per-home **DLB**
//!   translating virtual addresses to directory addresses inside the
//!   coherence protocol.
//!
//! The workspace builds every substrate from scratch: set-associative
//! caches, the COMA-F write-invalidate protocol with replacement
//! *injection*, a segmented virtual-memory system with page coloring and
//! directory pages, an 8-bit crossbar model, and deterministic generators
//! reproducing the access structure of the paper's six SPLASH-2 workloads.
//!
//! ## Quick start
//!
//! ```
//! use vcoma::{Scheme, Simulator};
//! use vcoma::workloads::{UniformRandom, Workload};
//!
//! // Compare the classic TLB design against V-COMA on a random workload.
//! let workload = UniformRandom { pages: 64, refs_per_node: 500, write_fraction: 0.3 };
//! let l0 = Simulator::new(Scheme::L0_TLB).tiny().run(&workload);
//! let vc = Simulator::new(Scheme::V_COMA).tiny().run(&workload);
//! assert!(vc.translation_misses_total(0) <= l0.translation_misses_total(0));
//! ```
//!
//! The per-table/figure experiment harness lives in the companion
//! `vcoma-experiments` crate; `cargo run -p vcoma-experiments -- --help`
//! regenerates every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vcoma_sim::{
    codec, AuditError, LatencyBreakdown, Machine, NodeReport, SimConfig, SimError, SimReport,
    SimReportBuilder, TimeBreakdown, TlbBank, TraceConfig, LATENCY_CATEGORIES,
};
pub use vcoma_tlb::{
    all_schemes, paper_schemes, registry, AllocPolicy, BankModel, ModelParams, PageSize, Scheme,
    SchemeParseError, SchemeSet, SchemeSpec, Tlb, TlbOrg, TlbStats, TranslationModel, XlatePoint,
    Xlation,
};
pub use vcoma_types::{
    materialize, sources_from_traces, AccessKind, CacheGeometry, ConfigError, DetRng,
    MachineConfig, Materialized, NodeId, Op, OpSource, Protection, SyncId, Timing, VAddr, VPage,
};

/// Cache structures (set-associative arrays, FLC/SLC models).
pub mod cachesim {
    pub use vcoma_cachesim::*;
}

/// The COMA-F coherence protocol.
pub mod coherence {
    pub use vcoma_coherence::*;
}

/// The crossbar interconnect model.
pub mod net {
    pub use vcoma_net::*;
}

/// Deterministic fault injection: seeded plans for message drops,
/// duplication, extra delay, transient home NACKs and node pause windows.
pub mod faults {
    pub use vcoma_faults::*;
}

/// The metrics registry, histograms and event tracing behind
/// [`SimReport::metrics`] and the CLI's `--metrics-out`/`--breakdown`.
pub mod metrics {
    pub use vcoma_metrics::*;
}

/// The virtual-memory subsystem (page tables, coloring, directory pages,
/// pressure profiles).
pub mod vm {
    pub use vcoma_vm::*;
}

/// The SPLASH-2-like workload generators.
pub mod workloads {
    pub use vcoma_workloads::*;
}

/// The machine models (including the CC-NUMA reference machine of paper
/// §2 under [`sim::ccnuma`]).
pub mod sim {
    pub use vcoma_sim::*;
}

use vcoma_workloads::Workload;

/// High-level entry point: configure a machine and scheme, then run
/// workloads.
///
/// `Simulator` is a reusable *configuration*; each [`Simulator::run`]
/// builds a fresh cold machine, so runs are independent and reproducible.
///
/// ```
/// use vcoma::{Scheme, Simulator};
/// use vcoma::workloads::PingPong;
///
/// let report = Simulator::new(Scheme::V_COMA)
///     .tiny()
///     .entries(16)
///     .seed(42)
///     .run(&PingPong { rounds: 50 });
/// assert_eq!(report.total_refs(), 200);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: SimConfig,
}

impl Simulator {
    /// Creates a simulator for `scheme` on the paper's 32-node baseline
    /// machine with an 8-entry fully-associative TLB/DLB.
    pub fn new(scheme: Scheme) -> Self {
        Simulator { cfg: SimConfig::new(MachineConfig::paper_baseline(), scheme) }
    }

    /// Switches to the scaled-down 4-node test machine.
    pub fn tiny(mut self) -> Self {
        self.cfg.machine = MachineConfig::tiny();
        self
    }

    /// Replaces the machine configuration.
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.cfg.machine = machine;
        self
    }

    /// Sets a single fully-associative TLB/DLB of `entries` entries.
    pub fn entries(mut self, entries: u64) -> Self {
        self.cfg = self.cfg.with_entries(entries);
        self
    }

    /// Sets the full TLB/DLB spec bank (first entry is the timing-affecting
    /// primary; the rest are passive shadows for sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn specs(mut self, specs: Vec<(u64, TlbOrg)>) -> Self {
        self.cfg = self.cfg.with_translation_specs(specs);
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg = self.cfg.with_seed(seed);
        self
    }

    /// Enables crossbar contention modelling (off in the paper's model).
    pub fn contention(mut self) -> Self {
        self.cfg = self.cfg.clone().with_contention();
        self
    }

    /// Selects the attraction-memory injection policy (default: the
    /// paper's random forwarding).
    pub fn injection_policy(mut self, policy: coherence::InjectionPolicy) -> Self {
        self.cfg = self.cfg.clone().with_injection_policy(policy);
        self
    }

    /// Enables the warm-up pass: traces are replayed once untimed so
    /// caches, attraction memories and TLB/DLBs start warm, then measured —
    /// the analogue of the paper's preloaded data sets.
    pub fn warmup(mut self) -> Self {
        self.cfg = self.cfg.clone().with_warmup();
        self
    }

    /// Installs a deterministic fault plan (see [`faults::FaultPlan`]):
    /// messages may be dropped, duplicated or delayed at the crossbar
    /// boundary, home directories may answer with transient NACKs, and
    /// nodes may pause. Equal plans and seeds give bit-identical runs.
    pub fn fault_plan(mut self, plan: faults::FaultPlan) -> Self {
        self.cfg = self.cfg.clone().with_fault_plan(plan);
        self
    }

    /// Enables the coherence-invariant auditor: after every remote
    /// transaction the touched blocks are checked, with periodic and
    /// end-of-run full sweeps. Violations surface as [`SimError::Audit`]
    /// from [`Simulator::try_run`].
    pub fn audit(mut self) -> Self {
        self.cfg = self.cfg.clone().with_audit();
        self
    }

    /// Enables causal transaction tracing: (on average) one in
    /// `sample_every` references per node is recorded as a cycle-stamped
    /// span tree (TLB walks, directory occupancy, network, message hops,
    /// retries), bounded by `capacity` spans per node. The sampled set is
    /// a pure function of the seed, so traces are byte-reproducible; the
    /// measured timing is unaffected. Read the result through
    /// [`SimReport::trace`].
    pub fn trace(mut self, sample_every: u64, capacity: usize) -> Self {
        self.cfg = self.cfg.clone().with_trace(TraceConfig { sample_every, capacity });
        self
    }

    /// The assembled simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Streams the workload into a fresh machine and reports statistics.
    ///
    /// # Panics
    ///
    /// Panics on a [`SimError`] (virtual-memory exhaustion or an audit
    /// violation); use [`Simulator::try_run`] to handle those as values.
    pub fn run(&self, workload: &dyn Workload) -> SimReport {
        self.try_run(workload).unwrap_or_else(|e| panic!("simulation failed: {e}"))
    }

    /// Streams the workload into a fresh machine, surfacing simulation
    /// failures as values.
    ///
    /// The replay engine pulls ops from the workload's [`OpSource`]
    /// cursors phase by phase, so peak memory stays bounded by the
    /// buffered window instead of the whole trace.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Vm`] if the virtual-memory system hits an
    /// unrecoverable condition, [`SimError::Audit`] if auditing is enabled
    /// and a coherence invariant is violated, [`SimError::BadTraces`] if
    /// the workload yields the wrong number of per-node sources, and
    /// [`SimError::Deadlock`] if replay stalls with nodes parked at a
    /// barrier that can never fill.
    pub fn try_run(&self, workload: &dyn Workload) -> Result<SimReport, SimError> {
        Machine::new(self.cfg.clone()).run_streaming(|| workload.sources(&self.cfg.machine))
    }

    /// Runs pre-built traces (one per node) on a fresh machine.
    ///
    /// # Panics
    ///
    /// Panics on a [`SimError`]; see also [`Machine::run`].
    pub fn run_traces(&self, traces: Vec<Vec<Op>>) -> SimReport {
        self.try_run_traces(traces).unwrap_or_else(|e| panic!("simulation failed: {e}"))
    }

    /// Runs pre-built traces (one per node) on a fresh machine, surfacing
    /// simulation failures as values.
    ///
    /// # Errors
    ///
    /// See [`Simulator::try_run`].
    pub fn try_run_traces(&self, traces: Vec<Vec<Op>>) -> Result<SimReport, SimError> {
        Machine::new(self.cfg.clone()).run(traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoma_workloads::{PingPong, UniformRandom};

    #[test]
    fn simulator_builder_roundtrip() {
        let s = Simulator::new(Scheme::L3_TLB).tiny().entries(32).seed(5);
        assert_eq!(s.config().scheme, Scheme::L3_TLB);
        assert_eq!(s.config().machine.nodes, 4);
        assert_eq!(s.config().translation_specs, vec![(32, TlbOrg::FullyAssociative)]);
        assert_eq!(s.config().seed, 5);
    }

    #[test]
    fn run_is_reproducible() {
        let s = Simulator::new(Scheme::V_COMA).tiny().seed(11);
        let w = UniformRandom { pages: 32, refs_per_node: 300, write_fraction: 0.5 };
        let a = s.run(&w);
        let b = s.run(&w);
        assert_eq!(a.exec_time(), b.exec_time());
        assert_eq!(a.translation_misses_total(0), b.translation_misses_total(0));
    }

    #[test]
    fn run_traces_matches_run() {
        let random = UniformRandom { pages: 32, refs_per_node: 250, write_fraction: 0.4 };
        let cases: [(Scheme, &dyn Workload); 3] = [
            (Scheme::L0_TLB, &PingPong { rounds: 20 }),
            (Scheme::L0_TLB, &random),
            (Scheme::V_COMA, &random),
        ];
        for (scheme, w) in cases {
            let s = Simulator::new(scheme).tiny();
            let via_workload = s.run(w);
            let via_traces = s.run_traces(w.generate(&s.config().machine));
            assert_eq!(format!("{via_workload:?}"), format!("{via_traces:?}"), "{scheme}");
        }
    }

    #[test]
    fn all_schemes_run_on_the_paper_machine() {
        let w = UniformRandom { pages: 64, refs_per_node: 200, write_fraction: 0.3 };
        for scheme in all_schemes() {
            let r = Simulator::new(scheme).run(&w);
            assert_eq!(r.total_refs(), 32 * 200, "{scheme}");
        }
    }

    #[test]
    fn streaming_and_materialized_runs_are_identical() {
        let w = UniformRandom { pages: 32, refs_per_node: 300, write_fraction: 0.4 };
        for scheme in all_schemes() {
            let s = Simulator::new(scheme).tiny().warmup();
            let streamed = s.try_run(&w).expect("streamed run");
            let built = s.try_run_traces(w.generate(&s.config().machine)).expect("built run");
            assert_eq!(format!("{streamed:?}"), format!("{built:?}"), "{scheme}");
        }
    }

    #[test]
    fn traced_run_keeps_timing_and_exports_chrome_trace() {
        let w = UniformRandom { pages: 32, refs_per_node: 200, write_fraction: 0.3 };
        let plain = Simulator::new(Scheme::V_COMA).tiny().seed(9).run(&w);
        let traced = Simulator::new(Scheme::V_COMA).tiny().seed(9).trace(4, 1 << 16).run(&w);
        assert_eq!(plain.exec_time(), traced.exec_time(), "tracing is observation-only");
        let snap = traced.trace().expect("traced run carries a snapshot");
        assert!(snap.sampled_txns > 0);
        let json = metrics::trace_export::to_chrome_trace([("demo", snap)]);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
    }

    #[test]
    fn faulty_audited_run_completes_deterministically() {
        let plan = faults::FaultPlan::parse("drop=0.01,nack=0.02").unwrap().with_seed(7);
        let s = Simulator::new(Scheme::V_COMA).tiny().fault_plan(plan).audit();
        let w = UniformRandom { pages: 32, refs_per_node: 300, write_fraction: 0.5 };
        let a = s.try_run(&w).expect("faulty run completes");
        let b = s.try_run(&w).expect("faulty run completes");
        assert_eq!(a.exec_time(), b.exec_time());
        assert!(a.protocol().fault_recoveries() + a.protocol().nacks > 0);
    }
}
