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
//! *injection*, a virtual-memory system with page coloring and directory
//! pages, an 8-bit crossbar model, and deterministic generators
//! reproducing the access structure of the paper's six SPLASH-2 workloads.
//!
//! ## Quick start
//!
//! ```
//! use vcoma::{simulate, MachineConfig, Scheme, SimConfig};
//! use vcoma::workloads::UniformRandom;
//!
//! // Compare the classic TLB design against V-COMA on a random workload.
//! let workload = UniformRandom { pages: 64, refs_per_node: 500, write_fraction: 0.3 };
//! let run = |scheme| simulate(SimConfig::new(MachineConfig::tiny(), scheme), &workload);
//! let l0 = run(Scheme::L0_TLB)?;
//! let vc = run(Scheme::V_COMA)?;
//! assert!(vc.translation_misses_total(0) <= l0.translation_misses_total(0));
//! # Ok::<(), vcoma::SimError>(())
//! ```
//!
//! A [`SimConfig`] is the whole description of a run — machine, scheme,
//! TLB/DLB bank, seed and the optional warm-up, contention, fault,
//! audit and tracing switches — and [`simulate`] runs a workload on a
//! fresh cold [`Machine`] built from it, so runs are independent and
//! reproducible. Pre-built traces run through [`Machine::run`].
//!
//! The per-table/figure experiment harness lives in the companion
//! `vcoma-experiments` crate; `cargo run -p vcoma-experiments -- --help`
//! regenerates every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vcoma_sim::{
    codec, AuditError, LatencyBreakdown, LockMisuse, Machine, NodeReport, SimConfig, SimError,
    SimReport, TimeBreakdown, TlbBank, TraceConfig, LATENCY_CATEGORIES,
};
pub use vcoma_tlb::{
    all_schemes, paper_schemes, registry, AllocPolicy, BankModel, ModelParams, PageSize, Scheme,
    SchemeParseError, SchemeSet, SchemeSpec, Tlb, TlbOrg, TlbStats, TranslationModel, XlatePoint,
    Xlation,
};
pub use vcoma_types::{
    materialize, trace_sources, AccessKind, CacheGeometry, ConfigError, DetRng, MachineConfig,
    NodeId, Op, OpSource, Protection, SyncId, Timing, VAddr, VPage, MAX_NODES,
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

/// Streams `workload` into a fresh machine built from `cfg` and reports
/// statistics.
///
/// The replay engine pulls ops from the workload's [`OpSource`] cursors
/// phase by phase, so peak memory stays bounded by the buffered window
/// instead of the whole trace.
///
/// ```
/// use vcoma::{simulate, MachineConfig, Scheme, SimConfig};
/// use vcoma::workloads::PingPong;
///
/// let cfg = SimConfig::new(MachineConfig::tiny(), Scheme::V_COMA).with_entries(16).with_seed(42);
/// let report = simulate(cfg, &PingPong { rounds: 50 }).expect("run completes");
/// assert_eq!(report.total_refs(), 200);
/// ```
///
/// # Errors
///
/// As [`Machine::run_streaming`]: [`SimError::Vm`] on virtual-memory
/// exhaustion, [`SimError::Audit`] on a coherence violation when auditing
/// is enabled, [`SimError::BadTraces`] if the workload yields the wrong
/// number of per-node sources, [`SimError::Lock`] on lock misuse and
/// [`SimError::Deadlock`] if replay stalls at a barrier that can never
/// fill.
pub fn simulate(cfg: SimConfig, workload: &dyn Workload) -> Result<SimReport, SimError> {
    let machine = cfg.machine.clone();
    Machine::new(cfg).run_streaming(|| workload.sources(&machine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoma_workloads::{PingPong, UniformRandom};

    fn tiny(scheme: Scheme) -> SimConfig {
        SimConfig::new(MachineConfig::tiny(), scheme)
    }

    #[test]
    fn run_is_reproducible() {
        let cfg = tiny(Scheme::V_COMA).with_seed(11);
        let w = UniformRandom { pages: 32, refs_per_node: 300, write_fraction: 0.5 };
        let a = simulate(cfg.clone(), &w).unwrap();
        let b = simulate(cfg, &w).unwrap();
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
            let via_workload = simulate(tiny(scheme), w).unwrap();
            let traces = w.generate(&MachineConfig::tiny());
            let via_traces = Machine::new(tiny(scheme)).run(traces).unwrap();
            assert_eq!(format!("{via_workload:?}"), format!("{via_traces:?}"), "{scheme}");
        }
    }

    #[test]
    fn all_schemes_run_on_the_paper_machine() {
        let w = UniformRandom { pages: 64, refs_per_node: 200, write_fraction: 0.3 };
        for scheme in all_schemes() {
            let r = simulate(SimConfig::new(MachineConfig::paper_baseline(), scheme), &w).unwrap();
            assert_eq!(r.total_refs(), 32 * 200, "{scheme}");
        }
    }

    #[test]
    fn streaming_and_materialized_runs_are_identical() {
        let w = UniformRandom { pages: 32, refs_per_node: 300, write_fraction: 0.4 };
        for scheme in all_schemes() {
            let cfg = tiny(scheme).with_warmup();
            let streamed = simulate(cfg.clone(), &w).expect("streamed run");
            let traces = w.generate(&MachineConfig::tiny());
            let built = Machine::new(cfg).run(traces).expect("built run");
            assert_eq!(format!("{streamed:?}"), format!("{built:?}"), "{scheme}");
        }
    }

    #[test]
    fn traced_run_keeps_timing_and_exports_chrome_trace() {
        let w = UniformRandom { pages: 32, refs_per_node: 200, write_fraction: 0.3 };
        let cfg = tiny(Scheme::V_COMA).with_seed(9);
        let plain = simulate(cfg.clone(), &w).unwrap();
        let traced =
            simulate(cfg.with_trace(TraceConfig { sample_every: 4, capacity: 1 << 16 }), &w)
                .unwrap();
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
        let cfg = tiny(Scheme::V_COMA).with_fault_plan(plan).with_audit();
        let w = UniformRandom { pages: 32, refs_per_node: 300, write_fraction: 0.5 };
        let a = simulate(cfg.clone(), &w).expect("faulty run completes");
        let b = simulate(cfg, &w).expect("faulty run completes");
        assert_eq!(a.exec_time(), b.exec_time());
        assert!(a.protocol().fault_recoveries() + a.protocol().nacks > 0);
    }
}
