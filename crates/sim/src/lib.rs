//! The full-machine COMA simulator.
//!
//! This crate wires the substrates — caches ([`vcoma_cachesim`]), TLB/DLB
//! structures ([`vcoma_tlb`]), virtual memory ([`vcoma_vm`]), the crossbar
//! ([`vcoma_net`]) and the COMA-F protocol ([`vcoma_coherence`]) — into the
//! 32-node machine of the paper's §5.1 and replays per-node workload traces
//! through it under any of the five address-translation schemes.
//!
//! The processors are blocking and sequentially consistent, so the engine
//! is a simple global-time event loop: the node with the smallest local
//! clock executes its next operation atomically (protocol state changes are
//! immediate; latencies are charged from the paper's fixed timing model),
//! barriers and locks synchronise the clocks and accumulate the paper's
//! *sync* time. The §2 CC-NUMA machine ([`ccnuma::NumaMachine`]) runs the
//! same loop and charges the same per-node ledger.
//!
//! Per-reference accounting splits each node's time into the Figure-10
//! categories — *busy*, *sync*, *local stall* (SLC and local AM hits),
//! *remote stall* (coherence transactions) and *translation* (the scheme's
//! TLB/DLB miss services) — and each node carries the scheme's
//! [`vcoma_tlb::TranslationModel`] (a [`TlbBank`] for the paper's schemes),
//! which counts translation misses for a whole vector of TLB/DLB sizes in
//! one run, which is how the experiment harness sweeps Figure 8 efficiently.
//!
//! # Example
//!
//! ```
//! use vcoma_sim::{Machine, SimConfig};
//! use vcoma_tlb::Scheme;
//! use vcoma_types::{MachineConfig, Op, VAddr};
//!
//! let cfg = SimConfig::new(MachineConfig::tiny(), Scheme::V_COMA);
//! let mut machine = Machine::new(cfg);
//! // Two nodes ping-pong a block; the others idle.
//! let mut traces = vec![Vec::new(); 4];
//! for i in 0..10u64 {
//!     traces[0].push(Op::Write(VAddr::new(0x100)));
//!     traces[1].push(Op::Read(VAddr::new(0x100)));
//!     traces[0].push(Op::Compute(i));
//! }
//! let report = machine.run(traces).unwrap();
//! assert_eq!(report.total_refs(), 20);
//! ```
//!
//! [`Machine::run`] returns a [`SimError`] instead of a report when the
//! virtual-memory system hits an unrecoverable condition or — with
//! [`SimConfig::with_audit`] — when the coherence-invariant auditor finds a
//! violation (see [`AuditError`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ccnuma;
pub mod codec;

mod audit;
mod breakdown;
mod config;
mod error;
mod machine;
mod replay;
mod report;
mod sync;
mod trace;

pub use audit::AuditError;
pub use vcoma_tlb::TlbBank;
pub use breakdown::{LatencyBreakdown, TimeBreakdown, LATENCY_CATEGORIES};
pub use config::{SimConfig, TraceConfig};
pub use error::SimError;
pub use machine::Machine;
pub use report::{NodeReport, SimReport, TimeBreakdownF};
pub use sync::LockMisuse;
