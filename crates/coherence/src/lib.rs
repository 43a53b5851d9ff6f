//! The COMA-F cache-coherence protocol with attraction-memory injection.
//!
//! This crate implements the flat-COMA write-invalidate protocol the paper
//! builds on (Joe's COMA-F \[16\], extended in §4.2): each attraction-memory
//! block is in one of four states (*Invalid*, *Shared*, *Master-shared*,
//! *Exclusive*), a per-block directory entry at the block's **home node**
//! tracks the copy set and the master copy, and replacement of a master or
//! exclusive copy **injects** the block back into the machine — first at the
//! home, then forwarded to random nodes until someone has room (§4.2).
//!
//! The protocol is address-space agnostic: it operates on block numbers and
//! a caller-supplied home node per block. The `L0`–`L3` schemes run it on
//! physical block numbers with homes derived from the round-robin frame
//! assignment; V-COMA runs it on virtual block numbers with homes derived
//! from the virtual page number. The V-COMA twist — translating the virtual
//! address to a *directory address* at the home, through the DLB — plugs in
//! through the [`HomeTranslation`] trait, whose cost is charged on the
//! critical path of every home lookup exactly as in Figure 7 of the paper.
//!
//! # Example
//!
//! ```
//! use vcoma_coherence::{Protocol, NullTranslation};
//! use vcoma_net::Crossbar;
//! use vcoma_types::{MachineConfig, NodeId, Timing};
//!
//! let cfg = MachineConfig::tiny();
//! let mut net = Crossbar::new(cfg.nodes, Timing::paper());
//! let mut xl = NullTranslation;
//! let mut p = Protocol::new(&cfg, 1);
//! let home = NodeId::new(0);
//! p.preload(7, home);
//! // Node 2 reads block 7: a remote miss served by the home's master copy.
//! let out = p.read(NodeId::new(2), 7, home, &mut net, &mut xl, 0);
//! assert!(!out.local_hit);
//! assert!(out.latency > 0);
//! // A second read hits the freshly installed Shared copy.
//! assert!(p.read(NodeId::new(2), 7, home, &mut net, &mut xl, 0).local_hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod am;
mod protocol;
mod state;
mod stats;
mod translation;

pub use am::{AmArray, TAG_BITS};
pub use protocol::{Access, InjectionPolicy, Protocol, TxnHop};
pub use state::{AmState, Directory, Slot};
pub use stats::ProtocolStats;
pub use translation::{HomeTranslation, NullTranslation};
