//! Core types shared by every crate of the V-COMA simulator workspace.
//!
//! This crate reproduces the vocabulary of *Options for Dynamic Address
//! Translation in COMAs* (Qiu & Dubois, 1998): virtual addresses, virtual
//! pages and physical frames, node identifiers, the simulated machine's geometry
//! ([`MachineConfig`]), the fixed-latency timing model ([`Timing`]), the
//! memory operations replayed by the simulator ([`Op`]), and a deterministic
//! pseudo-random number generator ([`DetRng`]) so that every simulation run
//! is exactly reproducible from its seed.
//!
//! # Example
//!
//! ```
//! use vcoma_types::{MachineConfig, VAddr, NodeId};
//!
//! let cfg = MachineConfig::paper_baseline();
//! assert_eq!(cfg.nodes, 32);
//! // The home node of a virtual page is given by its low page-number bits.
//! let page = VAddr::new(0x4000).page(cfg.page_size); // page 4
//! assert_eq!(cfg.home_of_vpage(page), NodeId::new(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod config;
mod error;
mod hash;
mod op;
mod protection;
mod rng;
mod source;

pub use addr::{PFrame, VAddr, VPage};
pub use config::{CacheGeometry, MachineConfig, MachineConfigBuilder, Timing, MAX_ASSOC, MAX_NODES};
pub use error::ConfigError;
pub use hash::{IntBuildHasher, IntHasher, IntMap};
pub use op::{AccessKind, Op, SyncId};
pub use protection::Protection;
pub use rng::DetRng;
pub use source::{materialize, trace_sources, OpSource};

/// Identifier of a processing node in the simulated machine.
///
/// Nodes are numbered densely from `0` to `nodes - 1`.
///
/// ```
/// use vcoma_types::NodeId;
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node identifier from a dense index.
    pub const fn new(index: u16) -> Self {
        NodeId(index)
    }

    /// Returns the dense index of this node as a `usize`, suitable for
    /// indexing per-node vectors.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw index as `u16`.
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::new(17);
        assert_eq!(n.index(), 17);
        assert_eq!(n.raw(), 17);
        assert_eq!(NodeId::from(17u16), n);
        assert_eq!(n.to_string(), "n17");
    }

    #[test]
    fn node_id_ordering() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::default(), NodeId::new(0));
    }

    #[test]
    fn types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NodeId>();
        assert_send_sync::<VAddr>();
        assert_send_sync::<MachineConfig>();
        assert_send_sync::<DetRng>();
        assert_send_sync::<Op>();
    }
}
