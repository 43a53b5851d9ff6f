//! The operations that a workload trace feeds to the simulator.

use crate::{Protection, VAddr};

/// Identifier of a synchronisation object (barrier or lock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SyncId(pub u32);

impl std::fmt::Display for SyncId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sync#{}", self.0)
    }
}

/// Whether a memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Write`].
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessKind::Read => f.write_str("read"),
            AccessKind::Write => f.write_str("write"),
        }
    }
}

/// One event of a per-node workload trace.
///
/// The simulator replays a stream of `Op`s per node under sequential
/// consistency: each memory access blocks the issuing processor until it
/// completes, `Compute` advances the node's clock without touching memory
/// (the paper's "busy" time), and the synchronisation operations generate
/// the paper's "sync" time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A shared-data load from a virtual address.
    Read(VAddr),
    /// A shared-data store to a virtual address.
    Write(VAddr),
    /// Local computation for the given number of processor cycles.
    Compute(u64),
    /// Global barrier; the node waits until all nodes have arrived.
    Barrier(SyncId),
    /// Acquire a lock; the node waits until the lock is free.
    Lock(SyncId),
    /// Release a previously acquired lock.
    Unlock(SyncId),
    /// Change the protection of the page containing the address (paper
    /// §4.3). The simulator models the *consistency* cost — page-table
    /// update plus TLB/DLB shootdowns and holder notifications — not
    /// fault enforcement.
    Protect(VAddr, Protection),
}

impl Op {
    /// Returns the accessed address for `Read`/`Write`, otherwise `None`.
    pub const fn addr(self) -> Option<VAddr> {
        match self {
            Op::Read(a) | Op::Write(a) => Some(a),
            _ => None,
        }
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Read(a) => write!(f, "read {a}"),
            Op::Write(a) => write!(f, "write {a}"),
            Op::Compute(c) => write!(f, "compute {c}"),
            Op::Barrier(id) => write!(f, "barrier {id}"),
            Op::Lock(id) => write!(f, "lock {id}"),
            Op::Unlock(id) => write!(f, "unlock {id}"),
            Op::Protect(a, p) => write!(f, "protect {a} {p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_accessors() {
        let a = VAddr::new(0x100);
        assert_eq!(Op::Read(a).addr(), Some(a));
        assert_eq!(Op::Write(a).addr(), Some(a));
        assert_eq!(Op::Compute(5).addr(), None);
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
        assert_eq!(AccessKind::Read.to_string(), "read");
        assert_eq!(AccessKind::Write.to_string(), "write");
    }

    #[test]
    fn op_display() {
        assert_eq!(Op::Read(VAddr::new(16)).to_string(), "read v:0x10");
        assert_eq!(Op::Compute(7).to_string(), "compute 7");
        assert_eq!(Op::Barrier(SyncId(2)).to_string(), "barrier sync#2");
        assert_eq!(Op::Lock(SyncId(2)).to_string(), "lock sync#2");
        assert_eq!(Op::Unlock(SyncId(2)).to_string(), "unlock sync#2");
        assert_eq!(
            Op::Protect(VAddr::new(16), Protection::read_only()).to_string(),
            "protect v:0x10 r-"
        );
    }
}
