//! Structured simulation errors.

use crate::audit::AuditError;
use crate::sync::LockMisuse;
use vcoma_types::SyncId;
use vcoma_vm::VmError;

/// A simulation run failed in a structured, reportable way.
///
/// `SimError` covers every way a run can fail: virtual-memory exhaustion
/// the page daemon could not resolve, coherence-invariant violations found
/// by the auditor, a trace/source set that does not match the machine's
/// node count, traces that misuse a lock, traces that deadlock on a
/// barrier or lock some participant never reaches, and compute ops that
/// would run a node's clock past what the replay loop can schedule. A
/// caller surfaces these as values instead of unwinding mid-sweep.
#[derive(Debug)]
pub enum SimError {
    /// The virtual-memory system reported an unrecoverable error while
    /// mapping a page for `node` (e.g. the footprint exceeds the frame
    /// pool and nothing is evictable).
    Vm {
        /// Node whose access triggered the mapping.
        node: u16,
        /// The underlying virtual-memory error.
        source: VmError,
    },
    /// The coherence auditor found a protocol-invariant violation. Boxed:
    /// the report carries the cycle-stamped event trace.
    Audit(Box<AuditError>),
    /// The caller supplied a trace (or op-source) set whose length does not
    /// match the machine's node count.
    BadTraces {
        /// Traces/sources supplied.
        got: usize,
        /// Nodes in the machine — one trace is needed per node.
        want: usize,
    },
    /// A trace used a lock in a way the lock protocol forbids: it released
    /// a lock it does not hold, or acquired one it already holds.
    Lock {
        /// The node whose trace misused the lock.
        node: u16,
        /// The lock.
        lock: SyncId,
        /// What the node did wrong.
        misuse: LockMisuse,
    },
    /// The traces deadlocked: the listed nodes are parked on a barrier or
    /// lock that the remaining traces never reach.
    Deadlock {
        /// The nodes still parked when the machine went idle.
        parked: Vec<u16>,
    },
    /// A compute op would move a node's clock past 2^54 - 1 cycles, the
    /// latest time the replay loop can schedule (a trace file's compute
    /// ops can say anything).
    Clock {
        /// The node whose trace holds the compute op.
        node: u16,
        /// The node's clock when the op came up.
        time: u64,
        /// The op's cycles.
        compute: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Vm { node, source } => {
                write!(f, "virtual memory error on node {node}: {source}")
            }
            SimError::Audit(e) => write!(f, "{e}"),
            SimError::BadTraces { got, want } => {
                write!(f, "need exactly one trace per node: got {got} traces for {want} nodes")
            }
            SimError::Lock { node, lock, misuse } => {
                let what = match misuse {
                    LockMisuse::Reacquire => "acquired a lock it already holds",
                    LockMisuse::ReleaseNotHeld => "released a lock it does not hold",
                };
                write!(f, "node {node} {what} ({lock})")
            }
            SimError::Deadlock { parked } => write!(
                f,
                "deadlock: nodes {parked:?} are parked on a barrier or lock that the \
                 other traces never reach"
            ),
            SimError::Clock { node, time, compute } => write!(
                f,
                "node {node}: a {compute}-cycle compute op at cycle {time} overflows the clock"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Vm { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoma_types::VPage;

    #[test]
    fn display_names_the_failing_node() {
        let e = SimError::Vm { node: 3, source: VmError::NotMapped(VPage::new(7)) };
        let s = e.to_string();
        assert!(s.contains("node 3"), "{s}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn bad_traces_and_deadlock_display_the_details() {
        let e = SimError::BadTraces { got: 3, want: 4 };
        let s = e.to_string();
        assert!(s.contains("one trace per node"), "{s}");
        assert!(s.contains('3') && s.contains('4'), "{s}");
        assert!(std::error::Error::source(&e).is_none());

        let e = SimError::Lock { node: 1, lock: SyncId(4), misuse: LockMisuse::ReleaseNotHeld };
        assert_eq!(e.to_string(), "node 1 released a lock it does not hold (sync#4)");
        assert!(std::error::Error::source(&e).is_none());

        let e = SimError::Deadlock { parked: vec![0, 2] };
        let s = e.to_string();
        assert!(s.contains("deadlock"), "{s}");
        assert!(s.contains("[0, 2]"), "{s}");
        assert!(std::error::Error::source(&e).is_none());
    }
}
