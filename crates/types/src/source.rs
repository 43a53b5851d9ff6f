//! Streaming op sources.
//!
//! A simulation run does not need one giant `Vec<Vec<Op>>` in memory: the
//! replay engine consumes each node's operations strictly in order, one at
//! a time. [`OpSource`] is that per-node pull interface — a workload hands
//! the machine one source per node, and ops are generated (or read) lazily
//! as the engine asks for them, so peak memory is bounded by the
//! generator's working set instead of the full trace length.
//!
//! [`Materialized`] adapts a pre-built trace to the interface for tests,
//! trace files and any caller that already owns a `Vec<Op>`;
//! [`materialize`] drains a full set of sources back into plain traces.
//!
//! Sources are deliberately **not** required to be `Send`: a machine pulls
//! from all of its sources on one thread, and per-node sources of one
//! workload typically share generator state (the generators' deterministic
//! RNG is global across nodes), so implementations are free to use
//! `Rc<RefCell<..>>` without paying for atomics in the replay hot loop.

use crate::Op;

/// A lazy, single-pass stream of operations for one node.
pub trait OpSource {
    /// Returns the node's next operation, or `None` when the trace ends.
    fn next_op(&mut self) -> Option<Op>;
}

/// An [`OpSource`] over a pre-built op vector.
///
/// The adapter for callers that already hold a full trace: tests, the
/// trace-file loader, and fixed-trace workloads.
#[derive(Debug, Clone)]
pub struct Materialized {
    ops: std::vec::IntoIter<Op>,
}

impl Materialized {
    /// Wraps one node's pre-built ops.
    pub fn new(ops: Vec<Op>) -> Self {
        Materialized { ops: ops.into_iter() }
    }
}

impl OpSource for Materialized {
    fn next_op(&mut self) -> Option<Op> {
        self.ops.next()
    }
}

/// Wraps pre-built per-node traces as boxed sources, one per node.
pub fn sources_from_traces(traces: Vec<Vec<Op>>) -> Vec<Box<dyn OpSource>> {
    traces
        .into_iter()
        .map(|t| Box::new(Materialized::new(t)) as Box<dyn OpSource>)
        .collect()
}

/// Drains every source to completion, returning plain per-node traces.
pub fn materialize(sources: Vec<Box<dyn OpSource>>) -> Vec<Vec<Op>> {
    sources
        .into_iter()
        .map(|mut s| {
            let mut ops = Vec::new();
            while let Some(op) = s.next_op() {
                ops.push(op);
            }
            ops
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SyncId, VAddr};

    fn ops() -> Vec<Op> {
        vec![Op::Read(VAddr::new(0x40)), Op::Compute(3), Op::Barrier(SyncId(0))]
    }

    #[test]
    fn materialized_yields_in_order_then_none() {
        let mut s = Materialized::new(ops());
        assert_eq!(s.next_op(), Some(Op::Read(VAddr::new(0x40))));
        assert_eq!(s.next_op(), Some(Op::Compute(3)));
        assert_eq!(s.next_op(), Some(Op::Barrier(SyncId(0))));
        assert_eq!(s.next_op(), None);
        assert_eq!(s.next_op(), None, "exhausted sources stay exhausted");
    }

    #[test]
    fn traces_roundtrip_through_sources() {
        let traces = vec![ops(), Vec::new(), vec![Op::Write(VAddr::new(0x80))]];
        let roundtripped = materialize(sources_from_traces(traces.clone()));
        assert_eq!(roundtripped, traces);
    }
}
