//! Streaming op sources.
//!
//! A simulation run does not need one giant `Vec<Vec<Op>>` in memory: the
//! replay engine consumes each node's operations strictly in order, one at
//! a time. [`OpSource`] is that per-node pull interface — a workload hands
//! the machine one source per node, and ops are generated (or read) lazily
//! as the engine asks for them, so peak memory is bounded by the
//! generator's working set instead of the full trace length.
//!
//! Every iterator of [`Op`]s is an [`OpSource`], so an owned trace is a
//! source as `ops.into_iter()` and a borrowed one as `ops.iter().copied()`;
//! [`trace_sources`] boxes a borrowed trace set, one source per node, and
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

impl<I: Iterator<Item = Op>> OpSource for I {
    fn next_op(&mut self) -> Option<Op> {
        self.next()
    }
}

/// Boxes one zero-copy source per pre-built trace, borrowing the ops.
pub fn trace_sources(traces: &[Vec<Op>]) -> Vec<Box<dyn OpSource + '_>> {
    traces.iter().map(|t| Box::new(t.iter().copied()) as Box<dyn OpSource + '_>).collect()
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
        let mut s = ops().into_iter();
        assert_eq!(s.next_op(), Some(Op::Read(VAddr::new(0x40))));
        assert_eq!(s.next_op(), Some(Op::Compute(3)));
        assert_eq!(s.next_op(), Some(Op::Barrier(SyncId(0))));
        assert_eq!(s.next_op(), None);
        assert_eq!(s.next_op(), None, "exhausted sources stay exhausted");
    }

    #[test]
    fn traces_roundtrip_through_sources() {
        let traces = vec![ops(), Vec::new(), vec![Op::Write(VAddr::new(0x80))]];
        let replayed: Vec<Vec<Op>> = trace_sources(&traces)
            .iter_mut()
            .map(|s| std::iter::from_fn(|| s.next_op()).collect())
            .collect();
        assert_eq!(replayed, traces);
        let owned = traces.iter().map(|t| Box::new(t.clone().into_iter()) as Box<dyn OpSource>);
        assert_eq!(materialize(owned.collect()), traces);
    }
}
