//! Phase-chunked lazy generation.
//!
//! Every generator in this crate emits its trace as a sequence of
//! barrier-delimited phases over one shared [`TraceBuilder`] (the
//! deterministic RNG is global across nodes, so nodes cannot regenerate
//! their streams independently). [`phased`] wraps a generator restructured
//! as a *step* closure — "emit the next phase" — into one lazy
//! [`OpSource`] per node: a phase is generated only when some node has
//! drained its packed op stream, and each node decodes its own stream in
//! place. The machine pulls each node's stream only up to its next
//! memory or sync op, so a node waiting at the barrier that ends a phase
//! has pulled nothing after it: the next phase is generated once the
//! barrier releases, when every node has consumed the phase, and about
//! one phase is live at once, at about two bytes per op. Before each
//! phase is appended, every node's stream frees the ops it has already
//! decoded, so a node that never quite drains does not accumulate the
//! whole trace.
//!
//! Because the step closure runs exactly the generator's original loop
//! body in the original order, the concatenation of the phases is
//! byte-identical to the eagerly-built trace regardless of which node's
//! pull triggers each phase.

use crate::common::TraceBuilder;
use std::cell::RefCell;
use std::rc::Rc;
use vcoma_types::{Op, OpSource};

/// Generator state shared by all of one workload's per-node sources.
struct SharedGen {
    /// Holds the ops generated but not yet pulled, per node.
    builder: TraceBuilder,
    /// Emits the next phase into `builder`. Returns `false` once no
    /// phases remain (a call finding nothing left to emit must emit
    /// nothing and return `false`).
    step: Box<dyn FnMut(&mut TraceBuilder) -> bool>,
    exhausted: bool,
}

/// One node's view of a phase-chunked generator.
struct PhasedSource {
    gen: Rc<RefCell<SharedGen>>,
    node: usize,
}

impl OpSource for PhasedSource {
    fn next_op(&mut self) -> Option<Op> {
        let mut g = self.gen.borrow_mut();
        loop {
            if let Some(op) = g.builder.pop(self.node) {
                return Some(op);
            }
            if g.exhausted {
                return None;
            }
            let SharedGen { builder, step, exhausted } = &mut *g;
            builder.compact();
            if !(step)(builder) {
                *exhausted = true;
            }
        }
    }
}

/// Wraps a phase-step closure over `builder` into one lazy source per
/// node. `step` is called each time some node exhausts its buffer; it
/// must emit the next phase (or nothing, when done) and return whether
/// more phases remain.
pub(crate) fn phased(
    builder: TraceBuilder,
    step: impl FnMut(&mut TraceBuilder) -> bool + 'static,
) -> Vec<Box<dyn OpSource>> {
    let nodes = builder.nodes();
    let gen = Rc::new(RefCell::new(SharedGen {
        builder,
        step: Box::new(step),
        exhausted: false,
    }));
    (0..nodes)
        .map(|node| Box::new(PhasedSource { gen: Rc::clone(&gen), node }) as Box<dyn OpSource>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use vcoma_types::{materialize, VAddr};

    /// A toy two-phase generator: phase `p` writes address `p` on every
    /// node, then a barrier.
    fn toy(phases: u32) -> Vec<Box<dyn OpSource>> {
        let mut b = TraceBuilder::new(3, 1);
        b.think = 0;
        let mut p = 0u32;
        phased(b, move |b| {
            if p >= phases {
                return false;
            }
            for n in 0..3 {
                b.write(n, VAddr::new(p as u64 * 64));
            }
            b.barrier();
            p += 1;
            p < phases
        })
    }

    #[test]
    fn phased_concatenation_matches_eager_build() {
        let mut b = TraceBuilder::new(3, 1);
        b.think = 0;
        for p in 0..4u32 {
            for n in 0..3 {
                b.write(n, VAddr::new(p as u64 * 64));
            }
            b.barrier();
        }
        assert_eq!(materialize(toy(4)), b.into_traces());
    }

    #[test]
    fn zero_phase_generators_yield_empty_traces() {
        assert_eq!(materialize(toy(0)), vec![Vec::new(); 3]);
    }

    #[test]
    fn phases_are_generated_on_demand() {
        let calls = Rc::new(Cell::new(0u32));
        let seen = Rc::clone(&calls);
        let mut b = TraceBuilder::new(2, 1);
        b.think = 0;
        let mut p = 0u32;
        let mut sources = phased(b, move |b| {
            seen.set(seen.get() + 1);
            for n in 0..2 {
                b.write(n, VAddr::new(p as u64 * 64));
            }
            p += 1;
            p < 8
        });
        assert_eq!(calls.get(), 0, "nothing is generated before the first pull");
        let _ = sources[0].next_op();
        assert_eq!(calls.get(), 1, "one pull generates exactly one phase");
        // Node 1's first op comes from the already-buffered phase.
        let _ = sources[1].next_op();
        assert_eq!(calls.get(), 1);
    }
}
