//! The replay loop and per-node state both machines share: the COMA
//! [`Machine`](crate::Machine) and the CC-NUMA
//! [`NumaMachine`](crate::ccnuma::NumaMachine) reach every op through
//! [`Replay::run`], which is generic over the machine ([`Engine`]), so
//! each gets a monomorphised copy with no dynamic dispatch per op.

use crate::breakdown::LatencyBreakdown;
use crate::error::SimError;
use crate::sync::{Barriers, Locks};
use crate::{NodeReport, SimConfig};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vcoma_cachesim::{Flc, Slc};
use vcoma_tlb::{ModelParams, TranslationModel};
use vcoma_types::{AccessKind, Op, OpSource, VAddr};

/// A translation-model constructor, as in
/// [`SchemeSpec::build_model`](vcoma_tlb::SchemeSpec::build_model).
type BuildModel = fn(&ModelParams<'_>) -> Box<dyn TranslationModel>;

/// Fixed sync-episode costs in cycles: a barrier release and a lock
/// acquire/release are short control-message exchanges on the crossbar.
const BARRIER_RELEASE_COST: u64 = 32;
const LOCK_ACQUIRE_COST: u64 = 32;
const LOCK_RELEASE_COST: u64 = 16;

/// Per-node state of either machine: the caches, the translation model,
/// the clock and the latency ledger.
#[derive(Debug)]
pub(crate) struct NodeCtx {
    pub(crate) flc: Flc,
    pub(crate) slc: Slc,
    /// The node's translation model: its private TLB in `L0`–`L3` (and
    /// the post-1998 schemes), its home-side DLB in V-COMA, its TLB or
    /// home shared TLB in the CC-NUMA machine. Owns the lookup, fill,
    /// shootdown and miss-latency schedule.
    pub(crate) xlb: Box<dyn TranslationModel>,
    pub(crate) time: u64,
    /// Fine latency attribution; every cycle of `time` lands in exactly
    /// one of its categories (`fine.total() == time`).
    pub(crate) fine: LatencyBreakdown,
    pub(crate) refs: u64,
    pub(crate) reads: u64,
    pub(crate) writes: u64,
}

impl NodeCtx {
    /// A cold node whose translation model `build` makes from the run's
    /// TLB specs with seed `seed`.
    pub(crate) fn new(cfg: &SimConfig, seed: u64, build: BuildModel) -> Self {
        let m = &cfg.machine;
        NodeCtx {
            flc: Flc::new(m.flc),
            slc: Slc::new(m.slc),
            xlb: build(&ModelParams {
                specs: &cfg.translation_specs,
                seed,
                walk_penalty: m.timing.translation_miss,
                // Victima-style spills donate a quarter of the SLC's
                // frames to cache-resident translations, serviced at
                // SLC-hit latency.
                spill_latency: m.timing.slc_hit,
                spill_entries: m.spill_entries(),
                page_size: m.page_size,
            }),
            time: 0,
            fine: LatencyBreakdown::default(),
            refs: 0,
            reads: 0,
            writes: 0,
        }
    }

    /// Counts one memory reference and charges its issue cycle.
    pub(crate) fn issue(&mut self, kind: AccessKind) {
        self.fine.busy += 1;
        self.refs += 1;
        match kind {
            AccessKind::Read => self.reads += 1,
            AccessKind::Write => self.writes += 1,
        }
    }

    pub(crate) fn into_report(self) -> NodeReport {
        NodeReport {
            time: self.time,
            fine: self.fine,
            refs: self.refs,
            reads: self.reads,
            writes: self.writes,
            translation: self.xlb.all_stats(),
            flc: *self.flc.stats(),
            slc: *self.slc.stats(),
        }
    }
}

/// What a machine supplies to the replay loop.
pub(crate) trait Engine {
    /// Node `n`'s state. The loop sets its clock to each op's start time
    /// before the op runs and to its resume time afterwards, and charges
    /// compute and sync cycles to its ledger.
    fn node(&mut self, n: usize) -> &mut NodeCtx;

    /// Executes one memory reference for node `n`, charging its cycles to
    /// the node's ledger; returns the elapsed cycles.
    fn access(&mut self, n: usize, va: VAddr, kind: AccessKind) -> Result<u64, SimError>;

    /// Executes a protection change of `va`'s page for node `n`, charging
    /// its cycles to the node's ledger; returns the elapsed cycles.
    fn protect(&mut self, n: usize, va: VAddr) -> Result<u64, SimError>;
}

/// The barrier and lock state of one run. It outlives a replay pass, so a
/// warm-up pass and the measured pass share it as they share the machine.
#[derive(Debug)]
pub(crate) struct Replay {
    barriers: Barriers,
    locks: Locks,
    nodes: usize,
}

impl Replay {
    /// Sync state for a machine of `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        Replay {
            barriers: Barriers::new(nodes, BARRIER_RELEASE_COST),
            locks: Locks::new(LOCK_ACQUIRE_COST, LOCK_RELEASE_COST),
            nodes,
        }
    }

    /// Replays one op stream per node to completion once.
    ///
    /// Each node's next op is prefetched as soon as the previous one is
    /// consumed, so "has this node finished?" is a local `Option` check and
    /// lazy sources are pulled exactly one op ahead of the replay point.
    ///
    /// # Errors
    ///
    /// [`SimError::BadTraces`] if there is not exactly one source per
    /// node, [`SimError::Lock`] on lock misuse, [`SimError::Deadlock`] if
    /// some node stays parked on a barrier or lock, and whatever the
    /// engine's accesses return.
    pub(crate) fn run<E: Engine>(
        &mut self,
        engine: &mut E,
        sources: &mut [Box<dyn OpSource + '_>],
    ) -> Result<(), SimError> {
        if sources.len() != self.nodes {
            return Err(SimError::BadTraces { got: sources.len(), want: self.nodes });
        }
        let mut next_op: Vec<Option<Op>> = sources.iter_mut().map(|s| s.next_op()).collect();
        let mut done: Vec<bool> = next_op.iter().map(|o| o.is_none()).collect();
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for (i, o) in next_op.iter().enumerate() {
            if o.is_some() {
                heap.push(Reverse((0, i)));
            }
        }
        // Reused across iterations: the resume list is tiny (one entry for
        // most ops, all nodes for a barrier release) and allocating it per
        // op dominated the replay loop's heap traffic.
        let mut resumes: Vec<(usize, u64)> = Vec::new();

        while let Some(Reverse((t, n))) = heap.pop() {
            engine.node(n).time = t;
            let op = next_op[n].take().expect("a scheduled node has a prefetched op");
            next_op[n] = sources[n].next_op();
            resumes.clear();
            self.step(engine, n, t, op, &mut resumes)?;
            for &(node, resume) in &resumes {
                engine.node(node).time = resume;
                if next_op[node].is_some() {
                    heap.push(Reverse((resume, node)));
                } else {
                    done[node] = true;
                }
            }
        }

        let parked: Vec<u16> =
            done.iter().enumerate().filter(|&(_, &d)| !d).map(|(i, _)| i as u16).collect();
        if !parked.is_empty() {
            return Err(SimError::Deadlock { parked });
        }
        Ok(())
    }

    /// Applies one op for node `n` at time `t`, appending every node it
    /// resumes (with its resume time) to `resumes`.
    fn step<E: Engine>(
        &mut self,
        engine: &mut E,
        n: usize,
        t: u64,
        op: Op,
        resumes: &mut Vec<(usize, u64)>,
    ) -> Result<(), SimError> {
        let lock_error = |lock| move |misuse| SimError::Lock { node: n as u16, lock, misuse };
        let dt = match op {
            Op::Compute(c) => {
                engine.node(n).fine.busy += c;
                c
            }
            Op::Read(va) => engine.access(n, va, AccessKind::Read)?,
            Op::Write(va) => engine.access(n, va, AccessKind::Write)?,
            Op::Protect(va, _) => engine.protect(n, va)?,
            Op::Barrier(id) => {
                for (node, resume, sync) in self.barriers.arrive(id, n, t).into_iter().flatten() {
                    engine.node(node).fine.sync += sync;
                    resumes.push((node, resume));
                }
                return Ok(());
            }
            Op::Lock(id) => {
                if let Some((resume, sync)) = self.locks.acquire(id, n, t).map_err(lock_error(id))? {
                    engine.node(n).fine.sync += sync;
                    resumes.push((n, resume));
                }
                return Ok(());
            }
            Op::Unlock(id) => {
                let ((resume, sync), next) = self.locks.release(id, n, t).map_err(lock_error(id))?;
                engine.node(n).fine.sync += sync;
                resumes.push((n, resume));
                if let Some((waiter, wresume, wsync)) = next {
                    engine.node(waiter).fine.sync += wsync;
                    resumes.push((waiter, wresume));
                }
                return Ok(());
            }
        };
        resumes.push((n, t + dt));
        Ok(())
    }
}
