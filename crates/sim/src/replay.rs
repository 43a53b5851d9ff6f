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
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use vcoma_cachesim::{Flc, Slc};
use vcoma_tlb::{ModelParams, TranslationModel};
use vcoma_types::{AccessKind, Op, OpSource, VAddr, MAX_NODES};

/// A translation-model constructor, as in
/// [`SchemeSpec::build_model`](vcoma_tlb::SchemeSpec::build_model).
type BuildModel = fn(&ModelParams<'_>) -> Box<dyn TranslationModel>;

/// Fixed sync-episode costs in cycles: a barrier release and a lock
/// acquire/release are short control-message exchanges on the crossbar.
const BARRIER_RELEASE_COST: u64 = 32;
const LOCK_ACQUIRE_COST: u64 = 32;
const LOCK_RELEASE_COST: u64 = 16;

/// One category of the [`LatencyBreakdown`] ledger, named by
/// [`NodeCtx::charge`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Category {
    Busy,
    Sync,
    TlbWalk,
    DlbLookup,
    LocalStall,
    Coherence,
    Network,
    Queue,
    Fault,
}

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
    /// The node's clock. Only [`NodeCtx::charge`] moves it (and the
    /// warm-up reset zeroes it).
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

    /// Moves the node's clock on by `cycles` and charges them to
    /// `category`, so `fine.total() == time` holds by construction.
    #[inline]
    pub(crate) fn charge(&mut self, cycles: u64, category: Category) {
        let f = &mut self.fine;
        *match category {
            Category::Busy => &mut f.busy,
            Category::Sync => &mut f.sync,
            Category::TlbWalk => &mut f.tlb_walk,
            Category::DlbLookup => &mut f.dlb_lookup,
            Category::LocalStall => &mut f.local_stall,
            Category::Coherence => &mut f.coherence,
            Category::Network => &mut f.network,
            Category::Queue => &mut f.queue,
            Category::Fault => &mut f.fault,
        } += cycles;
        self.time += cycles;
    }

    /// Counts one memory reference; the machine charges its issue cycle.
    pub(crate) fn count(&mut self, kind: AccessKind) {
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
///
/// An op starts at its node's clock, and every cycle it takes moves that
/// clock through [`NodeCtx::charge`]: the loop reads where the op left the
/// clock instead of adding up returned latencies. The loop itself charges
/// compute ops as `busy` and sync waits as `sync`.
pub(crate) trait Engine {
    /// Node `n`'s state.
    fn node(&mut self, n: usize) -> &mut NodeCtx;

    /// Executes one memory reference for node `n`, charging its cycles to
    /// the node.
    fn access(&mut self, n: usize, va: VAddr, kind: AccessKind) -> Result<(), SimError>;

    /// Executes a protection change of `va`'s page for node `n`, charging
    /// its cycles to the node.
    fn protect(&mut self, n: usize, va: VAddr) -> Result<(), SimError>;
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
        assert!(nodes as u64 <= MAX_NODES, "{nodes} nodes do not fit the heap key");
        Replay {
            barriers: Barriers::new(nodes, BARRIER_RELEASE_COST),
            locks: Locks::new(LOCK_ACQUIRE_COST, LOCK_RELEASE_COST),
            nodes,
        }
    }

    /// Replays one op stream per node to completion once.
    ///
    /// Only ops that touch shared state are scheduled. A `Compute` op
    /// changes nothing but its own node's clock and ledger, and no op reads
    /// another node's clock, so [`advance`] charges compute ops as it pulls
    /// them and the `(time, node)` heap holds each node at the start time
    /// of its next memory or sync op: lazy sources are pulled up to one
    /// non-compute op ahead of the replay point. The node that just ran is
    /// rescheduled by overwriting the heap top (one sift-down); only a sync
    /// op, which may park its node or resume others, pops and pushes. The
    /// memory and sync ops run in the same `(time, node)` order as when
    /// every compute op took a heap step of its own.
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
        let mut next_op: Vec<Option<Op>> = Vec::with_capacity(self.nodes);
        let mut heap = BinaryHeap::with_capacity(self.nodes);
        for (n, source) in sources.iter_mut().enumerate() {
            let op = advance(n, engine.node(n), source.as_mut())?;
            if op.is_some() {
                heap.push(Reverse(key(engine.node(n).time, n)));
            }
            next_op.push(op);
        }
        let mut done: Vec<bool> = next_op.iter().map(Option::is_none).collect();
        // Reused across sync ops: the nodes a sync op resumes (one for
        // most, all of them for a barrier release).
        let mut resumes: Vec<usize> = Vec::new();

        loop {
            let Some(mut top) = heap.peek_mut() else { break };
            let Reverse(k) = *top;
            let (t, n) = (k >> NODE_BITS, (k & NODE_MASK) as usize);
            debug_assert_eq!(engine.node(n).time, t, "a scheduled node waits at its start time");
            let op = next_op[n].take().expect("a scheduled node has a pending op");
            match op {
                Op::Read(va) => engine.access(n, va, AccessKind::Read)?,
                Op::Write(va) => engine.access(n, va, AccessKind::Write)?,
                Op::Protect(va, _) => engine.protect(n, va)?,
                sync => {
                    PeekMut::pop(top);
                    resumes.clear();
                    self.sync(engine, n, t, sync, &mut resumes)?;
                    for &node in &resumes {
                        next_op[node] =
                            advance(node, engine.node(node), sources[node].as_mut())?;
                        match next_op[node] {
                            Some(_) => heap.push(Reverse(key(engine.node(node).time, node))),
                            None => done[node] = true,
                        }
                    }
                    continue;
                }
            }
            next_op[n] = advance(n, engine.node(n), sources[n].as_mut())?;
            match next_op[n] {
                Some(_) => *top = Reverse(key(engine.node(n).time, n)),
                None => {
                    done[n] = true;
                    PeekMut::pop(top);
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

    /// Applies sync op `op` (a barrier arrival, lock acquire or release)
    /// for node `n` at time `t`, appending every node it resumes to the
    /// empty `resumes` and charging each one's wait up to its resume time
    /// as `sync`. A parked node is not appended.
    fn sync<E: Engine>(
        &mut self,
        engine: &mut E,
        n: usize,
        t: u64,
        op: Op,
        resumes: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        let lock_error = |lock| move |misuse| SimError::Lock { node: n as u16, lock, misuse };
        // Charges `node`'s wait from its clock to its resume time `at`.
        let mut wake = |node: usize, at: u64| {
            let ctx = engine.node(node);
            debug_assert!(at >= ctx.time, "node {node} resumes at {at}, before its clock");
            ctx.charge(at - ctx.time, Category::Sync);
            node
        };
        match op {
            Op::Barrier(id) => {
                if let Some(release) = self.barriers.arrive(id, n, t, resumes) {
                    for &node in resumes.iter() {
                        wake(node, release);
                    }
                }
            }
            Op::Lock(id) => {
                if let Some(at) = self.locks.acquire(id, n, t).map_err(lock_error(id))? {
                    resumes.push(wake(n, at));
                }
            }
            Op::Unlock(id) => {
                let (at, next) = self.locks.release(id, n, t).map_err(lock_error(id))?;
                resumes.push(wake(n, at));
                if let Some((waiter, at)) = next {
                    resumes.push(wake(waiter, at));
                }
            }
            other => unreachable!("{other} is not a sync op"),
        }
        Ok(())
    }
}

/// Bits of a heap key below the time: node indices are below
/// [`MAX_NODES`].
const NODE_BITS: u32 = MAX_NODES.trailing_zeros();
const NODE_MASK: u64 = MAX_NODES - 1;

/// The latest clock a heap key holds: 2^54 - 1 cycles.
pub(crate) const MAX_CLOCK: u64 = u64::MAX >> NODE_BITS;

/// The heap key of node `n` waiting at `time`: `(time, n)` packed into one
/// `u64` that orders the same way. [`advance`] keeps compute ops from
/// running a clock past [`MAX_CLOCK`]; a later clock would corrupt the
/// order, so it panics instead.
fn key(time: u64, n: usize) -> u64 {
    assert!(time <= MAX_CLOCK, "clock {time} overflows the heap key");
    time << NODE_BITS | n as u64
}

/// Pulls node `n`'s next op that touches shared state, charging every
/// `Compute` op on the way as `busy`. Returns `None` once the source is
/// exhausted, and [`SimError::Clock`] for a compute op that would move the
/// clock past [`MAX_CLOCK`].
fn advance(n: usize, node: &mut NodeCtx, src: &mut dyn OpSource) -> Result<Option<Op>, SimError> {
    loop {
        match src.next_op() {
            Some(Op::Compute(c)) if c <= MAX_CLOCK.saturating_sub(node.time) => {
                node.charge(c, Category::Busy);
            }
            Some(Op::Compute(c)) => {
                return Err(SimError::Clock { node: n as u16, time: node.time, compute: c });
            }
            op => return Ok(op),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoma_tlb::Scheme;
    use vcoma_types::{DetRng, MachineConfig, Protection, SyncId};

    /// One engine call as [`Recorder`] logs it: the node, its clock when
    /// the call was made, the call (`read`, `write` or `protect`) and the
    /// address.
    type Call = (usize, u64, &'static str, u64);

    /// An engine that logs every `access` and `protect` call and charges
    /// a latency derived from the call and the caller's clock, so two
    /// loops end in the same state only if they make the same calls at
    /// the same times in the same order.
    struct Recorder {
        nodes: Vec<NodeCtx>,
        log: Vec<Call>,
    }

    impl Recorder {
        fn new(nodes: usize) -> Self {
            let cfg = SimConfig::new(MachineConfig::tiny(), Scheme::L0_TLB);
            let build = cfg.scheme.spec().build_model;
            Recorder {
                nodes: (0..nodes as u64).map(|i| NodeCtx::new(&cfg, i, build)).collect(),
                log: Vec::new(),
            }
        }

        fn call(&mut self, n: usize, what: &'static str, va: VAddr) {
            let t = self.nodes[n].time;
            self.log.push((n, t, what, va.raw()));
            self.nodes[n].charge(1 + (va.raw() ^ t) % 40, Category::LocalStall);
        }

        /// Every node's final clock and ledger.
        fn states(&self) -> Vec<(u64, LatencyBreakdown)> {
            self.nodes.iter().map(|n| (n.time, n.fine)).collect()
        }
    }

    impl Engine for Recorder {
        fn node(&mut self, n: usize) -> &mut NodeCtx {
            &mut self.nodes[n]
        }

        fn access(&mut self, n: usize, va: VAddr, kind: AccessKind) -> Result<(), SimError> {
            let what = match kind {
                AccessKind::Read => "read",
                AccessKind::Write => "write",
            };
            self.call(n, what, va);
            Ok(())
        }

        fn protect(&mut self, n: usize, va: VAddr) -> Result<(), SimError> {
            self.call(n, "protect", va);
            Ok(())
        }
    }

    /// The reference the shared loop must match: the loop as it was
    /// before compute ops were folded into the clock, where every op,
    /// compute included, takes one heap pop and one push, and each node's
    /// source is pulled exactly one op ahead. After every op it checks that
    /// each node's ledger still sums to its clock.
    fn reference_run<E: Engine>(
        replay: &mut Replay,
        engine: &mut E,
        sources: &mut [Box<dyn OpSource + '_>],
    ) -> Result<(), SimError> {
        let mut next_op: Vec<Option<Op>> = sources.iter_mut().map(|s| s.next_op()).collect();
        let mut done: Vec<bool> = next_op.iter().map(Option::is_none).collect();
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for (i, o) in next_op.iter().enumerate() {
            if o.is_some() {
                heap.push(Reverse((0, i)));
            }
        }
        let mut resumes: Vec<usize> = Vec::new();
        while let Some(Reverse((t, n))) = heap.pop() {
            assert_eq!(engine.node(n).time, t, "a scheduled node waits at its start time");
            let op = next_op[n].take().expect("a scheduled node has a prefetched op");
            next_op[n] = sources[n].next_op();
            resumes.clear();
            match op {
                Op::Compute(c) => engine.node(n).charge(c, Category::Busy),
                Op::Read(va) => engine.access(n, va, AccessKind::Read)?,
                Op::Write(va) => engine.access(n, va, AccessKind::Write)?,
                Op::Protect(va, _) => engine.protect(n, va)?,
                sync => replay.sync(engine, n, t, sync, &mut resumes)?,
            }
            if !matches!(op, Op::Barrier(_) | Op::Lock(_) | Op::Unlock(_)) {
                resumes.push(n);
            }
            for node in 0..done.len() {
                let ctx = engine.node(node);
                assert_eq!(ctx.time, ctx.fine.total(), "node {node} after {op}");
            }
            for &node in &resumes {
                if next_op[node].is_some() {
                    heap.push(Reverse((engine.node(node).time, node)));
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

    /// Replays `traces` through the shared loop and through the reference
    /// and asserts identical engine logs, results and final node states.
    /// Returns the shared loop's result.
    fn check_against_reference(traces: &[Vec<Op>]) -> Result<(), SimError> {
        let nodes = traces.len();
        let mut fast = Recorder::new(nodes);
        let got = Replay::new(nodes).run(&mut fast, &mut vcoma_types::trace_sources(traces));
        let mut slow = Recorder::new(nodes);
        let want =
            reference_run(&mut Replay::new(nodes), &mut slow, &mut vcoma_types::trace_sources(traces));
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{traces:?}");
        assert_eq!(fast.log, slow.log, "{traces:?}");
        assert_eq!(fast.states(), slow.states(), "{traces:?}");
        got
    }

    /// A run of one to four compute ops, some of them zero cycles.
    fn computes(rng: &mut DetRng, ops: &mut Vec<Op>) {
        for _ in 0..=rng.gen_index(4) {
            ops.push(Op::Compute(rng.gen_range(12)));
        }
    }

    /// Random per-node traces: memory ops, protection changes and
    /// non-nested lock sections between runs of compute ops, separated by
    /// barriers every node reaches. A compute run may precede any op,
    /// including a barrier, a lock and an unlock, and may end the trace.
    /// Some seeds give one node only compute ops (it skips every barrier)
    /// or drop one node's last barrier, so the others never leave it.
    fn random_traces(seed: u64) -> Vec<Vec<Op>> {
        let mut rng = DetRng::new(seed);
        let nodes = 1 + rng.gen_index(5);
        let barriers = rng.gen_index(4);
        let mut traces: Vec<Vec<Op>> = (0..nodes)
            .map(|_| {
                let mut ops = Vec::new();
                for b in 0..=barriers {
                    for _ in 0..rng.gen_index(6) {
                        if rng.gen_index(2) == 0 {
                            computes(&mut rng, &mut ops);
                        }
                        let va = VAddr::new(rng.gen_range(1 << 12));
                        match rng.gen_index(10) {
                            0 => ops.push(Op::Protect(va, Protection::read_only())),
                            1 => {
                                let lock = SyncId(rng.gen_range(2) as u32);
                                ops.push(Op::Lock(lock));
                                for _ in 0..rng.gen_index(3) {
                                    computes(&mut rng, &mut ops);
                                    ops.push(Op::Write(va));
                                }
                                if rng.gen_index(2) == 0 {
                                    computes(&mut rng, &mut ops);
                                }
                                ops.push(Op::Unlock(lock));
                            }
                            2..=5 => ops.push(Op::Read(va)),
                            _ => ops.push(Op::Write(va)),
                        }
                    }
                    if rng.gen_index(2) == 0 {
                        computes(&mut rng, &mut ops);
                    }
                    if b < barriers {
                        ops.push(Op::Barrier(SyncId(b as u32)));
                    }
                }
                ops
            })
            .collect();
        match rng.gen_index(6) {
            0 => {
                let n = rng.gen_index(nodes);
                traces[n].retain(|op| matches!(op, Op::Compute(_)));
            }
            1 if barriers > 0 => {
                let n = rng.gen_index(nodes);
                let last = traces[n].iter().rposition(|op| matches!(op, Op::Barrier(_)));
                traces[n].remove(last.expect("the trace has a barrier"));
            }
            _ => {}
        }
        traces
    }

    #[test]
    fn sync_waits_are_charged_from_each_nodes_clock() {
        let (lock, barrier) = (SyncId(0), SyncId(1));
        let traces = vec![
            // Acquires the free lock at 0 (resumes at 32), holds it for 100
            // cycles and releases it at 132 (resumes at 148).
            vec![Op::Lock(lock), Op::Compute(100), Op::Unlock(lock), Op::Barrier(barrier)],
            // Asks at 10, is handed the lock at 132 + 32 = 164 and
            // releases it at once (resumes at 180).
            vec![Op::Compute(10), Op::Lock(lock), Op::Unlock(lock), Op::Barrier(barrier)],
        ];
        let mut engine = Recorder::new(2);
        Replay::new(2).run(&mut engine, &mut vcoma_types::trace_sources(&traces)).unwrap();
        // Both leave the barrier at 180 + 32 = 212.
        let ledger = |busy, sync| (212, LatencyBreakdown { busy, sync, ..Default::default() });
        assert_eq!(engine.states(), vec![ledger(100, 32 + 16 + 64), ledger(10, 154 + 16 + 32)]);
    }

    #[test]
    fn folding_compute_matches_the_reference_loop_on_random_traces() {
        let (mut ok, mut deadlocked) = (0, 0);
        for seed in 0..400 {
            match check_against_reference(&random_traces(seed)) {
                Ok(()) => ok += 1,
                Err(SimError::Deadlock { .. }) => deadlocked += 1,
                Err(e) => panic!("seed {seed}: {e}"),
            }
        }
        assert!(ok > 100 && deadlocked > 20, "{ok} completed, {deadlocked} deadlocked");
    }

    #[test]
    fn folding_compute_matches_the_reference_loop_at_every_op_boundary() {
        let (a, b) = (VAddr::new(0x40), VAddr::new(0x80));
        let lock = SyncId(1);
        let traces = vec![
            // Compute runs before a lock, inside it, before the unlock and
            // before a barrier, and a trailing compute.
            vec![
                Op::Compute(3),
                Op::Compute(0),
                Op::Compute(5),
                Op::Lock(lock),
                Op::Compute(2),
                Op::Write(a),
                Op::Compute(4),
                Op::Unlock(lock),
                Op::Compute(7),
                Op::Barrier(SyncId(0)),
                Op::Read(b),
                Op::Compute(9),
            ],
            // Contends for the lock with node 0 and ends on a barrier.
            vec![Op::Compute(1), Op::Lock(lock), Op::Read(a), Op::Unlock(lock), Op::Barrier(SyncId(0))],
            // Only compute ops, including a zero-cycle one.
            vec![Op::Compute(50), Op::Compute(0), Op::Compute(25)],
        ];
        // Node 2 never reaches barrier 0: nodes 0 and 1 stay parked on it.
        match check_against_reference(&traces) {
            Err(SimError::Deadlock { parked }) => assert_eq!(parked, vec![0, 1]),
            other => panic!("expected a deadlock, got {other:?}"),
        }
        let mut released = traces.clone();
        released[2].insert(1, Op::Barrier(SyncId(0)));
        check_against_reference(&released).expect("every node reaches the barrier");
    }
}
