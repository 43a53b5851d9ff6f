//! The machine: nodes, memory hierarchy, translation schemes and the
//! trace-replay engine.

use crate::audit::AuditError;
use crate::breakdown::LatencyBreakdown;
use crate::error::SimError;
use crate::sync::{Barriers, Locks};
use crate::trace::Tracer;
use crate::{SimConfig, SimReport};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vcoma_cachesim::{Flc, Slc};
use vcoma_coherence::{Access, HomeTranslation, NullTranslation, Protocol};
use vcoma_faults::LinkFaultInjector;
use vcoma_metrics::{Event, HistogramSlot, Mergeable, MetricsRegistry};
use vcoma_net::{Crossbar, MsgKind};
use vcoma_tlb::{AllocPolicy, ModelParams, TranslationModel, XlatePoint};
use vcoma_types::{AccessKind, MachineConfig, NodeId, Op, OpSource, VAddr, VPage};
use vcoma_vm::{
    ColoringAllocator, DirectoryAllocator, FrameAllocator, PageTable, PressureProfile,
    RoundRobinAllocator,
};

/// Fixed sync-episode costs in cycles: a barrier release and a lock
/// acquire/release are short control-message exchanges on the crossbar.
const BARRIER_RELEASE_COST: u64 = 32;
const LOCK_ACQUIRE_COST: u64 = 32;
const LOCK_RELEASE_COST: u64 = 16;

/// Per-node simulation state.
#[derive(Debug)]
struct NodeCtx {
    flc: Flc,
    slc: Slc,
    /// The node's translation model: its private TLB in `L0`–`L3` (and
    /// the post-1998 schemes), its home-side DLB in V-COMA. Built by the
    /// scheme's [`vcoma_tlb::SchemeSpec::build_model`]; owns the lookup,
    /// fill, shootdown and miss-latency schedule.
    xlb: Box<dyn TranslationModel>,
    time: u64,
    /// Fine latency attribution; every cycle of `time` lands in exactly
    /// one of its categories (`fine.total() == time`).
    fine: LatencyBreakdown,
    refs: u64,
    reads: u64,
    writes: u64,
}

/// Per-scheme hot-path decisions, precomputed once at machine build time.
///
/// `access_inner`/`translate` used to re-derive every one of these on every
/// memory reference: chase `scheme.spec()`, evaluate the `XlatePoint`
/// ordering predicates, and divide by block/page sizes. All of it is fixed
/// for the lifetime of a machine, so it is folded here into plain booleans
/// and shift counts (every size is a validated power of two). The table is
/// `Copy`: the access path grabs one local snapshot and never touches the
/// spec again.
#[derive(Debug, Clone, Copy)]
struct PathTable {
    /// `spec.translates_at(XlatePoint::EveryRef)`.
    xlate_every_ref: bool,
    /// `spec.translates_at(XlatePoint::FlcMiss)`.
    xlate_flc_miss: bool,
    /// `spec.translates_at(XlatePoint::SlcMiss)`.
    xlate_slc_miss: bool,
    /// `spec.translates_before_txn()`.
    xlate_before_txn: bool,
    /// `scheme.writebacks_translate()`.
    wb_translate: bool,
    virtual_flc: bool,
    virtual_slc: bool,
    virtual_am: bool,
    virtual_protocol: bool,
    /// `log2(page_size)`: `byte >> page_shift` is the page number.
    page_shift: u32,
    /// `log2(block_size)` per level: `byte >> shift` is the block number.
    flc_shift: u32,
    slc_shift: u32,
    am_shift: u32,
    /// FLC blocks per SLC block, for eviction-span back-invalidation.
    slc_flc_ratio: u64,
}

impl PathTable {
    fn new(cfg: &SimConfig) -> Self {
        let spec = cfg.scheme.spec();
        let m = &cfg.machine;
        PathTable {
            xlate_every_ref: spec.translates_at(XlatePoint::EveryRef),
            xlate_flc_miss: spec.translates_at(XlatePoint::FlcMiss),
            xlate_slc_miss: spec.translates_at(XlatePoint::SlcMiss),
            xlate_before_txn: spec.translates_before_txn(),
            wb_translate: cfg.scheme.writebacks_translate(),
            virtual_flc: spec.virtual_flc,
            virtual_slc: spec.virtual_slc,
            virtual_am: spec.virtual_am,
            virtual_protocol: spec.virtual_protocol,
            page_shift: m.page_size.trailing_zeros(),
            flc_shift: m.flc.block_size.trailing_zeros(),
            slc_shift: m.slc.block_size.trailing_zeros(),
            am_shift: m.am.block_size.trailing_zeros(),
            slc_flc_ratio: m.slc.block_size / m.flc.block_size,
        }
    }
}

/// The simulated COMA machine.
///
/// Build one from a [`SimConfig`] and feed it one trace per node with
/// [`Machine::run`], or one lazy [`OpSource`] per node with
/// [`Machine::run_streaming`]. A machine is single-use: a run consumes the
/// warm-up state; build a fresh machine per experiment point.
#[derive(Debug)]
pub struct Machine {
    cfg: SimConfig,
    /// Precomputed per-scheme hot-path decision table (see [`PathTable`]).
    path: PathTable,
    nodes: Vec<NodeCtx>,
    protocol: Protocol,
    net: Crossbar,
    page_table: PageTable,
    phys_alloc: PhysAlloc,
    dir_alloc: DirectoryAllocator,
    barriers: Barriers,
    locks: Locks,
    /// Pages the page daemon swapped out to make room (§4.3). The swap
    /// I/O itself is not timed — the paper's runs are preloaded — but the
    /// count makes over-capacity workloads visible instead of fatal.
    page_faults: u64,
    /// Remote transactions completed since the last periodic audit sweep
    /// (only maintained when auditing is enabled).
    audited_txns: u64,
    /// Machine-level metrics: per-request latency histograms and traced
    /// events (TLB/DLB misses, shootdowns, swap-outs). Observation-only —
    /// never feeds back into timing.
    metrics: MetricsRegistry,
    /// `latency.read` and `latency.write` in `metrics`, resolved once so
    /// the per-reference path records without a search by name.
    latency_slots: [HistogramSlot; 2],
    /// Causal transaction tracer ([`SimConfig::trace`]); `None` keeps the
    /// replay hot path free of any tracing work.
    tracer: Option<Tracer>,
}

/// Zero-copy [`OpSource`] over a borrowed trace slice: [`Machine::run`]
/// streams pre-built traces through the same engine as lazy sources
/// without cloning the ops.
struct SliceSource<'a> {
    ops: std::slice::Iter<'a, Op>,
}

impl OpSource for SliceSource<'_> {
    fn next_op(&mut self) -> Option<Op> {
        self.ops.next().copied()
    }
}

/// The physical frame allocator matching the scheme.
#[derive(Debug)]
enum PhysAlloc {
    RoundRobin(RoundRobinAllocator),
    Coloring(ColoringAllocator),
    /// V-COMA has no physical address space.
    None,
}

impl PhysAlloc {
    fn as_mut(&mut self) -> &mut dyn FrameAllocator {
        match self {
            PhysAlloc::RoundRobin(a) => a,
            PhysAlloc::Coloring(a) => a,
            PhysAlloc::None => unreachable!("physical allocation requested in V-COMA"),
        }
    }
}

/// V-COMA's home-side translation: the protocol asks the home node's DLB
/// for the directory address of the accessed page (paper Figure 7).
///
/// The DLB is keyed by the page number with the home-selector bits
/// stripped (`vpage / nodes`): every page served by home `h` satisfies
/// `vpage ≡ h (mod nodes)`, so indexing a direct-mapped DLB with the raw
/// page number would collapse all of a home's pages into a single set.
struct DlbHook<'a> {
    nodes: &'a mut [NodeCtx],
    metrics: &'a mut MetricsRegistry,
    blocks_per_page: u64,
    node_count: u64,
    now: u64,
}

impl HomeTranslation for DlbHook<'_> {
    fn home_lookup(&mut self, home: NodeId, block: u64) -> u64 {
        let key = VPage::new(block / self.blocks_per_page / self.node_count);
        let x = self.nodes[home.index()].xlb.lookup(key);
        if x.missed {
            self.metrics.trace(Event {
                cycle: self.now,
                node: home.raw(),
                kind: "dlb_miss",
                addr: key.raw(),
            });
        }
        x.cycles
    }
}

impl Machine {
    /// Builds the machine for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the machine configuration is invalid (see
    /// [`MachineConfig::validate`]).
    pub fn new(cfg: SimConfig) -> Self {
        cfg.machine.validate().expect("invalid machine configuration");
        let m = &cfg.machine;
        let spec = cfg.scheme.spec();
        // Victima-style spills donate a quarter of the SLC's frames to
        // cache-resident translations, serviced at SLC-hit latency.
        let spill_entries = (m.slc.size_bytes / m.slc.block_size / 4).max(8);
        let nodes = (0..m.nodes)
            .map(|i| NodeCtx {
                flc: Flc::new(m.flc),
                slc: Slc::new(m.slc),
                xlb: (spec.build_model)(&ModelParams {
                    specs: &cfg.translation_specs,
                    seed: cfg.seed ^ (i << 17),
                    walk_penalty: m.timing.translation_miss,
                    spill_latency: m.timing.slc_hit,
                    spill_entries,
                    page_size: m.page_size,
                }),
                time: 0,
                fine: LatencyBreakdown::default(),
                refs: 0,
                reads: 0,
                writes: 0,
            })
            .collect();
        let phys_alloc = match spec.alloc {
            AllocPolicy::Directory => PhysAlloc::None,
            AllocPolicy::Coloring => PhysAlloc::Coloring(ColoringAllocator::new(m)),
            AllocPolicy::RoundRobin => PhysAlloc::RoundRobin(RoundRobinAllocator::new(m)),
        };
        let mut net = if cfg.contention {
            Crossbar::new(m.nodes, m.timing).with_contention().with_block_size(m.am.block_size)
        } else {
            Crossbar::new(m.nodes, m.timing).with_block_size(m.am.block_size)
        };
        let mut protocol =
            Protocol::new(m, cfg.seed).with_injection_policy(cfg.injection_policy);
        if let Some(plan) = &cfg.fault_plan {
            net = net.with_fault_hook(Box::new(LinkFaultInjector::new(
                plan.clone(),
                m.nodes as usize,
            )));
            protocol = protocol.with_faults(plan.clone());
        }
        let mut metrics = MetricsRegistry::new(cfg.event_capacity);
        let latency_slots =
            [metrics.histogram_slot("latency.read"), metrics.histogram_slot("latency.write")];
        Machine {
            path: PathTable::new(&cfg),
            nodes,
            protocol,
            net,
            page_table: PageTable::new(m.clone()),
            phys_alloc,
            dir_alloc: DirectoryAllocator::new(m),
            barriers: Barriers::new(m.nodes as usize, BARRIER_RELEASE_COST),
            locks: Locks::new(LOCK_ACQUIRE_COST, LOCK_RELEASE_COST),
            page_faults: 0,
            audited_txns: 0,
            metrics,
            latency_slots,
            tracer: cfg.trace.map(|tc| Tracer::new(tc, cfg.seed, m.nodes as usize)),
            cfg,
        }
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Replays one trace per node to completion and reports statistics.
    ///
    /// The traces stream through [`Machine::run_streaming`] via zero-copy
    /// cursors over the borrowed op slices.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Vm`] if the virtual-memory system hits an
    /// unrecoverable condition, [`SimError::Audit`] if auditing is enabled
    /// and a coherence invariant is violated, [`SimError::BadTraces`] if
    /// the number of traces does not match the node count, and
    /// [`SimError::Deadlock`] if some node parks on a barrier or lock that
    /// the other traces never reach.
    pub fn run(self, traces: Vec<Vec<Op>>) -> Result<SimReport, SimError> {
        self.run_streaming(|| {
            traces
                .iter()
                .map(|t| Box::new(SliceSource { ops: t.iter() }) as Box<dyn OpSource + '_>)
                .collect()
        })
    }

    /// Replays one lazy [`OpSource`] per node to completion, never holding
    /// more than the sources' working set in memory.
    ///
    /// `make_sources` is called once per replay pass — twice when
    /// [`SimConfig::warmup`] is set (the warm-up pass regenerates the same
    /// stream), once otherwise. Each call must yield one source per node
    /// producing the same ops each time.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`]; [`SimError::BadTraces`] if a factory call does
    /// not yield exactly one source per node.
    pub fn run_streaming<'a, F>(mut self, mut make_sources: F) -> Result<SimReport, SimError>
    where
        F: FnMut() -> Vec<Box<dyn OpSource + 'a>>,
    {
        let passes = if self.cfg.warmup { 2 } else { 1 };
        for pass in 0..passes {
            let mut sources = make_sources();
            if sources.len() != self.nodes.len() {
                return Err(SimError::BadTraces { got: sources.len(), want: self.nodes.len() });
            }
            self.replay(&mut sources)?;
            if pass + 1 < passes {
                self.reset_stats();
            }
        }
        if self.cfg.audit {
            // End-of-run full sweep: the quiescent machine must satisfy
            // every invariant globally, not just on recently-touched blocks.
            let end = self.nodes.iter().map(|n| n.time).max().unwrap_or(0);
            self.audit_full(end)?;
        }
        Ok(self.into_report())
    }

    /// Zeroes every statistics counter while keeping all warm state
    /// (cache/AM contents, TLB/DLB mappings, page tables).
    fn reset_stats(&mut self) {
        for n in &mut self.nodes {
            n.time = 0;
            n.fine = LatencyBreakdown::default();
            n.refs = 0;
            n.reads = 0;
            n.writes = 0;
            n.flc.reset_stats();
            n.slc.reset_stats();
            n.xlb.reset_stats();
        }
        self.protocol.reset_stats();
        self.net.reset_stats();
        self.metrics.reset();
        if let Some(tr) = self.tracer.as_mut() {
            tr.reset();
        }
    }

    /// Replays one op stream per node to completion once.
    ///
    /// Each node's next op is prefetched as soon as the previous one is
    /// consumed, so "has this node finished?" is a local `Option` check and
    /// lazy sources are pulled exactly one op ahead of the replay point.
    fn replay<'a>(&mut self, sources: &mut [Box<dyn OpSource + 'a>]) -> Result<(), SimError> {
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
            self.nodes[n].time = t;
            let op = next_op[n].take().expect("a scheduled node has a prefetched op");
            next_op[n] = sources[n].next_op();
            resumes.clear();
            self.step_op(n, t, op, &mut resumes)?;
            for &(node, resume) in &resumes {
                self.nodes[node].time = resume;
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
    ///
    /// The caller has already set `nodes[n].time = t` and is responsible
    /// for applying the resume times to the nodes' clocks.
    fn step_op(
        &mut self,
        n: usize,
        t: u64,
        op: Op,
        resumes: &mut Vec<(usize, u64)>,
    ) -> Result<(), SimError> {
        match op {
            Op::Compute(c) => {
                self.nodes[n].fine.busy += c;
                resumes.push((n, t + c));
            }
            Op::Read(va) => {
                let dt = self.access(n, va, AccessKind::Read)?;
                resumes.push((n, t + dt));
            }
            Op::Write(va) => {
                let dt = self.access(n, va, AccessKind::Write)?;
                resumes.push((n, t + dt));
            }
            Op::Barrier(id) => {
                if let Some(released) = self.barriers.arrive(id, n, t) {
                    for (node, resume, sync) in released {
                        self.nodes[node].fine.sync += sync;
                        resumes.push((node, resume));
                    }
                }
            }
            Op::Lock(id) => {
                if let Some((resume, sync)) = self.locks.acquire(id, n, t) {
                    self.nodes[n].fine.sync += sync;
                    resumes.push((n, resume));
                }
            }
            Op::Unlock(id) => {
                let ((resume, sync), next) = self.locks.release(id, n, t);
                self.nodes[n].fine.sync += sync;
                resumes.push((n, resume));
                if let Some((waiter, wresume, wsync)) = next {
                    self.nodes[waiter].fine.sync += wsync;
                    resumes.push((waiter, wresume));
                }
            }
            Op::Protect(va, prot) => {
                let dt = self.protect(n, va, prot)?;
                resumes.push((n, t + dt));
            }
        }
        Ok(())
    }

    /// Executes one memory reference for node `n`; returns the elapsed
    /// cycles and feeds the per-request latency histograms.
    fn access(&mut self, n: usize, va: VAddr, kind: AccessKind) -> Result<u64, SimError> {
        let dt = self.access_inner(n, va, kind)?;
        let slot = match kind {
            AccessKind::Read => self.latency_slots[0],
            AccessKind::Write => self.latency_slots[1],
        };
        self.metrics.observe_slot(slot, dt);
        Ok(dt)
    }

    fn access_inner(&mut self, n: usize, va: VAddr, kind: AccessKind) -> Result<u64, SimError> {
        let p = self.path;
        let timing = self.cfg.machine.timing;
        let page = VPage::new(va.raw() >> p.page_shift);
        let node_id = NodeId::new(n as u16);

        // --- address-space views and home selection ---------------------
        let (pa, home) = if p.virtual_protocol {
            self.ensure_directory_mapping(n, page)?;
            if self.cfg.audit && self.page_table.dir_page_of(page).is_none() {
                return Err(self.audit_failure(
                    self.nodes[n].time,
                    format!("page {:#x}: no directory mapping after ensure", page.raw()),
                ));
            }
            (None, self.cfg.machine.home_of_vpage(page))
        } else {
            let frame = self.ensure_physical_mapping(n, page)?;
            let pa = (frame.raw() << p.page_shift) + (va.raw() & ((1u64 << p.page_shift) - 1));
            (Some(pa), self.cfg.machine.home_of_pframe(frame.raw()))
        };
        let byte_of = |virt: bool| if virt { va.raw() } else { pa.expect("physical scheme") };
        let flc_block = byte_of(p.virtual_flc) >> p.flc_shift;
        let slc_block = byte_of(p.virtual_slc) >> p.slc_shift;
        let am_block = byte_of(p.virtual_am) >> p.am_shift;

        let t0 = self.nodes[n].time;
        let mut t = t0;
        let mut translated = false;

        // Sampled tracing: the decision keys on the per-node reference
        // index *before* this reference bumps it, so which references are
        // traced is independent of tracing itself.
        if let Some(tr) = self.tracer.as_mut() {
            let class = match kind {
                AccessKind::Read => "read",
                AccessKind::Write => "write",
            };
            tr.begin(n, self.nodes[n].refs, class, va.raw(), t0);
        }

        // Issue cycle.
        {
            let node = &mut self.nodes[n];
            node.fine.busy += 1;
            t += 1;
            node.refs += 1;
            match kind {
                AccessKind::Read => node.reads += 1,
                AccessKind::Write => node.writes += 1,
            }
        }
        if let Some(tr) = self.tracer.as_mut() {
            tr.interval("issue", t0, t, va.raw());
        }

        // The TLB sits before the FLC and sees every reference (L0-TLB and
        // the post-1998 schemes, which vary only the translation model).
        if p.xlate_every_ref {
            self.translate(n, page, &mut t, &mut translated);
        }

        // --- first-level cache -------------------------------------------
        let flc_hit = match kind {
            AccessKind::Read => self.nodes[n].flc.read(flc_block).is_hit(),
            AccessKind::Write => self.nodes[n].flc.write(flc_block).is_hit(),
        };
        t += timing.flc_hit;
        self.nodes[n].fine.local_stall += timing.flc_hit;
        if let Some(tr) = self.tracer.as_mut() {
            tr.interval("flc", t - timing.flc_hit, t, flc_block);
        }
        if kind == AccessKind::Read && flc_hit {
            if let Some(tr) = self.tracer.as_mut() {
                tr.finish(t);
            }
            return Ok(t - t0);
        }

        // L1: the TLB sits between the (virtual) FLC and the (physical)
        // SLC; FLC read misses and every write-through store translate.
        if p.xlate_flc_miss {
            self.translate(n, page, &mut t, &mut translated);
        }

        // --- second-level cache ------------------------------------------
        let slc_res = self.nodes[n].slc.access(slc_block, kind);
        if let Some(ev) = slc_res.evicted {
            self.nodes[n].flc.invalidate_span(ev, p.slc_flc_ratio);
        }
        if let Some(wb) = slc_res.writeback {
            // Dirty victim writebacks descend towards the attraction
            // memory. In plain L2-TLB they must translate (the paper's
            // solid Figure-8 lines); everywhere else they bypass the TLB
            // (physical SLC, physical pointers, or a virtual AM below).
            if p.wb_translate {
                let wb_page = VPage::new((wb.block << p.slc_shift) >> p.page_shift);
                let x = self.nodes[n].xlb.lookup(wb_page);
                if x.missed {
                    let penalty = x.cycles;
                    t += penalty;
                    self.nodes[n].fine.tlb_walk += penalty;
                    self.metrics.trace(Event {
                        cycle: t,
                        node: n as u16,
                        kind: "tlb_miss",
                        addr: wb_page.raw(),
                    });
                    if let Some(tr) = self.tracer.as_mut() {
                        tr.interval("wb_translation", t - penalty, t, wb_page.raw());
                    }
                }
            }
        }
        if slc_res.hit {
            t += timing.slc_hit;
            self.nodes[n].fine.local_stall += timing.slc_hit;
            if let Some(tr) = self.tracer.as_mut() {
                tr.interval("slc", t - timing.slc_hit, t, slc_block);
            }
            if kind == AccessKind::Read {
                if let Some(tr) = self.tracer.as_mut() {
                    tr.finish(t);
                }
                return Ok(t - t0);
            }
        } else if p.xlate_slc_miss {
            // L2: the TLB sits at the SLC→AM boundary and sees every SLC
            // miss.
            self.translate(n, page, &mut t, &mut translated);
        }

        // --- attraction memory / coherence --------------------------------
        let had_local_copy = self.protocol.probe(node_id, am_block, false);
        let local_ok = self.protocol.probe(node_id, am_block, kind.is_write());

        if local_ok {
            if !slc_res.hit {
                t += timing.am_hit;
                self.nodes[n].fine.local_stall += timing.am_hit;
                if let Some(tr) = self.tracer.as_mut() {
                    tr.interval("am", t - timing.am_hit, t, am_block);
                }
            }
            // Refresh protocol-side stats/recency; guaranteed local.
            let out = self.run_protocol(node_id, am_block, home, kind, t);
            debug_assert!(out.local_hit);
            if let Some(tr) = self.tracer.as_mut() {
                tr.finish(t);
            }
            return Ok(t - t0);
        }

        // A coherence transaction is required. Any scheme whose translation
        // point is at or below the boundary being crossed must translate
        // now if it has not already on this reference (the L2 upgrade
        // corner: an SLC write hit on a non-exclusive AM block still sends
        // an ownership request below the SLC).
        if p.xlate_before_txn {
            self.translate(n, page, &mut t, &mut translated);
        }
        // Data for an SLC miss comes from the local AM copy when one
        // exists (the transaction is then just an upgrade).
        if !slc_res.hit && had_local_copy {
            t += timing.am_hit;
            self.nodes[n].fine.local_stall += timing.am_hit;
            if let Some(tr) = self.tracer.as_mut() {
                tr.interval("am", t - timing.am_hit, t, am_block);
            }
        }

        // Capture the transaction's message hops only while a sampled
        // reference is in flight; otherwise the protocol stays hop-free.
        let capture = self.tracer.as_ref().is_some_and(Tracer::active);
        if capture {
            self.protocol.set_hop_capture(true);
        }
        let out = self.run_protocol(node_id, am_block, home, kind, t);
        debug_assert!(!out.local_hit);
        if capture {
            let hops = self.protocol.take_hops();
            self.protocol.set_hop_capture(false);
            if let Some(tr) = self.tracer.as_mut() {
                tr.hops(&hops);
            }
        }
        t += out.latency;
        if let Some(tr) = self.tracer.as_mut() {
            // The remote window decomposes exactly (`Path` invariant:
            // `latency == lookup + mem + net + queue + fault`); laying the
            // components end to end tiles `[t - latency, t)`.
            let mut cursor = t - out.latency;
            for (class, cycles) in [
                ("dlb_lookup", out.home_lookup_cycles),
                ("directory", out.mem_cycles),
                ("net", out.net_cycles),
                ("queue", out.queue_cycles),
                ("fault", out.fault_cycles),
            ] {
                tr.interval(class, cursor, cursor + cycles, am_block);
                cursor += cycles;
            }
            debug_assert_eq!(cursor, t, "remote components must sum to the latency");
        }
        {
            let node = &mut self.nodes[n];
            node.fine.dlb_lookup += out.home_lookup_cycles;
            node.fine.coherence += out.mem_cycles;
            node.fine.network += out.net_cycles;
            node.fine.queue += out.queue_cycles;
            node.fine.fault += out.fault_cycles;
        }
        if out.home_lookup_cycles > 0 {
            // A DLB refill touches the page-table entry (reference bit).
            let _ = self.page_table.set_referenced(page);
        }
        if out.took_ownership {
            let _ = self.page_table.set_modified(page);
        }
        self.apply_invalidations(&out);
        if self.cfg.audit {
            self.audit_transaction(am_block, &out, t)?;
        }
        if let Some(tr) = self.tracer.as_mut() {
            tr.finish(t);
        }
        Ok(t - t0)
    }

    /// Audits the blocks a just-completed transaction touched — the
    /// accessed block plus every invalidation victim — and runs a full
    /// sweep every 1024 transactions so drift on untouched blocks cannot
    /// hide until the end of the run.
    fn audit_transaction(&mut self, am_block: u64, out: &Access, cycle: u64) -> Result<(), SimError> {
        if let Err(msg) = self.protocol.check_block_invariants(am_block) {
            return Err(self.audit_failure(cycle, msg));
        }
        for &(_, block) in &out.invalidations {
            if block != am_block {
                if let Err(msg) = self.protocol.check_block_invariants(block) {
                    return Err(self.audit_failure(cycle, msg));
                }
            }
        }
        self.audited_txns += 1;
        if self.audited_txns.is_multiple_of(1024) {
            self.audit_full(cycle)?;
        }
        Ok(())
    }

    /// Runs the full invariant sweep over every known block.
    fn audit_full(&mut self, cycle: u64) -> Result<(), SimError> {
        if let Err(msg) = self.protocol.check_invariants() {
            return Err(self.audit_failure(cycle, msg));
        }
        Ok(())
    }

    /// Packages an invariant violation with the cycle-stamped event trace
    /// from the metrics ring.
    fn audit_failure(&self, cycle: u64, message: String) -> SimError {
        SimError::Audit(Box::new(AuditError {
            cycle,
            message,
            trace: self.metrics.events().snapshot(),
        }))
    }

    /// Changes a page's protection (paper §4.3): the page table is
    /// updated, translation entries for the page are shot down — every
    /// node's TLB in the private-TLB schemes, the home's DLB in V-COMA —
    /// and, in V-COMA, the home's protocol engine sends update messages to
    /// every node holding a block of the page. Returns the elapsed cycles,
    /// charged as translation-maintenance time.
    fn protect(
        &mut self,
        n: usize,
        va: VAddr,
        prot: vcoma_types::Protection,
    ) -> Result<u64, SimError> {
        let cfg = self.cfg.machine.clone();
        let page = va.page(cfg.page_size);
        let node_id = NodeId::new(n as u16);
        let timing = cfg.timing;
        let t0 = self.nodes[n].time;
        let mut t = t0 + 1;
        self.nodes[n].fine.busy += 1;
        if self.path.virtual_protocol {
            self.ensure_directory_mapping(n, page)?;
            let _ = self.page_table.protect(page, prot);
            let home = cfg.home_of_vpage(page);
            // Request to the home PE, which updates the page table and its
            // DLB entry…
            let mut arrive = self.net.send(node_id, home, MsgKind::Ack, t);
            self.nodes[home.index()].xlb.shootdown(VPage::new(page.raw() / cfg.nodes));
            // …then notifies every holder of the page's blocks.
            let first = page.raw() * cfg.blocks_per_page();
            let mut holders = std::collections::BTreeSet::new();
            for b in first..first + cfg.blocks_per_page() {
                holders.extend(self.protocol.holders_of(b).into_iter().map(|h| h.raw()));
            }
            let mut last_ack = arrive;
            for h in holders {
                let h = NodeId::new(h);
                let upd = self.net.send(home, h, MsgKind::Ack, arrive);
                last_ack = last_ack.max(self.net.send(h, node_id, MsgKind::Ack, upd));
            }
            arrive = last_ack.max(self.net.send(home, node_id, MsgKind::Ack, arrive));
            self.nodes[n].fine.dlb_lookup += arrive - t;
            self.metrics.trace(Event {
                cycle: arrive,
                node: home.raw(),
                kind: "shootdown",
                addr: page.raw(),
            });
            t = arrive;
        } else {
            self.ensure_physical_mapping(n, page)?;
            let _ = self.page_table.protect(page, prot);
            // TLB consistency: shoot the page down in every node's TLB and
            // charge one broadcast round trip.
            for node in &mut self.nodes {
                node.xlb.shootdown(page);
            }
            let cost = 2 * timing.net_request;
            self.nodes[n].fine.tlb_walk += cost;
            self.metrics.trace(Event {
                cycle: t + cost,
                node: n as u16,
                kind: "shootdown",
                addr: page.raw(),
            });
            t += cost;
        }
        Ok(t - t0)
    }

    /// Maps `page` to a V-COMA directory page for requester `n`, swapping
    /// a resident page of the same global page set out if the set is
    /// saturated (§4.3).
    fn ensure_directory_mapping(&mut self, n: usize, page: VPage) -> Result<(), SimError> {
        loop {
            match self.page_table.map_directory(page, &mut self.dir_alloc) {
                Ok(_) => return Ok(()),
                Err(vcoma_vm::VmError::GlobalSetFull { set }) => {
                    let cfg = self.cfg.machine.clone();
                    let victim = self
                        .page_table
                        .iter()
                        .filter(|(p, e)| {
                            e.dir_page.is_some()
                                && cfg.global_page_set_of(*p) == set
                                && *p != page
                        })
                        .map(|(p, _)| p)
                        .min()
                        .expect("a saturated global set holds resident pages");
                    self.evict_page_blocks(victim.raw() * cfg.blocks_per_page(), &cfg);
                    // Shoot the victim down in its home's DLB (keyed above
                    // the home-selector bits).
                    let home = cfg.home_of_vpage(victim);
                    self.nodes[home.index()]
                        .xlb
                        .shootdown(VPage::new(victim.raw() / cfg.nodes));
                    self.dir_alloc.swap_out(victim, &cfg).expect("victim was resident");
                    self.page_table.unmap(victim).expect("victim was mapped");
                    self.page_faults += 1;
                    self.metrics.trace(Event {
                        cycle: self.nodes[n].time,
                        node: n as u16,
                        kind: "swap_out",
                        addr: victim.raw(),
                    });
                }
                Err(e) => return Err(SimError::Vm { node: n as u16, source: e }),
            }
        }
    }

    /// Maps `page` to a physical frame for requester `n`, swapping a
    /// resident page out if the frame pool (or the required color, under
    /// `L3-TLB`) is exhausted.
    fn ensure_physical_mapping(
        &mut self,
        n: usize,
        page: VPage,
    ) -> Result<vcoma_types::PFrame, SimError> {
        loop {
            match self.page_table.map_physical(page, self.phys_alloc.as_mut()) {
                Ok(f) => return Ok(f),
                Err(vcoma_vm::VmError::OutOfFrames) => self.swap_out_physical(n, page, None),
                Err(vcoma_vm::VmError::OutOfColoredFrames { color }) => {
                    self.swap_out_physical(n, page, Some(color))
                }
                Err(e) => return Err(SimError::Vm { node: n as u16, source: e }),
            }
        }
    }

    fn swap_out_physical(&mut self, n: usize, faulting: VPage, color: Option<u64>) {
        let cfg = self.cfg.machine.clone();
        let victim = self
            .page_table
            .iter()
            .filter(|(p, e)| {
                *p != faulting
                    && e.frame.is_some_and(|f| {
                        color.is_none_or(|c| f.raw() % cfg.global_page_sets() == c)
                    })
            })
            .map(|(p, _)| p)
            .min()
            .expect("an exhausted frame pool holds resident pages");
        let frame = self.page_table.frame_of(victim).expect("victim has a frame");
        // Protocol blocks of physical schemes are keyed by the frame's
        // block numbers; L3's virtual AM keys by the virtual page.
        let first_block = if self.path.virtual_am {
            victim.raw() * cfg.blocks_per_page()
        } else {
            frame.raw() * cfg.blocks_per_page()
        };
        self.evict_page_blocks(first_block, &cfg);
        // Every node's private TLB may map the victim page.
        for node in &mut self.nodes {
            node.xlb.shootdown(victim);
        }
        self.phys_alloc.as_mut().release(frame);
        self.page_table.unmap(victim).expect("victim was mapped");
        self.page_faults += 1;
        self.metrics.trace(Event {
            cycle: self.nodes[n].time,
            node: n as u16,
            kind: "swap_out",
            addr: victim.raw(),
        });
    }

    /// Purges a page's worth of AM blocks starting at `first_block` from
    /// the whole machine, back-invalidating the holders' caches.
    fn evict_page_blocks(&mut self, first_block: u64, cfg: &MachineConfig) {
        let slc_ratio = cfg.am.block_size / cfg.slc.block_size;
        let flc_ratio = cfg.am.block_size / cfg.flc.block_size;
        for b in first_block..first_block + cfg.blocks_per_page() {
            for node in self.protocol.purge(b) {
                let ctx = &mut self.nodes[node.index()];
                ctx.slc.invalidate_span(b, slc_ratio);
                ctx.flc.invalidate_span(b, flc_ratio);
            }
        }
    }

    /// Runs the protocol transaction with the scheme's home-side
    /// translation plugged in.
    fn run_protocol(
        &mut self,
        node: NodeId,
        am_block: u64,
        home: NodeId,
        kind: AccessKind,
        now: u64,
    ) -> Access {
        let blocks_per_page = self.cfg.machine.blocks_per_page();
        if self.path.virtual_protocol {
            let node_count = self.cfg.machine.nodes;
            let mut hook = DlbHook {
                nodes: &mut self.nodes,
                metrics: &mut self.metrics,
                blocks_per_page,
                node_count,
                now,
            };
            match kind {
                AccessKind::Read => {
                    self.protocol.read(node, am_block, home, &mut self.net, &mut hook, now)
                }
                AccessKind::Write => {
                    self.protocol.write(node, am_block, home, &mut self.net, &mut hook, now)
                }
            }
        } else {
            let mut hook = NullTranslation;
            match kind {
                AccessKind::Read => {
                    self.protocol.read(node, am_block, home, &mut self.net, &mut hook, now)
                }
                AccessKind::Write => {
                    self.protocol.write(node, am_block, home, &mut self.net, &mut hook, now)
                }
            }
        }
    }

    /// Consults node `n`'s translation model for `page` once per
    /// reference, charging the model's miss-latency schedule and setting
    /// the page-table reference bit on a refill.
    fn translate(&mut self, n: usize, page: VPage, t: &mut u64, translated: &mut bool) {
        if *translated {
            return;
        }
        *translated = true;
        let x = self.nodes[n].xlb.lookup(page);
        if x.missed {
            let penalty = x.cycles;
            *t += penalty;
            self.nodes[n].fine.tlb_walk += penalty;
            self.metrics.trace(Event {
                cycle: *t,
                node: n as u16,
                kind: "tlb_miss",
                addr: page.raw(),
            });
            if let Some(tr) = self.tracer.as_mut() {
                tr.interval("tlb_miss", *t - penalty, *t, page.raw());
            }
            let _ = self.page_table.set_referenced(page);
        }
    }

    /// Back-invalidates processor caches above every attraction memory the
    /// protocol removed a block from (inclusion, paper §2.2.2).
    fn apply_invalidations(&mut self, out: &Access) {
        let m = &self.cfg.machine;
        let slc_ratio = m.am.block_size / m.slc.block_size;
        let flc_ratio = m.am.block_size / m.flc.block_size;
        for &(node, am_block) in &out.invalidations {
            let ctx = &mut self.nodes[node.index()];
            // Dirty SLC sub-blocks fold into the departing AM block; the
            // protocol carries the data, so only the bookkeeping happens
            // here.
            let _dirty = ctx.slc.invalidate_span(am_block, slc_ratio);
            ctx.flc.invalidate_span(am_block, flc_ratio);
        }
    }

    fn into_report(self) -> SimReport {
        let pressure =
            PressureProfile::from_pages(self.page_table.iter().map(|(p, _)| p), &self.cfg.machine);
        let mut metrics = self.metrics.snapshot();
        metrics.merge(&self.protocol.metrics().snapshot());
        let trace = self.tracer.as_ref().map(Tracer::snapshot);
        let mut builder = SimReport::builder()
            .config(self.cfg)
            .nodes(
                self.nodes
                    .into_iter()
                    .map(|n| crate::report::NodeReport {
                        time: n.time,
                        fine: n.fine,
                        refs: n.refs,
                        reads: n.reads,
                        writes: n.writes,
                        translation: n.xlb.all_stats(),
                        flc: *n.flc.stats(),
                        slc: *n.slc.stats(),
                    })
                    .collect(),
            )
            .protocol(*self.protocol.stats())
            .net(self.net.stats().clone())
            .pressure(pressure)
            .swap_outs(self.dir_alloc.swap_outs().max(self.page_faults))
            .metrics(metrics);
        if let Some(trace) = trace {
            builder = builder.trace(trace);
        }
        builder.build().expect("the simulator sets every report field")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoma_tlb::{all_schemes, Scheme, TlbOrg};

    fn tiny(scheme: Scheme) -> SimConfig {
        SimConfig::new(MachineConfig::tiny(), scheme)
    }

    /// One node streams reads over a small array; a second node then reads
    /// the same array (producer→consumer sharing).
    fn sharing_traces(nodes: usize, bytes: u64, stride: u64) -> Vec<Vec<Op>> {
        let mut traces = vec![Vec::new(); nodes];
        for a in (0..bytes).step_by(stride as usize) {
            traces[0].push(Op::Write(VAddr::new(a)));
        }
        traces[0].push(Op::Barrier(vcoma_types::SyncId(0)));
        for tr in traces.iter_mut().skip(1) {
            tr.push(Op::Barrier(vcoma_types::SyncId(0)));
        }
        for a in (0..bytes).step_by(stride as usize) {
            traces[1].push(Op::Read(VAddr::new(a)));
        }
        traces
    }

    #[test]
    fn empty_traces_finish_instantly() {
        // Zero-cost computes advance no clock either.
        let mut spinning = vec![Vec::new(); 4];
        spinning[0] = vec![Op::Compute(0); 50];
        for scheme in all_schemes() {
            for traces in [vec![Vec::new(); 4], spinning.clone()] {
                let report = Machine::new(tiny(scheme)).run(traces).unwrap();
                assert_eq!(report.total_refs(), 0, "{scheme}");
                assert_eq!(report.exec_time(), 0, "{scheme}");
            }
        }
    }

    #[test]
    fn every_scheme_runs_a_sharing_workload() {
        for scheme in all_schemes() {
            let report = Machine::new(tiny(scheme)).run(sharing_traces(4, 4096, 32)).unwrap();
            assert_eq!(report.total_refs(), 256, "{scheme}");
            assert!(report.exec_time() > 0, "{scheme}");
            let b = report.aggregate_breakdown();
            assert!(b.busy >= 256, "{scheme}: each ref has an issue cycle");
        }
    }

    #[test]
    fn l0_translates_every_reference() {
        let report = Machine::new(tiny(Scheme::L0_TLB)).run(sharing_traces(4, 4096, 32)).unwrap();
        assert_eq!(report.translation_accesses_total(0), 256);
    }

    #[test]
    fn l1_translates_writes_and_flc_read_misses_only() {
        let report = Machine::new(tiny(Scheme::L1_TLB)).run(sharing_traces(4, 4096, 32)).unwrap();
        let accesses = report.translation_accesses_total(0);
        // All 128 writes translate; reads translate only on FLC misses.
        assert!(accesses >= 128, "got {accesses}");
        assert!(accesses <= 256, "got {accesses}");
    }

    #[test]
    fn filtering_effect_orders_translation_accesses() {
        // The deeper the TLB, the fewer accesses reach it.
        let mut acc = Vec::new();
        for scheme in [Scheme::L0_TLB, Scheme::L1_TLB, Scheme::L2_TLB_NO_WB, Scheme::L3_TLB] {
            let report = Machine::new(tiny(scheme)).run(sharing_traces(4, 8192, 32)).unwrap();
            acc.push((scheme, report.translation_accesses_total(0)));
        }
        for w in acc.windows(2) {
            assert!(
                w[0].1 >= w[1].1,
                "expected {} accesses ≥ {} accesses, got {:?}",
                w[0].0,
                w[1].0,
                acc
            );
        }
    }

    #[test]
    fn vcoma_uses_dlbs_not_tlbs() {
        let report = Machine::new(tiny(Scheme::V_COMA)).run(sharing_traces(4, 4096, 32)).unwrap();
        // DLB accesses happen only at homes during remote transactions.
        let accesses = report.translation_accesses_total(0);
        assert!(accesses > 0);
        assert!(accesses < 256, "DLB must see fewer lookups than references");
    }

    #[test]
    fn barrier_produces_sync_time() {
        let report = Machine::new(tiny(Scheme::L0_TLB)).run(sharing_traces(4, 4096, 32)).unwrap();
        let b = report.aggregate_breakdown();
        assert!(b.sync > 0, "idle nodes wait at the barrier");
    }

    #[test]
    fn locks_serialise_critical_sections() {
        let id = vcoma_types::SyncId(9);
        let mut traces = vec![Vec::new(); 4];
        for tr in traces.iter_mut() {
            tr.push(Op::Lock(id));
            tr.push(Op::Compute(100));
            tr.push(Op::Unlock(id));
        }
        let report = Machine::new(tiny(Scheme::V_COMA)).run(traces).unwrap();
        let b = report.aggregate_breakdown();
        // The last of 4 nodes waits roughly 3 × 100 cycles.
        assert!(b.sync > 300, "sync={}", b.sync);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            Machine::new(tiny(Scheme::V_COMA).with_seed(7)).run(sharing_traces(4, 8192, 64)).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.exec_time(), b.exec_time());
        assert_eq!(a.translation_misses_total(0), b.translation_misses_total(0));
        assert_eq!(a.aggregate_breakdown(), b.aggregate_breakdown());
    }

    #[test]
    fn shadow_bank_members_do_not_change_timing() {
        let base = Machine::new(tiny(Scheme::L0_TLB).with_seed(3))
            .run(sharing_traces(4, 8192, 64)).unwrap();
        let banked = Machine::new(
            tiny(Scheme::L0_TLB)
                .with_seed(3)
                .with_translation_specs(vec![
                    (8, TlbOrg::FullyAssociative),
                    (64, TlbOrg::FullyAssociative),
                    (8, TlbOrg::DirectMapped),
                ]),
        )
        .run(sharing_traces(4, 8192, 64)).unwrap();
        assert_eq!(base.exec_time(), banked.exec_time());
        assert_eq!(
            base.translation_misses_total(0),
            banked.translation_misses_total(0)
        );
        // And the shadow members report their own counts.
        assert!(banked.translation_misses_total(1) <= banked.translation_misses_total(0));
    }

    #[test]
    fn write_sharing_costs_more_than_private_writes() {
        // Ping-pong writes between two nodes vs. private writes.
        let mut pingpong = vec![Vec::new(); 4];
        let mut private = vec![Vec::new(); 4];
        for i in 0..200u64 {
            pingpong[(i % 2) as usize].push(Op::Write(VAddr::new(0x100)));
            private[(i % 2) as usize].push(Op::Write(VAddr::new(0x10000 * (i % 2 + 1))));
        }
        let shared = Machine::new(tiny(Scheme::V_COMA)).run(pingpong).unwrap();
        let alone = Machine::new(tiny(Scheme::V_COMA)).run(private).unwrap();
        assert!(
            shared.aggregate_breakdown().remote_stall > alone.aggregate_breakdown().remote_stall,
            "write sharing must generate coherence traffic"
        );
    }

    #[test]
    fn missing_barrier_participant_is_a_deadlock_error() {
        let mut traces = vec![Vec::new(); 4];
        traces[0].push(Op::Barrier(vcoma_types::SyncId(0)));
        match Machine::new(tiny(Scheme::L0_TLB)).run(traces) {
            Err(SimError::Deadlock { parked }) => assert_eq!(parked, vec![0]),
            other => panic!("expected a deadlock error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_trace_count_is_an_error() {
        match Machine::new(tiny(Scheme::L0_TLB)).run(vec![Vec::new(); 3]) {
            Err(SimError::BadTraces { got, want }) => {
                assert_eq!(got, 3);
                assert_eq!(want, 4);
            }
            other => panic!("expected a bad-traces error, got {other:?}"),
        }
    }

    #[test]
    fn streaming_run_matches_materialized_run() {
        let traces = sharing_traces(4, 8192, 64);
        let materialized =
            Machine::new(tiny(Scheme::V_COMA).with_seed(5)).run(traces.clone()).unwrap();
        let streamed = Machine::new(tiny(Scheme::V_COMA).with_seed(5))
            .run_streaming(|| vcoma_types::sources_from_traces(traces.clone()))
            .unwrap();
        assert_eq!(format!("{materialized:?}"), format!("{streamed:?}"));
    }

    #[test]
    fn streaming_run_regenerates_sources_for_warmup() {
        let traces = sharing_traces(4, 8192, 64);
        let materialized = Machine::new(tiny(Scheme::L2_TLB).with_seed(5).with_warmup())
            .run(traces.clone())
            .unwrap();
        let mut factory_calls = 0usize;
        let streamed = Machine::new(tiny(Scheme::L2_TLB).with_seed(5).with_warmup())
            .run_streaming(|| {
                factory_calls += 1;
                vcoma_types::sources_from_traces(traces.clone())
            })
            .unwrap();
        assert_eq!(factory_calls, 2, "warm-up replays a freshly generated stream");
        assert_eq!(format!("{materialized:?}"), format!("{streamed:?}"));
    }

    #[test]
    fn over_capacity_footprints_swap_instead_of_panicking() {
        // The tiny machine holds 4 nodes × 64 KB AM = 256 pages of 1 KB.
        // Touch 400 distinct pages from every node: the page daemon must
        // swap, and the run must still complete with exact ref counts.
        for scheme in all_schemes() {
            let mut traces = vec![Vec::new(); 4];
            for (i, tr) in traces.iter_mut().enumerate() {
                for p in 0..400u64 {
                    let page = (p + 100 * i as u64) % 400;
                    tr.push(Op::Read(VAddr::new(page * 1024)));
                }
            }
            let report = Machine::new(tiny(scheme)).run(traces).unwrap();
            assert_eq!(report.total_refs(), 1600, "{scheme}");
            assert!(
                report.swap_outs() > 0,
                "{scheme}: 400 pages in a 256-page machine must swap"
            );
        }
    }

    #[test]
    fn swapping_is_deterministic() {
        let run = || {
            let mut traces = vec![Vec::new(); 4];
            for (i, tr) in traces.iter_mut().enumerate() {
                for p in 0..400u64 {
                    tr.push(Op::Write(VAddr::new(((p * 7 + i as u64 * 13) % 400) * 1024)));
                }
            }
            Machine::new(tiny(Scheme::V_COMA).with_seed(3)).run(traces).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.swap_outs(), b.swap_outs());
        assert_eq!(a.exec_time(), b.exec_time());
    }

    #[test]
    fn protection_change_shoots_down_translations() {
        use vcoma_types::Protection;
        // Warm a page into every node's TLB, change its protection from
        // one node, and observe the shootdowns force re-translation.
        let mut traces = vec![Vec::new(); 4];
        for tr in traces.iter_mut() {
            tr.push(Op::Read(VAddr::new(0x100)));
            tr.push(Op::Barrier(vcoma_types::SyncId(0)));
        }
        traces[0].push(Op::Protect(VAddr::new(0x100), Protection::read_only()));
        for tr in traces.iter_mut() {
            tr.push(Op::Barrier(vcoma_types::SyncId(1)));
            tr.push(Op::Read(VAddr::new(0x100)));
        }
        let report = Machine::new(tiny(Scheme::L0_TLB)).run(traces.clone()).unwrap();
        let shootdowns: u64 =
            report.nodes().iter().map(|n| n.translation[0].shootdowns).sum();
        assert_eq!(shootdowns, 4, "every node's TLB entry is shot down");
        // The re-reads re-translate: 8 reads, but 8 accesses + 4 extra
        // misses from the shootdown.
        assert_eq!(report.translation_accesses_total(0), 8);
        assert!(report.translation_misses_total(0) >= 8);
        assert!(report.aggregate_breakdown().translation > 0);

        // V-COMA: the home's DLB entry is shot down instead.
        let report = Machine::new(tiny(Scheme::V_COMA)).run(traces).unwrap();
        let shootdowns: u64 =
            report.nodes().iter().map(|n| n.translation[0].shootdowns).sum();
        assert_eq!(shootdowns, 1, "only the home DLB maps the page");
    }

    #[test]
    fn pressure_profile_covers_footprint() {
        let report = Machine::new(tiny(Scheme::V_COMA)).run(sharing_traces(4, 16384, 128)).unwrap();
        assert!(report.pressure().mean() > 0.0);
    }

    #[test]
    fn faulty_runs_complete_with_auditor_on_every_scheme() {
        let plan = vcoma_faults::FaultPlan::parse("drop=0.02,dup=0.01,delay=16,nack=0.05")
            .unwrap();
        for scheme in all_schemes() {
            let report = Machine::new(
                tiny(scheme).with_fault_plan(plan.clone()).with_audit(),
            )
            .run(sharing_traces(4, 8192, 32))
            .unwrap_or_else(|e| panic!("{scheme}: {e}"));
            assert_eq!(report.total_refs(), 512, "{scheme}");
            let p = report.protocol();
            assert!(
                p.fault_recoveries() + p.nacks > 0,
                "{scheme}: a nonzero plan over 512 refs must trip at least one fault"
            );
            assert!(report.aggregate_fine().fault > 0, "{scheme}: recovery time is attributed");
        }
    }

    #[test]
    fn zero_fault_plan_matches_plain_run_exactly() {
        for scheme in all_schemes() {
            let plain =
                Machine::new(tiny(scheme)).run(sharing_traces(4, 8192, 32)).unwrap();
            let zeroed = Machine::new(
                tiny(scheme).with_fault_plan(vcoma_faults::FaultPlan::default()),
            )
            .run(sharing_traces(4, 8192, 32))
            .unwrap();
            assert_eq!(plain.exec_time(), zeroed.exec_time(), "{scheme}");
            assert_eq!(plain.aggregate_breakdown(), zeroed.aggregate_breakdown(), "{scheme}");
            assert_eq!(plain.protocol(), zeroed.protocol(), "{scheme}");
        }
    }

    #[test]
    fn auditor_reports_deliberate_protocol_corruption() {
        let mut m = Machine::new(tiny(Scheme::V_COMA).with_audit());
        m.replay(&mut vcoma_types::sources_from_traces(sharing_traces(4, 4096, 32))).unwrap();
        let block = *m.protocol.cached_blocks().first().expect("the run cached blocks");
        assert!(m.protocol.corrupt_master_for_tests(block));
        let err = m.audit_full(777).expect_err("corruption must be caught");
        match err {
            SimError::Audit(audit) => {
                assert_eq!(audit.cycle, 777);
                assert!(audit.to_string().contains("coherence invariant violated"));
            }
            other => panic!("expected an audit error, got {other}"),
        }
    }

    #[test]
    fn tracing_never_perturbs_timing_and_conserves_cycles() {
        use crate::TraceConfig;
        for scheme in all_schemes() {
            let plain =
                Machine::new(tiny(scheme).with_seed(11)).run(sharing_traces(4, 8192, 32)).unwrap();
            let traced = Machine::new(
                tiny(scheme)
                    .with_seed(11)
                    .with_trace(TraceConfig { sample_every: 4, capacity: 1 << 16 }),
            )
            .run(sharing_traces(4, 8192, 32))
            .unwrap();
            assert_eq!(plain.exec_time(), traced.exec_time(), "{scheme}");
            assert_eq!(plain.aggregate_breakdown(), traced.aggregate_breakdown(), "{scheme}");
            assert_eq!(plain.protocol(), traced.protocol(), "{scheme}");
            assert!(plain.trace().is_none(), "{scheme}: untraced runs report no trace");
            let snap = traced.trace().expect("traced run reports a trace");
            assert!(snap.sampled_txns > 0, "{scheme}: the workload must sample something");
            // Conservation: every sampled transaction's critical-path
            // attribution tiles its end-to-end latency exactly.
            for p in vcoma_metrics::critical_paths(&snap.spans) {
                let attributed: u64 = p.attributed.values().sum();
                assert_eq!(p.unattributed, 0, "{scheme}: {p:?}");
                assert_eq!(attributed, p.latency, "{scheme}: {p:?}");
            }
        }
    }

    #[test]
    fn traced_faulty_run_attributes_fault_time_and_keeps_timing() {
        use crate::TraceConfig;
        let plan = vcoma_faults::FaultPlan::parse("drop=0.02,nack=0.05").unwrap();
        let mk = |traced: bool| {
            let mut cfg = tiny(Scheme::V_COMA).with_seed(2).with_fault_plan(plan.clone());
            if traced {
                cfg = cfg.with_trace(TraceConfig { sample_every: 1, capacity: 1 << 18 });
            }
            Machine::new(cfg).run(sharing_traces(4, 8192, 32)).unwrap()
        };
        let (plain, traced) = (mk(false), mk(true));
        assert_eq!(plain.exec_time(), traced.exec_time());
        assert_eq!(plain.aggregate_breakdown(), traced.aggregate_breakdown());
        let snap = traced.trace().unwrap();
        let paths = vcoma_metrics::critical_paths(&snap.spans);
        let fault_cycles: u64 =
            paths.iter().filter_map(|p| p.attributed.get("fault")).sum();
        assert!(fault_cycles > 0, "sampling everything must catch fault recoveries");
        for p in &paths {
            assert_eq!(p.unattributed, 0, "{p:?}");
        }
        // Hops (and retry/backoff windows) ride along as annotations.
        assert!(
            snap.spans.iter().any(|s| s.category == vcoma_metrics::SpanCategory::Annotation),
            "an every-txn trace of a remote workload must capture hops"
        );
    }

    #[test]
    fn warmup_resets_trace_buffers() {
        use crate::TraceConfig;
        let cold = Machine::new(
            tiny(Scheme::L0_TLB)
                .with_seed(4)
                .with_trace(TraceConfig { sample_every: 1, capacity: 1 << 16 }),
        )
        .run(sharing_traces(4, 4096, 32))
        .unwrap();
        let warm = Machine::new(
            tiny(Scheme::L0_TLB)
                .with_seed(4)
                .with_warmup()
                .with_trace(TraceConfig { sample_every: 1, capacity: 1 << 16 }),
        )
        .run(sharing_traces(4, 4096, 32))
        .unwrap();
        // Both runs trace one measured pass: the same references sample.
        assert_eq!(
            cold.trace().unwrap().sampled_txns,
            warm.trace().unwrap().sampled_txns,
            "the warm-up pass's spans are discarded"
        );
        assert_eq!(warm.trace().unwrap().sampled_txns, 256, "every measured ref samples");
    }

    #[test]
    fn audited_fault_free_run_matches_unaudited_timing() {
        let plain = Machine::new(tiny(Scheme::L2_TLB)).run(sharing_traces(4, 8192, 32)).unwrap();
        let audited = Machine::new(tiny(Scheme::L2_TLB).with_audit())
            .run(sharing_traces(4, 8192, 32))
            .unwrap();
        assert_eq!(plain.exec_time(), audited.exec_time());
        assert_eq!(plain.aggregate_breakdown(), audited.aggregate_breakdown());
    }

    #[cfg(feature = "proptest-tests")]
    mod props {
        use super::*;
        use proptest::prelude::*;
        use vcoma_types::SyncId;

        /// Decodes one generated `(kind, value)` pair into trace ops.
        /// Locks always come as balanced critical sections so random
        /// workloads never self-deadlock on a held lock; barriers are
        /// allowed to mismatch, and a deadlock is then the outcome.
        fn push_op(trace: &mut Vec<Op>, kind: u16, v: u64) {
            match kind {
                0 => trace.push(Op::Compute(v % 5)),
                1 => trace.push(Op::Read(VAddr::new((v % 128) * 64))),
                2 => trace.push(Op::Write(VAddr::new((v % 128) * 64))),
                3 => {
                    let id = SyncId((v % 2) as u32);
                    trace.push(Op::Lock(id));
                    trace.push(Op::Write(VAddr::new(0x40 + (v % 4) * 64)));
                    trace.push(Op::Unlock(id));
                }
                _ => trace.push(Op::Barrier(SyncId(9))),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn random_replays_are_a_pure_function_of_the_traces(
                nodes_log2 in 2u32..4,
                scheme_ix in 0usize..8,
                ops in proptest::collection::vec((0u16..5, 0u64..4096), 0..160),
            ) {
                let machine = MachineConfig::builder()
                    .nodes(1u64 << nodes_log2)
                    .build()
                    .expect("power-of-two machine");
                let cfg = SimConfig::new(machine, all_schemes()[scheme_ix % all_schemes().len()]);
                let n = cfg.machine.nodes as usize;
                let mut traces = vec![Vec::new(); n];
                for (i, (kind, v)) in ops.into_iter().enumerate() {
                    push_op(&mut traces[i % n], kind, v);
                }
                let first = format!("{:?}", Machine::new(cfg.clone()).run(traces.clone()));
                let second = format!("{:?}", Machine::new(cfg).run(traces));
                prop_assert_eq!(first, second);
            }
        }
    }
}
