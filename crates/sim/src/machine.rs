//! The machine: nodes, memory hierarchy, translation schemes and the
//! trace-replay engine.

use crate::audit::AuditError;
use crate::breakdown::LatencyBreakdown;
use crate::error::SimError;
use crate::replay::{Category, Engine, NodeCtx, Replay};
use crate::trace::Tracer;
use crate::{SimConfig, SimReport};
use vcoma_coherence::{Access, HomeTranslation, NullTranslation, Protocol};
use vcoma_faults::LinkFaultInjector;
use vcoma_metrics::{Event, HistogramSlot, MetricsRegistry};
use vcoma_net::{Crossbar, MsgKind};
use vcoma_tlb::{AllocPolicy, XlatePoint};
use vcoma_types::{trace_sources, AccessKind, MachineConfig, NodeId, Op, OpSource, VAddr, VPage};
use vcoma_vm::{
    ColoringAllocator, DirectoryAllocator, FrameAllocator, PageTable, PressureProfile,
    RoundRobinAllocator,
};

/// Per-scheme hot-path decisions, precomputed once at machine build time.
///
/// Everything the access path needs from `scheme.spec()` — the
/// `XlatePoint` ordering predicates and the address views — is fixed for
/// the lifetime of a machine, so it is kept here as plain booleans, and
/// block and page sizes as shift counts (every size is a validated power
/// of two). The table is `Copy`: the access path takes one local snapshot
/// and never consults the spec.
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
    /// SLC and FLC blocks per AM block, for back-invalidation above an
    /// attraction memory.
    am_slc_ratio: u64,
    am_flc_ratio: u64,
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
            am_slc_ratio: m.am.block_size / m.slc.block_size,
            am_flc_ratio: m.am.block_size / m.flc.block_size,
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
    /// Pages the page daemon swapped out to make room (§4.3). The swap
    /// I/O itself is not timed — the paper's runs are preloaded — but the
    /// count makes over-capacity workloads visible instead of fatal.
    swap_outs: u64,
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
        let nodes = (0..m.nodes)
            .map(|i| NodeCtx::new(&cfg, cfg.seed ^ (i << 17), spec.build_model))
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
            swap_outs: 0,
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
    /// the number of traces does not match the node count,
    /// [`SimError::Lock`] if a trace releases a lock it does not hold or
    /// acquires one it already holds, and [`SimError::Deadlock`] if some
    /// node parks on a barrier or lock that the other traces never reach.
    pub fn run(self, traces: Vec<Vec<Op>>) -> Result<SimReport, SimError> {
        self.run_streaming(|| trace_sources(&traces))
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
        let mut replay = Replay::new(self.nodes.len());
        for pass in 0..passes {
            replay.run(&mut self, &mut make_sources())?;
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

    /// Moves node `n`'s clock on by `cycles` of its current reference,
    /// charged to `category`, and records them as a `span` interval while
    /// the reference is traced.
    fn charge(&mut self, n: usize, cycles: u64, category: Category, span: &'static str, arg: u64) {
        let node = &mut self.nodes[n];
        let start = node.time;
        node.charge(cycles, category);
        if let Some(tr) = self.tracer.as_mut() {
            tr.interval(span, start, node.time, arg);
        }
    }

    fn access_inner(&mut self, n: usize, va: VAddr, kind: AccessKind) -> Result<(), SimError> {
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

        let mut translated = false;
        self.nodes[n].count(kind);
        self.charge(n, 1, Category::Busy, "issue", va.raw());

        // The TLB sits before the FLC and sees every reference (L0-TLB and
        // the post-1998 schemes, which vary only the translation model).
        if p.xlate_every_ref {
            self.translate(n, page, &mut translated);
        }

        // --- first-level cache -------------------------------------------
        let flc_hit = match kind {
            AccessKind::Read => self.nodes[n].flc.read(flc_block).is_hit(),
            AccessKind::Write => self.nodes[n].flc.write(flc_block).is_hit(),
        };
        self.charge(n, timing.flc_hit, Category::LocalStall, "flc", flc_block);
        if kind == AccessKind::Read && flc_hit {
            return Ok(());
        }

        // L1: the TLB sits between the (virtual) FLC and the (physical)
        // SLC; FLC read misses and every write-through store translate.
        if p.xlate_flc_miss {
            self.translate(n, page, &mut translated);
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
                self.walk(n, wb_page, "wb_translation");
            }
        }
        if slc_res.hit {
            self.charge(n, timing.slc_hit, Category::LocalStall, "slc", slc_block);
            if kind == AccessKind::Read {
                return Ok(());
            }
        } else if p.xlate_slc_miss {
            // L2: the TLB sits at the SLC→AM boundary and sees every SLC
            // miss.
            self.translate(n, page, &mut translated);
        }

        // --- attraction memory / coherence --------------------------------
        // A reference to a block that no cache above holds always gets
        // here, so the first reference to a block too wide for the AM's
        // tags ends the run.
        if !self.protocol.fits(am_block) {
            return Err(SimError::AddressWidth { node: n as u16, addr: va.raw() });
        }
        let am_state = self.protocol.state_of(node_id, am_block);
        let had_local_copy = am_state.is_some();
        let local_ok = am_state.is_some_and(|s| !kind.is_write() || s.satisfies_write());

        if local_ok {
            if !slc_res.hit {
                self.charge(n, timing.am_hit, Category::LocalStall, "am", am_block);
            }
            self.protocol.count_local_hit(kind);
            return Ok(());
        }

        // A coherence transaction is required. Any scheme whose translation
        // point is at or below the boundary being crossed must translate
        // now if it has not already on this reference (the L2 upgrade
        // corner: an SLC write hit on a non-exclusive AM block still sends
        // an ownership request below the SLC).
        if p.xlate_before_txn {
            self.translate(n, page, &mut translated);
        }
        // Data for an SLC miss comes from the local AM copy when one
        // exists (the transaction is then just an upgrade).
        if !slc_res.hit && had_local_copy {
            self.charge(n, timing.am_hit, Category::LocalStall, "am", am_block);
        }

        // Capture the transaction's message hops only while a sampled
        // reference is in flight; otherwise the protocol stays hop-free.
        let capture = self.tracer.as_ref().is_some_and(Tracer::active);
        if capture {
            self.protocol.set_hop_capture(true);
        }
        let out = self.run_protocol(node_id, am_block, home, kind, self.nodes[n].time);
        debug_assert!(!out.local_hit);
        if capture {
            let hops = self.protocol.take_hops();
            self.protocol.set_hop_capture(false);
            if let Some(tr) = self.tracer.as_mut() {
                tr.hops(&hops);
            }
        }
        // The remote window decomposes exactly (`Path` invariant:
        // `latency == lookup + mem + net + queue + fault`), so charging the
        // components in turn tiles it.
        for (cycles, category, span) in [
            (out.home_lookup_cycles, Category::DlbLookup, "dlb_lookup"),
            (out.mem_cycles, Category::Coherence, "directory"),
            (out.net_cycles, Category::Network, "net"),
            (out.queue_cycles, Category::Queue, "queue"),
            (out.fault_cycles, Category::Fault, "fault"),
        ] {
            self.charge(n, cycles, category, span, am_block);
        }
        self.apply_invalidations(&out);
        if self.cfg.audit {
            self.audit_transaction(am_block, &out, self.nodes[n].time)?;
        }
        self.protocol.recycle(out);
        Ok(())
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
                    self.unmap_swapped_out(n, victim);
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
        self.unmap_swapped_out(n, victim);
    }

    /// Unmaps a page the daemon swapped out for node `n` and records it:
    /// one count in `swap_outs` and one `swap_out` ring event.
    fn unmap_swapped_out(&mut self, n: usize, victim: VPage) {
        self.page_table.unmap(victim).expect("victim was mapped");
        self.swap_outs += 1;
        let cycle = self.nodes[n].time;
        self.metrics.trace(Event { cycle, node: n as u16, kind: "swap_out", addr: victim.raw() });
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
    /// reference.
    #[inline]
    fn translate(&mut self, n: usize, page: VPage, translated: &mut bool) {
        if !*translated {
            *translated = true;
            self.walk(n, page, "tlb_miss");
        }
    }

    /// Looks `page` up in node `n`'s translation model and, on a miss,
    /// charges the model's miss-latency schedule as a `span` page walk and
    /// records a `tlb_miss` event.
    #[inline]
    fn walk(&mut self, n: usize, page: VPage, span: &'static str) {
        let x = self.nodes[n].xlb.lookup(page);
        if x.missed {
            self.charge(n, x.cycles, Category::TlbWalk, span, page.raw());
            self.metrics.trace(Event {
                cycle: self.nodes[n].time,
                node: n as u16,
                kind: "tlb_miss",
                addr: page.raw(),
            });
        }
    }

    /// Back-invalidates processor caches above every attraction memory the
    /// protocol removed a block from (inclusion, paper §2.2.2).
    fn apply_invalidations(&mut self, out: &Access) {
        let (slc_ratio, flc_ratio) = (self.path.am_slc_ratio, self.path.am_flc_ratio);
        for &(node, am_block) in &out.invalidations {
            let ctx = &mut self.nodes[node.index()];
            // Dirty SLC sub-blocks fold into the departing AM block; the
            // protocol carries the data, so only the bookkeeping happens
            // here.
            ctx.slc.invalidate_span(am_block, slc_ratio);
            ctx.flc.invalidate_span(am_block, flc_ratio);
        }
    }

    fn into_report(self) -> SimReport {
        let pressure =
            PressureProfile::from_pages(self.page_table.iter().map(|(p, _)| p), &self.cfg.machine);
        let metrics = self.metrics.snapshot();
        SimReport {
            cfg: self.cfg,
            nodes: self.nodes.into_iter().map(NodeCtx::into_report).collect(),
            protocol: *self.protocol.stats(),
            net: self.net.stats().clone(),
            pressure,
            swap_outs: self.swap_outs,
            metrics,
            trace: self.tracer.as_ref().map(Tracer::snapshot),
        }
    }
}

impl Engine for Machine {
    fn node(&mut self, n: usize) -> &mut NodeCtx {
        &mut self.nodes[n]
    }

    /// Executes one memory reference for node `n`: traces it if the
    /// sampler admits it and feeds the per-request latency histograms.
    fn access(&mut self, n: usize, va: VAddr, kind: AccessKind) -> Result<(), SimError> {
        let (class, slot) = match kind {
            AccessKind::Read => ("read", self.latency_slots[0]),
            AccessKind::Write => ("write", self.latency_slots[1]),
        };
        let start = self.nodes[n].time;
        // Sampled tracing: the decision keys on the per-node reference
        // index *before* this reference bumps it, so which references are
        // traced is independent of tracing itself.
        if let Some(tr) = self.tracer.as_mut() {
            tr.begin(n, self.nodes[n].refs, class, va.raw(), start);
        }
        self.access_inner(n, va, kind)?;
        let end = self.nodes[n].time;
        if let Some(tr) = self.tracer.as_mut() {
            tr.finish(end);
        }
        self.metrics.observe_slot(slot, end - start);
        Ok(())
    }

    /// Charges a change of a page's protection (paper §4.3): translation
    /// entries for the page are shot down — every node's TLB in the
    /// private-TLB schemes, the home's DLB in V-COMA — and, in V-COMA, the
    /// home's protocol engine sends update messages to every node holding
    /// a block of the page. The rights themselves are not recorded: nothing
    /// enforces them. After its issue cycle, the op is charged as
    /// translation-maintenance time.
    fn protect(&mut self, n: usize, va: VAddr) -> Result<(), SimError> {
        let cfg = self.cfg.machine.clone();
        let page = va.page(cfg.page_size);
        let node_id = NodeId::new(n as u16);
        // The issue cycle is charged after the mapping, so a swap-out the
        // mapping triggers carries the op's start time.
        let (cycles, category, shooter) = if self.path.virtual_protocol {
            self.ensure_directory_mapping(n, page)?;
            self.nodes[n].charge(1, Category::Busy);
            let start = self.nodes[n].time;
            let home = cfg.home_of_vpage(page);
            // Request to the home PE, which updates the page table and its
            // DLB entry…
            let arrive = self.net.send(node_id, home, MsgKind::Ack, start);
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
            let done = last_ack.max(self.net.send(home, node_id, MsgKind::Ack, arrive));
            (done - start, Category::DlbLookup, home)
        } else {
            self.ensure_physical_mapping(n, page)?;
            self.nodes[n].charge(1, Category::Busy);
            // TLB consistency: shoot the page down in every node's TLB and
            // charge one broadcast round trip.
            for node in &mut self.nodes {
                node.xlb.shootdown(page);
            }
            (2 * cfg.timing.net_request, Category::TlbWalk, node_id)
        };
        self.nodes[n].charge(cycles, category);
        self.metrics.trace(Event {
            cycle: self.nodes[n].time,
            node: shooter.raw(),
            kind: "shootdown",
            addr: page.raw(),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoma_tlb::{all_schemes, Scheme, TlbOrg};

    fn tiny(scheme: Scheme) -> SimConfig {
        SimConfig::new(MachineConfig::tiny(), scheme)
    }

    /// Owned per-node sources over copies of `traces`.
    fn owned_sources(traces: &[Vec<Op>]) -> Vec<Box<dyn OpSource>> {
        traces.iter().map(|t| Box::new(t.clone().into_iter()) as Box<dyn OpSource>).collect()
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
    fn lock_misuse_is_an_error_in_every_profile() {
        use crate::LockMisuse;
        use vcoma_types::SyncId;
        // An unlock of a lock the node never took, as a trace file.
        let text = "# vcoma trace v1\nnode 0\nu 1\nnode 1\nnode 2\nnode 3\n";
        let unheld = vcoma_workloads::load_traces(text).expect("parses");
        // A node taking a lock it already holds.
        let mut reacquire = vec![Vec::new(); 4];
        reacquire[2] = vec![Op::Lock(SyncId(3)), Op::Lock(SyncId(3))];
        for (traces, node, lock, want) in [
            (unheld, 0, SyncId(1), LockMisuse::ReleaseNotHeld),
            (reacquire, 2, SyncId(3), LockMisuse::Reacquire),
        ] {
            let err = Machine::new(tiny(Scheme::L0_TLB)).run(traces).unwrap_err();
            let SimError::Lock { node: n, lock: l, misuse } = err else { panic!("{err:?}") };
            assert_eq!((n, l, misuse), (node, lock, want));
        }
    }

    #[test]
    fn compute_ops_past_the_clock_limit_are_an_error() {
        // 2^60 cycles at once; u64::MAX then 5 more, which would wrap the
        // clock; and two 2^53-cycle ops, which only overflow together.
        for (ops, time, compute) in [
            ("c 1152921504606846976\n", 0, 1 << 60),
            ("c 18446744073709551615\nc 5\n", 0, u64::MAX),
            ("c 9007199254740992\nc 9007199254740992\n", 1 << 53, 1 << 53),
        ] {
            let text =
                format!("# vcoma trace v1\nnode 0\nr 0x1000\nnode 1\n{ops}node 2\nnode 3\n");
            let traces = vcoma_workloads::load_traces(&text).expect("parses");
            let err = Machine::new(tiny(Scheme::L0_TLB)).run(traces).unwrap_err();
            let SimError::Clock { node, time: t, compute: c } = err else { panic!("{err:?}") };
            assert_eq!((node, t, c), (1, time, compute), "{ops:?}");
        }
    }

    #[test]
    fn references_past_the_am_tag_range_are_an_error() {
        // The tiny machine's AM has 128 sets of 128-byte blocks, so 14
        // address bits sit below its 30-bit tags; the paper's has 8192
        // sets, 20 bits.
        for (machine, limit) in
            [(MachineConfig::tiny(), 1u64 << 44), (MachineConfig::paper_baseline(), 1 << 50)]
        {
            let nodes = machine.nodes;
            for scheme in [Scheme::V_COMA, Scheme::L3_TLB] {
                let run = |addr: u64| {
                    let mut text = format!("# vcoma trace v1\nnode 0\nw 0x1000\nnode 1\nr {addr:#x}\n");
                    for n in 2..nodes {
                        text.push_str(&format!("node {n}\n"));
                    }
                    let traces = vcoma_workloads::load_traces(&text).expect("parses");
                    Machine::new(SimConfig::new(machine.clone(), scheme)).run(traces)
                };
                let err = run(limit).unwrap_err();
                let SimError::AddressWidth { node, addr } = err else { panic!("{err:?}") };
                assert_eq!((node, addr), (1, limit), "{scheme}");
                let report = run(limit - 1).expect("the last address below the limit fits");
                assert_eq!(report.total_refs(), 2, "{scheme}");
            }
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
            .run_streaming(|| owned_sources(&traces))
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
                owned_sources(&traces)
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
        let traces = sharing_traces(4, 4096, 32);
        let mut sources = trace_sources(&traces);
        Replay::new(4).run(&mut m, &mut sources).unwrap();
        let block = *m.protocol.cached_blocks().first().expect("the run cached blocks");
        assert!(m.protocol.corrupt_master_for_tests(block));
        let err = m.audit_full(777).expect_err("corruption must be caught");
        match err {
            SimError::Audit(audit) => {
                assert_eq!(audit.cycle, 777);
                assert!(audit.to_string().contains("coherence invariant violated"));
                // The flight-recorder tail is the event ring's one reader:
                // non-empty, bounded by the ring and oldest first.
                assert!(!audit.trace.is_empty(), "the run traced events");
                assert!(audit.trace.len() <= m.cfg.event_capacity);
                assert!(audit.trace.windows(2).all(|w| w[0].cycle <= w[1].cycle));
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
    fn every_recorded_span_kind_is_seeded_in_the_interner() {
        use crate::TraceConfig;
        let plan = vcoma_faults::FaultPlan::parse("drop=0.02,nack=0.05").unwrap();
        let mut recorded = std::collections::BTreeSet::new();
        for scheme in all_schemes() {
            for faults in [None, Some(plan.clone())] {
                let mut cfg = tiny(scheme)
                    .with_seed(3)
                    .with_trace(TraceConfig { sample_every: 1, capacity: 1 << 18 });
                if let Some(plan) = faults {
                    cfg = cfg.with_fault_plan(plan);
                }
                let report = Machine::new(cfg).run(sharing_traces(4, 8192, 32)).unwrap();
                recorded.extend(report.trace().unwrap().spans.iter().map(|s| s.kind));
            }
        }
        let missing: Vec<_> =
            recorded.iter().filter(|k| !vcoma_metrics::SEEDED_KINDS.contains(k)).collect();
        assert!(missing.is_empty(), "span kinds missing from SEEDED_KINDS: {missing:?}");
        for kind in vcoma_net::ALL_MSG_KINDS {
            assert!(vcoma_metrics::SEEDED_KINDS.contains(&kind.label()), "{kind}");
        }
        assert!(recorded.len() > 15, "the runs record most kinds: {recorded:?}");
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
        use crate::ccnuma::{NumaMachine, NumaScheme};
        use proptest::prelude::*;
        use vcoma_types::SyncId;

        /// Decodes one generated `(kind, value)` pair into trace ops.
        /// Locks mostly come as balanced critical sections, but bare
        /// `Lock`s and `Unlock`s are mixed in, as are barriers that may
        /// never fill: a lock-misuse or deadlock error is then the
        /// outcome, and it must be as reproducible as a report.
        fn push_op(trace: &mut Vec<Op>, kind: u16, v: u64) {
            let id = SyncId((v % 2) as u32);
            match kind {
                0 => trace.push(Op::Compute(v % 5)),
                1 => trace.push(Op::Read(VAddr::new((v % 128) * 64))),
                2 => trace.push(Op::Write(VAddr::new((v % 128) * 64))),
                3 => {
                    trace.push(Op::Lock(id));
                    trace.push(Op::Write(VAddr::new(0x40 + (v % 4) * 64)));
                    trace.push(Op::Unlock(id));
                }
                4 => trace.push(Op::Lock(id)),
                5 => trace.push(Op::Unlock(id)),
                _ => trace.push(Op::Barrier(SyncId(9))),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn random_replays_are_a_pure_function_of_the_traces(
                nodes_log2 in 2u32..4,
                scheme_ix in 0usize..8,
                ops in proptest::collection::vec((0u16..7, 0u64..4096), 0..160),
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
                let second = format!("{:?}", Machine::new(cfg.clone()).run(traces.clone()));
                prop_assert_eq!(first, second);

                // The CC-NUMA machine replays the same traces through the
                // same loop: as reproducible, and conserving every cycle.
                let numa = NumaScheme::ALL[scheme_ix % NumaScheme::ALL.len()];
                let first = NumaMachine::new(cfg.clone(), numa).run(traces.clone());
                let second = NumaMachine::new(cfg, numa).run(traces);
                prop_assert_eq!(format!("{first:?}"), format!("{second:?}"));
                if let Ok(report) = first {
                    for n in &report.nodes {
                        prop_assert_eq!(n.time, n.fine.total());
                    }
                }
            }
        }
    }
}
