//! Per-layer host cost by replay.
//!
//! A running `Machine` cannot be timed layer by layer from outside, so
//! the traced run replays a point's own reference stream through each
//! layer's public function, in the order that layer sees it under the
//! point's scheme, and times every call:
//!
//! * `TranslationModel::lookup` (built by `SchemeSpec::build_model`),
//! * `Flc::read`/`Flc::write` and `Slc::access`,
//! * `PageTable::map_physical`/`PageTable::map_directory`,
//! * `MetricsRegistry::observe`,
//! * `Protocol::read`/`Protocol::write` with a `Crossbar`, and
//!   `Crossbar::send` for every message hop the protocol captured.
//!
//! The replay interleaves nodes by its own clock and honours barriers
//! but not locks, so its counts drift from the real run's. The traced
//! run prints them beside the real counts so a reader can judge how far
//! each `*_ns` figure can be trusted.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

use vcoma::cachesim::{Flc, Slc};
use vcoma::coherence::{Access, HomeTranslation, NullTranslation, Protocol};
use vcoma::metrics::MetricsRegistry;
use vcoma::net::{Crossbar, ALL_MSG_KINDS};
use vcoma::vm::{
    ColoringAllocator, DirectoryAllocator, FrameAllocator, PageTable, RoundRobinAllocator,
};
use vcoma::{
    AccessKind, AllocPolicy, MachineConfig, ModelParams, NodeId, Op, OpSource, SchemeSpec,
    SimConfig, SimReport, SyncId, TranslationModel, VPage, XlatePoint,
};

/// Barrier release cost the machine charges; the replay needs it only
/// to keep its node clocks close to the real ones.
const BARRIER_RELEASE: u64 = 32;

/// Accumulated host time and call count of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    pub ns: u64,
    pub calls: u64,
}

impl Acc {
    fn add(&mut self, start: Instant) {
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    fn merge(&mut self, other: &Acc) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    /// Host nanoseconds with the timer's own cost removed.
    pub fn net_ns(&self, timer_ns: f64) -> f64 {
        (self.ns as f64 - self.calls as f64 * timer_ns).max(0.0)
    }

    /// Mean nanoseconds per call with the timer's own cost removed.
    pub fn per_call_ns(&self, timer_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.net_ns(timer_ns) / self.calls as f64
        }
    }
}

/// Host time per layer over one or more replays.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layers {
    pub tlb: Acc,
    pub flc: Acc,
    pub slc: Acc,
    pub vm: Acc,
    pub metrics: Acc,
    pub coherence: Acc,
    pub net: Acc,
}

impl Layers {
    pub fn merge(&mut self, o: &Layers) {
        self.tlb.merge(&o.tlb);
        self.flc.merge(&o.flc);
        self.slc.merge(&o.slc);
        self.vm.merge(&o.vm);
        self.metrics.merge(&o.metrics);
        self.coherence.merge(&o.coherence);
        self.net.merge(&o.net);
    }

    /// `(layer call, accumulator)` pairs, for spans.
    pub fn named(&self) -> [(&'static str, Acc); 7] {
        [
            ("tlb.lookup", self.tlb),
            ("cachesim.flc_probe", self.flc),
            ("cachesim.slc_probe", self.slc),
            ("vm.map", self.vm),
            ("metrics.observe", self.metrics),
            ("coherence.txn", self.coherence),
            ("net.send", self.net),
        ]
    }
}

/// The four counters both the replay and the real run produce.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub flc_misses: u64,
    pub slc_misses: u64,
    pub tlb_misses: u64,
    pub txns: u64,
}

impl Counts {
    pub fn of_report(r: &SimReport) -> Counts {
        Counts {
            flc_misses: r.flc_total().misses(),
            slc_misses: r.slc_total().misses(),
            tlb_misses: r.translation_misses_total(0),
            txns: r.protocol().remote_transactions(),
        }
    }

    pub fn merge(&mut self, o: &Counts) {
        self.flc_misses += o.flc_misses;
        self.slc_misses += o.slc_misses;
        self.tlb_misses += o.tlb_misses;
        self.txns += o.txns;
    }

    pub fn named(&self) -> [(&'static str, u64); 4] {
        [
            ("flc_misses", self.flc_misses),
            ("slc_misses", self.slc_misses),
            ("tlb_misses", self.tlb_misses),
            ("txns", self.txns),
        ]
    }
}

/// The host cost of an empty `Instant::now()`/`elapsed()` pair, which
/// every per-call figure subtracts.
pub fn timer_overhead_ns() -> f64 {
    const N: u64 = 200_000;
    let mut acc = Acc::default();
    for _ in 0..N {
        let t = Instant::now();
        acc.add(t);
    }
    acc.ns as f64 / N as f64
}

enum Frames {
    Directory(DirectoryAllocator),
    Physical(Box<dyn FrameAllocator>),
}

/// V-COMA's home-side DLB, timed into the translation layer. Keyed like
/// the machine's hook: the page number above the home-selector bits.
struct DlbHook<'a> {
    xlbs: &'a mut [Box<dyn TranslationModel>],
    tlb: &'a mut Acc,
    misses: &'a mut u64,
    blocks_per_page: u64,
    nodes: u64,
}

impl HomeTranslation for DlbHook<'_> {
    fn home_lookup(&mut self, home: NodeId, block: u64) -> u64 {
        let key = VPage::new(block / self.blocks_per_page / self.nodes);
        let t = Instant::now();
        let x = self.xlbs[home.index()].lookup(key);
        self.tlb.add(t);
        if x.missed {
            *self.misses += 1;
        }
        x.cycles
    }
}

/// One point's replay state: the components `Machine::new` builds, built
/// the same way, plus the layer clocks.
struct Replayer {
    machine: MachineConfig,
    scheme: &'static SchemeSpec,
    writebacks_translate: bool,
    flcs: Vec<Flc>,
    slcs: Vec<Slc>,
    xlbs: Vec<Box<dyn TranslationModel>>,
    page_table: PageTable,
    frames: Frames,
    protocol: Protocol,
    net: Crossbar,
    /// A second crossbar that re-sends every captured hop, so
    /// `Crossbar::send` is timed apart from the protocol around it.
    send_net: Crossbar,
    metrics: MetricsRegistry,
    layers: Layers,
    counts: Counts,
}

impl Replayer {
    fn new(cfg: &SimConfig) -> Self {
        let m = &cfg.machine;
        let spec = cfg.scheme.spec();
        let spill_entries = (m.slc.size_bytes / m.slc.block_size / 4).max(8);
        let xlbs = (0..m.nodes)
            .map(|i| {
                (spec.build_model)(&ModelParams {
                    specs: &cfg.translation_specs,
                    seed: cfg.seed ^ (i << 17),
                    walk_penalty: m.timing.translation_miss,
                    spill_latency: m.timing.slc_hit,
                    spill_entries,
                    page_size: m.page_size,
                })
            })
            .collect();
        let frames = match spec.alloc {
            AllocPolicy::Directory => Frames::Directory(DirectoryAllocator::new(m)),
            AllocPolicy::Coloring => Frames::Physical(Box::new(ColoringAllocator::new(m))),
            AllocPolicy::RoundRobin => Frames::Physical(Box::new(RoundRobinAllocator::new(m))),
        };
        let crossbar = || {
            let net = Crossbar::new(m.nodes, m.timing).with_block_size(m.am.block_size);
            if cfg.contention {
                net.with_contention()
            } else {
                net
            }
        };
        let mut protocol = Protocol::new(m, cfg.seed).with_injection_policy(cfg.injection_policy);
        protocol.set_hop_capture(true);
        Replayer {
            machine: m.clone(),
            scheme: spec,
            writebacks_translate: cfg.scheme.writebacks_translate(),
            flcs: (0..m.nodes).map(|_| Flc::new(m.flc)).collect(),
            slcs: (0..m.nodes).map(|_| Slc::new(m.slc)).collect(),
            xlbs,
            page_table: PageTable::new(m.clone()),
            frames,
            protocol,
            net: crossbar(),
            send_net: crossbar(),
            metrics: MetricsRegistry::new(cfg.event_capacity),
            layers: Layers::default(),
            counts: Counts::default(),
        }
    }

    /// Consults the TLB once per reference, as `Machine::translate` does.
    fn translate(&mut self, n: usize, page: VPage, translated: &mut bool) -> u64 {
        if std::mem::replace(translated, true) {
            return 0;
        }
        self.lookup(n, page)
    }

    fn lookup(&mut self, n: usize, page: VPage) -> u64 {
        let t = Instant::now();
        let x = self.xlbs[n].lookup(page);
        self.layers.tlb.add(t);
        if x.missed {
            self.counts.tlb_misses += 1;
            x.cycles
        } else {
            0
        }
    }

    /// Runs one protocol call, timing the DLB lookups it makes into the
    /// translation layer and the rest into the coherence layer, then
    /// re-sends its captured hops through the timed crossbar.
    fn protocol_call(
        &mut self,
        node: NodeId,
        block: u64,
        home: NodeId,
        kind: AccessKind,
        now: u64,
    ) -> Access {
        let blocks_per_page = self.machine.blocks_per_page();
        let nodes = self.machine.nodes;
        let virtual_protocol = self.scheme.virtual_protocol;
        let Replayer {
            protocol,
            net,
            xlbs,
            layers,
            counts,
            ..
        } = &mut *self;
        let dlb_before = layers.tlb.ns;
        let t = Instant::now();
        let out = if virtual_protocol {
            let mut hook = DlbHook {
                xlbs,
                tlb: &mut layers.tlb,
                misses: &mut counts.tlb_misses,
                blocks_per_page,
                nodes,
            };
            match kind {
                AccessKind::Read => protocol.read(node, block, home, net, &mut hook, now),
                AccessKind::Write => protocol.write(node, block, home, net, &mut hook, now),
            }
        } else {
            let mut hook = NullTranslation;
            match kind {
                AccessKind::Read => protocol.read(node, block, home, net, &mut hook, now),
                AccessKind::Write => protocol.write(node, block, home, net, &mut hook, now),
            }
        };
        let total = t.elapsed().as_nanos() as u64;
        layers.coherence.ns += total.saturating_sub(layers.tlb.ns - dlb_before);
        layers.coherence.calls += 1;
        for hop in self.protocol.take_hops() {
            if hop.src == hop.dst {
                continue;
            }
            // Fault windows carry no message kind; the benchmark runs
            // without faults, so every remaining hop is a message.
            if let Some(&kind) = ALL_MSG_KINDS.iter().find(|k| k.label() == hop.kind) {
                let t = Instant::now();
                self.send_net.send(hop.src, hop.dst, kind, hop.depart);
                self.layers.net.add(t);
            }
        }
        out
    }

    /// One memory reference, visiting the layers in the order
    /// `Machine::access_inner` does. Returns the approximate latency in
    /// cycles, or `None` if the page could not be mapped.
    fn access(&mut self, n: usize, va: u64, kind: AccessKind, now: u64) -> Option<u64> {
        let m = &self.machine;
        let spec = self.scheme;
        let timing = m.timing;
        let page_shift = m.page_size.trailing_zeros();
        let slc_shift = m.slc.block_size.trailing_zeros();
        let flc_per_slc = m.slc.block_size / m.flc.block_size;
        let slc_per_am = m.am.block_size / m.slc.block_size;
        let flc_per_am = m.am.block_size / m.flc.block_size;
        let page = VPage::new(va >> page_shift);

        let t = Instant::now();
        let mapped = match &mut self.frames {
            Frames::Directory(alloc) => self.page_table.map_directory(page, alloc).map(|_| None),
            Frames::Physical(alloc) => self.page_table.map_physical(page, alloc.as_mut()).map(Some),
        };
        self.layers.vm.add(t);
        let (pa, home) = match mapped.ok()? {
            None => (va, m.home_of_vpage(page)),
            Some(f) => (
                (f.raw() << page_shift) + (va & (m.page_size - 1)),
                m.home_of_pframe(f.raw()),
            ),
        };
        let byte_of = |virt: bool| if virt { va } else { pa };
        let flc_block = byte_of(spec.virtual_flc) >> m.flc.block_size.trailing_zeros();
        let slc_block = byte_of(spec.virtual_slc) >> slc_shift;
        let am_block = byte_of(spec.virtual_am) >> m.am.block_size.trailing_zeros();
        let node = NodeId::new(n as u16);
        let mut lat = 1;
        let mut translated = false;

        if spec.translates_at(XlatePoint::EveryRef) {
            lat += self.translate(n, page, &mut translated);
        }

        let t = Instant::now();
        let flc_hit = match kind {
            AccessKind::Read => self.flcs[n].read(flc_block).is_hit(),
            AccessKind::Write => self.flcs[n].write(flc_block).is_hit(),
        };
        self.layers.flc.add(t);
        lat += timing.flc_hit;
        if !flc_hit {
            self.counts.flc_misses += 1;
        }
        if kind == AccessKind::Read && flc_hit {
            return Some(self.observe(kind, lat));
        }
        if spec.translates_at(XlatePoint::FlcMiss) {
            lat += self.translate(n, page, &mut translated);
        }

        let t = Instant::now();
        let slc = self.slcs[n].access(slc_block, kind);
        self.layers.slc.add(t);
        if let Some(ev) = slc.evicted {
            self.flcs[n].invalidate_span(ev, flc_per_slc);
        }
        if let (Some(wb), true) = (slc.writeback, self.writebacks_translate) {
            lat += self.lookup(n, VPage::new((wb.block << slc_shift) >> page_shift));
        }
        if slc.hit {
            lat += timing.slc_hit;
            if kind == AccessKind::Read {
                return Some(self.observe(kind, lat));
            }
        } else {
            self.counts.slc_misses += 1;
            if spec.translates_at(XlatePoint::SlcMiss) {
                lat += self.translate(n, page, &mut translated);
            }
        }

        let t = Instant::now();
        let had_local_copy = self.protocol.probe(node, am_block, false);
        let local_ok = self.protocol.probe(node, am_block, kind.is_write());
        self.layers.coherence.add(t);
        if local_ok {
            if !slc.hit {
                lat += timing.am_hit;
            }
            self.protocol_call(node, am_block, home, kind, now + lat);
            return Some(self.observe(kind, lat));
        }
        if spec.translates_before_txn() {
            lat += self.translate(n, page, &mut translated);
        }
        if !slc.hit && had_local_copy {
            lat += timing.am_hit;
        }
        let out = self.protocol_call(node, am_block, home, kind, now + lat);
        self.counts.txns += 1;
        lat += out.latency;
        for &(victim, block) in &out.invalidations {
            self.slcs[victim.index()].invalidate_span(block, slc_per_am);
            self.flcs[victim.index()].invalidate_span(block, flc_per_am);
        }
        Some(self.observe(kind, lat))
    }

    fn observe(&mut self, kind: AccessKind, lat: u64) -> u64 {
        let name = match kind {
            AccessKind::Read => "latency.read",
            AccessKind::Write => "latency.write",
        };
        let t = Instant::now();
        self.metrics.observe(name, lat);
        self.layers.metrics.add(t);
        lat
    }
}

/// What one replay measured.
pub struct Replay {
    pub layers: Layers,
    pub counts: Counts,
    /// Pages the replay's page table mapped.
    pub pages: u64,
    /// References whose page could not be mapped (skipped).
    pub unmapped: u64,
}

/// Replays `sources` (one per node: the point's own stream) through the
/// layers of `cfg`'s scheme.
pub fn replay(cfg: &SimConfig, mut sources: Vec<Box<dyn OpSource>>) -> Replay {
    let mut r = Replayer::new(cfg);
    let nodes = sources.len();
    let mut next: Vec<Option<Op>> = sources.iter_mut().map(|s| s.next_op()).collect();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..nodes)
        .filter(|&i| next[i].is_some())
        .map(|i| Reverse((0, i)))
        .collect();
    let mut parked: HashMap<SyncId, Vec<(usize, u64)>> = HashMap::new();
    let mut unmapped = 0;
    let mut released = Vec::new();
    while let Some(Reverse((t, n))) = heap.pop() {
        let Some(op) = next[n].take() else { continue };
        next[n] = sources[n].next_op();
        released.clear();
        match op {
            Op::Read(va) | Op::Write(va) => {
                let kind = if matches!(op, Op::Read(_)) {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                let dt = r.access(n, va.raw(), kind, t).unwrap_or_else(|| {
                    unmapped += 1;
                    1
                });
                released.push((n, t + dt));
            }
            Op::Compute(c) => released.push((n, t + c)),
            Op::Barrier(id) => {
                let waiting = parked.entry(id).or_default();
                waiting.push((n, t));
                if waiting.len() == nodes {
                    let waiting = parked.remove(&id).unwrap_or_default();
                    let at = waiting
                        .iter()
                        .map(|&(_, arrived)| arrived)
                        .max()
                        .unwrap_or(t);
                    released.extend(
                        waiting
                            .into_iter()
                            .map(|(node, _)| (node, at + BARRIER_RELEASE)),
                    );
                }
            }
            Op::Lock(_) | Op::Unlock(_) | Op::Protect(..) => released.push((n, t + 1)),
        }
        for &(node, at) in &released {
            if next[node].is_some() {
                heap.push(Reverse((at, node)));
            }
        }
    }
    Replay {
        layers: r.layers,
        counts: r.counts,
        pages: r.page_table.len() as u64,
        unmapped,
    }
}
