//! CC-NUMA reference machine (paper §2, Figure 1).
//!
//! Before proposing V-COMA, the paper surveys where the TLB could sit in a
//! conventional CC-NUMA and argues that the attractive-looking
//! **SHARED-TLB** organisation — translation at the home node, like
//! Teller's in-memory TLB — fails there: the home is then selected by the
//! virtual address, pages cannot be placed or migrated for locality, and
//! so "capacity misses are remote most of the time".
//!
//! This module reproduces that argument quantitatively with a small
//! CC-NUMA model sharing the V-COMA substrates (caches, TLB banks,
//! crossbar, page tables):
//!
//! * fixed-home main memory per node, **no** migration or replication;
//! * a directory MSI protocol at SLC-block granularity;
//! * page placement by **first touch** for the private-TLB schemes
//!   ([`NumaScheme::L0Tlb`], [`NumaScheme::L1Tlb`], [`NumaScheme::L2Tlb`])
//!   and by **virtual-address hash** for [`NumaScheme::SharedTlb`], whose
//!   translation happens in a per-home shared TLB on every home access.
//!
//! # Example
//!
//! ```
//! use vcoma_sim::ccnuma::{NumaMachine, NumaScheme};
//! use vcoma_sim::SimConfig;
//! use vcoma_tlb::Scheme;
//! use vcoma_types::{MachineConfig, Op, VAddr};
//!
//! let cfg = SimConfig::new(MachineConfig::tiny(), Scheme::L0_TLB);
//! let mut traces = vec![Vec::new(); 4];
//! traces[0].push(Op::Write(VAddr::new(0x100)));
//! traces[1].push(Op::Read(VAddr::new(0x100)));
//! let report = NumaMachine::new(cfg, NumaScheme::SharedTlb).run(traces);
//! assert_eq!(report.total_refs, 2);
//! ```

use crate::{SimConfig, TimeBreakdown, TlbBank};
use std::collections::HashMap;
use vcoma_metrics::Mergeable;
use vcoma_cachesim::{Flc, Slc};
use vcoma_net::{Crossbar, MsgKind};
use vcoma_types::{AccessKind, NodeId, Op, VAddr, VPage};
use vcoma_vm::{FrameAllocator, PageTable, VmError};

/// Where translation happens in the CC-NUMA machine (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumaScheme {
    /// Conventional: per-node TLB before the FLC; first-touch placement.
    L0Tlb,
    /// Per-node TLB between a virtual FLC and a physical SLC.
    L1Tlb,
    /// Per-node TLB below a virtual SLC.
    L2Tlb,
    /// Teller-style in-memory TLB: translation at the home selected by the
    /// virtual address; no page-placement control.
    SharedTlb,
}

impl NumaScheme {
    /// Paper-style label.
    pub const fn label(self) -> &'static str {
        match self {
            NumaScheme::L0Tlb => "L0-TLB",
            NumaScheme::L1Tlb => "L1-TLB",
            NumaScheme::L2Tlb => "L2-TLB",
            NumaScheme::SharedTlb => "SHARED-TLB",
        }
    }

    const fn virtual_flc(self) -> bool {
        !matches!(self, NumaScheme::L0Tlb)
    }

    const fn virtual_slc(self) -> bool {
        matches!(self, NumaScheme::L2Tlb | NumaScheme::SharedTlb)
    }
}

impl std::fmt::Display for NumaScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// MSI directory entry for one memory block.
#[derive(Debug, Clone)]
struct MsiEntry {
    /// Node holding the block modified, if any.
    owner: Option<NodeId>,
    /// Bit mask of nodes holding a shared copy: node `i` is bit `i % 64`
    /// of word `i / 64`, one word per 64 nodes.
    sharers: Vec<u64>,
}

impl MsiEntry {
    fn new(nodes: u64) -> Self {
        MsiEntry { owner: None, sharers: vec![0; nodes.div_ceil(64) as usize] }
    }

    fn add_sharer(&mut self, node: NodeId) {
        self.sharers[node.index() / 64] |= 1 << (node.index() % 64);
    }

    fn is_sharer(&self, i: usize) -> bool {
        self.sharers[i / 64] >> (i % 64) & 1 != 0
    }
}

#[derive(Debug)]
struct NumaNode {
    flc: Flc,
    slc: Slc,
    xlb: TlbBank,
    time: u64,
    breakdown: TimeBreakdown,
    refs: u64,
}

/// Results of a CC-NUMA run (a compact subset of the COMA report).
#[derive(Debug, Clone)]
pub struct NumaReport {
    /// Scheme that ran.
    pub scheme: NumaScheme,
    /// Maximum node completion time.
    pub exec_time: u64,
    /// Total references.
    pub total_refs: u64,
    /// Per-node translation misses summed over the machine (TLBs or the
    /// shared per-home TLBs, whichever the scheme uses).
    pub translation_misses: u64,
    /// Translation accesses.
    pub translation_accesses: u64,
    /// Summed time breakdown.
    pub breakdown: TimeBreakdown,
    /// Misses served by the local home memory.
    pub local_mem_accesses: u64,
    /// Misses served by a remote home.
    pub remote_mem_accesses: u64,
}

impl NumaReport {
    /// Fraction of memory (SLC-miss) accesses that had to leave the node —
    /// the §2 argument metric.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.local_mem_accesses + self.remote_mem_accesses;
        if total == 0 {
            0.0
        } else {
            self.remote_mem_accesses as f64 / total as f64
        }
    }
}

/// The CC-NUMA machine.
#[derive(Debug)]
pub struct NumaMachine {
    cfg: SimConfig,
    scheme: NumaScheme,
    nodes: Vec<NumaNode>,
    net: Crossbar,
    page_table: PageTable,
    alloc: FirstTouch,
    dir: HashMap<u64, MsiEntry>,
    local_mem: u64,
    remote_mem: u64,
}

/// First-touch frame allocation: a page's frame (and therefore its home)
/// goes to the first node that touches it. The SHARED-TLB scheme bypasses
/// this entirely (home = VA hash).
#[derive(Debug)]
struct FirstTouch {
    /// Frames handed out so far, per node.
    used: Vec<u64>,
    nodes: u64,
    total: u64,
}

impl FirstTouch {
    fn new(cfg: &vcoma_types::MachineConfig) -> Self {
        FirstTouch {
            used: vec![0; cfg.nodes as usize],
            nodes: cfg.nodes,
            total: cfg.total_page_frames(),
        }
    }

    /// Allocates the next frame homed at `node`. Frame `f`'s home is
    /// `f mod nodes`, so node `n`'s `k`-th frame is `k·nodes + n`.
    fn allocate_at(&mut self, node: NodeId) -> Result<vcoma_types::PFrame, VmError> {
        let k = &mut self.used[node.index()];
        let f = *k * self.nodes + node.raw() as u64;
        if f >= self.total {
            return Err(VmError::OutOfFrames);
        }
        *k += 1;
        Ok(vcoma_types::PFrame::new(f))
    }
}

impl NumaMachine {
    /// Builds the machine. The `SimConfig`'s machine geometry, TLB/DLB
    /// specs and seed are reused; the COMA scheme field is ignored in
    /// favour of `scheme`.
    pub fn new(cfg: SimConfig, scheme: NumaScheme) -> Self {
        cfg.machine.validate().expect("invalid machine configuration");
        let m = &cfg.machine;
        let nodes = (0..m.nodes)
            .map(|i| NumaNode {
                flc: Flc::new(m.flc),
                slc: Slc::new(m.slc),
                xlb: TlbBank::new(&cfg.translation_specs, cfg.seed ^ (i << 23)),
                time: 0,
                breakdown: TimeBreakdown::default(),
                refs: 0,
            })
            .collect();
        NumaMachine {
            scheme,
            nodes,
            net: Crossbar::new(m.nodes, m.timing).with_block_size(m.slc.block_size),
            page_table: PageTable::new(m.clone()),
            alloc: FirstTouch::new(m),
            dir: HashMap::new(),
            local_mem: 0,
            remote_mem: 0,
            cfg,
        }
    }

    /// Replays one trace per node (barriers and locks are not supported in
    /// the CC-NUMA model — it exists for the §2 miss-locality argument;
    /// sync ops are treated as local no-ops).
    ///
    /// # Panics
    ///
    /// Panics on a trace-count mismatch or frame exhaustion.
    pub fn run(mut self, traces: Vec<Vec<Op>>) -> NumaReport {
        assert_eq!(traces.len(), self.nodes.len(), "need exactly one trace per node");
        for (n, trace) in traces.iter().enumerate() {
            for op in trace {
                match op {
                    Op::Read(va) => self.access(n, *va, AccessKind::Read),
                    Op::Write(va) => self.access(n, *va, AccessKind::Write),
                    Op::Compute(c) => {
                        self.nodes[n].breakdown.busy += c;
                        self.nodes[n].time += c;
                    }
                    // Synchronisation and protection changes are
                    // immaterial to the locality argument; skip.
                    Op::Barrier(_) | Op::Lock(_) | Op::Unlock(_) | Op::Protect(..) => {}
                }
            }
        }
        let breakdown = {
            let mut b = TimeBreakdown::default();
            for n in &self.nodes {
                b.merge(&n.breakdown);
            }
            b
        };
        NumaReport {
            scheme: self.scheme,
            exec_time: self.nodes.iter().map(|n| n.time).max().unwrap_or(0),
            total_refs: self.nodes.iter().map(|n| n.refs).sum(),
            translation_misses: self
                .nodes
                .iter()
                .map(|n| n.xlb.primary_stats().misses)
                .sum(),
            translation_accesses: self
                .nodes
                .iter()
                .map(|n| n.xlb.primary_stats().accesses)
                .sum(),
            breakdown,
            local_mem_accesses: self.local_mem,
            remote_mem_accesses: self.remote_mem,
        }
    }

    fn translate(&mut self, n: usize, page: VPage, t: &mut u64, translated: &mut bool) {
        if *translated {
            return;
        }
        *translated = true;
        if !self.nodes[n].xlb.access(page) {
            let penalty = self.cfg.machine.timing.translation_miss;
            *t += penalty;
            self.nodes[n].breakdown.translation += penalty;
        }
    }

    fn access(&mut self, n: usize, va: VAddr, kind: AccessKind) {
        let m = self.cfg.machine.clone();
        let node_id = NodeId::new(n as u16);
        let page = va.page(m.page_size);
        let scheme = self.scheme;

        // Placement: first touch for private-TLB schemes, VA hash for
        // SHARED-TLB.
        let home = if scheme == NumaScheme::SharedTlb {
            m.home_of_vpage(page)
        } else {
            match self.page_table.frame_of(page) {
                Some(f) => m.home_of_pframe(f.raw()),
                None => {
                    let f = self
                        .alloc
                        .allocate_at(node_id)
                        .expect("out of frames");
                    let mut one_shot = SingleFrame(Some(f));
                    self.page_table
                        .map_physical(page, &mut one_shot)
                        .expect("fresh mapping");
                    m.home_of_pframe(f.raw())
                }
            }
        };
        let pa = self
            .page_table
            .frame_of(page)
            .map(|f| f.raw() * m.page_size + va.page_offset(m.page_size));
        let byte = |virt: bool| {
            if virt || scheme == NumaScheme::SharedTlb {
                va.raw()
            } else {
                pa.expect("physical scheme has a frame")
            }
        };
        let flc_block = byte(scheme.virtual_flc()) / m.flc.block_size;
        let slc_block = byte(scheme.virtual_slc()) / m.slc.block_size;

        let t0 = self.nodes[n].time;
        let mut t = t0 + 1;
        self.nodes[n].breakdown.busy += 1;
        self.nodes[n].refs += 1;
        let mut translated = scheme == NumaScheme::SharedTlb; // no node TLB

        if scheme == NumaScheme::L0Tlb {
            self.translate(n, page, &mut t, &mut translated);
        }
        let flc_hit = match kind {
            AccessKind::Read => self.nodes[n].flc.read(flc_block).is_hit(),
            AccessKind::Write => self.nodes[n].flc.write(flc_block).is_hit(),
        };
        if kind == AccessKind::Read && flc_hit {
            self.nodes[n].time = t;
            return;
        }
        if scheme == NumaScheme::L1Tlb {
            self.translate(n, page, &mut t, &mut translated);
        }
        let slc_res = self.nodes[n].slc.access(slc_block, kind);
        if let Some(ev) = slc_res.evicted {
            let ratio = m.slc.block_size / m.flc.block_size;
            self.nodes[n].flc.invalidate_span(ev, ratio);
            // A dirty victim writes back to its home memory (traffic only;
            // off the critical path).
            if slc_res.writeback.is_some() {
                self.net.send(node_id, home, MsgKind::Writeback, t);
            }
        }
        let writable = self.dir.get(&slc_block).and_then(|e| e.owner) == Some(node_id);
        if slc_res.hit && (kind == AccessKind::Read || writable) {
            t += m.timing.slc_hit;
            self.nodes[n].breakdown.local_stall += m.timing.slc_hit;
            self.nodes[n].time = t;
            return;
        }
        if scheme == NumaScheme::L2Tlb {
            self.translate(n, page, &mut t, &mut translated);
        }

        // Directory transaction at the home.
        let mut stall = 0u64;
        let arr = self.net.send(node_id, home, MsgKind::ReadReq, t);
        stall += arr - t;
        if scheme == NumaScheme::SharedTlb {
            // The home's shared TLB translates; it maps only local pages,
            // keyed above the home-selector bits.
            let key = VPage::new(page.raw() / m.nodes);
            if !self.nodes[home.index()].xlb.access(key) {
                stall += m.timing.translation_miss;
                self.nodes[n].breakdown.translation += m.timing.translation_miss;
            }
        }
        let entry = self.dir.entry(slc_block).or_insert_with(|| MsiEntry::new(m.nodes));
        match kind {
            AccessKind::Read => {
                if let Some(owner) = entry.owner {
                    if owner != node_id {
                        // Fetch from the modified owner; it reverts to
                        // shared.
                        let f = self.net.send(home, owner, MsgKind::ForwardReq, t + stall);
                        stall = f - t + m.timing.am_hit;
                        entry.add_sharer(owner);
                        entry.owner = None;
                    }
                } else {
                    stall += m.timing.am_hit; // home memory access
                }
                entry.add_sharer(node_id);
                let reply = self.net.send(home, node_id, MsgKind::BlockReply, t + stall);
                stall = reply - t;
            }
            AccessKind::Write => {
                // Invalidate every other copy.
                let prev_owner = entry.owner.filter(|o| *o != node_id);
                entry.owner = Some(node_id);
                let mut extra = 0u64;
                for i in 0..m.nodes as usize {
                    let is_holder = (i != n && entry.is_sharer(i))
                        || prev_owner == Some(NodeId::new(i as u16));
                    if is_holder {
                        self.net.send(home, NodeId::new(i as u16), MsgKind::Invalidate, t + stall);
                        let ratio = m.slc.block_size / m.flc.block_size;
                        self.nodes[i].slc.invalidate(slc_block);
                        self.nodes[i].flc.invalidate_span(slc_block, ratio);
                        extra = extra.max(2 * m.timing.net_request);
                    }
                }
                entry.sharers.fill(0);
                stall += m.timing.am_hit + extra;
                let reply = self.net.send(home, node_id, MsgKind::BlockReply, t + stall);
                stall = reply - t;
            }
        }
        if home == node_id {
            self.local_mem += 1;
            self.nodes[n].breakdown.local_stall += stall;
        } else {
            self.remote_mem += 1;
            self.nodes[n].breakdown.remote_stall += stall;
        }
        self.nodes[n].time = t + stall;
    }
}

/// One-shot allocator adapter handing out a pre-chosen frame.
struct SingleFrame(Option<vcoma_types::PFrame>);

impl FrameAllocator for SingleFrame {
    fn allocate(
        &mut self,
        _page: VPage,
        _cfg: &vcoma_types::MachineConfig,
    ) -> Result<vcoma_types::PFrame, VmError> {
        self.0.take().ok_or(VmError::OutOfFrames)
    }

    fn release(&mut self, _frame: vcoma_types::PFrame) {}

    fn free_frames(&self) -> u64 {
        u64::from(self.0.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoma_tlb::Scheme;
    use vcoma_types::MachineConfig;

    fn cfg() -> SimConfig {
        SimConfig::new(MachineConfig::tiny(), Scheme::L0_TLB)
    }

    /// Each node streams over its own private region.
    fn private_traces(nodes: usize, bytes: u64) -> Vec<Vec<Op>> {
        let mut traces = vec![Vec::new(); nodes];
        for (i, t) in traces.iter_mut().enumerate() {
            let base = 0x10_0000 + i as u64 * bytes;
            for _pass in 0..2 {
                for off in (0..bytes).step_by(64) {
                    t.push(Op::Read(VAddr::new(base + off)));
                }
            }
        }
        traces
    }

    #[test]
    fn first_touch_hands_each_node_its_own_frames_in_order() {
        let m = MachineConfig::tiny();
        let last = NodeId::new(m.nodes as u16 - 1);
        let mut alloc = FirstTouch::new(&m);
        let mut take = |node| alloc.allocate_at(node).unwrap().raw();
        assert_eq!([take(NodeId::new(0)), take(NodeId::new(0))], [0, m.nodes]);
        assert_eq!([take(last), take(last)], [m.nodes - 1, 2 * m.nodes - 1]);
        assert_eq!(take(NodeId::new(0)), 2 * m.nodes);
    }

    #[test]
    fn first_touch_runs_out_at_the_frame_pool() {
        let m = MachineConfig::tiny();
        let mut alloc = FirstTouch::new(&m);
        let per_node = m.total_page_frames() / m.nodes;
        for _ in 0..per_node {
            alloc.allocate_at(NodeId::new(1)).unwrap();
        }
        assert!(matches!(alloc.allocate_at(NodeId::new(1)), Err(VmError::OutOfFrames)));
        assert!(alloc.allocate_at(NodeId::new(0)).is_ok(), "other nodes keep their frames");
    }

    #[test]
    fn first_touch_keeps_private_capacity_misses_local() {
        // Private working set larger than the SLC: capacity misses occur,
        // and with first-touch placement they are all local.
        let report = NumaMachine::new(cfg(), NumaScheme::L0Tlb)
            .run(private_traces(4, 8 << 10));
        assert!(report.local_mem_accesses > 0);
        assert_eq!(
            report.remote_mem_accesses, 0,
            "first-touch placement must keep private misses local"
        );
        assert_eq!(report.remote_fraction(), 0.0);
    }

    #[test]
    fn shared_tlb_makes_capacity_misses_remote() {
        // The same private workload under SHARED-TLB: homes are VA-hashed
        // across 4 nodes, so ~3/4 of the misses go remote — §2's argument.
        let report = NumaMachine::new(cfg(), NumaScheme::SharedTlb)
            .run(private_traces(4, 8 << 10));
        assert!(
            report.remote_fraction() > 0.5,
            "VA-hashed homes must make most misses remote (got {:.2})",
            report.remote_fraction()
        );
    }

    #[test]
    fn shared_tlb_is_slower_than_first_touch_on_private_data() {
        let l0 =
            NumaMachine::new(cfg(), NumaScheme::L0Tlb).run(private_traces(4, 8 << 10));
        let shared = NumaMachine::new(cfg(), NumaScheme::SharedTlb)
            .run(private_traces(4, 8 << 10));
        assert!(
            shared.exec_time > l0.exec_time,
            "SHARED-TLB ({}) must lose to first-touch L0 ({}) on private data",
            shared.exec_time,
            l0.exec_time
        );
    }

    #[test]
    fn translation_points_filter_like_the_coma_machine() {
        let traces = private_traces(4, 4 << 10);
        let mut last = u64::MAX;
        for scheme in [NumaScheme::L0Tlb, NumaScheme::L1Tlb, NumaScheme::L2Tlb] {
            let report = NumaMachine::new(cfg(), scheme).run(traces.clone());
            assert!(
                report.translation_accesses <= last,
                "{scheme}: {} accesses above the level above ({last})",
                report.translation_accesses
            );
            last = report.translation_accesses;
        }
        // The shared TLB sees only home transactions.
        let shared = NumaMachine::new(cfg(), NumaScheme::SharedTlb).run(traces);
        assert!(shared.translation_accesses <= last);
    }

    #[test]
    fn a_write_invalidates_sharers_beyond_the_first_64_nodes() {
        let m = MachineConfig::builder().nodes(128).build().unwrap();
        let mut machine = NumaMachine::new(SimConfig::new(m, Scheme::L0_TLB), NumaScheme::SharedTlb);
        let va = VAddr::new(0x4000);
        let block = va.raw() / machine.cfg.machine.slc.block_size;
        machine.access(3, va, AccessKind::Read);
        machine.access(100, va, AccessKind::Read);
        assert!(machine.nodes[3].slc.contains(block) && machine.nodes[100].slc.contains(block));
        machine.access(0, va, AccessKind::Write);
        assert!(!machine.nodes[3].slc.contains(block), "node 3 keeps a stale copy");
        assert!(!machine.nodes[100].slc.contains(block), "node 100 keeps a stale copy");
        assert!(machine.nodes[0].slc.contains(block));
    }

    #[test]
    fn write_sharing_invalidates_readers() {
        let mut traces = vec![Vec::new(); 4];
        for _ in 0..50 {
            traces[0].push(Op::Write(VAddr::new(0x100)));
            traces[1].push(Op::Read(VAddr::new(0x100)));
        }
        let report = NumaMachine::new(cfg(), NumaScheme::L0Tlb).run(traces);
        assert!(report.total_refs == 100);
        assert!(report.breakdown.remote_stall + report.breakdown.local_stall > 0);
    }

    #[test]
    fn report_accessors() {
        let r = NumaMachine::new(cfg(), NumaScheme::L2Tlb).run(vec![Vec::new(); 4]);
        assert_eq!(r.total_refs, 0);
        assert_eq!(r.remote_fraction(), 0.0);
        assert_eq!(r.scheme.label(), "L2-TLB");
        assert_eq!(NumaScheme::SharedTlb.to_string(), "SHARED-TLB");
    }
}
