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
//! CC-NUMA model on the COMA machine's substrates (caches, TLB banks,
//! crossbar, page table, the coherence [`Directory`]) and on its replay
//! loop and latency ledger:
//!
//! * fixed-home main memory per node, **no** migration or replication;
//! * a directory MSI protocol at SLC-block granularity, whose master is
//!   the modified owner;
//! * page placement by **first touch** for the private-TLB schemes
//!   ([`NumaScheme::L0Tlb`], [`NumaScheme::L1Tlb`], [`NumaScheme::L2Tlb`])
//!   and by **virtual-address hash** for [`NumaScheme::SharedTlb`], whose
//!   translation happens in a per-home shared TLB on every home access.
//!
//! The nodes replay in global time order, as in the COMA machine, and
//! barriers and locks synchronise them. Each node's
//! [`LatencyBreakdown`](crate::LatencyBreakdown) conserves its cycles:
//! node-TLB misses go to `tlb_walk`, home shared-TLB misses to
//! `dlb_lookup`, SLC hits and service by the local home to `local_stall`,
//! and service by a remote home to `coherence` (memory) and `network`
//! (messages).
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
//! let report = NumaMachine::new(cfg, NumaScheme::SharedTlb).run(traces).unwrap();
//! assert_eq!(report.total_refs(), 2);
//! ```

use crate::replay::{Category, Engine, NodeCtx, Replay};
use crate::{NodeReport, SimConfig, SimError};
use vcoma_coherence::Directory;
use vcoma_tlb::BankModel;
use vcoma_net::{Crossbar, MsgKind};
use vcoma_types::{
    trace_sources, AccessKind, MachineConfig, NodeId, Op, OpSource, PFrame, VAddr, VPage,
};
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
    /// The four options of Figure 1.
    pub const ALL: [NumaScheme; 4] =
        [NumaScheme::L0Tlb, NumaScheme::L1Tlb, NumaScheme::L2Tlb, NumaScheme::SharedTlb];

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

/// The §2 workload, one lazy source per node: node `i` reads its own
/// region of `bytes` bytes at `0x1000_0000 + 2·i·bytes` line by line,
/// 64 bytes apart, `passes` times, and writes every fourth line right
/// after reading it. This is the pattern first-touch placement handles
/// perfectly.
pub fn private_streams(nodes: u64, bytes: u64, passes: u64) -> Vec<Box<dyn OpSource>> {
    (0..nodes)
        .map(|i| {
            let base = 0x1000_0000 + i * bytes * 2;
            let ops = (0..passes).flat_map(move |_| {
                (0..bytes).step_by(64).flat_map(move |off| {
                    let va = VAddr::new(base + off);
                    let write = off.is_multiple_of(256).then_some(Op::Write(va));
                    std::iter::once(Op::Read(va)).chain(write)
                })
            });
            Box::new(ops) as Box<dyn OpSource>
        })
        .collect()
}

/// Results of a CC-NUMA run.
#[derive(Debug, Clone)]
pub struct NumaReport {
    /// Scheme that ran.
    pub scheme: NumaScheme,
    /// Per-node results, as the COMA machine reports them; each node's
    /// `fine.total() == time`.
    pub nodes: Vec<NodeReport>,
    /// Transactions served by the requester's own home memory.
    pub local_mem_accesses: u64,
    /// Transactions served by a remote home.
    pub remote_mem_accesses: u64,
}

impl NumaReport {
    /// Execution time: the maximum node completion time.
    pub fn exec_time(&self) -> u64 {
        self.nodes.iter().map(|n| n.time).max().unwrap_or(0)
    }

    /// Total references.
    pub fn total_refs(&self) -> u64 {
        self.nodes.iter().map(|n| n.refs).sum()
    }

    /// Translation misses summed over the machine (node TLBs or the
    /// per-home shared TLBs, whichever the scheme uses).
    pub fn translation_misses(&self) -> u64 {
        self.nodes.iter().map(|n| n.translation[0].misses).sum()
    }

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
    nodes: Vec<NodeCtx>,
    net: Crossbar,
    page_table: PageTable,
    alloc: FirstTouch,
    dir: Directory,
    local_mem: u64,
    remote_mem: u64,
}

/// First-touch frame allocation: a page's frame (and therefore its home)
/// goes to the first node that touches it, `toucher`, which the machine
/// sets before it maps a page. The SHARED-TLB scheme bypasses this
/// entirely (home = VA hash).
#[derive(Debug)]
struct FirstTouch {
    /// Frames handed out so far, per node.
    used: Vec<u64>,
    total: u64,
    toucher: NodeId,
}

impl FirstTouch {
    fn new(cfg: &MachineConfig) -> Self {
        FirstTouch {
            used: vec![0; cfg.nodes as usize],
            total: cfg.total_page_frames(),
            toucher: NodeId::new(0),
        }
    }

    /// Allocates the next frame homed at `node`. Frame `f`'s home is
    /// `f mod nodes`, so node `n`'s `k`-th frame is `k·nodes + n`.
    fn allocate_at(&mut self, node: NodeId) -> Result<PFrame, VmError> {
        let nodes = self.used.len() as u64;
        let k = &mut self.used[node.index()];
        let f = *k * nodes + node.raw() as u64;
        if f >= self.total {
            return Err(VmError::OutOfFrames);
        }
        *k += 1;
        Ok(PFrame::new(f))
    }
}

impl FrameAllocator for FirstTouch {
    fn allocate(&mut self, _page: VPage, _cfg: &MachineConfig) -> Result<PFrame, VmError> {
        self.allocate_at(self.toucher)
    }

    /// Pages are never unmapped: the model has no page daemon.
    fn release(&mut self, _frame: PFrame) {}

    fn free_frames(&self) -> u64 {
        self.total - self.used.iter().sum::<u64>()
    }
}

impl NumaMachine {
    /// Builds the machine. The `SimConfig`'s machine geometry, TLB specs
    /// and seed are reused; its COMA scheme is ignored in favour of
    /// `scheme`, and its warm-up, audit, tracing, contention and fault
    /// settings do not apply.
    ///
    /// # Panics
    ///
    /// Panics if the machine configuration is invalid (see
    /// [`MachineConfig::validate`]).
    pub fn new(cfg: SimConfig, scheme: NumaScheme) -> Self {
        cfg.machine.validate().expect("invalid machine configuration");
        let m = &cfg.machine;
        let nodes = (0..m.nodes)
            .map(|i| NodeCtx::new(&cfg, cfg.seed ^ (i << 23), BankModel::build))
            .collect();
        NumaMachine {
            scheme,
            nodes,
            net: Crossbar::new(m.nodes, m.timing).with_block_size(m.slc.block_size),
            page_table: PageTable::new(m.clone()),
            alloc: FirstTouch::new(m),
            dir: Directory::new(m.nodes),
            local_mem: 0,
            remote_mem: 0,
            cfg,
        }
    }

    /// Replays one trace per node to completion, in global time order.
    ///
    /// # Errors
    ///
    /// [`SimError::BadTraces`] if the number of traces does not match the
    /// node count, [`SimError::Vm`] if first-touch placement runs out of
    /// frames at a node, [`SimError::Lock`] on lock misuse and
    /// [`SimError::Deadlock`] if some node parks on a barrier or lock that
    /// the other traces never reach.
    pub fn run(self, traces: Vec<Vec<Op>>) -> Result<NumaReport, SimError> {
        self.run_sources(trace_sources(&traces))
    }

    /// Replays one lazy [`OpSource`] per node to completion, in global
    /// time order.
    ///
    /// # Errors
    ///
    /// As [`NumaMachine::run`].
    pub fn run_sources<'a>(
        mut self,
        mut sources: Vec<Box<dyn OpSource + 'a>>,
    ) -> Result<NumaReport, SimError> {
        Replay::new(self.nodes.len()).run(&mut self, &mut sources)?;
        Ok(NumaReport {
            scheme: self.scheme,
            nodes: self.nodes.into_iter().map(NodeCtx::into_report).collect(),
            local_mem_accesses: self.local_mem,
            remote_mem_accesses: self.remote_mem,
        })
    }

    /// Presents `page` to node `n`'s TLB, charging a miss as a page walk.
    fn translate(&mut self, n: usize, page: VPage) {
        let node = &mut self.nodes[n];
        let walk = node.xlb.lookup(page).cycles;
        node.charge(walk, Category::TlbWalk);
    }
}

impl Engine for NumaMachine {
    fn node(&mut self, n: usize) -> &mut NodeCtx {
        &mut self.nodes[n]
    }

    fn access(&mut self, n: usize, va: VAddr, kind: AccessKind) -> Result<(), SimError> {
        let m = self.cfg.machine.clone();
        let node_id = NodeId::new(n as u16);
        let page = va.page(m.page_size);
        let scheme = self.scheme;

        // Placement: first touch for private-TLB schemes, VA hash for
        // SHARED-TLB.
        let (home, pa) = if scheme == NumaScheme::SharedTlb {
            (m.home_of_vpage(page), None)
        } else {
            self.alloc.toucher = node_id;
            let f = self
                .page_table
                .map_physical(page, &mut self.alloc)
                .map_err(|source| SimError::Vm { node: n as u16, source })?;
            (m.home_of_pframe(f.raw()), Some(f.raw() * m.page_size + va.page_offset(m.page_size)))
        };
        let byte = |virt: bool| if virt { va.raw() } else { pa.expect("physical scheme") };
        let flc_block = byte(scheme.virtual_flc()) / m.flc.block_size;
        let slc_block = byte(scheme.virtual_slc()) / m.slc.block_size;

        self.nodes[n].count(kind);
        self.nodes[n].charge(1, Category::Busy);
        if scheme == NumaScheme::L0Tlb {
            self.translate(n, page);
        }
        let flc_hit = match kind {
            AccessKind::Read => self.nodes[n].flc.read(flc_block).is_hit(),
            AccessKind::Write => self.nodes[n].flc.write(flc_block).is_hit(),
        };
        if kind == AccessKind::Read && flc_hit {
            return Ok(());
        }
        if scheme == NumaScheme::L1Tlb {
            self.translate(n, page);
        }
        let ratio = m.slc.block_size / m.flc.block_size;
        let slc_res = self.nodes[n].slc.access(slc_block, kind);
        if let Some(ev) = slc_res.evicted {
            self.nodes[n].flc.invalidate_span(ev, ratio);
        }
        let writable = self.dir.slot(slc_block).and_then(|s| self.dir.master(s)) == Some(node_id);
        if slc_res.hit && (kind == AccessKind::Read || writable) {
            self.nodes[n].charge(m.timing.slc_hit, Category::LocalStall);
            return Ok(());
        }
        if scheme == NumaScheme::L2Tlb {
            self.translate(n, page);
        }

        // Directory transaction at the home: `now` advances from the
        // request through the home's work to the reply, split into message
        // (`net`), memory (`mem`) and shared-TLB (`lookup`) cycles.
        let start = self.nodes[n].time;
        let mut now = self.net.send(node_id, home, MsgKind::ReadReq, start);
        let mut net = now - start;
        let mut mem = 0;
        let lookup = if scheme == NumaScheme::SharedTlb {
            // The home's shared TLB translates; it maps only local pages,
            // keyed above the home-selector bits.
            self.nodes[home.index()].xlb.lookup(VPage::new(page.raw() / m.nodes)).cycles
        } else {
            0
        };
        now += lookup;
        let slot = self.dir.entry(slc_block, home);
        let master = self.dir.master(slot);
        match kind {
            AccessKind::Read => {
                if let Some(owner) = master.filter(|&o| o != node_id) {
                    // Fetch from the modified owner; it keeps a shared
                    // copy.
                    let arrive = self.net.send(home, owner, MsgKind::ForwardReq, now);
                    net += arrive - now;
                    now = arrive;
                    self.dir.set_master(slot, None);
                }
                if master != Some(node_id) {
                    // The owner's or the home memory's access.
                    mem += m.timing.am_hit;
                    now += m.timing.am_hit;
                }
                self.dir.add(slot, node_id);
            }
            AccessKind::Write => {
                // Invalidate every other copy.
                let mut acks = 0;
                for holder in self.dir.holders(slot).filter(|&h| h != node_id) {
                    self.net.send(home, holder, MsgKind::Invalidate, now);
                    let other = &mut self.nodes[holder.index()];
                    other.slc.invalidate(slc_block);
                    other.flc.invalidate_span(slc_block, ratio);
                    acks = 2 * m.timing.net_request;
                }
                self.dir.set_only(slot, node_id);
                self.dir.set_master(slot, Some(node_id));
                mem += m.timing.am_hit;
                net += acks;
                now += m.timing.am_hit + acks;
            }
        }
        let reply = self.net.send(home, node_id, MsgKind::BlockReply, now);
        net += reply - now;

        let node = &mut self.nodes[n];
        node.charge(lookup, Category::DlbLookup);
        if home == node_id {
            self.local_mem += 1;
            node.charge(mem + net, Category::LocalStall);
        } else {
            self.remote_mem += 1;
            node.charge(mem, Category::Coherence);
            node.charge(net, Category::Network);
        }
        Ok(())
    }

    /// Charges a change of a page's protection: every TLB that may map
    /// the page drops it — all node TLBs, or the home's shared TLB under
    /// SHARED-TLB — for one round trip of control messages.
    fn protect(&mut self, n: usize, va: VAddr) -> Result<(), SimError> {
        let m = &self.cfg.machine;
        let page = va.page(m.page_size);
        let category = if self.scheme == NumaScheme::SharedTlb {
            let home = m.home_of_vpage(page).index();
            self.nodes[home].xlb.shootdown(VPage::new(page.raw() / m.nodes));
            Category::DlbLookup
        } else {
            self.nodes.iter_mut().for_each(|node| node.xlb.shootdown(page));
            Category::TlbWalk
        };
        let node = &mut self.nodes[n];
        node.charge(1, Category::Busy);
        node.charge(2 * m.timing.net_request, category);
        Ok(())
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

    fn run(scheme: NumaScheme, bytes: u64) -> NumaReport {
        NumaMachine::new(cfg(), scheme).run_sources(private_streams(4, bytes, 2)).unwrap()
    }

    #[test]
    fn private_streams_read_every_line_and_write_every_fourth() {
        let mut node1 = private_streams(2, 512, 2).pop().unwrap();
        let ops: Vec<Op> = std::iter::from_fn(|| node1.next_op()).collect();
        let va = |off: u64| VAddr::new(0x1000_0000 + 1024 + off);
        let mut pass = vec![Op::Read(va(0)), Op::Write(va(0)), Op::Read(va(64))];
        pass.extend([Op::Read(va(128)), Op::Read(va(192)), Op::Read(va(256)), Op::Write(va(256))]);
        pass.extend([Op::Read(va(320)), Op::Read(va(384)), Op::Read(va(448))]);
        assert_eq!(ops, [pass.clone(), pass].concat());
        assert!(private_streams(1, 0, 3)[0].next_op().is_none());
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
        assert_eq!(alloc.free_frames(), m.total_page_frames() - per_node - 1);
    }

    #[test]
    fn a_private_set_beyond_the_frame_pool_is_an_error() {
        // The tiny machine homes 64 one-KB frames at each node; every node
        // touches 128 private pages first.
        let machine = NumaMachine::new(cfg(), NumaScheme::L0Tlb);
        let err = machine.run_sources(private_streams(4, 128 << 10, 1)).unwrap_err();
        assert!(
            matches!(err, SimError::Vm { source: VmError::OutOfFrames, .. }),
            "expected frame exhaustion, got {err}"
        );
    }

    #[test]
    fn a_trace_per_node_is_required() {
        let err = NumaMachine::new(cfg(), NumaScheme::L1Tlb).run(vec![Vec::new(); 3]).unwrap_err();
        assert!(matches!(err, SimError::BadTraces { got: 3, want: 4 }), "got {err}");
    }

    #[test]
    fn first_touch_keeps_private_capacity_misses_local() {
        // Private working set larger than the SLC: capacity misses occur,
        // and with first-touch placement they are all local.
        let report = run(NumaScheme::L0Tlb, 8 << 10);
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
        let report = run(NumaScheme::SharedTlb, 8 << 10);
        assert!(
            report.remote_fraction() > 0.5,
            "VA-hashed homes must make most misses remote (got {:.2})",
            report.remote_fraction()
        );
    }

    #[test]
    fn shared_tlb_is_slower_than_first_touch_on_private_data() {
        let l0 = run(NumaScheme::L0Tlb, 8 << 10);
        let shared = run(NumaScheme::SharedTlb, 8 << 10);
        assert!(
            shared.exec_time() > l0.exec_time(),
            "SHARED-TLB ({}) must lose to first-touch L0 ({}) on private data",
            shared.exec_time(),
            l0.exec_time()
        );
    }

    #[test]
    fn translation_points_filter_like_the_coma_machine() {
        let accesses =
            |scheme| run(scheme, 4 << 10).nodes.iter().map(|n| n.translation[0].accesses).sum();
        let mut last = u64::MAX;
        for scheme in [NumaScheme::L0Tlb, NumaScheme::L1Tlb, NumaScheme::L2Tlb] {
            let now: u64 = accesses(scheme);
            assert!(now <= last, "{scheme}: {now} accesses above the level above ({last})");
            last = now;
        }
        // The shared TLB sees only home transactions.
        assert!(accesses(NumaScheme::SharedTlb) <= last);
    }

    #[test]
    fn a_write_invalidates_sharers_beyond_the_first_64_nodes() {
        let m = MachineConfig::builder().nodes(128).build().unwrap();
        let cfg = SimConfig::new(m, Scheme::L0_TLB);
        let mut machine = NumaMachine::new(cfg, NumaScheme::SharedTlb);
        let va = VAddr::new(0x4000);
        let block = va.raw() / machine.cfg.machine.slc.block_size;
        machine.access(3, va, AccessKind::Read).unwrap();
        machine.access(100, va, AccessKind::Read).unwrap();
        assert!(machine.nodes[3].slc.contains(block) && machine.nodes[100].slc.contains(block));
        machine.access(0, va, AccessKind::Write).unwrap();
        assert!(!machine.nodes[3].slc.contains(block), "node 3 keeps a stale copy");
        assert!(!machine.nodes[100].slc.contains(block), "node 100 keeps a stale copy");
        assert!(machine.nodes[0].slc.contains(block));
    }

    #[test]
    fn nodes_replay_in_time_order() {
        // Node 1 reads X at t = 0; node 0 writes X only after 10,000
        // cycles. Replayed in time order, X's home memory serves the read
        // (no owner to forward to) and the later write invalidates node
        // 1's copy. X's page is homed at node 3, away from both.
        let mut machine = NumaMachine::new(cfg(), NumaScheme::SharedTlb);
        let page_size = machine.cfg.machine.page_size;
        let x = VAddr::new(3 * page_size);
        let block = x.raw() / machine.cfg.machine.slc.block_size;
        let traces = vec![
            vec![Op::Compute(10_000), Op::Write(x)],
            vec![Op::Read(x)],
            Vec::new(),
            Vec::new(),
        ];
        Replay::new(4).run(&mut machine, &mut trace_sources(&traces)).unwrap();
        assert_eq!(machine.net.stats().msgs_of(MsgKind::ForwardReq), 0, "the read found no owner");
        assert_eq!(machine.net.stats().msgs_of(MsgKind::Invalidate), 1);
        assert!(!machine.nodes[1].slc.contains(block), "the write must invalidate the reader");
        assert!(machine.nodes[0].slc.contains(block));
    }

    #[test]
    fn write_sharing_invalidates_readers() {
        let mut traces = vec![Vec::new(); 4];
        for _ in 0..50 {
            traces[0].push(Op::Write(VAddr::new(0x100)));
            traces[1].push(Op::Read(VAddr::new(0x100)));
        }
        let report = NumaMachine::new(cfg(), NumaScheme::L0Tlb).run(traces).unwrap();
        assert!(report.total_refs() == 100);
        let stall: u64 = report
            .nodes
            .iter()
            .map(|n| n.fine.local_stall + n.fine.coherence + n.fine.network)
            .sum();
        assert!(stall > 0);
    }

    #[test]
    fn report_accessors() {
        let r = NumaMachine::new(cfg(), NumaScheme::L2Tlb).run(vec![Vec::new(); 4]).unwrap();
        assert_eq!(r.total_refs(), 0);
        assert_eq!(r.remote_fraction(), 0.0);
        assert_eq!(r.scheme.label(), "L2-TLB");
        assert_eq!(NumaScheme::SharedTlb.to_string(), "SHARED-TLB");
    }
}
