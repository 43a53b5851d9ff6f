//! Crossbar interconnect model.
//!
//! The paper's machine connects 32 nodes with an 8-bit-wide crossbar clocked
//! at 100 MHz, half the 200 MHz processor clock: an 8-byte control message
//! takes 16 processor cycles and a message carrying a 128-byte memory block
//! takes 272 (§5.1). This crate provides:
//!
//! * [`MsgKind`] — the coherence message vocabulary and each kind's size
//!   class;
//! * [`Crossbar`] — the latency model, optionally with output-port
//!   contention, plus per-node traffic statistics.
//!
//! The simulator is trace-driven with atomic transactions, so the crossbar
//! answers one question: *at what time does a message injected at `now`
//! arrive?* With contention disabled (the paper's model) that is simply
//! `now + latency(kind)`.
//!
//! # Example
//!
//! ```
//! use vcoma_net::{Crossbar, MsgKind};
//! use vcoma_types::{NodeId, Timing};
//!
//! let mut xbar = Crossbar::new(4, Timing::paper());
//! let arrival = xbar.send(NodeId::new(0), NodeId::new(2), MsgKind::ReadReq, 100);
//! assert_eq!(arrival, 116); // 16-cycle request latency
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use vcoma_metrics::{Histogram, Mergeable};
use vcoma_types::{NodeId, Timing};

/// Coherence-protocol message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Read (shared) request — control-sized.
    ReadReq,
    /// Write / ownership request — control-sized.
    WriteReq,
    /// Upgrade request (Shared → Exclusive without data) — control-sized.
    UpgradeReq,
    /// Reply carrying a memory block — block-sized.
    BlockReply,
    /// Acknowledgement or negative acknowledgement — control-sized.
    Ack,
    /// Invalidation request — control-sized.
    Invalidate,
    /// Replacement injection carrying a block — block-sized.
    Inject,
    /// Injection forward to another node, carrying the block — block-sized.
    InjectForward,
    /// Request forwarded to the current owner — control-sized.
    ForwardReq,
    /// Writeback of a dirty block to the level below — block-sized.
    Writeback,
    /// Negative acknowledgement from a busy home directory — control-sized.
    /// Tells the requester to back off and retry the whole transaction.
    Nack,
}

/// All message kinds, for iteration in statistics code.
pub const ALL_MSG_KINDS: [MsgKind; 11] = [
    MsgKind::ReadReq,
    MsgKind::WriteReq,
    MsgKind::UpgradeReq,
    MsgKind::BlockReply,
    MsgKind::Ack,
    MsgKind::Invalidate,
    MsgKind::Inject,
    MsgKind::InjectForward,
    MsgKind::ForwardReq,
    MsgKind::Writeback,
    MsgKind::Nack,
];

impl MsgKind {
    /// Returns `true` if the message carries a memory block (and therefore
    /// pays the block latency).
    pub const fn carries_block(self) -> bool {
        matches!(
            self,
            MsgKind::BlockReply | MsgKind::Inject | MsgKind::InjectForward | MsgKind::Writeback
        )
    }

    /// One-way latency of this message kind under `timing`.
    pub const fn latency(self, timing: &Timing) -> u64 {
        if self.carries_block() {
            timing.net_block
        } else {
            timing.net_request
        }
    }

    /// Payload size in bytes (8-byte control messages; block messages carry
    /// a 128-byte block plus an 8-byte header in the paper's machine).
    pub const fn bytes(self, block_size: u64) -> u64 {
        if self.carries_block() {
            block_size + 8
        } else {
            8
        }
    }

    /// Stable `&'static` label (same spelling as [`std::fmt::Display`]),
    /// for layers that tag spans or events with a `'static` kind string.
    pub const fn label(self) -> &'static str {
        match self {
            MsgKind::ReadReq => "read-req",
            MsgKind::WriteReq => "write-req",
            MsgKind::UpgradeReq => "upgrade-req",
            MsgKind::BlockReply => "block-reply",
            MsgKind::Ack => "ack",
            MsgKind::Invalidate => "invalidate",
            MsgKind::Inject => "inject",
            MsgKind::InjectForward => "inject-forward",
            MsgKind::ForwardReq => "forward-req",
            MsgKind::Writeback => "writeback",
            MsgKind::Nack => "nack",
        }
    }

    fn stat_index(self) -> usize {
        match self {
            MsgKind::ReadReq => 0,
            MsgKind::WriteReq => 1,
            MsgKind::UpgradeReq => 2,
            MsgKind::BlockReply => 3,
            MsgKind::Ack => 4,
            MsgKind::Invalidate => 5,
            MsgKind::Inject => 6,
            MsgKind::InjectForward => 7,
            MsgKind::ForwardReq => 8,
            MsgKind::Writeback => 9,
            MsgKind::Nack => 10,
        }
    }
}

impl std::fmt::Display for MsgKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-crossbar traffic statistics.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Messages sent, by [`MsgKind`] statistics index.
    msgs_by_kind: [u64; 11],
    /// Messages sent per source node.
    sent_per_node: Vec<u64>,
    /// Messages received per destination node.
    recv_per_node: Vec<u64>,
    /// Per-message output-port queue wait, in cycles (all-zero samples
    /// when contention is disabled).
    queue_wait: Histogram,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Total cycles spent waiting for contended ports (0 when contention is
    /// disabled).
    pub contention_cycles: u64,
    /// Messages a node sent to itself (charged no network latency).
    pub local_msgs: u64,
    /// Messages lost at the crossbar boundary by an injected fault (the
    /// traffic counters above still count them: they were injected and
    /// consumed wire bandwidth, but never arrived).
    pub dropped_msgs: u64,
    /// Spurious duplicate copies injected by a fault (each also counted in
    /// the traffic counters; the receiver discards them).
    pub duplicated_msgs: u64,
    /// Extra wire cycles added to delivered messages by fault-injected
    /// delays and node pause windows.
    pub fault_delay_cycles: u64,
}

impl Default for NetStats {
    /// An empty statistics block with no per-node slots; merging grows the
    /// per-node vectors to the widest operand.
    fn default() -> Self {
        NetStats::new(0)
    }
}

impl NetStats {
    fn new(nodes: usize) -> Self {
        NetStats {
            msgs_by_kind: [0; 11],
            sent_per_node: vec![0; nodes],
            recv_per_node: vec![0; nodes],
            queue_wait: Histogram::new(),
            bytes: 0,
            contention_cycles: 0,
            local_msgs: 0,
            dropped_msgs: 0,
            duplicated_msgs: 0,
            fault_delay_cycles: 0,
        }
    }

    /// Messages of one kind sent so far.
    pub fn msgs_of(&self, kind: MsgKind) -> u64 {
        self.msgs_by_kind[kind.stat_index()]
    }

    /// Total messages sent.
    pub fn total_msgs(&self) -> u64 {
        self.msgs_by_kind.iter().sum()
    }

    /// Messages sent by one node.
    pub fn sent_by(&self, node: NodeId) -> u64 {
        self.sent_per_node[node.index()]
    }

    /// Messages received by one node.
    pub fn received_by(&self, node: NodeId) -> u64 {
        self.recv_per_node[node.index()]
    }

    /// Histogram of per-message output-port queue waits.
    pub fn queue_wait(&self) -> &Histogram {
        &self.queue_wait
    }
}

impl Mergeable for NetStats {
    fn merge(&mut self, other: &Self) {
        self.msgs_by_kind.merge(&other.msgs_by_kind);
        if other.sent_per_node.len() > self.sent_per_node.len() {
            self.sent_per_node.resize(other.sent_per_node.len(), 0);
            self.recv_per_node.resize(other.recv_per_node.len(), 0);
        }
        for (a, b) in self.sent_per_node.iter_mut().zip(other.sent_per_node.iter()) {
            *a += b;
        }
        for (a, b) in self.recv_per_node.iter_mut().zip(other.recv_per_node.iter()) {
            *a += b;
        }
        self.queue_wait.merge(&other.queue_wait);
        self.bytes += other.bytes;
        self.contention_cycles += other.contention_cycles;
        self.local_msgs += other.local_msgs;
        self.dropped_msgs += other.dropped_msgs;
        self.duplicated_msgs += other.duplicated_msgs;
        self.fault_delay_cycles += other.fault_delay_cycles;
    }
}

/// Fault decision for one message at the crossbar boundary, produced by a
/// [`FaultHook`]. The default is no fault.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFault {
    /// Lose the message: it is injected (and counted) but never arrives.
    pub drop: bool,
    /// Inject a spurious second copy that consumes bandwidth and is
    /// discarded on arrival.
    pub duplicate: bool,
    /// Extra wire cycles added on top of the nominal latency.
    pub extra_delay: u64,
}

impl LinkFault {
    /// The no-fault decision.
    pub const NONE: LinkFault = LinkFault { drop: false, duplicate: false, extra_delay: 0 };
}

/// Injection point consulted by [`Crossbar::send_faulty`] for every
/// node-to-node message. Implementations must be deterministic functions
/// of their own state and the call arguments so runs stay reproducible
/// (see `vcoma-faults` for the seeded plan-driven implementation).
pub trait FaultHook: std::fmt::Debug {
    /// Decides the fault (if any) for one message about to be sent.
    fn on_send(&mut self, src: NodeId, dst: NodeId, kind: MsgKind, now: u64) -> LinkFault;

    /// Clones the hook into a fresh box (object-safe `Clone`).
    fn box_clone(&self) -> Box<dyn FaultHook>;
}

impl Clone for Box<dyn FaultHook> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Outcome of a [`Crossbar::send_faulty`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The message arrived at `arrive`; `fault_delay` of those cycles were
    /// added by the fault hook (zero without one).
    Delivered {
        /// Arrival time at the destination.
        arrive: u64,
        /// Portion of the flight time injected by the fault hook.
        fault_delay: u64,
    },
    /// The message was lost; the sender must detect this by timeout.
    Dropped,
}

/// The crossbar: latency model plus statistics, with optional output-port
/// contention.
///
/// With contention enabled, each destination port is busy for the message's
/// transfer time; a message arriving at a busy port queues behind it
/// (paper's model ignores this — it is off by default and exercised by the
/// `ablation_contention` bench).
#[derive(Debug, Clone)]
pub struct Crossbar {
    timing: Timing,
    block_size: u64,
    stats: NetStats,
    /// Busy-until time per destination port; `None` disables contention.
    port_busy_until: Option<Vec<u64>>,
    /// Fault-injection hook consulted by [`Crossbar::send_faulty`]; `None`
    /// (the default) makes `send_faulty` behave exactly like [`Crossbar::send`].
    fault_hook: Option<Box<dyn FaultHook>>,
}

impl Crossbar {
    /// Creates a contention-free crossbar for `nodes` nodes (the paper's
    /// model) with a 128-byte block payload.
    pub fn new(nodes: u64, timing: Timing) -> Self {
        Crossbar {
            timing,
            block_size: 128,
            stats: NetStats::new(nodes as usize),
            port_busy_until: None,
            fault_hook: None,
        }
    }

    /// Enables output-port contention modelling.
    pub fn with_contention(mut self) -> Self {
        let n = self.stats.sent_per_node.len();
        self.port_busy_until = Some(vec![0; n]);
        self
    }

    /// Sets the block payload size used for byte accounting.
    pub fn with_block_size(mut self, block_size: u64) -> Self {
        self.block_size = block_size;
        self
    }

    /// Installs a fault-injection hook consulted by [`Crossbar::send_faulty`].
    pub fn with_fault_hook(mut self, hook: Box<dyn FaultHook>) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// `true` if a fault hook is installed.
    pub fn has_fault_hook(&self) -> bool {
        self.fault_hook.is_some()
    }

    /// Sends a message at time `now`; returns its arrival time at `dst`.
    ///
    /// A message from a node to itself (e.g. the local node is also the
    /// home) is free: the paper charges network latency only for remote
    /// transactions.
    pub fn send(&mut self, src: NodeId, dst: NodeId, kind: MsgKind, now: u64) -> u64 {
        if src == dst {
            self.stats.local_msgs += 1;
            return now;
        }
        self.stats.msgs_by_kind[kind.stat_index()] += 1;
        self.stats.sent_per_node[src.index()] += 1;
        self.stats.recv_per_node[dst.index()] += 1;
        self.stats.bytes += kind.bytes(self.block_size);
        let latency = kind.latency(&self.timing);
        match &mut self.port_busy_until {
            None => {
                self.stats.queue_wait.record(0);
                now + latency
            }
            Some(ports) => {
                let port = &mut ports[dst.index()];
                let start = now.max(*port);
                self.stats.contention_cycles += start - now;
                self.stats.queue_wait.record(start - now);
                *port = start + latency;
                start + latency
            }
        }
    }

    /// Sends a message through the fault hook (if any): the hook may drop
    /// it, duplicate it or delay it. Without a hook this is exactly
    /// [`Crossbar::send`] — identical arrival time, identical statistics.
    ///
    /// A dropped message is still counted as sent traffic (it was injected
    /// and consumed wire bandwidth) but never reaches the destination's
    /// receive counter. A duplicate charges a second full message. Self
    /// sends never fault: they touch no link.
    pub fn send_faulty(&mut self, src: NodeId, dst: NodeId, kind: MsgKind, now: u64) -> SendOutcome {
        let fault = match &mut self.fault_hook {
            Some(hook) if src != dst => hook.on_send(src, dst, kind, now),
            _ => LinkFault::NONE,
        };
        if fault.drop {
            self.stats.msgs_by_kind[kind.stat_index()] += 1;
            self.stats.sent_per_node[src.index()] += 1;
            self.stats.bytes += kind.bytes(self.block_size);
            self.stats.dropped_msgs += 1;
            return SendOutcome::Dropped;
        }
        let arrive = self.send(src, dst, kind, now) + fault.extra_delay;
        self.stats.fault_delay_cycles += fault.extra_delay;
        if fault.duplicate {
            self.stats.duplicated_msgs += 1;
            let _ = self.send(src, dst, kind, now);
        }
        SendOutcome::Delivered { arrive, fault_delay: fault.extra_delay }
    }

    /// Latency a message kind would incur (no state change).
    pub fn latency_of(&self, kind: MsgKind) -> u64 {
        kind.latency(&self.timing)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Zeroes the traffic counters (used between a warm-up pass and the
    /// measured pass). Port busy times are also cleared.
    pub fn reset_stats(&mut self) {
        let n = self.stats.sent_per_node.len();
        self.stats = NetStats::new(n);
        if let Some(ports) = &mut self.port_busy_until {
            ports.iter_mut().for_each(|p| *p = 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xbar() -> Crossbar {
        Crossbar::new(4, Timing::paper())
    }

    #[test]
    fn request_and_block_latencies_match_paper() {
        let mut x = xbar();
        assert_eq!(x.send(NodeId::new(0), NodeId::new(1), MsgKind::ReadReq, 0), 16);
        assert_eq!(x.send(NodeId::new(1), NodeId::new(0), MsgKind::BlockReply, 100), 372);
        assert_eq!(x.latency_of(MsgKind::Invalidate), 16);
        assert_eq!(x.latency_of(MsgKind::Inject), 272);
    }

    #[test]
    fn self_send_is_free_and_uncounted_in_traffic() {
        let mut x = xbar();
        let n = NodeId::new(2);
        assert_eq!(x.send(n, n, MsgKind::BlockReply, 50), 50);
        assert_eq!(x.stats().total_msgs(), 0);
        assert_eq!(x.stats().local_msgs, 1);
        assert_eq!(x.stats().bytes, 0);
    }

    #[test]
    fn stats_count_by_kind_and_node() {
        let mut x = xbar();
        x.send(NodeId::new(0), NodeId::new(1), MsgKind::ReadReq, 0);
        x.send(NodeId::new(0), NodeId::new(2), MsgKind::ReadReq, 0);
        x.send(NodeId::new(1), NodeId::new(0), MsgKind::BlockReply, 0);
        assert_eq!(x.stats().msgs_of(MsgKind::ReadReq), 2);
        assert_eq!(x.stats().msgs_of(MsgKind::BlockReply), 1);
        assert_eq!(x.stats().total_msgs(), 3);
        assert_eq!(x.stats().sent_by(NodeId::new(0)), 2);
        assert_eq!(x.stats().received_by(NodeId::new(0)), 1);
        assert_eq!(x.stats().bytes, 8 + 8 + 136);
    }

    #[test]
    fn message_size_classes() {
        for k in ALL_MSG_KINDS {
            if k.carries_block() {
                assert_eq!(k.bytes(128), 136, "{k}");
                assert_eq!(k.latency(&Timing::paper()), 272, "{k}");
            } else {
                assert_eq!(k.bytes(128), 8, "{k}");
                assert_eq!(k.latency(&Timing::paper()), 16, "{k}");
            }
        }
    }

    #[test]
    fn contention_serialises_same_destination() {
        let mut x = Crossbar::new(4, Timing::paper()).with_contention();
        let dst = NodeId::new(3);
        let a1 = x.send(NodeId::new(0), dst, MsgKind::ReadReq, 0);
        let a2 = x.send(NodeId::new(1), dst, MsgKind::ReadReq, 0);
        assert_eq!(a1, 16);
        assert_eq!(a2, 32); // queued behind the first
        assert_eq!(x.stats().contention_cycles, 16);
        // Different destination unaffected.
        let a3 = x.send(NodeId::new(1), NodeId::new(2), MsgKind::ReadReq, 0);
        assert_eq!(a3, 16);
    }

    #[test]
    fn contention_free_port_adds_no_delay() {
        let mut x = Crossbar::new(4, Timing::paper()).with_contention();
        let a1 = x.send(NodeId::new(0), NodeId::new(1), MsgKind::ReadReq, 0);
        let a2 = x.send(NodeId::new(0), NodeId::new(1), MsgKind::ReadReq, 100);
        assert_eq!(a1, 16);
        assert_eq!(a2, 116);
        assert_eq!(x.stats().contention_cycles, 0);
    }

    #[test]
    fn custom_block_size_changes_byte_accounting() {
        let mut x = Crossbar::new(2, Timing::paper()).with_block_size(64);
        x.send(NodeId::new(0), NodeId::new(1), MsgKind::Writeback, 0);
        assert_eq!(x.stats().bytes, 72);
    }

    #[test]
    fn queue_wait_histogram_records_contention_waits() {
        let mut x = Crossbar::new(4, Timing::paper()).with_contention();
        let dst = NodeId::new(3);
        x.send(NodeId::new(0), dst, MsgKind::ReadReq, 0);
        x.send(NodeId::new(1), dst, MsgKind::ReadReq, 0); // waits 16
        let h = x.stats().queue_wait();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 16);
        assert_eq!(h.max(), Some(16));
    }

    #[test]
    fn net_stats_merge_folds_counters_and_histograms() {
        let mut a = xbar();
        let mut b = xbar();
        a.send(NodeId::new(0), NodeId::new(1), MsgKind::ReadReq, 0);
        b.send(NodeId::new(1), NodeId::new(2), MsgKind::BlockReply, 0);
        b.send(NodeId::new(2), NodeId::new(2), MsgKind::Ack, 0);
        let mut merged = a.stats().clone();
        merged.merge(b.stats());
        assert_eq!(merged.total_msgs(), 2);
        assert_eq!(merged.msgs_of(MsgKind::ReadReq), 1);
        assert_eq!(merged.msgs_of(MsgKind::BlockReply), 1);
        assert_eq!(merged.local_msgs, 1);
        assert_eq!(merged.bytes, 8 + 136);
        assert_eq!(merged.sent_by(NodeId::new(1)), 1);
        assert_eq!(merged.queue_wait().count(), 2);
    }

    #[test]
    fn msg_kind_display_nonempty() {
        for k in ALL_MSG_KINDS {
            assert!(!k.to_string().is_empty());
        }
    }

    /// A hook replaying a fixed script of decisions (then no faults). The
    /// script is a `VecDeque` so consuming the head is an O(1) `pop_front`
    /// rather than an O(n) shift.
    #[derive(Debug, Clone)]
    struct Scripted(std::collections::VecDeque<LinkFault>);

    impl FaultHook for Scripted {
        fn on_send(&mut self, _s: NodeId, _d: NodeId, _k: MsgKind, _now: u64) -> LinkFault {
            self.0.pop_front().unwrap_or(LinkFault::NONE)
        }
        fn box_clone(&self) -> Box<dyn FaultHook> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn send_faulty_without_hook_matches_send() {
        let mut a = xbar();
        let mut b = xbar();
        let plain = a.send(NodeId::new(0), NodeId::new(1), MsgKind::ReadReq, 5);
        let faulty = b.send_faulty(NodeId::new(0), NodeId::new(1), MsgKind::ReadReq, 5);
        assert_eq!(faulty, SendOutcome::Delivered { arrive: plain, fault_delay: 0 });
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn dropped_message_counts_traffic_but_never_arrives() {
        let mut x = xbar().with_fault_hook(Box::new(Scripted(std::collections::VecDeque::from(vec![LinkFault {
            drop: true,
            ..LinkFault::NONE
        }]))));
        let out = x.send_faulty(NodeId::new(0), NodeId::new(1), MsgKind::ReadReq, 0);
        assert_eq!(out, SendOutcome::Dropped);
        assert_eq!(x.stats().dropped_msgs, 1);
        assert_eq!(x.stats().msgs_of(MsgKind::ReadReq), 1, "the lost message was injected");
        assert_eq!(x.stats().received_by(NodeId::new(1)), 0, "but never received");
        // The next message is clean again.
        let out = x.send_faulty(NodeId::new(0), NodeId::new(1), MsgKind::ReadReq, 0);
        assert_eq!(out, SendOutcome::Delivered { arrive: 16, fault_delay: 0 });
    }

    #[test]
    fn duplicate_and_delay_accounting() {
        let mut x = xbar().with_fault_hook(Box::new(Scripted(std::collections::VecDeque::from(vec![LinkFault {
            drop: false,
            duplicate: true,
            extra_delay: 10,
        }]))));
        let out = x.send_faulty(NodeId::new(0), NodeId::new(1), MsgKind::ReadReq, 0);
        assert_eq!(out, SendOutcome::Delivered { arrive: 26, fault_delay: 10 });
        assert_eq!(x.stats().duplicated_msgs, 1);
        assert_eq!(x.stats().fault_delay_cycles, 10);
        assert_eq!(x.stats().msgs_of(MsgKind::ReadReq), 2, "the duplicate is real traffic");
        assert_eq!(x.stats().bytes, 16);
    }

    #[test]
    fn self_sends_never_fault() {
        let mut x = xbar().with_fault_hook(Box::new(Scripted(std::collections::VecDeque::from(vec![LinkFault {
            drop: true,
            ..LinkFault::NONE
        }]))));
        let n = NodeId::new(2);
        let out = x.send_faulty(n, n, MsgKind::BlockReply, 50);
        assert_eq!(out, SendOutcome::Delivered { arrive: 50, fault_delay: 0 });
        assert_eq!(x.stats().dropped_msgs, 0);
    }

    #[test]
    fn fault_counters_merge() {
        let mut a = NetStats::default();
        let b = NetStats {
            dropped_msgs: 2,
            duplicated_msgs: 3,
            fault_delay_cycles: 40,
            ..NetStats::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.dropped_msgs, 4);
        assert_eq!(a.duplicated_msgs, 6);
        assert_eq!(a.fault_delay_cycles, 80);
    }
}
