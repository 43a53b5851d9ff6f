//! The COMA-F write-invalidate protocol engine.

use crate::state::{Directory, Slot};
use crate::{AmState, HomeTranslation, ProtocolStats};
use vcoma_cachesim::{NoRecency, SetAssocArray};
use vcoma_faults::{FaultPlan, TxnFaults};
use vcoma_net::{Crossbar, MsgKind, SendOutcome};
use vcoma_types::{DetRng, MachineConfig, NodeId, Timing};

/// How a master/exclusive victim searches for a new slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectionPolicy {
    /// The paper's protocol (§4.2): the home accepts only with a spare
    /// Invalid way; otherwise the block is forwarded to nodes in random
    /// order, each accepting with an Invalid way or by displacing a Shared
    /// copy.
    RandomForward,
    /// Ablation: the home always accepts, displacing a Shared copy if it
    /// has one, before falling back to forwarding.
    HomeDisplace,
}

/// Result of one protocol transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// `true` if the access was satisfied by the local attraction memory
    /// without any protocol traffic.
    pub local_hit: bool,
    /// Stall cycles charged to the requester beyond its local hierarchy
    /// charges (zero for local hits).
    pub latency: u64,
    /// Portion of `latency` spent translating at home nodes (DLB misses in
    /// V-COMA; zero under [`crate::NullTranslation`]).
    pub home_lookup_cycles: u64,
    /// Portion of `latency` on the wire: message latencies along the
    /// transaction's critical path.
    pub net_cycles: u64,
    /// Portion of `latency` in memory service: directory lookups and
    /// attraction-memory accesses along the critical path.
    pub mem_cycles: u64,
    /// Portion of `latency` waiting for contended crossbar output ports
    /// (zero in the contention-free model).
    pub queue_cycles: u64,
    /// Portion of `latency` caused by injected faults: retry backoff,
    /// timeout waits, NACK round trips' extra delay and fault-added wire
    /// delay (zero when fault injection is disabled).
    pub fault_cycles: u64,
    /// AM blocks removed from nodes' attraction memories during this
    /// transaction (coherence invalidations, replacement victims and
    /// injection displacements). The caller must back-invalidate the
    /// processor caches above those attraction memories to preserve
    /// inclusion, and can then hand the list back with
    /// [`Protocol::recycle`].
    pub invalidations: Vec<(NodeId, u64)>,
}

impl Access {
    fn local() -> Self {
        Access {
            local_hit: true,
            latency: 0,
            home_lookup_cycles: 0,
            net_cycles: 0,
            mem_cycles: 0,
            queue_cycles: 0,
            fault_cycles: 0,
            invalidations: Vec::new(),
        }
    }
}

/// One message hop (or fault-recovery window) observed during a traced
/// transaction.
///
/// Captured only while hop capture is enabled (see
/// [`Protocol::set_hop_capture`]); the simulator layer turns these into
/// annotation spans on the sampled transaction's trace. `src == dst`
/// marks a local window (backoff, timeout, retry) rather than a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnHop {
    /// Cycle the message left `src` (or the window began).
    pub depart: u64,
    /// Cycle the message reached `dst` (or the window ended);
    /// `arrive == depart` is an instant marker.
    pub arrive: u64,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Message-kind label (see [`MsgKind::label`]) or window kind
    /// (`"backoff"`, `"timeout"`, `"retry"`).
    pub kind: &'static str,
}

/// Appends a hop to the capture log, if one is active. Zero-latency
/// self-sends are skipped — they are free in the crossbar model and would
/// only add noise — but windows (`src == dst` with an explicit kind) are
/// recorded by the call sites that construct them directly.
fn record_hop(
    hops: &mut Option<Vec<TxnHop>>,
    depart: u64,
    arrive: u64,
    src: NodeId,
    dst: NodeId,
    kind: &'static str,
) {
    if let Some(log) = hops.as_mut() {
        if src != dst {
            log.push(TxnHop { depart, arrive, src, dst, kind });
        }
    }
}

/// Appends a local fault-recovery window (`"backoff"`, `"timeout"`,
/// `"retry"`) to the capture log, if one is active.
fn record_window(
    hops: &mut Option<Vec<TxnHop>>,
    depart: u64,
    arrive: u64,
    node: NodeId,
    kind: &'static str,
) {
    if let Some(log) = hops.as_mut() {
        log.push(TxnHop { depart, arrive, src: node, dst: node, kind });
    }
}

/// The blocks in `block`'s set of `am` held as plain Shared copies — the
/// cheap replacement victims — in the set's fill order.
fn shared_copies(
    am: &SetAssocArray<AmState, NoRecency>,
    block: u64,
) -> impl Iterator<Item = u64> + '_ {
    am.entries_in_set(block).filter(|(_, s)| !s.is_owner()).map(|(b, _)| b)
}

/// Attribution-tracking clock for one transaction's critical path.
///
/// Advances exactly like the plain arrival-time arithmetic it replaces —
/// identical cycle math and identical `net.send` call order, so timing
/// and traffic statistics are bit-for-bit unchanged — while recording
/// which component (wire, queue, memory, translation) each elapsed cycle
/// belongs to. The invariant `t - start == net + queue + mem + lookup`
/// holds by construction: every advance goes through one of the methods.
#[derive(Debug, Clone, Copy)]
struct Path {
    t: u64,
    net: u64,
    queue: u64,
    mem: u64,
    lookup: u64,
    fault: u64,
}

impl Path {
    fn start(now: u64) -> Self {
        Path { t: now, net: 0, queue: 0, mem: 0, lookup: 0, fault: 0 }
    }

    /// Sends a message along the critical path: wire latency goes to
    /// `net`, contention wait to `queue`. Self-sends are free and charge
    /// nothing, matching [`Crossbar::send`].
    fn send(&mut self, net: &mut Crossbar, src: NodeId, dst: NodeId, kind: MsgKind) {
        let arrive = net.send(src, dst, kind, self.t);
        let delta = arrive - self.t;
        if delta > 0 {
            let wire = net.latency_of(kind);
            self.net += wire;
            self.queue += delta - wire;
        }
        self.t = arrive;
    }

    /// Charges memory service time (directory or attraction-memory access).
    fn mem(&mut self, cycles: u64) {
        self.t += cycles;
        self.mem += cycles;
    }

    /// Charges home-side translation time (a DLB walk).
    fn lookup(&mut self, cycles: u64) {
        self.t += cycles;
        self.lookup += cycles;
    }

    /// Charges fault-recovery wait time (retry backoff, timeout detection).
    fn fault_wait(&mut self, cycles: u64) {
        self.t += cycles;
        self.fault += cycles;
    }

    /// Absorbs a [`Crossbar::send_faulty`] delivery into the path: wire
    /// latency goes to `net`, fault-added delay to `fault`, the rest of
    /// the gap to `queue`. Matches [`Path::send`] exactly when
    /// `fault_delay` is zero.
    fn absorb_delivery(&mut self, net: &Crossbar, kind: MsgKind, arrive: u64, fault_delay: u64) {
        let delta = arrive - self.t;
        if delta > 0 {
            let wire = net.latency_of(kind);
            self.net += wire;
            self.fault += fault_delay;
            self.queue += delta - wire - fault_delay;
        }
        self.t = arrive;
    }

    /// The later of two alternative paths (ties keep `self`) — the
    /// attribution-carrying replacement for `max` over arrival times.
    fn later(self, other: Path) -> Path {
        if other.t > self.t {
            other
        } else {
            self
        }
    }

    /// Finishes the transaction, packaging the attribution.
    fn into_access(self, now: u64, invalidations: Vec<(NodeId, u64)>) -> Access {
        let latency = self.t - now;
        debug_assert_eq!(
            latency,
            self.lookup + self.net + self.mem + self.queue + self.fault,
            "every critical-path cycle must be attributed exactly once"
        );
        Access {
            local_hit: false,
            latency,
            home_lookup_cycles: self.lookup,
            net_cycles: self.net,
            mem_cycles: self.mem,
            queue_cycles: self.queue,
            fault_cycles: self.fault,
            invalidations,
        }
    }
}

/// The machine-wide protocol state: one attraction-memory array per node
/// plus the distributed directory.
///
/// The protocol is address-space agnostic: `block` numbers may be physical
/// (`L0`–`L3`) or virtual (V-COMA) AM-block numbers; each transaction is
/// told the block's home node by the caller. See the crate docs for an
/// example.
#[derive(Debug, Clone)]
pub struct Protocol {
    /// One attraction memory per node. They keep no recency state:
    /// victims are drawn at random from a set's entries.
    ams: Vec<SetAssocArray<AmState, NoRecency>>,
    dir: Directory,
    timing: Timing,
    nodes: u64,
    rng: DetRng,
    policy: InjectionPolicy,
    stats: ProtocolStats,
    /// Transaction-level fault policy (home NACKs plus retry pacing). The
    /// default zero plan never NACKs, and with no crossbar fault hook every
    /// send is delivered exactly as [`Crossbar::send`] would deliver it.
    faults: TxnFaults,
    /// Hop-capture log for the transaction in flight; `None` (the
    /// default) keeps untraced transactions on a zero-overhead path.
    /// Capture never influences timing or protocol decisions.
    hops: Option<Vec<TxnHop>>,
    /// The empty invalidation list the next transaction fills, lent out in
    /// [`Access::invalidations`] and handed back with
    /// [`Protocol::recycle`], so a transaction allocates no new list.
    spare_invals: Vec<(NodeId, u64)>,
    /// Scratch for a forwarded injection's random candidate order.
    forward_order: Vec<u16>,
}

impl Protocol {
    /// Creates the protocol state for a machine, with empty attraction
    /// memories. `seed` drives victim selection and injection forwarding.
    pub fn new(cfg: &MachineConfig, seed: u64) -> Self {
        Protocol {
            ams: (0..cfg.nodes).map(|_| SetAssocArray::with_geometry(cfg.am)).collect(),
            dir: Directory::new(cfg.nodes),
            timing: cfg.timing,
            nodes: cfg.nodes,
            rng: DetRng::new(seed ^ 0xC0A_0C0A),
            policy: InjectionPolicy::RandomForward,
            stats: ProtocolStats::default(),
            faults: TxnFaults::new(FaultPlan::default(), cfg.nodes as usize),
            hops: None,
            spare_invals: Vec::new(),
            forward_order: Vec::new(),
        }
    }

    /// Enables or disables hop capture. While enabled, every message sent
    /// on a transaction's behalf (plus fault-recovery windows) is logged
    /// as a [`TxnHop`]; the caller drains the log per transaction with
    /// [`Protocol::take_hops`]. Disabled is the zero-overhead default.
    pub fn set_hop_capture(&mut self, on: bool) {
        self.hops = if on { Some(Vec::new()) } else { None };
    }

    /// Drains and returns the hops captured since the last call (empty
    /// when capture is disabled).
    pub fn take_hops(&mut self) -> Vec<TxnHop> {
        self.hops.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Takes back the invalidation list of a finished transaction's
    /// `access` for the next transaction to fill. A caller that drops its
    /// accesses instead only costs the next transaction a fresh list.
    pub fn recycle(&mut self, access: Access) {
        let mut invals = access.invalidations;
        if invals.capacity() >= self.spare_invals.capacity() {
            invals.clear();
            self.spare_invals = invals;
        }
    }

    /// Selects the injection policy (default [`InjectionPolicy::RandomForward`]).
    pub fn with_injection_policy(mut self, policy: InjectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables transaction-level fault injection: home directories NACK
    /// per the plan and lost requests are detected by timeout, both
    /// recovered by bounded exponential-backoff retries.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = TxnFaults::new(plan, self.nodes as usize);
        self
    }

    /// Installs a master copy of `block` at `home` with no cost, as if the
    /// page had been touched there before the measurement window. Test and
    /// warm-up helper; the simulator normally lets first-touch place blocks.
    ///
    /// # Panics
    ///
    /// Panics if the block is already cached somewhere or the home set is
    /// full.
    pub fn preload(&mut self, block: u64, home: NodeId) {
        let slot = self.dir.entry(block, home);
        assert!(self.dir.is_uncached(slot), "preload of an already-cached block {block:#x}");
        assert!(
            self.ams[home.index()].set_has_room(block),
            "preload overflows home set for block {block:#x}"
        );
        self.ams[home.index()].insert(block, AmState::MasterShared);
        self.dir.add(slot, home);
        self.dir.set_master(slot, Some(home));
    }

    /// Returns `true` if `node` can satisfy the access locally: any resident
    /// copy for a read, an Exclusive copy for a write.
    pub fn probe(&self, node: NodeId, block: u64, write: bool) -> bool {
        match self.ams[node.index()].peek(block) {
            None => false,
            Some(state) => !write || state.satisfies_write(),
        }
    }

    /// Returns the AM state of `block` at `node`, if resident.
    pub fn state_of(&self, node: NodeId, block: u64) -> Option<AmState> {
        self.ams[node.index()].peek(block).copied()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ProtocolStats {
        &self.stats
    }

    /// Zeroes the statistics counters, keeping all attraction-memory and
    /// directory state (used between a warm-up pass and the measured pass).
    pub fn reset_stats(&mut self) {
        self.stats = ProtocolStats::default();
    }

    /// Sends the transaction's opening request with end-to-end recovery.
    ///
    /// Only this hop (and the home's NACK decision right after it) can
    /// abort a transaction — both happen before any state mutation, so an
    /// aborted attempt leaves the machine exactly as it was and the retry
    /// re-runs the whole transaction logic trivially: nothing happened
    /// yet. Lost requests are detected by the requester's timeout; NACKs
    /// arrive as explicit [`MsgKind::Nack`] replies. Both back off
    /// exponentially; after the attempt budget the request is delivered
    /// reliably so every run terminates.
    fn request_phase(
        &mut self,
        path: &mut Path,
        net: &mut Crossbar,
        requester: NodeId,
        home: NodeId,
        kind: MsgKind,
    ) {
        let Self { faults: fx, stats, hops, .. } = self;
        let mut attempt = 0u32;
        loop {
            let depart = path.t;
            match net.send_faulty(requester, home, kind, path.t) {
                SendOutcome::Delivered { arrive, fault_delay } => {
                    path.absorb_delivery(net, kind, arrive, fault_delay);
                    record_hop(hops, depart, path.t, requester, home, kind.label());
                    if attempt < fx.max_attempts() && fx.nack(home) {
                        stats.nacks += 1;
                        stats.retries += 1;
                        let nack_depart = path.t;
                        path.send(net, home, requester, MsgKind::Nack);
                        record_hop(hops, nack_depart, path.t, home, requester, MsgKind::Nack.label());
                        let backoff_start = path.t;
                        path.fault_wait(fx.backoff(attempt));
                        record_window(hops, backoff_start, path.t, requester, "backoff");
                        record_window(hops, path.t, path.t, requester, "retry");
                        attempt += 1;
                        continue;
                    }
                    return;
                }
                SendOutcome::Dropped => {
                    stats.timeouts += 1;
                    if attempt + 1 >= fx.max_attempts() {
                        stats.retry_exhausted += 1;
                        path.fault_wait(fx.timeout());
                        record_window(hops, depart, path.t, requester, "timeout");
                        let resend = path.t;
                        path.send(net, requester, home, kind);
                        record_hop(hops, resend, path.t, requester, home, kind.label());
                        return;
                    }
                    stats.retries += 1;
                    path.fault_wait(fx.timeout() + fx.backoff(attempt));
                    record_window(hops, depart, path.t, requester, "timeout");
                    record_window(hops, path.t, path.t, requester, "retry");
                    attempt += 1;
                }
            }
        }
    }

    /// Sends a post-request critical-path hop with link-level recovery: a
    /// lost message costs a timeout and is retransmitted reliably, so the
    /// already-started atomic transaction always completes.
    fn path_send_ft(
        &mut self,
        path: &mut Path,
        net: &mut Crossbar,
        src: NodeId,
        dst: NodeId,
        kind: MsgKind,
    ) {
        let Self { faults: fx, stats, hops, .. } = self;
        let depart = path.t;
        match net.send_faulty(src, dst, kind, path.t) {
            SendOutcome::Delivered { arrive, fault_delay } => {
                path.absorb_delivery(net, kind, arrive, fault_delay);
                record_hop(hops, depart, path.t, src, dst, kind.label());
            }
            SendOutcome::Dropped => {
                stats.link_retries += 1;
                path.fault_wait(fx.timeout());
                record_window(hops, depart, path.t, src, "timeout");
                let resend = path.t;
                path.send(net, src, dst, kind);
                record_hop(hops, resend, path.t, src, dst, kind.label());
            }
        }
    }

    /// Sends an off-critical-path message (injection chain, replacement
    /// hints) through the fault hook. Drops are retransmitted reliably —
    /// the protocol has already committed to the state change — but the
    /// retransmission is counted.
    fn lossy_send_offpath(
        &mut self,
        net: &mut Crossbar,
        src: NodeId,
        dst: NodeId,
        kind: MsgKind,
        t: u64,
    ) -> u64 {
        let arrive = match net.send_faulty(src, dst, kind, t) {
            SendOutcome::Delivered { arrive, .. } => arrive,
            SendOutcome::Dropped => {
                self.stats.link_retries += 1;
                net.send(src, dst, kind, t)
            }
        };
        record_hop(&mut self.hops, t, arrive, src, dst, kind.label());
        arrive
    }

    /// A processor read of `block` by `requester`, whose home is `home`.
    /// `now` is the requester's current time; latencies are derived from
    /// crossbar arrival times so that transactions touching only the local
    /// node are free of network charges.
    pub fn read(
        &mut self,
        requester: NodeId,
        block: u64,
        home: NodeId,
        net: &mut Crossbar,
        xl: &mut dyn HomeTranslation,
        now: u64,
    ) -> Access {
        // `peek`, not `lookup`: every AM insert has room (`install` and
        // injection free a way first, victims drawn by the RNG), so AM
        // recency never picks a victim and need not be refreshed.
        if self.ams[requester.index()].peek(block).is_some() {
            self.stats.local_read_hits += 1;
            return Access::local();
        }
        let mut invals = std::mem::take(&mut self.spare_invals);
        let mut path = Path::start(now);
        self.request_phase(&mut path, net, requester, home, MsgKind::ReadReq);
        path.lookup(xl.home_lookup(home, block));
        path.mem(self.timing.dir_lookup);

        let slot = self.dir.entry(block, home);
        debug_assert_eq!(self.dir.home(slot), home, "home mismatch for block {block:#x}");

        if self.dir.is_uncached(slot) {
            // Cold fill: the home materialises the block from its backing
            // store; the requester becomes the master.
            self.stats.cold_fills += 1;
            path.mem(self.timing.am_hit);
            self.path_send_ft(&mut path, net, home, requester, MsgKind::BlockReply);
            self.dir.add(slot, requester);
            self.dir.set_master(slot, Some(requester));
            self.install(requester, block, AmState::MasterShared, net, path.t, &mut invals);
        } else {
            let master = self.dir.master(slot).expect("cached block must have a master");
            debug_assert_ne!(
                master, requester,
                "requester missed locally but directory says it is master"
            );
            self.stats.remote_reads += 1;
            self.path_send_ft(&mut path, net, home, master, MsgKind::ForwardReq);
            path.mem(self.timing.am_hit);
            self.path_send_ft(&mut path, net, master, requester, MsgKind::BlockReply);
            // A read demotes an Exclusive master to Master-shared.
            if let Some(s) = self.ams[master.index()].peek_mut(block) {
                if *s == AmState::Exclusive {
                    *s = AmState::MasterShared;
                }
            } else {
                debug_assert!(false, "directory master {master} does not hold {block:#x}");
            }
            self.dir.add(slot, requester);
            self.install(requester, block, AmState::Shared, net, path.t, &mut invals);
        }
        path.into_access(now, invals)
    }

    /// A processor write of `block` by `requester`, whose home is `home`.
    pub fn write(
        &mut self,
        requester: NodeId,
        block: u64,
        home: NodeId,
        net: &mut Crossbar,
        xl: &mut dyn HomeTranslation,
        now: u64,
    ) -> Access {
        let local_state = self.ams[requester.index()].peek(block).copied();
        if local_state == Some(AmState::Exclusive) {
            self.stats.local_write_hits += 1;
            return Access::local();
        }
        let mut invals = std::mem::take(&mut self.spare_invals);
        let mut path = Path::start(now);
        match local_state {
            Some(_) => self.request_phase(&mut path, net, requester, home, MsgKind::UpgradeReq),
            None => self.request_phase(&mut path, net, requester, home, MsgKind::WriteReq),
        }
        path.lookup(xl.home_lookup(home, block));
        path.mem(self.timing.dir_lookup);

        let slot = self.dir.entry(block, home);
        debug_assert_eq!(self.dir.home(slot), home, "home mismatch for block {block:#x}");

        match local_state {
            Some(_) => {
                // Upgrade: invalidate every other copy, then grant.
                self.stats.upgrades += 1;
                let ack_path =
                    self.invalidate_others(slot, block, requester, net, path, &mut invals);
                let mut grant_path = path;
                self.path_send_ft(&mut grant_path, net, home, requester, MsgKind::Ack);
                path = ack_path.later(grant_path);
                self.dir.set_only(slot, requester);
                self.dir.set_master(slot, Some(requester));
                *self.ams[requester.index()]
                    .peek_mut(block)
                    .expect("upgrading node holds the block") = AmState::Exclusive;
            }
            None if self.dir.is_uncached(slot) => {
                // Cold write fill: requester becomes the exclusive owner.
                self.stats.cold_fills += 1;
                path.mem(self.timing.am_hit);
                self.path_send_ft(&mut path, net, home, requester, MsgKind::BlockReply);
                self.dir.add(slot, requester);
                self.dir.set_master(slot, Some(requester));
                self.install(requester, block, AmState::Exclusive, net, path.t, &mut invals);
            }
            None => {
                // Write miss served by the current master; all other copies
                // are invalidated in parallel.
                self.stats.remote_writes += 1;
                let master = self.dir.master(slot).expect("cached block must have a master");
                let ack_path =
                    self.invalidate_others(slot, block, requester, net, path, &mut invals);
                let mut data_path = path;
                self.path_send_ft(&mut data_path, net, home, master, MsgKind::ForwardReq);
                data_path.mem(self.timing.am_hit);
                self.path_send_ft(&mut data_path, net, master, requester, MsgKind::BlockReply);
                path = ack_path.later(data_path);
                // Ownership transfer: the master's copy dies with the reply.
                if self.ams[master.index()].invalidate(block).is_some() {
                    invals.push((master, block));
                }
                self.dir.set_only(slot, requester);
                self.dir.set_master(slot, Some(requester));
                self.install(requester, block, AmState::Exclusive, net, path.t, &mut invals);
            }
        }
        path.into_access(now, invals)
    }

    /// Invalidates, from its home, every holder of `block` (directory
    /// entry `slot`) except `keep` (and except the master when the caller
    /// transfers ownership separately — the master here is only
    /// invalidated if it is a plain holder in the copy set walk). Holders
    /// are visited in ascending node order, which fixes the send order and
    /// so port contention and [`Path::later`] ties. Returns the path on
    /// which the last acknowledgement reaches `keep` (or `from` unchanged
    /// when nothing is invalidated).
    fn invalidate_others(
        &mut self,
        slot: Slot,
        block: u64,
        keep: NodeId,
        net: &mut Crossbar,
        from: Path,
        invals: &mut Vec<(NodeId, u64)>,
    ) -> Path {
        let (home, master) = (self.dir.home(slot), self.dir.master(slot));
        let mut last_ack = from;
        let mut next = self.dir.next_holder(slot, 0);
        while let Some(holder) = next {
            next = self.dir.next_holder(slot, holder.index() + 1);
            // The master of a write miss supplies data and is invalidated by
            // the caller at data-transfer time; skip it here.
            let supplies_data = Some(holder) == master && !self.ams[keep.index()].contains(block);
            if holder == keep || supplies_data {
                continue;
            }
            self.stats.invalidations += 1;
            let mut branch = from;
            self.path_send_ft(&mut branch, net, home, holder, MsgKind::Invalidate);
            if self.ams[holder.index()].invalidate(block).is_some() {
                invals.push((holder, block));
            }
            self.dir.remove(slot, holder);
            self.path_send_ft(&mut branch, net, holder, keep, MsgKind::Ack);
            last_ack = last_ack.later(branch);
        }
        last_ack
    }

    /// Installs `block` in `node`'s attraction memory, making room first if
    /// its set is full: a Shared victim is dropped (with a hint to its
    /// home), an owner victim is injected per the paper's protocol.
    fn install(
        &mut self,
        node: NodeId,
        block: u64,
        state: AmState,
        net: &mut Crossbar,
        now: u64,
        invals: &mut Vec<(NodeId, u64)>,
    ) {
        debug_assert!(
            !self.ams[node.index()].contains(block),
            "install of already-resident block {block:#x}"
        );
        if !self.ams[node.index()].set_has_room(block) {
            let victim = self.pick_victim(node, block);
            let vstate = self.ams[node.index()]
                .invalidate(victim)
                .expect("victim is resident by construction");
            invals.push((node, victim));
            if vstate.is_owner() {
                self.inject(node, victim, net, now, invals);
            } else {
                // Dropping a Shared copy: hint the home so the copy set
                // stays exact.
                self.stats.shared_drops += 1;
                let vslot = self.dir.slot(victim).expect("resident block has an entry");
                let vhome = self.dir.home(vslot);
                self.lossy_send_offpath(net, node, vhome, MsgKind::Ack, now);
                self.dir.remove(vslot, node);
            }
        }
        self.ams[node.index()].insert(block, state);
    }

    /// Picks the replacement victim in `node`'s set for `block`: a random
    /// Shared copy if any (cheap drop), otherwise a random owner copy
    /// (injection).
    fn pick_victim(&mut self, node: NodeId, block: u64) -> u64 {
        let am = &self.ams[node.index()];
        let shared = shared_copies(am, block).count();
        if shared > 0 {
            let k = self.rng.gen_index(shared);
            return shared_copies(am, block).nth(k).expect("k is below the count");
        }
        let owners = am.set_occupancy(block);
        debug_assert!(owners > 0, "victim needed in an empty set");
        let k = self.rng.gen_index(owners);
        am.entries_in_set(block).nth(k).expect("k is below the occupancy").0
    }

    /// Injects an owner victim evicted from `from` back into the machine
    /// (paper §4.2). The caller has already removed it from `from`'s AM.
    fn inject(
        &mut self,
        from: NodeId,
        block: u64,
        net: &mut Crossbar,
        now: u64,
        invals: &mut Vec<(NodeId, u64)>,
    ) {
        let slot = self.dir.slot(block).expect("owner block has an entry");
        let home = self.dir.home(slot);
        let mut t = self.lossy_send_offpath(net, from, home, MsgKind::Inject, now);
        self.dir.remove(slot, from);

        // The home accepts with a spare Invalid way — or, if it already
        // holds a Shared copy of this very block, by promoting it to master.
        // A node that is itself the home of its victim skips this step: it
        // is replacing the block precisely because that set is full.
        if home != from {
            if let Some(s) = self.ams[home.index()].peek_mut(block) {
                *s = AmState::MasterShared;
                self.dir.set_master(slot, Some(home));
                self.stats.injections_home += 1;
                return;
            }
            if self.ams[home.index()].set_has_room(block) {
                self.accept_injection(slot, home, block);
                self.stats.injections_home += 1;
                return;
            }
            if self.policy == InjectionPolicy::HomeDisplace {
                if let Some(displaced) = self.displace_shared(home, block) {
                    invals.push((home, displaced));
                    self.accept_injection(slot, home, block);
                    self.stats.injections_home += 1;
                    return;
                }
            }
        }

        // Forward to the other nodes in random order; each accepts with an
        // Invalid way or by displacing a Shared copy. The order is built in
        // a buffer the protocol keeps, so forwarding allocates nothing.
        let mut order = std::mem::take(&mut self.forward_order);
        order.clear();
        order.extend((0..self.nodes as u16).filter(|&i| i != home.raw() && i != from.raw()));
        self.rng.shuffle(&mut order);
        let mut prev = home;
        let mut accepted = false;
        for &cand_raw in &order {
            let cand = NodeId::new(cand_raw);
            self.stats.injection_hops += 1;
            t = self.lossy_send_offpath(net, prev, cand, MsgKind::InjectForward, t);
            prev = cand;
            if let Some(s) = self.ams[cand.index()].peek_mut(block) {
                // The candidate already holds a Shared copy: promote it.
                *s = AmState::MasterShared;
                self.dir.set_master(slot, Some(cand));
                accepted = true;
            } else if self.ams[cand.index()].set_has_room(block) {
                self.accept_injection(slot, cand, block);
                accepted = true;
            } else if let Some(displaced) = self.displace_shared(cand, block) {
                invals.push((cand, displaced));
                self.accept_injection(slot, cand, block);
                accepted = true;
            }
            if accepted {
                self.stats.injections_forwarded += 1;
                break;
            }
        }
        self.forward_order = order;
        if accepted {
            return;
        }
        // No node can take the block: it spills to the home's backing
        // store; the next access will cold-fill it. With memory pressure
        // below one this is rare; it is counted so experiments can see it.
        self.stats.spills += 1;
        if self.dir.is_uncached(slot) {
            self.dir.set_master(slot, None);
        }
    }

    fn accept_injection(&mut self, slot: Slot, node: NodeId, block: u64) {
        self.ams[node.index()].insert(block, AmState::MasterShared);
        self.dir.add(slot, node);
        self.dir.set_master(slot, Some(node));
    }

    /// Displaces a random Shared copy (of any other block) from `node`'s
    /// set for `block`, returning the displaced block.
    fn displace_shared(&mut self, node: NodeId, block: u64) -> Option<u64> {
        let am = &mut self.ams[node.index()];
        let shared = shared_copies(am, block).count();
        if shared == 0 {
            return None;
        }
        let k = self.rng.gen_index(shared);
        let victim = shared_copies(am, block).nth(k).expect("k is below the count");
        am.invalidate(victim);
        let vslot = self.dir.slot(victim).expect("resident block has an entry");
        self.dir.remove(vslot, node);
        self.stats.injection_displacements += 1;
        Some(victim)
    }

    /// Returns the nodes currently holding a copy of `block` (empty when
    /// uncached or unknown). Used by the protection-change path, which
    /// must notify every holder (paper §4.3).
    pub fn holders_of(&self, block: u64) -> Vec<NodeId> {
        self.dir.slot(block).map_or_else(Vec::new, |s| self.dir.holders(s).collect())
    }

    /// Removes every copy of `block` from the machine and drops its
    /// directory entry — the page daemon's per-block teardown when a page
    /// is swapped out (paper §4.3). Returns the nodes that held a copy;
    /// the caller must back-invalidate their processor caches.
    pub fn purge(&mut self, block: u64) -> Vec<NodeId> {
        let mut holders = self.dir.purge(block);
        holders.retain(|n| self.ams[n.index()].invalidate(block).is_some());
        holders
    }

    /// Checks every protocol invariant, returning a description of the
    /// first violation. Used by tests, property tests and the simulator's
    /// coherence auditor (full sweep).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Walk the directory in ascending block order, not HashMap order:
        // with several simultaneous violations the *reported* one must be
        // a pure function of the machine state, or audit errors (and the
        // reports built from them) would differ run to run.
        let mut blocks: Vec<u64> = self.dir.blocks().collect();
        blocks.sort_unstable();
        for block in blocks {
            self.check_block_invariants(block)?;
        }
        // Reverse-residence pass: a copy living in some attraction memory
        // without a directory entry would be invisible to the per-entry
        // walk above (a lost-last-copy / orphan-copy corruption).
        for (i, am) in self.ams.iter().enumerate() {
            for (block, _) in am.iter() {
                if !self.dir.contains(block) {
                    return Err(format!(
                        "node {i}: resident block {block:#x} has no directory entry"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checks the protocol invariants for one block: directory/residence
    /// agreement, exactly one owner for a cached block, Exclusive implies
    /// a single copy, master in the copy set. The simulator's auditor
    /// calls this on just the blocks a transaction touched, keeping the
    /// per-transaction audit cost proportional to the transaction.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    pub fn check_block_invariants(&self, block: u64) -> Result<(), String> {
        let Some(slot) = self.dir.slot(block) else {
            for i in 0..self.nodes as usize {
                if self.ams[i].peek(block).is_some() {
                    return Err(format!(
                        "block {block:#x}: resident at node {i} with no directory entry"
                    ));
                }
            }
            return Ok(());
        };
        let mut owners = 0;
        for i in 0..self.nodes as usize {
            let node = NodeId::new(i as u16);
            let resident = self.ams[i].peek(block);
            if self.dir.holds(slot, node) != resident.is_some() {
                return Err(format!(
                    "block {block:#x}: directory bit for {node} is {} but residence is {}",
                    self.dir.holds(slot, node),
                    resident.is_some()
                ));
            }
            if let Some(s) = resident {
                if s.is_owner() {
                    owners += 1;
                    if self.dir.master(slot) != Some(node) {
                        return Err(format!(
                            "block {block:#x}: {node} holds {s} but master is {:?}",
                            self.dir.master(slot)
                        ));
                    }
                }
                if *s == AmState::Exclusive && self.dir.copies(slot) != 1 {
                    return Err(format!(
                        "block {block:#x}: Exclusive at {node} with {} copies",
                        self.dir.copies(slot)
                    ));
                }
            }
        }
        if !self.dir.is_uncached(slot) {
            if owners != 1 {
                return Err(format!("block {block:#x}: {owners} owners for a cached block"));
            }
        } else if owners != 0 {
            return Err(format!("block {block:#x}: uncached but {owners} owners"));
        }
        if let Some(m) = self.dir.master(slot) {
            if !self.dir.holds(slot, m) {
                return Err(format!("block {block:#x}: master {m} not in copy set"));
            }
        }
        Ok(())
    }

    /// Every block the machine currently knows about: directory entries
    /// plus any resident copies. Audit-sweep helper.
    pub fn cached_blocks(&self) -> Vec<u64> {
        let mut blocks: Vec<u64> = self.dir.blocks().collect();
        for am in &self.ams {
            blocks.extend(am.iter().map(|(b, _)| b));
        }
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }

    /// Deliberately corrupts the directory — clears the master pointer of
    /// a cached block — so tests can prove the auditor catches genuine
    /// protocol violations. Returns `false` if the block was not cached.
    #[doc(hidden)]
    pub fn corrupt_master_for_tests(&mut self, block: u64) -> bool {
        match self.dir.slot(block) {
            Some(s) if !self.dir.is_uncached(s) => {
                self.dir.set_master(s, None);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NullTranslation;
    use vcoma_faults::FaultPlan;

    fn setup() -> (MachineConfig, Protocol, Crossbar, NullTranslation) {
        let cfg = MachineConfig::tiny();
        let p = Protocol::new(&cfg, 7);
        let net = Crossbar::new(cfg.nodes, cfg.timing);
        (cfg, p, net, NullTranslation)
    }

    const N0: NodeId = NodeId::new(0);
    const N1: NodeId = NodeId::new(1);
    const N2: NodeId = NodeId::new(2);

    #[test]
    fn cold_read_makes_requester_master() {
        let (_, mut p, mut net, mut xl) = setup();
        let out = p.read(N1, 10, N0, &mut net, &mut xl, 0);
        assert!(!out.local_hit);
        // req(16) + mem(74) + block(272)
        assert_eq!(out.latency, 16 + 74 + 272);
        assert_eq!(p.state_of(N1, 10), Some(AmState::MasterShared));
        assert_eq!(p.stats().cold_fills, 1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn cold_read_at_home_is_memory_latency_only() {
        let (_, mut p, mut net, mut xl) = setup();
        let out = p.read(N0, 10, N0, &mut net, &mut xl, 0);
        assert_eq!(out.latency, 74, "self-sends are free");
    }

    #[test]
    fn second_read_is_local_hit() {
        let (_, mut p, mut net, mut xl) = setup();
        p.read(N1, 10, N0, &mut net, &mut xl, 0);
        let out = p.read(N1, 10, N0, &mut net, &mut xl, 0);
        assert!(out.local_hit);
        assert_eq!(out.latency, 0);
        assert_eq!(p.stats().local_read_hits, 1);
    }

    #[test]
    fn remote_read_demotes_exclusive_and_installs_shared() {
        let (_, mut p, mut net, mut xl) = setup();
        p.write(N1, 10, N0, &mut net, &mut xl, 0); // N1 Exclusive
        assert_eq!(p.state_of(N1, 10), Some(AmState::Exclusive));
        let out = p.read(N2, 10, N0, &mut net, &mut xl, 0);
        assert!(!out.local_hit);
        // req(16) + fwd(16) + mem(74) + block(272)
        assert_eq!(out.latency, 16 + 16 + 74 + 272);
        assert_eq!(p.state_of(N1, 10), Some(AmState::MasterShared));
        assert_eq!(p.state_of(N2, 10), Some(AmState::Shared));
        assert_eq!(p.stats().remote_reads, 1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn cold_write_makes_requester_exclusive() {
        let (_, mut p, mut net, mut xl) = setup();
        p.write(N1, 10, N0, &mut net, &mut xl, 0);
        assert_eq!(p.state_of(N1, 10), Some(AmState::Exclusive));
        assert!(p.probe(N1, 10, true));
        p.check_invariants().unwrap();
    }

    #[test]
    fn write_hit_on_exclusive_is_local() {
        let (_, mut p, mut net, mut xl) = setup();
        p.write(N1, 10, N0, &mut net, &mut xl, 0);
        let out = p.write(N1, 10, N0, &mut net, &mut xl, 0);
        assert!(out.local_hit);
        assert_eq!(p.stats().local_write_hits, 1);
    }

    #[test]
    fn upgrade_invalidates_sharers() {
        let (_, mut p, mut net, mut xl) = setup();
        p.read(N1, 10, N0, &mut net, &mut xl, 0); // N1 master
        p.read(N2, 10, N0, &mut net, &mut xl, 0); // N2 shared
        let out = p.write(N2, 10, N0, &mut net, &mut xl, 0);
        assert!(!out.local_hit);
        assert!(out.invalidations.contains(&(N1, 10)));
        assert_eq!(p.state_of(N1, 10), None);
        assert_eq!(p.state_of(N2, 10), Some(AmState::Exclusive));
        assert_eq!(p.stats().upgrades, 1);
        assert!(p.stats().invalidations >= 1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn write_miss_transfers_ownership_and_invalidates() {
        let (_, mut p, mut net, mut xl) = setup();
        p.read(N1, 10, N0, &mut net, &mut xl, 0); // N1 master
        p.read(N0, 10, N0, &mut net, &mut xl, 0); // N0 shared
        let out = p.write(N2, 10, N0, &mut net, &mut xl, 0);
        assert!(!out.local_hit);
        assert_eq!(p.state_of(N1, 10), None, "old master invalidated");
        assert_eq!(p.state_of(N0, 10), None, "sharer invalidated");
        assert_eq!(p.state_of(N2, 10), Some(AmState::Exclusive));
        assert!(out.invalidations.contains(&(N1, 10)));
        assert!(out.invalidations.contains(&(N0, 10)));
        assert_eq!(p.stats().remote_writes, 1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn preload_places_master_at_home() {
        let (_, mut p, mut net, mut xl) = setup();
        p.preload(10, N0);
        assert_eq!(p.state_of(N0, 10), Some(AmState::MasterShared));
        let out = p.read(N1, 10, N0, &mut net, &mut xl, 0);
        // Served by the home master: req(16) + mem(74) + block(272).
        assert_eq!(out.latency, 16 + 74 + 272);
        assert_eq!(p.stats().remote_reads, 1);
        assert_eq!(p.stats().cold_fills, 0);
    }

    #[test]
    #[should_panic(expected = "already-cached")]
    fn preload_twice_panics() {
        let (_, mut p, _, _) = setup();
        p.preload(10, N0);
        p.preload(10, N0);
    }

    #[test]
    fn replacement_of_shared_victim_drops_it() {
        let cfg = MachineConfig::tiny(); // AM: 4-way, 128 sets
        let sets = cfg.am.sets();
        let (_, mut p, mut net, mut xl) = setup();
        // Fill node 1's set 0 with 4 shared copies (masters live at node 0
        // via preload).
        for i in 0..4 {
            p.preload(i * sets, N0);
            p.read(N1, i * sets, N0, &mut net, &mut xl, 0);
            assert_eq!(p.state_of(N1, i * sets), Some(AmState::Shared));
        }
        // A fifth block in the same set displaces one of the Shared copies.
        // Its master is preloaded at node 2 (node 0's set is already full of
        // the four masters above).
        p.preload(4 * sets, N2);
        let out = p.read(N1, 4 * sets, N2, &mut net, &mut xl, 0);
        assert_eq!(p.stats().shared_drops, 1);
        assert_eq!(out.invalidations.len(), 1);
        assert_eq!(out.invalidations[0].0, N1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn replacement_of_owner_victim_injects_to_home() {
        let cfg = MachineConfig::tiny();
        let sets = cfg.am.sets();
        let (_, mut p, mut net, mut xl) = setup();
        // Node 1 cold-writes 4 blocks of the same set: all Exclusive there.
        for i in 0..4 {
            p.write(N1, i * sets, N0, &mut net, &mut xl, 0);
        }
        // Fifth block in the same set: an owner must be injected; the home
        // (node 0) has room.
        p.write(N1, 4 * sets, N0, &mut net, &mut xl, 0);
        assert_eq!(p.stats().injections_home, 1);
        // The injected block now has its master at the home.
        let injected = (0..4)
            .map(|i| i * sets)
            .find(|&b| p.state_of(N0, b) == Some(AmState::MasterShared))
            .expect("one of the first four blocks must live at the home now");
        assert_eq!(p.state_of(N1, injected), None);
        p.check_invariants().unwrap();
    }

    #[test]
    fn injection_forwards_when_home_full() {
        let cfg = MachineConfig::tiny();
        let sets = cfg.am.sets();
        let (_, mut p, mut net, mut xl) = setup();
        // Fill home node 0's set 0 with its own exclusive blocks.
        for i in 0..4 {
            p.write(N0, i * sets, N0, &mut net, &mut xl, 0);
        }
        // Node 1 fills its own set 0 with 4 more blocks (homes at node 0).
        for i in 4..8 {
            p.write(N1, i * sets, N0, &mut net, &mut xl, 0);
        }
        // One more at node 1: victim owner must be injected; home is full,
        // so it forwards to another node (2 or 3).
        p.write(N1, 8 * sets, N0, &mut net, &mut xl, 0);
        assert_eq!(p.stats().injections_forwarded, 1);
        assert!(p.stats().injection_hops >= 1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn spill_when_global_set_is_saturated() {
        let cfg = MachineConfig::tiny();
        let sets = cfg.am.sets();
        let (_, mut p, mut net, mut xl) = setup();
        // Saturate set 0 on all 4 nodes with exclusive blocks owned locally.
        for n in 0..4u16 {
            for i in 0..4u64 {
                let b = (n as u64 * 4 + i) * sets;
                p.write(NodeId::new(n), b, N0, &mut net, &mut xl, 0);
            }
        }
        // Node 0 touches one more block of the same global set: its victim
        // is an owner, and no node anywhere has room or a Shared to displace.
        p.write(N0, 16 * sets, N0, &mut net, &mut xl, 0);
        assert_eq!(p.stats().spills, 1);
        p.check_invariants().unwrap();
        // The spilled block is uncached and can be re-fetched (cold fill).
        let spilled = (0..16u64)
            .map(|i| i * sets)
            .find(|&b| (0..4u16).all(|n| p.state_of(NodeId::new(n), b).is_none()))
            .expect("one block must have spilled");
        let before = p.stats().cold_fills;
        p.read(N2, spilled, N0, &mut net, &mut xl, 0);
        assert_eq!(p.stats().cold_fills, before + 1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn injection_promotes_existing_shared_copy_at_home() {
        let cfg = MachineConfig::tiny();
        let sets = cfg.am.sets();
        let (_, mut p, mut net, mut xl) = setup();
        // Block X: master at node 1, shared copy at home 0.
        p.read(N1, 0, N0, &mut net, &mut xl, 0);
        p.read(N0, 0, N0, &mut net, &mut xl, 0);
        // Fill the rest of node 1's set 0 with owners, then overflow it so
        // block 0's master is likely to leave node 1 eventually. Force
        // block 0 to be the victim by filling with Exclusive blocks and
        // evicting repeatedly until block 0 leaves node 1.
        let mut extra = 1u64;
        while p.state_of(N1, 0).is_some() {
            p.write(N1, extra * sets, N0, &mut net, &mut xl, 0);
            extra += 1;
            assert!(extra < 100, "block 0 should eventually be evicted");
        }
        // Wherever the master went, invariants hold and block 0 still has
        // exactly one master.
        p.check_invariants().unwrap();
    }

    #[test]
    fn dlb_cost_is_charged_on_home_lookup() {
        struct Fixed(u64);
        impl HomeTranslation for Fixed {
            fn home_lookup(&mut self, _h: NodeId, _b: u64) -> u64 {
                self.0
            }
        }
        let cfg = MachineConfig::tiny();
        let mut p = Protocol::new(&cfg, 7);
        let mut net = Crossbar::new(cfg.nodes, cfg.timing);
        let mut xl = Fixed(40);
        let out = p.read(N1, 10, N0, &mut net, &mut xl, 0);
        assert_eq!(out.home_lookup_cycles, 40);
        assert_eq!(out.latency, 16 + 40 + 74 + 272);
    }

    #[test]
    fn probe_matches_states() {
        let (_, mut p, mut net, mut xl) = setup();
        assert!(!p.probe(N1, 10, false));
        p.read(N1, 10, N0, &mut net, &mut xl, 0);
        assert!(p.probe(N1, 10, false));
        assert!(!p.probe(N1, 10, true), "master-shared does not satisfy a write");
        p.write(N1, 10, N0, &mut net, &mut xl, 0);
        assert!(p.probe(N1, 10, true));
    }

    #[test]
    fn purge_removes_all_copies_and_directory_state() {
        let (_, mut p, mut net, mut xl) = setup();
        p.read(N1, 10, N0, &mut net, &mut xl, 0);
        p.read(N2, 10, N0, &mut net, &mut xl, 0);
        let mut holders = p.purge(10);
        holders.sort();
        assert_eq!(holders, vec![N1, N2]);
        assert_eq!(p.state_of(N1, 10), None);
        assert_eq!(p.state_of(N2, 10), None);
        p.check_invariants().unwrap();
        // The next access is a cold fill again.
        let before = p.stats().cold_fills;
        p.read(N1, 10, N0, &mut net, &mut xl, 0);
        assert_eq!(p.stats().cold_fills, before + 1);
        // Purging an unknown block is a no-op.
        assert!(p.purge(0xDEAD).is_empty());
    }

    #[test]
    fn nack_retries_complete_and_are_counted() {
        let cfg = MachineConfig::tiny();
        let plan = FaultPlan::parse("nack=0.5").unwrap();
        let mut p = Protocol::new(&cfg, 7).with_faults(plan);
        let mut net = Crossbar::new(cfg.nodes, cfg.timing);
        let mut xl = NullTranslation;
        let mut fault_cycles = 0;
        for b in 0..64 {
            let out = p.read(N1, b, N0, &mut net, &mut xl, 0);
            assert!(!out.local_hit);
            fault_cycles += out.fault_cycles;
        }
        let s = *p.stats();
        assert!(s.nacks > 0, "p=0.5 over 64 requests must NACK at least once");
        assert_eq!(s.retries, s.nacks, "every NACK forces one retry");
        assert!(fault_cycles > 0, "backoff must be charged to the fault category");
        assert!(net.stats().msgs_of(MsgKind::Nack) > 0);
        p.check_invariants().unwrap();
    }

    #[test]
    fn dropped_requests_time_out_and_complete() {
        let cfg = MachineConfig::tiny();
        let plan = FaultPlan::parse("drop=0.3,dup=0.05,delay=16").unwrap();
        let hook = vcoma_faults::LinkFaultInjector::new(plan.clone(), cfg.nodes as usize);
        let mut p = Protocol::new(&cfg, 7).with_faults(plan);
        let mut net = Crossbar::new(cfg.nodes, cfg.timing).with_fault_hook(Box::new(hook));
        let mut xl = NullTranslation;
        for b in 0..128u64 {
            if b % 3 == 0 {
                p.write(N2, b, N0, &mut net, &mut xl, 0);
            } else {
                p.read(N1, b, N0, &mut net, &mut xl, 0);
            }
        }
        let s = *p.stats();
        assert!(s.timeouts > 0, "p=0.3 over 128 requests must drop at least once");
        assert!(s.fault_recoveries() > 0);
        assert!(net.stats().dropped_msgs > 0);
        p.check_invariants().unwrap();
        // Every block is readable afterwards: nothing was lost.
        for b in 0..128u64 {
            assert!(
                p.read(N1, b, N0, &mut net, &mut xl, 0).local_hit
                    || p.probe(N1, b, false),
                "block {b} lost under faults"
            );
        }
        p.check_invariants().unwrap();
    }

    #[test]
    fn zero_fault_plan_is_byte_inert() {
        let cfg = MachineConfig::tiny();
        let zero = FaultPlan::default();
        let hook = vcoma_faults::LinkFaultInjector::new(zero.clone(), cfg.nodes as usize);
        let mut plain_p = Protocol::new(&cfg, 7);
        let mut plain_net = Crossbar::new(cfg.nodes, cfg.timing);
        let mut faulty_p = Protocol::new(&cfg, 7).with_faults(zero);
        let mut faulty_net =
            Crossbar::new(cfg.nodes, cfg.timing).with_fault_hook(Box::new(hook));
        let mut xl = NullTranslation;
        for b in 0..64u64 {
            let a = if b % 3 == 0 {
                plain_p.write(N2, b, N0, &mut plain_net, &mut xl, 0)
            } else {
                plain_p.read(N1, b, N0, &mut plain_net, &mut xl, 0)
            };
            let f = if b % 3 == 0 {
                faulty_p.write(N2, b, N0, &mut faulty_net, &mut xl, 0)
            } else {
                faulty_p.read(N1, b, N0, &mut faulty_net, &mut xl, 0)
            };
            assert_eq!(a, f, "zero plan must not perturb transaction {b}");
        }
        assert_eq!(plain_p.stats(), faulty_p.stats());
        assert_eq!(plain_net.stats(), faulty_net.stats());
    }

    #[test]
    fn auditor_catches_deliberate_corruption() {
        let (_, mut p, mut net, mut xl) = setup();
        p.read(N1, 10, N0, &mut net, &mut xl, 0);
        p.check_block_invariants(10).unwrap();
        assert!(p.corrupt_master_for_tests(10));
        assert!(p.check_block_invariants(10).is_err());
        assert!(p.check_invariants().is_err());
        assert!(!p.corrupt_master_for_tests(0xDEAD), "unknown block is not corruptible");
    }

    #[test]
    fn full_sweep_reports_the_lowest_corrupted_block() {
        // Regression for the old HashMap-ordered directory walk: with
        // several simultaneous violations the sweep must always report
        // the one on the numerically lowest block, so audit errors are
        // identical run to run.
        let (_, mut p, mut net, mut xl) = setup();
        for b in [90u64, 10, 50] {
            p.read(N1, b, N0, &mut net, &mut xl, 0);
        }
        for b in [90u64, 10, 50] {
            assert!(p.corrupt_master_for_tests(b));
        }
        for _ in 0..8 {
            let msg = p.check_invariants().unwrap_err();
            assert!(
                msg.contains("block 0xa"),
                "sweep must name block 10 (0xa), the lowest violation, got: {msg}"
            );
        }
    }

    #[test]
    fn cached_blocks_covers_directory_and_residence() {
        let (_, mut p, mut net, mut xl) = setup();
        assert!(p.cached_blocks().is_empty());
        p.read(N1, 10, N0, &mut net, &mut xl, 0);
        p.write(N2, 11, N0, &mut net, &mut xl, 0);
        assert_eq!(p.cached_blocks(), vec![10, 11]);
    }

    #[cfg(feature = "proptest-tests")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn invariants_hold_under_random_traffic(
                seed in 0u64..1000,
                ops in proptest::collection::vec((0u16..4, 0u64..64, prop::bool::ANY), 1..200),
            ) {
                let cfg = MachineConfig::tiny();
                let mut p = Protocol::new(&cfg, seed);
                let mut net = Crossbar::new(cfg.nodes, cfg.timing);
                let mut xl = NullTranslation;
                // Use few distinct blocks in few sets to provoke replacements.
                let sets = cfg.am.sets();
                for (node, b, w) in ops {
                    let block = (b % 16) * sets + (b / 16); // 16 blocks per set, 4 sets
                    let home = NodeId::new((block % cfg.nodes) as u16);
                    let node = NodeId::new(node);
                    if w {
                        p.write(node, block, home, &mut net, &mut xl, 0);
                    } else {
                        p.read(node, block, home, &mut net, &mut xl, 0);
                    }
                    if let Err(e) = p.check_invariants() {
                        return Err(TestCaseError::fail(e));
                    }
                }
            }

            #[test]
            fn reads_after_write_always_find_data(
                seed in 0u64..100,
                writer in 0u16..4,
                readers in proptest::collection::vec(0u16..4, 1..8),
            ) {
                let cfg = MachineConfig::tiny();
                let mut p = Protocol::new(&cfg, seed);
                let mut net = Crossbar::new(cfg.nodes, cfg.timing);
                let mut xl = NullTranslation;
                let home = NodeId::new(3);
                p.write(NodeId::new(writer), 42, home, &mut net, &mut xl, 0);
                for r in readers {
                    let out = p.read(NodeId::new(r), 42, home, &mut net, &mut xl, 0);
                    prop_assert!(out.local_hit || out.latency > 0);
                    prop_assert!(p.probe(NodeId::new(r), 42, false));
                }
                p.check_invariants().map_err(TestCaseError::fail)?;
            }
        }
    }
}
