//! Shared trace-construction helpers.

use vcoma_types::{DetRng, MachineConfig, Op, Protection, SyncId, VAddr};
use vcoma_vm::Region;

/// Op kinds, in the low three bits of each packed op's tag byte.
const READ: u8 = 0;
const WRITE: u8 = 1;
const COMPUTE: u8 = 2;
const BARRIER: u8 = 3;
const LOCK: u8 = 4;
const UNLOCK: u8 = 5;
const PROTECT: u8 = 6;

/// `Compute` counts below this ride inline in the tag's high five bits;
/// the value itself in those bits means a LEB128 count follows.
const INLINE_COMPUTE: u64 = 31;

/// One node's ops, packed at about two bytes per op.
///
/// Each op is a tag byte (kind in the low three bits) followed, where
/// the kind needs one, by a LEB128 payload: the zig-zag delta from the
/// node's previous `Read`/`Write` address, a sync id, a `Compute` count
/// too large to inline, or a `Protect` address (whose rights sit in tag
/// bits 3 and 4). Ops pop in push order; [`OpBuf::compact`] frees the
/// popped prefix.
#[derive(Debug, Default)]
pub(crate) struct OpBuf {
    bytes: Vec<u8>,
    /// Decode cursor: `bytes[..read]` has been popped.
    read: usize,
    /// Address of the last pushed `Read`/`Write`.
    pushed_addr: u64,
    /// Address of the last popped `Read`/`Write`.
    popped_addr: u64,
}

impl OpBuf {
    /// Appends `op`.
    pub(crate) fn push(&mut self, op: Op) {
        match op {
            Op::Read(a) => self.push_ref(READ, a),
            Op::Write(a) => self.push_ref(WRITE, a),
            Op::Compute(c) if c < INLINE_COMPUTE => self.bytes.push(COMPUTE | (c as u8) << 3),
            Op::Compute(c) => {
                self.bytes.push(COMPUTE | (INLINE_COMPUTE as u8) << 3);
                self.put(c);
            }
            Op::Barrier(id) => self.push_id(BARRIER, id),
            Op::Lock(id) => self.push_id(LOCK, id),
            Op::Unlock(id) => self.push_id(UNLOCK, id),
            Op::Protect(a, p) => {
                self.bytes.push(PROTECT | u8::from(p.read) << 3 | u8::from(p.write) << 4);
                self.put(a.raw());
            }
        }
    }

    fn push_ref(&mut self, tag: u8, addr: VAddr) {
        let delta = addr.raw().wrapping_sub(self.pushed_addr) as i64;
        self.pushed_addr = addr.raw();
        self.bytes.push(tag);
        self.put(((delta << 1) ^ (delta >> 63)) as u64);
    }

    fn push_id(&mut self, tag: u8, id: SyncId) {
        self.bytes.push(tag);
        self.put(u64::from(id.0));
    }

    /// Appends `v` as LEB128: seven bits per byte, low first, high bit set
    /// on every byte but the last.
    fn put(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.bytes.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.bytes.push(v as u8);
    }

    /// Decodes the LEB128 value at the cursor.
    fn get(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.bytes[self.read];
            self.read += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    fn pop_ref(&mut self) -> VAddr {
        let zz = self.get();
        let delta = (zz >> 1) as i64 ^ -((zz & 1) as i64);
        self.popped_addr = self.popped_addr.wrapping_add(delta as u64);
        VAddr::new(self.popped_addr)
    }

    /// Removes and returns the oldest unpopped op.
    pub(crate) fn pop(&mut self) -> Option<Op> {
        let tag = *self.bytes.get(self.read)?;
        self.read += 1;
        Some(match tag & 7 {
            READ => Op::Read(self.pop_ref()),
            WRITE => Op::Write(self.pop_ref()),
            COMPUTE => match u64::from(tag >> 3) {
                INLINE_COMPUTE => Op::Compute(self.get()),
                c => Op::Compute(c),
            },
            BARRIER => Op::Barrier(SyncId(self.get() as u32)),
            LOCK => Op::Lock(SyncId(self.get() as u32)),
            UNLOCK => Op::Unlock(SyncId(self.get() as u32)),
            _ => Op::Protect(
                VAddr::new(self.get()),
                Protection { read: tag & 1 << 3 != 0, write: tag & 1 << 4 != 0 },
            ),
        })
    }

    /// Frees the bytes of the ops popped so far.
    pub(crate) fn compact(&mut self) {
        self.bytes.drain(..self.read);
        self.read = 0;
    }

    /// Bytes held, popped or not.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.bytes.len()
    }
}

/// Builder for one machine's worth of per-node traces.
///
/// Encodes each node's ops into a packed `OpBuf`, with helpers for the
/// patterns the generators share: sequential streams at a chosen
/// granularity, global barriers, think-time insertion, and deterministic
/// randomness.
#[derive(Debug)]
pub struct TraceBuilder {
    bufs: Vec<OpBuf>,
    rng: DetRng,
    next_barrier: u32,
    /// Compute cycles inserted before each memory reference (per-op think
    /// time), emulating the instructions between shared accesses.
    pub think: u64,
    /// Additional uniformly-random think cycles in `0..=think_jitter` per
    /// reference. Real processors never run in perfect lockstep; without
    /// jitter, barrier-aligned generators produce phase-locked bursts that
    /// pile onto the same home nodes simultaneously — an artifact, not a
    /// workload property.
    pub think_jitter: u64,
}

impl TraceBuilder {
    /// Creates a builder for `nodes` nodes with a benchmark-specific seed.
    pub fn new(nodes: u64, seed: u64) -> Self {
        TraceBuilder {
            bufs: (0..nodes).map(|_| OpBuf::default()).collect(),
            rng: DetRng::new(seed),
            next_barrier: 0,
            think: 2,
            think_jitter: 0,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.bufs.len()
    }

    /// The builder's deterministic RNG.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    fn think_cycles(&mut self) -> u64 {
        if self.think_jitter > 0 {
            self.think + self.rng.gen_range(self.think_jitter + 1)
        } else {
            self.think
        }
    }

    /// Emits `op` on `node` after the think time.
    fn reference(&mut self, node: usize, op: Op) {
        let think = self.think_cycles();
        if think > 0 {
            self.bufs[node].push(Op::Compute(think));
        }
        self.bufs[node].push(op);
    }

    /// Emits a read of `addr` on `node`, preceded by the think time.
    pub fn read(&mut self, node: usize, addr: VAddr) {
        self.reference(node, Op::Read(addr));
    }

    /// Emits a write of `addr` on `node`, preceded by the think time.
    pub fn write(&mut self, node: usize, addr: VAddr) {
        self.reference(node, Op::Write(addr));
    }

    /// Emits pure computation on `node`.
    pub fn compute(&mut self, node: usize, cycles: u64) {
        self.bufs[node].push(Op::Compute(cycles));
    }

    /// Emits a global barrier (all nodes participate) and returns its id.
    pub fn barrier(&mut self) -> SyncId {
        let id = SyncId(self.next_barrier);
        self.next_barrier += 1;
        for buf in &mut self.bufs {
            buf.push(Op::Barrier(id));
        }
        id
    }

    /// Emits a lock/unlock pair around `body` on `node`. Lock ids live in a
    /// separate space from barrier ids (offset by `1 << 16`).
    pub fn critical_section(
        &mut self,
        node: usize,
        lock: u32,
        body: impl FnOnce(&mut Self, usize),
    ) {
        let id = SyncId(lock | 1 << 16);
        self.bufs[node].push(Op::Lock(id));
        body(self, node);
        self.bufs[node].push(Op::Unlock(id));
    }

    /// Emits a sequential read stream over `[start, start+len)` of `region`
    /// on `node`, one reference every `stride` bytes.
    pub fn stream_read(&mut self, node: usize, region: &Region, start: u64, len: u64, stride: u64) {
        let mut off = start;
        while off < start + len {
            self.read(node, region.addr(off));
            off += stride;
        }
    }

    /// Emits a sequential write stream over `[start, start+len)` of
    /// `region` on `node`, one reference every `stride` bytes.
    pub fn stream_write(&mut self, node: usize, region: &Region, start: u64, len: u64, stride: u64) {
        let mut off = start;
        while off < start + len {
            self.write(node, region.addr(off));
            off += stride;
        }
    }

    /// Finishes the build, returning the per-node traces.
    pub fn into_traces(self) -> Vec<Vec<Op>> {
        self.bufs
            .into_iter()
            .map(|mut buf| std::iter::from_fn(|| buf.pop()).collect())
            .collect()
    }

    /// Pops `node`'s oldest unread op, keeping the RNG, barrier-id and
    /// think-time state intact so generation can continue behind it.
    pub(crate) fn pop(&mut self, node: usize) -> Option<Op> {
        self.bufs[node].pop()
    }

    /// Frees every node's already-popped ops.
    pub(crate) fn compact(&mut self) {
        for buf in &mut self.bufs {
            buf.compact();
        }
    }
}

/// Scales an iteration count by `scale`, flooring at 1.
pub(crate) fn scaled_count(base: u64, scale: f64) -> u64 {
    ((base as f64 * scale).round() as u64).max(1)
}

/// The standard virtual base address generators lay their data at (clear of
/// page zero and low segments).
pub(crate) const DATA_BASE: u64 = 0x1000_0000;

/// Convenience: a layout starting at [`DATA_BASE`].
pub(crate) fn layout(_cfg: &MachineConfig) -> vcoma_vm::AddressSpaceLayout {
    vcoma_vm::AddressSpaceLayout::new(DATA_BASE)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes `ops` into a fresh buffer and pops them all back.
    fn roundtrip(ops: &[Op]) -> Vec<Op> {
        let mut buf = OpBuf::default();
        for &op in ops {
            buf.push(op);
        }
        std::iter::from_fn(|| buf.pop()).collect()
    }

    #[test]
    fn op_buf_roundtrips_address_deltas_at_the_extremes() {
        let ops: Vec<Op> = [0, 1 << 63, 0, u64::MAX, 0, 1, u64::MAX, 1 << 63, (1 << 63) - 1, 0x40]
            .into_iter()
            .enumerate()
            .map(|(i, a)| if i % 2 == 0 { Op::Read(VAddr::new(a)) } else { Op::Write(VAddr::new(a)) })
            .collect();
        assert_eq!(roundtrip(&ops), ops);
    }

    #[test]
    fn op_buf_roundtrips_compute_around_the_inline_threshold() {
        let ops: Vec<Op> = [0, 1, 30, 31, 32, 127, 128, u64::MAX - 1, u64::MAX]
            .into_iter()
            .map(Op::Compute)
            .collect();
        assert_eq!(roundtrip(&ops), ops);
        let mut buf = OpBuf::default();
        buf.push(Op::Compute(30));
        assert_eq!(buf.len(), 1, "counts below 31 are inline");
        buf.push(Op::Compute(31));
        assert_eq!(buf.len(), 3, "31 takes a one-byte payload");
    }

    #[test]
    fn op_buf_roundtrips_sync_ids_and_protections() {
        let mut ops = Vec::new();
        for id in [0, 1, 1 << 16, u32::MAX] {
            ops.extend([Op::Barrier(SyncId(id)), Op::Lock(SyncId(id)), Op::Unlock(SyncId(id))]);
        }
        for (read, write) in [(true, true), (true, false), (false, true), (false, false)] {
            for addr in [0, 0x1000_0040, u64::MAX] {
                ops.push(Op::Protect(VAddr::new(addr), Protection { read, write }));
            }
        }
        assert_eq!(roundtrip(&ops), ops);
    }

    #[test]
    fn op_buf_interleaves_push_pop_and_compact() {
        let mut buf = OpBuf::default();
        assert_eq!(buf.pop(), None);
        buf.push(Op::Read(VAddr::new(0x1000)));
        buf.push(Op::Compute(7));
        buf.push(Op::Write(VAddr::new(0x0fc0)));
        assert_eq!(buf.pop(), Some(Op::Read(VAddr::new(0x1000))));
        buf.compact();
        assert_eq!(buf.len(), 1 + 2, "the popped read is freed");
        // Deltas keep chaining across a compaction on both ends.
        buf.push(Op::Read(VAddr::new(0x1000)));
        assert_eq!(buf.pop(), Some(Op::Compute(7)));
        assert_eq!(buf.pop(), Some(Op::Write(VAddr::new(0x0fc0))));
        buf.compact();
        buf.push(Op::Barrier(SyncId(3)));
        assert_eq!(buf.pop(), Some(Op::Read(VAddr::new(0x1000))));
        assert_eq!(buf.pop(), Some(Op::Barrier(SyncId(3))));
        assert_eq!(buf.pop(), None);
        buf.compact();
        assert_eq!(buf.len(), 0);
    }

    #[test]
    fn nearby_references_pack_into_two_bytes() {
        let mut buf = OpBuf::default();
        buf.push(Op::Read(VAddr::new(0x1000_0000)));
        let first = buf.len();
        buf.push(Op::Read(VAddr::new(0x1000_0020)));
        buf.push(Op::Write(VAddr::new(0x1000_0000)));
        assert_eq!(buf.len() - first, 4);
    }

    #[cfg(feature = "proptest-tests")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Op `kind` built from `raw`; `scale` picks how many of `raw`'s
        /// bits survive, so small counts and short deltas are common.
        fn op(kind: u8, scale: u8, raw: u64) -> Op {
            let v = match scale {
                0 => raw % 64,
                1 => raw % (1 << 16),
                2 => raw >> 1,
                _ => raw,
            };
            match kind {
                0 => Op::Read(VAddr::new(v)),
                1 => Op::Write(VAddr::new(v)),
                2 => Op::Compute(v),
                3 => Op::Barrier(SyncId(v as u32)),
                4 => Op::Lock(SyncId(v as u32)),
                5 => Op::Unlock(SyncId(v as u32)),
                _ => Op::Protect(
                    VAddr::new(v),
                    Protection { read: raw & 1 != 0, write: raw & 2 != 0 },
                ),
            }
        }

        proptest! {
            #[test]
            fn pop_returns_what_push_stored(
                parts in proptest::collection::vec((0u8..7, 0u8..4, 0u64..u64::MAX), 0..200)
            ) {
                let ops: Vec<Op> = parts.iter().map(|&(k, s, v)| op(k, s, v)).collect();
                prop_assert_eq!(roundtrip(&ops), ops);
            }
        }
    }

    #[test]
    fn read_write_carry_think_time() {
        let mut b = TraceBuilder::new(2, 1);
        b.think = 3;
        b.read(0, VAddr::new(0x100));
        b.write(1, VAddr::new(0x200));
        let t = b.into_traces();
        assert_eq!(t[0], vec![Op::Compute(3), Op::Read(VAddr::new(0x100))]);
        assert_eq!(t[1], vec![Op::Compute(3), Op::Write(VAddr::new(0x200))]);
    }

    #[test]
    fn zero_think_time_emits_bare_refs() {
        let mut b = TraceBuilder::new(1, 1);
        b.think = 0;
        b.read(0, VAddr::new(0x100));
        assert_eq!(b.into_traces()[0], vec![Op::Read(VAddr::new(0x100))]);
    }

    #[test]
    fn barrier_is_global_and_sequenced() {
        let mut b = TraceBuilder::new(3, 1);
        let id0 = b.barrier();
        let id1 = b.barrier();
        assert_ne!(id0, id1);
        for t in b.into_traces() {
            assert_eq!(t, vec![Op::Barrier(id0), Op::Barrier(id1)]);
        }
    }

    #[test]
    fn critical_section_wraps_body() {
        let mut b = TraceBuilder::new(1, 1);
        b.think = 0;
        b.critical_section(0, 5, |b, n| b.write(n, VAddr::new(0x40)));
        let t = &b.into_traces()[0];
        assert!(matches!(t[0], Op::Lock(_)));
        assert!(matches!(t[1], Op::Write(_)));
        assert!(matches!(t[2], Op::Unlock(_)));
    }

    #[test]
    fn streams_cover_the_range_at_stride() {
        let region = Region { name: "r", base: VAddr::new(0x1000), size: 256 };
        let mut b = TraceBuilder::new(1, 1);
        b.think = 0;
        b.stream_read(0, &region, 0, 128, 32);
        b.stream_write(0, &region, 128, 128, 64);
        let t = &b.into_traces()[0];
        assert_eq!(t.len(), 4 + 2);
        assert_eq!(t[0], Op::Read(VAddr::new(0x1000)));
        assert_eq!(t[3], Op::Read(VAddr::new(0x1060)));
        assert_eq!(t[4], Op::Write(VAddr::new(0x1080)));
        assert_eq!(t[5], Op::Write(VAddr::new(0x10C0)));
    }

    #[test]
    fn scaled_count_floors_at_one() {
        assert_eq!(scaled_count(100, 0.5), 50);
        assert_eq!(scaled_count(100, 0.0001), 1);
        assert_eq!(scaled_count(0, 1.0), 1);
    }

    #[test]
    fn total_ops_counts_everything() {
        let mut b = TraceBuilder::new(2, 1);
        b.think = 0;
        b.read(0, VAddr::new(0));
        b.barrier();
        assert_eq!(b.into_traces().iter().map(Vec::len).sum::<usize>(), 3);
    }
}
