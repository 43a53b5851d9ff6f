//! Shared trace-construction helpers.

use vcoma_types::{DetRng, MachineConfig, Op, SyncId, VAddr};
use vcoma_vm::Region;

/// Builder for one machine's worth of per-node traces.
///
/// Wraps the per-node op vectors with helpers for the patterns the
/// generators share: sequential streams at a chosen granularity, global
/// barriers, think-time insertion, and deterministic randomness.
#[derive(Debug)]
pub struct TraceBuilder {
    traces: Vec<Vec<Op>>,
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
            traces: vec![Vec::new(); nodes as usize],
            rng: DetRng::new(seed),
            next_barrier: 0,
            think: 2,
            think_jitter: 0,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.traces.len()
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

    /// Emits a read of `addr` on `node`, preceded by the think time.
    pub fn read(&mut self, node: usize, addr: VAddr) {
        let think = self.think_cycles();
        if think > 0 {
            self.traces[node].push(Op::Compute(think));
        }
        self.traces[node].push(Op::Read(addr));
    }

    /// Emits a write of `addr` on `node`, preceded by the think time.
    pub fn write(&mut self, node: usize, addr: VAddr) {
        let think = self.think_cycles();
        if think > 0 {
            self.traces[node].push(Op::Compute(think));
        }
        self.traces[node].push(Op::Write(addr));
    }

    /// Emits pure computation on `node`.
    pub fn compute(&mut self, node: usize, cycles: u64) {
        self.traces[node].push(Op::Compute(cycles));
    }

    /// Emits a global barrier (all nodes participate) and returns its id.
    pub fn barrier(&mut self) -> SyncId {
        let id = SyncId(self.next_barrier);
        self.next_barrier += 1;
        for t in &mut self.traces {
            t.push(Op::Barrier(id));
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
        self.traces[node].push(Op::Lock(id));
        body(self, node);
        self.traces[node].push(Op::Unlock(id));
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
        self.traces
    }

    /// Drains the ops emitted since construction (or the previous drain),
    /// keeping the RNG, barrier-id and think-time state intact so
    /// generation can continue where it left off. The streaming sources
    /// use this to hand the replay engine one phase at a time instead of
    /// the whole trace.
    pub fn take_phase(&mut self) -> Vec<Vec<Op>> {
        self.traces.iter_mut().map(std::mem::take).collect()
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
