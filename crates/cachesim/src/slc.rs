//! Second-level cache model: set-associative, write-back, write-allocate.
//!
//! The paper's SLC is 64 KB, 4-way, with 64-byte blocks (§5.1). Write-back
//! matters for the translation study: SLC victim writebacks have poor
//! locality and, in the `L2-TLB` scheme, must consult the TLB on their way
//! to the (physical) attraction memory — the effect that makes the solid
//! `L2-TLB` curves of Figure 8 so much worse than the dashed
//! `L2-TLB/no_wback` ones.

use crate::{CacheStats, SetAssocArray};
use vcoma_types::{AccessKind, CacheGeometry};

/// A dirty line leaving the SLC that must be written back to the level
/// below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Writeback {
    /// SLC-sized block number of the dirty victim.
    pub block: u64,
}

/// Result of presenting an access to the [`Slc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlcAccess {
    /// Whether the access hit.
    pub hit: bool,
    /// A block evicted to make room for the allocation, if any (misses
    /// only). The simulator must back-invalidate the FLC span.
    pub evicted: Option<u64>,
    /// If the evicted block was dirty, the writeback it generates.
    pub writeback: Option<Writeback>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    dirty: bool,
}

/// A write-back, write-allocate set-associative second-level cache.
///
/// Operates on SLC-sized block numbers.
#[derive(Debug, Clone)]
pub struct Slc {
    array: SetAssocArray<Line>,
    geometry: CacheGeometry,
    stats: CacheStats,
}

impl Slc {
    /// Creates an empty SLC with the given geometry (LRU replacement).
    pub fn new(geometry: CacheGeometry) -> Self {
        Slc {
            array: SetAssocArray::with_geometry(geometry),
            geometry,
            stats: CacheStats::default(),
        }
    }

    /// Geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Presents a read or write to the cache.
    ///
    /// * Read hit / write hit: line stays, write sets the dirty bit.
    /// * Read miss: allocate clean, possibly evicting a victim.
    /// * Write miss: write-allocate dirty, possibly evicting a victim.
    ///
    /// Any dirty victim is returned as a [`Writeback`] which the caller must
    /// propagate to the next level (and the caller must back-invalidate the
    /// FLC span of any evicted block to preserve inclusion).
    pub fn access(&mut self, block: u64, kind: AccessKind) -> SlcAccess {
        match kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }
        if let Some(line) = self.array.lookup(block) {
            if kind.is_write() {
                line.dirty = true;
                self.stats.write_hits += 1;
            } else {
                self.stats.read_hits += 1;
            }
            return SlcAccess { hit: true, evicted: None, writeback: None };
        }
        let victim = self.array.insert(block, Line { dirty: kind.is_write() });
        let (evicted, writeback) = match victim {
            Some((vblock, line)) => {
                self.stats.evictions += 1;
                if line.dirty {
                    self.stats.writebacks += 1;
                    (Some(vblock), Some(Writeback { block: vblock }))
                } else {
                    (Some(vblock), None)
                }
            }
            None => (None, None),
        };
        SlcAccess { hit: false, evicted, writeback }
    }

    /// Removes `block` (coherence or inclusion back-invalidation). Returns
    /// `Some(dirty)` if the line was resident.
    pub fn invalidate(&mut self, block: u64) -> Option<bool> {
        let line = self.array.invalidate(block)?;
        self.stats.invalidations += 1;
        Some(line.dirty)
    }

    /// Invalidates every SLC block contained in a larger block of `ratio`
    /// SLC blocks (e.g. one 128-byte AM line spans two 64-byte SLC lines).
    /// Returns how many of them were dirty; their data is newer than the
    /// AM line's.
    pub fn invalidate_span(&mut self, outer_block: u64, ratio: u64) -> u64 {
        let span = outer_block * ratio..(outer_block + 1) * ratio;
        span.map(|b| u64::from(self.invalidate(b) == Some(true))).sum()
    }

    /// Returns `true` if the block is resident.
    pub fn contains(&self, block: u64) -> bool {
        self.array.contains(block)
    }

    /// Returns `Some(dirty)` if the block is resident.
    pub fn state_of(&self, block: u64) -> Option<bool> {
        self.array.peek(block).map(|l| l.dirty)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Zeroes the statistics counters, keeping the cache contents (used
    /// between a warm-up pass and the measured pass).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// Returns `true` if no line is resident.
    pub fn is_empty(&self) -> bool {
        self.array.is_empty()
    }

    /// Drops all lines without writing anything back (test helper / flush
    /// on mapping change; callers that need the dirty data must walk
    /// [`Slc::invalidate_span`] first).
    pub fn flush(&mut self) {
        self.array.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_slc() -> Slc {
        Slc::new(CacheGeometry::new(64 << 10, 4, 64).unwrap())
    }

    fn tiny_slc() -> Slc {
        // 1 set, 2 ways
        Slc::new(CacheGeometry::new(128, 2, 64).unwrap())
    }

    #[test]
    fn read_miss_allocates_clean() {
        let mut c = paper_slc();
        let r = c.access(7, AccessKind::Read);
        assert!(!r.hit);
        assert_eq!(c.state_of(7), Some(false));
        assert!(c.access(7, AccessKind::Read).hit);
    }

    #[test]
    fn write_miss_allocates_dirty() {
        let mut c = paper_slc();
        let r = c.access(7, AccessKind::Write);
        assert!(!r.hit);
        assert_eq!(c.state_of(7), Some(true));
    }

    #[test]
    fn write_hit_dirties() {
        let mut c = paper_slc();
        c.access(7, AccessKind::Read);
        assert_eq!(c.state_of(7), Some(false));
        assert!(c.access(7, AccessKind::Write).hit);
        assert_eq!(c.state_of(7), Some(true));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = tiny_slc();
        c.access(0, AccessKind::Write);
        c.access(1, AccessKind::Read);
        let r = c.access(2, AccessKind::Read); // evicts LRU = block 0 (dirty)
        assert_eq!(r.evicted, Some(0));
        assert_eq!(r.writeback, Some(Writeback { block: 0 }));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_produces_no_writeback() {
        let mut c = tiny_slc();
        c.access(0, AccessKind::Read);
        c.access(1, AccessKind::Read);
        let r = c.access(2, AccessKind::Read);
        assert_eq!(r.evicted, Some(0));
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn invalidate_reports_dirty() {
        let mut c = paper_slc();
        c.access(5, AccessKind::Write);
        assert_eq!(c.invalidate(5), Some(true));
        assert_eq!(c.invalidate(5), None);
        c.access(6, AccessKind::Read);
        assert_eq!(c.invalidate(6), Some(false));
    }

    #[test]
    fn invalidate_span_returns_dirty_sub_blocks() {
        let mut c = paper_slc();
        // AM block 3 (128 B) spans SLC blocks 6 and 7 (64 B).
        c.access(6, AccessKind::Write);
        c.access(7, AccessKind::Read);
        assert_eq!(c.invalidate_span(3, 2), 1);
        assert!(!c.contains(6));
        assert!(!c.contains(7));
    }

    #[test]
    fn flush_empties() {
        let mut c = paper_slc();
        c.access(1, AccessKind::Write);
        c.flush();
        assert!(c.is_empty());
    }

    #[cfg(feature = "proptest-tests")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn capacity_never_exceeded(ops in proptest::collection::vec((0u64..512, prop::bool::ANY), 0..300)) {
                let mut c = tiny_slc();
                for (b, w) in ops {
                    let kind = if w { AccessKind::Write } else { AccessKind::Read };
                    c.access(b, kind);
                    prop_assert!(c.len() <= 2);
                }
            }

            #[test]
            fn writeback_only_for_previously_written_blocks(
                ops in proptest::collection::vec((0u64..16, prop::bool::ANY), 0..300)
            ) {
                let mut c = tiny_slc();
                let mut ever_written = std::collections::HashSet::new();
                for (b, w) in ops {
                    let kind = if w { AccessKind::Write } else { AccessKind::Read };
                    if w {
                        ever_written.insert(b);
                    }
                    let r = c.access(b, kind);
                    if let Some(wb) = r.writeback {
                        prop_assert!(ever_written.contains(&wb.block));
                    }
                }
            }
        }
    }
}
