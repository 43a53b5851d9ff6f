//! First-level cache model: direct-mapped, write-through, no write-allocate.
//!
//! The paper's FLC is 16 KB direct-mapped with 32-byte blocks and
//! write-through (§5.1). Write-through means every store propagates to the
//! SLC regardless of FLC hit/miss; no-write-allocate means a store miss does
//! not bring the block into the FLC. Both choices matter for the translation
//! study: in `L1-TLB` the write-through traffic is what keeps the TLB busy
//! on stores (paper §5.2, RADIX discussion).

use crate::{CacheStats, LookupResult, SetAssocArray};
use vcoma_types::CacheGeometry;

/// A direct-mapped (or, if configured, set-associative) write-through,
/// no-write-allocate first-level cache.
///
/// Payload-free: the FLC only tracks presence. Operates on FLC-sized block
/// numbers.
#[derive(Debug, Clone)]
pub struct Flc {
    array: SetAssocArray<()>,
    geometry: CacheGeometry,
    stats: CacheStats,
}

impl Flc {
    /// Creates an empty FLC with the given geometry (LRU within sets; with
    /// the paper's direct-mapped geometry the policy is moot).
    pub fn new(geometry: CacheGeometry) -> Self {
        Flc {
            array: SetAssocArray::with_geometry(geometry),
            geometry,
            stats: CacheStats::default(),
        }
    }

    /// Geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Performs a load of `block`. On a miss the block is allocated
    /// (read-allocate), possibly evicting the resident conflicting line.
    pub fn read(&mut self, block: u64) -> LookupResult {
        self.stats.reads += 1;
        if self.array.lookup(block).is_some() {
            self.stats.read_hits += 1;
            LookupResult::Hit
        } else {
            if self.array.insert(block, ()).is_some() {
                self.stats.evictions += 1;
            }
            LookupResult::Miss
        }
    }

    /// Performs a store to `block`. Write-through: the store always
    /// propagates to the next level; the return value only reports whether
    /// the FLC itself held the line (so it could be updated in place).
    /// No-write-allocate: a miss does not install the line.
    pub fn write(&mut self, block: u64) -> LookupResult {
        self.stats.writes += 1;
        if self.array.lookup(block).is_some() {
            self.stats.write_hits += 1;
            LookupResult::Hit
        } else {
            LookupResult::Miss
        }
    }

    /// Removes `block` if resident (inclusion back-invalidation or
    /// coherence). Returns whether it was present.
    pub fn invalidate(&mut self, block: u64) -> bool {
        let present = self.array.invalidate(block).is_some();
        if present {
            self.stats.invalidations += 1;
        }
        present
    }

    /// Invalidates every FLC block contained in the given *larger* block of
    /// `ratio` FLC blocks (e.g. one 64-byte SLC line spans two 32-byte FLC
    /// lines, `ratio = 2`). Returns how many were present.
    pub fn invalidate_span(&mut self, outer_block: u64, ratio: u64) -> u64 {
        let mut n = 0;
        for b in outer_block * ratio..(outer_block + 1) * ratio {
            if self.invalidate(b) {
                n += 1;
            }
        }
        n
    }

    /// Returns `true` if the block is resident.
    pub fn contains(&self, block: u64) -> bool {
        self.array.contains(block)
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

    /// Drops all lines (context switch / flush).
    pub fn flush(&mut self) {
        self.array.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_flc() -> Flc {
        Flc::new(CacheGeometry::new(16 << 10, 1, 32).unwrap())
    }

    #[test]
    fn read_allocates() {
        let mut c = paper_flc();
        assert_eq!(c.read(10), LookupResult::Miss);
        assert_eq!(c.read(10), LookupResult::Hit);
        assert_eq!(c.stats().reads, 2);
        assert_eq!(c.stats().read_hits, 1);
    }

    #[test]
    fn write_does_not_allocate() {
        let mut c = paper_flc();
        assert_eq!(c.write(10), LookupResult::Miss);
        // Still a miss: no-write-allocate.
        assert_eq!(c.write(10), LookupResult::Miss);
        assert_eq!(c.read(10), LookupResult::Miss);
    }

    #[test]
    fn write_hits_resident_line() {
        let mut c = paper_flc();
        c.read(10);
        assert_eq!(c.write(10), LookupResult::Hit);
        assert_eq!(c.stats().write_hits, 1);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = paper_flc();
        let lines = c.geometry().lines(); // 512
        c.read(0);
        c.read(lines); // same set as block 0
        assert!(!c.contains(0));
        assert!(c.contains(lines));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidate_and_span() {
        let mut c = paper_flc();
        c.read(20);
        c.read(21);
        // SLC line 10 (64-byte) spans FLC lines 20 and 21 (32-byte).
        assert_eq!(c.invalidate_span(10, 2), 2);
        assert!(!c.contains(20));
        assert!(!c.contains(21));
        assert_eq!(c.stats().invalidations, 2);
        assert_eq!(c.invalidate_span(10, 2), 0);
    }

    #[test]
    fn flush_empties() {
        let mut c = paper_flc();
        c.read(1);
        c.read(2);
        assert_eq!(c.len(), 2);
        c.flush();
        assert!(c.is_empty());
    }
}
