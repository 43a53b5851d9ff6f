//! The generic set-associative array underlying every tagged memory.
//!
//! Layout: struct-of-arrays. Tags, LRU stamps and payloads live in three
//! flat slabs indexed by `set * assoc + way`, with a per-set occupancy
//! count. A lookup scans a contiguous `u64` tag strip — no per-set `Vec`
//! headers, no pointer chasing, no allocation after construction. The
//! observable semantics (occupancy order, victim choice) are bit-identical
//! to the earlier `Vec<Vec<Way>>` layout: fills append at the end of the
//! occupied strip, evictions replace in place, and removals are
//! `swap_remove`s.

use vcoma_types::CacheGeometry;

/// Picks the least-recently-used way given the occupied ways' touch
/// stamps (larger = more recent); the first of equal stamps wins.
fn lru_victim(stamps: &[u64]) -> usize {
    let mut best = 0;
    for (i, &r) in stamps.iter().enumerate() {
        if r < stamps[best] {
            best = i;
        }
    }
    best
}

/// A set-associative array of tagged entries.
///
/// Entries are keyed by *block number*; the set index is `block % sets` and
/// the tag is the full block number (the split into index/tag bits is
/// immaterial for a simulator). `T` is per-line payload: coherence state,
/// dirty bits, back-pointers, or `()` for a pure presence check.
///
/// The array never exceeds `sets × assoc` entries; inserting into a full set
/// evicts the set's least-recently-used entry and returns it.
#[derive(Debug, Clone)]
pub struct SetAssocArray<T> {
    /// `tags[s * assoc + i]` for `i < lens[s]` are the occupied ways of
    /// set `s`, in fill order.
    tags: Vec<u64>,
    /// Monotone touch counters used as LRU timestamps, parallel to `tags`.
    stamps: Vec<u64>,
    /// Per-line payloads, parallel to `tags`. Vacant slots hold
    /// `T::default()`.
    data: Vec<T>,
    /// Occupied ways per set.
    lens: Vec<u32>,
    num_sets: usize,
    assoc: usize,
    clock: u64,
}

impl<T: Default> SetAssocArray<T> {
    /// Creates an empty array with `sets` sets of `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `assoc` is zero.
    pub fn new(sets: u64, assoc: u64) -> Self {
        assert!(sets > 0 && assoc > 0, "sets and assoc must be positive");
        let slots = sets as usize * assoc as usize;
        SetAssocArray {
            tags: vec![0; slots],
            stamps: vec![0; slots],
            data: (0..slots).map(|_| T::default()).collect(),
            lens: vec![0; sets as usize],
            num_sets: sets as usize,
            assoc: assoc as usize,
            clock: 0,
        }
    }

    /// Creates an array with the given geometry (`geometry.sets()` sets of
    /// `geometry.assoc` ways).
    pub fn with_geometry(geometry: CacheGeometry) -> Self {
        SetAssocArray::new(geometry.sets(), geometry.assoc)
    }
}

impl<T> SetAssocArray<T> {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.num_sets as u64
    }

    /// Ways per set.
    pub fn assoc(&self) -> u64 {
        self.assoc as u64
    }

    /// Total entries currently resident.
    pub fn len(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// Returns `true` if no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.lens.iter().all(|&l| l == 0)
    }

    /// Maximum number of resident entries.
    pub fn capacity(&self) -> usize {
        self.num_sets * self.assoc
    }

    #[inline]
    fn set_index(&self, block: u64) -> usize {
        (block % self.num_sets as u64) as usize
    }

    /// Slot index of `block` within its set's occupied strip, if resident.
    #[inline]
    fn find(&self, si: usize, block: u64) -> Option<usize> {
        let base = si * self.assoc;
        let strip = &self.tags[base..base + self.lens[si] as usize];
        strip.iter().position(|&t| t == block).map(|i| base + i)
    }

    /// Looks up a block, refreshing its LRU position. Returns a mutable
    /// reference to its payload if present.
    #[inline]
    pub fn lookup(&mut self, block: u64) -> Option<&mut T> {
        self.clock += 1;
        let si = self.set_index(block);
        let slot = self.find(si, block)?;
        self.stamps[slot] = self.clock;
        Some(&mut self.data[slot])
    }

    /// Looks up a block without touching LRU state.
    #[inline]
    pub fn peek(&self, block: u64) -> Option<&T> {
        let si = self.set_index(block);
        self.find(si, block).map(|slot| &self.data[slot])
    }

    /// Mutable lookup without touching LRU state.
    #[inline]
    pub fn peek_mut(&mut self, block: u64) -> Option<&mut T> {
        let si = self.set_index(block);
        self.find(si, block).map(|slot| &mut self.data[slot])
    }

    /// Returns `true` if the block is resident.
    #[inline]
    pub fn contains(&self, block: u64) -> bool {
        let si = self.set_index(block);
        self.find(si, block).is_some()
    }

    /// Inserts a block, evicting a victim if its set is full.
    ///
    /// Returns the evicted `(block, payload)` if an eviction happened. If
    /// the block was already resident its payload is replaced (no eviction)
    /// and the old payload is returned with the *same* block number.
    pub fn insert(&mut self, block: u64, data: T) -> Option<(u64, T)> {
        self.clock += 1;
        let clock = self.clock;
        let si = self.set_index(block);
        let base = si * self.assoc;
        let len = self.lens[si] as usize;
        if let Some(slot) = self.find(si, block) {
            self.stamps[slot] = clock;
            let old = std::mem::replace(&mut self.data[slot], data);
            return Some((block, old));
        }
        if len < self.assoc {
            let slot = base + len;
            self.tags[slot] = block;
            self.stamps[slot] = clock;
            self.data[slot] = data;
            self.lens[si] += 1;
            return None;
        }
        let v = lru_victim(&self.stamps[base..base + len]);
        let slot = base + v;
        let victim_tag = std::mem::replace(&mut self.tags[slot], block);
        self.stamps[slot] = clock;
        let victim_data = std::mem::replace(&mut self.data[slot], data);
        Some((victim_tag, victim_data))
    }

    /// Removes the entry at `slot` from set `si` with `swap_remove`
    /// semantics (the strip's last entry moves into the hole).
    fn remove_slot(&mut self, si: usize, slot: usize) -> T
    where
        T: Default,
    {
        let last = si * self.assoc + self.lens[si] as usize - 1;
        self.tags.swap(slot, last);
        self.stamps.swap(slot, last);
        self.data.swap(slot, last);
        self.lens[si] -= 1;
        std::mem::take(&mut self.data[last])
    }

    /// Removes a block, returning its payload if it was resident.
    pub fn invalidate(&mut self, block: u64) -> Option<T>
    where
        T: Default,
    {
        let si = self.set_index(block);
        let slot = self.find(si, block)?;
        Some(self.remove_slot(si, slot))
    }

    /// Iterates over all resident `(block, payload)` pairs in unspecified
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (0..self.num_sets).flat_map(move |si| {
            let base = si * self.assoc;
            (base..base + self.lens[si] as usize).map(move |slot| (self.tags[slot], &self.data[slot]))
        })
    }

    /// Number of resident entries in the set that `block` maps to.
    pub fn set_occupancy(&self, block: u64) -> usize {
        self.lens[self.set_index(block)] as usize
    }

    /// Returns `true` if the set that `block` maps to has a free way.
    pub fn set_has_room(&self, block: u64) -> bool {
        self.set_occupancy(block) < self.assoc
    }

    /// Iterates over the `(block, payload)` pairs resident in the set that
    /// `block` maps to. Used by the coherence protocol to pick replacement
    /// victims by state priority rather than by recency.
    pub fn entries_in_set(&self, block: u64) -> impl Iterator<Item = (u64, &T)> {
        let si = self.set_index(block);
        let base = si * self.assoc;
        (base..base + self.lens[si] as usize).map(move |slot| (self.tags[slot], &self.data[slot]))
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.lens.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lru_array(sets: u64, assoc: u64) -> SetAssocArray<u32> {
        SetAssocArray::new(sets, assoc)
    }

    #[test]
    fn insert_then_lookup() {
        let mut a = lru_array(4, 2);
        assert!(a.insert(5, 50).is_none());
        assert_eq!(a.lookup(5), Some(&mut 50));
        assert_eq!(a.peek(5), Some(&50));
        assert!(a.contains(5));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn lookup_missing_is_none() {
        let mut a = lru_array(4, 2);
        assert_eq!(a.lookup(9), None);
        assert_eq!(a.peek(9), None);
    }

    #[test]
    fn reinsert_replaces_payload_and_returns_old() {
        let mut a = lru_array(4, 2);
        a.insert(5, 50);
        let old = a.insert(5, 51);
        assert_eq!(old, Some((5, 50)));
        assert_eq!(a.peek(5), Some(&51));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut a = lru_array(1, 2);
        a.insert(0, 0);
        a.insert(1, 1);
        a.lookup(0); // 0 now most recent
        let evicted = a.insert(2, 2);
        assert_eq!(evicted, Some((1, 1)));
        assert!(a.contains(0));
        assert!(a.contains(2));
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut a = lru_array(4, 1);
        a.insert(0, 0);
        // block 4 maps to set 0 too
        let evicted = a.insert(4, 44);
        assert_eq!(evicted, Some((0, 0)));
        assert!(!a.contains(0));
        assert!(a.contains(4));
    }

    #[test]
    fn blocks_in_different_sets_do_not_conflict() {
        let mut a = lru_array(4, 1);
        a.insert(0, 0);
        a.insert(1, 1);
        a.insert(2, 2);
        a.insert(3, 3);
        assert_eq!(a.len(), 4);
        assert!(a.contains(0) && a.contains(1) && a.contains(2) && a.contains(3));
    }

    #[test]
    fn invalidate_removes() {
        let mut a = lru_array(4, 2);
        a.insert(5, 50);
        assert_eq!(a.invalidate(5), Some(50));
        assert!(!a.contains(5));
        assert_eq!(a.invalidate(5), None);
    }

    #[test]
    fn with_geometry_matches_dimensions() {
        let g = CacheGeometry::new(64 << 10, 4, 64).unwrap();
        let a: SetAssocArray<()> = SetAssocArray::with_geometry(g);
        assert_eq!(a.sets(), 256);
        assert_eq!(a.assoc(), 4);
        assert_eq!(a.capacity(), 1024);
        assert!(a.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut a = lru_array(2, 2);
        a.insert(0, 0);
        a.insert(1, 1);
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn set_occupancy_counts_per_set() {
        let mut a = lru_array(2, 4);
        a.insert(0, 0);
        a.insert(2, 2);
        a.insert(1, 1);
        assert_eq!(a.set_occupancy(0), 2);
        assert_eq!(a.set_occupancy(1), 1);
    }

    #[test]
    #[should_panic(expected = "sets and assoc must be positive")]
    fn zero_sets_panics() {
        let _ = lru_array(0, 1);
    }

    #[test]
    fn swap_remove_order_matches_vec_semantics() {
        // After removing the first of three entries, the strip must read
        // [last, middle] — exactly Vec::swap_remove — so downstream victim
        // choices (LRU ties, RNG draws) are unchanged by the SoA layout.
        let mut a = lru_array(1, 3);
        a.insert(10, 1);
        a.insert(11, 2);
        a.insert(12, 3);
        assert_eq!(a.invalidate(10), Some(1));
        let order: Vec<u64> = a.entries_in_set(0).map(|(b, _)| b).collect();
        assert_eq!(order, vec![12, 11]);
    }

    #[cfg(feature = "proptest-tests")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn never_exceeds_capacity(ops in proptest::collection::vec((0u64..64, 0u32..100), 0..200)) {
                let mut a = lru_array(4, 2);
                for (b, v) in ops {
                    a.insert(b, v);
                    prop_assert!(a.len() <= a.capacity());
                    for s in 0..4u64 {
                        prop_assert!(a.set_occupancy(s) <= 2);
                    }
                }
            }

            #[test]
            fn lookup_after_insert_always_hits(blocks in proptest::collection::vec(0u64..1000, 1..100)) {
                let mut a = lru_array(16, 4);
                for b in blocks {
                    a.insert(b, b as u32);
                    prop_assert_eq!(a.peek(b), Some(&(b as u32)));
                }
            }

            #[test]
            fn eviction_comes_from_same_set(blocks in proptest::collection::vec(0u64..256, 1..200)) {
                let mut a = lru_array(8, 2);
                for b in blocks {
                    if let Some((victim, _)) = a.insert(b, 0) {
                        prop_assert_eq!(victim % 8, b % 8);
                    }
                }
            }
        }
    }
}
