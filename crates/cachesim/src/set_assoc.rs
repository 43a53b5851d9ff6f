//! The generic set-associative array underlying every tagged memory.
//!
//! Layout: two flat slabs indexed by `set * assoc + way`, with no per-set
//! header and no allocation after construction.
//!
//! - `tags` holds one strip of block numbers per set: the occupied ways
//!   first, in fill order, then [`VACANT`] in every free way. `insert`
//!   and `invalidate` make one pass over a strip that finds the block and
//!   counts the occupancy together; `lookup` and `peek` stop at the
//!   block. The set has room exactly when its last way is vacant.
//! - `ways` holds, parallel to `tags`, each way's recency rank and
//!   payload.
//!
//! Recency is a rank, not a timestamp. The occupied ranks of a set are a
//! permutation of `0..len`, and 0 is the most recently used:
//!
//! - a hit (`lookup`, or `insert` of a resident block) raises every rank
//!   below the hit's by one and gives the hit 0;
//! - a fill into a free way gives the new way 0 and raises the others;
//! - a fill into a full set evicts the way ranked `len - 1` and refills
//!   it in place at rank 0, raising the others;
//! - a removal lowers every rank above the removed one, then moves the
//!   strip's last way into the hole (`Vec::swap_remove`).
//!
//! A vacant way's rank means nothing: a refresh passes over the whole
//! strip so that `lookup` can stop scanning tags at the hit, and fills
//! overwrite the rank.
//!
//! A per-line touch stamp bumped by every `lookup` and `insert` is unique,
//! so the ranks order the ways exactly as such stamps would, and the
//! least-recently-used way is the one ranked `len - 1`. A `u16` rank
//! limits a set to [`MAX_ASSOC`] ways; `MachineConfig::validate` rejects
//! anything wider. Occupancy order and victim choice are bit-identical to
//! the earlier stamp layout.

use vcoma_types::{CacheGeometry, MAX_ASSOC};

/// The tag of a free way. No block or page number reaches it: each is an
/// address shifted right by at least five bits.
const VACANT: u64 = u64::MAX;

/// One way's recency rank and payload.
#[derive(Debug, Clone, Default)]
struct Way<T> {
    /// Rank among the set's occupied ways, 0 = most recently used.
    rank: u16,
    data: T,
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
    /// Per-set tag strips: occupied ways in fill order, then [`VACANT`].
    tags: Vec<u64>,
    /// Ranks and payloads, parallel to `tags`. Vacant ways hold
    /// `T::default()`.
    ways: Vec<Way<T>>,
    num_sets: usize,
    assoc: usize,
}

impl<T: Default> SetAssocArray<T> {
    /// Creates an empty array with `sets` sets of `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `assoc` is zero, or if `assoc` exceeds
    /// [`MAX_ASSOC`].
    pub fn new(sets: u64, assoc: u64) -> Self {
        assert!(sets > 0 && assoc > 0, "sets and assoc must be positive");
        assert!(assoc <= MAX_ASSOC, "assoc {assoc} exceeds the {MAX_ASSOC}-way limit");
        let slots = sets as usize * assoc as usize;
        SetAssocArray {
            tags: vec![VACANT; slots],
            ways: (0..slots).map(|_| Way::default()).collect(),
            num_sets: sets as usize,
            assoc: assoc as usize,
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
        self.tags.iter().filter(|&&t| t != VACANT).count()
    }

    /// Returns `true` if no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.tags.iter().all(|&t| t == VACANT)
    }

    /// Maximum number of resident entries.
    pub fn capacity(&self) -> usize {
        self.num_sets * self.assoc
    }

    /// First slot of the set that `block` maps to.
    #[inline]
    fn base(&self, block: u64) -> usize {
        debug_assert_ne!(block, VACANT, "block number collides with the vacant tag");
        (block % self.num_sets as u64) as usize * self.assoc
    }

    /// The tag strip of the set starting at `base`.
    #[inline]
    fn strip(&self, base: usize) -> &[u64] {
        &self.tags[base..base + self.assoc]
    }

    /// Slot of `block` in the set at `base`, if resident.
    #[inline]
    fn find(&self, base: usize, block: u64) -> Option<usize> {
        let mut occupied = self.strip(base).iter().take_while(|&&t| t != VACANT);
        occupied.position(|&t| t == block).map(|i| base + i)
    }

    /// One pass over the set at `base`: the slot of `block` if resident,
    /// and the number of occupied ways.
    #[inline]
    fn scan(&self, base: usize, block: u64) -> (Option<usize>, usize) {
        let mut hit = None;
        for (i, &t) in self.strip(base).iter().enumerate() {
            if t == VACANT {
                return (hit, i);
            }
            if t == block {
                hit = Some(base + i);
            }
        }
        (hit, self.assoc)
    }

    /// Makes `slot` the most recent way of the set at `base`. Vacant ways
    /// may have their meaningless ranks raised; none overflows, because a
    /// rank rises only while it is below the hit's.
    #[inline]
    fn touch(&mut self, base: usize, slot: usize) {
        let r = self.ways[slot].rank;
        for w in &mut self.ways[base..base + self.assoc] {
            w.rank += u16::from(w.rank < r);
        }
        self.ways[slot].rank = 0;
    }

    /// Looks up a block, refreshing its LRU position. Returns a mutable
    /// reference to its payload if present.
    #[inline]
    pub fn lookup(&mut self, block: u64) -> Option<&mut T> {
        let base = self.base(block);
        let slot = self.find(base, block)?;
        self.touch(base, slot);
        Some(&mut self.ways[slot].data)
    }

    /// Looks up a block without touching LRU state.
    #[inline]
    pub fn peek(&self, block: u64) -> Option<&T> {
        self.find(self.base(block), block).map(|slot| &self.ways[slot].data)
    }

    /// Mutable lookup without touching LRU state.
    #[inline]
    pub fn peek_mut(&mut self, block: u64) -> Option<&mut T> {
        self.find(self.base(block), block).map(|slot| &mut self.ways[slot].data)
    }

    /// Returns `true` if the block is resident.
    #[inline]
    pub fn contains(&self, block: u64) -> bool {
        self.find(self.base(block), block).is_some()
    }

    /// Inserts a block, evicting a victim if its set is full.
    ///
    /// Returns the evicted `(block, payload)` if an eviction happened. If
    /// the block was already resident its payload is replaced (no eviction)
    /// and the old payload is returned with the *same* block number.
    pub fn insert(&mut self, block: u64, data: T) -> Option<(u64, T)> {
        let base = self.base(block);
        let (hit, len) = self.scan(base, block);
        if let Some(slot) = hit {
            self.touch(base, slot);
            let old = std::mem::replace(&mut self.ways[slot].data, data);
            return Some((block, old));
        }
        if len < self.assoc {
            for w in &mut self.ways[base..base + len] {
                w.rank += 1;
            }
            self.tags[base + len] = block;
            self.ways[base + len] = Way { rank: 0, data };
            return None;
        }
        // Full set: the least recently used way is ranked `len - 1`.
        let oldest = (len - 1) as u16;
        let ways = &self.ways[base..base + len];
        let victim = base + ways.iter().position(|w| w.rank == oldest).expect("ranks are 0..len");
        self.touch(base, victim);
        let victim_tag = std::mem::replace(&mut self.tags[victim], block);
        let victim_data = std::mem::replace(&mut self.ways[victim].data, data);
        Some((victim_tag, victim_data))
    }

    /// Removes a block, returning its payload if it was resident. The
    /// set's last occupied way moves into the hole.
    pub fn invalidate(&mut self, block: u64) -> Option<T>
    where
        T: Default,
    {
        let base = self.base(block);
        let (slot, len) = self.scan(base, block);
        let slot = slot?;
        let r = self.ways[slot].rank;
        for w in &mut self.ways[base..base + len] {
            w.rank -= u16::from(w.rank > r);
        }
        let last = base + len - 1;
        self.tags.swap(slot, last);
        self.ways.swap(slot, last);
        self.tags[last] = VACANT;
        Some(std::mem::take(&mut self.ways[last].data))
    }

    /// Iterates over all resident `(block, payload)` pairs in unspecified
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.tags
            .iter()
            .zip(&self.ways)
            .filter(|(&t, _)| t != VACANT)
            .map(|(&t, w)| (t, &w.data))
    }

    /// Number of resident entries in the set that `block` maps to.
    pub fn set_occupancy(&self, block: u64) -> usize {
        self.strip(self.base(block)).iter().position(|&t| t == VACANT).unwrap_or(self.assoc)
    }

    /// Returns `true` if the set that `block` maps to has a free way.
    pub fn set_has_room(&self, block: u64) -> bool {
        self.tags[self.base(block) + self.assoc - 1] == VACANT
    }

    /// Iterates over the `(block, payload)` pairs resident in the set that
    /// `block` maps to, in fill order. Used by the coherence protocol to
    /// pick replacement victims by state priority rather than by recency.
    pub fn entries_in_set(&self, block: u64) -> impl Iterator<Item = (u64, &T)> {
        let base = self.base(block);
        self.strip(base)
            .iter()
            .zip(&self.ways[base..])
            .take_while(|(&t, _)| t != VACANT)
            .map(|(&t, w)| (t, &w.data))
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.tags.fill(VACANT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoma_types::DetRng;

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
        // choices (RNG draws over the set's entries) keep their order.
        let mut a = lru_array(1, 3);
        a.insert(10, 1);
        a.insert(11, 2);
        a.insert(12, 3);
        assert_eq!(a.invalidate(10), Some(1));
        let order: Vec<u64> = a.entries_in_set(0).map(|(b, _)| b).collect();
        assert_eq!(order, vec![12, 11]);
    }


    /// The stamp layout this array replaced, kept as the reference model:
    /// a `u64` touch stamp per line from a clock that every `lookup` and
    /// `insert` bumps, and a full set evicts its smallest stamp.
    #[derive(Debug)]
    struct StampArray<T> {
        tags: Vec<u64>,
        stamps: Vec<u64>,
        data: Vec<T>,
        lens: Vec<u32>,
        num_sets: usize,
        assoc: usize,
        clock: u64,
    }

    impl<T: Default> StampArray<T> {
        fn new(sets: u64, assoc: u64) -> Self {
            let slots = (sets * assoc) as usize;
            StampArray {
                tags: vec![0; slots],
                stamps: vec![0; slots],
                data: (0..slots).map(|_| T::default()).collect(),
                lens: vec![0; sets as usize],
                num_sets: sets as usize,
                assoc: assoc as usize,
                clock: 0,
            }
        }

        fn set_index(&self, block: u64) -> usize {
            (block % self.num_sets as u64) as usize
        }

        fn find(&self, si: usize, block: u64) -> Option<usize> {
            let base = si * self.assoc;
            let strip = &self.tags[base..base + self.lens[si] as usize];
            strip.iter().position(|&t| t == block).map(|i| base + i)
        }

        fn len(&self) -> usize {
            self.lens.iter().map(|&l| l as usize).sum()
        }

        fn lookup(&mut self, block: u64) -> Option<&mut T> {
            self.clock += 1;
            let slot = self.find(self.set_index(block), block)?;
            self.stamps[slot] = self.clock;
            Some(&mut self.data[slot])
        }

        fn peek(&self, block: u64) -> Option<&T> {
            self.find(self.set_index(block), block).map(|slot| &self.data[slot])
        }

        fn peek_mut(&mut self, block: u64) -> Option<&mut T> {
            self.find(self.set_index(block), block).map(|slot| &mut self.data[slot])
        }

        fn contains(&self, block: u64) -> bool {
            self.peek(block).is_some()
        }

        fn insert(&mut self, block: u64, data: T) -> Option<(u64, T)> {
            self.clock += 1;
            let si = self.set_index(block);
            let base = si * self.assoc;
            let len = self.lens[si] as usize;
            if let Some(slot) = self.find(si, block) {
                self.stamps[slot] = self.clock;
                return Some((block, std::mem::replace(&mut self.data[slot], data)));
            }
            if len < self.assoc {
                self.tags[base + len] = block;
                self.stamps[base + len] = self.clock;
                self.data[base + len] = data;
                self.lens[si] += 1;
                return None;
            }
            // The smallest stamp; the first of equal stamps wins.
            let stamps = &self.stamps[base..base + len];
            let v = (0..len).fold(0, |best, i| if stamps[i] < stamps[best] { i } else { best });
            let slot = base + v;
            self.stamps[slot] = self.clock;
            let tag = std::mem::replace(&mut self.tags[slot], block);
            Some((tag, std::mem::replace(&mut self.data[slot], data)))
        }

        fn invalidate(&mut self, block: u64) -> Option<T> {
            let si = self.set_index(block);
            let slot = self.find(si, block)?;
            let last = si * self.assoc + self.lens[si] as usize - 1;
            self.tags.swap(slot, last);
            self.stamps.swap(slot, last);
            self.data.swap(slot, last);
            self.lens[si] -= 1;
            Some(std::mem::take(&mut self.data[last]))
        }

        fn entries_in_set(&self, block: u64) -> Vec<(u64, &T)> {
            let si = self.set_index(block);
            let base = si * self.assoc;
            (base..base + self.lens[si] as usize).map(|s| (self.tags[s], &self.data[s])).collect()
        }

        fn clear(&mut self) {
            self.lens.fill(0);
        }
    }

    /// Applies one operation to both arrays and asserts that they answer
    /// alike and hold the same entries, set by set in the same order.
    /// `op` picks the operation (0–2 insert, 3 lookup, 4 peek, 5 peek_mut,
    /// 6 contains, 7 invalidate, above 7 clear); `block` and `value` are
    /// its arguments.
    fn step_both(
        a: &mut SetAssocArray<u32>,
        r: &mut StampArray<u32>,
        op: u8,
        block: u64,
        value: u32,
    ) {
        match op {
            0..=2 => assert_eq!(a.insert(block, value), r.insert(block, value), "insert {block}"),
            3 => assert_eq!(a.lookup(block), r.lookup(block), "lookup {block}"),
            4 => assert_eq!(a.peek(block), r.peek(block), "peek {block}"),
            5 => {
                let (x, y) = (a.peek_mut(block), r.peek_mut(block));
                assert_eq!(x, y, "peek_mut {block}");
                if let (Some(x), Some(y)) = (x, y) {
                    (*x, *y) = (value, value);
                }
            }
            6 => assert_eq!(a.contains(block), r.contains(block), "contains {block}"),
            7 => assert_eq!(a.invalidate(block), r.invalidate(block), "invalidate {block}"),
            _ => {
                a.clear();
                r.clear();
            }
        }
        assert_same(a, r);
    }

    /// Asserts that both arrays hold the same entries, set by set in the
    /// same order.
    fn assert_same(a: &SetAssocArray<u32>, r: &StampArray<u32>) {
        assert_eq!(a.len(), r.len(), "len");
        let mut reference = Vec::with_capacity(r.len());
        for set in 0..a.sets() {
            let entries: Vec<(u64, &u32)> = a.entries_in_set(set).collect();
            assert_eq!(entries, r.entries_in_set(set), "set {set}");
            reference.extend(entries);
        }
        assert_eq!(a.iter().collect::<Vec<_>>(), reference, "iter");
    }

    /// The widths the equivalence tests cover: direct-mapped, the paper's
    /// 2- and 4-way caches, the paper's 256-way Victima spill, and wider.
    const WIDTHS: [u64; 5] = [1, 2, 4, 256, 1024];

    /// Sets for an equivalence run at `assoc` ways: several for narrow
    /// arrays, one or two for wide ones so the run still fills them.
    fn sets_for(assoc: u64) -> u64 {
        (512 / assoc).clamp(1, 8)
    }

    /// Distinct blocks an equivalence run draws from: twice the capacity.
    fn footprint(capacity: u64) -> u64 {
        2 * capacity
    }

    #[test]
    fn ranks_match_the_stamp_model_on_random_operations() {
        for (seed, assoc) in (1..).zip(WIDTHS) {
            let sets = sets_for(assoc);
            let capacity = sets * assoc;
            let mut a = SetAssocArray::new(sets, assoc);
            let mut r = StampArray::new(sets, assoc);
            let mut rng = DetRng::new(seed);
            // Blocks span twice the capacity and inserts outnumber
            // invalidations three to one, so sets fill, hit and evict;
            // clears are rare enough that sets refill between them.
            let blocks = footprint(capacity) as usize;
            let mut evictions = 0;
            for _ in 0..16 * capacity.max(500) {
                let op = if rng.gen_index(16 * capacity as usize) == 0 {
                    8
                } else {
                    rng.gen_index(8) as u8
                };
                let block = rng.gen_index(blocks) as u64;
                evictions += u32::from(op <= 2 && !a.contains(block) && !a.set_has_room(block));
                step_both(&mut a, &mut r, op, block, rng.next_u64() as u32);
            }
            assert!(evictions > 0, "{assoc}-way run never evicted");
        }
    }

    #[cfg(feature = "proptest-tests")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn ranks_match_the_stamp_model(
                width in 0usize..5,
                prefill in 0u64..2048,
                ops in proptest::collection::vec((0u8..128, 0u64..4096, 0u32..100), 1..200),
            ) {
                let assoc = WIDTHS[width];
                let sets = sets_for(assoc);
                let capacity = sets * assoc;
                let mut a = SetAssocArray::new(sets, assoc);
                let mut r = StampArray::new(sets, assoc);
                // Fill part or all of the array first, so that wide sets
                // also evict within a short run.
                for block in 0..prefill % (capacity + 1) {
                    a.insert(block, block as u32);
                    r.insert(block, block as u32);
                }
                assert_same(&a, &r);
                for (op, block, value) in ops {
                    let op = if op == 0 { 8 } else { op % 8 };
                    step_both(&mut a, &mut r, op, block % footprint(capacity), value);
                }
            }

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
