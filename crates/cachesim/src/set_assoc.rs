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
//! - `ways` holds, parallel to `tags`, each way's recency state and
//!   payload.
//!
//! The number of sets is a power of two, so a block's set is its low
//! bits, `block & (sets - 1)`.
//!
//! The recency state is the type parameter `R`, and every tag-strip
//! operation is shared by both forms:
//!
//! - [`NoRecency`] keeps none. It is zero-sized, so an attraction memory's
//!   way is its 1-byte state beside its tag. Such an array chooses no
//!   victims: it has no `lookup`, and its `insert` only fills a free way.
//!   The coherence protocol picks replacement victims at random from
//!   [`SetAssocArray::entries_in_set`] and makes room before it inserts.
//! - [`Lru`] keeps a `u16` rank, and a full set evicts its least recently
//!   used way. The processor caches and the Victima spill use it.
//!
//! An LRU rank orders a set's occupied ways: the ranks are a permutation
//! of `0..len`, and 0 is the most recently used.
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
//! the earlier stamp layout, and fill order and removal order do not
//! depend on `R`.

use std::fmt::Debug;

use vcoma_types::{CacheGeometry, MAX_ASSOC};

/// The tag of a free way. No block or page number reaches it: each is an
/// address shifted right by at least five bits.
const VACANT: u64 = u64::MAX;

mod sealed {
    pub trait Sealed {}
}

/// The recency state a [`SetAssocArray`] keeps beside each payload:
/// [`Lru`] or [`NoRecency`].
pub trait Recency: sealed::Sealed + Copy + Default + Debug {
    /// Ages an occupied way when a free way of its set is filled. The new
    /// way takes `Self::default()`.
    fn age(&mut self);

    /// Adjusts an occupied way after the way whose state was `gone` left
    /// its set.
    fn close_gap(&mut self, gone: Self);
}

/// Least-recently-used replacement: a way's rank among its set's occupied
/// ways, 0 = most recently used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lru(u16);

impl sealed::Sealed for Lru {}

impl Recency for Lru {
    #[inline]
    fn age(&mut self) {
        self.0 += 1;
    }

    #[inline]
    fn close_gap(&mut self, gone: Self) {
        self.0 -= u16::from(self.0 > gone.0);
    }
}

/// No recency state: the array keeps fill order only and never evicts.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRecency;

impl sealed::Sealed for NoRecency {}

impl Recency for NoRecency {
    #[inline]
    fn age(&mut self) {}

    #[inline]
    fn close_gap(&mut self, _gone: Self) {}
}

/// One way's recency state and payload.
#[derive(Debug, Clone, Default)]
struct Way<T, R> {
    rec: R,
    data: T,
}

/// A set-associative array of tagged entries.
///
/// Entries are keyed by *block number*; the set index is the block's low
/// bits and the tag is the full block number (the split into index/tag
/// bits is immaterial for a simulator). `T` is per-line payload: coherence
/// state, dirty bits, back-pointers, or `()` for a pure presence check.
/// `R` is the recency state kept per way (see the module docs).
///
/// The array never exceeds `sets × assoc` entries. With [`Lru`], inserting
/// into a full set evicts the set's least-recently-used entry and returns
/// it; with [`NoRecency`], the caller makes room first.
#[derive(Debug, Clone)]
pub struct SetAssocArray<T, R = Lru> {
    /// Per-set tag strips: occupied ways in fill order, then [`VACANT`].
    tags: Vec<u64>,
    /// Recency states and payloads, parallel to `tags`. Vacant ways hold
    /// `T::default()`.
    ways: Vec<Way<T, R>>,
    /// `sets - 1`: the set index bits of a block number.
    set_mask: u64,
    assoc: usize,
}

impl<T: Default, R: Recency> SetAssocArray<T, R> {
    /// Creates an empty array with `sets` sets of `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `assoc` is zero, if `sets` is not a power of
    /// two, or if `assoc` exceeds [`MAX_ASSOC`].
    pub fn new(sets: u64, assoc: u64) -> Self {
        assert!(sets > 0 && assoc > 0, "sets and assoc must be positive");
        assert!(sets.is_power_of_two(), "{sets} sets is not a power of two");
        assert!(assoc <= MAX_ASSOC, "assoc {assoc} exceeds the {MAX_ASSOC}-way limit");
        let slots = sets as usize * assoc as usize;
        SetAssocArray {
            tags: vec![VACANT; slots],
            ways: (0..slots).map(|_| Way::default()).collect(),
            set_mask: sets - 1,
            assoc: assoc as usize,
        }
    }

    /// Creates an array with the given geometry (`geometry.sets()` sets of
    /// `geometry.assoc` ways).
    pub fn with_geometry(geometry: CacheGeometry) -> Self {
        SetAssocArray::new(geometry.sets(), geometry.assoc)
    }
}

impl<T, R: Recency> SetAssocArray<T, R> {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.set_mask + 1
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
        self.tags.len()
    }

    /// First slot of the set that `block` maps to.
    #[inline]
    fn base(&self, block: u64) -> usize {
        debug_assert_ne!(block, VACANT, "block number collides with the vacant tag");
        (block & self.set_mask) as usize * self.assoc
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

    /// Fills the free way after the `len` occupied ways of the set at
    /// `base`, as the set's most recent way.
    #[inline]
    fn fill(&mut self, base: usize, len: usize, block: u64, data: T) {
        for w in &mut self.ways[base..base + len] {
            w.rec.age();
        }
        self.tags[base + len] = block;
        self.ways[base + len] = Way { rec: R::default(), data };
    }

    /// Looks up a block without touching recency state.
    #[inline]
    pub fn peek(&self, block: u64) -> Option<&T> {
        self.find(self.base(block), block).map(|slot| &self.ways[slot].data)
    }

    /// Mutable lookup without touching recency state.
    #[inline]
    pub fn peek_mut(&mut self, block: u64) -> Option<&mut T> {
        self.find(self.base(block), block).map(|slot| &mut self.ways[slot].data)
    }

    /// Returns `true` if the block is resident.
    #[inline]
    pub fn contains(&self, block: u64) -> bool {
        self.find(self.base(block), block).is_some()
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
        let gone = self.ways[slot].rec;
        for w in &mut self.ways[base..base + len] {
            w.rec.close_gap(gone);
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

impl<T> SetAssocArray<T, NoRecency> {
    /// Inserts a block that is not resident into a free way of its set.
    ///
    /// # Panics
    ///
    /// Panics if the block is already resident or its set is full: an
    /// array without recency chooses no victims, so the caller makes room
    /// first.
    pub fn insert(&mut self, block: u64, data: T) {
        let base = self.base(block);
        let (hit, len) = self.scan(base, block);
        assert!(hit.is_none(), "block {block:#x} is already resident");
        assert!(len < self.assoc, "the set of block {block:#x} is full");
        self.fill(base, len, block, data);
    }
}

impl<T> SetAssocArray<T, Lru> {
    /// Makes `slot` the most recent way of the set at `base`. Vacant ways
    /// may have their meaningless ranks raised; none overflows, because a
    /// rank rises only while it is below the hit's.
    #[inline]
    fn touch(&mut self, base: usize, slot: usize) {
        let r = self.ways[slot].rec.0;
        for w in &mut self.ways[base..base + self.assoc] {
            w.rec.0 += u16::from(w.rec.0 < r);
        }
        self.ways[slot].rec = Lru(0);
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
            self.fill(base, len, block, data);
            return None;
        }
        // Full set: the least recently used way is ranked `len - 1`.
        let oldest = Lru((len - 1) as u16);
        let ways = &self.ways[base..base + len];
        let victim = base + ways.iter().position(|w| w.rec == oldest).expect("ranks are 0..len");
        self.touch(base, victim);
        let victim_tag = std::mem::replace(&mut self.tags[victim], block);
        let victim_data = std::mem::replace(&mut self.ways[victim].data, data);
        Some((victim_tag, victim_data))
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
    #[should_panic(expected = "not a power of two")]
    fn non_power_of_two_sets_panics() {
        let _ = lru_array(3, 1);
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
    fn assert_same<R: Recency>(a: &SetAssocArray<u32, R>, r: &StampArray<u32>) {
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

    /// Applies one operation of the attraction memory's mix to an array
    /// without recency, an LRU array and the stamp model, and asserts that
    /// all three answer alike and hold the same entries, set by set in the
    /// same order. `op` picks the operation (0–2 insert into a free way if
    /// the block is absent, 3 peek, 4 peek_mut, 5 contains, 6–7
    /// invalidate, above 7 clear); `block` and `value` are its arguments.
    /// Returns `false` for an insert refused because the set was full.
    fn step_am_mix(
        a: &mut SetAssocArray<u32, NoRecency>,
        l: &mut SetAssocArray<u32>,
        r: &mut StampArray<u32>,
        op: u8,
        block: u64,
        value: u32,
    ) -> bool {
        let mut placed = true;
        match op {
            0..=2 => {
                assert_eq!(a.set_has_room(block), l.set_has_room(block), "room {block}");
                if a.set_has_room(block) && !a.contains(block) {
                    a.insert(block, value);
                    assert_eq!(l.insert(block, value), None, "insert {block}");
                    assert_eq!(r.insert(block, value), None, "insert {block}");
                } else {
                    placed = a.contains(block);
                }
            }
            3 => {
                let x = a.peek(block);
                assert_eq!(x, l.peek(block), "peek {block}");
                assert_eq!(x, r.peek(block), "peek {block}");
            }
            4 => {
                let (x, y, z) = (a.peek_mut(block), l.peek_mut(block), r.peek_mut(block));
                assert_eq!(x, y, "peek_mut {block}");
                assert_eq!(x, z, "peek_mut {block}");
                if let (Some(x), Some(y), Some(z)) = (x, y, z) {
                    (*x, *y, *z) = (value, value, value);
                }
            }
            5 => {
                let x = a.contains(block);
                assert_eq!(x, l.contains(block), "contains {block}");
                assert_eq!(x, r.contains(block), "contains {block}");
            }
            6 | 7 => {
                let x = a.invalidate(block);
                assert_eq!(x, l.invalidate(block), "invalidate {block}");
                assert_eq!(x, r.invalidate(block), "invalidate {block}");
            }
            _ => {
                a.clear();
                l.clear();
                r.clear();
            }
        }
        assert_same(a, r);
        assert_same(l, r);
        placed
    }

    #[test]
    fn no_recency_matches_lru_on_the_am_mix() {
        for (seed, assoc) in (1..).zip(WIDTHS) {
            let sets = sets_for(assoc);
            let capacity = sets * assoc;
            let mut a: SetAssocArray<u32, NoRecency> = SetAssocArray::new(sets, assoc);
            let mut l: SetAssocArray<u32> = SetAssocArray::new(sets, assoc);
            let mut r = StampArray::new(sets, assoc);
            let mut rng = DetRng::new(seed);
            // Blocks span twice the capacity and inserts outnumber
            // invalidations three to two, so sets fill and refuse inserts.
            let blocks = footprint(capacity) as usize;
            let mut refused = 0;
            for _ in 0..16 * capacity.max(500) {
                let op = if rng.gen_index(16 * capacity as usize) == 0 {
                    8
                } else {
                    rng.gen_index(8) as u8
                };
                let block = rng.gen_index(blocks) as u64;
                let value = rng.next_u64() as u32;
                refused += u32::from(!step_am_mix(&mut a, &mut l, &mut r, op, block, value));
            }
            assert!(refused > 0, "{assoc}-way run never filled a set");
        }
    }

    #[test]
    #[should_panic(expected = "is full")]
    fn no_recency_insert_into_a_full_set_panics() {
        let mut a: SetAssocArray<u32, NoRecency> = SetAssocArray::new(2, 1);
        a.insert(0, 0);
        a.insert(2, 2);
    }

    #[test]
    fn no_recency_way_is_its_payload() {
        assert_eq!(std::mem::size_of::<Way<u8, NoRecency>>(), 1);
        assert_eq!(std::mem::size_of::<Way<u8, Lru>>(), 4);
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
                let mut a: SetAssocArray<u32> = SetAssocArray::new(sets, assoc);
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
            fn no_recency_matches_lru(
                width in 0usize..5,
                prefill in 0u64..2048,
                ops in proptest::collection::vec((0u8..128, 0u64..4096, 0u32..100), 1..200),
            ) {
                let assoc = WIDTHS[width];
                let sets = sets_for(assoc);
                let capacity = sets * assoc;
                let mut a: SetAssocArray<u32, NoRecency> = SetAssocArray::new(sets, assoc);
                let mut l: SetAssocArray<u32> = SetAssocArray::new(sets, assoc);
                let mut r = StampArray::new(sets, assoc);
                // Fill part or all of the array first, so that wide sets
                // also fill within a short run.
                for block in 0..prefill % (capacity + 1) {
                    a.insert(block, block as u32);
                    l.insert(block, block as u32);
                    r.insert(block, block as u32);
                }
                assert_same(&a, &r);
                for (op, block, value) in ops {
                    let op = if op == 0 { 8 } else { op % 8 };
                    step_am_mix(&mut a, &mut l, &mut r, op, block % footprint(capacity), value);
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
