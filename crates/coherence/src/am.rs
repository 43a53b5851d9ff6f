//! The attraction memories' packed set-associative array.
//!
//! Each way is one `u32`: the block's tag in the upper 30 bits and its
//! state in the low two (1 Shared, 2 Master-shared, 3 Exclusive), with 0
//! meaning vacant. The tag is the block number above the set-index bits,
//! `block >> log2(sets)`; the set index is the block's low bits,
//! `block & (sets - 1)`, so the number of sets is a power of two.
//!
//! The ways live in one flat slab, set after set. A 4-way set is 16
//! bytes, and the allocator hands out 16-byte-aligned blocks (glibc's
//! `malloc` does on 64-bit hosts), so a set never straddles a host cache
//! line. The slab is allocated zeroed, so a fresh array maps no page
//! until one of its sets is filled.
//!
//! A set's strip keeps its occupied ways first, in fill order, then the
//! vacant ways. An insert fills the first vacant way; an invalidation
//! moves the set's last occupied way into the hole (`Vec::swap_remove`).
//! The set has room exactly when its last way is vacant. The array keeps
//! no recency and chooses no victims: the protocol draws them at random
//! from [`AmArray::entries_in_set`] and makes room before it inserts.
//!
//! A block whose tag needs more than [`TAG_BITS`] bits does not fit. Every
//! lookup reports it absent, and inserting it panics; the simulator
//! rejects such a reference with a typed error before the protocol sees
//! it ([`AmArray::fits`]).

use crate::AmState;
use vcoma_types::CacheGeometry;

/// Bits of a block's tag that a way holds.
pub const TAG_BITS: u32 = 30;

/// A way's state code: 0 is vacant, so each state is its index plus one.
const fn code(state: AmState) -> u32 {
    state as u32 + 1
}

/// The state of an occupied way.
const fn state(way: u32) -> AmState {
    match way & 3 {
        1 => AmState::Shared,
        2 => AmState::MasterShared,
        _ => AmState::Exclusive,
    }
}

/// One node's attraction memory: a set-associative array of block states
/// packed at four bytes a way (see the module docs).
#[derive(Debug, Clone)]
pub struct AmArray {
    /// Set `s` holds ways `s * assoc..(s + 1) * assoc`.
    slab: Vec<u32>,
    /// `log2(sets)`: a block's tag is `block >> set_bits`.
    set_bits: u32,
    assoc: usize,
}

impl AmArray {
    /// An empty array of `geometry.sets()` sets of `geometry.assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has no ways or its set count is not a power
    /// of two.
    pub fn new(geometry: CacheGeometry) -> Self {
        let (sets, assoc) = (geometry.sets(), geometry.assoc);
        assert!(assoc > 0, "an attraction memory needs at least one way");
        assert!(sets.is_power_of_two(), "{sets} sets is not a power of two");
        AmArray {
            slab: vec![0; sets as usize * assoc as usize],
            set_bits: sets.trailing_zeros(),
            assoc: assoc as usize,
        }
    }

    /// Returns `true` if `block`'s tag fits a way. The largest block that
    /// fits is `2^(TAG_BITS + log2(sets)) - 1`.
    #[inline]
    pub fn fits(&self, block: u64) -> bool {
        block >> self.set_bits >> TAG_BITS == 0
    }

    /// Maximum number of resident blocks.
    pub fn capacity(&self) -> usize {
        self.slab.len()
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.slab.iter().filter(|&&w| w != 0).count()
    }

    /// Returns `true` if no block is resident.
    pub fn is_empty(&self) -> bool {
        self.slab.iter().all(|&w| w == 0)
    }

    /// First way of the set that `block` maps to.
    #[inline]
    fn base(&self, block: u64) -> usize {
        (block & ((1 << self.set_bits) - 1)) as usize * self.assoc
    }

    /// The ways of the set starting at `base`.
    #[inline]
    fn strip(&self, base: usize) -> &[u32] {
        &self.slab[base..base + self.assoc]
    }

    /// The slab index of `block`'s way, if resident. A tag is compared
    /// at its full width, so a block that does not fit matches no way.
    #[inline]
    fn find(&self, block: u64) -> Option<usize> {
        let (base, tag) = (self.base(block), block >> self.set_bits);
        let mut occupied = self.strip(base).iter().take_while(|&&w| w != 0);
        occupied
            .position(|&w| u64::from(w >> 2) == tag)
            .map(|i| base + i)
    }

    /// One pass over the set that `block` maps to: its first way, the
    /// slab index of `block`'s way if resident, and the number of
    /// occupied ways.
    #[inline]
    fn scan(&self, block: u64) -> (usize, Option<usize>, usize) {
        let (base, tag) = (self.base(block), block >> self.set_bits);
        let mut hit = None;
        for (i, &w) in self.strip(base).iter().enumerate() {
            if w == 0 {
                return (base, hit, i);
            }
            if u64::from(w >> 2) == tag {
                hit = Some(base + i);
            }
        }
        (base, hit, self.assoc)
    }

    /// The state of `block`, if resident.
    #[inline]
    pub fn get(&self, block: u64) -> Option<AmState> {
        self.find(block).map(|i| state(self.slab[i]))
    }

    /// Returns `true` if `block` is resident.
    #[inline]
    pub fn contains(&self, block: u64) -> bool {
        self.find(block).is_some()
    }

    /// Sets the state of a resident `block` and returns its old state;
    /// `None`, changing nothing, if the block is not resident.
    #[inline]
    pub fn replace(&mut self, block: u64, new: AmState) -> Option<AmState> {
        let i = self.find(block)?;
        let way = &mut self.slab[i];
        let old = state(*way);
        *way = *way & !3 | code(new);
        Some(old)
    }

    /// Inserts a block that is not resident into the first free way of its
    /// set.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit, is already resident, or its set
    /// is full: the array chooses no victims, so the caller makes room
    /// first.
    pub fn insert(&mut self, block: u64, new: AmState) {
        assert!(
            self.fits(block),
            "block {block:#x} is too wide for a {TAG_BITS}-bit tag"
        );
        let (base, hit, len) = self.scan(block);
        assert!(hit.is_none(), "block {block:#x} is already resident");
        assert!(len < self.assoc, "the set of block {block:#x} is full");
        self.slab[base + len] = ((block >> self.set_bits) as u32) << 2 | code(new);
    }

    /// Removes `block`, returning its state if it was resident. The set's
    /// last occupied way moves into the hole.
    pub fn invalidate(&mut self, block: u64) -> Option<AmState> {
        let (base, hit, len) = self.scan(block);
        let i = hit?;
        let last = base + len - 1;
        let gone = self.slab[i];
        self.slab[i] = self.slab[last];
        self.slab[last] = 0;
        Some(state(gone))
    }

    /// Number of resident blocks in the set that `block` maps to.
    pub fn set_occupancy(&self, block: u64) -> usize {
        self.scan(block).2
    }

    /// Returns `true` if the set that `block` maps to has a free way.
    #[inline]
    pub fn set_has_room(&self, block: u64) -> bool {
        self.slab[self.base(block) + self.assoc - 1] == 0
    }

    /// The `(block, state)` pairs resident in the set that `block` maps
    /// to, in fill order.
    pub fn entries_in_set(&self, block: u64) -> impl Iterator<Item = (u64, AmState)> + '_ {
        let set = block & ((1 << self.set_bits) - 1);
        let occupied = self
            .strip(set as usize * self.assoc)
            .iter()
            .take_while(|&&w| w != 0);
        occupied.map(move |&w| (u64::from(w >> 2) << self.set_bits | set, state(w)))
    }

    /// Every resident `(block, state)` pair, set by set in fill order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, AmState)> + '_ {
        (0..1 << self.set_bits).flat_map(|set| self.entries_in_set(set))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoma_cachesim::SetAssocArray;
    use vcoma_types::DetRng;

    const STATES: [AmState; 3] = [AmState::Shared, AmState::MasterShared, AmState::Exclusive];

    /// An array of `sets` sets of `assoc` 128-byte ways.
    fn am(sets: u64, assoc: u64) -> AmArray {
        AmArray::new(CacheGeometry {
            size_bytes: sets * assoc * 128,
            assoc,
            block_size: 128,
        })
    }

    /// The LRU array the packed one is compared with. It holds `Some`
    /// state in every resident way.
    type Lru = SetAssocArray<Option<AmState>>;

    /// Asserts that both arrays hold the same blocks and states, set by
    /// set in the same order.
    fn assert_same(a: &AmArray, l: &Lru) {
        assert_eq!(a.len(), l.len(), "len");
        let mut all = Vec::with_capacity(l.len());
        for set in 0..l.sets() {
            let lru: Vec<(u64, AmState)> = l
                .entries_in_set(set)
                .map(|(b, s)| (b, s.expect("resident")))
                .collect();
            assert_eq!(a.entries_in_set(set).collect::<Vec<_>>(), lru, "set {set}");
            assert_eq!(a.set_occupancy(set), lru.len(), "occupancy of set {set}");
            all.extend(lru);
        }
        assert_eq!(a.iter().collect::<Vec<_>>(), all, "iter");
    }

    /// Applies one operation of the attraction memory's mix to the packed
    /// array and the LRU array, and asserts that both answer alike and
    /// hold the same entries, set by set in the same order. `op` picks the
    /// operation (0–2 insert into a free way if the block is absent, 3
    /// `get`, 4 `replace`, 5 `contains`, 6–7 invalidate, above 7 clear);
    /// `block` and `state` are its arguments. Returns `false` for an
    /// insert refused because the set was full.
    fn step_am_mix(a: &mut AmArray, l: &mut Lru, op: u8, block: u64, state: AmState) -> bool {
        let mut placed = true;
        match op {
            0..=2 => {
                assert_eq!(a.set_has_room(block), l.set_has_room(block), "room {block}");
                if a.set_has_room(block) && !a.contains(block) {
                    a.insert(block, state);
                    assert_eq!(l.insert(block, Some(state)), None, "insert {block}");
                } else {
                    placed = a.contains(block);
                }
            }
            3 => assert_eq!(
                a.get(block),
                l.peek(block).copied().flatten(),
                "get {block}"
            ),
            4 => {
                let old = l
                    .peek_mut(block)
                    .map(|s| s.replace(state).expect("resident"));
                assert_eq!(a.replace(block, state), old, "replace {block}");
            }
            5 => assert_eq!(a.contains(block), l.contains(block), "contains {block}"),
            6 | 7 => assert_eq!(
                a.invalidate(block),
                l.invalidate(block).flatten(),
                "invalidate {block}"
            ),
            _ => {
                *a = am(l.sets(), l.assoc());
                l.clear();
            }
        }
        assert_same(a, l);
        placed
    }

    /// The widths the equivalence tests cover: direct-mapped, the paper's
    /// 4-way attraction memory, and wider.
    const WIDTHS: [u64; 5] = [1, 2, 4, 256, 1024];

    /// Sets for an equivalence run at `assoc` ways: several for narrow
    /// arrays, one or two for wide ones so the run still fills them.
    fn sets_for(assoc: u64) -> u64 {
        (512 / assoc).clamp(1, 8)
    }

    #[test]
    fn packed_matches_lru_on_the_am_mix() {
        for (seed, assoc) in (1..).zip(WIDTHS) {
            let sets = sets_for(assoc);
            let capacity = sets * assoc;
            let mut a = am(sets, assoc);
            let mut l = Lru::new(sets, assoc);
            let mut rng = DetRng::new(seed);
            // Blocks span twice the capacity and inserts outnumber
            // invalidations three to two, so sets fill and refuse inserts.
            let blocks = 2 * capacity as usize;
            let mut refused = 0;
            for _ in 0..16 * capacity.max(500) {
                let op = if rng.gen_index(16 * capacity as usize) == 0 {
                    8
                } else {
                    rng.gen_index(8) as u8
                };
                let block = rng.gen_index(blocks) as u64;
                let state = STATES[rng.gen_index(3)];
                refused += u32::from(!step_am_mix(&mut a, &mut l, op, block, state));
            }
            assert!(refused > 0, "{assoc}-way run never filled a set");
        }
    }

    #[test]
    fn invalidation_moves_the_last_way_into_the_hole() {
        let mut a = am(1, 3);
        a.insert(10, AmState::Shared);
        a.insert(11, AmState::MasterShared);
        a.insert(12, AmState::Exclusive);
        assert_eq!(a.invalidate(10), Some(AmState::Shared));
        let order: Vec<(u64, AmState)> = a.entries_in_set(0).collect();
        assert_eq!(
            order,
            vec![(12, AmState::Exclusive), (11, AmState::MasterShared)]
        );
        assert!(a.set_has_room(0));
    }

    #[test]
    #[should_panic(expected = "is full")]
    fn insert_into_a_full_set_panics() {
        let mut a = am(2, 1);
        a.insert(0, AmState::Shared);
        a.insert(2, AmState::Shared);
    }

    #[test]
    fn a_way_is_four_bytes_and_a_4_way_set_sits_in_one_host_line() {
        let m = vcoma_types::MachineConfig::paper_baseline();
        let a = AmArray::new(m.am);
        assert_eq!(m.am.assoc, 4);
        assert_eq!(
            std::mem::size_of_val(a.slab.as_slice()) as u64,
            4 * m.am.lines()
        );
        assert_eq!(
            a.slab.as_ptr() as usize % 16,
            0,
            "16-byte sets start 16-byte aligned"
        );
        assert!(a.is_empty());
    }

    #[test]
    fn the_widest_tag_fits_and_one_bit_more_is_absent() {
        // 128 sets: 7 index bits below the 30 tag bits.
        let mut a = am(128, 4);
        let widest = (1 << (TAG_BITS + 7)) - 1;
        assert!(a.fits(widest));
        a.insert(widest, AmState::Exclusive);
        assert_eq!(a.get(widest), Some(AmState::Exclusive));
        assert_eq!(
            a.entries_in_set(widest).collect::<Vec<_>>(),
            vec![(widest, AmState::Exclusive)]
        );

        // The same set and the same low 30 tag bits, one bit wider.
        let wide = widest + (1 << (TAG_BITS + 7));
        assert!(!a.fits(wide));
        assert_eq!(a.get(wide), None);
        assert!(!a.contains(wide));
        assert_eq!(a.replace(wide, AmState::Shared), None);
        assert_eq!(a.invalidate(wide), None);
        assert_eq!(a.get(widest), Some(AmState::Exclusive));
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn inserting_a_block_too_wide_panics() {
        am(128, 4).insert(1 << (TAG_BITS + 7), AmState::Shared);
    }

    #[cfg(feature = "proptest-tests")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn packed_matches_lru(
                width in 0usize..5,
                prefill in 0u64..2048,
                ops in proptest::collection::vec((0u8..128, 0u64..4096, 0usize..3), 1..200),
            ) {
                let assoc = WIDTHS[width];
                let sets = sets_for(assoc);
                let capacity = sets * assoc;
                let mut a = am(sets, assoc);
                let mut l = Lru::new(sets, assoc);
                // Fill part or all of the array first, so that wide sets
                // also fill within a short run.
                for block in 0..prefill % (capacity + 1) {
                    a.insert(block, STATES[block as usize % 3]);
                    l.insert(block, Some(STATES[block as usize % 3]));
                }
                assert_same(&a, &l);
                for (op, block, state) in ops {
                    let op = if op == 0 { 8 } else { op % 8 };
                    step_am_mix(&mut a, &mut l, op, block % (2 * capacity), STATES[state]);
                }
            }
        }
    }
}
