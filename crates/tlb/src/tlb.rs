//! The TLB/DLB structure.

use serde::{Deserialize, Serialize};
use vcoma_metrics::Mergeable;
use vcoma_types::{DetRng, IntMap, VPage};

/// Organisation of a TLB or DLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlbOrg {
    /// One set of `entries` ways with random replacement — the paper's
    /// default organisation (§5.1).
    FullyAssociative,
    /// `entries` sets of one way — the `/DM` variants of Figure 9.
    DirectMapped,
}

impl std::fmt::Display for TlbOrg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlbOrg::FullyAssociative => f.write_str("FA"),
            TlbOrg::DirectMapped => f.write_str("DM"),
        }
    }
}

/// Hit/miss counters for a TLB or DLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct TlbStats {
    /// Translations requested.
    pub accesses: u64,
    /// Translations that missed (and were then refilled).
    pub misses: u64,
    /// Entries displaced by refills.
    pub evictions: u64,
    /// Entries removed by shootdown / mapping change.
    pub shootdowns: u64,
}

impl TlbStats {
    /// Hits (`accesses - misses`).
    pub const fn hits(&self) -> u64 {
        self.accesses - self.misses
    }

    /// Miss ratio in `[0, 1]`; `0` when idle.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

}

impl Mergeable for TlbStats {
    fn merge(&mut self, other: &Self) {
        self.accesses += other.accesses;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.shootdowns += other.shootdowns;
    }
}

impl std::fmt::Display for TlbStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "accesses={} misses={} (miss ratio {:.5})",
            self.accesses,
            self.misses,
            self.miss_ratio()
        )
    }
}

/// A translation lookaside buffer over virtual page numbers.
///
/// The same structure serves as a node's TLB (`L0`–`L3`) and as a home
/// node's DLB (V-COMA): both cache page-granularity mappings whose actual
/// target (physical frame or directory page) is stored in the page table,
/// so the buffer only needs to model *presence*. Misses are assumed to be
/// refilled from the page table by hardware or the protocol engine — the
/// simulator charges the paper's 40-cycle service time per miss.
///
/// A capacity of `0` models the software-managed scheme: every access
/// misses.
#[derive(Debug, Clone)]
pub struct Tlb {
    slots: Slots,
    entries: u64,
    org: TlbOrg,
    stats: TlbStats,
}

/// Resident mappings of a [`Tlb`], by organisation.
#[derive(Debug, Clone)]
enum Slots {
    /// Zero capacity (software-managed): nothing is ever resident.
    None,
    /// Fully associative. `tags` holds the resident pages in fill order:
    /// fills append, a random victim is replaced in place and a shootdown
    /// is a `swap_remove`, so the strip — and with it every victim the RNG
    /// picks — is exactly that of a one-set array with random replacement.
    /// `index` maps each resident tag to its position in `tags`, so a
    /// lookup is one hash probe instead of a scan of the strip.
    Fa { tags: Vec<u64>, index: IntMap<u64, u32>, rng: DetRng },
    /// Direct mapped: one optional tag per set, set = page mod entries.
    Dm(Vec<Option<u64>>),
}

impl Tlb {
    /// Creates a TLB with the given number of entries and organisation.
    /// `seed` feeds the random-replacement policy (fully-associative
    /// organisation only), keeping runs deterministic.
    pub fn new(entries: u64, org: TlbOrg, seed: u64) -> Self {
        let cap = usize::try_from(entries).expect("TLB entries fit in memory");
        let slots = match org {
            _ if entries == 0 => Slots::None,
            TlbOrg::FullyAssociative => Slots::Fa {
                tags: Vec::with_capacity(cap),
                index: IntMap::with_capacity_and_hasher(cap, Default::default()),
                rng: DetRng::new(seed),
            },
            TlbOrg::DirectMapped => Slots::Dm(vec![None; cap]),
        };
        Tlb { slots, entries, org, stats: TlbStats::default() }
    }

    /// Number of entries.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Organisation.
    pub fn org(&self) -> TlbOrg {
        self.org
    }

    /// Translation reach in bytes for the given page size.
    pub fn reach(&self, page_size: u64) -> u64 {
        self.entries * page_size
    }

    /// Translates a page: returns `true` on a hit. On a miss the mapping is
    /// refilled into the buffer (counting an eviction if a victim was
    /// displaced) and `false` is returned.
    pub fn translate(&mut self, page: VPage) -> bool {
        self.translate_track(page).0
    }

    /// Like [`Tlb::translate`], additionally returning the page whose
    /// mapping the refill displaced (only ever `Some` on a miss that
    /// evicted a victim). Counters are updated exactly as by `translate`.
    pub fn translate_track(&mut self, page: VPage) -> (bool, Option<VPage>) {
        self.stats.accesses += 1;
        let tag = page.raw();
        let victim = match &mut self.slots {
            Slots::None => {
                self.stats.misses += 1;
                return (false, None);
            }
            Slots::Fa { tags, index, rng } => {
                if index.contains_key(&tag) {
                    return (true, None);
                }
                if tags.len() < self.entries as usize {
                    index.insert(tag, tags.len() as u32);
                    tags.push(tag);
                    None
                } else {
                    let slot = rng.gen_index(tags.len());
                    let old = std::mem::replace(&mut tags[slot], tag);
                    index.remove(&old);
                    index.insert(tag, slot as u32);
                    Some(old)
                }
            }
            Slots::Dm(sets) => {
                let set = &mut sets[(tag % self.entries) as usize];
                if *set == Some(tag) {
                    return (true, None);
                }
                set.replace(tag)
            }
        };
        self.stats.misses += 1;
        if victim.is_some() {
            self.stats.evictions += 1;
        }
        (false, victim.map(VPage::new))
    }

    /// Probes for a page without refilling or counting an access.
    pub fn contains(&self, page: VPage) -> bool {
        let tag = page.raw();
        match &self.slots {
            Slots::None => false,
            Slots::Fa { index, .. } => index.contains_key(&tag),
            Slots::Dm(sets) => sets[(tag % self.entries) as usize] == Some(tag),
        }
    }

    /// Removes a page mapping (TLB shootdown on mapping/protection change).
    /// Returns whether it was present.
    pub fn shootdown(&mut self, page: VPage) -> bool {
        let tag = page.raw();
        let present = match &mut self.slots {
            Slots::None => false,
            Slots::Fa { tags, index, .. } => match index.remove(&tag) {
                Some(slot) => {
                    tags.swap_remove(slot as usize);
                    if let Some(&moved) = tags.get(slot as usize) {
                        index.insert(moved, slot);
                    }
                    true
                }
                None => false,
            },
            Slots::Dm(sets) => {
                let set = &mut sets[(tag % self.entries) as usize];
                set.take_if(|t| *t == tag).is_some()
            }
        };
        if present {
            self.stats.shootdowns += 1;
        }
        present
    }

    /// Removes all mappings (full flush).
    pub fn flush(&mut self) {
        match &mut self.slots {
            Slots::None => {}
            Slots::Fa { tags, index, .. } => {
                tags.clear();
                index.clear();
            }
            Slots::Dm(sets) => sets.fill(None),
        }
    }

    /// Number of resident mappings.
    pub fn len(&self) -> usize {
        match &self.slots {
            Slots::None => 0,
            Slots::Fa { tags, .. } => tags.len(),
            Slots::Dm(sets) => sets.iter().filter(|s| s.is_some()).count(),
        }
    }

    /// Returns `true` if no mapping is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Zeroes the statistics counters, keeping the resident mappings (used
    /// between a warm-up pass and the measured pass).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut t = Tlb::new(4, TlbOrg::FullyAssociative, 0);
        assert!(!t.translate(VPage::new(1)));
        assert!(t.translate(VPage::new(1)));
        assert_eq!(t.stats().accesses, 2);
        assert_eq!(t.stats().misses, 1);
        assert_eq!(t.stats().hits(), 1);
    }

    #[test]
    fn zero_entry_always_misses() {
        let mut t = Tlb::new(0, TlbOrg::FullyAssociative, 0);
        for i in 0..10 {
            assert!(!t.translate(VPage::new(i)));
        }
        assert_eq!(t.stats().misses, 10);
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert!(!t.shootdown(VPage::new(0)));
        t.flush(); // no-op, must not panic
    }

    #[test]
    fn capacity_bounds_resident_mappings() {
        let mut t = Tlb::new(4, TlbOrg::FullyAssociative, 0);
        for i in 0..100 {
            t.translate(VPage::new(i));
        }
        assert_eq!(t.len(), 4);
        assert!(t.stats().evictions >= 96);
    }

    #[test]
    fn direct_mapped_conflicts_on_page_modulo() {
        let mut t = Tlb::new(4, TlbOrg::DirectMapped, 0);
        t.translate(VPage::new(0));
        t.translate(VPage::new(4)); // same slot
        assert!(!t.contains(VPage::new(0)));
        assert!(t.contains(VPage::new(4)));
        // distinct slots coexist
        t.translate(VPage::new(1));
        assert!(t.contains(VPage::new(4)));
        assert!(t.contains(VPage::new(1)));
    }

    #[test]
    fn fully_associative_holds_conflicting_pages() {
        let mut t = Tlb::new(4, TlbOrg::FullyAssociative, 0);
        t.translate(VPage::new(0));
        t.translate(VPage::new(4));
        t.translate(VPage::new(8));
        assert!(t.contains(VPage::new(0)));
        assert!(t.contains(VPage::new(4)));
        assert!(t.contains(VPage::new(8)));
    }

    #[test]
    fn translate_track_reports_the_displaced_victim() {
        let mut t = Tlb::new(1, TlbOrg::FullyAssociative, 0);
        assert_eq!(t.translate_track(VPage::new(1)), (false, None), "cold fill, no victim");
        assert_eq!(t.translate_track(VPage::new(1)), (true, None));
        assert_eq!(t.translate_track(VPage::new(2)), (false, Some(VPage::new(1))));
        assert_eq!(t.stats().evictions, 1);
        let mut zero = Tlb::new(0, TlbOrg::FullyAssociative, 0);
        assert_eq!(zero.translate_track(VPage::new(5)), (false, None));
    }

    #[test]
    fn shootdown_removes_mapping() {
        let mut t = Tlb::new(4, TlbOrg::FullyAssociative, 0);
        t.translate(VPage::new(7));
        assert!(t.shootdown(VPage::new(7)));
        assert!(!t.contains(VPage::new(7)));
        assert_eq!(t.stats().shootdowns, 1);
        assert!(!t.shootdown(VPage::new(7)));
    }

    #[test]
    fn flush_empties() {
        let mut t = Tlb::new(4, TlbOrg::FullyAssociative, 0);
        t.translate(VPage::new(1));
        t.translate(VPage::new(2));
        t.flush();
        assert!(t.is_empty());
    }

    #[test]
    fn reach_scales_with_entries() {
        let t = Tlb::new(64, TlbOrg::FullyAssociative, 0);
        assert_eq!(t.reach(4096), 64 * 4096);
    }

    #[test]
    fn random_replacement_is_seed_deterministic() {
        let run = |seed| {
            let mut t = Tlb::new(8, TlbOrg::FullyAssociative, seed);
            for i in 0..1000u64 {
                t.translate(VPage::new(i % 23));
            }
            t.stats().misses
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn stats_merge() {
        let mut a = TlbStats { accesses: 10, misses: 2, ..TlbStats::default() };
        let b = TlbStats { accesses: 5, misses: 1, evictions: 1, shootdowns: 2 };
        a.merge(&b);
        assert_eq!(a.accesses, 15);
        assert_eq!(a.misses, 3);
        assert_eq!(a.evictions, 1);
        assert_eq!(a.shootdowns, 2);
    }

    #[test]
    fn miss_ratio_idle_is_zero() {
        assert_eq!(TlbStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn org_display() {
        assert_eq!(TlbOrg::FullyAssociative.to_string(), "FA");
        assert_eq!(TlbOrg::DirectMapped.to_string(), "DM");
    }

    #[cfg(feature = "proptest-tests")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn len_never_exceeds_entries(
                entries in 1u64..32,
                pages in proptest::collection::vec(0u64..1000, 0..200),
                dm in prop::bool::ANY,
            ) {
                let org = if dm { TlbOrg::DirectMapped } else { TlbOrg::FullyAssociative };
                let mut t = Tlb::new(entries, org, 1);
                for p in pages {
                    t.translate(VPage::new(p));
                    prop_assert!(t.len() as u64 <= entries);
                }
            }

            #[test]
            fn translate_twice_in_a_row_hits(page in 0u64..1000) {
                let mut t = Tlb::new(8, TlbOrg::DirectMapped, 0);
                t.translate(VPage::new(page));
                prop_assert!(t.translate(VPage::new(page)));
            }

            #[test]
            fn misses_bounded_by_accesses(pages in proptest::collection::vec(0u64..100, 0..200)) {
                let mut t = Tlb::new(4, TlbOrg::FullyAssociative, 3);
                for p in pages {
                    t.translate(VPage::new(p));
                }
                prop_assert!(t.stats().misses <= t.stats().accesses);
                prop_assert!(t.stats().miss_ratio() <= 1.0);
            }
        }
    }
}
