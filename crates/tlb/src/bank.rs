//! Shadow banks of TLBs/DLBs observed in parallel.

use crate::tlb::{Tlb, TlbOrg, TlbStats};
use vcoma_types::VPage;

/// A bank of TLB (or DLB) instances of different sizes/organisations that
/// all observe the same translation stream.
///
/// Only the **primary** member (index 0) affects simulated time; the others
/// are passive shadows used to sweep a whole size axis (Figure 8, Figure 9)
/// in a single simulation run. This is sound because in a trace-driven
/// model the translation *stream* does not depend on the TLB's size — only
/// the per-miss latency does, and that is charged from the primary alone.
///
/// # The repeat-page filter
///
/// Most references translate the same page as the node's previous one.
/// After `access(p)` every member holds `p` (a hit leaves it resident, a
/// miss refills it), so until a shootdown or flush a repeat of `p` hits in
/// every member. Such a hit changes only the access counters: no member
/// keeps recency state (fully-associative members pick random victims,
/// direct-mapped members have one way). The bank therefore remembers the
/// last page and answers a repeat by counting it once, for all members,
/// without touching them; the statistics accessors add that count to each
/// member's accesses. The filter stays off while any member has zero
/// entries, since such a member misses every access.
#[derive(Debug, Clone)]
pub struct TlbBank {
    members: Vec<Tlb>,
    /// The page every member is known to hold, if any.
    last: Option<VPage>,
    /// Accesses the filter answered since the last `reset_stats`: each is
    /// a hit, and an access, in every member.
    filtered: u64,
    /// `false` when a zero-entry member makes every access a miss there.
    filterable: bool,
}

impl TlbBank {
    /// Creates a bank from `(entries, organisation)` specs; the first spec
    /// is the primary. `seed` keeps the random-replacement members
    /// deterministic (each member derives its own stream).
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn new(specs: &[(u64, TlbOrg)], seed: u64) -> Self {
        assert!(!specs.is_empty(), "a TLB bank needs at least one member");
        TlbBank {
            members: specs
                .iter()
                .enumerate()
                .map(|(i, &(entries, org))| Tlb::new(entries, org, seed ^ ((i as u64) << 32)))
                .collect(),
            last: None,
            filtered: 0,
            filterable: specs.iter().all(|&(entries, _)| entries > 0),
        }
    }

    /// Answers a repeat of the last page from the filter: counts it as a
    /// hit in every member and returns `true`, or returns `false`.
    #[inline]
    fn filter_hit(&mut self, page: VPage) -> bool {
        let hit = self.last == Some(page);
        self.filtered += u64::from(hit);
        hit
    }

    /// Records that every member now holds `page`.
    #[inline]
    fn remember(&mut self, page: VPage) {
        if self.filterable {
            self.last = Some(page);
        }
    }

    /// Presents a translation to every member; returns `true` if the
    /// **primary** hit.
    pub fn access(&mut self, page: VPage) -> bool {
        if self.filter_hit(page) {
            return true;
        }
        self.remember(page);
        let mut primary_hit = true;
        for (i, t) in self.members.iter_mut().enumerate() {
            let hit = t.translate(page);
            if i == 0 {
                primary_hit = hit;
            }
        }
        primary_hit
    }

    /// Like [`TlbBank::access`], additionally returning the entry the
    /// **primary**'s refill displaced (if it missed and evicted a victim).
    /// Used by models that track evicted translations, e.g. the Victima
    /// spill.
    pub fn access_with_victim(&mut self, page: VPage) -> (bool, Option<VPage>) {
        if self.filter_hit(page) {
            return (true, None);
        }
        self.remember(page);
        let mut primary = (true, None);
        for (i, t) in self.members.iter_mut().enumerate() {
            let r = t.translate_track(page);
            if i == 0 {
                primary = r;
            }
        }
        primary
    }

    /// Shoots a page down in every member.
    pub fn shootdown(&mut self, page: VPage) {
        self.last = None;
        for t in &mut self.members {
            t.shootdown(page);
        }
    }

    /// Removes every mapping in every member.
    pub fn flush(&mut self) {
        self.last = None;
        for t in &mut self.members {
            t.flush();
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the bank has no members (never true for a bank
    /// built with [`TlbBank::new`]).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Statistics of one member.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn stats(&self, index: usize) -> TlbStats {
        self.with_filtered(self.members[index].stats())
    }

    /// Iterates over every member's statistics in spec order.
    pub fn all_stats(&self) -> impl Iterator<Item = TlbStats> + '_ {
        self.members.iter().map(|t| self.with_filtered(t.stats()))
    }

    /// A member's own counters plus the filter's hits.
    fn with_filtered(&self, stats: &TlbStats) -> TlbStats {
        TlbStats { accesses: stats.accesses + self.filtered, ..*stats }
    }

    /// Zeroes every member's statistics, keeping their resident mappings
    /// (used between a warm-up pass and the measured pass). The filter is
    /// kept too: the mappings it vouches for are still resident.
    pub fn reset_stats(&mut self) {
        self.filtered = 0;
        for t in &mut self.members {
            t.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_members_see_every_access() {
        let mut b = TlbBank::new(
            &[(2, TlbOrg::FullyAssociative), (64, TlbOrg::FullyAssociative)],
            1,
        );
        for p in 0..10u64 {
            b.access(VPage::new(p));
        }
        assert_eq!(b.stats(0).accesses, 10);
        assert_eq!(b.stats(1).accesses, 10);
        // The tiny primary misses more than the big shadow.
        assert!(b.stats(0).misses >= b.stats(1).misses);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn primary_hit_reflects_member_zero() {
        let mut b = TlbBank::new(
            &[(1, TlbOrg::FullyAssociative), (64, TlbOrg::FullyAssociative)],
            1,
        );
        assert!(!b.access(VPage::new(1))); // cold
        assert!(b.access(VPage::new(1))); // hit in the 1-entry primary
        assert!(!b.access(VPage::new(2))); // displaces
        assert!(!b.access(VPage::new(1))); // primary misses, shadow hits
        assert_eq!(b.stats(1).misses, 2, "shadow only took the two cold misses");
    }

    #[test]
    fn access_with_victim_tracks_only_the_primary() {
        let mut b = TlbBank::new(
            &[(1, TlbOrg::FullyAssociative), (64, TlbOrg::FullyAssociative)],
            1,
        );
        assert_eq!(b.access_with_victim(VPage::new(1)), (false, None));
        assert_eq!(b.access_with_victim(VPage::new(2)), (false, Some(VPage::new(1))));
        assert_eq!(b.access_with_victim(VPage::new(2)), (true, None));
        // The big shadow never evicted; only the primary's victim surfaces.
        assert_eq!(b.stats(1).evictions, 0);
    }

    #[test]
    fn shootdown_hits_every_member() {
        let mut b = TlbBank::new(
            &[(8, TlbOrg::FullyAssociative), (8, TlbOrg::DirectMapped)],
            1,
        );
        b.access(VPage::new(3));
        b.shootdown(VPage::new(3));
        assert!(!b.access(VPage::new(3)), "page must miss after shootdown");
        assert_eq!(b.stats(0).misses, 2);
        assert_eq!(b.stats(1).misses, 2);
    }

    #[test]
    fn all_stats_in_spec_order() {
        let mut b = TlbBank::new(
            &[(1, TlbOrg::FullyAssociative), (64, TlbOrg::FullyAssociative)],
            1,
        );
        for p in 0..5u64 {
            b.access(VPage::new(p));
        }
        let misses: Vec<u64> = b.all_stats().map(|s| s.misses).collect();
        assert_eq!(misses.len(), 2);
        assert!(misses[0] >= misses[1]);
        assert_eq!(b.stats(0).misses, misses[0]);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_bank_panics() {
        TlbBank::new(&[], 0);
    }

    #[test]
    fn repeat_filter_counts_hits_and_clears_on_shootdown_and_flush() {
        let mut b = TlbBank::new(
            &[(8, TlbOrg::FullyAssociative), (4, TlbOrg::DirectMapped)],
            1,
        );
        assert!(!b.access(VPage::new(5)));
        assert!(b.access(VPage::new(5)), "a repeat hits everywhere");
        assert_eq!((b.stats(0).accesses, b.stats(0).misses), (2, 1));
        assert_eq!((b.stats(1).accesses, b.stats(1).misses), (2, 1));
        b.reset_stats();
        assert!(b.access(VPage::new(5)), "reset_stats keeps the mappings");
        b.shootdown(VPage::new(5));
        assert!(!b.access(VPage::new(5)), "shootdown clears the filter");
        b.flush();
        assert_eq!(b.access_with_victim(VPage::new(5)), (false, None), "flush clears it too");
        assert_eq!(b.stats(0).misses, 2);
    }

    #[test]
    fn repeat_filter_is_off_with_a_zero_entry_member() {
        let mut b = TlbBank::new(
            &[(8, TlbOrg::FullyAssociative), (0, TlbOrg::FullyAssociative)],
            1,
        );
        b.access(VPage::new(5));
        assert!(b.access(VPage::new(5)));
        assert_eq!(b.stats(1).misses, 2, "the software-managed member misses every access");
    }

    /// Equivalence of the indexed [`Tlb`] and the filtered [`TlbBank`] with
    /// a reference model that scans each member's tags linearly and probes
    /// every member on every access, as a set-associative array would.
    #[cfg(feature = "proptest-tests")]
    mod props {
        use super::*;
        use proptest::prelude::*;
        use vcoma_types::DetRng;

        const SIZES: [u64; 5] = [0, 1, 8, 32, 128];

        /// Linear-scan reference TLB: fully-associative members fill at
        /// the end of the strip, replace a uniformly random way when full
        /// and `swap_remove` on shootdown; direct-mapped members hold one
        /// tag per `page mod entries` set.
        struct RefTlb {
            entries: u64,
            org: TlbOrg,
            /// FA: the strip in fill order. DM: one slot per set.
            tags: Vec<Option<u64>>,
            rng: DetRng,
            stats: TlbStats,
        }

        impl RefTlb {
            fn new(entries: u64, org: TlbOrg, seed: u64) -> Self {
                let tags = match org {
                    TlbOrg::FullyAssociative => Vec::new(),
                    TlbOrg::DirectMapped => vec![None; entries as usize],
                };
                RefTlb { entries, org, tags, rng: DetRng::new(seed), stats: TlbStats::default() }
            }

            fn translate_track(&mut self, page: VPage) -> (bool, Option<VPage>) {
                let tag = page.raw();
                self.stats.accesses += 1;
                if self.entries == 0 {
                    self.stats.misses += 1;
                    return (false, None);
                }
                let victim = match self.org {
                    TlbOrg::FullyAssociative => {
                        if self.tags.contains(&Some(tag)) {
                            return (true, None);
                        }
                        if (self.tags.len() as u64) < self.entries {
                            self.tags.push(Some(tag));
                            None
                        } else {
                            let way = self.rng.gen_index(self.tags.len());
                            self.tags[way].replace(tag)
                        }
                    }
                    TlbOrg::DirectMapped => {
                        let set = &mut self.tags[(tag % self.entries) as usize];
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

            fn shootdown(&mut self, page: VPage) -> bool {
                let tag = Some(page.raw());
                let present = match self.org {
                    TlbOrg::FullyAssociative => {
                        match self.tags.iter().position(|&t| t == tag) {
                            Some(way) => {
                                self.tags.swap_remove(way);
                                true
                            }
                            None => false,
                        }
                    }
                    TlbOrg::DirectMapped => self
                        .tags
                        .iter_mut()
                        .find(|t| **t == tag)
                        .map(|t| *t = None)
                        .is_some(),
                };
                if present {
                    self.stats.shootdowns += 1;
                }
                present
            }

            fn flush(&mut self) {
                match self.org {
                    TlbOrg::FullyAssociative => self.tags.clear(),
                    TlbOrg::DirectMapped => self.tags.fill(None),
                }
            }

            fn contains(&self, page: VPage) -> bool {
                self.tags.contains(&Some(page.raw()))
            }

            fn len(&self) -> usize {
                self.tags.iter().filter(|t| t.is_some()).count()
            }
        }

        /// One operation of a generated stream, decoded from `(kind,
        /// page)`: mostly accesses, a third of them repeating the previous
        /// page, with occasional shootdowns, flushes and stats resets.
        #[derive(Debug, Clone, Copy)]
        enum Step {
            Access(VPage),
            AccessWithVictim(VPage),
            Shootdown(VPage),
            Flush,
            ResetStats,
        }

        fn decode(ops: &[(u8, u64)]) -> Vec<Step> {
            let mut prev = VPage::new(0);
            ops.iter()
                .map(|&(kind, page)| {
                    let page = if kind % 3 == 0 { prev } else { VPage::new(page) };
                    prev = page;
                    match kind {
                        0..=59 => Step::Access(page),
                        60..=89 => Step::AccessWithVictim(page),
                        90..=95 => Step::Shootdown(page),
                        96..=97 => Step::Flush,
                        _ => Step::ResetStats,
                    }
                })
                .collect()
        }

        fn spec(size: usize, dm: bool) -> (u64, TlbOrg) {
            let org = if dm { TlbOrg::DirectMapped } else { TlbOrg::FullyAssociative };
            (SIZES[size], org)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn tlb_matches_linear_scan_reference(
                size in 0usize..5,
                dm in prop::bool::ANY,
                seed in 0u64..1000,
                ops in proptest::collection::vec((0u8..100, 0u64..300), 0..600),
            ) {
                let (entries, org) = spec(size, dm);
                let mut t = Tlb::new(entries, org, seed);
                let mut r = RefTlb::new(entries, org, seed);
                for step in decode(&ops) {
                    match step {
                        Step::Access(p) | Step::AccessWithVictim(p) => {
                            prop_assert_eq!(t.translate_track(p), r.translate_track(p));
                        }
                        Step::Shootdown(p) => prop_assert_eq!(t.shootdown(p), r.shootdown(p)),
                        Step::Flush => {
                            t.flush();
                            r.flush();
                        }
                        Step::ResetStats => {
                            t.reset_stats();
                            r.stats = TlbStats::default();
                        }
                    }
                    prop_assert_eq!(t.stats(), &r.stats);
                    prop_assert_eq!(t.len(), r.len());
                }
                for p in 0..300 {
                    prop_assert_eq!(t.contains(VPage::new(p)), r.contains(VPage::new(p)));
                }
            }

            #[test]
            fn bank_matches_unfiltered_reference(
                members in proptest::collection::vec((0usize..5, prop::bool::ANY), 1..5),
                seed in 0u64..1000,
                ops in proptest::collection::vec((0u8..100, 0u64..300), 0..600),
            ) {
                let specs: Vec<(u64, TlbOrg)> =
                    members.iter().map(|&(size, dm)| spec(size, dm)).collect();
                let mut bank = TlbBank::new(&specs, seed);
                let mut refs: Vec<RefTlb> = specs
                    .iter()
                    .enumerate()
                    .map(|(i, &(e, org))| RefTlb::new(e, org, seed ^ ((i as u64) << 32)))
                    .collect();
                for step in decode(&ops) {
                    match step {
                        Step::Access(p) => {
                            let expect: Vec<bool> =
                                refs.iter_mut().map(|r| r.translate_track(p).0).collect();
                            prop_assert_eq!(bank.access(p), expect[0]);
                        }
                        Step::AccessWithVictim(p) => {
                            let expect: Vec<_> =
                                refs.iter_mut().map(|r| r.translate_track(p)).collect();
                            prop_assert_eq!(bank.access_with_victim(p), expect[0]);
                        }
                        Step::Shootdown(p) => {
                            bank.shootdown(p);
                            for r in &mut refs {
                                r.shootdown(p);
                            }
                        }
                        Step::Flush => {
                            bank.flush();
                            for r in &mut refs {
                                r.flush();
                            }
                        }
                        Step::ResetStats => {
                            bank.reset_stats();
                            for r in &mut refs {
                                r.stats = TlbStats::default();
                            }
                        }
                    }
                    for (i, r) in refs.iter().enumerate() {
                        prop_assert_eq!(bank.stats(i), r.stats);
                    }
                }
            }
        }
    }
}
