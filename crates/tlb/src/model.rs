//! Per-node translation models.
//!
//! A [`TranslationModel`] owns a node's translation state — the TLB (or,
//! for V-COMA, the home-side DLB) plus any auxiliary structures — and its
//! *miss-latency schedule*: every lookup returns the cycles the machine
//! must charge, so schemes with non-uniform miss costs (a cache-resident
//! spill hit, a shorter huge-page walk) plug in without the machine
//! knowing. Three models ship built in:
//!
//! * [`BankModel`] — the paper's uniform-penalty TLB/DLB bank: every miss
//!   costs the full page-table-walk penalty. Used by all six 1998 schemes.
//! * [`VictimaModel`] — a Victima-style design (Kanellopoulos et al.,
//!   MICRO 2023): entries evicted from the TLB spill into the SLC as
//!   cache-resident translations, so a TLB miss that hits the spill
//!   structure is serviced at SLC latency instead of a full walk.
//! * [`MpsModel`] — a multi-page-size TLB: separate 4 KiB / 2 MiB / 1 GiB
//!   sub-TLBs ([`PageSize`]) with per-size reach and walk latency.
//!
//! All models are deterministic: every random choice comes from seeds
//! derived from the run's master seed, and classification hashes are pure
//! functions of the address.

use crate::bank::TlbBank;
use crate::tlb::{Tlb, TlbOrg, TlbStats};
use vcoma_cachesim::SetAssocArray;
use vcoma_types::VPage;

/// The outcome of one translation lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xlation {
    /// Cycles the machine must charge to the translation category.
    pub cycles: u64,
    /// `true` if the primary structure missed (the machine records a
    /// `tlb_miss`/`dlb_miss` event and marks the page referenced). A miss
    /// may still be cheap — e.g. a Victima spill hit.
    pub missed: bool,
}

impl Xlation {
    /// A free hit.
    pub const HIT: Xlation = Xlation { cycles: 0, missed: false };
}

/// Everything a model constructor may depend on. Built once per node by
/// the machine.
#[derive(Debug, Clone)]
pub struct ModelParams<'a> {
    /// The TLB/DLB size/organisation bank: the first spec is the primary
    /// (timing-affecting) member, the rest are passive shadows used to
    /// sweep a size axis in one run.
    pub specs: &'a [(u64, TlbOrg)],
    /// Node-derived seed for deterministic replacement.
    pub seed: u64,
    /// Full page-table-walk service time (the paper's 40 cycles).
    pub walk_penalty: u64,
    /// Latency of a translation serviced from the SLC (Victima spill hit).
    pub spill_latency: u64,
    /// Capacity of the SLC-resident spill structure, in entries.
    pub spill_entries: u64,
    /// The machine's base page size in bytes.
    pub page_size: u64,
}

/// A node's translation state and miss-latency schedule. See the module
/// docs.
///
/// Models must be `Send` so a machine holding them can move between
/// threads.
pub trait TranslationModel: std::fmt::Debug + Send {
    /// Presents one translation: updates the structures (refilling on a
    /// miss) and returns the cycles to charge.
    fn lookup(&mut self, page: VPage) -> Xlation;

    /// Removes a page's mapping everywhere (shootdown on protection or
    /// mapping change).
    fn shootdown(&mut self, page: VPage);

    /// Statistics for every member, aligned with `ModelParams::specs`
    /// (index 0 = primary, then the shadows); models may append extra
    /// diagnostic entries after the spec-aligned ones.
    fn all_stats(&self) -> Vec<TlbStats>;

    /// The primary member's statistics.
    fn primary_stats(&self) -> TlbStats {
        self.all_stats()[0]
    }

    /// Zeroes the statistics, keeping resident mappings (between a warm-up
    /// pass and the measured pass).
    fn reset_stats(&mut self);
}

// ---------------------------------------------------------------------------
// BankModel — the paper's uniform-penalty TLB/DLB.
// ---------------------------------------------------------------------------

/// The classic model: a [`TlbBank`] where every primary miss costs the
/// full walk penalty. Byte-for-byte the behaviour the six paper schemes
/// had before the plugin API existed.
#[derive(Debug, Clone)]
pub struct BankModel {
    bank: TlbBank,
    walk_penalty: u64,
}

impl BankModel {
    /// Builds the bank from the params (used by every paper scheme).
    pub fn new(p: &ModelParams<'_>) -> Self {
        BankModel { bank: TlbBank::new(p.specs, p.seed), walk_penalty: p.walk_penalty }
    }

    /// Boxed constructor matching `SchemeSpec::build_model`.
    pub fn build(p: &ModelParams<'_>) -> Box<dyn TranslationModel> {
        Box::new(BankModel::new(p))
    }
}

impl TranslationModel for BankModel {
    fn lookup(&mut self, page: VPage) -> Xlation {
        if self.bank.access(page) {
            Xlation::HIT
        } else {
            Xlation { cycles: self.walk_penalty, missed: true }
        }
    }

    fn shootdown(&mut self, page: VPage) {
        self.bank.shootdown(page);
    }

    fn all_stats(&self) -> Vec<TlbStats> {
        self.bank.all_stats().collect()
    }

    fn reset_stats(&mut self) {
        self.bank.reset_stats();
    }
}

// ---------------------------------------------------------------------------
// VictimaModel — cache-resident spilled translations.
// ---------------------------------------------------------------------------

/// Victima-style model: the TLB is backed by an SLC-resident spill
/// structure. Entries evicted from the (primary) TLB are written into the
/// spill; a TLB miss probes it and, on a hit, is serviced at SLC latency
/// (`spill_latency`) instead of the full walk, promoting the entry back
/// into the TLB.
///
/// The spill is modelled as a fully-associative LRU presence structure of
/// `spill_entries` entries — the share of SLC frames the design donates to
/// translations. Its statistics are appended after the spec-aligned bank
/// stats in [`TranslationModel::all_stats`].
#[derive(Debug, Clone)]
pub struct VictimaModel {
    bank: TlbBank,
    spill: SetAssocArray<()>,
    spill_stats: TlbStats,
    spill_latency: u64,
    walk_penalty: u64,
}

impl VictimaModel {
    /// Builds the model from the params.
    pub fn new(p: &ModelParams<'_>) -> Self {
        VictimaModel {
            bank: TlbBank::new(p.specs, p.seed),
            spill: SetAssocArray::new(1, p.spill_entries.max(1)),
            spill_stats: TlbStats::default(),
            spill_latency: p.spill_latency,
            walk_penalty: p.walk_penalty,
        }
    }

    /// Boxed constructor matching `SchemeSpec::build_model`.
    pub fn build(p: &ModelParams<'_>) -> Box<dyn TranslationModel> {
        Box::new(VictimaModel::new(p))
    }

    /// Spill-structure statistics (probes on TLB misses, spill misses,
    /// entries displaced from the spill, shootdowns).
    pub fn spill_stats(&self) -> &TlbStats {
        &self.spill_stats
    }
}

impl TranslationModel for VictimaModel {
    fn lookup(&mut self, page: VPage) -> Xlation {
        let (hit, victim) = self.bank.access_with_victim(page);
        if hit {
            return Xlation::HIT;
        }
        // TLB miss: probe the cache-resident spill. A hit promotes the
        // entry back into the TLB (the bank already refilled it), so it
        // leaves the spill.
        self.spill_stats.accesses += 1;
        let spill_hit = self.spill.invalidate(page.raw()).is_some();
        if !spill_hit {
            self.spill_stats.misses += 1;
        }
        // The entry the refill displaced from the TLB spills into the SLC.
        if let Some(v) = victim {
            if self.spill.insert(v.raw(), ()).is_some() {
                self.spill_stats.evictions += 1;
            }
        }
        let cycles = if spill_hit { self.spill_latency } else { self.walk_penalty };
        Xlation { cycles, missed: true }
    }

    fn shootdown(&mut self, page: VPage) {
        self.bank.shootdown(page);
        if self.spill.invalidate(page.raw()).is_some() {
            self.spill_stats.shootdowns += 1;
        }
    }

    fn all_stats(&self) -> Vec<TlbStats> {
        let mut v: Vec<TlbStats> = self.bank.all_stats().collect();
        v.push(self.spill_stats);
        v
    }

    fn reset_stats(&mut self) {
        self.bank.reset_stats();
        self.spill_stats = TlbStats::default();
    }
}

// ---------------------------------------------------------------------------
// MpsModel — multi-page-size TLB.
// ---------------------------------------------------------------------------

/// A translation page size supported by the multi-page-size TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PageSize {
    /// The machine's base page (4 KiB on the paper machine).
    Base4K,
    /// 2 MiB superpage.
    Large2M,
    /// 1 GiB superpage.
    Huge1G,
}

impl PageSize {
    /// All sizes, smallest first.
    pub const ALL: [PageSize; 3] = [PageSize::Base4K, PageSize::Large2M, PageSize::Huge1G];

    /// Nominal size in bytes (`Base4K` stands for the machine's base page
    /// whatever its actual size).
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Base4K => 4 << 10,
            PageSize::Large2M => 2 << 20,
            PageSize::Huge1G => 1 << 30,
        }
    }

    /// How many base pages of `base_bytes` one entry of this size spans
    /// (at least 1).
    pub const fn span(self, base_bytes: u64) -> u64 {
        let s = self.bytes() / base_bytes;
        if s == 0 {
            1
        } else {
            s
        }
    }
}

impl std::fmt::Display for PageSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PageSize::Base4K => "4K",
            PageSize::Large2M => "2M",
            PageSize::Huge1G => "1G",
        })
    }
}

/// SplitMix64 finaliser: a pure, deterministic address hash used to
/// classify regions by page size. Not seeded by the run seed on purpose —
/// the page-size layout is a property of the address space, identical
/// across nodes, runs and worker counts.
const fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Percentage of 1 GiB-aligned regions the OS is assumed to back with a
/// huge page.
const HUGE_PCT: u64 = 10;
/// Percentage of 2 MiB-aligned regions (outside huge regions) backed with
/// a large page.
const LARGE_PCT: u64 = 40;

/// Deterministically classifies a base page by the page size backing it.
pub fn classify(page: VPage, base_bytes: u64) -> PageSize {
    let huge_region = page.raw() / PageSize::Huge1G.span(base_bytes);
    if mix(huge_region ^ 0x4855_4745) % 100 < HUGE_PCT {
        return PageSize::Huge1G;
    }
    let large_region = page.raw() / PageSize::Large2M.span(base_bytes);
    if mix(large_region ^ 0x4C41_5247) % 100 < LARGE_PCT {
        return PageSize::Large2M;
    }
    PageSize::Base4K
}

/// One multi-page-size TLB instance: three sub-TLBs with per-size reach
/// and associativity, derived from a single `(entries, org)` spec.
#[derive(Debug, Clone)]
struct MpsUnit {
    /// Base-page sub-TLB: the spec's own organisation.
    base: Tlb,
    /// 2 MiB sub-TLB: half the entries, fully associative.
    large: Tlb,
    /// 1 GiB sub-TLB: four entries, fully associative.
    huge: Tlb,
}

impl MpsUnit {
    fn new(entries: u64, org: TlbOrg, seed: u64) -> Self {
        MpsUnit {
            base: Tlb::new(entries, org, seed),
            large: Tlb::new((entries / 2).max(2), TlbOrg::FullyAssociative, seed ^ 0x4C41),
            huge: Tlb::new(4, TlbOrg::FullyAssociative, seed ^ 0x4855),
        }
    }

    /// Presents one translation; returns a hit flag for the size class's
    /// sub-TLB.
    fn access(&mut self, page: VPage, size: PageSize, base_bytes: u64) -> bool {
        match size {
            PageSize::Base4K => self.base.translate(page),
            PageSize::Large2M => {
                self.large.translate(VPage::new(page.raw() / PageSize::Large2M.span(base_bytes)))
            }
            PageSize::Huge1G => {
                self.huge.translate(VPage::new(page.raw() / PageSize::Huge1G.span(base_bytes)))
            }
        }
    }

    fn shootdown(&mut self, page: VPage, base_bytes: u64) {
        self.base.shootdown(page);
        self.large.shootdown(VPage::new(page.raw() / PageSize::Large2M.span(base_bytes)));
        self.huge.shootdown(VPage::new(page.raw() / PageSize::Huge1G.span(base_bytes)));
    }

    /// Aggregate statistics across the three sub-TLBs.
    fn merged_stats(&self) -> TlbStats {
        let mut s = *self.base.stats();
        for sub in [self.large.stats(), self.huge.stats()] {
            s.accesses += sub.accesses;
            s.misses += sub.misses;
            s.evictions += sub.evictions;
            s.shootdowns += sub.shootdowns;
        }
        s
    }
}

/// Multi-page-size TLB model: per-size sub-TLBs with per-size walk
/// latency. A huge-page walk skips the lower page-table levels, so its
/// miss penalty is half the base walk; a large-page walk is three
/// quarters of it.
///
/// One [`MpsUnit`] is built per spec member so the shadow-bank size sweep
/// (Figure 8 style) still works; only unit 0 affects timing.
#[derive(Debug, Clone)]
pub struct MpsModel {
    units: Vec<MpsUnit>,
    base_bytes: u64,
    walk_penalty: u64,
}

impl MpsModel {
    /// Builds one unit per spec member.
    pub fn new(p: &ModelParams<'_>) -> Self {
        MpsModel {
            units: p
                .specs
                .iter()
                .enumerate()
                .map(|(i, &(entries, org))| {
                    MpsUnit::new(entries, org, p.seed ^ ((i as u64) << 32))
                })
                .collect(),
            base_bytes: p.page_size,
            walk_penalty: p.walk_penalty,
        }
    }

    /// Boxed constructor matching `SchemeSpec::build_model`.
    pub fn build(p: &ModelParams<'_>) -> Box<dyn TranslationModel> {
        Box::new(MpsModel::new(p))
    }

    /// The walk penalty for a miss in the given size class.
    pub fn walk_cycles(&self, size: PageSize) -> u64 {
        match size {
            PageSize::Base4K => self.walk_penalty,
            PageSize::Large2M => self.walk_penalty * 3 / 4,
            PageSize::Huge1G => self.walk_penalty / 2,
        }
    }
}

impl TranslationModel for MpsModel {
    fn lookup(&mut self, page: VPage) -> Xlation {
        let size = classify(page, self.base_bytes);
        let mut primary_hit = true;
        for (i, unit) in self.units.iter_mut().enumerate() {
            let hit = unit.access(page, size, self.base_bytes);
            if i == 0 {
                primary_hit = hit;
            }
        }
        if primary_hit {
            Xlation::HIT
        } else {
            Xlation { cycles: self.walk_cycles(size), missed: true }
        }
    }

    fn shootdown(&mut self, page: VPage) {
        for unit in &mut self.units {
            unit.shootdown(page, self.base_bytes);
        }
    }

    fn all_stats(&self) -> Vec<TlbStats> {
        // Spec-aligned aggregates first, then the primary unit's per-size
        // split as diagnostics.
        let mut v: Vec<TlbStats> = self.units.iter().map(MpsUnit::merged_stats).collect();
        let p = &self.units[0];
        v.push(*p.base.stats());
        v.push(*p.large.stats());
        v.push(*p.huge.stats());
        v
    }

    fn reset_stats(&mut self) {
        for unit in &mut self.units {
            unit.base.reset_stats();
            unit.large.reset_stats();
            unit.huge.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(specs: &[(u64, TlbOrg)]) -> ModelParams<'_> {
        ModelParams {
            specs,
            seed: 7,
            walk_penalty: 40,
            spill_latency: 10,
            spill_entries: 16,
            page_size: 4096,
        }
    }

    #[test]
    fn bank_model_charges_full_walk_on_miss_only() {
        let specs = [(4, TlbOrg::FullyAssociative)];
        let mut m = BankModel::new(&params(&specs));
        assert_eq!(m.lookup(VPage::new(1)), Xlation { cycles: 40, missed: true });
        assert_eq!(m.lookup(VPage::new(1)), Xlation::HIT);
        assert_eq!(m.primary_stats().accesses, 2);
        assert_eq!(m.primary_stats().misses, 1);
    }

    #[test]
    fn bank_model_matches_raw_bank_byte_for_byte() {
        // The plugin refactor's core claim: BankModel is the old TlbBank.
        let specs = [(2, TlbOrg::FullyAssociative), (8, TlbOrg::DirectMapped)];
        let mut model = BankModel::new(&params(&specs));
        let mut bank = TlbBank::new(&specs, 7);
        for p in [1u64, 2, 3, 1, 2, 9, 1, 3, 3, 7] {
            let x = model.lookup(VPage::new(p));
            let hit = bank.access(VPage::new(p));
            assert_eq!(x.missed, !hit, "page {p}");
            assert_eq!(x.cycles, if hit { 0 } else { 40 });
        }
        let model_stats = model.all_stats();
        let bank_stats: Vec<TlbStats> = bank.all_stats().collect();
        assert_eq!(model_stats, bank_stats);
    }

    #[test]
    fn victima_spill_hit_is_cheaper_than_a_walk() {
        let specs = [(1, TlbOrg::FullyAssociative)];
        let mut m = VictimaModel::new(&params(&specs));
        // Fill page 1 (cold walk), displace it with page 2 (cold walk,
        // page 1 spills), then return to page 1: spill hit at SLC latency.
        assert_eq!(m.lookup(VPage::new(1)).cycles, 40);
        assert_eq!(m.lookup(VPage::new(2)).cycles, 40);
        let back = m.lookup(VPage::new(1));
        assert!(back.missed);
        assert_eq!(back.cycles, 10, "spilled entry serviced from the SLC");
        assert_eq!(m.spill_stats().accesses, 3);
        assert_eq!(m.spill_stats().misses, 2);
    }

    #[test]
    fn victima_shootdown_clears_tlb_and_spill() {
        let specs = [(1, TlbOrg::FullyAssociative)];
        let mut m = VictimaModel::new(&params(&specs));
        m.lookup(VPage::new(1));
        m.lookup(VPage::new(2)); // 1 now lives in the spill
        m.shootdown(VPage::new(1));
        assert_eq!(m.spill_stats().shootdowns, 1);
        assert_eq!(m.lookup(VPage::new(1)).cycles, 40, "spill entry was shot down");
    }

    #[test]
    fn victima_never_slower_than_bank_on_any_stream() {
        let specs = [(2, TlbOrg::FullyAssociative)];
        let mut victima = VictimaModel::new(&params(&specs));
        let mut bank = BankModel::new(&params(&specs));
        let mut vc = 0u64;
        let mut bc = 0u64;
        for i in 0..500u64 {
            let p = VPage::new(mix(i) % 12);
            vc += victima.lookup(p).cycles;
            bc += bank.lookup(p).cycles;
        }
        assert!(vc <= bc, "victima {vc} vs bank {bc}");
    }

    #[test]
    fn classification_is_deterministic_and_region_stable() {
        let base = 4096;
        for p in 0..2000u64 {
            let a = classify(VPage::new(p), base);
            let b = classify(VPage::new(p), base);
            assert_eq!(a, b);
        }
        // Every base page inside one 2 MiB region gets the same class
        // unless the whole region is huge-backed.
        let span = PageSize::Large2M.span(base);
        for region in 0..8u64 {
            let classes: Vec<PageSize> = (0..span)
                .map(|o| classify(VPage::new(region * span + o), base))
                .collect();
            assert!(classes.windows(2).all(|w| w[0] == w[1]), "region {region}");
        }
    }

    #[test]
    fn page_size_spans_and_labels() {
        assert_eq!(PageSize::Base4K.span(4096), 1);
        assert_eq!(PageSize::Large2M.span(4096), 512);
        assert_eq!(PageSize::Huge1G.span(4096), 262_144);
        assert_eq!(PageSize::Huge1G.span(1 << 31), 1, "clamped to one page");
        let labels: Vec<String> = PageSize::ALL.iter().map(|s| s.to_string()).collect();
        assert_eq!(labels, ["4K", "2M", "1G"]);
    }

    #[test]
    fn mps_huge_walks_are_shorter() {
        let specs = [(8, TlbOrg::FullyAssociative)];
        let m = MpsModel::new(&params(&specs));
        assert_eq!(m.walk_cycles(PageSize::Base4K), 40);
        assert_eq!(m.walk_cycles(PageSize::Large2M), 30);
        assert_eq!(m.walk_cycles(PageSize::Huge1G), 20);
    }

    #[test]
    fn mps_superpage_entries_cover_whole_regions() {
        let specs = [(8, TlbOrg::FullyAssociative)];
        let mut m = MpsModel::new(&params(&specs));
        // Find a huge-classified page; after one walk, every other page in
        // its 1 GiB region hits.
        let span = PageSize::Huge1G.span(4096);
        let region = (0..64)
            .find(|r| classify(VPage::new(r * span), 4096) == PageSize::Huge1G)
            .expect("some region classifies huge");
        assert!(m.lookup(VPage::new(region * span)).missed);
        for off in 1..10u64 {
            let x = m.lookup(VPage::new(region * span + off));
            assert_eq!(x, Xlation::HIT, "offset {off} covered by the huge entry");
        }
    }

    #[test]
    fn mps_stats_align_with_specs_then_append_per_size() {
        let specs = [(8, TlbOrg::FullyAssociative), (64, TlbOrg::FullyAssociative)];
        let mut m = MpsModel::new(&params(&specs));
        for p in 0..50u64 {
            m.lookup(VPage::new(p * 3));
        }
        let stats = m.all_stats();
        assert_eq!(stats.len(), specs.len() + 3);
        assert_eq!(stats[0].accesses, 50);
        assert_eq!(stats[1].accesses, 50, "shadow unit sees the same stream");
        let per_size_total: u64 = stats[2..].iter().map(|s| s.accesses).sum();
        assert_eq!(per_size_total, 50, "per-size split partitions the primary's accesses");
    }

    #[test]
    fn models_reset_stats_but_keep_residency() {
        let specs = [(8, TlbOrg::FullyAssociative)];
        let mut models: Vec<Box<dyn TranslationModel>> = vec![
            BankModel::build(&params(&specs)),
            VictimaModel::build(&params(&specs)),
            MpsModel::build(&params(&specs)),
        ];
        for m in &mut models {
            m.lookup(VPage::new(3));
            m.reset_stats();
            assert_eq!(m.primary_stats(), TlbStats::default());
            assert_eq!(m.lookup(VPage::new(3)), Xlation::HIT, "residency survives reset");
        }
    }
}
