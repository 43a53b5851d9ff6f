//! The scheme registry: the static table of every scheme the workspace
//! ships.
//!
//! Every consumer that needs "the schemes" derives them from here —
//! presentation order included — so a scheme added to the table cannot
//! silently miss an artifact:
//!
//! * [`paper_schemes`] — the six options evaluated by the 1998 paper, in
//!   the paper's presentation order. Paper artifacts (tables 1–4, figures
//!   8–11) iterate these.
//! * [`all_schemes`] — every scheme in the table (paper + post-1998),
//!   ordered by `(order, key)`. The `table5` comparison and the
//!   every-scheme test suites iterate these.
//! * [`get`] / [`SchemeSet::parse`] — lookup by stable key or paper label,
//!   backing `FromStr` and the CLI's `--schemes` flag.
//!
//! A new scheme is a `'static` [`SchemeSpec`] added to `BUILTINS`; the
//! spec's `order` slots it into every listing.

use crate::model::{BankModel, MpsModel, VictimaModel};
use crate::scheme::Scheme;
use crate::spec::{AllocPolicy, SchemeSpec, XlatePoint};

/// The conventional TLB in front of a physical FLC (paper §3.1).
pub static L0_TLB_SPEC: SchemeSpec = SchemeSpec {
    key: "l0_tlb",
    label: "L0-TLB",
    order: 0,
    paper: true,
    virtual_flc: false,
    virtual_slc: false,
    virtual_am: false,
    virtual_protocol: false,
    writebacks_translate: false,
    has_private_tlb: true,
    alloc: AllocPolicy::RoundRobin,
    translate_at: XlatePoint::EveryRef,
    build_model: BankModel::build,
    doc: "conventional TLB before the FLC; every reference translates",
};

/// Virtual FLC, TLB between FLC and a physical SLC (paper §3.2).
pub static L1_TLB_SPEC: SchemeSpec = SchemeSpec {
    key: "l1_tlb",
    label: "L1-TLB",
    order: 10,
    paper: true,
    virtual_flc: true,
    virtual_slc: false,
    virtual_am: false,
    virtual_protocol: false,
    writebacks_translate: false,
    has_private_tlb: true,
    alloc: AllocPolicy::RoundRobin,
    translate_at: XlatePoint::FlcMiss,
    build_model: BankModel::build,
    doc: "virtual FLC; translation only on FLC misses",
};

/// Virtual FLC + SLC, TLB at the SLC→memory boundary; writebacks
/// translate (paper §3.3).
pub static L2_TLB_SPEC: SchemeSpec = SchemeSpec {
    key: "l2_tlb",
    label: "L2-TLB",
    order: 20,
    paper: true,
    virtual_flc: true,
    virtual_slc: true,
    virtual_am: false,
    virtual_protocol: false,
    writebacks_translate: true,
    has_private_tlb: true,
    alloc: AllocPolicy::RoundRobin,
    translate_at: XlatePoint::SlcMiss,
    build_model: BankModel::build,
    doc: "virtual FLC+SLC; translation on SLC misses and writebacks",
};

/// L2-TLB with physical writeback pointers, so writebacks skip the TLB
/// (paper §3.3).
pub static L2_TLB_NO_WB_SPEC: SchemeSpec = SchemeSpec {
    key: "l2_tlb_no_wb",
    label: "L2-TLB/no_wback",
    order: 30,
    paper: true,
    virtual_flc: true,
    virtual_slc: true,
    virtual_am: false,
    virtual_protocol: false,
    writebacks_translate: false,
    has_private_tlb: true,
    alloc: AllocPolicy::RoundRobin,
    translate_at: XlatePoint::SlcMiss,
    build_model: BankModel::build,
    doc: "L2-TLB variant whose writebacks carry physical pointers",
};

/// Virtual caches and virtually-indexed AM with page coloring (paper
/// §3.4).
pub static L3_TLB_SPEC: SchemeSpec = SchemeSpec {
    key: "l3_tlb",
    label: "L3-TLB",
    order: 40,
    paper: true,
    virtual_flc: true,
    virtual_slc: true,
    virtual_am: true,
    virtual_protocol: false,
    writebacks_translate: false,
    has_private_tlb: true,
    alloc: AllocPolicy::Coloring,
    translate_at: XlatePoint::CoherenceTxn,
    build_model: BankModel::build,
    doc: "virtually-indexed AM with page coloring; translation at the coherence boundary",
};

/// The paper's proposal: no physical addresses, home-side DLB inside the
/// protocol (paper §4).
pub static V_COMA_SPEC: SchemeSpec = SchemeSpec {
    key: "vcoma",
    label: "V-COMA",
    order: 50,
    paper: true,
    virtual_flc: true,
    virtual_slc: true,
    virtual_am: true,
    virtual_protocol: true,
    writebacks_translate: false,
    has_private_tlb: false,
    alloc: AllocPolicy::Directory,
    translate_at: XlatePoint::InProtocol,
    build_model: BankModel::build,
    doc: "no physical addresses; shared home-side DLB inside the protocol",
};

/// Victima-style cache-resident translations (Kanellopoulos et al., MICRO
/// 2023): an L0-placed TLB whose evicted entries spill into the SLC, so a
/// TLB miss that hits the spill is serviced at SLC latency instead of a
/// full page-table walk.
pub static VICTIMA_SPEC: SchemeSpec = SchemeSpec {
    key: "victima",
    label: "Victima",
    order: 60,
    paper: false,
    virtual_flc: false,
    virtual_slc: false,
    virtual_am: false,
    virtual_protocol: false,
    writebacks_translate: false,
    has_private_tlb: true,
    alloc: AllocPolicy::RoundRobin,
    translate_at: XlatePoint::EveryRef,
    build_model: VictimaModel::build,
    doc: "L0 placement with evicted TLB entries spilled into the SLC (Victima-style)",
};

/// Multi-page-size TLB: per-size 4K/2M/1G sub-TLBs with per-size reach
/// and walk latency, at the L0 placement.
pub static MPS_TLB_SPEC: SchemeSpec = SchemeSpec {
    key: "mps_tlb",
    label: "MPS-TLB",
    order: 70,
    paper: false,
    virtual_flc: false,
    virtual_slc: false,
    virtual_am: false,
    virtual_protocol: false,
    writebacks_translate: false,
    has_private_tlb: true,
    alloc: AllocPolicy::RoundRobin,
    translate_at: XlatePoint::EveryRef,
    build_model: MpsModel::build,
    doc: "multi-page-size TLB (4K/2M/1G sub-TLBs, per-size reach and walk latency)",
};

/// Every scheme, in declaration order (listings sort by `order`).
static BUILTINS: [&SchemeSpec; 8] = [
    &L0_TLB_SPEC,
    &L1_TLB_SPEC,
    &L2_TLB_SPEC,
    &L2_TLB_NO_WB_SPEC,
    &L3_TLB_SPEC,
    &V_COMA_SPEC,
    &VICTIMA_SPEC,
    &MPS_TLB_SPEC,
];

fn snapshot() -> Vec<&'static SchemeSpec> {
    let mut v = BUILTINS.to_vec();
    v.sort_by_key(|s| (s.order, s.key));
    v
}

/// Every registered scheme, ordered by `(order, key)`.
pub fn all_schemes() -> Vec<Scheme> {
    snapshot().into_iter().map(Scheme::from_spec).collect()
}

/// The paper's six schemes in presentation order.
pub fn paper_schemes() -> Vec<Scheme> {
    snapshot().into_iter().filter(|s| s.paper).map(Scheme::from_spec).collect()
}

/// Looks a scheme up by stable key or paper label (exact match).
pub fn get(name: &str) -> Option<Scheme> {
    snapshot()
        .into_iter()
        .find(|s| s.key == name || s.label == name)
        .map(Scheme::from_spec)
}

/// The stable keys of every registered scheme, in presentation order.
pub fn valid_keys() -> Vec<&'static str> {
    snapshot().into_iter().map(|s| s.key).collect()
}

/// An error from [`SchemeSet::parse`]: the offending name plus the valid
/// keys, rendered as the one-line message the CLI prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeParseError {
    /// The name that matched no registered scheme.
    pub unknown: String,
    /// Valid keys at the time of parsing.
    pub valid: Vec<&'static str>,
}

impl std::fmt::Display for SchemeParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown scheme '{}' (valid: {})", self.unknown, self.valid.join(", "))
    }
}

impl std::error::Error for SchemeParseError {}

/// A parsed, order-normalised selection of schemes — the value of the
/// CLI's `--schemes a,b,c` flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeSet {
    members: Vec<Scheme>,
}

impl SchemeSet {
    /// Parses a comma-separated list of keys or labels. Duplicates
    /// collapse; the result is ordered by the registry's presentation
    /// order regardless of input order.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemeParseError`] naming the first unknown entry.
    pub fn parse(s: &str) -> Result<SchemeSet, SchemeParseError> {
        let mut members = Vec::new();
        for name in s.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            let scheme = get(name).ok_or_else(|| SchemeParseError {
                unknown: name.to_string(),
                valid: valid_keys(),
            })?;
            if !members.contains(&scheme) {
                members.push(scheme);
            }
        }
        members.sort();
        Ok(SchemeSet { members })
    }

    /// `true` if the set selects `scheme`.
    pub fn contains(&self, scheme: Scheme) -> bool {
        self.members.contains(&scheme)
    }

    /// The selected schemes in presentation order.
    pub fn schemes(&self) -> &[Scheme] {
        &self.members
    }

    /// `true` if nothing was selected.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Keeps only the members of `roster` that this set selects,
    /// preserving `roster`'s order.
    pub fn filter(&self, roster: &[Scheme]) -> Vec<Scheme> {
        roster.iter().copied().filter(|s| self.contains(*s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schemes_in_paper_order() {
        let labels: Vec<&str> = paper_schemes().iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            ["L0-TLB", "L1-TLB", "L2-TLB", "L2-TLB/no_wback", "L3-TLB", "V-COMA"]
        );
    }

    #[test]
    fn all_schemes_extends_the_paper_set() {
        let all = all_schemes();
        let paper = paper_schemes();
        assert!(all.len() >= paper.len() + 2, "two post-1998 schemes ship built in");
        assert!(paper.iter().all(|p| all.contains(p)));
        let keys: Vec<&str> = all.iter().map(|s| s.key()).collect();
        assert!(keys.contains(&"victima") && keys.contains(&"mps_tlb"));
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(all, sorted, "listing is presentation-ordered");
    }

    #[test]
    fn lookup_by_key_and_label() {
        for s in all_schemes() {
            assert_eq!(get(s.key()), Some(s));
            assert_eq!(get(s.label()), Some(s));
        }
        assert_eq!(get("no_such_scheme"), None);
    }

    #[test]
    fn scheme_set_parses_dedups_and_orders() {
        let set = SchemeSet::parse("vcoma, l0_tlb,vcoma").unwrap();
        let keys: Vec<&str> = set.schemes().iter().map(|s| s.key()).collect();
        assert_eq!(keys, ["l0_tlb", "vcoma"], "deduped and registry-ordered");
        assert!(set.contains(get("vcoma").unwrap()));
        assert!(!set.contains(get("l3_tlb").unwrap()));
        assert!(SchemeSet::parse("").unwrap().is_empty());
    }

    #[test]
    fn scheme_set_rejects_unknown_names_listing_valid_keys() {
        let err = SchemeSet::parse("l0_tlb,bogus").unwrap_err();
        assert_eq!(err.unknown, "bogus");
        let msg = err.to_string();
        assert!(msg.starts_with("unknown scheme 'bogus'"), "{msg}");
        for key in valid_keys() {
            assert!(msg.contains(key), "error must list {key}: {msg}");
        }
    }

    #[test]
    fn filter_preserves_roster_order() {
        let set = SchemeSet::parse("vcoma,l0_tlb").unwrap();
        let roster = paper_schemes();
        let filtered = set.filter(&roster);
        let keys: Vec<&str> = filtered.iter().map(|s| s.key()).collect();
        assert_eq!(keys, ["l0_tlb", "vcoma"]);
    }
}
