//! The address-translation scheme handle.
//!
//! [`Scheme`] is a cheap copyable handle onto a `'static`
//! [`SchemeSpec`]: the paper's six options ship as associated constants
//! ([`Scheme::L0_TLB`] … [`Scheme::V_COMA`]), the first two post-1998
//! schemes as [`Scheme::VICTIMA`] and [`Scheme::MPS_TLB`], and a further
//! scheme is one more spec added to the registry's `BUILTINS`. Identity,
//! ordering and hashing all key off the spec's stable `key`, and
//! `Display` prints the paper label — the bytes every golden fixture
//! depends on.

use crate::registry;
use crate::spec::SchemeSpec;

/// A handle onto a registered translation scheme. See the module docs.
#[derive(Clone, Copy)]
pub struct Scheme(&'static SchemeSpec);

impl Scheme {
    /// Conventional TLB before the (physical) first-level cache.
    pub const L0_TLB: Scheme = Scheme(&registry::L0_TLB_SPEC);
    /// Virtual first-level cache, TLB between FLC and physical SLC.
    pub const L1_TLB: Scheme = Scheme(&registry::L1_TLB_SPEC);
    /// Virtual FLC + SLC, TLB at the SLC→memory boundary; writebacks
    /// translate.
    pub const L2_TLB: Scheme = Scheme(&registry::L2_TLB_SPEC);
    /// L2-TLB whose writebacks carry physical pointers (no TLB on the
    /// writeback path).
    pub const L2_TLB_NO_WB: Scheme = Scheme(&registry::L2_TLB_NO_WB_SPEC);
    /// Virtual caches and virtually-indexed attraction memory with page
    /// coloring.
    pub const L3_TLB: Scheme = Scheme(&registry::L3_TLB_SPEC);
    /// V-COMA: no physical addresses; home-side DLB inside the protocol.
    pub const V_COMA: Scheme = Scheme(&registry::V_COMA_SPEC);
    /// Victima-style: evicted TLB entries spill into the SLC as
    /// cache-resident translations.
    pub const VICTIMA: Scheme = Scheme(&registry::VICTIMA_SPEC);
    /// Multi-page-size TLB (4K/2M/1G sub-TLBs with per-size reach and
    /// walk latency).
    pub const MPS_TLB: Scheme = Scheme(&registry::MPS_TLB_SPEC);

    /// Wraps a registered spec. Internal: external code obtains handles
    /// from the constants or the registry.
    pub(crate) const fn from_spec(spec: &'static SchemeSpec) -> Scheme {
        Scheme(spec)
    }

    /// The full descriptor.
    pub const fn spec(&self) -> &'static SchemeSpec {
        self.0
    }

    /// Stable machine-readable key (`l0_tlb`, `vcoma`, …).
    pub const fn key(&self) -> &'static str {
        self.0.key
    }

    /// The scheme's name as used in the paper's tables and figures.
    pub const fn label(&self) -> &'static str {
        self.0.label
    }

    /// `true` for the six schemes evaluated by the 1998 paper.
    pub const fn is_paper(&self) -> bool {
        self.0.paper
    }

    /// Does the node keep a private TLB? (False only for V-COMA, whose
    /// DLB lives at the home node.)
    pub const fn has_private_tlb(&self) -> bool {
        self.0.has_private_tlb
    }

    /// Is the attraction memory virtually indexed?
    pub const fn virtual_am(&self) -> bool {
        self.0.virtual_am
    }

    /// Is the second-level cache virtually addressed?
    pub const fn virtual_slc(&self) -> bool {
        self.0.virtual_slc
    }

    /// Is the first-level cache virtually addressed?
    pub const fn virtual_flc(&self) -> bool {
        self.0.virtual_flc
    }

    /// Does the coherence protocol run on virtual addresses (translation
    /// at the home node)?
    pub const fn virtual_protocol(&self) -> bool {
        self.0.virtual_protocol
    }

    /// Do SLC writebacks need translation?
    pub const fn writebacks_translate(&self) -> bool {
        self.0.writebacks_translate
    }
}

impl PartialEq for Scheme {
    fn eq(&self, other: &Self) -> bool {
        // Pointer equality first (the common case: both handles point at
        // the same registered spec), falling back to the stable key.
        std::ptr::eq(self.0, other.0) || self.0.key == other.0.key
    }
}

impl Eq for Scheme {}

impl PartialOrd for Scheme {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheme {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0.order, self.0.key).cmp(&(other.0.order, other.0.key))
    }
}

impl std::hash::Hash for Scheme {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.key.hash(state);
    }
}

impl std::fmt::Debug for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scheme({})", self.0.key)
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Scheme {
    type Err = registry::SchemeParseError;

    /// Parses a stable key (`l0_tlb`) or a paper label (`L0-TLB`),
    /// consulting the full registry so post-1998 schemes parse too.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        registry::get(s).ok_or_else(|| registry::SchemeParseError {
            unknown: s.to_string(),
            valid: registry::valid_keys(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{all_schemes, paper_schemes};
    use std::str::FromStr;

    #[test]
    fn labels_match_paper() {
        assert_eq!(Scheme::L0_TLB.to_string(), "L0-TLB");
        assert_eq!(Scheme::L1_TLB.to_string(), "L1-TLB");
        assert_eq!(Scheme::L2_TLB.to_string(), "L2-TLB");
        assert_eq!(Scheme::L2_TLB_NO_WB.to_string(), "L2-TLB/no_wback");
        assert_eq!(Scheme::L3_TLB.to_string(), "L3-TLB");
        assert_eq!(Scheme::V_COMA.to_string(), "V-COMA");
    }

    #[test]
    fn virtuality_increases_with_level() {
        // Each step up the hierarchy makes strictly more levels virtual.
        let order = [Scheme::L0_TLB, Scheme::L1_TLB, Scheme::L2_TLB, Scheme::L3_TLB];
        let degree = |s: Scheme| {
            [s.virtual_flc(), s.virtual_slc(), s.virtual_am()]
                .into_iter()
                .filter(|&b| b)
                .count()
        };
        for pair in order.windows(2) {
            assert!(degree(pair[0]) < degree(pair[1]));
        }
        assert!(Scheme::V_COMA.virtual_protocol());
    }

    #[test]
    fn only_plain_l2_translates_writebacks() {
        for s in all_schemes() {
            assert_eq!(s.writebacks_translate(), s == Scheme::L2_TLB, "{s}");
        }
    }

    #[test]
    fn vcoma_has_no_private_tlb() {
        for s in all_schemes() {
            assert_eq!(s.has_private_tlb(), s != Scheme::V_COMA, "{s}");
        }
    }

    #[test]
    fn all_schemes_distinct() {
        let all = all_schemes();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
                assert_ne!(a.label(), b.label());
                assert_ne!(a.key(), b.key());
            }
        }
    }

    #[test]
    fn parse_round_trips_keys_and_labels() {
        for s in all_schemes() {
            assert_eq!(Scheme::from_str(s.key()).unwrap(), s, "key {}", s.key());
            assert_eq!(Scheme::from_str(s.label()).unwrap(), s, "label {}", s.label());
        }
        let err = Scheme::from_str("zap").unwrap_err();
        assert!(err.to_string().contains("unknown scheme 'zap'"));
    }

    #[test]
    fn equality_hash_and_order_key_off_the_spec() {
        use std::collections::HashSet;
        let set: HashSet<Scheme> = all_schemes().into_iter().collect();
        assert_eq!(set.len(), all_schemes().len());
        assert_eq!(Scheme::from_str("l0_tlb").unwrap(), Scheme::L0_TLB);
        assert!(Scheme::L0_TLB < Scheme::V_COMA);
        assert!(Scheme::V_COMA < Scheme::VICTIMA, "paper schemes precede post-1998 ones");
        assert_eq!(format!("{:?}", Scheme::V_COMA), "Scheme(vcoma)");
    }

    #[test]
    fn paper_roster_is_the_prefix_of_the_full_roster() {
        let all = all_schemes();
        let paper = paper_schemes();
        assert_eq!(&all[..paper.len()], &paper[..]);
    }
}
