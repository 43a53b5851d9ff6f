//! The scheme descriptor: everything the machine needs to know about a
//! translation scheme, as data.
//!
//! A [`SchemeSpec`] is a `'static` value carrying a scheme's identity (a
//! stable key, the label used in every table/figure, and a presentation
//! order), its *structural* predicates (which cache levels are virtually
//! addressed, whether writebacks must translate, how physical pages are
//! allocated), the point in the access path at which translation happens,
//! and a constructor for the per-node [`TranslationModel`] that owns the
//! actual lookup/fill/shootdown behaviour and the miss-latency schedule.
//!
//! The simulator never branches on *which* scheme is running — it only
//! consults these fields — so a new scheme is a new `SchemeSpec` plus
//! (optionally) a new model: add your spec to the registry's `BUILTINS`.

use crate::model::{ModelParams, TranslationModel};

/// Where physical (or directory) pages for a scheme come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocPolicy {
    /// Frames handed out round-robin across nodes (the paper's default for
    /// physically-allocated schemes).
    RoundRobin,
    /// Page-colored frames so virtual and physical indices agree in the
    /// attraction memory (L3-TLB).
    Coloring,
    /// No physical frames at all: pages map to *directory* pages chosen by
    /// virtual address (V-COMA).
    Directory,
}

/// The point in the memory-access path at which a scheme consults its
/// translation structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XlatePoint {
    /// Before the (physical) first-level cache: every reference translates.
    EveryRef,
    /// After a first-level-cache miss (virtual FLC, physical SLC).
    FlcMiss,
    /// After a second-level-cache miss (virtual FLC+SLC) — also covers the
    /// write-upgrade corner where an SLC hit still needs a coherence
    /// transaction.
    SlcMiss,
    /// Only when a reference leaves the node as a coherence transaction
    /// (virtually-indexed attraction memory, L3-TLB).
    CoherenceTxn,
    /// Never at the processor: translation lives inside the coherence
    /// protocol at the home node (V-COMA's DLB).
    InProtocol,
}

/// A translation scheme descriptor. See the module docs.
///
/// All fields are public so a scheme is declared as one `static` value.
#[derive(Debug, Clone, Copy)]
pub struct SchemeSpec {
    /// Stable machine-readable key (`l0_tlb`, `vcoma`, …) used by
    /// `SchemeSet::parse` and the `--schemes` CLI flag.
    pub key: &'static str,
    /// The presentation label used in every table and figure (`L0-TLB`,
    /// `V-COMA`, …). Golden fixtures depend on these bytes.
    pub label: &'static str,
    /// Presentation order: registries sort by `(order, key)`. The paper's
    /// six schemes occupy 0–50; post-1998 schemes start at 60.
    pub order: u32,
    /// `true` for the six schemes evaluated by the 1998 paper; paper
    /// artifacts (tables 1–4, figures 8–11) iterate only these.
    pub paper: bool,
    /// First-level cache is virtually addressed.
    pub virtual_flc: bool,
    /// Second-level cache is virtually addressed.
    pub virtual_slc: bool,
    /// Attraction memory is virtually indexed.
    pub virtual_am: bool,
    /// The coherence protocol itself runs on virtual addresses and
    /// translates at the home node (V-COMA).
    pub virtual_protocol: bool,
    /// SLC writebacks must translate (plain L2-TLB's penalty).
    pub writebacks_translate: bool,
    /// The scheme keeps a private per-node TLB (false for V-COMA, whose
    /// DLB is home-side and shared).
    pub has_private_tlb: bool,
    /// Physical (or directory) page allocation policy.
    pub alloc: AllocPolicy,
    /// Where in the access path translation happens.
    pub translate_at: XlatePoint,
    /// Constructs the per-node translation model. Called once per node by
    /// `Machine::new` with that node's derived seed and the machine's
    /// timing parameters.
    pub build_model: fn(&ModelParams<'_>) -> Box<dyn TranslationModel>,
    /// One-line description shown by `--help`-style listings and docs.
    pub doc: &'static str,
}

impl SchemeSpec {
    /// `true` if this scheme translates at the given point *or earlier on
    /// the same path*. Used by the machine to decide whether a reference
    /// must have translated before a coherence transaction leaves the node:
    /// `SlcMiss` schemes translate there too (the SLC-write-upgrade
    /// corner), while `CoherenceTxn` schemes translate only there.
    pub fn translates_before_txn(&self) -> bool {
        matches!(self.translate_at, XlatePoint::SlcMiss | XlatePoint::CoherenceTxn)
    }

    /// `true` if this scheme translates at exactly `point`.
    pub fn translates_at(&self, point: XlatePoint) -> bool {
        self.translate_at == point
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slc_miss_and_coherence_txn_translate_before_transactions() {
        for s in crate::registry::all_schemes() {
            let spec = s.spec();
            let expect = matches!(
                spec.translate_at,
                XlatePoint::SlcMiss | XlatePoint::CoherenceTxn
            );
            assert_eq!(spec.translates_before_txn(), expect, "{s}");
            assert!(spec.translates_at(spec.translate_at));
        }
    }
}
