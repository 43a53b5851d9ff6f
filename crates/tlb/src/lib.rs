//! TLB / DLB models and the composable translation-scheme plugin API.
//!
//! The paper's study varies *where* the translation structure sits and what
//! it maps:
//!
//! * a **TLB** (Translation Lookaside Buffer) caches virtual-page →
//!   physical-frame mappings and is private to a node (`L0`–`L3` schemes);
//! * a **DLB** (Directory Lookaside Buffer) caches virtual-page →
//!   directory-page mappings at the *home node* and is effectively shared by
//!   all nodes (V-COMA).
//!
//! Both are structurally identical presence caches over virtual page
//! numbers, provided here as [`Tlb`]. The paper evaluates fully-associative
//! (random replacement) and direct-mapped organisations ([`TlbOrg`]) across
//! sizes 8–512; a 0-entry TLB (every access misses) models the
//! software-managed scheme of Jacob & Mudge that the paper cites as a
//! degenerate `L2-TLB`.
//!
//! Since the scheme-plugin redesign a translation scheme is *data plus a
//! model*, not an enum variant:
//!
//! * [`SchemeSpec`] describes a scheme — identity (stable key, paper
//!   label, presentation order), structural predicates (which levels are
//!   virtual, writeback behaviour, allocation policy) and the point in the
//!   access path where translation happens ([`XlatePoint`]);
//! * a [`TranslationModel`] owns a node's translation state and its
//!   miss-latency schedule ([`BankModel`] for the paper's uniform-penalty
//!   bank, [`VictimaModel`] for SLC-spilled translations, [`MpsModel`] for
//!   the multi-page-size TLB);
//! * the [`registry`] holds every scheme and derives all
//!   rosters ([`paper_schemes`], [`all_schemes`]) and CLI parsing
//!   ([`SchemeSet`], `Scheme::from_str`);
//! * [`Scheme`] is the copyable handle the rest of the workspace passes
//!   around.
//!
//! # Example
//!
//! ```
//! use vcoma_tlb::{Tlb, TlbOrg};
//! use vcoma_types::VPage;
//!
//! let mut tlb = Tlb::new(8, TlbOrg::FullyAssociative, 1);
//! assert!(!tlb.translate(VPage::new(3))); // cold miss, then refilled
//! assert!(tlb.translate(VPage::new(3))); // hit
//! assert_eq!(tlb.stats().misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod model;
pub mod registry;
mod scheme;
mod spec;
mod tlb;

pub use bank::TlbBank;
pub use model::{
    classify, BankModel, ModelParams, MpsModel, PageSize, TranslationModel, VictimaModel, Xlation,
};
pub use registry::{
    all_schemes, paper_schemes, SchemeParseError, SchemeSet,
};
pub use scheme::Scheme;
pub use spec::{AllocPolicy, SchemeSpec, XlatePoint};
pub use tlb::{Tlb, TlbOrg, TlbStats};
