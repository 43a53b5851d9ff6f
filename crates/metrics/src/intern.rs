//! A global string interner for `&'static str` vocabulary fields.
//!
//! Span and event kinds are `&'static str` literals on the recording
//! path (zero-cost to copy, usable as `BTreeMap` keys in the analyzers).
//! Deserializing a trace back from JSON needs to mint equivalent
//! `'static` strings for kinds read at runtime; [`intern`] does so by
//! leaking each *distinct* string once and handing out the shared
//! reference afterwards. The kinds the simulator records are a small
//! closed vocabulary, but a stored trace can carry any strings, so the
//! interner holds at most [`MAX_INTERNED`] strings of at most
//! [`MAX_INTERNED_LEN`] bytes each and refuses the rest: the leaked
//! footprint stays bounded whatever a store feeds it, and the `Mutex` is
//! far off any fast path.
//!
//! The interner starts out holding the simulator's own vocabulary,
//! [`SEEDED_KINDS`], so stored traces full of other strings can fill the
//! cap but never make a trace of the simulator's own kinds undecodable.

use std::collections::BTreeSet;
use std::sync::Mutex;

/// The most distinct strings the process-wide interner ever holds.
pub const MAX_INTERNED: usize = 256;

/// The longest string, in bytes, the interner accepts.
pub const MAX_INTERNED_LEN: usize = 64;

/// Every span kind the simulator records: the root kinds of a traced
/// reference, the interval kinds of its charge sites, the protocol's
/// message labels (`MsgKind::label`) and its fault-recovery windows. They
/// are interned before any other string and count towards
/// [`MAX_INTERNED`].
pub const SEEDED_KINDS: [&str; 27] = [
    // Roots.
    "read",
    "write",
    // Intervals.
    "issue",
    "flc",
    "slc",
    "am",
    "tlb_miss",
    "wb_translation",
    "dlb_lookup",
    "directory",
    "net",
    "queue",
    "fault",
    // Message hops.
    "read-req",
    "write-req",
    "upgrade-req",
    "block-reply",
    "ack",
    "invalidate",
    "inject",
    "inject-forward",
    "forward-req",
    "writeback",
    "nack",
    // Fault-recovery windows.
    "backoff",
    "timeout",
    "retry",
];

static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// Returns a `'static` string equal to `s`, leaking at most one
/// allocation per distinct input ever passed; `None` if `s` is longer
/// than [`MAX_INTERNED_LEN`] or new once [`MAX_INTERNED`] strings are
/// held.
///
/// # Panics
///
/// Panics if the interner's mutex was poisoned by a panicking thread.
#[must_use]
pub fn intern(s: &str) -> Option<&'static str> {
    let mut set = INTERNED.lock().expect("string interner poisoned");
    if set.is_empty() {
        set.extend(SEEDED_KINDS);
    }
    if let Some(found) = set.get(s) {
        return Some(found);
    }
    if s.len() > MAX_INTERNED_LEN || set.len() >= MAX_INTERNED {
        return None;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    set.insert(leaked);
    Some(leaked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_pointer_stable() {
        let a = intern("tlb_miss_xyz").expect("interned");
        let b = intern(&String::from("tlb_miss_xyz")).expect("interned");
        assert_eq!(a, b);
        assert!(std::ptr::eq(a, b), "same distinct string interns to one allocation");
        let c = intern("other_kind_xyz").expect("interned");
        assert_ne!(a, c);
    }

    #[test]
    fn seeded_kinds_intern_to_themselves() {
        for kind in SEEDED_KINDS {
            assert_eq!(intern(kind), Some(kind));
        }
        let distinct: BTreeSet<&str> = SEEDED_KINDS.into_iter().collect();
        assert_eq!(distinct.len(), SEEDED_KINDS.len(), "no kind is listed twice");
        assert!(SEEDED_KINDS.len() < MAX_INTERNED);
    }
}
