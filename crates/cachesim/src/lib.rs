//! Set-associative cache structures for the V-COMA simulator.
//!
//! This crate provides the building blocks of the simulated machine's
//! processor caches: the generic LRU [`SetAssocArray`] (the FLC, the SLC
//! and the Victima spill; the attraction memories use the coherence
//! crate's packed array) and the two processor-cache models of the
//! paper's baseline machine:
//!
//! * [`Flc`] — a direct-mapped, write-through, no-write-allocate first-level
//!   cache (16 KB / 32-byte blocks in the paper);
//! * [`Slc`] — a set-associative, write-back, write-allocate second-level
//!   cache (64 KB / 4-way / 64-byte blocks in the paper).
//!
//! The structures are address-space agnostic: they operate on *block
//! numbers* (`u64`). The simulator quantises virtual or physical byte
//! addresses to each level's block size, so the same code serves the
//! physically-indexed caches of `L0-TLB` and the virtually-indexed caches of
//! `L1`–`L3` and V-COMA.
//!
//! # Example
//!
//! ```
//! use vcoma_cachesim::{Flc, LookupResult};
//! use vcoma_types::CacheGeometry;
//!
//! let geom = CacheGeometry::new(16 << 10, 1, 32)?;
//! let mut flc = Flc::new(geom);
//! assert_eq!(flc.read(0x40), LookupResult::Miss);
//! assert_eq!(flc.read(0x40), LookupResult::Hit);
//! # Ok::<(), vcoma_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flc;
mod set_assoc;
mod slc;
mod stats;

pub use flc::Flc;
pub use set_assoc::SetAssocArray;
pub use slc::{Slc, SlcAccess, Writeback};
pub use stats::CacheStats;

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LookupResult {
    /// The block was present.
    Hit,
    /// The block was absent.
    Miss,
}

impl LookupResult {
    /// Returns `true` on [`LookupResult::Hit`].
    pub const fn is_hit(self) -> bool {
        matches!(self, LookupResult::Hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_result_predicate() {
        assert!(LookupResult::Hit.is_hit());
        assert!(!LookupResult::Miss.is_hit());
    }
}
