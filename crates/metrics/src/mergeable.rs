//! The workspace-wide accumulation trait.

/// A statistics value that can absorb another instance of itself.
///
/// Per-node statistics throughout the workspace are
/// accumulated into machine-wide totals (and sweep results from parallel
/// jobs are folded in deterministic input order). Every such type
/// implements `Mergeable` so the accumulation sites are uniform instead
/// of each crate growing its own ad-hoc `merge` inherent method.
///
/// Implementations must be commutative up to their own documented
/// semantics: counters add, minima take the smaller, maxima the larger.
pub trait Mergeable {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: &Self);
}

impl Mergeable for u64 {
    fn merge(&mut self, other: &Self) {
        *self += other;
    }
}

impl<T: Mergeable, const N: usize> Mergeable for [T; N] {
    fn merge(&mut self, other: &Self) {
        for (a, b) in self.iter_mut().zip(other.iter()) {
            a.merge(b);
        }
    }
}

impl<K: Ord + Clone, V: Mergeable + Clone> Mergeable for std::collections::BTreeMap<K, V> {
    fn merge(&mut self, other: &Self) {
        for (k, v) in other {
            match self.get_mut(k) {
                Some(slot) => slot.merge(v),
                None => {
                    self.insert(k.clone(), v.clone());
                }
            }
        }
    }
}
