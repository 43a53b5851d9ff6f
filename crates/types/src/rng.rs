//! Deterministic pseudo-random number generation.
//!
//! Every source of randomness in the simulator (random TLB/DLB replacement,
//! random injection forwarding, workload permutations) draws from a seeded
//! [`DetRng`] so that a run is a pure function of its configuration and
//! seed. The generator is SplitMix64: tiny, fast, and with good statistical
//! properties for simulation purposes.

/// A deterministic 64-bit pseudo-random number generator (SplitMix64).
///
/// ```
/// use vcoma_types::DetRng;
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub const fn new(seed: u64) -> Self {
        DetRng { state: seed }
    }

    /// Returns the next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniformly distributed value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire's multiply-shift rejection-free variant is overkill here;
        // the bias of plain modulo is ≤ bound/2^64 which is negligible for
        // simulator-sized bounds. Keep it simple and branch-free.
        self.next_u64() % bound
    }

    /// Returns a uniformly distributed `usize` in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "choose requires a non-empty slice");
        &slice[self.gen_index(slice.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            assert!(r.gen_range(10) < 10);
        }
        // bound of 1 always yields 0
        assert_eq!(r.gen_range(1), 0);
    }

    #[test]
    #[should_panic(expected = "gen_range bound must be positive")]
    fn gen_range_zero_panics() {
        DetRng::new(0).gen_range(0);
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = DetRng::new(11);
        for _ in 0..1000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = DetRng::new(5);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // And with a reasonable seed it actually permutes something.
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_picks_from_slice() {
        let mut r = DetRng::new(21);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(r.choose(&items)));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut r = DetRng::new(77);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[r.gen_index(8)] += 1;
        }
        for &c in &counts {
            // each bucket expects 1000; allow generous slack
            assert!((700..1300).contains(&c), "bucket count {c} out of range");
        }
    }
}
