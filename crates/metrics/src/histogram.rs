//! Fixed-shape power-of-two histogram.

use crate::Mergeable;
use serde::{Deserialize, Serialize};

/// Number of buckets in every [`Histogram`].
///
/// Bucket `0` holds the value `0`; bucket `i` (for `i >= 1`) holds values
/// in `[2^(i-1), 2^i - 1]`. Bucket `64` therefore holds
/// `[2^63, u64::MAX]` and the shape covers the full `u64` range with no
/// overflow bucket.
pub const BUCKETS: usize = 65;

/// A histogram of `u64` samples with fixed power-of-two bucket edges.
///
/// Because the bucket shape is identical for every instance, two
/// histograms can be [merged](Mergeable) bucket-by-bucket, which is what
/// lets per-node and per-job metrics fold into machine-wide totals
/// without re-binning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self { counts: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Returns the bucket index that `value` falls into.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Returns the inclusive `[lo, hi]` range of bucket `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= BUCKETS`.
    #[must_use]
    pub fn bucket_range(index: usize) -> (u64, u64) {
        assert!(index < BUCKETS, "bucket index {index} out of range");
        match index {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            i => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all recorded samples, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Returns the value at quantile `q` (clamped to `[0, 1]`), or `None`
    /// if the histogram is empty.
    ///
    /// The estimate is the upper edge of the bucket holding the sample of
    /// rank `ceil(q * count)`, clamped to the recorded `[min, max]` — so
    /// it is exact whenever that bucket holds a single distinct value,
    /// never exceeds an observed sample, is monotone in `q`, and depends
    /// only on the bucket counts and extrema, which [`Mergeable::merge`]
    /// combines exactly: merge-then-quantile equals quantile-of-merged.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        quantile_impl(&self.counts, self.count, self.min, self.max, q)
    }

    /// Converts into the serializable snapshot form.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        // Trailing empty buckets carry no information; trimming them keeps
        // the JSON compact without changing merge semantics (missing
        // buckets merge as zero).
        let last = self.counts.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max(),
            buckets: self.counts[..last].to_vec(),
        }
    }
}

impl Mergeable for Histogram {
    fn merge(&mut self, other: &Self) {
        self.counts.merge(&other.counts);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Serializable form of a [`Histogram`].
///
/// `buckets[i]` is the sample count of power-of-two bucket `i` (see
/// [`Histogram::bucket_range`]); trailing empty buckets are omitted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Smallest recorded sample, if any.
    pub min: Option<u64>,
    /// Largest recorded sample, if any.
    pub max: Option<u64>,
    /// Per-bucket sample counts, trailing zeros trimmed.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Returns the value at quantile `q`; see [`Histogram::quantile`].
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        quantile_impl(
            &self.buckets,
            self.count,
            self.min.unwrap_or(u64::MAX),
            self.max.unwrap_or(0),
            q,
        )
    }
}

/// Shared quantile walk over power-of-two bucket counts: find the bucket
/// holding the sample of rank `ceil(q * count)` and report its upper
/// edge, clamped to the recorded extrema.
fn quantile_impl(buckets: &[u64], count: u64, min: u64, max: u64, q: f64) -> Option<u64> {
    if count == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    // The extreme ranks are known exactly; reporting them directly keeps
    // `quantile(0.0) == min` and `quantile(1.0) == max` while preserving
    // monotonicity (every other bucket edge lies between the extrema
    // after clamping).
    if rank == 1 {
        return Some(min);
    }
    if rank == count {
        return Some(max);
    }
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            let (_, hi) = Histogram::bucket_range(i);
            return Some(hi.clamp(min, max));
        }
    }
    // Unreachable when the counts are consistent with `count`; fall back
    // to the recorded maximum rather than panicking on a foreign snapshot.
    Some(max)
}

impl Mergeable for HistogramSnapshot {
    fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_land_in_the_documented_buckets() {
        // Bucket 0 is exactly {0}.
        assert_eq!(Histogram::bucket_index(0), 0);
        // Bucket i >= 1 is [2^(i-1), 2^i - 1].
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        for k in 1..=63u32 {
            let lo = 1u64 << (k - 1);
            let hi = (1u64 << k) - 1;
            assert_eq!(Histogram::bucket_index(lo), k as usize, "lower edge of bucket {k}");
            assert_eq!(Histogram::bucket_index(hi), k as usize, "upper edge of bucket {k}");
        }
        assert_eq!(Histogram::bucket_index(1 << 63), 64);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_ranges_tile_the_u64_domain() {
        let mut expected_lo = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = Histogram::bucket_range(i);
            assert_eq!(lo, expected_lo, "bucket {i} starts where bucket {} ended", i.max(1) - 1);
            assert!(hi >= lo);
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(hi), i);
            if hi == u64::MAX {
                assert_eq!(i, BUCKETS - 1);
                return;
            }
            expected_lo = hi + 1;
        }
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        for v in [0, 1, 6, 74, 272] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 353);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(272));
        let counts = &h.counts;
        assert_eq!(counts[0], 1); // 0
        assert_eq!(counts[1], 1); // 1
        assert_eq!(counts[3], 1); // 6 in [4,7]
        assert_eq!(counts[7], 1); // 74 in [64,127]
        assert_eq!(counts[9], 1); // 272 in [256,511]
    }

    #[test]
    fn merge_adds_buckets_and_widens_extrema() {
        let mut a = Histogram::new();
        a.record(3);
        a.record(100);
        let mut b = Histogram::new();
        b.record(1);
        b.record(100_000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(100_000));
        assert_eq!(a.sum(), 100_104);
    }

    #[test]
    fn quantile_is_exact_on_known_distributions() {
        // Empty histogram has no quantiles.
        assert_eq!(Histogram::new().quantile(0.5), None);

        // Single value: every quantile is that value.
        let mut h = Histogram::new();
        h.record(37);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(37));
        }

        // Two distinct values: the median is the low one, the tail the
        // high one (min/max clamping makes both exact).
        let mut h = Histogram::new();
        h.record(1);
        h.record(100);
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(0.99), Some(100));
        assert_eq!(h.quantile(1.0), Some(100));

        // 100 copies of 15 (the upper edge of bucket [8, 15]) plus one
        // outlier: the body quantiles are exact, and only a rank beyond
        // 100/101 crosses into the tail bucket.
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(15);
        }
        h.record(1000);
        assert_eq!(h.quantile(0.5), Some(15));
        assert_eq!(h.quantile(0.9), Some(15));
        assert_eq!(h.quantile(0.999), Some(1000));

        // Values of the form 2^k - 1 are bucket upper edges, so every
        // rank is exact: the i-th order statistic is reported verbatim.
        let edges = [1u64, 3, 7, 15, 31, 63, 127, 255, 511, 1023];
        let mut h = Histogram::new();
        for v in edges {
            h.record(v);
        }
        assert_eq!(h.quantile(0.1), Some(1));
        assert_eq!(h.quantile(0.5), Some(31));
        assert_eq!(h.quantile(0.8), Some(255));
        assert_eq!(h.quantile(1.0), Some(1023));
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for i in 0..500u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            h.record(x % 10_000);
        }
        let p50 = h.quantile(0.50).unwrap();
        let p90 = h.quantile(0.90).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 <= p90, "p50 {p50} > p90 {p90}");
        assert!(p90 <= p99, "p90 {p90} > p99 {p99}");
        let mut prev = 0;
        for step in 0..=100 {
            let q = f64::from(step) / 100.0;
            let v = h.quantile(q).unwrap();
            assert!(v >= prev, "quantile({q}) = {v} < quantile of previous step {prev}");
            prev = v;
        }
        assert_eq!(h.quantile(0.0), Some(h.min().unwrap()));
        assert_eq!(h.quantile(1.0), Some(h.max().unwrap()));
    }

    #[test]
    fn merge_then_quantile_equals_quantile_of_merged() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        let mut x = 7u64;
        for i in 0..400u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let v = x % 50_000;
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), all.quantile(q), "histogram quantile at q={q}");
            // The snapshot path agrees with the histogram path, both for
            // snapshot-of-merged and merged-snapshots.
            let mut snap = a.snapshot();
            snap.merge(&b.snapshot());
            assert_eq!(snap.quantile(q), all.quantile(q), "snapshot quantile at q={q}");
            assert_eq!(all.snapshot().quantile(q), all.quantile(q), "snapshot round-trip q={q}");
        }
    }

    #[test]
    fn snapshot_trims_trailing_empty_buckets_and_merges() {
        let mut a = Histogram::new();
        a.record(2);
        let mut snap_a = a.snapshot();
        assert_eq!(snap_a.buckets.len(), 3); // buckets 0..=2, bucket 2 holds {2,3}
        let mut b = Histogram::new();
        b.record(300);
        let snap_b = b.snapshot();
        snap_a.merge(&snap_b);
        assert_eq!(snap_a.count, 2);
        assert_eq!(snap_a.min, Some(2));
        assert_eq!(snap_a.max, Some(300));
        // Merged bucket list is as long as the wider operand.
        assert_eq!(snap_a.buckets.len(), snap_b.buckets.len());

        // Snapshot merge agrees with merging the histograms first.
        a.merge(&b);
        assert_eq!(a.snapshot(), snap_a);
    }
}
