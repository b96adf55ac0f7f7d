//! Log₂-bucketed histograms for cycle costs and chain depths.

/// A histogram over `u64` values with power-of-two buckets.
///
/// Bucket 0 holds exact zeros; bucket `k` (for `k >= 1`) holds values in
/// `[2^(k-1), 2^k - 1]`. Alongside the buckets the exact count, sum,
/// minimum and maximum are maintained, so the mean is exact even though
/// the distribution is bucketed.
#[derive(Clone, Debug)]
pub struct CycleHistogram {
    buckets: [u64; Self::NUM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for CycleHistogram {
    fn default() -> Self {
        CycleHistogram {
            buckets: [0; Self::NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl CycleHistogram {
    /// Bucket 0 plus one bucket per bit position of a `u64`.
    pub const NUM_BUCKETS: usize = 65;

    /// A fresh, empty histogram.
    pub fn new() -> CycleHistogram {
        CycleHistogram::default()
    }

    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive value range `[lo, hi]` of bucket `index`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        if index == 0 {
            (0, 0)
        } else {
            let lo = 1u64 << (index - 1);
            let hi = lo.saturating_mul(2).saturating_sub(1).max(lo);
            (lo, hi)
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of the same `value`, exactly as `n`
    /// calls of [`CycleHistogram::record`] would.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other` into this histogram: buckets, count and sum add,
    /// and min and max widen. Both sides bucket on the same log₂
    /// boundaries, so merging the histograms of two runs equals the
    /// histogram of their concatenation.
    pub fn merge(&mut self, other: &CycleHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `p` in `[0, 1]`, resolved to bucket
    /// granularity: the upper bound of the bucket holding the rank-`p`
    /// observation, clamped to the exact observed `[min, max]`. Zero
    /// when the histogram is empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (_, hi, c) in self.nonzero_buckets() {
            seen += c;
            if seen >= rank {
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Iterates the non-empty buckets as `(lo, hi, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, *c)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(CycleHistogram::bucket_of(0), 0);
        assert_eq!(CycleHistogram::bucket_of(1), 1);
        assert_eq!(CycleHistogram::bucket_of(2), 2);
        assert_eq!(CycleHistogram::bucket_of(3), 2);
        assert_eq!(CycleHistogram::bucket_of(4), 3);
        assert_eq!(CycleHistogram::bucket_of(u64::MAX), 64);
        assert_eq!(CycleHistogram::bucket_bounds(1), (1, 1));
        assert_eq!(CycleHistogram::bucket_bounds(2), (2, 3));
        assert_eq!(CycleHistogram::bucket_bounds(3), (4, 7));
    }

    #[test]
    fn stats_are_exact() {
        let mut h = CycleHistogram::new();
        for v in [0u64, 1, 3, 8, 8] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 20);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 8);
        assert!((h.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = CycleHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn nonzero_buckets_cover_all_observations() {
        let mut h = CycleHistogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        let total: u64 = h.nonzero_buckets().map(|(_, _, c)| c).sum();
        assert_eq!(total, 100);
        // Buckets partition: each value lies in exactly one reported range.
        for v in 0..100u64 {
            let containing = h
                .nonzero_buckets()
                .filter(|(lo, hi, _)| *lo <= v && v <= *hi)
                .count();
            assert_eq!(containing, 1, "value {v}");
        }
    }
}
