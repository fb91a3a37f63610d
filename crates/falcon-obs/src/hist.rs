//! Fixed-bucket log-scale latency histogram.
//!
//! Values (virtual-clock nanoseconds) are binned HDR-style: each power
//! of two is split into `SUB = 16` linear sub-buckets, giving a bounded
//! relative error of 1/16 while covering the full `u64` range in 976
//! buckets. Values below `2 * SUB = 32` are recorded exactly. Recording
//! is two shifts and an add — cheap enough for the harness commit path.

/// log2 of the number of linear sub-buckets per power of two.
pub const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power of two.
pub const SUB: u64 = 1 << SUB_BITS;
/// Total number of buckets needed to cover all of `u64`: the largest
/// shift is `64 - (SUB_BITS + 1)`, each shift row holds `SUB` indices,
/// and the exact low range occupies the first two rows.
pub const BUCKETS: usize = ((64 - SUB_BITS + 1) as usize) * (SUB as usize);

/// Bucket index for a value. Buckets are contiguous: every `u64` maps
/// to exactly one index in `0..BUCKETS`, and indices are ordered by
/// value (bucket lower bounds are strictly increasing).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    let bits = 64 - v.leading_zeros();
    let shift = bits.saturating_sub(SUB_BITS + 1);
    (shift as usize) * (SUB as usize) + ((v >> shift) as usize)
}

/// Inclusive lower bound of bucket `i` — the smallest value that maps
/// to it. Percentiles report this bound, so they never over-estimate.
#[inline]
pub fn bucket_lower(i: usize) -> u64 {
    if i < 2 * SUB as usize {
        return i as u64;
    }
    let shift = (i as u64 / SUB) - 1;
    ((i as u64) - shift * SUB) << shift
}

/// Width of bucket `i` (1 for the exact low range).
#[inline]
pub fn bucket_width(i: usize) -> u64 {
    if i < 2 * SUB as usize {
        1
    } else {
        1 << ((i as u64 / SUB) - 1)
    }
}

/// A log-scale histogram of `u64` samples with exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of the same value; exactly what `n` calls of
    /// [`Histogram::record`] leave behind.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `p`-th percentile (0 < p <= 100), reported as the lower
    /// bound of the bucket holding the rank-`ceil(p/100 * count)`
    /// sample. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_lower(i);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_range_is_exact() {
        for v in 0..32u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
            assert_eq!(bucket_width(v as usize), 1);
        }
    }

    #[test]
    fn buckets_are_contiguous_and_ordered() {
        // Every bucket's lower bound maps back to itself, widths tile
        // the range with no gaps, and the last bucket reaches u64::MAX.
        for i in 0..BUCKETS {
            let lo = bucket_lower(i);
            assert_eq!(bucket_of(lo), i, "lower bound of bucket {i}");
            let hi = lo + (bucket_width(i) - 1);
            assert_eq!(bucket_of(hi), i, "upper bound of bucket {i}");
            if i + 1 < BUCKETS {
                assert_eq!(bucket_lower(i + 1), hi.wrapping_add(1));
            } else {
                assert_eq!(hi, u64::MAX);
            }
        }
    }

    #[test]
    fn relative_error_bounded() {
        for v in [100u64, 1_000, 65_537, 1 << 40, u64::MAX / 3] {
            let lo = bucket_lower(bucket_of(v));
            assert!(lo <= v);
            // Bucket width is at most lower_bound / 16.
            assert!((v - lo) as f64 <= lo as f64 / 16.0 + 1.0, "v={v} lo={lo}");
        }
    }

    #[test]
    fn percentile_of_known_data() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // 1..=31 are exact; p50 = rank 50 → bucket of 50.
        assert_eq!(h.percentile(50.0), bucket_lower(bucket_of(50)));
        assert_eq!(h.percentile(1.0), 1);
        assert_eq!(h.percentile(100.0), bucket_lower(bucket_of(100)));
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [3u64, 17, 900, 40_000, 1 << 33] {
            a.record(v);
            both.record(v);
        }
        for v in [5u64, 5, 123_456] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }
}
