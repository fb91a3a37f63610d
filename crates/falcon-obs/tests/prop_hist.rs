//! Property tests: the log-scale histogram against a brute-force
//! sorted-vector oracle, plus exhaustive bucket-boundary checks.

use falcon_obs::hist::{bucket_lower, bucket_of, bucket_width, Histogram, BUCKETS};
use proptest::collection::vec;
use proptest::prelude::*;

/// Oracle: the exact rank-`ceil(p/100 * n)` order statistic.
fn oracle_percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Mix of magnitudes so samples land in exact, mid, and high buckets.
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..32,
        32u64..4096,
        4096u64..=1 << 30,
        (1u64 << 30)..=u64::MAX,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every value maps into the bucket whose [lower, lower+width)
    /// range contains it.
    #[test]
    fn bucket_contains_value(v in any::<u64>()) {
        let i = bucket_of(v);
        let lo = bucket_lower(i);
        prop_assert!(lo <= v);
        prop_assert!(v - lo < bucket_width(i));
    }

    /// p50/p95/p99 report the lower bound of the bucket holding the
    /// oracle order statistic — never above the true percentile, and
    /// within one bucket width below it.
    #[test]
    fn percentiles_track_oracle(values in vec(sample(), 1..200)) {
        let mut h = Histogram::new();
        let mut sorted = values.clone();
        for &v in &values {
            h.record(v);
        }
        sorted.sort_unstable();

        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), sorted[0]);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());

        for p in [50.0, 95.0, 99.0] {
            let exact = oracle_percentile(&sorted, p);
            let got = h.percentile(p);
            let bucket = bucket_of(exact);
            prop_assert_eq!(
                got,
                bucket_lower(bucket),
                "p{} exact={} bucket={}", p, exact, bucket
            );
            prop_assert!(got <= exact);
            prop_assert!(exact - got < bucket_width(bucket));
        }
    }

    /// Merging two histograms equals recording the concatenation.
    #[test]
    fn merge_equals_concat(a in vec(sample(), 0..80), b in vec(sample(), 0..80)) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hc = Histogram::new();
        for &v in &a {
            ha.record(v);
            hc.record(v);
        }
        for &v in &b {
            hb.record(v);
            hc.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha, hc);
    }

    /// A bulk record equals that many single records, saturated sum
    /// included.
    #[test]
    fn record_n_equals_repeated_record(before in vec(sample(), 0..20), v in sample(), n in 0u64..40) {
        let mut bulk = Histogram::new();
        let mut single = Histogram::new();
        for &b in &before {
            bulk.record(b);
            single.record(b);
        }
        bulk.record_n(v, n);
        for _ in 0..n {
            single.record(v);
        }
        prop_assert_eq!(bulk, single);
    }
}

/// Exhaustive (not sampled): the bucket lattice tiles `u64` with no
/// gaps or overlaps, in order.
#[test]
fn bucket_boundaries_exact() {
    let mut next_lower = 0u64;
    for i in 0..BUCKETS {
        let lo = bucket_lower(i);
        assert_eq!(lo, next_lower, "bucket {i} lower bound");
        assert_eq!(bucket_of(lo), i);
        let hi = lo + (bucket_width(i) - 1);
        assert_eq!(bucket_of(hi), i);
        next_lower = hi.wrapping_add(1);
    }
    assert_eq!(next_lower, 0, "last bucket must end at u64::MAX");
}
