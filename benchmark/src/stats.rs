//! The benchmark's own arithmetic: percentiles, per-segment
//! throughput and the quartile spread `--selfcheck` prints. Pure
//! functions, unit-tested against oracles in this file.

/// Samples a window needs before p95 is reported: ten must lie beyond
/// the percentile (choosing-metrics §1).
pub const P95_MIN_SAMPLES: usize = 200;

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the samples at or below it.
/// `p` is in `(0, 100]`; an empty slice yields `T::default()`.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile `samples` samples support: p95 from
/// [`P95_MIN_SAMPLES`] up, otherwise the highest percentile that still
/// leaves ten samples beyond it (p78.7 for 47 samples), and the
/// maximum when there are not even ten.
pub fn tail_percentile(samples: usize) -> f64 {
    if samples >= P95_MIN_SAMPLES {
        95.0
    } else if samples > 10 {
        100.0 * (samples - 10) as f64 / samples as f64
    } else {
        100.0
    }
}

/// `num / den`, or 0 when there is no denominator.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Sort `samples` in place and return `(p50, p99, count)`.
pub fn p50_p99<T: Copy + Default + Ord>(samples: &mut [T]) -> (T, T, usize) {
    samples.sort_unstable();
    (
        percentile(samples, 50.0),
        percentile(samples, 99.0),
        samples.len(),
    )
}

/// Median of a set of floats (mean of the two middle values when the
/// count is even). Empty input yields 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Throughput of each of a window's equal-op-count segments.
///
/// `marks_ns[k]` is the host time at which segment `k` began, with one
/// trailing mark for the end of the last segment; every segment holds
/// `ops_per_segment` operations.
pub fn segment_rates(marks_ns: &[u64], ops_per_segment: u64) -> Vec<f64> {
    marks_ns
        .windows(2)
        .map(|w| ops_per_segment as f64 * 1e9 / w[1].saturating_sub(w[0]).max(1) as f64)
        .collect()
}

/// The better quartile of a window's per-segment figures: the value a
/// quarter of the segments match or beat (nearest rank) — the upper
/// quartile of rates (`higher_is_better`), the lower quartile of
/// latencies.
///
/// On the shared 2-core box this was sized on, interference comes in
/// bursts of seconds that slow a run by up to 30 %: a median over five
/// segments still swung 13 % between runs of the same code.
/// Interference only slows, so the less disturbed segments are the
/// repeatable estimate of what the code costs; a quartile rather than
/// the single best one, because a segment can also be *fast* for
/// reasons that are not the code's (the first segment of `tpcc_2w`
/// runs unpaced while the other worker finishes warm-up; a fresh TCP
/// connection acknowledges its first segments at once). Empty input
/// yields the default value.
pub fn better_quartile<T: Copy + Default + PartialOrd>(
    per_segment: &[T],
    higher_is_better: bool,
) -> T {
    let mut v = per_segment.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("segment figures are never NaN"));
    percentile(&v, if higher_is_better { 75.0 } else { 25.0 })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method: position `(n + 1) * q`, linear
/// interpolation, clamped to the sample range).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: f64| {
        let pos = (n as f64 + 1.0) * q;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(0.25), at(0.75))
}

/// Inter-quartile distance as a share of the median: the spread the
/// contract bounds.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: count how many samples are ≤ the answer, straight from
    /// the definition of nearest rank.
    fn oracle(sorted: &[u32], p: f64) -> u32 {
        let need = (p / 100.0 * sorted.len() as f64).ceil().max(1.0) as usize;
        *sorted
            .iter()
            .find(|&&x| sorted.iter().filter(|&&y| y <= x).count() >= need)
            .unwrap()
    }

    #[test]
    fn percentile_matches_sorted_oracle() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for n in [1usize, 2, 3, 7, 10, 99, 100, 101, 1000, 1001] {
            let mut v: Vec<u32> = (0..n)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (x >> 40) as u32 % 500
                })
                .collect();
            v.sort_unstable();
            for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                assert_eq!(percentile(&v, p), oracle(&v, p), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile::<u32>(&[], 50.0), 0);
        assert_eq!(percentile(&[7u32], 99.0), 7);
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        // 1000 samples leave exactly ten beyond p99, 200 beyond p95.
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(v.len() - percentile(&v, 99.0) as usize, 10);
        assert_eq!(
            P95_MIN_SAMPLES - percentile(&v[..P95_MIN_SAMPLES], 95.0) as usize,
            10
        );
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(6_000_000), 95.0);
        assert_eq!(tail_percentile(5), 100.0);
        for n in [11usize, 47, 100, 199, 200] {
            let v: Vec<u32> = (1..=n as u32).collect();
            let picked = percentile(&v, tail_percentile(n)) as usize;
            assert_eq!(n - picked, 10, "n={n}");
        }
    }

    #[test]
    fn p50_p99_sorts_first() {
        let mut v = vec![5u32, 1, 4, 2, 3];
        assert_eq!(p50_p99(&mut v), (3, 5, 5));
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn better_quartile_ignores_slow_segments_and_one_fast_one() {
        // Five segments of 1000 ops: one anomalously fast (0.5 ms), two
        // clean (1 ms), two disturbed (3 ms, 10 ms).
        let marks = [0, 500_000, 1_500_000, 4_500_000, 14_500_000, 15_500_000];
        let rates = segment_rates(&marks, 1000);
        assert_eq!(rates.len(), 5);
        assert!((rates[0] - 2e6).abs() < 1e-6 && (rates[3] - 1e5).abs() < 1e-6);
        // Second best of five: the clean speed, not the outlier's 2 M/s
        // and not the mean's 323 k/s.
        assert!((better_quartile(&rates, true) - 1e6).abs() < 1e-6);
        // Latencies: second lowest of five.
        assert_eq!(
            better_quartile(&[900u32, 1000, 1010, 3000, 9000], false),
            1000
        );
        // Twenty segments: the sixth best rate, the fifth lowest latency.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(better_quartile(&twenty, true), 15.0);
        let twenty: Vec<u32> = (1..=20).collect();
        assert_eq!(better_quartile(&twenty, false), 5);
    }

    #[test]
    fn segment_rates_degenerate() {
        assert!(segment_rates(&[], 10).is_empty());
        assert!(segment_rates(&[5], 10).is_empty());
        // A zero-length segment does not divide by zero.
        assert!(segment_rates(&[5, 5], 10)[0].is_finite());
        assert_eq!(better_quartile::<f64>(&[], true), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25] before the
        // clamp; Python interpolates past the ends for n=2, we clamp
        // the index and extrapolate identically.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
