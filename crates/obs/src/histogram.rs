//! The log₂-bucketed histogram behind the profiler's round-latency
//! quantiles. Powers-of-two buckets keep one small fixed structure for
//! any range of nanosecond timings.

use std::collections::BTreeMap;

/// A log₂-bucketed histogram with exact count/sum/min/max.
///
/// A sample `v` lands in bucket `floor(log2(v))`, i.e. the half-open
/// range `[2^i, 2^{i+1})`; non-positive samples share a dedicated
/// underflow bucket. The mean is exact (tracked as `sum / count`), the
/// spread is bucket-resolution.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// bucket exponent → sample count; `i32::MIN` is the ≤0 bucket.
    buckets: BTreeMap<i32, u64>,
}

impl Histogram {
    /// The underflow bucket index (samples ≤ 0).
    const UNDERFLOW: i32 = i32::MIN;

    /// Record one sample.
    pub(crate) fn observe(&mut self, v: f64) {
        if v.is_nan() {
            return; // NaN would poison min/max and serve no analysis
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let bucket = if v > 0.0 {
            v.log2().floor() as i32
        } else {
            Self::UNDERFLOW
        };
        *self.buckets.entry(bucket).or_insert(0) += 1;
    }

    /// Number of samples.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean, `None` when empty.
    pub(crate) fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Largest sample, `None` when empty.
    pub(crate) fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) from the log₂
    /// buckets: nearest-rank selection of the bucket, then linear
    /// interpolation across the bucket's `[2^i, 2^{i+1})` range by the
    /// rank's position among the bucket's samples. The estimate is
    /// clamped to the exact `[min, max]`, so the extreme quantiles are
    /// exact; interior ones carry bucket resolution (a factor-of-2
    /// band). `None` when the histogram is empty or `q` is out of range.
    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // Nearest rank, 1-based: the smallest r with r ≥ q·count.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&bucket, &c) in &self.buckets {
            if seen + c < rank {
                seen += c;
                continue;
            }
            if bucket == Self::UNDERFLOW {
                // All samples here are ≤ 0; the bucket has no interior
                // structure, so report the exact minimum.
                return Some(self.min);
            }
            let lo = (bucket as f64).exp2();
            let hi = ((bucket + 1) as f64).exp2();
            let frac = (rank - seen) as f64 / c as f64;
            return Some((lo + frac * (hi - lo)).clamp(self.min, self.max));
        }
        Some(self.max)
    }

    /// Median estimate (see [`Histogram::quantile`]).
    pub(crate) fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate (see [`Histogram::quantile`]).
    pub(crate) fn p90(&self) -> Option<f64> {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate (see [`Histogram::quantile`]).
    pub(crate) fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_exact_moments() {
        let mut h = Histogram::default();
        assert_eq!(h.mean(), None);
        for v in [1.0, 2.0, 3.0, 10.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum, 16.0);
        assert_eq!(h.mean(), Some(4.0));
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max(), Some(10.0));
    }

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let mut h = Histogram::default();
        h.observe(1.0); // [1, 2) → exponent 0
        h.observe(1.5); // [1, 2) → exponent 0
        h.observe(4.0); // [4, 8) → exponent 2
        h.observe(7.9); // [4, 8) → exponent 2
        h.observe(0.25); // [0.25, 0.5) → exponent −2
        h.observe(0.0); // underflow
        h.observe(-3.0); // underflow
        let buckets: Vec<_> = h.buckets.into_iter().collect();
        assert_eq!(
            buckets,
            vec![(Histogram::UNDERFLOW, 2), (-2, 1), (0, 2), (2, 2)]
        );
    }

    #[test]
    fn histogram_ignores_nan() {
        let mut h = Histogram::default();
        h.observe(f64::NAN);
        assert_eq!(h.count(), 0);
        h.observe(2.0);
        h.observe(f64::NAN);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), Some(2.0));
    }

    #[test]
    fn quantiles_are_empty_safe_and_range_checked() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        let mut h = Histogram::default();
        h.observe(4.0);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        assert_eq!(h.quantile(f64::NAN), None);
        // A single sample is every quantile (clamped to min == max).
        assert_eq!(h.quantile(0.0), Some(4.0));
        assert_eq!(h.p50(), Some(4.0));
        assert_eq!(h.p99(), Some(4.0));
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        // 90 samples in [1, 2), 10 samples in [1024, 2048): p50 must sit
        // in the low band, p99 in the high band, both clamped to the
        // exact extremes.
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.observe(1.5);
        }
        for _ in 0..10 {
            h.observe(1500.0);
        }
        let p50 = h.p50().unwrap();
        assert!((1.0..2.0).contains(&p50), "p50 = {p50}");
        let p99 = h.p99().unwrap();
        assert!((1024.0..=1500.0).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), Some(1500.0), "max quantile is exact");
        assert_eq!(
            h.quantile(0.0),
            Some(1.5),
            "min-ward quantile clamps to min"
        );
    }

    #[test]
    fn quantiles_interpolate_within_a_bucket() {
        // 4 samples all in bucket [4, 8): ranks 1..4 interpolate across
        // the bucket at 1/4, 2/4, 3/4, 4/4 — monotone in q.
        let mut h = Histogram::default();
        for v in [4.0, 5.0, 6.0, 7.0] {
            h.observe(v);
        }
        let qs: Vec<f64> = [0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&q| h.quantile(q).unwrap())
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "monotone: {qs:?}");
        assert!(qs.iter().all(|&v| (4.0..=7.0).contains(&v)), "{qs:?}");
    }

    #[test]
    fn quantiles_report_min_for_the_underflow_bucket() {
        let mut h = Histogram::default();
        h.observe(-3.0);
        h.observe(0.0);
        h.observe(16.0);
        // Rank 1..2 fall in the underflow bucket → exact minimum.
        assert_eq!(h.quantile(0.3), Some(-3.0));
        assert_eq!(h.quantile(1.0), Some(16.0));
    }
}
