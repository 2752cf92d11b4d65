//! Fixed-layout log2-bucketed histogram with exact low buckets.
//!
//! The bucket layout is the same for every histogram (no configuration),
//! which makes [`Histogram::merge`] trivially associative and commutative:
//! merging is element-wise addition of bucket counts. Values below
//! [`EXACT_BUCKETS`] each get their own bucket (exact percentiles in the
//! common range — occupancies, trace lengths, short latencies); larger
//! values share one bucket per power of two, so a percentile read from a
//! log bucket reports the bucket's lower bound `b` and the true value `v`
//! satisfies `b <= v < 2*b` (relative error strictly below 2x).

use tp_stats::Json;

/// Values `0..EXACT_BUCKETS` are counted exactly, one bucket each.
pub const EXACT_BUCKETS: usize = 64;

/// One log2 bucket per `floor(log2(v))` in `6..=63`.
pub const LOG_BUCKETS: usize = 58;

/// A log2-bucketed histogram of `u64` samples.
///
/// Tracks count, sum, min and max exactly alongside the bucket counts, so
/// means are exact even where percentiles are bucketed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    exact: [u64; EXACT_BUCKETS],
    log: [u64; LOG_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            exact: [0; EXACT_BUCKETS],
            log: [0; LOG_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples (weighted occupancy accounting).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        if (value as usize) < EXACT_BUCKETS {
            self.exact[value as usize] += n;
        } else {
            self.log[(63 - value.leading_zeros()) as usize - 6] += n;
        }
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact arithmetic mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample; 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample; 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-th percentile (`0.0..=100.0`) as a bucket representative.
    ///
    /// Exact for values below [`EXACT_BUCKETS`]; for log buckets reports
    /// the bucket's lower bound `b`, with the true order statistic `v`
    /// satisfying `b <= v < 2*b`. Monotone non-decreasing in `q`.
    /// Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (v, &n) in self.exact.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return v as u64;
            }
        }
        for (i, &n) in self.log.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << (i + 6);
            }
        }
        // Unreachable with a consistent count, but degrade gracefully.
        self.max
    }

    /// Median ([`Histogram::percentile`] at 50).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Folds `other` into `self` (element-wise bucket addition).
    ///
    /// Because the bucket layout is fixed, merge is associative and
    /// commutative, and merging then reading a percentile equals reading
    /// the percentile of the concatenated sample streams.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.exact.iter_mut().zip(&other.exact) {
            *a += b;
        }
        for (a, b) in self.log.iter_mut().zip(&other.log) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower bound, width, count)`, ascending.
    /// Exact buckets have width 1; log buckets span `[lo, 2*lo)`.
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        for (v, &n) in self.exact.iter().enumerate() {
            if n != 0 {
                out.push((v as u64, 1, n));
            }
        }
        for (i, &n) in self.log.iter().enumerate() {
            if n != 0 {
                let lo = 1u64 << (i + 6);
                out.push((lo, lo, n));
            }
        }
        out
    }

    /// The histogram summary as a JSON object (schema `tp-bench/metrics/v1`
    /// histogram fragment): count, mean, min/max, p50/p90/p99.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", self.count.into()),
            ("mean", self.mean().into()),
            ("min", self.min().into()),
            ("max", self.max().into()),
            ("p50", self.p50().into()),
            ("p90", self.p90().into()),
            ("p99", self.p99().into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn exact_range_is_exact() {
        let mut h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        // Rank k maps straight back to value k-1.
        assert_eq!(h.percentile(100.0), 63);
        assert_eq!(h.p50(), 31);
    }

    #[test]
    fn log_bucket_boundaries() {
        let mut h = Histogram::new();
        h.record(64); // first log bucket [64, 128)
        h.record(127);
        h.record(128); // second [128, 256)
        let b = h.buckets();
        assert_eq!(b, vec![(64, 64, 2), (128, 128, 1)]);
        assert_eq!(h.max(), 128);
    }

    #[test]
    fn extreme_values() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        // Top bucket lower bound is 2^63.
        assert_eq!(h.percentile(100.0), 1u64 << 63);
    }

    #[test]
    fn record_n_weights() {
        let mut h = Histogram::new();
        h.record_n(3, 10);
        h.record_n(5, 0);
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 30);
        assert_eq!(h.max(), 3);
    }
}
