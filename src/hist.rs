//! A log-bucketed, fixed-size latency histogram (HdrHistogram-lite).
//!
//! [`HIST_BUCKETS`] buckets whose boundaries are successive powers of √2,
//! so two values land in the same bucket only if they differ by less than
//! ~41 % — tight enough for latency percentiles, coarse enough that the
//! whole histogram is a flat array of relaxed atomics with no allocation
//! and no locks on the record path. Recording is wait-free
//! (`fetch_add`/`fetch_max`); a snapshot reads one counter at a time, so a
//! snapshot taken *while* traffic flows may mix instants — at any
//! quiescent point it is exact (the same guarantee the rest of the
//! workspace's relaxed counters give).
//!
//! Quantiles are reconstructed by nearest-rank over the bucket counts and
//! reported as the bucket's smallest representable integer, clamped to the
//! exactly-tracked maximum. That makes reported quantiles *lower bounds*
//! within one bucket (≤ 41 % relative error), and guarantees
//! `p50 <= p90 <= p99 <= max` for every input.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of buckets: √2-spaced boundaries cover `1 ..= 2^31.5` (≈ 3 s in
/// nanoseconds); the last bucket is open-ended and the maximum is tracked
/// exactly alongside.
pub(crate) const HIST_BUCKETS: usize = 64;

/// Bucket index of `value`: bucket `i` covers `[2^(i/2), 2^((i+1)/2))`,
/// clamped into the last bucket.
fn bucket_of(value: u64) -> usize {
    if value <= 1 {
        return 0;
    }
    let msb = 63 - value.leading_zeros() as usize;
    // The odd (half-power) boundary check, in exact integer arithmetic:
    // value >= 2^(msb + 1/2)  <=>  value^2 >= 2^(2·msb + 1).
    let half = u64::from((value as u128) * (value as u128) >= 1u128 << (2 * msb + 1));
    (2 * msb + half as usize).min(HIST_BUCKETS - 1)
}

/// The smallest integer a bucket can hold — the value quantiles report.
/// Never exceeds any value recorded into the bucket, so quantiles
/// under-approximate within one bucket rather than inventing larger
/// latencies than were observed.
fn bucket_floor(index: usize) -> u64 {
    if index.is_multiple_of(2) {
        1u64 << (index / 2)
    } else {
        // ceil(2^(index/2)) = ceil(sqrt(2^index)), exactly.
        ceil_sqrt(1u128 << index)
    }
}

/// Smallest `x` with `x² >= n`.
fn ceil_sqrt(n: u128) -> u64 {
    let mut x = (n as f64).sqrt() as u128;
    while x * x < n {
        x += 1;
    }
    while x > 0 && (x - 1) * (x - 1) >= n {
        x -= 1;
    }
    x as u64
}

/// A lock-free log-bucketed histogram; see the module docs.
#[derive(Debug)]
pub(crate) struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    /// An empty histogram.
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation (wait-free, relaxed).
    pub(crate) fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating past ~584 years).
    pub(crate) fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy; quantiles are answered from the copy so one
    /// consistent view backs a whole `p50/p90/p99` line.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], with the quantile math.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`HIST_BUCKETS`]).
    pub(crate) buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all recorded values (wraps only after 2^64 total).
    pub sum: u64,
    /// Largest recorded value, exact.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl HistogramSnapshot {
    /// Nearest-rank quantile (`q` in `[0, 1]`), reported as the holding
    /// bucket's floor clamped to the exact maximum; `0` when empty.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub(crate) fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub(crate) fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The `count p50 p99 max` one-liner used by human-facing summaries,
    /// with values scaled by `div` (e.g. `1_000` renders nanoseconds as
    /// microseconds).
    pub(crate) fn summary_line(&self, div: u64) -> String {
        let div = div.max(1);
        if self.count == 0 {
            return "-".to_owned();
        }
        format!(
            "count:{} p50:{} p99:{} max:{}",
            self.count,
            self.p50() / div,
            self.p99() / div,
            self.max / div
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut last = 0;
        for exp in 0..64 {
            for v in [(1u64 << exp).saturating_sub(1), 1u64 << exp, (1u64 << exp) + 1] {
                let b = bucket_of(v);
                assert!(b < HIST_BUCKETS);
                if v >= last {
                    assert!(b >= bucket_of(last), "bucket_of not monotone at {v}");
                }
                last = v;
            }
        }
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn bucket_floor_never_exceeds_members() {
        // Every integer must land in a bucket whose floor is <= itself —
        // that is what makes reported quantiles lower bounds.
        for v in (0..10_000u64).chain([1 << 20, (1 << 20) + 1, u64::MAX]) {
            assert!(bucket_floor(bucket_of(v)) <= v.max(1), "floor above {v}");
        }
    }

    #[test]
    fn exact_small_values_round_trip() {
        // Batch sizes are small integers; the ones that are alone in their
        // bucket must report exactly.
        for v in [1u64, 2, 3, 4, 6, 8, 12, 16] {
            let h = Histogram::default();
            h.record(v);
            assert_eq!(h.snapshot().p50(), v, "p50 of a single {v}");
        }
    }

    #[test]
    fn quantiles_are_ordered_for_adversarial_boundary_values() {
        // Values sitting exactly on, just below, and just above bucket
        // boundaries — the worst case for rank/boundary bookkeeping.
        let mut values = vec![0u64, 1];
        for exp in 1..40 {
            let p = 1u64 << exp;
            values.extend([p - 1, p, p + 1]);
            let half = ceil_sqrt(1u128 << (2 * exp + 1));
            values.extend([half - 1, half, half + 1]);
        }
        values.extend([u64::MAX - 1, u64::MAX]);
        let h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        let p90 = s.quantile(0.90);
        assert!(s.p50() <= p90, "{} > {p90}", s.p50());
        assert!(p90 <= s.p99(), "{p90} > {}", s.p99());
        assert!(s.p99() <= s.max, "{} > {}", s.p99(), s.max);
        assert_eq!(s.count, values.len() as u64);
        assert_eq!(s.max, u64::MAX);
    }

    #[test]
    fn quantile_is_within_one_bucket_of_truth() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // True p50 is 500; the report may round down to its bucket floor
        // but never by more than the √2 bucket width.
        assert!(s.p50() <= 500 && 500 < s.p50() * 2, "p50 = {}", s.p50());
        assert!(s.p99() <= 990 && 990 < s.p99() * 2, "p99 = {}", s.p99());
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let s = Histogram::default().snapshot();
        assert_eq!((s.count, s.sum, s.p50(), s.p99(), s.max), (0, 0, 0, 0, 0));
        assert_eq!(s.summary_line(1), "-");
    }

    #[test]
    fn zero_observations_report_zero_quantiles() {
        // Zero shares bucket 0 with one, whose floor is 1: only the clamp to
        // the exact maximum keeps a cache hit's zero queue wait from
        // reading as 1 ns.
        let h = Histogram::default();
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!((s.p50(), s.quantile(0.9), s.p99(), s.max), (0, 0, 0, 0));
    }

    #[test]
    fn concurrent_recording_conserves_totals() {
        let h = Histogram::default();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 8000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 8000);
        assert_eq!(s.max, 7999);
    }

    #[test]
    fn summary_line_scales() {
        let h = Histogram::default();
        h.record(4_096);
        let s = h.snapshot();
        assert_eq!(s.summary_line(1_000), "count:1 p50:4 p99:4 max:4");
    }
}
