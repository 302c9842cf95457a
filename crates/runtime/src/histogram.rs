//! A shared log₂-bucketed histogram (HDR-style, integer-only).
//!
//! One implementation now backs every bucketed distribution in the
//! workspace: the per-site lifetime-drag histograms of
//! [`crate::profile`], the service harness' request-latency and GC-pause
//! histograms, and the bench bins' ASCII renderings. Bucketing rule
//! (identical to the historical drag buckets): bucket 0 holds the value
//! 0, bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`, and the last
//! bucket absorbs everything larger.
//!
//! Everything here is integer arithmetic over explicitly recorded
//! samples — no floats, no platform `libm` — so histograms built from
//! deterministic virtual-clock values are bit-identical across hosts,
//! engines, and thread counts.

use std::fmt::Write as _;

/// A log₂ histogram with `N` buckets plus exact count/sum/min/max of the
/// recorded samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram<const N: usize> {
    buckets: [u64; N],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl<const N: usize> Default for Histogram<N> {
    fn default() -> Self {
        Histogram::new()
    }
}

impl<const N: usize> Histogram<N> {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; N],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The log₂ bucket a value falls into: 0 for 0, else
    /// `floor(log2(v)) + 1` capped at the last bucket.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((u64::BITS - value.leading_zeros()) as usize).min(N - 1)
        }
    }

    /// The inclusive lower bound of bucket `i` (0, 1, 2, 4, 8, ...).
    pub fn bucket_lo(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; N] {
        &self.buckets
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether any sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Integer mean of the samples (`None` when empty).
    pub fn mean(&self) -> Option<u64> {
        (self.count > 0).then(|| self.sum / self.count)
    }

    /// ASCII rendering: one digit per bucket scaled 1–9 to the row
    /// maximum, `.` for empty, trailing empty buckets trimmed. This is
    /// the historical drag-table spark format, verbatim.
    pub fn spark(&self) -> String {
        let last = self
            .buckets
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| i + 1);
        let max = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        self.buckets[..last]
            .iter()
            .map(|&n| {
                if n == 0 {
                    '.'
                } else {
                    char::from_digit(((n * 9).div_ceil(max) as u32).clamp(1, 9), 10).unwrap()
                }
            })
            .collect()
    }

    /// Multi-line rendering: one row per occupied bucket with its range,
    /// count, and a proportional bar — the service report's pause/latency
    /// breakdown format.
    pub fn render(&self, unit: &str) -> String {
        let mut out = String::new();
        if self.count == 0 {
            out.push_str("  (no samples)\n");
            return out;
        }
        let peak = self.buckets.iter().copied().max().unwrap_or(1).max(1);
        let last = self
            .buckets
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| i + 1);
        let first = self.buckets.iter().position(|&n| n > 0).unwrap_or(0);
        for i in first..last {
            let n = self.buckets[i];
            let lo = Self::bucket_lo(i);
            let hi = if i == 0 { 0 } else { (1u64 << i) - 1 };
            let bar_len = ((n * 40).div_ceil(peak)) as usize;
            let bar = "#".repeat(bar_len.max(usize::from(n > 0)));
            let _ = writeln!(
                out,
                "  {:>12}–{:<12} {:>8}  {bar}",
                lo,
                format!("{hi}{unit}"),
                n
            );
        }
        out
    }
}

/// Nearest-rank percentile over an **already-sorted** sample slice:
/// the sample at rank `ceil(len · num / den)` (1-based), i.e. the
/// smallest sample such that at least `num/den` of the distribution is
/// at or below it. `percentile_sorted(s, 999, 1000)` is p999;
/// `(s, 1, 2)` is the median. Returns 0 for an empty slice.
pub fn percentile_sorted(sorted: &[u64], num: u64, den: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * num).div_ceil(den).max(1);
    sorted[(rank - 1).min(sorted.len() as u64 - 1) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(Histogram::<24>::bucket_of(0), 0);
        assert_eq!(Histogram::<24>::bucket_of(1), 1);
        assert_eq!(Histogram::<24>::bucket_of(2), 2);
        assert_eq!(Histogram::<24>::bucket_of(3), 2);
        assert_eq!(Histogram::<24>::bucket_of(4), 3);
        assert_eq!(Histogram::<24>::bucket_of(u64::MAX), 23);
        assert_eq!(Histogram::<64>::bucket_of(u64::MAX), 63);
        assert_eq!(Histogram::<24>::bucket_lo(0), 0);
        assert_eq!(Histogram::<24>::bucket_lo(1), 1);
        assert_eq!(Histogram::<24>::bucket_lo(4), 8);
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let mut h = Histogram::<24>::new();
        assert!(h.is_empty());
        assert_eq!((h.min(), h.max(), h.mean()), (0, 0, None));
        for v in [3, 7, 0, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 110);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        assert_eq!(h.mean(), Some(27));
        assert_eq!(h.buckets()[0], 1);
        h.record(2); // 2 and 3 share bucket 2 (values 2..=3)
        assert_eq!(h.buckets()[Histogram::<24>::bucket_of(3)], 2);
    }

    #[test]
    fn merge_adds() {
        let mut a = Histogram::<8>::new();
        let mut b = Histogram::<8>::new();
        a.record(1);
        b.record(9);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 10);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 9);
    }

    #[test]
    fn spark_matches_historical_format() {
        let mut h = Histogram::<24>::new();
        for _ in 0..9 {
            h.record(1);
        }
        h.record(4);
        // bucket 1 has 9 (→ '9'), bucket 2 empty (→ '.'), bucket 3 has 1.
        assert_eq!(h.spark(), ".9.1");
        assert_eq!(Histogram::<24>::new().spark(), "");
    }

    #[test]
    fn percentile_sorted_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 1, 2), 50);
        assert_eq!(percentile_sorted(&s, 99, 100), 99);
        assert_eq!(percentile_sorted(&s, 999, 1000), 100);
        assert_eq!(percentile_sorted(&s, 1, 1), 100);
        assert_eq!(percentile_sorted(&[], 1, 2), 0);
        assert_eq!(percentile_sorted(&[7], 999, 1000), 7);
    }

    #[test]
    fn render_lists_occupied_buckets() {
        let mut h = Histogram::<64>::new();
        h.record(5);
        h.record(6);
        h.record(70);
        let r = h.render("t");
        assert!(r.contains("4–7t"), "{r}");
        assert!(r.contains("64–127t"), "{r}");
        assert!(Histogram::<64>::new().render("t").contains("no samples"));
    }
}
