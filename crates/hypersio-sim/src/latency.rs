//! Log-bucketed latency statistics for simulation reports.

use std::fmt;

use hypersio_types::SimDuration;

/// A power-of-two-bucketed latency histogram.
///
/// Buckets are `[2^i, 2^(i+1))` picoseconds, so the full 64-bucket range
/// covers everything from sub-nanosecond hits to hours. Percentile queries
/// return the upper bound of the bucket containing the requested rank —
/// at most a factor-of-two overestimate, which is plenty for the
/// order-of-magnitude contrasts the reports draw (2 ns hits vs 2 µs
/// walks).
///
/// # Examples
///
/// ```
/// use hypersio_sim::LatencyStats;
/// use hypersio_types::SimDuration;
///
/// let mut stats = LatencyStats::new();
/// for _ in 0..99 {
///     stats.record(SimDuration::from_ns(2)); // DevTLB hits
/// }
/// stats.record(SimDuration::from_us(2)); // one full walk
/// assert!(stats.percentile(0.50).as_ns() <= 4);
/// assert!(stats.percentile(0.999).as_ns() >= 2_000);
/// assert_eq!(stats.count(), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyStats {
    buckets: [u64; 64],
    count: u64,
    sum_ps: u128,
    max_ps: u64,
}

impl LatencyStats {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyStats {
            buckets: [0; 64],
            count: 0,
            sum_ps: 0,
            max_ps: 0,
        }
    }

    fn bucket_of(ps: u64) -> usize {
        (64 - ps.max(1).leading_zeros() as usize).saturating_sub(1)
    }

    /// Records one sample.
    pub fn record(&mut self, latency: SimDuration) {
        let ps = latency.as_ps();
        self.buckets[Self::bucket_of(ps)] += 1;
        self.count += 1;
        self.sum_ps += ps as u128;
        self.max_ps = self.max_ps.max(ps);
    }

    /// Returns the number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns the exact sum of all recorded samples in picoseconds —
    /// unlike the bucketed percentiles this carries no approximation, so
    /// it reconciles exactly against an external per-sample accumulator
    /// (the span layer's latency attribution asserts against it).
    pub fn sum_ps(&self) -> u128 {
        self.sum_ps
    }

    /// Returns the mean latency (zero if empty).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_ps((self.sum_ps / self.count as u128) as u64)
        }
    }

    /// Returns the maximum recorded latency.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_ps(self.max_ps)
    }

    /// Returns the latency below which fraction `p` of samples fall
    /// (bucket-upper-bound approximation; zero if empty).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&p), "percentile needs 0.0..=1.0");
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((self.count as f64 * p).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket i, clamped to the observed max.
                let bound = if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
                return SimDuration::from_ps(bound.min(self.max_ps));
            }
        }
        SimDuration::from_ps(self.max_ps)
    }

    /// Median latency ([`LatencyStats::percentile`] at 0.50).
    pub fn p50(&self) -> SimDuration {
        self.percentile(0.50)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> SimDuration {
        self.percentile(0.95)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> SimDuration {
        self.percentile(0.99)
    }

    /// Appends the histogram's raw state for a run checkpoint: the 64
    /// buckets, the sample count, the 128-bit sum split into high/low
    /// words, and the maximum — 68 words total.
    pub(crate) fn snapshot_words(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(&self.buckets);
        out.push(self.count);
        out.push((self.sum_ps >> 64) as u64);
        out.push(self.sum_ps as u64);
        out.push(self.max_ps);
    }

    /// Restores the histogram from [`LatencyStats::snapshot_words`] output.
    /// Rejects streams whose count disagrees with the bucket totals.
    pub(crate) fn restore_words(&mut self, r: &mut hypersio_cache::WordReader<'_>) -> Option<()> {
        let buckets = r.take(64)?;
        let count = r.next()?;
        let mut total = 0u64;
        for &b in buckets {
            total = total.checked_add(b)?;
        }
        if total != count {
            return None;
        }
        self.buckets.copy_from_slice(buckets);
        self.count = count;
        let hi = r.next()?;
        let lo = r.next()?;
        self.sum_ps = ((hi as u128) << 64) | lo as u128;
        self.max_ps = r.next()?;
        Some(())
    }
}

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats::new()
    }
}

impl fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p99={} max={}",
            self.count,
            self.mean(),
            self.percentile(0.50),
            self.percentile(0.99),
            self.max(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroes() {
        let stats = LatencyStats::new();
        assert_eq!(stats.count(), 0);
        assert_eq!(stats.mean(), SimDuration::ZERO);
        assert_eq!(stats.percentile(0.99), SimDuration::ZERO);
        assert_eq!(stats.max(), SimDuration::ZERO);
    }

    #[test]
    fn single_sample_everywhere() {
        let mut stats = LatencyStats::new();
        stats.record(SimDuration::from_ns(450));
        assert_eq!(stats.count(), 1);
        assert_eq!(stats.mean().as_ns(), 450);
        assert_eq!(stats.max().as_ns(), 450);
        // p50 bucket bound is within 2x of the true value.
        let p50 = stats.percentile(0.5).as_ps();
        assert!((450_000..900_000 * 2).contains(&p50));
    }

    #[test]
    fn percentiles_order_correctly() {
        let mut stats = LatencyStats::new();
        for i in 1..=1000u64 {
            stats.record(SimDuration::from_ns(i));
        }
        let p10 = stats.percentile(0.10);
        let p50 = stats.percentile(0.50);
        let p99 = stats.percentile(0.99);
        assert!(p10 <= p50 && p50 <= p99);
        assert!(p99 <= stats.max() || p99.as_ps() >= 1_000_000 / 2);
    }

    #[test]
    fn bimodal_distribution_is_resolved() {
        // The report's typical shape: many 2ns hits, few 2us walks.
        let mut stats = LatencyStats::new();
        for _ in 0..900 {
            stats.record(SimDuration::from_ns(2));
        }
        for _ in 0..100 {
            stats.record(SimDuration::from_us(2));
        }
        assert!(stats.percentile(0.50).as_ns() < 10);
        assert!(stats.percentile(0.95).as_us_approx() >= 1);
        assert!(stats.max().as_ns() == 2000);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Buckets are [2^i, 2^(i+1)) ps. Two samples pinned to the exact
        // edges of one bucket must both land in it, and the percentile
        // query must return the bucket's upper bound 2^(i+1) - 1.
        for i in [5u32, 20, 40] {
            let lo = 1u64 << i;
            let hi = (1u64 << (i + 1)) - 1;
            let mut stats = LatencyStats::new();
            stats.record(SimDuration::from_ps(lo));
            stats.record(SimDuration::from_ps(hi));
            assert_eq!(stats.p50().as_ps(), hi, "bucket {i} upper bound");
            assert_eq!(stats.p99().as_ps(), hi, "bucket {i} upper bound");
            // One more sample at 2^(i+1) crosses into the next bucket.
            stats.record(SimDuration::from_ps(hi + 1));
            assert_eq!(stats.p99().as_ps(), hi + 1); // clamped to observed max
        }
    }

    #[test]
    fn zero_and_one_ps_share_the_first_bucket() {
        let mut stats = LatencyStats::new();
        stats.record(SimDuration::ZERO);
        stats.record(SimDuration::from_ps(1));
        // Bucket 0 upper bound is 1 ps.
        assert_eq!(stats.p50().as_ps(), 1);
        assert_eq!(stats.p99().as_ps(), 1);
    }

    #[test]
    fn percentile_shortcuts_match_percentile() {
        let mut stats = LatencyStats::new();
        for i in 1..=100u64 {
            stats.record(SimDuration::from_ns(i * 7));
        }
        assert_eq!(stats.p50(), stats.percentile(0.50));
        assert_eq!(stats.p95(), stats.percentile(0.95));
        assert_eq!(stats.p99(), stats.percentile(0.99));
        assert!(stats.p50() <= stats.p95() && stats.p95() <= stats.p99());
    }

    #[test]
    #[should_panic(expected = "0.0..=1.0")]
    fn out_of_range_percentile_panics() {
        let _ = LatencyStats::new().percentile(1.5);
    }

    #[test]
    fn display_has_all_fields() {
        let mut stats = LatencyStats::new();
        stats.record(SimDuration::from_ns(50));
        let s = format!("{stats}");
        assert!(s.contains("n=1"));
        assert!(s.contains("p99="));
    }

    trait AsUsApprox {
        fn as_us_approx(&self) -> u64;
    }

    impl AsUsApprox for SimDuration {
        fn as_us_approx(&self) -> u64 {
            self.as_ns() / 1000
        }
    }
}
