//! A fixed-bucket, log-linear latency histogram over nanoseconds.
//!
//! Promoted out of `gb_serve::metrics` so the per-stage tracer
//! (`gb_trace`) and the server's request-latency metric share one
//! implementation. Everything is lock-free [`Counter`]s, so recording
//! costs a handful of relaxed `fetch_add`s. Each octave `[2^e, 2^(e+1))`
//! is split into 16 equal sub-buckets (values below 16 get one bucket
//! each), 976 buckets covering all of `u64`; a quantile is the upper bound
//! of the sub-bucket it falls in, at most 1/16 (6.25 %) above the truth.

use crate::stats::Counter;

/// Sub-buckets per octave.
const SUB_BUCKETS: usize = 16;

/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Buckets: 16 exact ones for 0..16, then 16 per octave up to 2^64.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// The bucket holding `ns`: the value itself below 16, else the octave
/// (from the leading one bit) and the next four bits below it.
fn bucket_of(ns: u64) -> usize {
    if ns < SUB_BUCKETS as u64 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros(); // ≥ SUB_BITS
    let shift = octave - SUB_BITS;
    let sub = (ns >> shift) as usize & (SUB_BUCKETS - 1);
    (shift as usize + 1) * SUB_BUCKETS + sub
}

/// The largest value bucket `i` holds.
fn upper_bound(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let shift = (i / SUB_BUCKETS - 1) as u32;
    let low = ((SUB_BUCKETS + i % SUB_BUCKETS) as u64) << shift;
    low + ((1u64 << shift) - 1)
}

/// A fixed-bucket (log-linear) latency histogram over nanoseconds.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<Counter>,
    count: Counter,
    sum_ns: Counter,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: (0..BUCKETS).map(|_| Counter::new()).collect(),
            count: Counter::new(),
            sum_ns: Counter::new(),
        }
    }
}

impl LatencyHistogram {
    /// Record one observation.
    pub fn record(&self, ns: u64) {
        if let Some(b) = self.buckets.get(bucket_of(ns)) {
            b.incr();
        }
        self.count.incr();
        self.sum_ns.add(ns);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Total of every recorded observation in nanoseconds — the
    /// numerator for self-time shares (`gb_stage_share`).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.get()
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.get().checked_div(self.count()).unwrap_or(0)
    }

    /// Upper bound of the sub-bucket containing quantile `q` (0.0..=1.0):
    /// at least the true quantile and at most 6.25 % above it.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.get();
            if seen >= rank {
                return upper_bound(i);
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact `q` quantile of sorted `values`, by the same rank rule.
    fn exact(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    /// Record `values` and check every percentile against the exact one.
    fn assert_within_a_sixteenth(mut values: Vec<u64>) {
        let h = LatencyHistogram::default();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for pct in 1..=100 {
            let q = f64::from(pct) / 100.0;
            let (got, truth) = (h.quantile_ns(q), exact(&values, q));
            assert!(got >= truth, "q{q}: {got} < {truth}");
            assert!(
                got as f64 <= truth as f64 * 1.0625,
                "q{q}: {got} more than 6.25 % above {truth}"
            );
        }
    }

    #[test]
    fn buckets_tile_u64_in_order() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(upper_bound(BUCKETS - 1), u64::MAX);
        for i in 1..BUCKETS {
            // Each bucket starts one past the previous one's upper bound.
            let low = upper_bound(i - 1) + 1;
            assert_eq!(bucket_of(low), i, "first value of bucket {i}");
            assert_eq!(bucket_of(upper_bound(i)), i, "last value of bucket {i}");
            let width = upper_bound(i) - low + 1;
            assert!(
                i < 2 * SUB_BUCKETS || width * 16 <= low,
                "bucket {i} too wide"
            );
        }
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(1000); // octave 2^9, sub-bucket [992, 1024)
        }
        h.record(1_000_000); // one slow outlier, sub-bucket [983 040, 1 015 808)
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_ns(0.5), 1023);
        assert_eq!(h.quantile_ns(0.99), 1023);
        assert_eq!(h.quantile_ns(1.0), 1_015_807);
        assert!(h.mean_ns() >= 1000);
        assert_eq!(h.sum_ns(), 99 * 1000 + 1_000_000);
    }

    #[test]
    fn small_values_are_exact() {
        let h = LatencyHistogram::default();
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.quantile_ns(1.0 / 32.0), 0);
        assert_eq!(h.quantile_ns(0.5), 15);
        assert_eq!(h.quantile_ns(1.0), 31);
    }

    #[test]
    fn uniform_latencies_resolve_within_a_sixteenth() {
        assert_within_a_sixteenth((1..=100_000).map(|i| i * 7).collect());
    }

    #[test]
    fn skewed_latencies_resolve_within_a_sixteenth() {
        // A log-uniform spread over 10 ns .. ~10 s, and a two-mode mix:
        // most requests at ~15 µs, a fifth at ~60 µs.
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let log_uniform = (0..20_000)
            .map(|_| 10f64.powf(1.0 + 9.0 * next()) as u64)
            .collect();
        assert_within_a_sixteenth(log_uniform);
        let two_modes = (0..20_000)
            .map(|i| {
                let centre = if i % 5 == 0 { 60_000.0 } else { 15_000.0 };
                (centre * (0.9 + 0.2 * next())) as u64
            })
            .collect();
        assert_within_a_sixteenth(two_modes);
    }

    #[test]
    fn a_29_and_a_46_microsecond_median_read_apart() {
        let (fast, slow) = (LatencyHistogram::default(), LatencyHistogram::default());
        for _ in 0..100 {
            fast.record(29_000);
            slow.record(46_000);
        }
        assert_eq!(fast.quantile_ns(0.5), 29_695);
        assert_eq!(slow.quantile_ns(0.5), 47_103);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_ns(0.99), 0);
        assert_eq!(h.mean_ns(), 0);
        assert_eq!(h.sum_ns(), 0);
    }
}
