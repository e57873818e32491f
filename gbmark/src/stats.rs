//! Exact statistics over the benchmark's own raw samples.
//!
//! Latencies are kept as raw nanosecond samples and sorted once, so a
//! percentile is a real observation (nearest rank), never a bucket
//! boundary. A tail percentile is only reported when the sample can
//! support it: [`supported_tail`] picks the highest rung that still has
//! at least [`MIN_BEYOND`] samples beyond it.

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Tail rungs, highest first. A metric named `p99` never climbs above
/// its cap but falls down this ladder when the sample is small.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest rank of percentile `p` among `n` samples, `ceil(n * p / 100)`,
/// in whole per-mille so that 99.9 % of 10 000 is exactly 9 990.
fn rank(n: usize, p: f64) -> usize {
    (n * (p * 10.0).round() as usize).div_ceil(1000)
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    sorted
        .get(rank(sorted.len(), p).clamp(1, sorted.len()) - 1)
        .copied()
}

/// The highest ladder rung `<= cap` with at least [`MIN_BEYOND`] of `n`
/// samples strictly beyond it (the median when even that is unsupported).
pub fn supported_tail(n: usize, cap: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| n.saturating_sub(rank(n, p)) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Median and supported tail of one round's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub n: usize,
    pub p50: u64,
    /// The percentile actually reported as the tail (`<= cap`).
    pub tail_p: f64,
    pub tail: u64,
}

/// Sort `samples` in place and summarise them; `None` when empty.
pub fn tail_of(samples: &mut [u64], cap: f64) -> Option<Tail> {
    samples.sort_unstable();
    let tail_p = supported_tail(samples.len(), cap);
    Some(Tail {
        n: samples.len(),
        p50: percentile(samples, 50.0)?,
        tail_p,
        tail: percentile(samples, tail_p)?,
    })
}

/// Midmean / min / max over rounds (or over passes of a timed loop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The interquartile mean: the mean of what is left after dropping
    /// the lowest and the highest quarter of the values (rounded down).
    pub mid: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Summarise per-round values; `None` when empty.
///
/// The centre is the midmean, not the median. On a shared two-core
/// machine a round's latency falls into one of two modes (say 20 µs or
/// 30 µs, by where the host placed the threads). Like a median the
/// midmean ignores the best and worst rounds; unlike a median it moves
/// in small steps when the share of rounds in each mode shifts, where a
/// median jumps from one mode to the other.
pub fn spread(values: &[f64]) -> Option<Spread> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let middle = v.get(n / 4..n - n / 4).filter(|m| !m.is_empty())?;
    Some(Spread {
        mid: middle.iter().sum::<f64>() / middle.len() as f64,
        min: *v.first()?,
        max: *v.last()?,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_raw_samples() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 99.9), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(supported_tail(1000, 99.9), 99.0);
        assert_eq!(supported_tail(999, 99.9), 95.0);
        assert_eq!(supported_tail(10_000, 99.9), 99.9);
        // The cap wins over what the sample could support.
        assert_eq!(supported_tail(1_000_000, 99.0), 99.0);
        assert_eq!(supported_tail(100, 99.0), 90.0);
        assert_eq!(supported_tail(15, 99.0), 50.0);
        assert_eq!(supported_tail(3, 99.0), 50.0);
    }

    #[test]
    fn tail_of_sorts_and_reports_the_rung_it_used() {
        let mut v: Vec<u64> = (1..=200).rev().collect();
        let t = tail_of(&mut v, 99.0).expect("non-empty");
        assert_eq!((t.n, t.p50, t.tail_p, t.tail), (200, 100, 95.0, 190));
        assert_eq!(tail_of(&mut [], 99.0), None);
    }

    #[test]
    fn spread_is_midmean_min_max_over_rounds() {
        // Five values: the lowest and the highest are dropped.
        let s = spread(&[5.0, 1.0, 90.0, 3.0, 7.0]).expect("non-empty");
        assert_eq!((s.mid, s.min, s.max, s.n), (5.0, 1.0, 90.0, 5));
        // Eight rounds in two modes: the middle four decide, in steps.
        let modes = |slow: usize| {
            let rounds: Vec<f64> = (0..8).map(|i| if i < slow { 30.0 } else { 20.0 }).collect();
            spread(&rounds).expect("non-empty").mid
        };
        assert_eq!(
            [modes(2), modes(3), modes(4), modes(5), modes(6)],
            [20.0, 22.5, 25.0, 27.5, 30.0]
        );
        assert_eq!(spread(&[4.0, 2.0]).expect("non-empty").mid, 3.0);
        assert_eq!(spread(&[4.0]).expect("non-empty").mid, 4.0);
        assert_eq!(spread(&[]), None);
    }
}
