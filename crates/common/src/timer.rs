//! Wall-clock phase timing for the reproduction harness.
//!
//! The paper reports build times split into *sorting* and *building* phases
//! (Figure 11a, Table 2) and query latencies in microseconds. Criterion is
//! used for statistical micro-benchmarks; this module provides the plain
//! stopwatch used when reproducing the paper's phase tables, where each
//! phase runs once on a large input.

use std::time::{Duration, Instant};

/// A simple restartable stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Start timing now.
    pub fn start() -> Self {
        Timer {
            start: Instant::now(),
        }
    }

    /// Elapsed time since construction or the last [`Timer::lap`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time, restarting the stopwatch.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let d = now - self.start;
        self.start = now;
        d
    }

    /// Elapsed milliseconds as `f64` (convenient for report rows).
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }

    /// Elapsed microseconds as `f64`.
    pub fn elapsed_us(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_measures_something() {
        let t = Timer::start();
        std::hint::black_box((0..10_000).sum::<u64>());
        assert!(t.elapsed() > Duration::ZERO);
    }

    #[test]
    fn lap_restarts() {
        let mut t = Timer::start();
        std::hint::black_box((0..10_000).sum::<u64>());
        let first = t.lap();
        let second = t.elapsed();
        assert!(first > Duration::ZERO);
        // After the lap the stopwatch restarted, so `second` is close to 0
        // relative to `first`; we only assert monotonic sanity here.
        assert!(second < first + Duration::from_secs(1));
    }
}
