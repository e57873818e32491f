//! Relaxed statistics counters — the home for `Ordering::Relaxed` in
//! this workspace.
//!
//! A [`Counter`] is a monotonic (plus explicit reset) event tally:
//! cache hits, probes, admission rejections, latency-bucket increments.
//! Counters are *observability*, never *synchronization* — no control
//! flow may depend on one thread observing another's increment in any
//! particular order, which is exactly the situation where
//! `Ordering::Relaxed` is correct and anything stronger is noise on the
//! hot path.
//!
//! Code that needs a relaxed counter routes here; code that needs
//! ordering semantics spells out Acquire/Release/SeqCst, and any other
//! `Relaxed` says why in a comment beside it.

use std::sync::atomic::{AtomicU64, Ordering};

/// A relaxed, shared event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Count one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Count `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current tally. Reads are as relaxed as writes: the value is a
    /// statistical snapshot, not a synchronization point.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Count one event and return the tally *before* this increment — a
    /// relaxed ticket dispenser. Used by the tracer's sampling gate
    /// (`ticket % rate == 0`) and completion sequence numbers, where the
    /// only requirement is that concurrent callers get distinct tickets,
    /// not that tickets observe any cross-thread order.
    #[inline]
    pub fn next(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn next_returns_pre_increment_tickets() {
        let c = Counter::new();
        assert_eq!(c.next(), 0);
        assert_eq!(c.next(), 1);
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn shared_counting_sums_exactly() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
