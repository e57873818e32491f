//! Per-tenant token-bucket admission control.
//!
//! Each tenant (the `X-Gb-Tenant` header; absent → `"default"`) gets a
//! bucket holding up to `burst` tokens that refills at `per_sec` tokens
//! per second. A request costs one token; an empty bucket means 429 with
//! a `Retry-After` derived from the refill rate. Observability endpoints
//! (`/metrics`, `/healthz`) bypass admission so operators can always see
//! a saturated server.
//!
//! The table is generic over the sync [`Backend`] and takes time as an
//! explicit microsecond tick ([`QuotaTable::admit_at`]), so `gb_check`
//! can drive refill/acquire races deterministically and prove the
//! no-over-admission invariant: across any interleaving of concurrent
//! admits, a tenant is never granted more than `burst + refilled`
//! tokens. Production code calls [`QuotaTable::admit`], which derives
//! the tick from a monotonic anchor.

use gb_common::sync::backend::{Backend, MutexApi, StdBackend};
use gb_common::sync::rank;
use gb_common::FxHashMap;
use std::time::Instant;

/// Admission decision for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Token granted.
    Admit,
    /// Bucket empty: retry after roughly this many milliseconds.
    Reject { retry_after_ms: u64 },
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    refilled_us: u64,
}

/// Token buckets keyed by tenant name. One mutex over the whole table:
/// the critical section is a few float ops, far below the cost of the
/// query behind it.
#[derive(Debug)]
pub struct QuotaTable<B: Backend = StdBackend> {
    buckets: B::Mutex<FxHashMap<String, Bucket>>,
    burst: f64,
    per_sec: f64,
    /// Monotonic anchor for the tick-free production wrapper.
    anchor: Instant,
}

impl<B: Backend> QuotaTable<B> {
    /// Buckets with `burst` capacity refilling at `per_sec` tokens/sec.
    /// A non-positive `per_sec` disables admission control entirely.
    pub fn new(burst: f64, per_sec: f64) -> QuotaTable<B> {
        QuotaTable {
            buckets: B::Mutex::new("buckets", rank::LEAF, FxHashMap::default()),
            burst: burst.max(1.0),
            per_sec,
            anchor: Instant::now(),
        }
    }

    /// Take one token for `tenant` as of tick `now_us` (creating a full
    /// bucket on first use). Ticks may arrive out of order across
    /// threads; a stale tick simply contributes no refill
    /// (`saturating_sub`), it never mints tokens.
    pub fn admit_at(&self, tenant: &str, now_us: u64) -> Admission {
        if self.per_sec <= 0.0 {
            return Admission::Admit;
        }
        let mut buckets = self.buckets.lock();
        let bucket = buckets.entry(tenant.to_string()).or_insert(Bucket {
            tokens: self.burst,
            refilled_us: now_us,
        });
        let elapsed = now_us.saturating_sub(bucket.refilled_us) as f64 / 1e6;
        bucket.tokens = (bucket.tokens + elapsed * self.per_sec).min(self.burst);
        bucket.refilled_us = bucket.refilled_us.max(now_us);
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Admission::Admit
        } else {
            let deficit = 1.0 - bucket.tokens;
            let retry_after_ms = ((deficit / self.per_sec) * 1000.0).ceil() as u64;
            Admission::Reject {
                retry_after_ms: retry_after_ms.max(1),
            }
        }
    }

    /// [`QuotaTable::admit_at`] at the current wall-clock tick.
    pub fn admit(&self, tenant: &str) -> Admission {
        let now_us = self.anchor.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.admit_at(tenant, now_us)
    }

    /// Number of tenants with live buckets.
    pub fn tenants(&self) -> usize {
        self.buckets.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_admits_then_rejects() {
        // 3-token burst, glacial refill: exactly 3 admits.
        let q: QuotaTable = QuotaTable::new(3.0, 0.001);
        assert_eq!(q.admit("a"), Admission::Admit);
        assert_eq!(q.admit("a"), Admission::Admit);
        assert_eq!(q.admit("a"), Admission::Admit);
        assert!(matches!(q.admit("a"), Admission::Reject { .. }));
    }

    #[test]
    fn tenants_are_isolated() {
        let q: QuotaTable = QuotaTable::new(1.0, 0.001);
        assert_eq!(q.admit("a"), Admission::Admit);
        assert!(matches!(q.admit("a"), Admission::Reject { .. }));
        assert_eq!(q.admit("b"), Admission::Admit, "b has its own bucket");
        assert_eq!(q.tenants(), 2);
    }

    #[test]
    fn refill_restores_admission() {
        // Deterministic clock: 1 token per second, empty at tick 0,
        // refilled a second later.
        let q: QuotaTable = QuotaTable::new(1.0, 1.0);
        assert_eq!(q.admit_at("a", 0), Admission::Admit);
        assert!(matches!(q.admit_at("a", 0), Admission::Reject { .. }));
        assert_eq!(q.admit_at("a", 1_000_000), Admission::Admit);
    }

    #[test]
    fn refill_never_exceeds_burst() {
        let q: QuotaTable = QuotaTable::new(2.0, 1000.0);
        assert_eq!(q.admit_at("a", 0), Admission::Admit);
        // An hour of idle refill still caps at burst: 2 admits, not 3.
        assert_eq!(q.admit_at("a", 3_600_000_000), Admission::Admit);
        assert_eq!(q.admit_at("a", 3_600_000_000), Admission::Admit);
        assert!(matches!(
            q.admit_at("a", 3_600_000_000),
            Admission::Reject { .. }
        ));
    }

    #[test]
    fn stale_ticks_mint_no_tokens() {
        // A thread with an older clock reading must not re-refill.
        let q: QuotaTable = QuotaTable::new(1.0, 1.0);
        assert_eq!(q.admit_at("a", 2_000_000), Admission::Admit);
        assert!(matches!(q.admit_at("a", 0), Admission::Reject { .. }));
        assert!(matches!(
            q.admit_at("a", 2_000_000),
            Admission::Reject { .. }
        ));
    }

    #[test]
    fn retry_after_tracks_refill_rate() {
        let q: QuotaTable = QuotaTable::new(1.0, 2.0); // 1 token per 500 ms
        assert_eq!(q.admit_at("a", 0), Admission::Admit);
        match q.admit_at("a", 0) {
            Admission::Reject { retry_after_ms } => {
                assert_eq!(retry_after_ms, 500, "full token deficit at 2/sec");
            }
            Admission::Admit => panic!("bucket should be empty"),
        }
    }

    #[test]
    fn non_positive_rate_disables_quotas() {
        let q: QuotaTable = QuotaTable::new(1.0, 0.0);
        for _ in 0..100 {
            assert_eq!(q.admit("a"), Admission::Admit);
        }
        assert_eq!(q.tenants(), 0, "disabled quotas allocate nothing");
    }
}
