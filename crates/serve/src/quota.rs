//! Per-tenant token-bucket admission control.
//!
//! Each tenant (the `X-Gb-Tenant` header; absent → `"default"`) gets a
//! bucket holding up to `burst` tokens that refills at `per_sec` tokens
//! per second. A request costs one token; an empty bucket means 429 with
//! a `Retry-After` derived from the refill rate. Observability endpoints
//! (`/metrics`, `/healthz`) bypass admission so operators can always see
//! a saturated server.
//!
//! The table holds at most [`MAX_TENANTS`] buckets: the tenant name is
//! client-chosen, so an unbounded table would grow with every new header
//! value. A bucket that has refilled to `burst` admits exactly what a
//! missing one would, so dropping it changes no decision. When a new
//! tenant arrives at the bound, the table first drops every bucket that
//! has refilled to `burst`; if none has, the new tenant is rejected
//! (429, retry once the first bucket refills), never admitted on a fresh
//! bucket, which could over-admit a tenant whose bucket was dropped.
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

/// The most tenants the table holds a bucket for.
pub const MAX_TENANTS: usize = 4096;

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    refilled_us: u64,
}

impl Bucket {
    /// The tokens held as of tick `now_us`, refilled at `per_sec` up to
    /// `burst`.
    fn refilled(&self, now_us: u64, per_sec: f64, burst: f64) -> f64 {
        let elapsed = now_us.saturating_sub(self.refilled_us) as f64 / 1e6;
        (self.tokens + elapsed * per_sec).min(burst)
    }
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
    /// bucket on first use, within [`MAX_TENANTS`]). Ticks may arrive out
    /// of order across threads; a stale tick simply contributes no refill
    /// (`saturating_sub`), it never mints tokens.
    pub fn admit_at(&self, tenant: &str, now_us: u64) -> Admission {
        if self.per_sec <= 0.0 {
            return Admission::Admit;
        }
        let (burst, per_sec) = (self.burst, self.per_sec);
        let mut buckets = self.buckets.lock();
        if buckets.len() >= MAX_TENANTS && !buckets.contains_key(tenant) {
            // Full buckets answer as missing ones do: drop them, and
            // note how long the fullest of the rest takes to get there.
            let mut missing = f64::INFINITY;
            buckets.retain(|_, b| {
                let short = burst - b.refilled(now_us, per_sec, burst);
                missing = missing.min(short);
                short > 0.0
            });
            if buckets.len() >= MAX_TENANTS {
                return reject(missing, per_sec);
            }
        }
        let bucket = buckets.entry(tenant.to_string()).or_insert(Bucket {
            tokens: burst,
            refilled_us: now_us,
        });
        bucket.tokens = bucket.refilled(now_us, per_sec, burst);
        bucket.refilled_us = bucket.refilled_us.max(now_us);
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Admission::Admit
        } else {
            reject(1.0 - bucket.tokens, per_sec)
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

/// The rejection for a request that waits until `deficit` tokens refill.
fn reject(deficit: f64, per_sec: f64) -> Admission {
    let retry_after_ms = ((deficit / per_sec) * 1000.0).ceil() as u64;
    Admission::Reject {
        retry_after_ms: retry_after_ms.max(1),
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
    fn the_table_is_bounded_and_drops_only_refilled_buckets() {
        // Burst 2 at 1 token/s: a tenant that took one token is full
        // again a second later.
        let q: QuotaTable = QuotaTable::new(2.0, 1.0);
        for t in 0..MAX_TENANTS {
            assert_eq!(q.admit_at(&format!("t{t}"), 0), Admission::Admit);
        }
        assert_eq!(q.tenants(), MAX_TENANTS);
        // No bucket has refilled: a new tenant is refused, with the time
        // the first one takes to refill, and gets no bucket.
        assert_eq!(
            q.admit_at("new", 500_000),
            Admission::Reject {
                retry_after_ms: 500
            }
        );
        assert_eq!(q.tenants(), MAX_TENANTS);
        // A known tenant is still served from its own bucket.
        assert_eq!(q.admit_at("t0", 500_000), Admission::Admit);
        // A second on, every bucket but t0's is full again: they go, and
        // the new tenant gets a bucket of its own.
        assert_eq!(q.admit_at("new", 1_000_000), Admission::Admit);
        assert_eq!(q.tenants(), 2);
        // t0 kept its own bucket (1 token by now), not a fresh one (2).
        assert_eq!(q.admit_at("t0", 1_000_000), Admission::Admit);
        assert!(matches!(
            q.admit_at("t0", 1_000_000),
            Admission::Reject { .. }
        ));
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
