//! Model-conformance property test: the sequential [`CacheModel`]
//! shadow that `gb_check`'s concurrency tests trust must agree with the
//! *production* `ResultCache<StdBackend>`, operation for operation, on
//! arbitrary op sequences — same returned bytes, same live-entry counts,
//! and the production counters count every lookup the shadow served as
//! a hit and every other as a miss. If the real cache's semantics drift
//! (eviction policy, TTL boundary, epoch validation, a colliding key),
//! this test fails before the model-checked invariants silently stop
//! meaning anything.

use gb_check::models::CacheModel;
use gb_serve::cache::ResultCache;
use proptest::prelude::*;
use std::time::Duration;

/// One cache operation, decoded from a generated tuple. Keys, epochs,
/// and ticks are drawn from tiny domains so sequences revisit entries,
/// cross epochs, and straddle the TTL boundary instead of missing
/// forever. Each get and insert is for one of two requests that share
/// every key, so a get finds the other request's entry (a colliding
/// key) about as often as its own.
#[derive(Debug, Clone, Copy)]
enum Op {
    Get {
        key: u64,
        epoch: u64,
        now_us: u64,
        request: u8,
    },
    Insert {
        key: u64,
        epoch: u64,
        now_us: u64,
        request: u8,
    },
    Purge {
        epoch: u64,
        now_us: u64,
    },
}

fn decode(op: u8, key: u64, epoch: u64, tick: u64, request: u8) -> Op {
    // Ticks cluster around the 1ms TTL so both sides of the inclusive
    // boundary (1_000 vs 1_001) are exercised.
    let now_us = tick * 250;
    match op % 4 {
        0 | 1 => Op::Get {
            key,
            epoch,
            now_us,
            request,
        },
        2 => Op::Insert {
            key,
            epoch,
            now_us,
            request,
        },
        _ => Op::Purge { epoch, now_us },
    }
}

/// The reply bytes for (key, epoch, request): deterministic, so
/// divergence in *which entry* is returned shows up as a byte mismatch
/// too. The last byte names the request, as a server's entry holds its
/// request body.
fn reply(key: u64, epoch: u64, request: u8) -> Vec<u8> {
    vec![key as u8, epoch as u8, request]
}

/// The server's accept predicate: serve an entry to its own request only.
fn own(request: u8) -> impl Fn(&[u8]) -> bool {
    move |reply| reply[2] == request
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_model_matches_production_cache(
        cap in 0usize..5,
        ops in prop::collection::vec((0u8..4, 0u64..6, 0u64..3, 0u64..9, 0u8..2), 1..80),
    ) {
        let ttl = Duration::from_millis(1);
        let real: ResultCache = ResultCache::new(cap, ttl);
        let mut shadow = CacheModel::new(cap, ttl.as_micros() as u64);
        let (mut hits, mut misses) = (0u64, 0u64);

        for (i, &(op, key, epoch, tick, request)) in ops.iter().enumerate() {
            match decode(op, key, epoch, tick, request) {
                Op::Get { key, epoch, now_us, request } => {
                    let accept = own(request);
                    let got = real.get_at(key, epoch, now_us, |r| accept(r));
                    let want = shadow.get_at(key, epoch, now_us, accept);
                    hits += u64::from(want.is_some());
                    misses += u64::from(want.is_none());
                    prop_assert_eq!(
                        got, want,
                        "op {}: get_at({}, epoch {}, {}us, request {}) diverged",
                        i, key, epoch, now_us, request
                    );
                }
                Op::Insert { key, epoch, now_us, request } => {
                    real.insert_at(key, reply(key, epoch, request), epoch, now_us);
                    shadow.insert_at(key, reply(key, epoch, request), epoch, now_us);
                }
                Op::Purge { epoch, now_us } => {
                    real.purge_stale_at(epoch, now_us);
                    shadow.purge_stale_at(epoch, now_us);
                }
            }
            prop_assert_eq!(
                real.len(), shadow.len(),
                "op {}: live-entry counts diverged", i
            );
            let stats = real.stats();
            prop_assert_eq!(
                (stats.hits, stats.misses), (hits, misses),
                "op {}: hit/miss counters diverged", i
            );
        }

        // Terminal sweep: every key agrees at every epoch/tick probe.
        for key in 0..6u64 {
            for epoch in 0..3u64 {
                let got = real.get_at(key, epoch, 2_000, |_| true);
                let want = shadow.get_at(key, epoch, 2_000, |_| true);
                prop_assert_eq!(got, want, "terminal probe diverged for key {}", key);
            }
        }
        prop_assert_eq!(real.is_empty(), shadow.is_empty());
    }
}
