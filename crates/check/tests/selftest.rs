//! Checker self-tests: seed known-broken variants of the kernels and
//! require the explorer to (a) find the bug, (b) hand back a trace that
//! reproduces it exactly under [`gb_check::replay`], and (c) do all of
//! that deterministically, so the trace can be pinned as a regression
//! test.
//!
//! The broken variants are deliberate *near-misses* of the real code:
//! each is the one-line mistake a refactor could plausibly introduce
//! (re-reading the epoch after computing the reply; a lookup that serves
//! any entry under a colliding key; a load/branch/store token bucket).
//! The real kernels passed the model checker (`tests/kernels.rs` found
//! no interleaving bug), so these near-misses pin the checker's
//! detection behavior instead of a fixed production bug.

use gb_check::{check, replay, spawn, CheckedBackend, Options};
use gb_common::sync::backend::{AtomicU64Api, Backend, Ordering};
use gb_serve::cache::ResultCache;
use std::sync::Arc;
use std::time::Duration;

type CAtomicU64 = <CheckedBackend as Backend>::AtomicU64;

fn reply_at(epoch: u64) -> Vec<u8> {
    vec![0xC0, epoch as u8]
}

/// BROKEN near-miss of the serve pipeline: the reply is computed at one
/// epoch but the cache entry is tagged with a *re-read* of the epoch.
/// If an update commits between the compute and the tag, the cache
/// holds an old reply labeled with the new epoch — epoch validation is
/// defeated and a stale answer is served as fresh. The real pipeline
/// threads the *same* epoch value from compute to insert, which the
/// model proves safe in `tests/kernels.rs`.
fn stale_epoch_tag_model() {
    let epoch = Arc::new(CAtomicU64::new(0));
    let cache: Arc<ResultCache<CheckedBackend>> =
        Arc::new(ResultCache::new(4, Duration::from_secs(10)));

    let updater = {
        let epoch = Arc::clone(&epoch);
        spawn(move || {
            epoch.fetch_add(1, Ordering::SeqCst);
        })
    };

    let e = epoch.load(Ordering::SeqCst);
    let reply = reply_at(e);
    // BUG: epoch re-read between compute and insert.
    let e_tag = epoch.load(Ordering::SeqCst);
    cache.insert_at(7, reply, e_tag, 0);

    updater.join();

    let now = epoch.load(Ordering::SeqCst);
    if let Some(served) = cache.get_at(7, now, 0, |_| true) {
        assert_eq!(
            served,
            reply_at(now),
            "stale reply served as epoch-{now} fresh"
        );
    }
}

#[test]
fn seeded_stale_epoch_tag_is_caught_and_replays() {
    let report = check(Options::default(), stale_epoch_tag_model);
    let failure = report.assert_fails().clone();
    assert!(
        failure.message.contains("stale reply"),
        "wrong failure: {}",
        failure.message
    );
    assert!(
        !failure.trace.is_empty(),
        "failure must carry a replayable schedule"
    );

    // The trace alone reproduces the bug, message and all.
    let replayed = replay(&failure.trace, stale_epoch_tag_model);
    let again = replayed.failure.expect("pinned trace must fail again");
    assert_eq!(again.message, failure.message);
    assert_eq!(again.trace, failure.trace);

    // Exploration is deterministic: a second full check lands on the
    // identical first failing schedule, so traces are safe to pin in
    // regression tests.
    let second = check(Options::default(), stale_epoch_tag_model);
    let failure2 = second.assert_fails();
    assert_eq!(failure2.trace, failure.trace);
    assert_eq!(second.schedules, report.schedules);
}

/// A cache entry as `GbServer` stores it: the request body and its reply.
type Entry = (Vec<u8>, Vec<u8>);

/// Request `body`'s reply.
fn reply_for(body: &[u8]) -> Vec<u8> {
    [&[0xC1], body].concat()
}

/// Request A's lookup and, on a miss, its insert, while request B (whose
/// body hashes to the same key) inserts its reply; then A's answer is
/// checked. `accept` is the lookup's predicate over the stored entry.
fn colliding_requests_model(accept: fn(&Entry) -> bool) {
    const KEY: u64 = 7;
    let cache: Arc<ResultCache<CheckedBackend, Entry>> =
        Arc::new(ResultCache::new(4, Duration::from_secs(10)));

    let other = {
        let cache = Arc::clone(&cache);
        spawn(move || cache.insert_at(KEY, (b"B".to_vec(), reply_for(b"B")), 0, 0))
    };

    let served = match cache.get_at(KEY, 0, 0, accept) {
        Some((_, reply)) => reply,
        None => {
            let reply = reply_for(b"A");
            cache.insert_at(KEY, (b"A".to_vec(), reply.clone()), 0, 0);
            reply
        }
    };
    other.join();

    assert_eq!(
        served,
        reply_for(b"A"),
        "request A answered with another request's reply"
    );
}

/// BROKEN near-miss of the serve lookup: it accepts whatever entry the
/// key holds instead of comparing the stored body with the one in hand,
/// so once B's reply is in, A is answered with it. `GbServer` passes
/// `|entry| entry.0 == body` (`fixed_colliding_lookup_is_safe_on_every_schedule`).
fn accept_any_lookup_model() {
    colliding_requests_model(|_| true);
}

#[test]
fn seeded_accept_any_lookup_is_caught_and_replays() {
    let report = check(Options::default(), accept_any_lookup_model);
    let failure = report.assert_fails().clone();
    assert!(
        failure.message.contains("another request's reply"),
        "wrong failure: {}",
        failure.message
    );
    assert!(
        !failure.trace.is_empty(),
        "failure must carry a replayable schedule"
    );

    let replayed = replay(&failure.trace, accept_any_lookup_model);
    let again = replayed.failure.expect("pinned trace must fail again");
    assert_eq!(again.message, failure.message);
    assert_eq!(again.trace, failure.trace);
}

#[test]
fn fixed_colliding_lookup_is_safe_on_every_schedule() {
    let report = check(Options::default(), || {
        colliding_requests_model(|entry| entry.0 == b"A");
    });
    report.assert_pass();
    assert!(report.exhausted);
}

/// BROKEN near-miss of the quota bucket: check-then-act on an atomic
/// token count instead of a mutex-held read-modify-write. Two admitters
/// can both observe one remaining token and both take it.
fn toctou_bucket_model() {
    let tokens = Arc::new(CAtomicU64::new(1));

    let admitters: Vec<_> = (0..2)
        .map(|_| {
            let tokens = Arc::clone(&tokens);
            spawn(move || {
                // BUG: the load and the store are separate atomic steps.
                let t = tokens.load(Ordering::SeqCst);
                if t > 0 {
                    tokens.store(t - 1, Ordering::SeqCst);
                    true
                } else {
                    false
                }
            })
        })
        .collect();

    let admitted = admitters
        .into_iter()
        .map(|h| h.join())
        .filter(|&ok| ok)
        .count();
    assert!(
        admitted <= 1,
        "over-admitted: {admitted} grants from a single token"
    );
}

#[test]
fn seeded_toctou_bucket_is_caught_and_replays() {
    let report = check(Options::default(), toctou_bucket_model);
    let failure = report.assert_fails().clone();
    assert!(
        failure.message.contains("over-admitted"),
        "wrong failure: {}",
        failure.message
    );

    let replayed = replay(&failure.trace, toctou_bucket_model);
    let again = replayed.failure.expect("pinned trace must fail again");
    assert_eq!(again.message, failure.message);
}

/// A correct schedule of the broken bucket (serialized admitters) must
/// replay green: replay checks one schedule, not the whole space, which
/// is what makes "this exact interleaving is fixed" pinnable.
#[test]
fn replay_of_a_benign_schedule_stays_green() {
    // Find the failing trace first, then build a serialized variant by
    // exploring with zero preemptions: under preemption bound 0 the
    // check-then-act windows never interleave, so exploration passes.
    let serialized = check(
        Options {
            preemption_bound: Some(0),
            ..Options::default()
        },
        toctou_bucket_model,
    );
    serialized.assert_pass();
    assert!(serialized.exhausted);
}
