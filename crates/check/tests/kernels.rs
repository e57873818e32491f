//! Model-checked invariants for the three GeoBlocks concurrency kernels.
//!
//! Each test instantiates a *production* kernel type with
//! [`gb_check::CheckedBackend`] and explores its interleavings. The
//! invariants are the ones the serving path's correctness argument
//! actually rests on (see `DESIGN.md` § Model checking):
//!
//! * epoch-swap: readers never observe a torn publication, and
//!   publications form a total order;
//! * result cache: a returned reply always matches a from-scratch
//!   recomputation at the epoch used for validation (cache-less shadow);
//! * quota: concurrent admits never over-admit past the burst.
//!
//! The fork-join pool is not modelled: its workers share nothing but
//! relaxed statistics counters, and their results are joined (see
//! `DESIGN.md` § Model checking).
//!
//! Schedule counts are asserted (the acceptance bar is >= 1000 distinct
//! schedules for the epoch-swap and cache kernels) and printed, so
//! `cargo test -p gb_check -- --nocapture` reports coverage numbers for
//! `EXPERIMENTS.md`.

use gb_check::{check, spawn, CheckedBackend, Options};
use gb_common::sync::backend::{AtomicU64Api, Backend, Ordering};
use gb_serve::cache::ResultCache;
use gb_serve::quota::{Admission, QuotaTable};
use geoblocks::PublishKernel;
use std::sync::Arc;
use std::time::Duration;

type CAtomicU64 = <CheckedBackend as Backend>::AtomicU64;

/// An epoch-stamped state with fields *derived from* the epoch: any
/// interleaving that lets a reader see fields from two different
/// publications breaks the `double`/`triple` relation immediately.
#[derive(Debug)]
struct EpochState {
    epoch: u64,
    double: u64,
    triple: u64,
}

impl EpochState {
    fn at(epoch: u64) -> EpochState {
        EpochState {
            epoch,
            double: epoch * 2,
            triple: epoch * 3,
        }
    }

    fn assert_untorn(&self) {
        assert_eq!(
            (self.double, self.triple),
            (self.epoch * 2, self.epoch * 3),
            "torn publication: derived fields disagree with epoch {}",
            self.epoch
        );
    }
}

#[test]
fn epoch_swap_readers_never_observe_torn_publications() {
    let report = check(Options::default(), || {
        let kernel: Arc<PublishKernel<EpochState, CheckedBackend>> =
            Arc::new(PublishKernel::new(EpochState::at(0)));

        let publishers: Vec<_> = (0..2)
            .map(|_| {
                let k = Arc::clone(&kernel);
                spawn(move || {
                    k.publish(|cur| (EpochState::at(cur.epoch + 1), ()));
                })
            })
            .collect();

        let reader = {
            let k = Arc::clone(&kernel);
            spawn(move || {
                let mut last_epoch = 0;
                for _ in 0..2 {
                    let snap = k.snapshot();
                    snap.assert_untorn();
                    assert!(
                        snap.epoch >= last_epoch,
                        "publication order regressed: {} after {}",
                        snap.epoch,
                        last_epoch
                    );
                    last_epoch = snap.epoch;
                }
            })
        };

        for p in publishers {
            p.join();
        }
        reader.join();

        // Serialized publishers: exactly one bump each, none lost.
        let end = kernel.snapshot();
        end.assert_untorn();
        assert_eq!(end.epoch, 2, "a concurrent publish was lost or doubled");
    });
    report.assert_pass();
    println!(
        "epoch-swap kernel: {} schedules (exhausted: {})",
        report.schedules, report.exhausted
    );
    assert!(
        report.exhausted,
        "exploration must exhaust the bounded space"
    );
    assert!(
        report.schedules >= 1000,
        "acceptance bar: >= 1000 distinct schedules, got {}",
        report.schedules
    );
}

/// Reply a correct server would compute from scratch at `epoch` — the
/// cache-less shadow the cached result is held against.
fn reply_at(epoch: u64) -> Vec<u8> {
    vec![0xC0, epoch as u8]
}

#[test]
fn cache_never_serves_a_reply_across_an_epoch_bump() {
    let report = check(Options::default(), || {
        let epoch = Arc::new(CAtomicU64::new(0));
        let cache: Arc<ResultCache<CheckedBackend>> =
            Arc::new(ResultCache::new(4, Duration::from_secs(10)));

        // Updater: one epoch bump (an `apply_updates` commit).
        let updater = {
            let epoch = Arc::clone(&epoch);
            spawn(move || {
                epoch.fetch_add(1, Ordering::SeqCst);
            })
        };

        // Two serving threads: compute-at-current-epoch, insert, then
        // re-read the epoch and look up. The invariant: whatever the
        // cache returns must equal the shadow recomputation at the
        // epoch used for validation — even though the insert and the
        // lookup may straddle the updater's bump.
        let servers: Vec<_> = (0..2)
            .map(|_| {
                let epoch = Arc::clone(&epoch);
                let cache = Arc::clone(&cache);
                spawn(move || {
                    let e = epoch.load(Ordering::SeqCst);
                    cache.insert_at(7, reply_at(e), e, 0);
                    let e2 = epoch.load(Ordering::SeqCst);
                    if let Some(served) = cache.get_at(7, e2, 0, |_| true) {
                        assert_eq!(
                            served,
                            reply_at(e2),
                            "cache served a reply from another epoch (validated at {e2})"
                        );
                    }
                })
            })
            .collect();

        updater.join();
        for s in servers {
            s.join();
        }

        // After the dust settles: a lookup at the final epoch still
        // never yields anything the shadow would not produce.
        let e = epoch.load(Ordering::SeqCst);
        if let Some(served) = cache.get_at(7, e, 0, |_| true) {
            assert_eq!(served, reply_at(e));
        }
    });
    report.assert_pass();
    println!(
        "cache-validation kernel: {} schedules (exhausted: {})",
        report.schedules, report.exhausted
    );
    assert!(
        report.exhausted,
        "exploration must exhaust the bounded space"
    );
    assert!(
        report.schedules >= 1000,
        "acceptance bar: >= 1000 distinct schedules, got {}",
        report.schedules
    );
}

#[test]
fn quota_concurrent_admits_never_exceed_burst() {
    let report = check(Options::exhaustive(), || {
        let quota: Arc<QuotaTable<CheckedBackend>> = Arc::new(QuotaTable::new(2.0, 1.0));

        // Three tenants' worth of concurrent traffic on ONE bucket at
        // the same tick: at most `burst` (= 2) may be admitted, no
        // matter how the refill/acquire critical sections interleave.
        let admitters: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&quota);
                spawn(move || matches!(q.admit_at("tenant", 0), Admission::Admit))
            })
            .collect();

        let admitted = admitters
            .into_iter()
            .map(|h| h.join())
            .filter(|&ok| ok)
            .count();
        assert!(
            admitted <= 2,
            "token bucket over-admitted: {admitted} grants from a burst of 2"
        );
        assert_eq!(
            admitted, 2,
            "with an idle bucket of burst 2, exactly 2 of 3 concurrent requests win"
        );
    });
    report.assert_pass();
    println!(
        "quota kernel: {} schedules (exhausted: {})",
        report.schedules, report.exhausted
    );
    assert!(
        report.exhausted,
        "exploration must exhaust the bounded space"
    );
}
