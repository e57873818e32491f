//! `gb_check` — deterministic interleaving model checker for the
//! GeoBlocks concurrency kernels.
//!
//! The workspace's concurrency surface is abstracted behind
//! `gb_common::sync::backend::Backend`. Production code instantiates it
//! with `StdBackend` (ordered std locks, real atomics — zero overhead);
//! model-checked tests instantiate the same kernels with
//! [`CheckedBackend`], whose every lock, atomic, spawn and join is a
//! *switch point* routed through a run-local scheduler. The
//! explorer ([`check`]) then runs the test closure once per schedule,
//! systematically enumerating interleavings:
//!
//! * **exhaustive bounded DFS** over scheduling choices, with a
//!   configurable preemption bound (default 2 — the CHESS observation:
//!   most real concurrency bugs need very few preemptions);
//! * **deterministic replay**: a failure report carries the exact grant
//!   trace, and [`replay`] re-executes it step for step, so every red
//!   run is reproducible and pinnable as a regression test.
//!
//! Alongside interleaving exploration, the scheduler enforces the
//! workspace's declared lock-rank order (`gb_common::sync::rank`, as
//! the debug-build runtime check does) at model time, detects deadlocks
//! (reporting who waits on which named lock), and flags livelock via a
//! per-schedule step budget.
//!
//! What the model does **not** cover: weak-memory reorderings. The
//! checked atomics are sequentially consistent regardless of the
//! `Ordering` argument; relaxed-memory bugs remain ThreadSanitizer's
//! department (see `DESIGN.md` § Model checking).
//!
//! # Example
//!
//! ```
//! use gb_common::sync::backend::{AtomicU64Api, Backend, Ordering};
//! use std::sync::Arc;
//!
//! // A correct fetch_add counter: every interleaving sums to 2.
//! let report = gb_check::check(gb_check::Options::default(), || {
//!     let n = Arc::new(<gb_check::CheckedBackend as Backend>::AtomicU64::new(0));
//!     let n2 = Arc::clone(&n);
//!     let t = gb_check::spawn(move || {
//!         n2.fetch_add(1, Ordering::SeqCst);
//!     });
//!     n.fetch_add(1, Ordering::SeqCst);
//!     t.join();
//!     assert_eq!(n.load(Ordering::SeqCst), 2);
//! });
//! report.assert_pass();
//! assert!(report.exhausted);
//! ```

mod backend;
mod ctx;
mod explore;
pub mod models;
mod sched;
mod thread_api;

pub use backend::{CheckedAtomicU64, CheckedBackend, CheckedMutex, CheckedRwLock};
pub use explore::{check, replay, Failure, Options, Report};
pub use thread_api::{spawn, JoinHandle};

#[cfg(test)]
mod tests {
    use super::*;
    use gb_common::sync::backend::{AtomicU64Api, Backend, MutexApi, Ordering};
    use gb_common::sync::rank;
    use std::sync::Arc;

    type CAtomicU64 = <CheckedBackend as Backend>::AtomicU64;
    type CMutex<T> = <CheckedBackend as Backend>::Mutex<T>;

    #[test]
    fn single_thread_explores_exactly_one_schedule() {
        let report = check(Options::default(), || {
            let n = CAtomicU64::new(0);
            n.fetch_add(1, Ordering::SeqCst);
            assert_eq!(n.load(Ordering::SeqCst), 1);
        });
        report.assert_pass();
        assert!(report.exhausted);
        assert_eq!(report.schedules, 1, "no concurrency, no branching");
    }

    #[test]
    fn atomic_fetch_add_is_sound_in_every_interleaving() {
        let report = check(Options::exhaustive(), || {
            let n = Arc::new(CAtomicU64::new(0));
            let n2 = Arc::clone(&n);
            let t = spawn(move || {
                n2.fetch_add(1, Ordering::SeqCst);
            });
            n.fetch_add(1, Ordering::SeqCst);
            t.join();
            assert_eq!(n.load(Ordering::SeqCst), 2);
        });
        report.assert_pass();
        assert!(report.exhausted);
        assert!(report.schedules > 1, "spawn must introduce real branching");
    }

    #[test]
    fn load_store_increment_loses_an_update_and_replay_reproduces_it() {
        // The classic race: two read-modify-write sequences built from a
        // separate load and store. Some interleaving drops an increment.
        fn model() {
            let n = Arc::new(CAtomicU64::new(0));
            let n2 = Arc::clone(&n);
            let t = spawn(move || {
                let v = n2.load(Ordering::SeqCst);
                n2.store(v + 1, Ordering::SeqCst);
            });
            let v = n.load(Ordering::SeqCst);
            n.store(v + 1, Ordering::SeqCst);
            t.join();
            assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
        }
        let report = check(Options::exhaustive(), model);
        let failure = report.assert_fails().clone();
        assert!(
            failure.message.contains("lost update"),
            "{}",
            failure.message
        );

        let replayed = replay(&failure.trace, model);
        let again = replayed
            .failure
            .expect("replaying the failing trace must fail again");
        assert_eq!(again.message, failure.message);
        assert_eq!(again.trace, failure.trace);
    }

    #[test]
    fn mutex_guarded_increment_passes_exhaustively() {
        let report = check(Options::exhaustive(), || {
            let n = Arc::new(CMutex::new("counter", rank::LEAF, 0u64));
            let n2 = Arc::clone(&n);
            let t = spawn(move || {
                let mut g = n2.lock();
                *g += 1;
            });
            {
                let mut g = n.lock();
                *g += 1;
            }
            t.join();
            assert_eq!(*n.lock(), 2);
        });
        report.assert_pass();
        assert!(report.exhausted);
    }

    #[test]
    fn lock_order_violation_is_reported() {
        let report = check(Options::exhaustive(), || {
            let hi = CMutex::new("entries", rank::LEAF, ());
            let lo = CMutex::new("state", rank::STATE, ());
            let _g_hi = hi.lock();
            let _g_lo = lo.lock(); // rank 2 after rank 4: declared-order violation
        });
        let failure = report.assert_fails();
        assert!(
            failure.message.contains("lock-order"),
            "unexpected message: {}",
            failure.message
        );
    }

    #[test]
    fn join_while_holding_the_childs_lock_deadlocks() {
        let report = check(Options::exhaustive(), || {
            let m = Arc::new(CMutex::new("memo", rank::LEAF, ()));
            let m2 = Arc::clone(&m);
            let guard = m.lock();
            let t = spawn(move || {
                let _g = m2.lock();
            });
            t.join(); // child needs "memo"; we hold it: deadlock
            drop(guard);
        });
        let failure = report.assert_fails();
        assert!(
            failure.message.contains("deadlock"),
            "unexpected message: {}",
            failure.message
        );
        assert!(
            failure.message.contains("memo"),
            "report should name the contended lock: {}",
            failure.message
        );
    }

    #[test]
    fn preemption_bound_zero_still_runs_every_thread() {
        // With zero preemptions allowed, the explorer may only switch
        // threads at blocking/finishing points — but every model thread
        // must still run to completion.
        let opts = Options {
            preemption_bound: Some(0),
            ..Options::default()
        };
        let report = check(opts, || {
            let n = Arc::new(CAtomicU64::new(0));
            let n2 = Arc::clone(&n);
            let t = spawn(move || {
                n2.fetch_add(1, Ordering::SeqCst);
            });
            n.fetch_add(1, Ordering::SeqCst);
            t.join();
            assert_eq!(n.load(Ordering::SeqCst), 2);
        });
        report.assert_pass();
        assert!(report.exhausted);
    }

    #[test]
    fn model_cache_shadow_basics() {
        let mut m = models::CacheModel::new(2, 1_000);
        m.insert_at(1, vec![1], 0, 0);
        assert_eq!(m.get_at(1, 0, 500, |_| true), Some(vec![1]));
        assert_eq!(
            m.get_at(1, 1, 500, |_| true),
            None,
            "epoch bump invalidates"
        );
    }
}
