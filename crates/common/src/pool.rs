//! A minimal scoped thread pool for data-parallel fan-out.
//!
//! The build environment has no crates.io access, so instead of `rayon`
//! this module provides the small std-only subset the workspace needs: a
//! static fork-join ([`Pool::run`]). Item *i* runs on worker *i* mod *w*;
//! each worker owns its items and its results, and the results are put
//! back in item order after the join. Workers share nothing but the
//! relaxed statistics counters below — no queue, no cursor, no lock — so
//! there is no interleaving to model-check, and the assignment is fixed
//! by the item order alone. Every caller's items cost about the same
//! (one row range per thread, one column per gather task, one accept
//! loop per worker), so a static split loses nothing to a dynamic one.
//!
//! Threads are scoped (`std::thread::scope`), so closures may borrow from
//! the caller's stack; nothing here requires `'static`.
//!
//! `threads == 1` always runs inline on the caller's thread — no spawns,
//! byte-identical to a plain sequential loop — which is both the fast path
//! for small inputs and the reference semantics the parallel paths are
//! tested against.

use crate::stats::Counter;
use std::time::Instant;

/// Process-wide pool observability counters. They are statics rather
/// than `Pool` fields because `Pool` is a throwaway `Copy` handle — the
/// interesting population is "all fork-join work in this process",
/// which is what `/metrics` exports (`gb_pool_*`).
static POOL_QUEUED: Counter = Counter::new();
static POOL_TASKS: Counter = Counter::new();
static POOL_BUSY_NS: Counter = Counter::new();

/// Snapshot of the process-wide pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Items handed to a [`Pool::run`] but not yet finished (a gauge; 0
    /// when idle).
    pub queue_depth: u64,
    /// Items run to completion since process start.
    pub tasks_total: u64,
    /// Cumulative wall-clock nanoseconds workers spent running items
    /// (inline runs count the caller's loop). Sums across workers, so it
    /// can exceed elapsed wall time.
    pub busy_ns_total: u64,
}

/// Current pool counters. `queue_depth` is computed as
/// queued − run, so a snapshot taken mid-`run` shows the in-flight
/// backlog without any extra synchronization on the hot path.
pub fn stats() -> PoolStats {
    PoolStats {
        queue_depth: POOL_QUEUED.get().saturating_sub(POOL_TASKS.get()),
        tasks_total: POOL_TASKS.get(),
        busy_ns_total: POOL_BUSY_NS.get(),
    }
}

/// Saturating `Duration → u64` nanoseconds.
fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Number of worker threads to use by default: the `GB_THREADS` environment
/// variable if set (≥ 1), otherwise [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    if let Ok(s) = std::env::var("GB_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Fewest rows of a table pass (clean, gather, sweep) worth a thread of
/// their own. A fork-join of two scoped threads costs 40–80 µs and the
/// set-up passes a few milliseconds per 32 768 rows, so a split always
/// carries some fifty times more work than overhead — and every
/// unit-test table stays inline.
pub const MIN_ROWS_PER_THREAD: usize = 32_768;

/// A fork-join executor with a fixed thread count.
///
/// The pool itself holds no threads; each call spawns scoped workers that
/// run their share of the items and exit. For the work this workspace
/// hands it (a row range, a column, an accept loop per item) the spawn
/// cost is noise; what matters is that results are deterministic and
/// ordered.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

/// Run `f` on a fresh thread and join it, returning its result — or the
/// panic payload as `Err` if it panicked. This is the sanctioned shape
/// for one-off threads outside the pool (`clippy.toml`'s spawn ban
/// points here): panic isolation is explicit in the signature, and the
/// thread cannot outlive the call, so nothing leaks past a test or a
/// phase boundary.
#[expect(clippy::disallowed_methods, reason = "the pool is the workspace's one thread source")]
pub fn spawn_join<R, F>(f: F) -> std::thread::Result<R>
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    std::thread::spawn(f).join()
}

impl Pool {
    /// A pool that runs tasks on `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The configured thread count.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool for a pass over `rows` rows: [`default_threads`], shrunk until
    /// each thread has at least [`MIN_ROWS_PER_THREAD`] rows to itself.
    /// Below twice that it is the one-thread pool, which runs inline —
    /// and the machine is not even asked (~15 µs, more than a small
    /// table's whole pass).
    pub fn auto_for(rows: usize) -> Pool {
        match rows / MIN_ROWS_PER_THREAD {
            0 | 1 => Pool::new(1),
            most => Pool::new(default_threads().min(most)),
        }
    }

    /// Run `f` on every item, returning the results in item order. Item
    /// *i* runs on worker *i* mod *w* (*w* = threads, at most one per
    /// item); each worker returns its results, and they are dealt back
    /// into item order after the join. A worker's panic resumes on the
    /// caller once every worker has stopped.
    pub fn run<T, R>(&self, items: impl IntoIterator<Item = T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        let items: Vec<T> = items.into_iter().collect();
        let n = items.len();
        POOL_QUEUED.add(n as u64);
        let run_lane = |lane: Vec<T>| -> Vec<R> {
            let start = Instant::now();
            let out = lane
                .into_iter()
                .map(|item| {
                    let r = f(item);
                    POOL_TASKS.incr();
                    r
                })
                .collect();
            POOL_BUSY_NS.add(elapsed_ns(start));
            out
        };
        let workers = self.threads.min(n);
        if workers <= 1 {
            return run_lane(items);
        }

        let mut lanes: Vec<Vec<T>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            lanes[i % workers].push(item);
        }
        let run_lane = &run_lane;
        let mut results: Vec<std::vec::IntoIter<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .into_iter()
                .map(|lane| scope.spawn(move || run_lane(lane)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(out) => out.into_iter(),
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        });
        (0..n)
            .map(|i| {
                results[i % workers]
                    .next()
                    .expect("worker i mod w ran item i")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_returns_results_in_task_order() {
        for threads in [1, 2, 4, 7] {
            let pool = Pool::new(threads);
            let out = pool.run(0..100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_handles_empty_and_single() {
        let pool = Pool::new(4);
        assert_eq!(pool.run(0..0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run(0..1, |i| i + 10), vec![10]);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let pool = Pool::new(16);
        let out = pool.run(0..3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn closures_may_borrow_from_the_stack() {
        let data: Vec<u32> = (0..500).collect();
        let touched = AtomicUsize::new(0);
        let pool = Pool::new(4);
        let out = pool.run(0..50, |i| {
            touched.fetch_add(1, Ordering::Relaxed);
            data[i * 10]
        });
        assert_eq!(touched.load(Ordering::Relaxed), 50);
        assert_eq!(out[7], 70);
    }

    #[test]
    fn auto_for_keeps_small_inputs_inline() {
        assert_eq!(Pool::auto_for(0).threads(), 1);
        assert_eq!(Pool::auto_for(2 * MIN_ROWS_PER_THREAD - 1).threads(), 1);
        let machine = default_threads();
        assert_eq!(
            Pool::auto_for(2 * MIN_ROWS_PER_THREAD).threads(),
            machine.min(2)
        );
        assert_eq!(
            Pool::auto_for(3 * MIN_ROWS_PER_THREAD).threads(),
            machine.min(3)
        );
        assert_eq!(Pool::auto_for(usize::MAX).threads(), machine);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn item_i_runs_on_worker_i_mod_w() {
        let pool = Pool::new(3);
        let ids = pool.run(0..9, |_| std::thread::current().id());
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(*id, ids[i % 3], "item {i}");
        }
        assert!(ids[0] != ids[1] && ids[1] != ids[2] && ids[0] != ids[2]);
    }

    #[test]
    fn owned_items_move_into_their_worker() {
        let words: Vec<String> = ["a", "bb", "ccc", "dddd", "eeeee"]
            .iter()
            .map(|w| w.to_string())
            .collect();
        let out = Pool::new(2).run(words, |mut w| {
            w.push('!');
            w
        });
        assert_eq!(out, ["a!", "bb!", "ccc!", "dddd!", "eeeee!"]);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            Pool::new(2).run(0..4, |i| {
                if i == 3 {
                    panic!("item {i} failed");
                }
                i
            })
        });
        let payload = caught.expect_err("the panic resumes on the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "item 3 failed");
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn pool_stats_count_executed_tasks() {
        // The counters are process-wide and other tests run concurrently,
        // so assert on deltas only.
        let before = stats();
        Pool::new(1).run(0..5, |i| i); // inline path
        Pool::new(3).run(0..8, |i| i); // threaded path
        let after = stats();
        assert!(after.tasks_total >= before.tasks_total + 13);
        assert!(after.busy_ns_total >= before.busy_ns_total);
    }
}
