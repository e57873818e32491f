//! A minimal scoped thread pool for data-parallel fan-out.
//!
//! The build environment has no crates.io access, so instead of `rayon`
//! this module provides the small std-only subset the workspace needs:
//! fork-join over an indexed task list ([`Pool::run`]) with a shared work
//! queue. There is deliberately **no work stealing** — tasks are handed
//! out through one [`TaskQueue`], a mutex-guarded `VecDeque` of task
//! indices that `gb_check` model-checks, which keeps the implementation
//! tiny and the task pickup order irrelevant to results (`run` returns
//! results in task order, not completion order).
//!
//! Threads are scoped (`std::thread::scope`), so closures may borrow from
//! the caller's stack; nothing here requires `'static`.
//!
//! `threads == 1` always runs inline on the caller's thread — no spawns,
//! byte-identical to a plain sequential loop — which is both the fast path
//! for small inputs and the reference semantics the parallel paths are
//! tested against.

use crate::stats::Counter;
use crate::sync::backend::{Backend, MutexApi, StdBackend};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Process-wide pool observability counters. They are statics rather
/// than `Pool` fields because `Pool` is a throwaway `Copy` handle — the
/// interesting population is "all fork-join work in this process",
/// which is what `/metrics` wants to export (`gb_pool_*`) and what the
/// tracer's `PoolWait` spans need as a denominator.
static POOL_QUEUED: Counter = Counter::new();
static POOL_FINISHED: Counter = Counter::new();
static POOL_TASKS: Counter = Counter::new();
static POOL_BUSY_NS: Counter = Counter::new();

/// Snapshot of the process-wide pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks queued but not yet finished (a gauge; 0 when idle).
    pub queue_depth: u64,
    /// Tasks executed to completion since process start.
    pub tasks_total: u64,
    /// Cumulative wall-clock nanoseconds workers spent executing tasks
    /// (inline runs count the caller's loop). Sums across workers, so it
    /// can exceed elapsed wall time.
    pub busy_ns_total: u64,
}

/// Current pool counters. `queue_depth` is computed as
/// queued − finished, so a snapshot taken mid-`run` shows the in-flight
/// backlog without any extra synchronization on the hot path.
pub fn stats() -> PoolStats {
    PoolStats {
        queue_depth: POOL_QUEUED.get().saturating_sub(POOL_FINISHED.get()),
        tasks_total: POOL_TASKS.get(),
        busy_ns_total: POOL_BUSY_NS.get(),
    }
}

/// Saturating `Duration → u64` nanoseconds.
fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Outcome of one [`TaskQueue::pop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pop {
    /// A task index to run.
    Task(usize),
    /// Nothing queued right now, but producers may still push: retry
    /// (politely — see [`TaskQueue::drain`]).
    Empty,
    /// The queue is closed and fully drained: no task will ever appear.
    Closed,
}

/// The pool's work-distribution kernel: a closeable FIFO of task
/// indices, generic over the sync [`Backend`] so `gb_check` can explore
/// its interleavings (the production [`Pool`] instantiates it with
/// [`StdBackend`]).
///
/// Shutdown contract — the invariant the model checker proves:
///
/// * every task pushed before [`TaskQueue::close`] is handed out by
///   [`TaskQueue::pop`] **exactly once**, regardless of how pushes,
///   closes, and pops interleave;
/// * a push after close is *rejected* (returns `false`), never silently
///   dropped;
/// * after close, every worker draining the queue terminates
///   ([`Pop::Closed`] once the backlog is gone).
pub struct TaskQueue<B: Backend = StdBackend> {
    queue: B::Mutex<QueueState>,
}

#[derive(Debug)]
struct QueueState {
    tasks: VecDeque<usize>,
    closed: bool,
}

impl<B: Backend> TaskQueue<B> {
    /// An open, empty queue.
    pub fn new() -> TaskQueue<B> {
        TaskQueue {
            queue: B::Mutex::new(
                "queue",
                RANK_QUEUE,
                QueueState {
                    tasks: VecDeque::new(),
                    closed: false,
                },
            ),
        }
    }

    /// Enqueue `task`. Returns `false` (and enqueues nothing) if the
    /// queue is already closed.
    pub fn push(&self, task: usize) -> bool {
        let mut q = self.queue.lock();
        if q.closed {
            return false;
        }
        q.tasks.push_back(task);
        true
    }

    /// Close the queue: no further pushes are accepted; already-queued
    /// tasks remain poppable until drained.
    pub fn close(&self) {
        self.queue.lock().closed = true;
    }

    /// Take the next task, if any.
    pub fn pop(&self) -> Pop {
        let mut q = self.queue.lock();
        match q.tasks.pop_front() {
            Some(task) => Pop::Task(task),
            None if q.closed => Pop::Closed,
            None => Pop::Empty,
        }
    }

    /// Worker loop: run `f` on every task handed out until the queue
    /// closes and drains. [`Pop::Empty`] yields (a scheduling point
    /// under the model checker) and retries, so a worker that outpaces
    /// the producer spins politely instead of exiting early and dropping
    /// the tasks queued after its last look.
    pub fn drain(&self, mut f: impl FnMut(usize)) {
        loop {
            match self.pop() {
                Pop::Task(i) => f(i),
                Pop::Empty => B::yield_now(),
                Pop::Closed => break,
            }
        }
    }
}

impl<B: Backend> Default for TaskQueue<B> {
    fn default() -> Self {
        TaskQueue::new()
    }
}

/// Rank of the pool task queue in the declared lock order: above every
/// engine lock (`rebuild_guard`=0 < `shards`=1 < `state`=2), because a
/// caller may submit work while holding engine locks but queue-holding
/// code never re-enters the engine.
const RANK_QUEUE: u8 = 3;

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
/// drain a shared queue of task indices and exit. For the chunk sizes this
/// workspace uses (thousands of rows or queries per task) the spawn cost is
/// noise; what matters is that results are deterministic and ordered.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

/// Run `f` on a fresh thread and join it, returning its result — or the
/// panic payload as `Err` if it panicked. This is the sanctioned shape
/// for one-off threads outside the pool (the `rogue-spawn` lint points
/// here): panic isolation is explicit in the signature, and the thread
/// cannot outlive the call, so nothing leaks past a test or a phase
/// boundary.
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

    /// A pool sized by [`default_threads`].
    pub fn auto() -> Self {
        Pool::new(default_threads())
    }

    /// The configured thread count.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool for a pass over `rows` rows: [`Pool::auto`], shrunk until
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

    /// Run `n_tasks` independent tasks, returning `f(i)` for each `i` in
    /// task order. Tasks are claimed from a shared queue, so long tasks do
    /// not stall short ones behind a static partition.
    pub fn run<R, F>(&self, n_tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n_tasks == 0 {
            return Vec::new();
        }
        POOL_QUEUED.add(n_tasks as u64);
        if self.threads == 1 || n_tasks == 1 {
            let start = Instant::now();
            let out: Vec<R> = (0..n_tasks).map(&f).collect();
            POOL_BUSY_NS.add(elapsed_ns(start));
            POOL_TASKS.add(n_tasks as u64);
            POOL_FINISHED.add(n_tasks as u64);
            return out;
        }

        // The model-checked task-queue kernel, pre-filled with every
        // index and closed before the workers start: pops never block
        // and never spin, each worker exits on `Closed` once the backlog
        // is drained.
        let queue = TaskQueue::<StdBackend>::new();
        for i in 0..n_tasks {
            queue.push(i);
        }
        queue.close();

        let workers = self.threads.min(n_tasks);
        let mut out: Vec<Option<R>> = Vec::with_capacity(n_tasks);
        out.resize_with(n_tasks, || None);
        let slots = Mutex::new(&mut out);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let start = Instant::now();
                    queue.drain(|i| {
                        let r = f(i);
                        slots.lock().expect("slot lock")[i] = Some(r);
                        POOL_TASKS.incr();
                        POOL_FINISHED.incr();
                    });
                    POOL_BUSY_NS.add(elapsed_ns(start));
                });
            }
        });

        out.into_iter()
            .map(|r| r.expect("every task ran"))
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
            let out = pool.run(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_handles_empty_and_single() {
        let pool = Pool::new(4);
        assert_eq!(pool.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let pool = Pool::new(16);
        let out = pool.run(3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn closures_may_borrow_from_the_stack() {
        let data: Vec<u32> = (0..500).collect();
        let touched = AtomicUsize::new(0);
        let pool = Pool::new(4);
        let out = pool.run(50, |i| {
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
    fn task_queue_fifo_and_close_semantics() {
        let q = TaskQueue::<StdBackend>::new();
        assert_eq!(q.pop(), Pop::Empty, "open and empty: retryable");
        assert!(q.push(1));
        assert!(q.push(2));
        q.close();
        assert!(!q.push(3), "push after close is rejected");
        assert_eq!(q.pop(), Pop::Task(1));
        assert_eq!(q.pop(), Pop::Task(2));
        assert_eq!(q.pop(), Pop::Closed);
        assert_eq!(q.pop(), Pop::Closed, "closed stays closed");
    }

    #[test]
    fn task_queue_drain_runs_backlog_exactly_once() {
        let q = TaskQueue::<StdBackend>::default();
        for i in 0..50 {
            q.push(i);
        }
        q.close();
        let seen = Mutex::new(vec![0u32; 50]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| q.drain(|i| seen.lock().expect("seen")[i] += 1));
            }
        });
        assert!(seen.lock().expect("seen").iter().all(|&n| n == 1));
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
        Pool::new(1).run(5, |i| i); // inline path
        Pool::new(3).run(8, |i| i); // threaded path
        let after = stats();
        assert!(after.tasks_total >= before.tasks_total + 13);
        assert!(after.busy_ns_total >= before.busy_ns_total);
    }
}
