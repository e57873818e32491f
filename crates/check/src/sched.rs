//! The deterministic scheduler: real OS threads, serialized one at a
//! time by a grant token.
//!
//! Model code runs on ordinary `std` threads, but every *visible*
//! operation (lock acquire/release, rwlock read/write, atomic op, spawn,
//! join) first parks at a **switch point** and waits for the
//! controller to grant it the token. At most one model thread is ever
//! runnable, so execution is a pure function of the grant sequence — the
//! *schedule* — and a failing schedule replays exactly.
//!
//! Blocking is modeled, not real: a thread that would block on a held
//! lock is moved to a `Blocked(wait)` state and simply becomes
//! ineligible for grants until the resource is released. A state where
//! live threads exist but none is eligible is reported as a deadlock
//! (with every waiter's lock name), instead of hanging the test.
//!
//! The scheduler also enforces the workspace lock-rank order (the same
//! `publish_guard(0) < state(2) < leaf(4)` table as
//! `gb_common::sync`): acquiring a checked lock whose rank is
//! not strictly above every rank the thread holds fails the schedule.
//!
//! Teardown: the first real panic in any model thread (an invariant
//! assertion, a rank violation) records the failure and flips an abort
//! flag; every parked thread then unwinds with a quiet [`AbortToken`]
//! so the run's OS threads all exit and can be joined.

use std::panic;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Sentinel unwind payload used to tear down parked model threads after
/// a failure elsewhere. Never reported; the real failure already was.
pub(crate) struct AbortToken;

/// What a blocked thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    /// Mutex or rwlock-write acquisition of a resource.
    Exclusive(usize),
    /// Rwlock-read acquisition of a resource.
    Shared(usize),
    /// Completion of another model thread.
    Join(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Parked at a switch point, eligible for a grant.
    Paused,
    /// Chosen by the controller; about to wake and run.
    Granted,
    /// Holding the token and executing.
    Running,
    /// Ineligible until the awaited resource/thread frees up.
    Blocked(Wait),
    Finished,
}

#[derive(Debug)]
struct ThreadSlot {
    status: Status,
    /// Ranks (and names) of checked locks this thread holds — the
    /// model-time counterpart of `gb_common::sync`'s HELD stack.
    held: Vec<(u8, &'static str)>,
}

#[derive(Debug)]
struct Resource {
    name: &'static str,
    rank: u8,
    /// Exclusive holder present (mutex lock or rwlock write).
    exclusive: bool,
    /// Shared holders (rwlock reads).
    readers: usize,
}

struct SchedState {
    threads: Vec<ThreadSlot>,
    resources: Vec<Resource>,
    /// The thread currently holding the token, if any. `None` means the
    /// controller owns the next decision.
    active: Option<usize>,
    /// First real failure (assertion, rank violation, deadlock, budget).
    failure: Option<String>,
    abort: bool,
    /// OS handles of every spawned model thread, joined at run end.
    handles: Vec<JoinHandle<()>>,
    /// Grants issued so far (the livelock bound).
    steps: u64,
}

/// The per-run scheduler. One instance per explored schedule.
pub(crate) struct Scheduler {
    st: Mutex<SchedState>,
    cv: Condvar,
    max_steps: u64,
}

/// The controller's view of one scheduling decision.
pub(crate) enum Decision {
    /// Every model thread has finished; the run is over.
    Done,
    /// These threads are eligible for the next grant (sorted by tid).
    Choose(Vec<usize>),
}

impl Scheduler {
    pub(crate) fn new(max_steps: u64) -> Scheduler {
        Scheduler {
            st: Mutex::new(SchedState {
                threads: Vec::new(),
                resources: Vec::new(),
                active: None,
                failure: None,
                abort: false,
                handles: Vec::new(),
                steps: 0,
            }),
            cv: Condvar::new(),
            max_steps,
        }
    }

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        // The scheduler's own mutex never poisons in normal operation:
        // model-thread panics unwind *outside* these critical sections.
        self.st
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Register a model thread; returns its tid. New threads start
    /// `Paused` (eligible as soon as the registering op parks).
    pub(crate) fn register_thread(&self) -> usize {
        let mut st = self.lock();
        st.threads.push(ThreadSlot {
            status: Status::Paused,
            held: Vec::new(),
        });
        st.threads.len() - 1
    }

    /// Register a checked lock; returns its resource id.
    pub(crate) fn register_resource(&self, name: &'static str, rank: u8) -> usize {
        let mut st = self.lock();
        st.resources.push(Resource {
            name,
            rank,
            exclusive: false,
            readers: 0,
        });
        st.resources.len() - 1
    }

    /// Track an OS handle for end-of-run joining.
    pub(crate) fn track_handle(&self, handle: JoinHandle<()>) {
        self.lock().handles.push(handle);
    }

    pub(crate) fn drain_handles(&self) -> Vec<JoinHandle<()>> {
        std::mem::take(&mut self.lock().handles)
    }

    /// Park until granted. Common tail of every thread-side operation.
    fn wait_for_grant<'a>(
        &'a self,
        mut st: MutexGuard<'a, SchedState>,
        tid: usize,
    ) -> MutexGuard<'a, SchedState> {
        loop {
            if st.abort {
                drop(st);
                panic::resume_unwind(Box::new(AbortToken));
            }
            if st.threads[tid].status == Status::Granted {
                st.threads[tid].status = Status::Running;
                return st;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// A thread's very first park, before its body runs: it was
    /// registered `Paused` by its parent, so just wait for the token.
    pub(crate) fn wait_first_grant(&self, tid: usize) {
        let st = self.lock();
        let _st = self.wait_for_grant(st, tid);
    }

    /// A switch point: hand the token back and wait to be rescheduled.
    /// Every checked primitive calls this immediately before its visible
    /// operation.
    pub(crate) fn switch_point(&self, tid: usize) {
        let mut st = self.lock();
        if st.abort {
            drop(st);
            panic::resume_unwind(Box::new(AbortToken));
        }
        st.threads[tid].status = Status::Paused;
        st.active = None;
        self.cv.notify_all();
        let _st = self.wait_for_grant(st, tid);
    }

    /// Move to `Blocked(wait)` and park until granted again (the
    /// controller only grants after the awaited resource frees up).
    fn block_on(&self, tid: usize, wait: Wait) {
        let mut st = self.lock();
        if st.abort {
            drop(st);
            panic::resume_unwind(Box::new(AbortToken));
        }
        st.threads[tid].status = Status::Blocked(wait);
        st.active = None;
        self.cv.notify_all();
        let _st = self.wait_for_grant(st, tid);
    }

    /// Rank check shared by every acquisition: strictly-increasing rank
    /// order, same contract as `gb_common::sync::OrderedMutex`.
    fn check_rank(st: &SchedState, tid: usize, res: usize) -> Result<(), String> {
        let (rank, name) = (st.resources[res].rank, st.resources[res].name);
        if let Some(&(held_rank, held_name)) =
            st.threads[tid].held.iter().find(|&&(r, _)| r >= rank)
        {
            return Err(format!(
                "lock-order violation: acquiring `{name}` (rank {rank}) while holding \
                 `{held_name}` (rank {held_rank})"
            ));
        }
        Ok(())
    }

    /// Acquire `res` exclusively (mutex lock / rwlock write).
    pub(crate) fn acquire_exclusive(&self, tid: usize, res: usize) {
        self.switch_point(tid);
        loop {
            {
                let mut st = self.lock();
                if !st.resources[res].exclusive && st.resources[res].readers == 0 {
                    if let Err(msg) = Self::check_rank(&st, tid, res) {
                        drop(st);
                        panic!("{msg}");
                    }
                    st.resources[res].exclusive = true;
                    let entry = (st.resources[res].rank, st.resources[res].name);
                    st.threads[tid].held.push(entry);
                    return;
                }
            }
            self.block_on(tid, Wait::Exclusive(res));
        }
    }

    /// Acquire `res` shared (rwlock read).
    pub(crate) fn acquire_shared(&self, tid: usize, res: usize) {
        self.switch_point(tid);
        loop {
            {
                let mut st = self.lock();
                if !st.resources[res].exclusive {
                    if let Err(msg) = Self::check_rank(&st, tid, res) {
                        drop(st);
                        panic!("{msg}");
                    }
                    st.resources[res].readers += 1;
                    let entry = (st.resources[res].rank, st.resources[res].name);
                    st.threads[tid].held.push(entry);
                    return;
                }
            }
            self.block_on(tid, Wait::Shared(res));
        }
    }

    /// Drop a held rank entry (LIFO-biased; any matching entry works).
    fn unhold(st: &mut SchedState, tid: usize, res: usize) {
        let (rank, name) = (st.resources[res].rank, st.resources[res].name);
        if let Some(i) = st.threads[tid]
            .held
            .iter()
            .rposition(|&(r, n)| r == rank && n == name)
        {
            st.threads[tid].held.remove(i);
        }
    }

    /// Wake every thread blocked on `res` back to `Paused`.
    fn unblock_waiters(st: &mut SchedState, res: usize) {
        for t in &mut st.threads {
            if matches!(t.status, Status::Blocked(Wait::Exclusive(r) | Wait::Shared(r)) if r == res)
            {
                t.status = Status::Paused;
            }
        }
    }

    /// Release an exclusive hold. Must never panic: it runs from guard
    /// drops, including during abort unwinding.
    pub(crate) fn release_exclusive(&self, tid: usize, res: usize) {
        let mut st = self.lock();
        st.resources[res].exclusive = false;
        Self::unhold(&mut st, tid, res);
        Self::unblock_waiters(&mut st, res);
        self.cv.notify_all();
    }

    /// Release a shared hold (same no-panic contract).
    pub(crate) fn release_shared(&self, tid: usize, res: usize) {
        let mut st = self.lock();
        st.resources[res].readers = st.resources[res].readers.saturating_sub(1);
        Self::unhold(&mut st, tid, res);
        if st.resources[res].readers == 0 {
            Self::unblock_waiters(&mut st, res);
        }
        self.cv.notify_all();
    }

    /// Whether `target` has finished (for join's check-then-block loop).
    pub(crate) fn is_finished(&self, target: usize) -> bool {
        self.lock().threads[target].status == Status::Finished
    }

    /// Block until `target` finishes.
    pub(crate) fn join_wait(&self, tid: usize, target: usize) {
        loop {
            self.switch_point(tid);
            if self.is_finished(target) {
                return;
            }
            self.block_on(tid, Wait::Join(target));
        }
    }

    /// Mark `tid` finished and wake its joiners. Called on normal
    /// completion and on abort-token unwinds.
    pub(crate) fn finish(&self, tid: usize) {
        let mut st = self.lock();
        st.threads[tid].status = Status::Finished;
        for t in &mut st.threads {
            if matches!(t.status, Status::Blocked(Wait::Join(j)) if j == tid) {
                t.status = Status::Paused;
            }
        }
        if st.active == Some(tid) {
            st.active = None;
        }
        self.cv.notify_all();
    }

    /// Record a real model-thread panic as the run's failure and start
    /// the abort teardown.
    pub(crate) fn record_panic(&self, tid: usize, message: String) {
        let mut st = self.lock();
        if st.failure.is_none() {
            st.failure = Some(message);
        }
        st.abort = true;
        drop(st);
        self.finish(tid);
    }

    /// Fail the run from the controller side (deadlock, budget).
    pub(crate) fn abort_with(&self, message: String) {
        let mut st = self.lock();
        if st.failure.is_none() {
            st.failure = Some(message);
        }
        st.abort = true;
        self.cv.notify_all();
    }

    pub(crate) fn take_failure(&self) -> Option<String> {
        self.lock().failure.take()
    }

    /// Describe what every live thread is waiting on (deadlock report).
    fn describe_waits(st: &SchedState) -> String {
        let mut parts = Vec::new();
        for (tid, t) in st.threads.iter().enumerate() {
            if let Status::Blocked(w) = t.status {
                let what = match w {
                    Wait::Exclusive(r) => format!("lock `{}`", st.resources[r].name),
                    Wait::Shared(r) => format!("read `{}`", st.resources[r].name),
                    Wait::Join(j) => format!("join of thread {j}"),
                };
                parts.push(format!("thread {tid} waiting on {what}"));
            }
        }
        parts.join("; ")
    }

    /// The controller's wait-for-next-decision. Blocks while a model
    /// thread holds the token; returns once every thread is parked,
    /// blocked, or finished.
    pub(crate) fn next_decision(&self) -> Decision {
        let mut st = self.lock();
        loop {
            if st.abort {
                // Teardown: keep waking parked threads (they unwind with
                // AbortToken and finish) until everyone is gone.
                if st.threads.iter().all(|t| t.status == Status::Finished) {
                    return Decision::Done;
                }
                self.cv.notify_all();
                st = self
                    .cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            if st.active.is_some() {
                st = self
                    .cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            if st.threads.iter().all(|t| t.status == Status::Finished) {
                return Decision::Done;
            }
            let paused: Vec<usize> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status == Status::Paused)
                .map(|(i, _)| i)
                .collect();
            if paused.is_empty() {
                // Live threads, none eligible: every one is blocked.
                let msg = format!("deadlock: {}", Self::describe_waits(&st));
                drop(st);
                self.abort_with(msg);
                st = self.lock();
                continue;
            }
            return Decision::Choose(paused);
        }
    }

    /// Grant the token to `tid`. Returns `false` when the step budget is
    /// blown (livelock guard) — the run is then aborted.
    pub(crate) fn grant(&self, tid: usize) -> bool {
        let mut st = self.lock();
        st.steps += 1;
        if st.steps > self.max_steps {
            drop(st);
            self.abort_with(format!(
                "livelock: schedule exceeded {} steps without completing",
                self.max_steps
            ));
            return false;
        }
        st.threads[tid].status = Status::Granted;
        st.active = Some(tid);
        self.cv.notify_all();
        true
    }
}
