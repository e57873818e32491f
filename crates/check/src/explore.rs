//! Schedule exploration: exhaustive bounded DFS over scheduling
//! choices, and exact replay of a recorded schedule.
//!
//! A *schedule* is the sequence of thread ids granted the token, one
//! per step. At each decision the controller computes the **allowed**
//! set: the runnable threads, narrowed to just the previously-running
//! thread once the preemption budget is spent (switching away from a
//! thread that could continue is a preemption; bounding them is what
//! keeps the DFS tractable, and small preemption counts are where real
//! concurrency bugs live — see the CHESS result the bound is borrowed
//! from).
//!
//! Because execution is deterministic given the choice sequence, the
//! DFS needs no state snapshots: it re-runs the model from scratch
//! following the recorded prefix, then deviates at the deepest
//! unexhausted decision. A failure report carries the grant trace,
//! which [`replay`] (or `Options::replay`) follows step-for-step to
//! reproduce the failure under a debugger or as a pinned regression
//! test.

use crate::ctx;
use crate::sched::{Decision, Scheduler};
use crate::thread_api::panic_message;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};

/// Exploration knobs. The defaults exhaust small kernels (two or three
/// threads, a handful of operations each) in well under a second.
#[derive(Debug, Clone)]
pub struct Options {
    /// Maximum preemptions per schedule (`None` = unbounded DFS).
    pub preemption_bound: Option<usize>,
    /// DFS budget: stop after this many schedules even if unexhausted
    /// (the report says so: `exhausted` is false).
    pub max_schedules: usize,
    /// Per-schedule grant budget: exceeding it is reported as livelock.
    pub max_steps: u64,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            preemption_bound: Some(2),
            max_schedules: 100_000,
            max_steps: 20_000,
        }
    }
}

impl Options {
    /// Unbounded-preemption exhaustive exploration (small models only).
    pub fn exhaustive() -> Options {
        Options {
            preemption_bound: None,
            ..Options::default()
        }
    }
}

/// One confirmed failing schedule.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The panic / deadlock / livelock message.
    pub message: String,
    /// The grant trace: thread id per step. Feed to [`replay`].
    pub trace: Vec<usize>,
}

/// Outcome of a [`check`] exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Schedules actually executed.
    pub schedules: usize,
    /// Whether the bounded-DFS space was fully exhausted.
    pub exhausted: bool,
    /// The first failing schedule found, if any.
    pub failure: Option<Failure>,
}

impl Report {
    /// Panic (with the replayable trace) if any schedule failed.
    pub fn assert_pass(&self) {
        if let Some(f) = &self.failure {
            panic!(
                "model check failed after {} schedule(s): {}\n\
                 replay trace: {:?}\n\
                 (re-run the same model with gb_check::replay(&trace, ...) to reproduce)",
                self.schedules, f.message, f.trace
            );
        }
    }

    /// Panic unless some schedule failed — for self-tests that seed a
    /// known-broken model and require the checker to catch it.
    pub fn assert_fails(&self) -> &Failure {
        self.failure.as_ref().unwrap_or_else(|| {
            panic!(
                "model check explored {} schedule(s) without finding the seeded bug",
                self.schedules
            )
        })
    }
}

/// Install (once, process-wide) a panic hook that stays quiet for model
/// threads: their panics are *data* — captured, recorded as failures,
/// and replayed — not crashes worth a stderr backtrace. Panics outside
/// model runs go to the previous hook unchanged.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !ctx::in_model() {
                prev(info);
            }
        }));
    });
}

/// Outcome of a single schedule run.
struct RunResult {
    trace: Vec<usize>,
    failure: Option<String>,
}

/// Execute one schedule: spawn model thread 0 running `f`, and resolve
/// each decision through `choose(step, allowed) -> index`.
#[expect(clippy::disallowed_methods, reason = "model threads are OS threads the scheduler runs")]
fn run_once<F>(
    f: &Arc<F>,
    opts: &Options,
    mut choose: impl FnMut(usize, &[usize]) -> usize,
) -> RunResult
where
    F: Fn() + Send + Sync + 'static,
{
    let sched = Arc::new(Scheduler::new(opts.max_steps));
    let root = sched.register_thread();
    debug_assert_eq!(root, 0);
    let (sched2, f2) = (Arc::clone(&sched), Arc::clone(f));
    let handle = std::thread::Builder::new()
        .name("gb-check-0".to_string())
        .spawn(move || {
            let _bind = ctx::bind(Arc::clone(&sched2), root);
            sched2.wait_first_grant(root);
            match panic::catch_unwind(AssertUnwindSafe(|| f2())) {
                Ok(()) => sched2.finish(root),
                Err(payload) => {
                    if payload.is::<crate::sched::AbortToken>() {
                        sched2.finish(root);
                    } else {
                        sched2.record_panic(root, panic_message(payload.as_ref()));
                    }
                }
            }
        })
        .expect("spawn model root thread");
    sched.track_handle(handle);

    let mut trace = Vec::new();
    let mut prev: Option<usize> = None;
    let mut preemptions = 0usize;
    loop {
        match sched.next_decision() {
            Decision::Done => break,
            Decision::Choose(enabled) => {
                let allowed: Vec<usize> = match (opts.preemption_bound, prev) {
                    (Some(bound), Some(p)) if preemptions >= bound && enabled.contains(&p) => {
                        vec![p]
                    }
                    _ => enabled.clone(),
                };
                let idx = choose(trace.len(), &allowed);
                let tid = allowed[idx];
                if let Some(p) = prev {
                    if tid != p && enabled.contains(&p) {
                        preemptions += 1;
                    }
                }
                prev = Some(tid);
                trace.push(tid);
                if !sched.grant(tid) {
                    // Budget blown: the scheduler has aborted; keep
                    // looping so teardown drains every thread.
                    continue;
                }
            }
        }
    }
    for handle in sched.drain_handles() {
        let _ = handle.join();
    }
    RunResult {
        trace,
        failure: sched.take_failure(),
    }
}

/// One node of the DFS stack: which choice was taken at this decision,
/// out of how many.
struct Node {
    choice: usize,
    n_allowed: usize,
}

/// Explore interleavings of `f` under `opts`. The closure runs once per
/// schedule as model thread 0; it may [`crate::spawn`] further model
/// threads and must construct every `CheckedBackend` primitive inside
/// itself (state must not leak across schedules).
///
/// Returns after the first failing schedule (with its replay trace) or
/// once the space/budget is exhausted.
pub fn check<F>(opts: Options, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    install_quiet_hook();
    let f = Arc::new(f);
    let mut stack: Vec<Node> = Vec::new();
    let mut schedules = 0usize;
    let mut exhausted = false;

    // Iterative-deepening-free DFS — replay the stack prefix, extend with
    // first choices, then backtrack the deepest node.
    loop {
        if schedules >= opts.max_schedules {
            break;
        }
        let result = run_once(&f, &opts, |step, allowed| {
            if step < stack.len() {
                debug_assert_eq!(
                    stack[step].n_allowed,
                    allowed.len(),
                    "nondeterministic model: allowed-set size changed on replayed prefix \
                     (model code must not depend on wall-clock time or OS scheduling)"
                );
                stack[step].choice
            } else {
                stack.push(Node {
                    choice: 0,
                    n_allowed: allowed.len(),
                });
                0
            }
        });
        schedules += 1;
        if let Some(message) = result.failure {
            return Report {
                schedules,
                exhausted: false,
                failure: Some(Failure {
                    message,
                    trace: result.trace,
                }),
            };
        }
        // Backtrack: advance the deepest unexhausted decision.
        loop {
            match stack.last_mut() {
                None => {
                    exhausted = true;
                    break;
                }
                Some(top) if top.choice + 1 < top.n_allowed => {
                    top.choice += 1;
                    break;
                }
                Some(_) => {
                    stack.pop();
                }
            }
        }
        if exhausted {
            break;
        }
    }

    Report {
        schedules,
        exhausted,
        failure: None,
    }
}

/// Re-run `f` under exactly the recorded grant `trace` (from
/// [`Failure::trace`]). Returns the single-schedule report; a pinned
/// regression test asserts on `failure` being present (for seeded bugs)
/// or absent (for fixed ones).
pub fn replay<F>(trace: &[usize], f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    install_quiet_hook();
    let opts = Options {
        // The trace already encodes every decision; no bound filtering
        // during replay (the allowed-set narrowing is re-derived from
        // the same preemption accounting, so keep defaults identical).
        ..Options::default()
    };
    let f = Arc::new(f);
    let result = run_once(&f, &opts, |step, allowed| {
        let want = trace.get(step).copied().unwrap_or_else(|| {
            panic!(
                "replay diverged: schedule needs a decision at step {step} \
                 but the trace has only {} entries",
                trace.len()
            )
        });
        allowed.iter().position(|&t| t == want).unwrap_or_else(|| {
            panic!(
                "replay diverged at step {step}: trace wants thread {want}, \
                 allowed set is {allowed:?}"
            )
        })
    });
    Report {
        schedules: 1,
        exhausted: false,
        failure: result.failure.map(|message| Failure {
            message,
            trace: result.trace,
        }),
    }
}
