//! Checked thread spawn/join, routed through the scheduler.
//!
//! [`spawn`] is the model-world analogue of a pool worker or a one-off
//! helper thread: the child becomes a schedulable model thread, and the
//! spawn and every join check are switch points the explorer can
//! preempt around. Real `std::thread::spawn` calls still happen under
//! the hood (one OS thread per model thread), but they only ever run
//! when granted the token, so the OS scheduler has no say in execution
//! order.

use crate::ctx;
use crate::sched::AbortToken;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Handle to a spawned model thread; join it to get the closure's
/// result. Unlike `std`, a child panic is not returned as an `Err`: any
/// real panic in a model thread fails the whole schedule (that is the
/// point of the checker), so `join` only completes on success.
pub struct JoinHandle<T> {
    child: usize,
    slot: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Wait (in model time) for the child to finish and take its result.
    pub fn join(self) -> T {
        let (sched, tid) = ctx::current();
        sched.join_wait(tid, self.child);
        let result = self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        result.expect("joined model thread left no result (panicked schedule)")
    }
}

/// Extract a printable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked (non-string payload)".to_string()
    }
}

/// Spawn a model thread running `f`. Must be called from inside a model
/// run. The spawn itself is a switch point: the explorer may run the
/// child immediately, later, or interleaved with the parent.
#[expect(clippy::disallowed_methods, reason = "model threads are OS threads the scheduler runs")]
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (sched, tid) = ctx::current();
    let child = sched.register_thread();
    let slot: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let (sched2, slot2) = (Arc::clone(&sched), Arc::clone(&slot));
    let handle = std::thread::Builder::new()
        .name(format!("gb-check-{child}"))
        .spawn(move || {
            let _bind = ctx::bind(Arc::clone(&sched2), child);
            sched2.wait_first_grant(child);
            match panic::catch_unwind(AssertUnwindSafe(f)) {
                Ok(value) => {
                    *slot2
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(value);
                    sched2.finish(child);
                }
                Err(payload) => {
                    if payload.is::<AbortToken>() {
                        sched2.finish(child);
                    } else {
                        sched2.record_panic(child, panic_message(payload.as_ref()));
                    }
                }
            }
        })
        .expect("spawn model thread");
    sched.track_handle(handle);
    sched.switch_point(tid);
    JoinHandle { child, slot }
}
