//! The engine's publication kernel, extracted so `gb_check` can explore
//! its interleavings in isolation.
//!
//! [`PublishKernel`] is the concurrency heart of [`crate::GeoBlockEngine`]:
//! one immutable state value behind an `RwLock<Arc<S>>` slot, plus a
//! publisher mutex that serializes state *construction*. The paper's
//! transactional-invalidation claim ("a cached reply is never served
//! stale") rests on exactly two properties of this kernel, both of which
//! the model checker proves over bounded interleavings:
//!
//! 1. **No torn reads** — a reader's [`PublishKernel::snapshot`] pins one
//!    `Arc<S>` and therefore one *complete* publication; it can never
//!    observe fields from two different publications, because the only
//!    mutation is a single pointer swap of the whole state.
//! 2. **Serialized, monotone publication** — concurrent
//!    [`PublishKernel::publish`] calls are serialized by the publisher
//!    mutex, and each builder runs against the then-current state, so
//!    publications form a total order and epoch-style counters embedded
//!    in `S` never regress or skip under contention.
//!
//! The kernel is generic over the [`Backend`] facade: the engine
//! instantiates it with [`StdBackend`] (compiling to the rank-ordered
//! locks used before this extraction), `gb_check` instantiates it with
//! the checked backend and a small epoch-stamped state.

use gb_common::sync::backend::{Arc, Backend, MutexApi, RwLockApi, StdBackend};
use gb_common::sync::rank;

/// Epoch-swapped publication of an immutable state value.
///
/// Readers call [`PublishKernel::snapshot`] and work on a pinned
/// `Arc<S>` for as long as they like; writers call
/// [`PublishKernel::publish`] with a builder closure that constructs the
/// next state entirely outside the slot lock. Readers never wait on a
/// builder — only (at worst) on the pointer swap itself.
pub struct PublishKernel<S, B: Backend = StdBackend>
where
    S: Send + Sync,
{
    /// Serializes state transitions so concurrent publishers do not
    /// duplicate expensive offline construction or interleave their
    /// read-modify-publish cycles. Never held while answering queries.
    publish_guard: B::Mutex<()>,
    /// The current publication. `Arc` so readers pin whole states.
    state: B::RwLock<Arc<S>>,
}

impl<S, B> PublishKernel<S, B>
where
    S: Send + Sync,
    B: Backend,
{
    /// A kernel whose first publication is `initial`.
    pub fn new(initial: S) -> PublishKernel<S, B> {
        PublishKernel {
            publish_guard: B::Mutex::new("publish_guard", rank::PUBLISH_GUARD, ()),
            state: B::RwLock::new("state", rank::STATE, Arc::new(initial)),
        }
    }

    /// Pin the current publication (slot read-locked only for the `Arc`
    /// clone). The returned state is immutable and fully consistent — a
    /// concurrent publish can never show this caller a half-new world.
    pub fn snapshot(&self) -> Arc<S> {
        self.state.read().clone()
    }

    /// Publish the next state. `build` receives the current publication
    /// and returns the next state plus a pass-through result; it runs
    /// under the publisher mutex (serialized with other publishers) but
    /// **not** under the slot lock, so readers proceed throughout. The
    /// swap itself is a single pointer write.
    ///
    /// Because the mutex is held from the snapshot through the swap, the
    /// state `build` sees is still current at swap time: publications
    /// are read-modify-write transactions, not blind overwrites.
    pub fn publish<R>(&self, build: impl FnOnce(&S) -> (S, R)) -> R {
        let _serialize = self.publish_guard.lock();
        let cur = self.snapshot();
        // Expensive part: no slot lock held, readers unaffected.
        let (next, result) = build(&cur);
        // Cheap part: swap the pointer.
        *self.state.write() = Arc::new(next);
        result
    }

    /// Test-only access to the publisher mutex, for poison-recovery
    /// tests that deliberately panic while holding it.
    #[cfg(test)]
    pub(crate) fn publish_guard(&self) -> &B::Mutex<()> {
        &self.publish_guard
    }

    /// Test-only access to the state slot, for poison-recovery tests.
    #[cfg(test)]
    pub(crate) fn state_slot(&self) -> &B::RwLock<Arc<S>> {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq)]
    struct State {
        epoch: u64,
        value: u64,
    }

    #[test]
    fn snapshot_pins_one_publication() {
        let k: PublishKernel<State> = PublishKernel::new(State { epoch: 0, value: 0 });
        let pinned = k.snapshot();
        k.publish(|cur| {
            (
                State {
                    epoch: cur.epoch + 1,
                    value: 100,
                },
                (),
            )
        });
        // The pinned snapshot still shows the old, internally-consistent
        // publication; a fresh snapshot shows the new one.
        assert_eq!(*pinned, State { epoch: 0, value: 0 });
        assert_eq!(
            *k.snapshot(),
            State {
                epoch: 1,
                value: 100
            }
        );
    }

    #[test]
    fn concurrent_publishers_serialize_into_a_total_order() {
        let k: Arc<PublishKernel<State>> =
            Arc::new(PublishKernel::new(State { epoch: 0, value: 0 }));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        k.publish(|cur| {
                            (
                                State {
                                    epoch: cur.epoch + 1,
                                    value: (cur.epoch + 1) * 10,
                                },
                                (),
                            )
                        });
                    }
                });
            }
        });
        let end = k.snapshot();
        assert_eq!(end.epoch, 200, "no publication lost or duplicated");
        assert_eq!(end.value, 2000);
    }

    #[test]
    fn publish_returns_the_builder_result() {
        let k: PublishKernel<State> = PublishKernel::new(State { epoch: 7, value: 0 });
        let seen = k.publish(|cur| {
            (
                State {
                    epoch: cur.epoch + 1,
                    value: 1,
                },
                cur.epoch,
            )
        });
        assert_eq!(seen, 7);
        assert_eq!(k.snapshot().epoch, 8);
    }
}
