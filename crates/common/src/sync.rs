//! Rank-ordered lock wrappers: the workspace's lock-order check.
//!
//! Every lock carries a name and a rank from the declared order table,
//! [`rank`] (see `DESIGN.md` "Static analysis & invariants"). Under
//! `debug_assertions` each thread keeps a stack of the ranks it holds;
//! acquiring a lock whose rank is not *strictly greater* than every
//! held rank panics immediately with both lock names — turning a
//! potential deadlock (which hangs CI for an hour) into a failing test
//! with a message. Release builds compile the bookkeeping out entirely;
//! the wrappers are then zero-cost shims over `std::sync`.
//!
//! The wrappers also absorb lock poisoning: a panicking writer leaves
//! the protected data in whatever consistent-or-not state it reached,
//! and every call site in this workspace had settled on
//! `unwrap_or_else(PoisonError::into_inner)` — so `.lock()`, `.read()`
//! and `.write()` do that recovery internally and hand back the guard
//! directly. The lock's own tests read the flag to show the poisoned
//! paths stay serviceable.

pub mod backend;

/// The declared lock order: a thread may take a lock only while every
/// lock it holds has a strictly lower rank. `gb_check` enforces the same
/// ranks at model time.
pub mod rank {
    /// The engine's publisher mutex (`publish_guard`): first, so a
    /// publisher may swap the state slot while holding it.
    pub const PUBLISH_GUARD: u8 = 0;
    /// The engine's state slot (`state`: block and data epoch): held only
    /// for the clone or the swap.
    pub const STATE: u8 = 2;
    /// Leaf locks, held across no other acquisition: the covering memo's
    /// `memo` (never held while computing a covering), the result cache's
    /// `entries`, the quota `buckets`, a serve worker's `serving` slot and
    /// the flight recorder's `traces`.
    pub const LEAF: u8 = 4;
}

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(debug_assertions)]
use std::cell::RefCell;

#[cfg(debug_assertions)]
thread_local! {
    /// Ranks (and names) of the ordered locks this thread currently
    /// holds, in acquisition order.
    static HELD: RefCell<Vec<(u8, &'static str)>> = const { RefCell::new(Vec::new()) };
}

/// Proof that this thread registered one acquisition; dropping it
/// unregisters. Checked and pushed *before* blocking on the inner lock,
/// so an ordering violation panics instead of deadlocking.
#[cfg(debug_assertions)]
struct RankToken {
    rank: u8,
    name: &'static str,
}

#[cfg(debug_assertions)]
impl RankToken {
    fn acquire(rank: u8, name: &'static str) -> RankToken {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(held_rank, held_name)) = held.iter().find(|&&(r, _)| r >= rank) {
                panic!(
                    "lock-order violation: acquiring `{name}` (rank {rank}) while holding \
                     `{held_name}` (rank {held_rank}); locks must be taken in strictly \
                     increasing rank order (see `gb_common::sync::rank`)"
                );
            }
            held.push((rank, name));
        });
        RankToken { rank, name }
    }
}

#[cfg(debug_assertions)]
impl Drop for RankToken {
    fn drop(&mut self) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(i) = held
                .iter()
                .rposition(|&(r, n)| r == self.rank && n == self.name)
            {
                held.remove(i);
            }
        });
    }
}

#[cfg(not(debug_assertions))]
struct RankToken;

#[cfg(not(debug_assertions))]
impl RankToken {
    #[inline(always)]
    fn acquire(_rank: u8, _name: &'static str) -> RankToken {
        RankToken
    }
}

/// A [`Mutex`] with a declared place in the lock order and built-in
/// poison recovery.
pub struct OrderedMutex<T> {
    name: &'static str,
    rank: u8,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// A new mutex named `name` at `rank` in the declared order.
    pub const fn new(name: &'static str, rank: u8, value: T) -> OrderedMutex<T> {
        OrderedMutex {
            name,
            rank,
            inner: Mutex::new(value),
        }
    }

    /// Acquire the lock, recovering from poisoning. Under
    /// `debug_assertions`, panics if any lock of equal or higher rank is
    /// already held by this thread (including this one — re-entry).
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let token = RankToken::acquire(self.rank, self.name);
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        OrderedMutexGuard {
            guard,
            _token: token,
        }
    }

    /// The lock's name in the declared order table.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The lock's rank in the declared order table.
    pub fn rank(&self) -> u8 {
        self.rank
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("name", &self.name)
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard returned by [`OrderedMutex::lock`].
pub struct OrderedMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    _token: RankToken,
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// An [`RwLock`] with a declared place in the lock order and built-in
/// poison recovery. Read and write acquisitions are ranked identically:
/// the order table is about *which* lock, not *how* it is taken.
pub struct OrderedRwLock<T> {
    name: &'static str,
    rank: u8,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// A new rwlock named `name` at `rank` in the declared order.
    pub const fn new(name: &'static str, rank: u8, value: T) -> OrderedRwLock<T> {
        OrderedRwLock {
            name,
            rank,
            inner: RwLock::new(value),
        }
    }

    /// Acquire a shared guard, recovering from poisoning; same ordering
    /// check as [`OrderedMutex::lock`].
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        let token = RankToken::acquire(self.rank, self.name);
        let guard = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        OrderedReadGuard {
            guard,
            _token: token,
        }
    }

    /// Acquire an exclusive guard, recovering from poisoning; same
    /// ordering check as [`OrderedMutex::lock`].
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        let token = RankToken::acquire(self.rank, self.name);
        let guard = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        OrderedWriteGuard {
            guard,
            _token: token,
        }
    }

    /// Whether a previous writer panicked. Recovery is automatic; this
    /// exists for the test that asserts the poisoned paths stay
    /// serviceable.
    #[cfg(test)]
    fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    /// The lock's name in the declared order table.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The lock's rank in the declared order table.
    pub fn rank(&self) -> u8 {
        self.rank
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("name", &self.name)
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared guard returned by [`OrderedRwLock::read`].
pub struct OrderedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    _token: RankToken,
}

impl<T> Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Exclusive guard returned by [`OrderedRwLock::write`].
pub struct OrderedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    _token: RankToken,
}

impl<T> Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::rank::{LEAF, PUBLISH_GUARD, STATE};
    use super::*;
    use crate::pool::spawn_join;
    use std::sync::Arc;

    #[test]
    fn lock_ranks_are_ordered() {
        let ranks = [PUBLISH_GUARD, STATE, LEAF];
        assert!(ranks.is_sorted_by(|a, b| a < b), "{ranks:?}");
        // A leaf lock may be taken under the state slot.
        let state = OrderedRwLock::new("state", STATE, ());
        let entries = OrderedMutex::new("entries", LEAF, ());
        let _s = state.read();
        drop(entries.lock());
    }

    #[test]
    fn in_order_acquisition_is_fine() {
        let guard = OrderedMutex::new("publish_guard", PUBLISH_GUARD, ());
        let state = OrderedRwLock::new("state", STATE, vec![1, 2, 3]);
        let memo = OrderedMutex::new("memo", LEAF, 7u64);
        let _g = guard.lock();
        let s = state.read();
        assert_eq!(*memo.lock(), 7);
        assert_eq!(s.len(), 3);
        drop(s);
        *state.write() = vec![9];
        assert_eq!(state.read()[0], 9);
    }

    #[test]
    fn sequential_same_rank_is_fine() {
        let a = OrderedMutex::new("memo", LEAF, 0u32);
        let b = OrderedMutex::new("entries", LEAF, 0u32);
        // Dropping between acquisitions keeps at most one leaf lock held.
        for m in [&a, &b] {
            *m.lock() += 1;
        }
        assert_eq!(*a.lock(), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn out_of_order_acquisition_panics() {
        let state = Arc::new(OrderedRwLock::new("state", STATE, ()));
        let guard = Arc::new(OrderedMutex::new("publish_guard", PUBLISH_GUARD, ()));
        let result = spawn_join(move || {
            let _t = state.read();
            let _g = guard.lock(); // rank 0 after rank 2: violation
        });
        let err = result.expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-order violation"), "{msg}");
        assert!(
            msg.contains("publish_guard") && msg.contains("state"),
            "{msg}"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn reentrant_acquisition_panics() {
        let m = Arc::new(OrderedMutex::new("publish_guard", PUBLISH_GUARD, ()));
        let result = spawn_join(move || {
            let _a = m.lock();
            let _b = m.lock(); // same rank: re-entry, would self-deadlock
        });
        assert!(result.is_err());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn violation_does_not_corrupt_the_held_stack() {
        let lo = Arc::new(OrderedMutex::new("publish_guard", PUBLISH_GUARD, ()));
        let hi = Arc::new(OrderedRwLock::new("state", STATE, ()));
        let (lo2, hi2) = (Arc::clone(&lo), Arc::clone(&hi));
        let result = spawn_join(move || {
            let _t = hi2.read();
            let _g = lo2.lock();
        });
        assert!(result.is_err());
        // The panicking thread is gone; this thread's stack is clean and
        // the locks (poisoned or not) still serve in order.
        let _g = lo.lock();
        let _t = hi.read();
    }

    #[test]
    fn poisoned_locks_recover() {
        let m = Arc::new(OrderedMutex::new("memo", LEAF, 41u64));
        let rw = Arc::new(OrderedRwLock::new("state", STATE, String::from("ok")));
        let (m2, rw2) = (Arc::clone(&m), Arc::clone(&rw));
        let result = spawn_join(move || {
            let _a = m2.lock();
            drop(_a);
            let _b = rw2.write();
            panic!("poison the rwlock");
        });
        assert!(result.is_err());
        assert!(rw.is_poisoned());
        // Both still hand out guards; data is whatever the panicking
        // holder left behind.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(rw.read().as_str(), "ok");
    }
}
