//! [`CheckedBackend`]: the model-checking implementation of
//! `gb_common::sync::backend::Backend`.
//!
//! Each primitive stores its data in a plain [`UnsafeCell`] and routes
//! every visible operation through the run's [`Scheduler`]:
//!
//! * mutex/rwlock acquisition parks at a switch point, then either
//!   takes the resource or blocks (in model time) until it frees;
//! * atomic loads/stores/rmws park at a switch point, then read or
//!   write the cell directly.
//!
//! The `UnsafeCell` accesses are sound because the scheduler serializes
//! model threads — exactly one ever runs, and every handoff goes
//! through the scheduler's own mutex, which carries the happens-before
//! edges. The model therefore checks **sequentially consistent**
//! executions only; weak-memory reorderings are out of scope (that is
//! TSan's job, see `DESIGN.md`).

use crate::ctx;
use gb_common::sync::backend::{AtomicU64Api, Backend, MutexApi, Ordering, RwLockApi};
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};

/// The checked backend. Uninhabited: only its associated types are used.
#[derive(Debug)]
pub enum CheckedBackend {}

impl Backend for CheckedBackend {
    type Mutex<T: Send> = CheckedMutex<T>;
    type RwLock<T: Send + Sync> = CheckedRwLock<T>;
    type AtomicU64 = CheckedAtomicU64;
}

/// A mutex whose blocking is modeled by the scheduler.
pub struct CheckedMutex<T> {
    res: usize,
    cell: UnsafeCell<T>,
}

// Safety: the scheduler guarantees at most one thread holds the
// resource, and every handoff synchronizes through its internal mutex.
unsafe impl<T: Send> Send for CheckedMutex<T> {}
unsafe impl<T: Send> Sync for CheckedMutex<T> {}

impl<T: Send> MutexApi<T> for CheckedMutex<T> {
    type Guard<'a>
        = CheckedMutexGuard<'a, T>
    where
        Self: 'a,
        T: 'a;

    fn new(name: &'static str, rank: u8, value: T) -> Self {
        let (sched, _) = ctx::current();
        CheckedMutex {
            res: sched.register_resource(name, rank),
            cell: UnsafeCell::new(value),
        }
    }

    fn lock(&self) -> CheckedMutexGuard<'_, T> {
        let (sched, tid) = ctx::current();
        sched.acquire_exclusive(tid, self.res);
        CheckedMutexGuard { lock: self }
    }
}

/// Guard for [`CheckedMutex`]; releases (a scheduler event) on drop.
pub struct CheckedMutexGuard<'a, T> {
    lock: &'a CheckedMutex<T>,
}

impl<T> Deref for CheckedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.cell.get() }
    }
}

impl<T> DerefMut for CheckedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.lock.cell.get() }
    }
}

impl<T> Drop for CheckedMutexGuard<'_, T> {
    fn drop(&mut self) {
        let (sched, tid) = ctx::current();
        sched.release_exclusive(tid, self.lock.res);
    }
}

/// An rwlock whose blocking is modeled by the scheduler.
pub struct CheckedRwLock<T> {
    res: usize,
    cell: UnsafeCell<T>,
}

// Safety: as for CheckedMutex; shared guards only hand out `&T`.
unsafe impl<T: Send + Sync> Send for CheckedRwLock<T> {}
unsafe impl<T: Send + Sync> Sync for CheckedRwLock<T> {}

impl<T: Send + Sync> RwLockApi<T> for CheckedRwLock<T> {
    type ReadGuard<'a>
        = CheckedReadGuard<'a, T>
    where
        Self: 'a,
        T: 'a;
    type WriteGuard<'a>
        = CheckedWriteGuard<'a, T>
    where
        Self: 'a,
        T: 'a;

    fn new(name: &'static str, rank: u8, value: T) -> Self {
        let (sched, _) = ctx::current();
        CheckedRwLock {
            res: sched.register_resource(name, rank),
            cell: UnsafeCell::new(value),
        }
    }

    fn read(&self) -> CheckedReadGuard<'_, T> {
        let (sched, tid) = ctx::current();
        sched.acquire_shared(tid, self.res);
        CheckedReadGuard { lock: self }
    }

    fn write(&self) -> CheckedWriteGuard<'_, T> {
        let (sched, tid) = ctx::current();
        sched.acquire_exclusive(tid, self.res);
        CheckedWriteGuard { lock: self }
    }
}

/// Shared guard for [`CheckedRwLock`].
pub struct CheckedReadGuard<'a, T> {
    lock: &'a CheckedRwLock<T>,
}

impl<T> Deref for CheckedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.cell.get() }
    }
}

impl<T> Drop for CheckedReadGuard<'_, T> {
    fn drop(&mut self) {
        let (sched, tid) = ctx::current();
        sched.release_shared(tid, self.lock.res);
    }
}

/// Exclusive guard for [`CheckedRwLock`].
pub struct CheckedWriteGuard<'a, T> {
    lock: &'a CheckedRwLock<T>,
}

impl<T> Deref for CheckedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.cell.get() }
    }
}

impl<T> DerefMut for CheckedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.lock.cell.get() }
    }
}

impl<T> Drop for CheckedWriteGuard<'_, T> {
    fn drop(&mut self) {
        let (sched, tid) = ctx::current();
        sched.release_exclusive(tid, self.lock.res);
    }
}

/// Run one atomic step: park at a switch point, then touch the cell.
fn atomic_step<R>(f: impl FnOnce() -> R) -> R {
    let (sched, tid) = ctx::current();
    sched.switch_point(tid);
    f()
}

/// A `u64` atomic whose every operation is a switch point.
#[derive(Debug)]
pub struct CheckedAtomicU64 {
    cell: UnsafeCell<u64>,
}

unsafe impl Send for CheckedAtomicU64 {}
unsafe impl Sync for CheckedAtomicU64 {}

impl AtomicU64Api for CheckedAtomicU64 {
    fn new(value: u64) -> Self {
        CheckedAtomicU64 {
            cell: UnsafeCell::new(value),
        }
    }

    fn load(&self, _order: Ordering) -> u64 {
        atomic_step(|| unsafe { *self.cell.get() })
    }

    fn store(&self, value: u64, _order: Ordering) {
        atomic_step(|| unsafe { *self.cell.get() = value })
    }

    fn fetch_add(&self, value: u64, _order: Ordering) -> u64 {
        atomic_step(|| unsafe {
            let p = self.cell.get();
            let old = *p;
            *p = old.wrapping_add(value);
            old
        })
    }
}
