//! Swappable concurrency primitives: the facade layer `gb_check` plugs
//! into.
//!
//! Every concurrency *kernel* in this workspace — the engine's
//! epoch-swap publication, the serve-side result cache and quota table —
//! is written once, generic over a [`Backend`].
//! In production the kernels are instantiated with [`StdBackend`], which
//! compiles straight to the rank-ordered `std::sync` wrappers from
//! [`crate::sync`] (zero new cost: the facade traits are monomorphized
//! away). Under the model checker the same kernel code is instantiated
//! with `gb_check::CheckedBackend`, whose primitives hand every
//! acquisition and atomic access to a deterministic scheduler
//! that explores bounded interleavings exhaustively.
//!
//! Design notes:
//!
//! * Constructors take `(name, rank)` like [`crate::sync::OrderedMutex`]
//!   — the std backend feeds them to the runtime lock-order checker, the
//!   checked backend uses the name in schedule traces.
//! * Atomics expose the `std::sync::atomic` subset the kernels use, with
//!   an explicit [`Ordering`] parameter. The checked backend documents
//!   that it models **sequential consistency only**: it explores thread
//!   interleavings, not weak-memory reorderings (that is TSan's and the
//!   nightly sanitizer job's half of the contract).
//! * [`Arc`] is re-exported as-is for both backends: reference counting
//!   is handled by `std` and is not an exploration point — kernels share
//!   state through `Arc` and synchronize through the facade types.
//! * No kernel spins: each one blocks on a lock or finishes, so the
//!   facade has no yield point.

use std::ops::{Deref, DerefMut};

pub use std::sync::atomic::Ordering;
/// Shared ownership is the same type under every backend (see module
/// docs: refcounting is not an exploration point).
pub use std::sync::Arc;

/// Facade over a mutual-exclusion lock.
pub trait MutexApi<T: Send>: Send + Sync {
    /// The guard type returned by [`MutexApi::lock`].
    type Guard<'a>: Deref<Target = T> + DerefMut
    where
        Self: 'a,
        T: 'a;

    /// A new lock named `name` at `rank` in the declared lock order.
    fn new(name: &'static str, rank: u8, value: T) -> Self;

    /// Acquire the lock (recovering from poisoning, like
    /// [`crate::sync::OrderedMutex::lock`]).
    fn lock(&self) -> Self::Guard<'_>;
}

/// Facade over a reader–writer lock.
pub trait RwLockApi<T: Send + Sync>: Send + Sync {
    /// Shared guard returned by [`RwLockApi::read`].
    type ReadGuard<'a>: Deref<Target = T>
    where
        Self: 'a,
        T: 'a;
    /// Exclusive guard returned by [`RwLockApi::write`].
    type WriteGuard<'a>: Deref<Target = T> + DerefMut
    where
        Self: 'a,
        T: 'a;

    /// A new lock named `name` at `rank` in the declared lock order.
    fn new(name: &'static str, rank: u8, value: T) -> Self;

    /// Acquire a shared guard.
    fn read(&self) -> Self::ReadGuard<'_>;

    /// Acquire an exclusive guard.
    fn write(&self) -> Self::WriteGuard<'_>;
}

/// Facade over a 64-bit atomic counter/cell.
pub trait AtomicU64Api: Send + Sync {
    /// A new atomic holding `value`.
    fn new(value: u64) -> Self;
    /// Atomic load.
    fn load(&self, order: Ordering) -> u64;
    /// Atomic store.
    fn store(&self, value: u64, order: Ordering);
    /// Atomic add, returning the previous value.
    fn fetch_add(&self, value: u64, order: Ordering) -> u64;
}

/// A family of concurrency primitives a kernel can be instantiated with.
///
/// Production code uses [`StdBackend`]; `gb_check` provides
/// `CheckedBackend`. Kernels name the primitives as associated types:
///
/// ```
/// use gb_common::sync::backend::{Backend, MutexApi, StdBackend};
///
/// struct Kernel<B: Backend = StdBackend> {
///     slot: B::Mutex<u64>,
/// }
///
/// impl<B: Backend> Kernel<B> {
///     fn new() -> Self {
///         Kernel {
///             slot: B::Mutex::new("slot", 0, 0),
///         }
///     }
///     fn bump(&self) -> u64 {
///         let mut v = self.slot.lock();
///         *v += 1;
///         *v
///     }
/// }
///
/// assert_eq!(Kernel::<StdBackend>::new().bump(), 1);
/// ```
pub trait Backend: Sized + 'static {
    /// Mutual-exclusion lock family.
    type Mutex<T: Send>: MutexApi<T>;
    /// Reader–writer lock family.
    type RwLock<T: Send + Sync>: RwLockApi<T>;
    /// 64-bit atomic family.
    type AtomicU64: AtomicU64Api;
}

/// The production backend: facades compile directly to the rank-ordered
/// wrappers from [`crate::sync`] and `std` atomics. Uninhabited — it is
/// only ever used as a type parameter.
#[derive(Debug)]
pub enum StdBackend {}

impl Backend for StdBackend {
    type Mutex<T: Send> = super::OrderedMutex<T>;
    type RwLock<T: Send + Sync> = super::OrderedRwLock<T>;
    type AtomicU64 = std::sync::atomic::AtomicU64;
}

impl<T: Send> MutexApi<T> for super::OrderedMutex<T> {
    type Guard<'a>
        = super::OrderedMutexGuard<'a, T>
    where
        T: 'a;

    fn new(name: &'static str, rank: u8, value: T) -> Self {
        super::OrderedMutex::new(name, rank, value)
    }

    fn lock(&self) -> Self::Guard<'_> {
        super::OrderedMutex::lock(self)
    }
}

impl<T: Send + Sync> RwLockApi<T> for super::OrderedRwLock<T> {
    type ReadGuard<'a>
        = super::OrderedReadGuard<'a, T>
    where
        T: 'a;
    type WriteGuard<'a>
        = super::OrderedWriteGuard<'a, T>
    where
        T: 'a;

    fn new(name: &'static str, rank: u8, value: T) -> Self {
        super::OrderedRwLock::new(name, rank, value)
    }

    fn read(&self) -> Self::ReadGuard<'_> {
        super::OrderedRwLock::read(self)
    }

    fn write(&self) -> Self::WriteGuard<'_> {
        super::OrderedRwLock::write(self)
    }
}

impl AtomicU64Api for std::sync::atomic::AtomicU64 {
    fn new(value: u64) -> Self {
        std::sync::atomic::AtomicU64::new(value)
    }
    fn load(&self, order: Ordering) -> u64 {
        std::sync::atomic::AtomicU64::load(self, order)
    }
    fn store(&self, value: u64, order: Ordering) {
        std::sync::atomic::AtomicU64::store(self, value, order)
    }
    fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
        std::sync::atomic::AtomicU64::fetch_add(self, value, order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::rank;

    /// A kernel written once against the facade, exercised here with the
    /// std backend (the checked backend gets the same treatment in
    /// `gb_check`).
    struct PingPong<B: Backend> {
        turn: B::AtomicU64,
        log: B::Mutex<Vec<u64>>,
    }

    impl<B: Backend> PingPong<B> {
        fn new() -> Self {
            PingPong {
                turn: B::AtomicU64::new(0),
                log: B::Mutex::new("log", 0, Vec::new()),
            }
        }
    }

    #[test]
    fn std_backend_drives_a_generic_kernel() {
        let k = PingPong::<StdBackend>::new();
        for _ in 0..4 {
            let t = k.turn.fetch_add(1, Ordering::SeqCst);
            k.log.lock().push(t);
        }
        assert_eq!(*k.log.lock(), vec![0, 1, 2, 3]);
        assert_eq!(k.turn.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn std_rwlock_facade_reads_and_writes() {
        struct Cell<B: Backend> {
            slot: B::RwLock<Arc<u64>>,
        }
        let c = Cell::<StdBackend> {
            slot: <StdBackend as Backend>::RwLock::new("state", rank::STATE, Arc::new(7)),
        };
        assert_eq!(**c.slot.read(), 7);
        *c.slot.write() = Arc::new(9);
        assert_eq!(**c.slot.read(), 9);
    }
}
