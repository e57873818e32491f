//! Shared infrastructure for the GeoBlocks reproduction.
//!
//! This crate deliberately has almost no dependencies; it provides the small
//! utilities every other crate needs:
//!
//! * [`fifo_map`] — [`FifoMap`], the capacity-bounded map with amortised
//!   O(1) oldest-insertion eviction behind the serve-layer result cache
//!   and the covering memo.
//! * [`fxhash`] — a fast, non-cryptographic hasher (the FxHash algorithm used
//!   by rustc), hand-written here so the workspace does not need an extra
//!   dependency. Hashing of small integer keys (cell ids) is hot in the
//!   query-cache statistics path.
//! * [`rng`] — deterministic seeded RNG construction so every dataset,
//!   polygon, and workload in the repository is reproducible.
//! * [`timer`] — simple wall-clock timing helpers used by the benchmark
//!   harness (Criterion is used for micro-benches; the harness needs plain
//!   phase timing to reproduce the paper's build-time tables).
//! * [`fmt`] — human-readable byte/duration formatting for reports.
//! * [`pool`] — a std-only scoped fork-join pool ([`Pool::run`]) used by
//!   the parallel extract and build and the concurrent query benchmarks,
//!   plus [`pool::spawn_join`] for panic-isolated one-off threads. Its
//!   workers share nothing but relaxed statistics counters, so it has no
//!   kernel to model-check.
//! * [`sync`] — rank-ordered lock wrappers ([`sync::OrderedMutex`],
//!   [`sync::OrderedRwLock`]) that enforce the declared engine lock
//!   order ([`sync::rank`]) at runtime under `debug_assertions` and
//!   absorb poisoning. The [`sync::backend`] submodule defines the
//!   swappable-primitive facade (`Backend`) that lets `gb_check` run the
//!   same kernel code under a deterministic interleaving scheduler.
//! * [`stats`] — relaxed event counters ([`stats::Counter`]), the home
//!   for `Ordering::Relaxed`.
//! * [`hist`] — the lock-free log-linear [`LatencyHistogram`] shared by the
//!   serve-layer request-latency metric and the per-stage tracer
//!   (`gb_trace`).

pub mod fifo_map;
pub mod fmt;
pub mod fxhash;
pub mod hist;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod timer;

pub use fifo_map::FifoMap;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use hist::LatencyHistogram;
pub use pool::{default_threads, spawn_join, Pool};
pub use stats::Counter;
pub use sync::{OrderedMutex, OrderedRwLock};
pub use timer::Timer;
