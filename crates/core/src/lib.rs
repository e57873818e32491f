//! **GeoBlocks** — a pre-aggregating data structure for error-bounded
//! spatial aggregation over arbitrary polygons (EDBT 2021 reproduction;
//! see the repository's `DESIGN.md`).
//!
//! A [`GeoBlock`] is a materialized view over geospatial point data: the
//! domain is decomposed into a hierarchical grid (`gb-cell`), and each
//! non-empty grid cell at the user-chosen *block level* stores pre-computed
//! aggregates (count, per-column min/max/sum). Queries map a
//! polygon to an error-bounded cell covering and combine the covered cell
//! aggregates — the only error is the covering's spatial error, bounded by
//! the block-level cell diagonal (§3.2). Above the block level the block
//! keeps a pyramid of coarser records, so every covering cell is one
//! lookup: the pyramid is the aggregate cache of the paper's BlockQC
//! (§3.6), complete and static.
//!
//! ```
//! use gb_data::{datasets, extract, AggSpec, Filter, Rows};
//! use geoblocks::{build, GeoBlockEngine};
//!
//! // Synthetic NYC-taxi-like data → extract (clean + sort) → build.
//! let ds = datasets::nyc_taxi(10_000, 42);
//! let base = extract(&ds.raw, ds.grid, &datasets::nyc_cleaning_rules(), None).base;
//! let (block, _) = build(&base, 14, &Filter::all());
//!
//! // Query any polygon with any aggregate set.
//! let polys = gb_data::polygons::neighborhoods(5, 1);
//! let spec = AggSpec::paper_default(base.schema());
//! let (result, _) = block.select(&polys[0], &spec);
//! assert!(result.count <= 10_000);
//!
//! // The concurrent front-end. Typed responses carry the result, the
//! // per-query stats, and the data epoch they're valid for (see the
//! // [`api`] module).
//! let engine = GeoBlockEngine::new(block);
//! let served = engine.select(&polys[0], &spec);
//! assert_eq!(served.result.count, result.count);
//! assert_eq!(served.epoch, 0);
//! ```
//!
//! Module map (one per paper concern):
//!
//! | Module | Paper section |
//! |---|---|
//! | [`api`] — typed query requests/replies, unified errors, wire codec | — |
//! | [`block`] — storage layout, header, coarsening | §3.4 |
//! | [`layer`] — the one record layout: the block's records and every coarser layer of the aggregate pyramid | §3.4 "granularity", §3.5 |
//! | [`build`](mod@build) — single- or multi-threaded builds from sorted base data | §3.3 |
//! | [`query`] — SELECT (Listing 1) and COUNT: one record lookup per covering cell, the pyramid standing in for the §3.6 cache | §3.5, §3.6 |
//! | [`mod@reference`] — the naive SELECT/COUNT every accelerated path is tested against | §3.5 |
//! | [`engine`] — the front-end, `Send + Sync`: epoch-swapped block, covering memo, updates | §5 |
//! | [`memo`] — covering memo | — |
//! | [`snapshot`] — versioned persistence of blocks | — |
//! | [`update`] — batch updates of a block | §5 |
//! | [`aggregate`] — accumulator shared with the baselines | §2, §3.4 |

pub mod aggregate;
pub mod api;
pub mod block;
pub mod build;
pub mod engine;
mod gallop;
pub mod kernel;
pub mod layer;
pub mod memo;
pub mod query;
pub mod reference;
pub mod snapshot;
pub mod update;

pub use aggregate::{AggPlan, AggResult};
pub use api::{GbError, QueryReply, QueryRequest, QueryResponse, ServeError};
pub use block::GeoBlock;
pub use build::{build, build_parallel, BuildStats};
pub use engine::{GeoBlockEngine, RebuildPolicy};
pub use kernel::PublishKernel;
pub use layer::Layer;
pub use memo::{CoveringMemo, MemoStats, MAX_ENTRY_BYTES};
pub use query::QueryStats;
pub use snapshot::{PersistStats, SnapshotError, SNAPSHOT_VERSION};
pub use update::{UpdateBatch, UpdateReport};

/// Re-export of the tracing crate: the engine carries an
/// `Arc<trace::Tracer>`, and callers configure it via [`trace::TraceConfig`].
pub use gb_trace as trace;
