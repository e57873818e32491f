//! The GeoBlock front-end: a concurrent, shared-nothing-write read path
//! over one block, with in-place-committed batch updates.
//!
//! [`GeoBlockEngine`] answers SELECT and COUNT from the block's pyramid
//! (`GeoBlock::select_covering`, `GeoBlock::count_covering`) over the
//! polygon's memoized covering. The pyramid is the engine's aggregate
//! cache: it stores the record of every aligned cell the paper's BlockQC
//! (§3.6) would cache on demand, so there is no second store to fill,
//! size or rebuild. The paper's cache is reproduced as a baseline beside
//! the paper's scanning Block (`gb_baselines::BlockQcIndex`).
//!
//! It is `Send + Sync`: many threads answer queries while update batches
//! commit underneath them, and readers never block on an update:
//!
//! * **Epoch-swapped engine state** — the block and the **data epoch**
//!   live together in one immutable `EngineState` published through a
//!   [`PublishKernel`]. A query clones the `Arc` (read lock held for
//!   nanoseconds) and works on a consistent `(block, epoch)` pair for its
//!   whole run. An update constructs the next state entirely *outside*
//!   the lock, then write-locks only to swap the pointer. The kernel is
//!   extracted into [`crate::kernel`] so `gb_check` model-checks these
//!   exact interleavings over bounded schedules.
//! * **The data epoch** (bumped by [`GeoBlockEngine::apply_updates`])
//!   decides answer validity and is what
//!   [`crate::api::QueryResponse::epoch`] reports: a cached response may
//!   be replayed only while the engine still reports its epoch.
//!
//! The canonical entry point is [`GeoBlockEngine::query`] on the typed
//! [`QueryRequest`]/[`QueryReply`] values from [`crate::api`]; the typed
//! convenience methods ([`GeoBlockEngine::select`] /
//! [`GeoBlockEngine::count`]) return [`QueryResponse`] values carrying
//! the same epoch.

// Every served query and update runs through the engine.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use crate::aggregate::{AggResult, RecordRef};
use crate::api::{GbError, QueryReply, QueryRequest, QueryResponse};
use crate::block::GeoBlock;
use crate::kernel::PublishKernel;
use crate::memo::{CoveringMemo, MemoStats};
use crate::query::QueryStats;
use crate::snapshot::SnapshotError;
use crate::update::{UpdateBatch, UpdateReport};
use gb_cell::{CellId, CellUnion};
use gb_data::{AggSpec, DataError};
use gb_geom::Polygon;
use gb_trace::{Stage, TraceStats, Tracer};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default covering-memo capacity, in entries. Coverings are a
/// few KB each; dashboards cycle through at most a few hundred shapes.
const DEFAULT_MEMO_CAPACITY: usize = 512;

/// One immutable epoch of the engine: the block and the data epoch it is
/// valid for. Queries pin one `Arc` of this and see a consistent world
/// regardless of concurrent swaps.
#[derive(Debug)]
struct EngineState {
    block: Arc<GeoBlock>,
    data_epoch: u64,
}

/// A thread-safe GeoBlock query engine with in-place-committed batch
/// updates.
///
/// All methods take `&self`; the engine is designed to be shared as
/// `Arc<GeoBlockEngine>` (or borrowed across `std::thread::scope`).
pub struct GeoBlockEngine {
    /// The epoch-swap publication kernel: serialized read-modify-publish
    /// transitions (update commits), wait-free-ish snapshots for queries.
    /// Model-checked in `gb_check`.
    state: PublishKernel<EngineState>,
    /// Polygon → covering memo. Keyed by polygon *content* (and the
    /// fixed block level), so entries survive every data epoch — a
    /// covering does not depend on the data.
    memo: CoveringMemo,
    /// Per-stage tracing hub, shared with the serve layer. Defaults to
    /// the env-configured sampler (`GB_TRACE_SAMPLE` / `GB_SLOW_US`).
    tracer: Arc<Tracer>,
}

/// Bridge the engine's [`QueryStats`] into the tracer's mirror type.
fn trace_stats(stats: &QueryStats) -> TraceStats {
    TraceStats {
        query_cells: stats.query_cells as u64,
        cells_combined: stats.cells_combined as u64,
        searches: stats.searches as u64,
    }
}

/// Reject specs referencing columns outside `block`'s schema before they
/// reach the (panicking, index-based) accumulator hot path.
fn validate_spec(block: &GeoBlock, spec: &AggSpec) -> Result<(), GbError> {
    let n_cols = block.schema().len();
    if let Some(max) = spec.max_column() {
        if max >= n_cols {
            return Err(GbError::Data(DataError::UnknownColumn {
                column: format!("#{max} (schema has {n_cols} columns)"),
            }));
        }
    }
    Ok(())
}

impl GeoBlockEngine {
    /// A fluent builder over the construction sources (a shared block or
    /// a snapshot) that reports a bad configuration as a [`GbError`]
    /// instead of failing on I/O.
    pub fn builder() -> EngineBuilder {
        EngineBuilder {
            source: EngineSource::None,
        }
    }

    /// Serve `block`.
    pub fn new(block: GeoBlock) -> Self {
        GeoBlockEngine::over(Arc::new(block))
    }

    /// Serve an already-shared block.
    fn over(block: Arc<GeoBlock>) -> Self {
        GeoBlockEngine {
            state: PublishKernel::new(EngineState {
                block,
                data_epoch: 0,
            }),
            memo: CoveringMemo::new(DEFAULT_MEMO_CAPACITY),
            tracer: Arc::new(Tracer::from_env()),
        }
    }

    /// Replace the tracer (builder-time only). Tests and the bench
    /// harness construct explicit [`gb_trace::TraceConfig`]s instead of
    /// relying on process-global env vars.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// The engine's tracing hub — the serve layer shares this `Arc` for
    /// its own request spans, `/metrics` export, and debug endpoints.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Pin the current state (read lock held only for the `Arc` clone).
    fn state_snapshot(&self) -> Arc<EngineState> {
        self.state.snapshot()
    }

    /// Snapshot of the current block. Updates swap the block out from
    /// under the engine, so callers get a pinned `Arc` of the epoch they
    /// observed, not a borrow of a mutable slot.
    pub fn block_snapshot(&self) -> Arc<GeoBlock> {
        self.state_snapshot().block.clone()
    }

    /// How many update batches have committed — the epoch reported in
    /// every [`QueryResponse`] and the validity horizon for any cached
    /// response (see `crate::api`).
    pub fn data_epoch(&self) -> u64 {
        self.state_snapshot().data_epoch
    }

    /// Covering-memo counter snapshot (hits, misses, evictions) — what
    /// `/metrics` exports.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// The canonical typed entry point: validate `req` against the
    /// schema, execute it, and wrap the result with its stats and epoch.
    /// The HTTP layer (`gb_serve`) is a thin shell around this method.
    pub fn query(&self, req: &QueryRequest) -> Result<QueryReply, GbError> {
        match req {
            QueryRequest::Select { polygon, spec } => {
                // One pin: the spec is checked against the schema of the
                // state the query then runs on.
                let state = self.state_snapshot();
                validate_spec(&state.block, spec)?;
                let _req = self.tracer.begin_request("select");
                Ok(QueryReply::Select(self.select_item(&state, polygon, spec)))
            }
            QueryRequest::Count { polygon } => Ok(QueryReply::Count(self.count(polygon))),
            QueryRequest::Update { batch } => Ok(QueryReply::Update(self.apply_updates(batch)?)),
            QueryRequest::Batch { requests } => self.query_batch(requests, 1),
        }
    }

    /// The covering of `polygon` over `block`, served from the covering
    /// memo. The memo lock is never held while covering: a miss computes
    /// outside the lock and inserts afterwards.
    fn covering_for(&self, block: &GeoBlock, polygon: &Polygon) -> Arc<CellUnion> {
        let span = self.tracer.span(Stage::CoveringResolve);
        let verify = gb_cell::normalized_vertex_bits(polygon);
        let key = gb_cell::cover_key_from_bits(&verify, block.level());
        let (covering, hit) = self
            .memo
            .get_or_insert_with_hit(key, &verify, || block.cover(polygon));
        drop(span);
        if hit {
            self.tracer.flag(gb_trace::FLAG_MEMO_HIT);
        }
        covering
    }

    /// COUNT over the polygon's memoized covering.
    pub fn count(&self, polygon: &Polygon) -> QueryResponse<u64> {
        let _req = self.tracer.begin_request("count");
        self.count_item(&self.state_snapshot(), polygon)
    }

    /// SELECT over the polygon's memoized covering, safe to call from any
    /// number of threads concurrently (including during update commits —
    /// the query runs entirely on its pinned epoch).
    pub fn select(&self, polygon: &Polygon, spec: &AggSpec) -> QueryResponse<AggResult> {
        let _req = self.tracer.begin_request("select");
        self.select_item(&self.state_snapshot(), polygon, spec)
    }

    /// The SELECT of one polygon on a pinned state: the step a solo
    /// SELECT and every SELECT item of a batch share.
    fn select_item(
        &self,
        state: &EngineState,
        polygon: &Polygon,
        spec: &AggSpec,
    ) -> QueryResponse<AggResult> {
        let covering = self.covering_for(&state.block, polygon);
        let span = self.tracer.span(Stage::PyramidCombine);
        let (result, stats) = state.block.select_covering(&covering, spec);
        drop(span);
        self.tracer.note_stats(trace_stats(&stats));
        self.tracer.note_epoch(state.data_epoch);
        QueryResponse::new(result.finalize(spec), stats, state.data_epoch)
    }

    /// The COUNT of one polygon on a pinned state: the step a solo COUNT
    /// and every COUNT item of a batch share.
    fn count_item(&self, state: &EngineState, polygon: &Polygon) -> QueryResponse<u64> {
        let covering = self.covering_for(&state.block, polygon);
        // COUNT reads the counts of the records SELECT's search finds, so
        // it shares the `PyramidCombine` stage.
        let span = self.tracer.span(Stage::PyramidCombine);
        let (count, stats) = state.block.count_covering(&covering);
        drop(span);
        self.tracer.note_stats(trace_stats(&stats));
        self.tracer.note_epoch(state.data_epoch);
        QueryResponse::new(count, stats, state.data_epoch)
    }

    /// Execute several Select/Count requests against **one** pinned
    /// engine state, in order, on the calling thread. Each item takes the
    /// step a solo request takes — its covering from the memo, which
    /// hands every item of the same polygon the same `Arc` — so a batch
    /// item answers bit-identically to the same request sent alone.
    ///
    /// The whole batch answers at a single data epoch (the pinned
    /// state's), which is what makes the reply cacheable under the
    /// serve layer's epoch-validated result cache.
    ///
    /// `_threads` is not read: the items are microseconds of work each,
    /// less than a thread fork costs. The parameter stays because the
    /// frozen serving benchmark passes it.
    pub fn query_batch(
        &self,
        requests: &[QueryRequest],
        _threads: usize,
    ) -> Result<QueryReply, GbError> {
        let _req = self.tracer.begin_request("batch");
        let state = self.state_snapshot();
        // Validate everything up front: a batch fails whole, with the
        // offending item named, before any work happens. An admitted item
        // is its polygon, plus the spec for a SELECT.
        let admitted = requests
            .iter()
            .enumerate()
            .map(|(i, req)| match req {
                QueryRequest::Select { polygon, spec } => validate_spec(&state.block, spec)
                    .map(|()| (polygon, Some(spec)))
                    .map_err(|e| GbError::bad_request(format!("batch item {i}: {e}"))),
                QueryRequest::Count { polygon } => Ok((polygon, None)),
                QueryRequest::Update { .. } => Err(GbError::bad_request(format!(
                    "batch item {i}: update requests are not allowed inside a batch"
                ))),
                QueryRequest::Batch { .. } => Err(GbError::bad_request(format!(
                    "batch item {i}: batches do not nest"
                ))),
            })
            .collect::<Result<Vec<_>, _>>()?;

        let items: Vec<QueryReply> = admitted
            .into_iter()
            .map(|(polygon, spec)| match spec {
                Some(spec) => QueryReply::Select(self.select_item(&state, polygon, spec)),
                None => QueryReply::Count(self.count_item(&state, polygon)),
            })
            .collect();

        let mut stats = QueryStats::default();
        for item in &items {
            let s = item.stats();
            stats.query_cells += s.query_cells;
            stats.cells_combined += s.cells_combined;
            stats.searches += s.searches;
        }
        self.tracer.note_epoch(state.data_epoch);
        Ok(QueryReply::Batch(QueryResponse::new(
            items,
            stats,
            state.data_epoch,
        )))
    }

    /// Commit a batch of new tuples (§5) and advance the data epoch.
    ///
    /// The next state is built entirely offline — the next block, written
    /// in one pass from the current one (`GeoBlock::applied`, as in
    /// [`GeoBlock::apply_updates`]) — and swapped in with a single pointer
    /// write.
    /// In-flight queries keep answering from their pinned epoch; queries
    /// starting after the swap see the whole batch. The swap also makes
    /// invalidation transactional for result caches keyed on the epoch:
    /// the epoch bump and the new data become visible atomically.
    ///
    /// A batch with a row of the wrong arity, a non-finite location or
    /// value, or a location outside the grid's domain is rejected whole
    /// with a typed `BadRequest`; an empty batch commits nothing and
    /// reports the current epoch.
    pub fn apply_updates(
        &self,
        batch: &UpdateBatch,
    ) -> Result<QueryResponse<UpdateReport>, GbError> {
        let _req = self.tracer.begin_request("update");
        // Schema and grid never change between epochs: a batch admitted
        // against this state is admitted against the one `publish` hands
        // out.
        let epoch = {
            let state = self.state_snapshot();
            state.block.check_batch(batch)?;
            state.data_epoch
        };
        if batch.is_empty() {
            // Nothing to commit: no new block, no new epoch, and so no result
            // cache emptied for it.
            self.tracer.note_epoch(epoch);
            let report = UpdateReport::default();
            return Ok(QueryResponse::new(report, QueryStats::default(), epoch));
        }
        // One kernel transaction: serialized with other updates by the
        // publisher mutex; queries proceed throughout.
        let (report, epoch) = self.state.publish(|cur| {
            let (block, report) = cur.block.applied(batch);
            let epoch = cur.data_epoch + 1;
            (
                EngineState {
                    block: Arc::new(block),
                    data_epoch: epoch,
                },
                (report, epoch),
            )
        });
        self.tracer.note_epoch(epoch);
        Ok(QueryResponse::new(report, QueryStats::default(), epoch))
    }

    /// Persist the current block. A snapshot stores the block only: a
    /// restart serves from the restored block, and the covering memo
    /// starts empty.
    pub fn write_snapshot(&self, path: &Path) -> Result<(), SnapshotError> {
        self.state_snapshot().block.write_snapshot(path).map(drop)
    }
}

impl std::fmt::Debug for GeoBlockEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state_snapshot();
        f.debug_struct("GeoBlockEngine")
            .field("cells", &state.block.num_cells())
            .field("data_epoch", &state.data_epoch)
            .finish()
    }
}

/// Where an [`EngineBuilder`] gets its block from.
enum EngineSource {
    None,
    SharedBlock(Arc<GeoBlock>),
    SnapshotFile(PathBuf),
}

/// Fluent construction of a [`GeoBlockEngine`] from one source — a shared
/// block or a snapshot — with a typed error where a direct constructor
/// would fail on I/O.
///
/// ```no_run
/// # use geoblocks::GeoBlockEngine;
/// let engine = GeoBlockEngine::builder().snapshot("warm.gbsnap").build()?;
/// # Ok::<(), geoblocks::GbError>(())
/// ```
pub struct EngineBuilder {
    source: EngineSource,
}

impl EngineBuilder {
    /// Source: wrap an already-shared block.
    pub fn block_arc(mut self, block: Arc<GeoBlock>) -> Self {
        self.source = EngineSource::SharedBlock(block);
        self
    }

    /// Source: restore from a snapshot file.
    pub fn snapshot(mut self, path: impl Into<PathBuf>) -> Self {
        self.source = EngineSource::SnapshotFile(path.into());
        self
    }

    /// Construct the engine. Fails with a typed [`GbError`] on a missing
    /// source or a snapshot that will not load.
    pub fn build(self) -> Result<GeoBlockEngine, GbError> {
        match self.source {
            EngineSource::None => Err(GbError::bad_request(
                "engine builder needs a source: block_arc() or snapshot()".to_string(),
            )),
            EngineSource::SharedBlock(block) => Ok(GeoBlockEngine::over(block)),
            EngineSource::SnapshotFile(path) => {
                Ok(GeoBlockEngine::new(GeoBlock::read_snapshot(&path)?.0))
            }
        }
    }
}

// ---------------------------------------------------------------------
// The frozen cache surface.
//
// The serving benchmark (`gbmark/`, frozen until its next version) still
// calls what the engine exported while it carried an adaptive aggregate
// cache beside the pyramid. Each item below keeps that call compiling and
// answers "nothing cached", the way `query_batch` keeps its unread
// `_threads`. The benchmark's next version deletes these calls, and this
// block goes with them.
// ---------------------------------------------------------------------

/// When the retired cache was rebuilt. Accepted by
/// [`EngineBuilder::policy`] and never read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildPolicy {
    /// Only on explicit rebuilds.
    Manual,
    /// After every `n` queries.
    EveryN(usize),
}

/// The retired cache's counters: always zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Query cells probed against the cache.
    pub probes: u64,
    /// Query cells answered from a cached aggregate.
    pub direct_hits: u64,
    /// Query cells assembled from cached children.
    pub child_hits: u64,
}

/// The retired aggregate cache: always empty.
#[derive(Debug, Clone, Copy, Default)]
pub struct AggregateTrie;

/// A probe of the empty [`AggregateTrie`].
#[derive(Debug)]
pub struct FlatCursor;

impl AggregateTrie {
    /// Number of cached records: 0.
    pub fn num_cached(&self) -> usize {
        0
    }

    /// Bytes of cached records: 0.
    pub fn size_bytes(&self) -> usize {
        0
    }

    /// A probe that finds nothing.
    pub fn flat_cursor(&self) -> FlatCursor {
        FlatCursor
    }
}

impl FlatCursor {
    /// The cached record of `cell`: `None`.
    pub fn lookup(&mut self, _cell: CellId) -> Option<RecordRef<'static>> {
        None
    }
}

impl EngineBuilder {
    /// Accepted and unread: nothing is cached beside the pyramid.
    pub fn threshold(self, _threshold: f64) -> Self {
        self
    }

    /// Accepted and unread: nothing is rebuilt.
    pub fn policy(self, _policy: RebuildPolicy) -> Self {
        self
    }
}

impl GeoBlockEngine {
    /// [`GeoBlockEngine::builder`]`().block_arc(block)`; `_threshold` is
    /// unread.
    pub fn from_arc(block: Arc<GeoBlock>, _threshold: f64) -> Self {
        GeoBlockEngine::over(block)
    }

    /// Serve the block of the snapshot at `path`; `_threshold` is unread.
    pub fn from_snapshot(path: &Path, _threshold: f64) -> Result<Self, SnapshotError> {
        Ok(GeoBlockEngine::new(GeoBlock::read_snapshot(path)?.0))
    }

    /// The empty cache.
    pub fn trie_snapshot(&self) -> AggregateTrie {
        AggregateTrie
    }

    /// Cache rebuilds so far: 0.
    pub fn cache_epoch(&self) -> u64 {
        0
    }

    /// Query cells tracked for a cache: 0.
    pub fn tracked_cells(&self) -> usize {
        0
    }

    /// Rebuild the cache: nothing to do.
    pub fn rebuild_cache(&self) {}

    /// The cache's counters: all zero.
    pub fn metrics(&self) -> CacheMetrics {
        CacheMetrics::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use gb_cell::Grid;
    use gb_data::{extract, CleaningRules, ColumnDef, DataError, Filter, RawTable, Schema};
    use gb_geom::{Point, Rect};

    fn base_data(n: usize) -> gb_data::BaseTable {
        let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v")]));
        let mut state = 5u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 16) % 10_000) as f64 / 100.0
        };
        for i in 0..n {
            raw.push_row(Point::new(next(), next()), &[i as f64]);
        }
        let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
        extract(&raw, grid, &CleaningRules::none(), None).base
    }

    fn diamond(cx: f64, cy: f64, r: f64) -> Polygon {
        Polygon::new(vec![
            Point::new(cx, cy - r),
            Point::new(cx + r, cy),
            Point::new(cx, cy + r),
            Point::new(cx - r, cy),
        ])
    }

    fn spec() -> AggSpec {
        AggSpec::k_aggregates(&Schema::new(vec![ColumnDef::f64("v")]), 4)
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GeoBlockEngine>();
    }

    #[test]
    fn engine_matches_plain_block_cold_and_memoized() {
        let base = base_data(4000);
        let (block, _) = build(&base, 8, &Filter::all());
        let engine = GeoBlockEngine::new(block.clone());
        let s = spec();
        let polys: Vec<Polygon> = (0..6)
            .map(|i| diamond(20.0 + 10.0 * i as f64, 30.0 + 7.0 * i as f64, 8.0))
            .collect();
        for pass in ["cold", "memoized"] {
            for p in &polys {
                let a = engine.select(p, &s);
                let (b, _) = block.select(p, &s);
                assert!(a.result.approx_eq(&b, 0.0), "{pass}: {a:?} vs {b:?}");
                assert_eq!(a.epoch, 0, "no updates yet");
            }
        }
        assert_eq!(engine.memo_stats().hits, polys.len() as u64);
    }

    #[test]
    fn a_sum_over_only_negative_zero_rows_is_positive_zero() {
        // A cell of three `-0.0` rows and one of a single `-0.0` row store
        // `-0.0` sums; the answer's sum starts at `+0.0`, so it reads
        // `+0.0`, as an empty region's does. A row of 5.0 lies outside.
        let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v")]));
        for (x, y, v) in [
            (20.0, 20.0, -0.0),
            (20.01, 20.02, -0.0),
            (20.03, 20.01, -0.0),
            (30.0, 30.0, -0.0),
            (80.0, 80.0, 5.0),
        ] {
            raw.push_row(Point::new(x, y), &[v]);
        }
        let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
        let base = extract(&raw, grid, &CleaningRules::none(), None).base;
        let (block, _) = build(&base, 8, &Filter::all());
        assert_eq!((block.num_cells(), block.records().num_singles()), (3, 2));
        let engine = GeoBlockEngine::new(block.clone());
        let s = AggSpec::new(vec![
            gb_data::AggRequest::new(gb_data::AggFunc::Sum, 0),
            gb_data::AggRequest::new(gb_data::AggFunc::Count, 0),
        ]);
        for (poly, count) in [
            (diamond(25.0, 25.0, 12.0), 4.0),
            (diamond(60.0, 60.0, 5.0), 0.0),
        ] {
            let got = engine.select(&poly, &s).result;
            assert_eq!(got.value(0).map(f64::to_bits), Some(0.0f64.to_bits()));
            assert_eq!(got.value(1), Some(count));
            let want = crate::reference::select_covering(&block, &block.cover(&poly), &s);
            assert!(got.approx_eq(&want, 0.0), "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn updates_advance_the_data_epoch_and_refresh_answers() {
        let base = base_data(3000);
        let (block, _) = build(&base, 7, &Filter::all());
        let engine = GeoBlockEngine::new(block);
        let s = AggSpec::new(vec![
            gb_data::AggRequest::new(gb_data::AggFunc::Count, 0),
            gb_data::AggRequest::new(gb_data::AggFunc::Max, 0),
        ]);
        let hot = Polygon::rectangle(Rect::from_bounds(5.0, 5.0, 45.0, 45.0));
        let before = engine.select(&hot, &s);
        assert_eq!(before.epoch, 0);

        let mut batch = UpdateBatch::new();
        batch.push(Point::new(20.0, 20.0), vec![9_999_999.1]);
        batch.push(Point::new(30.5, 12.25), vec![0.3]);
        let report = engine.apply_updates(&batch).expect("valid batch");
        assert_eq!(report.epoch, 1);
        assert_eq!(report.result.in_place + report.result.new_cells, 2);
        assert_eq!(engine.data_epoch(), 1);

        let after = engine.select(&hot, &s);
        assert_eq!(after.epoch, 1);
        assert_eq!(after.result.count, before.result.count + 2);
        assert_eq!(
            after.result.value(1),
            Some(9_999_999.1),
            "the max refreshes through the swapped block"
        );
        // And the engine agrees with the naive fold over the same data —
        // fractional sums included.
        let block = engine.block_snapshot();
        let all = AggSpec::k_aggregates(block.schema(), 4);
        let naive = crate::reference::select_covering(&block, &block.cover(&hot), &all);
        let after = engine.select(&hot, &all).result;
        assert!(
            after.approx_eq(&naive, 0.0),
            "bit-identical: {after:?} vs {naive:?}"
        );
    }

    #[test]
    fn non_finite_and_out_of_domain_update_rows_are_rejected_whole() {
        let base = base_data(1500);
        let (block, _) = build(&base, 7, &Filter::all());
        let engine = GeoBlockEngine::new(block);
        let before = engine.block_snapshot();
        let everything = Polygon::rectangle(Rect::from_bounds(-1.0, -1.0, 101.0, 101.0));
        for (location, value) in [
            (Point::new(20.0, 20.0), f64::NAN),
            (Point::new(20.0, 20.0), f64::INFINITY),
            (Point::new(20.0, 20.0), f64::NEG_INFINITY),
            (Point::new(f64::NAN, 20.0), 1.0),
            (Point::new(20.0, f64::INFINITY), 1.0),
            // The grid would clamp these into a border cell, where any
            // polygon touching the corner counts them.
            (Point::new(1e9, 1e9), 1.0),
            (Point::new(50.0, -0.001), 1.0),
        ] {
            // A good row first: the batch is rejected whole, not partly applied.
            let mut batch = UpdateBatch::new();
            batch.push(Point::new(30.0, 30.0), vec![2.0]);
            batch.push(location, vec![value]);
            let direct = engine.apply_updates(&batch).unwrap_err();
            let bad = |e: &GbError| matches!(e, GbError::Serve(crate::ServeError::BadRequest(_)));
            assert!(bad(&direct), "{direct}");
            let via_query = engine.query(&QueryRequest::Update { batch }).unwrap_err();
            assert!(bad(&via_query), "{via_query}");
        }
        assert_eq!(engine.data_epoch(), 0);
        assert!(Arc::ptr_eq(&engine.block_snapshot(), &before));
        assert_eq!(engine.count(&everything).result, 1500);
        // The domain is closed: a tuple on its edge belongs to the border
        // cell it is clamped into.
        let mut batch = UpdateBatch::new();
        batch.push(Point::new(100.0, 0.0), vec![2.0]);
        engine.apply_updates(&batch).expect("on the edge is inside");
        assert_eq!(engine.count(&everything).result, 1501);
    }

    #[test]
    fn an_empty_batch_commits_nothing() {
        let base = base_data(500);
        let (block, _) = build(&base, 6, &Filter::all());
        let engine = GeoBlockEngine::new(block);
        let mut batch = UpdateBatch::new();
        batch.push(Point::new(30.0, 30.0), vec![2.0]);
        engine.apply_updates(&batch).expect("valid batch");
        let block = engine.block_snapshot();

        let reply = engine.apply_updates(&UpdateBatch::new()).expect("no-op");
        assert_eq!((reply.result, reply.epoch), (UpdateReport::default(), 1));
        assert_eq!(engine.data_epoch(), 1);
        assert!(Arc::ptr_eq(&engine.block_snapshot(), &block), "no clone");
    }

    #[test]
    fn query_entry_point_validates_and_dispatches() {
        let base = base_data(2000);
        let (block, _) = build(&base, 7, &Filter::all());
        let engine = GeoBlockEngine::new(block);
        let hot = diamond(40.0, 40.0, 12.0);

        // Select through query() == typed select.
        let via_query = engine
            .query(&QueryRequest::Select {
                polygon: hot.clone(),
                spec: spec(),
            })
            .expect("valid");
        let direct = engine.select(&hot, &spec());
        match via_query {
            QueryReply::Select(r) => {
                assert!(r.result.approx_eq(&direct.result, 0.0));
                assert_eq!(r.epoch, direct.epoch);
            }
            other => panic!("wrong reply: {other:?}"),
        }

        // Count through query().
        let cnt = engine
            .query(&QueryRequest::Count {
                polygon: hot.clone(),
            })
            .expect("valid");
        assert!(matches!(cnt, QueryReply::Count(_)));

        // Out-of-schema column is a 400, not a panic.
        let bad_spec = AggSpec::new(vec![gb_data::AggRequest::new(gb_data::AggFunc::Sum, 99)]);
        let err = engine
            .query(&QueryRequest::Select {
                polygon: hot.clone(),
                spec: bad_spec,
            })
            .unwrap_err();
        assert_eq!(err.http_status(), 400);
        assert!(
            matches!(err, GbError::Data(DataError::UnknownColumn { .. })),
            "{err}"
        );

        // Arity-mismatched update row is a 400, not a panic.
        let mut batch = UpdateBatch::new();
        batch.push(Point::new(1.0, 1.0), vec![1.0, 2.0]);
        let err = engine.query(&QueryRequest::Update { batch }).unwrap_err();
        assert_eq!(err.http_status(), 400);
    }

    #[test]
    fn builder_consolidates_the_constructors() {
        let base = base_data(2000);
        let (block, _) = build(&base, 7, &Filter::all());
        let block = Arc::new(block);

        let engine = GeoBlockEngine::builder()
            .block_arc(Arc::clone(&block))
            .build()
            .expect("block source");
        assert!(
            Arc::ptr_eq(&engine.block_snapshot(), &block),
            "shared, not copied"
        );

        // Misconfiguration is a typed error, not a panic.
        assert!(GeoBlockEngine::builder().build().is_err(), "no source");
        assert!(
            GeoBlockEngine::builder()
                .snapshot("/nonexistent/engine.gbsnap")
                .build()
                .is_err(),
            "missing snapshot file"
        );
    }

    #[test]
    fn the_frozen_cache_surface_answers_nothing_cached() {
        let base = base_data(2000);
        let (block, _) = build(&base, 7, &Filter::all());
        let engine = GeoBlockEngine::builder()
            .block_arc(Arc::new(block))
            .threshold(f64::NAN)
            .policy(RebuildPolicy::EveryN(4))
            .build()
            .expect("threshold and policy are unread");
        let hot = diamond(40.0, 40.0, 10.0);
        for _ in 0..9 {
            engine.select(&hot, &spec());
        }
        engine.rebuild_cache();
        let cache = engine.trie_snapshot();
        assert_eq!((cache.num_cached(), cache.size_bytes()), (0, 0));
        let cell = engine.block_snapshot().cell_at(0);
        assert!(cache.flat_cursor().lookup(cell).is_none());
        assert_eq!((engine.cache_epoch(), engine.tracked_cells()), (0, 0));
        assert_eq!(engine.metrics(), CacheMetrics::default());
    }

    #[test]
    fn engine_survives_poisoned_locks() {
        // One panicking thread must not wedge every subsequent reader:
        // poison the publisher guard and the state RwLock, then verify the
        // engine still answers correctly and still commits updates.
        let base = base_data(3000);
        let (block, _) = build(&base, 8, &Filter::all());
        let engine = Arc::new(GeoBlockEngine::new(block.clone()));
        let s = spec();
        let hot = diamond(40.0, 40.0, 12.0);
        engine.select(&hot, &s);

        {
            let e = Arc::clone(&engine);
            let _ = gb_common::spawn_join(move || {
                let _guard = e.state.publish_guard().lock();
                panic!("deliberate guard poison");
            });
        }
        {
            let e = Arc::clone(&engine);
            let _ = gb_common::spawn_join(move || {
                let _guard = e.state.state_slot().write();
                panic!("deliberate state poison");
            });
        }

        // Queries and updates keep working.
        let a = engine.select(&hot, &s);
        let (b, _) = block.select(&hot, &s);
        assert!(a.result.approx_eq(&b, 0.0), "post-poison: {a:?} vs {b:?}");
        let mut batch = UpdateBatch::new();
        batch.push(Point::new(40.0, 40.0), vec![1.0]);
        assert!(engine.apply_updates(&batch).is_ok());
        assert_eq!(engine.data_epoch(), 1);
    }
}
