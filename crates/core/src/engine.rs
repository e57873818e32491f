//! The query-cached GeoBlock (the paper's "BlockQC", §3.6) as a
//! concurrent, shared-nothing-write read path — the one front-end over a
//! block and its cache.
//!
//! [`GeoBlockEngine`] wraps a [`GeoBlock`] with (i) hit statistics over
//! previously seen query cells, (ii) the [`AggregateTrie`] cache sized by
//! the *aggregate threshold*, and (iii) the adapted SELECT — the block's
//! SELECT loop with a cache probe per cell — and the rebuild of
//! [`crate::qc`]. It is `Send + Sync`: many threads answer SELECT/COUNT
//! queries while the query cache adapts and update batches commit
//! underneath them. The paper's single-threaded mutable state is made
//! concurrent with three mechanisms, each chosen so *readers never block
//! on a rebuild or an update*:
//!
//! * **Epoch-swapped engine state** — the block, the [`AggregateTrie`],
//!   and the **data epoch** live together in one immutable
//!   `EngineState` published through a [`PublishKernel`]. A query clones
//!   the `Arc` (read lock held for nanoseconds) and works on a fully
//!   consistent `(block, trie, epoch)` triple for its whole run — a
//!   concurrent update can never show it a half-new world. Updates and
//!   cache rebuilds construct the next state entirely *outside* the
//!   lock, then write-lock only to swap the pointer. The kernel is
//!   extracted into [`crate::kernel`] so `gb_check` model-checks these
//!   exact interleavings over bounded schedules.
//! * **Log-structured hit statistics** — a query appends its §3.6 hit
//!   cells (the run of its covering it probes) to a log with one lock
//!   acquisition and one copy; the log is folded into per-cell counts
//!   only when a rebuild, a snapshot or a gauge reads them (see
//!   [`crate::hits`]).
//! * **Two epochs, two jobs** — the *data epoch* (in the state, bumped
//!   by [`GeoBlockEngine::apply_updates`]) decides answer validity and
//!   is what [`crate::api::QueryResponse::epoch`] reports: a cached
//!   response may be replayed only while the engine still reports its
//!   epoch. The *cache epoch* ([`GeoBlockEngine::cache_epoch`], bumped
//!   by rebuilds) only tracks performance adaptation — rebuilds never
//!   change answers, so they leave the data epoch alone.
//!
//! The cache is a sparse sub-pyramid of the block's, one key-sorted layer
//! per level, with one producer: [`AggregateTrie`]'s fill over a key set.
//! A rebuild picks the keys from the hit statistics, an update keeps the
//! current keys and fills them from the updated block, and a restart
//! rebuilds from the restored statistics under the threshold it is loaded
//! with (the snapshot stores no cache). A restart replays no requests:
//! the covering memo starts empty, and the statistics are exactly the
//! saved ones until traffic adds to them.
//!
//! The canonical entry point is [`GeoBlockEngine::query`] on the typed
//! [`QueryRequest`]/[`QueryReply`] values from [`crate::api`]; the typed
//! convenience methods ([`GeoBlockEngine::select`] /
//! [`GeoBlockEngine::count`]) return [`QueryResponse`] values carrying
//! the same epoch.

use crate::aggregate::AggResult;
use crate::api::{GbError, QueryReply, QueryRequest, QueryResponse};
use crate::block::GeoBlock;
use crate::hits::HitLog;
use crate::kernel::PublishKernel;
use crate::memo::{CoveringMemo, MemoStats};
use crate::qc::{self, CacheMetrics, RebuildPolicy};
use crate::query::QueryStats;
use crate::snapshot::{Snapshot, SnapshotError};
use crate::trie::AggregateTrie;
use crate::update::{UpdateBatch, UpdateReport};
use gb_cell::CellUnion;
use gb_common::Counter;
use gb_data::AggSpec;
use gb_geom::Polygon;
use gb_trace::{Stage, TraceStats, Tracer};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default covering-memo capacity (total across shards). Coverings are a
/// few KB each; dashboards cycle through at most a few hundred shapes.
const DEFAULT_MEMO_CAPACITY: usize = 512;

/// One immutable epoch of the engine: the block, the cache built for it,
/// and the data epoch they are valid for. Queries pin one `Arc` of this
/// and see a consistent world regardless of concurrent swaps.
#[derive(Debug)]
struct EngineState {
    block: Arc<GeoBlock>,
    trie: Arc<AggregateTrie>,
    data_epoch: u64,
}

/// A thread-safe GeoBlock query engine with the adaptive aggregate cache
/// and in-place-committed batch updates.
///
/// All methods take `&self`; the engine is designed to be shared as
/// `Arc<GeoBlockEngine>` (or borrowed across `std::thread::scope`).
pub struct GeoBlockEngine {
    /// The epoch-swap publication kernel: serialized read-modify-publish
    /// transitions (update commits and cache rebuilds), wait-free-ish
    /// snapshots for queries. Model-checked in `gb_check`.
    state: PublishKernel<EngineState>,
    /// The §3.6 hit statistics: appended to by queries, folded by readers.
    hits: HitLog,
    threshold: f64,
    policy: RebuildPolicy,
    cache_epoch: AtomicU64,
    /// Monotonic query counter for the `EveryN` policy: `fetch_add`
    /// returns each value exactly once, so exactly one thread observes
    /// each multiple of `n` and becomes that boundary's rebuilder — no
    /// reset, no double-rebuild race.
    query_counter: AtomicUsize,
    probes: Counter,
    direct_hits: Counter,
    /// Polygon → covering memo. Keyed by polygon *content* (and the
    /// fixed block level), so entries survive every data epoch and cache
    /// rebuild — a covering depends on neither.
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

impl GeoBlockEngine {
    /// A fluent builder over the construction knobs (threshold, rebuild
    /// policy, and a shared-block or snapshot source) that reports a
    /// bad configuration as a [`GbError`] instead of panicking.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Wrap `block` with a cache budget of `threshold` (e.g. `0.05` = 5 %
    /// of the cell-aggregate storage, the paper's skew-experiment setting).
    pub fn new(block: GeoBlock, threshold: f64) -> Self {
        GeoBlockEngine::from_arc(Arc::new(block), threshold)
    }

    /// Like [`GeoBlockEngine::new`] for an already-shared block.
    pub fn from_arc(block: Arc<GeoBlock>, threshold: f64) -> Self {
        assert!(threshold >= 0.0);
        let trie = Arc::new(AggregateTrie::fill(&block, Vec::new()));
        GeoBlockEngine {
            state: PublishKernel::new(EngineState {
                block,
                trie,
                data_epoch: 0,
            }),
            hits: HitLog::new(),
            threshold,
            policy: RebuildPolicy::Manual,
            cache_epoch: AtomicU64::new(0),
            query_counter: AtomicUsize::new(0),
            probes: Counter::new(),
            direct_hits: Counter::new(),
            memo: CoveringMemo::new(DEFAULT_MEMO_CAPACITY),
            tracer: Arc::new(Tracer::from_env()),
        }
    }

    /// Replace the covering memo with one of `capacity` entries (0
    /// disables memoization: every query pays its covering, as the paper's
    /// BlockQC does — the configuration its figures are reproduced with).
    /// Builder-time only: entries accumulated so far are dropped.
    pub fn with_memo_capacity(mut self, capacity: usize) -> Self {
        self.memo = CoveringMemo::new(capacity);
        self
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

    /// Set the automatic rebuild policy. With `EveryN(n)`, the thread
    /// whose query crosses the boundary performs the rebuild; other
    /// threads keep answering from the previous epoch meanwhile.
    pub fn with_policy(mut self, policy: RebuildPolicy) -> Self {
        self.policy = policy;
        self
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

    /// Snapshot of the current cache (the trie of the current epoch).
    pub fn trie_snapshot(&self) -> Arc<AggregateTrie> {
        self.state_snapshot().trie.clone()
    }

    /// Cache budget in bytes (threshold × cell-aggregate bytes — Figure
    /// 18's "aggregate threshold").
    pub fn budget_bytes(&self) -> usize {
        self.budget_for(&self.block_snapshot())
    }

    fn budget_for(&self, block: &GeoBlock) -> usize {
        (self.threshold * (block.num_cells() * block.record_bytes()) as f64) as usize
    }

    /// How many times the cache has been rebuilt. Performance adaptation
    /// only: rebuilds never change answers (both caches hold exact
    /// aggregates), so this does **not** advance the data epoch.
    pub fn cache_epoch(&self) -> u64 {
        self.cache_epoch.load(Ordering::Acquire)
    }

    /// How many update batches have committed — the epoch reported in
    /// every [`QueryResponse`] and the validity horizon for any cached
    /// response (see `crate::api`).
    pub fn data_epoch(&self) -> u64 {
        self.state_snapshot().data_epoch
    }

    /// Accumulated cache metrics across all threads.
    pub fn metrics(&self) -> CacheMetrics {
        CacheMetrics {
            probes: self.probes.get(),
            direct_hits: self.direct_hits.get(),
            child_hits: 0,
        }
    }

    /// Zero the cache and covering-memo metrics (e.g. between workload
    /// phases).
    pub fn reset_metrics(&self) {
        self.probes.reset();
        self.direct_hits.reset();
        self.memo.reset_stats();
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
                qc::validate_spec(&state.block, spec)?;
                Ok(QueryReply::Select(self.select_at(&state, polygon, spec)))
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

    /// COUNT passes straight through to the block (no trie cache, §3.6 —
    /// but the covering is memoized like SELECT's).
    pub fn count(&self, polygon: &Polygon) -> QueryResponse<u64> {
        let _req = self.tracer.begin_request("count");
        self.count_item(&self.state_snapshot(), polygon)
    }

    /// SELECT with the Figure-8 adapted algorithm, safe to call from any
    /// number of threads concurrently (including during rebuilds and
    /// update commits — the query runs entirely on its pinned epoch).
    pub fn select(&self, polygon: &Polygon, spec: &AggSpec) -> QueryResponse<AggResult> {
        // Pin this query to the current epoch's (block, trie) pair; the
        // read lock is released before any work happens.
        self.select_at(&self.state_snapshot(), polygon, spec)
    }

    /// [`GeoBlockEngine::select`] on an already pinned state.
    fn select_at(
        &self,
        state: &EngineState,
        polygon: &Polygon,
        spec: &AggSpec,
    ) -> QueryResponse<AggResult> {
        let _req = self.tracer.begin_request("select");
        let response = self.select_item(state, polygon, spec);
        self.after_selects(1);
        response
    }

    /// The adapted SELECT of one polygon on a pinned state: the step a
    /// solo SELECT and every SELECT item of a batch share.
    fn select_item(
        &self,
        state: &EngineState,
        polygon: &Polygon,
        spec: &AggSpec,
    ) -> QueryResponse<AggResult> {
        let covering = self.covering_for(&state.block, polygon);
        // The cells the query probes are its hit cells, appended to the
        // hit log once it has its answer. Covering cells arrive sorted by
        // raw id, so the cache's cursor resolves almost every probe from
        // a forward scan.
        let cells = state.block.overlapping(&covering);
        let mut probe = state.trie.flat_cursor();
        // One span for the whole loop, cached cells included: the stage
        // COUNT's loop is timed under too.
        let span = self.tracer.span(Stage::PyramidCombine);
        let (result, stats, hits) = state
            .block
            .select_cells(cells, spec, |cell| probe.lookup(cell));
        drop(span);
        self.hits.append(cells);
        self.probes.add(cells.len() as u64);
        self.direct_hits.add(hits);
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

    /// Advance the query counter by `n_selects` and run the `EveryN`
    /// rebuild if a boundary was crossed. `fetch_add` hands each counter
    /// interval to exactly one caller, so every boundary has exactly one
    /// rebuilder even when batches advance the counter by more than one
    /// (at most one rebuild per batch — rebuilds are idempotent
    /// performance adaptations, not per-boundary obligations).
    fn after_selects(&self, n_selects: usize) {
        if n_selects == 0 {
            return;
        }
        if let RebuildPolicy::EveryN(n) = self.policy {
            let n = n.max(1);
            let before = self.query_counter.fetch_add(n_selects, Ordering::AcqRel);
            if (before + n_selects) / n > before / n {
                self.rebuild_cache();
            }
        }
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
                QueryRequest::Select { polygon, spec } => qc::validate_spec(&state.block, spec)
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
        let n_selects = requests
            .iter()
            .filter(|r| matches!(r, QueryRequest::Select { .. }))
            .count();
        self.after_selects(n_selects);
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
    /// [`GeoBlock::apply_updates`]), then the cache's keys filled again
    /// from it, so every cached record is a bit-exact copy of what the
    /// block would answer — and swapped in with a single pointer write.
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
        // One kernel transaction: serialized with rebuilds and other
        // updates by the publisher mutex; queries proceed throughout.
        let (report, epoch) = self.state.publish(|cur| {
            let (block, report) = cur.block.applied(batch);
            let trie = cur.trie.refill(&block);
            let epoch = cur.data_epoch + 1;
            (
                EngineState {
                    block: Arc::new(block),
                    trie: Arc::new(trie),
                    data_epoch: epoch,
                },
                (report, epoch),
            )
        });
        self.tracer.note_epoch(epoch);
        Ok(QueryResponse::new(report, QueryStats::default(), epoch))
    }

    /// Persist the block and what the cache has learned (the merged hit
    /// statistics). The cache itself is not written: it is derived from
    /// the statistics, and a restart rebuilds it.
    pub fn write_snapshot(&self, path: &Path) -> Result<(), SnapshotError> {
        let state = self.state_snapshot();
        let hits = self.hits.counts();
        crate::snapshot::SnapshotRef {
            block: &state.block,
            hits: Some(&hits),
        }
        .save(path)
    }

    /// Start a **pre-warmed** engine from a snapshot file: the cache is
    /// rebuilt from the restored hit statistics under `threshold`, so it
    /// serves hits from the very first query, and the statistics keep
    /// informing future rebuilds. The covering memo starts empty.
    /// Snapshots without hit statistics start cold, exactly like
    /// [`GeoBlockEngine::new`].
    pub fn from_snapshot(path: &Path, threshold: f64) -> Result<Self, SnapshotError> {
        Ok(GeoBlockEngine::from_snapshot_state(
            Snapshot::load(path)?,
            threshold,
        ))
    }

    /// Build an engine from an already-loaded [`Snapshot`] (the in-memory
    /// half of [`GeoBlockEngine::from_snapshot`]).
    pub fn from_snapshot_state(snap: Snapshot, threshold: f64) -> Self {
        let engine = GeoBlockEngine::from_arc(Arc::new(snap.block), threshold);
        if let Some(hits) = snap.hits {
            engine.hits.absorb(&hits);
            engine.rebuild_cache();
        }
        engine
    }

    /// Total distinct query cells tracked in the hit statistics (folds the
    /// hit log to count them).
    pub fn tracked_cells(&self) -> usize {
        self.hits.counts().len()
    }

    /// Rebuild the cache from the current hit statistics — the epoch-style
    /// swap: construct offline, then write-lock only for the pointer swap.
    /// Concurrent callers are serialized; concurrent readers never wait on
    /// the construction, only (at worst) on the nanosecond-scale swap.
    pub fn rebuild_cache(&self) {
        // Lock order inside the kernel transaction: the publisher mutex
        // (0) is held across the hit-log (1) and state (2) acquisitions
        // below. Holding it also pins the data epoch: updates serialize
        // on the same mutex, so the state the builder sees cannot go
        // stale before the swap.
        self.state.publish(|cur| {
            let hits = self.hits.counts();
            // Expensive part: no slot lock held.
            let fresh = qc::rebuild_trie(&cur.block, self.budget_for(&cur.block), &hits);
            // Same block, same data epoch: rebuilds never change answers.
            (
                EngineState {
                    block: cur.block.clone(),
                    trie: Arc::new(fresh),
                    data_epoch: cur.data_epoch,
                },
                (),
            )
        });
        self.cache_epoch.fetch_add(1, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for GeoBlockEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state_snapshot();
        f.debug_struct("GeoBlockEngine")
            .field("cells", &state.block.num_cells())
            .field("threshold", &self.threshold)
            .field("data_epoch", &state.data_epoch)
            .field("cache_epoch", &self.cache_epoch())
            .field("tracked_cells", &self.tracked_cells())
            .finish()
    }
}

/// Where an [`EngineBuilder`] gets its block from.
enum EngineSource {
    None,
    SharedBlock(Arc<GeoBlock>),
    SnapshotFile(PathBuf),
}

/// Fluent construction of a [`GeoBlockEngine`]: one source (a shared
/// block or a snapshot) plus the threshold and the rebuild policy. It ends
/// in the same constructors callers use directly
/// ([`GeoBlockEngine::from_arc`], [`GeoBlockEngine::from_snapshot_state`],
/// [`GeoBlockEngine::with_policy`]), adding typed errors where those
/// assert or fail on I/O.
///
/// ```no_run
/// # use geoblocks::{GeoBlockEngine, RebuildPolicy};
/// let engine = GeoBlockEngine::builder()
///     .threshold(0.2)
///     .policy(RebuildPolicy::EveryN(64))
///     .snapshot("warm.gbsnap")
///     .build()?;
/// # Ok::<(), geoblocks::GbError>(())
/// ```
pub struct EngineBuilder {
    source: EngineSource,
    threshold: f64,
    policy: RebuildPolicy,
}

impl EngineBuilder {
    fn new() -> EngineBuilder {
        EngineBuilder {
            source: EngineSource::None,
            threshold: 0.1,
            policy: RebuildPolicy::Manual,
        }
    }

    /// Cache budget as a fraction of cell-aggregate bytes (default 0.1).
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Automatic rebuild policy (default [`RebuildPolicy::Manual`]).
    pub fn policy(mut self, policy: RebuildPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Source: wrap an already-shared block.
    pub fn block_arc(mut self, block: Arc<GeoBlock>) -> Self {
        self.source = EngineSource::SharedBlock(block);
        self
    }

    /// Source: restore (pre-warmed) from a snapshot file.
    pub fn snapshot(mut self, path: impl Into<PathBuf>) -> Self {
        self.source = EngineSource::SnapshotFile(path.into());
        self
    }

    /// Construct the engine. Fails with a typed [`GbError`] on a missing
    /// source, an invalid threshold, or a snapshot that will not load —
    /// no panicking constructor preconditions.
    pub fn build(self) -> Result<GeoBlockEngine, GbError> {
        if self.threshold.is_nan() || self.threshold < 0.0 {
            return Err(GbError::bad_request(format!(
                "cache threshold must be >= 0, got {}",
                self.threshold
            )));
        }
        let engine = match self.source {
            EngineSource::None => {
                return Err(GbError::bad_request(
                    "engine builder needs a source: block_arc() or snapshot()".to_string(),
                ))
            }
            EngineSource::SharedBlock(block) => GeoBlockEngine::from_arc(block, self.threshold),
            EngineSource::SnapshotFile(path) => {
                GeoBlockEngine::from_snapshot_state(Snapshot::load(&path)?, self.threshold)
            }
        };
        Ok(engine.with_policy(self.policy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use crate::hits::HitCounts;
    use gb_cell::Grid;
    use gb_common::FxHashMap;
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
    fn engine_matches_plain_block_cold_and_warm() {
        let base = base_data(4000);
        let (block, _) = build(&base, 8, &Filter::all());
        let engine = GeoBlockEngine::new(block.clone(), 0.2);
        let s = spec();
        let polys: Vec<Polygon> = (0..6)
            .map(|i| diamond(20.0 + 10.0 * i as f64, 30.0 + 7.0 * i as f64, 8.0))
            .collect();
        for p in &polys {
            let a = engine.select(p, &s);
            let (b, _) = block.select(p, &s);
            assert!(a.result.approx_eq(&b, 1e-9), "cold: {a:?} vs {b:?}");
            assert_eq!(a.epoch, 0, "no updates yet");
        }
        engine.rebuild_cache();
        assert_eq!(engine.cache_epoch(), 1);
        assert_eq!(engine.data_epoch(), 0, "rebuilds keep the data epoch");
        assert!(engine.trie_snapshot().num_cached() > 0);
        for p in &polys {
            let a = engine.select(p, &s);
            let (b, _) = block.select(p, &s);
            assert!(a.result.approx_eq(&b, 1e-9), "warm: {a:?} vs {b:?}");
        }
        assert!(engine.metrics().direct_hits > 0, "expected cache hits");
    }

    /// What the engine's hit log must amount to: one hit per covering
    /// cell that may overlap the block, counted in a plain hash map.
    fn count_hits(hits: &mut FxHashMap<u64, u64>, block: &GeoBlock, polygon: &Polygon) {
        for cell in block
            .cover(polygon)
            .iter()
            .filter(|&c| block.may_overlap(c))
        {
            *hits.entry(cell.raw()).or_insert(0) += 1;
        }
    }

    #[test]
    fn engine_rebuild_matches_a_rebuild_from_hash_map_counts() {
        // Same queries → same statistics → bit-identical caches.
        let base = base_data(3000);
        let (block, _) = build(&base, 8, &Filter::all());
        let engine = GeoBlockEngine::new(block.clone(), 0.3);
        let mut hits = FxHashMap::default();
        let s = spec();
        for i in 0..10 {
            let p = diamond(25.0 + 5.0 * i as f64, 40.0, 9.0);
            count_hits(&mut hits, &block, &p);
            engine.select(&p, &s);
        }
        engine.rebuild_cache();
        let want = qc::rebuild_trie(&block, engine.budget_bytes(), &HitCounts::from_map(&hits));
        let et = engine.trie_snapshot();
        assert!(et.num_cached() > 0);
        assert_eq!(et.content_hash(), want.content_hash());
    }

    #[test]
    fn engine_respects_budget() {
        let base = base_data(3000);
        let (block, _) = build(&base, 9, &Filter::all());
        let engine = GeoBlockEngine::new(block, 0.05);
        for i in 0..20 {
            engine.select(&diamond(30.0 + i as f64, 40.0, 10.0), &spec());
        }
        engine.rebuild_cache();
        assert!(engine.trie_snapshot().size_bytes() <= engine.budget_bytes());
    }

    #[test]
    fn auto_policy_rebuilds_via_shared_ref() {
        let base = base_data(2000);
        let (block, _) = build(&base, 8, &Filter::all());
        let engine = GeoBlockEngine::new(block, 0.3).with_policy(RebuildPolicy::EveryN(4));
        let hot = diamond(40.0, 40.0, 10.0);
        for _ in 0..9 {
            engine.select(&hot, &spec());
        }
        assert!(engine.cache_epoch() >= 2, "epoch {}", engine.cache_epoch());
        assert!(engine.trie_snapshot().num_cached() > 0);
    }

    #[test]
    fn updates_advance_the_data_epoch_and_refresh_answers() {
        let base = base_data(3000);
        let (block, _) = build(&base, 7, &Filter::all());
        let engine = GeoBlockEngine::new(block, 0.5);
        let s = AggSpec::new(vec![
            gb_data::AggRequest::new(gb_data::AggFunc::Count, 0),
            gb_data::AggRequest::new(gb_data::AggFunc::Max, 0),
        ]);
        let hot = Polygon::rectangle(Rect::from_bounds(5.0, 5.0, 45.0, 45.0));
        for _ in 0..4 {
            engine.select(&hot, &s);
        }
        engine.rebuild_cache();
        assert!(engine.trie_snapshot().num_cached() > 0);
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
            "cached max must refresh through the swapped trie"
        );
        assert!(engine.metrics().direct_hits > 0, "answered from the trie");
        // And the warm engine agrees with the naive fold over the same
        // data — fractional sums included.
        let block = engine.block_snapshot();
        let all = AggSpec::k_aggregates(block.schema(), 4);
        let naive = crate::reference::select_covering(&block, &block.cover(&hot), &all);
        let warm = engine.select(&hot, &all).result;
        assert!(
            warm.approx_eq(&naive, 0.0),
            "bit-identical: {warm:?} vs {naive:?}"
        );
    }

    #[test]
    fn a_rebuild_caches_the_region_an_update_opened() {
        // Data in one level-2 quadrant only, then rows inserted elsewhere:
        // the cache rebuilt after the update holds the new region.
        let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v")]));
        for i in 0..400 {
            let (x, y) = ((i % 20) as f64 * 1.2 + 0.3, (i / 20) as f64 * 1.2 + 0.3);
            raw.push_row(Point::new(x, y), &[i as f64]);
        }
        let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
        let base = extract(&raw, grid, &CleaningRules::none(), None).base;
        let (block, _) = build(&base, 8, &Filter::all());
        let engine = GeoBlockEngine::new(block, 1.0);

        let mut batch = UpdateBatch::new();
        for i in 0..40 {
            let (x, y) = (70.0 + (i % 8) as f64 * 2.0, 60.0 + (i / 8) as f64 * 2.0);
            batch.push(Point::new(x, y), vec![0.5 + i as f64]);
        }
        engine.apply_updates(&batch).expect("valid batch");
        let elsewhere = Polygon::rectangle(Rect::from_bounds(65.0, 55.0, 90.0, 75.0));
        let want = engine.select(&elsewhere, &spec()).result;
        assert_eq!(want.count, 40);
        for _ in 0..9 {
            engine.select(&elsewhere, &spec());
        }
        engine.rebuild_cache();
        assert!(
            engine.trie_snapshot().num_cached() > 0,
            "the queried region is cacheable"
        );
        engine.reset_metrics();
        let warm = engine.select(&elsewhere, &spec());
        let m = engine.metrics();
        assert_eq!(m.direct_hits, m.probes, "every query cell is cached");
        assert!(m.probes > 0);
        assert!(warm.result.approx_eq(&want, 0.0));
    }

    #[test]
    fn non_finite_and_out_of_domain_update_rows_are_rejected_whole() {
        let base = base_data(1500);
        let (block, _) = build(&base, 7, &Filter::all());
        let engine = GeoBlockEngine::new(block, 0.3);
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
        let engine = GeoBlockEngine::new(block, 0.3);
        let mut batch = UpdateBatch::new();
        batch.push(Point::new(30.0, 30.0), vec![2.0]);
        engine.apply_updates(&batch).expect("valid batch");
        let (block, trie) = (engine.block_snapshot(), engine.trie_snapshot());

        let reply = engine.apply_updates(&UpdateBatch::new()).expect("no-op");
        assert_eq!((reply.result, reply.epoch), (UpdateReport::default(), 1));
        assert_eq!(engine.data_epoch(), 1);
        assert!(Arc::ptr_eq(&engine.block_snapshot(), &block), "no clone");
        assert!(Arc::ptr_eq(&engine.trie_snapshot(), &trie));
    }

    #[test]
    fn query_entry_point_validates_and_dispatches() {
        let base = base_data(2000);
        let (block, _) = build(&base, 7, &Filter::all());
        let engine = GeoBlockEngine::new(block, 0.3);
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

        // From a shared block, with policy + threshold.
        let engine = GeoBlockEngine::builder()
            .threshold(0.3)
            .policy(RebuildPolicy::EveryN(4))
            .block_arc(Arc::clone(&block))
            .build()
            .expect("block source");
        assert!(
            Arc::ptr_eq(&engine.block_snapshot(), &block),
            "shared, not copied"
        );
        let hot = diamond(40.0, 40.0, 10.0);
        for _ in 0..9 {
            engine.select(&hot, &spec());
        }
        assert!(engine.cache_epoch() >= 2, "policy wired through");

        // Misconfiguration is a typed error, not a panic.
        assert!(GeoBlockEngine::builder().build().is_err(), "no source");
        assert!(
            GeoBlockEngine::builder()
                .block_arc(block)
                .threshold(f64::NAN)
                .build()
                .is_err(),
            "NaN threshold"
        );
        assert!(
            GeoBlockEngine::builder()
                .snapshot("/nonexistent/engine.gbsnap")
                .build()
                .is_err(),
            "missing snapshot file"
        );
    }

    #[test]
    fn a_restored_hit_count_near_the_top_of_u64_saturates() {
        // A crafted `HITS` section: a cell with almost `u64::MAX` hits and
        // a hit parent, whose sum overflows, beside a cell of ordinary
        // heat. The budget buys one record; the overflowing cell leads
        // the ranking.
        let path =
            std::env::temp_dir().join(format!("gb_engine_saturate_{}.gbsnap", std::process::id()));
        let base = base_data(2000);
        let (block, _) = build(&base, 8, &Filter::all());
        let (hot, warm) = (
            block.cell_at(0).parent_at(4),
            block.cell_at(block.num_cells() - 1),
        );
        let mut hits = FxHashMap::default();
        hits.insert(hot.raw(), u64::MAX - 1);
        hits.insert(hot.parent().raw(), 5);
        hits.insert(warm.raw(), 1_000);
        crate::snapshot::SnapshotRef {
            block: &block,
            hits: Some(&HitCounts::from_map(&hits)),
        }
        .save(&path)
        .expect("save");

        let threshold = 1.5 / block.num_cells() as f64;
        let engine = GeoBlockEngine::from_snapshot(&path, threshold).expect("load");
        let _ = std::fs::remove_file(&path);
        let cache = engine.trie_snapshot();
        assert_eq!(cache.num_cached(), 1);
        assert!(
            cache.flat_cursor().lookup(hot).is_some(),
            "the hottest cell is cached"
        );
        // Traffic on top of the restored count saturates the fold too.
        engine.hits.append(&[hot, hot]);
        engine.rebuild_cache();
        assert!(engine.trie_snapshot().flat_cursor().lookup(hot).is_some());
    }

    #[test]
    fn engine_survives_poisoned_locks() {
        // One panicking query thread must not wedge every subsequent
        // reader: poison the hit-log mutex, the rebuild guard, and the
        // state RwLock, then verify the engine still answers correctly
        // and can still rebuild its cache.
        let base = base_data(3000);
        let (block, _) = build(&base, 8, &Filter::all());
        let engine = Arc::new(GeoBlockEngine::new(block.clone(), 0.3));
        let s = spec();
        let hot = diamond(40.0, 40.0, 12.0);
        engine.select(&hot, &s);

        {
            let e = Arc::clone(&engine);
            let _ = gb_common::spawn_join(move || e.hits.poison());
        }
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
        assert!(engine.hits.is_poisoned());

        // Queries, statistics, rebuilds, and updates all keep working.
        let a = engine.select(&hot, &s);
        let (b, _) = block.select(&hot, &s);
        assert!(a.result.approx_eq(&b, 1e-9), "post-poison: {a:?} vs {b:?}");
        assert!(engine.tracked_cells() > 0);
        engine.rebuild_cache();
        assert_eq!(engine.cache_epoch(), 1);
        assert!(engine.trie_snapshot().num_cached() > 0);
        let c = engine.select(&hot, &s);
        assert!(c.result.approx_eq(&b, 1e-9), "post-poison warm: {c:?}");
        let mut batch = UpdateBatch::new();
        batch.push(Point::new(40.0, 40.0), vec![1.0]);
        assert!(engine.apply_updates(&batch).is_ok());
        assert_eq!(engine.data_epoch(), 1);
    }

    #[test]
    fn snapshot_warm_start_is_identical_and_warm() {
        let dir = std::env::temp_dir().join("gb_engine_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.gbsnap");

        let base = base_data(4000);
        let (block, _) = build(&base, 8, &Filter::all());
        let engine = GeoBlockEngine::new(block.clone(), 0.3);
        let s = spec();
        let polys: Vec<Polygon> = (0..8)
            .map(|i| diamond(18.0 + 8.0 * i as f64, 30.0 + 6.0 * i as f64, 9.0))
            .collect();
        for p in &polys {
            engine.select(p, &s);
        }
        engine.rebuild_cache();
        engine.write_snapshot(&path).expect("save");

        // The builder restores pre-warmed engines too.
        let warm = GeoBlockEngine::builder()
            .threshold(0.3)
            .snapshot(&path)
            .build()
            .expect("load");
        assert_eq!(warm.block_snapshot().content_hash(), block.content_hash());
        // The restored cache is the one the saved statistics rebuild.
        engine.rebuild_cache();
        assert_eq!(
            warm.trie_snapshot().content_hash(),
            engine.trie_snapshot().content_hash()
        );
        // Warm from the first query: identical answers AND cache hits
        // without any rebuild on the restored engine.
        warm.reset_metrics();
        for p in &polys {
            let a = warm.select(p, &s);
            let b = engine.select(p, &s);
            assert!(a.result.approx_eq(&b.result, 1e-9), "warm-start: {a:?}");
        }
        assert!(
            warm.metrics().direct_hits > 0,
            "restored cache should hit immediately: {:?}",
            warm.metrics()
        );
        // Restored hit statistics carried over too.
        assert_eq!(warm.tracked_cells(), engine.tracked_cells());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_restored_cache_obeys_the_threshold_it_is_loaded_with() {
        let path =
            std::env::temp_dir().join(format!("gb_engine_threshold_{}.gbsnap", std::process::id()));
        let base = base_data(4000);
        let (block, _) = build(&base, 8, &Filter::all());
        let engine = GeoBlockEngine::new(block, 0.5);
        let polys: Vec<Polygon> = (0..8)
            .map(|i| diamond(15.0 + 9.0 * i as f64, 25.0 + 7.0 * i as f64, 14.0))
            .collect();
        for p in &polys {
            engine.select(p, &spec());
        }
        engine.rebuild_cache();
        engine.write_snapshot(&path).expect("save");

        let small = GeoBlockEngine::from_snapshot(&path, 0.05).expect("load");
        let _ = std::fs::remove_file(&path);
        let cache = small.trie_snapshot();
        assert!(cache.num_cached() > 0, "warm after the load");
        assert!(cache.size_bytes() <= small.budget_bytes());
        assert!(cache.num_cached() < engine.trie_snapshot().num_cached());
        let block = small.block_snapshot();
        let all = AggSpec::k_aggregates(block.schema(), 4);
        for p in &polys {
            let covering = block.cover(p);
            let want = crate::reference::select_covering(&block, &covering, &all);
            assert!(small.select(p, &all).result.approx_eq(&want, 0.0));
            assert_eq!(
                small.count(p).result,
                crate::reference::count_covering(&block, &covering)
            );
        }
    }

    #[test]
    fn manual_policy_keeps_the_hit_log_under_its_bound() {
        // Nobody reads the statistics under `Manual`: the log must fold
        // itself. 10× a (shrunk) bound of hits, checked after every query.
        const BOUND: usize = 512;
        let base = base_data(5000);
        let (block, _) = build(&base, 9, &Filter::all());
        let mut engine = GeoBlockEngine::new(block.clone(), 0.5);
        engine.hits = HitLog::with_bound(BOUND);
        let mut hits = FxHashMap::default();
        let (mut appended, mut i) = (0, 0);
        while appended < 10 * BOUND {
            let p = diamond(10.0 + 2.5 * (i % 30) as f64, 55.0, 7.0);
            appended += engine.select(&p, &spec()).stats.query_cells;
            count_hits(&mut hits, &block, &p);
            assert!(engine.hits.log_len() < BOUND, "query {i}");
            i += 1;
        }
        assert_eq!(engine.cache_epoch(), 0, "no rebuild ran");
        // Nothing was lost on the way: the counts are a hash map's.
        assert_eq!(*engine.hits.counts(), HitCounts::from_map(&hits));
        engine.rebuild_cache();
        assert!(engine.trie_snapshot().num_cached() > 0);
        assert!(engine.tracked_cells() > 0);
    }
}
