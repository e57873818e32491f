//! BlockQC: GeoBlocks with query-cache acceleration (§3.6, Figure 8).
//!
//! Wraps a [`GeoBlock`] with (i) hit statistics over previously seen query
//! cells, (ii) the [`AggregateTrie`] cache sized by the *aggregate
//! threshold* (relative to the cell-aggregate storage), and (iii) the
//! adapted SELECT algorithm: probe the trie per query cell; use the cached
//! aggregate when present; otherwise combine cached direct children with
//! the base algorithm for the missing ones; otherwise fall back entirely.
//!
//! COUNT queries bypass the cache ("as the runtime of COUNT queries is
//! mostly independent of the cell level […] we do not expect noticeable
//! speedups for them").

use crate::aggregate::{AggPlan, AggResult};
use crate::api::{GbError, QueryReply, QueryRequest, QueryResponse};
use crate::block::GeoBlock;
use crate::hits::HitCounts;
use crate::query::{Cursors, QueryStats};
use crate::trie::{AggregateTrie, FlatHit};
use gb_cell::CellId;
use gb_common::FxHashMap;
use gb_data::{AggSpec, DataError};
use gb_geom::Polygon;
use gb_trace::{Stage, StageAcc};

/// When the cache is (re)built from the hit statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildPolicy {
    /// Only on explicit [`GeoBlockQC::rebuild_cache`] calls.
    Manual,
    /// Automatically after every `n` queries.
    EveryN(usize),
}

/// Cache-related counters for one query (or an accumulated run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Query cells probed against the trie.
    pub probes: u64,
    /// Query cells answered entirely from a cached aggregate.
    pub direct_hits: u64,
    /// Query cells partially answered via cached direct children.
    pub child_hits: u64,
    /// Coverings served from the engine's covering memo (always 0 for
    /// the single-threaded [`GeoBlockQC`], which has no memo).
    pub covering_memo_hits: u64,
    /// Coverings computed because the memo had no (verified) entry.
    pub covering_memo_misses: u64,
}

impl CacheMetrics {
    /// Fraction of probes answered directly from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.direct_hits as f64 / self.probes as f64
        }
    }
}

/// Reject specs referencing columns outside `block`'s schema before they
/// reach the (panicking, index-based) accumulator hot path.
pub(crate) fn validate_spec(block: &GeoBlock, spec: &AggSpec) -> Result<(), GbError> {
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

/// The smallest cell enclosing every key of `block` — the natural trie
/// root (shared by [`GeoBlockQC`] and [`crate::engine::GeoBlockEngine`]).
pub(crate) fn root_cell_of(block: &GeoBlock) -> CellId {
    if block.num_cells() == 0 {
        CellId::ROOT
    } else {
        CellId::from_raw(block.min_cell).common_ancestor(CellId::from_raw(block.max_cell))
    }
}

/// The Figure-8 adapted SELECT over an explicit `(block, trie)` pair.
///
/// Takes the polygon's `covering` rather than the polygon itself: the
/// covering fully determines the answer, which is what lets the engine
/// memoize coverings by polygon content and lets a batch share one
/// covering across requests — the caller obtains it from `block.cover` (the
/// reference path) or the covering memo (bit-identical by construction).
///
/// `record_hit` is called once per query cell that may overlap the block
/// (§3.6 hit statistics); the single-threaded [`GeoBlockQC`] feeds a plain
/// hash map, the concurrent engine a per-query vector it appends to its
/// hit log afterwards. Factoring the algorithm out guarantees both
/// paths answer queries identically.
///
/// `acc` attributes per-cell time to tracing stages (`TrieLookup` for
/// cache probes, `PyramidCombine`/`ScanFallback` for residual combines).
/// It is a pure observer — a disarmed accumulator (the [`GeoBlockQC`]
/// reference path, or an unsampled request) runs the identical code with
/// zero timing overhead, so traced and untraced execution are
/// bit-identical by construction.
pub(crate) fn select_adapted(
    block: &GeoBlock,
    trie: &AggregateTrie,
    covering: &gb_cell::CellUnion,
    spec: &AggSpec,
    record_hit: &mut dyn FnMut(u64),
    metrics: &mut CacheMetrics,
    acc: &mut StageAcc,
) -> (AggResult, QueryStats) {
    let plan = AggPlan::compile(spec);
    let mut result = AggResult::new(spec);
    let mut scratch = AggResult::new(spec);
    let mut stats = QueryStats::default();
    let mut cursors = Cursors::new();
    // Covering cells arrive sorted by raw id, so the flat-index cursor
    // resolves almost every probe from a forward scan.
    let mut probe = trie.flat_cursor();
    // What the trie cannot answer goes to the block, timed under the
    // stage the cell's level selects — the tier selection of
    // `GeoBlock::combine_covering_cell`: cells coarser than the block
    // level are pyramid lookups, block-level cells scan their record.
    let mut residual =
        |cell: CellId, acc: &mut StageAcc, result: &mut AggResult, stats: &mut QueryStats| {
            let stage = if cell.level() < block.level {
                Stage::PyramidCombine
            } else {
                Stage::ScanFallback
            };
            acc.time(stage, || {
                block.combine_covering_cell(
                    cell,
                    spec,
                    &plan,
                    &mut scratch,
                    result,
                    stats,
                    &mut cursors,
                )
            })
        };

    for qcell in covering.iter() {
        if !block.may_overlap(qcell) {
            continue;
        }
        stats.query_cells += 1;
        // Track the hit for future cache decisions (§3.6 "for each query
        // cell that intersects with the GeoBlock").
        record_hit(qcell.raw());
        metrics.probes += 1;

        // Probe the cache — the hot lane resolves a cached cell straight
        // to its record, so the common case never touches the node array.
        match acc.time(Stage::TrieLookup, || probe.lookup(qcell)) {
            FlatHit::Agg(agg) => {
                // Fully cached: answer from the trie.
                agg.combine_into(&plan, &mut result);
                metrics.direct_hits += 1;
            }
            FlatHit::Node(node) => {
                if qcell.level() < gb_cell::MAX_LEVEL {
                    if let Some(children) = trie.children_of(node) {
                        // Partially cached: combine cached direct children,
                        // fall back per missing child (pyramid-tiered too).
                        let mut used_child = false;
                        for (k, &child_node) in children.iter().enumerate() {
                            let child_cell = qcell.child(k as u8);
                            if let Some(agg) = trie.agg_of(child_node) {
                                agg.combine_into(&plan, &mut result);
                                used_child = true;
                            } else {
                                residual(child_cell, acc, &mut result, &mut stats);
                            }
                        }
                        if used_child {
                            metrics.child_hits += 1;
                        }
                        continue;
                    }
                }
                // Node exists but nothing usable: base tiered path.
                residual(qcell, acc, &mut result, &mut stats);
            }
            FlatHit::Miss => residual(qcell, acc, &mut result, &mut stats),
        }
    }
    (result.finalize(spec), stats)
}

/// Candidate cells of a rebuild as `(score, level, raw id)`. The score of
/// a cell is "the sum of the cell's hits and the hits of its parent"
/// (§3.6). `hits` is in cell order, and so are the parents of the cells of
/// one level: each level keeps a cursor into the column and gallops it
/// forward to the next parent, so scoring is one sequential pass.
fn score_candidates(hits: &HitCounts) -> Vec<(u64, u8, u64)> {
    let cells = hits.cells();
    let mut parent_cursor = [0usize; gb_cell::MAX_LEVEL as usize + 1];
    cells
        .iter()
        .enumerate()
        .map(|(i, &raw)| {
            let cell = CellId::from_raw(raw);
            let level = cell.level();
            let mut score = hits.hits_at(i);
            if level > 0 {
                let parent = cell.parent().raw();
                let cursor = &mut parent_cursor[usize::from(level)];
                *cursor = crate::gallop::lower_bound_from(cells, parent, *cursor);
                if cells.get(*cursor) == Some(&parent) {
                    score += hits.hits_at(*cursor);
                }
            }
            (score, level, raw)
        })
        .collect()
}

/// Aggregate all cell aggregates inside `cell` into the scratch buffers;
/// returns the tuple count.
pub(crate) fn aggregate_cell_range(
    block: &GeoBlock,
    cell: CellId,
    mins: &mut [f64],
    maxs: &mut [f64],
    sums: &mut [f64],
) -> u64 {
    let c = mins.len();
    mins.fill(f64::INFINITY);
    maxs.fill(f64::NEG_INFINITY);
    sums.fill(0.0);
    let mut count = 0u64;
    let lo = cell.range_min().raw();
    let hi = cell.range_max().raw();
    // No cursor to resume from (candidates arrive in score order): bisect.
    let mut i = block.keys.partition_point(|&k| k < lo);
    while i < block.keys.len() && block.keys[i] <= hi {
        count += u64::from(block.counts[i]);
        let base = i * c;
        for col in 0..c {
            mins[col] = mins[col].min(block.mins[base + col]);
            maxs[col] = maxs[col].max(block.maxs[base + col]);
            sums[col] += block.sums[base + col];
        }
        i += 1;
    }
    count
}

/// Build a fresh AggregateTrie from hit statistics: take candidate cells
/// in (score desc, level asc, key asc) order and insert until `budget`
/// bytes are filled (§3.6 "Determining Relevant Aggregates").
/// Deterministic for given hit counts, so every caller — serial QC or
/// concurrent engine — rebuilds the same cache from the same statistics.
///
/// The budget admits a small prefix of that order (every insertion costs
/// at least one record), so only that prefix is selected and sorted; the
/// remainder is sorted only if the prefix runs out first.
pub(crate) fn rebuild_trie(
    block: &GeoBlock,
    root_cell: CellId,
    budget: usize,
    hits: &HitCounts,
) -> AggregateTrie {
    let n_cols = block.schema().len();
    let mut trie = AggregateTrie::new(root_cell, n_cols);

    let mut candidates = score_candidates(hits);
    // Score desc, then level asc (coarser first), then key asc — a total
    // order (keys are unique), so a partial sort picks the same prefix.
    let order = |a: &(u64, u8, u64), b: &(u64, u8, u64)| {
        b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
    };
    // The loop below ends at the first candidate that does not fit, so it
    // consumes at most `budget / record_bytes` insertions plus that one —
    // more only when cells outside the root (skipped, costing nothing)
    // sit among them.
    let cut = (budget / trie.record_bytes() + 1).min(candidates.len());
    if cut < candidates.len() {
        candidates.select_nth_unstable_by(cut, order);
    }
    let (head, rest) = candidates.split_at_mut(cut);

    let mut mins = vec![0.0f64; n_cols];
    let mut maxs = vec![0.0f64; n_cols];
    let mut sums = vec![0.0f64; n_cols];
    'fill: for part in [head, rest] {
        part.sort_unstable_by(order);
        for &(_, _, raw) in part.iter() {
            let cell = CellId::from_raw(raw);
            let Some(cost) = trie.insertion_cost(cell) else {
                continue;
            };
            if trie.size_bytes() + cost > budget {
                // Reserved area full (the paper inserts by descending
                // relevance until the space is exhausted).
                break 'fill;
            }
            let count = aggregate_cell_range(block, cell, &mut mins, &mut maxs, &mut sums);
            // Empty cells are cached too: a count-0 record answers "no data
            // here" without touching the aggregates, and Figure 18's cache hit
            // rate reaching 100 % requires every queried cell to become
            // cacheable.
            trie.insert(cell, count, &mins, &maxs, &sums);
        }
    }
    // Rebuilds are publish points: hand readers the flat lookup path.
    trie.build_flat_index();
    trie
}

/// A GeoBlock with the AggregateTrie query cache.
#[derive(Debug, Clone)]
pub struct GeoBlockQC {
    block: GeoBlock,
    trie: AggregateTrie,
    /// Cache budget as a fraction of the cell-aggregate bytes (Figure 18's
    /// "aggregate threshold").
    threshold: f64,
    policy: RebuildPolicy,
    hits: FxHashMap<u64, u64>,
    queries_since_rebuild: usize,
    metrics: CacheMetrics,
    /// Data epoch: how many update batches have committed — the epoch
    /// reported in every [`QueryResponse`] (mirrors
    /// [`crate::GeoBlockEngine::data_epoch`]).
    epoch: u64,
}

impl GeoBlockQC {
    /// Wrap `block` with a cache budget of `threshold` (e.g. `0.05` = 5 %
    /// of the cell-aggregate storage, the paper's skew-experiment setting).
    pub fn new(block: GeoBlock, threshold: f64) -> Self {
        assert!(threshold >= 0.0);
        let root_cell = root_cell_of(&block);
        let n_cols = block.schema().len();
        GeoBlockQC {
            block,
            trie: AggregateTrie::new(root_cell, n_cols),
            threshold,
            policy: RebuildPolicy::Manual,
            hits: FxHashMap::default(),
            queries_since_rebuild: 0,
            metrics: CacheMetrics::default(),
            epoch: 0,
        }
    }

    /// Set the automatic rebuild policy.
    pub fn with_policy(mut self, policy: RebuildPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The wrapped block.
    pub fn block(&self) -> &GeoBlock {
        &self.block
    }

    /// The current cache.
    pub fn trie(&self) -> &AggregateTrie {
        &self.trie
    }

    pub(crate) fn block_mut(&mut self) -> &mut GeoBlock {
        &mut self.block
    }

    pub(crate) fn trie_mut(&mut self) -> &mut AggregateTrie {
        &mut self.trie
    }

    pub(crate) fn block_grid_leaf(&self, p: gb_geom::Point) -> CellId {
        self.block.grid().leaf_for_point(p)
    }

    /// Cache budget in bytes (threshold × cell-aggregate bytes).
    pub fn budget_bytes(&self) -> usize {
        (self.threshold * (self.block.num_cells() * self.block.record_bytes()) as f64) as usize
    }

    /// Accumulated cache metrics since the last [`GeoBlockQC::reset_metrics`].
    pub fn metrics(&self) -> CacheMetrics {
        self.metrics
    }

    /// Zero the cache metrics (e.g. between workload phases).
    pub fn reset_metrics(&mut self) {
        self.metrics = CacheMetrics::default();
    }

    /// How many update batches have committed (the epoch reported in
    /// every [`QueryResponse`]).
    pub fn data_epoch(&self) -> u64 {
        self.epoch
    }

    /// Advance the data epoch (called by `apply_updates` after a batch
    /// commits — see `crate::update`).
    pub(crate) fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The canonical typed entry point: validate `req` against the block
    /// schema, execute it, and wrap the result with its stats and epoch.
    pub fn query(&mut self, req: &QueryRequest) -> Result<QueryReply, GbError> {
        match req {
            QueryRequest::Select { polygon, spec } => {
                validate_spec(&self.block, spec)?;
                Ok(QueryReply::Select(self.select(polygon, spec)))
            }
            QueryRequest::Count { polygon } => Ok(QueryReply::Count(self.count(polygon))),
            QueryRequest::Update { batch } => {
                let n_cols = self.block.schema().len();
                for (i, (_, values)) in batch.rows.iter().enumerate() {
                    if values.len() != n_cols {
                        return Err(GbError::bad_request(format!(
                            "update row {i} has {} values, schema has {n_cols} columns",
                            values.len()
                        )));
                    }
                }
                let report = self.apply_updates(batch);
                Ok(QueryReply::Update(QueryResponse::new(
                    report,
                    QueryStats::default(),
                    self.epoch,
                )))
            }
            QueryRequest::Batch { requests } => {
                // The single-threaded QC executes batch items sequentially —
                // it is the reference the engine's covering-shared batch path
                // is property-tested against.
                for (i, item) in requests.iter().enumerate() {
                    if !matches!(
                        item,
                        QueryRequest::Select { .. } | QueryRequest::Count { .. }
                    ) {
                        return Err(GbError::bad_request(format!(
                            "batch item {i}: only select/count requests may appear in a batch"
                        )));
                    }
                }
                let mut items = Vec::with_capacity(requests.len());
                let mut stats = QueryStats::default();
                for item in requests {
                    let reply = self.query(item)?;
                    let s = reply.stats();
                    stats.query_cells += s.query_cells;
                    stats.cells_combined += s.cells_combined;
                    stats.searches += s.searches;
                    items.push(reply);
                }
                let epoch = self.epoch;
                Ok(QueryReply::Batch(QueryResponse::new(items, stats, epoch)))
            }
        }
    }

    /// COUNT passes straight through to the block (no cache, §3.6).
    pub fn count(&self, polygon: &Polygon) -> QueryResponse<u64> {
        let (count, stats) = self.block.count(polygon);
        QueryResponse::new(count, stats, self.epoch)
    }

    /// SELECT with the Figure-8 adapted algorithm. Computes a fresh
    /// covering every time — the QC is the memo-free reference the
    /// engine's memoized path is property-tested against.
    pub fn select(&mut self, polygon: &Polygon, spec: &AggSpec) -> QueryResponse<AggResult> {
        let covering = self.block.cover(polygon);
        let GeoBlockQC {
            block,
            trie,
            hits,
            metrics,
            ..
        } = self;
        let (result, stats) = select_adapted(
            block,
            trie,
            &covering,
            spec,
            &mut |raw| *hits.entry(raw).or_insert(0) += 1,
            metrics,
            // The QC is the untraced reference: a disarmed accumulator
            // keeps this path bit-identical and bookkeeping-free.
            &mut StageAcc::inactive(),
        );

        self.queries_since_rebuild += 1;
        if let RebuildPolicy::EveryN(n) = self.policy {
            if self.queries_since_rebuild >= n {
                self.rebuild_cache();
            }
        }
        QueryResponse::new(result, stats, self.epoch)
    }

    /// Persist the block and the current cache state (trie + hit
    /// statistics) — the single-threaded counterpart of
    /// [`crate::GeoBlockEngine::write_snapshot`].
    pub fn write_snapshot(&self, path: &std::path::Path) -> Result<(), crate::SnapshotError> {
        crate::snapshot::SnapshotRef {
            block: &self.block,
            trie: Some(&self.trie),
            hits: Some(&HitCounts::from_map(&self.hits)),
            hot_queries: None,
        }
        .save(path)
    }

    /// Restore a BlockQC from a snapshot. If the snapshot carries cache
    /// state the restored QC starts warm (same trie, same learned hit
    /// scores); otherwise it behaves like [`GeoBlockQC::new`].
    pub fn from_snapshot(
        path: &std::path::Path,
        threshold: f64,
    ) -> Result<GeoBlockQC, crate::SnapshotError> {
        let snap = crate::Snapshot::load(path)?;
        let mut qc = GeoBlockQC::new(snap.block, threshold);
        if let Some(trie) = snap.trie {
            qc.trie = trie;
        }
        if let Some(hits) = snap.hits {
            qc.hits = hits.iter().collect();
        }
        Ok(qc)
    }

    /// Rebuild the AggregateTrie from the hit statistics: sort candidate
    /// cells by (score desc, level asc, key asc) and insert until the
    /// reserved area is filled (§3.6 "Determining Relevant Aggregates").
    pub fn rebuild_cache(&mut self) {
        self.queries_since_rebuild = 0;
        self.trie = rebuild_trie(
            &self.block,
            self.trie.root_cell(),
            self.budget_bytes(),
            &HitCounts::from_map(&self.hits),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use gb_cell::Grid;
    use gb_data::{extract, AggSpec, CleaningRules, ColumnDef, Filter, RawTable, Schema};
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
    fn qc_matches_plain_block_before_and_after_caching() {
        let base = base_data(4000);
        let (block, _) = build(&base, 8, &Filter::all());
        let s = spec();
        let polys: Vec<Polygon> = (0..6)
            .map(|i| diamond(20.0 + 10.0 * i as f64, 30.0 + 7.0 * i as f64, 8.0))
            .collect();

        let mut qc = GeoBlockQC::new(block.clone(), 0.2);
        // Cold cache: identical results.
        for p in &polys {
            let a = qc.select(p, &s).result;
            let (b, _) = block.select(p, &s);
            assert!(a.approx_eq(&b, 1e-9), "cold: {a:?} vs {b:?}");
        }
        qc.rebuild_cache();
        assert!(qc.trie().num_cached() > 0, "cache should hold aggregates");
        // Warm cache: still identical results.
        for p in &polys {
            let a = qc.select(p, &s).result;
            let (b, _) = block.select(p, &s);
            assert!(a.approx_eq(&b, 1e-9), "warm: {a:?} vs {b:?}");
        }
        assert!(qc.metrics().direct_hits > 0, "expected cache hits");
    }

    #[test]
    fn cache_respects_budget() {
        let base = base_data(3000);
        let (block, _) = build(&base, 9, &Filter::all());
        let mut qc = GeoBlockQC::new(block, 0.05);
        for i in 0..20 {
            let p = diamond(30.0 + i as f64, 40.0, 10.0);
            qc.select(&p, &spec());
        }
        qc.rebuild_cache();
        assert!(
            qc.trie().size_bytes() <= qc.budget_bytes(),
            "cache {} over budget {}",
            qc.trie().size_bytes(),
            qc.budget_bytes()
        );
    }

    #[test]
    fn zero_threshold_caches_nothing() {
        let base = base_data(1000);
        let (block, _) = build(&base, 8, &Filter::all());
        let mut qc = GeoBlockQC::new(block, 0.0);
        for _ in 0..3 {
            qc.select(&diamond(50.0, 50.0, 20.0), &spec());
        }
        qc.rebuild_cache();
        assert_eq!(qc.trie().num_cached(), 0);
        assert_eq!(qc.metrics().direct_hits, 0);
    }

    #[test]
    fn repeated_region_gets_cached_and_hit() {
        let base = base_data(3000);
        let (block, _) = build(&base, 8, &Filter::all());
        let mut qc = GeoBlockQC::new(block, 0.5);
        let hot = diamond(50.0, 50.0, 12.0);
        for _ in 0..5 {
            qc.select(&hot, &spec());
        }
        qc.rebuild_cache();
        qc.reset_metrics();
        qc.select(&hot, &spec());
        let m = qc.metrics();
        assert!(
            m.direct_hits + m.child_hits > 0,
            "hot region should hit the cache: {m:?}"
        );
        assert!(m.hit_rate() > 0.0);
    }

    #[test]
    fn auto_rebuild_policy_fires() {
        let base = base_data(2000);
        let (block, _) = build(&base, 8, &Filter::all());
        let mut qc = GeoBlockQC::new(block, 0.3).with_policy(RebuildPolicy::EveryN(4));
        let hot = diamond(40.0, 40.0, 10.0);
        for _ in 0..8 {
            qc.select(&hot, &spec());
        }
        // After ≥ 4 queries the policy rebuilt at least once.
        assert!(qc.trie().num_cached() > 0);
    }

    #[test]
    fn count_ignores_cache() {
        let base = base_data(2000);
        let (block, _) = build(&base, 8, &Filter::all());
        let mut qc = GeoBlockQC::new(block.clone(), 0.3);
        let hot = diamond(40.0, 40.0, 15.0);
        for _ in 0..5 {
            qc.select(&hot, &spec());
        }
        qc.rebuild_cache();
        let a = qc.count(&hot);
        let (b, _) = block.count(&hot);
        assert_eq!(a.result, b);
        assert_eq!(a.epoch, 0, "no updates yet");
    }

    /// The rebuild as it was before the partial sort: order every
    /// candidate, insert until the first that does not fit.
    /// Scores are looked up, not merged: own hits plus the parent's.
    fn rebuild_full_sort(
        block: &GeoBlock,
        root_cell: CellId,
        budget: usize,
        hits: &FxHashMap<u64, u64>,
    ) -> AggregateTrie {
        let n_cols = block.schema().len();
        let mut trie = AggregateTrie::new(root_cell, n_cols);
        let of = |cell: CellId| hits.get(&cell.raw()).copied().unwrap_or(0);
        let mut candidates: Vec<(u64, u8, u64)> = hits
            .keys()
            .map(|&raw| {
                let cell = CellId::from_raw(raw);
                let parent = if cell.level() > 0 {
                    of(cell.parent())
                } else {
                    0
                };
                (of(cell) + parent, cell.level(), raw)
            })
            .collect();
        candidates.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let (mut mins, mut maxs, mut sums) =
            (vec![0.0; n_cols], vec![0.0; n_cols], vec![0.0; n_cols]);
        for (_, _, raw) in candidates {
            let cell = CellId::from_raw(raw);
            let Some(cost) = trie.insertion_cost(cell) else {
                continue;
            };
            if trie.size_bytes() + cost > budget {
                break;
            }
            let count = aggregate_cell_range(block, cell, &mut mins, &mut maxs, &mut sums);
            trie.insert(cell, count, &mins, &maxs, &sums);
        }
        trie
    }

    #[test]
    fn partial_sort_rebuild_matches_full_sort_rebuild() {
        let base = base_data(3000);
        let (block, _) = build(&base, 8, &Filter::all());
        // Every block cell and its parent, with scattered hit counts and
        // plenty of equal scores for the tie-breaks to decide.
        let mut hits: FxHashMap<u64, u64> = FxHashMap::default();
        for (i, &raw) in block.keys.iter().enumerate() {
            hits.insert(raw, (i as u64).wrapping_mul(2_654_435_761) % 7);
            let parent = CellId::from_raw(raw).parent().raw();
            *hits.entry(parent).or_insert(0) += (i % 3) as u64;
        }
        let whole = root_cell_of(&block);
        // A trie rooted at one quadrant: the other three quadrants' cells
        // are candidates outside the root. Raising their counts puts them
        // all ahead of the cut, so the selected prefix inserts nothing and
        // the remainder has to be sorted.
        let quadrant = whole.child(0);
        let mut skewed = hits.clone();
        for (&raw, count) in skewed.iter_mut() {
            if !quadrant.contains(CellId::from_raw(raw)) {
                *count += 1_000;
            }
        }
        let record = AggregateTrie::new(whole, 1).record_bytes();
        for (root, hits) in [(whole, &hits), (quadrant, &hits), (quadrant, &skewed)] {
            for budget in [0, 8 + record, 10 * record, 200 * record, usize::MAX / 2] {
                let fast = rebuild_trie(&block, root, budget, &HitCounts::from_map(hits));
                let full = rebuild_full_sort(&block, root, budget, hits);
                assert_eq!(
                    fast.content_hash(),
                    full.content_hash(),
                    "root level {} budget {budget}",
                    root.level()
                );
                assert!(budget < 200 * record || fast.num_cached() > 0);
            }
        }
    }

    #[test]
    fn scoring_prefers_hits_then_coarser_cells() {
        let base = base_data(2000);
        let (block, _) = build(&base, 8, &Filter::all());
        let mut qc = GeoBlockQC::new(block, 1.0);
        // Query one region often, another once.
        let hot = diamond(30.0, 30.0, 10.0);
        let cold = diamond(70.0, 70.0, 10.0);
        for _ in 0..6 {
            qc.select(&hot, &spec());
        }
        qc.select(&cold, &spec());
        qc.rebuild_cache();
        qc.reset_metrics();
        qc.select(&hot, &spec());
        let hot_rate = qc.metrics().hit_rate();
        assert!(hot_rate > 0.5, "hot region rate {hot_rate}");
    }
}
