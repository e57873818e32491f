//! GeoBlocks adapters to the unified [`SpatialAggIndex`] interface: the
//! paper's two GeoBlock variants and this repository's pyramid.
//!
//! * [`ScanBlockIndex`] — the paper's Block (Listing 1): per covering
//!   cell, the in-order fold of the block-level records in its key range.
//! * [`BlockQcIndex`] — the paper's BlockQC (§3.6): the same scan, plus a
//!   cache of the folds of the most relevant query cells, chosen from hit
//!   statistics under a budget. A cached record is a copy of the scan's
//!   own fold of its cell, so BlockQC answers bit-identically to the scan.
//! * [`BlockIndex`] — the pyramid: the block's coarser layers answer every
//!   covering cell with one stored record, the complete aggregate
//!   hierarchy the paper's cache holds a hot part of.

use crate::rect_index::AggRecord;
use crate::SpatialAggIndex;
use gb_cell::CellId;
use gb_common::FxHashMap;
use gb_data::AggSpec;
use gb_geom::Polygon;
use geoblocks::{AggPlan, AggResult, GeoBlock};

/// "Pyramid": GeoBlocks as this repository builds them — one record
/// lookup per covering cell in the block's layers.
pub struct BlockIndex {
    block: GeoBlock,
}

impl BlockIndex {
    pub fn new(block: GeoBlock) -> Self {
        BlockIndex { block }
    }

    pub fn block(&self) -> &GeoBlock {
        &self.block
    }
}

impl SpatialAggIndex for BlockIndex {
    fn name(&self) -> &'static str {
        "Block"
    }

    fn select(&mut self, polygon: &Polygon, spec: &AggSpec) -> AggResult {
        self.block.select(polygon, spec).0
    }

    fn count(&mut self, polygon: &Polygon) -> u64 {
        self.block.count(polygon).0
    }

    fn index_bytes(&self) -> usize {
        self.block.memory_bytes()
    }
}

/// "Block": the paper's GeoBlock without query caching, which answers a
/// covering cell by scanning the block-level records in its range.
pub struct ScanBlockIndex {
    block: GeoBlock,
    /// The record a scanned cell is folded into.
    scratch: AggRecord,
}

/// The in-order fold of the block-level records under `cell` into `rec`,
/// emptied first: Listing 1's range scan of one covering cell.
fn fold_into(block: &GeoBlock, cell: CellId, rec: &mut AggRecord) {
    rec.count = 0;
    rec.mins.fill(f64::INFINITY);
    rec.maxs.fill(f64::NEG_INFINITY);
    rec.sums.fill(0.0);
    for r in block.records_under(cell) {
        rec.count += r.count;
        for c in 0..rec.sums.len() {
            rec.mins[c] = rec.mins[c].min(r.min(c));
            rec.maxs[c] = rec.maxs[c].max(r.max(c));
            rec.sums[c] += r.sum(c);
        }
    }
}

/// Cached folds in one flat layout, keys ascending: record `i` is
/// `counts[i]` and, from `values[3 · c · i]`, its `c` minima, maxima and
/// sums.
#[derive(Default)]
struct Folds {
    keys: Vec<u64>,
    counts: Vec<u64>,
    values: Vec<f64>,
}

impl ScanBlockIndex {
    pub fn new(block: GeoBlock) -> Self {
        let scratch = AggRecord::empty(block.schema().len());
        ScanBlockIndex { block, scratch }
    }

    pub fn block(&self) -> &GeoBlock {
        &self.block
    }

    /// SELECT, each covering cell that may overlap the block answered from
    /// `cache` where it holds the cell and by the scan elsewhere; each
    /// such cell is appended to `probed`, if given, and how many cells
    /// `cache` answered is returned.
    fn select_with(
        &mut self,
        polygon: &Polygon,
        spec: &AggSpec,
        cache: &Folds,
        probed: Option<&mut Vec<u64>>,
    ) -> (AggResult, u64) {
        let covering = self.block.cover(polygon);
        let cells = self.block.overlapping(&covering);
        let (plan, c) = (AggPlan::compile(spec), self.block.schema().len());
        let mut result = AggResult::new(spec);
        // Covering cells ascend by raw id, so each lookup resumes where
        // the previous one ended.
        let (mut at, mut hits) = (0, 0);
        for &cell in cells {
            at += cache.keys[at..].partition_point(|&key| key < cell.raw());
            if cache.keys.get(at) == Some(&cell.raw()) {
                let values = &cache.values[3 * c * at..3 * c * (at + 1)];
                let (mins, rest) = values.split_at(c);
                let (maxs, sums) = rest.split_at(c);
                result.combine_record_plan(&plan, cache.counts[at], mins, maxs, sums);
                hits += 1;
            } else {
                let rec = &mut self.scratch;
                fold_into(&self.block, cell, rec);
                result.combine_record_plan(&plan, rec.count, &rec.mins, &rec.maxs, &rec.sums);
            }
        }
        if let Some(log) = probed {
            log.extend(cells.iter().map(|cell| cell.raw()));
        }
        (result.finalize(spec), hits)
    }
}

impl SpatialAggIndex for ScanBlockIndex {
    fn name(&self) -> &'static str {
        "Block (scan)"
    }

    fn select(&mut self, polygon: &Polygon, spec: &AggSpec) -> AggResult {
        self.select_with(polygon, spec, &Folds::default(), None).0
    }

    /// The tuple counts of the records in each covering cell's range.
    fn count(&mut self, polygon: &Polygon) -> u64 {
        let covering = self.block.cover(polygon);
        let cells = self.block.overlapping(&covering);
        cells
            .iter()
            .flat_map(|&cell| self.block.records_under(cell))
            .map(|r| r.count)
            .sum()
    }

    /// The block-level records: all the scan reads (the coarser layers
    /// the block also keeps are the pyramid's).
    fn index_bytes(&self) -> usize {
        self.block.aggregate_bytes()
    }
}

/// Covering cells probed against a [`BlockQcIndex`]'s cache, and how many
/// it answered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Covering cells looked up in the cache.
    pub probes: u64,
    /// Covering cells the cache answered.
    pub direct_hits: u64,
}

impl CacheCounts {
    /// Fraction of probes answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.direct_hits as f64 / self.probes as f64
        }
    }
}

/// Hit-log length at which a SELECT folds the log into the counts.
const LOG_BOUND: usize = 1 << 16;

/// "BlockQC": the paper's Block with its query cache (§3.6). SELECT counts
/// a hit for each covering cell that may overlap the block and answers a
/// cached cell from its cached fold; its `rebuild` picks the cached cells
/// from the hits. COUNT bypasses the cache, as in the paper.
pub struct BlockQcIndex {
    scan: ScanBlockIndex,
    threshold: f64,
    /// Hits per query cell (raw id), up to the last fold of `log`.
    hits: FxHashMap<u64, u64>,
    /// The query cells hit since, one entry per hit: a SELECT appends,
    /// and the log is counted in one sorted pass when it is folded.
    log: Vec<u64>,
    cache: Folds,
    counts: CacheCounts,
}

impl BlockQcIndex {
    /// The scan over `block`, with a cache budget of `threshold` × its
    /// cell-aggregate bytes (Figure 18's aggregate threshold), counted as
    /// the paper's Block stores them: one full record per cell. The cache
    /// starts empty.
    pub fn new(block: GeoBlock, threshold: f64) -> Self {
        BlockQcIndex {
            scan: ScanBlockIndex::new(block),
            threshold,
            hits: FxHashMap::default(),
            log: Vec::new(),
            cache: Folds::default(),
            counts: CacheCounts::default(),
        }
    }

    /// Count the hit log into `hits`.
    fn fold_log(&mut self) {
        self.log.sort_unstable();
        for run in self.log.chunk_by(|a, b| a == b) {
            *self.hits.entry(run[0]).or_insert(0) += run.len() as u64;
        }
        self.log.clear();
    }

    /// Number of cached records.
    pub fn num_cached(&self) -> usize {
        self.cache.keys.len()
    }

    /// Bytes of the cached records, what the budget bounds.
    pub fn cached_bytes(&self) -> usize {
        self.num_cached() * self.scan.block().record_bytes()
    }

    /// Distinct query cells the hit statistics track.
    pub fn tracked_cells(&mut self) -> usize {
        self.fold_log();
        self.hits.len()
    }

    /// Probes and cache hits since construction or the last reset.
    pub fn counts(&self) -> CacheCounts {
        self.counts
    }

    /// Zero the probe and hit counters (the hit statistics stay).
    pub fn reset_counts(&mut self) {
        self.counts = CacheCounts::default();
    }
}

impl SpatialAggIndex for BlockQcIndex {
    fn name(&self) -> &'static str {
        "BlockQC"
    }

    fn select(&mut self, polygon: &Polygon, spec: &AggSpec) -> AggResult {
        let logged = self.log.len();
        let (result, hits) = self
            .scan
            .select_with(polygon, spec, &self.cache, Some(&mut self.log));
        self.counts.probes += (self.log.len() - logged) as u64;
        self.counts.direct_hits += hits;
        if self.log.len() > LOG_BOUND {
            self.fold_log();
        }
        result
    }

    fn count(&mut self, polygon: &Polygon) -> u64 {
        self.scan.count(polygon)
    }

    fn index_bytes(&self) -> usize {
        self.scan.index_bytes() + self.cached_bytes()
    }

    /// Rebuild the cache from the hit statistics ("Determining Relevant
    /// Aggregates"): a cell scores its own hits plus its parent's; cells
    /// are taken by score (desc), then level (asc, coarser first), then
    /// raw id (asc) until the budget is spent, and every cached record
    /// costs one block record.
    fn rebuild(&mut self) {
        self.fold_log();
        let block = self.scan.block();
        let record_bytes = block.record_bytes();
        let budget = (self.threshold * (block.num_cells() * record_bytes) as f64) as usize;
        let hits_of = |cell: CellId| self.hits.get(&cell.raw()).copied().unwrap_or(0);
        let mut ranked: Vec<(u64, u8, u64)> = self
            .hits
            .iter()
            .map(|(&raw, &own)| {
                let cell = CellId::from_raw(raw);
                let parent = if cell.level() > 0 {
                    hits_of(cell.parent())
                } else {
                    0
                };
                (own + parent, cell.level(), raw)
            })
            .collect();
        ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        ranked.truncate(budget / record_bytes);
        let mut keys: Vec<u64> = ranked.into_iter().map(|(_, _, raw)| raw).collect();
        keys.sort_unstable();
        let mut cache = Folds::default();
        let mut rec = AggRecord::empty(block.schema().len());
        for raw in keys {
            fold_into(block, CellId::from_raw(raw), &mut rec);
            cache.keys.push(raw);
            cache.counts.push(rec.count);
            cache
                .values
                .extend([&rec.mins, &rec.maxs, &rec.sums].into_iter().flatten());
        }
        self.cache = cache;
    }
}
