//! The query cache of §3.6 (Figure 8): its policy, its metrics and its
//! rebuild — [`crate::GeoBlockEngine`] is the front-end that owns the
//! block, the cache, the hit statistics and the rebuild policy.
//!
//! The adapted SELECT has no loop of its own: the engine runs the block's
//! SELECT loop (`GeoBlock::select_cells`) over the run of covering cells
//! that may overlap the block (`GeoBlock::overlapping`), trying the
//! cache's cursor on each cell before the block answers it.
//!
//! `rebuild_trie` is "Determining Relevant Aggregates": score the hit
//! cells and cache the most relevant ones that fit the budget (the
//! *aggregate threshold*, relative to the cell-aggregate storage). A
//! cached record is a copy of the block's canonical record of its cell
//! (found by the block's search, `GeoBlock::locate`, in
//! [`AggregateTrie`]'s one fill), so a cache hit and a block lookup answer
//! bit-identically.
//!
//! Figure 8 has a step in between: a query cell that is not cached itself
//! is assembled from its cached direct children. It is not implemented.
//! The block answers any aligned cell with one lookup and one combine,
//! where that step spends up to four of each; and four child records
//! summed into a result associate differently from the canonical in-order
//! fold of the cell's block records, so on fractional sums it broke the
//! contract that every path answers bit-identically (it served 0.3–0.6 %
//! of probes on the serving benchmark's workloads).
//!
//! COUNT queries bypass the cache ("as the runtime of COUNT queries is
//! mostly independent of the cell level […] we do not expect noticeable
//! speedups for them").

use crate::api::GbError;
use crate::block::GeoBlock;
use crate::hits::HitCounts;
use crate::trie::AggregateTrie;
use gb_cell::CellId;
use gb_data::{AggSpec, DataError};

/// When the cache is (re)built from the hit statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildPolicy {
    /// Only on explicit [`crate::GeoBlockEngine::rebuild_cache`] calls.
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
    /// Always 0: the step of Figure 8 that assembled a query cell from
    /// its cached direct children is not implemented (see [`crate::qc`]).
    /// The field stays because the frozen serving benchmark reads it.
    pub child_hits: u64,
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
                    // Saturating: restored counts are untrusted input.
                    score = score.saturating_add(hits.hits_at(*cursor));
                }
            }
            (score, level, raw)
        })
        .collect()
}

/// Build a fresh cache from hit statistics: the first ⌊`budget` /
/// record bytes⌋ candidates in (score desc, level asc, key asc) order (§3.6
/// "Determining Relevant Aggregates" inserts by descending relevance until
/// the space is exhausted, and every cached record costs the same), filled
/// from the block. Deterministic for given hit counts: the
/// same statistics rebuild the same cache, whichever thread runs it.
///
/// A candidate finer than the block level has no record of its own; only
/// a crafted `HITS` section can name one, and it is skipped.
pub(crate) fn rebuild_trie(block: &GeoBlock, budget: usize, hits: &HitCounts) -> AggregateTrie {
    let mut candidates = score_candidates(hits);
    candidates.retain(|&(_, level, _)| level <= block.level());
    let take = (budget / block.record_bytes()).min(candidates.len());
    if take < candidates.len() {
        // Score desc, then level asc (coarser first), then key asc — a
        // total order (keys are unique), so the prefix is well defined.
        candidates.select_nth_unstable_by(take, |a, b| {
            b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
        });
    }
    let keys = candidates[..take].iter().map(|&(_, _, raw)| raw).collect();
    AggregateTrie::fill(block, keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use crate::GeoBlockEngine;
    use gb_cell::Grid;
    use gb_common::FxHashMap;
    use gb_data::{extract, AggSpec, CleaningRules, ColumnDef, Filter, RawTable, Schema};
    use gb_geom::{Point, Polygon, Rect};

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
    fn zero_threshold_caches_nothing() {
        let base = base_data(1000);
        let (block, _) = build(&base, 8, &Filter::all());
        let engine = GeoBlockEngine::new(block, 0.0);
        for _ in 0..3 {
            engine.select(&diamond(50.0, 50.0, 20.0), &spec());
        }
        engine.rebuild_cache();
        assert_eq!(engine.trie_snapshot().num_cached(), 0);
        engine.select(&diamond(50.0, 50.0, 20.0), &spec());
        assert_eq!(engine.metrics().direct_hits, 0);
    }

    #[test]
    fn repeated_region_gets_cached_and_hit() {
        let base = base_data(3000);
        let (block, _) = build(&base, 8, &Filter::all());
        let engine = GeoBlockEngine::new(block, 0.5);
        let hot = diamond(50.0, 50.0, 12.0);
        for _ in 0..5 {
            engine.select(&hot, &spec());
        }
        engine.rebuild_cache();
        engine.reset_metrics();
        engine.select(&hot, &spec());
        let m = engine.metrics();
        assert!(m.direct_hits > 0, "hot region should hit the cache: {m:?}");
        assert!(m.hit_rate() > 0.0);
    }

    /// The record of `cell` by a plain in-order fold of the block records
    /// under it — what `GeoBlock::record_of` reads from the cell's layer
    /// or folds from the layer below.
    fn folded_record(block: &GeoBlock, cell: CellId) -> Folded {
        let c = block.schema().len();
        let (mut mins, mut maxs) = (vec![f64::INFINITY; c], vec![f64::NEG_INFINITY; c]);
        let (mut sums, mut count) = (vec![0.0; c], 0u64);
        for i in (0..block.num_cells()).filter(|&i| cell.contains(block.cell_at(i))) {
            let r = block.records().record(i);
            count += r.count;
            for col in 0..c {
                mins[col] = mins[col].min(r.min(col));
                maxs[col] = maxs[col].max(r.max(col));
                sums[col] += r.sum(col);
            }
        }
        (count, mins, maxs, sums)
    }

    type Folded = (u64, Vec<f64>, Vec<f64>, Vec<f64>);

    /// The rebuild without the partial sort or the fill: order every
    /// candidate, keep the first `budget / record` at or above the block
    /// level, fold each kept cell's records from the block. Scores are
    /// looked up, not merged: own hits plus the parent's.
    fn rebuild_full_sort(
        block: &GeoBlock,
        budget: usize,
        hits: &FxHashMap<u64, u64>,
    ) -> Vec<(u64, Folded)> {
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
            .filter(|&(_, level, _)| level <= block.level())
            .collect();
        candidates.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        candidates.truncate(budget / block.record_bytes());
        let mut cached: Vec<(u64, Folded)> = candidates
            .into_iter()
            .map(|(_, _, raw)| (raw, folded_record(block, CellId::from_raw(raw))))
            .collect();
        cached.sort_unstable_by_key(|&(raw, _)| raw);
        cached
    }

    #[test]
    fn partial_sort_rebuild_matches_full_sort_rebuild() {
        let base = base_data(3000);
        let (block, _) = build(&base, 8, &Filter::all());
        // Every block cell and its parent, with scattered hit counts and
        // plenty of equal scores for the tie-breaks to decide; a queried
        // cell without data, cached as the empty record; an ancestor of the
        // block's whole extent; and a cell finer than the block level, which
        // has no record and is never cached — the last two hot enough to
        // lead the order.
        let mut hits: FxHashMap<u64, u64> = FxHashMap::default();
        for (i, &raw) in block.records().keys.iter().enumerate() {
            hits.insert(raw, (i as u64).wrapping_mul(2_654_435_761) % 7);
            let parent = CellId::from_raw(raw).parent().raw();
            *hits.entry(parent).or_insert(0) += (i % 3) as u64;
        }
        let no_data = (0..4u8)
            .map(|k| block.cell_at(0).parent().child(k))
            .find(|cell| block.records().find(cell.raw(), &mut 0).is_none());
        hits.extend(no_data.map(|cell| (cell.raw(), 5)));
        let finer = block.cell_at(0).child(1);
        hits.insert(CellId::ROOT.raw(), 1_000);
        hits.insert(finer.raw(), 1_000);
        let record = block.record_bytes();
        for budget in [
            0,
            record - 1,
            record,
            10 * record,
            200 * record,
            usize::MAX / 2,
        ] {
            let fast = rebuild_trie(&block, budget, &HitCounts::from_map(&hits));
            let want = rebuild_full_sort(&block, budget, &hits);
            assert_eq!(fast.num_cached(), want.len(), "budget {budget}");
            assert!(fast.size_bytes() <= budget);
            let mut cursor = fast.flat_cursor();
            for (raw, (count, mins, maxs, sums)) in &want {
                let got = cursor.lookup(CellId::from_raw(*raw)).expect("cached");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(got.count, *count, "{raw:#x}");
                assert_eq!(bits(got.mins), bits(mins), "{raw:#x}");
                assert_eq!(bits(got.maxs), bits(maxs), "{raw:#x}");
                assert_eq!(bits(got.sums), bits(sums), "{raw:#x}");
            }
            assert!(fast.flat_cursor().lookup(finer).is_none());
            assert!(budget < record || fast.flat_cursor().lookup(CellId::ROOT).is_some());
        }
    }

    #[test]
    fn scoring_prefers_hits_then_coarser_cells() {
        let base = base_data(2000);
        let (block, _) = build(&base, 8, &Filter::all());
        let engine = GeoBlockEngine::new(block, 1.0);
        // Query one region often, another once.
        let hot = diamond(30.0, 30.0, 10.0);
        let cold = diamond(70.0, 70.0, 10.0);
        for _ in 0..6 {
            engine.select(&hot, &spec());
        }
        engine.select(&cold, &spec());
        engine.rebuild_cache();
        engine.reset_metrics();
        engine.select(&hot, &spec());
        let hot_rate = engine.metrics().hit_rate();
        assert!(hot_rate > 0.5, "hot region rate {hot_rate}");
    }
}
