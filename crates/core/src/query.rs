//! SELECT and COUNT query evaluation (§3.5, Listings 1 & 2, Figure 6)
//! over the block's layers.
//!
//! Both queries start identically: the polygon is approximated by an
//! error-bounded cell covering (boundary cells at the block level, interior
//! cells possibly coarser) and the covering is pruned against the block's
//! key extent — one run of it, [`GeoBlock::overlapping`]. Every covering
//! cell is grid-aligned, and the canonical record of every aligned cell —
//! the in-order fold of its children's records, down to the block records
//! under it — is either stored in the [`Layer`] of the cell's level (the
//! block level and every even level above it) or, at an odd level, the
//! fold of ≤ 4 records of the layer one level finer. So:
//!
//! Both answer each covering cell with **one** cursor-resumed galloping
//! search (`GeoBlock::locate`): the record of a kept level, or at an odd
//! level the ≤ 4 contiguous child records in the layer below. Then:
//!
//! * [`GeoBlock::select`] / [`GeoBlock::select_covering`] combine **one**
//!   record per covering cell (`GeoBlock::record_of`, which folds an odd
//!   level's children into a scratch record; `cells_combined` ≤ covering
//!   size). This is the paper's BlockQC (§3.6) with every aligned cell
//!   cached: the pyramid holds the record a hot coarse cell would be
//!   cached with, for every cell.
//! * [`GeoBlock::count`] / [`GeoBlock::count_covering`] add the counts of
//!   the records the search found: integers, so no fold and no scratch
//!   record. This replaces Listing 2's two searches over per-cell tuple
//!   offsets: the layers already store every cell's count.
//!
//! The naive oracle both are tested against — the same fold tree walked
//! from the block records by bisection per covering cell, with no layer
//! or cursor — is [`crate::reference`]. The paper's own Block, which
//! folds every block-level record in a covering cell's range
//! ([`GeoBlock::records_under`]), is `gb_baselines::ScanBlockIndex`.

use crate::aggregate::{AggPlan, AggResult, RecordRef};
use crate::block::GeoBlock;
use crate::gallop;
use crate::layer::Layer;
use gb_cell::{cover_polygon, CellId, CellUnion, MAX_LEVEL};
use gb_data::AggSpec;
use gb_geom::Polygon;
use std::ops::Range;

/// Counters describing one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Cells in the covering (after header pruning).
    pub query_cells: usize,
    /// Records read into the result: one per covering cell with data
    /// under it, for SELECT and COUNT alike.
    pub cells_combined: usize,
    /// Binary searches performed.
    pub searches: usize,
}

/// Per-layer resume positions for the cursor-resumed searches, indexed by
/// the searched layer's level: covering cells are disjoint and ascend in
/// curve order, so every search in a layer can start where the previous
/// one in that layer ended — a search for a cell of the layer's level, or
/// for one of the odd level above it that the block does not keep.
/// Beside them, the scratch record such an odd level's cells are folded
/// into.
pub(crate) struct Cursors {
    layers: [usize; MAX_LEVEL as usize + 1],
    scratch: Layer,
}

impl Cursors {
    #[inline]
    pub(crate) fn new() -> Cursors {
        Cursors {
            layers: [0; MAX_LEVEL as usize + 1],
            scratch: Layer::with_capacity(0, 0, 0),
        }
    }
}

impl GeoBlock {
    /// Compute the error-bounded covering for a query polygon (Figure 6 b/c).
    pub fn cover(&self, polygon: &Polygon) -> CellUnion {
        cover_polygon(&self.grid, polygon, self.level())
    }

    /// SELECT: extract `spec`'s aggregates over all points in `polygon`.
    pub fn select(&self, polygon: &Polygon, spec: &AggSpec) -> (AggResult, QueryStats) {
        let covering = self.cover(polygon);
        let (acc, stats) = self.select_covering(&covering, spec);
        (acc.finalize(spec), stats)
    }

    /// SELECT over a precomputed covering, without finalization:
    /// [`GeoBlock::select`] finalizes, and benches time the bare walk.
    /// Per covering cell that may overlap the block, one search and the
    /// one record it finds.
    pub fn select_covering(&self, covering: &CellUnion, spec: &AggSpec) -> (AggResult, QueryStats) {
        let cells = self.overlapping(covering);
        let plan = AggPlan::compile(spec);
        let mut result = AggResult::new(spec);
        let mut stats = QueryStats {
            query_cells: cells.len(),
            ..QueryStats::default()
        };
        let mut cursors = Cursors::new();
        for &qcell in cells {
            stats.searches += 1;
            if let Some(record) = self.record_of(qcell, &mut cursors) {
                record.combine_into(&plan, &mut result);
                stats.cells_combined += 1;
            }
        }
        (result, stats)
    }

    /// The block-level records under the aligned `cell`, in key order —
    /// Listing 1's range scan of one covering cell: bisect to the first,
    /// walk to the last. Empty when no record lies under `cell`.
    pub fn records_under(&self, cell: CellId) -> impl Iterator<Item = RecordRef<'_>> + '_ {
        let records = self.records();
        let (lo, hi) = (cell.range_min().raw(), cell.range_max().raw());
        let first = records.keys.partition_point(|&k| k < lo);
        (first..records.num_cells())
            .take_while(move |&i| records.keys[i] <= hi)
            .map(move |i| records.record(i))
    }

    /// The records that make up the aligned `cell`, at or above the block
    /// level: the layer searched and the matching range in it — the one
    /// record of the cell's level, or at an odd level the block does not
    /// keep, the ≤ 4 contiguous child records in the layer below. `None`
    /// means no data under the cell — also for a cell finer than the block
    /// level, which has no record of its own.
    ///
    /// The search gallops forward from where `cursors` left the searched
    /// layer, so the cells searched in one layer must be asked for in
    /// ascending, disjoint order per `Cursors`; a caller without such an
    /// order passes a fresh one per lookup.
    pub(crate) fn locate(
        &self,
        cell: CellId,
        cursors: &mut Cursors,
    ) -> Option<(&Layer, Range<usize>)> {
        let level = cell.level();
        if let Some(layer) = self.layer_at(level) {
            let i = layer.find(cell.raw(), &mut cursors.layers[usize::from(level)])?;
            return Some((layer, i..i + 1));
        }
        let finer = self.layer_at(level + 1)?;
        let cursor = &mut cursors.layers[usize::from(finer.level)];
        let (lo, hi) = (cell.range_min().raw(), cell.range_max().raw());
        let first = gallop::lower_bound_from(&finer.keys, lo, *cursor);
        let children = finer.keys[first..].iter().take(4);
        let end = first + children.take_while(|&&k| k <= hi).count();
        *cursor = end;
        (first < end).then_some((finer, first..end))
    }

    /// The canonical record of the aligned `cell`: the in-order fold of
    /// its children's records, read from the layer of its level — or, at
    /// an odd level, folded from the child records `locate` finds into
    /// `cursors`' scratch record, as `Layer::fold_to` folds them. `None`
    /// and the order `cursors` needs are `locate`'s.
    pub(crate) fn record_of<'a>(
        &'a self,
        cell: CellId,
        cursors: &'a mut Cursors,
    ) -> Option<RecordRef<'a>> {
        let (layer, group) = self.locate(cell, cursors)?;
        if layer.level == cell.level() {
            return Some(layer.record(group.start));
        }
        let scratch = &mut cursors.scratch;
        scratch.reset(cell.level(), layer.n_cols);
        scratch.push_fold(layer, group);
        Some(scratch.record(0))
    }

    /// COUNT: number of points inside `polygon`.
    pub fn count(&self, polygon: &Polygon) -> (u64, QueryStats) {
        let covering = self.cover(polygon);
        self.count_covering(&covering)
    }

    /// COUNT over a precomputed covering: per cell, SELECT's search
    /// (`GeoBlock::locate`), then the sum of the counts it found — the
    /// cell's record's count, or at an odd level its ≤ 4 children's.
    pub fn count_covering(&self, covering: &CellUnion) -> (u64, QueryStats) {
        let mut stats = QueryStats::default();
        let mut total = 0u64;
        let mut cursors = Cursors::new();
        let cells = self.overlapping(covering);
        stats.query_cells = cells.len();
        for &qcell in cells {
            stats.searches += 1;
            if let Some((layer, group)) = self.locate(qcell, &mut cursors) {
                total += layer.counts[group].iter().sum::<u64>();
                stats.cells_combined += 1;
            }
        }
        (total, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use gb_cell::Grid;
    use gb_data::{
        extract, AggFunc, AggRequest, CleaningRules, ColumnDef, Filter, RawTable, Rows, Schema,
    };
    use gb_geom::{Point, Rect};

    /// Deterministic scattered base data over [0,100)².
    fn base_data(n: usize) -> gb_data::BaseTable {
        let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v"), ColumnDef::f64("w")]));
        let mut state = 42u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 16) % 10_000) as f64 / 100.0
        };
        for i in 0..n {
            raw.push_row(Point::new(next(), next()), &[i as f64, (i % 7) as f64]);
        }
        let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
        extract(&raw, grid, &CleaningRules::none(), None).base
    }

    fn spec() -> AggSpec {
        AggSpec::new(vec![
            AggRequest::new(AggFunc::Count, 0),
            AggRequest::new(AggFunc::Sum, 0),
            AggRequest::new(AggFunc::Min, 0),
            AggRequest::new(AggFunc::Max, 1),
            AggRequest::new(AggFunc::Avg, 1),
        ])
    }

    /// Exact aggregation over the covering region (covering-level ground
    /// truth: what a correct GeoBlock must return bit-for-bit).
    fn covering_truth(
        base: &gb_data::BaseTable,
        block: &GeoBlock,
        poly: &Polygon,
        s: &AggSpec,
    ) -> AggResult {
        let covering = block.cover(poly);
        let plan = AggPlan::compile(s);
        let mut acc = AggResult::new(s);
        for row in 0..base.num_rows() {
            let leaf = gb_cell::CellId::from_raw(base.keys()[row]);
            if covering.contains(leaf) {
                acc.combine_tuple_plan(&plan, |c| base.value_f64(row, c));
            }
        }
        acc.finalize(s)
    }

    fn diamond(cx: f64, cy: f64, r: f64) -> Polygon {
        Polygon::new(vec![
            Point::new(cx, cy - r),
            Point::new(cx + r, cy),
            Point::new(cx, cy + r),
            Point::new(cx - r, cy),
        ])
    }

    #[test]
    fn select_matches_covering_ground_truth() {
        let base = base_data(4000);
        let (block, _) = build(&base, 8, &Filter::all());
        let s = spec();
        for (cx, cy, r) in [(50.0, 50.0, 20.0), (10.0, 10.0, 9.0), (80.0, 30.0, 15.0)] {
            let poly = diamond(cx, cy, r);
            let (got, stats) = block.select(&poly, &s);
            let want = covering_truth(&base, &block, &poly, &s);
            assert!(
                got.approx_eq(&want, 1e-9),
                "poly ({cx},{cy},{r}): {got:?} vs {want:?}"
            );
            assert!(stats.query_cells > 0);
        }
    }

    #[test]
    fn select_and_count_are_bit_identical_to_the_reference() {
        let base = base_data(6000);
        for level in [6u8, 9, 11] {
            let (block, _) = build(&base, level, &Filter::all());
            let s = spec();
            for (cx, cy, r) in [(50.0, 50.0, 35.0), (30.0, 60.0, 12.0), (85.0, 15.0, 8.0)] {
                let poly = diamond(cx, cy, r);
                let covering = block.cover(&poly);
                let (fast, _) = block.select(&poly, &s);
                let naive = crate::reference::select_covering(&block, &covering, &s);
                assert!(
                    fast.approx_eq(&naive, 0.0),
                    "level {level} poly ({cx},{cy},{r}): {fast:?} vs {naive:?}"
                );
                assert_eq!(
                    block.count(&poly).0,
                    crate::reference::count_covering(&block, &covering)
                );
            }
        }
    }

    /// Block records under `covering` — what a range scan would combine.
    fn records_under(block: &GeoBlock, covering: &CellUnion) -> usize {
        (0..block.num_cells())
            .filter(|&i| covering.contains(block.cell_at(i)))
            .count()
    }

    #[test]
    fn select_combines_at_most_one_record_per_covering_cell() {
        // The acceptance bound of the pyramid path: every covering cell is
        // answered by at most one combined record, so `cells_combined`
        // never exceeds the (pruned) covering size — while a range scan
        // expands coarse interior cells into many records.
        let base = base_data(8000);
        let (block, _) = build(&base, 10, &Filter::all());
        let poly = diamond(50.0, 50.0, 38.0);
        let (_, fast) = block.select(&poly, &spec());
        assert!(
            fast.cells_combined <= fast.query_cells,
            "pyramid combined {} records over {} covering cells",
            fast.cells_combined,
            fast.query_cells
        );
        let scanned = records_under(&block, &block.cover(&poly));
        assert!(
            scanned > 2 * fast.cells_combined,
            "scan {scanned} vs pyramid {} — workload not coarse enough to matter",
            fast.cells_combined
        );
    }

    #[test]
    fn record_of_answers_any_probe_order_with_a_fresh_cursor() {
        // Every aligned cell at or above the block level, coarsest level
        // last — the opposite of a covering's order — and the cells below
        // the block level, which have no record. An even and an odd block
        // level: the odd levels above either are folded on demand, and
        // COUNT sums their children's counts from the same search.
        let base = base_data(2000);
        let s = spec();
        let plan = AggPlan::compile(&s);
        for block_level in [6u8, 7] {
            let (block, _) = build(&base, block_level, &Filter::all());
            for i in (0..block.num_cells()).rev() {
                let cell = block.cell_at(i);
                for level in (0..=cell.level()).rev() {
                    let ancestor = cell.parent_at(level);
                    let mut fresh = Cursors::new();
                    let record = block
                        .record_of(ancestor, &mut fresh)
                        .expect("an ancestor of a stored cell has data");
                    let mut got = AggResult::new(&s);
                    record.combine_into(&plan, &mut got);
                    let covering = CellUnion::from_cells(vec![ancestor]);
                    let want = crate::reference::select_covering(&block, &covering, &s);
                    assert!(got.finalize(&s).approx_eq(&want, 0.0), "{ancestor:?}");
                    assert_eq!(
                        block.count_covering(&covering).0,
                        crate::reference::count_covering(&block, &covering),
                        "{ancestor:?}"
                    );
                }
                let finer = cell.child(0);
                assert!(block.record_of(finer, &mut Cursors::new()).is_none());
                let finer = CellUnion::from_cells(vec![finer]);
                assert_eq!(block.count_covering(&finer).0, 0);
            }
        }
    }

    #[test]
    fn count_equals_select_count() {
        let base = base_data(5000);
        let (block, _) = build(&base, 8, &Filter::all());
        let s = AggSpec::count_only();
        for (cx, cy, r) in [(50.0, 50.0, 30.0), (20.0, 20.0, 5.0), (90.0, 90.0, 9.0)] {
            let poly = diamond(cx, cy, r);
            let (sel, _) = block.select(&poly, &s);
            let (cnt, _) = block.count(&poly);
            assert_eq!(sel.count, cnt, "poly ({cx},{cy},{r})");
        }
    }

    #[test]
    fn count_visits_fewer_aggregates_than_a_range_scan() {
        let base = base_data(8000);
        let (block, _) = build(&base, 9, &Filter::all());
        let poly = diamond(50.0, 50.0, 35.0);
        let scanned = records_under(&block, &block.cover(&poly));
        let (_, cnt_stats) = block.count(&poly);
        assert!(
            cnt_stats.cells_combined < scanned / 2,
            "count {} vs range scan {scanned}",
            cnt_stats.cells_combined
        );
    }

    #[test]
    fn whole_domain_query_equals_global_header() {
        let base = base_data(2000);
        let (block, _) = build(&base, 8, &Filter::all());
        let s = spec();
        let everything = Polygon::rectangle(Rect::from_bounds(-1.0, -1.0, 101.0, 101.0));
        let (got, _) = block.select(&everything, &s);
        let global = block.global_aggregate(&s);
        assert!(got.approx_eq(&global, 1e-9), "{got:?} vs {global:?}");
        let (cnt, _) = block.count(&everything);
        assert_eq!(cnt, 2000);
    }

    #[test]
    fn disjoint_polygon_yields_empty() {
        let base = base_data(1000);
        let (block, _) = build(&base, 8, &Filter::all());
        // Inside the domain but in a data-free corner? The scatter covers
        // everything, so use a polygon outside the domain instead.
        let poly = diamond(500.0, 500.0, 10.0);
        let (res, stats) = block.select(&poly, &spec());
        assert_eq!(res.count, 0);
        assert_eq!(stats.query_cells, 0);
        assert_eq!(block.count(&poly).0, 0);
    }

    #[test]
    fn covering_count_is_superset_of_exact_count() {
        // The covering only over-approximates (false positives, §4.3).
        let base = base_data(4000);
        let (block, _) = build(&base, 8, &Filter::all());
        let poly = diamond(50.0, 50.0, 18.0);
        let exact = (0..base.num_rows())
            .filter(|&r| poly.contains_point(base.location(r)))
            .count() as u64;
        let (cnt, _) = block.count(&poly);
        assert!(cnt >= exact, "covering count {cnt} < exact {exact}");
    }

    #[test]
    fn finer_blocks_reduce_count_error() {
        let base = base_data(6000);
        let poly = diamond(50.0, 50.0, 22.0);
        let exact = (0..base.num_rows())
            .filter(|&r| poly.contains_point(base.location(r)))
            .count() as f64;
        let mut errs = Vec::new();
        for level in [5u8, 7, 9, 11] {
            let (block, _) = build(&base, level, &Filter::all());
            let (cnt, _) = block.count(&poly);
            errs.push((cnt as f64 - exact).abs() / exact);
        }
        // Monotone-ish decrease; require strict improvement end-to-end.
        assert!(
            errs.last().unwrap() < errs.first().unwrap(),
            "errors {errs:?}"
        );
        assert!(errs.last().unwrap() < &0.1, "final error {:?}", errs.last());
    }

    #[test]
    fn query_on_filtered_block() {
        let base = base_data(3000);
        let f = Filter::on(&base, "w", gb_data::CmpOp::Lt, 3.0).unwrap();
        let (block, _) = build(&base, 8, &f);
        let poly = diamond(50.0, 50.0, 40.0);
        let covering = block.cover(&poly);
        // Ground truth over filtered rows within the covering.
        let mut want = 0u64;
        for row in 0..base.num_rows() {
            if base.value_f64(row, 1) < 3.0
                && covering.contains(gb_cell::CellId::from_raw(base.keys()[row]))
            {
                want += 1;
            }
        }
        assert_eq!(block.count(&poly).0, want);
    }
}
