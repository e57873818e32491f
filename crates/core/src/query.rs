//! SELECT and COUNT query evaluation (§3.5, Listings 1 & 2, Figure 6)
//! over the block's layers.
//!
//! Both queries start identically: the polygon is approximated by an
//! error-bounded cell covering (boundary cells at the block level, interior
//! cells possibly coarser) and the covering is pruned against the block's
//! key extent — one run of it, [`GeoBlock::overlapping`]. Every covering
//! cell is grid-aligned, and so is a contiguous range of stored records
//! (Listing 1's range, read from the coarsest layer that has it): its own
//! record in the [`Layer`] of its level (the block level and every even
//! level above it), or at an odd level the ≤ 4 records of its children in
//! the layer one level finer. Both queries run one loop, which finds that
//! range with one cursor-resumed search per covering cell
//! (`GeoBlock::locate`, i.e. `Layer::under`), and then:
//!
//! * [`GeoBlock::select`] / [`GeoBlock::select_covering`] combine every
//!   record of the range straight into the result through the compiled
//!   plan — stored records only, nothing folded at query time. This is the
//!   paper's BlockQC (§3.6) with every aligned cell cached: the pyramid
//!   holds the record a hot coarse cell would be cached with, for every
//!   cell.
//! * [`GeoBlock::count`] / [`GeoBlock::count_covering`] add the range's
//!   counts. This replaces Listing 2's two searches over per-cell tuple
//!   offsets: the layers already store every cell's count.
//!
//! The naive oracle both are tested against — the same fold tree walked
//! from the block records by bisection per covering cell, with no layer
//! or cursor — is [`crate::reference`]. The paper's own Block, which
//! folds every block-level record in a covering cell's range
//! ([`GeoBlock::records_under`]), is `gb_baselines::ScanBlockIndex`.

use crate::aggregate::{AggPlan, AggResult, RecordRef};
use crate::block::GeoBlock;
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
    /// Covering cells with data under them: one range of stored records
    /// read into the result each, for SELECT and COUNT alike.
    pub cells_combined: usize,
    /// Binary searches performed.
    pub searches: usize,
}

/// Per-layer resume positions for the cursor-resumed searches, indexed by
/// the searched layer's level: covering cells are disjoint and ascend in
/// curve order, so every search in a layer can start where the previous
/// one in that layer ended — a search for a cell of the layer's level, or
/// for one of the odd level above it that the block does not keep.
type Cursors = [usize; MAX_LEVEL as usize + 1];

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
    /// Every record `GeoBlock::ranges` reads combines into the result in
    /// key order.
    pub fn select_covering(&self, covering: &CellUnion, spec: &AggSpec) -> (AggResult, QueryStats) {
        let plan = AggPlan::compile(spec);
        let mut result = AggResult::new(spec);
        let stats = self.ranges(covering, |layer, range| {
            for i in range {
                layer.record(i).combine_into(&plan, &mut result);
            }
        });
        (result, stats)
    }

    /// The one loop of SELECT and COUNT: per covering cell that may
    /// overlap the block, one search (`GeoBlock::locate`), and `visit` of
    /// the records it found unless there are none.
    fn ranges(
        &self,
        covering: &CellUnion,
        mut visit: impl FnMut(&Layer, Range<usize>),
    ) -> QueryStats {
        let cells = self.overlapping(covering);
        let mut stats = QueryStats {
            query_cells: cells.len(),
            ..QueryStats::default()
        };
        let mut cursors = Cursors::default();
        for &qcell in cells {
            stats.searches += 1;
            let found = self.locate(qcell, &mut cursors);
            if let Some((layer, range)) = found.filter(|(_, range)| !range.is_empty()) {
                visit(layer, range);
                stats.cells_combined += 1;
            }
        }
        stats
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

    /// The stored records that make up the aligned `cell`: the layer
    /// searched and the range of it under `cell` — the one record of the
    /// cell's level, or at an odd level the block does not keep, the ≤ 4
    /// child records in the layer below. `None` for a cell finer than the
    /// block level, which has no record of its own. The search gallops
    /// from where `cursors` left the searched layer, so the cells must be
    /// asked for in ascending, disjoint order (`Layer::under`).
    fn locate(&self, cell: CellId, cursors: &mut Cursors) -> Option<(&Layer, Range<usize>)> {
        let layer = self
            .layer_at(cell.level())
            .or_else(|| self.layer_at(cell.level() + 1))?;
        Some((
            layer,
            layer.under(cell, &mut cursors[usize::from(layer.level)]),
        ))
    }

    /// COUNT: number of points inside `polygon`.
    pub fn count(&self, polygon: &Polygon) -> (u64, QueryStats) {
        let covering = self.cover(polygon);
        self.count_covering(&covering)
    }

    /// COUNT over a precomputed covering: SELECT's loop, adding the
    /// counts of the records it reads.
    pub fn count_covering(&self, covering: &CellUnion) -> (u64, QueryStats) {
        let mut total = 0u64;
        let stats = self.ranges(covering, |layer, range| {
            total += layer.counts[range].iter().sum::<u64>();
        });
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
            raw.push_row(
                Point::new(next(), next()),
                &[i as f64 / 7.0, (i % 7) as f64],
            );
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
    fn one_cell_coverings_answer_in_any_probe_order() {
        // Every aligned cell at or above the block level, coarsest level
        // last — the opposite of a covering's order — and the cells below
        // the block level, which have no record. An even and an odd block
        // level: the odd levels above either are read as their children's
        // records, which SELECT combines and COUNT sums from one search.
        let base = base_data(2000);
        let s = spec();
        for block_level in [6u8, 7] {
            let (block, _) = build(&base, block_level, &Filter::all());
            for i in (0..block.num_cells()).rev() {
                let cell = block.cell_at(i);
                for level in (0..=cell.level()).rev() {
                    let covering = CellUnion::from_cells(vec![cell.parent_at(level)]);
                    let (got, stats) = block.select_covering(&covering, &s);
                    let want = crate::reference::select_covering(&block, &covering, &s);
                    assert!(got.finalize(&s).approx_eq(&want, 0.0), "{covering:?}");
                    assert_eq!(stats.cells_combined, 1, "{covering:?}");
                    assert_eq!(
                        block.count_covering(&covering).0,
                        crate::reference::count_covering(&block, &covering),
                        "{covering:?}"
                    );
                }
                let finer = CellUnion::from_cells(vec![cell.child(0)]);
                assert_eq!(block.select_covering(&finer, &s).1.cells_combined, 0);
                assert_eq!(block.count_covering(&finer).0, 0);
            }
        }
    }

    #[test]
    fn an_odd_level_cell_combines_its_stored_children_in_key_order() {
        // Block level 8 keeps level 6 and 8, not 7: a level-7 cell is its
        // ≤ 4 children's records, each combined into the result as stored.
        // Fractional values put the association into the low bits: folding
        // the children first and combining the fold differs from this in
        // some case here, which the last assertion checks.
        let base = base_data(6000);
        let (block, _) = build(&base, 8, &Filter::all());
        let s = AggSpec::new(vec![
            AggRequest::new(AggFunc::Sum, 0),
            AggRequest::new(AggFunc::Avg, 0),
            AggRequest::new(AggFunc::Min, 0),
            AggRequest::new(AggFunc::Max, 0),
        ]);
        let plan = AggPlan::compile(&s);
        let mut association_shows = false;
        for i in 1..block.num_cells() {
            let odd = block.cell_at(i).parent_at(7);
            let before = block.cell_at(i - 1);
            if odd.contains(before) || block.records_under(odd).count() < 2 {
                continue;
            }
            for covering in [vec![odd], vec![before, odd]] {
                let covering = CellUnion::from_cells(covering);
                let mut want = AggResult::new(&s);
                for qcell in covering.iter() {
                    for record in block.records_under(qcell) {
                        record.combine_into(&plan, &mut want);
                    }
                }
                let (got, _) = block.select_covering(&covering, &s);
                assert_eq!(got.values().len(), want.values().len());
                for (g, w) in got.values().iter().zip(want.values()) {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{covering:?}: {got:?} vs {want:?}"
                    );
                }
                assert_eq!(got.count, want.count);
            }
            // The sum a fold of the children before the combine would give.
            let prev = block.records_under(before).map(|r| r.sum(0)).sum::<f64>();
            let sums: Vec<f64> = block.records_under(odd).map(|r| r.sum(0)).collect();
            let folded_first = prev + sums[1..].iter().fold(sums[0], |acc, x| acc + x);
            let one_at_a_time = sums.iter().fold(prev, |acc, x| acc + x);
            association_shows |= folded_first.to_bits() != one_at_a_time.to_bits();
        }
        assert!(
            association_shows,
            "no covering tells the two associations apart"
        );
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
