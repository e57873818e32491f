//! SELECT and COUNT query evaluation (§3.5, Listings 1 & 2, Figure 6),
//! accelerated by the multi-resolution aggregate pyramid.
//!
//! Both queries start identically: the polygon is approximated by an
//! error-bounded cell covering (boundary cells at the block level, interior
//! cells possibly coarser), the covering is pruned against the global
//! header, and each covering cell is answered by one of two tiers, chosen
//! by its level alone:
//!
//! 1. **Pyramid lookup** — every covering cell is grid-aligned, so a cell
//!    coarser than the block level is answered by one cursor-resumed
//!    binary search in its pyramid layer and **one** record combine
//!    (`cells_combined` ≤ covering size). Pyramid records are in-order
//!    folds of the block records they cover, so this tier is bit-identical
//!    to the range scan it replaces. Every block carries a pyramid, so
//!    this tier is always available.
//! 2. **Range scan** — the seed algorithm of Listing 1 (one forward scan
//!    per covering cell, cursor-resumed). In production it serves the
//!    block-level covering cells, whose run is at most one record; run
//!    over *every* covering cell it is the reference the pyramid tier is
//!    tested against ([`GeoBlock::select_scan`]).
//!
//! * [`GeoBlock::select`] — the production tiered variant.
//! * [`GeoBlock::select_scan`] — tier 2 only; the `select_ablation` /
//!   `select_pyramid` bench reference.
//! * [`GeoBlock::select_listing1`] — the paper's pseudocode, literally:
//!   every covering cell is first expanded to block-level child cells, each
//!   child is looked up via upper-bound binary search or the successor
//!   check. Kept as an ablation target (`select_ablation` bench).
//! * [`GeoBlock::count`] — Listing 2 over the maintained count prefix:
//!   `prefix[last + 1] − prefix[first]` per covering cell. Unlike the
//!   stored base-data offsets, the prefix is rebuilt by updates, so COUNT
//!   stays O(1) per cell even after batches (no scan fallback).

use crate::aggregate::{AggPlan, AggResult};
use crate::block::GeoBlock;
use crate::gallop;
use gb_cell::{cover_polygon, CellId, CellUnion, CovererOptions, MAX_LEVEL};
use gb_data::AggSpec;
use gb_geom::Polygon;

/// Counters describing one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Cells in the covering (after header pruning).
    pub query_cells: usize,
    /// Cell aggregates folded into the result.
    pub cells_combined: usize,
    /// Binary searches performed.
    pub searches: usize,
}

/// Per-level resume positions for the cursor-resumed searches: covering
/// cells ascend in curve order, so within each pyramid layer (and within
/// the block-level records) every search can start where the previous one
/// of that level ended.
pub(crate) struct Cursors {
    /// Resume position in the block-level record arrays.
    pub(crate) block: usize,
    /// Resume position per pyramid layer.
    levels: [usize; MAX_LEVEL as usize + 1],
}

impl Cursors {
    #[inline]
    pub(crate) fn new() -> Cursors {
        Cursors {
            block: 0,
            levels: [0; MAX_LEVEL as usize + 1],
        }
    }
}

impl GeoBlock {
    /// Compute the error-bounded covering for a query polygon (Figure 6 b/c).
    pub fn cover(&self, polygon: &Polygon) -> CellUnion {
        cover_polygon(&self.grid, polygon, CovererOptions::at_level(self.level))
    }

    /// SELECT: extract `spec`'s aggregates over all points in `polygon`.
    pub fn select(&self, polygon: &Polygon, spec: &AggSpec) -> (AggResult, QueryStats) {
        let covering = self.cover(polygon);
        let (acc, stats) = self.select_covering(&covering, spec);
        (acc.finalize(spec), stats)
    }

    /// SELECT over a precomputed covering, without finalization (the
    /// query-cache layer composes partial results before finalizing).
    pub fn select_covering(&self, covering: &CellUnion, spec: &AggSpec) -> (AggResult, QueryStats) {
        self.select_covering_tiered(covering, spec, true)
    }

    /// SELECT restricted to the range-scan tier — the seed algorithm,
    /// kept as the ablation reference and the ground truth the pyramid
    /// path must match bit-for-bit.
    pub fn select_scan(&self, polygon: &Polygon, spec: &AggSpec) -> (AggResult, QueryStats) {
        let covering = self.cover(polygon);
        let (acc, stats) = self.select_covering_scan(&covering, spec);
        (acc.finalize(spec), stats)
    }

    /// [`GeoBlock::select_scan`] over a precomputed covering.
    pub fn select_covering_scan(
        &self,
        covering: &CellUnion,
        spec: &AggSpec,
    ) -> (AggResult, QueryStats) {
        self.select_covering_tiered(covering, spec, false)
    }

    fn select_covering_tiered(
        &self,
        covering: &CellUnion,
        spec: &AggSpec,
        accelerated: bool,
    ) -> (AggResult, QueryStats) {
        let plan = AggPlan::compile(spec);
        let mut result = AggResult::new(spec);
        let mut scratch = AggResult::new(spec);
        let mut stats = QueryStats::default();
        let mut cursors = Cursors::new();

        for qcell in covering.iter() {
            // Header pre-check (Listing 1 lines 5–6): skip cells outside
            // the block's key range.
            if !self.may_overlap(qcell) {
                continue;
            }
            stats.query_cells += 1;
            if accelerated {
                self.combine_covering_cell(
                    qcell,
                    spec,
                    &plan,
                    &mut scratch,
                    &mut result,
                    &mut stats,
                    &mut cursors,
                );
            } else {
                self.scan_covering_cell(
                    qcell,
                    spec,
                    &plan,
                    &mut scratch,
                    &mut result,
                    &mut stats,
                    &mut cursors,
                );
            }
        }
        (result, stats)
    }

    /// Fold one covering cell into `result`: a pyramid lookup for cells
    /// coarser than the block level, a scan of the (≤ 1) record otherwise.
    /// Shared by the plain SELECT path and the cache-adapted path in
    /// [`crate::qc`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn combine_covering_cell(
        &self,
        qcell: CellId,
        spec: &AggSpec,
        plan: &AggPlan,
        scratch: &mut AggResult,
        result: &mut AggResult,
        stats: &mut QueryStats,
        cursors: &mut Cursors,
    ) {
        let level = qcell.level();
        if level >= self.level {
            // Block-level covering cell: the run is at most one record.
            self.scan_covering_cell(qcell, spec, plan, scratch, result, stats, cursors);
            return;
        }
        // Exact pyramid lookup at the cell's own level.
        let layer = &self.pyramid.levels[level as usize];
        let c = self.n_cols();
        let from = cursors.levels[level as usize];
        stats.searches += 1;
        let i = gallop::lower_bound_from(&layer.keys, qcell.raw(), from);
        if i < layer.keys.len() && layer.keys[i] == qcell.raw() {
            let base = i * c;
            result.combine_record_plan(
                plan,
                layer.counts[i],
                &layer.mins[base..base + c],
                &layer.maxs[base..base + c],
                &layer.sums[base..base + c],
            );
            stats.cells_combined += 1;
            cursors.levels[level as usize] = i + 1;
        } else {
            // No record ⇒ no data under this covering cell.
            cursors.levels[level as usize] = i;
        }
    }

    /// The range-scan tier: fold `qcell`'s record run into a fresh scratch
    /// accumulator, then merge it into `result`. The two-step fold is what
    /// makes the scan bit-identical to a pyramid lookup: the scratch ends
    /// up bit-equal to the pyramid record (same in-order fold from zero),
    /// and both paths then perform the same single merge.
    #[allow(clippy::too_many_arguments)]
    fn scan_covering_cell(
        &self,
        qcell: CellId,
        spec: &AggSpec,
        plan: &AggPlan,
        scratch: &mut AggResult,
        result: &mut AggResult,
        stats: &mut QueryStats,
        cursors: &mut Cursors,
    ) {
        scratch.reset(spec);
        cursors.block = self.scan_cell_range(qcell, plan, scratch, stats, cursors.block);
        result.merge_plan(plan, scratch);
    }

    /// Fold all cell aggregates inside `qcell` into `result`, scanning
    /// forward from `cursor`. Returns the new cursor.
    #[inline]
    pub(crate) fn scan_cell_range(
        &self,
        qcell: CellId,
        plan: &AggPlan,
        result: &mut AggResult,
        stats: &mut QueryStats,
        cursor: usize,
    ) -> usize {
        let lo_key = qcell.range_min().raw();
        let hi_key = qcell.range_max().raw();
        let mut i = self.lower_bound_from(lo_key, cursor);
        stats.searches += 1;
        let c = self.n_cols();
        while i < self.keys.len() && self.keys[i] <= hi_key {
            let base = i * c;
            result.combine_record_plan(
                plan,
                u64::from(self.counts[i]),
                &self.mins[base..base + c],
                &self.maxs[base..base + c],
                &self.sums[base..base + c],
            );
            stats.cells_combined += 1;
            i += 1;
        }
        i
    }

    /// SELECT following the paper's Listing 1 literally: map each covering
    /// cell to its block-level children and look each child up, exploiting
    /// the stored order via a "last aggregate" successor check.
    ///
    /// Functionally identical to [`GeoBlock::select_scan`]; kept for the
    /// ablation benches. Beware: a coarse interior covering cell expands to
    /// 4^Δ children, so this variant degrades when coverings are coarse —
    /// exactly the degradation the aggregate pyramid removes.
    pub fn select_listing1(&self, polygon: &Polygon, spec: &AggSpec) -> (AggResult, QueryStats) {
        let covering = self.cover(polygon);
        let plan = AggPlan::compile(spec);
        let c = self.n_cols();
        let mut result = AggResult::new(spec);
        let mut stats = QueryStats::default();
        let mut last_agg: Option<usize> = None;
        let combine = |idx: usize, result: &mut AggResult| {
            let base = idx * c;
            result.combine_record_plan(
                &plan,
                u64::from(self.counts[idx]),
                &self.mins[base..base + c],
                &self.maxs[base..base + c],
                &self.sums[base..base + c],
            );
        };

        for qcell in covering.iter() {
            if !self.may_overlap(qcell) {
                continue;
            }
            stats.query_cells += 1;
            // Line 12: split the query cell into block-level children.
            for child in qcell.children_at(self.level.max(qcell.level())) {
                let key = child.raw();
                match last_agg {
                    // Lines 25–28: check the successor of the last hit.
                    Some(last) if last + 1 < self.keys.len() && self.keys[last + 1] == key => {
                        combine(last + 1, &mut result);
                        stats.cells_combined += 1;
                        last_agg = Some(last + 1);
                    }
                    Some(last) if last + 1 < self.keys.len() && self.keys[last + 1] > key => {
                        // Successor is further along the curve: this child
                        // is empty; keep the cursor.
                    }
                    _ => {
                        // Lines 19–24: upper-bound binary search, then the
                        // predecessor is the candidate aggregate.
                        stats.searches += 1;
                        let ub = self.keys.partition_point(|&k| k <= key);
                        if ub > 0 && self.keys[ub - 1] == key {
                            combine(ub - 1, &mut result);
                            stats.cells_combined += 1;
                            last_agg = Some(ub - 1);
                        }
                    }
                }
            }
        }
        (result.finalize(spec), stats)
    }

    /// COUNT: number of points inside `polygon` (Listing 2).
    pub fn count(&self, polygon: &Polygon) -> (u64, QueryStats) {
        let covering = self.cover(polygon);
        self.count_covering(&covering)
    }

    /// COUNT over a precomputed covering: per cell, locate the first and
    /// last contained aggregate (both searches resuming from the previous
    /// cell's end — coverings and keys are sorted the same way) and take
    /// the O(1) difference over the maintained count prefix. The prefix is
    /// rebuilt by updates, so there is no post-update scan fallback.
    pub fn count_covering(&self, covering: &CellUnion) -> (u64, QueryStats) {
        let mut stats = QueryStats::default();
        let mut total = 0u64;
        let mut cursor = 0usize;

        for qcell in covering.iter() {
            if !self.may_overlap(qcell) {
                continue;
            }
            stats.query_cells += 1;
            // First/last block-level child of the covering cell (lines 5–6
            // of Listing 2) — as raw key bounds these are just the cell's
            // leaf range restricted to block-level ids.
            let lo_key = qcell.range_min().raw();
            let hi_key = qcell.range_max().raw();

            stats.searches += 2;
            let first = self.lower_bound_from(lo_key, cursor);
            if first == self.keys.len() || self.keys[first] > hi_key {
                cursor = first;
                continue; // no aggregates inside this covering cell
            }
            let end = self.upper_bound_from(hi_key, first);
            cursor = end;

            // Line 11, over the maintained prefix:
            // prefix[last + 1] − prefix[first].
            total += self.prefix_counts[end] - self.prefix_counts[first];
            stats.cells_combined += 2;
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
        let mut acc = AggResult::new(s);
        for row in 0..base.num_rows() {
            let leaf = gb_cell::CellId::from_raw(base.keys()[row]);
            if covering.contains(leaf) {
                acc.combine_tuple(s, |c| base.value_f64(row, c));
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
    fn pyramid_select_is_bit_identical_to_scan() {
        let base = base_data(6000);
        for level in [6u8, 9, 11] {
            let (block, _) = build(&base, level, &Filter::all());
            let s = spec();
            for (cx, cy, r) in [(50.0, 50.0, 35.0), (30.0, 60.0, 12.0), (85.0, 15.0, 8.0)] {
                let poly = diamond(cx, cy, r);
                let (fast, _) = block.select(&poly, &s);
                let (scan, _) = block.select_scan(&poly, &s);
                assert!(
                    fast.approx_eq(&scan, 0.0),
                    "level {level} poly ({cx},{cy},{r}): {fast:?} vs {scan:?}"
                );
            }
        }
    }

    #[test]
    fn pyramid_combines_at_most_one_record_per_covering_cell() {
        // The acceptance bound of the pyramid path: every covering cell is
        // answered by at most one combined record, so `cells_combined`
        // never exceeds the (pruned) covering size — while the scan path
        // expands coarse interior cells into many records.
        let base = base_data(8000);
        let (block, _) = build(&base, 10, &Filter::all());
        let poly = diamond(50.0, 50.0, 38.0);
        let s = spec();
        let (_, fast) = block.select(&poly, &s);
        assert!(
            fast.cells_combined <= fast.query_cells,
            "pyramid combined {} records over {} covering cells",
            fast.cells_combined,
            fast.query_cells
        );
        let (_, scan) = block.select_scan(&poly, &s);
        assert!(
            scan.cells_combined > 2 * fast.cells_combined,
            "scan {} vs pyramid {} — workload not coarse enough to matter",
            scan.cells_combined,
            fast.cells_combined
        );
    }

    #[test]
    fn listing1_variant_agrees_with_range_scan() {
        let base = base_data(3000);
        let (block, _) = build(&base, 7, &Filter::all());
        let s = spec();
        for (cx, cy, r) in [(50.0, 50.0, 25.0), (25.0, 70.0, 12.0)] {
            let poly = diamond(cx, cy, r);
            let (a, _) = block.select(&poly, &s);
            let (b, _) = block.select_listing1(&poly, &s);
            assert!(a.approx_eq(&b, 1e-9), "{a:?} vs {b:?}");
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
    fn count_visits_fewer_aggregates_than_scan_select() {
        let base = base_data(8000);
        let (block, _) = build(&base, 9, &Filter::all());
        let poly = diamond(50.0, 50.0, 35.0);
        let (_, sel_stats) = block.select_scan(&poly, &AggSpec::count_only());
        let (_, cnt_stats) = block.count(&poly);
        assert!(
            cnt_stats.cells_combined < sel_stats.cells_combined / 2,
            "count {} vs scan select {}",
            cnt_stats.cells_combined,
            sel_stats.cells_combined
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
