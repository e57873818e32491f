//! Batch updates for GeoBlocks (§5 "Updates").
//!
//! "The layout of GeoBlocks allows us to integrate updates easily, as long
//! as a cell aggregate for the region of the newly arriving tuple already
//! exists. […] Only if tuples arrive for a new, previously unaggregated
//! region, we have to rebuild the aggregate layout, as we rely on the cell
//! aggregates to be sorted."
//!
//! Both paths are one pass, `GeoBlock::applied`: one forward cursor walks
//! the stored records once and writes the next stored layer, allocated
//! once at its exact size. An untouched record is copied; a touched cell's
//! record is its old one — or, for a new cell, the empty record, spliced
//! in at its sorted position — with the batch's tuples added in batch
//! order. The records are all a batch writes: every coarser layer — the
//! root record, the global header, included — is folded again from them
//! (`GeoBlock::refresh_derived`, the funnel every producer of a block ends
//! in), so SELECT and COUNT read one record per covering cell and the
//! header never drifts from the records.
//!
//! Both entry points, [`GeoBlock::apply_updates`] and
//! [`crate::GeoBlockEngine::apply_updates`], publish that block, and one
//! admission rule guards both: every row has one value per column, is
//! finite, and lies inside the grid's closed domain — the grid clamps, so
//! a tuple outside it would be folded into a border cell and break the
//! §3.2 error bound. A batch with one bad row is rejected whole, before
//! anything changes. The engine keeps no record beside the block, so
//! publishing the block is the whole update.

use crate::api::{check_update_row, GbError};
use crate::block::GeoBlock;
use crate::layer::Layer;
use gb_cell::CellId;
use gb_geom::Point;

/// A batch of new tuples: location plus one value per schema column.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    pub rows: Vec<(Point, Vec<f64>)>,
}

impl UpdateBatch {
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    pub fn push(&mut self, location: Point, values: Vec<f64>) {
        self.rows.push((location, values));
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// What one batch application did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Tuples folded into existing cell aggregates.
    pub in_place: usize,
    /// Tuples that created new cell aggregates (layout rebuild path).
    pub new_cells: usize,
}

impl GeoBlock {
    /// Apply a batch of new tuples. A batch with a row of the wrong arity,
    /// a non-finite location or value, or a location outside the grid's
    /// domain is rejected whole with a typed `BadRequest`, and the block is
    /// left as it was.
    pub fn apply_updates(&mut self, batch: &UpdateBatch) -> Result<UpdateReport, GbError> {
        self.check_batch(batch)?;
        if batch.is_empty() {
            return Ok(UpdateReport::default());
        }
        let (next, report) = self.applied(batch);
        *self = next;
        Ok(report)
    }

    /// The admission rule of an update batch, checked before anything
    /// mutates — by [`GeoBlock::apply_updates`], and by the engine before
    /// it takes the publisher mutex, so a bad batch writes nothing.
    pub(crate) fn check_batch(&self, batch: &UpdateBatch) -> Result<(), GbError> {
        let (n_cols, domain) = (self.schema.len(), self.grid.domain());
        for (i, (location, values)) in batch.rows.iter().enumerate() {
            if values.len() != n_cols {
                return Err(GbError::bad_request(format!(
                    "update row {i} has {} values, schema has {n_cols} columns",
                    values.len()
                )));
            }
            check_update_row(*location, values)?;
            // Closed: a tuple on the domain's edge belongs to the border
            // cell the grid maps it to (`extract` keeps such rows too).
            if !domain.contains_point(*location) {
                return Err(GbError::bad_request(format!(
                    "update row {i} location is outside the grid domain"
                )));
            }
        }
        Ok(())
    }

    /// The block this one becomes with `batch`, which `check_batch`
    /// admitted, folded in, and what the batch did; `self` is untouched.
    /// Every touched cell follows one rule: its old record, or
    /// `push_empty`'s, plus the batch's tuples in batch order.
    pub(crate) fn applied(&self, batch: &UpdateBatch) -> (GeoBlock, UpdateReport) {
        let (old, level) = (self.records(), self.level());
        // Sorted (cell, row) pairs: each cell's rows are a run in batch order.
        let mut touched: Vec<(CellId, usize)> = batch
            .rows
            .iter()
            .enumerate()
            .map(|(row, (at, _))| (self.grid.cell_for_point(*at, level), row))
            .collect();
        touched.sort_unstable();
        // Per touched cell, by one forward cursor over `old`: its rows, the
        // untouched records before it, and its old record if it has one.
        let runs = || {
            let mut cursor = 0;
            touched.chunk_by(|a, b| a.0 == b.0).filter_map(move |run| {
                let &(cell, _) = run.first()?;
                let from = cursor;
                let hit = old.under(cell, &mut cursor);
                Some((cell, run, from..hit.start, hit))
            })
        };
        let fresh = runs().filter(|(.., hit)| hit.is_empty()).count();
        let mut next = Layer::with_capacity(level, old.n_cols, old.num_cells() + fresh);
        let mut report = UpdateReport::default();
        for (cell, run, untouched, hit) in runs() {
            next.extend_from(old, untouched);
            if hit.is_empty() {
                next.push_empty(cell.raw());
                report.new_cells += run.len();
            } else {
                next.extend_from(old, hit);
                report.in_place += run.len();
            }
            let at = next.num_cells() - 1;
            for &(_, row) in run {
                next.add_tuple(at, |col| batch.rows[row].1[col]);
            }
        }
        next.extend_from(old, next.num_cells() - fresh..old.num_cells());
        // Refolded, not patched: see "Invalidation" in `DESIGN.md`.
        let mut block = GeoBlock::from_records(self.grid, self.schema.clone(), next);
        block.refresh_derived();
        (block, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use crate::AggResult;
    use gb_cell::Grid;
    use gb_data::{
        extract, AggFunc, AggRequest, AggSpec, CleaningRules, ColumnDef, Filter, RawTable, Schema,
    };
    use gb_geom::{Polygon, Rect};

    fn base_data(n: usize) -> gb_data::BaseTable {
        let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v")]));
        let mut state = 77u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Confine to the left half so the right half is "new region".
            ((state >> 16) % 5_000) as f64 / 100.0
        };
        for i in 0..n {
            raw.push_row(Point::new(next(), next()), &[i as f64]);
        }
        let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
        extract(&raw, grid, &CleaningRules::none(), None).base
    }

    fn whole_domain() -> Polygon {
        Polygon::rectangle(Rect::from_bounds(-1.0, -1.0, 101.0, 101.0))
    }

    #[test]
    fn in_place_update_changes_aggregates() {
        let base = base_data(2000);
        let (mut block, _) = build(&base, 6, &Filter::all());
        let before = block.num_cells();
        // Update at the location of an existing row, so its block cell is
        // guaranteed to be occupied.
        use gb_data::Rows;
        let mut batch = UpdateBatch::new();
        batch.push(base.location(0), vec![123_456.0]);
        let report = block.apply_updates(&batch).expect("valid batch");
        assert_eq!(report.in_place, 1);
        assert_eq!(report.new_cells, 0);
        assert_eq!(block.num_cells(), before);
        assert_eq!(block.num_rows(), 2001);
        // The new max is visible in query results.
        let spec = AggSpec::new(vec![gb_data::AggRequest::new(gb_data::AggFunc::Max, 0)]);
        let (res, _) = block.select(&whole_domain(), &spec);
        assert_eq!(res.value(0), Some(123_456.0));
    }

    #[test]
    fn new_region_update_creates_cells() {
        let base = base_data(2000);
        let (mut block, _) = build(&base, 6, &Filter::all());
        let before = block.num_cells();
        let mut batch = UpdateBatch::new();
        // The right half of the domain contains no data.
        batch.push(Point::new(90.0, 90.0), vec![1.0]);
        batch.push(Point::new(90.1, 90.1), vec![2.0]);
        batch.push(Point::new(75.0, 20.0), vec![3.0]);
        let report = block.apply_updates(&batch).expect("valid batch");
        assert_eq!(report.new_cells, 3);
        assert!(block.num_cells() > before);
        block.check_invariants();
        let (cnt, _) = block.count(&whole_domain());
        assert_eq!(cnt, 2003);
    }

    #[test]
    fn count_falls_back_after_updates() {
        let base = base_data(3000);
        let (mut block, _) = build(&base, 8, &Filter::all());
        let poly = Polygon::rectangle(Rect::from_bounds(0.0, 0.0, 50.0, 50.0));
        let (before, _) = block.count(&poly);
        let mut batch = UpdateBatch::new();
        batch.push(Point::new(25.0, 25.0), vec![0.0]);
        block.apply_updates(&batch).expect("valid batch");
        let (after, _) = block.count(&poly);
        assert_eq!(after, before + 1);
    }

    #[test]
    fn select_equals_count_after_mixed_updates() {
        let base = base_data(2500);
        let (mut block, _) = build(&base, 7, &Filter::all());
        let mut batch = UpdateBatch::new();
        for i in 0..50 {
            let x = (i % 10) as f64 * 9.9;
            let y = (i / 10) as f64 * 19.0;
            batch.push(Point::new(x, y), vec![i as f64]);
        }
        block.apply_updates(&batch).expect("valid batch");
        block.check_invariants();
        let spec = AggSpec::count_only();
        let (sel, _) = block.select(&whole_domain(), &spec);
        let (cnt, _) = block.count(&whole_domain());
        assert_eq!(sel.count, cnt);
        assert_eq!(cnt, 2550);
    }

    #[test]
    fn count_covering_fallback_after_mixed_batches() {
        // Two batches mixing both §5 paths: the first adds tuples at
        // existing locations (in-place) and in the empty right half (new
        // cells); the second does it again, on a layout that has already
        // been spliced. `count` and `count_covering` run over the rebuilt
        // layers and must agree with hand-counted truth.
        let base = base_data(2500);
        let (mut block, _) = build(&base, 7, &Filter::all());
        use gb_data::Rows;

        let mut b1 = UpdateBatch::new();
        b1.push(base.location(0), vec![10.0]); // in-place
        b1.push(Point::new(80.0, 80.0), vec![20.0]); // new cell
        b1.push(Point::new(60.0, 10.0), vec![30.0]); // new cell
        let r1 = block.apply_updates(&b1).expect("valid batch");
        assert!(r1.in_place >= 1 && r1.new_cells >= 1, "{r1:?}");

        let mut b2 = UpdateBatch::new();
        b2.push(base.location(1), vec![40.0]); // in-place
        b2.push(Point::new(80.05, 80.05), vec![50.0]); // in-place (cell from b1)
        b2.push(Point::new(95.0, 55.0), vec![60.0]); // new cell
        let r2 = block.apply_updates(&b2).expect("valid batch");
        assert!(r2.in_place >= 1 && r2.new_cells >= 1, "{r2:?}");
        block.check_invariants();

        // Ground truth over the covering: base rows + update tuples.
        let grid = *block.grid();
        let update_points = [
            base.location(0),
            Point::new(80.0, 80.0),
            Point::new(60.0, 10.0),
            base.location(1),
            Point::new(80.05, 80.05),
            Point::new(95.0, 55.0),
        ];
        for rect in [
            Rect::from_bounds(-1.0, -1.0, 101.0, 101.0), // everything
            Rect::from_bounds(50.0, 0.0, 100.0, 100.0),  // updated half
            Rect::from_bounds(0.0, 0.0, 49.0, 49.0),     // original data
        ] {
            let poly = Polygon::rectangle(rect);
            let covering = block.cover(&poly);
            let want = (0..base.num_rows())
                .filter(|&r| covering.contains(gb_cell::CellId::from_raw(base.keys()[r])))
                .count() as u64
                + update_points
                    .iter()
                    .filter(|&&p| covering.contains(grid.leaf_for_point(p)))
                    .count() as u64;
            let (cnt, _) = block.count(&poly);
            assert_eq!(cnt, want, "count over {rect:?}");
            let (cov_cnt, _) = block.count_covering(&covering);
            assert_eq!(cov_cnt, want, "count_covering over {rect:?}");
        }
    }

    #[test]
    fn the_producer_leaves_its_source_untouched_and_is_apply_updates() {
        // What the engine does: the next block is produced from the
        // published one, which must not change. Both §5 paths, on a block
        // that has already been spliced once.
        let base = base_data(2500);
        let (mut block, _) = build(&base, 7, &Filter::all());
        let mut first = UpdateBatch::new();
        first.push(Point::new(80.0, 80.0), vec![20.0]);
        block.apply_updates(&first).expect("valid batch");

        use gb_data::Rows;
        let mut batch = UpdateBatch::new();
        batch.push(base.location(3), vec![1.5]); // in place
        batch.push(Point::new(80.01, 80.01), vec![2.5]); // in place, spliced cell
        batch.push(Point::new(60.0, 10.0), vec![3.5]); // new cell

        let source = block.clone();
        let (next, report) = block.applied(&batch);
        assert_eq!(
            report,
            UpdateReport {
                in_place: 2,
                new_cells: 1
            }
        );
        block.check_invariants();
        assert_eq!(block.layers, source.layers);
        assert_eq!(block.content_hash(), source.content_hash());

        let mut whole = block.clone();
        assert_eq!(whole.apply_updates(&batch).expect("valid batch"), report);
        next.check_invariants();
        assert_eq!(next.content_hash(), whole.content_hash());
        assert_eq!(next.layers, whole.layers);
        assert_eq!(block.num_rows() + 3, next.num_rows());
    }

    #[test]
    fn a_touched_cell_is_its_old_record_plus_the_batch_in_batch_order() {
        // Each touched cell's rows are spread over the batch; each sum
        // depends on the order its values are added in.
        let base = base_data(2500);
        let (block, _) = build(&base, 7, &Filter::all());
        let (grid, level) = (*block.grid(), block.level());
        use gb_data::Rows;
        let old = base.location(0);
        // One new cell's rows in ≥ 2 leaves, listed against leaf order.
        let mut spread = [
            Point::new(80.1, 80.1),
            Point::new(80.3, 80.4),
            Point::new(79.8, 80.2),
        ];
        spread.sort_by_key(|&p| std::cmp::Reverse(grid.leaf_for_point(p)));
        let other = Point::new(60.0, 10.0);
        let rows = [
            (old, 0.1),
            (spread[0], 0.1),
            (other, 0.3),
            (old, 0.2),
            (spread[1], 0.2),
            (other, 0.1),
            (old, 0.3),
            (spread[2], 0.3),
        ];
        let mut batch = UpdateBatch::new();
        for &(at, v) in &rows {
            batch.push(at, vec![v]);
        }
        let cell = |p: Point| grid.cell_for_point(p, level);
        assert!(spread.iter().all(|&p| cell(p) == cell(spread[0])));
        assert!(grid.leaf_for_point(spread[0]) > grid.leaf_for_point(spread[2]));
        let cells = [cell(old), cell(spread[0]), cell(other)];
        let records = block.records();
        assert_eq!(records.under(cells[0], &mut 0).len(), 1);
        assert!(cells[1..]
            .iter()
            .all(|&c| records.under(c, &mut 0).is_empty()));

        let (next, report) = block.applied(&batch);
        assert_eq!(
            report,
            UpdateReport {
                in_place: 3,
                new_cells: 5
            }
        );
        next.check_invariants();
        let one = |layer: &Layer, key: CellId| {
            let mut out = Layer::with_capacity(level, 1, 1);
            out.extend_from(layer, layer.under(key, &mut 0));
            out
        };
        for key in cells {
            let mut want = one(records, key);
            if want.num_cells() == 0 {
                want.push_empty(key.raw());
            }
            for (at, v) in rows {
                if cell(at) == key {
                    want.add_tuple(0, |_| v);
                }
            }
            let got = one(next.records(), key);
            assert_eq!(got.num_cells(), 1, "cell {key:?}");
            assert_eq!(got.content_hash(), want.content_hash(), "cell {key:?}");
        }
        // Every other record is the old one, bit for bit.
        assert_eq!(next.num_cells(), block.num_cells() + 2);
        for i in 0..records.num_cells() {
            let key = CellId::from_raw(records.keys[i]);
            if key != cells[0] {
                let (got, want) = (one(next.records(), key), one(records, key));
                assert_eq!(got.content_hash(), want.content_hash(), "cell {key:?}");
            }
        }
    }

    #[test]
    fn the_global_header_is_the_root_record_after_every_batch() {
        // Fractional values put every fold order into the low bits: a
        // header kept apart from the records (patched per tuple) drifts
        // from their fold within a few batches.
        let base = base_data(3000);
        let (mut block, _) = build(&base, 10, &Filter::all());
        let spec = AggSpec::new(
            [
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Avg,
            ]
            .map(|func| AggRequest::new(func, 0))
            .to_vec(),
        );
        let bits = |r: &AggResult| {
            let values: Vec<u64> = r.values().iter().map(|v| v.to_bits()).collect();
            (r.count, values)
        };
        let everything = whole_domain();
        let mut state = 11u64;
        let mut next = move |modulus: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 16) % modulus
        };
        for round in 0..20 {
            let mut batch = UpdateBatch::new();
            for _ in 0..8 {
                let at = Point::new(next(10_000) as f64 / 100.0, next(10_000) as f64 / 100.0);
                batch.push(at, vec![next(1_000_000) as f64 / 7.0 - 1e4]);
            }
            block.apply_updates(&batch).expect("valid batch");

            let global = block.global_aggregate(&spec);
            let (select, _) = block.select(&everything, &spec);
            assert_eq!(bits(&global), bits(&select), "batch {round}");
            let naive = crate::reference::select_covering(&block, &block.cover(&everything), &spec);
            assert!(select.approx_eq(&naive, 0.0), "batch {round}");
            let level = block.level();
            assert_eq!(
                block.content_hash(),
                block.coarsen(level).content_hash(),
                "batch {round}"
            );
        }
    }

    #[test]
    fn a_bad_row_rejects_the_batch_whole() {
        let base = base_data(1500);
        let (mut block, _) = build(&base, 7, &Filter::all());
        let (hash, cells) = (block.content_hash(), block.num_cells());
        for (location, values) in [
            (Point::new(20.0, 20.0), vec![]),
            (Point::new(20.0, 20.0), vec![1.0, 2.0]),
            (Point::new(20.0, 20.0), vec![f64::NAN]),
            (Point::new(20.0, 20.0), vec![f64::NEG_INFINITY]),
            (Point::new(f64::NAN, 20.0), vec![1.0]),
            (Point::new(20.0, f64::INFINITY), vec![1.0]),
            // The grid would clamp these into a border cell.
            (Point::new(1e9, 1e9), vec![1.0]),
            (Point::new(50.0, -0.001), vec![1.0]),
        ] {
            // A good row first: nothing of the batch may land.
            let mut batch = UpdateBatch::new();
            batch.push(Point::new(30.0, 30.0), vec![2.0]);
            batch.push(location, values.clone());
            let err = block.apply_updates(&batch).unwrap_err();
            assert!(
                matches!(err, GbError::Serve(crate::ServeError::BadRequest(_))),
                "{location:?} {values:?}: {err}"
            );
            assert_eq!((block.content_hash(), block.num_cells()), (hash, cells));
        }
        block.check_invariants();
        // The domain is closed: its corners are inside.
        let mut batch = UpdateBatch::new();
        batch.push(Point::new(100.0, 0.0), vec![2.0]);
        batch.push(Point::new(0.0, 100.0), vec![3.0]);
        let report = block.apply_updates(&batch).expect("on the edge is inside");
        assert_eq!(report.in_place + report.new_cells, 2);
        assert_eq!(block.num_rows(), 1502);
        block.check_invariants();
    }

    #[test]
    fn empty_batch_is_noop() {
        let base = base_data(100);
        let (mut block, _) = build(&base, 6, &Filter::all());
        let report = block
            .apply_updates(&UpdateBatch::new())
            .expect("valid batch");
        assert_eq!(report, UpdateReport::default());
        assert_eq!(block.num_rows(), 100);
    }
}
