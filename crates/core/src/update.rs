//! Batch updates for GeoBlocks (§5 "Updates").
//!
//! "The layout of GeoBlocks allows us to integrate updates easily, as long
//! as a cell aggregate for the region of the newly arriving tuple already
//! exists. […] Only if tuples arrive for a new, previously unaggregated
//! region, we have to rebuild the aggregate layout, as we rely on the cell
//! aggregates to be sorted."
//!
//! [`GeoBlock::apply_updates`] implements both paths in one batch pass:
//! tuples hitting existing cells update the aggregates in place; tuples in
//! new regions are aggregated into fresh cell records that are then merged
//! into the sorted layout (one splice). Both paths invalidate the base-data
//! tuple offsets (the base data has not grown with the updates), flagged
//! via `dirty_offsets`; COUNT stays O(1) per covering cell regardless,
//! because it runs over the maintained count prefix, which — like the
//! aggregate pyramid — is rebuilt from the updated records at the end of
//! every batch (`GeoBlock::refresh_derived`, the same funnel every other
//! producer of a block ends in).
//!
//! [`crate::GeoBlockEngine::apply_updates`] additionally overwrites every
//! cached ancestor in the AggregateTrie with the updated block's record of
//! its cell — a single root-to-leaf walk per tuple.

use crate::block::GeoBlock;
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
    /// Apply a batch of new tuples.
    pub fn apply_updates(&mut self, batch: &UpdateBatch) -> UpdateReport {
        let mut report = UpdateReport::default();
        if batch.is_empty() {
            return report;
        }
        let c = self.schema.len();
        // New-region tuples, keyed by their (new) block cell.
        let mut pending: Vec<(u64, u64, Vec<f64>)> = Vec::new(); // (cell, leaf, values)

        for (loc, values) in &batch.rows {
            assert_eq!(values.len(), c, "update row arity mismatch");
            let leaf = self.grid.leaf_for_point(*loc);
            let cell = leaf.parent_at(self.level);
            match self.keys.binary_search(&cell.raw()) {
                Ok(idx) => {
                    report.in_place += 1;
                    self.counts[idx] = self.counts[idx]
                        .checked_add(1)
                        .expect("cell count overflow");
                    self.key_mins[idx] = self.key_mins[idx].min(leaf.raw());
                    self.key_maxs[idx] = self.key_maxs[idx].max(leaf.raw());
                    let base = idx * c;
                    for (col, &v) in values.iter().enumerate() {
                        if v < self.mins[base + col] {
                            self.mins[base + col] = v;
                        }
                        if v > self.maxs[base + col] {
                            self.maxs[base + col] = v;
                        }
                        self.sums[base + col] += v;
                    }
                }
                Err(_) => {
                    report.new_cells += 1;
                    pending.push((cell.raw(), leaf.raw(), values.clone()));
                }
            }
            // Global header always updates.
            self.n_rows += 1;
            for (col, &v) in values.iter().enumerate() {
                if v < self.global_mins[col] {
                    self.global_mins[col] = v;
                }
                if v > self.global_maxs[col] {
                    self.global_maxs[col] = v;
                }
                self.global_sums[col] += v;
            }
        }
        // Offsets no longer match any base data after in-place count bumps.
        self.dirty_offsets = true;

        if !pending.is_empty() {
            self.splice_new_cells(pending);
        }
        self.min_cell = self.keys.first().copied().unwrap_or(0);
        self.max_cell = self.keys.last().copied().unwrap_or(0);
        // The batch invalidated the derived structures (count prefix and
        // every pyramid layer): rebuild them from the updated records
        // with the canonical folds. Rebuilding — rather than propagating
        // deltas — is what keeps pyramid lookups bit-identical to range
        // scans after updates; see `DESIGN.md` "Aggregate pyramid".
        self.refresh_derived(None);
        report
    }

    /// Rebuild the sorted aggregate layout with new cells merged in.
    fn splice_new_cells(&mut self, mut pending: Vec<(u64, u64, Vec<f64>)>) {
        let c = self.schema.len();
        pending.sort_by_key(|p| (p.0, p.1));

        // Aggregate pending tuples per new cell.
        struct NewCell {
            key: u64,
            count: u32,
            key_min: u64,
            key_max: u64,
            mins: Vec<f64>,
            maxs: Vec<f64>,
            sums: Vec<f64>,
        }
        let mut new_cells: Vec<NewCell> = Vec::new();
        for (cell, leaf, values) in pending {
            match new_cells.last_mut() {
                Some(last) if last.key == cell => {
                    last.count += 1;
                    last.key_min = last.key_min.min(leaf);
                    last.key_max = last.key_max.max(leaf);
                    for (col, &v) in values.iter().enumerate() {
                        last.mins[col] = last.mins[col].min(v);
                        last.maxs[col] = last.maxs[col].max(v);
                        last.sums[col] += v;
                    }
                }
                _ => new_cells.push(NewCell {
                    key: cell,
                    count: 1,
                    key_min: leaf,
                    key_max: leaf,
                    mins: values.clone(),
                    maxs: values.clone(),
                    sums: values,
                }),
            }
        }

        // Merge the two sorted sequences into a fresh layout.
        let n = self.keys.len() + new_cells.len();
        let mut keys = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(n);
        let mut counts = Vec::with_capacity(n);
        let mut key_mins = Vec::with_capacity(n);
        let mut key_maxs = Vec::with_capacity(n);
        let mut mins = Vec::with_capacity(n * c);
        let mut maxs = Vec::with_capacity(n * c);
        let mut sums = Vec::with_capacity(n * c);

        let mut i = 0usize;
        let mut j = 0usize;
        while i < self.keys.len() || j < new_cells.len() {
            let take_old =
                j >= new_cells.len() || (i < self.keys.len() && self.keys[i] < new_cells[j].key);
            if take_old {
                keys.push(self.keys[i]);
                offsets.push(self.offsets[i]);
                counts.push(self.counts[i]);
                key_mins.push(self.key_mins[i]);
                key_maxs.push(self.key_maxs[i]);
                mins.extend_from_slice(&self.mins[i * c..(i + 1) * c]);
                maxs.extend_from_slice(&self.maxs[i * c..(i + 1) * c]);
                sums.extend_from_slice(&self.sums[i * c..(i + 1) * c]);
                i += 1;
            } else {
                let nc = &new_cells[j];
                debug_assert!(i >= self.keys.len() || self.keys[i] != nc.key);
                keys.push(nc.key);
                offsets.push(0); // meaningless: offsets are already dirty
                counts.push(nc.count);
                key_mins.push(nc.key_min);
                key_maxs.push(nc.key_max);
                mins.extend_from_slice(&nc.mins);
                maxs.extend_from_slice(&nc.maxs);
                sums.extend_from_slice(&nc.sums);
                j += 1;
            }
        }
        self.keys = keys;
        self.offsets = offsets;
        self.counts = counts;
        self.key_mins = key_mins;
        self.key_maxs = key_maxs;
        self.mins = mins;
        self.maxs = maxs;
        self.sums = sums;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use gb_cell::Grid;
    use gb_data::{extract, AggSpec, CleaningRules, ColumnDef, Filter, RawTable, Schema};
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
        let report = block.apply_updates(&batch);
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
        let report = block.apply_updates(&batch);
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
        block.apply_updates(&batch);
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
        block.apply_updates(&batch);
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
        // cells); the second does it again, so offsets have been dirty
        // across a splice. `count` and `count_covering` must both take
        // the per-cell-count fallback and agree with hand-counted truth.
        let base = base_data(2500);
        let (mut block, _) = build(&base, 7, &Filter::all());
        use gb_data::Rows;

        let mut b1 = UpdateBatch::new();
        b1.push(base.location(0), vec![10.0]); // in-place
        b1.push(Point::new(80.0, 80.0), vec![20.0]); // new cell
        b1.push(Point::new(60.0, 10.0), vec![30.0]); // new cell
        let r1 = block.apply_updates(&b1);
        assert!(r1.in_place >= 1 && r1.new_cells >= 1, "{r1:?}");

        let mut b2 = UpdateBatch::new();
        b2.push(base.location(1), vec![40.0]); // in-place
        b2.push(Point::new(80.05, 80.05), vec![50.0]); // in-place (cell from b1)
        b2.push(Point::new(95.0, 55.0), vec![60.0]); // new cell
        let r2 = block.apply_updates(&b2);
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
    fn empty_batch_is_noop() {
        let base = base_data(100);
        let (mut block, _) = build(&base, 6, &Filter::all());
        let report = block.apply_updates(&UpdateBatch::new());
        assert_eq!(report, UpdateReport::default());
        assert_eq!(block.num_rows(), 100);
    }
}
