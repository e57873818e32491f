//! On-the-fly aggregation baselines: BinarySearch and BTree (§4.1).
//!
//! Both locate the raw tuples of each covering cell in the key-sorted base
//! data and aggregate them tuple-by-tuple — no pre-aggregation. They share
//! GeoBlocks' cell covering, so their results are identical to Block's
//! ("As the Block, BinarySearch, and BTree use the same covering, the
//! result and error are identical", §4.2).

use crate::SpatialAggIndex;
use gb_btree::BPlusTree;
use gb_cell::cover_polygon;
use gb_data::{AggSpec, BaseTable, Rows};
use gb_geom::Polygon;
use geoblocks::{AggPlan, AggResult};
use std::time::Duration;

/// The simplest baseline: binary search on the sorted base data per
/// covering cell, then a forward scan aggregating raw tuples.
pub struct BinarySearchIndex<'a> {
    base: &'a BaseTable,
    level: u8,
}

impl<'a> BinarySearchIndex<'a> {
    /// No build cost beyond the (shared) extract phase.
    pub fn new(base: &'a BaseTable, level: u8) -> Self {
        BinarySearchIndex { base, level }
    }

    fn aggregate_rows(&self, polygon: &Polygon, spec: &AggSpec) -> AggResult {
        let covering = cover_polygon(self.base.grid(), polygon, self.level);
        // Spec resolved once per query, like the GeoBlock paths.
        let plan = AggPlan::compile(spec);
        let mut acc = AggResult::new(spec);
        let keys = self.base.keys();
        for qcell in covering.iter() {
            let lo = qcell.range_min().raw();
            let hi = qcell.range_max().raw();
            let mut row = self.base.lower_bound(lo);
            while row < keys.len() && keys[row] <= hi {
                acc.combine_tuple_plan(&plan, |c| self.base.value_f64(row, c));
                row += 1;
            }
        }
        acc
    }
}

impl SpatialAggIndex for BinarySearchIndex<'_> {
    fn name(&self) -> &'static str {
        "BinarySearch"
    }

    fn select(&mut self, polygon: &Polygon, spec: &AggSpec) -> AggResult {
        self.aggregate_rows(polygon, spec).finalize(spec)
    }

    fn count(&mut self, polygon: &Polygon) -> u64 {
        // Binary search per covering cell: the count is the row-range size,
        // no tuple access needed.
        let covering = cover_polygon(self.base.grid(), polygon, self.level);
        let mut total = 0u64;
        for qcell in covering.iter() {
            let lo = self.base.lower_bound(qcell.range_min().raw());
            let hi = self.base.upper_bound(qcell.range_max().raw());
            total += (hi - lo) as u64;
        }
        total
    }

    fn index_bytes(&self) -> usize {
        0 // nothing beyond the sorted base data
    }
}

/// The BTree baseline: a B+tree secondary index over the spatial key,
/// probed for the first tuple of each covering cell, then a scan of the
/// sorted raw data "until no further tuple qualifies".
pub struct BTreeIndex<'a> {
    base: &'a BaseTable,
    tree: BPlusTree,
    level: u8,
}

impl<'a> BTreeIndex<'a> {
    /// Bulk-load the secondary index; returns the build duration alongside.
    pub fn build(base: &'a BaseTable, level: u8) -> (Self, Duration) {
        let t = gb_common::Timer::start();
        let pairs: Vec<(u64, u32)> = base
            .keys()
            .iter()
            .enumerate()
            .map(|(row, &k)| (k, row as u32))
            .collect();
        let tree = BPlusTree::bulk_load(&pairs);
        (BTreeIndex { base, tree, level }, t.elapsed())
    }

    /// The underlying tree (for tests).
    pub fn tree(&self) -> &BPlusTree {
        &self.tree
    }
}

impl SpatialAggIndex for BTreeIndex<'_> {
    fn name(&self) -> &'static str {
        "BTree"
    }

    fn select(&mut self, polygon: &Polygon, spec: &AggSpec) -> AggResult {
        let covering = cover_polygon(self.base.grid(), polygon, self.level);
        let plan = AggPlan::compile(spec);
        let mut acc = AggResult::new(spec);
        let keys = self.base.keys();
        for qcell in covering.iter() {
            let lo = qcell.range_min().raw();
            let hi = qcell.range_max().raw();
            // Probe the tree for the first qualifying tuple…
            let Some((first_key, first_row)) = self.tree.lower_bound(lo).peek() else {
                continue;
            };
            if first_key > hi {
                continue;
            }
            // …then scan the sorted raw data.
            let mut row = first_row as usize;
            while row < keys.len() && keys[row] <= hi {
                acc.combine_tuple_plan(&plan, |c| self.base.value_f64(row, c));
                row += 1;
            }
        }
        acc.finalize(spec)
    }

    fn count(&mut self, polygon: &Polygon) -> u64 {
        let covering = cover_polygon(self.base.grid(), polygon, self.level);
        let keys = self.base.keys();
        let mut total = 0u64;
        for qcell in covering.iter() {
            let lo = qcell.range_min().raw();
            let hi = qcell.range_max().raw();
            let Some((first_key, first_row)) = self.tree.lower_bound(lo).peek() else {
                continue;
            };
            if first_key > hi {
                continue;
            }
            let mut row = first_row as usize;
            while row < keys.len() && keys[row] <= hi {
                total += 1;
                row += 1;
            }
        }
        total
    }

    fn index_bytes(&self) -> usize {
        self.tree.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_cell::Grid;
    use gb_data::{extract, CleaningRules, ColumnDef, RawTable, Schema};
    use gb_geom::{Point, Rect};

    fn base_data(n: usize) -> BaseTable {
        let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v")]));
        let mut state = 3u64;
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

    #[test]
    fn binary_search_and_btree_agree() {
        let base = base_data(3000);
        let mut bs = BinarySearchIndex::new(&base, 8);
        let (mut bt, build_time) = BTreeIndex::build(&base, 8);
        assert!(build_time.as_nanos() > 0);
        let spec = AggSpec::k_aggregates(base.schema(), 4);
        for (cx, cy, r) in [(50.0, 50.0, 20.0), (20.0, 80.0, 10.0), (90.0, 10.0, 8.0)] {
            let poly = diamond(cx, cy, r);
            let a = bs.select(&poly, &spec);
            let b = bt.select(&poly, &spec);
            assert!(a.approx_eq(&b, 1e-9), "select mismatch at ({cx},{cy},{r})");
            assert_eq!(bs.count(&poly), bt.count(&poly));
        }
    }

    #[test]
    fn counts_match_select_counts() {
        let base = base_data(2000);
        let mut bs = BinarySearchIndex::new(&base, 8);
        let poly = diamond(40.0, 60.0, 25.0);
        let sel = bs.select(&poly, &AggSpec::count_only());
        assert_eq!(sel.count, bs.count(&poly));
    }

    #[test]
    fn btree_has_overhead_binary_search_none() {
        let base = base_data(1000);
        let bs = BinarySearchIndex::new(&base, 8);
        let (bt, _) = BTreeIndex::build(&base, 8);
        assert_eq!(bs.index_bytes(), 0);
        assert!(bt.index_bytes() > 10_000);
        assert_eq!(bt.tree().len(), 1000);
    }

    #[test]
    fn empty_region_yields_zero() {
        let base = base_data(500);
        let mut bs = BinarySearchIndex::new(&base, 8);
        let (mut bt, _) = BTreeIndex::build(&base, 8);
        let poly = diamond(500.0, 500.0, 5.0); // outside the domain
        assert_eq!(bs.count(&poly), 0);
        assert_eq!(bt.count(&poly), 0);
        assert_eq!(bs.select(&poly, &AggSpec::count_only()).count, 0);
    }
}
