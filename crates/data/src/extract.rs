//! The extract phase: clean, key, and sort raw data (§3.3, Figure 5).
//!
//! "In the first phase, we prepare the raw data by filtering outliers in the
//! often dirty datasets […]. We furthermore sort the data by the generated
//! one-dimensional spatial key. This extract phase is run exactly once per
//! dataset."
//!
//! Two entry points mirror the paper's §4.4 comparison:
//!
//! * [`extract`] — the incremental-build base path: clean **all** rows, sort
//!   once, build many filtered GeoBlocks from the result later. Cost
//!   `O(n log n)` once.
//! * [`extract_filtered`] — the isolated-build path: apply the filter
//!   *before* sorting, producing base data for exactly one GeoBlock. Cost
//!   `O(n) + O(sn log sn)` per filter.
//!
//! Both optionally piggyback the collection of distinct block-level cell ids
//! onto the merge that ends the sort (the paper notes this "gap in the
//! sorting phase […] caused by the collection of grid cell ids", Figure 11a
//! / Table 2).

// Row indices are stored as `u32`: the narrowing is checked where a table enters.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::filter::Filter;
use crate::table::{apply_permutation, merge_runs, BaseTable, RawTable, Rows};
use gb_cell::Grid;
use gb_common::Pool;
use std::time::Duration;

/// Validity rules applied during cleaning.
///
/// A row is kept iff its location is finite and inside the grid domain, all
/// attribute values are finite, and every `(column, min, max)` bound holds.
#[derive(Debug, Clone, Default)]
pub struct CleaningRules {
    /// Closed `[min, max]` validity ranges per column index.
    pub bounds: Vec<(usize, f64, f64)>,
}

impl CleaningRules {
    /// No bounds beyond finiteness/domain checks.
    pub fn none() -> Self {
        CleaningRules::default()
    }

    /// Add a validity range for a column.
    pub fn with_bound(mut self, column: usize, min: f64, max: f64) -> Self {
        self.bounds.push((column, min, max));
        self
    }

    fn row_ok(&self, table: &RawTable, row: usize, grid: &Grid) -> bool {
        let loc = table.location(row);
        if !loc.is_finite() || !grid.domain().contains_point(loc) {
            return false;
        }
        for col in 0..table.schema().len() {
            if !table.value_f64(row, col).is_finite() {
                return false;
            }
        }
        self.bounds
            .iter()
            .all(|&(c, lo, hi)| (lo..=hi).contains(&table.value_f64(row, c)))
    }
}

/// Timing and cardinality statistics of an extract run.
#[derive(Debug, Clone, Default)]
pub struct ExtractStats {
    /// Rows in the raw input.
    pub rows_in: usize,
    /// Rows dropped by cleaning (and, for the isolated path, filtering).
    pub rows_dropped: usize,
    /// Wall time of the cleaning + keying pass, with each chunk's sort of
    /// its own `(key, row)` pairs.
    pub clean_time: Duration,
    /// Wall time of the merge of the sorted chunks into the key column and
    /// the permutation, plus the piggybacked cell collection.
    pub sort_time: Duration,
    /// Wall time of gathering coordinates and columns into key order.
    pub gather_time: Duration,
    /// Distinct block-level cells seen, if requested.
    pub distinct_block_cells: Option<usize>,
}

impl ExtractStats {
    /// Clean + sort + gather: the paper's "sorting" phase (Figure 11a).
    pub fn total_time(&self) -> Duration {
        self.clean_time + self.sort_time + self.gather_time
    }
}

/// Result of an extract run: the sorted base data plus statistics.
#[derive(Debug, Clone)]
pub struct Extract {
    pub base: BaseTable,
    pub stats: ExtractStats,
}

/// Clean + key + sort the whole dataset (incremental-build base path).
pub fn extract(
    raw: &RawTable,
    grid: Grid,
    rules: &CleaningRules,
    block_level: Option<u8>,
) -> Extract {
    extract_filtered(raw, grid, rules, &Filter::all(), block_level)
}

/// Clean + **filter** + key + sort (isolated-build path, §4.4 Eq. 1).
pub fn extract_filtered(
    raw: &RawTable,
    grid: Grid,
    rules: &CleaningRules,
    filter: &Filter,
    block_level: Option<u8>,
) -> Extract {
    let pool = Pool::auto_for(raw.num_rows());
    extract_on(&pool, raw, grid, rules, filter, block_level)
}

/// Row indices are stored as `u32`.
fn row_index(row: usize) -> u32 {
    u32::try_from(row).expect("row indices are stored as u32")
}

/// The extract pipeline on `pool`. The base table does not depend on the
/// pool's size: each chunk is a contiguous raw row range, cleaned, keyed
/// and sorted by `(key, row)` on its own; one merge of the sorted runs by
/// the same total order yields every key once and every row once, and the
/// gathers are independent per column.
fn extract_on(
    pool: &Pool,
    raw: &RawTable,
    grid: Grid,
    rules: &CleaningRules,
    filter: &Filter,
    block_level: Option<u8>,
) -> Extract {
    let n = raw.num_rows();
    let mut stats = ExtractStats {
        rows_in: n,
        ..Default::default()
    };

    // Clean + generate spatial keys + sort, one even share of the rows
    // per thread. The last cut is the raw row count: converting it checks
    // the width of every row index below, before any is stored — and
    // against the rows that exist, not the rows that survive.
    let t = gb_common::Timer::start();
    let chunks = pool.threads();
    let cuts: Vec<u32> = (0..=chunks)
        .map(|i| row_index(n / chunks * i + (n % chunks).min(i)))
        .collect();
    let runs = pool.run(0..chunks, |i| {
        let rows = cuts[i]..cuts[i + 1];
        let mut pairs: Vec<(u64, u32)> = Vec::with_capacity(rows.len());
        for row in rows {
            let at = row as usize;
            if rules.row_ok(raw, at, &grid) && filter.matches(raw, at) {
                pairs.push((grid.leaf_for_point(raw.location(at)).raw(), row));
            }
        }
        pairs.sort_unstable();
        pairs
    });
    stats.clean_time = t.elapsed();

    // Merge the runs into the key column and the permutation; piggyback
    // distinct block-cell collection if requested.
    let t = gb_common::Timer::start();
    let (sorted_keys, perm) = merge_runs(&runs);
    drop(runs);
    stats.rows_dropped = n - sorted_keys.len();
    if let Some(level) = block_level {
        // Leaf ids are `(pos << 1) | 1`; the level-`level` cell is the top
        // `2·level` bits of `pos`, i.e. the id shifted by one extra bit for
        // the sentinel.
        let shift = 2 * (gb_cell::MAX_LEVEL - level) as u64 + 1;
        let mut distinct = 0usize;
        let mut prev = u64::MAX;
        for &k in &sorted_keys {
            let cell = k >> shift;
            if cell != prev {
                distinct += 1;
                prev = cell;
            }
        }
        stats.distinct_block_cells = Some(distinct);
    }
    stats.sort_time = t.elapsed();

    // The permutation holds raw row indices, so one gather per column
    // pulls coordinates and attributes straight from the raw table.
    let t = gb_common::Timer::start();
    let base = apply_permutation(pool, grid, raw, sorted_keys, &perm);
    stats.gather_time = t.elapsed();

    Extract { base, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::CmpOp;
    use crate::schema::{ColumnDef, Schema};
    use gb_geom::{Point, Rect};

    fn grid() -> Grid {
        Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0))
    }

    fn raw() -> RawTable {
        let mut t = RawTable::new(Schema::new(vec![ColumnDef::f64("v")]));
        t.push_row(Point::new(90.0, 90.0), &[1.0]);
        t.push_row(Point::new(10.0, 10.0), &[2.0]);
        t.push_row(Point::new(500.0, 10.0), &[3.0]); // outside domain
        t.push_row(Point::new(50.0, 50.0), &[f64::NAN]); // dirty value
        t.push_row(Point::new(20.0, 80.0), &[-7.0]);
        t.push_row(Point::new(20.0, 81.0), &[100.0]);
        t
    }

    #[test]
    fn extract_cleans_and_sorts() {
        let ex = extract(&raw(), grid(), &CleaningRules::none(), None);
        assert_eq!(ex.stats.rows_in, 6);
        assert_eq!(ex.stats.rows_dropped, 2);
        assert_eq!(ex.base.num_rows(), 4);
        assert!(ex.base.keys().windows(2).all(|w| w[0] <= w[1]));
        // Attribute values follow their rows through the sort.
        for row in 0..ex.base.num_rows() {
            let loc = ex.base.location(row);
            let key = ex.base.grid().leaf_for_point(loc).raw();
            assert_eq!(ex.base.keys()[row], key, "key/row correspondence");
        }
    }

    #[test]
    fn extract_applies_bounds() {
        let rules = CleaningRules::none().with_bound(0, 0.0, 50.0);
        let ex = extract(&raw(), grid(), &rules, None);
        // -7 and 100 now also dropped.
        assert_eq!(ex.base.num_rows(), 2);
    }

    #[test]
    fn extract_filtered_prefilters() {
        let t = raw();
        let f = Filter::on(&t, "v", CmpOp::Ge, 2.0).unwrap();
        let ex = extract_filtered(&t, grid(), &CleaningRules::none(), &f, None);
        // Row 0 (v=1) and row 4 (v=-7) removed on top of the dirty rows.
        assert_eq!(ex.base.num_rows(), 2);
        for row in 0..ex.base.num_rows() {
            assert!(ex.base.value_f64(row, 0) >= 2.0);
        }
    }

    #[test]
    fn a_non_finite_passenger_count_is_dropped() {
        // The taxi schema's `passenger_cnt` holds whole numbers, but a
        // NaN or an infinity pushed into it must still meet the rule
        // that every attribute value is finite.
        let ds = crate::datasets::nyc_taxi(0, 1);
        let schema = ds.raw.schema().clone();
        let pax = schema.require("passenger_cnt").unwrap();
        let at = ds.grid.domain().center();
        for bad in [f64::NAN, f64::INFINITY] {
            let mut raw = RawTable::new(schema.clone());
            let mut row = vec![1.0; schema.len()];
            raw.push_row(at, &row);
            row[pax] = bad;
            raw.push_row(at, &row);
            let ex = extract(&raw, ds.grid, &crate::datasets::nyc_cleaning_rules(), None);
            assert_eq!((ex.stats.rows_in, ex.stats.rows_dropped), (2, 1), "{bad}");
            assert_eq!(ex.base.value_f64(0, pax), 1.0);
        }
    }

    #[test]
    fn block_cell_collection_counts_distinct() {
        let ex = extract(&raw(), grid(), &CleaningRules::none(), Some(4));
        let distinct = ex.stats.distinct_block_cells.unwrap();
        assert!((1..=4).contains(&distinct), "got {distinct}");
        // At level 30 every point is its own cell here.
        let ex_fine = extract(&raw(), grid(), &CleaningRules::none(), Some(30));
        assert_eq!(ex_fine.stats.distinct_block_cells, Some(4));
    }

    /// Everything a base table stores, floats by bit pattern.
    fn bits(base: &BaseTable) -> Vec<Vec<u64>> {
        let f = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let cols = (0..base.schema().len()).map(|c| {
            f(&(0..base.num_rows())
                .map(|r| base.value_f64(r, c))
                .collect::<Vec<_>>())
        });
        [base.keys().to_vec(), f(base.xs()), f(base.ys())]
            .into_iter()
            .chain(cols)
            .collect()
    }

    mod any_thread_count {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The base table is a function of the raw table alone —
            /// not of how many threads cleaned and gathered it, nor of
            /// how the sort breaks ties.
            #[test]
            fn extract_yields_the_same_table(
                // Locations on a lattice, so many rows share a leaf key;
                // lattice steps past 33 lie outside the domain, negative
                // values stand for dirty ones.
                rows in prop::collection::vec((0u8..40, 0u8..40, -2i8..10), 0..400),
                at_least in 0.0f64..10.0,
            ) {
                let mut raw =
                    RawTable::new(Schema::new(vec![ColumnDef::f64("v"), ColumnDef::f64("row")]));
                for (i, &(x, y, v)) in rows.iter().enumerate() {
                    let v = if v < 0 { f64::NAN } else { f64::from(v) };
                    raw.push_row(Point::new(f64::from(x) * 3.0, f64::from(y) * 3.0), &[v, i as f64]);
                }
                let rules = CleaningRules::none();
                let some = Filter::on(&raw, "v", CmpOp::Ge, at_least).unwrap();
                for filter in [Filter::all(), some] {
                    let on = |threads| {
                        extract_on(&Pool::new(threads), &raw, grid(), &rules, &filter, Some(6))
                    };
                    let one = on(1);
                    let base = &one.base;
                    for row in 1..base.num_rows() {
                        let (a, b) = (row - 1, row);
                        prop_assert!(base.keys()[a] <= base.keys()[b], "keys ascend");
                        prop_assert!(
                            base.keys()[a] < base.keys()[b]
                                || base.value_f64(a, 1) < base.value_f64(b, 1),
                            "rows {} and {} share a key out of raw order", a, b
                        );
                    }
                    for threads in [2, 3, 8] {
                        let many = on(threads);
                        prop_assert_eq!(bits(&many.base), bits(base), "{} threads", threads);
                        prop_assert_eq!(many.stats.rows_dropped, one.stats.rows_dropped);
                        prop_assert_eq!(
                            many.stats.distinct_block_cells,
                            one.stats.distinct_block_cells
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn extract_is_the_same_table_either_side_of_the_inline_cutoff() {
        // `extract` picks its own pool: one row short of the cutoff the
        // inline one, at the cutoff whatever the machine offers.
        let cutoff = 2 * gb_common::pool::MIN_ROWS_PER_THREAD;
        let rules = CleaningRules::none();
        let mut t = RawTable::new(Schema::new(vec![ColumnDef::f64("v")]));
        for i in 0..cutoff - 1 {
            let (x, y) = ((i * 37 % 1013) as f64 / 10.0, (i * 91 % 1009) as f64 / 10.0);
            t.push_row(Point::new(x, y), &[i as f64]);
        }
        for _ in 0..2 {
            let pooled = extract(&t, grid(), &rules, None);
            let inline = extract_on(&Pool::new(1), &t, grid(), &rules, &Filter::all(), None);
            assert_eq!(
                bits(&pooled.base),
                bits(&inline.base),
                "{} rows",
                t.num_rows()
            );
            assert_eq!(pooled.stats.rows_dropped, inline.stats.rows_dropped);
            t.push_row(Point::new(50.0, 50.0), &[-1.0]);
        }
    }

    #[test]
    fn empty_input_extracts_empty() {
        let t = RawTable::new(Schema::new(vec![ColumnDef::f64("v")]));
        let ex = extract(&t, grid(), &CleaningRules::none(), Some(10));
        assert_eq!(ex.base.num_rows(), 0);
        assert_eq!(ex.stats.distinct_block_cells, Some(0));
    }
}
