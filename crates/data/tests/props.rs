//! Property tests for the data pipeline: extraction must be a permutation
//! of the clean rows, sorted by spatial key, with attributes following
//! their rows; the two extract paths must agree; workloads must be
//! deterministic in their seeds.

use gb_cell::Grid;
use gb_data::{
    extract, extract_filtered, CleaningRules, CmpOp, ColumnDef, Filter, Predicate, RawTable, Rows,
    Schema,
};
use gb_geom::{Point, Rect};
use proptest::prelude::*;

const DOMAIN: f64 = 50.0;

fn make_raw(rows: &[(f64, f64, f64)]) -> RawTable {
    let mut raw = RawTable::new(Schema::new(vec![
        ColumnDef::f64("v"),
        ColumnDef::f64("tag"),
    ]));
    for (i, &(x, y, v)) in rows.iter().enumerate() {
        raw.push_row(Point::new(x, y), &[v, i as f64]);
    }
    raw
}

fn grid() -> Grid {
    Grid::hilbert(Rect::from_bounds(0.0, 0.0, DOMAIN, DOMAIN))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn extract_is_a_sorted_permutation(
        rows in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN, -100.0f64..100.0), 0..300),
    ) {
        let raw = make_raw(&rows);
        let ex = extract(&raw, grid(), &CleaningRules::none(), None);
        prop_assert_eq!(ex.base.num_rows(), rows.len());
        prop_assert_eq!(ex.stats.rows_dropped, 0);
        // Keys ascend.
        prop_assert!(ex.base.keys().windows(2).all(|w| w[0] <= w[1]));
        // Every output row is an input row (tag column identifies it) with
        // all fields intact, and each input appears exactly once.
        let mut seen = vec![false; rows.len()];
        for out in 0..ex.base.num_rows() {
            let tag = ex.base.value_f64(out, 1) as usize;
            prop_assert!(tag < rows.len());
            prop_assert!(!seen[tag], "row {} duplicated", tag);
            seen[tag] = true;
            let (x, y, v) = rows[tag];
            prop_assert_eq!(ex.base.location(out), Point::new(x, y));
            prop_assert_eq!(ex.base.value_f64(out, 0), v);
            // Key really is the row's leaf cell.
            prop_assert_eq!(
                ex.base.keys()[out],
                grid().leaf_for_point(Point::new(x, y)).raw()
            );
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn cleaning_drops_exactly_the_out_of_range_rows(
        rows in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN, -100.0f64..100.0), 0..200),
        lo in -50.0f64..0.0,
        hi in 0.0f64..50.0,
    ) {
        let raw = make_raw(&rows);
        let rules = CleaningRules::none().with_bound(0, lo, hi);
        let ex = extract(&raw, grid(), &rules, None);
        let expected = rows.iter().filter(|r| r.2 >= lo && r.2 <= hi).count();
        prop_assert_eq!(ex.base.num_rows(), expected);
        prop_assert_eq!(ex.stats.rows_dropped, rows.len() - expected);
        for out in 0..ex.base.num_rows() {
            let v = ex.base.value_f64(out, 0);
            prop_assert!(v >= lo && v <= hi);
        }
    }

    #[test]
    fn filtered_extract_equals_filter_after_extract(
        rows in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN, -100.0f64..100.0), 0..250),
        threshold in -100.0f64..100.0,
    ) {
        let raw = make_raw(&rows);
        let filter = Filter::new(vec![Predicate::new(0, CmpOp::Ge, threshold)]);

        // Path A: filter before sort (isolated).
        let a = extract_filtered(&raw, grid(), &CleaningRules::none(), &filter, None).base;
        // Path B: sort everything, then read the matching rows.
        let b = extract(&raw, grid(), &CleaningRules::none(), None).base;
        let matching = filter.matching_rows(&b);

        prop_assert_eq!(a.num_rows(), matching.len());
        for (row, &at) in matching.iter().enumerate() {
            let at = at as usize;
            prop_assert_eq!(a.keys()[row], b.keys()[at]);
            prop_assert_eq!(a.value_f64(row, 0), b.value_f64(at, 0));
            prop_assert_eq!(a.value_f64(row, 1), b.value_f64(at, 1));
            prop_assert_eq!(a.location(row), b.location(at));
        }
    }

    #[test]
    fn piggybacked_cell_count_matches_dedup(
        rows in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN, 0.0f64..1.0), 1..300),
        level in 0u8..14,
    ) {
        let raw = make_raw(&rows);
        let ex = extract(&raw, grid(), &CleaningRules::none(), Some(level));
        let mut cells: Vec<u64> = ex
            .base
            .keys()
            .iter()
            .map(|&k| gb_cell::CellId::from_raw(k).parent_at(level).raw())
            .collect();
        cells.sort_unstable();
        cells.dedup();
        prop_assert_eq!(ex.stats.distinct_block_cells, Some(cells.len()));
    }

    #[test]
    fn truncated_prefix_preserves_rows(
        rows in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN, 0.0f64..1.0), 1..200),
        take in 0usize..250,
    ) {
        let raw = make_raw(&rows);
        let base = extract(&raw, grid(), &CleaningRules::none(), None).base;
        let t = base.truncated(take);
        let n = take.min(rows.len());
        prop_assert_eq!(t.num_rows(), n);
        for row in 0..n {
            prop_assert_eq!(t.keys()[row], base.keys()[row]);
            prop_assert_eq!(t.value_f64(row, 0), base.value_f64(row, 0));
        }
    }
}
