//! Property tests for the aggregate-pyramid query path: SELECT (one record
//! lookup per covering cell) and the prefix-powered COUNT must be
//! **bit-identical** (`approx_eq` at tolerance `0.0`) to the range-scan
//! reference (`geoblocks::reference`) across random data, random polygons,
//! filtered blocks, and post-update blocks — every pyramid record is
//! defined as the same in-order fold the scan performs, so exact agreement
//! is an invariant, not a tolerance.

use gb_cell::{CellId, Grid};
use gb_data::{
    extract, AggFunc, AggRequest, AggSpec, CleaningRules, ColumnDef, Filter, RawTable, Rows, Schema,
};
use gb_geom::{convex_hull, Point, Polygon, Rect};
use geoblocks::{build, build_parallel, reference, GeoBlock, GeoBlockEngine, UpdateBatch};
use proptest::prelude::*;

const DOMAIN: f64 = 100.0;

fn schema() -> Schema {
    Schema::new(vec![ColumnDef::f64("v"), ColumnDef::f64("k")])
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

fn make_base(points: &[(f64, f64)]) -> gb_data::BaseTable {
    let mut raw = RawTable::new(schema());
    for (i, &(x, y)) in points.iter().enumerate() {
        raw.push_row(Point::new(x, y), &[i as f64 * 0.37 - 5.0, (i % 9) as f64]);
    }
    let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, DOMAIN, DOMAIN));
    extract(&raw, grid, &CleaningRules::none(), None).base
}

fn make_polygon(seeds: &[(f64, f64)]) -> Option<Polygon> {
    let pts: Vec<Point> = seeds.iter().map(|&(x, y)| Point::new(x, y)).collect();
    let hull = convex_hull(&pts);
    (hull.len() >= 3).then(|| Polygon::new(hull))
}

/// Assert that the production SELECT and COUNT agree bit-for-bit with the
/// range-scan reference for `poly`, and that the pyramid path combines at
/// most one record per covering cell.
fn assert_paths_identical(block: &GeoBlock, poly: &Polygon, s: &AggSpec) {
    let covering = block.cover(poly);
    let (fast, fast_stats) = block.select(poly, s);
    let scan = reference::select_covering(block, &covering, s);
    assert!(
        fast.approx_eq(&scan, 0.0),
        "pyramid diverged from scan: {fast:?} vs {scan:?}"
    );
    assert!(
        fast_stats.cells_combined <= fast_stats.query_cells,
        "pyramid combined {} records over {} covering cells",
        fast_stats.cells_combined,
        fast_stats.query_cells
    );
    let (cnt, _) = block.count(poly);
    assert_eq!(cnt, scan.count, "prefix COUNT diverged from SELECT");
    assert_eq!(cnt, reference::count_covering(block, &covering));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pyramid_select_bit_identical_to_scan(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 50..400),
        seeds in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 3..10),
        level in 4u8..13,
    ) {
        prop_assume!(make_polygon(&seeds).is_some());
        let poly = make_polygon(&seeds).unwrap();
        let base = make_base(&points);
        let (block, _) = build(&base, level, &Filter::all());
        block.check_invariants();
        assert_paths_identical(&block, &poly, &spec());

        // The parallel build's pyramid answers identically too.
        let (par, _) = build_parallel(&base, level, &Filter::all(), 4);
        let (a, _) = par.select(&poly, &spec());
        let (b, _) = block.select(&poly, &spec());
        prop_assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn pyramid_select_bit_identical_on_filtered_blocks(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 40..300),
        seeds in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 3..8),
        threshold in -10.0f64..120.0,
        level in 5u8..11,
    ) {
        prop_assume!(make_polygon(&seeds).is_some());
        let poly = make_polygon(&seeds).unwrap();
        let base = make_base(&points);
        let filter = Filter::on(&base, "v", gb_data::CmpOp::Ge, threshold).unwrap();
        let (block, _) = build(&base, level, &filter);
        block.check_invariants();
        assert_paths_identical(&block, &poly, &spec());
    }

    /// Updates rebuild the pyramid and prefixes with the canonical folds,
    /// so exact agreement must survive both §5 paths: in-place batches
    /// (update points drawn from the data's region) and new-cell batches
    /// (points anywhere, forcing layout splices).
    #[test]
    fn pyramid_select_bit_identical_after_updates(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 40..250),
        batches in prop::collection::vec(
            prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 1..20),
            1..4,
        ),
        seeds in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 3..8),
        level in 5u8..10,
    ) {
        prop_assume!(make_polygon(&seeds).is_some());
        let poly = make_polygon(&seeds).unwrap();
        let base = make_base(&points);
        let (mut block, _) = build(&base, level, &Filter::all());

        let mut saw_in_place = false;
        let mut saw_new_cell = false;
        for batch_pts in &batches {
            let mut batch = UpdateBatch::new();
            for &(x, y) in batch_pts {
                batch.push(Point::new(x, y), vec![x - y, (x * 0.1).floor()]);
            }
            let report = block.apply_updates(&batch).expect("valid batch");
            saw_in_place |= report.in_place > 0;
            saw_new_cell |= report.new_cells > 0;
            block.check_invariants();
            assert_paths_identical(&block, &poly, &spec());
        }
        prop_assert!(saw_in_place || saw_new_cell);
    }
}

/// Deterministic non-proptest check of the acceptance bound on a workload
/// guaranteed to produce coarse interior covering cells.
#[test]
fn coarse_interior_covering_is_answered_one_record_per_cell() {
    let points: Vec<(f64, f64)> = (0..4000)
        .map(|i| {
            let x = (i % 63) as f64 * 1.5873;
            let y = ((i * 37) % 61) as f64 * 1.6393;
            (x, y)
        })
        .collect();
    let base = make_base(&points);
    let (block, _) = build(&base, 12, &Filter::all());
    // A polygon spanning most of the domain ⇒ interior cells far coarser
    // than block level 12.
    let poly = Polygon::new(vec![
        Point::new(50.0, 2.0),
        Point::new(97.0, 50.0),
        Point::new(50.0, 97.0),
        Point::new(3.0, 50.0),
    ]);
    let s = spec();
    let covering = block.cover(&poly);
    let (fast, fast_stats) = block.select(&poly, &s);
    let scan = reference::select_covering(&block, &covering, &s);
    assert!(fast.approx_eq(&scan, 0.0));
    assert!(fast_stats.cells_combined <= fast_stats.query_cells);
    // What a range scan combines: every block record under the covering.
    let scanned = (0..block.num_cells())
        .filter(|&i| covering.contains(block.cell_at(i)))
        .count();
    assert!(
        scanned > 5 * fast_stats.cells_combined,
        "scan combined {scanned} vs pyramid {} — interior not coarse?",
        fast_stats.cells_combined
    );
    // One search per covering cell, never a child expansion.
    assert_eq!(fast_stats.searches, fast_stats.query_cells);
}

/// The engine sits on the same record lookup: with a cold and with a warm
/// covering memo it answers bit-identically to the plain pyramid block.
#[test]
fn engine_agrees_with_pyramid_block_exactly() {
    let points: Vec<(f64, f64)> = (0..3000)
        .map(|i| {
            (
                ((i * 29) % 997) as f64 * 0.1,
                ((i * 53) % 1009) as f64 * 0.099,
            )
        })
        .collect();
    let base = make_base(&points);
    let (block, _) = build(&base, 9, &Filter::all());
    let s = spec();
    let polys: Vec<Polygon> = (0..5)
        .map(|i| {
            let c = 20.0 + 12.0 * i as f64;
            Polygon::new(vec![
                Point::new(c, c - 10.0),
                Point::new(c + 10.0, c),
                Point::new(c, c + 10.0),
                Point::new(c - 10.0, c),
            ])
        })
        .collect();
    let engine = GeoBlockEngine::new(block.clone());
    for p in &polys {
        let a = engine.select(p, &s).result;
        let (b, _) = block.select(p, &s);
        assert!(a.approx_eq(&b, 0.0), "cold memo: {a:?} vs {b:?}");
    }
    for p in &polys {
        let a = engine.select(p, &s).result;
        let (b, _) = block.select(p, &s);
        assert!(a.approx_eq(&b, 0.0), "warm memo: {a:?} vs {b:?}");
    }
    assert_eq!(engine.memo_stats().hits, polys.len() as u64);
}

/// Post-update ground truth: the tiered COUNT (prefix differences, no
/// scan fallback) equals base rows + update tuples inside the covering.
#[test]
fn prefix_count_matches_ground_truth_after_mixed_batches() {
    let points: Vec<(f64, f64)> = (0..500)
        .map(|i| (((i * 7) % 50) as f64, ((i * 13) % 50) as f64))
        .collect();
    let base = make_base(&points);
    let (mut block, _) = build(&base, 7, &Filter::all());
    let grid = *block.grid();

    let mut update_leaves: Vec<CellId> = Vec::new();
    let mut batch = UpdateBatch::new();
    // Two tuples at existing row locations (in-place) and two in the
    // data-free region beyond x,y < 50 (new cells).
    for p in [
        base.location(0),
        base.location(1),
        Point::new(80.0, 80.0),
        Point::new(95.0, 5.0),
    ] {
        batch.push(p, vec![1.0, 2.0]);
        update_leaves.push(grid.leaf_for_point(p));
    }
    let report = block.apply_updates(&batch).expect("valid batch");
    assert!(report.in_place > 0 && report.new_cells > 0, "{report:?}");
    block.check_invariants();

    let poly = Polygon::rectangle(Rect::from_bounds(-1.0, -1.0, 101.0, 101.0));
    let covering = block.cover(&poly);
    let want = (0..base.num_rows())
        .filter(|&r| covering.contains(CellId::from_raw(base.keys()[r])))
        .count() as u64
        + update_leaves
            .iter()
            .filter(|&&leaf| covering.contains(leaf))
            .count() as u64;
    let (cnt, stats) = block.count_covering(&covering);
    assert_eq!(cnt, want);
    // One search and at most one record read per covering cell, never a
    // record sweep.
    assert_eq!(stats.searches, stats.query_cells);
    assert!(stats.cells_combined <= stats.query_cells, "{stats:?}");
}
