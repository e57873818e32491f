//! Property tests for the GeoBlocks core: the data structure must agree
//! with brute-force aggregation over its own covering for *any* data and
//! *any* polygon, and the coarsen/update layers must never change
//! answers.

use gb_cell::{CellId, Grid};
use gb_data::{
    extract, AggFunc, AggRequest, AggSpec, CleaningRules, ColumnDef, Filter, RawTable, Rows, Schema,
};
use gb_geom::{convex_hull, Point, Polygon, Rect};
use geoblocks::{build, AggPlan, AggResult};
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
        raw.push_row(Point::new(x, y), &[i as f64 * 0.5 - 3.0, (i % 11) as f64]);
    }
    let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, DOMAIN, DOMAIN));
    extract(&raw, grid, &CleaningRules::none(), None).base
}

fn make_polygon(seeds: &[(f64, f64)]) -> Option<Polygon> {
    let pts: Vec<Point> = seeds.iter().map(|&(x, y)| Point::new(x, y)).collect();
    let hull = convex_hull(&pts);
    (hull.len() >= 3).then(|| Polygon::new(hull))
}

/// Brute-force reference: aggregate every row whose leaf cell lies in the
/// block's covering of the polygon.
fn covering_truth(
    base: &gb_data::BaseTable,
    block: &geoblocks::GeoBlock,
    poly: &Polygon,
    s: &AggSpec,
) -> AggResult {
    let covering = block.cover(poly);
    let plan = AggPlan::compile(s);
    let mut acc = AggResult::new(s);
    for row in 0..base.num_rows() {
        if covering.contains(CellId::from_raw(base.keys()[row])) {
            acc.combine_tuple_plan(&plan, |c| base.value_f64(row, c));
        }
    }
    acc.finalize(s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn select_matches_brute_force(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 50..400),
        seeds in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 3..10),
        level in 4u8..12,
    ) {
        prop_assume!(make_polygon(&seeds).is_some());
        let poly = make_polygon(&seeds).unwrap();
        let base = make_base(&points);
        let (block, _) = build(&base, level, &Filter::all());
        let s = spec();

        let (got, _) = block.select(&poly, &s);
        let want = covering_truth(&base, &block, &poly, &s);
        prop_assert!(got.approx_eq(&want, 1e-9), "{:?} vs {:?}", got, want);

        // COUNT agrees with SELECT's count.
        let (cnt, _) = block.count(&poly);
        prop_assert_eq!(cnt, got.count);

        // And so does the naive reference, over the same covering.
        let naive = geoblocks::reference::select_covering(&block, &block.cover(&poly), &s);
        prop_assert!(naive.approx_eq(&want, 1e-9));
    }

    #[test]
    fn coarsen_equals_direct_build(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 30..300),
        fine in 6u8..12,
        drop in 1u8..5,
    ) {
        let coarse_level = fine.saturating_sub(drop);
        let base = make_base(&points);
        let (fine_block, _) = build(&base, fine, &Filter::all());
        let (direct, _) = build(&base, coarse_level, &Filter::all());
        let coarse = fine_block.coarsen(coarse_level);
        coarse.check_invariants();
        prop_assert_eq!(coarse.num_cells(), direct.num_cells());
        prop_assert_eq!(coarse.num_rows(), direct.num_rows());
    }

    #[test]
    fn filtered_build_counts_match_filter(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 30..300),
        threshold in -3.0f64..150.0,
    ) {
        let base = make_base(&points);
        let filter = Filter::on(&base, "v", gb_data::CmpOp::Ge, threshold).unwrap();
        let expected = filter.matching_rows(&base).len() as u64;
        let (block, _) = build(&base, 9, &filter);
        prop_assert_eq!(block.num_rows(), expected);
        block.check_invariants();
    }

    /// §5 COUNT after updates: mixed in-place/new-cell batches rebuild the
    /// coarser layers, so COUNT must still equal ground truth (base rows +
    /// update rows inside the covering), via both `count` and
    /// `count_covering`.
    #[test]
    fn mixed_update_batches_count_matches_ground_truth(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 40..250),
        batches in prop::collection::vec(
            prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 1..25),
            1..4,
        ),
        seeds in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 3..8),
        level in 5u8..10,
    ) {
        prop_assume!(make_polygon(&seeds).is_some());
        let poly = make_polygon(&seeds).unwrap();
        let base = make_base(&points);
        let (mut block, _) = build(&base, level, &Filter::all());
        let grid = *block.grid();

        let mut update_leaves: Vec<CellId> = Vec::new();
        let mut saw_in_place = false;
        let mut saw_new_cell = false;
        for batch_pts in &batches {
            let mut batch = geoblocks::UpdateBatch::new();
            for &(x, y) in batch_pts {
                let p = Point::new(x, y);
                batch.push(p, vec![1.5, 2.0]);
                update_leaves.push(grid.leaf_for_point(p));
            }
            let report = block.apply_updates(&batch).expect("valid batch");
            saw_in_place |= report.in_place > 0;
            saw_new_cell |= report.new_cells > 0;
        }
        // The generator covers both §5 paths across the run set; any
        // single case exercises at least one.
        prop_assert!(saw_in_place || saw_new_cell);
        block.check_invariants();

        let covering = block.cover(&poly);
        // Ground truth: base rows plus update tuples inside the covering.
        let from_base = (0..base.num_rows())
            .filter(|&r| covering.contains(CellId::from_raw(base.keys()[r])))
            .count() as u64;
        let from_updates = update_leaves
            .iter()
            .filter(|&&leaf| covering.contains(leaf))
            .count() as u64;
        let want = from_base + from_updates;

        let (via_count, _) = block.count(&poly);
        prop_assert_eq!(via_count, want, "count diverged from ground truth");
        let (via_covering, _) = block.count_covering(&covering);
        prop_assert_eq!(via_covering, want, "count_covering diverged");
        let (sel, _) = block.select(&poly, &AggSpec::count_only());
        prop_assert_eq!(sel.count, want, "select count diverged after updates");
    }

    #[test]
    fn updates_preserve_select_count_equality(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 30..200),
        updates in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 1..40),
        seeds in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 3..8),
    ) {
        prop_assume!(make_polygon(&seeds).is_some());
        let poly = make_polygon(&seeds).unwrap();
        let base = make_base(&points);
        let (mut block, _) = build(&base, 8, &Filter::all());

        let mut batch = geoblocks::UpdateBatch::new();
        for &(x, y) in &updates {
            batch.push(Point::new(x, y), vec![1.0, 2.0]);
        }
        block.apply_updates(&batch).expect("valid batch");
        block.check_invariants();

        prop_assert_eq!(block.num_rows(), (points.len() + updates.len()) as u64);
        let s = spec();
        let (sel, _) = block.select(&poly, &s);
        let (cnt, _) = block.count(&poly);
        prop_assert_eq!(sel.count, cnt);
    }
}

// Tracing must be a pure observer: an engine with a sample-everything
// tracer answers bit-identically to one with tracing disabled, for any
// data, polygon set, and sample rate — and the recorded traces carry the
// same QueryStats the responses report.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn traced_engine_is_bit_identical_to_untraced(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 50..250),
        seed_sets in prop::collection::vec(
            prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 3..8), 2..5),
        sample_rate in 1u64..8,
    ) {
        use geoblocks::trace::{TraceConfig, Tracer};
        use geoblocks::GeoBlockEngine;
        use std::sync::Arc;

        let polys: Vec<Polygon> = seed_sets.iter().filter_map(|s| make_polygon(s)).collect();
        prop_assume!(!polys.is_empty());
        let base = make_base(&points);
        let (block, _) = build(&base, 8, &Filter::all());
        let s = spec();

        let untraced = GeoBlockEngine::new(block.clone())
            .with_tracer(Arc::new(Tracer::disabled()));
        let traced = GeoBlockEngine::new(block).with_tracer(Arc::new(Tracer::new(
            TraceConfig { sample_rate, slow_us: 0 },
        )));
        let bits = |r: &AggResult| r.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        for poly in &polys {
            let a = untraced.select(poly, &s);
            let b = traced.select(poly, &s);
            prop_assert_eq!(a.result.count, b.result.count);
            prop_assert_eq!(bits(&a.result), bits(&b.result), "select diverged under tracing");
            prop_assert_eq!(a.stats, b.stats);
            prop_assert_eq!(a.epoch, b.epoch);

            let ca = untraced.count(poly);
            let cb = traced.count(poly);
            prop_assert_eq!(ca.result, cb.result, "count diverged under tracing");
            prop_assert_eq!(ca.stats, cb.stats);
        }

        // Batched execution too.
        let requests: Vec<geoblocks::QueryRequest> = polys
            .iter()
            .map(|p| geoblocks::QueryRequest::Select { polygon: p.clone(), spec: s.clone() })
            .collect();
        let ra = untraced.query_batch(&requests, 1).unwrap();
        let rb = traced.query_batch(&requests, 1).unwrap();
        prop_assert_eq!(
            geoblocks::api::encode_reply(&Ok(ra)),
            geoblocks::api::encode_reply(&Ok(rb)),
            "batch wire bytes diverged under tracing"
        );

        // The slow lane (zero threshold) captured every request, and each
        // select trace's stats match a direct engine call for one of the
        // query shapes (shapes are the only variation).
        let slow = traced.tracer().slow_traces();
        prop_assert!(slow.len() >= polys.len(), "slow lane missed requests");
        let selects: Vec<_> = slow.iter().filter(|t| t.kind == "select").collect();
        let all_stats: Vec<_> = polys
            .iter()
            .map(|p| untraced.select(p, &s).stats)
            .collect();
        for t in selects {
            prop_assert!(
                all_stats.iter().any(|st| st.query_cells as u64 == t.stats.query_cells
                    && st.cells_combined as u64 == t.stats.cells_combined
                    && st.searches as u64 == t.stats.searches),
                "trace stats {:?} match no query shape", t.stats
            );
        }
    }
}
