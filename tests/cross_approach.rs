//! Cross-crate integration tests: every approach must agree where the paper
//! says they agree, and disagree in the direction the paper predicts.

use gb_baselines::{
    relative_error, ARTreeIndex, BTreeIndex, BinarySearchIndex, BlockIndex, BlockQcIndex,
    GroundTruth, ScanBlockIndex, SpatialAggIndex,
};
use gb_data::{datasets, extract, polygons, AggSpec, Filter, Rows};
use geoblocks::{build, GeoBlockEngine};

const LEVEL: u8 = 9;

fn taxi() -> gb_data::BaseTable {
    let ds = datasets::nyc_taxi(60_000, 1234);
    extract(&ds.raw, ds.grid, &datasets::nyc_cleaning_rules(), None).base
}

#[test]
fn covering_based_approaches_agree_exactly() {
    // §4.2: "As the Block, BinarySearch, and BTree use the same covering,
    // the result and error are identical."
    let base = taxi();
    let (block, _) = build(&base, LEVEL, &Filter::all());
    let polys = polygons::neighborhoods(40, 9);
    let spec = AggSpec::k_aggregates(base.schema(), 7);

    let mut bs = BinarySearchIndex::new(&base, LEVEL);
    let (mut bt, _) = BTreeIndex::build(&base, LEVEL);
    let mut bl = BlockIndex::new(block.clone());
    let mut scan = ScanBlockIndex::new(block.clone());
    let mut qc = BlockQcIndex::new(block, 0.1);

    for (i, poly) in polys.iter().enumerate() {
        let want = bs.select(poly, &spec);
        for idx in [
            &mut bt as &mut dyn SpatialAggIndex,
            &mut bl,
            &mut scan,
            &mut qc,
        ] {
            let got = idx.select(poly, &spec);
            assert!(
                got.approx_eq(&want, 1e-9),
                "poly {i}: {} disagrees: {got:?} vs {want:?}",
                idx.name()
            );
        }
        // COUNT agrees with SELECT count everywhere.
        let c = bs.count(poly);
        assert_eq!(c, want.count);
        assert_eq!(bt.count(poly), c);
        assert_eq!(bl.count(poly), c);
        assert_eq!(qc.count(poly), c);
    }
}

#[test]
fn blockqc_stays_exact_across_cache_lifecycles() {
    let base = taxi();
    let (block, _) = build(&base, LEVEL, &Filter::all());
    let polys = polygons::neighborhoods(30, 5);
    let spec = AggSpec::k_aggregates(base.schema(), 4);

    let mut scan = ScanBlockIndex::new(block.clone());
    let mut qc = BlockQcIndex::new(block.clone(), 0.05);
    for round in 0..4 {
        for poly in &polys {
            let got = qc.select(poly, &spec);
            let want = scan.select(poly, &spec);
            assert!(
                got.approx_eq(&want, 0.0),
                "round {round}: {got:?} vs {want:?}"
            );
            let (pyramid, _) = block.select(poly, &spec);
            assert!(
                got.approx_eq(&pyramid, 1e-9),
                "round {round} vs the pyramid"
            );
            assert_eq!(qc.count(poly), block.count(poly).0);
        }
        qc.rebuild();
    }
    assert!(qc.num_cached() > 0);
    assert!(qc.counts().direct_hits > 0, "the rebuilt cache answered");
}

#[test]
fn covering_error_only_false_positives_and_bounded() {
    // §4.3: "The cell covering can introduce only false positive results."
    let base = taxi();
    let (block, _) = build(&base, LEVEL, &Filter::all());
    let gt = GroundTruth::new(&base);
    let polys = polygons::neighborhoods(40, 2);
    let bound = block.error_bound();

    for poly in &polys {
        let exact = gt.exact_count(poly);
        let (approx, _) = block.count(poly);
        assert!(approx >= exact, "undercount: {approx} < {exact}");
        // All extra points lie within the §3.2 bound of the outline.
        let covering = block.cover(poly);
        for row in 0..base.num_rows() {
            let p = base.location(row);
            if !poly.contains_point(p) && covering.contains(base.grid().leaf_for_point(p)) {
                let d = -gb_geom::interior::signed_distance(poly, p);
                assert!(
                    d <= bound * 1.001,
                    "false positive {d} beyond bound {bound}"
                );
            }
        }
    }
}

#[test]
fn finer_levels_shrink_error_monotonically_on_average() {
    let base = taxi();
    let gt = GroundTruth::new(&base);
    let polys = polygons::neighborhoods(25, 7);
    let exact: Vec<u64> = polys.iter().map(|p| gt.exact_count(p)).collect();

    let mut avg_errors = Vec::new();
    for level in [5u8, 7, 9, 11] {
        let (block, _) = build(&base, level, &Filter::all());
        let mut sum = 0.0;
        let mut n = 0;
        for (poly, &e) in polys.iter().zip(&exact) {
            if e > 0 {
                sum += relative_error(block.count(poly).0, e);
                n += 1;
            }
        }
        avg_errors.push(sum / n as f64);
    }
    for w in avg_errors.windows(2) {
        assert!(w[1] <= w[0] * 1.05, "errors not shrinking: {avg_errors:?}");
    }
    assert!(avg_errors.last().unwrap() < &0.2);
}

#[test]
fn rectangular_indexes_undershoot_polygons() {
    // §4.1: the interior rectangle "covers fewer points than our approach".
    let base = taxi();
    let gt = GroundTruth::new(&base);
    let (mut ph, _) = gb_baselines::PhTreeIndex::build(&base);
    let polys = polygons::neighborhoods(20, 3);

    let mut under = 0usize;
    let mut considered = 0usize;
    for poly in &polys {
        let exact = gt.exact_count(poly);
        if exact < 50 {
            continue;
        }
        considered += 1;
        if ph.count(poly) <= exact {
            under += 1;
        }
    }
    assert!(considered >= 5, "need enough populated polygons");
    assert!(
        under * 10 >= considered * 9,
        "PH-tree should undershoot on ≥90% of polygons: {under}/{considered}"
    );
}

#[test]
fn rectangle_queries_phtree_near_exact_artree_imprecise() {
    // Figure 15: on rectangle polygons the PH-tree's error "improves
    // considerably" (the refined interior rect converges to the polygon),
    // while the aR-tree stays imprecise even on rectangles — Listing 3's
    // case (a) recurses into only the first containing child, and
    // overlapping nodes may double-count. Use a strictly interior query so
    // no data sits exactly on the window boundary.
    let ds = datasets::nyc_taxi(20_000, 77);
    let base = extract(&ds.raw, ds.grid, &datasets::nyc_cleaning_rules(), None).base;
    let gt = GroundTruth::new(&base);
    let rect = gb_geom::Rect::from_bounds(5.0, 5.0, 55.0, 55.0);
    let poly = gb_geom::Polygon::rectangle(rect);
    let exact = gt.exact_count(&poly);

    let (mut ph, _) = gb_baselines::PhTreeIndex::build(&base);
    let ph_err = relative_error(ph.count(&poly), exact);
    assert!(ph_err < 0.01, "PH-tree rect-query error {ph_err}");

    let (mut ar, _) = ARTreeIndex::build(&base);
    let ar_err = relative_error(ar.count(&poly), exact);
    assert!(ar_err < 0.9, "aR-tree error unreasonably large: {ar_err}");
    // And at 100 % coverage the root-aggregate path is exact (the sharp
    // drop at 100 % selectivity in Figure 12).
    let whole = gb_geom::Polygon::rectangle(gb_geom::Rect::from_bounds(-1.0, -1.0, 61.0, 61.0));
    // The interior rect of a polygon larger than the domain still covers
    // every point, and the search area then contains every node MBR.
    let all = ar.count(&whole);
    assert_eq!(all, base.num_rows() as u64);
}

#[test]
fn incremental_and_isolated_builds_agree() {
    // §4.4: both build paths must produce identical GeoBlocks.
    let ds = datasets::nyc_taxi(50_000, 11);
    let rules = datasets::nyc_cleaning_rules();
    let dist = ds.raw.schema().index_of("trip_distance").unwrap();
    let filter = Filter::new(vec![gb_data::Predicate::new(dist, gb_data::CmpOp::Ge, 4.0)]);

    let all = extract(&ds.raw, ds.grid, &rules, None);
    let (incremental, _) = build(&all.base, LEVEL, &filter);

    let filtered = gb_data::extract_filtered(&ds.raw, ds.grid, &rules, &filter, None);
    let (isolated, _) = build(&filtered.base, LEVEL, &Filter::all());

    assert_eq!(incremental.num_rows(), isolated.num_rows());
    assert_eq!(incremental.num_cells(), isolated.num_cells());
    // Query parity on a workload.
    let spec = AggSpec::k_aggregates(all.base.schema(), 7);
    for poly in polygons::neighborhoods(15, 4) {
        let (a, _) = incremental.select(&poly, &spec);
        let (b, _) = isolated.select(&poly, &spec);
        assert!(a.approx_eq(&b, 1e-9));
    }
}

#[test]
fn coarsening_matches_query_results_of_direct_build() {
    let base = taxi();
    let (fine, _) = build(&base, 11, &Filter::all());
    let (coarse_direct, _) = build(&base, 7, &Filter::all());
    let coarse = fine.coarsen(7);
    let spec = AggSpec::k_aggregates(base.schema(), 7);
    for poly in polygons::neighborhoods(15, 8) {
        let (a, _) = coarse.select(&poly, &spec);
        let (b, _) = coarse_direct.select(&poly, &spec);
        assert!(a.approx_eq(&b, 1e-9));
    }
}

#[test]
fn updates_keep_all_query_paths_consistent() {
    let base = taxi();
    let (block, _) = build(&base, LEVEL, &Filter::all());
    let engine = GeoBlockEngine::new(block);
    let polys = polygons::neighborhoods(10, 6);
    let spec = AggSpec::k_aggregates(base.schema(), 4);

    // Warm the covering memo.
    for poly in &polys {
        engine.select(poly, &spec);
    }

    // Apply a batch across the domain.
    let mut batch = geoblocks::UpdateBatch::new();
    let cols = base.schema().len();
    for i in 0..200 {
        let x = 5.0 + (i % 20) as f64 * 2.5;
        let y = 5.0 + (i / 20) as f64 * 5.0;
        batch.push(gb_geom::Point::new(x, y), vec![1.0; cols]);
    }
    engine.apply_updates(&batch).expect("finite rows");

    // SELECT (engine) == SELECT (plain block) == COUNT, post-update.
    let block_after = engine.block_snapshot();
    for poly in &polys {
        let served = engine.select(poly, &spec).result;
        let (plain, _) = block_after.select(poly, &spec);
        assert!(served.approx_eq(&plain, 0.0), "{served:?} vs {plain:?}");
        assert_eq!(engine.count(poly).result, served.count);
    }
}

#[test]
fn whole_workspace_smoke_tweets_and_osm() {
    for (base, polys) in [
        (
            {
                let d = datasets::us_tweets(30_000, 9);
                extract(&d.raw, d.grid, &gb_data::CleaningRules::none(), None).base
            },
            polygons::us_states(9),
        ),
        (
            {
                let d = datasets::osm_americas(30_000, 9);
                extract(&d.raw, d.grid, &gb_data::CleaningRules::none(), None).base
            },
            polygons::countries(9),
        ),
    ] {
        let (block, _) = build(&base, 10, &Filter::all());
        let gt = GroundTruth::new(&base);
        let mut covered_total = 0u64;
        let mut exact_total = 0u64;
        for poly in polys.iter().take(8) {
            let (c, _) = block.count(poly);
            let e = gt.exact_count(poly);
            assert!(c >= e);
            covered_total += c;
            exact_total += e;
        }
        assert!(exact_total > 0);
        // Aggregate error stays moderate at level 10 on these datasets.
        let err = relative_error(covered_total, exact_total);
        assert!(err < 0.25, "aggregate error {err}");
    }
}
