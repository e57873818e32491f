//! Workspace smoke test: drive the full pipeline — synthetic dataset and
//! extraction (`gb_data`), GeoBlock build (`geoblocks`), the paper's
//! query-cached GeoBlock and exact ground truth (`gb_baselines`) — on a
//! small dataset, and check the query-cached GeoBlock against
//! `GroundTruth`.
//!
//! The covering makes GeoBlocks an over-approximation with a spatial error
//! bounded by the cell diagonal (§3.2), so the checks are:
//!
//! * every count is ≥ the exact count (false positives only),
//! * relative error on populated polygons stays within a loose budget at a
//!   fine block level,
//! * SELECT and COUNT agree with each other, before and after cache
//!   rebuilds and across the `gb_baselines` adapter,
//! * a polygon containing the whole domain is answered exactly.

use gb_baselines::{relative_error, BlockQcIndex, GroundTruth, SpatialAggIndex};
use gb_data::{datasets, extract, polygons, AggSpec, Filter, Rows};
use gb_geom::{Polygon, Rect};
use geoblocks::build;

#[test]
fn geoblockqc_matches_ground_truth_end_to_end() {
    let ds = datasets::nyc_taxi(20_000, 4242);
    let base = extract(&ds.raw, ds.grid, &datasets::nyc_cleaning_rules(), None).base;
    assert!(base.num_rows() > 10_000, "synthetic dataset came out empty");

    let (block, _) = build(&base, 11, &Filter::all());
    let mut gt = GroundTruth::new(&base);
    let mut qc = BlockQcIndex::new(block, 0.1);
    let spec = AggSpec::k_aggregates(base.schema(), 4);
    let polys = polygons::neighborhoods(24, 4242);

    let mut populated = 0usize;
    // Two rounds with a cache rebuild between them: round one runs cold,
    // round two must return identical results from the warmed cache.
    let mut first_round: Vec<u64> = Vec::new();
    for round in 0..2 {
        for (i, poly) in polys.iter().enumerate() {
            let exact = gt.count(poly);
            let approx = qc.count(poly);
            assert!(
                approx >= exact,
                "poly {i}: covering must only add false positives ({approx} < {exact})"
            );

            let sel = qc.select(poly, &spec);
            assert_eq!(sel.count, approx, "poly {i}: SELECT/COUNT disagree");

            let exact_sel = gt.select(poly, &spec);
            assert!(
                sel.count >= exact_sel.count,
                "poly {i}: SELECT undercounts the exact answer"
            );

            if round == 0 {
                first_round.push(approx);
            } else {
                assert_eq!(
                    approx, first_round[i],
                    "poly {i}: warm cache changed the answer"
                );
            }

            if exact >= 100 {
                let err = relative_error(approx, exact);
                assert!(
                    err < 0.25,
                    "poly {i}: relative error {err} too large at level 11"
                );
                if round == 0 {
                    populated += 1;
                }
            }
        }
        qc.rebuild();
    }
    assert!(
        populated >= 6,
        "only {populated} populated polygons; workload too sparse to be meaningful"
    );

    // A rectangle spanning the whole domain has no boundary cells inside
    // the grid, so the covering is exact and all approaches must agree
    // exactly with the full-table aggregates.
    let whole = Polygon::rectangle(Rect::from_bounds(-1.0, -1.0, 61.0, 61.0));
    let exact_all = gt.count(&whole);
    assert_eq!(exact_all, base.num_rows() as u64);
    assert_eq!(qc.count(&whole), exact_all);
    let sel_all = qc.select(&whole, &spec);
    let exact_sel_all = gt.select(&whole, &spec);
    assert!(
        sel_all.approx_eq(&exact_sel_all, 1e-9),
        "whole-domain aggregates diverge: {sel_all:?} vs {exact_sel_all:?}"
    );
}
