//! The paper's BlockQC answers exactly what the paper's Block answers: a
//! cached record is a copy of the scan's own fold of its cell, so at any
//! threshold, before and after any number of rebuilds, every SELECT of
//! `BlockQcIndex` is bit-identical (`approx_eq` at `0.0`) to
//! `ScanBlockIndex`'s, and both agree with the pyramid up to float
//! association.

use gb_baselines::{BlockQcIndex, ScanBlockIndex, SpatialAggIndex};
use gb_cell::Grid;
use gb_data::{
    extract, AggFunc, AggRequest, AggSpec, CleaningRules, ColumnDef, Filter, RawTable, Schema,
};
use gb_geom::{convex_hull, Point, Polygon, Rect};
use geoblocks::build;
use proptest::prelude::*;

const DOMAIN: f64 = 100.0;

fn spec() -> AggSpec {
    AggSpec::new(vec![
        AggRequest::new(AggFunc::Count, 0),
        AggRequest::new(AggFunc::Sum, 0),
        AggRequest::new(AggFunc::Min, 0),
        AggRequest::new(AggFunc::Max, 1),
        AggRequest::new(AggFunc::Avg, 1),
    ])
}

fn make_base(points: &[(f64, f64, f64)]) -> gb_data::BaseTable {
    let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v"), ColumnDef::f64("k")]));
    for (i, &(x, y, v)) in points.iter().enumerate() {
        raw.push_row(Point::new(x, y), &[v, (i % 11) as f64]);
    }
    let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, DOMAIN, DOMAIN));
    extract(&raw, grid, &CleaningRules::none(), None).base
}

fn make_polygon(seeds: &[(f64, f64)]) -> Option<Polygon> {
    let pts: Vec<Point> = seeds.iter().map(|&(x, y)| Point::new(x, y)).collect();
    let hull = convex_hull(&pts);
    (hull.len() >= 3).then(|| Polygon::new(hull))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn blockqc_is_bit_identical_to_the_scan(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN, -1e3..1e3f64), 50..300),
        rings in prop::collection::vec(prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 3..8), 2..6),
        order in prop::collection::vec(0usize..64, 4..24),
        level in 4u8..11,
    ) {
        let polys: Vec<Polygon> = rings.iter().filter_map(|r| make_polygon(r)).collect();
        prop_assume!(!polys.is_empty());
        let (block, _) = build(&make_base(&points), level, &Filter::all());
        let s = spec();
        let mut scan = ScanBlockIndex::new(block.clone());
        // 0 caches nothing, 50 (far above the paper's range) usually
        // every queried cell.
        for threshold in [0.0, 0.01, 0.1, 1.0, 50.0] {
            let mut qc = BlockQcIndex::new(block.clone(), threshold);
            for (round, chunk) in order.chunks(4).enumerate() {
                for &i in chunk {
                    let p = &polys[i % polys.len()];
                    let (got, want) = (qc.select(p, &s), scan.select(p, &s));
                    prop_assert!(
                        got.approx_eq(&want, 0.0),
                        "threshold {}, round {}: {:?} vs {:?}", threshold, round, got, want
                    );
                    let (pyramid, _) = block.select(p, &s);
                    prop_assert!(got.approx_eq(&pyramid, 1e-9));
                    prop_assert_eq!(qc.count(p), block.count(p).0);
                }
                qc.rebuild();
            }
            if threshold == 0.0 {
                prop_assert_eq!(qc.num_cached(), 0);
            }
            // The budget is spent on the best-ranked queried cells. It is
            // charged in full records, as the paper's Block stores every
            // cell, whatever the block's own layout stores.
            let full = block.num_cells() * block.record_bytes();
            let budget = (threshold * full as f64) as usize;
            let fits = budget / block.record_bytes();
            prop_assert_eq!(qc.num_cached(), fits.min(qc.tracked_cells()));
            if qc.num_cached() == qc.tracked_cells() {
                // Every queried cell is cached: a repeat answers from the
                // cache alone, and still like the scan.
                qc.reset_counts();
                let p = &polys[order[0] % polys.len()];
                prop_assert!(qc.select(p, &s).approx_eq(&scan.select(p, &s), 0.0));
                let counts = qc.counts();
                prop_assert_eq!(counts.direct_hits, counts.probes);
            }
        }
    }
}
