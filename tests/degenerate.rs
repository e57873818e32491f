//! Degenerate-polygon audit: zero-area (collinear) outlines, duplicated
//! vertices, reversed winding, and all-identical vertices.
//!
//! A serving engine sees query polygons it did not draw — sloppy GeoJSON,
//! doubled vertices from digitizers, clockwise rings from other
//! conventions, zero-area slivers. On every such input `GeoBlockEngine`
//! must neither panic nor diverge from its contract:
//!
//! * SELECT equals the brute-force aggregate over the block's own
//!   covering (the bit-exactness contract of §3.5),
//! * COUNT equals SELECT's count and never undercounts
//!   [`GroundTruth`] (the covering adds false positives only, §4.3),
//! * vertex order (winding) and repeated vertices do not change answers.

use gb_baselines::GroundTruth;
use gb_cell::{CellId, Grid};
use gb_data::{
    extract, AggFunc, AggRequest, AggSpec, CleaningRules, ColumnDef, Filter, RawTable, Rows, Schema,
};
use gb_geom::{convex_hull, Point, Polygon, Rect};
use geoblocks::{build, AggPlan, AggResult, GeoBlockEngine};
use proptest::prelude::*;

const DOMAIN: f64 = 100.0;

fn make_base(points: &[(f64, f64)]) -> gb_data::BaseTable {
    let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v"), ColumnDef::f64("k")]));
    for (i, &(x, y)) in points.iter().enumerate() {
        raw.push_row(Point::new(x, y), &[i as f64 * 0.25 - 2.0, (i % 9) as f64]);
    }
    let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, DOMAIN, DOMAIN));
    extract(&raw, grid, &CleaningRules::none(), None).base
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

/// Brute force over the block's covering — what SELECT must match.
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

/// The full contract for one (possibly degenerate) polygon. Returns the
/// COUNT so callers can compare across polygon variants.
fn assert_contract(
    base: &gb_data::BaseTable,
    qc: &GeoBlockEngine,
    gt: &GroundTruth,
    poly: &Polygon,
    s: &AggSpec,
    label: &str,
) -> Result<(AggResult, u64), TestCaseError> {
    let sel = qc.select(poly, s).result;
    let want = covering_truth(base, &qc.block_snapshot(), poly, s);
    prop_assert!(
        sel.approx_eq(&want, 1e-9),
        "{label}: select {sel:?} vs covering truth {want:?}"
    );
    let cnt = qc.count(poly).result;
    prop_assert_eq!(cnt, sel.count, "{} count/select disagree", label);
    let exact = gt.exact_count(poly);
    prop_assert!(
        cnt >= exact,
        "{label}: covering count {cnt} undercounts exact {exact}"
    );
    Ok((sel, cnt))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zero-area polygons: ≥3 distinct collinear vertices.
    #[test]
    fn zero_area_polygons_match_ground_truth(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 60..300),
        x0 in 5.0..95.0f64,
        y0 in 5.0..95.0f64,
        dx in -0.9..0.9f64,
        dy in -0.9..0.9f64,
        len in 3usize..7,
        level in 5u8..11,
    ) {
        // A strictly collinear ring along direction (dx, dy).
        let ring: Vec<Point> = (0..len)
            .map(|i| {
                let t = i as f64 * 11.0;
                Point::new(
                    (x0 + dx * t).clamp(0.0, DOMAIN),
                    (y0 + dy * t).clamp(0.0, DOMAIN),
                )
            })
            .collect();
        let poly = Polygon::new(ring);
        let base = make_base(&points);
        let (block, _) = build(&base, level, &Filter::all());
        let qc = GeoBlockEngine::new(block);
        let gt = GroundTruth::new(&base);
        let s = spec();
        // Twice: cold, then with the covering memoized.
        let (cold, _) = assert_contract(&base, &qc, &gt, &poly, &s, "zero-area cold")?;
        let (warm, _) = assert_contract(&base, &qc, &gt, &poly, &s, "zero-area memoized")?;
        prop_assert!(cold.approx_eq(&warm, 0.0), "the memo changed a degenerate answer");
    }

    /// Duplicated vertices must not change any answer.
    #[test]
    fn duplicate_vertices_change_nothing(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 60..300),
        seeds in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 4..10),
        dup_at in prop::collection::vec(0usize..64, 1..5),
        level in 5u8..11,
    ) {
        let hull = convex_hull(
            &seeds.iter().map(|&(x, y)| Point::new(x, y)).collect::<Vec<_>>(),
        );
        prop_assume!(hull.len() >= 3);
        let clean = Polygon::new(hull.clone());
        // Insert duplicates (adjacent repeats keep the ring's shape).
        let mut dup_ring = hull.clone();
        for &at in &dup_at {
            let i = at % dup_ring.len();
            let v = dup_ring[i];
            dup_ring.insert(i, v);
        }
        let dup = Polygon::new(dup_ring);

        let base = make_base(&points);
        let (block, _) = build(&base, level, &Filter::all());
        let qc = GeoBlockEngine::new(block);
        let gt = GroundTruth::new(&base);
        let s = spec();
        let (sel_clean, cnt_clean) =
            assert_contract(&base, &qc, &gt, &clean, &s, "clean")?;
        let (sel_dup, cnt_dup) =
            assert_contract(&base, &qc, &gt, &dup, &s, "duplicated")?;
        prop_assert!(
            sel_clean.approx_eq(&sel_dup, 0.0),
            "duplicate vertices changed SELECT: {sel_clean:?} vs {sel_dup:?}"
        );
        prop_assert_eq!(cnt_clean, cnt_dup, "duplicate vertices changed COUNT");
    }

    /// Reversed winding (CW instead of CCW) must not change any answer.
    #[test]
    fn reversed_winding_changes_nothing(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 60..300),
        seeds in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 4..10),
        level in 5u8..11,
    ) {
        let hull = convex_hull(
            &seeds.iter().map(|&(x, y)| Point::new(x, y)).collect::<Vec<_>>(),
        );
        prop_assume!(hull.len() >= 3);
        let forward = Polygon::new(hull.clone());
        let mut rev = hull;
        rev.reverse();
        let reversed = Polygon::new(rev);

        let base = make_base(&points);
        let (block, _) = build(&base, level, &Filter::all());
        let qc = GeoBlockEngine::new(block);
        let gt = GroundTruth::new(&base);
        let s = spec();
        let (sel_fwd, cnt_fwd) =
            assert_contract(&base, &qc, &gt, &forward, &s, "forward")?;
        let (sel_rev, cnt_rev) =
            assert_contract(&base, &qc, &gt, &reversed, &s, "reversed")?;
        prop_assert!(
            sel_fwd.approx_eq(&sel_rev, 0.0),
            "winding changed SELECT: {sel_fwd:?} vs {sel_rev:?}"
        );
        prop_assert_eq!(cnt_fwd, cnt_rev, "winding changed COUNT");
    }
}

/// The pathological extreme: every vertex identical (a point "polygon").
#[test]
fn all_identical_vertices_do_not_panic() {
    let pts: Vec<(f64, f64)> = (0..200)
        .map(|i| ((i * 37 % 100) as f64 + 0.3, (i * 61 % 100) as f64 + 0.7))
        .collect();
    let base = make_base(&pts);
    let (block, _) = build(&base, 8, &Filter::all());
    let qc = GeoBlockEngine::new(block);
    let gt = GroundTruth::new(&base);
    let s = spec();
    for (x, y) in [(37.3, 61.7), (0.0, 0.0), (99.99, 99.99)] {
        let p = Point::new(x, y);
        let poly = Polygon::new(vec![p, p, p]);
        let sel = qc.select(&poly, &s).result;
        let cnt = qc.count(&poly).result;
        assert_eq!(cnt, sel.count);
        assert!(cnt >= gt.exact_count(&poly));
        let want = {
            let covering = qc.block_snapshot().cover(&poly);
            let plan = AggPlan::compile(&s);
            let mut acc = AggResult::new(&s);
            for row in 0..base.num_rows() {
                if covering.contains(CellId::from_raw(base.keys()[row])) {
                    acc.combine_tuple_plan(&plan, |c| base.value_f64(row, c));
                }
            }
            acc.finalize(&s)
        };
        assert!(sel.approx_eq(&want, 1e-9), "{sel:?} vs {want:?}");
    }
}
