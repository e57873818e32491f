//! Property tests for the query hot path: the covering memo and batched
//! execution must be invisible to results for *any* data and *any*
//! polygon (including degenerate rings).
//!
//! 1. Memoized coverings answer bit-identically to fresh coverings; a
//!    rotated ring (same geometry, different start vertex) is another memo
//!    key and answers the same, and a ring of tens of thousands of
//!    vertices is keyed in linear time.
//! 2. A batch item is bit-identical to the same request sent alone,
//!    across an update epoch bump, and a batch covers each distinct
//!    polygon once.
//! 3. The differential property: engine ≡ `geoblocks::reference` at
//!    tolerance `0.0` — fresh, across update batches of fractional
//!    values, batched, and restored from a snapshot.

use gb_cell::Grid;
use gb_data::{
    extract, AggFunc, AggRequest, AggSpec, CleaningRules, ColumnDef, Filter, RawTable, Schema,
};
use gb_geom::{convex_hull, Point, Polygon, Rect};
use geoblocks::api::{self, QueryReply, QueryRequest};
use geoblocks::{build, reference, GeoBlock, GeoBlockEngine, UpdateBatch};
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

/// A possibly-degenerate ring straight from the seeds: no hull, so
/// collinear runs, duplicated vertices, slivers, and self-intersections
/// all occur — only the ≥3-vertex constructor contract is upheld.
fn make_raw_polygon(seeds: &[(f64, f64)]) -> Polygon {
    assert!(seeds.len() >= 3);
    Polygon::new(seeds.iter().map(|&(x, y)| Point::new(x, y)).collect())
}

/// The same ring started at vertex `k` — identical geometry, different
/// vertex order, so the memo keys it apart from the original.
fn rotate_ring(poly: &Polygon, k: usize) -> Polygon {
    let ring = poly.exterior();
    let k = k % ring.len();
    let mut rotated = ring[k..].to_vec();
    rotated.extend_from_slice(&ring[..k]);
    Polygon::new(rotated)
}

/// A hostile ring — 32 768 copies of one point, a 512 KiB vertex stream —
/// costs a worker what covering it costs: the memo key is one linear pass
/// over the ring, whatever its vertices repeat.
#[test]
fn a_long_ring_of_one_point_selects_in_under_a_second() {
    let points: Vec<(f64, f64)> = (0..200)
        .map(|i| ((i * 7 % 97) as f64, (i * 13 % 89) as f64))
        .collect();
    let (block, _) = build(&make_base(&points), 8, &Filter::all());
    let engine = GeoBlockEngine::new(block);
    let ring = Polygon::new(vec![Point::new(41.5, 37.25); 32_768]);
    let started = std::time::Instant::now();
    let reply = engine.select(&ring, &spec());
    let took = started.elapsed();
    assert!(took.as_secs_f64() < 1.0, "select took {took:?}");
    let (want, _) = engine.block_snapshot().select(&ring, &spec());
    assert!(reply.result.approx_eq(&want, 0.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Memoized covering ≡ fresh covering: the engine (memo path) must
    /// agree bit-for-bit with the bare block (no memo), the second
    /// identical query must be a memo hit, and a rotated ring must answer
    /// identically, hitting the memo only if it is the same vertex stream.
    #[test]
    fn memoized_covering_answers_bit_identically(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 50..300),
        seeds in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 3..10),
        level in 4u8..12,
        rot in 0usize..8,
        degenerate in any::<bool>(),
    ) {
        let poly = if degenerate {
            make_raw_polygon(&seeds)
        } else {
            prop_assume!(make_polygon(&seeds).is_some());
            make_polygon(&seeds).unwrap()
        };
        let base = make_base(&points);
        let (block, _) = build(&base, level, &Filter::all());
        let s = spec();
        let (want_sel, _) = block.select(&poly, &s);
        let (want_cnt, _) = block.count(&poly);

        let engine = GeoBlockEngine::new(block);
        prop_assert_eq!(engine.memo_stats().hits, 0);

        // First query misses the memo, second hits — both bit-identical
        // to the memo-free block answer.
        let first = engine.select(&poly, &s).result;
        prop_assert!(first.approx_eq(&want_sel, 0.0), "{:?} vs {:?}", first, want_sel);
        prop_assert_eq!(engine.memo_stats().misses, 1);
        let second = engine.select(&poly, &s).result;
        prop_assert!(second.approx_eq(&want_sel, 0.0));
        prop_assert!(engine.memo_stats().hits >= 1, "repeat query missed the memo");
        prop_assert_eq!(engine.count(&poly).result, want_cnt);

        // A rotated ring is the same region sent in another order: the
        // same answer, and a memo hit only if the vertex stream is equal.
        let hits_before = engine.memo_stats().hits;
        let rotated = rotate_ring(&poly, rot);
        let via_rot = engine.select(&rotated, &s).result;
        prop_assert!(via_rot.approx_eq(&want_sel, 0.0), "rotation changed the answer");
        let same_stream =
            gb_cell::normalized_vertex_bits(&rotated) == gb_cell::normalized_vertex_bits(&poly);
        prop_assert_eq!(engine.memo_stats().hits > hits_before, same_stream);
    }

    /// A batch is its items, across an epoch bump: every item's reply is
    /// byte-for-byte the reply the same request gets alone through
    /// `query` (value bits, `QueryStats`, epoch), every item answers at
    /// the batch's pinned epoch, and the items share coverings through
    /// the memo — a batch over d distinct polygons adds exactly d memo
    /// misses on a cold engine and none on a repeat or after an update.
    #[test]
    fn batch_matches_sequential_across_epoch_bump(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 50..250),
        polys in prop::collection::vec(
            prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 3..8),
            1..6,
        ),
        updates in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 1..20),
    ) {
        prop_assume!(polys.iter().all(|s| make_polygon(s).is_some()));
        let base = make_base(&points);
        let (block, _) = build(&base, 9, &Filter::all());
        let engine = GeoBlockEngine::new(block);
        let s = spec();

        // Alternate Select/Count items, repeating each polygon twice so
        // the batch's items share coverings.
        let mut requests: Vec<QueryRequest> = Vec::new();
        for (i, seeds) in polys.iter().enumerate() {
            let polygon = make_polygon(seeds).unwrap();
            if i % 2 == 0 {
                requests.push(QueryRequest::Select { polygon: polygon.clone(), spec: s.clone() });
                requests.push(QueryRequest::Count { polygon });
            } else {
                requests.push(QueryRequest::Count { polygon: polygon.clone() });
                requests.push(QueryRequest::Select { polygon, spec: s.clone() });
            }
        }
        let distinct: std::collections::HashSet<Vec<u64>> = polys
            .iter()
            .map(|seeds| gb_cell::normalized_vertex_bits(&make_polygon(seeds).unwrap()))
            .collect();

        let check_epoch = |engine: &GeoBlockEngine, want_epoch: u64, want_misses: u64| -> Result<(), TestCaseError> {
            let misses = engine.memo_stats().misses;
            let reply = engine.query_batch(&requests, 1).expect("batch");
            prop_assert_eq!(
                engine.memo_stats().misses - misses,
                want_misses,
                "memo misses the batch added"
            );
            prop_assert_eq!(reply.epoch(), want_epoch);
            let QueryReply::Batch(ref outer) = reply else {
                return Err(TestCaseError::fail("batch reply has wrong variant".to_string()));
            };
            prop_assert_eq!(outer.result.len(), requests.len());
            for (req, item) in requests.iter().zip(&outer.result) {
                prop_assert_eq!(item.epoch(), want_epoch, "item answered off the pinned epoch");
                let solo = engine.query(req).expect("solo request");
                prop_assert_eq!(
                    api::encode_reply(&Ok(item.clone())),
                    api::encode_reply(&Ok(solo)),
                    "batch item differs from the request sent alone"
                );
                match (req, item) {
                    (QueryRequest::Select { polygon, spec }, QueryReply::Select(r)) => {
                        let solo = engine.select(polygon, spec);
                        prop_assert!(r.result.approx_eq(&solo.result, 0.0));
                    }
                    (QueryRequest::Count { polygon }, QueryReply::Count(r)) => {
                        prop_assert_eq!(r.result, engine.count(polygon).result);
                    }
                    _ => return Err(TestCaseError::fail("batch item variant mismatch".to_string())),
                }
            }
            Ok(())
        };

        let epoch0 = engine.data_epoch();
        check_epoch(&engine, epoch0, distinct.len() as u64)?;
        check_epoch(&engine, epoch0, 0)?;

        // Bump the data epoch and re-check: the batch must see the new
        // data, at the new epoch, with the coverings the memo kept.
        let mut batch = UpdateBatch::new();
        for &(x, y) in &updates {
            batch.push(Point::new(x, y), vec![1.0, 2.0]);
        }
        engine.apply_updates(&batch).expect("update");
        prop_assert_eq!(engine.data_epoch(), epoch0 + 1);
        check_epoch(&engine, epoch0 + 1, 0)?;
    }

    /// The differential property: whatever state the engine is in —
    /// fresh, after update batches of fractional values of mixed
    /// magnitude (in place and into new cells), restored from a snapshot —
    /// `select`, `count` and `query_batch` answer exactly (`0.0`) what the
    /// naive reference folds from the block records of the same epoch.
    #[test]
    fn engine_is_bit_identical_to_the_reference(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 50..200),
        rings in prop::collection::vec(prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 3..8), 2..5),
        batches in prop::collection::vec(
            prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN, 0.0..1.0f64, -3i32..9), 1..6),
            20..24,
        ),
        level in 4u8..10,
        threads in 2usize..4,
    ) {
        let polys: Vec<Polygon> = rings.iter().map(|r| make_raw_polygon(r)).collect();
        let base = make_base(&points);
        let (block, _) = build(&base, level, &Filter::all());
        let engine = GeoBlockEngine::new(block);
        let s = spec();
        let requests: Vec<QueryRequest> = polys
            .iter()
            .flat_map(|polygon| {
                let polygon = polygon.clone();
                [
                    QueryRequest::Select { polygon: polygon.clone(), spec: s.clone() },
                    QueryRequest::Count { polygon },
                ]
            })
            .collect();

        let check = |engine: &GeoBlockEngine, state: &str| -> Result<(), TestCaseError> {
            let block = engine.block_snapshot();
            let mut want = Vec::new();
            for p in &polys {
                let covering = block.cover(p);
                let sel = reference::select_covering(&block, &covering, &s);
                let cnt = reference::count_covering(&block, &covering);
                let got = engine.select(p, &s).result;
                prop_assert!(got.approx_eq(&sel, 0.0), "{}: select {:?} vs {:?}", state, got, sel);
                prop_assert_eq!(engine.count(p).result, cnt, "{}: count", state);
                want.push((sel, cnt));
            }
            for threads in [1, threads] {
                let reply = engine.query_batch(&requests, threads).expect("batch");
                let QueryReply::Batch(outer) = reply else {
                    return Err(TestCaseError::fail("batch reply has wrong variant".to_string()));
                };
                for (pair, (sel, cnt)) in outer.result.chunks(2).zip(&want) {
                    match pair {
                        [QueryReply::Select(a), QueryReply::Count(b)] => {
                            prop_assert!(a.result.approx_eq(sel, 0.0), "{}: batched select", state);
                            prop_assert_eq!(b.result, *cnt, "{}: batched count", state);
                        }
                        _ => return Err(TestCaseError::fail("batch item variant mismatch".to_string())),
                    }
                }
            }
            Ok(())
        };

        check(&engine, "fresh")?;

        let (mut in_place, mut new_cells) = (0, 0);
        for rows in &batches {
            let mut batch = UpdateBatch::new();
            for &(x, y, frac, magnitude) in rows {
                let v = (frac - 0.3) * 10f64.powi(magnitude);
                batch.push(Point::new(x, y), vec![v, (frac * 7.0).floor()]);
            }
            let report = engine.apply_updates(&batch).expect("finite rows").result;
            in_place += report.in_place;
            new_cells += report.new_cells;
            check(&engine, "updated")?;
        }
        prop_assert_eq!(in_place + new_cells, batches.iter().map(Vec::len).sum::<usize>());

        let file = std::env::temp_dir().join(format!(
            "gb_differential_{}_{:x}.gbsnap",
            std::process::id(),
            points.len() * 1_000_003 + batches.len() * 131 + rings.len()
        ));
        engine.write_snapshot(&file).expect("save");
        let restored = GeoBlockEngine::new(GeoBlock::read_snapshot(&file).expect("load").0);
        let _ = std::fs::remove_file(&file);
        check(&restored, "restored")?;
    }
}
