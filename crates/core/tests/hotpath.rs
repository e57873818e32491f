//! Property tests for the query hot path: the covering memo, the
//! aggregate cache and batched execution must be invisible to results for
//! *any* data and *any* polygon (including degenerate rings).
//!
//! 1. Memoized coverings answer bit-identically to fresh coverings, and
//!    rotated rings (same geometry, different start vertex) hit the memo.
//! 2. Batched execution is bit-identical to per-request execution — on
//!    one thread and many — across an update epoch bump.
//! 3. The engine's hit log, folded, counts what a plain hash map fed from
//!    `block.cover` counts, across cache rebuilds, snapshots and restarts,
//!    and a restored cache is the one the saved statistics rebuild.
//! 4. The differential property: engine ≡ `geoblocks::reference` at
//!    tolerance `0.0` — cache cold, rebuilt, across update batches of
//!    fractional values, batched, and restored from a snapshot.
//!
//! That the cache's lookup is a binary search of its key column is a unit
//! property of `geoblocks::trie`.

use gb_cell::Grid;
use gb_data::{
    extract, AggFunc, AggRequest, AggSpec, CleaningRules, ColumnDef, Filter, RawTable, Schema,
};
use gb_geom::{convex_hull, Point, Polygon, Rect};
use geoblocks::api::{self, QueryReply, QueryRequest};
use geoblocks::{build, reference, GeoBlockEngine, HitCounts, Snapshot, UpdateBatch};
use proptest::prelude::*;

const DOMAIN: f64 = 100.0;

fn schema() -> Schema {
    Schema::new(vec![ColumnDef::f64("v"), ColumnDef::i64("k")])
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
/// vertex order, so it must share the memo entry with the original.
fn rotate_ring(poly: &Polygon, k: usize) -> Polygon {
    let ring = poly.exterior();
    let k = k % ring.len();
    let mut rotated = ring[k..].to_vec();
    rotated.extend_from_slice(&ring[..k]);
    Polygon::new(rotated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Memoized covering ≡ fresh covering: the engine (memo path) must
    /// agree bit-for-bit with the bare block (no memo), the second
    /// identical query must be a memo hit, and a rotated ring must both
    /// hit the memo *and* still answer identically.
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

        let engine = GeoBlockEngine::new(block, 0.1);
        prop_assert_eq!(engine.metrics().covering_memo_hits, 0);

        // First query misses the memo, second hits — both bit-identical
        // to the memo-free block answer.
        let first = engine.select(&poly, &s).result;
        prop_assert!(first.approx_eq(&want_sel, 0.0), "{:?} vs {:?}", first, want_sel);
        prop_assert_eq!(engine.metrics().covering_memo_misses, 1);
        let second = engine.select(&poly, &s).result;
        prop_assert!(second.approx_eq(&want_sel, 0.0));
        prop_assert!(engine.metrics().covering_memo_hits >= 1, "repeat query missed the memo");
        prop_assert_eq!(engine.count(&poly).result, want_cnt);

        // A rotated ring is the same polygon content: memo hit, same answer.
        let hits_before = engine.metrics().covering_memo_hits;
        let rotated = rotate_ring(&poly, rot);
        let via_rot = engine.select(&rotated, &s).result;
        prop_assert!(via_rot.approx_eq(&want_sel, 0.0), "rotation changed the answer");
        prop_assert!(
            engine.metrics().covering_memo_hits > hits_before,
            "rotated ring missed the memo"
        );
    }

    /// Batched execution ≡ sequential execution, across an epoch bump:
    /// the single-threaded and pooled batch replies are byte-identical,
    /// every item matches its individual per-request answer, and after
    /// an update the batch answers at the bumped epoch with the new data.
    #[test]
    fn batch_matches_sequential_across_epoch_bump(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 50..250),
        polys in prop::collection::vec(
            prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 3..8),
            1..6,
        ),
        updates in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 1..20),
        threads in 2usize..5,
    ) {
        prop_assume!(polys.iter().all(|s| make_polygon(s).is_some()));
        let base = make_base(&points);
        let (block, _) = build(&base, 9, &Filter::all());
        let engine = GeoBlockEngine::new(block, 0.1);
        let s = spec();

        // Alternate Select/Count items, repeating each polygon twice so
        // the batch exercises the shared-covering grouping.
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

        let check_epoch = |engine: &GeoBlockEngine, want_epoch: u64| -> Result<(), TestCaseError> {
            let seq = engine.query_batch(&requests, 1).expect("sequential batch");
            let par = engine.query_batch(&requests, threads).expect("pooled batch");
            prop_assert_eq!(
                api::encode_reply(&Ok(seq.clone())),
                api::encode_reply(&Ok(par)),
                "pooled batch bytes diverged from sequential"
            );
            prop_assert_eq!(seq.epoch(), want_epoch);
            let QueryReply::Batch(ref outer) = seq else {
                return Err(TestCaseError::fail("batch reply has wrong variant".to_string()));
            };
            prop_assert_eq!(outer.result.len(), requests.len());
            for (req, item) in requests.iter().zip(&outer.result) {
                prop_assert_eq!(item.epoch(), want_epoch, "item answered off the pinned epoch");
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
        check_epoch(&engine, epoch0)?;

        // Bump the data epoch and re-check: the batch must see the new
        // data, at the new epoch, still bit-identical across modes.
        let mut batch = UpdateBatch::new();
        for &(x, y) in &updates {
            batch.push(Point::new(x, y), vec![1.0, 2.0]);
        }
        engine.apply_updates(&batch).expect("update");
        prop_assert_eq!(engine.data_epoch(), epoch0 + 1);
        check_epoch(&engine, epoch0 + 1)?;
    }

    /// Log + fold ≡ a hash-map counter: across queries, rebuilds,
    /// snapshots and restarts the engine's `HITS` section holds what a
    /// plain hash map fed from `block.cover` counts, answers stay the
    /// block's, and the statistics rebuild the same cache wherever they
    /// are — a restored engine's included.
    #[test]
    fn hit_log_counts_what_a_hash_map_counts(
        points in prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 50..300),
        rings in prop::collection::vec(prop::collection::vec((0.0..DOMAIN, 0.0..DOMAIN), 3..8), 2..6),
        ops in prop::collection::vec((0u8..10, 0usize..64), 5..60),
        level in 4u8..10,
    ) {
        let polys: Vec<Polygon> = rings.iter().map(|r| make_raw_polygon(r)).collect();
        let base = make_base(&points);
        let (block, _) = build(&base, level, &Filter::all());
        let mut engine = GeoBlockEngine::new(block.clone(), 0.3);
        let mut counter: std::collections::HashMap<u64, u64> = Default::default();
        let s = spec();

        let dir = std::env::temp_dir().join(format!(
            "gb_hit_log_{}_{:x}",
            std::process::id(),
            points.len() * 1_000_003 + ops.len() * 131 + rings.len()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let file = dir.join("engine.gbsnap");
        // Save the engine and compare what the file holds to the counter,
        // and the cache it restores to the one the engine rebuilds.
        let save = |engine: &GeoBlockEngine, counter: &std::collections::HashMap<u64, u64>| {
            engine.write_snapshot(&file).expect("engine save");
            let snap = Snapshot::load(&file).expect("engine load");
            let want: HitCounts = counter.iter().map(|(&cell, &hits)| (cell, hits)).collect();
            prop_assert_eq!(snap.hits.as_ref(), Some(&want), "HITS section differs");
            let restored = GeoBlockEngine::from_snapshot_state(snap, 0.3);
            engine.rebuild_cache();
            prop_assert_eq!(
                restored.trie_snapshot().content_hash(),
                engine.trie_snapshot().content_hash()
            );
            Ok(())
        };

        for &(op, i) in &ops {
            match op {
                7 => engine.rebuild_cache(),
                8 => save(&engine, &counter)?,
                9 => {
                    // Restart from the engine's own file.
                    save(&engine, &counter)?;
                    engine = GeoBlockEngine::from_snapshot(&file, 0.3).expect("restart");
                }
                _ => {
                    let p = &polys[i % polys.len()];
                    for cell in block.cover(p).iter().filter(|&c| block.may_overlap(c)) {
                        *counter.entry(cell.raw()).or_insert(0) += 1;
                    }
                    let got = engine.select(p, &s).result;
                    let (want, _) = block.select(p, &s);
                    prop_assert!(got.approx_eq(&want, 0.0));
                }
            }
        }
        save(&engine, &counter)?;
        prop_assert_eq!(engine.tracked_cells(), counter.len());
        let restarted = GeoBlockEngine::from_snapshot(&file, 0.3).expect("restart");
        engine.rebuild_cache();
        restarted.rebuild_cache();
        prop_assert_eq!(
            engine.trie_snapshot().content_hash(),
            restarted.trie_snapshot().content_hash(),
            "rebuilt caches differ"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The differential property: whatever state the engine is in — cache
    /// cold, rebuilt, refilled by update batches of fractional values of
    /// mixed magnitude (in place and into new cells), rebuilt again,
    /// restored from a snapshot — `select`, `count` and `query_batch`
    /// answer exactly (`0.0`) what the naive reference folds from the
    /// block records of the same epoch.
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
        // Threshold 1: every queried cell becomes cacheable, so a rebuilt
        // cache answers as much as a cache can.
        let engine = GeoBlockEngine::new(block, 1.0);
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

        check(&engine, "cold")?;
        engine.rebuild_cache();
        check(&engine, "rebuilt")?;

        let (mut in_place, mut new_cells) = (0, 0);
        for (i, rows) in batches.iter().enumerate() {
            let mut batch = UpdateBatch::new();
            for &(x, y, frac, magnitude) in rows {
                let v = (frac - 0.3) * 10f64.powi(magnitude);
                batch.push(Point::new(x, y), vec![v, (frac * 7.0).floor()]);
            }
            let report = engine.apply_updates(&batch).expect("finite rows").result;
            in_place += report.in_place;
            new_cells += report.new_cells;
            check(&engine, "updated")?;
            if i == batches.len() / 2 {
                // The statistics now name cells the updates created.
                engine.rebuild_cache();
                check(&engine, "rebuilt between updates")?;
            }
        }
        prop_assert_eq!(in_place + new_cells, batches.iter().map(Vec::len).sum::<usize>());
        prop_assert!(engine.metrics().direct_hits > 0, "the cache never answered");

        let file = std::env::temp_dir().join(format!(
            "gb_differential_{}_{:x}.gbsnap",
            std::process::id(),
            points.len() * 1_000_003 + batches.len() * 131 + rings.len()
        ));
        engine.write_snapshot(&file).expect("save");
        let restored = GeoBlockEngine::from_snapshot(&file, 1.0).expect("load");
        let _ = std::fs::remove_file(&file);
        // The restored cache is the one the saved statistics rebuild.
        engine.rebuild_cache();
        prop_assert_eq!(
            restored.trie_snapshot().content_hash(),
            engine.trie_snapshot().content_hash()
        );
        check(&restored, "restored")?;
    }
}
