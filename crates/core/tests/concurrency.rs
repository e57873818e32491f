//! Concurrency coverage for the parallel build and the concurrent read
//! path: seeded, plain-thread stress tests (no loom — the vendored-deps
//! environment is std-only) asserting that parallelism never changes a
//! single answer.
//!
//! * `parallel_build_equals_serial_build_byte_for_byte` — the determinism
//!   contract of `build_parallel`: identical bytes, floats compared by
//!   bit pattern, across thread counts, levels, and filters.
//! * `concurrent_queries_during_updates_answer_their_epoch` — N threads
//!   hammer one `GeoBlockEngine` while another thread commits update
//!   batches; every answer must equal the plain block's ground truth for
//!   that polygon at the data epoch the answer reports.

use gb_cell::Grid;
use gb_data::{extract, AggSpec, CleaningRules, CmpOp, ColumnDef, Filter, RawTable, Rows, Schema};
use gb_geom::{Point, Polygon, Rect};
use geoblocks::{build, build_parallel, GeoBlock, GeoBlockEngine, UpdateBatch};
use std::sync::atomic::{AtomicUsize, Ordering};

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
fn concurrent_queries_during_updates_answer_their_epoch() {
    const N_THREADS: usize = 4;
    const QUERIES_PER_THREAD: usize = 60;
    const UPDATES: usize = 8;

    let base = base_data(6000, 42);
    let (block, _) = build(&base, 9, &Filter::all());
    let spec = AggSpec::paper_default(base.schema());

    // A pool of seeded polygons with a hot region, the update batches the
    // writer commits (fractional values, in place and into new cells),
    // and single-threaded ground truth per polygon at every data epoch.
    let polys: Vec<Polygon> = (0..24)
        .map(|i| {
            if i % 3 == 0 {
                diamond(50.0, 50.0, 12.0) // hot
            } else {
                diamond(10.0 + 3.4 * i as f64, 20.0 + 3.1 * i as f64, 6.0)
            }
        })
        .collect();
    let batches: Vec<UpdateBatch> = (0..UPDATES)
        .map(|u| {
            let mut batch = UpdateBatch::new();
            for k in 0..6 {
                let (x, y) = (40.0 + 2.3 * (u + k) as f64, 44.0 + 1.7 * k as f64);
                batch.push(Point::new(x, y), vec![0.1 * (u * 6 + k) as f64, 0.3]);
            }
            batch
        })
        .collect();
    let mut at_epoch = block.clone();
    let mut truth = Vec::with_capacity(UPDATES + 1);
    for epoch in 0..=UPDATES {
        if epoch > 0 {
            at_epoch
                .apply_updates(&batches[epoch - 1])
                .expect("valid batch");
        }
        let answers: Vec<_> = polys
            .iter()
            .map(|p| (at_epoch.select(p, &spec).0, at_epoch.count(p).0))
            .collect();
        truth.push(answers);
    }

    let engine = GeoBlockEngine::new(block);
    let mismatches = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // Writer: commits the batches while queries are in flight.
        scope.spawn(|| {
            for batch in &batches {
                engine.apply_updates(batch).expect("valid batch");
                std::thread::yield_now();
            }
        });

        for t in 0..N_THREADS {
            let (engine, polys, truth, spec) = (&engine, &polys, &truth, &spec);
            let (mismatches, answered) = (&mismatches, &answered);
            scope.spawn(move || {
                let mut rng = 0x9E3779B97F4A7C15u64.wrapping_mul(t as u64 + 1);
                for _ in 0..QUERIES_PER_THREAD {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let i = (rng >> 33) as usize % polys.len();
                    let sel = engine.select(&polys[i], spec);
                    let cnt = engine.count(&polys[i]);
                    let want_sel = &truth[sel.epoch as usize][i].0;
                    let want_cnt = truth[cnt.epoch as usize][i].1;
                    if !sel.result.approx_eq(want_sel, 0.0) || cnt.result != want_cnt {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    assert_eq!(
        mismatches.load(Ordering::Relaxed),
        0,
        "concurrent answers diverged from their epoch's ground truth"
    );
    assert_eq!(
        answered.load(Ordering::Relaxed),
        N_THREADS * QUERIES_PER_THREAD
    );
    assert_eq!(engine.data_epoch(), UPDATES as u64);
    for (p, (want_sel, want_cnt)) in polys.iter().zip(&truth[UPDATES]) {
        assert!(engine.select(p, &spec).result.approx_eq(want_sel, 0.0));
        assert_eq!(engine.count(p).result, *want_cnt);
    }
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

    let engine = std::sync::Arc::new(GeoBlockEngine::new(block));
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let engine = std::sync::Arc::clone(&engine);
            let spec = spec.clone();
            let poly = poly.clone();
            let want = want.clone();
            #[expect(
                clippy::disallowed_methods,
                reason = "the point of this test is N detached-then-joined owners of the Arc, not pool fan-out"
            )]
            std::thread::spawn(move || {
                for _ in 0..20 {
                    let got = engine.select(&poly, &spec).result;
                    assert!(got.approx_eq(&want, 0.0));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panics in query threads");
    }
}
