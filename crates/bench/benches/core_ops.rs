//! Micro-benchmarks of the hot operations in the GeoBlocks query path.
//!
//! These complement the `repro` harness (which regenerates the paper's
//! figures): each bench isolates one primitive — point→cell mapping,
//! polygon covering, aggregate-range scans, COUNT, the covering memo, the
//! substrate index probes, and a snapshot save/load against the
//! rebuild it stands in for.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gb_cell::{cover_polygon, Grid};
use gb_data::{datasets, extract, polygons, AggSpec, Filter, Rows};
use gb_geom::Point;
use geoblocks::{build, GeoBlock};
use std::hint::black_box;

/// Small but realistic setup shared by the benches (kept modest so
/// `cargo bench` finishes quickly).
struct Setup {
    base: gb_data::BaseTable,
    block: geoblocks::GeoBlock,
    polys: Vec<gb_geom::Polygon>,
    spec: AggSpec,
}

fn setup() -> Setup {
    let ds = datasets::nyc_taxi(200_000, 7);
    let base = extract(&ds.raw, ds.grid, &datasets::nyc_cleaning_rules(), None).base;
    let (block, _) = build(&base, 10, &Filter::all());
    let polys = polygons::neighborhoods(64, 7);
    let spec = AggSpec::k_aggregates(base.schema(), 7);
    Setup {
        base,
        block,
        polys,
        spec,
    }
}

fn bench_point_to_cell(c: &mut Criterion) {
    let grid = Grid::hilbert(datasets::nyc_domain());
    let pts: Vec<Point> = (0..256)
        .map(|i| {
            Point::new(
                30.0 + (i as f64 * 0.173).sin() * 25.0,
                30.0 + (i as f64 * 0.311).cos() * 25.0,
            )
        })
        .collect();

    let mut g = c.benchmark_group("point_to_leaf");
    g.bench_function("hilbert", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &p in &pts {
                acc ^= grid.leaf_for_point(black_box(p)).raw();
            }
            acc
        })
    });
    // The float → lattice step alone, which every key starts with: the
    // reference arm `hilbert` is gated against.
    g.bench_function("lattice", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &p in &pts {
                let (i, j) = grid.leaf_ij(black_box(p));
                acc ^= u64::from(i) << 32 | u64::from(j);
            }
            acc
        })
    });
    g.finish();
}

fn bench_covering(c: &mut Criterion) {
    let s = setup();
    let grid = s.base.grid();
    let mut g = c.benchmark_group("covering");
    for level in [8u8, 10, 12] {
        g.bench_function(format!("neighborhood_level_{level}"), |b| {
            let mut i = 0usize;
            b.iter(|| {
                let poly = &s.polys[i % s.polys.len()];
                i += 1;
                black_box(cover_polygon(grid, poly, level).len())
            })
        });
    }
    g.finish();
}

fn bench_queries(c: &mut Criterion) {
    let s = setup();
    let mut g = c.benchmark_group("block_query");
    g.bench_function("select_7aggs", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &s.polys[i % s.polys.len()];
            i += 1;
            black_box(s.block.select(poly, &s.spec).0.count)
        })
    });
    g.bench_function("count", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &s.polys[i % s.polys.len()];
            i += 1;
            black_box(s.block.count(poly).0)
        })
    });
    g.finish();
}

fn bench_covering_memo(c: &mut Criterion) {
    use geoblocks::CoveringMemo;
    let s = setup();
    let level = s.block.level();

    let mut g = c.benchmark_group("covering_memo");
    // Cold: every polygon misses (fresh memo per pass), so each lookup
    // pays hashing + the real covering + insert — the miss-path overhead
    // relative to the bare `covering/*` benches.
    g.bench_function("cold", |b| {
        b.iter_batched(
            || CoveringMemo::new(512),
            |memo| {
                let mut total = 0usize;
                for poly in &s.polys {
                    let verify = gb_cell::normalized_vertex_bits(black_box(poly));
                    let key = gb_cell::cover_key_from_bits(&verify, level);
                    total += memo
                        .get_or_insert_with(key, &verify, || s.block.cover(poly))
                        .len();
                }
                total
            },
            BatchSize::LargeInput,
        )
    });
    // Warm: every polygon hits, so a lookup is hashing + one shard probe
    // + the verify compare — the cost repeated dashboard queries pay
    // instead of re-covering.
    let memo = CoveringMemo::new(512);
    for poly in &s.polys {
        let verify = gb_cell::normalized_vertex_bits(poly);
        let key = gb_cell::cover_key_from_bits(&verify, level);
        memo.get_or_insert_with(key, &verify, || s.block.cover(poly));
    }
    g.bench_function("warm", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for poly in &s.polys {
                let verify = gb_cell::normalized_vertex_bits(black_box(poly));
                let key = gb_cell::cover_key_from_bits(&verify, level);
                total += memo
                    .get_or_insert_with(key, &verify, || s.block.cover(poly))
                    .len();
            }
            total
        })
    });
    g.finish();
}

fn bench_serve_batch(c: &mut Criterion) {
    use gb_serve::http::HttpRequest;
    use gb_serve::{GbServer, ServeConfig};
    use geoblocks::api::{self, QueryRequest};
    use geoblocks::GeoBlockEngine;
    use std::sync::Arc;

    let s = setup();
    let engine = Arc::new(GeoBlockEngine::new(s.block.clone()));
    let server = GbServer::new(
        Arc::clone(&engine),
        ServeConfig {
            quota_per_sec: 0.0,
            cache_capacity: 0, // measure execution, not replay
            ..ServeConfig::default()
        },
    );
    // An 8-item dashboard fan-in with repeated polygons (their items
    // share coverings through the memo), through the full in-process HTTP
    // handler: parse → decode → batch execute → encode.
    let requests: Vec<QueryRequest> = (0..8)
        .map(|i| {
            let polygon = s.polys[(i * 5) % 4].clone();
            if i % 3 == 2 {
                QueryRequest::Count { polygon }
            } else {
                QueryRequest::Select {
                    polygon,
                    spec: s.spec.clone(),
                }
            }
        })
        .collect();
    // The same eight requests sent one by one: what the batch has to beat.
    let items: Vec<(&str, Vec<u8>)> = requests
        .iter()
        .map(|req| {
            let path = match req {
                QueryRequest::Count { .. } => "/v1/count",
                _ => "/v1/select",
            };
            (path, api::encode_request(req))
        })
        .collect();
    let body = api::encode_request(&QueryRequest::Batch { requests });

    c.bench_function("serve_batch", |b| {
        b.iter(|| {
            let req = HttpRequest::new("POST", "/v1/batch").with_body(body.clone());
            let resp = server.handle(black_box(&req));
            assert_eq!(resp.status, 200);
            resp.body.len()
        })
    });
    c.bench_function("serve_batch_items", |b| {
        b.iter(|| {
            let mut len = 0;
            for (path, body) in &items {
                let req = HttpRequest::new("POST", path).with_body(body.clone());
                let resp = server.handle(black_box(&req));
                assert_eq!(resp.status, 200);
                len += resp.body.len();
            }
            len
        })
    });
}

fn bench_substrates(c: &mut Criterion) {
    let s = setup();
    let pairs: Vec<(u64, u32)> = s
        .base
        .keys()
        .iter()
        .enumerate()
        .map(|(r, &k)| (k, r as u32))
        .collect();
    let tree = gb_btree::BPlusTree::bulk_load(&pairs);
    let probe_keys: Vec<u64> = pairs.iter().step_by(997).map(|p| p.0).collect();

    let mut g = c.benchmark_group("substrates");
    g.bench_function("btree_lower_bound", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &k in &probe_keys {
                if let Some((key, _)) = tree.lower_bound(black_box(k)).peek() {
                    acc ^= key;
                }
            }
            acc
        })
    });
    g.bench_function("base_binary_search", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &k in &probe_keys {
                acc ^= s.base.lower_bound(black_box(k));
            }
            acc
        })
    });
    g.finish();
}

fn bench_build(c: &mut Criterion) {
    let ds = datasets::nyc_taxi(100_000, 9);
    let base = extract(&ds.raw, ds.grid, &datasets::nyc_cleaning_rules(), None).base;
    let mut g = c.benchmark_group("build");
    g.sample_size(10);
    g.bench_function("geoblock_level10_100k", |b| {
        b.iter_batched(
            || (),
            |_| black_box(build(&base, 10, &Filter::all()).0.num_cells()),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Restart vs rebuild, in memory (no file-system noise): what a process
/// pays to come back from a snapshot against what it pays to start from
/// the raw rows. `perf-smoke` gates `load ÷ rebuild` as a ratio between
/// these arms — a "warm start" has to beat the build it replaces.
fn bench_persist(c: &mut Criterion) {
    let ds = datasets::nyc_taxi(100_000, 9);
    let rules = datasets::nyc_cleaning_rules();
    let rebuild = || {
        let base = extract(&ds.raw, ds.grid, &rules, None).base;
        build(&base, 10, &Filter::all()).0
    };
    let block = rebuild();
    let bytes = block.to_snapshot_bytes();
    let mut g = c.benchmark_group("persist");
    g.sample_size(10);
    g.bench_function("rebuild", |b| b.iter(|| black_box(rebuild().num_cells())));
    g.bench_function("save", |b| {
        b.iter(|| black_box(block.to_snapshot_bytes().len()))
    });
    g.bench_function("load", |b| {
        b.iter(|| {
            let loaded = GeoBlock::from_snapshot_bytes(black_box(&bytes)).expect("own bytes load");
            black_box(loaded.num_cells())
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_point_to_cell, bench_covering, bench_queries, bench_covering_memo, bench_serve_batch, bench_substrates, bench_build, bench_persist
}
criterion_main!(benches);
