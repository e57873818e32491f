//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! * **select algorithm**: the production SELECT (one record lookup per
//!   covering cell) vs the naive oracle `geoblocks::reference`, which
//!   folds each covering cell's tree from the block records (the arm is
//!   still named `range_scan`, as the CI gate reads it), on the paper's
//!   neighbourhood workload.
//! * **select pyramid**: the coarse-interior workload (deep block level,
//!   large polygons) where interior covering cells expand to thousands of
//!   block records — the regime the aggregate pyramid exists for.
//! * **cache**: the paper's BlockQC (`gb_baselines::BlockQcIndex`), its
//!   cache empty vs rebuilt, on the hot subset of a skewed workload and on
//!   pan/zoom views of it that overlap but never repeat — what the
//!   paper's cache buys over the paper's scanning Block (the arms keep
//!   their `trie_*` names, as the CI gate reads them).
//! * **count vs select**: COUNT, which sums the counts of the records
//!   SELECT's search finds, against a count-only SELECT, which combines
//!   those records — what summing a count column saves over combining
//!   whole records on the same search.
//!
//! The arms of one group run side by side, so CI gates their *ratios*
//! (`bench_diff --ratio`), which hold on any host.

use criterion::{criterion_group, criterion_main, Criterion};
use gb_baselines::{BlockQcIndex, SpatialAggIndex};
use gb_cell::Grid;
use gb_data::{datasets, extract, polygons, AggSpec, Filter, Rows};
use gb_geom::Polygon;
use geoblocks::{build, reference};
use std::hint::black_box;

fn taxi_base() -> gb_data::BaseTable {
    let ds = datasets::nyc_taxi(200_000, 7);
    let grid = Grid::hilbert(datasets::nyc_domain());
    extract(&ds.raw, grid, &datasets::nyc_cleaning_rules(), None).base
}

fn ablate_select_algorithm(c: &mut Criterion) {
    let base = taxi_base();
    let (block, _) = build(&base, 10, &Filter::all());
    let polys = polygons::neighborhoods(48, 7);
    let spec = AggSpec::k_aggregates(base.schema(), 7);

    let mut g = c.benchmark_group("select_ablation");
    g.bench_function("pyramid", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &polys[i % polys.len()];
            i += 1;
            black_box(block.select(poly, &spec).0.count)
        })
    });
    g.bench_function("range_scan", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &polys[i % polys.len()];
            i += 1;
            black_box(reference::select_covering(&block, &block.cover(poly), &spec).count)
        })
    });
    g.finish();
}

/// The coarse-interior regime: block level 12 over the taxi data and
/// polygons spanning whole boroughs, so interior covering cells sit many
/// levels above the block level and the oracle folds thousands of records
/// per query while the pyramid path combines one per cell.
fn ablate_select_pyramid(c: &mut Criterion) {
    let base = taxi_base();
    let (block, _) = build(&base, 12, &Filter::all());
    let spec = AggSpec::k_aggregates(base.schema(), 7);
    let domain = datasets::nyc_domain();
    let (cx, cy) = (
        (domain.min.x + domain.max.x) / 2.0,
        (domain.min.y + domain.max.y) / 2.0,
    );
    let (w, h) = (domain.max.x - domain.min.x, domain.max.y - domain.min.y);
    // Borough-scale diamonds centered on the data's hotspots.
    let polys: Vec<gb_geom::Polygon> = (0..6)
        .map(|i| {
            let r = (0.18 + 0.05 * i as f64) * w.min(h);
            let (px, py) = (cx - w * 0.1 + i as f64 * w * 0.04, cy + h * 0.05);
            gb_geom::Polygon::new(vec![
                gb_geom::Point::new(px, py - r),
                gb_geom::Point::new(px + r, py),
                gb_geom::Point::new(px, py + r),
                gb_geom::Point::new(px - r, py),
            ])
        })
        .collect();

    let mut g = c.benchmark_group("select_pyramid");
    g.bench_function("pyramid", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &polys[i % polys.len()];
            i += 1;
            black_box(block.select(poly, &spec).0.count)
        })
    });
    g.bench_function("range_scan", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &polys[i % polys.len()];
            i += 1;
            black_box(reference::select_covering(&block, &block.cover(poly), &spec).count)
        })
    });
    g.finish();
}

/// `views` pan/zoom views of `polygon`, numbered from `first`: moved by
/// 8 % of its extent in a direction that turns with the number, scaled by
/// 0.9–1.1 about its centroid. Views of different numbers overlap and are
/// never identical.
fn pan_zoom(polygon: &Polygon, first: usize, views: usize) -> Vec<Polygon> {
    let (center, bbox) = (polygon.centroid(), polygon.bbox());
    let extent = (bbox.max.x - bbox.min.x).max(bbox.max.y - bbox.min.y);
    (first..first + views)
        .map(|k| {
            let turn = k as f64 * 2.399_963; // the golden angle
            let pan = gb_geom::Point::new(turn.cos(), turn.sin()) * (0.08 * extent);
            let zoom = 0.9 + 0.2 * (k as f64 * 0.618_034).fract();
            let ring = polygon.exterior().iter();
            Polygon::new(ring.map(|&v| center + pan + (v - center) * zoom).collect())
        })
        .collect()
}

/// Does the paper's cache pay? Two BlockQC indexes — every query pays its
/// covering, as in the paper — one with the cache it is born with
/// (empty), one with a cache rebuilt from the statistics of a skewed
/// session, on (a) the session's hot polygons and (b) pan/zoom views of
/// them the session never asked.
fn ablate_cache(c: &mut Criterion) {
    let base = taxi_base();
    let (block, _) = build(&base, 10, &Filter::all());
    let polys = polygons::neighborhoods(48, 7);
    let spec = AggSpec::k_aggregates(base.schema(), 7);
    // The "hot" 10% subset, as in the skewed workload.
    let hot: Vec<_> = polys.iter().take(5).cloned().collect();
    let seen: Vec<_> = hot.iter().flat_map(|p| pan_zoom(p, 0, 8)).collect();
    let unseen: Vec<_> = hot.iter().flat_map(|p| pan_zoom(p, 8, 8)).collect();

    let index = || BlockQcIndex::new(block.clone(), 0.1);
    let (mut cold, mut warm) = (index(), index());
    for _ in 0..4 {
        for p in hot.iter().chain(&seen) {
            warm.select(p, &spec);
        }
    }
    warm.rebuild();

    let mut g = c.benchmark_group("cache_ablation");
    for (workload, polys) in [("hot", &hot), ("panzoom", &unseen)] {
        for (trie, index) in [("trie_empty", &mut cold), ("trie_rebuilt", &mut warm)] {
            g.bench_function(format!("{workload}_{trie}"), |b| {
                let mut i = 0usize;
                b.iter(|| {
                    let poly = &polys[i % polys.len()];
                    i += 1;
                    black_box(index.select(poly, &spec).count)
                })
            });
        }
    }
    g.finish();
}

fn ablate_count_vs_select(c: &mut Criterion) {
    let base = taxi_base();
    let (block, _) = build(&base, 10, &Filter::all());
    let polys = polygons::neighborhoods(48, 7);
    let count_spec = AggSpec::count_only();

    let mut g = c.benchmark_group("count_vs_select");
    g.bench_function("count", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &polys[i % polys.len()];
            i += 1;
            black_box(block.count(poly).0)
        })
    });
    g.bench_function("select_count_only", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let poly = &polys[i % polys.len()];
            i += 1;
            black_box(block.select(poly, &count_spec).0.count)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_secs(1));
    targets = ablate_select_algorithm, ablate_select_pyramid, ablate_cache, ablate_count_vs_select
}
criterion_main!(benches);
