//! Diagnostic: covering vs aggregation vs cache cost on hot polygons.
use gb_bench::Ctx;
use gb_data::{polygons, AggSpec, Filter, Rows};
use geoblocks::{build, GeoBlockEngine};

fn main() {
    let ctx = Ctx::default();
    let base = ctx.taxi_base(None);
    let (block, _) = build(&base, 10, &Filter::all());
    println!("rows {} cells {}", base.num_rows(), block.num_cells());
    let polys = polygons::neighborhoods(195, ctx.seed);
    let spec = AggSpec::k_aggregates(base.schema(), 7);

    // per-polygon: covering time, cells, select time, aggregates combined
    let mut worst: Vec<(f64, usize, usize)> = Vec::new();
    for p in &polys {
        let t = gb_common::Timer::start();
        let cov = block.cover(p);
        let cover_us = t.elapsed_us();
        let t = gb_common::Timer::start();
        let (_, st) = block.select_covering(&cov, &spec);
        let sel_us = t.elapsed_us();
        worst.push((cover_us + sel_us, st.cells_combined, cov.len()));
    }
    worst.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    println!("top5 total_us/combined/covcells: {:?}", &worst[..5]);
    let avg: f64 = worst.iter().map(|w| w.0).sum::<f64>() / worst.len() as f64;
    let avgc: f64 = worst.iter().map(|w| w.1 as f64).sum::<f64>() / worst.len() as f64;
    println!("avg total {avg:.1} us, avg combined {avgc:.0}");

    // hot-polygon cache comparison (memo off: every query pays its covering)
    let hot = &polys[0..6];
    let qc = GeoBlockEngine::new(block.clone(), 0.1).with_memo_capacity(0);
    for _ in 0..4 {
        for p in hot {
            qc.select(p, &spec);
        }
    }
    qc.rebuild_cache();
    qc.reset_metrics();
    let t = gb_common::Timer::start();
    let mut n = 0u64;
    for _ in 0..20 {
        for p in hot {
            n += qc.select(p, &spec).result.count;
        }
    }
    let qc_us = t.elapsed_us() / 120.0;
    let t = gb_common::Timer::start();
    for _ in 0..20 {
        for p in hot {
            n += block.select(p, &spec).0.count;
        }
    }
    let bl_us = t.elapsed_us() / 120.0;
    let m = qc.metrics();
    println!(
        "hot: block {bl_us:.1} us vs qc {qc_us:.1} us; hit rate {:.2} ({n})",
        m.hit_rate()
    );
}
