//! An exploratory-analysis session, as motivated in the paper's
//! introduction: an analyst repeatedly queries the same city areas with
//! varying aggregates, resizes regions, and compares neighborhoods — the
//! exact skew the paper's query cache exploits (§3.6).
//!
//! The example runs the same session against the paper's scanning Block,
//! its BlockQC (`gb_baselines`), and the `GeoBlockEngine`, whose pyramid
//! stores every cell's record, and reports the per-burst latency plus the
//! cache behaviour, then streams a batch of fresh rides into the engine
//! (§5 updates).
//!
//! ```text
//! cargo run --release --example city_dashboard
//! ```

use gb_baselines::{BlockIndex, BlockQcIndex, ScanBlockIndex, SpatialAggIndex};
use gb_common::Timer;
use gb_data::{datasets, extract, polygons, AggSpec, Filter, Rows};
use gb_geom::{Point, Polygon};
use geoblocks::{build, GeoBlockEngine, UpdateBatch};

/// The analyst's focus area queries: a few hot polygons queried over and
/// over with changing aggregate sets, plus occasional one-off lookups.
struct Session {
    hot: Vec<Polygon>,
    cold: Vec<Polygon>,
    specs: Vec<AggSpec>,
}

impl Session {
    fn new(schema: &gb_data::Schema, seed: u64) -> Session {
        let all = polygons::neighborhoods(120, seed);
        Session {
            hot: all[..6].to_vec(),
            cold: all[6..].to_vec(),
            specs: (1..=4)
                .map(|k| AggSpec::k_aggregates(schema, 2 * k))
                .collect(),
        }
    }

    /// One "work burst": every hot polygon with every aggregate set, plus
    /// a handful of cold lookups.
    fn run(&self, mut select: impl FnMut(&Polygon, &AggSpec) -> u64) -> u64 {
        let mut total = 0;
        for poly in &self.hot {
            for spec in &self.specs {
                total += select(poly, spec);
            }
        }
        for poly in self.cold.iter().step_by(17) {
            total += select(poly, &self.specs[0]);
        }
        total
    }
}

fn main() {
    let ds = datasets::nyc_taxi(600_000, 1);
    let base = extract(&ds.raw, ds.grid, &datasets::nyc_cleaning_rules(), None).base;
    let (block, _) = build(&base, 10, &Filter::all());
    println!(
        "dataset: {} rides, GeoBlock with {} cells at level {}",
        base.num_rows(),
        block.num_cells(),
        block.level()
    );

    let session = Session::new(base.schema(), 1);

    // Each variant runs five bursts and adapts after the first: BlockQC
    // rebuilds its cache from the statistics, the others have nothing to
    // adapt and cost the same every burst.
    let mut scan = ScanBlockIndex::new(block.clone());
    let mut qc = BlockQcIndex::new(block.clone(), 0.05);
    let mut pyramid = BlockIndex::new(block.clone());
    let bursts = |index: &mut dyn SpatialAggIndex| {
        (0..5)
            .map(|burst| {
                let t = Timer::start();
                let checksum = session.run(|p, s| index.select(p, s).count);
                if burst == 0 {
                    index.rebuild(); // BlockQC materializes the hot areas
                }
                (t.elapsed_ms(), checksum)
            })
            .collect::<Vec<_>>()
    };
    let scan_totals = bursts(&mut scan);
    let qc_totals = bursts(&mut qc);
    let pyramid_totals = bursts(&mut pyramid);

    println!("\nburst | Block (scan) ms | BlockQC ms | Pyramid ms");
    for (i, ((b, q), p)) in scan_totals
        .iter()
        .zip(&qc_totals)
        .zip(&pyramid_totals)
        .enumerate()
    {
        assert!(
            b.1 == q.1 && q.1 == p.1,
            "every variant must return identical counts"
        );
        println!(
            "  {}   |  {:14.2} | {:10.2} | {:10.2}{}",
            i + 1,
            b.0,
            q.0,
            p.0,
            if i == 0 { "  (cold)" } else { "" }
        );
    }
    println!(
        "\nBlockQC cache: {} aggregates cached, {}; the pyramid stores {} above the block level",
        qc.num_cached(),
        gb_common::fmt::bytes(qc.cached_bytes()),
        gb_common::fmt::bytes(block.derived_bytes()),
    );

    // Live updates: a batch of fresh rides lands in the first hot area
    // (§5), on a lattice over its bounding box clipped to the polygon.
    let engine = GeoBlockEngine::new(block);
    let schema_len = base.schema().len();
    let hot = &session.hot[0];
    let area = hot.bbox();
    let mut batch = UpdateBatch::new();
    for i in 0..25 {
        for j in 0..25 {
            let x = area.min.x + (i as f64 + 0.5) * area.width() / 25.0;
            let y = area.min.y + (j as f64 + 0.5) * area.height() / 25.0;
            let ride = Point::new(x, y);
            if hot.contains_point(ride) {
                batch.push(ride, vec![10.0; schema_len]);
            }
        }
    }
    let before = engine.count(hot).result;
    let report = engine.apply_updates(&batch).expect("finite rows").result;
    let after = engine.count(hot).result;
    println!(
        "\nupdates: {} rows inside the hot area, {} in place, {} new cells; \
         hot-area count {before} → {after}",
        batch.len(),
        report.in_place,
        report.new_cells
    );
    assert_eq!(
        after - before,
        batch.len() as u64,
        "every row inside the polygon lies in one of its covering cells"
    );
}
