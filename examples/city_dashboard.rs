//! An exploratory-analysis session, as motivated in the paper's
//! introduction: an analyst repeatedly queries the same city areas with
//! varying aggregates, resizes regions, and compares neighborhoods — the
//! exact skew the AggregateTrie exploits (§3.6).
//!
//! The example runs the same session against a plain Block and a BlockQC
//! (a `GeoBlockEngine` without its covering memo, as in the paper)
//! and reports the per-phase latency plus the cache behaviour, then streams
//! a batch of fresh rides into the structure (§5 updates).
//!
//! ```text
//! cargo run --release --example city_dashboard
//! ```

use gb_common::Timer;
use gb_data::{datasets, extract, polygons, AggSpec, Filter, Rows};
use gb_geom::{Point, Polygon};
use geoblocks::{build, GeoBlock, GeoBlockEngine, UpdateBatch};

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

    // Plain Block: every burst costs the same.
    let plain: GeoBlock = block.clone();
    let mut plain_totals = Vec::new();
    for _ in 0..5 {
        let t = Timer::start();
        let checksum = session.run(|p, s| plain.select(p, s).0.count);
        plain_totals.push((t.elapsed_ms(), checksum));
    }

    // BlockQC: statistics accumulate, the cache warms after burst 1.
    let qc = GeoBlockEngine::new(block, 0.05).with_memo_capacity(0);
    let mut qc_totals = Vec::new();
    for burst in 0..5 {
        let t = Timer::start();
        let checksum = session.run(|p, s| qc.select(p, s).result.count);
        qc_totals.push((t.elapsed_ms(), checksum));
        if burst == 0 {
            qc.rebuild_cache(); // materialize the hot areas
        }
    }

    println!("\nburst | Block ms | BlockQC ms");
    for (i, (p, q)) in plain_totals.iter().zip(&qc_totals).enumerate() {
        assert_eq!(p.1, q.1, "both variants must return identical results");
        println!(
            "  {}   |  {:7.2} |  {:7.2}{}",
            i + 1,
            p.0,
            q.0,
            if i == 0 { "  (cold)" } else { "" }
        );
    }
    println!(
        "\ncache: {} aggregates cached, {}",
        qc.trie_snapshot().num_cached(),
        gb_common::fmt::bytes(qc.trie_snapshot().size_bytes()),
    );

    // Live updates: a batch of fresh rides lands in Manhattan (§5).
    let schema_len = base.schema().len();
    let mut batch = UpdateBatch::new();
    for i in 0..500 {
        let x = 24.0 + (i % 25) as f64 * 0.2;
        let y = 30.0 + (i / 25) as f64 * 0.6;
        batch.push(Point::new(x, y), vec![10.0; schema_len]);
    }
    let before = qc.count(&session.hot[0]).result;
    let report = qc.apply_updates(&batch).expect("finite rows").result;
    let after = qc.count(&session.hot[0]).result;
    println!(
        "\nupdates: {} in place, {} new cells; hot-area count {before} → {after}",
        report.in_place, report.new_cells
    );
}
