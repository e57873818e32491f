//! Quickstart: build a GeoBlock over synthetic taxi data and run spatial
//! aggregation queries over an arbitrary polygon.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gb_baselines::{BlockQcIndex, SpatialAggIndex};
use gb_data::{datasets, extract, polygons, AggFunc, AggRequest, AggSpec, Filter, Rows};
use geoblocks::build;

fn main() {
    // 1. Generate a synthetic NYC-taxi-like dataset (deterministic seed)
    //    and run the extract phase: clean, compute spatial keys, sort.
    let ds = datasets::nyc_taxi(300_000, 42);
    let extract = extract(&ds.raw, ds.grid, &datasets::nyc_cleaning_rules(), None);
    let base = extract.base;
    println!(
        "extracted {} rows ({} dirty rows dropped) in {:.0} ms",
        base.num_rows(),
        extract.stats.rows_dropped,
        extract.stats.total_time().as_secs_f64() * 1e3,
    );

    // 2. Build a GeoBlock. The block level bounds the spatial error: level
    //    10 on the 60 km domain ≈ 83 m cell diagonal.
    let level = 10;
    let (block, stats) = build(&base, level, &Filter::all());
    println!(
        "built GeoBlock: {} cells over {} rows in {:.0} ms (max spatial error {:.0} m)",
        block.num_cells(),
        block.num_rows(),
        stats.build_time.as_secs_f64() * 1e3,
        block.error_bound() * 1000.0,
    );

    // 3. Query a neighborhood polygon for several aggregates at once.
    let neighborhood = &polygons::neighborhoods(20, 42)[7];
    let schema = base.schema();
    let spec = AggSpec::new(vec![
        AggRequest::new(AggFunc::Count, 0),
        AggRequest::new(AggFunc::Sum, schema.index_of("fare_amount").unwrap()),
        AggRequest::new(AggFunc::Avg, schema.index_of("trip_distance").unwrap()),
        AggRequest::new(AggFunc::Max, schema.index_of("tip_amount").unwrap()),
    ]);
    let (result, qstats) = block.select(neighborhood, &spec);
    println!("\nSELECT over one neighborhood polygon:");
    println!("  rides (count):      {}", result.count);
    println!(
        "  sum(fare_amount):   {:.2}",
        result.value(1).unwrap_or(f64::NAN)
    );
    println!(
        "  avg(trip_distance): {:.2}",
        result.value(2).unwrap_or(f64::NAN)
    );
    println!(
        "  max(tip_amount):    {:.2}",
        result.value(3).unwrap_or(f64::NAN)
    );
    println!(
        "  ({} covering cells, {} cell aggregates combined)",
        qstats.query_cells, qstats.cells_combined
    );

    // 4. COUNT runs SELECT's search and adds the counts of the records it
    // finds: every block carries the aggregate pyramid, so both read one
    // record per covering cell, however many block records the cell spans.
    let (count, cstats) = block.count(neighborhood);
    println!(
        "\nCOUNT = {count} touching {} aggregates ({} for SELECT)",
        cstats.cells_combined, qstats.cells_combined
    );

    // 5. The paper's query cache (BlockQC, §3.6) accelerates repeated
    //    regions of its scanning Block: it counts hits per covering cell
    //    and caches the hottest cells' folds. Here the pyramid already
    //    stores every cell's record, so the cache is reproduced as a
    //    baseline over the paper's scan.
    let mut qc = BlockQcIndex::new(block, 0.05);
    for _ in 0..3 {
        qc.select(neighborhood, &spec);
    }
    qc.rebuild();
    qc.reset_counts();
    let cached = qc.select(neighborhood, &spec);
    assert_eq!(cached.count, result.count, "cache must not change results");
    println!(
        "\nBlockQC answered the repeat query with a {:.0}% cache hit rate ({} cells cached)",
        qc.counts().hit_rate() * 100.0,
        qc.num_cached()
    );
}
