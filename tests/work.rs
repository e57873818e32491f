//! The work ratchet: what a seeded block costs in bytes, and what 64
//! seeded SELECTs cost in record searches and combines, asserted against
//! recorded constants. Counts of work do not depend on the host, so this
//! gate holds where timings cannot steer.
//!
//! The bytes are ceilings: a change that shrinks the block lowers them in
//! the same diff, so the gate ratchets. The query counts are equalities: a
//! change that alters how a covering cell is answered (which layer, which
//! fold) must not change how many cells are searched or combined, and a
//! change that does must say so by re-recording them.

use gb_data::{datasets, extract, polygons, AggSpec, Filter};
use geoblocks::{build, QueryStats};
use std::time::Instant;

const ROWS: usize = 100_000;
const SEED: u64 = 1;
/// The benchmark's block level.
const LEVEL: u8 = 10;
const POLYGONS: usize = 64;

/// Ceiling on `GeoBlock::derived_bytes`: the count prefix plus the
/// materialised coarser layers.
const MAX_DERIVED_BYTES: usize = 3_221_720;
/// Ceiling on `GeoBlock::memory_bytes` per aggregated row, rounded up.
const MAX_BYTES_PER_ROW: usize = 107;
/// `QueryStats::searches` summed over the polygons.
const SEARCHES: usize = 10_293;
/// `QueryStats::cells_combined` summed over the polygons.
const CELLS_COMBINED: usize = 4_689;

#[test]
fn block_bytes_and_select_work_stay_at_their_recorded_values() {
    let started = Instant::now();
    let ds = datasets::nyc_taxi(ROWS, SEED);
    let base = extract(&ds.raw, ds.grid, &datasets::nyc_cleaning_rules(), None).base;
    let (block, _) = build(&base, LEVEL, &Filter::all());
    let built = started.elapsed();
    assert!(built.as_secs_f64() < 2.0, "set-up took {built:?}");

    let rows = usize::try_from(block.num_rows()).expect("rows fit a usize");
    let per_row = block.memory_bytes().div_ceil(rows);
    assert!(
        block.derived_bytes() <= MAX_DERIVED_BYTES,
        "derived bytes {} over the recorded {MAX_DERIVED_BYTES}",
        block.derived_bytes()
    );
    assert!(
        per_row <= MAX_BYTES_PER_ROW,
        "{per_row} B/row over the recorded {MAX_BYTES_PER_ROW}"
    );

    let spec = AggSpec::k_aggregates(block.schema(), 4);
    let mut work = QueryStats::default();
    for poly in polygons::neighborhoods(POLYGONS, SEED) {
        let (_, stats) = block.select(&poly, &spec);
        work.searches += stats.searches;
        work.cells_combined += stats.cells_combined;
    }
    assert_eq!(
        (work.searches, work.cells_combined),
        (SEARCHES, CELLS_COMBINED),
        "searches and cells combined over {POLYGONS} polygons"
    );
}
