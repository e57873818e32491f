//! A traced SELECT is one span per stage: the covering (`covering_resolve`)
//! and the cell loop (`pyramid_combine`), each timed once per request. Timing a loop per cell would read the clock twice per
//! covering cell and charge the clock to the stages, so the stage times
//! would add up to more than the request's wall time.

use gb_data::{datasets, extract, polygons, AggSpec, Filter, Rows};
use gb_trace::{Stage, TraceConfig, Tracer};
use geoblocks::{build, GeoBlockEngine};
use std::sync::Arc;

#[test]
fn a_traced_select_is_one_covering_span_and_one_loop_span() {
    let ds = datasets::nyc_taxi(20_000, 7);
    let base = extract(&ds.raw, ds.grid, &datasets::nyc_cleaning_rules(), None).base;
    let (block, _) = build(&base, 11, &Filter::all());
    let tracer = Arc::new(Tracer::new(TraceConfig {
        sample_rate: 1,
        ..TraceConfig::default()
    }));
    let engine = GeoBlockEngine::new(block).with_tracer(tracer);
    let spec = AggSpec::k_aggregates(base.schema(), 4);
    let polys = polygons::neighborhoods(16, 7);

    // A cold pass, then the same polygons with their coverings memoized.
    for _ in 0..2 {
        for poly in &polys {
            engine.select(poly, &spec);
        }
    }
    assert_eq!(engine.memo_stats().hits, polys.len() as u64);

    let traces = engine.tracer().recent();
    assert_eq!(traces.len(), 2 * polys.len());
    let mut coarse_cells = 0;
    for trace in &traces {
        assert_eq!(trace.kind, "select");
        assert!(trace.sampled);
        assert_eq!(trace.stage_calls(Stage::CoveringResolve), 1, "{trace:?}");
        assert_eq!(trace.stage_calls(Stage::PyramidCombine), 1, "{trace:?}");
        let staged: u64 = Stage::ALL.iter().map(|&s| trace.stage_ns(s)).sum();
        assert!(
            staged <= trace.total_ns,
            "stage time {staged} ns exceeds the request's {} ns",
            trace.total_ns
        );
        coarse_cells += trace.stats.query_cells;
    }
    // The polygons' coverings have many cells: per-cell spans would show.
    assert!(coarse_cells > 10 * traces.len() as u64, "{coarse_cells}");
}
