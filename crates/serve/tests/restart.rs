//! A restart restores the block and nothing else: saving an engine after
//! traffic, restoring it under a server and saving it again must write
//! the same bytes. Traffic leaves nothing in a snapshot, and wrapping an
//! engine sends it none.

use gb_cell::Grid;
use gb_data::{extract, AggSpec, CleaningRules, ColumnDef, Filter, RawTable, Schema};
use gb_geom::{Point, Polygon, Rect};
use gb_serve::{GbServer, ServeConfig};
use geoblocks::api::QueryRequest;
use geoblocks::{build, GeoBlock, GeoBlockEngine};
use std::sync::Arc;

fn engine() -> GeoBlockEngine {
    let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v")]));
    let mut state = 7u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 16) % 10_000) as f64 / 100.0
    };
    for i in 0..3000 {
        raw.push_row(Point::new(next(), next()), &[i as f64]);
    }
    let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
    let base = extract(&raw, grid, &CleaningRules::none(), None).base;
    GeoBlockEngine::new(build(&base, 8, &Filter::all()).0)
}

fn diamond(i: usize) -> Polygon {
    let (cx, cy, r) = (15.0 + 16.0 * i as f64, 30.0 + 9.0 * i as f64, 10.0);
    Polygon::new(vec![
        Point::new(cx, cy - r),
        Point::new(cx + r, cy),
        Point::new(cx, cy + r),
        Point::new(cx - r, cy),
    ])
}

#[test]
fn a_restart_under_a_server_saves_the_same_file() {
    let dir = std::env::temp_dir().join(format!("gb_serve_restart_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (first, second) = (dir.join("first.gbsnap"), dir.join("second.gbsnap"));

    let engine = engine();
    let spec = AggSpec::k_aggregates(&Schema::new(vec![ColumnDef::f64("v")]), 4);
    for _ in 0..4 {
        for i in 0..5 {
            let req = QueryRequest::Select {
                polygon: diamond(i),
                spec: spec.clone(),
            };
            engine.query(&req).expect("select");
        }
    }
    engine.write_snapshot(&first).expect("first save");

    let restored = GeoBlockEngine::new(GeoBlock::read_snapshot(&first).expect("load").0);
    let server = GbServer::new(Arc::new(restored), ServeConfig::default());
    server
        .engine()
        .write_snapshot(&second)
        .expect("second save");

    let bytes = |path| std::fs::read(path).expect("reload");
    let (saved, resaved) = (bytes(&first), bytes(&second));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        resaved == saved,
        "{} bytes became {}",
        saved.len(),
        resaved.len()
    );
    assert_eq!(
        saved,
        engine.block_snapshot().to_snapshot_bytes(),
        "the selects left nothing in the file"
    );
}
