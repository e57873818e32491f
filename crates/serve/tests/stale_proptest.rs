//! Property: the serving result cache never returns a stale answer. For
//! any interleaving of SELECT / COUNT / UPDATE requests through the full
//! HTTP handler (decode → admission → cache → engine → encode), every
//! reply must be **bit-identical** to what a shadow engine — fed the
//! identical update sequence, but with no cache in front — computes at
//! the same data epoch.

use gb_cell::Grid;
use gb_data::{
    extract, AggFunc, AggRequest, AggSpec, CleaningRules, ColumnDef, Filter, RawTable, Schema,
};
use gb_geom::{Point, Polygon, Rect};
use gb_serve::http::HttpRequest;
use gb_serve::{GbServer, ServeConfig};
use geoblocks::api::{self, QueryReply, QueryRequest};
use geoblocks::{build, AggResult, GeoBlockEngine, UpdateBatch};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const DOMAIN: f64 = 100.0;

fn spec() -> AggSpec {
    AggSpec::new(vec![
        AggRequest::new(AggFunc::Count, 0),
        AggRequest::new(AggFunc::Sum, 0),
        AggRequest::new(AggFunc::Min, 0),
        AggRequest::new(AggFunc::Max, 1),
        AggRequest::new(AggFunc::Avg, 1),
    ])
}

fn fresh_engine() -> GeoBlockEngine {
    let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v"), ColumnDef::f64("k")]));
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 17) % 10_000) as f64 / 100.0
    };
    for i in 0..2500 {
        raw.push_row(
            Point::new(next(), next()),
            &[i as f64 * 0.25 - 10.0, (i % 13) as f64],
        );
    }
    let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, DOMAIN, DOMAIN));
    let base = extract(&raw, grid, &CleaningRules::none(), None).base;
    let (block, _) = build(&base, 8, &Filter::all());
    GeoBlockEngine::new(block)
}

fn diamond(cx: f64, cy: f64, r: f64) -> Polygon {
    Polygon::new(vec![
        Point::new(cx, cy - r),
        Point::new(cx + r, cy),
        Point::new(cx, cy + r),
        Point::new(cx - r, cy),
    ])
}

/// The fixed polygon pool: a small set so the random op stream revisits
/// shapes and actually exercises cache hits.
fn polygon(i: usize) -> Polygon {
    let cx = 15.0 + (i % 4) as f64 * 20.0;
    let cy = 20.0 + (i / 4) as f64 * 25.0;
    diamond(cx, cy, 8.0 + (i % 3) as f64 * 4.0)
}

fn post(path: &str, req: &QueryRequest) -> HttpRequest {
    HttpRequest::new("POST", path).with_body(api::encode_request(req))
}

fn assert_bits_equal(got: &AggResult, want: &AggResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.count, want.count, "tuple counts diverge");
    prop_assert_eq!(
        got.values().len(),
        want.values().len(),
        "aggregate arity diverges"
    );
    for (g, w) in got.values().iter().zip(want.values()) {
        prop_assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "aggregate bits diverge: {} vs {}",
            g,
            w
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `op`: 0 = select, 1 = count, 2 = update. `poly` picks from the
    /// pool; `seed` perturbs update coordinates/values.
    #[test]
    fn cached_replies_are_never_stale(
        ops in prop::collection::vec((0u8..3, 0usize..8, 0u64..1_000), 5..60),
    ) {
        let server = GbServer::new(
            Arc::new(fresh_engine()),
            ServeConfig {
                cache_capacity: 64,
                cache_ttl: Duration::from_secs(3600),
                quota_per_sec: 0.0,
                ..ServeConfig::default()
            },
        );
        let shadow = fresh_engine();
        let s = spec();

        for &(op, poly_idx, seed) in &ops {
            match op {
                0 => {
                    let poly = polygon(poly_idx);
                    let req = QueryRequest::Select { polygon: poly.clone(), spec: s.clone() };
                    let resp = server.handle(&post("/v1/select", &req));
                    prop_assert_eq!(resp.status, 200);
                    let reply = api::decode_reply(&resp.body)
                        .map_err(|e| TestCaseError::fail(format!("decode: {e:?}")))?;
                    let QueryReply::Select(got) = reply else {
                        return Err(TestCaseError::fail("wrong reply kind".to_string()));
                    };
                    let want = shadow.select(&poly, &s);
                    prop_assert_eq!(
                        got.epoch, want.epoch,
                        "served reply is from a different epoch than the shadow engine"
                    );
                    assert_bits_equal(&got.result, &want.result)?;
                }
                1 => {
                    let poly = polygon(poly_idx);
                    let req = QueryRequest::Count { polygon: poly.clone() };
                    let resp = server.handle(&post("/v1/count", &req));
                    prop_assert_eq!(resp.status, 200);
                    let reply = api::decode_reply(&resp.body)
                        .map_err(|e| TestCaseError::fail(format!("decode: {e:?}")))?;
                    let QueryReply::Count(got) = reply else {
                        return Err(TestCaseError::fail("wrong reply kind".to_string()));
                    };
                    let want = shadow.count(&poly);
                    prop_assert_eq!(got.epoch, want.epoch);
                    prop_assert_eq!(got.result, want.result, "counts diverge");
                }
                _ => {
                    let mut batch = UpdateBatch::new();
                    for j in 0..(seed % 5 + 1) {
                        let x = ((seed * 31 + j * 17) % 1000) as f64 / 10.0;
                        let y = ((seed * 53 + j * 29) % 1000) as f64 / 10.0;
                        batch.push(Point::new(x, y), vec![seed as f64 * 0.5, (j % 7) as f64]);
                    }
                    let req = QueryRequest::Update { batch: batch.clone() };
                    let resp = server.handle(&post("/v1/update", &req));
                    prop_assert_eq!(resp.status, 200);
                    let shadow_report = shadow
                        .apply_updates(&batch)
                        .map_err(|e| TestCaseError::fail(format!("shadow update: {e:?}")))?;
                    prop_assert_eq!(
                        server.engine().data_epoch(),
                        shadow_report.epoch,
                        "server and shadow disagree on the data epoch"
                    );
                }
            }
        }

        // The cache must actually participate: a repeated query is a hit,
        // and the hit is still epoch-correct (checked above on every op).
        let probe = QueryRequest::Count { polygon: polygon(0) };
        server.handle(&post("/v1/count", &probe));
        let hits_before = server.cache().stats().hits;
        server.handle(&post("/v1/count", &probe));
        prop_assert!(
            server.cache().stats().hits > hits_before,
            "repeated identical query did not hit the cache"
        );
    }
}
