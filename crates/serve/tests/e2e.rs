//! End-to-end smoke over real sockets: N client threads drive a running
//! server with mixed SELECT/COUNT traffic across update epochs, and every
//! HTTP reply must be bit-identical to a direct engine call at the same
//! epoch. Also covers the failure surface (404/405/400/413/429) and the
//! `/metrics` exposition as a client would see them.

use gb_cell::Grid;
use gb_data::{
    extract, AggFunc, AggRequest, AggSpec, CleaningRules, ColumnDef, Filter, RawTable, Schema,
};
use gb_geom::{Point, Polygon, Rect};
use gb_serve::{client, metrics, GbServer, RunningServer, ServeConfig};
use geoblocks::api::{QueryReply, QueryRequest};
use geoblocks::trace::{TraceConfig, Tracer};
use geoblocks::{build, GeoBlockEngine, UpdateBatch};
use std::sync::Arc;
use std::time::Duration;

fn spec() -> AggSpec {
    AggSpec::new(vec![
        AggRequest::new(AggFunc::Count, 0),
        AggRequest::new(AggFunc::Sum, 0),
        AggRequest::new(AggFunc::Max, 0),
    ])
}

fn fresh_engine() -> Arc<GeoBlockEngine> {
    let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v")]));
    let mut state = 42u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 16) % 10_000) as f64 / 100.0
    };
    for i in 0..4000 {
        raw.push_row(Point::new(next(), next()), &[(i % 97) as f64 - 11.0]);
    }
    let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
    let base = extract(&raw, grid, &CleaningRules::none(), None).base;
    let (block, _) = build(&base, 8, &Filter::all());
    Arc::new(GeoBlockEngine::new(block))
}

fn diamond(cx: f64, cy: f64, r: f64) -> Polygon {
    Polygon::new(vec![
        Point::new(cx, cy - r),
        Point::new(cx + r, cy),
        Point::new(cx, cy + r),
        Point::new(cx - r, cy),
    ])
}

fn polygon(i: usize) -> Polygon {
    diamond(
        12.0 + (i % 5) as f64 * 18.0,
        25.0 + (i % 3) as f64 * 22.0,
        9.0,
    )
}

fn start_server(cfg: ServeConfig) -> RunningServer {
    RunningServer::start(GbServer::new(fresh_engine(), cfg), "127.0.0.1:0").expect("server start")
}

/// The headline e2e: concurrent clients, mixed ops, updates between
/// phases, every reply checked bit-for-bit against the engine.
#[test]
fn concurrent_clients_get_engine_identical_replies() {
    let running = start_server(ServeConfig {
        threads: 4,
        quota_per_sec: 0.0,
        ..ServeConfig::default()
    });
    let addr = running.addr();
    let engine = Arc::clone(running.server().engine());
    let s = spec();

    const CLIENTS: usize = 6;
    const REQS_PER_CLIENT: usize = 10;
    // Two phases with an update batch in between: replies must track the
    // epoch they were served at, never mix.
    for phase in 0..2u64 {
        let errors = std::sync::Mutex::new(Vec::<String>::new());
        gb_common::Pool::new(CLIENTS).run(0..CLIENTS, |c| {
            for r in 0..REQS_PER_CLIENT {
                let poly = polygon(c * REQS_PER_CLIENT + r);
                let outcome = if r % 3 == 0 {
                    let want = engine.count(&poly);
                    match client::post_query(
                        addr,
                        "/v1/count",
                        Some("e2e"),
                        &QueryRequest::Count {
                            polygon: poly.clone(),
                        },
                    ) {
                        Ok(QueryReply::Count(got)) => {
                            if got.result != want.result || got.epoch != want.epoch {
                                Err(format!(
                                    "count diverged: got ({}, epoch {}), want ({}, epoch {})",
                                    got.result, got.epoch, want.result, want.epoch
                                ))
                            } else {
                                Ok(())
                            }
                        }
                        Ok(other) => Err(format!("wrong reply kind: {other:?}")),
                        Err(e) => Err(format!("count request failed: {e:?}")),
                    }
                } else {
                    let want = engine.select(&poly, &s);
                    match client::post_query(
                        addr,
                        "/v1/select",
                        Some("e2e"),
                        &QueryRequest::Select {
                            polygon: poly.clone(),
                            spec: s.clone(),
                        },
                    ) {
                        Ok(QueryReply::Select(got)) => {
                            let bits = |r: &geoblocks::AggResult| {
                                r.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                            };
                            if got.result.count != want.result.count
                                || bits(&got.result) != bits(&want.result)
                                || got.epoch != want.epoch
                            {
                                Err(format!(
                                    "select diverged at epoch {}: {:?} vs {:?}",
                                    got.epoch, got.result, want.result
                                ))
                            } else {
                                Ok(())
                            }
                        }
                        Ok(other) => Err(format!("wrong reply kind: {other:?}")),
                        Err(e) => Err(format!("select request failed: {e:?}")),
                    }
                };
                if let Err(msg) = outcome {
                    errors.lock().expect("errors lock").push(msg);
                }
            }
        });
        let errors = errors.into_inner().expect("errors lock");
        assert!(errors.is_empty(), "phase {phase}: {errors:?}");

        if phase == 0 {
            // Push an update over HTTP and verify the epoch advanced.
            let mut batch = UpdateBatch::new();
            for j in 0..20 {
                batch.push(Point::new(10.0 + j as f64 * 4.0, 30.0), vec![j as f64]);
            }
            let reply = client::post_query(
                addr,
                "/v1/update",
                Some("e2e"),
                &QueryRequest::Update { batch },
            )
            .expect("update over HTTP");
            let QueryReply::Update(report) = reply else {
                panic!("wrong reply kind: {reply:?}");
            };
            assert_eq!(report.epoch, 1, "first update must land at epoch 1");
            assert_eq!(engine.data_epoch(), 1);
        }
    }

    // The shared polygon pool means repeats: the cache must have hits,
    // and /metrics must report them.
    let exposition = client::get(addr, "/metrics").expect("metrics scrape");
    assert_eq!(exposition.status, 200);
    let text = String::from_utf8(exposition.body).expect("metrics utf8");
    let hits = metrics::scrape(&text, "gb_result_cache_hits_total").expect("hits metric");
    assert!(
        hits > 0.0,
        "expected cache hits under repeated polygons:\n{text}"
    );
    let total = metrics::scrape(&text, "gb_request_latency_count").expect("latency count");
    assert!(
        total >= (2 * CLIENTS * REQS_PER_CLIENT) as f64,
        "latency histogram undercounts: {total}"
    );
    running.stop().expect("stop");
}

/// The error surface as a real client sees it.
#[test]
fn http_error_mapping_over_sockets() {
    let running = start_server(ServeConfig {
        threads: 2,
        quota_per_sec: 0.0,
        ..ServeConfig::default()
    });
    let addr = running.addr();

    assert_eq!(client::get(addr, "/nope").expect("404").status, 404);
    assert_eq!(client::get(addr, "/v1/select").expect("405").status, 405);
    let garbage = client::request(addr, "POST", "/v1/query", &[], &[1, 2, 3]).expect("400");
    assert_eq!(garbage.status, 400);
    // A well-formed update with a row outside the grid's domain: rejected
    // whole, like a non-finite one, and nothing is committed.
    let mut batch = UpdateBatch::new();
    batch.push(Point::new(50.0, 50.0), vec![1.0]);
    batch.push(Point::new(1e9, 1e9), vec![1.0]);
    let body = geoblocks::api::encode_request(&QueryRequest::Update { batch });
    let outside = client::request(addr, "POST", "/v1/update", &[], &body).expect("400");
    assert_eq!(outside.status, 400);
    assert_eq!(running.server().engine().data_epoch(), 0);
    // An oversized declared body trips the cap before any read. Sent raw
    // because the convenience client always sets its own content-length.
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /v1/query HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n")
            .expect("write");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read");
        let head = String::from_utf8_lossy(&raw);
        assert!(
            head.starts_with("HTTP/1.1 413 "),
            "expected 413 for an oversized declaration, got: {head}"
        );
    }
    running.stop().expect("stop");
}

/// The batch route over real sockets: one POST to `/v1/batch` answers
/// every item bit-identically to individual engine calls, at one pinned
/// epoch, and the route shows up in /metrics.
#[test]
fn batch_over_http_matches_engine() {
    let running = start_server(ServeConfig {
        threads: 4,
        quota_per_sec: 0.0,
        ..ServeConfig::default()
    });
    let addr = running.addr();
    let engine = Arc::clone(running.server().engine());
    let s = spec();

    let requests: Vec<QueryRequest> = (0..6)
        .map(|i| {
            if i % 2 == 0 {
                QueryRequest::Select {
                    polygon: polygon(i),
                    spec: s.clone(),
                }
            } else {
                QueryRequest::Count {
                    polygon: polygon(i),
                }
            }
        })
        .collect();
    let reply = client::post_query(
        addr,
        "/v1/batch",
        Some("e2e"),
        &QueryRequest::Batch {
            requests: requests.clone(),
        },
    )
    .expect("batch over HTTP");
    let QueryReply::Batch(outer) = reply else {
        panic!("wrong reply kind");
    };
    assert_eq!(outer.result.len(), requests.len());
    let bits =
        |r: &geoblocks::AggResult| r.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (req, item) in requests.iter().zip(&outer.result) {
        assert_eq!(
            item.epoch(),
            outer.epoch,
            "items must share the pinned epoch"
        );
        match (req, item) {
            (QueryRequest::Select { polygon, spec }, QueryReply::Select(got)) => {
                let want = engine.select(polygon, spec);
                assert_eq!(bits(&got.result), bits(&want.result), "select diverged");
            }
            (QueryRequest::Count { polygon }, QueryReply::Count(got)) => {
                assert_eq!(got.result, engine.count(polygon).result, "count diverged");
            }
            (req, item) => panic!("variant mismatch: {req:?} vs {item:?}"),
        }
    }

    // An update inside a batch must be rejected whole, naming the item.
    let bad = client::post_query(
        addr,
        "/v1/batch",
        Some("e2e"),
        &QueryRequest::Batch {
            requests: vec![QueryRequest::Update {
                batch: UpdateBatch::new(),
            }],
        },
    );
    assert!(bad.is_err(), "update inside a batch must be rejected");

    let text =
        String::from_utf8(client::get(addr, "/metrics").expect("metrics").body).expect("utf8");
    assert!(
        metrics::scrape(&text, "gb_requests_total{route=\"/v1/batch\"}").is_some_and(|v| v >= 1.0),
        "batch route must be counted:\n{text}"
    );
    running.stop().expect("stop");
}

/// Keep-alive over real sockets: one [`client::Connection`] serves many
/// requests on a single TCP stream with answers identical to one-shot
/// clients, and the server closes after its per-connection request cap.
#[test]
fn keep_alive_reuses_one_connection() {
    let running = start_server(ServeConfig {
        threads: 2,
        quota_per_sec: 0.0,
        keep_alive_max_requests: 8,
        ..ServeConfig::default()
    });
    let addr = running.addr();
    let engine = Arc::clone(running.server().engine());
    // Each scrape is itself a one-shot connection, closed as `peer`.
    let scrape = |metric: &str| {
        let text =
            String::from_utf8(client::get(addr, "/metrics").expect("metrics").body).expect("utf8");
        metrics::scrape(&text, metric).unwrap_or_else(|| panic!("missing {metric}:\n{text}"))
    };
    let cap_closes = scrape("gb_connection_closes_total{reason=\"cap\"}");
    let closed_requests = scrape("gb_connection_requests_sum");

    let mut conn = client::Connection::connect(addr).expect("connect");
    for i in 0..8 {
        let poly = polygon(i);
        let want = engine.count(&poly);
        match conn
            .post_query(
                "/v1/count",
                Some("e2e"),
                &QueryRequest::Count { polygon: poly },
            )
            .expect("keep-alive count")
        {
            QueryReply::Count(got) => {
                assert_eq!(got.result, want.result, "request {i} diverged");
            }
            other => panic!("wrong reply kind: {other:?}"),
        }
    }
    // Request 8 hit the cap, so the server announced `connection: close`
    // and hung up; the next call on the same stream surfaces an error.
    let after_cap = conn.post_query(
        "/v1/count",
        Some("e2e"),
        &QueryRequest::Count {
            polygon: polygon(0),
        },
    );
    assert!(
        after_cap.is_err(),
        "connection must be closed after keep_alive_max_requests"
    );
    // The server says why the client had to reconnect: one connection hit
    // the cap, after 8 requests (+ 2 for the two scrapes above).
    assert_eq!(
        scrape("gb_connection_closes_total{reason=\"cap\"}"),
        cap_closes + 1.0
    );
    assert_eq!(scrape("gb_connection_requests_sum"), closed_requests + 10.0);
    running.stop().expect("stop");
}

/// Admission control over sockets: a bursty tenant gets 429 + Retry-After
/// while a second tenant stays admitted.
#[test]
fn quota_rejections_reach_the_wire() {
    let running = start_server(ServeConfig {
        threads: 2,
        quota_burst: 2.0,
        quota_per_sec: 0.001,
        ..ServeConfig::default()
    });
    let addr = running.addr();
    let body = geoblocks::api::encode_request(&QueryRequest::Count {
        polygon: polygon(0),
    });

    let mut saw_429 = false;
    for _ in 0..4 {
        let resp = client::request(
            addr,
            "POST",
            "/v1/count",
            &[("x-gb-tenant", "greedy")],
            &body,
        )
        .expect("request");
        if resp.status == 429 {
            saw_429 = true;
            let err = geoblocks::api::decode_reply(&resp.body).expect_err("error reply");
            assert_eq!(err.http_status(), 429);
        }
    }
    assert!(saw_429, "burst of 4 against burst=2 must trip the quota");
    let other = client::request(
        addr,
        "POST",
        "/v1/count",
        &[("x-gb-tenant", "patient")],
        &body,
    )
    .expect("request");
    assert_eq!(other.status, 200, "tenants must be isolated");

    std::thread::sleep(Duration::from_millis(50));
    let text =
        String::from_utf8(client::get(addr, "/metrics").expect("metrics").body).expect("utf8");
    assert!(
        metrics::scrape(&text, "gb_quota_rejections_total").is_some_and(|v| v >= 1.0),
        "metrics must count quota rejections:\n{text}"
    );
    running.stop().expect("stop");
}

/// The observability surface end-to-end: a trace-everything server must
/// expose per-stage latency families in `/metrics`, recent traces at
/// `/v1/debug/traces`, and threshold-captured traces at `/v1/debug/slow`
/// (every request qualifies at a zero threshold).
#[test]
fn debug_endpoints_and_stage_metrics_over_sockets() {
    let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v")]));
    let mut state = 7u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 16) % 10_000) as f64 / 100.0
    };
    for i in 0..4000 {
        raw.push_row(Point::new(next(), next()), &[(i % 53) as f64]);
    }
    let grid = Grid::hilbert(Rect::from_bounds(0.0, 0.0, 100.0, 100.0));
    let base = extract(&raw, grid, &CleaningRules::none(), None).base;
    let (block, _) = build(&base, 8, &Filter::all());
    // Sample everything, and a zero slow threshold captures every
    // request in the slow lane (the production default is 10ms).
    let tracer = Arc::new(Tracer::new(TraceConfig {
        sample_rate: 1,
        slow_us: 0,
    }));
    let engine = Arc::new(GeoBlockEngine::new(block).with_tracer(tracer));
    let server = GbServer::new(
        engine,
        ServeConfig {
            threads: 2,
            quota_per_sec: 0.0,
            ..ServeConfig::default()
        },
    );
    let running = RunningServer::start(server, "127.0.0.1:0").expect("server start");
    let addr = running.addr();
    let s = spec();

    // Mixed traffic: selects (one repeated → cache hit), a count, a batch.
    for i in [0usize, 1, 1, 2] {
        let reply = client::post_query(
            addr,
            "/v1/select",
            Some("e2e"),
            &QueryRequest::Select {
                polygon: polygon(i),
                spec: s.clone(),
            },
        )
        .expect("select over HTTP");
        assert!(matches!(reply, QueryReply::Select(_)));
    }
    client::post_query(
        addr,
        "/v1/count",
        Some("e2e"),
        &QueryRequest::Count {
            polygon: polygon(3),
        },
    )
    .expect("count over HTTP");
    client::post_query(
        addr,
        "/v1/batch",
        Some("e2e"),
        &QueryRequest::Batch {
            requests: (0..4)
                .map(|i| QueryRequest::Count {
                    polygon: polygon(i),
                })
                .collect(),
        },
    )
    .expect("batch over HTTP");

    // Per-stage latency families, one per fixed pipeline stage.
    let text =
        String::from_utf8(client::get(addr, "/metrics").expect("metrics").body).expect("utf8");
    for stage in [
        "covering_resolve",
        "pyramid_combine",
        "result_cache",
        "quota",
        "serialize",
    ] {
        for q in ["0.5", "0.99"] {
            let name = format!("gb_stage_latency_ns{{stage=\"{stage}\",quantile=\"{q}\"}}");
            assert!(
                metrics::scrape(&text, &name).is_some(),
                "missing {name}:\n{text}"
            );
        }
        let share = format!("gb_stage_share{{stage=\"{stage}\"}}");
        assert!(metrics::scrape(&text, &share).is_some(), "missing {share}");
    }
    // Stages actually exercised by the traffic above carry observations.
    for stage in ["pyramid_combine", "result_cache", "quota", "serialize"] {
        let name = format!("gb_stage_latency_count{{stage=\"{stage}\"}}");
        assert!(
            metrics::scrape(&text, &name).is_some_and(|v| v >= 1.0),
            "stage {stage} must have observations:\n{text}"
        );
    }
    // The engine keeps no aggregate cache beside its pyramid: neither the
    // stages that timed one nor its counters are exported.
    for stage in ["trie_lookup", "scan_fallback"] {
        let share = format!("gb_stage_share{{stage=\"{stage}\"}}");
        assert_eq!(metrics::scrape(&text, &share), None, "{share} is gone");
    }
    for family in [
        "gb_trie_probes_total",
        "gb_trie_direct_hits_total",
        "gb_trie_cache_epoch",
    ] {
        assert!(
            !text.lines().any(|line| line.starts_with(family)),
            "{family} is gone:\n{text}"
        );
    }
    // Memo + pool families from the satellite metrics.
    for family in [
        "gb_covering_memo_evictions_total",
        "gb_pool_queue_depth",
        "gb_pool_tasks_total",
        "gb_pool_busy_ns_total",
    ] {
        assert!(
            metrics::scrape(&text, family).is_some(),
            "missing {family}:\n{text}"
        );
    }

    // Flight recorder: recent traces include the select traffic, with
    // the repeated shape flagged as a result-cache hit.
    let traces = String::from_utf8(client::get(addr, "/v1/debug/traces").expect("traces").body)
        .expect("utf8");
    assert!(
        traces.lines().any(|l| l.contains("\"kind\":\"select\"")),
        "recorder must hold select traces:\n{traces}"
    );
    assert!(
        traces.lines().any(|l| l.contains("\"cache_hit\":true")),
        "repeated select must record a cache hit:\n{traces}"
    );
    assert!(
        traces.lines().any(|l| l.contains("\"kind\":\"batch\"")),
        "recorder must hold the batch trace:\n{traces}"
    );

    // Slow lane: the zero threshold captures every request.
    let slow =
        String::from_utf8(client::get(addr, "/v1/debug/slow").expect("slow").body).expect("utf8");
    assert!(
        slow.lines().any(|l| l.contains("\"kind\":\"select\"")),
        "zero slow threshold must capture selects:\n{slow}"
    );
    let n_slow = slow.lines().count();
    assert!(
        n_slow >= 6,
        "expected all requests in the slow lane, got {n_slow}"
    );

    // Debug endpoints are GET-only.
    let resp = client::request(addr, "POST", "/v1/debug/traces", &[], &[]).expect("405");
    assert_eq!(resp.status, 405);
    running.stop().expect("stop");
}
