//! The loopback floor under a served cache hit: what the transport alone
//! costs, and how far above it the server sits. Three arms in one run, so
//! the gate is a ratio between them and holds on any host:
//!
//! * `raw_pingpong` — bare `TcpStream`s exchanging messages of the cached
//!   SELECT's request and reply sizes, one `write` and one `read` each
//!   way, no user-space work: the floor.
//! * `healthz_keepalive` — `GET /healthz` on a keep-alive
//!   `client::Connection` against a `RunningServer`: the floor plus HTTP
//!   framing and parsing.
//! * `cached_select` — a result-cache hit on the same path: plus the
//!   request codec, the cache probe and the reply copy.
//!
//! `perf-smoke` gates `cached_select / raw_pingpong <= 2.0` (`bench_diff
//! --ratio`). Every arm runs [`PAIRS`] client/server pairs at once, as
//! gbmark does: with a single pair the peer's core idles between
//! messages and the number measures the host's idle-CPU wake-up, not the
//! code (EXPERIMENTS.md "The hit path at the loopback floor"). Even so, a
//! 2-vCPU guest drifts between a fast and a slow wake-up regime over
//! seconds, and one whole arm after the other let the two gated arms meet
//! different regimes. So those two are measured in [`ROUNDS`] alternating
//! rounds (raw first, then cached first, and so on), and each arm's
//! record is its median round.
//!
//! Two paced arms measure that wake-up on purpose, as gbmark's lowest
//! open-loop rate meets it: every pair pauses [`PACE`] before each round
//! trip (in `iter_batched`'s untimed setup), so an idle peer must be woken.
//! `raw_pingpong_paced` is the bare transport's wake-up; in
//! `cached_select_paced` the server's worker is still polling (see
//! `gb_serve::POLL_WINDOW`) when the request arrives. `perf-smoke` prints
//! their ratio and does not gate it.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gb_bench::json::{write_jsonl, BenchRecord};
use gb_data::{datasets, extract, polygons, AggSpec, Filter, Rows};
use gb_serve::client::Connection;
use gb_serve::http::{HttpRequest, HttpResponse};
use gb_serve::{GbServer, RunningServer, ServeConfig};
use geoblocks::api::{self, QueryRequest};
use geoblocks::{build, GeoBlockEngine};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent client/server pairs per arm: gbmark's two clients on two
/// workers.
const PAIRS: usize = 2;

/// The paced arms' pause before each round trip: about the gap each of
/// gbmark's two connections sees at its lowest open-loop rate (2 100/s).
const PACE: Duration = Duration::from_millis(1);

/// Alternating rounds of each gated arm.
const ROUNDS: usize = 7;

/// A gated arm's timed round trips per round, after a warm-up of a tenth
/// of it: about the 2 s a criterion arm gets, over all rounds.
const ROUND_TIME: Duration = Duration::from_millis(300);

/// One pair's round trip, boxed so that both gated arms' pairs share a
/// type.
type RoundTrip<'a> = Box<dyn FnMut() + Send + 'a>;

/// One round of a gated arm: the first of `pairs` is timed on the calling
/// thread while the others run their round trips beside it. Returns the
/// timed round trips' total ns and their number.
fn round(pairs: &mut [RoundTrip<'_>]) -> (f64, u64) {
    let stop = AtomicBool::new(false);
    let (timed, others) = pairs.split_first_mut().expect("a pair");
    std::thread::scope(|scope| {
        for round_trip in others {
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    round_trip();
                }
            });
        }
        let warm_up = Instant::now();
        while warm_up.elapsed() < ROUND_TIME / 10 {
            timed();
        }
        let (start, mut iters) = (Instant::now(), 0u64);
        while start.elapsed() < ROUND_TIME {
            timed();
            iters += 1;
        }
        let ns = start.elapsed().as_secs_f64() * 1e9;
        stop.store(true, Ordering::Release);
        (ns, iters)
    })
}

/// Measure the gated arms, each `(id, pairs)`, in [`ROUNDS`] alternating
/// rounds; print each arm's rounds, and append its record (median: the
/// median round; mean: over every timed round trip) to `CRITERION_JSON`
/// as the criterion shim would.
fn gated(arms: &mut [(&str, Vec<RoundTrip<'_>>); 2]) {
    let mut rounds: [Vec<(f64, u64)>; 2] = Default::default();
    for r in 0..ROUNDS {
        for k in [r % 2, 1 - r % 2] {
            rounds[k].push(round(&mut arms[k].1));
        }
    }
    let mut records = Vec::new();
    for ((id, _), rounds) in arms.iter().zip(rounds) {
        let id = format!("serve_floor/{id}");
        let mut per_trip: Vec<f64> = rounds.iter().map(|&(ns, n)| ns / n as f64).collect();
        let shown: Vec<String> = per_trip
            .iter()
            .map(|ns| format!("{:.1}", ns / 1e3))
            .collect();
        per_trip.sort_by(f64::total_cmp);
        let (ns, n) = rounds
            .iter()
            .fold((0.0, 0), |(ns, n), &(r_ns, r_n)| (ns + r_ns, n + r_n));
        println!(
            "{id:<50} median round {:.3} µs ({n} iters; rounds µs: {})",
            per_trip[ROUNDS / 2] / 1e3,
            shown.join(" ")
        );
        records.push(BenchRecord::new(id, ns / n as f64, per_trip[ROUNDS / 2], n));
    }
    if let Some(path) = std::env::var_os("CRITERION_JSON").filter(|p| !p.is_empty()) {
        write_jsonl(path.as_ref(), &records, true).expect("append the gated records");
    }
}

/// Measure one arm: `pair()` builds one pair's round trip (with its own
/// connection); the calling thread times one while `PAIRS - 1` others
/// keep running theirs beside it. With `pace`, every pair pauses that
/// long before each round trip, and only the round trip is timed.
fn arm<F: FnMut() + Send>(
    c: &mut Criterion,
    id: &str,
    pace: Option<Duration>,
    mut pair: impl FnMut() -> F,
) {
    let stop = AtomicBool::new(false);
    let pause = || pace.map_or((), std::thread::sleep);
    std::thread::scope(|scope| {
        for _ in 1..PAIRS {
            let mut round_trip = pair();
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    pause();
                    round_trip();
                }
            });
        }
        let mut round_trip = pair();
        match pace {
            // Only the round trip counts against the measurement time,
            // but each iteration lasts over 1 ms: a 200 ms budget keeps
            // the arm to a few seconds.
            Some(_) => c
                .clone()
                .measurement_time(Duration::from_millis(200))
                .bench_function(format!("serve_floor/{id}"), |b| {
                    b.iter_batched(pause, |()| round_trip(), BatchSize::PerIteration)
                }),
            None => c.bench_function(format!("serve_floor/{id}"), |b| b.iter(&mut round_trip)),
        };
        stop.store(true, Ordering::Release);
    });
}

/// One keep-alive client of `addr` sending the same request over and
/// over, reconnecting (and resending) when the server retires the
/// connection at its request cap, as a real client must.
fn client(
    addr: SocketAddr,
    method: &'static str,
    path: &'static str,
    body: Vec<u8>,
) -> impl FnMut() {
    let mut conn = None;
    move || {
        for _attempt in 0..2 {
            let live = conn.get_or_insert_with(|| Connection::connect(addr).expect("connect"));
            match live.request(method, path, &[], &body) {
                Ok(reply) => return assert_eq!(reply.status, 200),
                Err(_) => conn = None,
            }
        }
        panic!("{method} {path}: no answer on a fresh connection");
    }
}

fn serve_floor(c: &mut Criterion) {
    let ds = datasets::nyc_taxi(200_000, 7);
    let base = extract(&ds.raw, ds.grid, &datasets::nyc_cleaning_rules(), None).base;
    let (block, _) = build(&base, 10, &Filter::all());
    let server = GbServer::new(
        Arc::new(GeoBlockEngine::new(block)),
        ServeConfig {
            threads: PAIRS,
            ..ServeConfig::default()
        },
    );
    let select = api::encode_request(&QueryRequest::Select {
        polygon: polygons::neighborhoods(1, 7).remove(0),
        spec: AggSpec::k_aggregates(base.schema(), 7),
    });
    // The first call computes and caches the reply; every later one hits.
    let reply = server.handle(&HttpRequest::new("POST", "/v1/select").with_body(select.clone()));
    assert_eq!(reply.status, 200);

    // The raw arm moves exactly the bytes the cached SELECT does.
    let request_len = format!(
        "POST /v1/select HTTP/1.1\r\nhost: geoblocks\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
        select.len()
    )
    .len()
        + select.len();
    let mut reply_wire = Vec::new();
    HttpResponse::binary(200, reply.body)
        .with_close(false)
        .write_to(&mut reply_wire)
        .expect("frame");
    let echo = TcpListener::bind("127.0.0.1:0").expect("bind");
    let echo_addr = echo.local_addr().expect("addr");
    let running = RunningServer::start(server, "127.0.0.1:0").expect("start");
    let addr = running.addr();
    let cached = || client(addr, "POST", "/v1/select", select.clone());
    std::thread::scope(|scope| {
        let raw = || {
            let mut near = TcpStream::connect(echo_addr).expect("connect");
            let (mut far, _) = echo.accept().expect("accept");
            near.set_nodelay(true).expect("nodelay");
            far.set_nodelay(true).expect("nodelay");
            let reply_wire = &reply_wire;
            scope.spawn(move || {
                let mut request = vec![0u8; request_len];
                // Ends when the near side is dropped.
                while far.read_exact(&mut request).is_ok() && far.write_all(reply_wire).is_ok() {}
            });
            let request = vec![7u8; request_len];
            let mut reply = vec![0u8; reply_wire.len()];
            move || {
                near.write_all(&request).expect("write");
                near.read_exact(&mut reply).expect("read");
            }
        };
        // Every connection of the gated arms closes when they are done, so
        // the arms after them start from fresh ones, as before.
        gated(&mut [
            (
                "raw_pingpong",
                (0..PAIRS).map(|_| Box::new(raw()) as RoundTrip).collect(),
            ),
            (
                "cached_select",
                (0..PAIRS)
                    .map(|_| Box::new(cached()) as RoundTrip)
                    .collect(),
            ),
        ]);
        arm(c, "raw_pingpong_paced", Some(PACE), raw);
    });
    arm(c, "healthz_keepalive", None, || {
        client(addr, "GET", "/healthz", Vec::new())
    });
    arm(c, "cached_select_paced", Some(PACE), cached);
    running.stop().expect("stop");
}

criterion_group!(benches, serve_floor);
criterion_main!(benches);
