//! The traced run, parts B and C: each layer timed on its own, from
//! outside, by calling its public functions on the polygons of the
//! workload's stream. Cheap operations are timed in passes (one clock
//! read per pass, divided by the operations in it); the value is the
//! midmean over passes.

use crate::ledger::{frame, Pipeline};
use crate::metrics::Table;
use crate::stats::{spread, tail_of};
use crate::sut::{self, Sut, LEVEL, THREADS};
use crate::workload::{Kind, Rng, Stream};
use gb_cell::{cover_key_from_bits, normalized_vertex_bits, CellUnion};
use gb_data::AggSpec;
use gb_geom::{classify_rect, Polygon};
use gb_serve::cache::ResultCache;
use gb_serve::client::Connection;
use gb_serve::http::{HttpRequest, HttpResponse};
use gb_serve::quota::QuotaTable;
use gb_serve::GbServer;
use geoblocks::api::{self, QueryReply, QueryRequest};
use geoblocks::{CoveringMemo, GeoBlock, GeoBlockEngine, UpdateBatch};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Passes per timed loop.
const PASSES: usize = 7;

/// Midmean over [`PASSES`] of `pass()`'s time divided by the operation
/// count it returns, in ns per operation.
fn per_op_ns(mut pass: impl FnMut() -> usize) -> f64 {
    let per_pass: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            let ops = pass();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    spread(&per_pass).map_or(0.0, |s| s.mid)
}

/// Midmean of `f`'s wall time over `n` runs, in ms.
fn mid_ms(n: usize, mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    spread(&runs).map_or(0.0, |s| s.mid)
}

/// A cold engine that never rebuilds on its own, so a timed call is the
/// call and not a cache rebuild (that has its own metric).
fn manual_engine(block: &Arc<GeoBlock>) -> GeoBlockEngine {
    GeoBlockEngine::from_arc(Arc::clone(block), sut::THRESHOLD)
}

/// The first `limit` distinct polygons the stream's reads ask about.
fn polygons_of(stream: &Stream, limit: usize) -> Result<Vec<Polygon>, String> {
    let mut polygons: Vec<Polygon> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for req in (1..20 * limit).map_while(|i| stream.get(i)) {
        if polygons.len() == limit {
            break;
        }
        match api::decode_request(&req.body).map_err(|e| e.to_string())? {
            QueryRequest::Select { polygon, .. } | QueryRequest::Count { polygon } => {
                if seen.insert(normalized_vertex_bits(&polygon)) {
                    polygons.push(polygon);
                }
            }
            QueryRequest::Update { .. } | QueryRequest::Batch { .. } => {}
        }
    }
    Ok(polygons)
}

/// `gb_geom`, `gb_cell`, `geoblocks::memo`, `query`, `trie`: what sits
/// inside one `engine.select`, and the residual of their sum against it.
fn inside_select(
    table: &mut Table,
    block: &Arc<GeoBlock>,
    trie_of: &GeoBlockEngine,
    polygons: &[Polygon],
    spec: &AggSpec,
) -> Result<(), String> {
    let polyhash = per_op_ns(|| {
        for p in polygons {
            black_box(cover_key_from_bits(&normalized_vertex_bits(p), LEVEL));
        }
        polygons.len()
    });
    table.record("cell.polyhash_ns", polyhash);

    // Per-polygon cover times, a few passes so 64 polygons still give a tail.
    let mut cover_ns: Vec<u64> = Vec::new();
    let mut coverings: Vec<CellUnion> = Vec::new();
    for pass in 0..(640 / polygons.len().max(1)).clamp(1, PASSES) {
        for p in polygons {
            let t = Instant::now();
            let covering = block.cover(p);
            cover_ns.push(t.elapsed().as_nanos() as u64);
            if pass == 0 {
                coverings.push(covering);
            }
        }
    }
    let cover = tail_of(&mut cover_ns, 99.0).ok_or("no polygons to cover")?;
    table.record("cell.cover_ns", cover.p50 as f64);
    table.record("cell.cover_p99_ns", cover.tail as f64);
    table.note(
        "cell.cover_p99_ns",
        format!("p{} of n={}", cover.tail_p, cover.n),
    );
    let cover_mean = cover_ns.iter().sum::<u64>() as f64 / cover_ns.len() as f64;
    let cells: usize = coverings.iter().map(CellUnion::len).sum();
    table.record("cell.cover_cells", cells as f64 / coverings.len() as f64);

    let memo = CoveringMemo::new(4 * polygons.len());
    let keyed: Vec<(u64, Vec<u64>)> = polygons
        .iter()
        .map(|p| {
            let bits = normalized_vertex_bits(p);
            (cover_key_from_bits(&bits, LEVEL), bits)
        })
        .collect();
    for ((key, bits), covering) in keyed.iter().zip(&coverings) {
        memo.get_or_insert_with(*key, bits, || covering.clone());
    }
    table.record(
        "memo.hit_ns",
        per_op_ns(|| {
            for (key, bits) in &keyed {
                black_box(memo.get_or_insert_with_hit(*key, bits, CellUnion::new));
            }
            keyed.len()
        }),
    );

    let trie = trie_of.trie_snapshot();
    let lookup = per_op_ns(|| {
        for covering in &coverings {
            let mut cursor = trie.flat_cursor();
            for cell in covering.iter() {
                black_box(cursor.lookup(cell));
            }
        }
        cells
    });
    table.record("trie.lookup_ns", lookup);

    let select = per_op_ns(|| {
        for covering in &coverings {
            black_box(block.select_covering(covering, spec));
        }
        coverings.len()
    });
    table.record("query.select_ns", select);
    table.record(
        "query.count_ns",
        per_op_ns(|| {
            for covering in &coverings {
                black_box(block.count_covering(covering));
            }
            coverings.len()
        }),
    );
    // Includes deriving the cell's rectangle, as the coverer does.
    table.record(
        "geom.classify_rect_ns",
        per_op_ns(|| {
            for (p, covering) in polygons.iter().zip(&coverings) {
                for cell in covering.iter() {
                    black_box(classify_rect(p, &block.grid().cell_rect(cell)));
                }
            }
            cells
        }),
    );

    // engine.select on a cold engine (memo miss, empty trie) per polygon;
    // a fresh engine per pass keeps every call cold.
    let engine_select = per_op_ns(|| {
        let engine = manual_engine(block);
        for p in polygons {
            black_box(engine.select(p, spec));
        }
        polygons.len()
    });
    table.record("engine.select_ns", engine_select);
    table.record(
        "engine.count_ns",
        per_op_ns(|| {
            let engine = manual_engine(block);
            for p in polygons {
                black_box(engine.count(p));
            }
            polygons.len()
        }),
    );
    // Named parts of a cold select: hash, cover, one trie probe per
    // covering cell, the block's own select over the covering.
    let parts = polyhash + cover_mean + lookup * cells as f64 / coverings.len() as f64 + select;
    table.record(
        "ledger.engine_residual_ratio",
        1.0 - parts / engine_select.max(1.0),
    );

    // Warm engine (memo hits, so no more polygons than half the memo
    // holds): the typed front door against the plain call, and a 4-item
    // batch over the pool.
    let polygons = polygons.get(..256).unwrap_or(polygons);
    let warm = manual_engine(block);
    let typed: Vec<QueryRequest> = polygons
        .iter()
        .map(|p| QueryRequest::Select {
            polygon: p.clone(),
            spec: spec.clone(),
        })
        .collect();
    for p in polygons {
        warm.select(p, spec);
    }
    // `query` adds spec validation and the hot-shape table to `select`.
    // Timed back to back per polygon after an untimed call has pulled its
    // cells into the CPU caches, in alternating order, so cache warmth,
    // drift and the clock reads cancel in the difference.
    let mut overhead: Vec<f64> = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let (mut plain, mut front_door) = (0u128, 0u128);
        for (i, (p, req)) in polygons.iter().zip(&typed).enumerate() {
            let mut time_plain = || {
                let t = Instant::now();
                black_box(warm.select(p, spec));
                plain += t.elapsed().as_nanos();
            };
            let mut time_front_door = || {
                let t = Instant::now();
                black_box(warm.query(req).is_ok());
                front_door += t.elapsed().as_nanos();
            };
            black_box(warm.select(p, spec));
            if i % 2 == 0 {
                time_plain();
                time_front_door();
            } else {
                time_front_door();
                time_plain();
            }
        }
        overhead.push((front_door as f64 - plain as f64) / polygons.len() as f64);
    }
    table.record(
        "engine.query_overhead_ns",
        spread(&overhead).map_or(0.0, |s| s.mid),
    );
    let batches: Vec<&[QueryRequest]> = typed.chunks_exact(4).collect();
    table.record(
        "engine.batch4_ns",
        per_op_ns(|| {
            for batch in &batches {
                black_box(warm.query_batch(batch, THREADS).is_ok());
            }
            batches.len()
        }),
    );
    Ok(())
}

/// `geoblocks::update`, `trie` rebuild and `snapshot`, on the engine the
/// replay left behind (its hit statistics and hot shapes are real).
fn slow_paths(
    table: &mut Table,
    block: &Arc<GeoBlock>,
    replayed: &GeoBlockEngine,
    batch: &UpdateBatch,
) -> Result<(), String> {
    table.record("trie.rebuild_ms", mid_ms(3, || replayed.rebuild_cache()));

    let scratch = sut::scratch_file();
    let mut bytes = 0;
    table.record(
        "snapshot.save_ms",
        mid_ms(3, || {
            if replayed.write_snapshot(&scratch).is_ok() {
                bytes = std::fs::metadata(&scratch).map_or(0, |m| m.len());
            }
        }),
    );
    if bytes == 0 {
        return Err("snapshot: nothing written".to_string());
    }
    table.record("snapshot.bytes", bytes as f64);
    let mut loaded = true;
    table.record(
        "snapshot.load_ms",
        mid_ms(3, || {
            loaded &= GeoBlockEngine::from_snapshot(&scratch, sut::THRESHOLD).is_ok();
        }),
    );
    let _ = std::fs::remove_file(&scratch);
    if !loaded {
        return Err("snapshot: load failed".to_string());
    }

    table.record(
        "update.block_clone_ms",
        mid_ms(5, || {
            black_box((**block).clone());
        }),
    );
    let mut copy = (**block).clone();
    table.record(
        "update.block_apply_ms",
        mid_ms(5, || {
            black_box(copy.apply_updates(batch));
        }),
    );
    let engine = manual_engine(block);
    table.record(
        "engine.update_ms",
        mid_ms(5, || {
            black_box(engine.apply_updates(batch).is_ok());
        }),
    );
    Ok(())
}

/// `geoblocks::api` and `gb_serve::http`: the codec and the framing, on
/// the stream's own requests and the replies they produce.
fn codecs(
    table: &mut Table,
    block: &Arc<GeoBlock>,
    stream: &Stream,
    n: usize,
) -> Result<(), String> {
    let reads: Vec<(Kind, &[u8])> = (1..=n)
        .map_while(|i| stream.get(i))
        .filter(|r| r.kind != Kind::Update)
        .map(|r| (r.kind, &r.body[..]))
        .collect();
    let typed: Vec<QueryRequest> = reads
        .iter()
        .map(|(_, body)| api::decode_request(body).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let engine = manual_engine(block);
    let replies: Vec<Result<QueryReply, geoblocks::GbError>> =
        typed.iter().map(|req| engine.query(req)).collect();
    let encoded: Vec<Vec<u8>> = replies.iter().map(api::encode_reply).collect();
    let ops = reads.len();

    table.record(
        "api.encode_request_ns",
        per_op_ns(|| {
            for req in &typed {
                black_box(api::encode_request(req));
            }
            ops
        }),
    );
    table.record(
        "api.decode_request_ns",
        per_op_ns(|| {
            for (_, body) in &reads {
                black_box(api::decode_request(body).is_ok());
            }
            ops
        }),
    );
    table.record(
        "api.encode_reply_ns",
        per_op_ns(|| {
            for reply in &replies {
                black_box(api::encode_reply(reply));
            }
            ops
        }),
    );
    table.record(
        "api.decode_reply_ns",
        per_op_ns(|| {
            for bytes in &encoded {
                black_box(api::decode_reply(bytes).is_ok());
            }
            ops
        }),
    );
    let mean = |total: usize| total as f64 / ops.max(1) as f64;
    table.record(
        "api.request_bytes",
        mean(reads.iter().map(|(_, b)| b.len()).sum()),
    );
    table.record("api.reply_bytes", mean(encoded.iter().map(Vec::len).sum()));

    let wires: Vec<Vec<u8>> = reads
        .iter()
        .map(|(kind, body)| frame(kind.path(), body))
        .collect();
    table.record(
        "http.parse_ns",
        per_op_ns(|| {
            for wire in &wires {
                black_box(HttpRequest::read_from(&mut &wire[..]).is_ok());
            }
            ops
        }),
    );
    let responses: Vec<HttpResponse> = encoded
        .iter()
        .map(|bytes| HttpResponse::binary(200, bytes.clone()).with_close(false))
        .collect();
    let mut sink = Vec::with_capacity(4096);
    table.record(
        "http.write_ns",
        per_op_ns(|| {
            for response in &responses {
                sink.clear();
                black_box(response.write_to(&mut sink).is_ok());
            }
            ops
        }),
    );
    Ok(())
}

/// `gb_serve::cache` and `gb_serve::quota`, configured as the server's.
fn cache_and_quota(table: &mut Table, reply_bytes: usize) {
    let config = sut::serve_config();
    let capacity = config.cache_capacity;
    let reply = vec![0u8; reply_bytes];
    let keys = |from: usize, n: usize| {
        (from..from + n).map(|k| (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    };
    let half = capacity / 2;

    let mut cache: ResultCache = ResultCache::new(capacity, config.cache_ttl);
    table.record(
        "cache.insert_ns",
        per_op_ns(|| {
            cache = ResultCache::new(capacity, config.cache_ttl);
            for k in keys(0, half) {
                cache.insert(k, reply.clone(), 0);
            }
            half
        }),
    );
    table.record(
        "cache.get_hit_ns",
        per_op_ns(|| {
            for k in keys(0, half) {
                black_box(cache.get(k, 0));
            }
            half
        }),
    );
    table.record(
        "cache.get_miss_ns",
        per_op_ns(|| {
            for k in keys(capacity, half) {
                black_box(cache.get(k, 0));
            }
            half
        }),
    );
    // At capacity every insert of a new key first evicts the oldest one.
    for k in keys(half, capacity - half) {
        cache.insert(k, reply.clone(), 0);
    }
    let mut next = 2 * capacity;
    table.record(
        "cache.insert_full_ns",
        per_op_ns(|| {
            for k in keys(next, 256) {
                cache.insert(k, reply.clone(), 0);
            }
            next += 256;
            256
        }),
    );
    // Purging a full cache of replies from the epoch an update just ended.
    let purges: Vec<f64> = (0..PASSES)
        .map(|_| {
            let full: ResultCache = ResultCache::new(capacity, config.cache_ttl);
            for k in keys(0, capacity) {
                full.insert(k, reply.clone(), 0);
            }
            let t = Instant::now();
            full.purge_stale(1);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    table.record("cache.purge_ns", spread(&purges).map_or(0.0, |s| s.mid));

    let quotas: QuotaTable = QuotaTable::new(config.quota_burst, config.quota_per_sec);
    table.record(
        "quota.admit_ns",
        per_op_ns(|| {
            for _ in 0..10_000 {
                black_box(quotas.admit(black_box("default")));
            }
            10_000
        }),
    );
}

/// `GbServer::handle` without sockets: a result-cache miss, a hit, and an
/// update, on a server of the benchmark's own.
fn handle(
    table: &mut Table,
    block: &Arc<GeoBlock>,
    polygons: &[Polygon],
    spec: &AggSpec,
    update: &UpdateBatch,
) -> Result<(), String> {
    let requests: Vec<HttpRequest> = polygons
        .iter()
        .map(|p| {
            HttpRequest::new("POST", Kind::Select.path()).with_body(api::encode_request(
                &QueryRequest::Select {
                    polygon: p.clone(),
                    spec: spec.clone(),
                },
            ))
        })
        .collect();
    let ok = |server: &GbServer, req: &HttpRequest| server.handle(req).status == 200;
    let mut all_ok = true;
    let mut server = GbServer::new(Arc::new(manual_engine(block)), sut::serve_config());
    table.record(
        "serve.handle_miss_ns",
        per_op_ns(|| {
            // A fresh server per pass: every request misses both caches.
            server = GbServer::new(Arc::new(manual_engine(block)), sut::serve_config());
            for req in &requests {
                all_ok &= ok(&server, req);
            }
            requests.len()
        }),
    );
    table.record(
        "serve.handle_hit_ns",
        per_op_ns(|| {
            for req in &requests {
                all_ok &= ok(&server, req);
            }
            requests.len()
        }),
    );
    let update = HttpRequest::new("POST", Kind::Update.path()).with_body(api::encode_request(
        &QueryRequest::Update {
            batch: update.clone(),
        },
    ));
    table.record(
        "serve.handle_update_ms",
        mid_ms(5, || all_ok &= ok(&server, &update)),
    );
    if all_ok {
        Ok(())
    } else {
        Err("handle: a request did not answer 200".to_string())
    }
}

/// Loopback round trips against the round's live server, both keep-alive
/// connections busy as in the closed loops: `GET /healthz` (no engine, no
/// codec), and a fresh connection's first one (which waits for a worker's
/// 1 ms accept poll).
fn sockets(table: &mut Table, sut: &Sut, n: usize) -> Result<(), String> {
    let addr = sut.running.addr();
    let cap = sut::serve_config().keep_alive_max_requests;
    let healthz = |conn: &mut Connection| match conn.request("GET", "/healthz", &[], &[]) {
        Ok(r) if r.status == 200 => Ok(()),
        Ok(r) => Err(format!("healthz: HTTP {}", r.status)),
        Err(e) => Err(format!("healthz: {e}")),
    };
    // Per thread: (round trips, connects + first round trip), in ns.
    let per_thread = || -> Result<(Vec<u64>, Vec<u64>), String> {
        let (mut rtt, mut connect) = (Vec::with_capacity(n), Vec::new());
        while rtt.len() < n {
            let t = Instant::now();
            let mut conn = Connection::connect(addr).map_err(|e| format!("connect: {e}"))?;
            healthz(&mut conn)?;
            connect.push(t.elapsed().as_nanos() as u64);
            // Stay under the server's per-connection request cap.
            for _ in 0..cap.saturating_sub(2).min(n - rtt.len()) {
                let t = Instant::now();
                healthz(&mut conn)?;
                rtt.push(t.elapsed().as_nanos() as u64);
            }
        }
        Ok((rtt, connect))
    };
    let (mut rtt_ns, mut connect_ns) = (Vec::new(), Vec::new());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS).map(|_| scope.spawn(per_thread)).collect();
        for handle in handles {
            let (rtt, connect) = handle.join().expect("socket thread panicked")?;
            rtt_ns.extend(rtt);
            connect_ns.extend(connect);
        }
        Ok::<(), String>(())
    })?;
    let rtt = tail_of(&mut rtt_ns, 99.0).ok_or("no round trips")?;
    table.record("socket.rtt_ns", rtt.p50 as f64);
    table.note("socket.rtt_ns", format!("n={}", rtt.n));
    let connect = tail_of(&mut connect_ns, 99.0).ok_or("no connects")?;
    table.record("socket.connect_us", connect.p50 as f64 / 1e3);
    table.note("socket.connect_us", format!("n={}", connect.n));
    Ok(())
}

/// Everything timed in isolation, into `table`: on up to `polygons`
/// polygons of the stream, against the round's block and live server and
/// the engine the replay left behind.
pub fn isolated(
    table: &mut Table,
    sut: &Sut,
    replayed: &Pipeline,
    stream: &Stream,
    seed: u64,
    polygons: usize,
) -> Result<(), String> {
    let polys = polygons_of(stream, polygons)?;
    // A read-only workload still reports what an update would cost.
    let batch = crate::workload::update_batch(&mut Rng::new(seed, 2), sut.block.schema().len());
    sockets(table, sut, 5 * polygons)?;
    inside_select(table, &sut.block, &replayed.engine, &polys, &sut.spec)?;
    slow_paths(table, &sut.block, &replayed.engine, &batch)?;
    codecs(table, &sut.block, stream, 4 * polygons)?;
    cache_and_quota(table, 128);
    handle(table, &sut.block, &polys, &sut.spec, &batch)
}
