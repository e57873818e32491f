//! The traced run, part A: a single-threaded, in-process replay of the
//! workload's stream through the same steps `GbServer::handle` and the
//! client take, with a span around each call into a layer. The spans are
//! recorded by the benchmark, around public functions; the program under
//! test is not instrumented.
//!
//! A span's self time is its duration minus its children's. The ledger
//! residuals say how much of a request the named steps leave unexplained.

use crate::sut::{self, THREADS};
use crate::workload::{Kind, Req, Stream};
use gb_serve::cache::ResultCache;
use gb_serve::http::{HttpRequest, HttpResponse};
use gb_serve::quota::QuotaTable;
use geoblocks::api::{self, QueryRequest};
use geoblocks::{GeoBlock, GeoBlockEngine};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Stream position of the request the span belongs to.
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans in a preallocated vector; nothing is written until the end.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    req: u32,
}

impl Recorder {
    pub fn new(on: bool, capacity: usize) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            open: Vec::with_capacity(8),
            req: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span. With recording off this is a plain call.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            req: self.req,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `id, parent, req, name, start_ns, end_ns`.
    pub fn write_jsonl(&self, out: &mut dyn Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The serving state `GbServer` owns, owned by the benchmark instead and
/// configured the same way, so each step can be called on its own.
pub struct Pipeline {
    pub engine: GeoBlockEngine,
    cache: ResultCache,
    quotas: QuotaTable,
    filter_key: u64,
}

/// What the replay counted besides time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub requests: u64,
    /// Requests the engine computed (result-cache misses and updates).
    pub computed: u64,
    pub query_cells: u64,
    pub cells_combined: u64,
    pub searches: u64,
}

/// The bytes `gb_serve::client::Connection::request` puts on the wire.
pub fn frame(path: &str, body: &[u8]) -> Vec<u8> {
    let mut wire = format!(
        "POST {path} HTTP/1.1\r\nhost: geoblocks\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

impl Pipeline {
    pub fn new(block: Arc<GeoBlock>) -> Result<Pipeline, String> {
        let config = sut::serve_config();
        Ok(Pipeline {
            engine: sut::engine_over(block)?,
            cache: ResultCache::new(config.cache_capacity, config.cache_ttl),
            quotas: QuotaTable::new(config.quota_burst, config.quota_per_sec),
            filter_key: gb_store::fnv1a64(config.filter_label.as_bytes()),
        })
    }

    /// One request, client side and server side, as nested spans under a
    /// `req` span. Mirrors `GbServer::query_endpoint` step for step.
    fn request(
        &self,
        rec: &mut Recorder,
        kind: Kind,
        typed: &QueryRequest,
        counts: &mut Counts,
    ) -> Result<(), String> {
        rec.span("req", |rec| {
            let body = rec.span("api.encode_request", |_| api::encode_request(typed));
            let wire = rec.span("http.frame", |_| frame(kind.path(), &body));
            let http = rec
                .span("http.parse", |_| HttpRequest::read_from(&mut &wire[..]))
                .map_err(|e| format!("replay: parse: {e}"))?;
            let parsed = rec
                .span("api.decode_request", |_| api::decode_request(&http.body))
                .map_err(|e| format!("replay: decode: {e}"))?;
            rec.span("quota.admit", |_| {
                self.quotas
                    .admit(http.header("x-gb-tenant").unwrap_or("default"))
            });
            let key = rec.span("api.cache_key", |_| {
                api::request_cache_key(&parsed, self.filter_key)
            });
            let cached = key.and_then(|k| {
                rec.span("cache.get", |_| self.cache.get(k, self.engine.data_epoch()))
            });
            let reply = match cached {
                Some(reply) => reply,
                None => {
                    let outcome = rec.span("engine.query", |_| match &parsed {
                        QueryRequest::Batch { requests } => {
                            self.engine.query_batch(requests, THREADS)
                        }
                        _ => self.engine.query(&parsed),
                    });
                    let reply = rec.span("api.encode_reply", |_| api::encode_reply(&outcome));
                    let answer = outcome.map_err(|e| format!("replay: engine: {e}"))?;
                    let stats = answer.stats();
                    counts.computed += 1;
                    counts.query_cells += stats.query_cells as u64;
                    counts.cells_combined += stats.cells_combined as u64;
                    counts.searches += stats.searches as u64;
                    if let Some(k) = key {
                        rec.span("cache.insert", |_| {
                            self.cache.insert(k, reply.clone(), answer.epoch())
                        });
                    }
                    if kind == Kind::Update {
                        rec.span("cache.purge", |_| {
                            self.cache.purge_stale(self.engine.data_epoch())
                        });
                    }
                    reply
                }
            };
            let out = rec
                .span("http.write", |_| {
                    let mut out = Vec::with_capacity(reply.len() + 128);
                    HttpResponse::binary(200, reply)
                        .with_close(false)
                        .write_to(&mut out)
                        .map(|()| out)
                })
                .map_err(|e| format!("replay: write: {e}"))?;
            rec.span("api.decode_reply", |_| {
                let head_end = out.windows(4).position(|w| w == b"\r\n\r\n");
                head_end.map(|at| api::decode_reply(out.get(at + 4..).unwrap_or_default()))
            })
            .ok_or("replay: response without a head")?
            .map_err(|e| format!("replay: decode reply: {e}"))?;
            counts.requests += 1;
            Ok(())
        })
    }
}

/// Replay positions `1..=n` of `stream` (position 0 is the set-up's first
/// request in the end-to-end runs) on a fresh pipeline, after the same
/// warm-up pass the end-to-end rounds make. Returns the pipeline, the
/// spans, the counts and the median time of one request in ns (timed
/// around the whole request whether or not spans are recorded, so two
/// replays compare on their typical request, not on their few updates).
pub fn replay(
    block: &Arc<GeoBlock>,
    stream: &Stream,
    n: usize,
    record: bool,
) -> Result<(Pipeline, Recorder, Counts, f64), String> {
    let typed = |req: &Req| {
        let request = api::decode_request(&req.body).map_err(|e| e.to_string())?;
        Ok::<_, String>((req.kind, request))
    };
    let requests: Vec<(Kind, QueryRequest)> = (1..=n)
        .map_while(|i| stream.get(i))
        .map(typed)
        .collect::<Result<_, _>>()?;
    let pipeline = Pipeline::new(Arc::clone(block))?;
    let mut unrecorded = Recorder::new(false, 0);
    for req in stream.warm_set() {
        let (kind, request) = typed(req)?;
        pipeline.request(&mut unrecorded, kind, &request, &mut Counts::default())?;
    }
    // A read request records at most 12 spans.
    let mut rec = Recorder::new(record, requests.len() * 12);
    let mut counts = Counts::default();
    let mut request_ns = Vec::with_capacity(requests.len());
    for (i, (kind, typed)) in requests.iter().enumerate() {
        rec.req = i as u32 + 1;
        let started = Instant::now();
        pipeline.request(&mut rec, *kind, typed, &mut counts)?;
        request_ns.push(started.elapsed().as_nanos() as u64);
    }
    request_ns.sort_unstable();
    let median_ns = crate::stats::percentile(&request_ns, 50.0).unwrap_or(0) as f64;
    Ok((pipeline, rec, counts, median_ns))
}

/// `1 - Σ children / Σ parents` over the `req` spans on the hit path and
/// on the miss path, and the engine's share of all request time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Residuals {
    pub hit: f64,
    pub miss: f64,
    pub engine_share: f64,
}

pub fn residuals(spans: &[Span]) -> Residuals {
    // Per root span: (duration, Σ direct children, engine.query time).
    let mut roots: Vec<(u64, u64, u64)> = Vec::new();
    let mut index_of = vec![usize::MAX; spans.len()];
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        if s.parent == NO_PARENT {
            if let Some(slot) = index_of.get_mut(s.id as usize) {
                *slot = roots.len();
            }
            roots.push((dur, 0, 0));
        } else if let Some(root) = index_of
            .get(s.parent as usize)
            .and_then(|&at| roots.get_mut(at))
        {
            root.1 += dur;
            if s.name == "engine.query" {
                root.2 += dur;
            }
        }
    }
    let residual = |on_miss_path: bool| {
        let (parents, children) = roots
            .iter()
            .filter(|r| (r.2 > 0) == on_miss_path)
            .fold((0u64, 0u64), |(p, c), r| (p + r.0, c + r.1));
        if parents == 0 {
            0.0
        } else {
            1.0 - children as f64 / parents as f64
        }
    };
    let total: u64 = roots.iter().map(|r| r.0).sum();
    let engine: u64 = roots.iter().map(|r| r.2).sum();
    Residuals {
        hit: residual(false),
        miss: residual(true),
        engine_share: if total == 0 {
            0.0
        } else {
            engine as f64 / total as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_residuals_subtract_children() {
        let mut rec = Recorder::new(true, 16);
        rec.req = 7;
        rec.span("req", |rec| {
            rec.span("cache.get", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        rec.req = 8;
        rec.span("req", |rec| {
            rec.span("engine.query", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            std::thread::sleep(std::time::Duration::from_millis(4));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[0].parent, spans[1].parent), (NO_PARENT, 0));
        assert_eq!((spans[2].parent, spans[3].parent), (NO_PARENT, 2));
        assert_eq!((spans[1].req, spans[3].req), (7, 8));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));

        let r = residuals(spans);
        // Hit path: the child covers nearly all of the request.
        assert!(r.hit >= 0.0 && r.hit < 0.2, "hit residual {}", r.hit);
        // Miss path: half of the request is outside any child.
        assert!(r.miss > 0.3 && r.miss < 0.7, "miss residual {}", r.miss);
        assert!(r.engine_share > 0.2 && r.engine_share < 0.6);

        let mut out = Vec::new();
        rec.write_jsonl(&mut out).expect("write to memory");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with("{\"id\":0,\"parent\":null,\"req\":7,\"name\":\"req\","));
    }

    #[test]
    fn recording_off_records_nothing() {
        let mut rec = Recorder::new(false, 16);
        assert_eq!(rec.span("req", |rec| rec.span("x", |_| 5)), 5);
        assert!(rec.spans().is_empty());
    }
}
