//! `gb_serve` — a std-only concurrent HTTP front-end over
//! [`GeoBlockEngine`]: the ROADMAP's "serving front-end" step, turning
//! the in-process query cache into a service with a measurable
//! requests/sec story.
//!
//! * **Endpoints** — `POST /v1/select`, `/v1/count`, `/v1/update`,
//!   `/v1/batch` (and the kind-agnostic `/v1/query`) speak the
//!   `geoblocks::api` wire codec: the request body is `encode_request`
//!   bytes, the response body is `encode_reply` bytes, and the HTTP
//!   status is the total `GbError::http_status` mapping. `GET /metrics`
//!   and `GET /healthz` are plain text. Every request kind, batches
//!   included, goes through [`geoblocks::GeoBlockEngine::query`] on the
//!   connection's own thread.
//! * **Tracing** — every query request runs under a `gb_trace` request
//!   trace (sampled per `GB_TRACE_SAMPLE`): per-stage latency lands in
//!   `/metrics` as `gb_stage_latency_ns`/`gb_stage_share`, and the last
//!   traces are browsable at `GET /v1/debug/traces` with the always-kept
//!   slow lane (`GB_SLOW_US`) at `GET /v1/debug/slow`.
//! * **Keep-alive** — a client sending `Connection: keep-alive` may
//!   issue many requests on one TCP connection, bounded by an idle
//!   timeout and a per-connection request cap (see [`ServeConfig`]);
//!   everyone else gets the one-shot close behavior unchanged.
//! * **Result cache** — replies for SELECT/COUNT are cached by query
//!   shape (wire-hash of polygon + spec, mixed with the server's filter
//!   key) beside the request body they answer, served only to a request
//!   with that very body, bounded by TTL, capacity and the size of the
//!   body (`geoblocks::MAX_ENTRY_BYTES`), and validated
//!   against the engine's *data epoch* on every lookup — an `apply_updates` commit
//!   invalidates transactionally because the epoch and the new data
//!   become visible in one atomic state swap (see [`cache`]). Only
//!   requests fill it: a server over a restored engine starts with it
//!   empty, and replays nothing into the engine.
//! * **Admission control** — per-tenant token buckets (`X-Gb-Tenant`
//!   header) reject excess load with 429 + `Retry-After` before any
//!   engine work happens (see [`quota`]).
//! * **Concurrency** — a fixed worker fleet on `gb_common::Pool`, each
//!   worker parked in a blocking `accept` on the shared listener
//!   (thread-per-connection, pre-forked; no async runtime). Between a
//!   connection's requests its worker polls the socket for
//!   [`POLL_WINDOW`] before it parks in a blocking `read`, so a request
//!   that comes within the window skips the idle-vCPU wake-up. A request
//!   costs one `read` and one `write` per side, plus the polls that found
//!   nothing; `/metrics` counts how each request found its worker
//!   (`gb_worker_waits_total`) and the time spent polling
//!   (`gb_worker_poll_ns_total`). [`RunningServer::stop`] wakes the fleet
//!   by connecting to it.

// Every request runs through this crate: a failure is a typed reply.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;
pub mod quota;

use cache::ResultCache;
use gb_common::sync::backend::StdBackend;
use gb_common::sync::{rank, OrderedMutex};
use gb_common::Pool;
use gb_trace::Stage;
use geoblocks::api::{self, QueryRequest};
use geoblocks::{GbError, GeoBlockEngine, ServeError};
use http::{HttpError, HttpRequest, HttpResponse};
use metrics::{CloseReason as Close, Metrics};
use quota::{Admission, QuotaTable};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads accepting and handling connections.
    pub threads: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Result-cache time-to-live.
    pub cache_ttl: Duration,
    /// Token-bucket burst per tenant.
    pub quota_burst: f64,
    /// Token-bucket refill rate per tenant (tokens/sec); `<= 0` disables
    /// admission control.
    pub quota_per_sec: f64,
    /// Label of the filter this engine was built under; mixed into every
    /// cache key so differently-filtered deployments never share entries.
    pub filter_label: String,
    /// How long a kept-alive connection may sit idle between requests
    /// before the server closes it.
    pub keep_alive_idle: Duration,
    /// Requests served on one kept-alive connection before the server
    /// closes it (bounds how long one peer can monopolize a worker).
    pub keep_alive_max_requests: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            threads: 4,
            cache_capacity: 4096,
            cache_ttl: Duration::from_secs(60),
            quota_burst: 256.0,
            quota_per_sec: 0.0,
            filter_label: "all".to_string(),
            keep_alive_idle: Duration::from_secs(5),
            keep_alive_max_requests: 256,
        }
    }
}

/// The server's result cache: each entry is the request body and the
/// encoded reply that answers it.
pub type ReplyCache = ResultCache<StdBackend, Arc<(Vec<u8>, Vec<u8>)>>;

/// The server: an engine plus the serving state (cache, metrics,
/// quotas). [`GbServer::handle`] is a pure request → response function,
/// so the full HTTP surface is testable without sockets;
/// [`RunningServer::start`] puts it behind a real listener.
pub struct GbServer {
    engine: Arc<GeoBlockEngine>,
    cache: ReplyCache,
    metrics: Metrics,
    quotas: QuotaTable,
    filter_key: u64,
    config: ServeConfig,
}

impl GbServer {
    /// Wrap `engine` with the serving state from `config`. The result
    /// cache starts empty and sends nothing to the engine: only requests
    /// fill it, so wrapping an engine leaves its statistics untouched.
    pub fn new(engine: Arc<GeoBlockEngine>, config: ServeConfig) -> GbServer {
        GbServer {
            cache: ResultCache::new(config.cache_capacity, config.cache_ttl),
            metrics: Metrics::default(),
            quotas: QuotaTable::new(config.quota_burst, config.quota_per_sec),
            filter_key: gb_store::fnv1a64(config.filter_label.as_bytes()),
            engine,
            config,
        }
    }

    /// The wrapped engine (tests compare HTTP replies against direct
    /// engine calls through this).
    pub fn engine(&self) -> &Arc<GeoBlockEngine> {
        &self.engine
    }

    /// The server metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The result cache.
    pub fn cache(&self) -> &ReplyCache {
        &self.cache
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Handle one parsed request. Pure except for the serving state:
    /// no I/O, so tests can drive the exact HTTP surface in-process.
    pub fn handle(&self, req: &HttpRequest) -> HttpResponse {
        let start = Instant::now();
        // The path is compared once: its index in `ROUTES` is the route
        // `/metrics` counts, and its entry says which method it takes.
        let route = ROUTES.iter().position(|&(_, path, _)| path == req.path);
        let endpoint = route
            .and_then(|i| ROUTES.get(i))
            .filter(|&&(method, _, _)| method == req.method)
            .map(|&(_, _, endpoint)| endpoint);
        let resp = match endpoint {
            Some(Endpoint::Health) => HttpResponse::text(200, "ok\n"),
            Some(Endpoint::Metrics) => HttpResponse::text(
                200,
                self.metrics.render(
                    &self.cache.stats(),
                    self.cache.len(),
                    metrics::EngineNumbers {
                        data_epoch: self.engine.data_epoch(),
                        memo: self.engine.memo_stats(),
                    },
                    self.engine.tracer(),
                ),
            ),
            Some(Endpoint::Traces) => {
                HttpResponse::text(200, gb_trace::render_traces(&self.engine.tracer().recent()))
            }
            Some(Endpoint::SlowTraces) => HttpResponse::text(
                200,
                gb_trace::render_traces(&self.engine.tracer().slow_traces()),
            ),
            Some(Endpoint::Query(kind)) => {
                // The serve layer owns the request trace: the engine's own
                // `begin_request` calls nest inside this one and stay
                // inert, so quota/cache/serialize time lands on the same
                // trace as the engine stages. Dropped (finalized) before
                // metrics.record so the flight recorder sees the trace the
                // moment the request is countable. Only query endpoints
                // are traced: tracing the observability surface would
                // pollute the recorder with scrape noise.
                let _trace = self
                    .engine
                    .tracer()
                    .begin_request(kind.map_or("query", Kind::name));
                self.admitted(req, |r| self.query_endpoint(r, kind))
            }
            None if route.is_some() => self.error_response(GbError::Serve(
                ServeError::MethodNotAllowed(format!("{} {}", req.method, req.path)),
            )),
            None => self.error_response(GbError::Serve(ServeError::NotFound(req.path.clone()))),
        };
        self.metrics.record(
            route,
            resp.status,
            start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
        );
        resp
    }

    /// Run `f` if the tenant's token bucket admits the request.
    fn admitted(
        &self,
        req: &HttpRequest,
        f: impl FnOnce(&HttpRequest) -> HttpResponse,
    ) -> HttpResponse {
        let tenant = req.header("x-gb-tenant").unwrap_or("default");
        let span = self.engine.tracer().span(Stage::Quota);
        let admission = self.quotas.admit(tenant);
        drop(span);
        match admission {
            Admission::Admit => f(req),
            Admission::Reject { retry_after_ms } => self
                .error_response(GbError::Serve(ServeError::QuotaExceeded {
                    tenant: tenant.to_string(),
                    retry_after_ms,
                }))
                .with_header("retry-after", (retry_after_ms.div_ceil(1000)).to_string()),
        }
    }

    /// Decode → (cache probe) → engine → encode. `expected` pins the
    /// request kind for the kind-specific endpoints.
    fn query_endpoint(&self, req: &HttpRequest, expected: Option<Kind>) -> HttpResponse {
        let parsed = match api::decode_request(&req.body) {
            Ok(p) => p,
            Err(e) => return self.error_response(e),
        };
        if let Some(expected) = expected {
            let actual = Kind::of(&parsed);
            if actual != expected {
                return self.error_response(GbError::bad_request(format!(
                    "endpoint expects a {} request, body encodes a {}",
                    expected.name(),
                    actual.name()
                )));
            }
        }

        // Cache probe (SELECT/COUNT only — updates have no key). The
        // epoch read here also validates the entry: a reply computed at
        // an older data epoch never leaves the cache. The key is a 64-bit
        // hash of the body, so an entry answers only the body it holds: a
        // collision is a miss.
        let tracer = self.engine.tracer();
        let key = api::body_cache_key(&parsed, &req.body, self.filter_key);
        if let Some(key) = key {
            let span = tracer.span(Stage::ResultCache);
            let epoch = self.engine.data_epoch();
            let cached = self.cache.get_if(key, epoch, |entry| entry.0 == req.body);
            let reply = cached.map(|entry| entry.1.clone());
            drop(span);
            if let Some(reply) = reply {
                tracer.flag(gb_trace::FLAG_CACHE_HIT);
                return HttpResponse::binary(200, reply);
            }
        }

        let outcome = self.engine.query(&parsed);
        let span = tracer.span(Stage::Serialize);
        let body = api::encode_reply(&outcome);
        drop(span);
        match outcome {
            Ok(reply) => {
                if let Some(key) = key {
                    // Tag the entry with the epoch the reply was computed
                    // at; if an update commits between compute and
                    // insert, the entry is stale-on-arrival and will
                    // never be served.
                    let entry = Arc::new((req.body.clone(), body.clone()));
                    self.cache.insert(key, entry, reply.epoch());
                }
                if matches!(parsed, QueryRequest::Update { .. }) {
                    // Space reclamation only — correctness comes from the
                    // per-lookup epoch check.
                    self.cache.purge_stale(self.engine.data_epoch());
                }
                HttpResponse::binary(200, body)
            }
            Err(e) => HttpResponse::binary(e.http_status(), body),
        }
    }

    /// Encode `e` as a wire error reply with its mapped HTTP status.
    fn error_response(&self, e: GbError) -> HttpResponse {
        let status = e.http_status();
        HttpResponse::binary(status, api::encode_reply(&Err(e)))
    }

    /// Serve connections from `listener` until [`Shutdown::stop`]. Blocks
    /// the calling thread; workers run on a scoped [`Pool`].
    fn run(&self, listener: TcpListener, shutdown: &Shutdown) {
        // One accept loop per worker on the shared listener: all park in a
        // blocking `accept`, and the kernel wakes one per connection.
        Pool::new(shutdown.serving.len()).run(&shutdown.serving, |serving| {
            while !shutdown.stopping() {
                let Ok((stream, _)) = listener.accept() else {
                    // Out of descriptors, or the peer reset while queued.
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                };
                // Publish a handle on the stream before looking at the
                // flag: `stop` raises the flag before it walks the slots,
                // so either it finds this stream or this worker sees the
                // flag (the slot's lock orders the two). A connection
                // `stop` could get no handle on is refused, not served.
                let Ok(handle) = stream.try_clone() else {
                    continue;
                };
                *serving.lock() = Some(handle);
                if !shutdown.stopping() {
                    self.serve_connection(&stream, shutdown);
                }
                *serving.lock() = None;
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        });
    }

    /// Serve requests from one connection until the peer closes, stops
    /// asking for keep-alive, goes idle past the configured timeout, or
    /// hits the per-connection request cap. Transport errors get a
    /// best-effort 400/413 and never propagate (a broken peer must not
    /// take a worker down).
    fn serve_connection(&self, stream: &TcpStream, shutdown: &Shutdown) {
        self.metrics.connection_opened();
        let idle = self.config.keep_alive_idle.max(Duration::from_millis(1));
        let _ = stream.set_nodelay(true);
        let Ok(mut stream) = PolledStream::new(stream, idle, &self.metrics) else {
            return self.metrics.connection_closed(Close::Error, 0);
        };
        let max_requests = self.config.keep_alive_max_requests.max(1) as u64;
        // Requests are parsed out of `inbound` in place; each reply is
        // framed into `outbound` and sent with one `write`.
        let (mut inbound, mut outbound) = (Vec::new(), Vec::new());
        let mut served = 0u64;
        let reason = loop {
            // `why` is the reason to record if this reply closes the connection.
            let (response, why) = match HttpRequest::read_from_buffered(&mut stream, &mut inbound) {
                Ok(Some(req)) => {
                    served += 1;
                    stream.arrived();
                    let (close, why) = if !req.wants_keep_alive() {
                        (true, Close::Peer)
                    } else if served >= max_requests {
                        (true, Close::Cap)
                    } else {
                        (shutdown.stopping(), Close::Shutdown)
                    };
                    (self.handle(&req).with_close(close), why)
                }
                // `stop` closed the read half, between requests or under one
                // still arriving (which is not the peer's mistake: no 400).
                Ok(None) | Err(HttpError::Malformed(_)) if shutdown.stopping() => {
                    break Close::Shutdown
                }
                Ok(None) => break Close::Peer, // closed cleanly between requests
                Err(HttpError::TooLarge(m)) => (HttpResponse::text(413, m), Close::Error),
                Err(HttpError::Malformed(m)) => (HttpResponse::text(400, m), Close::Error),
                Err(HttpError::TimedOut) => break Close::Idle,
                Err(HttpError::Io(_)) => break Close::Error, // peer vanished
            };
            outbound.clear();
            response.frame_into(&mut outbound);
            if response.close {
                // Counted before the reply that announces the close leaves,
                // so a client that has read it finds the count in `/metrics`.
                self.metrics.connection_closed(why, served);
                let _ = stream.write_all(&outbound);
                return;
            }
            if stream.write_all(&outbound).is_err() || stream.resume().is_err() {
                break Close::Error;
            }
            // One large update must not pin its size for the connection's life.
            inbound.shrink_to(BUFFER_KEEP);
            outbound.shrink_to(BUFFER_KEEP);
        };
        self.metrics.connection_closed(reason, served);
    }
}

/// How long a worker polls its connection for the next request before it
/// parks in a blocking `read`. Polling pays when the next request arrives
/// inside the window: the worker is awake to take it, where a parked one
/// first waits out the guest's idle-vCPU wake-up (~40 µs). Two keep-alive
/// connections sharing 2 100 requests/s leave each ~0.95 ms between
/// requests; an idle connection costs at most one window of CPU before its
/// worker parks.
pub const POLL_WINDOW: Duration = Duration::from_millis(2);

/// A connection's socket as its worker waits on it. A `read` that finds
/// nothing (`WouldBlock`) yields the CPU and reads again until the wait
/// has lasted [`POLL_WINDOW`]; then the socket switches to blocking and the
/// worker parks in the same `read` with what is left of the idle timeout.
/// [`PolledStream::resume`] switches it back once the reply is written.
/// A request caught by polling therefore costs one `read` and one `write`,
/// plus the polls that found nothing, and no mode change; a parked one
/// adds two mode switches and one `setsockopt`.
struct PolledStream<'a> {
    stream: &'a TcpStream,
    metrics: &'a Metrics,
    idle: Duration,
    /// When the current wait's first `read` found nothing.
    waiting_since: Option<Instant>,
    /// The socket is in blocking mode: the wait parked, or a reply filled
    /// the send buffer.
    blocking: bool,
}

impl<'a> PolledStream<'a> {
    fn new(
        stream: &'a TcpStream,
        idle: Duration,
        metrics: &'a Metrics,
    ) -> std::io::Result<PolledStream<'a>> {
        stream.set_nonblocking(true)?;
        Ok(PolledStream {
            stream,
            metrics,
            idle,
            waiting_since: None,
            blocking: false,
        })
    }

    /// A request was read whole: count how its worker waited for it and
    /// start the next wait afresh.
    fn arrived(&mut self) {
        self.metrics.worker_waited(self.blocking);
        self.waiting_since = None;
    }

    /// The reply is written: poll again for the next request.
    fn resume(&mut self) -> std::io::Result<()> {
        if self.blocking {
            self.stream.set_nonblocking(true)?;
            self.blocking = false;
        }
        Ok(())
    }
}

impl Read for PolledStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut polling = None;
        let result = loop {
            let nothing = match (&*self.stream).read(buf) {
                Err(e) if e.kind() == ErrorKind::WouldBlock => e,
                done => break done,
            };
            let now = Instant::now();
            let waited = now.saturating_duration_since(*self.waiting_since.get_or_insert(now));
            if !self.blocking {
                let since = *polling.get_or_insert(now);
                if waited < POLL_WINDOW.min(self.idle) {
                    std::thread::yield_now();
                    continue;
                }
                self.metrics
                    .worker_polled(now.saturating_duration_since(since));
                polling = None;
            }
            // Park, or park again if the timer fired before the idle
            // timeout was up, with what is left of it.
            let Some(left) = self.idle.checked_sub(waited).filter(|d| !d.is_zero()) else {
                break Err(nothing); // the idle timeout is up
            };
            if let Err(e) = self.stream.set_read_timeout(Some(left)) {
                break Err(e);
            }
            if !self.blocking {
                if let Err(e) = self.stream.set_nonblocking(false) {
                    break Err(e);
                }
                self.blocking = true;
            }
        };
        if let Some(since) = polling {
            self.metrics.worker_polled(since.elapsed());
        }
        result
    }
}

impl Write for PolledStream<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        loop {
            match (&*self.stream).write(buf) {
                // The send buffer is full: block until the peer drains it.
                Err(e) if e.kind() == ErrorKind::WouldBlock && !self.blocking => {
                    self.stream.set_nonblocking(false)?;
                    self.blocking = true;
                }
                done => return done,
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Capacity a connection's buffers keep between requests.
const BUFFER_KEEP: usize = 64 * 1024;

/// What ends [`GbServer::run`]: the flag its workers read around `accept`
/// and after every request, and per worker a handle on the stream it is
/// serving, so [`Shutdown::stop`] can end a connection waiting in `read`.
struct Shutdown {
    flag: AtomicBool,
    serving: Vec<OrderedMutex<Option<TcpStream>>>,
}

impl Shutdown {
    fn new(workers: usize) -> Shutdown {
        let slot = |_| OrderedMutex::new("serving", rank::LEAF, None);
        Shutdown {
            flag: AtomicBool::new(false),
            serving: (0..workers).map(slot).collect(),
        }
    }

    fn stopping(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// End `run` on the listener at `addr`: raise the flag, then per
    /// worker close the read half of the stream it serves — a worker
    /// polling or parked in `read` sees end-of-stream at once, while a request
    /// already received is still answered (with `connection: close`) —
    /// and connect once: each worker exits on its first `accept` after
    /// the flag, so one connection per worker wakes them all. A failing
    /// connect (no descriptor left, say) is retried for 2 s; after the
    /// error a worker may still be parked.
    fn stop(&self, addr: SocketAddr) -> Result<(), GbError> {
        self.flag.store(true, Ordering::Release);
        let deadline = Instant::now() + Duration::from_secs(2);
        let failed = |e: std::io::Error| serve_internal(format!("stop: connect {addr}: {e}"));
        for serving in &self.serving {
            if let Some(stream) = serving.lock().as_ref() {
                let _ = stream.shutdown(std::net::Shutdown::Read);
            }
            loop {
                match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
                    Ok(_) => break,
                    // The listener is gone: every worker has left already.
                    Err(e) if e.kind() == ErrorKind::ConnectionRefused => return Ok(()),
                    Err(e) if Instant::now() >= deadline => return Err(failed(e)),
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
        }
        Ok(())
    }
}

/// Request kinds, for pinning the kind-specific endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Select,
    Count,
    Update,
    Batch,
}

impl Kind {
    fn of(req: &QueryRequest) -> Kind {
        match req {
            QueryRequest::Select { .. } => Kind::Select,
            QueryRequest::Count { .. } => Kind::Count,
            QueryRequest::Update { .. } => Kind::Update,
            QueryRequest::Batch { .. } => Kind::Batch,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Select => "select",
            Kind::Count => "count",
            Kind::Update => "update",
            Kind::Batch => "batch",
        }
    }
}

fn serve_internal(msg: String) -> GbError {
    GbError::Serve(ServeError::Internal(msg))
}

/// What a route serves.
#[derive(Debug, Clone, Copy)]
enum Endpoint {
    Health,
    Metrics,
    Traces,
    SlowTraces,
    /// A wire-codec query endpoint; `Some` pins the request kind.
    Query(Option<Kind>),
}

/// Every route, `(method, path, endpoint)`, in the order `/metrics` lists
/// them. A known path asked with another method is a 405; an unknown
/// path, a 404 (counted as route `other`).
const ROUTES: [(&str, &str, Endpoint); 9] = [
    ("POST", "/v1/query", Endpoint::Query(None)),
    ("POST", "/v1/select", Endpoint::Query(Some(Kind::Select))),
    ("POST", "/v1/count", Endpoint::Query(Some(Kind::Count))),
    ("POST", "/v1/update", Endpoint::Query(Some(Kind::Update))),
    ("POST", "/v1/batch", Endpoint::Query(Some(Kind::Batch))),
    ("GET", "/v1/debug/traces", Endpoint::Traces),
    ("GET", "/v1/debug/slow", Endpoint::SlowTraces),
    ("GET", "/metrics", Endpoint::Metrics),
    ("GET", "/healthz", Endpoint::Health),
];

/// A server running on a background thread, stopped explicitly or on
/// drop. [`RunningServer::start`] binds, spawns, and returns once the
/// listener is live, so tests and the CLI can connect immediately.
pub struct RunningServer {
    server: Arc<GbServer>,
    addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RunningServer {
    /// Bind `bind_addr` (e.g. `"127.0.0.1:0"`) and serve in the
    /// background until [`RunningServer::stop`] or drop.
    pub fn start(server: GbServer, bind_addr: &str) -> Result<RunningServer, GbError> {
        let listener = TcpListener::bind(bind_addr)
            .map_err(|e| serve_internal(format!("bind {bind_addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| serve_internal(format!("local_addr: {e}")))?;
        let server = Arc::new(server);
        let shutdown = Arc::new(Shutdown::new(server.config.threads.max(1)));
        let run_server = Arc::clone(&server);
        let run_shutdown = Arc::clone(&shutdown);
        #[expect(
            clippy::disallowed_methods,
            reason = "the serve loop must outlive this call (stopped via Shutdown::stop + join in stop()); Pool is fork-join and spawn_join would block here"
        )]
        let thread = std::thread::spawn(move || run_server.run(listener, &run_shutdown));
        Ok(RunningServer {
            server,
            addr,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The bound address (real port even when started on port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared server state (for metrics/engine access while live).
    pub fn server(&self) -> &Arc<GbServer> {
        &self.server
    }

    /// Stop serving and join the serve thread. Returns once every worker
    /// has left its connection: open keep-alive connections are closed,
    /// not waited out. On an error a worker could not be woken, and the
    /// serve thread is left to end at its next connection, not joined.
    pub fn stop(mut self) -> Result<(), GbError> {
        self.stop_inner()
    }

    fn stop_inner(&mut self) -> Result<(), GbError> {
        if let Some(thread) = self.thread.take() {
            self.shutdown.stop(self.addr)?;
            let _ = thread.join();
        }
        Ok(())
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        let _ = self.stop_inner();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gb_cell::Grid;
    use gb_data::{extract, AggSpec, CleaningRules, ColumnDef, Filter, RawTable, Schema};
    use gb_geom::{Point, Polygon, Rect};
    use geoblocks::api::QueryReply;
    use geoblocks::{build, UpdateBatch};

    pub(crate) fn test_server(quota_per_sec: f64, cache_capacity: usize) -> GbServer {
        test_server_with(ServeConfig {
            quota_per_sec,
            quota_burst: 3.0,
            cache_capacity,
            ..ServeConfig::default()
        })
    }

    fn test_server_with(config: ServeConfig) -> GbServer {
        let mut raw = RawTable::new(Schema::new(vec![ColumnDef::f64("v")]));
        let mut state = 11u64;
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
        let (block, _) = build(&base, 8, &Filter::all());
        GbServer::new(Arc::new(GeoBlockEngine::new(block)), config)
    }

    fn diamond(cx: f64, cy: f64, r: f64) -> Polygon {
        Polygon::new(vec![
            Point::new(cx, cy - r),
            Point::new(cx + r, cy),
            Point::new(cx, cy + r),
            Point::new(cx - r, cy),
        ])
    }

    fn select_req(cx: f64) -> Vec<u8> {
        api::encode_request(&QueryRequest::Select {
            polygon: diamond(cx, 50.0, 10.0),
            spec: AggSpec::new(vec![gb_data::AggRequest::new(gb_data::AggFunc::Count, 0)]),
        })
    }

    fn post(path: &str, body: Vec<u8>) -> HttpRequest {
        HttpRequest::new("POST", path).with_body(body)
    }

    #[test]
    fn select_endpoint_answers_and_caches() {
        let server = test_server(0.0, 64);
        let r1 = server.handle(&post("/v1/select", select_req(40.0)));
        assert_eq!(r1.status, 200);
        let reply = api::decode_reply(&r1.body).expect("decode");
        let direct = match reply {
            QueryReply::Select(r) => r,
            other => panic!("wrong kind: {other:?}"),
        };
        let want = server.engine().select(
            &diamond(40.0, 50.0, 10.0),
            &AggSpec::new(vec![gb_data::AggRequest::new(gb_data::AggFunc::Count, 0)]),
        );
        assert_eq!(direct.result.count, want.result.count);

        // Second identical request: served from the cache, bit-identical.
        let r2 = server.handle(&post("/v1/select", select_req(40.0)));
        assert_eq!(r2.body, r1.body, "cached reply must be byte-identical");
        assert_eq!(server.cache().stats().hits, 1);
    }

    #[test]
    fn a_cached_reply_answers_only_its_own_request() {
        // B's entry under A's key, as if the two bodies collided.
        let server = test_server(0.0, 64);
        let (a, b) = (select_req(40.0), select_req(60.0));
        let parsed_b = api::decode_request(&b).expect("decode");
        let reply_b = api::encode_reply(&server.engine().query(&parsed_b));
        let parsed_a = api::decode_request(&a).expect("decode");
        let key_a = api::request_cache_key(&parsed_a, server.filter_key).expect("cacheable");
        let epoch = server.engine().data_epoch();
        server
            .cache()
            .insert(key_a, Arc::new((b, reply_b.clone())), epoch);

        let want_a = api::encode_reply(&server.engine().query(&parsed_a));
        assert_ne!(want_a, reply_b, "the two requests answer differently");
        let got = server.handle(&post("/v1/select", a.clone())).body;
        assert_eq!(got, want_a, "A was answered with B's reply");
        // The probe found B's entry and refused it: a miss, not a hit.
        let stats = server.cache().stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        // A's own reply replaced B's entry, and answers A from now on.
        assert_eq!(server.handle(&post("/v1/select", a)).body, want_a);
        assert_eq!(server.cache().len(), 1);
        assert_eq!(server.cache().stats().hits, 1);
    }

    #[test]
    fn a_request_over_the_entry_bound_is_answered_and_not_cached() {
        let server = test_server(0.0, 64);
        // 65 536 copies of one point: a 1 MiB body and a 1 MiB vertex stream.
        let request = QueryRequest::Select {
            polygon: Polygon::new(vec![Point::new(41.5, 37.25); 1 << 16]),
            spec: AggSpec::new(vec![gb_data::AggRequest::new(gb_data::AggFunc::Count, 0)]),
        };
        let body = api::encode_request(&request);
        assert!(body.len() > 1 << 20, "{} B", body.len());
        for round in 1..=2 {
            let got = server.handle(&post("/v1/select", body.clone()));
            assert_eq!(got.status, 200);
            assert_eq!(
                got.body,
                api::encode_reply(&server.engine().query(&request))
            );
            assert_eq!(server.cache().len(), 0, "the reply was cached");
            let memo = server.engine().memo_stats();
            assert_eq!(
                (memo.hits, memo.misses),
                (0, 2 * round),
                "the covering was memoised"
            );
        }
    }

    #[test]
    fn update_invalidates_cached_replies() {
        let server = test_server(0.0, 64);
        let r1 = server.handle(&post("/v1/select", select_req(40.0)));
        // An empty batch commits nothing: same epoch, and the cached reply
        // is still a hit.
        let empty = api::encode_request(&QueryRequest::Update {
            batch: UpdateBatch::new(),
        });
        assert_eq!(server.handle(&post("/v1/update", empty)).status, 200);
        assert_eq!(server.engine().data_epoch(), 0);
        let again = server.handle(&post("/v1/select", select_req(40.0)));
        assert_eq!(again.body, r1.body);
        assert_eq!(server.cache().stats().hits, 1);

        let mut batch = UpdateBatch::new();
        batch.push(Point::new(40.0, 50.0), vec![7.0]);
        let ru = server.handle(&post(
            "/v1/update",
            api::encode_request(&QueryRequest::Update { batch }),
        ));
        assert_eq!(ru.status, 200);
        assert_eq!(server.engine().data_epoch(), 1);
        // The same query now recomputes (epoch mismatch) and differs.
        let r2 = server.handle(&post("/v1/select", select_req(40.0)));
        assert_ne!(r2.body, r1.body, "stale reply served after update");
        let hits_before = server.cache().stats().hits;
        let r3 = server.handle(&post("/v1/select", select_req(40.0)));
        assert_eq!(r3.body, r2.body);
        assert_eq!(server.cache().stats().hits, hits_before + 1);
    }

    #[test]
    fn kind_pinned_endpoints_reject_mismatched_bodies() {
        let server = test_server(0.0, 64);
        let resp = server.handle(&post("/v1/count", select_req(40.0)));
        assert_eq!(resp.status, 400);
        let err = api::decode_reply(&resp.body).expect_err("error reply");
        assert_eq!(err.http_status(), 400);
        // /v1/query accepts any kind.
        let resp = server.handle(&post("/v1/query", select_req(40.0)));
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn unknown_routes_and_methods_map_to_404_405() {
        let server = test_server(0.0, 64);
        assert_eq!(server.handle(&HttpRequest::new("GET", "/nope")).status, 404);
        assert_eq!(
            server.handle(&HttpRequest::new("GET", "/v1/select")).status,
            405
        );
        assert_eq!(
            server.handle(&HttpRequest::new("POST", "/metrics")).status,
            405
        );
        let garbage = server.handle(&post("/v1/query", vec![9, 9, 9]));
        assert_eq!(garbage.status, 400);
    }

    #[test]
    fn quota_rejects_with_retry_after_and_exempts_metrics() {
        let server = test_server(0.001, 64); // burst 3, glacial refill
        for _ in 0..3 {
            assert_eq!(
                server.handle(&post("/v1/select", select_req(40.0))).status,
                200
            );
        }
        let rejected = server.handle(&post("/v1/select", select_req(40.0)));
        assert_eq!(rejected.status, 429);
        assert!(rejected
            .extra_headers
            .iter()
            .any(|(n, _)| n == "retry-after"));
        let err = api::decode_reply(&rejected.body).expect_err("quota error");
        assert_eq!(err.http_status(), 429);
        // Other tenants and observability stay live.
        let other = post("/v1/select", select_req(40.0)).with_header("x-gb-tenant", "vip");
        assert_eq!(server.handle(&other).status, 200);
        assert_eq!(
            server.handle(&HttpRequest::new("GET", "/metrics")).status,
            200
        );
        assert_eq!(server.metrics().quota_rejections(), 1);
    }

    #[test]
    fn metrics_expose_cache_and_epoch_state() {
        let server = test_server(0.0, 64);
        server.handle(&post("/v1/select", select_req(40.0)));
        server.handle(&post("/v1/select", select_req(40.0)));
        let text = exposition(&server);
        assert_eq!(
            metrics::scrape(&text, "gb_result_cache_hits_total"),
            Some(1.0)
        );
        assert_eq!(metrics::scrape(&text, "gb_data_epoch"), Some(0.0));
        assert!(
            metrics::scrape(&text, "gb_requests_total{route=\"/v1/select\"}")
                .is_some_and(|v| v >= 2.0)
        );
    }

    #[test]
    fn running_server_serves_real_sockets() {
        let server = test_server(0.0, 64);
        let running = RunningServer::start(server, "127.0.0.1:0").expect("start");
        let addr = running.addr();
        let health = client::get(addr, "/healthz").expect("healthz");
        assert_eq!(health.status, 200);
        let reply = client::post_query(
            addr,
            "/v1/select",
            None,
            &QueryRequest::Select {
                polygon: diamond(40.0, 50.0, 10.0),
                spec: AggSpec::new(vec![gb_data::AggRequest::new(gb_data::AggFunc::Count, 0)]),
            },
        )
        .expect("select over HTTP");
        assert!(matches!(reply, QueryReply::Select(_)));
        running.stop().expect("stop");
    }

    /// The server's `/metrics` exposition, scraped in-process.
    fn exposition(server: &GbServer) -> String {
        String::from_utf8(server.handle(&HttpRequest::new("GET", "/metrics")).body).expect("utf8")
    }

    /// The wire form of `server`'s keep-alive reply to `req`.
    fn keep_alive_reply(server: &GbServer, req: &HttpRequest) -> Vec<u8> {
        let mut wire = Vec::new();
        server.handle(req).with_close(false).frame_into(&mut wire);
        wire
    }

    /// `gb_worker_waits_total{outcome}` and `gb_worker_poll_ns_total`.
    fn waits(text: &str) -> (Option<f64>, Option<f64>, Option<f64>) {
        let outcome =
            |o: &str| metrics::scrape(text, &format!("gb_worker_waits_total{{outcome=\"{o}\"}}"));
        let poll_ns = metrics::scrape(text, "gb_worker_poll_ns_total");
        (outcome("polled"), outcome("parked"), poll_ns)
    }

    #[test]
    fn stop_does_not_wait_for_idle_connections_or_parked_workers() {
        let prompt = Duration::from_millis(250);
        // Every worker parked in `accept`, on a wildcard bind.
        let running = RunningServer::start(test_server(0.0, 64), "0.0.0.0:0").expect("start");
        let asked = Instant::now();
        running.stop().expect("stop");
        assert!(asked.elapsed() < prompt, "parked: {:?}", asked.elapsed());

        // One worker waiting for a keep-alive connection's next request
        // (idle timeout 5 s), the others in `accept`: stopped while it
        // still polls, right after the reply, and once it has parked in
        // `read`, well past the window.
        for pause in [Duration::ZERO, POLL_WINDOW * 25] {
            let running = RunningServer::start(test_server(0.0, 64), "127.0.0.1:0").expect("start");
            let mut conn = client::Connection::connect(running.addr()).expect("connect");
            assert_eq!(
                conn.request("GET", "/healthz", &[], &[])
                    .expect("healthz")
                    .status,
                200
            );
            std::thread::sleep(pause);
            let server = Arc::clone(running.server());
            let asked = Instant::now();
            running.stop().expect("stop");
            assert!(asked.elapsed() < prompt, "{pause:?}: {:?}", asked.elapsed());
            assert!(conn.request("GET", "/healthz", &[], &[]).is_err());
            let text = exposition(&server);
            let closes = |reason: &str| {
                metrics::scrape(
                    &text,
                    &format!("gb_connection_closes_total{{reason=\"{reason}\"}}"),
                )
            };
            assert_eq!(closes("shutdown"), Some(1.0), "{pause:?}: {text}");
            assert_eq!(closes("idle"), Some(0.0));
            assert_eq!(metrics::scrape(&text, "gb_connections_total"), Some(1.0));
        }
    }

    #[test]
    fn an_idle_connection_closes_after_keep_alive_idle_not_before() {
        let idle = Duration::from_millis(30);
        let running = RunningServer::start(
            test_server_with(ServeConfig {
                keep_alive_idle: idle,
                ..ServeConfig::default()
            }),
            "127.0.0.1:0",
        )
        .expect("start");
        let mut conn = TcpStream::connect(running.addr()).expect("connect");
        let sent = Instant::now();
        conn.write_all(b"GET /healthz HTTP/1.1\r\nconnection: keep-alive\r\n\r\n")
            .expect("request");
        // The reply, then end-of-stream when the server gives up waiting.
        let mut wire = Vec::new();
        conn.read_to_end(&mut wire).expect("reply, then close");
        let closed = sent.elapsed();
        let wire = String::from_utf8(wire).expect("utf8");
        assert!(wire.starts_with("HTTP/1.1 200 OK\r\n"), "{wire}");
        assert!(wire.contains("connection: keep-alive\r\n"), "{wire}");
        assert!(closed >= idle, "closed after {closed:?}");
        let slack = Duration::from_millis(150);
        assert!(
            closed <= idle + POLL_WINDOW + slack,
            "closed after {closed:?}"
        );
        let text = exposition(running.server());
        let idles = "gb_connection_closes_total{reason=\"idle\"}";
        assert_eq!(metrics::scrape(&text, idles), Some(1.0), "{text}");
        running.stop().expect("stop");
    }

    #[test]
    fn a_parked_request_gets_the_reply_a_polled_one_gets() {
        // One worker, so a connection can queue behind another with its
        // request already sent: the worker finds it waiting, awake.
        let config = ServeConfig {
            threads: 1,
            cache_capacity: 0, // both requests reach the engine
            ..ServeConfig::default()
        };
        let running = RunningServer::start(test_server_with(config), "127.0.0.1:0").expect("start");
        let body = select_req(40.0);
        let mut wire = format!(
            "POST /v1/select HTTP/1.1\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(&body);
        let expected = keep_alive_reply(running.server(), &post("/v1/select", body));

        let busy = TcpStream::connect(running.addr()).expect("connect");
        let mut conn = TcpStream::connect(running.addr()).expect("connect");
        conn.write_all(&wire).expect("request");
        drop(busy);
        let mut polled = vec![0u8; expected.len()];
        conn.read_exact(&mut polled).expect("reply");
        // Well past the window: the worker has parked in `read`.
        std::thread::sleep(POLL_WINDOW * 25);
        conn.write_all(&wire).expect("request");
        let mut parked = vec![0u8; expected.len()];
        conn.read_exact(&mut parked).expect("reply");
        assert_eq!(polled, expected);
        assert_eq!(parked, polled, "a parked worker answered differently");

        let (polled, parked, poll_ns) = waits(&exposition(running.server()));
        assert_eq!((polled, parked), (Some(1.0), Some(1.0)));
        let window_ns = POLL_WINDOW.as_nanos() as f64;
        assert!(
            poll_ns.is_some_and(|ns| ns >= window_ns / 2.0),
            "{poll_ns:?}"
        );
        running.stop().expect("stop");
    }

    #[test]
    fn a_write_that_fills_the_send_buffer_blocks_then_polling_resumes() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let metrics = Metrics::default();
        let mut polled =
            PolledStream::new(&stream, Duration::from_secs(5), &metrics).expect("non-blocking");
        // More than loopback's send and receive buffers hold together,
        // while the peer does not read.
        let reply = vec![7u8; 16 << 20];
        let received = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                std::thread::sleep(POLL_WINDOW * 25);
                let mut got = Vec::new();
                (&mut peer)
                    .take(reply.len() as u64)
                    .read_to_end(&mut got)
                    .map(|_| got)
            });
            polled.write_all(&reply).expect("the whole reply");
            reader.join().expect("reader")
        });
        assert!(
            received.expect("read") == reply,
            "the reply arrived altered"
        );
        assert!(polled.blocking, "the send buffer never filled");
        polled.resume().expect("resume");
        assert!(!polled.blocking);
        // Polling again: an empty socket reads as `WouldBlock` inside the
        // window, which the wrapper absorbs, and the peer's bytes arrive.
        peer.write_all(b"next").expect("write");
        let mut next = [0u8; 4];
        polled.read_exact(&mut next).expect("read");
        assert_eq!(&next, b"next");
    }

    #[test]
    fn a_head_trickled_across_the_poll_window_parses() {
        let running = RunningServer::start(test_server(0.0, 64), "127.0.0.1:0").expect("start");
        let expected = keep_alive_reply(running.server(), &HttpRequest::new("GET", "/healthz"));
        let mut reply = vec![0u8; expected.len()];
        let mut conn = TcpStream::connect(running.addr()).expect("connect");
        conn.write_all(b"GET /healthz HTTP/1.1\r\nconnection: keep-")
            .expect("half a head");
        // The worker polls out its window under the half head, then parks.
        std::thread::sleep(POLL_WINDOW * 25);
        conn.write_all(b"alive\r\n\r\n").expect("the rest");
        conn.read_exact(&mut reply).expect("reply");
        assert_eq!(reply, expected);
        let (polled, parked, poll_ns) = waits(&exposition(running.server()));
        assert_eq!((polled, parked), (Some(0.0), Some(1.0)));
        let window_ns = POLL_WINDOW.as_nanos() as f64;
        assert!(
            poll_ns.is_some_and(|ns| ns >= window_ns / 2.0),
            "{poll_ns:?}"
        );
        // Back to polling after the reply: the connection still serves.
        conn.write_all(b"GET /healthz HTTP/1.1\r\nconnection: keep-alive\r\n\r\n")
            .expect("next request");
        conn.read_exact(&mut reply).expect("reply");
        assert_eq!(reply, expected);
        let (polled, parked, _) = waits(&exposition(running.server()));
        assert_eq!(polled.zip(parked).map(|(a, b)| a + b), Some(2.0));
        running.stop().expect("stop");
    }

    #[test]
    fn stop_hangs_up_on_a_half_received_request_and_survives_a_gone_listener() {
        let running = RunningServer::start(test_server(0.0, 64), "127.0.0.1:0").expect("start");
        let mut half = TcpStream::connect(running.addr()).expect("connect");
        half.write_all(b"GET /healthz HTTP/1.1\r\nconnection: keep")
            .expect("half a head");
        std::thread::sleep(Duration::from_millis(50)); // the worker reads it
        let (addr, server) = (running.addr(), Arc::clone(running.server()));
        running.stop().expect("stop");
        // Hung up on, not told its request was malformed.
        let mut answer = Vec::new();
        let _ = std::io::Read::read_to_end(&mut half, &mut answer);
        assert!(answer.is_empty(), "{}", String::from_utf8_lossy(&answer));
        let text = exposition(&server);
        let shutdowns = "gb_connection_closes_total{reason=\"shutdown\"}";
        assert_eq!(metrics::scrape(&text, shutdowns), Some(1.0), "{text}");

        // With the listener gone there is nobody to wake: stop says so at once.
        let asked = Instant::now();
        Shutdown::new(4).stop(addr).expect("nothing left to stop");
        assert!(asked.elapsed() < Duration::from_millis(250));
    }
}
