//! The typed query API: the one request/response surface shared by
//! in-process callers ([`crate::GeoBlockEngine::query`]) and the HTTP
//! layer (`gb_serve`).
//!
//! Three pieces live here:
//!
//! * **Values** — [`QueryRequest`] (what a caller asks), [`QueryReply`] /
//!   [`QueryResponse`] (what comes back: result + [`QueryStats`] + the
//!   data epoch it is valid for), and [`GbError`] (the single top-level
//!   error wrapping [`DataError`], [`SnapshotError`] and the serving-side
//!   [`ServeError`], with a *total* [`GbError::http_status`] mapping).
//! * **Wire codec** — [`encode_request`] / [`decode_request`] and
//!   [`encode_reply`] / [`decode_reply`], built on the existing
//!   `gb_store` [`ByteWriter`]/[`ByteReader`] primitives (length-prefixed,
//!   bounds-checked, no external deps). Decoding never panics: malformed
//!   bytes come back as [`ServeError::BadRequest`] / corrupt-reply errors.
//! * **Cache identity** — [`body_cache_key`] / [`request_cache_key`]: the
//!   per-query-shape key (request bytes + filter key) the serving result
//!   cache hashes on. Updates and bodies over [`crate::MAX_ENTRY_BYTES`]
//!   are never cacheable and return `None`.
//!
//! The epoch in a [`QueryResponse`] is the engine's **data epoch**: it
//! advances only when `apply_updates` commits a batch. A result cache entry is
//! valid exactly as long as the engine still reports the entry's epoch.

// Wire bytes come from the network: a malformed message is a typed error.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::aggregate::AggResult;
use crate::query::QueryStats;
use crate::snapshot::SnapshotError;
use crate::update::{UpdateBatch, UpdateReport};
use gb_data::{AggFunc, AggRequest, AggSpec, DataError};
use gb_geom::{Point, Polygon};
use gb_store::{ByteReader, ByteWriter};
use std::fmt;

/// Version byte leading every encoded request/reply. Bumped on breaking
/// wire changes; decoders reject newer versions instead of misreading.
pub const WIRE_VERSION: u8 = 1;

// ---------------------------------------------------------------------------
// Request / response values
// ---------------------------------------------------------------------------

/// One typed query against an engine: the canonical entry point that both
/// the in-process API and the HTTP body format share.
#[derive(Debug, Clone)]
pub enum QueryRequest {
    /// SELECT: aggregate `spec` over `polygon` (Figure 8 adapted path).
    Select { polygon: Polygon, spec: AggSpec },
    /// COUNT: tuple count over `polygon`.
    Count { polygon: Polygon },
    /// Apply a batch of new tuples (§5). Never cached; bumps the epoch.
    Update { batch: UpdateBatch },
    /// Several Select/Count requests executed against **one** pinned
    /// engine state, sharing coverings between same-polygon items (the
    /// dashboard fan-in path — see `GeoBlockEngine::query_batch`).
    /// Update items and nested batches are rejected at decode and
    /// execution time.
    Batch { requests: Vec<QueryRequest> },
}

/// A result plus the execution counters and the **data epoch** the result
/// is valid for. The epoch is what makes transactional cache invalidation
/// possible: a cached response may be replayed only while the engine still
/// reports the same epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse<T> {
    pub result: T,
    pub stats: QueryStats,
    pub epoch: u64,
}

impl<T> QueryResponse<T> {
    /// Bundle a result with its stats and epoch.
    pub fn new(result: T, stats: QueryStats, epoch: u64) -> QueryResponse<T> {
        QueryResponse {
            result,
            stats,
            epoch,
        }
    }
}

/// The reply to a [`QueryRequest`], one variant per request kind.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryReply {
    Select(QueryResponse<AggResult>),
    Count(QueryResponse<u64>),
    Update(QueryResponse<UpdateReport>),
    /// One reply per batch item, in request order; the outer epoch is
    /// the single pinned epoch every item was answered at, the outer
    /// stats are the per-item stats summed.
    Batch(QueryResponse<Vec<QueryReply>>),
}

impl QueryReply {
    /// The data epoch carried by whichever variant this is.
    pub fn epoch(&self) -> u64 {
        match self {
            QueryReply::Select(r) => r.epoch,
            QueryReply::Count(r) => r.epoch,
            QueryReply::Update(r) => r.epoch,
            QueryReply::Batch(r) => r.epoch,
        }
    }

    /// The execution stats carried by whichever variant this is (summed
    /// over items for a batch).
    pub fn stats(&self) -> QueryStats {
        match self {
            QueryReply::Select(r) => r.stats,
            QueryReply::Count(r) => r.stats,
            QueryReply::Update(r) => r.stats,
            QueryReply::Batch(r) => r.stats,
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Serving-side failures (the HTTP layer's native error kind).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request could not be understood (malformed body, invalid
    /// polygon, arity mismatch, …).
    BadRequest(String),
    /// No route matches the request path.
    NotFound(String),
    /// The route exists but not for this HTTP method.
    MethodNotAllowed(String),
    /// The tenant's token bucket is empty (admission control).
    QuotaExceeded { tenant: String, retry_after_ms: u64 },
    /// A server-side invariant failed.
    Internal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::NotFound(path) => write!(f, "no such route: {path}"),
            ServeError::MethodNotAllowed(msg) => write!(f, "method not allowed: {msg}"),
            ServeError::QuotaExceeded {
                tenant,
                retry_after_ms,
            } => write!(
                f,
                "quota exceeded for tenant {tenant:?}; retry in {retry_after_ms} ms"
            ),
            ServeError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The unified top-level error: everything a query can fail with, across
/// the data, persistence, and serving layers. [`GbError::http_status`] is
/// total — every variant maps to exactly one HTTP status code.
#[derive(Debug)]
pub enum GbError {
    /// Invalid schema/filter/column reference (a client mistake).
    Data(DataError),
    /// Snapshot persistence failed (I/O, corruption, version skew).
    Snapshot(SnapshotError),
    /// A serving-layer failure (routing, admission, malformed bodies).
    Serve(ServeError),
    /// An error decoded from a remote server's reply: the status and
    /// code travel with it so clients can re-raise it faithfully.
    Remote {
        status: u16,
        code: String,
        message: String,
    },
}

impl GbError {
    /// A [`ServeError::BadRequest`] (the most common decode-side error).
    pub fn bad_request(msg: impl Into<String>) -> GbError {
        GbError::Serve(ServeError::BadRequest(msg.into()))
    }

    /// The total error → HTTP status mapping.
    pub fn http_status(&self) -> u16 {
        match self {
            GbError::Data(_) => 400,
            GbError::Snapshot(_) => 500,
            GbError::Serve(ServeError::BadRequest(_)) => 400,
            GbError::Serve(ServeError::NotFound(_)) => 404,
            GbError::Serve(ServeError::MethodNotAllowed(_)) => 405,
            GbError::Serve(ServeError::QuotaExceeded { .. }) => 429,
            GbError::Serve(ServeError::Internal(_)) => 500,
            GbError::Remote { status, .. } => *status,
        }
    }

    /// A stable machine-readable code (travels over the wire alongside
    /// the status, so remote errors keep their kind).
    pub fn code(&self) -> &str {
        match self {
            GbError::Data(DataError::UnknownColumn { .. }) => "unknown-column",
            GbError::Data(DataError::DuplicateColumn { .. }) => "duplicate-column",
            GbError::Snapshot(_) => "snapshot",
            GbError::Serve(ServeError::BadRequest(_)) => "bad-request",
            GbError::Serve(ServeError::NotFound(_)) => "not-found",
            GbError::Serve(ServeError::MethodNotAllowed(_)) => "method-not-allowed",
            GbError::Serve(ServeError::QuotaExceeded { .. }) => "quota-exceeded",
            GbError::Serve(ServeError::Internal(_)) => "internal",
            GbError::Remote { code, .. } => code,
        }
    }
}

impl fmt::Display for GbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GbError::Data(e) => write!(f, "{e}"),
            GbError::Snapshot(e) => write!(f, "snapshot: {e}"),
            GbError::Serve(e) => write!(f, "{e}"),
            GbError::Remote {
                status,
                code,
                message,
            } => write!(f, "remote error {status} ({code}): {message}"),
        }
    }
}

impl std::error::Error for GbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GbError::Data(e) => Some(e),
            GbError::Snapshot(e) => Some(e),
            GbError::Serve(e) => Some(e),
            GbError::Remote { .. } => None,
        }
    }
}

impl From<DataError> for GbError {
    fn from(e: DataError) -> GbError {
        GbError::Data(e)
    }
}

impl From<SnapshotError> for GbError {
    fn from(e: SnapshotError) -> GbError {
        GbError::Snapshot(e)
    }
}

impl From<ServeError> for GbError {
    fn from(e: ServeError) -> GbError {
        GbError::Serve(e)
    }
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

const KIND_SELECT: u8 = 1;
const KIND_COUNT: u8 = 2;
const KIND_UPDATE: u8 = 3;
const KIND_BATCH: u8 = 4;
/// Reply tag for the error variant (reply tags reuse the request kinds).
const KIND_ERROR: u8 = 0;

/// Decoder-side bound on batch items — far above any dashboard fan-in.
const MAX_BATCH_ITEMS: usize = 4096;

fn func_code(f: AggFunc) -> u8 {
    match f {
        AggFunc::Count => 0,
        AggFunc::Sum => 1,
        AggFunc::Min => 2,
        AggFunc::Max => 3,
        AggFunc::Avg => 4,
    }
}

fn func_from_code(c: u8) -> Option<AggFunc> {
    match c {
        0 => Some(AggFunc::Count),
        1 => Some(AggFunc::Sum),
        2 => Some(AggFunc::Min),
        3 => Some(AggFunc::Max),
        4 => Some(AggFunc::Avg),
        _ => None,
    }
}

fn write_ring(w: &mut ByteWriter, ring: &[Point]) {
    w.len_u32(ring.len());
    for p in ring {
        w.f64(p.x);
        w.f64(p.y);
    }
}

fn write_polygon(w: &mut ByteWriter, polygon: &Polygon) {
    write_ring(w, polygon.exterior());
    w.len_u32(polygon.holes().len());
    for hole in polygon.holes() {
        write_ring(w, hole);
    }
}

fn write_spec(w: &mut ByteWriter, spec: &AggSpec) {
    w.len_u32(spec.requests.len());
    for req in &spec.requests {
        w.u8(func_code(req.func));
        w.len_u32(req.column);
    }
}

fn write_batch(w: &mut ByteWriter, batch: &UpdateBatch) {
    w.len_u32(batch.rows.len());
    for (loc, values) in &batch.rows {
        w.f64(loc.x);
        w.f64(loc.y);
        w.f64_slice(values);
    }
}

fn write_stats(w: &mut ByteWriter, stats: &QueryStats) {
    w.u64(stats.query_cells as u64);
    w.u64(stats.cells_combined as u64);
    w.u64(stats.searches as u64);
}

/// A count of items whose smallest encoding is `item_bytes`, read off the
/// wire and bounded by what the bytes left can hold: a length-prefix bomb
/// is a polite 400 before anything is reserved for it.
fn read_len(r: &mut ByteReader<'_>, what: &str, item_bytes: usize) -> Result<usize, GbError> {
    let n = map_trunc(r.u32())? as usize;
    let left = r.remaining();
    if n > left / item_bytes {
        return Err(GbError::bad_request(format!(
            "{what} length {n} exceeds what the {left} bytes left can hold"
        )));
    }
    Ok(n)
}

/// Truncated/corrupt reader errors become `BadRequest` (the bytes came
/// from the network, not from a trusted snapshot file).
fn map_trunc<T>(res: Result<T, SnapshotError>) -> Result<T, GbError> {
    res.map_err(|e| GbError::bad_request(format!("malformed message: {e}")))
}

fn read_ring(r: &mut ByteReader<'_>, what: &str) -> Result<Vec<Point>, GbError> {
    let n = read_len(r, what, 16)?; // a vertex: x and y
    if n < 3 {
        return Err(GbError::bad_request(format!(
            "{what} needs at least 3 vertices, got {n}"
        )));
    }
    let mut ring = Vec::with_capacity(n);
    for _ in 0..n {
        let x = map_trunc(r.f64())?;
        let y = map_trunc(r.f64())?;
        if !x.is_finite() || !y.is_finite() {
            return Err(GbError::bad_request(format!(
                "{what} contains a non-finite vertex"
            )));
        }
        ring.push(Point::new(x, y));
    }
    Ok(ring)
}

fn read_polygon(r: &mut ByteReader<'_>) -> Result<Polygon, GbError> {
    let exterior = read_ring(r, "polygon exterior")?;
    let n_holes = read_len(r, "polygon holes", 52)?; // a count and 3 vertices
    let mut holes = Vec::with_capacity(n_holes);
    for _ in 0..n_holes {
        holes.push(read_ring(r, "polygon hole")?);
    }
    // Every ring was validated above (≥ 3 finite vertices), which is
    // exactly the precondition `Polygon::with_holes` asserts.
    Ok(Polygon::with_holes(exterior, holes))
}

fn read_spec(r: &mut ByteReader<'_>) -> Result<AggSpec, GbError> {
    let n = read_len(r, "aggregate spec", 5)?; // a function and a column
    let mut requests = Vec::with_capacity(n);
    for _ in 0..n {
        let code = map_trunc(r.u8())?;
        let func = func_from_code(code)
            .ok_or_else(|| GbError::bad_request(format!("unknown aggregate function {code}")))?;
        let column = map_trunc(r.u32())? as usize;
        requests.push(AggRequest::new(func, column));
    }
    Ok(AggSpec::new(requests))
}

fn read_batch(r: &mut ByteReader<'_>) -> Result<UpdateBatch, GbError> {
    let n = read_len(r, "update batch", 24)?; // x, y and no values
    let mut batch = UpdateBatch::new();
    batch.rows.reserve(n);
    for _ in 0..n {
        let location = Point::new(map_trunc(r.f64())?, map_trunc(r.f64())?);
        let values = map_trunc(r.f64_vec())?;
        check_update_row(location, &values)?;
        batch.push(location, values);
    }
    Ok(batch)
}

/// The finiteness rule for one update row, shared by the wire decoder and
/// `GeoBlock::check_batch` (both update entry points): a NaN or ±inf
/// location or value would permanently poison the cell's sums, every
/// pyramid ancestor and the global header.
pub(crate) fn check_update_row(location: Point, values: &[f64]) -> Result<(), GbError> {
    if !location.x.is_finite() || !location.y.is_finite() {
        return Err(GbError::bad_request("update row location must be finite"));
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(GbError::bad_request("update row values must be finite"));
    }
    Ok(())
}

fn read_stats(r: &mut ByteReader<'_>) -> Result<QueryStats, GbError> {
    let query_cells = map_trunc(r.u64())? as usize;
    let cells_combined = map_trunc(r.u64())? as usize;
    let searches = map_trunc(r.u64())? as usize;
    Ok(QueryStats {
        query_cells,
        cells_combined,
        searches,
    })
}

fn check_version(r: &mut ByteReader<'_>) -> Result<(), GbError> {
    let v = map_trunc(r.u8())?;
    if v != WIRE_VERSION {
        return Err(GbError::bad_request(format!(
            "unsupported wire version {v} (this build speaks {WIRE_VERSION})"
        )));
    }
    Ok(())
}

/// Write one request's kind byte + body (recursing for batches).
fn write_request_body(w: &mut ByteWriter, req: &QueryRequest) {
    match req {
        QueryRequest::Select { polygon, spec } => {
            w.u8(KIND_SELECT);
            write_polygon(w, polygon);
            write_spec(w, spec);
        }
        QueryRequest::Count { polygon } => {
            w.u8(KIND_COUNT);
            write_polygon(w, polygon);
        }
        QueryRequest::Update { batch } => {
            w.u8(KIND_UPDATE);
            write_batch(w, batch);
        }
        QueryRequest::Batch { requests } => {
            w.u8(KIND_BATCH);
            w.len_u32(requests.len());
            for r in requests {
                write_request_body(w, r);
            }
        }
    }
}

/// Encode a request for the wire (HTTP body of `POST /v1/query` and the
/// kind-specific endpoints).
pub fn encode_request(req: &QueryRequest) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(WIRE_VERSION);
    write_request_body(&mut w, req);
    w.into_inner()
}

/// Read one request given its already-consumed kind byte. `top_level`
/// gates what a batch may contain: no updates (a batch answers from one
/// pinned read-only state) and no nesting.
fn read_request_kind(
    r: &mut ByteReader<'_>,
    kind: u8,
    top_level: bool,
) -> Result<QueryRequest, GbError> {
    match kind {
        KIND_SELECT => {
            let polygon = read_polygon(r)?;
            let spec = read_spec(r)?;
            Ok(QueryRequest::Select { polygon, spec })
        }
        KIND_COUNT => {
            let polygon = read_polygon(r)?;
            Ok(QueryRequest::Count { polygon })
        }
        KIND_UPDATE if top_level => {
            let batch = read_batch(r)?;
            Ok(QueryRequest::Update { batch })
        }
        KIND_UPDATE => Err(GbError::bad_request(
            "update requests are not allowed inside a batch".to_string(),
        )),
        KIND_BATCH if top_level => {
            let n = read_len(r, "query batch", 57)?; // a kind and a triangle's COUNT
            if n > MAX_BATCH_ITEMS {
                return Err(GbError::bad_request(format!(
                    "batch has {n} items, limit is {MAX_BATCH_ITEMS}"
                )));
            }
            let mut requests = Vec::with_capacity(n);
            for _ in 0..n {
                let k = map_trunc(r.u8())?;
                requests.push(read_request_kind(r, k, false)?);
            }
            Ok(QueryRequest::Batch { requests })
        }
        KIND_BATCH => Err(GbError::bad_request("batches do not nest".to_string())),
        other => Err(GbError::bad_request(format!(
            "unknown request kind {other}"
        ))),
    }
}

/// Decode a request; every malformed input comes back as a
/// [`ServeError::BadRequest`] (never a panic — this parses network bytes).
pub fn decode_request(bytes: &[u8]) -> Result<QueryRequest, GbError> {
    let mut r = ByteReader::new(bytes, "api request");
    check_version(&mut r)?;
    let kind = map_trunc(r.u8())?;
    let req = read_request_kind(&mut r, kind, true)?;
    map_trunc(r.finish())?;
    Ok(req)
}

/// Write one successful reply's kind byte + body (recursing for batches).
fn write_reply_body(w: &mut ByteWriter, reply: &QueryReply) {
    match reply {
        QueryReply::Select(r) => {
            w.u8(KIND_SELECT);
            w.u64(r.epoch);
            write_stats(w, &r.stats);
            w.u64(r.result.count);
            w.u8(u8::from(r.result.is_finalized()));
            w.f64_slice(r.result.values());
        }
        QueryReply::Count(r) => {
            w.u8(KIND_COUNT);
            w.u64(r.epoch);
            write_stats(w, &r.stats);
            w.u64(r.result);
        }
        QueryReply::Update(r) => {
            w.u8(KIND_UPDATE);
            w.u64(r.epoch);
            write_stats(w, &r.stats);
            w.u64(r.result.in_place as u64);
            w.u64(r.result.new_cells as u64);
        }
        QueryReply::Batch(r) => {
            w.u8(KIND_BATCH);
            w.u64(r.epoch);
            write_stats(w, &r.stats);
            w.len_u32(r.result.len());
            for item in &r.result {
                write_reply_body(w, item);
            }
        }
    }
}

/// Encode a reply (success or error) for the wire. The error arm carries
/// status + code + message so the client can re-raise it faithfully.
pub fn encode_reply(reply: &Result<QueryReply, GbError>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(WIRE_VERSION);
    match reply {
        Err(e) => {
            w.u8(KIND_ERROR);
            w.u16(e.http_status());
            w.str(e.code());
            w.str(&e.to_string());
        }
        Ok(reply) => write_reply_body(&mut w, reply),
    }
    w.into_inner()
}

/// Read one successful reply given its already-consumed kind byte.
fn read_reply_kind(
    r: &mut ByteReader<'_>,
    kind: u8,
    top_level: bool,
) -> Result<QueryReply, GbError> {
    match kind {
        KIND_SELECT => {
            let epoch = map_trunc(r.u64())?;
            let stats = read_stats(r)?;
            let count = map_trunc(r.u64())?;
            let finalized = map_trunc(r.u8())? != 0;
            let values = map_trunc(r.f64_vec())?;
            Ok(QueryReply::Select(QueryResponse::new(
                AggResult::from_wire(count, values, finalized),
                stats,
                epoch,
            )))
        }
        KIND_COUNT => {
            let epoch = map_trunc(r.u64())?;
            let stats = read_stats(r)?;
            let count = map_trunc(r.u64())?;
            Ok(QueryReply::Count(QueryResponse::new(count, stats, epoch)))
        }
        KIND_UPDATE => {
            let epoch = map_trunc(r.u64())?;
            let stats = read_stats(r)?;
            let in_place = map_trunc(r.u64())? as usize;
            let new_cells = map_trunc(r.u64())? as usize;
            Ok(QueryReply::Update(QueryResponse::new(
                UpdateReport {
                    in_place,
                    new_cells,
                },
                stats,
                epoch,
            )))
        }
        KIND_BATCH if top_level => {
            let epoch = map_trunc(r.u64())?;
            let stats = read_stats(r)?;
            let n = read_len(r, "batch reply", 41)?; // a COUNT reply
            if n > MAX_BATCH_ITEMS {
                return Err(GbError::bad_request(format!(
                    "batch reply has {n} items, limit is {MAX_BATCH_ITEMS}"
                )));
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                let k = map_trunc(r.u8())?;
                // Batches fail whole (one error reply for the request),
                // so a success frame never embeds per-item errors.
                items.push(read_reply_kind(r, k, false)?);
            }
            Ok(QueryReply::Batch(QueryResponse::new(items, stats, epoch)))
        }
        KIND_BATCH => Err(GbError::bad_request(
            "batch replies do not nest".to_string(),
        )),
        other => Err(GbError::bad_request(format!("unknown reply kind {other}"))),
    }
}

/// Decode a reply. A wire-encoded error decodes to [`GbError::Remote`]
/// (same status and code the server computed); malformed reply bytes are
/// a [`ServeError::BadRequest`]-wrapped decode error.
pub fn decode_reply(bytes: &[u8]) -> Result<QueryReply, GbError> {
    let mut r = ByteReader::new(bytes, "api reply");
    check_version(&mut r)?;
    let kind = map_trunc(r.u8())?;
    if kind == KIND_ERROR {
        let status = map_trunc(r.u16())?;
        let code = map_trunc(r.str())?;
        let message = map_trunc(r.str())?;
        map_trunc(r.finish())?;
        return Err(GbError::Remote {
            status,
            code,
            message,
        });
    }
    let reply = read_reply_kind(&mut r, kind, true)?;
    map_trunc(r.finish())?;
    Ok(reply)
}

/// The result-cache key for a typed request:
/// [`body_cache_key`] over its encoding.
pub fn request_cache_key(req: &QueryRequest, filter_key: u64) -> Option<u64> {
    body_cache_key(req, &encode_request(req), filter_key)
}

/// The result-cache key for `req` as it arrived: `body`, the wire bytes
/// it decoded from, hashed with FNV-1a-64 (polygon + spec, bit-exact) and
/// mixed with the serving `filter_key` (so one cache can front blocks
/// built under different filters without cross-talk). Updates are never
/// cacheable → `None`, and a batch is cacheable iff every item is
/// read-only (its reply carries one epoch, so the usual epoch validation
/// applies). A body over [`crate::MAX_ENTRY_BYTES`] is not cacheable
/// either: an entry holds its body. The hash is not collision-resistant:
/// a cache that serves by it must hold the body beside the reply and
/// compare it.
pub fn body_cache_key(req: &QueryRequest, body: &[u8], filter_key: u64) -> Option<u64> {
    let read_only =
        |r: &QueryRequest| matches!(r, QueryRequest::Select { .. } | QueryRequest::Count { .. });
    let cacheable = body.len() <= crate::MAX_ENTRY_BYTES
        && match req {
            QueryRequest::Batch { requests } => requests.iter().all(read_only),
            _ => read_only(req),
        };
    cacheable.then(|| gb_store::fnv1a64(body) ^ filter_key.rotate_left(17))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_geom::Rect;

    fn poly() -> Polygon {
        let outer = Rect::from_bounds(0.0, 0.0, 4.0, 4.0).corners().to_vec();
        let hole = Rect::from_bounds(1.0, 1.0, 2.0, 2.0).corners().to_vec();
        Polygon::with_holes(outer, vec![hole])
    }

    fn spec() -> AggSpec {
        AggSpec::new(vec![
            AggRequest::new(AggFunc::Count, 0),
            AggRequest::new(AggFunc::Sum, 1),
            AggRequest::new(AggFunc::Min, 0),
            AggRequest::new(AggFunc::Max, 1),
            AggRequest::new(AggFunc::Avg, 0),
        ])
    }

    #[test]
    fn request_roundtrip_select() {
        let req = QueryRequest::Select {
            polygon: poly(),
            spec: spec(),
        };
        let bytes = encode_request(&req);
        match decode_request(&bytes).unwrap() {
            QueryRequest::Select { polygon, spec: s } => {
                assert_eq!(polygon.exterior(), poly().exterior());
                assert_eq!(polygon.holes(), poly().holes());
                assert_eq!(s, spec());
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn request_roundtrip_count_and_update() {
        let bytes = encode_request(&QueryRequest::Count { polygon: poly() });
        assert!(matches!(
            decode_request(&bytes).unwrap(),
            QueryRequest::Count { .. }
        ));

        let mut batch = UpdateBatch::new();
        batch.push(Point::new(1.5, -2.5), vec![3.0, 4.0]);
        batch.push(Point::new(0.0, 0.25), vec![-1.0, 0.5]);
        let bytes = encode_request(&QueryRequest::Update {
            batch: batch.clone(),
        });
        match decode_request(&bytes).unwrap() {
            QueryRequest::Update { batch: b } => assert_eq!(b.rows, batch.rows),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn the_servers_body_key_equals_request_cache_key() {
        let mut batch = UpdateBatch::new();
        batch.push(Point::new(1.5, -2.5), vec![3.0, -0.0]);
        let select = QueryRequest::Select {
            polygon: poly(),
            spec: spec(),
        };
        let count = QueryRequest::Count { polygon: poly() };
        let update = QueryRequest::Update { batch };
        let filter = 0x0123_4567_89ab_cdef;
        // The server keys the bytes as they arrived; a typed caller keys
        // the encoding. Every body that decodes re-encodes to itself, so
        // the two agree: the hash mixed with the filter key for every
        // read-only request, none for an update.
        for req in [
            select.clone(),
            count.clone(),
            update,
            QueryRequest::Batch {
                requests: vec![count, select],
            },
            QueryRequest::Batch { requests: vec![] },
        ] {
            let body = encode_request(&req);
            let parsed = decode_request(&body).unwrap();
            let key = body_cache_key(&parsed, &body, filter);
            assert_eq!(key, request_cache_key(&parsed, filter), "{req:?}");
            assert_eq!(key, request_cache_key(&req, filter), "{req:?}");
            let read_only = !matches!(req, QueryRequest::Update { .. });
            let want = gb_store::fnv1a64(&body) ^ filter.rotate_left(17);
            assert_eq!(key, read_only.then_some(want), "{req:?}");
        }
    }

    #[test]
    fn reply_roundtrip_is_bit_identical() {
        let s = spec();
        let plan = crate::AggPlan::compile(&s);
        let mut acc = AggResult::new(&s);
        acc.combine_tuple_plan(&plan, |c| if c == 0 { 0.1 + 0.2 } else { -7.25 });
        acc.combine_tuple_plan(&plan, |c| (c as f64) * 1e-17 + 3.0);
        let result = acc.finalize(&s);
        let stats = QueryStats {
            query_cells: 3,
            cells_combined: 11,
            searches: 5,
        };
        let reply = QueryReply::Select(QueryResponse::new(result.clone(), stats, 42));
        let bytes = encode_reply(&Ok(reply));
        match decode_reply(&bytes).unwrap() {
            QueryReply::Select(r) => {
                assert_eq!(r.epoch, 42);
                assert_eq!(r.stats, stats);
                assert_eq!(r.result.count, result.count);
                // Bit-identical values, not approximately equal.
                let got: Vec<u64> = r.result.values().iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = result.values().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want);
            }
            other => panic!("wrong reply: {other:?}"),
        }
    }

    #[test]
    fn reply_roundtrip_count_update() {
        let stats = QueryStats::default();
        let bytes = encode_reply(&Ok(QueryReply::Count(QueryResponse::new(99, stats, 7))));
        match decode_reply(&bytes).unwrap() {
            QueryReply::Count(r) => {
                assert_eq!(r.result, 99);
                assert_eq!(r.epoch, 7);
            }
            other => panic!("wrong reply: {other:?}"),
        }

        let report = UpdateReport {
            in_place: 4,
            new_cells: 2,
        };
        let bytes = encode_reply(&Ok(QueryReply::Update(QueryResponse::new(
            report, stats, 8,
        ))));
        match decode_reply(&bytes).unwrap() {
            QueryReply::Update(r) => assert_eq!(r.result, report),
            other => panic!("wrong reply: {other:?}"),
        }
    }

    #[test]
    fn error_replies_travel_with_status_and_code() {
        let err = GbError::Serve(ServeError::QuotaExceeded {
            tenant: "acme".into(),
            retry_after_ms: 125,
        });
        let bytes = encode_reply(&Err(err));
        match decode_reply(&bytes).unwrap_err() {
            GbError::Remote {
                status,
                code,
                message,
            } => {
                assert_eq!(status, 429);
                assert_eq!(code, "quota-exceeded");
                assert!(message.contains("acme"));
            }
            other => panic!("wrong error: {other:?}"),
        }
        // A re-encoded remote error keeps its identity.
        let remote = GbError::Remote {
            status: 429,
            code: "quota-exceeded".into(),
            message: "m".into(),
        };
        assert_eq!(remote.http_status(), 429);
        assert_eq!(remote.code(), "quota-exceeded");
    }

    #[test]
    fn http_status_mapping_is_total_and_stable() {
        let cases: Vec<(GbError, u16)> = vec![
            (
                GbError::Data(DataError::UnknownColumn { column: "x".into() }),
                400,
            ),
            (
                GbError::Data(DataError::DuplicateColumn { column: "x".into() }),
                400,
            ),
            (GbError::Snapshot(SnapshotError::corrupt("t")), 500),
            (GbError::bad_request("nope"), 400),
            (GbError::Serve(ServeError::NotFound("/x".into())), 404),
            (
                GbError::Serve(ServeError::MethodNotAllowed("GET /v1/select".into())),
                405,
            ),
            (
                GbError::Serve(ServeError::QuotaExceeded {
                    tenant: "t".into(),
                    retry_after_ms: 1,
                }),
                429,
            ),
            (GbError::Serve(ServeError::Internal("x".into())), 500),
            (
                GbError::Remote {
                    status: 418,
                    code: "teapot".into(),
                    message: "m".into(),
                },
                418,
            ),
        ];
        for (err, want) in cases {
            assert_eq!(err.http_status(), want, "{err}");
        }
    }

    #[test]
    fn malformed_bytes_are_bad_requests_not_panics() {
        let good = encode_request(&QueryRequest::Count { polygon: poly() });
        // Every truncation of a valid message fails cleanly.
        for cut in 0..good.len() {
            let err = decode_request(&good[..cut]).unwrap_err();
            assert_eq!(err.http_status(), 400, "cut at {cut}");
        }
        // Trailing garbage is rejected (drift check).
        let mut padded = good.clone();
        padded.push(0xAB);
        assert!(decode_request(&padded).is_err());
        // Unknown version / kind.
        assert!(decode_request(&[9, KIND_COUNT]).is_err());
        assert!(decode_request(&[WIRE_VERSION, 77]).is_err());
        // Degenerate polygon (2 vertices) is rejected before construction.
        let mut w = ByteWriter::new();
        w.u8(WIRE_VERSION);
        w.u8(KIND_COUNT);
        w.len_u32(2);
        for v in [0.0f64, 0.0, 1.0, 1.0] {
            w.f64(v);
        }
        w.len_u32(0);
        assert_eq!(
            decode_request(&w.into_inner()).unwrap_err().http_status(),
            400
        );
        // Non-finite vertex is rejected too.
        let mut w = ByteWriter::new();
        w.u8(WIRE_VERSION);
        w.u8(KIND_COUNT);
        w.len_u32(3);
        for v in [0.0f64, 0.0, 1.0, 0.0, f64::NAN, 1.0] {
            w.f64(v);
        }
        w.len_u32(0);
        assert_eq!(
            decode_request(&w.into_inner()).unwrap_err().http_status(),
            400
        );
    }

    #[test]
    fn cache_keys_distinguish_shape_and_filter() {
        let select = QueryRequest::Select {
            polygon: poly(),
            spec: spec(),
        };
        let count = QueryRequest::Count { polygon: poly() };
        let update = QueryRequest::Update {
            batch: UpdateBatch::new(),
        };
        let k_sel = request_cache_key(&select, 0).unwrap();
        let k_cnt = request_cache_key(&count, 0).unwrap();
        assert_ne!(k_sel, k_cnt, "kind is part of the key");
        assert_eq!(k_sel, request_cache_key(&select, 0).unwrap(), "stable");
        assert_ne!(
            k_sel,
            request_cache_key(&select, 1).unwrap(),
            "filter key separates caches"
        );
        assert!(request_cache_key(&update, 0).is_none(), "updates uncached");
        // A different spec changes the key.
        let select2 = QueryRequest::Select {
            polygon: poly(),
            spec: AggSpec::count_only(),
        };
        assert_ne!(k_sel, request_cache_key(&select2, 0).unwrap());
    }
}
