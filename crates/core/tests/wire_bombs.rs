//! Length-prefix bombs against the wire decoder: a few bytes that claim
//! 2^24 vertices, holes, aggregate requests or update rows, or a full
//! batch of items. Each must decode to a `BadRequest` without reserving
//! room for what it claims — a count is bounded by what the bytes after it
//! can hold before anything is allocated for it, so an allocation the host
//! cannot serve never aborts the server.
//!
//! This file is a test binary of its own because it installs a global
//! allocator (the only way to *observe* an allocation), and holds one
//! test so nothing else allocates while it watches.

use gb_geom::{Point, Polygon};
use geoblocks::api::{decode_reply, decode_request, encode_reply, encode_request};
use geoblocks::{
    GbError, QueryReply, QueryRequest, QueryResponse, QueryStats, ServeError, UpdateBatch,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, remembering the largest single request.
struct Watching;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an atomic `fetch_max` on a
// plain counter, which neither allocates nor unwinds. `realloc` and
// `alloc_zeroed` keep their default implementations, which go through
// `alloc` and so are counted too.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// The largest single allocation a bomb's decode may make.
const MAX_ALLOCATION: usize = 64 << 10;
/// What the item bombs claim: far more than their bytes can hold.
const CLAIMED: u32 = 1 << 24;
/// What the batch bombs claim: the decoder's own cap on batch items.
const CLAIMED_ITEMS: u32 = 4096;

/// One decoder, its result dropped.
type Decode = fn(&[u8]) -> Result<(), GbError>;

/// `bytes` with its last four bytes, a count, replaced by `n`.
fn claiming(bytes: &[u8], n: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = out.len() - 4;
    out[at..].copy_from_slice(&n.to_le_bytes());
    out
}

#[test]
fn length_prefix_bombs_are_bad_requests_that_reserve_nothing() {
    let triangle = Polygon::new(vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(0.0, 1.0),
    ]);
    // Version, kind, the exterior's vertex count, its vertices, the hole
    // count: the last four bytes are the hole count.
    let count = encode_request(&QueryRequest::Count {
        polygon: triangle.clone(),
    });
    let select = encode_request(&QueryRequest::Select {
        polygon: triangle,
        spec: gb_data::AggSpec::new(Vec::new()),
    });
    let update = encode_request(&QueryRequest::Update {
        batch: UpdateBatch::new(),
    });
    let batch = encode_request(&QueryRequest::Batch {
        requests: Vec::new(),
    });
    let reply = encode_reply(&Ok(QueryReply::Batch(QueryResponse::new(
        Vec::new(),
        QueryStats::default(),
        0,
    ))));
    let request: Decode = |body| decode_request(body).map(drop);
    let bombs: [(&str, Vec<u8>, Decode); 6] = [
        ("update rows", claiming(&update, CLAIMED), request),
        ("ring vertices", claiming(&count[..6], CLAIMED), request),
        ("holes", claiming(&count, CLAIMED), request),
        ("aggregate requests", claiming(&select, CLAIMED), request),
        ("batch items", claiming(&batch, CLAIMED_ITEMS), request),
        (
            "batch reply items",
            claiming(&reply, CLAIMED_ITEMS),
            |body| decode_reply(body).map(drop),
        ),
    ];
    for (what, body, decode) in &bombs {
        LARGEST.store(0, Ordering::Relaxed);
        let outcome = decode(body);
        let largest = LARGEST.load(Ordering::Relaxed);
        let err = outcome.expect_err(what);
        assert!(
            matches!(err, GbError::Serve(ServeError::BadRequest(_))),
            "{what}: {err}"
        );
        assert!(
            largest <= MAX_ALLOCATION,
            "{what}: a {}-byte body made a {largest}-byte allocation",
            body.len()
        );
    }
}
