//! A minimal, panic-free HTTP/1.1 subset: exactly what the GeoBlocks
//! endpoints need — request line, headers, `Content-Length` bodies, and
//! HTTP/1.1 persistent connections — with hard size limits so a
//! malformed or hostile peer cannot balloon memory. No chunked encoding,
//! no TLS: the server is an in-cluster serving shim, not an edge proxy.
//!
//! Keep-alive framing: [`HttpRequest::read_from_buffered`] parses out of
//! the connection's one read buffer, so bytes read past one request's
//! declared body start the next request on the same connection, and
//! [`HttpResponse`] says whether the sender intends to keep the
//! connection open (`connection: keep-alive` vs `close`). A message is
//! framed — head, then body — into one buffer and sent with one `write`;
//! one that arrives in one segment is taken with one `read`.

// Request bytes come from the network: every read is bounds-checked.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::io::{ErrorKind, Read, Write};

/// Cap on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on a request body. Update batches are the largest legitimate
/// payload; 16 MiB is ~500k rows of a 3-column schema.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Why a request could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Socket error (peer vanished, reset, ...).
    Io(String),
    /// The socket's read timeout passed with the message incomplete.
    TimedOut,
    /// Malformed request line / headers / framing.
    Malformed(String),
    /// Head or body over the configured cap.
    TooLarge(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(m) => write!(f, "i/o error: {m}"),
            HttpError::TimedOut => write!(f, "i/o error: read timed out"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> HttpError {
        match e.kind() {
            // A blocking socket reports an expired read timeout as either.
            ErrorKind::WouldBlock | ErrorKind::TimedOut => HttpError::TimedOut,
            _ => HttpError::Io(e.to_string()),
        }
    }
}

/// A parsed request: method, path, lower-cased headers, raw body.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    pub method: String,
    pub path: String,
    headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Build a request by hand (tests and the in-process client).
    pub fn new(method: &str, path: &str) -> HttpRequest {
        HttpRequest {
            method: method.to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Attach a header (chainable).
    pub fn with_header(mut self, name: &str, value: &str) -> HttpRequest {
        self.headers
            .push((name.to_ascii_lowercase(), value.trim().to_string()));
        self
    }

    /// Attach a body (chainable).
    pub fn with_body(mut self, body: Vec<u8>) -> HttpRequest {
        self.body = body;
        self
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Read one request from a stream (blocking until the head + declared
    /// body arrived, the peer closed, or a cap tripped).
    pub fn read_from(stream: &mut dyn Read) -> Result<HttpRequest, HttpError> {
        let mut carry = Vec::new();
        match HttpRequest::read_from_buffered(stream, &mut carry)? {
            Some(req) => Ok(req),
            None => Err(HttpError::Malformed(
                "connection closed before the request head completed".to_string(),
            )),
        }
    }

    /// Read one request from a persistent connection. `carry` is the
    /// connection's read buffer: it holds bytes read past the previous
    /// request's body (HTTP/1.1 peers may pipeline or simply land the next
    /// head in the same TCP segment), the request is parsed out of it in
    /// place, and on return it holds any bytes past *this* request's
    /// body. `Ok(None)` means the peer closed cleanly between requests —
    /// the keep-alive loop's normal exit, distinct from a mid-request
    /// disconnect (an error).
    pub fn read_from_buffered(
        stream: &mut dyn Read,
        carry: &mut Vec<u8>,
    ) -> Result<Option<HttpRequest>, HttpError> {
        let Some(head_end) = read_head(stream, carry, "request")? else {
            return Ok(None);
        };
        let head = std::str::from_utf8(carry.get(..head_end).unwrap_or_default())
            .map_err(|_| HttpError::Malformed("request head is not UTF-8".to_string()))?;
        let mut lines = head.split("\r\n");
        let request_line = lines
            .next()
            .ok_or_else(|| HttpError::Malformed("empty request head".to_string()))?;
        let mut parts = request_line.split_ascii_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| HttpError::Malformed("missing method".to_string()))?;
        let path = parts
            .next()
            .ok_or_else(|| HttpError::Malformed("missing request path".to_string()))?;
        let version = parts
            .next()
            .ok_or_else(|| HttpError::Malformed("missing HTTP version".to_string()))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed(format!(
                "unsupported protocol version {version}"
            )));
        }

        let mut req = HttpRequest::new(method, path);
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(HttpError::Malformed(format!(
                    "header without colon: {line}"
                )));
            };
            req = req.with_header(name.trim(), value);
        }

        // Body: exactly Content-Length bytes (0 when absent).
        let declared = match req.header("content-length") {
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad content-length: {v}")))?,
            None => 0,
        };
        req.body = take_body(stream, carry, head_end, declared, MAX_BODY_BYTES)?;
        Ok(Some(req))
    }

    /// Whether the peer asked for the connection to stay open after this
    /// request. Conservative opt-in: only an explicit
    /// `connection: keep-alive` persists — absent or any other token
    /// (notably `close`) means one-shot, which keeps legacy one-request
    /// clients working unchanged.
    pub fn wants_keep_alive(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    }
}

/// Bytes asked of the socket per `read` while a head is incomplete: one
/// `read` takes a typical message whole (head + wire-codec body).
const READ_CHUNK: usize = 4096;

/// Read until `buf` holds a complete head (a request's or a response's:
/// `what` names it in errors) and return the offset of the `\r\n\r\n`
/// ending it; `Ok(None)` if the peer closed with nothing buffered. After a
/// `read` the search resumes three bytes before the new data, so a head
/// trickled in one byte at a time costs O(head), not O(head²).
pub(crate) fn read_head(
    stream: &mut dyn Read,
    buf: &mut Vec<u8>,
    what: &str,
) -> Result<Option<usize>, HttpError> {
    let too_large = || HttpError::TooLarge(format!("{what} head exceeds {MAX_HEAD_BYTES} bytes"));
    // Zeroed once per head, however many `read`s it takes to arrive.
    let mut chunk = [0u8; READ_CHUNK];
    let mut scanned = 0usize;
    loop {
        let from = scanned.saturating_sub(3);
        let found = buf
            .get(from..)
            .and_then(|tail| tail.windows(4).position(|w| w == b"\r\n\r\n"));
        if let Some(pos) = found {
            if from + pos > MAX_HEAD_BYTES {
                return Err(too_large());
            }
            return Ok(Some(from + pos));
        }
        if buf.len() > MAX_HEAD_BYTES + 4 {
            return Err(too_large());
        }
        scanned = buf.len();
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::Malformed(format!(
                "connection closed before the {what} head completed"
            )));
        }
        buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
    }
}

/// Read the `declared` body bytes (at most `limit`) that follow the head
/// ending at `head_end`, then take the whole message off the front of
/// `buf`: what stays belongs to the connection's next message.
pub(crate) fn take_body(
    stream: &mut dyn Read,
    buf: &mut Vec<u8>,
    head_end: usize,
    declared: usize,
    limit: usize,
) -> Result<Vec<u8>, HttpError> {
    if declared > limit {
        return Err(HttpError::TooLarge(format!(
            "declared body of {declared} bytes exceeds {limit}"
        )));
    }
    let (start, end) = (head_end + 4, (head_end + 4).saturating_add(declared));
    let missing = end.saturating_sub(buf.len());
    if missing > 0 {
        // Appended into spare capacity — nothing is zero-filled per `read`,
        // and `buf` grows as bytes arrive, not by what the peer declared.
        let got = (&mut *stream).take(missing as u64).read_to_end(buf)?;
        if got < missing {
            return Err(HttpError::Malformed(format!(
                "connection closed with {} of {declared} body bytes read",
                buf.len().saturating_sub(start)
            )));
        }
    }
    let body = buf.get(start..end).unwrap_or_default().to_vec();
    buf.drain(..end);
    Ok(body)
}

/// A response: status + content type + body. `close` controls the
/// `Connection:` header — `true` (the default) announces a one-shot
/// connection, `false` announces keep-alive.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Extra headers, e.g. `Retry-After` on 429.
    pub extra_headers: Vec<(String, String)>,
    /// Whether the sender will close the connection after this response.
    pub close: bool,
}

impl HttpResponse {
    /// A binary (wire-codec) response.
    pub fn binary(status: u16, body: Vec<u8>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "application/x-geoblocks",
            body,
            extra_headers: Vec::new(),
            close: true,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            extra_headers: Vec::new(),
            close: true,
        }
    }

    /// Attach an extra header (chainable).
    pub fn with_header(mut self, name: &str, value: String) -> HttpResponse {
        self.extra_headers.push((name.to_string(), value));
        self
    }

    /// Announce keep-alive (`close = false`) or close (chainable).
    pub fn with_close(mut self, close: bool) -> HttpResponse {
        self.close = close;
        self
    }

    /// Append the wire form — head, then body — to `out`, so the whole
    /// message leaves in one `write` (one segment, one wake-up of the
    /// peer). A connection passes the same buffer for every reply.
    pub fn frame_into(&self, out: &mut Vec<u8>) {
        // `write!` into a `Vec` cannot fail.
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" }
        );
        for (name, value) in &self.extra_headers {
            let _ = write!(out, "{name}: {value}\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
    }

    /// Serialize to the wire with a single `write`.
    pub fn write_to(&self, stream: &mut dyn Write) -> std::io::Result<()> {
        let mut wire = Vec::with_capacity(self.body.len() + 160);
        self.frame_into(&mut wire);
        stream.write_all(&wire)?;
        stream.flush()
    }
}

/// Reason phrase for the status codes this server emits.
fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(raw: &[u8]) -> Result<HttpRequest, HttpError> {
        let mut cursor = std::io::Cursor::new(raw.to_vec());
        HttpRequest::read_from(&mut cursor)
    }

    /// A reader that hands out its bytes in the given pieces, one per
    /// `read`.
    struct Pieces(std::collections::VecDeque<Vec<u8>>);

    impl Pieces {
        fn of(pieces: &[&[u8]]) -> Pieces {
            Pieces(pieces.iter().map(|p| p.to_vec()).collect())
        }

        fn bytewise(raw: &[u8]) -> Pieces {
            Pieces(raw.iter().map(|b| vec![*b]).collect())
        }
    }

    impl Read for Pieces {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some(mut piece) = self.0.pop_front() else {
                return Ok(0);
            };
            let n = piece.len().min(buf.len());
            buf[..n].copy_from_slice(&piece[..n]);
            if n < piece.len() {
                self.0.push_front(piece.split_off(n));
            }
            Ok(n)
        }
    }

    /// A sink that takes whatever it is given and counts the `write`s.
    #[derive(Default)]
    struct CountingSink {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The wire form before single-write framing: a `format!`ted head,
    /// then the body, as two writes.
    fn head_then_body(resp: &HttpResponse) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            resp.status,
            status_text(resp.status),
            resp.content_type,
            resp.body.len(),
            if resp.close { "close" } else { "keep-alive" }
        );
        for (name, value) in &resp.extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        [head.as_bytes(), &resp.body].concat()
    }

    #[test]
    fn a_reply_is_one_write_of_the_same_bytes() {
        let replies = [
            HttpResponse::binary(200, vec![0, 159, 146, 150, 255]).with_close(false),
            HttpResponse::binary(200, Vec::new()),
            HttpResponse::text(400, "header without colon: x"),
            HttpResponse::text(413, "request head exceeds 16384 bytes"),
            HttpResponse::binary(429, vec![7; 300])
                .with_header("retry-after", "2".to_string())
                .with_header("x-extra", "y".to_string())
                .with_close(false),
        ];
        for resp in &replies {
            let mut sink = CountingSink::default();
            resp.write_to(&mut sink).expect("write");
            assert_eq!(sink.writes, 1, "status {}: one write", resp.status);
            assert_eq!(sink.bytes, head_then_body(resp), "status {}", resp.status);
        }
    }

    #[test]
    fn a_request_split_at_any_byte_parses_the_same() {
        let raw: &[u8] = b"POST /v1/select HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\nX-Gb-Tenant: alice\r\nContent-Length: 5\r\n\r\nhello";
        let whole = format!("{:?}", roundtrip(raw).expect("whole"));
        for cut in 1..raw.len() {
            let mut carry = Vec::new();
            let split = HttpRequest::read_from_buffered(
                &mut Pieces::of(&[&raw[..cut], &raw[cut..]]),
                &mut carry,
            )
            .expect("split")
            .expect("some");
            assert_eq!(format!("{split:?}"), whole, "cut at {cut}");
            assert!(carry.is_empty(), "cut at {cut}: nothing past the body");
        }
    }

    #[test]
    fn a_trickled_head_parses_the_same_and_stays_capped() {
        let raw: &[u8] =
            b"POST /v1/count HTTP/1.1\r\nX-Gb-Tenant: bob\r\nContent-Length: 4\r\n\r\nwxyz";
        let trickled = HttpRequest::read_from(&mut Pieces::bytewise(raw)).expect("trickled");
        assert_eq!(trickled.body, b"wxyz");
        assert_eq!(
            format!("{trickled:?}"),
            format!("{:?}", roundtrip(raw).expect("whole"))
        );
        // A head that never ends is cut off at the cap, terminator or not.
        let endless = format!("GET /x HTTP/1.1\r\npad: {}", "y".repeat(2 * MAX_HEAD_BYTES));
        assert!(matches!(
            HttpRequest::read_from(&mut Pieces::bytewise(endless.as_bytes())),
            Err(HttpError::TooLarge(_))
        ));
        let late = format!("{}\r\n\r\n", &endless[..MAX_HEAD_BYTES + 2]);
        assert!(matches!(
            HttpRequest::read_from(&mut Pieces::bytewise(late.as_bytes())),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn a_body_in_segments_is_appended_not_preallocated() {
        let body: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let head = format!(
            "POST /v1/update HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let raw = [head.as_bytes(), &body].concat();
        // MTU-sized segments.
        let segments: Vec<&[u8]> = raw.chunks(1448).collect();
        let mut carry = Vec::new();
        let req = HttpRequest::read_from_buffered(&mut Pieces::of(&segments), &mut carry)
            .expect("segmented")
            .expect("some");
        assert!(req.body == body);
        assert!(carry.is_empty());
        // A peer that declares the cap and sends nothing pins nothing.
        let head = format!("POST /v1/update HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n");
        let mut carry = Vec::new();
        assert!(matches!(
            HttpRequest::read_from_buffered(&mut Pieces::of(&[head.as_bytes()]), &mut carry),
            Err(HttpError::Malformed(_))
        ));
        assert!(carry.capacity() < 8 * 1024, "{} bytes", carry.capacity());
    }

    #[test]
    fn parses_request_with_body_and_headers() {
        let raw = b"POST /v1/select HTTP/1.1\r\nHost: x\r\nX-Gb-Tenant: alice\r\nContent-Length: 5\r\n\r\nhello";
        let req = roundtrip(raw).expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/select");
        assert_eq!(req.header("x-gb-tenant"), Some("alice"));
        assert_eq!(req.header("X-GB-TENANT"), Some("alice"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn missing_pieces_are_errors_not_panics() {
        assert!(roundtrip(b"").is_err());
        assert!(roundtrip(b"GET\r\n\r\n").is_err());
        assert!(roundtrip(b"GET /x\r\n\r\n").is_err());
        assert!(roundtrip(b"GET /x SPDY/9\r\n\r\n").is_err());
        assert!(roundtrip(b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n").is_err());
        assert!(roundtrip(b"GET /x HTTP/1.1\r\nContent-Length: zzz\r\n\r\n").is_err());
        // Truncated body.
        assert!(roundtrip(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").is_err());
    }

    #[test]
    fn oversized_declarations_are_rejected() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            roundtrip(raw.as_bytes()),
            Err(HttpError::TooLarge(_))
        ));
        let huge_head = format!(
            "GET /x HTTP/1.1\r\npad: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(
            roundtrip(huge_head.as_bytes()),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn response_serializes_with_status_line_and_length() {
        let mut out = Vec::new();
        HttpResponse::text(429, "slow down")
            .with_header("retry-after", "1".to_string())
            .write_to(&mut out)
            .expect("write");
        let s = String::from_utf8(out).expect("utf8");
        assert!(s.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(s.contains("content-length: 9\r\n"));
        assert!(s.contains("retry-after: 1\r\n"));
        assert!(s.ends_with("\r\n\r\nslow down"));
    }

    #[test]
    fn pipelined_requests_carry_over_and_clean_eof_is_none() {
        let raw = b"POST /a HTTP/1.1\r\nConnection: keep-alive\r\nContent-Length: 3\r\n\r\nabcPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nxy".to_vec();
        let mut cursor = std::io::Cursor::new(raw);
        let mut carry = Vec::new();
        let first = HttpRequest::read_from_buffered(&mut cursor, &mut carry)
            .expect("first")
            .expect("some");
        assert_eq!(first.path, "/a");
        assert_eq!(first.body, b"abc");
        assert!(first.wants_keep_alive());
        assert!(!carry.is_empty(), "second request buffered in carry");
        let second = HttpRequest::read_from_buffered(&mut cursor, &mut carry)
            .expect("second")
            .expect("some");
        assert_eq!(second.path, "/b");
        assert_eq!(second.body, b"xy");
        assert!(!second.wants_keep_alive(), "no connection header = close");
        // Clean EOF between requests is the keep-alive loop's normal end.
        assert_eq!(
            HttpRequest::read_from_buffered(&mut cursor, &mut carry)
                .expect("clean eof")
                .map(|r| r.path),
            None
        );
    }

    #[test]
    fn response_announces_keep_alive_when_asked() {
        let mut out = Vec::new();
        HttpResponse::text(200, "ok")
            .with_close(false)
            .write_to(&mut out)
            .expect("write");
        let s = String::from_utf8(out).expect("utf8");
        assert!(s.contains("connection: keep-alive\r\n"));
        let mut out = Vec::new();
        HttpResponse::text(200, "ok")
            .write_to(&mut out)
            .expect("write");
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("connection: close\r\n"));
    }
}
