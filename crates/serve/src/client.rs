//! A std-only HTTP client for the GeoBlocks endpoints, blocking I/O.
//! Two modes over one [`Connection`] type: the one-shot helpers
//! ([`request`]/[`get`]/[`post_query`]) open one per request
//! (`Connection: close`), and [`Connection::connect`] keeps one open
//! across many (`Connection: keep-alive`) — the mode the load generator
//! uses, since per-request TCP setup otherwise dominates sub-100µs
//! queries. Used by the load generator, the CI smoke, and the e2e tests —
//! it is not a general HTTP client.

use crate::http::{self, HttpError};
use geoblocks::api::{self, QueryReply, QueryRequest};
use geoblocks::GbError;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response: status code + body bytes.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Issue one request on a connection of its own (`connection: close`).
/// As on a [`Connection`], the reply is framed by its `content-length`
/// (required; any size) under a head of at most [`http::MAX_HEAD_BYTES`]:
/// the call returns once that body is in, not when the server hangs up.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Result<ClientResponse, HttpError> {
    Connection::open(addr, addr.to_string(), "close")?.request(method, path, headers, body)
}

/// `GET path` with no body or extra headers.
pub fn get(addr: SocketAddr, path: &str) -> Result<ClientResponse, HttpError> {
    request(addr, "GET", path, &[], &[])
}

/// POST a typed [`QueryRequest`] to `path` and decode the typed reply.
/// Transport failures surface as `GbError::Serve`; server-side errors
/// come back as the decoded `GbError` (e.g. `Remote { status: 429, .. }`).
pub fn post_query(
    addr: SocketAddr,
    path: &str,
    tenant: Option<&str>,
    req: &QueryRequest,
) -> Result<QueryReply, GbError> {
    let mut conn = Connection::open(addr, addr.to_string(), "close").map_err(transport_error)?;
    conn.post_query(path, tenant, req)
}

/// A transport failure as the typed error the query helpers return.
fn transport_error(e: HttpError) -> GbError {
    GbError::Serve(geoblocks::ServeError::Internal(e.to_string()))
}

/// A persistent connection to a GeoBlocks server: many requests, one TCP
/// stream, one `write` and (for a reply that arrives in one segment) one
/// `read` per request. Every request announces `connection: keep-alive`;
/// if the server closes anyway (idle timeout, request cap), the next call
/// surfaces `HttpError::Io` and the caller reconnects. Generic over the
/// stream so tests can count the reads and writes on an in-memory one.
#[derive(Debug)]
pub struct Connection<S = TcpStream> {
    stream: S,
    /// The `host:` and `connection:` values every request announces.
    host: String,
    mode: &'static str,
    /// Read buffer: responses are parsed out of it in place; between
    /// requests it holds bytes past the last response (normally none).
    carry: Vec<u8>,
    /// Write buffer: each request is framed here and sent whole.
    wire: Vec<u8>,
}

impl Connection {
    /// Open a connection to `addr`.
    pub fn connect(addr: SocketAddr) -> Result<Connection, HttpError> {
        Connection::open(addr, "geoblocks".to_string(), "keep-alive")
    }

    fn open(addr: SocketAddr, host: String, mode: &'static str) -> Result<Connection, HttpError> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
            .map_err(|e| HttpError::Io(format!("connect {addr}: {e}")))?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let _ = stream.set_nodelay(true);
        Ok(Connection {
            stream,
            host,
            mode,
            carry: Vec::new(),
            wire: Vec::new(),
        })
    }
}

impl<S: Read + Write> Connection<S> {
    /// Issue one request — head and body framed into one buffer, sent
    /// with one `write` — and read exactly its response (framed by
    /// `content-length`, so the stream stays aligned for the next one).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<ClientResponse, HttpError> {
        self.wire.clear();
        // `write!` into a `Vec` cannot fail.
        let _ = write!(
            self.wire,
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.host,
            body.len(),
            self.mode
        );
        for (name, value) in headers {
            let _ = write!(self.wire, "{name}: {value}\r\n");
        }
        self.wire.extend_from_slice(b"\r\n");
        self.wire.extend_from_slice(body);
        self.stream.write_all(&self.wire)?;
        self.read_response()
    }

    /// POST a typed [`QueryRequest`] and decode the typed reply (the
    /// keep-alive counterpart of [`post_query`]).
    pub fn post_query(
        &mut self,
        path: &str,
        tenant: Option<&str>,
        req: &QueryRequest,
    ) -> Result<QueryReply, GbError> {
        let body = api::encode_request(req);
        let headers: Vec<(&str, &str)> = match tenant {
            Some(t) => vec![("x-gb-tenant", t)],
            None => Vec::new(),
        };
        let resp = self
            .request("POST", path, &headers, &body)
            .map_err(transport_error)?;
        api::decode_reply(&resp.body)
    }

    /// Read one `content-length`-framed response, leaving any bytes past
    /// it (there should be none — responses are not pipelined) in the
    /// carry buffer.
    fn read_response(&mut self) -> Result<ClientResponse, HttpError> {
        let Some(head_end) = http::read_head(&mut self.stream, &mut self.carry, "response")? else {
            return Err(HttpError::Io(
                "server closed the connection before responding".to_string(),
            ));
        };
        let head = std::str::from_utf8(self.carry.get(..head_end).unwrap_or_default())
            .map_err(|_| HttpError::Malformed("response head is not UTF-8".to_string()))?;
        let status = head
            .split("\r\n")
            .next()
            .and_then(|line| line.split_ascii_whitespace().nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| HttpError::Malformed(format!("bad status line in: {head}")))?;
        let declared = head
            .split("\r\n")
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())?
            })
            .ok_or_else(|| HttpError::Malformed("response without content-length".to_string()))?;
        // No body cap of its own: the client takes what its server declares.
        let (stream, carry) = (&mut self.stream, &mut self.carry);
        let body = http::take_body(stream, carry, head_end, declared, usize::MAX)?;
        Ok(ClientResponse { status, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory stream: hands out canned reply bytes in the given
    /// pieces, one per `read`, and records every `write`.
    #[derive(Debug, Default)]
    struct Duplex {
        replies: std::collections::VecDeque<Vec<u8>>,
        writes: Vec<Vec<u8>>,
    }

    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some(mut piece) = self.replies.pop_front() else {
                return Ok(0);
            };
            let n = piece.len().min(buf.len());
            buf[..n].copy_from_slice(&piece[..n]);
            if n < piece.len() {
                self.replies.push_front(piece.split_off(n));
            }
            Ok(n)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A connection over a [`Duplex`] that will read `pieces`.
    fn over(pieces: &[&[u8]], host: &str, mode: &'static str) -> Connection<Duplex> {
        Connection {
            stream: Duplex {
                replies: pieces.iter().map(|p| p.to_vec()).collect(),
                writes: Vec::new(),
            },
            host: host.to_string(),
            mode,
            carry: Vec::new(),
            wire: Vec::new(),
        }
    }

    const REPLY: &[u8] =
        b"HTTP/1.1 429 Too Many Requests\r\nretry-after: 1\r\ncontent-length: 9\r\n\r\nslow down";

    #[test]
    fn a_request_is_one_write_of_the_same_bytes() {
        // Extra headers and a binary body; no headers and an empty body.
        one_write_each_way(
            "POST",
            &[("x-gb-tenant", "alice"), ("x-extra", "y")],
            &[0, 255, 13, 10],
        );
        one_write_each_way("GET", &[], &[]);
    }

    fn one_write_each_way(method: &str, headers: &[(&str, &str)], body: &[u8]) {
        // The wire form before single-write framing: a `format!`ted head,
        // then the body, as two writes.
        let head_then_body = |host: &str, mode: &str| {
            let mut head = format!(
                "{method} /v1/count HTTP/1.1\r\nhost: {host}\r\ncontent-length: {}\r\nconnection: {mode}\r\n",
                body.len()
            );
            for (name, value) in headers {
                head.push_str(&format!("{name}: {value}\r\n"));
            }
            head.push_str("\r\n");
            [head.as_bytes(), body].concat()
        };
        // Keep-alive twice on one connection, then the one-shot mode.
        for (host, mode, requests) in [
            ("geoblocks", "keep-alive", 2),
            ("127.0.0.1:7171", "close", 1),
        ] {
            let mut conn = over(&[REPLY, REPLY], host, mode);
            for _ in 0..requests {
                let resp = conn
                    .request(method, "/v1/count", headers, body)
                    .expect("reply");
                assert_eq!(
                    (resp.status, resp.body.as_slice()),
                    (429, &b"slow down"[..])
                );
            }
            let want = vec![head_then_body(host, mode); requests];
            assert_eq!(conn.stream.writes, want, "{mode} {method}");
        }
    }

    #[test]
    fn a_response_split_at_any_byte_parses_the_same() {
        for cut in 1..REPLY.len() {
            let mut conn = over(&[&REPLY[..cut], &REPLY[cut..]], "geoblocks", "keep-alive");
            let resp = conn.request("GET", "/healthz", &[], &[]).expect("reply");
            assert_eq!(resp.status, 429, "cut {cut}");
            assert_eq!(resp.body, b"slow down", "cut {cut}");
            assert!(conn.carry.is_empty(), "cut {cut}: nothing past the body");
        }
    }

    #[test]
    fn a_reply_may_be_larger_than_a_request_may() {
        // The body cap is the server's guard against its peers, not the
        // client's against its server.
        let body = vec![7u8; http::MAX_BODY_BYTES + 1];
        let head = format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n", body.len());
        let mut conn = over(&[head.as_bytes(), &body, REPLY], "geoblocks", "keep-alive");
        let big = conn.request("GET", "/metrics", &[], &[]).expect("reply");
        assert_eq!((big.status, big.body.len()), (200, body.len()));
        assert!(big.body == body);
        // The stream is still aligned.
        let next = conn.request("GET", "/healthz", &[], &[]).expect("next");
        assert_eq!(next.status, 429);
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        let garbage: [&[u8]; 5] = [
            b"",
            b"HTTP/1.1\r\ncontent-length: 0\r\n\r\n",
            b"\xff\xfe\r\n\r\nx",
            b"no head end here",
            b"HTTP/1.1 200 OK\r\n\r\nno content-length",
        ];
        for raw in garbage {
            let mut conn = over(&[raw], "geoblocks", "keep-alive");
            assert!(
                conn.request("GET", "/healthz", &[], &[]).is_err(),
                "{raw:?}"
            );
        }
        // A server that hangs up instead of answering is an I/O error: the
        // caller's cue to reconnect.
        assert!(matches!(
            over(&[], "geoblocks", "keep-alive").request("GET", "/healthz", &[], &[]),
            Err(HttpError::Io(_))
        ));
    }

    #[test]
    fn pipelined_requests_are_answered_in_order_over_a_socket() {
        let running =
            crate::RunningServer::start(crate::tests::test_server(0.0, 64), "127.0.0.1:0")
                .expect("start");
        let mut conn = Connection::connect(running.addr()).expect("connect");
        // Two requests in one segment: the server parses the second out of
        // what its first `read` left behind.
        conn.stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\nconnection: keep-alive\r\n\r\n\
                  GET /nope HTTP/1.1\r\nconnection: keep-alive\r\n\r\n",
            )
            .expect("write");
        let first = conn.read_response().expect("first");
        assert_eq!((first.status, first.body.as_slice()), (200, &b"ok\n"[..]));
        let second = conn.read_response().expect("second");
        assert_eq!(second.status, 404);
        assert!(conn.carry.is_empty(), "both replies consumed exactly");
        // The connection is still aligned for ordinary use.
        let third = conn.request("GET", "/healthz", &[], &[]).expect("third");
        assert_eq!(third.status, 200);
        running.stop().expect("stop");
    }
}
