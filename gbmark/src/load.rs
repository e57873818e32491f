//! Load generation over real sockets: two client threads, two keep-alive
//! connections, one process. Closed loop (the next request waits for the
//! reply) and open loop (requests are due on a fixed schedule and latency
//! counts from the due time, so a stall shows up on every request queued
//! behind it instead of silently lowering the offered load).

use crate::sut::THREADS;
use crate::workload::{Kind, Req, Stream};
use gb_serve::client::Connection;
use geoblocks::api::{self, QueryReply};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One answered (or failed) request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    /// Closed loop: send → reply. Open loop: due time → reply.
    pub latency_ns: u64,
    /// Open loop: how late the generator sent it (0 in a closed loop).
    pub lag_ns: u64,
    /// Open loop: when it was due, from the start of the step.
    pub due_ns: u64,
    pub ok: bool,
}

/// What one timed run did.
#[derive(Debug, Default)]
pub struct Run {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    pub reconnects: u64,
    /// Updates the server acknowledged with HTTP 200.
    pub acked_updates: u64,
}

impl Run {
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Latencies of the answered requests of `kind` (all kinds for `None`).
    pub fn latencies(&self, kind: Option<Kind>) -> Vec<u64> {
        self.samples
            .iter()
            .filter(|s| s.ok && kind.is_none_or(|k| s.kind == k))
            .map(|s| s.latency_ns)
            .collect()
    }
}

/// Epochs the clients have seen acknowledged, shared by both threads:
/// a read sent after an update was acknowledged at epoch `e` must answer
/// at an epoch `>= e`.
#[derive(Debug, Default)]
struct Epochs {
    acked_epoch: AtomicU64,
    acked_updates: AtomicU64,
}

/// One client thread's connection, reconnecting when the server closes it
/// (its per-connection request cap, or its idle timeout).
struct Client {
    addr: SocketAddr,
    conn: Option<Connection>,
    reconnects: u64,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: Connection::connect(addr).ok(),
            reconnects: 0,
        }
    }

    /// Send `req` and check the reply: HTTP 200, decodable, of the
    /// request's kind, at an epoch not older than the last acknowledged
    /// update. The server only closes between requests, so one resend on
    /// a fresh connection never applies an update twice.
    fn send(&mut self, req: &Req, epochs: &Epochs) -> bool {
        let floor = epochs.acked_epoch.load(Ordering::Acquire);
        let mut resp = self
            .conn
            .as_mut()
            .and_then(|c| c.request("POST", req.kind.path(), &[], &req.body).ok());
        if resp.is_none() {
            self.reconnects += 1;
            self.conn = Connection::connect(self.addr).ok();
            resp = self
                .conn
                .as_mut()
                .and_then(|c| c.request("POST", req.kind.path(), &[], &req.body).ok());
        }
        let Some(resp) = resp.filter(|r| r.status == 200) else {
            return false;
        };
        let Ok(reply) = api::decode_reply(&resp.body) else {
            return false;
        };
        let kind_matches = matches!(
            (&reply, req.kind),
            (QueryReply::Select(_), Kind::Select)
                | (QueryReply::Count(_), Kind::Count)
                | (QueryReply::Batch(_), Kind::Batch)
                | (QueryReply::Update(_), Kind::Update)
        );
        if req.kind == Kind::Update && kind_matches {
            epochs
                .acked_epoch
                .fetch_max(reply.epoch(), Ordering::AcqRel);
            epochs.acked_updates.fetch_add(1, Ordering::AcqRel);
        }
        kind_matches && reply.epoch() >= floor
    }
}

/// Closed loop: both clients pull the next stream position as soon as
/// their previous reply arrived, from position `from`, for `run_for` (or
/// until the stream ends).
pub fn closed_loop(addr: SocketAddr, stream: &Stream, from: usize, run_for: Duration) -> Run {
    let next = AtomicUsize::new(from);
    let epochs = Epochs::default();
    let started = Instant::now();
    let client_loop = || {
        let mut client = Client::new(addr);
        let mut samples = Vec::with_capacity(1 << 16);
        while started.elapsed() < run_for {
            let Some(req) = stream.get(next.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            let sent = Instant::now();
            let ok = client.send(req, &epochs);
            samples.push(Sample {
                kind: req.kind,
                latency_ns: sent.elapsed().as_nanos() as u64,
                lag_ns: 0,
                due_ns: 0,
                ok,
            });
        }
        (samples, client.reconnects)
    };
    let mut run = Run::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS).map(|_| scope.spawn(client_loop)).collect();
        for handle in handles {
            // A panicking client thread is a bug in the benchmark itself.
            let (samples, reconnects) = handle.join().expect("client thread panicked");
            run.samples.extend(samples);
            run.reconnects += reconnects;
        }
    });
    run.wall_s = started.elapsed().as_secs_f64();
    run.acked_updates = epochs.acked_updates.load(Ordering::Acquire);
    run
}

/// When request `i` was due, when a sender picked it up, when it was done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    pub due_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

/// Sleep, then spin, until `due_ns` after `origin`.
fn wait_until(origin: Instant, due_ns: u64) {
    loop {
        let now = origin.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > 200_000 {
            std::thread::sleep(Duration::from_nanos(left - 100_000));
        } else {
            std::thread::yield_now();
        }
    }
}

/// The open-loop scheduler: request `i` of `n` is due `i * interval_ns`
/// after the start. `senders` threads pull the next index from a shared
/// counter, wait for its due time if they are early, and call `send`.
/// A sender that is busy (or stalled) leaves due requests waiting, and
/// that wait is in `start_ns - due_ns`. Returns one [`Timing`] per index
/// and each sender's final state.
pub fn open_loop<S, I, F>(
    n: usize,
    interval_ns: u64,
    senders: usize,
    init: I,
    send: F,
) -> (Vec<Timing>, Vec<S>)
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    let mut all: Vec<(usize, Timing)> = Vec::with_capacity(n);
    let mut states = Vec::with_capacity(senders);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut mine = Vec::with_capacity(n / senders.max(1) + 1);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let due_ns = i as u64 * interval_ns;
                        wait_until(origin, due_ns);
                        let start_ns = origin.elapsed().as_nanos() as u64;
                        let ok = send(&mut state, i);
                        let end_ns = origin.elapsed().as_nanos() as u64;
                        mine.push((
                            i,
                            Timing {
                                due_ns,
                                start_ns,
                                end_ns,
                                ok,
                            },
                        ));
                    }
                    (mine, state)
                })
            })
            .collect();
        for handle in handles {
            let (mine, state) = handle.join().expect("sender thread panicked");
            all.extend(mine);
            states.push(state);
        }
    });
    all.sort_unstable_by_key(|&(i, _)| i);
    (all.into_iter().map(|(_, t)| t).collect(), states)
}

/// One open-loop step over sockets: `rate` requests per second for
/// `run_for`, starting at stream position `from`.
pub fn rate_step(
    addr: SocketAddr,
    stream: &Stream,
    from: usize,
    rate: f64,
    run_for: Duration,
) -> Run {
    let n = (rate * run_for.as_secs_f64()) as usize;
    let interval_ns = (1e9 / rate) as u64;
    let epochs = Epochs::default();
    let (timings, clients) = open_loop(
        n,
        interval_ns,
        THREADS,
        || Client::new(addr),
        |client, i| {
            stream
                .get(from + i)
                .is_some_and(|req| client.send(req, &epochs))
        },
    );
    let samples = timings
        .iter()
        .enumerate()
        .filter_map(|(i, t)| {
            Some(Sample {
                kind: stream.get(from + i)?.kind,
                latency_ns: t.end_ns.saturating_sub(t.due_ns),
                lag_ns: t.start_ns.saturating_sub(t.due_ns),
                due_ns: t.due_ns,
                ok: t.ok,
            })
        })
        .collect();
    Run {
        samples,
        // From the first due time to the last reply.
        wall_s: timings.iter().map(|t| t.end_ns).max().unwrap_or(0) as f64 / 1e9,
        reconnects: clients.iter().map(|c| c.reconnects).sum(),
        acked_updates: epochs.acked_updates.load(Ordering::Acquire),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p99(mut v: Vec<u64>) -> u64 {
        v.sort_unstable();
        crate::stats::percentile(&v, 99.0).unwrap_or(0)
    }

    /// 1 kHz for 120 requests on one sender; request `stall_at` takes 50 ms.
    fn schedule(stall_at: Option<usize>) -> Vec<Timing> {
        open_loop(
            120,
            1_000_000,
            1,
            || (),
            |_, i| {
                if Some(i) == stall_at {
                    std::thread::sleep(Duration::from_millis(50));
                }
                true
            },
        )
        .0
    }

    #[test]
    fn due_times_follow_the_schedule_and_nothing_is_sent_early() {
        let timings = schedule(None);
        assert_eq!(timings.len(), 120);
        for (i, t) in timings.iter().enumerate() {
            assert_eq!(t.due_ns, i as u64 * 1_000_000);
            assert!(t.start_ns >= t.due_ns, "request {i} sent before it was due");
            assert!(t.end_ns >= t.start_ns && t.ok);
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let calm = schedule(None);
        let stalled = schedule(Some(20));
        let from_due = |ts: &[Timing]| ts.iter().map(|t| t.end_ns - t.due_ns).collect::<Vec<_>>();
        let lag = |ts: &[Timing]| ts.iter().map(|t| t.start_ns - t.due_ns).collect::<Vec<_>>();

        // Requests 21..=60 were due while the sender sat in the stall:
        // the one right behind it waits ~49 ms, and the backlog drains
        // only as fast as the sender can go.
        let behind = from_due(&stalled);
        assert!(
            behind[21] >= 45_000_000,
            "queued request shows {} ns",
            behind[21]
        );
        assert!(
            behind[40] >= 25_000_000,
            "queued request shows {} ns",
            behind[40]
        );
        // A closed loop would have seen one slow request; from-due sees
        // dozens, so the tail percentile moves, and so does the lag.
        assert!(p99(behind) >= 45_000_000);
        assert!(p99(from_due(&calm)) < 20_000_000);
        assert!(p99(lag(&stalled)) >= 45_000_000);
        assert!(p99(lag(&stalled)) > 10 * p99(lag(&calm)).max(100_000));
    }
}
