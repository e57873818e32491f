//! The end-to-end rounds: a fresh engine and server per round, the
//! workload's stream sent through real sockets, and one value per metric
//! per round. The reported value is the midmean over rounds.

use crate::gates;
use crate::load::{self, Run};
use crate::metrics::Table;
use crate::stats::tail_of;
use crate::sut::{self, Dataset, Sut};
use crate::workload::{Kind, Stream, Workload};
use gb_serve::client::Connection;
use std::time::Duration;

/// Rounds per run. Every round sets the system up anew, so `setup_s` is
/// the midmean of this many set-ups, and draws its own stream from the
/// seed, so the midmean is over this many polygon pools too. Short
/// rounds and many of them: the noise of a shared two-core machine comes
/// in bursts of seconds, which dropping the worst rounds drops.
pub const ROUNDS: usize = 8;
/// Offered rates of `rate_steps` in requests per second: about 25, 50 and
/// 75 % of what `mixed_update` sustained in a closed loop when the
/// baseline was recorded, rounded to two digits and frozen.
pub const RATES: [f64; 3] = [2100.0, 4300.0, 6400.0];
/// A rate step passes when its tail latency from the due time stays
/// within this, nothing failed, and the generator's lateness over the
/// last tenth of the step stays within it too (no growing backlog).
pub const LATENCY_LIMIT_US: f64 = 10_000.0;
/// Stream positions an `explore_fresh` round holds per second of run
/// time — far beyond what two clients can send, so it never runs dry.
const FRESH_PER_SECOND: usize = 40_000;

/// How many positions an `explore_fresh` stream needs for `per_round`.
pub fn fresh_positions(per_round: Duration) -> usize {
    (per_round.as_secs_f64() * FRESH_PER_SECOND as f64) as usize + 1024
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Send every distinct cacheable shape once, over one connection that is
/// closed before the clients connect.
fn warm_up(sut: &Sut, stream: &Stream) -> Result<(), String> {
    let mut conn = Connection::connect(sut.running.addr()).map_err(|e| format!("warm-up: {e}"))?;
    for req in stream.warm_set() {
        let resp = conn
            .request("POST", req.kind.path(), &[], &req.body)
            .map_err(|e| format!("warm-up: {e}"))?;
        if resp.status != 200 {
            return Err(format!("warm-up: HTTP {}", resp.status));
        }
    }
    Ok(())
}

/// Set the system up for `workload` (timed; `dash_hot` takes the restart
/// path) and warm the caches.
pub fn fresh_sut(ds: &Dataset, workload: Workload, stream: &Stream) -> Result<Sut, String> {
    let first = stream.get(0).ok_or("empty stream")?;
    let scratch = sut::scratch_file();
    let restart = (workload == Workload::DashHot).then(|| (stream.warm_set(), scratch.as_path()));
    let sut = sut::setup(ds, restart, first)?;
    warm_up(&sut, stream)?;
    Ok(sut)
}

/// What one round measured, before it is folded into the table.
pub struct Round {
    pub sut: Sut,
    /// One run for a closed loop, one per rate for the open loop.
    pub runs: Vec<Run>,
    /// `gb_common::pool` tasks run, and the time they were busy, while
    /// the round's load was on (the counters are process-wide).
    pub pool_tasks: u64,
    pub pool_busy_ns: u64,
}

/// One round: set up, warm, send for `per_round`, check the update gates.
/// Position 0 of the stream was the set-up's first request.
pub fn round(
    ds: &Dataset,
    workload: Workload,
    stream: &Stream,
    per_round: Duration,
) -> Result<Round, String> {
    let sut = fresh_sut(ds, workload, stream)?;
    let addr = sut.running.addr();
    let pool_before = gb_common::pool::stats();
    let runs = if workload.open_loop() {
        let per_step = per_round / RATES.len() as u32;
        let mut from = 1;
        RATES
            .iter()
            .map(|&rate| {
                let run = load::rate_step(addr, stream, from, rate, per_step);
                from += run.samples.len();
                run
            })
            .collect()
    } else {
        vec![load::closed_loop(addr, stream, 1, per_round)]
    };
    if workload.has_updates() {
        gates::after_updates(&sut, &runs)?;
    }
    let pool = gb_common::pool::stats();
    Ok(Round {
        sut,
        runs,
        pool_tasks: pool.tasks_total - pool_before.tasks_total,
        pool_busy_ns: pool.busy_ns_total - pool_before.busy_ns_total,
    })
}

/// Median and tail of `kind`'s latencies into `p50`/`p99`, in µs.
fn latency(table: &mut Table, run: &Run, kind: Option<Kind>, p50: &'static str, p99: &'static str) {
    if let Some(t) = tail_of(&mut run.latencies(kind), 99.0) {
        table.record(p50, us(t.p50));
        table.record(p99, us(t.tail));
        table.note(p99, format!("p{} of n={}", t.tail_p, t.n));
        table.note(p50, format!("n={}", t.n));
    }
}

/// Tail latency from due time, generator lateness, and the verdict of one
/// rate step.
struct Step {
    p99_us: f64,
    lag_p99_us: f64,
    passes: bool,
}

fn step(run: &Run) -> Step {
    let tail = tail_of(&mut run.latencies(None), 99.0);
    let p99_us = tail.map_or(0.0, |t| us(t.tail));
    let mut lags: Vec<u64> = run.samples.iter().map(|s| s.lag_ns).collect();
    let lag_p99_us = tail_of(&mut lags, 99.0).map_or(0.0, |t| us(t.tail));
    let last_due = run.samples.iter().map(|s| s.due_ns).max().unwrap_or(0);
    let late: Vec<u64> = run
        .samples
        .iter()
        .filter(|s| s.due_ns * 10 >= last_due * 9)
        .map(|s| s.lag_ns)
        .collect();
    let late_mean_us = us(late.iter().sum::<u64>() / late.len().max(1) as u64);
    Step {
        p99_us,
        lag_p99_us,
        passes: tail.is_some()
            && run.failed() == 0
            && p99_us <= LATENCY_LIMIT_US
            && late_mean_us <= LATENCY_LIMIT_US,
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Fold one round into the table: what its clients measured, where its
/// set-up spent its time, and the layers' own counters, read from their
/// public getters after the load.
///
/// The closed loops report their one run. `rate_steps` reports its lowest
/// rate under the common names, latency counted from the due time: the
/// one step that is not queueing behind update stalls, so the one whose
/// numbers repeat; each step's tail and the highest passing rate are
/// `e2e.rate_*`. A metric a workload does not have records 0.
pub fn record(table: &mut Table, round: &Round) {
    let sut = &round.sut;
    let block = &sut.block;
    let times = sut.times;
    table.record("setup_s", times.total_s);
    table.record(
        "mem_bytes_per_row",
        block.memory_bytes() as f64 / block.num_rows().max(1) as f64,
    );
    table.record("build.extract_ms", times.extract_ms);
    table.record("build.block_ms", times.block_ms);
    table.record(
        "build.rows_per_s",
        block.num_rows() as f64 / (times.block_ms / 1e3),
    );
    table.record("build.cells", block.num_cells() as f64);
    table.record("build.block_bytes", block.memory_bytes() as f64);
    table.record("build.derived_bytes", block.derived_bytes() as f64);
    table.record("engine.new_ms", times.engine_new_ms);
    table.record("serve.start_ms", times.serve_start_ms);

    if let Some(run) = round.runs.first() {
        let answered = run.samples.len() as u64 - run.failed();
        table.record("e2e.rps", answered as f64 / run.wall_s);
        table.note("e2e.rps", format!("n={answered}"));
        latency(table, run, None, "p50_us", "e2e.p99_us");
        latency(
            table,
            run,
            Some(Kind::Select),
            "e2e.select_p50_us",
            "e2e.select_p99_us",
        );
    }
    let (attempted, _) = totals(round);
    table.record("e2e.requests", attempted as f64);
    table.record(
        "socket.reconnects",
        round.runs.iter().map(|r| r.reconnects).sum::<u64>() as f64,
    );
    let mut updates: Vec<u64> = round
        .runs
        .iter()
        .flat_map(|r| r.latencies(Some(Kind::Update)))
        .collect();
    let update = tail_of(&mut updates, 99.0);
    table.record("e2e.update_p50_us", update.map_or(0.0, |t| us(t.p50)));
    table.note(
        "e2e.update_p50_us",
        format!("n={}", update.map_or(0, |t| t.n)),
    );

    let steps: Vec<Step> = if round.runs.len() == RATES.len() {
        round.runs.iter().map(step).collect()
    } else {
        Vec::new()
    };
    for (i, name) in [
        "e2e.rate_lo_p99_us",
        "e2e.rate_mid_p99_us",
        "e2e.rate_hi_p99_us",
    ]
    .into_iter()
    .enumerate()
    {
        table.record(name, steps.get(i).map_or(0.0, |s| s.p99_us));
    }
    let passing = steps.iter().zip(RATES).filter(|(s, _)| s.passes);
    table.record(
        "e2e.max_rate_ok",
        passing.map(|(_, rate)| rate).fold(0.0, f64::max),
    );
    table.record(
        "gen.lag_p99_us",
        steps.iter().map(|s| s.lag_p99_us).fold(0.0, f64::max),
    );

    let engine = sut.engine();
    let cache = sut.running.server().cache().stats();
    let memo = engine.memo_stats();
    let probes = engine.metrics();
    let trie = engine.trie_snapshot();
    table.record("cache.hit_ratio", cache.hit_rate());
    table.record("cache.evictions", cache.evictions as f64);
    table.record("memo.hit_ratio", ratio(memo.hits, memo.hits + memo.misses));
    table.record("memo.evictions", memo.evictions as f64);
    table.record(
        "trie.direct_hit_ratio",
        ratio(probes.direct_hits, probes.probes),
    );
    table.record(
        "trie.child_hit_ratio",
        ratio(probes.child_hits, probes.probes),
    );
    table.record("trie.cached_nodes", trie.num_cached() as f64);
    table.record("trie.bytes", trie.size_bytes() as f64);
    table.record("trie.rebuilds", engine.cache_epoch() as f64);
    table.record("trie.tracked_cells", engine.tracked_cells() as f64);
    table.record("epochs", engine.data_epoch() as f64);
    table.record("pool.tasks", round.pool_tasks as f64);
    table.record("pool.busy_ms", round.pool_busy_ns as f64 / 1e6);
}

/// Requests a round attempted and how many of them failed.
pub fn totals(round: &Round) -> (u64, u64) {
    round.runs.iter().fold((0, 0), |(attempted, failed), run| {
        (attempted + run.samples.len() as u64, failed + run.failed())
    })
}
