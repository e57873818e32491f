//! Per-stage tracing for the GeoBlocks serving pipeline: sampled
//! request traces, lock-free per-stage latency histograms, and a
//! slow-query flight recorder.
//!
//! The paper's cost model decomposes a query into distinct stages —
//! covering construction, cached-cell lookup, residual aggregation —
//! and this crate makes that decomposition observable at runtime
//! without giving the hot path a new dependency or a heap allocation:
//!
//! * [`Stage`] is the fixed taxonomy of pipeline stages. There is no
//!   dynamic registration: a stage is a `u8`-sized enum variant, and
//!   every per-stage structure is a fixed array indexed by it.
//! * [`Tracer::begin_request`] opens a request trace on the current
//!   thread (a thread-local slot — no locks, no allocation). A sampling
//!   gate (`GB_TRACE_SAMPLE`, default 1 in 64; `0` disables tracing
//!   entirely) decides whether the request's stage spans are timed; a
//!   disabled tracer reduces every call to a branch on a field.
//! * [`Tracer::span`] / [`StageAcc`] record stage time. Spans are RAII
//!   guards for coarse stages (one per request); [`StageAcc`] is a
//!   caller-owned accumulator for per-cell hot loops, absorbed into the
//!   thread-local trace once per request so the loop body never touches
//!   thread-local storage.
//! * Completed sampled traces land in per-stage [`LatencyHistogram`]s
//!   (one observation per request per touched stage) and in a sharded
//!   ring-buffer flight recorder holding the last N requests. Requests
//!   whose *total* latency crosses `GB_SLOW_US` are retained in a
//!   separate slow lane **whether or not they were sampled** — the
//!   requests you most want to see are exactly the ones sampling would
//!   usually drop.
//!
//! Nesting: the outermost `begin_request` on a thread owns the trace
//! (the serve layer when a request arrives over HTTP, the engine when
//! it is driven directly); inner `begin_request` calls are inert, and
//! inner spans attribute to the owner's trace. A request never leaves
//! the thread that opened its trace (a batch answers its items in order
//! on that thread), so every span it opens lands on its own trace.
//!
//! This module is on the `gb_lint` `panic-path` list: all array access
//! is via checked lookups or iterators, never indexing that can panic.

use gb_common::sync::OrderedMutex;
use gb_common::{Counter, LatencyHistogram};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::Instant;

/// The fixed stage taxonomy of the query pipeline, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Polygon → covering: memo probe plus (on miss) cover computation.
    CoveringResolve,
    /// Flat-index lookup of a covering cell in the trie.
    TrieLookup,
    /// A covering cell the trie does not hold, answered from a pyramid
    /// layer (one lookup, one record) — and COUNT's prefix differences.
    PyramidCombine,
    /// A block-level covering cell the trie does not hold, answered from
    /// the block's own records: at most one record, nothing is scanned
    /// (the name is a metric label and stays).
    ScanFallback,
    /// Serve-layer result-cache probe.
    ResultCache,
    /// Admission control (tenant token bucket).
    Quota,
    /// Encoding the wire reply.
    Serialize,
}

impl Stage {
    /// Number of stages (the length of every per-stage array).
    pub const COUNT: usize = 7;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::CoveringResolve,
        Stage::TrieLookup,
        Stage::PyramidCombine,
        Stage::ScanFallback,
        Stage::ResultCache,
        Stage::Quota,
        Stage::Serialize,
    ];

    /// Index into per-stage arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The metric-label name (`gb_stage_latency_ns{stage="..."}`).
    pub fn name(self) -> &'static str {
        match self {
            Stage::CoveringResolve => "covering_resolve",
            Stage::TrieLookup => "trie_lookup",
            Stage::PyramidCombine => "pyramid_combine",
            Stage::ScanFallback => "scan_fallback",
            Stage::ResultCache => "result_cache",
            Stage::Quota => "quota",
            Stage::Serialize => "serialize",
        }
    }
}

/// Trace flag: the covering was served by the covering memo.
pub const FLAG_MEMO_HIT: u32 = 1 << 0;
/// Trace flag: the reply was served by the serve-layer result cache.
pub const FLAG_CACHE_HIT: u32 = 1 << 1;

/// The engine's `QueryStats`, mirrored here so `gb_trace` stays at the
/// bottom of the dependency DAG (the core crate depends on this one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Covering cells probed.
    pub query_cells: u64,
    /// Cells whose aggregates were combined into the result.
    pub cells_combined: u64,
    /// Base-table searches (scan fallbacks).
    pub searches: u64,
}

/// Tracer tuning knobs. `Default` matches the documented env defaults;
/// tests construct configs programmatically to avoid env races.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Sample 1 in `sample_rate` requests (1 = every request, 0 =
    /// tracing disabled entirely).
    pub sample_rate: u64,
    /// Total-latency threshold (microseconds) above which a request is
    /// retained in the slow lane even when unsampled. `0` retains every
    /// request — the e2e-test configuration.
    pub slow_us: u64,
    /// Completed-request ring capacity (`/v1/debug/traces`).
    pub recorder_capacity: usize,
    /// Slow-lane ring capacity (`/v1/debug/slow`); `0` disables it.
    pub slow_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            sample_rate: 64,
            slow_us: 10_000,
            recorder_capacity: 256,
            slow_capacity: 64,
        }
    }
}

impl TraceConfig {
    /// A config with tracing switched off (spans cost one branch).
    pub fn disabled() -> TraceConfig {
        TraceConfig {
            sample_rate: 0,
            ..TraceConfig::default()
        }
    }

    /// Read `GB_TRACE_SAMPLE` / `GB_SLOW_US`, falling back to defaults.
    pub fn from_env() -> TraceConfig {
        let d = TraceConfig::default();
        TraceConfig {
            sample_rate: env_u64("GB_TRACE_SAMPLE", d.sample_rate),
            slow_us: env_u64("GB_SLOW_US", d.slow_us),
            ..d
        }
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(default)
}

/// Saturating `Instant → u64` elapsed nanoseconds.
fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// One completed request trace, as retained by the flight recorder.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// Completion sequence number (per tracer).
    pub seq: u64,
    /// Request kind ("select", "count", "batch", "update", ...).
    pub kind: &'static str,
    /// Whether stage spans were timed for this request.
    pub sampled: bool,
    /// End-to-end wall time.
    pub total_ns: u64,
    /// Accumulated nanoseconds per stage (indexed by [`Stage::index`]).
    pub stage_ns: [u64; Stage::COUNT],
    /// Span/accumulator count per stage.
    pub stage_calls: [u32; Stage::COUNT],
    /// `FLAG_*` bitmask.
    pub flags: u32,
    /// Engine-reported query statistics.
    pub stats: TraceStats,
    /// Data epoch the request executed against.
    pub epoch: u64,
}

impl RequestTrace {
    /// Whether the covering memo served this request's covering.
    pub fn memo_hit(&self) -> bool {
        self.flags & FLAG_MEMO_HIT != 0
    }

    /// Whether the result cache served this request's reply.
    pub fn cache_hit(&self) -> bool {
        self.flags & FLAG_CACHE_HIT != 0
    }

    /// Nanoseconds attributed to `stage`.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stage_ns.get(stage.index()).copied().unwrap_or(0)
    }

    /// Span count attributed to `stage`.
    pub fn stage_calls(&self, stage: Stage) -> u32 {
        self.stage_calls.get(stage.index()).copied().unwrap_or(0)
    }

    /// One JSON-ish line (stages with zero calls are omitted).
    pub fn render(&self) -> String {
        let mut s = format!(
            "{{\"seq\":{},\"kind\":\"{}\",\"sampled\":{},\"total_ns\":{},\"epoch\":{},\
             \"memo_hit\":{},\"cache_hit\":{},\"query_cells\":{},\"cells_combined\":{},\
             \"searches\":{},\"stages\":{{",
            self.seq,
            self.kind,
            self.sampled,
            self.total_ns,
            self.epoch,
            self.memo_hit(),
            self.cache_hit(),
            self.stats.query_cells,
            self.stats.cells_combined,
            self.stats.searches
        );
        let mut first = true;
        for stage in Stage::ALL {
            let calls = self.stage_calls(stage);
            if calls == 0 {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "\"{}\":{{\"ns\":{},\"calls\":{}}}",
                stage.name(),
                self.stage_ns(stage),
                calls
            ));
        }
        s.push_str("}}");
        s
    }
}

/// Render a recorder snapshot as one JSON-ish line per trace.
pub fn render_traces(traces: &[RequestTrace]) -> String {
    let mut out = String::with_capacity(traces.len() * 160);
    for t in traces {
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// The per-thread in-flight trace. Plain fields behind a `RefCell` —
/// recording a span is two array adds, no synchronization.
#[derive(Debug)]
struct ActiveTrace {
    tracer_id: u64,
    sampled: bool,
    kind: &'static str,
    stage_ns: [u64; Stage::COUNT],
    stage_calls: [u32; Stage::COUNT],
    flags: u32,
    stats: TraceStats,
    epoch: u64,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Rank of the flight-recorder ring shards in the declared lock order:
/// above every engine lock — traces are pushed after a request fully
/// completes (guard drop) and snapshotted by debug endpoints, never
/// while query-path locks are held.
const RANK_TRACES: u8 = 4;

/// Ring shard count — requests rotate across shards so concurrent
/// completions contend on different locks.
const RECORDER_SHARDS: usize = 4;

/// A sharded bounded ring of completed traces. Push rotates across
/// shards via a relaxed ticket; snapshot re-sorts by completion seq.
#[derive(Debug)]
struct FlightRecorder {
    ring: Vec<OrderedMutex<VecDeque<RequestTrace>>>,
    per_shard: usize,
    rotor: Counter,
}

impl FlightRecorder {
    fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: (0..RECORDER_SHARDS)
                .map(|_| OrderedMutex::new("traces", RANK_TRACES, VecDeque::new()))
                .collect(),
            per_shard: capacity.div_ceil(RECORDER_SHARDS),
            rotor: Counter::new(),
        }
    }

    fn push(&self, trace: RequestTrace) {
        if self.per_shard == 0 || self.ring.is_empty() {
            return;
        }
        let idx = self.rotor.next() as usize % self.ring.len();
        if let Some(traces) = self.ring.get(idx) {
            let mut shard = traces.lock();
            while shard.len() >= self.per_shard {
                shard.pop_front();
            }
            shard.push_back(trace);
        }
    }

    fn snapshot(&self) -> Vec<RequestTrace> {
        let mut all: Vec<RequestTrace> = Vec::new();
        for traces in &self.ring {
            all.extend(traces.lock().iter().cloned());
        }
        all.sort_by_key(|t| t.seq);
        all
    }
}

/// Distinguishes tracers so a span opened against one tracer never
/// writes into a trace owned by another (multiple engines in one
/// process — tests, the bench harness's A/B runs).
static TRACER_IDS: Counter = Counter::new();

/// The per-engine tracing hub: sampling gate, per-stage histograms,
/// flight recorder, slow lane. Shared as `Arc<Tracer>` by the engine
/// and the serve layer; every method takes `&self`.
#[derive(Debug)]
pub struct Tracer {
    id: u64,
    config: TraceConfig,
    ticket: Counter,
    seq: Counter,
    hists: Vec<LatencyHistogram>,
    recorder: FlightRecorder,
    slow: FlightRecorder,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new(TraceConfig::default())
    }
}

impl Tracer {
    /// A tracer with explicit knobs.
    pub fn new(config: TraceConfig) -> Tracer {
        Tracer {
            id: TRACER_IDS.next().wrapping_add(1),
            recorder: FlightRecorder::new(config.recorder_capacity),
            slow: FlightRecorder::new(config.slow_capacity),
            config,
            ticket: Counter::new(),
            seq: Counter::new(),
            hists: (0..Stage::COUNT)
                .map(|_| LatencyHistogram::default())
                .collect(),
        }
    }

    /// A tracer configured from `GB_TRACE_SAMPLE` / `GB_SLOW_US`.
    pub fn from_env() -> Tracer {
        Tracer::new(TraceConfig::from_env())
    }

    /// A tracer that records nothing (every call is a branch + return).
    pub fn disabled() -> Tracer {
        Tracer::new(TraceConfig::disabled())
    }

    /// The tracer's configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Whether tracing is on at all (`sample_rate != 0`).
    pub fn enabled(&self) -> bool {
        self.config.sample_rate != 0
    }

    /// Open a request trace on this thread. The outermost guard owns
    /// the trace; nested calls return an inert guard. On drop, a
    /// sampled trace lands in the stage histograms and the recorder; a
    /// slow one (by total latency) lands in the slow lane regardless of
    /// sampling.
    pub fn begin_request(&self, kind: &'static str) -> RequestGuard<'_> {
        if self.config.sample_rate == 0 {
            return RequestGuard {
                tracer: self,
                start: None,
            };
        }
        let start = ACTIVE.with(|slot| {
            let mut active = slot.borrow_mut();
            if active.is_some() {
                return None;
            }
            let sampled = self.ticket.next().is_multiple_of(self.config.sample_rate);
            *active = Some(ActiveTrace {
                tracer_id: self.id,
                sampled,
                kind,
                stage_ns: [0; Stage::COUNT],
                stage_calls: [0; Stage::COUNT],
                flags: 0,
                stats: TraceStats::default(),
                epoch: 0,
            });
            Some(Instant::now())
        });
        RequestGuard {
            tracer: self,
            start,
        }
    }

    /// Whether the current thread carries one of this tracer's sampled
    /// traces — the arm/disarm decision for spans and accumulators.
    fn thread_is_sampled(&self) -> bool {
        if self.config.sample_rate == 0 {
            return false;
        }
        ACTIVE.with(|slot| {
            slot.borrow()
                .as_ref()
                .is_some_and(|a| a.tracer_id == self.id && a.sampled)
        })
    }

    /// Time one stage via RAII: elapsed time is added to the current
    /// thread's trace when the guard drops. Disarmed (no timestamp
    /// taken) when the thread's trace is absent, foreign, or unsampled.
    pub fn span(&self, stage: Stage) -> SpanGuard {
        SpanGuard {
            tracer_id: self.id,
            stage,
            start: self.thread_is_sampled().then(Instant::now),
        }
    }

    /// A stage-time accumulator for per-cell loops: armed iff the
    /// current thread carries a sampled trace. Pass it down the hot
    /// path by `&mut`, then hand it back via [`Tracer::absorb`].
    pub fn stage_acc(&self) -> StageAcc {
        StageAcc::new(self.thread_is_sampled())
    }

    /// Fold an accumulator into the current thread's trace.
    pub fn absorb(&self, acc: StageAcc) {
        if !acc.armed {
            return;
        }
        ACTIVE.with(|slot| {
            if let Some(active) = slot.borrow_mut().as_mut() {
                if active.tracer_id != self.id {
                    return;
                }
                for (dst, src) in active.stage_ns.iter_mut().zip(acc.ns.iter()) {
                    *dst = dst.saturating_add(*src);
                }
                for (dst, src) in active.stage_calls.iter_mut().zip(acc.calls.iter()) {
                    *dst = dst.saturating_add(*src);
                }
            }
        });
    }

    /// Set a `FLAG_*` bit on the current thread's trace (recorded even
    /// for unsampled requests — the slow lane keeps the flags).
    pub fn flag(&self, flag: u32) {
        if self.config.sample_rate == 0 {
            return;
        }
        ACTIVE.with(|slot| {
            if let Some(active) = slot.borrow_mut().as_mut() {
                if active.tracer_id == self.id {
                    active.flags |= flag;
                }
            }
        });
    }

    /// Accumulate engine query statistics onto the current trace.
    pub fn note_stats(&self, stats: TraceStats) {
        if self.config.sample_rate == 0 {
            return;
        }
        ACTIVE.with(|slot| {
            if let Some(active) = slot.borrow_mut().as_mut() {
                if active.tracer_id == self.id {
                    active.stats.query_cells =
                        active.stats.query_cells.saturating_add(stats.query_cells);
                    active.stats.cells_combined = active
                        .stats
                        .cells_combined
                        .saturating_add(stats.cells_combined);
                    active.stats.searches = active.stats.searches.saturating_add(stats.searches);
                }
            }
        });
    }

    /// Record the data epoch the current request executed against.
    pub fn note_epoch(&self, epoch: u64) {
        if self.config.sample_rate == 0 {
            return;
        }
        ACTIVE.with(|slot| {
            if let Some(active) = slot.borrow_mut().as_mut() {
                if active.tracer_id == self.id {
                    active.epoch = epoch;
                }
            }
        });
    }

    /// The per-stage histograms, indexed by [`Stage::index`]. One
    /// observation per sampled request per touched stage (accumulated
    /// nanoseconds), so quantiles read as per-request stage costs.
    pub fn histograms(&self) -> &[LatencyHistogram] {
        &self.hists
    }

    /// The histogram for one stage.
    pub fn stage_histogram(&self, stage: Stage) -> Option<&LatencyHistogram> {
        self.hists.get(stage.index())
    }

    /// The last N completed sampled traces, oldest first.
    pub fn recent(&self) -> Vec<RequestTrace> {
        self.recorder.snapshot()
    }

    /// The retained slow-lane traces, oldest first.
    pub fn slow_traces(&self) -> Vec<RequestTrace> {
        self.slow.snapshot()
    }
}

/// RAII owner of a request trace (see [`Tracer::begin_request`]).
#[derive(Debug)]
pub struct RequestGuard<'a> {
    tracer: &'a Tracer,
    start: Option<Instant>,
}

impl Drop for RequestGuard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        let total_ns = elapsed_ns(start);
        let Some(active) = ACTIVE.with(|slot| slot.borrow_mut().take()) else {
            return;
        };
        if active.tracer_id != self.tracer.id {
            // A foreign trace (tracer misuse): put it back untouched.
            ACTIVE.with(|slot| *slot.borrow_mut() = Some(active));
            return;
        }
        let trace = RequestTrace {
            seq: self.tracer.seq.next(),
            kind: active.kind,
            sampled: active.sampled,
            total_ns,
            stage_ns: active.stage_ns,
            stage_calls: active.stage_calls,
            flags: active.flags,
            stats: active.stats,
            epoch: active.epoch,
        };
        if trace.sampled {
            let stage_obs = trace.stage_ns.iter().zip(trace.stage_calls.iter());
            for (hist, (&ns, &calls)) in self.tracer.hists.iter().zip(stage_obs) {
                if calls > 0 {
                    hist.record(ns);
                }
            }
            self.tracer.recorder.push(trace.clone());
        }
        if total_ns >= self.tracer.config.slow_us.saturating_mul(1000) {
            self.tracer.slow.push(trace);
        }
    }
}

/// RAII stage timer (see [`Tracer::span`]). Cheap to create when
/// disarmed: no timestamp, and drop is a branch.
#[derive(Debug)]
#[must_use = "a span records its stage time when dropped"]
pub struct SpanGuard {
    tracer_id: u64,
    stage: Stage,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        let ns = elapsed_ns(start);
        let (tracer_id, idx) = (self.tracer_id, self.stage.index());
        ACTIVE.with(|slot| {
            if let Some(active) = slot.borrow_mut().as_mut() {
                if active.tracer_id != tracer_id {
                    return;
                }
                if let Some(v) = active.stage_ns.get_mut(idx) {
                    *v = v.saturating_add(ns);
                }
                if let Some(c) = active.stage_calls.get_mut(idx) {
                    *c = c.saturating_add(1);
                }
            }
        });
    }
}

/// A caller-owned stage-time accumulator for hot loops. When disarmed
/// ([`StageAcc::inactive`], or the request is unsampled) `time` runs
/// the closure with zero bookkeeping — no timestamps, two branches.
#[derive(Debug)]
pub struct StageAcc {
    armed: bool,
    ns: [u64; Stage::COUNT],
    calls: [u32; Stage::COUNT],
}

impl StageAcc {
    fn new(armed: bool) -> StageAcc {
        StageAcc {
            armed,
            ns: [0; Stage::COUNT],
            calls: [0; Stage::COUNT],
        }
    }

    /// A permanently disarmed accumulator — the zero-cost argument for
    /// callers outside any traced request (reference implementations,
    /// tests).
    pub fn inactive() -> StageAcc {
        StageAcc::new(false)
    }

    /// Whether this accumulator is recording.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Run `f`, attributing its elapsed time to `stage` when armed.
    #[inline]
    pub fn time<R>(&mut self, stage: Stage, f: impl FnOnce() -> R) -> R {
        if !self.armed {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = elapsed_ns(start);
        let idx = stage.index();
        if let Some(v) = self.ns.get_mut(idx) {
            *v = v.saturating_add(ns);
        }
        if let Some(c) = self.calls.get_mut(idx) {
            *c = c.saturating_add(1);
        }
        out
    }

    /// Nanoseconds accumulated for `stage` so far.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.ns.get(stage.index()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampled_config() -> TraceConfig {
        TraceConfig {
            sample_rate: 1,
            slow_us: u64::MAX / 2000, // slow lane effectively off
            recorder_capacity: 16,
            slow_capacity: 16,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let _req = t.begin_request("select");
            let _s = t.span(Stage::TrieLookup);
        }
        assert!(!t.enabled());
        assert!(t.recent().is_empty());
        assert!(t.slow_traces().is_empty());
        assert!(t.histograms().iter().all(|h| h.count() == 0));
    }

    #[test]
    fn sampled_request_lands_in_histograms_and_recorder() {
        let t = Tracer::new(sampled_config());
        {
            let _req = t.begin_request("select");
            {
                let _s = t.span(Stage::CoveringResolve);
            }
            {
                let _s = t.span(Stage::TrieLookup);
            }
            {
                let _s = t.span(Stage::TrieLookup);
            }
            t.flag(FLAG_MEMO_HIT);
            t.note_stats(TraceStats {
                query_cells: 9,
                cells_combined: 4,
                searches: 1,
            });
            t.note_epoch(7);
        }
        let hist = t.stage_histogram(Stage::TrieLookup).expect("stage");
        assert_eq!(hist.count(), 1, "one observation per request per stage");
        let traces = t.recent();
        assert_eq!(traces.len(), 1);
        let trace = &traces[0];
        assert_eq!(trace.kind, "select");
        assert!(trace.sampled);
        assert!(trace.memo_hit());
        assert!(!trace.cache_hit());
        assert_eq!(trace.stage_calls(Stage::TrieLookup), 2);
        assert_eq!(trace.stage_calls(Stage::CoveringResolve), 1);
        assert_eq!(trace.stage_calls(Stage::Serialize), 0);
        assert_eq!(trace.stats.query_cells, 9);
        assert_eq!(trace.epoch, 7);
    }

    #[test]
    fn sampling_gate_skips_requests() {
        let t = Tracer::new(TraceConfig {
            sample_rate: 4,
            ..sampled_config()
        });
        for _ in 0..8 {
            let _req = t.begin_request("select");
            let _s = t.span(Stage::TrieLookup);
        }
        // Tickets 0 and 4 sample.
        assert_eq!(t.recent().len(), 2);
        assert_eq!(
            t.stage_histogram(Stage::TrieLookup).expect("stage").count(),
            2
        );
    }

    #[test]
    fn nested_begin_request_is_inert_and_inner_spans_attribute_to_owner() {
        let t = Tracer::new(sampled_config());
        {
            let _outer = t.begin_request("query");
            {
                let _inner = t.begin_request("select");
                let _s = t.span(Stage::PyramidCombine);
            } // inner drop must not close the outer trace
            let _s = t.span(Stage::Serialize);
        }
        let traces = t.recent();
        assert_eq!(traces.len(), 1, "one trace, owned by the outer guard");
        assert_eq!(traces[0].kind, "query");
        assert_eq!(traces[0].stage_calls(Stage::PyramidCombine), 1);
        assert_eq!(traces[0].stage_calls(Stage::Serialize), 1);
    }

    #[test]
    fn slow_lane_captures_unsampled_requests() {
        let t = Tracer::new(TraceConfig {
            sample_rate: 1_000_000,
            slow_us: 0, // every request is "slow"
            recorder_capacity: 16,
            slow_capacity: 16,
        });
        {
            let _req = t.begin_request("select"); // ticket 0: sampled
        }
        {
            let _req = t.begin_request("count"); // ticket 1: unsampled
        }
        assert_eq!(t.recent().len(), 1, "only the sampled request");
        let slow = t.slow_traces();
        assert_eq!(slow.len(), 2, "slow lane keeps both");
        assert!(slow.iter().any(|s| s.kind == "count" && !s.sampled));
    }

    #[test]
    fn recorder_is_bounded_and_ordered() {
        let t = Tracer::new(TraceConfig {
            recorder_capacity: 8,
            ..sampled_config()
        });
        for _ in 0..100 {
            let _req = t.begin_request("select");
        }
        let traces = t.recent();
        assert!(traces.len() <= 8);
        assert!(traces.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(traces.iter().all(|tr| tr.seq >= 92), "oldest evicted");
    }

    #[test]
    fn zero_capacity_recorder_drops_everything() {
        let t = Tracer::new(TraceConfig {
            recorder_capacity: 0,
            slow_capacity: 0,
            slow_us: 0,
            sample_rate: 1,
        });
        {
            let _req = t.begin_request("select");
        }
        assert!(t.recent().is_empty());
        assert!(t.slow_traces().is_empty());
    }

    #[test]
    fn stage_acc_times_and_absorbs() {
        let t = Tracer::new(sampled_config());
        {
            let _req = t.begin_request("select");
            let mut acc = t.stage_acc();
            assert!(acc.armed());
            let out = acc.time(Stage::ScanFallback, || 41 + 1);
            assert_eq!(out, 42);
            acc.time(Stage::ScanFallback, || ());
            t.absorb(acc);
        }
        let traces = t.recent();
        assert_eq!(traces[0].stage_calls(Stage::ScanFallback), 2);
    }

    #[test]
    fn inactive_acc_is_a_passthrough() {
        let mut acc = StageAcc::inactive();
        assert!(!acc.armed());
        assert_eq!(acc.time(Stage::TrieLookup, || 7), 7);
        assert_eq!(acc.stage_ns(Stage::TrieLookup), 0);
    }

    #[test]
    fn spans_do_not_cross_tracers() {
        let owner = Tracer::new(sampled_config());
        let other = Tracer::new(sampled_config());
        {
            let _req = owner.begin_request("select");
            let _foreign = other.span(Stage::TrieLookup);
            let _ours = owner.span(Stage::Quota);
        }
        let traces = owner.recent();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].stage_calls(Stage::TrieLookup), 0);
        assert_eq!(traces[0].stage_calls(Stage::Quota), 1);
    }

    #[test]
    fn render_is_json_ish_and_omits_idle_stages() {
        let t = Tracer::new(sampled_config());
        {
            let _req = t.begin_request("select");
            let _s = t.span(Stage::TrieLookup);
            t.flag(FLAG_CACHE_HIT);
        }
        let text = render_traces(&t.recent());
        assert!(text.contains("\"kind\":\"select\""));
        assert!(text.contains("\"cache_hit\":true"));
        assert!(text.contains("\"trie_lookup\""));
        assert!(!text.contains("\"serialize\""));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn env_defaults_are_documented_values() {
        let d = TraceConfig::default();
        assert_eq!(d.sample_rate, 64);
        assert_eq!(d.slow_us, 10_000);
        assert!(Tracer::default().enabled());
        assert_eq!(TraceConfig::disabled().sample_rate, 0);
    }

    #[test]
    fn stage_taxonomy_is_fixed_and_indexable() {
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert!(!stage.name().is_empty());
        }
    }
}
