//! Server metrics: request/status counters, cache hit/miss, quota
//! rejections, how workers waited for requests, and a log-linear latency
//! histogram — rendered as a Prometheus-style text exposition on
//! `GET /metrics`.
//!
//! Everything is lock-free [`Counter`]s so the hot path pays a handful
//! of relaxed `fetch_add`s. The histogram (shared from `gb_common` with
//! the per-stage tracer) splits every octave into 16 sub-buckets;
//! quantiles are sub-bucket upper bounds, at most 6.25 % above the truth.

use gb_common::Counter;
use gb_trace::{Stage, Tracer};

/// Re-export: the histogram lives in `gb_common::hist` so the tracer
/// and the server share one implementation.
pub use gb_common::LatencyHistogram;

/// Why the server closed a connection: the `reason` label of
/// `gb_connection_closes_total`, which answers "why did the client have to
/// reconnect?" from the running server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer closed, or did not ask for keep-alive.
    Peer,
    /// No request arrived within `keep_alive_idle`.
    Idle,
    /// The connection reached `keep_alive_max_requests`.
    Cap,
    /// A malformed or oversized request, or a socket error.
    Error,
    /// The server is stopping.
    Shutdown,
}

/// The `reason` labels, in [`CloseReason`]'s declaration order.
const CLOSE_REASONS: [&str; 5] = ["peer", "idle", "cap", "error", "shutdown"];

/// What the engine reports to `/metrics`, read once per scrape.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineNumbers {
    pub data_epoch: u64,
    pub memo: geoblocks::MemoStats,
}

/// All server counters.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests per route, indexed like the server's route table (an
    /// unknown path lands in `route_other`).
    route_hits: [Counter; crate::ROUTES.len()],
    route_other: Counter,
    status_2xx: Counter,
    status_4xx: Counter,
    status_5xx: Counter,
    quota_rejections: Counter,
    connections: Counter,
    /// Closed connections, indexed by [`CloseReason`].
    closes: [Counter; 5],
    /// Requests served on connections that have closed.
    closed_requests: Counter,
    /// Requests that found their worker polling, and that found it parked.
    waits_polled: Counter,
    waits_parked: Counter,
    /// Nanoseconds workers spent polling for requests: the CPU polling costs.
    poll_ns: Counter,
    pub latency: LatencyHistogram,
}

impl Metrics {
    /// Record one finished request to the route at index `route` of the
    /// server's route table (`None`: a path it does not serve).
    pub(crate) fn record(&self, route: Option<usize>, status: u16, elapsed_ns: u64) {
        route
            .and_then(|i| self.route_hits.get(i))
            .unwrap_or(&self.route_other)
            .incr();
        let class = match status {
            200..=299 => &self.status_2xx,
            400..=499 => &self.status_4xx,
            _ => &self.status_5xx,
        };
        class.incr();
        if status == 429 {
            self.quota_rejections.incr();
        }
        self.latency.record(elapsed_ns);
    }

    /// Record one accepted connection.
    pub fn connection_opened(&self) {
        self.connections.incr();
    }

    /// Record one closed connection that served `requests` requests.
    pub fn connection_closed(&self, reason: CloseReason, requests: u64) {
        if let Some(c) = self.closes.get(reason as usize) {
            c.incr();
        }
        self.closed_requests.add(requests);
    }

    /// Record how a worker waited for one request: awake (`parked` false —
    /// polling, or the request was already there) or parked in `read`.
    pub fn worker_waited(&self, parked: bool) {
        if parked {
            self.waits_parked.incr();
        } else {
            self.waits_polled.incr();
        }
    }

    /// Record time a worker spent polling its connection.
    pub fn worker_polled(&self, polled: std::time::Duration) {
        self.poll_ns
            .add(u64::try_from(polled.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Requests rejected by admission control.
    pub fn quota_rejections(&self) -> u64 {
        self.quota_rejections.get()
    }

    /// Render the Prometheus-style exposition. Cache and engine numbers
    /// are passed in so this module stays decoupled from the engine;
    /// pool gauges come from the process-wide `gb_common::pool`
    /// counters, and per-stage latency families from the tracer.
    pub fn render(
        &self,
        cache: &crate::cache::CacheStats,
        cache_len: usize,
        engine: EngineNumbers,
        tracer: &Tracer,
    ) -> String {
        let EngineNumbers { data_epoch, memo } = engine;
        let mut out = String::with_capacity(4096);
        for ((_, route, _), counter) in crate::ROUTES.iter().zip(&self.route_hits) {
            let n = counter.get();
            out.push_str(&format!("gb_requests_total{{route=\"{route}\"}} {n}\n"));
        }
        out.push_str(&format!(
            "gb_requests_total{{route=\"other\"}} {}\n",
            self.route_other.get()
        ));
        out.push_str(&format!(
            "gb_responses_total{{class=\"2xx\"}} {}\n",
            self.status_2xx.get()
        ));
        out.push_str(&format!(
            "gb_responses_total{{class=\"4xx\"}} {}\n",
            self.status_4xx.get()
        ));
        out.push_str(&format!(
            "gb_responses_total{{class=\"5xx\"}} {}\n",
            self.status_5xx.get()
        ));
        out.push_str(&format!(
            "gb_quota_rejections_total {}\n",
            self.quota_rejections()
        ));
        let opened = self.connections.get();
        out.push_str(&format!("gb_connections_total {opened}\n"));
        let mut closed = 0;
        for (reason, counter) in CLOSE_REASONS.iter().zip(&self.closes) {
            let n = counter.get();
            closed += n;
            out.push_str(&format!(
                "gb_connection_closes_total{{reason=\"{reason}\"}} {n}\n"
            ));
        }
        // Requests per connection, over the connections that have closed.
        let requests = self.closed_requests.get();
        out.push_str(&format!("gb_connection_requests_sum {requests}\n"));
        out.push_str(&format!("gb_connection_requests_count {closed}\n"));
        out.push_str(&format!(
            "gb_worker_waits_total{{outcome=\"polled\"}} {}\n",
            self.waits_polled.get()
        ));
        out.push_str(&format!(
            "gb_worker_waits_total{{outcome=\"parked\"}} {}\n",
            self.waits_parked.get()
        ));
        out.push_str(&format!("gb_worker_poll_ns_total {}\n", self.poll_ns.get()));
        out.push_str(&format!("gb_result_cache_hits_total {}\n", cache.hits));
        out.push_str(&format!("gb_result_cache_misses_total {}\n", cache.misses));
        out.push_str(&format!(
            "gb_result_cache_hit_rate {:.6}\n",
            cache.hit_rate()
        ));
        out.push_str(&format!("gb_result_cache_entries {cache_len}\n"));
        out.push_str(&format!(
            "gb_result_cache_evictions_total {}\n",
            cache.evictions
        ));
        out.push_str(&format!("gb_covering_memo_hits_total {}\n", memo.hits));
        out.push_str(&format!("gb_covering_memo_misses_total {}\n", memo.misses));
        out.push_str(&format!(
            "gb_covering_memo_evictions_total {}\n",
            memo.evictions
        ));
        let pool = gb_common::pool::stats();
        out.push_str(&format!("gb_pool_queue_depth {}\n", pool.queue_depth));
        out.push_str(&format!("gb_pool_tasks_total {}\n", pool.tasks_total));
        out.push_str(&format!("gb_pool_busy_ns_total {}\n", pool.busy_ns_total));
        out.push_str(&format!("gb_data_epoch {data_epoch}\n"));
        out.push_str(&format!(
            "gb_request_latency_ns{{quantile=\"0.5\"}} {}\n",
            self.latency.quantile_ns(0.5)
        ));
        out.push_str(&format!(
            "gb_request_latency_ns{{quantile=\"0.99\"}} {}\n",
            self.latency.quantile_ns(0.99)
        ));
        out.push_str(&format!(
            "gb_request_latency_mean_ns {}\n",
            self.latency.mean_ns()
        ));
        out.push_str(&format!(
            "gb_request_latency_count {}\n",
            self.latency.count()
        ));
        render_stages(&mut out, tracer);
        out
    }
}

/// Per-stage latency families from the tracer's sampled histograms:
/// `gb_stage_latency_ns{stage,quantile}`, `gb_stage_latency_count`, and
/// `gb_stage_share` (each stage's fraction of total sampled stage time).
fn render_stages(out: &mut String, tracer: &Tracer) {
    let hists = tracer.histograms();
    let total_ns: u64 = hists.iter().map(|h| h.sum_ns()).sum();
    for stage in Stage::ALL {
        let Some(h) = tracer.stage_histogram(stage) else {
            continue;
        };
        let name = stage.name();
        out.push_str(&format!(
            "gb_stage_latency_ns{{stage=\"{name}\",quantile=\"0.5\"}} {}\n",
            h.quantile_ns(0.5)
        ));
        out.push_str(&format!(
            "gb_stage_latency_ns{{stage=\"{name}\",quantile=\"0.99\"}} {}\n",
            h.quantile_ns(0.99)
        ));
        out.push_str(&format!(
            "gb_stage_latency_count{{stage=\"{name}\"}} {}\n",
            h.count()
        ));
        let share = if total_ns == 0 {
            0.0
        } else {
            h.sum_ns() as f64 / total_ns as f64
        };
        out.push_str(&format!("gb_stage_share{{stage=\"{name}\"}} {share:.6}\n"));
    }
}

/// Pull one metric's value back out of an exposition (used by the bench
/// harness and CI smoke to scrape `/metrics` without a Prometheus
/// client). Matches on the exact metric name, e.g.
/// `scrape(&text, "gb_result_cache_hits_total")` — a name that is a
/// prefix of another (`gb_data_epoch` vs `gb_data_epoch_total`) only
/// matches its own line, because the name must be followed by a space
/// (value separator) or `{` (label block).
pub fn scrape(exposition: &str, metric: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix(metric)?;
        if !rest.starts_with([' ', '{']) {
            return None;
        }
        // Either `metric value` or `metric{labels} value` — the caller
        // includes the labels in `metric` when they matter.
        let value = rest.trim_start_matches(|c: char| c != ' ').trim();
        value.parse::<f64>().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_trace::TraceConfig;

    /// The route-table index of `path`, as `GbServer::handle` finds it.
    fn route(path: &str) -> Option<usize> {
        crate::ROUTES.iter().position(|&(_, p, _)| p == path)
    }

    #[test]
    fn render_and_scrape_roundtrip() {
        let m = Metrics::default();
        m.record(route("/v1/select"), 200, 5_000);
        m.record(route("/v1/select"), 200, 6_000);
        m.record(route("/v1/update"), 400, 7_000);
        m.record(route("/nope"), 429, 100);
        for (reason, requests) in [(CloseReason::Cap, 256), (CloseReason::Peer, 1)] {
            m.connection_opened();
            m.connection_closed(reason, requests);
        }
        m.connection_opened(); // still open
        let cache = crate::cache::CacheStats {
            hits: 3,
            misses: 1,
            insertions: 1,
            evictions: 0,
        };
        let memo = geoblocks::MemoStats {
            hits: 4,
            misses: 2,
            evictions: 1,
        };
        let tracer = Tracer::new(TraceConfig {
            sample_rate: 1,
            ..TraceConfig::default()
        });
        {
            let _req = tracer.begin_request("select");
            drop(tracer.span(Stage::PyramidCombine));
        }
        let engine = EngineNumbers {
            data_epoch: 5,
            memo,
        };
        let text = m.render(&cache, 2, engine, &tracer);
        assert_eq!(
            scrape(&text, "gb_requests_total{route=\"/v1/select\"}"),
            Some(2.0)
        );
        assert_eq!(
            scrape(&text, "gb_responses_total{class=\"4xx\"}"),
            Some(2.0)
        );
        assert_eq!(scrape(&text, "gb_result_cache_hits_total"), Some(3.0));
        assert_eq!(scrape(&text, "gb_result_cache_hit_rate"), Some(0.75));
        assert_eq!(scrape(&text, "gb_data_epoch"), Some(5.0));
        assert_eq!(scrape(&text, "gb_covering_memo_hits_total"), Some(4.0));
        assert_eq!(scrape(&text, "gb_covering_memo_misses_total"), Some(2.0));
        assert_eq!(scrape(&text, "gb_covering_memo_evictions_total"), Some(1.0));
        assert_eq!(scrape(&text, "gb_covering_memo_invalidations_total"), None);
        assert_eq!(scrape(&text, "gb_quota_rejections_total"), Some(1.0));
        assert_eq!(scrape(&text, "gb_connections_total"), Some(3.0));
        assert_eq!(
            scrape(&text, "gb_connection_closes_total{reason=\"cap\"}"),
            Some(1.0)
        );
        assert_eq!(
            scrape(&text, "gb_connection_closes_total{reason=\"shutdown\"}"),
            Some(0.0)
        );
        assert_eq!(scrape(&text, "gb_connection_requests_sum"), Some(257.0));
        assert_eq!(scrape(&text, "gb_connection_requests_count"), Some(2.0));
        assert_eq!(
            scrape(&text, "gb_stage_latency_count{stage=\"pyramid_combine\"}"),
            Some(1.0)
        );
        assert!(scrape(&text, "gb_stage_share{stage=\"pyramid_combine\"}").is_some());
        assert_eq!(scrape(&text, "gb_stage_share{stage=\"trie_lookup\"}"), None);
        for family in [
            "gb_trie_cache_epoch",
            "gb_trie_probes_total",
            "gb_trie_direct_hits_total",
        ] {
            assert_eq!(scrape(&text, family), None, "{family}");
        }
        assert!(scrape(&text, "gb_pool_queue_depth").is_some());
        assert!(scrape(&text, "gb_pool_tasks_total").is_some());
        assert!(scrape(&text, "gb_pool_busy_ns_total").is_some());
        assert_eq!(scrape(&text, "gb_nonexistent"), None);
    }

    #[test]
    fn worker_waits_and_poll_time_are_exported() {
        let m = Metrics::default();
        m.worker_waited(false);
        m.worker_waited(false);
        m.worker_waited(true);
        m.worker_polled(std::time::Duration::from_micros(1500));
        m.worker_polled(std::time::Duration::from_nanos(250));
        let cache = crate::cache::CacheStats::default();
        let tracer = Tracer::disabled();
        let text = m.render(&cache, 0, EngineNumbers::default(), &tracer);
        let waits = |outcome: &str| {
            scrape(
                &text,
                &format!("gb_worker_waits_total{{outcome=\"{outcome}\"}}"),
            )
        };
        assert_eq!(waits("polled"), Some(2.0), "{text}");
        assert_eq!(waits("parked"), Some(1.0));
        assert_eq!(scrape(&text, "gb_worker_poll_ns_total"), Some(1_500_250.0));
        // A fresh server exports all three at zero.
        let text = Metrics::default().render(&cache, 0, EngineNumbers::default(), &tracer);
        for name in [
            "gb_worker_waits_total{outcome=\"polled\"}",
            "gb_worker_waits_total{outcome=\"parked\"}",
            "gb_worker_poll_ns_total",
        ] {
            assert_eq!(scrape(&text, name), Some(0.0), "{name}");
        }
    }

    #[test]
    fn scrape_requires_a_full_metric_name() {
        // `gb_data_epoch` is a strict prefix of `gb_data_epoch_total`;
        // scraping the short name must not read the long metric's value.
        let text = "gb_data_epoch_total 5\ngb_data_epoch 7\n";
        assert_eq!(scrape(text, "gb_data_epoch"), Some(7.0));
        assert_eq!(scrape(text, "gb_data_epoch_total"), Some(5.0));
    }

    #[test]
    fn debug_routes_are_tracked_individually() {
        let m = Metrics::default();
        m.record(route("/v1/debug/traces"), 200, 1_000);
        m.record(route("/v1/debug/slow"), 200, 1_000);
        let tracer = Tracer::disabled();
        let cache = crate::cache::CacheStats::default();
        let text = m.render(&cache, 0, EngineNumbers::default(), &tracer);
        assert_eq!(
            scrape(&text, "gb_requests_total{route=\"/v1/debug/traces\"}"),
            Some(1.0)
        );
        assert_eq!(
            scrape(&text, "gb_requests_total{route=\"/v1/debug/slow\"}"),
            Some(1.0)
        );
        assert_eq!(
            scrape(&text, "gb_requests_total{route=\"other\"}"),
            Some(0.0)
        );
    }
}
