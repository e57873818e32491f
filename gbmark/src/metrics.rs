//! The metric names the benchmark prints — the same names, units and
//! directions `BENCHMARK.json` declares (a test holds the two equal) —
//! and the table a run collects its per-round values in.

use crate::stats::{spread, Spread};
use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("mem_bytes_per_row", "B/row"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload. A
/// metric that does not apply to a workload (an update latency on a
/// read-only one, a rate step on a closed loop) prints 0.
pub const PER_LAYER: [(&str, &str); 83] = [
    // gb_data::extract, geoblocks::build, engine and server start
    ("build.extract_ms", "ms"),
    ("build.block_ms", "ms"),
    ("build.rows_per_s", "1/s"),
    ("build.cells", "count"),
    ("build.block_bytes", "B"),
    ("build.derived_bytes", "B"),
    ("engine.new_ms", "ms"),
    ("serve.start_ms", "ms"),
    // geoblocks::snapshot + gb_store
    ("snapshot.save_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.bytes", "B"),
    // gb_geom
    ("geom.classify_rect_ns", "ns"),
    // gb_cell
    ("cell.polyhash_ns", "ns"),
    ("cell.cover_ns", "ns"),
    ("cell.cover_p99_ns", "ns"),
    ("cell.cover_cells", "count"),
    // geoblocks::memo
    ("memo.hit_ns", "ns"),
    ("memo.hit_ratio", "ratio"),
    ("memo.evictions", "count"),
    // geoblocks::query / pyramid
    ("query.select_ns", "ns"),
    ("query.count_ns", "ns"),
    ("query.cells_combined", "count"),
    ("query.searches", "count"),
    // geoblocks::trie / qc
    ("trie.lookup_ns", "ns"),
    ("trie.direct_hit_ratio", "ratio"),
    ("trie.child_hit_ratio", "ratio"),
    ("trie.cached_nodes", "count"),
    ("trie.bytes", "B"),
    ("trie.rebuild_ms", "ms"),
    ("trie.rebuilds", "count"),
    ("trie.tracked_cells", "count"),
    // geoblocks::engine
    ("engine.select_ns", "ns"),
    ("engine.count_ns", "ns"),
    ("engine.batch4_ns", "ns"),
    ("engine.query_overhead_ns", "ns"),
    // geoblocks::update
    ("update.block_clone_ms", "ms"),
    ("update.block_apply_ms", "ms"),
    ("engine.update_ms", "ms"),
    ("epochs", "count"),
    // geoblocks::api
    ("api.encode_request_ns", "ns"),
    ("api.decode_request_ns", "ns"),
    ("api.encode_reply_ns", "ns"),
    ("api.decode_reply_ns", "ns"),
    ("api.request_bytes", "B"),
    ("api.reply_bytes", "B"),
    // gb_serve::http
    ("http.parse_ns", "ns"),
    ("http.write_ns", "ns"),
    // gb_serve::cache
    ("cache.get_hit_ns", "ns"),
    ("cache.get_miss_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("cache.insert_full_ns", "ns"),
    ("cache.purge_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    // gb_serve::quota
    ("quota.admit_ns", "ns"),
    // gb_serve (GbServer::handle, no sockets)
    ("serve.handle_hit_ns", "ns"),
    ("serve.handle_miss_ns", "ns"),
    ("serve.handle_update_ms", "ms"),
    // socket (gb_serve::client over loopback)
    ("socket.rtt_ns", "ns"),
    ("socket.connect_us", "us"),
    ("socket.reconnects", "count"),
    // gb_common::pool
    ("pool.tasks", "count"),
    ("pool.busy_ms", "ms"),
    // ledger / generator: the validity of the benchmark itself
    ("ledger.hit_residual_ratio", "ratio"),
    ("ledger.miss_residual_ratio", "ratio"),
    ("ledger.engine_residual_ratio", "ratio"),
    ("ledger.engine_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("gen.lag_p99_us", "us"),
    ("gen.dataset_s", "s"),
    // end-to-end numbers that did not repeat within a bound on the
    // baseline machine, or that only some workloads have (see README)
    ("e2e.rps", "1/s"),
    ("e2e.p99_us", "us"),
    ("e2e.select_p50_us", "us"),
    ("e2e.select_p99_us", "us"),
    ("e2e.update_p50_us", "us"),
    ("e2e.rate_lo_p99_us", "us"),
    ("e2e.rate_mid_p99_us", "us"),
    ("e2e.rate_hi_p99_us", "us"),
    ("e2e.max_rate_ok", "1/s"),
    ("e2e.fail_ratio", "ratio"),
    ("e2e.rel_err_max", "ratio"),
    ("e2e.rel_err_agg", "ratio"),
    ("e2e.requests", "count"),
];

/// Values collected under metric names: one per round for the timed
/// metrics, one in all for a count read once.
#[derive(Debug, Default)]
pub struct Table {
    values: BTreeMap<&'static str, Vec<f64>>,
    notes: BTreeMap<&'static str, String>,
}

impl Table {
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    /// Sample counts and the like, printed beside the metric.
    pub fn note(&mut self, name: &'static str, note: String) {
        self.notes.insert(name, note);
    }

    /// Every `declared` metric in order with its midmean/min/max; an error
    /// names the first one the run failed to produce, so a metric can
    /// never silently go missing from the output.
    pub fn finish(
        &self,
        declared: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, &'static str, Spread, String)>, String> {
        declared
            .iter()
            .map(|&(name, unit)| {
                let spread = self
                    .values
                    .get(name)
                    .and_then(|v| spread(v))
                    .ok_or_else(|| format!("metric {name} was never measured"))?;
                let note = self.notes.get(name).cloned().unwrap_or_default();
                Ok((name, unit, spread, note))
            })
            .collect()
    }
}
