//! The workspace-specific rule configuration: which modules must stay
//! panic-free, where float folds are blessed, where threads may be
//! spawned, the engine lock-order table, and which files get the strict
//! narrowing-cast treatment.
//!
//! This is deliberately a checked-in Rust table rather than a config
//! file: changing the invariant surface is a reviewed code change, and
//! the table doubles as documentation (see `DESIGN.md` "Static analysis
//! & invariants").

/// Rule configuration for one workspace.
#[derive(Debug, Clone)]
pub struct Config {
    /// Modules where `panic-path` applies: decode/serve code that must
    /// return typed errors instead of panicking. Entries ending in `/`
    /// are directory prefixes; others are exact file paths (relative to
    /// the workspace root, `/`-separated).
    pub panic_free: Vec<String>,
    /// Files whose float folds define the canonical in-order kernels;
    /// `float-fold` fires everywhere else.
    pub float_blessed: Vec<String>,
    /// Files allowed to call `thread::spawn` (the pool is the only
    /// sanctioned thread source).
    pub spawn_blessed: Vec<String>,
    /// Files whose `Ordering::Relaxed` is the point (the stats-counter
    /// module); `atomic-ordering` fires everywhere else.
    pub relaxed_blessed: Vec<String>,
    /// Files where `lossy-cast` applies (length/offset decoding).
    pub cast_checked: Vec<String>,
    /// The declared engine lock order: a lock may only be acquired while
    /// holding locks of *strictly lower* rank. Names are the receiver
    /// identifiers as they appear at call sites.
    pub lock_ranks: Vec<(String, u8)>,
}

impl Config {
    /// The GeoBlocks workspace configuration.
    pub fn workspace() -> Config {
        let s = |v: &[&str]| v.iter().map(|p| (*p).to_string()).collect();
        Config {
            panic_free: s(&[
                "crates/store/src/",
                "crates/serve/src/",
                "crates/trace/src/",
                "crates/core/src/api.rs",
                "crates/core/src/snapshot.rs",
                "crates/core/src/engine.rs",
                "crates/core/src/memo.rs",
                // The record lookup, the batch commit and the record
                // layout under both: every `/v1/select` and `/v1/update`
                // runs through them.
                "crates/core/src/query.rs",
                "crates/core/src/update.rs",
                "crates/core/src/layer.rs",
                // Runs under the result-cache and memo-shard locks on
                // the request path.
                "crates/common/src/fifo_map.rs",
                // Every query runs the coverer, on a polygon from the
                // network.
                "crates/cell/src/cover.rs",
            ]),
            float_blessed: s(&["crates/core/src/layer.rs", "crates/core/src/aggregate.rs"]),
            // `gb_check` wraps every model thread in a real OS thread it
            // fully schedules; it is the second sanctioned thread source.
            spawn_blessed: s(&["crates/common/src/pool.rs", "crates/check/src/"]),
            cast_checked: s(&[
                "crates/store/src/lib.rs",
                "crates/core/src/snapshot.rs",
                // Row indices are stored as `u32`: the one narrowing is
                // checked where a raw table enters the extract.
                "crates/data/src/extract.rs",
                "crates/data/src/table.rs",
            ]),
            relaxed_blessed: s(&["crates/common/src/stats.rs"]),
            // The workspace lock order: the publisher guard first, then
            // the covering-memo shards (leaf locks that never nest), then
            // the state pointer (block + data epoch), then the serve-layer
            // leaf locks (result-cache entries, quota buckets). The same
            // table is enforced at runtime by `gb_common::sync` and at
            // model time by `gb_check`.
            lock_ranks: vec![
                ("publish_guard".to_string(), 0),
                ("memo".to_string(), 1),
                ("state".to_string(), 2),
                ("entries".to_string(), 4),
                ("buckets".to_string(), 4),
                // gb_serve's per-worker handle on the stream being
                // served: one store, or one `shutdown(2)` on stop.
                ("serving".to_string(), 4),
                // Flight-recorder rings (gb_trace): leaf locks, never
                // held across any other acquisition.
                ("traces".to_string(), 4),
            ],
        }
    }

    /// Does `path` fall under the `panic_free` module list?
    pub fn is_panic_free(&self, path: &str) -> bool {
        Self::listed(&self.panic_free, path)
    }

    /// Is `path` one of the blessed fold-kernel files?
    pub fn is_float_blessed(&self, path: &str) -> bool {
        Self::listed(&self.float_blessed, path)
    }

    /// May `path` spawn threads?
    pub fn is_spawn_blessed(&self, path: &str) -> bool {
        Self::listed(&self.spawn_blessed, path)
    }

    /// Does `path` get the narrowing-cast rule?
    pub fn is_cast_checked(&self, path: &str) -> bool {
        Self::listed(&self.cast_checked, path)
    }

    /// May `path` use `Ordering::Relaxed` without justification?
    pub fn is_relaxed_blessed(&self, path: &str) -> bool {
        Self::listed(&self.relaxed_blessed, path)
    }

    /// Rank of a lock receiver name, if it is a declared engine lock.
    pub fn lock_rank(&self, name: &str) -> Option<u8> {
        self.lock_ranks
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, r)| r)
    }

    fn listed(list: &[String], path: &str) -> bool {
        list.iter()
            .any(|p| path == p || (p.ends_with('/') && path.starts_with(p.as_str())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_and_exact_matching() {
        let cfg = Config::workspace();
        assert!(cfg.is_panic_free("crates/store/src/lib.rs"));
        assert!(cfg.is_panic_free("crates/core/src/snapshot.rs"));
        assert!(cfg.is_panic_free("crates/trace/src/lib.rs"));
        assert!(cfg.is_panic_free("crates/common/src/fifo_map.rs"));
        assert!(cfg.is_panic_free("crates/cell/src/cover.rs"));
        assert!(cfg.is_panic_free("crates/core/src/query.rs"));
        assert!(cfg.is_panic_free("crates/core/src/update.rs"));
        assert!(cfg.is_panic_free("crates/core/src/layer.rs"));
        assert!(!cfg.is_panic_free("crates/common/src/pool.rs"));
        assert!(!cfg.is_panic_free("crates/core/src/block.rs"));
        assert!(cfg.is_float_blessed("crates/core/src/layer.rs"));
        assert!(cfg.is_spawn_blessed("crates/common/src/pool.rs"));
        assert!(!cfg.is_spawn_blessed("crates/core/src/engine.rs"));
        assert!(cfg.is_cast_checked("crates/data/src/extract.rs"));
        assert!(cfg.is_cast_checked("crates/data/src/table.rs"));
        assert!(!cfg.is_cast_checked("crates/data/src/datasets.rs"));
    }

    #[test]
    fn lock_ranks_are_ordered() {
        let cfg = Config::workspace();
        assert!(cfg.lock_rank("publish_guard") < cfg.lock_rank("memo"));
        assert!(cfg.lock_rank("memo") < cfg.lock_rank("state"));
        assert!(cfg.lock_rank("state") < cfg.lock_rank("entries"));
        assert_eq!(cfg.lock_rank("entries"), cfg.lock_rank("buckets"));
        assert_eq!(cfg.lock_rank("traces"), cfg.lock_rank("entries"));
        assert_eq!(cfg.lock_rank("hit_log"), None);
        assert_eq!(cfg.lock_rank("trie"), None);
        assert_eq!(cfg.lock_rank("rebuild_guard"), None);
        assert_eq!(cfg.lock_rank("queue"), None);
    }

    #[test]
    fn relaxed_and_spawn_blessings_are_scoped() {
        let cfg = Config::workspace();
        assert!(cfg.is_relaxed_blessed("crates/common/src/stats.rs"));
        assert!(!cfg.is_relaxed_blessed("crates/common/src/pool.rs"));
        assert!(!cfg.is_relaxed_blessed("crates/serve/src/metrics.rs"));
        assert!(cfg.is_spawn_blessed("crates/check/src/thread_api.rs"));
        assert!(!cfg.is_spawn_blessed("crates/check/tests/kernels.rs"));
    }
}
