//! The fixed system under test: one dataset, one block level, one engine
//! and server configuration, identical for every workload. A later change
//! that wants different numbers changes the program, not these constants.

use crate::workload::Req;
use gb_data::{datasets, extract, AggSpec, BaseTable, Filter, Rows};
use gb_serve::{client, GbServer, RunningServer, ServeConfig};
use geoblocks::api::{self, QueryRequest};
use geoblocks::{build, GeoBlock, GeoBlockEngine, RebuildPolicy};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Rows generated by `nyc_taxi` (cleaning drops about half a percent).
pub const ROWS: usize = 1_000_000;
/// Rows in `--quick` mode.
pub const QUICK_ROWS: usize = 20_000;
/// Block level 10 on the 60 km domain = the paper's S2 level 17.
pub const LEVEL: u8 = 10;
/// Trie budget as a share of the block's aggregate bytes.
pub const THRESHOLD: f64 = 0.05;
/// `EveryN`, not the default `Manual`: nothing in `gb_serve` ever calls
/// `rebuild_cache`, so under `Manual` the trie would stay empty for the
/// whole run and the paper's cache would go unmeasured.
pub const REBUILD_EVERY: usize = 4096;
/// Server workers = client threads = connections = `nproc` of the box the
/// baseline was recorded on. Never more clients than this.
pub const THREADS: usize = 2;
/// Aggregates per SELECT (the paper's default).
pub const AGGREGATES: usize = 7;

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        threads: THREADS,
        ..ServeConfig::default()
    }
}

pub fn engine_over(block: Arc<GeoBlock>) -> Result<GeoBlockEngine, String> {
    GeoBlockEngine::builder()
        .block_arc(block)
        .threshold(THRESHOLD)
        .policy(RebuildPolicy::EveryN(REBUILD_EVERY))
        .build()
        .map_err(|e| format!("engine: {e}"))
}

/// The generated raw data; generation time is reported, never part of
/// `setup_s`.
pub struct Dataset {
    pub data: datasets::Dataset,
    pub gen_s: f64,
}

pub fn dataset(rows: usize, seed: u64) -> Dataset {
    let t = Instant::now();
    let data = datasets::nyc_taxi(rows, seed);
    Dataset {
        data,
        gen_s: t.elapsed().as_secs_f64(),
    }
}

/// Where one set-up spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub extract_ms: f64,
    pub block_ms: f64,
    pub engine_new_ms: f64,
    pub serve_start_ms: f64,
    /// Everything from `extract` to the first reply.
    pub total_s: f64,
}

/// A live server plus what the gates and the ledger need from its build.
pub struct Sut {
    pub running: RunningServer,
    pub base: BaseTable,
    pub block: Arc<GeoBlock>,
    pub spec: AggSpec,
    pub times: SetupTimes,
}

impl Sut {
    pub fn engine(&self) -> &Arc<GeoBlockEngine> {
        self.running.server().engine()
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// extract → build → engine → server start → first reply, timed.
///
/// With `restart` (the `dash_hot` set-up) the engine is first warmed with
/// `warm`, snapshotted to `scratch`, and the server is started over an
/// engine restored from that file: `GbServer::new` then replays the
/// persisted hot shapes into its result cache, the restart path a
/// dashboard deployment takes.
pub fn setup(ds: &Dataset, restart: Option<(&[Req], &Path)>, first: &Req) -> Result<Sut, String> {
    let total = Instant::now();
    let t = Instant::now();
    let base = extract(
        &ds.data.raw,
        ds.data.grid,
        &datasets::nyc_cleaning_rules(),
        None,
    )
    .base;
    let extract_ms = ms(t);

    let t = Instant::now();
    let (block, _) = build(&base, LEVEL, &Filter::all());
    let block_ms = ms(t);
    let block = Arc::new(block);
    let spec = AggSpec::k_aggregates(base.schema(), AGGREGATES);

    let t = Instant::now();
    let mut engine = engine_over(Arc::clone(&block))?;
    let engine_new_ms = ms(t);

    if let Some((warm, scratch)) = restart {
        for req in warm {
            let typed = api::decode_request(&req.body).map_err(|e| format!("warm: {e}"))?;
            engine.query(&typed).map_err(|e| format!("warm: {e}"))?;
        }
        engine
            .write_snapshot(scratch)
            .map_err(|e| format!("snapshot save: {e}"))?;
        engine = GeoBlockEngine::builder()
            .snapshot(scratch)
            .threshold(THRESHOLD)
            .policy(RebuildPolicy::EveryN(REBUILD_EVERY))
            .build()
            .map_err(|e| format!("snapshot load: {e}"))?;
        let _ = std::fs::remove_file(scratch);
    }

    let t = Instant::now();
    let server = GbServer::new(Arc::new(engine), serve_config());
    let running =
        RunningServer::start(server, "127.0.0.1:0").map_err(|e| format!("server start: {e}"))?;
    let serve_start_ms = ms(t);

    // One-shot connection: it must be gone before the two keep-alive
    // clients connect, or it would pin one of the two workers.
    let reply = client::request(running.addr(), "POST", first.kind.path(), &[], &first.body)
        .map_err(|e| format!("first request: {e}"))?;
    if reply.status != 200 {
        return Err(format!("first request: HTTP {}", reply.status));
    }
    let times = SetupTimes {
        extract_ms,
        block_ms,
        engine_new_ms,
        serve_start_ms,
        total_s: total.elapsed().as_secs_f64(),
    };
    Ok(Sut {
        running,
        base,
        block,
        spec,
        times,
    })
}

/// A request over the whole domain, for the "no row lost" update gate.
pub fn whole_domain_count() -> QueryRequest {
    let d = datasets::nyc_domain();
    QueryRequest::Count {
        polygon: gb_geom::Polygon::new(d.corners().to_vec()),
    }
}

/// The file the restart path snapshots to: under the build directory the
/// driver names, so nothing is written outside the checkout.
pub fn scratch_file() -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("gbmark-{}.gbsnap", std::process::id()))
}
