//! The reproduction driver: regenerates every table and figure of the
//! paper's evaluation section, plus the `scale-threads` hardware-scaling
//! sweep (its `--json` records are for reading; no gate consumes them)
//! and the `persist` snapshot save/load-vs-rebuild experiment.
//!
//! ```text
//! repro <experiment|all> [--scale F] [--seed N] [--write PATH]
//!                        [--threads LIST] [--json PATH]
//! repro serve [--addr HOST:PORT] [--scale F] [--seed N]
//!
//!   experiments: fig10 fig11a fig11b fig11c table2 fig12 fig13 fig14
//!                fig15 fig16 fig17 fig18 fig19 scale-threads persist
//!                trace-report all
//!   --scale F      multiply dataset sizes (default 1.0; 30 ≈ paper scale)
//!   --seed N       master RNG seed (default 42)
//!   --write PATH   also append the markdown reports to PATH
//!   --threads LIST comma-separated thread counts for scale-threads
//!                  (default "1,2,4,8")
//!   --addr A       bind address for `serve` (default 127.0.0.1:7171)
//!   --json PATH    write machine-readable BenchRecords (JSON lines) —
//!                  scale-threads, persist, and trace-report produce them
//! ```
//!
//! `serve` builds the primary dataset, wraps it in a `gb_serve` server,
//! and blocks in the foreground until killed — the manual smoke test of
//! the serving path (gbmark is its load generator).
//!
//! Errors (unknown columns, unwritable output files) are printed as one
//! clean line on stderr and exit with status 1 — the driver never
//! panics on malformed input.

use gb_bench::experiments;
use gb_bench::json::BenchRecord;
use gb_bench::report::Report;
use gb_bench::Ctx;

fn usage() -> ! {
    eprintln!(
        "usage: repro <fig10|fig11a|fig11b|fig11c|table2|fig12|fig13|fig14|fig15|fig16|fig17|fig18|fig19|scale-threads|persist|serve|trace-report|all> \
         [--scale F] [--seed N] [--write PATH] [--threads LIST] [--addr A] [--json PATH]"
    );
    std::process::exit(2);
}

fn main() {
    if let Err(e) = run() {
        eprintln!("repro: error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let exp = args[0].clone();
    let mut ctx = Ctx::default();
    let mut write_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut threads: Vec<usize> = vec![1, 2, 4, 8];
    let mut addr = "127.0.0.1:7171".to_string();

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                ctx.scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                ctx.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--write" => {
                i += 1;
                write_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .map(|s| {
                        s.split(',')
                            .map(|x| x.trim().parse::<usize>().unwrap_or_else(|_| usage()))
                            .filter(|&t| t > 0)
                            .collect()
                    })
                    .unwrap_or_else(|| usage());
                if threads.is_empty() {
                    usage();
                }
            }
            "--addr" => {
                i += 1;
                addr = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }

    if exp == "serve" {
        return serve_foreground(&ctx, &addr);
    }

    eprintln!("# repro: {exp} (scale {}, seed {})", ctx.scale, ctx.seed);
    let t = gb_common::Timer::start();
    let mut bench_records: Vec<BenchRecord> = Vec::new();
    let reports: Vec<Report> = match exp.as_str() {
        "fig10" => vec![experiments::fig10(&ctx)],
        "fig11a" => vec![experiments::fig11a(&ctx)],
        "fig11b" => vec![experiments::fig11b(&ctx)],
        "fig11c" | "table2" => vec![experiments::fig11c_table2(&ctx)],
        "fig12" => vec![experiments::fig12(&ctx)],
        "fig13" => vec![experiments::fig13(&ctx)],
        "fig14" => vec![experiments::fig14(&ctx)],
        "fig15" => vec![experiments::fig15(&ctx)],
        "fig16" => vec![experiments::fig16(&ctx)],
        "fig17" => vec![experiments::fig17(&ctx)],
        "fig18" => vec![experiments::fig18(&ctx)],
        "fig19" => vec![experiments::fig19(&ctx).map_err(|e| e.to_string())?],
        "scale-threads" => {
            let (rep, recs) = experiments::scale_threads(&ctx, &threads);
            bench_records = recs;
            vec![rep]
        }
        "persist" => {
            let (rep, recs) = experiments::persist(&ctx)?;
            bench_records = recs;
            vec![rep]
        }
        "trace-report" => {
            let (rep, recs) = experiments::trace_report(&ctx)?;
            bench_records = recs;
            vec![rep]
        }
        "all" => {
            let (reps, recs) = experiments::all(&ctx)?;
            bench_records = recs;
            reps
        }
        _ => usage(),
    };
    eprintln!("# completed in {:.1} s", t.elapsed().as_secs_f64());

    for r in &reports {
        r.print();
    }

    if let Some(path) = write_path {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot open report file {path:?}: {e}"))?;
        for r in &reports {
            writeln!(f, "{}", r.to_markdown())
                .map_err(|e| format!("cannot write report to {path:?}: {e}"))?;
        }
        eprintln!("# appended {} report(s) to {path}", reports.len());
    }

    if let Some(path) = json_path {
        gb_bench::json::write_jsonl(std::path::Path::new(&path), &bench_records, false)
            .map_err(|e| format!("cannot write bench json to {path:?}: {e}"))?;
        eprintln!("# wrote {} bench record(s) to {path}", bench_records.len());
    }
    Ok(())
}

/// `repro serve`: build the primary dataset, wrap it in a `gb_serve`
/// server on `addr`, and block until the process is killed.
fn serve_foreground(ctx: &Ctx, addr: &str) -> Result<(), String> {
    use gb_data::{datasets, extract, Filter, Rows};
    use gb_serve::{GbServer, RunningServer, ServeConfig};
    use std::sync::Arc;

    eprintln!(
        "# building primary dataset (scale {}, seed {})...",
        ctx.scale, ctx.seed
    );
    let t = gb_common::Timer::start();
    let ds = datasets::nyc_taxi(ctx.rows(200_000), ctx.seed);
    let base = extract(&ds.raw, ds.grid, &datasets::nyc_cleaning_rules(), None).base;
    let (block, _) = geoblocks::build(&base, 12, &Filter::all());
    let engine = Arc::new(geoblocks::GeoBlockEngine::new(block));
    eprintln!(
        "# built {} rows in {:.1} s",
        base.num_rows(),
        t.elapsed().as_secs_f64()
    );

    let server = GbServer::new(engine, ServeConfig::default());
    let running = RunningServer::start(server, addr)
        .map_err(|e| format!("cannot start server on {addr}: {e}"))?;
    eprintln!("# serving on http://{}", running.addr());
    eprintln!("#   POST /v1/select /v1/count /v1/update /v1/query /v1/batch (wire bodies)");
    eprintln!("#   GET  /metrics /healthz /v1/debug/traces /v1/debug/slow");
    eprintln!("# ctrl-c to stop");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
