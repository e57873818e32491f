//! `gbmark` — the repository's serving benchmark. One invocation builds
//! the dataset from `--seed`, serves it with `gb_serve` on a loopback
//! port, checks answers, drives one of four workloads from this process
//! for `--seconds`, and prints every metric by name with its unit; the
//! last line of standard output is the result as one JSON object.
//! `README.md` explains the workloads, the layers and how to read them.

mod e2e;
mod gates;
mod layers;
mod ledger;
mod load;
mod metrics;
mod stats;
mod sut;
mod workload;

use gb_data::{AggSpec, Rows};
use metrics::{Table, END_TO_END, PER_LAYER};
use std::time::Duration;
use workload::Workload;

const USAGE: &str = "usage: gbmark --workload <dash_hot|explore_fresh|mixed_update|rate_steps> \
[--seed N] [--seconds S] [--trace 0|1] [--quick] [--trace-out PATH]";

/// Requests of the stream the traced replay walks.
const REPLAY_REQUESTS: usize = 20_000;
/// Polygons the isolated layer timings run on (fewer if the stream has fewer).
const ISOLATED_POLYGONS: usize = 1_000;

#[derive(Debug)]
pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Tiny dataset and counts: a smoke test of every code path, not a
    /// measurement.
    quick: bool,
    trace_out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: Workload::DashHot,
        seed: 1,
        seconds: 15.0,
        trace: false,
        quick: false,
        trace_out: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => out.quick = true,
            "--trace-out" => out.trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    out.workload = workload.ok_or("--workload is required")?;
    Ok(out)
}

/// What a run hands back: the metrics to print and the request totals.
pub struct Outcome {
    rows: Vec<(&'static str, &'static str, stats::Spread, String)>,
    attempted: u64,
    failed: u64,
    /// Identity of the first round's stream: same seed, same hash.
    stream_hash: u64,
}

/// The whole run for `args`. An `Err` is a failed gate or a broken run:
/// the caller exits non-zero without printing a result.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let rows = if args.quick {
        sut::QUICK_ROWS
    } else {
        sut::ROWS
    };
    let ds = sut::dataset(rows, args.seed);
    let schema = ds.data.raw.schema();
    let spec = AggSpec::k_aggregates(schema, sut::AGGREGATES);
    let per_round = Duration::from_secs_f64(args.seconds / e2e::ROUNDS as f64);
    // Round `r` draws its own stream: component `r` of the seed.
    let stream_of = |r: usize| {
        let seed = workload::Rng::new(args.seed, 100 + r as u64).next_u64();
        let fresh = e2e::fresh_positions(per_round);
        workload::stream(args.workload, seed, &spec, schema.len(), fresh)
    };
    let first = stream_of(0);
    let stream_hash = first.hash(1000);

    // Gates first, on a server of their own, so the timed servers start
    // from the state a set-up leaves and nothing else.
    let accuracy = {
        let sut = e2e::fresh_sut(&ds, args.workload, &first)?;
        gates::before_timing(&sut, &first, args.seed)?
    };
    let mut first = Some(first);

    // The same rounds with tracing on or off; a traced run then replays
    // the last round's stream in-process and times the layers one by one.
    let mut table = Table::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut last = None;
    for r in 0..e2e::ROUNDS {
        drop(last.take()); // stop the previous round's server first
        let stream = first.take().unwrap_or_else(|| stream_of(r));
        let round = e2e::round(&ds, args.workload, &stream, per_round)?;
        e2e::record(&mut table, &round);
        let (a, f) = e2e::totals(&round);
        attempted += a;
        failed += f;
        last = Some((round, stream));
    }
    table.record("e2e.fail_ratio", failed as f64 / attempted.max(1) as f64);
    table.record("e2e.rel_err_max", accuracy.rel_err_max);
    table.record("e2e.rel_err_agg", accuracy.rel_err_agg);
    table.record("gen.dataset_s", ds.gen_s);
    let declared: &[(&str, &str)] = if args.trace {
        let (round, stream) = last.as_ref().ok_or("no round ran")?;
        traced(&mut table, args, &round.sut, stream)?;
        &PER_LAYER
    } else {
        &END_TO_END
    };
    Ok(Outcome {
        rows: table.finish(declared)?,
        attempted,
        failed,
        stream_hash,
    })
}

/// The traced run proper: the replay's ledger (part A) and every layer
/// timed in isolation (parts B and C), on the last round's block, stream
/// and live server.
fn traced(
    table: &mut Table,
    args: &Args,
    sut: &sut::Sut,
    stream: &workload::Stream,
) -> Result<(), String> {
    let n = if args.quick { 300 } else { REPLAY_REQUESTS };
    let (_, _, plain_counts, plain_ns) = ledger::replay(&sut.block, stream, n, false)?;
    let (pipeline, recorder, counts, traced_ns) = ledger::replay(&sut.block, stream, n, true)?;
    if counts != plain_counts {
        return Err(format!(
            "replay: counts differ with tracing on: {counts:?} vs {plain_counts:?}"
        ));
    }
    let residuals = ledger::residuals(recorder.spans());
    table.record("ledger.hit_residual_ratio", residuals.hit);
    table.record("ledger.miss_residual_ratio", residuals.miss);
    table.record("ledger.engine_share", residuals.engine_share);
    table.record("trace.overhead_ratio", traced_ns / plain_ns.max(1.0) - 1.0);
    table.note(
        "trace.overhead_ratio",
        format!(
            "{} requests, {} spans",
            counts.requests,
            recorder.spans().len()
        ),
    );
    let per_computed = |total: u64| total as f64 / counts.computed.max(1) as f64;
    table.record("query.cells_combined", per_computed(counts.cells_combined));
    table.record("query.searches", per_computed(counts.searches));
    if let Some(path) = &args.trace_out {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        recorder
            .write_jsonl(&mut std::io::BufWriter::new(file))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let polygons = if args.quick { 32 } else { ISOLATED_POLYGONS };
    layers::isolated(table, sut, &pipeline, stream, args.seed, polygons)
}

/// `{"value": v, "unit": "u"}` entries keyed by metric name; numbers are
/// printed with every digit they have.
fn json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .rows
        .iter()
        .map(|(name, unit, spread, _)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                spread.mid
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gbmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!(
                "# {} seed={} stream={:016x} seconds={} trace={} threads={} nproc={}",
                args.workload.name(),
                args.seed,
                outcome.stream_hash,
                args.seconds,
                u8::from(args.trace),
                sut::THREADS,
                std::thread::available_parallelism().map_or(0, |n| n.get()),
            );
            for (name, unit, s, note) in &outcome.rows {
                println!(
                    "{:<14} {name:<30} {:>16.3} {unit:<6} min {:.3} max {:.3} rounds {} {note}",
                    args.workload.name(),
                    s.mid,
                    s.min,
                    s.max,
                    s.n
                );
            }
            println!("{}", json(&outcome));
        }
        Err(e) => {
            eprintln!("gbmark: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of `section` in `BENCHMARK.json`
    /// (`unit` is empty for a workload). The file is flat enough that a
    /// scan for the two keys reads it; no JSON crate is available offline.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let from = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[from..];
        let body = &body[..body.find(']').expect("section is an array")];
        let string_after = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\""))? + key.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"')? + 1;
            let close = open + rest[open..].find('"')?;
            Some(rest[open..close].to_string())
        };
        body.split('{')
            .skip(1)
            .map(|entry| {
                (
                    string_after(entry, "name").expect("entry has a name"),
                    string_after(entry, "unit").unwrap_or_default(),
                )
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_printed() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        let legal = |s: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .all(|(n, _)| legal(n) && n.len() <= 64));
    }

    /// `--quick` on every workload, traced (the same rounds, then the
    /// replay and the layers), and once untraced: every gate passes,
    /// nothing fails, and each run yields exactly the declared metrics
    /// (`Table::finish` refuses to return fewer).
    #[test]
    fn quick_mode_runs_every_workload_and_the_traced_replay() {
        for workload in Workload::ALL {
            for trace in [true, false] {
                if !trace && workload != Workload::DashHot {
                    continue;
                }
                let args = Args {
                    workload,
                    seed: 3,
                    seconds: 0.4,
                    trace,
                    quick: true,
                    trace_out: None,
                };
                let outcome =
                    run(&args).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
                assert_eq!(outcome.failed, 0, "{} trace={trace}", workload.name());
                assert!(outcome.attempted > 0);
                let printed: Vec<&str> = outcome.rows.iter().map(|r| r.0).collect();
                let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                assert_eq!(printed, table.iter().map(|r| r.0).collect::<Vec<_>>());
                assert!(json(&outcome).starts_with("{\"correct\": true, \"attempted\": "));
            }
        }
    }

    /// Same seed, same single-threaded replay: the count metrics repeat
    /// exactly (the stream hash is held equal in `workload`'s tests).
    #[test]
    fn replay_counts_repeat_for_a_seed() {
        let ds = sut::dataset(sut::QUICK_ROWS, 9);
        let spec = AggSpec::k_aggregates(ds.data.raw.schema(), sut::AGGREGATES);
        let n_cols = ds.data.raw.schema().len();
        for workload in [Workload::ExploreFresh, Workload::MixedUpdate] {
            // Far enough to pass the first update of `mixed_update`.
            let stream = workload::stream(workload, 9, &spec, n_cols, 800);
            let sut = e2e::fresh_sut(&ds, workload, &stream).expect("set-up");
            let counts = |record| {
                ledger::replay(&sut.block, &stream, 700, record)
                    .expect("replay")
                    .2
            };
            let first = counts(true);
            assert_eq!(first, counts(true));
            assert_eq!(first, counts(false));
            assert_eq!(first.requests, 700);
            assert!(first.computed > 0 && first.query_cells > 0 && first.cells_combined > 0);
        }
    }
}
