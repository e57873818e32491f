//! Compare two bench-record JSON files and fail on regressions — the CI
//! perf gate, equally usable locally:
//!
//! ```text
//! bench_diff <baseline.json> <current.json> [--tolerance F] [--ratio NUM DEN MAX]...
//!
//!   --tolerance F   fail when current median > F × baseline median
//!                   (default: $BENCH_TOLERANCE, else 2.0)
//!   --ratio NUM DEN MAX
//!                   fail when, within <current.json>, median(NUM) >
//!                   MAX × median(DEN): a gate between two arms of one
//!                   run, which needs no baseline row and holds on any
//!                   host. A missing arm is an error (exit 2).
//! ```
//!
//! Exit codes: 0 = no regressions, 1 = at least one benchmark regressed,
//! 2 = usage/IO error. Benchmarks present on only one side are reported
//! but never fail the gate (benches come and go across PRs; hard-failing
//! on renames would make the gate brittle instead of protective).

use gb_bench::json::{arm_ratio, diff_records, read_jsonl, render_diff};
use std::path::Path;

fn usage() -> ! {
    eprintln!(
        "usage: bench_diff <baseline.json> <current.json> [--tolerance F] [--ratio NUM DEN MAX]..."
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut tolerance: Option<f64> = None;
    let mut ratios: Vec<(&str, &str, f64)> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance" => {
                i += 1;
                tolerance = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--ratio" => {
                let (Some(num), Some(den), Some(max)) = (
                    args.get(i + 1),
                    args.get(i + 2),
                    args.get(i + 3).and_then(|s| s.parse().ok()),
                ) else {
                    usage();
                };
                ratios.push((num, den, max));
                i += 3;
            }
            p => paths.push(p),
        }
        i += 1;
    }
    let [baseline_path, current_path] = paths[..] else {
        usage();
    };
    let tolerance = tolerance
        .or_else(|| {
            std::env::var("BENCH_TOLERANCE")
                .ok()
                .and_then(|s| s.parse().ok())
        })
        .unwrap_or(2.0);
    if tolerance <= 0.0 {
        eprintln!("bench_diff: tolerance must be positive, got {tolerance}");
        std::process::exit(2);
    }

    let read = |p: &str| {
        read_jsonl(Path::new(p)).unwrap_or_else(|e| {
            eprintln!("bench_diff: cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let baseline = read(baseline_path);
    let current = read(current_path);
    if baseline.is_empty() {
        eprintln!("bench_diff: no records in baseline {baseline_path}");
        std::process::exit(2);
    }
    // An empty or disjoint current side means the gate would compare
    // nothing and "pass" — that is a broken pipeline (producer not run,
    // format drift), not a clean bill of health.
    if current.is_empty() {
        eprintln!("bench_diff: no records in current {current_path} — did the producers run?");
        std::process::exit(2);
    }

    let diff = diff_records(&baseline, &current, tolerance);
    if diff.rows.is_empty() {
        eprintln!(
            "bench_diff: no benchmark id overlaps between {baseline_path} and {current_path} — \
             refusing to pass an empty comparison"
        );
        std::process::exit(2);
    }
    println!(
        "# bench_diff: {} vs {} (tolerance {tolerance}x, {} compared)",
        baseline_path,
        current_path,
        diff.rows.len()
    );
    print!("{}", render_diff(&diff, tolerance));

    let mut over = false;
    for (num, den, max) in ratios {
        let Some(ratio) = arm_ratio(&current, num, den) else {
            eprintln!("bench_diff: --ratio needs both {num} and {den} in {current_path}");
            std::process::exit(2);
        };
        let status = if ratio > max { "FAIL" } else { "OK" };
        println!("# {status}: ratio {num} / {den} = {ratio:.2} (max {max})");
        over |= ratio > max;
    }

    let regressed: Vec<_> = diff.regressions().collect();
    if regressed.is_empty() {
        println!("# OK: no benchmark regressed beyond {tolerance}x");
    } else {
        println!(
            "# FAIL: {} benchmark(s) regressed beyond {tolerance}x:",
            regressed.len()
        );
        for r in &regressed {
            println!("#   {} — {:.2}x slower", r.id, r.ratio);
        }
    }
    if over || !regressed.is_empty() {
        std::process::exit(1);
    }
}
