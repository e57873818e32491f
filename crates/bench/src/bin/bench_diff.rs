//! Gate a bench-record JSON file on ratios between arms of one run — the
//! CI perf gate, equally usable locally:
//!
//! ```text
//! bench_diff <records.json> --ratio NUM DEN MAX [--ratio NUM DEN MAX]...
//!
//!   --ratio NUM DEN MAX
//!                   fail when median(NUM) > MAX × median(DEN) within
//!                   <records.json>. Arms measured side by side in one run
//!                   need no checked-in baseline and hold on any host;
//!                   MAX = inf prints the ratio without gating it.
//! ```
//!
//! Exit codes: 0 = every ratio within its bound, 1 = at least one ratio
//! over it, 2 = usage/IO error — including a missing arm or no `--ratio`
//! at all: a gate that compares nothing is a broken pipeline, not a pass.

use gb_bench::json::{arm_ratio, read_jsonl};
use std::path::Path;

fn usage() -> ! {
    eprintln!("usage: bench_diff <records.json> --ratio NUM DEN MAX [--ratio NUM DEN MAX]...");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut ratios: Vec<(&str, &str, f64)> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
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
    let [path] = paths[..] else {
        usage();
    };
    if ratios.is_empty() {
        usage();
    }
    let records = read_jsonl(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("bench_diff: cannot read {path}: {e}");
        std::process::exit(2);
    });

    let mut over = false;
    for (num, den, max) in ratios {
        let Some(ratio) = arm_ratio(&records, num, den) else {
            eprintln!("bench_diff: --ratio needs both {num} and {den} in {path}");
            std::process::exit(2);
        };
        let status = if ratio > max { "FAIL" } else { "OK" };
        println!("# {status}: ratio {num} / {den} = {ratio:.2} (max {max})");
        over |= ratio > max;
    }
    if over {
        std::process::exit(1);
    }
}
