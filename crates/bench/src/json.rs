//! Machine-readable benchmark records: a tiny JSON-lines format shared by
//! `repro scale-threads`, the vendored criterion shim, and the
//! `bench_diff` regression gate.
//!
//! One JSON object per line, fixed keys:
//!
//! ```json
//! {"id":"scale-threads/build/t4","mean_ns":12345.6,"median_ns":12000.0,"iters":3}
//! ```
//!
//! Writer and parser live together here; the one producer that cannot
//! reuse them is the vendored criterion shim (`vendor/criterion`'s
//! `emit_json` — a vendor crate must not depend on `gb_bench`), which
//! hand-rolls the identical line format. When changing keys, precision,
//! or escaping here, mirror the change there; the
//! `parses_vendored_criterion_shim_output` test pins the shim's exact
//! output shape. No serde — the workspace has no crates.io access — but
//! the key set is small and the parser tolerates any key order and extra
//! keys.
//!
//! All values are "lower is better" (nanoseconds per unit of work);
//! throughput-style experiments convert to ns/query before recording, so
//! a ratio between two arms never needs per-metric direction flags.

use std::io::Write as _;
use std::path::Path;

/// One measured benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Stable identifier, e.g. `core_ops/select/level10` or
    /// `scale-threads/build/t4`.
    pub id: String,
    /// Mean nanoseconds per iteration/query.
    pub mean_ns: f64,
    /// Median nanoseconds per iteration/query.
    pub median_ns: f64,
    /// Iterations (or queries) behind the measurement.
    pub iters: u64,
}

impl BenchRecord {
    pub fn new(id: impl Into<String>, mean_ns: f64, median_ns: f64, iters: u64) -> Self {
        BenchRecord {
            id: id.into(),
            mean_ns,
            median_ns,
            iters,
        }
    }

    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let escaped: String = self
            .id
            .chars()
            .flat_map(|c| match c {
                '"' | '\\' => vec!['\\', c],
                _ => vec![c],
            })
            .collect();
        format!(
            "{{\"id\":\"{}\",\"mean_ns\":{:.3},\"median_ns\":{:.3},\"iters\":{}}}",
            escaped, self.mean_ns, self.median_ns, self.iters
        )
    }

    /// Parse one JSON line. Returns `None` for blank lines, comments, or
    /// lines without the required keys (so a file can be concatenated from
    /// multiple producers without ceremony).
    pub fn parse_json_line(line: &str) -> Option<BenchRecord> {
        let line = line.trim();
        if line.is_empty() || !line.starts_with('{') {
            return None;
        }
        let id = extract_string(line, "id")?;
        let mean_ns = extract_number(line, "mean_ns")?;
        let median_ns = extract_number(line, "median_ns").unwrap_or(mean_ns);
        let iters = extract_number(line, "iters").unwrap_or(1.0) as u64;
        Some(BenchRecord {
            id,
            mean_ns,
            median_ns,
            iters,
        })
    }
}

/// Extract `"key":"value"` (handles `\"` and `\\` escapes in the value).
fn extract_string(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let mut rest = &line[line.find(&pat)? + pat.len()..];
    rest = rest.trim_start();
    rest = rest.strip_prefix(':')?.trim_start();
    rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => out.push(chars.next()?),
            '"' => return Some(out),
            _ => out.push(c),
        }
    }
    None
}

/// Extract `"key":number`.
fn extract_number(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let mut rest = &line[line.find(&pat)? + pat.len()..];
    rest = rest.trim_start();
    rest = rest.strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Append (or truncate-and-write) records to a JSON-lines file.
pub fn write_jsonl(path: &Path, records: &[BenchRecord], append: bool) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(append)
        .write(true)
        .truncate(!append)
        .open(path)?;
    for r in records {
        writeln!(f, "{}", r.to_json_line())?;
    }
    Ok(())
}

/// Read every parseable record from a JSON-lines file. Producers append
/// (the criterion shim never truncates), so a reused file can hold
/// several records per id — the **last** occurrence wins, keeping the
/// freshest measurement and protecting the gate from judging stale
/// numbers.
pub fn read_jsonl(path: &Path) -> std::io::Result<Vec<BenchRecord>> {
    let text = std::fs::read_to_string(path)?;
    let mut out: Vec<BenchRecord> = Vec::new();
    for rec in text.lines().filter_map(BenchRecord::parse_json_line) {
        match out.iter_mut().find(|r| r.id == rec.id) {
            Some(slot) => *slot = rec,
            None => out.push(rec),
        }
    }
    Ok(out)
}

/// `median(numerator) / median(denominator)` between two arms of one
/// run, `None` if either id is absent — the only comparison `bench_diff`
/// gates: a ratio of arms measured side by side holds on any host, which
/// absolute nanoseconds do not.
pub fn arm_ratio(records: &[BenchRecord], numerator: &str, denominator: &str) -> Option<f64> {
    let median = |id: &str| records.iter().find(|r| r.id == id).map(|r| r.median_ns);
    Some(median(numerator)? / median(denominator)?.max(f64::MIN_POSITIVE))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_record() {
        let r = BenchRecord::new("scale-threads/build/t4", 123.456, 120.0, 3);
        let line = r.to_json_line();
        let back = BenchRecord::parse_json_line(&line).expect("parses");
        assert_eq!(back.id, r.id);
        assert!((back.mean_ns - r.mean_ns).abs() < 1e-3);
        assert!((back.median_ns - r.median_ns).abs() < 1e-3);
        assert_eq!(back.iters, 3);
    }

    #[test]
    fn parser_tolerates_key_order_whitespace_and_extras() {
        let line = r#"{ "iters": 7 , "extra":"x", "median_ns": 5.5, "id": "a/b", "mean_ns": 6e2 }"#;
        let r = BenchRecord::parse_json_line(line).expect("parses");
        assert_eq!(r.id, "a/b");
        assert_eq!(r.mean_ns, 600.0);
        assert_eq!(r.median_ns, 5.5);
        assert_eq!(r.iters, 7);
    }

    #[test]
    fn parser_skips_garbage_lines() {
        assert!(BenchRecord::parse_json_line("").is_none());
        assert!(BenchRecord::parse_json_line("# comment").is_none());
        assert!(BenchRecord::parse_json_line("not json").is_none());
        assert!(BenchRecord::parse_json_line("{\"mean_ns\":1.0}").is_none()); // no id
    }

    #[test]
    fn id_escaping_roundtrips() {
        let r = BenchRecord::new("weird\"id\\path", 1.0, 1.0, 1);
        let back = BenchRecord::parse_json_line(&r.to_json_line()).expect("parses");
        assert_eq!(back.id, "weird\"id\\path");
    }

    #[test]
    fn parses_vendored_criterion_shim_output() {
        // Byte-for-byte what vendor/criterion's emit_json writes (its
        // format string uses {:.3} for both ns fields). If this breaks,
        // the shim and this module drifted apart and the perf gate would
        // silently lose every micro-bench record.
        let shim_line = r#"{"id":"block_query/select_7aggs","mean_ns":50344.331,"median_ns":48809.209,"iters":6840}"#;
        let r = BenchRecord::parse_json_line(shim_line).expect("shim line parses");
        assert_eq!(r.id, "block_query/select_7aggs");
        assert_eq!(r.mean_ns, 50344.331);
        assert_eq!(r.median_ns, 48809.209);
        assert_eq!(r.iters, 6840);
        // And the shim's format is exactly ours.
        assert_eq!(r.to_json_line(), shim_line);
    }

    #[test]
    fn median_defaults_to_mean() {
        let r = BenchRecord::parse_json_line(r#"{"id":"x","mean_ns":42.0}"#).unwrap();
        assert_eq!(r.median_ns, 42.0);
    }

    #[test]
    fn arm_ratio_compares_medians_of_one_run() {
        let run = vec![
            BenchRecord::new("f/raw", 9.0, 5.0, 1),
            BenchRecord::new("f/served", 9.0, 8.0, 1),
        ];
        assert_eq!(arm_ratio(&run, "f/served", "f/raw"), Some(1.6));
        assert_eq!(arm_ratio(&run, "f/served", "f/absent"), None);
    }

    #[test]
    fn read_jsonl_keeps_last_record_per_id() {
        // An append-mode producer rerun against the same file must not
        // leave the gate comparing against the stale first measurement.
        let dir = std::env::temp_dir().join("gb_bench_json_dup_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dup.json");
        write_jsonl(&path, &[BenchRecord::new("a", 100.0, 100.0, 1)], false).unwrap();
        write_jsonl(&path, &[BenchRecord::new("a", 50.0, 50.0, 2)], true).unwrap();
        let recs = read_jsonl(&path).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].median_ns, 50.0);
        assert_eq!(recs[0].iters, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_file_roundtrip() {
        let dir = std::env::temp_dir().join("gb_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let recs = vec![
            BenchRecord::new("one", 1.0, 1.0, 1),
            BenchRecord::new("two", 2.0, 2.0, 2),
        ];
        write_jsonl(&path, &recs[..1], false).unwrap();
        write_jsonl(&path, &recs[1..], true).unwrap();
        let back = read_jsonl(&path).unwrap();
        assert_eq!(back, recs);
        // Truncating write replaces the contents.
        write_jsonl(&path, &recs[1..], false).unwrap();
        assert_eq!(read_jsonl(&path).unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
