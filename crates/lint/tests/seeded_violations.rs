//! End-to-end negative tests: build a miniature workspace on disk with
//! one deliberate violation per rule, run the full `gb_lint::run`
//! pipeline over it, and check every seed is caught — then that an
//! allow directive and a baseline each make the run clean again. This
//! exercises the same path as the CI gate (directory walk, relative
//! paths, config scoping), not just the per-file rule functions.

use gb_lint::{Baseline, Config};
use std::fs;
use std::path::PathBuf;

struct MiniWorkspace {
    root: PathBuf,
}

impl MiniWorkspace {
    fn new(tag: &str) -> MiniWorkspace {
        let root = std::env::temp_dir()
            .join("gb_lint_seeded")
            .join(format!("{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("mkdir");
        fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("manifest");
        MiniWorkspace { root }
    }

    fn file(&self, rel: &str, contents: &str) -> &Self {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdirs");
        fs::write(path, contents).expect("write");
        self
    }

    fn run(&self, baseline: Option<&Baseline>) -> gb_lint::Report {
        gb_lint::run(&self.root, &Config::workspace(), baseline).expect("lint runs")
    }
}

impl Drop for MiniWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn rules_fired(report: &gb_lint::Report) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = report.fresh.iter().map(|f| f.rule).collect();
    rules.sort();
    rules.dedup();
    rules
}

/// One seeded violation per rule, each in a file the config scopes the
/// rule to.
fn seed_all(ws: &MiniWorkspace) {
    ws.file(
        "crates/store/src/lib.rs",
        "pub fn decode(buf: &[u8]) -> u32 {\n    let n = buf.len() as u32;\n    head(buf).unwrap();\n    n\n}\n",
    );
    ws.file(
        "crates/core/src/block.rs",
        "pub fn total(xs: &[f64]) -> f64 {\n    xs.iter().sum::<f64>()\n}\n",
    );
    ws.file(
        "crates/core/src/worker.rs",
        "pub fn go() {\n    std::thread::spawn(|| {});\n}\n",
    );
    ws.file(
        "crates/serve/src/metrics.rs",
        "pub fn bump(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n",
    );
    ws.file(
        "crates/core/src/engine.rs",
        concat!(
            "impl Engine {\n",
            "    fn backwards(&self) {\n",
            "        let t = self.state.write();\n",
            "        let g = self.publish_guard.lock();\n",
            "        drop((t, g));\n",
            "    }\n",
            "}\n",
        ),
    );
}

#[test]
fn every_rule_catches_its_seeded_violation() {
    let ws = MiniWorkspace::new("all");
    seed_all(&ws);
    let report = ws.run(None);
    assert_eq!(
        rules_fired(&report),
        vec![
            "atomic-ordering",
            "float-fold",
            "lock-order",
            "lossy-cast",
            "panic-path",
            "rogue-spawn"
        ],
        "findings: {:#?}",
        report.fresh
    );
    // The store file seeds both a cast and an unwrap; everything else
    // seeds exactly one finding.
    assert_eq!(report.fresh.len(), 6, "{:#?}", report.fresh);
}

#[test]
fn allow_directives_silence_each_seed() {
    let ws = MiniWorkspace::new("allowed");
    ws.file(
        "crates/store/src/lib.rs",
        "pub fn decode(buf: &[u8]) -> u32 {\n    \
         let n = buf.len() as u32; // gb-lint: allow(lossy-cast) -- test\n    \
         head(buf).unwrap(); // gb-lint: allow(panic-path) -- test\n    n\n}\n",
    );
    ws.file(
        "crates/core/src/worker.rs",
        "pub fn go() {\n    // gb-lint: allow(rogue-spawn) -- test\n    \
         std::thread::spawn(|| {});\n}\n",
    );
    ws.file(
        "crates/serve/src/metrics.rs",
        "pub fn bump(c: &AtomicU64) {\n    \
         // gb-lint: allow(atomic-ordering) -- test\n    \
         c.fetch_add(1, Ordering::Relaxed);\n}\n",
    );
    let report = ws.run(None);
    assert!(report.fresh.is_empty(), "{:#?}", report.fresh);
}

#[test]
fn violations_inside_test_code_are_exempt_except_spawns() {
    let ws = MiniWorkspace::new("testcode");
    ws.file(
        "crates/store/src/lib.rs",
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        decode(b\"x\").unwrap();\n    }\n}\n",
    );
    ws.file(
        "crates/core/tests/spawny.rs",
        "#[test]\nfn t() {\n    std::thread::spawn(|| {}).join().unwrap();\n}\n",
    );
    let report = ws.run(None);
    assert_eq!(
        rules_fired(&report),
        vec!["rogue-spawn"],
        "{:#?}",
        report.fresh
    );
    assert_eq!(report.fresh.len(), 1);
}

#[test]
fn baseline_absorbs_known_findings_and_flags_new_ones() {
    let ws = MiniWorkspace::new("baseline");
    seed_all(&ws);
    let first = ws.run(None);
    assert_eq!(first.fresh.len(), 6);

    // Baseline everything: the gate goes green.
    let baseline = Baseline::parse(&Baseline::render(&first.fresh)).expect("roundtrip");
    let absorbed = ws.run(Some(&baseline));
    assert!(absorbed.fresh.is_empty(), "{:#?}", absorbed.fresh);
    assert_eq!(absorbed.grandfathered.len(), 6);

    // A brand-new violation is still fresh against that baseline.
    ws.file(
        "crates/core/src/memo.rs",
        "pub fn pick(xs: &[u8]) -> u8 {\n    xs[0]\n}\n",
    );
    let with_new = ws.run(Some(&baseline));
    assert_eq!(with_new.fresh.len(), 1, "{:#?}", with_new.fresh);
    assert_eq!(with_new.fresh[0].rule, "panic-path");
    assert_eq!(with_new.grandfathered.len(), 6);

    // Editing a baselined line resurrects its finding.
    ws.file(
        "crates/core/src/block.rs",
        "pub fn total(xs: &[f64]) -> f64 {\n    2.0 * xs.iter().sum::<f64>()\n}\n",
    );
    ws.file("crates/core/src/memo.rs", "pub fn pick() {}\n");
    let edited = ws.run(Some(&baseline));
    assert_eq!(edited.fresh.len(), 1, "{:#?}", edited.fresh);
    assert_eq!(edited.fresh[0].rule, "float-fold");
}
