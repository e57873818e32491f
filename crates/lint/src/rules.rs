//! The rule engine: each rule walks a [`SourceFile`]'s masked lines and
//! emits [`Finding`]s. Rules are lexical by design — no type information,
//! no macro expansion — which keeps the checker dependency-free and fast,
//! at the price of needing the narrow, workspace-specific scoping in
//! [`Config`] to stay precise. Every rule honors `gb-lint: allow(rule)`
//! suppressions; whether test regions are exempt is per-rule (documented
//! on each).

use crate::config::Config;
use crate::lexer::SourceFile;

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (e.g. `panic-path`).
    pub rule: &'static str,
    /// File path relative to the workspace root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
    /// The trimmed original source line (report display + baseline key).
    pub snippet: String,
}

/// Static description of a rule, for `--list-rules` and the docs.
pub struct RuleInfo {
    pub name: &'static str,
    pub description: &'static str,
    pub check: fn(&SourceFile, &Config) -> Vec<Finding>,
}

/// Every rule the checker knows, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "panic-path",
        description: "no unwrap/expect/panic!/unreachable!/indexing-by-literal in \
                      decode/serve modules (they must return typed errors); test code exempt",
        check: panic_path,
    },
    RuleInfo {
        name: "float-fold",
        description: "no ad-hoc f64 accumulation (.sum::<f64>(), .fold(0.0, ..)) outside \
                      the canonical kernels in layer.rs/aggregate.rs; test code exempt",
        check: float_fold,
    },
    RuleInfo {
        name: "rogue-spawn",
        description: "thread::spawn only inside gb_common::pool — all concurrency goes \
                      through the pool (applies to test code too)",
        check: rogue_spawn,
    },
    RuleInfo {
        name: "lock-order",
        description: "nested engine lock acquisitions must follow the declared order \
                      (publish_guard < memo < state); test code exempt (covered by the \
                      runtime checker)",
        check: lock_order,
    },
    RuleInfo {
        name: "lossy-cast",
        description: "no bare narrowing `as` casts (as u8/u16/u32/i8/i16/i32) in length/\
                      offset decoding files — use try_from or the checked writer helpers",
        check: lossy_cast,
    },
    RuleInfo {
        name: "atomic-ordering",
        description: "no bare `Ordering::Relaxed` outside the stats-counter module — \
                      route statistics through gb_common::stats::Counter, spell out \
                      Acquire/Release/SeqCst for synchronization, or justify with an \
                      allow comment; test code exempt",
        check: atomic_ordering,
    },
];

/// True if `c` can be part of an identifier.
fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets of every non-overlapping occurrence of `pat` in `hay`.
fn occurrences<'a>(hay: &'a str, pat: &'a str) -> impl Iterator<Item = usize> + 'a {
    let mut from = 0usize;
    std::iter::from_fn(move || {
        let at = hay[from..].find(pat)? + from;
        from = at + pat.len();
        Some(at)
    })
}

fn finding(
    rule: &'static str,
    file: &SourceFile,
    idx: usize,
    message: impl Into<String>,
) -> Finding {
    Finding {
        rule,
        path: file.path.clone(),
        line: idx + 1,
        message: message.into(),
        snippet: file.lines[idx].source.trim().to_string(),
    }
}

/// `panic-path`: decode/serve modules must never panic. Flags
/// `.unwrap()`, `.unwrap_err()`, `.expect(`, `.expect_err(`, `panic!`,
/// `unreachable!`, `todo!`, `unimplemented!`, and slice indexing by an
/// integer literal (`buf[0]`). Test regions are exempt.
fn panic_path(file: &SourceFile, cfg: &Config) -> Vec<Finding> {
    const RULE: &str = "panic-path";
    if !cfg.is_panic_free(&file.path) {
        return Vec::new();
    }
    const PATTERNS: &[(&str, &str)] = &[
        (".unwrap()", "`.unwrap()` can panic"),
        (".unwrap_err()", "`.unwrap_err()` can panic"),
        (".expect(", "`.expect(..)` can panic"),
        (".expect_err(", "`.expect_err(..)` can panic"),
        ("panic!", "`panic!` in a decode/serve path"),
        ("unreachable!", "`unreachable!` in a decode/serve path"),
        ("todo!", "`todo!` in a decode/serve path"),
        ("unimplemented!", "`unimplemented!` in a decode/serve path"),
    ];
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.test || file.allowed(idx, RULE) {
            continue;
        }
        let m = line.masked.as_str();
        for &(pat, why) in PATTERNS {
            for at in occurrences(m, pat) {
                // `.expect(` must not also fire via a longer name ending
                // in the same suffix (`.grand_expect(` is not std); guard
                // anyway so macro patterns stay exact words.
                if pat.starts_with('.') {
                    // method patterns: preceded by an expression, always fine
                } else {
                    // macro patterns: require a word boundary on the left
                    let before = m[..at].chars().next_back();
                    if before.is_some_and(is_ident) {
                        continue;
                    }
                }
                out.push(finding(
                    RULE,
                    file,
                    idx,
                    format!("{why}; return a typed error instead"),
                ));
            }
        }
        // Slice indexing by integer literal: `expr[123]` where the `[` is
        // preceded by an identifier, `]`, or `)`.
        let bytes = m.as_bytes();
        for at in occurrences(m, "[") {
            let prev = m[..at].chars().next_back();
            if !prev.is_some_and(|c| is_ident(c) || c == ']' || c == ')') {
                continue;
            }
            let mut j = at + 1;
            let mut digits = 0usize;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                digits += 1;
                j += 1;
            }
            if digits > 0 && j < bytes.len() && bytes[j] == b']' {
                out.push(finding(
                    RULE,
                    file,
                    idx,
                    "indexing by integer literal can panic; use `get(..)` or a checked read",
                ));
            }
        }
    }
    out
}

/// `float-fold`: ad-hoc f64 reductions drift from the canonical in-order
/// fold and break parallel == serial bit-identity. Only the blessed
/// kernel files may accumulate floats. Test regions are exempt.
fn float_fold(file: &SourceFile, cfg: &Config) -> Vec<Finding> {
    const RULE: &str = "float-fold";
    if cfg.is_float_blessed(&file.path) {
        return Vec::new();
    }
    const PATTERNS: &[&str] = &["sum::<f64>", ".fold(0.0", ".fold(0f64", ".product::<f64>"];
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.test || file.allowed(idx, RULE) {
            continue;
        }
        for pat in PATTERNS {
            if line.masked.contains(pat) {
                out.push(finding(
                    RULE,
                    file,
                    idx,
                    format!(
                        "ad-hoc f64 accumulation (`{pat}`): route through the canonical fold \
                         kernels in layer.rs/aggregate.rs to preserve bit-identity"
                    ),
                ));
            }
        }
    }
    out
}

/// `rogue-spawn`: `thread::spawn` outside `gb_common::pool`. Applies to
/// test code too — tests that genuinely need a raw panic-isolated thread
/// use `gb_common::pool::spawn_join` or carry an explicit allow.
fn rogue_spawn(file: &SourceFile, cfg: &Config) -> Vec<Finding> {
    const RULE: &str = "rogue-spawn";
    if cfg.is_spawn_blessed(&file.path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if file.allowed(idx, RULE) {
            continue;
        }
        if line.masked.contains("thread::spawn") {
            out.push(finding(
                RULE,
                file,
                idx,
                "raw `thread::spawn`: all concurrency goes through `gb_common::pool` \
                 (`Pool::run`, or `pool::spawn_join` for \
                 panic-isolated one-offs)",
            ));
        }
    }
    out
}

/// `lock-order`: lexical check that declared engine locks are acquired in
/// rank order. An acquisition bound with `let` is treated as *held* until
/// its enclosing block closes; acquiring an equal- or lower-ranked lock
/// while one is held is a violation. Test regions are exempt (the runtime
/// checker in `gb_common::sync` covers them).
fn lock_order(file: &SourceFile, cfg: &Config) -> Vec<Finding> {
    const RULE: &str = "lock-order";
    const PATTERNS: &[&str] = &[".lock()", ".read()", ".write()"];
    let mut out = Vec::new();

    // Pre-pass: every acquisition site, with a *held* flag. A guard is
    // held (lives to end of enclosing block) when the acquisition is the
    // terminal call of a `let` binding; anything else — a chained call
    // (`.read().root_cell()`), a deref-assign (`*trie.write() = ..`) — is
    // a temporary dropped at the end of its statement.
    let mut sites_by_line: Vec<Vec<(usize, String, bool)>> = Vec::new();
    let mut let_active = false;
    for (idx, line) in file.lines.iter().enumerate() {
        let m = line.masked.as_str();
        let t = m.trim_start();
        if t.starts_with("let ") || m.contains(" let ") {
            let_active = true;
        }
        let mut sites: Vec<(usize, String, bool)> = Vec::new();
        for pat in PATTERNS {
            for at in occurrences(m, pat) {
                let Some(name) = receiver_name(m, at) else {
                    continue;
                };
                if cfg.lock_rank(&name).is_none() {
                    continue;
                }
                let after = m[at + pat.len()..].trim_start();
                let terminal = if after.is_empty() {
                    // Statement continues on the next line: chained call?
                    !file
                        .lines
                        .get(idx + 1)
                        .map(|l| l.masked.trim_start().starts_with('.'))
                        .unwrap_or(false)
                } else {
                    after.starts_with(';')
                };
                sites.push((at, name, let_active && terminal));
            }
        }
        sites.sort_by_key(|&(at, _, _)| at);
        sites_by_line.push(sites);
        if m.contains(';') {
            let_active = false;
        }
    }

    // Main pass: walk characters for brace depth, releasing held guards
    // when their block closes, checking rank order at each acquisition.
    let mut held: Vec<(u8, String, i64)> = Vec::new();
    let mut depth: i64 = 0;
    for (idx, line) in file.lines.iter().enumerate() {
        let m = line.masked.as_str();
        let mut site_iter = sites_by_line[idx].iter().peekable();
        for (col, c) in m.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    held.retain(|&(_, _, d)| d <= depth);
                }
                _ => {}
            }
            while site_iter.peek().is_some_and(|&&(at, _, _)| at <= col) {
                let (_, name, is_held) = site_iter.next().expect("peeked");
                let rank = cfg.lock_rank(name).expect("filtered above");
                if !line.test && !file.allowed(idx, RULE) {
                    for (held_rank, held_name, _) in &held {
                        if *held_rank >= rank {
                            out.push(finding(
                                RULE,
                                file,
                                idx,
                                format!(
                                    "lock `{name}` (rank {rank}) acquired while holding \
                                     `{held_name}` (rank {held_rank}); declared order is \
                                     publish_guard < memo < state \
                                     < entries/buckets/serving/traces"
                                ),
                            ));
                        }
                    }
                }
                if *is_held {
                    held.push((rank, name.clone(), depth));
                }
            }
        }
    }
    out
}

/// Walk left from the `.` of `.lock()` at `at`, skipping balanced
/// `[..]`/`(..)` groups, and return the receiver's final identifier
/// (`self.memo[i].lock()` → `memo`).
fn receiver_name(masked: &str, at: usize) -> Option<String> {
    let chars: Vec<char> = masked[..at].chars().collect();
    let mut i = chars.len();
    // Skip one balanced bracket/paren group if present (index or call).
    loop {
        while i > 0 && chars[i - 1] == ' ' {
            i -= 1;
        }
        if i > 0 && (chars[i - 1] == ']' || chars[i - 1] == ')') {
            let open = if chars[i - 1] == ']' { '[' } else { '(' };
            let close = chars[i - 1];
            let mut depth = 0i32;
            while i > 0 {
                i -= 1;
                if chars[i] == close {
                    depth += 1;
                } else if chars[i] == open {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
        } else {
            break;
        }
    }
    let end = i;
    while i > 0 && is_ident(chars[i - 1]) {
        i -= 1;
    }
    if i == end {
        return None;
    }
    Some(chars[i..end].iter().collect())
}

/// `lossy-cast`: narrowing `as` casts silently truncate; length and
/// offset decoding must use `try_from` (or the checked writer helpers).
/// Test regions are exempt.
fn lossy_cast(file: &SourceFile, cfg: &Config) -> Vec<Finding> {
    const RULE: &str = "lossy-cast";
    if !cfg.is_cast_checked(&file.path) {
        return Vec::new();
    }
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.test || file.allowed(idx, RULE) {
            continue;
        }
        let m = line.masked.as_str();
        for at in occurrences(m, " as ") {
            let rest = &m[at + 4..];
            let ty: String = rest.chars().take_while(|&c| is_ident(c)).collect();
            let after = rest.chars().nth(ty.len());
            let word_ends = after.is_none_or(|c| !is_ident(c));
            if word_ends && NARROW.contains(&ty.as_str()) {
                out.push(finding(
                    RULE,
                    file,
                    idx,
                    format!(
                        "bare narrowing cast `as {ty}` can silently truncate; use \
                         `{ty}::try_from(..)` or a checked helper"
                    ),
                ));
            }
        }
    }
    out
}

/// `atomic-ordering`: `Ordering::Relaxed` provides no synchronization,
/// so every use is either a statistics counter (which belongs in
/// `gb_common::stats::Counter`, the one blessed file) or a subtle
/// correctness claim that must be argued in an allow comment where
/// reviewers can see it. Matches the bare word `Relaxed` too, so a
/// `use Ordering::Relaxed` import offers no cover. Test regions are
/// exempt.
fn atomic_ordering(file: &SourceFile, cfg: &Config) -> Vec<Finding> {
    const RULE: &str = "atomic-ordering";
    if cfg.is_relaxed_blessed(&file.path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.test || file.allowed(idx, RULE) {
            continue;
        }
        let m = line.masked.as_str();
        for at in occurrences(m, "Relaxed") {
            let before = m[..at].chars().next_back();
            let after = m[at + "Relaxed".len()..].chars().next();
            if before.is_some_and(is_ident) || after.is_some_and(is_ident) {
                continue; // part of a longer identifier
            }
            out.push(finding(
                RULE,
                file,
                idx,
                "`Ordering::Relaxed` outside the blessed stats module: use \
                 `gb_common::stats::Counter` for event tallies, an explicit \
                 Acquire/Release/SeqCst for synchronization, or add \
                 `gb-lint: allow(atomic-ordering) -- <why relaxed is correct>`",
            ));
        }
    }
    out
}

/// Run every rule over one file.
pub fn check_file(file: &SourceFile, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for rule in RULES {
        out.extend((rule.check)(file, cfg));
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, src: &str) -> SourceFile {
        SourceFile::scan(path, src, path.contains("/tests/"))
    }

    fn rules_on(path: &str, src: &str) -> Vec<Finding> {
        check_file(&scan(path, src), &Config::workspace())
    }

    // ---- panic-path ----

    #[test]
    fn panic_path_fires_in_decode_modules() {
        let f = rules_on(
            "crates/store/src/lib.rs",
            "fn d() { x.unwrap(); y.expect(\"m\"); panic!(\"no\"); buf[0]; }",
        );
        let rules: Vec<_> = f.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["panic-path"; 4], "{f:?}");
    }

    #[test]
    fn panic_path_ignores_other_modules_and_tests() {
        assert!(rules_on("crates/core/src/block.rs", "fn d() { x.unwrap(); }").is_empty());
        let src = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}";
        assert!(rules_on("crates/store/src/lib.rs", src).is_empty());
    }

    #[test]
    fn panic_path_does_not_flag_unwrap_or_else() {
        let src = "fn d() { x.unwrap_or_else(e); y.unwrap_or(3); z.unwrap_or_default(); }";
        assert!(rules_on("crates/store/src/lib.rs", src).is_empty());
    }

    #[test]
    fn panic_path_literal_index_only() {
        // Non-literal indices, array types, and attributes must not fire.
        let src = "fn d(i: usize) { a[i]; let t: [u8; 4] = x; }\n#[derive(Debug)]\nstruct S;";
        assert!(rules_on("crates/store/src/lib.rs", src).is_empty());
        let f = rules_on("crates/store/src/lib.rs", "fn d() { a[17]; }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("integer literal"));
    }

    #[test]
    fn panic_path_allow_comment_suppresses() {
        let src = "fn d() {\n // gb-lint: allow(panic-path) -- precondition\n x.unwrap();\n}";
        assert!(rules_on("crates/store/src/lib.rs", src).is_empty());
    }

    // ---- float-fold ----

    #[test]
    fn float_fold_fires_outside_kernels() {
        let f = rules_on(
            "crates/core/src/block.rs",
            "fn m(v: &[f64]) -> f64 { v.iter().sum::<f64>() }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "float-fold");
        let f = rules_on(
            "crates/data/src/x.rs",
            "let t = xs.iter().fold(0.0, |a, b| a + b);",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn float_fold_blessed_files_and_tests_pass() {
        let src = "fn k(v: &[f64]) -> f64 { v.iter().sum::<f64>() }";
        assert!(rules_on("crates/core/src/layer.rs", src).is_empty());
        assert!(rules_on("crates/core/src/aggregate.rs", src).is_empty());
        assert!(rules_on("crates/core/tests/x.rs", src).is_empty());
    }

    #[test]
    fn float_fold_integer_folds_are_fine() {
        let src = "let n = xs.iter().sum::<u64>(); let m = ys.iter().fold(0u64, |a, b| a + b);";
        assert!(rules_on("crates/core/src/block.rs", src).is_empty());
    }

    // ---- rogue-spawn ----

    #[test]
    fn rogue_spawn_fires_everywhere_even_tests() {
        let src = "fn go() { std::thread::spawn(|| {}); }";
        assert_eq!(rules_on("crates/core/src/engine.rs", src).len(), 1);
        assert_eq!(rules_on("crates/core/tests/conc.rs", src).len(), 1);
        assert!(rules_on("crates/common/src/pool.rs", src).is_empty());
    }

    #[test]
    fn rogue_spawn_scoped_spawns_are_structured_concurrency() {
        // `scope.spawn` is joined by construction; only the free function
        // is a rogue thread source.
        let src = "std::thread::scope(|s| { s.spawn(|| {}); });";
        assert!(rules_on("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn rogue_spawn_allow_comment() {
        let src = "// gb-lint: allow(rogue-spawn) -- ownership-shape test\nstd::thread::spawn(f);";
        assert!(rules_on("crates/core/tests/conc.rs", src).is_empty());
    }

    // ---- lock-order ----

    #[test]
    fn lock_order_flags_inversion() {
        let src = "fn bad(&self) {\n\
                     let t = self.state.write();\n\
                     let s = self.memo[i].lock();\n\
                   }";
        let f = rules_on("crates/core/src/engine.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lock-order");
        assert!(f[0].message.contains("`memo`"));
        assert!(f[0].message.contains("`state`"));
    }

    #[test]
    fn lock_order_accepts_declared_order() {
        let src = "fn good(&self) {\n\
                     let g = self.publish_guard.lock();\n\
                     let s = self.memo[i].lock();\n\
                     let t = self.state.read();\n\
                   }";
        assert!(rules_on("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn lock_order_transient_guards_do_not_hold() {
        // A temporary dropped at end of statement does not pin an order.
        let src = "fn ok(&self) {\n\
                     *self.trie.write() = x;\n\
                     let s = self.memo[i].lock();\n\
                   }";
        assert!(rules_on("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn lock_order_let_of_chained_call_is_transient() {
        // The `let` binds the chain's result, not the guard: the guard is
        // a temporary dropped at the end of the statement.
        let src = "fn ok(&self) {\n\
                     let root = self.trie.read().root_cell();\n\
                     let s = self.memo[i].lock();\n\
                   }";
        assert!(rules_on("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn lock_order_release_at_block_close() {
        let src = "fn ok(&self) {\n\
                     { let t = self.trie.write(); }\n\
                     let s = self.memo[i].lock();\n\
                   }";
        assert!(rules_on("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn lock_order_equal_rank_reentry_flagged() {
        let src = "fn bad(&self) {\n\
                     let a = self.memo[i].lock();\n\
                     let b = self.memo[j].lock();\n\
                   }";
        let f = rules_on("crates/core/src/engine.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn lock_order_unknown_receivers_ignored() {
        let src = "fn ok() { let q = slots.lock(); let s = widgets.lock(); }";
        assert!(rules_on("crates/common/src/pool.rs", src).is_empty());
    }

    #[test]
    fn lock_order_covers_serve_ranks() {
        // Engine-lock-then-serve-leaf is the declared direction...
        let src = "fn ok(&self) {\n\
                     let s = self.state.read();\n\
                     let e = self.entries.lock();\n\
                   }";
        assert!(rules_on("crates/serve/src/lib.rs", src).is_empty());
        // ...serve-leaf-then-engine-lock is an inversion.
        let src = "fn bad(&self) {\n\
                     let e = self.entries.lock();\n\
                     let s = self.state.read();\n\
                   }";
        let f = rules_on("crates/serve/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`entries`"));
        // Serve-layer leaves are terminal: nothing may follow them.
        let src = "fn bad(&self) {\n\
                     let e = self.entries.lock();\n\
                     let b = self.buckets.lock();\n\
                   }";
        let f = rules_on("crates/serve/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    // ---- lossy-cast ----

    #[test]
    fn lossy_cast_fires_in_checked_files() {
        let f = rules_on("crates/store/src/lib.rs", "let n = len as u32;");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "lossy-cast");
    }

    #[test]
    fn lossy_cast_widening_is_fine() {
        let src = "let a = x as u64; let b = y as usize; let c = z as f64;";
        assert!(rules_on("crates/store/src/lib.rs", src).is_empty());
    }

    #[test]
    fn lossy_cast_other_files_and_tests_exempt() {
        assert!(rules_on("crates/core/src/block.rs", "let n = len as u32;").is_empty());
        let src = "#[cfg(test)]\nmod tests {\n fn t() { let n = len as u8; }\n}";
        assert!(rules_on("crates/store/src/lib.rs", src).is_empty());
    }

    // ---- atomic-ordering ----

    #[test]
    fn atomic_ordering_fires_on_bare_relaxed() {
        let f = rules_on(
            "crates/serve/src/metrics.rs",
            "fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "atomic-ordering");
        // An imported bare `Relaxed` offers no cover.
        let f = rules_on(
            "crates/core/src/engine.rs",
            "fn bump(c: &AtomicU64) { c.fetch_add(1, Relaxed); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn atomic_ordering_blessed_file_tests_and_allows_pass() {
        let src = "fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        assert!(rules_on("crates/common/src/stats.rs", src).is_empty());
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n {src}\n}}");
        assert!(rules_on("crates/serve/src/metrics.rs", &in_tests).is_empty());
        let allowed = "// gb-lint: allow(atomic-ordering) -- seqlock stamp, pure tally\n\
                       fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        assert!(rules_on("crates/serve/src/metrics.rs", allowed).is_empty());
    }

    #[test]
    fn atomic_ordering_stronger_orderings_and_longer_idents_pass() {
        let src = "fn s(c: &AtomicU64) { c.store(1, Ordering::Release); }\n\
                   struct RelaxedFit; fn f(x: UnRelaxed) {}";
        assert!(rules_on("crates/serve/src/metrics.rs", src).is_empty());
    }

    // ---- masking interplay ----

    #[test]
    fn patterns_inside_strings_and_comments_never_fire() {
        let src = "fn d() {\n\
                     let msg = \"call .unwrap() or panic! later\";\n\
                     // thread::spawn is forbidden, x.unwrap() too\n\
                     let r = r#\"xs.iter().sum::<f64>()\"#;\n\
                   }";
        assert!(rules_on("crates/store/src/lib.rs", src).is_empty());
    }
}
