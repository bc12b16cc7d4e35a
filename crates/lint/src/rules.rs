//! Token-stream lint rules: determinism, unsafe/panic hygiene.
//!
//! Each rule walks the attribute-stripped token stream from
//! [`crate::lexer`] and emits [`Diagnostic`]s. Schema-drift checking
//! lives in [`crate::schema`]; suppression via the allowlist happens in
//! the runner, not here.

use crate::lexer::{Lexed, Tok, TokKind};

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (what allowlist entries name).
    pub rule: &'static str,
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// 1-based line, or 0 for file/workspace-level findings.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    pub fn render(&self) -> String {
        if self.line == 0 {
            format!("{}: [{}] {}", self.path, self.rule, self.message)
        } else {
            format!(
                "{}:{}: [{}] {}",
                self.path, self.line, self.rule, self.message
            )
        }
    }
}

/// Per-file context handed to every rule.
pub struct FileCtx<'a> {
    /// Repo-relative path with `/` separators.
    pub path: &'a str,
    /// The lexed token stream.
    pub lexed: &'a Lexed,
    /// True for integration tests / benches (`tests/`, `benches/`,
    /// `examples/` directories) — whole file is test code even without
    /// `cfg(test)` markers.
    pub is_test_file: bool,
    /// Workspace crate directory name (`sim` for `crates/sim/...`),
    /// if under `crates/`.
    pub krate: Option<&'a str>,
}

impl FileCtx<'_> {
    fn in_test(&self, tok: &Tok) -> bool {
        self.is_test_file || tok.in_test
    }
}

/// Crates whose simulation results must be bit-reproducible; wall-clock
/// reads there are lint failures. Harness/fabric timing (sweep wall_ms,
/// lease clocks) is measurement, not simulation, and stays exempt.
pub const RESULT_AFFECTING_CRATES: &[&str] = &[
    "core",
    "cache",
    "compute",
    "dram",
    "noc",
    "sim",
    "workloads",
];

/// Hot tick-path files (suffix-matched): `unwrap`/`expect`/`panic!` are
/// forbidden outside tests so a malformed input degrades into an error
/// path instead of tearing down a long sweep.
pub const TICK_PATH_FILES: &[&str] = &[
    "crates/cache/src/mshr.rs",
    "crates/cache/src/setassoc.rs",
    "crates/compute/src/bitslice.rs",
    "crates/compute/src/cpu.rs",
    "crates/dram/src/channel.rs",
    "crates/dram/src/system.rs",
    "crates/noc/src/lib.rs",
    "crates/sim/src/sm.rs",
    "crates/sim/src/llc.rs",
    "crates/sim/src/gpu.rs",
    "crates/sim/src/wake.rs",
    "crates/sim/src/txn.rs",
    "crates/sim/src/coalesce.rs",
];

/// Map methods whose results depend on iteration order.
const ORDER_SENSITIVE_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Runs every token rule over one file.
pub fn run_token_rules(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    rule_default_hasher(ctx, out);
    rule_map_iteration(ctx, out);
    rule_wall_clock(ctx, out);
    rule_no_unsafe(ctx, out);
    rule_no_panic_tick(ctx, out);
}

// ---------------------------------------------------------------------
// determinism: default-hasher
// ---------------------------------------------------------------------

fn rule_default_hasher(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.toks;
    let mut in_use = false;
    for (i, tok) in toks.iter().enumerate() {
        match &tok.kind {
            TokKind::Ident(s) if s == "use" => in_use = true,
            TokKind::Punct(';') => in_use = false,
            TokKind::Ident(s) if s == "HashMap" || s == "HashSet" => {
                if in_use || ctx.in_test(tok) {
                    continue;
                }
                let want = if s == "HashMap" { 3 } else { 2 };
                if hasher_is_explicit(toks, i, want) {
                    continue;
                }
                out.push(Diagnostic {
                    rule: "default-hasher",
                    path: ctx.path.to_string(),
                    line: tok.line,
                    message: format!(
                        "{s} with default RandomState hasher: iteration order and capacity \
                         behavior are seeded per-process; use valley_core::hash::Fast{} \
                         (deterministic hasher) or name a hasher type explicitly",
                        if s == "HashMap" { "Map" } else { "Set" }
                    ),
                });
            }
            _ => {}
        }
    }
}

/// After `HashMap`/`HashSet` at `i`, decides whether a hasher is named:
/// either the generic list carries `want` arguments (`K, V, S`), or the
/// constructor is `::with_hasher` / `::with_capacity_and_hasher`.
fn hasher_is_explicit(toks: &[Tok], i: usize, want: usize) -> bool {
    let next = |off: usize| toks.get(i + off).map(|t| &t.kind);
    // `HashMap<..>` directly.
    if next(1).is_some_and(|k| k.is_punct('<')) {
        return generic_arg_count(toks, i + 1) == Some(want);
    }
    // `HashMap::<..>` turbofish or `HashMap::with_hasher(..)`.
    if next(1).is_some_and(|k| k.is_punct(':')) && next(2).is_some_and(|k| k.is_punct(':')) {
        if next(3).is_some_and(|k| k.is_punct('<')) {
            return generic_arg_count(toks, i + 3) == Some(want);
        }
        if let Some(TokKind::Ident(m)) = next(3) {
            return m == "with_hasher" || m == "with_capacity_and_hasher";
        }
    }
    false
}

/// Counts top-level generic arguments of the `<...>` list opening at
/// `open` (which must be a `<`). Handles nested angle brackets, `->`
/// arrows inside fn types, and commas nested in parentheses/brackets.
/// Returns `None` when no matching `>` is found nearby.
fn generic_arg_count(toks: &[Tok], open: usize) -> Option<usize> {
    let mut angle = 0isize;
    let mut round = 0isize;
    let mut commas = 0usize;
    let mut any = false;
    let limit = (open + 256).min(toks.len());
    for j in open..limit {
        match &toks[j].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => {
                // `->` return arrow: the `-` precedes the `>`.
                if j > 0 && toks[j - 1].kind.is_punct('-') {
                    continue;
                }
                angle -= 1;
                if angle == 0 {
                    return Some(if any { commas + 1 } else { 0 });
                }
            }
            TokKind::Punct('(') | TokKind::Punct('[') => round += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => round -= 1,
            TokKind::Punct(',') if angle == 1 && round == 0 => commas += 1,
            TokKind::Punct(';') | TokKind::Punct('{') => return None,
            _ => any = true,
        }
    }
    None
}

// ---------------------------------------------------------------------
// determinism: map-iteration
// ---------------------------------------------------------------------

/// Identifier names declared in this file with an unordered-map type
/// (`name: ..HashMap<..>..` or `let name = FastMap::..`).
fn collect_map_names(lexed: &Lexed) -> Vec<String> {
    const MAP_TYPES: &[&str] = &["HashMap", "HashSet", "FastMap", "FastSet"];
    let toks = &lexed.toks;
    let mut names: Vec<String> = Vec::new();
    let mut add = |n: &str| {
        if !names.iter().any(|x| x == n) {
            names.push(n.to_string());
        }
    };
    for (i, tok) in toks.iter().enumerate() {
        let TokKind::Ident(s) = &tok.kind else {
            continue;
        };
        if !MAP_TYPES.contains(&s.as_str()) {
            continue;
        }
        // Walk back to the start of the declaration: `name :` (a single
        // colon — skip over intervening type constructors like
        // `Mutex<`) or `let [mut] name =`.
        let mut j = i;
        let mut steps = 0;
        while j > 0 && steps < 48 {
            j -= 1;
            steps += 1;
            match &toks[j].kind {
                TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => break,
                TokKind::Punct(':') => {
                    // `::` path separator is two colons; a type ascription
                    // has an identifier directly before a lone `:`.
                    if j > 0 && toks[j - 1].kind.is_punct(':') {
                        j -= 1;
                        continue;
                    }
                    if let Some(TokKind::Ident(name)) = j.checked_sub(1).map(|k| &toks[k].kind) {
                        add(name);
                    }
                    break;
                }
                TokKind::Punct('=') => {
                    if let Some(TokKind::Ident(name)) = j.checked_sub(1).map(|k| &toks[k].kind) {
                        if name != "=" {
                            add(name);
                        }
                    }
                    break;
                }
                _ => {}
            }
        }
    }
    names
}

fn rule_map_iteration(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let names = collect_map_names(ctx.lexed);
    if names.is_empty() {
        return;
    }
    let toks = &ctx.lexed.toks;
    let is_map = |k: &TokKind| matches!(k, TokKind::Ident(s) if names.iter().any(|n| n == s));

    for (i, tok) in toks.iter().enumerate() {
        if ctx.in_test(tok) {
            continue;
        }
        match &tok.kind {
            // `recv.method(` where an unordered map appears in the call
            // chain before `method`.
            TokKind::Ident(m) if ORDER_SENSITIVE_METHODS.contains(&m.as_str()) => {
                if i < 2 || !toks[i - 1].kind.is_punct('.') {
                    continue;
                }
                if !toks.get(i + 1).is_some_and(|t| t.kind.is_punct('(')) {
                    continue;
                }
                if let Some(name) = chain_map_receiver(toks, i - 1, &names) {
                    out.push(Diagnostic {
                        rule: "map-iteration",
                        path: ctx.path.to_string(),
                        line: tok.line,
                        message: format!(
                            "iteration over unordered map `{name}` via `.{m}()`: order can leak \
                             into counters, serialization or scheduling; collect-and-sort, use a \
                             BTreeMap, or allowlist with a justification that order cannot escape"
                        ),
                    });
                }
            }
            // `for .. in [&[mut]] path.to.map {`
            TokKind::Ident(kw) if kw == "in" => {
                if let Some((name, line)) = for_in_map(toks, i, &names) {
                    out.push(Diagnostic {
                        rule: "map-iteration",
                        path: ctx.path.to_string(),
                        line,
                        message: format!(
                            "`for` loop over unordered map `{name}`: order can leak into \
                             counters, serialization or scheduling; collect-and-sort, use a \
                             BTreeMap, or allowlist with a justification that order cannot escape"
                        ),
                    });
                }
            }
            _ => {}
        }
    }
    let _ = is_map;
}

/// Walks a method-call chain backwards from the `.` at `dot` looking for
/// a known map name in receiver position (`self.index.lock().unwrap()` →
/// `index`). Stops at statement boundaries.
fn chain_map_receiver(toks: &[Tok], dot: usize, names: &[String]) -> Option<String> {
    let mut j = dot;
    let mut steps = 0;
    while j > 0 && steps < 64 {
        j -= 1;
        steps += 1;
        match &toks[j].kind {
            TokKind::Ident(s) => {
                if names.iter().any(|n| n == s) {
                    return Some(s.clone());
                }
            }
            TokKind::Punct(')') => {
                // Skip to the matching `(`.
                let mut depth = 1isize;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match &toks[j].kind {
                        TokKind::Punct(')') => depth += 1,
                        TokKind::Punct('(') => depth -= 1,
                        _ => {}
                    }
                }
            }
            TokKind::Punct('.') | TokKind::Punct(':') | TokKind::Punct('&') => {}
            _ => break,
        }
    }
    None
}

/// Matches `for .. in [& [mut]] ident(.ident)* {` ending on a known map
/// name. Returns the name and the line of the `in` keyword.
fn for_in_map(toks: &[Tok], in_idx: usize, names: &[String]) -> Option<(String, u32)> {
    // Require a `for` within a few tokens back (pattern position).
    let back = in_idx.saturating_sub(12);
    if !toks[back..in_idx].iter().any(|t| t.kind.is_ident("for")) {
        return None;
    }
    let mut last_ident: Option<&str> = None;
    for t in toks.iter().skip(in_idx + 1).take(16) {
        match &t.kind {
            TokKind::Ident(s) if s == "mut" => {}
            TokKind::Ident(s) => last_ident = Some(s),
            TokKind::Punct('&') | TokKind::Punct('.') => {}
            TokKind::Punct('{') => {
                let name = last_ident?;
                if names.iter().any(|n| n == name) {
                    return Some((name.to_string(), toks[in_idx].line));
                }
                return None;
            }
            // Anything else (calls, ranges, indexing) — not a bare map
            // expression; the method rule covers `.iter()` chains.
            _ => return None,
        }
    }
    None
}

// ---------------------------------------------------------------------
// determinism: wall-clock
// ---------------------------------------------------------------------

fn rule_wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let Some(krate) = ctx.krate else { return };
    if !RESULT_AFFECTING_CRATES.contains(&krate) {
        return;
    }
    for tok in &ctx.lexed.toks {
        if ctx.in_test(tok) {
            continue;
        }
        if let TokKind::Ident(s) = &tok.kind {
            if s == "Instant" || s == "SystemTime" {
                out.push(Diagnostic {
                    rule: "wall-clock",
                    path: ctx.path.to_string(),
                    line: tok.line,
                    message: format!(
                        "`{s}` in result-affecting crate `{krate}`: wall-clock reads make \
                         reports irreproducible; move timing to the harness/fabric layer or \
                         allowlist a telemetry-only site"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// hygiene: no-unsafe
// ---------------------------------------------------------------------

fn rule_no_unsafe(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for tok in &ctx.lexed.toks {
        if tok.kind.is_ident("unsafe") {
            out.push(Diagnostic {
                rule: "no-unsafe",
                path: ctx.path.to_string(),
                line: tok.line,
                message: "`unsafe` is banned workspace-wide (the workspace is 100% safe Rust); \
                          allowlist with a justification if genuinely unavoidable"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// hygiene: no-panic-tick
// ---------------------------------------------------------------------

fn rule_no_panic_tick(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !TICK_PATH_FILES
        .iter()
        .any(|f| ctx.path == *f || ctx.path.ends_with(&format!("/{f}")))
    {
        return;
    }
    let toks = &ctx.lexed.toks;
    for (i, tok) in toks.iter().enumerate() {
        if ctx.in_test(tok) {
            continue;
        }
        let TokKind::Ident(s) = &tok.kind else {
            continue;
        };
        let flagged = match s.as_str() {
            // `.unwrap()` / `.expect(`
            "unwrap" | "expect" => i > 0 && toks[i - 1].kind.is_punct('.'),
            // panicking macros
            "panic" | "unreachable" | "todo" | "unimplemented" => {
                toks.get(i + 1).is_some_and(|t| t.kind.is_punct('!'))
            }
            _ => false,
        };
        if flagged {
            out.push(Diagnostic {
                rule: "no-panic-tick",
                path: ctx.path.to_string(),
                line: tok.line,
                message: format!(
                    "`{s}` in a tick-path file: hot loops must degrade through error paths, \
                     not tear down a sweep; return an error/sentinel, or allowlist a site whose \
                     invariant is locally provable"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let krate = path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next());
        let ctx = FileCtx {
            path,
            lexed: &lexed,
            is_test_file: path.contains("/tests/") || path.contains("/benches/"),
            krate,
        };
        let mut out = Vec::new();
        run_token_rules(&ctx, &mut out);
        out
    }

    #[test]
    fn default_hasher_flags_two_arg_hashmap() {
        let src = "struct S { m: HashMap<u64, u32>, }";
        let d = run("crates/sim/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "default-hasher");
    }

    #[test]
    fn default_hasher_accepts_explicit_hasher() {
        let src = "struct S { m: HashMap<u64, u32, FastBuildHasher>, s: HashSet<u64, B>, }\n\
                   fn f() { let m: HashMap<u64, Vec<u64>, FastBuildHasher> = HashMap::with_hasher(FastBuildHasher::default()); }";
        let d = run("crates/sim/src/x.rs", src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn default_hasher_skips_use_and_tests() {
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)] mod t { fn f() { let m: HashMap<u8, u8> = HashMap::new(); } }";
        let d = run("crates/sim/src/x.rs", src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn default_hasher_counts_nested_generics() {
        let src = "struct S { m: HashMap<u64, Vec<(u64, u32)>>, }";
        let d = run("crates/sim/src/x.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        // fn types with arrows inside the generics
        let src2 = "struct S { m: HashMap<u64, fn(u32, u8) -> u64, H>, }";
        assert!(run("crates/sim/src/x.rs", src2).is_empty());
    }

    #[test]
    fn map_iteration_flags_values_chain_and_for() {
        let src = "struct S { index: Mutex<HashMap<u64, R, H>>, }\n\
                   impl S { fn f(&self) -> Vec<R> { self.index.lock().unwrap().values().cloned().collect() } }\n\
                   fn g(m: &HashMap<u64, u32, H>) { for (k, v) in m { } }";
        let d = run("crates/harness/src/x.rs", src);
        let rules: Vec<_> = d.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["map-iteration", "map-iteration"], "{d:?}");
    }

    #[test]
    fn map_iteration_ignores_vec_and_lookups() {
        let src = "fn f(items: Vec<u64>, m: &HashMap<u64, u32, H>) -> u32 {\n\
                     for x in items.iter() { }\n\
                     *m.get(&3).unwrap_or(&0)\n\
                   }";
        let d = run("crates/harness/src/x.rs", src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn wall_clock_only_in_result_affecting_crates() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(run("crates/sim/src/x.rs", src).len(), 1);
        assert!(run("crates/harness/src/x.rs", src).is_empty());
        assert!(run("crates/fabric/src/x.rs", src).is_empty());
        // test scopes exempt
        let src_t = "#[cfg(test)] mod t { fn f() { Instant::now(); } }";
        assert!(run("crates/sim/src/x.rs", src_t).is_empty());
    }

    #[test]
    fn no_unsafe_flags_everywhere_even_tests() {
        let src = "#[cfg(test)] mod t { fn f() { unsafe { } } }";
        let d = run("crates/sim/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-unsafe");
    }

    #[test]
    fn no_panic_tick_scoped_to_tick_files() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let d = run("crates/sim/src/sm.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-panic-tick");
        assert!(run("crates/sim/src/metrics.rs", src).is_empty());
        // tests in tick files stay free
        let src_t = "#[test] fn t() { Some(1).unwrap(); panic!(\"x\"); }";
        assert!(run("crates/sim/src/sm.rs", src_t).is_empty());
    }
}
