//! `valley-lint` — workspace invariant checker.
//!
//! Statically enforces the properties the simulator's correctness
//! story rests on: determinism (no default-hasher maps, no unordered
//! iteration feeding results, no wall-clock in result-affecting
//! crates) and hygiene (zero `unsafe`, no panics in tick paths). See
//! `docs/lint.md` for the rule catalog. (Schema stability is not a
//! lint: the wire/store shapes are declared tables, and a test in
//! `valley-fabric` compares their fingerprints with a pinned manifest.)
//!
//! The library form exists so tests can lint virtual file sets and so
//! `valley status --lint` can report the lint version a deployment is
//! running under.

pub mod allow;
pub mod lexer;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

use allow::AllowEntry;
use rules::{Diagnostic, FileCtx};

/// Lint tool version; bump when rules are added/changed so stored
/// results can be traced to the invariant set they were produced under.
pub const LINT_VERSION: &str = "2.0.0";

/// Result of a lint run.
#[derive(Debug)]
pub struct LintOutcome {
    /// Unsuppressed findings, sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Findings matched (and silenced) by `lint.toml` entries.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files: usize,
}

impl LintOutcome {
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lints a virtual file set: `(repo-relative path, source)` pairs plus
/// the allowlist contents. This is the pure core — [`run`] feeds it the
/// real tree, tests feed it fixtures.
pub fn lint_sources(
    files: &[(String, String)],
    allowlist_src: &str,
) -> Result<LintOutcome, String> {
    let entries =
        allow::parse(allowlist_src).map_err(|e| format!("lint.toml:{}: {}", e.line, e.message))?;

    let mut raw: Vec<Diagnostic> = Vec::new();
    for (path, src) in files {
        let ctx = FileCtx {
            path,
            lexed: &lexer::lex(src),
            is_test_file: path.contains("/tests/")
                || path.contains("/benches/")
                || path.contains("/examples/"),
            krate: path
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next()),
        };
        rules::run_token_rules(&ctx, &mut raw);
    }

    let line_text = |path: &str, line: u32| -> String {
        if line == 0 {
            return String::new();
        }
        files
            .iter()
            .find(|(p, _)| p == path)
            .and_then(|(_, src)| src.lines().nth(line as usize - 1))
            .unwrap_or_default()
            .to_string()
    };

    let mut diagnostics = Vec::new();
    let mut suppressed = 0usize;
    for d in raw {
        let text = line_text(&d.path, d.line);
        if entries.iter().any(|e| e.matches(d.rule, &d.path, &text)) {
            suppressed += 1;
        } else {
            diagnostics.push(d);
        }
    }
    for e in &entries {
        if !e.used() {
            diagnostics.push(Diagnostic {
                rule: "unused-allow",
                path: "lint.toml".to_string(),
                line: e.decl_line,
                message: format!(
                    "allowlist entry (rule `{}`, path `{}`) matches nothing; delete it so \
                     the allowlist cannot rot",
                    e.rule, e.path
                ),
            });
        }
    }
    diagnostics
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(LintOutcome {
        diagnostics,
        suppressed,
        files: files.len(),
    })
}

/// Walks the workspace for `.rs` files, returning sorted
/// `(repo-relative path, source)` pairs. Skips build output, VCS
/// internals, result stores, and lint test fixtures (which contain
/// violations on purpose).
pub fn collect_workspace_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(
                    name.as_ref(),
                    "target" | ".git" | "results" | "fixtures" | "node_modules"
                ) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| e.to_string())?
                    .to_string_lossy()
                    .replace('\\', "/");
                let src = fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                files.push((rel, src));
            }
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

/// Reads the allowlist (`lint.toml`) from disk under `root` and lints
/// the real tree. Missing allowlist = empty.
pub fn run(root: &Path) -> Result<LintOutcome, String> {
    let files = collect_workspace_sources(root)?;
    let allowlist = fs::read_to_string(root.join("lint.toml")).unwrap_or_default();
    lint_sources(&files, &allowlist)
}

/// Locates the workspace root: the nearest ancestor of `start` holding
/// a `Cargo.toml` that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(s) = fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Some(dir);
            }
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

/// Allowlist entry re-export for doc purposes.
pub type Allow = AllowEntry;
