//! `switchfs-lint`: a workspace-aware static analyzer for the two invariants
//! of this codebase that need to know its protocol, which no stock tool does.
//!
//! - **WAL persist ordering at protocol barriers** (`persist-ordering`) — an
//!   ordering-critical record (2PC marker, migration marker, durable
//!   completion) must be flushed before its effects escape onto the network,
//!   or a torn-tail crash replays an asymmetric prefix.
//! - **An observability vocabulary someone emits** (`event-coverage`) —
//!   every `obs::EventKind` variant is constructed somewhere outside
//!   `crates/obs`.
//!
//! The two invariants that do *not* need protocol knowledge are clippy's, on
//! the `cargo clippy … -D warnings` command line CI runs: a `RefCell` guard
//! held across an `.await` is `clippy::await_holding_refcell_ref`, and the
//! sources of per-process state that would break bit-identical replay
//! (default-hasher `HashMap` / `HashSet`, `Instant`, `SystemTime`) are
//! `disallowed-types` / `disallowed-methods` in the root `clippy.toml`. Type
//! resolution makes clippy the stronger checker for those, and it also sees
//! `tests/`, `examples/` and `#[cfg(test)]` code, which this analyzer skips.
//!
//! Each rule produces `file:line` diagnostics. Findings are suppressible
//! with a justified comment on the preceding (or same) line:
//!
//! ```text
//! // switchfs-lint: allow(persist-ordering) the flush is the caller's, see apply_and_log
//! ```
//!
//! The analyzer is dependency-free (hand-rolled lexer + brace tracker — the
//! build environment is offline, so no `syn`), and scans every workspace
//! crate's `src/` tree except `crates/compat` (offline stand-ins for
//! crates.io code) and `crates/lint` itself. `#[cfg(test)]` items and
//! integration-test trees are out of scope: they run on the host, not inside
//! the simulation.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod rules;

use lexer::{lex, strip_cfg_test, Directive, Lexed};

/// Rule id: WAL flush ordering at protocol barriers.
pub const RULE_PERSIST: &str = "persist-ordering";
/// Rule id: every `EventKind` variant must be emitted outside `crates/obs`.
pub const RULE_EVENT_COVERAGE: &str = "event-coverage";
/// Rule id for problems with suppression directives themselves (malformed,
/// or missing the required justification). Not suppressible.
pub const RULE_DIRECTIVE: &str = "lint-directive";

/// Both code rules, in reporting order.
pub const ALL_RULES: &[&str] = &[RULE_PERSIST, RULE_EVENT_COVERAGE];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// A finding without a file (the driver fills it in).
    pub fn new(rule: &'static str, line: u32, message: String) -> Finding {
        Finding {
            file: String::new(),
            line,
            rule,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The outcome of linting a workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by a justified `allow(...)` directive.
    pub suppressed: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when the workspace is clean (CI gate passes).
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Crates whose `src/` trees are never scanned: offline stand-ins for
/// crates.io dependencies (not our code), and the linter itself (a host
/// tool, not simulation code).
const EXCLUDED_CRATES: &[&str] = &["compat", "lint"];

/// Lexes one file and drops its `#[cfg(test)]` items: the code tokens the
/// rules see, plus the file's suppression directives.
fn lex_code(source: &str) -> (Vec<lexer::Token>, Vec<Directive>) {
    let Lexed { tokens, directives } = lex(source);
    (strip_cfg_test(tokens), directives)
}

/// Lints a single file's source with the per-file rule (`persist-ordering`);
/// event-coverage is workspace-level and handled by [`lint_workspace`].
/// Returned findings have empty `file` fields and are not yet
/// suppression-filtered — [`apply_suppressions`] does that.
pub fn lint_source(source: &str) -> (Vec<Finding>, Vec<Directive>) {
    let (tokens, directives) = lex_code(source);
    let mut findings = Vec::new();
    rules::persist_ordering(&tokens, &mut findings);
    (findings, directives)
}

/// Splits `findings` into (kept, suppressed) using the file's directives,
/// and reports directive problems (malformed, missing reason) as findings.
///
/// A directive on line *N* covers findings on line *N* (trailing comment)
/// and line *N + 1* (comment on the preceding line), for the rules it
/// names.
pub fn apply_suppressions(
    findings: Vec<Finding>,
    directives: &[Directive],
) -> (Vec<Finding>, Vec<Finding>) {
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    for d in directives {
        if !d.well_formed {
            kept.push(Finding::new(
                RULE_DIRECTIVE,
                d.line,
                format!(
                    "malformed suppression; expected `{} allow(<rule>, …) <reason>`",
                    lexer::DIRECTIVE_PREFIX
                ),
            ));
            continue;
        }
        for r in &d.rules {
            if !ALL_RULES.contains(&r.as_str()) {
                kept.push(Finding::new(
                    RULE_DIRECTIVE,
                    d.line,
                    format!("suppression names unknown rule `{r}`"),
                ));
            }
        }
        if d.reason.is_empty() {
            kept.push(Finding::new(
                RULE_DIRECTIVE,
                d.line,
                "suppression must carry a written justification after `allow(…)`".into(),
            ));
        }
    }
    for f in findings {
        let covered = directives.iter().any(|d| {
            d.well_formed
                && !d.reason.is_empty()
                && (d.line == f.line || d.line + 1 == f.line)
                && d.rules.iter().any(|r| r == f.rule)
        });
        if covered {
            suppressed.push(f);
        } else {
            kept.push(f);
        }
    }
    (kept, suppressed)
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// reporting.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The crates the analyzer walks: every `crates/<name>` with a `src/` tree
/// except [`EXCLUDED_CRATES`], plus the root umbrella crate's `src/`.
/// Returns `(crate name, src dir)` pairs, sorted by name.
pub fn workspace_targets(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut targets = Vec::new();
    let crates = root.join("crates");
    let mut names: Vec<String> = fs::read_dir(&crates)?
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    names.sort();
    for name in names {
        if EXCLUDED_CRATES.contains(&name.as_str()) {
            continue;
        }
        let src = crates.join(&name).join("src");
        if src.is_dir() {
            targets.push((name, src));
        }
    }
    targets.push(("switchfs".to_string(), root.join("src")));
    Ok(targets)
}

/// Lints the whole workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml`).
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    let mut emitted: BTreeSet<String> = BTreeSet::new();
    let mut obs_variants = Vec::new();
    let mut obs_directives: Vec<(String, Vec<Directive>)> = Vec::new();

    for (crate_name, src) in workspace_targets(root)? {
        let mut files = Vec::new();
        rs_files(&src, &mut files)?;
        for path in files {
            let source = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            report.files_scanned += 1;
            let (tokens, directives) = lex_code(&source);
            let mut findings = Vec::new();
            rules::persist_ordering(&tokens, &mut findings);
            if crate_name == "obs" {
                let variants = rules::event_kind_variants(&tokens);
                if !variants.is_empty() {
                    obs_variants = variants;
                    obs_directives.push((rel.clone(), directives.clone()));
                }
            } else {
                rules::event_kind_uses(&tokens, &mut emitted);
            }
            let (kept, suppressed) = apply_suppressions(findings, &directives);
            for mut f in kept {
                f.file = rel.clone();
                report.findings.push(f);
            }
            for mut f in suppressed {
                f.file = rel.clone();
                report.suppressed.push(f);
            }
        }
    }

    // Workspace-level rule: event coverage. Findings anchor at the variant
    // definition; suppressions therefore live in the obs source.
    let mut coverage = Vec::new();
    rules::event_coverage(&obs_variants, &emitted, &mut coverage);
    for (file, directives) in &obs_directives {
        let (kept, suppressed) = apply_suppressions(std::mem::take(&mut coverage), directives);
        coverage = Vec::new();
        for mut f in kept {
            // Directive-health findings for obs were already reported by the
            // per-file pass; keep only the coverage findings here.
            if f.rule != RULE_EVENT_COVERAGE {
                continue;
            }
            f.file = file.clone();
            report.findings.push(f);
        }
        for mut f in suppressed {
            f.file = file.clone();
            report.suppressed.push(f);
        }
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .suppressed
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Ascends from `start` to the directory whose `Cargo.toml` declares the
/// workspace.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
