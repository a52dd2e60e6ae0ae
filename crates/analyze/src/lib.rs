//! # cm-analyze
//!
//! Repo-specific static analysis for the CloudMirror workspace: the
//! correctness conventions the reproduction's headline claims rest on —
//! reservation conservation, exact rollback, exact max-min solves,
//! worst-case survivability — turned into machine-checked,
//! CI-gated rules.
//!
//! The pass is an offline, dependency-free line scanner (no `syn`; the
//! build container has no registry access) with a small rule engine:
//!
//! | rule | convention |
//! |------|------------|
//! | `txn-discipline` | `Topology` mutations only through the reservation layer |
//! | `lock-order` | lock acquisitions follow the declared `lock-order(…)` header |
//! | `no-unwrap-in-hot-path` | no `unwrap()`/`expect(` in hot-path non-test code |
//! | `float-eq` | no float `==`/`!=` in solver code |
//! | `pub-doc` | exported library items carry doc comments |
//! | `pragma-syntax` | suppressions parse and carry a reason |
//! | `pragma-unused` | suppressions actually suppress something |
//!
//! Violations are suppressed per line with
//! `// cm-analyze: allow(<rule>) -- <reason>`; the reason is mandatory and
//! stale pragmas are themselves findings, so the suppression surface stays
//! exactly as large as the justified exceptions. See `ANALYSIS.md` at the
//! workspace root for the full catalog.
//!
//! Run it as `cargo run -p cm-analyze --` (add `--json` for machine
//! output); the process exits non-zero when findings exist, which is what
//! CI gates on.

/// Repo-specific rule configuration: allowlists, hot paths, lock files.
pub mod config;
/// Findings plus their text and JSON renderings.
pub mod diag;
/// Suppression pragmas and machine-readable lock-order headers.
pub mod pragma;
/// The rule implementations and registry.
pub mod rules;
/// The hand-rolled line scanner every rule runs on.
pub mod scan;

pub use config::Config;
pub use diag::Finding;

use scan::SourceFile;
use std::path::{Path, PathBuf};

/// The result of one analysis pass.
#[derive(Debug)]
pub struct Report {
    /// All unsuppressed findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Analyze every workspace source file under `root` with the full rule
/// set. `rule_filter`, when non-empty, restricts execution to the named
/// rules (the pragma meta-rules only run unfiltered, since "unused"
/// cannot be decided under a partial rule set).
pub fn analyze_root(root: &Path, cfg: &Config, rule_filter: &[String]) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        collect_rs(&root.join(top), root, &mut files)?;
    }
    files.sort();
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(root.join(p))?;
            Ok(SourceFile::scan(p.clone(), &text))
        })
        .collect::<std::io::Result<_>>()?;
    Ok(analyze_sources(&sources, cfg, rule_filter))
}

/// Analyze pre-scanned sources (the fixture tests drive this directly).
pub fn analyze_sources(sources: &[SourceFile], cfg: &Config, rule_filter: &[String]) -> Report {
    let rules = rules::all_rules();
    let active = |name: &str| rule_filter.is_empty() || rule_filter.iter().any(|r| r == name);
    let mut findings = Vec::new();
    for file in sources {
        let pragmas = pragma::parse(file);
        let mut raw = Vec::new();
        for rule in &rules {
            if active(rule.name()) {
                rule.check(file, &pragmas, cfg, &mut raw);
            }
        }
        // Apply suppressions (marking pragmas used), then the meta rules.
        for f in raw {
            if !pragmas.suppresses(file, f.rule, f.line) {
                findings.push(f);
            }
        }
        if rule_filter.is_empty() {
            meta_findings(file, &pragmas, &mut findings);
        }
    }
    findings.sort();
    Report {
        findings,
        files_scanned: sources.len(),
    }
}

/// The pragma meta rules: malformed markers, missing reasons, unknown rule
/// names, and pragmas that suppressed nothing.
fn meta_findings(file: &SourceFile, pragmas: &pragma::FilePragmas, out: &mut Vec<Finding>) {
    for &line in &pragmas.malformed {
        out.push(rules::finding(
            file,
            line,
            rules::PRAGMA_SYNTAX,
            "unparseable `cm-analyze:` marker".to_string(),
            "expected `allow(<rule>[, <rule>]) -- <reason>` or `lock-order(a < b)`",
        ));
    }
    for p in &pragmas.allows {
        for r in &p.rules {
            if !rules::ALL_RULES.contains(&r.as_str()) {
                out.push(rules::finding(
                    file,
                    p.line,
                    rules::PRAGMA_SYNTAX,
                    format!("pragma names unknown rule `{r}`"),
                    "known rules: see `cm-analyze --list-rules`",
                ));
            }
        }
        if !p.has_reason {
            out.push(rules::finding(
                file,
                p.line,
                rules::PRAGMA_SYNTAX,
                "suppression without a reason".to_string(),
                "append ` -- <why this exception is sound>` — unexplained \
                 exemptions defeat the audit trail",
            ));
        } else if !p.used.get() {
            out.push(rules::finding(
                file,
                p.line,
                rules::PRAGMA_UNUSED,
                format!("pragma for `{}` suppresses nothing", p.rules.join(", ")),
                "the code it excused was fixed or moved — delete the pragma",
            ));
        }
    }
}

/// Recursively collect `.rs` files under `dir`, storing root-relative
/// paths. Skips build output, vendored stubs, and the analyzer's own
/// violation fixtures.
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        if path.is_dir() {
            if matches!(
                name.as_str(),
                "target" | "third_party" | "fixtures" | ".git"
            ) {
                continue;
            }
            collect_rs(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            out.push(rel);
        }
    }
    Ok(())
}

/// Locate the workspace root: walk up from `start` to the first directory
/// holding a `Cargo.toml` that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(path: &str, text: &str) -> SourceFile {
        SourceFile::scan(PathBuf::from(path), text)
    }

    #[test]
    fn suppressed_findings_are_dropped_and_pragma_counts_as_used() {
        let f = src(
            "crates/enforce/src/fluid.rs",
            "/// D.\npub fn f(x: &O) {\n    x.get().expect(\"set by new\"); // cm-analyze: allow(no-unwrap-in-hot-path) -- set in the constructor\n}\n",
        );
        let r = analyze_sources(&[f], &Config::cloudmirror(), &[]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn unused_pragma_is_a_finding() {
        let f = src(
            "crates/enforce/src/fluid.rs",
            "/// D.\npub fn f() {} // cm-analyze: allow(float-eq) -- stale\n",
        );
        let r = analyze_sources(&[f], &Config::cloudmirror(), &[]);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, rules::PRAGMA_UNUSED);
    }

    #[test]
    fn missing_reason_is_a_finding_even_when_suppression_matches() {
        let f = src(
            "crates/enforce/src/fluid.rs",
            "/// D.\npub fn f(x: &O) {\n    x.get().unwrap() // cm-analyze: allow(no-unwrap-in-hot-path)\n}\n",
        );
        let r = analyze_sources(&[f], &Config::cloudmirror(), &[]);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, rules::PRAGMA_SYNTAX);
    }

    #[test]
    fn rule_filter_restricts_and_disables_meta_rules() {
        let f = src(
            "crates/enforce/src/fluid.rs",
            "pub fn f() { x.unwrap(); } // cm-analyze: allow(pub-doc) -- stale\n",
        );
        let r = analyze_sources(
            &[f],
            &Config::cloudmirror(),
            &["no-unwrap-in-hot-path".to_string()],
        );
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, rules::NO_UNWRAP);
    }
}
