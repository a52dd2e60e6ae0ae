//! The whole workspace is clean under its conventions: every first-party
//! crate opts into the root `[workspace.lints]`, and
//! `cargo clippy --workspace --all-targets -- -D warnings` reports nothing.
//! `tests/golden.rs` shows that each convention's violation would be
//! reported.

use std::path::Path;
use std::process::Command;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Paths of the workspace members the root manifest lists.
fn members() -> Vec<String> {
    let manifest = std::fs::read_to_string(Path::new(ROOT).join("Cargo.toml")).unwrap();
    let (_, rest) = manifest.split_once("\nmembers = [").unwrap();
    let (list, _) = rest.split_once(']').unwrap();
    list.split(',')
        .map(|m| m.trim().trim_matches('"').to_string())
        .filter(|m| !m.is_empty())
        .collect()
}

/// Zero findings, and fast: clippy's check build runs on its own target
/// directory (shared with `tests/golden.rs`) and re-checks only what
/// changed since the last run.
#[test]
fn workspace_has_zero_findings_and_analyzes_fast() {
    let first_party = members()
        .into_iter()
        .filter(|m| !m.starts_with("third_party/"));
    for member in std::iter::once(".".to_string()).chain(first_party) {
        let manifest = std::fs::read_to_string(Path::new(ROOT).join(&member).join("Cargo.toml"));
        assert!(
            manifest.unwrap().contains("\n[lints]\nworkspace = true\n"),
            "{member}/Cargo.toml does not opt into [workspace.lints]"
        );
    }

    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy");
    let out = Command::new(cargo)
        .args(["clippy", "--offline", "--quiet"])
        .args(["--workspace", "--all-targets", "--message-format=short"])
        .args(["--", "-D", "warnings"])
        .current_dir(ROOT)
        .env("CARGO_TARGET_DIR", target)
        .output()
        .expect("cargo clippy runs");
    assert!(
        out.status.success(),
        "clippy findings:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
