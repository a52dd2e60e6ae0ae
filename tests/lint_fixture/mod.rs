//! Runs clippy on throwaway crates built from the workspace's real lint
//! configuration, for `tests/golden.rs` and the crate's own lint-case unit
//! tests (`src/rules.rs`).
//!
//! A case's crate gets the root `Cargo.toml`'s `[workspace.lints]` tables,
//! the root `clippy.toml`, and the inner `#![…]` attributes heading the real
//! files the code would live in, plus the fixture source. `check` runs
//! `cargo clippy --all-targets` on it and compares the reported
//! `(lint, line)` set with the fixture's `//~ <lint>` markers. Every crate
//! shares one target directory with `tests/clean_workspace.rs`, so
//! `cm-topology` (which fixtures may call into) is checked once.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The workspace root.
pub const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// `(lint, line)` pairs in the fixture's `src/lib.rs`.
pub type Findings = BTreeSet<(String, usize)>;

/// One fixture: each set of real files whose inner attributes apply to its
/// code (crate root first), and fixture code marking every expected finding
/// with `//~ <lint>`. Unmarked lines must stay silent.
pub struct Case {
    /// Names the fixture's crate; unique among all cases.
    pub name: &'static str,
    /// The homes the fixture is checked under, one clippy run each.
    pub homes: &'static [&'static [&'static str]],
    /// The fixture code.
    pub source: &'static str,
}

/// Contents of `file`, relative to the workspace root.
pub fn read(file: &str) -> String {
    fs::read_to_string(Path::new(ROOT).join(file)).unwrap()
}

/// The root manifest's `[workspace.lints.*]` tables, verbatim.
pub fn workspace_lints() -> String {
    let mut out = String::new();
    let mut inside = false;
    for line in read("Cargo.toml").lines() {
        if line.starts_with('[') {
            inside = line.starts_with("[workspace.lints");
        }
        if inside {
            out += line;
            out += "\n";
        }
    }
    out
}

/// The inner attributes (`#![…]`, possibly spanning lines) of `file`.
pub fn inner_attributes(file: &str) -> String {
    let mut out = String::new();
    let mut open = false;
    for line in read(file).lines() {
        open |= line.starts_with("#![");
        if open {
            out += line;
            out += "\n";
            open = !line.ends_with(']');
        }
    }
    out
}

/// `(lint, line)` of every `//~ <lint>` marker, `offset` lines into the file.
pub fn markers(source: &str, offset: usize) -> Findings {
    let lines = source.trim_start_matches('\n').lines().enumerate();
    let marked = lines.filter_map(|(i, line)| Some((line.split_once("//~ ")?.1, offset + i + 1)));
    marked
        .map(|(lint, at)| (lint.trim().to_string(), at))
        .collect()
}

/// `(lint, line)` of every diagnostic in `cargo --message-format=json`
/// output whose primary span is in `src/lib.rs`.
fn findings(stdout: &str) -> Findings {
    let diagnostics = stdout.lines().filter_map(|msg| {
        let lint = msg.split_once(r#""code":{"code":""#)?.1.split('"').next()?;
        let line = msg.split_once("--> src/lib.rs:")?.1.split(':').next()?;
        Some((lint.to_string(), line.parse().ok()?))
    });
    diagnostics.collect()
}

/// Cargo's per-target-directory scratch space: `CARGO_TARGET_TMPDIR` in
/// integration tests, else `tmp/` under the target directory holding the
/// running test binary (`<target>/<profile>/deps/<binary>`).
fn target_tmp() -> PathBuf {
    if let Some(dir) = option_env!("CARGO_TARGET_TMPDIR") {
        return PathBuf::from(dir);
    }
    let exe = std::env::current_exe().unwrap();
    exe.ancestors().nth(3).unwrap().join("tmp")
}

/// Run clippy on `case`'s fixture once per home, and require each run's
/// findings to be exactly the markers.
pub fn check(case: &Case) {
    let tmp = target_tmp();
    let topology = Path::new(ROOT).join("crates/topology");
    for (i, files) in case.homes.iter().enumerate() {
        let crate_name = format!("{}-{i}", case.name);
        let dir = tmp.join("lint-golden").join(&crate_name);
        fs::create_dir_all(dir.join("src")).unwrap();
        let manifest = format!(
            "[package]\nname = \"{crate_name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
             [dependencies]\ncm-topology = {{ path = {topology:?} }}\n\n\
             [lints]\nworkspace = true\n\n[workspace]\n\n{}",
            workspace_lints()
        );
        fs::write(dir.join("Cargo.toml"), manifest).unwrap();
        let mut lib = String::from("//! Lint golden fixture.\n");
        for file in *files {
            lib += &inner_attributes(file);
        }
        let expected = markers(case.source, lib.lines().count());
        lib += case.source.trim_start_matches('\n');
        fs::write(dir.join("src/lib.rs"), lib).unwrap();

        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let out = Command::new(cargo)
            .args(["clippy", "--offline", "--quiet", "--all-targets"])
            .arg("--message-format=json")
            .current_dir(&dir)
            .env("CARGO_TARGET_DIR", tmp.join("clippy"))
            .env("CLIPPY_CONF_DIR", ROOT)
            .output()
            .expect("cargo clippy runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{crate_name}:\n{stderr}\n{stdout}");
        assert_eq!(findings(&stdout), expected, "{crate_name} under {files:?}");
    }
}
