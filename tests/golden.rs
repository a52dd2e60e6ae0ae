//! Lint goldens: each workspace convention's canonical violation fails
//! clippy with the lint that enforces it, at the line that breaks it, while
//! the sanctioned shapes beside it stay silent.
//!
//! Each case is a throwaway crate built from the real lint configuration
//! and checked by `lint_fixture::check`; the `txn-discipline` case calls
//! into `cm-topology`.

mod lint_fixture;

use lint_fixture::{inner_attributes, markers, read, workspace_lints, Case};
use std::collections::BTreeSet;

const ENFORCE_FLUID: &[&str] = &["crates/enforce/src/lib.rs", "crates/enforce/src/fluid.rs"];

const CASES: [Case; 8] = [
    Case {
        name: "txn-discipline",
        homes: &[&["crates/sim/src/lib.rs", "crates/sim/src/lifecycle.rs"]],
        source: r#"
/// Frees slots behind the reservation ledger's back.
pub fn leak_release(topo: &mut cm_topology::Topology, server: cm_topology::NodeId) {
    let _ = topo.release_slots(server, 4); //~ clippy::disallowed_methods
}

/// The reservation layer's shape: an `#[expect]` with its reason.
#[expect(clippy::disallowed_methods, reason = "the undo-logged reservation layer")]
pub fn reserve(topo: &mut cm_topology::Topology, server: cm_topology::NodeId) {
    let _ = topo.alloc_slots(server, 1);
}
"#,
    },
    Case {
        name: "lock-order",
        homes: &[&["crates/sim/src/lib.rs", "crates/sim/src/parallel.rs"]],
        source: r#"
/// A lock whose order against every other lock nobody stated.
pub fn push(queue: &std::sync::Mutex<Vec<u32>>, job: u32) { //~ clippy::disallowed_types
    if let Ok(mut q) = queue.lock() {
        q.push(job);
    }
}

/// A reader-writer lock is a lock too.
pub fn read(cache: &std::sync::RwLock<u32>) -> u32 { //~ clippy::disallowed_types
    cache.read().map_or(0, |c| *c)
}
"#,
    },
    Case {
        name: "atomic-ordering",
        homes: &[&["crates/core/src/lib.rs", "crates/core/src/placement/mod.rs"]],
        source: r#"
use std::sync::atomic::Ordering;

/// A counter bumped at an ordering nobody re-checks.
pub fn bump(counter: &std::sync::atomic::AtomicUsize) -> usize { //~ clippy::disallowed_types
    counter.fetch_add(1, Ordering::Relaxed)
}

/// `cmp::Ordering` is not an atomic.
pub fn order(a: u32, b: u32) -> std::cmp::Ordering {
    a.cmp(&b)
}
"#,
    },
    Case {
        name: "no-unwrap-in-hot-path",
        homes: &[
            &["crates/enforce/src/lib.rs", "crates/enforce/src/route.rs"],
            &["crates/core/src/lib.rs", "crates/core/src/placement/mod.rs"],
            &["crates/cluster/src/lib.rs"],
        ],
        source: r#"
/// A stale cache entry panics the hot path.
pub fn cached(cache: &std::collections::HashMap<u64, u32>, key: u64) -> u32 {
    *cache.get(&key).unwrap() //~ clippy::unwrap_used
}

/// An `expect` is flagged too.
pub fn first_hop(hops: &[u32]) -> u32 {
    *hops.first().expect("routes are never empty") //~ clippy::expect_used
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        assert_eq!("7".parse::<u32>().unwrap(), 7);
        assert_eq!("7".parse::<u32>().expect("a number"), 7);
    }
}
"#,
    },
    Case {
        name: "float-eq",
        homes: &[
            ENFORCE_FLUID,
            &[
                "crates/enforce/src/lib.rs",
                "crates/enforce/src/incremental.rs",
            ],
        ],
        source: r#"
/// Exact float equality in a solver verdict.
pub fn work_conserved(rate: f64, want: f64) -> bool {
    rate == want //~ clippy::float_cmp
}

/// Indexed floats are floats.
pub fn converged(used: &[f64], cap: &[f64], l: usize) -> bool {
    used[l] != cap[l] //~ clippy::float_cmp
}

/// Index comparisons are fine.
pub fn same_slot(slot: u32, other: u32) -> bool {
    slot == other
}
"#,
    },
    Case {
        name: "pub-doc",
        homes: &[&["crates/core/src/lib.rs"]],
        source: r#"
pub struct Undocumented { //~ missing_docs
    pub field: u32, //~ missing_docs
}

#[derive(Debug)]
/// Attributes between the doc and the item are fine.
pub enum Documented {}
"#,
    },
    Case {
        name: "pragma-syntax",
        homes: &[ENFORCE_FLUID],
        source: r#"
/// A suppression without a reason.
#[expect(clippy::float_cmp)] //~ clippy::allow_attributes_without_reason
pub fn missing_reason(a: f64, b: f64) -> bool {
    a == b
}

/// A misspelled lint suppresses nothing.
#[expect(clippy::flot_cmp, reason = "typo")] //~ unknown_lints
pub fn unknown_lint(a: f64, b: f64) -> bool {
    a != b //~ clippy::float_cmp
}

/// An `allow` cannot report going stale, so it is refused.
#[allow(clippy::float_cmp, reason = "never goes stale")] //~ clippy::allow_attributes
pub fn bare_allow(a: f64, b: f64) -> bool {
    a == b
}
"#,
    },
    Case {
        name: "pragma-unused",
        homes: &[ENFORCE_FLUID],
        source: r#"
/// The exact compare this excused was rewritten.
#[expect(clippy::float_cmp, reason = "stale")] //~ unfulfilled_lint_expectations
pub fn fixed_long_ago(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9
}
"#,
    },
];

/// Check the golden case called `name`.
fn check(name: &str) {
    lint_fixture::check(CASES.iter().find(|c| c.name == name).unwrap());
}

#[test]
fn golden_txn_discipline() {
    check("txn-discipline");
}

#[test]
fn golden_lock_order() {
    check("lock-order");
}

#[test]
fn golden_no_unwrap_in_hot_path() {
    check("no-unwrap-in-hot-path");
}

#[test]
fn golden_float_eq() {
    check("float-eq");
}

#[test]
fn golden_pub_doc() {
    check("pub-doc");
}

#[test]
fn golden_atomic_ordering() {
    check("atomic-ordering");
}

#[test]
fn golden_pragma_syntax() {
    check("pragma-syntax");
}

#[test]
fn golden_pragma_unused() {
    check("pragma-unused");
}

/// Every lint the workspace configures — in `[workspace.lints]`, as a
/// `clippy.toml` `disallowed-*` list, or in a case's home `#![warn]` — is
/// some case's expected finding.
#[test]
fn every_rule_has_a_fixture() {
    let covered: BTreeSet<String> = CASES
        .iter()
        .flat_map(|c| markers(c.source, 0))
        .map(|(lint, _)| lint)
        .collect();
    let mut configured = BTreeSet::new();
    let mut tool = "";
    for line in workspace_lints().lines() {
        if let Some(table) = line.strip_prefix("[workspace.lints.") {
            tool = table.trim_end_matches(']');
        } else if let Some((lint, _)) = line.split_once(" = ") {
            let prefix = if tool == "rust" {
                String::new()
            } else {
                format!("{tool}::")
            };
            configured.insert(prefix + lint);
        }
    }
    for line in read("clippy.toml").lines() {
        if let Some((key, _)) = line.split_once(" = [") {
            configured.insert(format!("clippy::{}", key.replace('-', "_")));
        }
    }
    let homes = CASES.iter().flat_map(|c| c.homes.iter().copied().flatten());
    for attrs in homes.map(|file| inner_attributes(file)) {
        for lints in attrs.lines().filter_map(|l| l.strip_prefix("#![warn(")) {
            let lints = lints.trim_end_matches(")]").split(", ");
            configured.extend(lints.map(str::to_string));
        }
    }
    let missing: Vec<_> = configured.difference(&covered).collect();
    assert!(missing.is_empty(), "lints with no golden case: {missing:?}");
}
