//! Repo-specific configuration: the conventions under check, spelled out.
//!
//! Everything a rule needs to know about *this* workspace lives here —
//! which `Topology` methods mutate reservation state, which modules form
//! the sanctioned reservation layer, which crates are hot-path, which
//! solver files ban float `==`. Keeping the knowledge in one place makes
//! the rules themselves generic line-scanners and makes the config the
//! natural thing to update when the architecture moves.

/// Workspace-specific knowledge consumed by the rules.
#[derive(Debug, Clone)]
pub struct Config {
    /// `Topology` methods that mutate reservation/failure state. Calling
    /// any of these outside [`Config::txn_allowlist`] (or test code) is a
    /// `txn-discipline` violation.
    pub topology_mutators: Vec<&'static str>,
    /// Path prefixes allowed to call the mutators directly: the defining
    /// crate and the undo-log reservation layer.
    pub txn_allowlist: Vec<&'static str>,
    /// Path prefixes whose non-test code must not `unwrap()`/`expect(`.
    pub hot_path_prefixes: Vec<&'static str>,
    /// Exact files where `==`/`!=` between float expressions is banned
    /// (the max-min solver and its incremental wrapper).
    pub float_eq_files: Vec<&'static str>,
    /// Helper fns/methods known to return floats, for operand typing in
    /// `float-eq` (beyond what local declarations reveal).
    pub float_returning: Vec<&'static str>,
    /// Path prefixes whose `pub` items must carry doc comments.
    pub pub_doc_prefixes: Vec<&'static str>,
}

impl Config {
    /// The CloudMirror workspace's conventions.
    pub fn cloudmirror() -> Config {
        Config {
            topology_mutators: vec![
                "alloc_slots",
                "release_slots",
                "adjust_uplink",
                "force_adjust_uplink",
                "fail_server",
                "restore_server",
                "degrade_link",
                "restore_link",
                "fail_domain",
                "restore_domain",
            ],
            txn_allowlist: vec![
                // The defining crate: mutators plus their own maintenance.
                "crates/topology/",
                // The reservation layer every placement mutation flows
                // through (ReservationTxn in txn.rs delegates here).
                "crates/core/src/txn.rs",
                "crates/core/src/reserve.rs",
            ],
            hot_path_prefixes: vec![
                "crates/core/src/placement/",
                "crates/enforce/src/",
                "crates/cluster/src/",
            ],
            float_eq_files: vec![
                "crates/enforce/src/fluid.rs",
                "crates/enforce/src/incremental.rs",
            ],
            float_returning: vec![
                "link_cap",
                "tol",
                "abs",
                "sqrt",
                "min",
                "max",
                "as_secs_f64",
            ],
            pub_doc_prefixes: vec![
                "crates/topology/src/",
                "crates/core/src/",
                "crates/baselines/src/",
                "crates/workloads/src/",
                "crates/enforce/src/",
                "crates/cluster/src/",
                "crates/inference/src/",
                "crates/sim/src/",
                "crates/analyze/src/",
                "src/",
            ],
        }
    }
}

/// Whether a repo-relative path is test/dev code (integration tests,
/// benches, examples, fixtures, or an inline `tests.rs` module file).
pub fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.starts_with("examples/")
        || path.contains("/examples/")
        || path.ends_with("/tests.rs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_paths_are_classified() {
        assert!(is_test_path("tests/foo.rs"));
        assert!(is_test_path("crates/enforce/tests/fluid_differential.rs"));
        assert!(is_test_path("crates/cluster/src/tests.rs"));
        assert!(is_test_path("examples/quickstart.rs"));
        assert!(!is_test_path("crates/enforce/src/fluid.rs"));
    }

    #[test]
    fn cloudmirror_config_is_coherent() {
        let c = Config::cloudmirror();
        assert!(c.topology_mutators.contains(&"alloc_slots"));
        for f in &c.float_eq_files {
            assert!(f.ends_with(".rs"));
        }
    }
}
