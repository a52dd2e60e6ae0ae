//! Edge cases of the workspace's lint conventions (README "Lints"): shapes
//! each convention's lint must leave alone, checked by running clippy on a
//! throwaway crate (`tests/lint_fixture`) beside one marked violation that
//! shows the lint is live. `tests/golden.rs` holds each convention's
//! canonical violation.

use crate::lint_fixture::{check, Case};

const HOT_PATH: &[&[&str]] = &[
    &["crates/enforce/src/lib.rs", "crates/enforce/src/route.rs"],
    &["crates/core/src/lib.rs", "crates/core/src/placement/mod.rs"],
    &["crates/cluster/src/lib.rs"],
];

const SOLVERS: &[&[&str]] = &[
    &["crates/enforce/src/lib.rs", "crates/enforce/src/fluid.rs"],
    &[
        "crates/enforce/src/lib.rs",
        "crates/enforce/src/incremental.rs",
    ],
];

mod txn {
    mod tests {
        use crate::rules::{check, Case};

        #[test]
        fn mentions_in_strings_and_comments_do_not_fire() {
            check(&Case {
                name: "txn-mentions",
                homes: &[&["crates/sim/src/lib.rs", "crates/sim/src/lifecycle.rs"]],
                source: r#"
/// Names the mutators without calling them: `Topology::alloc_slots` and
/// `Topology::release_slots` are reached through `ReservationTxn`.
pub fn describe() -> &'static str {
    // topo.alloc_slots(server, 4) here would bypass the undo log.
    "topo.release_slots(server, 4) or topo.fail_server(server)"
}

/// A ledger of its own, whose method shares a mutator's name.
pub struct Ledger(pub u32);

impl Ledger {
    /// Not `Topology`'s `alloc_slots`.
    pub fn alloc_slots(&mut self, n: u32) {
        self.0 += n;
    }
}

/// Calls the ledger's method, not the topology's.
pub fn book(ledger: &mut Ledger) {
    ledger.alloc_slots(4);
}

/// The real mutator is still caught.
pub fn fail(topo: &mut cm_topology::Topology, server: cm_topology::NodeId) {
    let _ = topo.fail_server(server); //~ clippy::disallowed_methods
}
"#,
            });
        }
    }
}

mod unwrap {
    mod tests {
        use crate::rules::{check, Case, HOT_PATH};

        #[test]
        fn doc_comment_mentions_do_not_fire() {
            check(&Case {
                name: "unwrap-docs",
                homes: HOT_PATH,
                source: r#"
/// Never calls `.unwrap()` or `.expect("…")`: an empty route is `None`.
///
/// ```
/// let hops = [1u32, 2];
/// assert_eq!(hops.first().copied().unwrap(), 1);
/// ```
pub fn first_hop(hops: &[u32]) -> Option<u32> {
    // `hops.first().unwrap()` would panic on an empty route.
    hops.first().copied()
}

/// Code, unlike a comment, is caught.
pub fn last_hop(hops: &[u32]) -> u32 {
    *hops.last().unwrap() //~ clippy::unwrap_used
}
"#,
            });
        }

        #[test]
        fn cold_crates_tests_and_alternatives_are_fine() {
            check(&Case {
                name: "unwrap-alternatives",
                homes: HOT_PATH,
                source: r#"
/// Fallible lookups without a panic.
pub fn lookups(hops: &[u32], text: &str) -> Option<u32> {
    let first = hops.first().copied().unwrap_or(0);
    let last = hops.last().copied().unwrap_or_default();
    let parsed = text.parse::<u32>().ok()?;
    let mid = *hops.get(hops.len() / 2)?;
    Some(first + last + parsed + mid)
}

/// The hot path's own `unwrap` is still caught.
pub fn parse(text: &str) -> u32 {
    text.parse().unwrap() //~ clippy::unwrap_used
}

#[cfg(test)]
mod tests {
    #[test]
    fn broken_setup_may_panic() {
        assert_eq!(super::lookups(&[1, 2, 3], "4").unwrap(), 10);
        assert_eq!("7".parse::<u32>().expect("a number"), 7);
    }
}
"#,
            });
            check(&Case {
                name: "unwrap-cold-crates",
                homes: &[
                    &["crates/sim/src/lib.rs"],
                    &["crates/workloads/src/lib.rs"],
                    &["crates/core/src/lib.rs", "crates/core/src/model/mod.rs"],
                ],
                source: r#"
/// Harness code outside the hot path may panic on a broken setup.
pub fn seed(text: &str) -> u64 {
    let seed: u64 = text.parse().unwrap();
    seed + "1".parse::<u64>().expect("a literal")
}
"#,
            });
        }
    }
}

mod float_eq {
    mod tests {
        use crate::rules::{check, Case, SOLVERS};

        #[test]
        fn compound_operators_are_not_comparisons() {
            check(&Case {
                name: "float-compound",
                homes: SOLVERS,
                source: r#"
/// Accumulates and clamps a rate without exact equality.
pub fn settle(rate: &mut f64, delta: f64, cap: f64) -> bool {
    *rate += delta;
    *rate -= delta / 2.0;
    *rate /= 2.0;
    let saturated = *rate >= cap;
    let idle = *rate <= 0.0;
    saturated || idle || *rate < cap / 2.0 || *rate > cap
}

/// Bit patterns compare exactly by design.
pub fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Exact equality is still caught.
pub fn stalled(rate: f64, last: f64) -> bool {
    rate == last //~ clippy::float_cmp
}
"#,
            });
        }

        #[test]
        fn out_of_scope_files_are_skipped() {
            const SOURCE: &str = r#"
/// An exact compare of two rates.
pub fn stalled(rate: f64, last: f64) -> bool {
    rate == last
}
"#;
            check(&Case {
                name: "float-out-of-scope",
                homes: &[
                    &["crates/enforce/src/lib.rs", "crates/enforce/src/engine.rs"],
                    &["crates/sim/src/lib.rs"],
                    &["crates/core/src/lib.rs", "crates/core/src/placement/mod.rs"],
                ],
                source: SOURCE,
            });
        }
    }
}

mod pub_doc {
    mod tests {
        use crate::rules::{check, Case};

        #[test]
        fn documented_restricted_and_reexports_are_fine() {
            check(&Case {
                name: "pub-doc-restricted",
                homes: &[&["crates/core/src/lib.rs"]],
                source: r#"
pub use std::collections::BTreeMap;

/// A documented type.
#[derive(Debug, Default)]
pub struct Ledger {
    /// A documented field.
    pub booked: u32,
    spare: u32,
}

pub(crate) fn headroom(ledger: &Ledger) -> u32 {
    ledger.spare
}

impl Ledger {
    /// Booked plus headroom.
    pub fn total(&self) -> u32 {
        self.booked + headroom(self)
    }

    pub fn undocumented(&self) -> u32 { //~ missing_docs
        self.booked
    }
}
"#,
            });
        }

        #[test]
        fn test_code_is_exempt() {
            check(&Case {
                name: "pub-doc-tests",
                homes: &[&["crates/core/src/lib.rs"]],
                source: r#"
/// A documented function.
pub fn double(x: u32) -> u32 {
    2 * x
}

#[cfg(test)]
mod tests {
    pub struct Helper(pub u32);

    pub fn fixture() -> u32 {
        21
    }

    #[test]
    fn doubles() {
        assert_eq!(super::double(fixture()), Helper(42).0);
    }
}
"#,
            });
        }
    }
}

mod atomic_ordering {
    mod tests {
        use crate::rules::{check, Case};

        #[test]
        fn seqcst_and_cmp_ordering_stay_silent() {
            check(&Case {
                name: "atomic-sanctioned",
                homes: &[&["crates/sim/src/lib.rs", "crates/sim/src/parallel.rs"]],
                source: r#"
use std::cmp::Ordering;

/// Hands out the next work index from the pool's one stated counter.
#[expect(clippy::disallowed_types, reason = "one SeqCst work counter")]
pub fn next(counter: &std::sync::atomic::AtomicUsize) -> usize {
    counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
}

/// `cmp::Ordering` is not an atomic.
pub fn before(a: u32, b: u32) -> bool {
    a.cmp(&b) == Ordering::Less
}

/// An atomic without a stated argument is caught.
pub fn flag(done: &std::sync::atomic::AtomicBool) -> bool { //~ clippy::disallowed_types
    done.load(std::sync::atomic::Ordering::SeqCst)
}
"#,
            });
        }
    }
}
