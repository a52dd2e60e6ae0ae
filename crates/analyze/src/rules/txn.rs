//! `txn-discipline`: every `Topology` mutation flows through the
//! reservation layer.
//!
//! The headline claims of this reproduction — reservation conservation,
//! exact rollback, decision goldens that replay bit for bit — all
//! assume that slot and uplink state only changes through
//! `ReservationTxn`'s undo log (`crates/core/src/txn.rs` over
//! `reserve.rs`). A direct call to a mutating `Topology` method anywhere
//! else silently escapes the undo log: rollbacks stop being exact and the
//! dynamic `check_invariants` re-derivation is the only thing left to
//! notice. This rule makes the convention static: mutator calls outside
//! the allowlisted reservation layer (or test code) are findings, and the
//! few sanctioned exceptions (fault injection) carry `allow` pragmas whose
//! reasons document *why* they are outside the txn path.

use super::{finding, Rule, TXN_DISCIPLINE};
use crate::config::{is_test_path, Config};
use crate::diag::Finding;
use crate::pragma::FilePragmas;
use crate::scan::SourceFile;

/// See the module docs.
pub struct TxnDiscipline;

impl Rule for TxnDiscipline {
    fn name(&self) -> &'static str {
        TXN_DISCIPLINE
    }

    fn check(
        &self,
        file: &SourceFile,
        _pragmas: &FilePragmas,
        cfg: &Config,
        out: &mut Vec<Finding>,
    ) {
        let path = file.path_str();
        if is_test_path(&path) || cfg.txn_allowlist.iter().any(|p| path.starts_with(p)) {
            return;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for m in &cfg.topology_mutators {
                let dotted = format!(".{m}(");
                let pathed = format!("::{m}(");
                if line.code.contains(&dotted) || line.code.contains(&pathed) {
                    out.push(finding(
                        file,
                        idx + 1,
                        TXN_DISCIPLINE,
                        format!(
                            "direct call to mutating `Topology::{m}` outside the reservation layer"
                        ),
                        "topology mutations must flow through `ReservationTxn` \
                         (crates/core/src/txn.rs) so the undo log stays exact; \
                         see ANALYSIS.md#txn-discipline",
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pragma;
    use std::path::PathBuf;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::scan(PathBuf::from(path), src);
        let p = pragma::parse(&f);
        let mut out = Vec::new();
        TxnDiscipline.check(&f, &p, &Config::cloudmirror(), &mut out);
        out
    }

    #[test]
    fn flags_direct_mutator_calls() {
        let out = run(
            "crates/sim/src/events.rs",
            "fn f(t: &mut Topology) { t.alloc_slots(s, 3).ok(); }\n",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("alloc_slots"));
    }

    #[test]
    fn reservation_layer_and_tests_are_exempt() {
        let src = "fn f(t: &mut Topology) { t.alloc_slots(s, 3).ok(); }\n";
        assert!(run("crates/core/src/reserve.rs", src).is_empty());
        assert!(run("crates/topology/src/tree.rs", src).is_empty());
        assert!(run("tests/placement_invariants.rs", src).is_empty());
        let gated = "#[cfg(test)]\nmod tests {\n fn f(t: &mut Topology) { t.degrade_link(n, 0.5).ok(); }\n}\n";
        assert!(run("crates/sim/src/events.rs", gated).is_empty());
    }

    #[test]
    fn mentions_in_strings_and_comments_do_not_fire() {
        let out = run(
            "crates/sim/src/events.rs",
            "// call t.alloc_slots(s, 3) by hand\nlet m = \"t.release_slots(x, 1)\";\n",
        );
        assert!(out.is_empty());
    }
}
