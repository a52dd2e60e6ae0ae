//! `atomic-ordering`: no atomic memory ordering weaker than `SeqCst` in
//! non-test code.
//!
//! The workspace's only production atomic is the sweep pool's work
//! counter, where `SeqCst` costs nothing measurable. Sequential
//! consistency is the one ordering a reader can reason about without a
//! happens-before proof, so the convention is "SeqCst everywhere" and
//! this rule keeps it machine-checked. A `Relaxed`/`Acquire`/`Release`/
//! `AcqRel` operation needs that proof; the rare measured hot-path
//! exception documents itself with an `allow` pragma.
//!
//! Lexical, like every rule here: any `Ordering::<weak>` path segment in
//! non-test code fires, including in `use` lists (importing a weak
//! ordering is how one sneaks in unqualified). `std::cmp::Ordering`'s
//! variants (`Less`/`Equal`/`Greater`) don't collide with the weak set.

use super::{finding, Rule, ATOMIC_ORDERING};
use crate::config::Config;
use crate::diag::Finding;
use crate::pragma::FilePragmas;
use crate::scan::SourceFile;

/// See the module docs.
pub struct AtomicOrdering;

const WEAK: [&str; 4] = ["Relaxed", "Acquire", "Release", "AcqRel"];

impl Rule for AtomicOrdering {
    fn name(&self) -> &'static str {
        ATOMIC_ORDERING
    }

    fn check(
        &self,
        file: &SourceFile,
        _pragmas: &FilePragmas,
        _cfg: &Config,
        out: &mut Vec<Finding>,
    ) {
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for (pos, _) in line.code.match_indices("Ordering::") {
                let tail = &line.code[pos + "Ordering::".len()..];
                let Some(weak) = WEAK.iter().find(|w| {
                    tail.strip_prefix(**w).is_some_and(|rest| {
                        !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_')
                    })
                }) else {
                    continue;
                };
                out.push(finding(
                    file,
                    idx + 1,
                    ATOMIC_ORDERING,
                    format!("weak atomic ordering `Ordering::{weak}` outside test code"),
                    "a weaker ordering is correct only with a happens-before proof \
                     nobody re-checks; use `Ordering::SeqCst`, or document the \
                     measured exception; see ANALYSIS.md#atomic-ordering",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pragma;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Finding> {
        let f = SourceFile::scan(PathBuf::from("crates/sim/src/parallel.rs"), src);
        let p = pragma::parse(&f);
        let mut out = Vec::new();
        AtomicOrdering.check(&f, &p, &Config::cloudmirror(), &mut out);
        out
    }

    #[test]
    fn weak_orderings_fire_everywhere_including_imports() {
        assert_eq!(run("x.load(Ordering::Relaxed);\n").len(), 1);
        assert_eq!(run("x.store(1, atomic::Ordering::Release);\n").len(), 1);
        assert_eq!(run("x.swap(1, Ordering::AcqRel);\n").len(), 1);
        assert_eq!(run("use std::sync::atomic::Ordering::Acquire;\n").len(), 1);
    }

    #[test]
    fn seqcst_and_cmp_ordering_stay_silent() {
        assert!(run("x.load(Ordering::SeqCst);\n").is_empty());
        assert!(run("if c == Ordering::Less { }\n").is_empty());
        assert!(run("matches!(o, Ordering::Greater);\n").is_empty());
        // Identifier continuation is not a weak ordering.
        assert!(run("use x::Ordering::Releaser;\n").is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { x.load(Ordering::Relaxed); }\n}\n";
        assert!(run(src).is_empty());
    }
}
