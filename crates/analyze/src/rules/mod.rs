//! The rule engine: one module per convention, a shared trait, and the
//! stable rule-name registry that pragmas and the dynamic invariant
//! checker (`cm-sim`'s debug sweep) reference.

mod atomic_ordering;
mod float_eq;
mod lock_order;
mod pub_doc;
mod txn;
mod unwrap;

use crate::config::Config;
use crate::diag::Finding;
use crate::pragma::FilePragmas;
use crate::scan::SourceFile;

pub use atomic_ordering::AtomicOrdering;
pub use float_eq::FloatEq;
pub use lock_order::LockOrder;
pub use pub_doc::PubDoc;
pub use txn::TxnDiscipline;
pub use unwrap::NoUnwrapInHotPath;

/// Rule name: topology mutations outside the reservation layer.
pub const TXN_DISCIPLINE: &str = "txn-discipline";
/// Rule name: lock acquisition order violations.
pub const LOCK_ORDER: &str = "lock-order";
/// Rule name: `unwrap()`/`expect(` in hot-path non-test code.
pub const NO_UNWRAP: &str = "no-unwrap-in-hot-path";
/// Rule name: float `==`/`!=` in solver code.
pub const FLOAT_EQ: &str = "float-eq";
/// Rule name: undocumented exported items.
pub const PUB_DOC: &str = "pub-doc";
/// Rule name: weak atomic memory orderings outside test code.
pub const ATOMIC_ORDERING: &str = "atomic-ordering";
/// Meta rule name: malformed pragma (bad syntax, missing reason, unknown rule).
pub const PRAGMA_SYNTAX: &str = "pragma-syntax";
/// Meta rule name: a pragma that suppressed nothing.
pub const PRAGMA_UNUSED: &str = "pragma-unused";

/// Every rule name the static engine knows, in report order. The meta
/// rules are last: they police the suppression mechanism itself.
pub const ALL_RULES: [&str; 8] = [
    TXN_DISCIPLINE,
    LOCK_ORDER,
    NO_UNWRAP,
    FLOAT_EQ,
    PUB_DOC,
    ATOMIC_ORDERING,
    PRAGMA_SYNTAX,
    PRAGMA_UNUSED,
];

/// A convention check over one scanned file.
pub trait Rule {
    /// Stable rule name (the pragma key).
    fn name(&self) -> &'static str;
    /// Append this rule's findings for `file` (suppression is applied by
    /// the driver afterwards, so rules report unconditionally).
    fn check(&self, file: &SourceFile, pragmas: &FilePragmas, cfg: &Config, out: &mut Vec<Finding>);
}

/// The full rule set, in registry order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(TxnDiscipline),
        Box::new(LockOrder),
        Box::new(NoUnwrapInHotPath),
        Box::new(FloatEq),
        Box::new(PubDoc),
        Box::new(AtomicOrdering),
    ]
}

/// Shared constructor for rule findings.
pub(crate) fn finding(
    file: &SourceFile,
    line: usize,
    rule: &'static str,
    message: String,
    note: &str,
) -> Finding {
    Finding {
        path: file.path_str(),
        line,
        rule,
        message,
        note: note.to_string(),
        snippet: file
            .lines
            .get(line.saturating_sub(1))
            .map(|l| l.raw.trim().to_string())
            .unwrap_or_default(),
    }
}
