//! `lock-order`: lock acquisitions follow a declared, machine-readable
//! order.
//!
//! Admission is serial and the sweep pool is lock-free (one atomic work
//! counter), so no production file takes a lock today. The rule keeps it
//! cheap to add one safely: the moment a second lock appears, a silent
//! inversion becomes a deadlock that only reproduces under load. So files
//! that take locks declare their order in a header the analyzer consumes:
//!
//! ```text
//! // cm-analyze: lock-order(log < slots)
//! ```
//!
//! The rule then checks, per function-ish scope, that (a) every `.lock()`
//! receiver is a declared name, (b) no lock is acquired while a
//! later-ordered guard is still live, and (c) no lock is re-acquired while
//! its own guard may still be live (`std::sync::Mutex` self-deadlocks).
//! Guard liveness is lexical: a `let g = x.lock()…;` binding lives until
//! its scope's brace depth unwinds or `drop(g)`; an unbound acquisition
//! (`x.lock().…` consumed in one statement) dies at end of statement.
//!
//! Enrollment is automatic: any non-test file that lexically takes a
//! guard — a `.lock()` call with a nameable receiver, or `.read()`/
//! `.write()` in a file that mentions `RwLock` — must carry the header;
//! a missing header is itself a finding. Test code is exempt throughout:
//! `#[cfg(test)]` modules re-lock scratch mutexes freely and never define
//! the file's order.

use super::{finding, Rule, LOCK_ORDER};
use crate::config::Config;
use crate::diag::Finding;
use crate::pragma::FilePragmas;
use crate::scan::SourceFile;

/// See the module docs.
pub struct LockOrder;

#[derive(Debug)]
struct Guard {
    /// Declared lock name (order identity).
    lock: String,
    /// Binding variable, for `drop(var)` matching.
    var: String,
    order: usize,
    /// Brace depth the guard's scope lives at (end-of-binding-line depth);
    /// the guard dies when a line starts shallower than this.
    depth: u32,
    line: usize,
}

impl Rule for LockOrder {
    fn name(&self) -> &'static str {
        LOCK_ORDER
    }

    fn check(
        &self,
        file: &SourceFile,
        pragmas: &FilePragmas,
        _cfg: &Config,
        out: &mut Vec<Finding>,
    ) {
        let Some((_, order_names)) = &pragmas.lock_order else {
            if takes_guards(file) {
                out.push(finding(
                    file,
                    1,
                    LOCK_ORDER,
                    "file takes locks but declares no `// cm-analyze: lock-order(…)` header"
                        .to_string(),
                    "declare the acquisition order once at the top of the file so \
                     inversions are machine-checked; see ANALYSIS.md#lock-order",
                ));
            }
            return;
        };
        let order_of = |name: &str| order_names.iter().position(|n| n == name);
        let patterns = guard_patterns(file);

        let mut guards: Vec<Guard> = Vec::new();
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let lineno = idx + 1;
            // Scope unwinding: guards bound deeper than this line die.
            guards.retain(|g| g.depth <= line.depth);

            let code = &line.code;
            let mut acqs: Vec<(usize, &str)> = Vec::new();
            for pat in &patterns {
                acqs.extend(code.match_indices(pat).map(|(pos, _)| (pos, *pat)));
            }
            acqs.sort_unstable();
            for (pos, pat) in acqs {
                let Some(name) = receiver_name(code, pos) else {
                    continue;
                };
                // Depth at the acquisition point (braces earlier on this
                // line count); guards from same-line blocks already closed
                // are dead here.
                let cur_depth = end_depth(line.depth, &code[..pos]);
                guards.retain(|g| g.depth <= cur_depth);
                let Some(ord) = order_of(&name) else {
                    out.push(finding(
                        file,
                        lineno,
                        LOCK_ORDER,
                        format!("lock `{name}` is not declared in the lock-order header"),
                        "every Mutex in this file must appear in the \
                         `cm-analyze: lock-order(…)` header; add it in its \
                         acquisition position",
                    ));
                    continue;
                };
                for g in &guards {
                    if g.order == ord {
                        out.push(finding(
                            file,
                            lineno,
                            LOCK_ORDER,
                            format!(
                                "lock `{name}` re-acquired while its guard from line {} may \
                                 still be live (std Mutex self-deadlock)",
                                g.line
                            ),
                            "drop or scope the first guard before re-locking",
                        ));
                    } else if g.order > ord {
                        out.push(finding(
                            file,
                            lineno,
                            LOCK_ORDER,
                            format!(
                                "lock `{name}` acquired while `{}` (line {}) is held — \
                                 inverts declared order `{}`",
                                g.lock,
                                g.line,
                                order_names.join(" < ")
                            ),
                            "acquire locks in header order, or restructure so the \
                             guards do not overlap",
                        ));
                    }
                }
                if let Some(var) = binding_guard(code, pos, pat) {
                    guards.push(Guard {
                        lock: name,
                        var,
                        order: ord,
                        depth: cur_depth,
                        line: lineno,
                    });
                }
            }
            // Explicit drops end guard lifetimes early.
            if code.contains("drop(") {
                guards.retain(|g| !code.contains(&format!("drop({})", g.var)));
            }
        }
    }
}

/// The guard-taking call patterns in play for `file`: `.lock()` always;
/// `.read()`/`.write()` too when the file's non-test code mentions
/// `RwLock` (their no-arg forms are read/write guard acquisitions).
fn guard_patterns(file: &SourceFile) -> Vec<&'static str> {
    if mentions_rwlock(file) {
        vec![".lock()", ".read()", ".write()"]
    } else {
        vec![".lock()"]
    }
}

fn mentions_rwlock(file: &SourceFile) -> bool {
    file.lines
        .iter()
        .any(|l| !l.in_test && l.code.contains("RwLock"))
}

/// Whether any non-test line takes a guard with a nameable receiver —
/// the automatic-enrollment trigger (string literals containing the call
/// patterns have no nameable receiver and stay exempt).
fn takes_guards(file: &SourceFile) -> bool {
    let patterns = guard_patterns(file);
    file.lines.iter().any(|line| {
        !line.in_test
            && patterns.iter().any(|pat| {
                line.code
                    .match_indices(pat)
                    .any(|(pos, _)| receiver_name(&line.code, pos).is_some())
            })
    })
}

/// Extract the receiver's terminal name before `.lock()` at `pos`:
/// `shared.log.lock()` → `log`, `slots[i].lock()` → `slots`.
fn receiver_name(code: &str, pos: usize) -> Option<String> {
    let chars: Vec<char> = code[..pos].chars().collect();
    let mut i = chars.len() as isize - 1;
    // Strip a trailing index group.
    while i >= 0 && chars[i as usize] == ']' {
        let mut depth = 1;
        i -= 1;
        while i >= 0 && depth > 0 {
            if chars[i as usize] == ']' {
                depth += 1;
            } else if chars[i as usize] == '[' {
                depth -= 1;
            }
            i -= 1;
        }
    }
    let end = i;
    while i >= 0 && (chars[i as usize].is_alphanumeric() || chars[i as usize] == '_') {
        i -= 1;
    }
    if end < 0 || i == end {
        return None;
    }
    Some(chars[(i + 1) as usize..=end as usize].iter().collect())
}

/// If the statement binds the guard (`let g = x.lock()[.expect(…)][?];`),
/// return the bound variable name; `None` means the guard is a temporary
/// that dies at end of statement.
fn binding_guard(code: &str, lock_pos: usize, pat: &str) -> Option<String> {
    // The chain after the acquisition may only be expect/unwrap/`?` and
    // then the statement must end — anything else consumes the guard
    // immediately.
    let mut tail = &code[lock_pos + pat.len()..];
    loop {
        let t = tail.trim_start();
        if let Some(rest) = t.strip_prefix(".unwrap()") {
            tail = rest;
        } else if let Some(rest) = t.strip_prefix(".expect(") {
            // Skip the balanced argument.
            let chars: Vec<char> = rest.chars().collect();
            let mut depth = 1;
            let mut j = 0;
            while j < chars.len() && depth > 0 {
                if chars[j] == '(' {
                    depth += 1;
                } else if chars[j] == ')' {
                    depth -= 1;
                }
                j += 1;
            }
            tail = &rest[chars[..j].iter().map(|c| c.len_utf8()).sum::<usize>()..];
        } else if let Some(rest) = t.strip_prefix('?') {
            tail = rest;
        } else {
            tail = t;
            break;
        }
    }
    if !(tail.is_empty() || tail.starts_with(';')) {
        return None;
    }
    // Find the `let [mut] name =` that governs this statement.
    let head = &code[..lock_pos];
    let let_pos = head.rfind("let ")?;
    let after = head[let_pos + 4..].trim_start();
    let after = after.strip_prefix("mut ").unwrap_or(after).trim_start();
    let name: String = after
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    // `let Some(g) = …` / `while let` destructuring: treat as bound with
    // an unknown name — fall back to the receiver name by returning None
    // only when nothing parses.
    if name.is_empty() {
        return None;
    }
    // The `=` must sit between the binding and the lock expression.
    head[let_pos..].contains('=').then_some(name)
}

/// Brace depth after processing `code`, starting from `start`.
fn end_depth(start: u32, code: &str) -> u32 {
    let mut d = start;
    for c in code.chars() {
        if c == '{' {
            d += 1;
        } else if c == '}' {
            d = d.saturating_sub(1);
        }
    }
    d
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
        LockOrder.check(&f, &p, &Config::cloudmirror(), &mut out);
        out
    }

    const HDR: &str = "// cm-analyze: lock-order(log < slots)\n";

    #[test]
    fn lock_taking_files_are_auto_enrolled() {
        // Any file lexically taking a guard is enrolled.
        let out = run("crates/sim/src/other.rs", "fn f() { q.lock(); }\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("no `// cm-analyze: lock-order"));
        // RwLock guard acquisitions count once the type is in play.
        let out = run(
            "crates/sim/src/other.rs",
            "struct S { m: RwLock<u32> }\nfn f(s: &S) { s.m.read(); }\n",
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn lockless_and_test_only_files_are_not_enrolled() {
        assert!(run("crates/sim/src/other.rs", "fn f() { x + 1; }\n").is_empty());
        // String literals mentioning the call have no nameable receiver.
        assert!(run(
            "crates/sim/src/other.rs",
            "fn f() { s.contains(\".lock()\"); }\n"
        )
        .is_empty());
        // Test modules may lock scratch mutexes freely.
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let g = m.lock().unwrap(); }\n}\n";
        assert!(run("crates/sim/src/other.rs", src).is_empty());
    }

    #[test]
    fn inversion_while_guard_live_is_flagged() {
        let src = format!(
            "{HDR}fn f() {{\n  let s = slots.lock().expect(\"s\");\n  let l = log.lock().expect(\"l\");\n}}\n"
        );
        let out = run("crates/sim/src/parallel.rs", &src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("inverts declared order"));
    }

    #[test]
    fn ordered_nesting_and_scoped_guards_are_fine() {
        let ok = format!(
            "{HDR}fn f() {{\n  let l = log.lock().expect(\"l\");\n  let s = slots.lock().expect(\"s\");\n}}\n"
        );
        assert!(run("crates/sim/src/parallel.rs", &ok).is_empty());
        let scoped = format!(
            "{HDR}fn f() {{\n  {{ let s = slots.lock().expect(\"s\"); }}\n  let l = log.lock().expect(\"l\");\n}}\n"
        );
        assert!(run("crates/sim/src/parallel.rs", &scoped).is_empty());
    }

    #[test]
    fn temporaries_die_at_end_of_statement() {
        let src = format!(
            "{HDR}fn f() {{\n  let job = slots.lock().expect(\"q\").pop_front();\n  let l = log.lock().expect(\"l\");\n}}\n"
        );
        assert!(run("crates/sim/src/parallel.rs", &src).is_empty());
    }

    #[test]
    fn undeclared_locks_and_self_relock_are_flagged() {
        let src = format!("{HDR}fn f() {{ let g = other.lock(); }}\n");
        let out = run("crates/sim/src/parallel.rs", &src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("not declared"));
        let relock = format!(
            "{HDR}fn f() {{\n  let a = log.lock().expect(\"1\");\n  let b = log.lock().expect(\"2\");\n}}\n"
        );
        let out = run("crates/sim/src/parallel.rs", &relock);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("re-acquired"));
    }

    #[test]
    fn drop_ends_the_guard_early() {
        let src = format!(
            "{HDR}fn f() {{\n  let s = slots.lock().expect(\"s\");\n  drop(s);\n  let l = log.lock().expect(\"l\");\n}}\n"
        );
        assert!(run("crates/sim/src/parallel.rs", &src).is_empty());
    }
}
