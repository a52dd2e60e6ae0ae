//! `float-eq`: no `==`/`!=` between float expressions in solver code.
//!
//! The max-min solver (`fluid.rs`) and its incremental wrapper
//! (`incremental.rs`) make *verdicts* — violation counts, work-conservation
//! checks — from floating-point rates. An exact float comparison there is
//! almost always a latent bug: summation order differs between the global
//! and per-component solves, so equality must go through the module's
//! tolerance helpers (`tol()`, `verify_max_min`). The rare intentional
//! bit-exact identity check (e.g. "did this stored value change at all")
//! documents itself with an `allow` pragma.
//!
//! Without type inference the rule decides "is this operand a float?" from
//! lexical evidence collected file-wide: float literals, `f64`/`f32`
//! annotations on `let`s, params and fields, `let` initializers containing
//! float literals or `as f64`, functions declared `-> f64`, and a small
//! configured list of known float-returning helpers. One floaty operand
//! suffices to flag the comparison.

use super::{finding, Rule, FLOAT_EQ};
use crate::config::Config;
use crate::diag::Finding;
use crate::pragma::FilePragmas;
use crate::scan::SourceFile;
use std::collections::HashSet;

/// See the module docs.
pub struct FloatEq;

impl Rule for FloatEq {
    fn name(&self) -> &'static str {
        FLOAT_EQ
    }

    fn check(
        &self,
        file: &SourceFile,
        _pragmas: &FilePragmas,
        cfg: &Config,
        out: &mut Vec<Finding>,
    ) {
        let path = file.path_str();
        if !cfg.float_eq_files.iter().any(|p| path == *p) {
            return;
        }
        let float_names = collect_float_names(file);
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let code: Vec<char> = line.code.chars().collect();
            for pos in comparison_ops(&code) {
                let lhs = operand_left(&code, pos);
                let rhs = operand_right(&code, pos + 2);
                if is_floaty(&lhs, &float_names, cfg) || is_floaty(&rhs, &float_names, cfg) {
                    let op: String = code[pos..pos + 2].iter().collect();
                    out.push(finding(
                        file,
                        idx + 1,
                        FLOAT_EQ,
                        format!(
                            "float comparison `{}` {op} `{}` in solver code",
                            lhs.trim(),
                            rhs.trim()
                        ),
                        "solver verdicts must use the tolerance helpers (`tol()`, \
                         `verify_max_min`) — exact float equality differs between the \
                         global and per-component solves; see ANALYSIS.md#float-eq",
                    ));
                }
            }
        }
    }
}

/// Byte positions of top-level `==` / `!=` operators in `code`.
fn comparison_ops(code: &[char]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < code.len() {
        let pair = (code[i], code[i + 1]);
        let is_cmp = match pair {
            ('=', '=') => {
                // Not `<=`/`>=`/`!=`/`==`-continuation or `=>`.
                let before_ok = i == 0 || !matches!(code[i - 1], '=' | '!' | '<' | '>');
                let after_ok = code.get(i + 2) != Some(&'=');
                before_ok && after_ok
            }
            ('!', '=') => code.get(i + 2) != Some(&'='),
            _ => false,
        };
        if is_cmp {
            out.push(i);
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// Walk left from the operator collecting the comparison's left operand:
/// identifiers, paths, field accesses, and balanced `(…)`/`[…]` groups.
fn operand_left(code: &[char], op: usize) -> String {
    let mut i = op as isize - 1;
    while i >= 0 && code[i as usize] == ' ' {
        i -= 1;
    }
    let end = i;
    while i >= 0 {
        let c = code[i as usize];
        if c.is_alphanumeric() || c == '_' || c == '.' || c == ':' {
            i -= 1;
        } else if c == ')' || c == ']' {
            let open = if c == ')' { '(' } else { '[' };
            let mut depth = 1;
            i -= 1;
            while i >= 0 && depth > 0 {
                if code[i as usize] == c {
                    depth += 1;
                } else if code[i as usize] == open {
                    depth -= 1;
                }
                i -= 1;
            }
        } else {
            break;
        }
    }
    if end < 0 {
        return String::new();
    }
    code[(i + 1) as usize..=end as usize].iter().collect()
}

/// Walk right from just past the operator collecting the right operand.
fn operand_right(code: &[char], mut i: usize) -> String {
    while i < code.len() && code[i] == ' ' {
        i += 1;
    }
    let start = i;
    // Unary minus / reference / deref prefixes.
    while i < code.len() && matches!(code[i], '-' | '&' | '*' | '!') {
        i += 1;
    }
    while i < code.len() {
        let c = code[i];
        if c.is_alphanumeric() || c == '_' || c == '.' || c == ':' {
            i += 1;
        } else if c == '(' || c == '[' {
            let close = if c == '(' { ')' } else { ']' };
            let mut depth = 1;
            i += 1;
            while i < code.len() && depth > 0 {
                if code[i] == c {
                    depth += 1;
                } else if code[i] == close {
                    depth -= 1;
                }
                i += 1;
            }
        } else {
            break;
        }
    }
    code[start..i].iter().collect()
}

/// Whether an operand string is float-typed by lexical evidence.
fn is_floaty(expr: &str, float_names: &HashSet<String>, cfg: &Config) -> bool {
    let e = expr.trim();
    if e.is_empty() {
        return false;
    }
    if e == "f64" || e == "f32" || contains_float_literal(e) {
        return true;
    }
    // Terminal path segment, with call/index suffixes stripped:
    // `self.net.link_cap(l)` → `link_cap`, `used[l]` → `used`.
    if let Some(name) = terminal_name(e) {
        if float_names.contains(&name) || cfg.float_returning.contains(&name.as_str()) {
            return true;
        }
    }
    false
}

/// Whether `e` contains a standalone float literal (`1.0`, `1e-9`, `3f64`).
fn contains_float_literal(e: &str) -> bool {
    let chars: Vec<char> = e.chars().collect();
    for i in 0..chars.len() {
        if !chars[i].is_ascii_digit() {
            continue;
        }
        // Must start a number, not continue an identifier (`x1.y`).
        if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_' || chars[i - 1] == '.') {
            continue;
        }
        let mut j = i;
        while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
            j += 1;
        }
        // Decimal point followed by a digit → float.
        if j + 1 < chars.len() && chars[j] == '.' && chars[j + 1].is_ascii_digit() {
            return true;
        }
        // Exponent form `1e-9` / `2E6`.
        if j < chars.len() && (chars[j] == 'e' || chars[j] == 'E') {
            let k = if matches!(chars.get(j + 1), Some('+') | Some('-')) {
                j + 2
            } else {
                j + 1
            };
            if chars.get(k).is_some_and(|c| c.is_ascii_digit()) {
                return true;
            }
        }
        // Typed suffix `3f64`.
        if e[j..].starts_with("f64") || e[j..].starts_with("f32") {
            return true;
        }
    }
    false
}

/// The last path/field segment of an operand, stripped of trailing
/// call/index groups.
fn terminal_name(e: &str) -> Option<String> {
    let chars: Vec<char> = e.chars().collect();
    let mut i = chars.len() as isize - 1;
    // Strip trailing `(…)` / `[…]` groups.
    while i >= 0 && (chars[i as usize] == ')' || chars[i as usize] == ']') {
        let c = chars[i as usize];
        let open = if c == ')' { '(' } else { '[' };
        let mut depth = 1;
        i -= 1;
        while i >= 0 && depth > 0 {
            if chars[i as usize] == c {
                depth += 1;
            } else if chars[i as usize] == open {
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

/// Collect identifiers with lexical float evidence anywhere in the file.
fn collect_float_names(file: &SourceFile) -> HashSet<String> {
    let mut names = HashSet::new();
    for line in &file.lines {
        // Test modules re-bind names freely (`let l = net.link(900.0)`);
        // evidence there must not retype the same name in live code.
        if line.in_test {
            continue;
        }
        let code = &line.code;
        // `name: f64` / `name: &f64` / `name: &mut f32` (params, fields,
        // annotated lets).
        for (pos, _) in code.match_indices(':') {
            let after = code[pos + 1..].trim_start();
            let after = after
                .trim_start_matches('&')
                .trim_start_matches("mut ")
                .trim_start();
            if after.starts_with("f64") || after.starts_with("f32") {
                if let Some(name) = ident_before(code, pos) {
                    names.insert(name);
                }
            }
        }
        // `let [mut] name = …;` with float evidence on the right.
        for (pos, _) in code.match_indices("let ") {
            // Whole-word `let` only (`complete` must not match).
            if pos > 0
                && code[..pos]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                continue;
            }
            let rest = code[pos + 4..].trim_start();
            let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                if let Some(eq) = rest.find('=') {
                    let rhs = &rest[eq + 1..];
                    if contains_float_literal(rhs)
                        || rhs.contains("as f64")
                        || rhs.contains("as f32")
                    {
                        names.insert(name);
                    }
                }
            }
        }
        // `fn name(…) -> f64` on one line.
        if let Some(fn_pos) = code.find("fn ") {
            if code.contains("-> f64") || code.contains("-> f32") {
                let name: String = code[fn_pos + 3..]
                    .trim_start()
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    names.insert(name);
                }
            }
        }
    }
    names
}

/// The identifier ending just before byte `pos` (skipping spaces).
fn ident_before(code: &str, pos: usize) -> Option<String> {
    let chars: Vec<char> = code[..pos].chars().collect();
    let mut i = chars.len() as isize - 1;
    while i >= 0 && chars[i as usize] == ' ' {
        i -= 1;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pragma;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Finding> {
        let f = SourceFile::scan(PathBuf::from("crates/enforce/src/fluid.rs"), src);
        let p = pragma::parse(&f);
        let mut out = Vec::new();
        FloatEq.check(&f, &p, &Config::cloudmirror(), &mut out);
        out
    }

    #[test]
    fn literal_and_declared_float_comparisons_fire() {
        assert_eq!(run("fn f(x: f64) { if x == 0.0 {} }\n").len(), 1);
        assert_eq!(
            run("fn f(cap_kbps: f64) { if v == cap_kbps {} }\n").len(),
            1
        );
        assert_eq!(run("fn g() { let r = 1.5; if r != s {} }\n").len(), 1);
        assert_eq!(
            run("fn h() { if self.net.link_cap(l) == other {} }\n").len(),
            1
        );
    }

    #[test]
    fn integer_comparisons_stay_silent() {
        assert!(run("fn f(n: usize) { if n == 0 {} }\n").is_empty());
        assert!(run("fn f() { if wcount[l] == 0 {} }\n").is_empty());
        assert!(run("fn f() { if slot != u32::MAX {} }\n").is_empty());
        assert!(run("fn f() { v.position(|&ml| ml == l); }\n").is_empty());
    }

    #[test]
    fn compound_operators_are_not_comparisons() {
        assert!(run("fn f(x: f64) { let y = x <= 1.0 && x >= 0.0; }\n").is_empty());
        assert!(run("fn f(mut x: f64) { x += 1.0; let c = |a| a; }\n").is_empty());
    }

    #[test]
    fn out_of_scope_files_are_skipped() {
        let f = SourceFile::scan(
            PathBuf::from("crates/enforce/src/engine.rs"),
            "fn f(x: f64) { if x == 0.0 {} }\n",
        );
        let p = pragma::parse(&f);
        let mut out = Vec::new();
        FloatEq.check(&f, &p, &Config::cloudmirror(), &mut out);
        assert!(out.is_empty());
    }
}
