//! The rule catalog. Every rule pattern-matches on [`ScannedLine::code`](crate::lexer::ScannedLine::code)
//! (string/char literals blanked, comments stripped), so a `"panic!"`
//! inside a string never trips a rule and a rule name inside a comment
//! never self-flags.
//!
//! Rules are *scoped by path* — gclint is a repo-specific lint, not a
//! general one. The scopes mirror the determinism and panic-freedom
//! guarantees the test suite pins (byte-identical fault replay, golden
//! report bodies, warm/cold LP agreement):
//!
//! | rule | scope | forbids |
//! |------|-------|---------|
//! | `hash-iter` | `crates/{nebula,core,api}/src` | iterating a `HashMap`/`HashSet` binding |
//! | `wall-clock` | all crate `src/` except `wallclock.rs` | `Instant::now` / `SystemTime::now` |
//! | `unseeded-rng` | all crate `src/` | `thread_rng` / `from_entropy` / `rand::random` |
//! | `panic-path` | `crates/lp/src`, `crates/nebula/src`, `core/src/formulation.rs`, `api/src/{engine,serve,store,router,http}.rs` | `.unwrap()` / `.expect(` / `panic!` / `todo!` / `unimplemented!` |
//! | `index-literal` | same as `panic-path` | postfix indexing by an integer literal |
//! | `float-eq` | `crates/lp/src` | `==`/`!=` against a non-zero float literal or NAN |
//! | `unsafe-safety` | everywhere scanned | `unsafe` without a `// SAFETY:` comment within 3 lines |
//!
//! Two deliberate carve-outs, documented here because they are policy:
//! `assert!`/`assert_eq!`/`unreachable!` are *explicit* invariant
//! assertions and stay legal in hot paths (the rules target panics hiding
//! inside ordinary-looking data access), and `== 0.0`/`!= 0.0` stays legal
//! in `crates/lp` because exact-zero tests are *structural* sparsity
//! checks (is this entry stored?), not magnitude comparisons — giving
//! them a tolerance would change the nonzero pattern and the numerics.

use crate::lexer::ScannedFile;

/// One finding: a rule fired at a line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier, e.g. `panic-path`.
    pub rule: &'static str,
    /// Human-readable explanation with the offending fragment.
    pub message: String,
}

/// `(id, summary)` for every line-scoped rule, in report order.
pub const RULES: &[(&str, &str)] = &[
    (
        "hash-iter",
        "no HashMap/HashSet iteration in report/simulation paths (order is nondeterministic)",
    ),
    (
        "wall-clock",
        "no Instant::now/SystemTime::now outside a wallclock.rs module",
    ),
    ("unseeded-rng", "no thread_rng/from_entropy/rand::random"),
    (
        "panic-path",
        "no unwrap()/expect()/panic! in LP, scheduler, and serve hot paths",
    ),
    (
        "index-literal",
        "no indexing by integer literal in LP, scheduler, and serve hot paths",
    ),
    (
        "float-eq",
        "no ==/!= against non-zero float literals in crates/lp (use a tolerance)",
    ),
    (
        "unsafe-safety",
        "every unsafe block needs a // SAFETY: comment within 3 lines",
    ),
];

fn det_scope(p: &str) -> bool {
    p.starts_with("crates/nebula/src/")
        || p.starts_with("crates/core/src/")
        || p.starts_with("crates/api/src/")
}

fn panic_scope(p: &str) -> bool {
    p.starts_with("crates/lp/src/")
        || p.starts_with("crates/nebula/src/")
        || p == "crates/core/src/formulation.rs"
        || p == "crates/api/src/engine.rs"
        || p == "crates/api/src/serve.rs"
        || p == "crates/api/src/store.rs"
        || p == "crates/api/src/router.rs"
        || p == "crates/api/src/http.rs"
}

fn lp_scope(p: &str) -> bool {
    p.starts_with("crates/lp/src/")
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// True when `hay[pos..]` starts with `needle` as a whole word (the chars
/// on both sides are not identifier chars).
fn word_at(hay: &[char], pos: usize, needle: &str) -> bool {
    let nd: Vec<char> = needle.chars().collect();
    if pos + nd.len() > hay.len() || hay[pos..pos + nd.len()] != nd[..] {
        return false;
    }
    let before_ok = pos == 0 || !is_ident_char(hay[pos - 1]);
    let after_ok = pos + nd.len() == hay.len() || !is_ident_char(hay[pos + nd.len()]);
    before_ok && after_ok
}

fn find_word(line: &str, needle: &str) -> Option<usize> {
    let chars: Vec<char> = line.chars().collect();
    (0..chars.len()).find(|&i| word_at(&chars, i, needle))
}

/// Runs every line rule against `file` (path-scoped by `rel_path`, which
/// must be workspace-relative with `/` separators) and returns raw
/// findings; allow-directive filtering happens in the caller.
pub fn check_file(rel_path: &str, file: &ScannedFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let hash_names = if det_scope(rel_path) {
        collect_hash_bindings(file)
    } else {
        Vec::new()
    };
    let wallclock_file = rel_path.ends_with("wallclock.rs");

    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        if line.in_test {
            continue;
        }

        if det_scope(rel_path) {
            check_hash_iter(code, &hash_names, lineno, &mut out);
        }
        if !wallclock_file {
            for pat in ["Instant::now", "SystemTime::now"] {
                if code.contains(pat) {
                    out.push(Diagnostic {
                        line: lineno,
                        rule: "wall-clock",
                        message: format!(
                            "`{pat}` outside a wallclock module — wall-clock reads poison \
                             deterministic replay; route through the crate's wallclock.rs"
                        ),
                    });
                }
            }
        }
        for pat in ["thread_rng", "from_entropy", "rand::random"] {
            if code.contains(pat) {
                out.push(Diagnostic {
                    line: lineno,
                    rule: "unseeded-rng",
                    message: format!(
                        "`{pat}` draws OS entropy — every RNG must be seeded (ChaCha8 + \
                         explicit seed) so runs replay byte-identically"
                    ),
                });
            }
        }
        if panic_scope(rel_path) {
            for pat in [".unwrap()", ".expect(", "panic!", "todo!", "unimplemented!"] {
                if let Some(p) = code.find(pat) {
                    // `should_panic` has no `!`; `.expect(` cannot match
                    // `.expect_err(`. Guard `panic!` et al. against being
                    // a suffix of a longer macro name.
                    let chars: Vec<char> = code.chars().collect();
                    let boundary = p == 0
                        || pat.starts_with('.')
                        || !is_ident_char(chars[p.min(chars.len()) - 1]);
                    if boundary {
                        out.push(Diagnostic {
                            line: lineno,
                            rule: "panic-path",
                            message: format!(
                                "`{pat}` in a hot path — return a typed error \
                                 (SolveError/NebulaError) or assert the invariant explicitly"
                            ),
                        });
                    }
                }
            }
            check_index_literal(code, lineno, &mut out);
        }
        if lp_scope(rel_path) {
            check_float_eq(code, lineno, &mut out);
        }
        if let Some(p) = find_word(code, "unsafe") {
            let _ = p;
            let nearby_safety =
                (idx.saturating_sub(3)..=idx).any(|k| file.lines[k].comment.contains("SAFETY:"));
            if !nearby_safety {
                out.push(Diagnostic {
                    line: lineno,
                    rule: "unsafe-safety",
                    message: "`unsafe` without a `// SAFETY:` comment within 3 lines above"
                        .to_string(),
                });
            }
        }
    }
    out
}

/// True if any line of the file contains the `unsafe` keyword (used by the
/// crate-level `forbid-unsafe` check).
pub fn has_unsafe(file: &ScannedFile) -> bool {
    file.lines
        .iter()
        .any(|l| find_word(&l.code, "unsafe").is_some())
}

/// Finds identifiers bound to `HashMap`/`HashSet` anywhere in the file:
/// `name: HashMap<…>` (fields, params, struct literals, typed lets) and
/// `name = HashMap::new()` (assignments). Path prefixes
/// (`std::collections::HashMap`) do not bind a name and are skipped.
fn collect_hash_bindings(file: &ScannedFile) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for line in &file.lines {
        let chars: Vec<char> = line.code.chars().collect();
        for i in 0..chars.len() {
            if !(word_at(&chars, i, "HashMap") || word_at(&chars, i, "HashSet")) {
                continue;
            }
            // Walk left through type syntax to the binding `:` or `=`.
            let mut j = i;
            let mut binder: Option<usize> = None;
            while j > 0 {
                j -= 1;
                let c = chars[j];
                if c == ':' {
                    if j > 0 && chars[j - 1] == ':' {
                        // `::` path separator — skip both and keep walking.
                        j -= 1;
                        continue;
                    }
                    binder = Some(j);
                    break;
                }
                if c == '=' {
                    // `=` (not `==`, `<=`, …) binds; comparison never has
                    // a bare HashMap type on its right.
                    binder = Some(j);
                    break;
                }
                if is_ident_char(c) || " <>(),&".contains(c) {
                    continue;
                }
                break;
            }
            let Some(b) = binder else { continue };
            // Identifier immediately before the binder.
            let mut e = b;
            while e > 0 && chars[e - 1] == ' ' {
                e -= 1;
            }
            let mut s = e;
            while s > 0 && is_ident_char(chars[s - 1]) {
                s -= 1;
            }
            if s < e {
                let name: String = chars[s..e].iter().collect();
                if name != "mut" && !names.contains(&name) {
                    names.push(name);
                }
            }
        }
    }
    names
}

const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".into_iter()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
    ".retain(",
];

fn check_hash_iter(code: &str, names: &[String], lineno: usize, out: &mut Vec<Diagnostic>) {
    let chars: Vec<char> = code.chars().collect();
    for name in names {
        // `name.iter()` and friends, with a word boundary before `name`.
        for i in 0..chars.len() {
            if !word_at(&chars, i, name) {
                continue;
            }
            let after: String = chars[i + name.chars().count()..].iter().collect();
            if let Some(m) = ITER_METHODS.iter().find(|m| after.starts_with(*m)) {
                out.push(Diagnostic {
                    line: lineno,
                    rule: "hash-iter",
                    message: format!(
                        "`{name}{m}` iterates a HashMap/HashSet — order varies run to run; \
                         use BTreeMap/BTreeSet or collect-and-sort before anything ordered"
                    ),
                });
            }
        }
        // `for x in name` / `for x in &name` / `for x in name.…` — only
        // direct loops over the container itself.
        if let Some(inpos) = find_word(code, "in") {
            let rest: String = chars[inpos + 2..].iter().collect();
            let rest = rest.trim_start().trim_start_matches('&');
            let rest = rest.trim_start_matches("mut ").trim_start();
            let matches_name = rest.starts_with(name.as_str())
                && rest[name.len()..]
                    .chars()
                    .next()
                    .map(|c| !is_ident_char(c) && c != '(')
                    .unwrap_or(true);
            if code.trim_start().starts_with("for ") && matches_name {
                out.push(Diagnostic {
                    line: lineno,
                    rule: "hash-iter",
                    message: format!(
                        "`for … in {name}` iterates a HashMap/HashSet — order varies run \
                         to run; use BTreeMap/BTreeSet or sort first"
                    ),
                });
            }
        }
    }
}

fn check_index_literal(code: &str, lineno: usize, out: &mut Vec<Diagnostic>) {
    let chars: Vec<char> = code.chars().collect();
    for i in 0..chars.len() {
        if chars[i] != '[' {
            continue;
        }
        // Postfix position: previous non-space char ends an expression.
        let mut p = i;
        let prev = loop {
            if p == 0 {
                break None;
            }
            p -= 1;
            if chars[p] != ' ' {
                break Some(chars[p]);
            }
        };
        let postfix = matches!(prev, Some(c) if is_ident_char(c) || c == ')' || c == ']');
        if !postfix {
            continue;
        }
        // `vec![0]` and other macros are construction, not indexing.
        if prev == Some('!') {
            continue;
        }
        let close = match chars[i + 1..].iter().position(|&c| c == ']') {
            Some(k) => i + 1 + k,
            None => continue,
        };
        let inner: String = chars[i + 1..close].iter().collect();
        let inner = inner.trim();
        if !inner.is_empty()
            && inner.chars().all(|c| c.is_ascii_digit() || c == '_')
            && inner.chars().any(|c| c.is_ascii_digit())
        {
            out.push(Diagnostic {
                line: lineno,
                rule: "index-literal",
                message: format!(
                    "indexing by literal `[{inner}]` panics when the container is shorter — \
                     use .first()/.get({inner}) or restructure"
                ),
            });
        }
    }
}

/// Heuristic float-literal scanner: returns true if `s` contains a float
/// literal (digits with a `.` or exponent, or an `f64`/`f32` suffix) that
/// is not exactly zero, or references `NAN`.
fn has_nonzero_float_literal(s: &str) -> bool {
    if s.contains("NAN") {
        return true;
    }
    let chars: Vec<char> = s.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if chars[i].is_ascii_digit() && (i == 0 || !is_ident_char(chars[i - 1])) {
            let start = i;
            let mut saw_dot = false;
            let mut saw_exp = false;
            while i < chars.len() {
                let c = chars[i];
                if c.is_ascii_digit() || c == '_' {
                    i += 1;
                } else if c == '.' && !saw_dot && !saw_exp {
                    // `1..n` ranges and method calls like `0.max(x)` are
                    // not float literals.
                    match chars.get(i + 1) {
                        Some(&n2) if n2.is_ascii_digit() => {
                            saw_dot = true;
                            i += 1;
                        }
                        Some(&n2) if n2 == '.' || is_ident_char(n2) => break,
                        _ => {
                            saw_dot = true;
                            i += 1;
                        }
                    }
                } else if (c == 'e' || c == 'E') && !saw_exp {
                    let k = i + 1;
                    let k2 = if matches!(chars.get(k), Some('+') | Some('-')) {
                        k + 1
                    } else {
                        k
                    };
                    if matches!(chars.get(k2), Some(d) if d.is_ascii_digit()) {
                        saw_exp = true;
                        i = k2;
                    } else {
                        break;
                    }
                } else {
                    break;
                }
            }
            let lit: String = chars[start..i].iter().collect();
            let suffixed = matches!(
                chars.get(i..i + 3).map(|w| w.iter().collect::<String>()),
                Some(ref s3) if s3 == "f64" || s3 == "f32"
            );
            if saw_dot || saw_exp || suffixed {
                let nonzero = lit.chars().any(|c| c.is_ascii_digit() && c != '0')
                    || (saw_exp
                        && lit
                            .split(['e', 'E'])
                            .next()
                            .is_some_and(|m| m.chars().any(|c| c.is_ascii_digit() && c != '0')));
                if nonzero {
                    return true;
                }
            }
        } else {
            i += 1;
        }
    }
    false
}

fn check_float_eq(code: &str, lineno: usize, out: &mut Vec<Diagnostic>) {
    let chars: Vec<char> = code.chars().collect();
    let n = chars.len();
    for i in 0..n.saturating_sub(1) {
        let two: String = chars[i..i + 2].iter().collect();
        let is_eq = two == "==" && (i == 0 || !"=!<>".contains(chars[i - 1]));
        let is_ne = two == "!=";
        if !(is_eq || is_ne) || matches!(chars.get(i + 2), Some('=')) {
            continue;
        }
        let delim = |c: char| ",;{}()[]".contains(c) || c == '&' || c == '|';
        let lstart = (0..i).rev().find(|&k| delim(chars[k])).map_or(0, |k| k + 1);
        let rend = (i + 2..n).find(|&k| delim(chars[k])).unwrap_or(n);
        let left: String = chars[lstart..i].iter().collect();
        let right: String = chars[i + 2..rend].iter().collect();
        if has_nonzero_float_literal(&left) || has_nonzero_float_literal(&right) {
            out.push(Diagnostic {
                line: lineno,
                rule: "float-eq",
                message: format!(
                    "float equality `{}{two}{}` — magnitude comparisons need a tolerance \
                     (cf. validate::check_feasible); exact `== 0.0` sparsity tests are exempt",
                    left.trim(),
                    right.trim()
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn diag(path: &str, src: &str) -> Vec<Diagnostic> {
        check_file(path, &scan(src))
    }

    #[test]
    fn hash_binding_and_iteration() {
        let src = "struct S { map: HashMap<K, V> }\nfn f(s: &S) { for k in s.map.keys() {} }\n";
        let d = diag("crates/core/src/x.rs", src);
        assert!(d.iter().any(|d| d.rule == "hash-iter"), "{d:?}");
    }

    #[test]
    fn hash_get_is_fine() {
        let src = "struct S { map: HashMap<K, V> }\nfn f(s: &S) { s.map.get(&k); }\n";
        assert!(diag("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_eq_zero_exempt() {
        let d = diag("crates/lp/src/x.rs", "fn f(v: f64) -> bool { v != 0.0 }\n");
        assert!(d.is_empty(), "{d:?}");
        let d = diag("crates/lp/src/x.rs", "fn f(v: f64) -> bool { v == 1.5 }\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "float-eq");
    }

    #[test]
    fn index_literal_but_not_macros() {
        let d = diag("crates/lp/src/x.rs", "let a = vec![0]; let b = xs[0];\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "index-literal");
    }

    #[test]
    fn unwrap_or_not_flagged() {
        let d = diag(
            "crates/lp/src/x.rs",
            "let a = m.get(k).unwrap_or_default(); let b = o.expect_err(\"x\");\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn serve_is_in_the_panic_scope() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
        let d = diag("crates/api/src/serve.rs", src);
        assert!(d.iter().any(|d| d.rule == "panic-path"), "{d:?}");
        let d = diag("crates/api/src/store.rs", src);
        assert!(d.iter().any(|d| d.rule == "panic-path"), "{d:?}");
        let d = diag("crates/api/src/router.rs", src);
        assert!(d.iter().any(|d| d.rule == "panic-path"), "{d:?}");
        let d = diag("crates/api/src/http.rs", src);
        assert!(d.iter().any(|d| d.rule == "panic-path"), "{d:?}");
        let d = diag("crates/api/src/engine.rs", src);
        assert!(d.iter().any(|d| d.rule == "panic-path"), "{d:?}");
        // ...but the rest of the api crate is not.
        assert!(diag("crates/api/src/report.rs", src).is_empty());
    }
}
