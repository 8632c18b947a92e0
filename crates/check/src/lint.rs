//! Softfloat-purity lint: no native `f64` arithmetic in the datapath.
//!
//! The repository's central correctness claim is that every floating-point
//! value flowing through a simulated architecture is produced by the
//! bit-accurate [`fblas_fpu::softfloat`] routines — `sf_add`, `sf_mul` and
//! friends — never by native `+ - * /` written in the datapath. (`sf_add`
//! and `sf_mul` use the host FPU themselves, behind a tested bit-identity
//! with the integer softfloat and NaN canonicalization; the lint keeps
//! every datapath value on that one path.) Reference oracles
//! (`ref_*`, `*_naive`) and performance *accounting* (bytes/s, words per
//! cycle, GFLOPS, fractions of peak) legitimately use native arithmetic;
//! everything else in the datapath crates must not.
//!
//! This module is a dependency-free token-level scanner. It is not a type
//! checker: it strips comments, strings and `#[cfg(test)]` items, then
//! flags the binary operators `+ - * / += -= *= /=` whenever either
//! operand shows evidence of being an `f64` — a float literal, an
//! identifier declared `: f64` (or naming a `-> f64` function) in the
//! same file, an `as f64` cast, or a call of a function declared
//! `-> f64` in any scanned file. The
//! function table (`FnReturns`) is built once over the whole file set,
//! so a call in one file of a method declared in another is seen; a name
//! declared both `-> f64` and otherwise is reported at its arithmetic
//! call sites rather than guessed either way. Escapes, in decreasing
//! order of preference:
//!
//! 1. route the value through `fblas_fpu` (the point of the lint);
//! 2. name the function so it is recognisably an oracle (`ref_*`,
//!    `reference_*`, `*_naive`) or accounting (see
//!    [`ACCOUNTING_NAME_PATTERNS`]);
//! 3. an explicit `// lint: allow(native-f64)` on the offending line or
//!    the line above it.

use std::collections::{HashMap, HashSet};

use crate::drc::{Diagnostic, Severity};
use crate::source::{skip_balanced, skip_item, Kind, SourceFile, Tok};

/// One native-float-arithmetic finding.
#[derive(Debug, Clone, PartialEq)]
pub struct LintHit {
    /// File the hit is in (as the path was given to the scanner).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Which operator fired and what made its operand float-typed.
    pub reason: String,
}

impl std::fmt::Display for LintHit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}\n    {}",
            self.file, self.line, self.reason, self.snippet
        )
    }
}

/// The paths (relative to the repository root) the lint polices. The
/// `sim` crate hosts the timing machinery (token buckets, delay lines)
/// and the software *baselines* in `sw` are oracles by definition, so
/// neither is policed.
pub const DATAPATH_PATHS: &[&str] = &[
    "crates/core/src",
    "crates/fpu/src/pipelined.rs",
    "crates/mem/src",
    "crates/fabric/src",
];

/// Function-name fragments that mark a function as performance
/// *accounting* rather than datapath: rates, clocks, capacities and
/// efficiency metrics are host-side arithmetic about the hardware, not
/// values inside it.
pub const ACCOUNTING_NAME_PATTERNS: &[&str] = &[
    "bytes_per_s",
    "per_cycle",
    "per_fpga",
    "gflops",
    "flops",
    "fraction",
    "bandwidth",
    "occupancy",
    "mhz",
    "hz",
    "peak",
    "rate",
    "utilization",
    "efficiency",
    "cycles",
    "latency",
    "speedup",
    "seconds",
];

/// Assertion macros: their bodies compute predicates about the design
/// (feasibility checks, invariants), never datapath values — arithmetic
/// inside them is verification, not value flow.
const ASSERT_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "panic",
    "unreachable",
];

/// Marker comment that silences the lint for one line (or the next).
const ALLOW_MARKER: &str = "lint: allow(native-f64)";

/// Does this function name mark an allowlisted oracle or accounting fn?
fn allowlisted_fn(name: &str) -> bool {
    name.starts_with("ref_")
        || name.starts_with("reference_")
        || name.contains("naive")
        || ACCOUNTING_NAME_PATTERNS.iter().any(|p| name.contains(p))
}

/// Indices of tokens inside skipped regions: the bodies of allowlisted
/// functions and the arguments of assertion macros.
fn skipped_mask(toks: &[Tok]) -> Vec<bool> {
    let mut skip = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        let item_start = i;
        if toks[i].text == "fn"
            && toks
                .get(i + 1)
                .is_some_and(|t| t.kind == Kind::Ident && allowlisted_fn(&t.text))
        {
            i = skip_item(toks, i);
        } else if toks[i].kind == Kind::Ident
            && ASSERT_MACROS.contains(&toks[i].text.as_str())
            && toks.get(i + 1).is_some_and(|t| t.text == "!")
        {
            i = skip_balanced(toks, i + 2, "(", ")");
        } else {
            i += 1;
            continue;
        }
        for s in skip.iter_mut().take(i).skip(item_start) {
            *s = true;
        }
    }
    skip
}

fn is_float_type(t: &Tok) -> bool {
    t.text == "f64" || t.text == "f32"
}

/// The name of the `fn` item whose `fn` keyword is `toks[w]`, and
/// whether it is declared `-> f64` (or `-> f32`).
fn fn_signature(toks: &[Tok], w: usize) -> Option<(&str, bool)> {
    let name = toks.get(w + 1).filter(|t| t.kind == Kind::Ident)?;
    if toks[w].text != "fn" {
        return None;
    }
    let sig_end = skip_balanced(toks, w + 2, "(", ")");
    let float = toks.get(sig_end).is_some_and(|t| t.text == "->")
        && toks.get(sig_end + 1).is_some_and(is_float_type);
    Some((&name.text, float))
}

/// Identifiers with local evidence of `f64` type: `name: f64` bindings,
/// parameters and fields, plus names of this file's `-> f64` functions.
fn collect_floaty_idents(toks: &[Tok]) -> HashSet<String> {
    let mut floaty = HashSet::new();
    for w in 0..toks.len() {
        if let Some((name, true)) = fn_signature(toks, w) {
            floaty.insert(name.to_string());
        }
        // `ident : [& mut] f64`
        if toks[w].kind == Kind::Ident && toks.get(w + 1).is_some_and(|t| t.text == ":") {
            let mut j = w + 2;
            while toks
                .get(j)
                .is_some_and(|t| t.text == "&" || t.text == "mut")
            {
                j += 1;
            }
            if toks.get(j).is_some_and(is_float_type) {
                floaty.insert(toks[w].text.clone());
            }
        }
    }
    floaty
}

/// What the scanned files declare a function name to return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Returns {
    /// Every declaration is `-> f64` (or `-> f32`).
    Float,
    /// No declaration is.
    Other,
    /// Some are and some are not: the scanner cannot tell which one a
    /// call reaches.
    Mixed,
}

/// The return-type table of every non-test `fn` in a file set, built
/// once so a call in one file of a function declared in another is
/// typed the same as a call next to its declaration.
#[derive(Debug)]
struct FnReturns(HashMap<String, Returns>);

impl FnReturns {
    /// Scan every `fn name ( … ) [-> Type]` of `files`.
    fn new(files: &[&SourceFile]) -> Self {
        let mut table = HashMap::new();
        for file in files {
            let toks = &file.toks;
            for w in 0..toks.len() {
                let Some((name, float)) = fn_signature(toks, w) else {
                    continue;
                };
                if file.in_test(toks[w].line) {
                    continue;
                }
                let returns = if float {
                    Returns::Float
                } else {
                    Returns::Other
                };
                table
                    .entry(name.to_string())
                    .and_modify(|r| {
                        if *r != returns {
                            *r = Returns::Mixed;
                        }
                    })
                    .or_insert(returns);
            }
        }
        Self(table)
    }

    fn get(&self, name: &str) -> Returns {
        self.0.get(name).copied().unwrap_or(Returns::Other)
    }
}

/// Why an operand looks float-typed, or `None` if it does not.
fn float_evidence(
    toks: &[Tok],
    idx: usize,
    floaty: &HashSet<String>,
    fns: &FnReturns,
    backwards: bool,
) -> Option<String> {
    let t = toks.get(idx)?;
    match t.kind {
        Kind::Float => Some(format!("float literal `{}`", t.text)),
        Kind::Ident if floaty.contains(&t.text) => Some(format!("`{}` is declared f64", t.text)),
        Kind::Punct if backwards && t.text == ")" => {
            // Walk back over the group: an `as f64` cast ends just inside,
            // and a call of an `-> f64` function names it just outside.
            let open = matching_open(toks, idx)?;
            if toks
                .get(idx.checked_sub(1)?)
                .is_some_and(|t| t.text == "f64")
            {
                return Some("`as f64` cast".to_string());
            }
            let callee = toks.get(open.checked_sub(1)?)?;
            if callee.kind != Kind::Ident {
                return None;
            }
            match fns.get(&callee.text) {
                Returns::Float => Some(format!("call of `{}` returning f64", callee.text)),
                Returns::Mixed => Some(format!(
                    "call of `{}`, declared both `-> f64` and not in the scanned files",
                    callee.text
                )),
                Returns::Other => None,
            }
        }
        _ => None,
    }
}

fn matching_open(toks: &[Tok], close: usize) -> Option<usize> {
    let mut depth = 0;
    for i in (0..=close).rev() {
        match toks[i].text.as_str() {
            ")" => depth += 1,
            "(" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Could the token end an expression (making a following `-`/`*` binary)?
fn ends_expression(t: &Tok) -> bool {
    matches!(t.kind, Kind::Ident | Kind::Int | Kind::Float) || t.text == ")" || t.text == "]"
}

/// Native f64 arithmetic in every file of a set, each call typed by the
/// one `FnReturns` table of the whole set.
pub fn scan(files: &[&SourceFile]) -> Vec<LintHit> {
    let fns = FnReturns::new(files);
    files.iter().flat_map(|f| hits(f, &fns)).collect()
}

/// Native f64 arithmetic in one prepared file, calls typed by `fns`.
fn hits(file: &SourceFile, fns: &FnReturns) -> Vec<LintHit> {
    let raw_lines: Vec<&str> = file.raw.lines().collect();
    let allowed_line = |line: usize| -> bool {
        // 1-based; the marker counts on the line itself or the one above.
        [line, line.saturating_sub(1)].iter().any(|&l| {
            l >= 1
                && raw_lines
                    .get(l - 1)
                    .is_some_and(|s| s.contains(ALLOW_MARKER))
        })
    };

    let toks = &file.toks;
    let skip = skipped_mask(toks);
    let floaty = collect_floaty_idents(toks);

    let mut hits = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if skip[i] || t.kind != Kind::Punct || file.in_test(t.line) {
            continue;
        }
        let op = t.text.as_str();
        let compound = matches!(op, "+=" | "-=" | "*=" | "/=");
        let simple = matches!(op, "+" | "-" | "*" | "/");
        if !compound && !simple {
            continue;
        }
        // `+ - *` can be unary/deref: require a completed expression on
        // the left for the simple forms.
        if simple
            && !i
                .checked_sub(1)
                .and_then(|p| toks.get(p))
                .is_some_and(ends_expression)
        {
            continue;
        }
        let evidence = i
            .checked_sub(1)
            .and_then(|p| float_evidence(toks, p, &floaty, fns, true))
            .or_else(|| float_evidence(toks, i + 1, &floaty, fns, false));
        let Some(evidence) = evidence else { continue };
        if allowed_line(t.line) {
            continue;
        }
        hits.push(LintHit {
            file: file.label.clone(),
            line: t.line,
            snippet: raw_lines
                .get(t.line - 1)
                .map_or_else(String::new, |s| s.trim().to_string()),
            reason: format!("native `{op}` on f64 ({evidence}) — use fblas_fpu::softfloat"),
        });
    }
    hits
}

/// The softfloat-purity row's matcher: every hit is an Error.
pub fn check(files: &[&SourceFile]) -> Vec<Diagnostic> {
    scan(files)
        .into_iter()
        .map(|hit| Diagnostic {
            rule_id: "softfloat-purity",
            severity: Severity::Error,
            message: hit.to_string(),
            quantities: vec![],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_source(label: &str, source: &str) -> Vec<LintHit> {
        scan(&[&SourceFile::new(label, source)])
    }

    #[test]
    fn flags_native_f64_arithmetic() {
        let src = "fn datapath(a: f64, b: f64) -> f64 { a * b }";
        let hits = scan_source("x.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].reason.contains('*'), "{}", hits[0].reason);
    }

    #[test]
    fn flags_float_literals_and_compound_assign() {
        let hits = scan_source("x.rs", "fn f(mut acc: f64) { acc += 1.5; }");
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn ignores_integer_arithmetic() {
        let src = "fn f(n: usize, k: usize) -> usize { n * n / k + 1 }";
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn ignores_reference_oracles_and_accounting() {
        let src = "fn ref_dot(u: &[f64], v: &[f64]) -> f64 {\n\
                   u.iter().zip(v).map(|(a, b)| a * b).sum()\n}\n\
                   fn bytes_per_s(w: f64, hz: f64) -> f64 { w * 8.0 * hz }";
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn ignores_cfg_test_blocks() {
        let src = "#[cfg(test)]\nmod tests {\n fn t(a: f64) -> f64 { a + 1.0 } }";
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn allow_marker_silences_the_line() {
        let src = "fn f(a: f64) -> f64 {\n // lint: allow(native-f64)\n a + 1.0\n}";
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_fire() {
        let src = "fn f() { let _ = \"a * 1.0\"; } // a + 2.0\n/// a / 3.0\nfn g() {}";
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn as_f64_cast_feeding_arithmetic_fires() {
        let hits = scan_source("x.rs", "fn f(n: usize, x: f64) { let _ = (n as f64) * x; }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].reason.contains("cast") || hits[0].reason.contains("f64"));
    }

    #[test]
    fn a_name_declared_f64_and_otherwise_is_reported_not_guessed() {
        let call = SourceFile::new("use.rs", "fn f(ch: &C) -> u64 { ch.read(0) + 1 }\n");
        let as_u64 = SourceFile::new("deploy.rs", "fn read(&self, i: usize) -> u64 { 0 }\n");
        let as_f64 = SourceFile::new("store.rs", "fn read(&self, i: usize) -> f64 { 0.0 }\n");
        assert!(scan(&[&call, &as_u64]).is_empty());
        let hits = scan(&[&call, &as_u64, &as_f64]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(
            hits[0].reason.contains("declared both"),
            "{}",
            hits[0].reason
        );
    }

    #[test]
    fn test_only_declarations_type_no_call() {
        let call = SourceFile::new("use.rs", "fn f(m: &M) -> u64 { m.at(0) + 1 }\n");
        let decl = SourceFile::new(
            "t.rs",
            "#[cfg(test)]\nmod tests {\n    fn at(i: usize) -> f64 { 0.0 }\n}\n",
        );
        assert!(scan(&[&call, &decl]).is_empty());
    }

    #[test]
    fn ranges_are_not_floats() {
        assert!(scan_source("x.rs", "fn f() { for _ in 0..10 {} }").is_empty());
    }

    #[test]
    fn unary_minus_alone_does_not_fire() {
        // Unary minus is sign introduction, not an arithmetic op.
        assert!(scan_source("x.rs", "fn f(x: f64) { let _ = [-1.0, x]; }").is_empty());
    }
}
