//! Workspace determinism lint: result-affecting code must be a pure
//! function of its inputs.
//!
//! The observatory's whole regression story (DESIGN.md §10) rests on
//! `BENCH_<n>.json` being byte-identical across machines, worker counts
//! and reruns. That property dies the moment result-affecting code reads
//! an ambient value: a wall clock ([`std::time::Instant`],
//! [`std::time::SystemTime`]), the host's CPU count
//! (`available_parallelism`), an ambient RNG (`thread_rng`), or —
//! subtlest of all — the iteration order of a `HashMap`/`HashSet`, which
//! is seeded per process. This rule scans the result-affecting crates
//! (`core`, `sim`, `fpu`, `metrics`, `faults`, `bench`) at the token
//! level (comments and strings stripped) and reports an error for any
//! such read in production code.
//!
//! Hash containers with *keyed* access (`get`/`insert`/`entry`) are
//! fine — only order-revealing operations (`iter`, `keys`, `values`,
//! `drain`, `retain`, `for .. in map`) are flagged. A small allowlist
//! covers the sites whose ambient reads are proven not to affect
//! results: the worker pool's thread-count default (its ordered reducer
//! keeps output identical at any count), and the wall-clock sidecars
//! that are never written into committed records. Test code is exempt.
//!
//! This module is the matcher of the rule table's determinism row
//! ([`crate::scan::DETERMINISM`]); the table turns its sites into
//! diagnostics.

use crate::scan::Site;
use crate::source::{SourceFile, Tok};

/// The result-affecting source trees, relative to the repo root. The
/// `sw` crate's software oracles decide the fault campaign's residual
/// gates, whose verdicts land in the committed `FAULTS.json`, so it is
/// held to the same no-ambient-reads bar.
pub const DETERMINISM_ROOTS: &[&str] = &[
    "crates/core/src",
    "crates/sim/src",
    "crates/fpu/src",
    "crates/metrics/src",
    "crates/faults/src",
    "crates/bench/src",
    "crates/sw/src",
    "crates/serve/src",
    "crates/fabric/src",
];

/// Ambient reads proven harmless, as `(file, class)` pairs. Each entry
/// is reported as Info so the sweep shows live coverage.
pub const ALLOWED_SITES: &[(&str, &str)] = &[
    // Worker-count default only: the pool's ordered reducer makes the
    // merged output identical at any worker count (DESIGN.md §10).
    ("crates/bench/src/pool.rs", "host-parallelism"),
    // Wall-clock sidecar printed to stderr; never enters a RunRecord.
    ("crates/bench/src/paper_matrix.rs", "wall-clock"),
    // Host-baseline tool: its output is explicitly host-dependent and
    // is never committed.
    ("crates/bench/src/bin/cpu_compare.rs", "wall-clock"),
    ("crates/bench/src/bin/cpu_compare.rs", "host-parallelism"),
];

/// Direct ambient-read patterns: whitespace-squeezed substring match on
/// stripped source, with the class each belongs to.
const DIRECT_PATTERNS: &[(&str, &str)] = &[
    ("Instant::now", "wall-clock"),
    ("SystemTime", "wall-clock"),
    ("thread_rng", "ambient-rng"),
    ("rand::random", "ambient-rng"),
    ("RandomState", "ambient-rng"),
    ("available_parallelism", "host-parallelism"),
];

/// Order-revealing methods on a hash container.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Identifiers bound to a `HashMap`/`HashSet` in this file: field or
/// `let` declarations (`x: HashMap<..>`) and direct constructions
/// (`x = HashMap::new()`), with optional path prefix and `&`/`mut`.
fn hash_idents(toks: &[Tok]) -> Vec<String> {
    let mut idents = Vec::new();
    for i in 0..toks.len() {
        if toks[i].text != "HashMap" && toks[i].text != "HashSet" {
            continue;
        }
        // Walk back over the type path (`std :: collections ::`) and
        // reference markers to the `:` or `=` that introduced it.
        let mut j = i;
        while j > 0 {
            let prev = &toks[j - 1].text;
            let is_path_component = prev != "::"
                && prev.chars().next().is_some_and(char::is_alphabetic)
                && toks.get(j).is_some_and(|t| t.text == "::");
            if prev == "::" || prev == "&" || prev == "mut" || is_path_component {
                j -= 1;
            } else {
                break;
            }
        }
        if j >= 2 && (toks[j - 1].text == ":" || toks[j - 1].text == "=") {
            let name = &toks[j - 2].text;
            if name
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
            {
                idents.push(name.clone());
            }
        }
    }
    idents.sort();
    idents.dedup();
    idents
}

/// Ambient reads and hash-order dependence in one file's production
/// code, in line order.
pub fn sites(file: &SourceFile) -> Vec<Site> {
    let site = |line: usize, what: &str, class: &str| Site {
        file: file.label.clone(),
        line,
        what: format!("`{what}` ({class})"),
        allowed: ALLOWED_SITES.contains(&(file.label.as_str(), class)),
    };
    let mut sites = Vec::new();
    for (i, squeezed) in file.squeezed.iter().enumerate() {
        for (pattern, class) in DIRECT_PATTERNS {
            if squeezed.contains(pattern) && !file.in_test(i + 1) {
                sites.push(site(i + 1, pattern, class));
            }
        }
    }
    let toks = &file.toks;
    let hashes = hash_idents(toks);
    let is_hash = |t: &str| hashes.iter().any(|h| h == t);
    for i in 0..toks.len() {
        let (tok, line) = (&toks[i].text, toks[i].line);
        if file.in_test(line) {
            continue;
        }
        // `map.iter()` and friends: an order-revealing method on a
        // known hash container.
        if tok == "."
            && i >= 1
            && is_hash(&toks[i - 1].text)
            && toks
                .get(i + 1)
                .is_some_and(|t| ITER_METHODS.contains(&t.text.as_str()))
            && toks.get(i + 2).is_some_and(|t| t.text == "(")
        {
            let what = format!("{}.{}()", toks[i - 1].text, toks[i + 1].text);
            sites.push(site(line, &what, "hash-iteration"));
        }
        // `for x in [&mut] map {`: direct iteration of the container.
        if tok == "in" {
            let mut j = i + 1;
            while toks
                .get(j)
                .is_some_and(|t| t.text == "&" || t.text == "mut")
            {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| is_hash(&t.text))
                && toks.get(j + 1).is_some_and(|t| t.text == "{")
            {
                let what = format!("for .. in {}", toks[j].text);
                sites.push(site(line, &what, "hash-iteration"));
            }
        }
    }
    sites.sort_by_key(|s| s.line);
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drc::{Diagnostic, Severity};
    use crate::scan::DETERMINISM;

    fn scan_source(label: &str, source: &str) -> Vec<Site> {
        sites(&SourceFile::new(label, source))
    }

    fn diagnose(label: &str, source: &str) -> Vec<Diagnostic> {
        DETERMINISM.diagnose(&[&SourceFile::new(label, source)])
    }

    #[test]
    fn wall_clock_and_rng_reads_are_errors() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); }";
        let sites = scan_source("crates/sim/src/x.rs", src);
        assert_eq!(sites.len(), 2, "{sites:?}");
        assert!(sites.iter().all(|s| !s.allowed));
        assert!(diagnose("crates/sim/src/x.rs", src)
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("wall-clock")));
    }

    #[test]
    fn allowlisted_pool_parallelism_is_info() {
        let src = "fn d() -> usize { std::thread::available_parallelism().map_or(1, f) }";
        let sites = scan_source("crates/bench/src/pool.rs", src);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].allowed);
        // The same read elsewhere is an error.
        let rogue = scan_source("crates/core/src/x.rs", src);
        assert!(!rogue[0].allowed);
    }

    #[test]
    fn hash_iteration_is_flagged_keyed_access_is_not() {
        let src = "struct S { m: HashMap<u64, u32> }\n\
                   fn f(s: &S) { let _ = s.m.get(&1); }\n\
                   fn g(m: &HashMap<u64, u32>) { for kv in m { drop(kv); } }\n\
                   fn h(m: &mut HashMap<u64, u32>) { m.insert(1, 2); let _k = m.keys(); }\n";
        let sites = scan_source("crates/core/src/x.rs", src);
        // Line 3: `for kv in m {`; line 4: `m.keys()` — but not
        // `get`/`insert`. `m.keys()` without call parens is not counted;
        // make it a call:
        assert!(sites
            .iter()
            .any(|s| s.line == 3 && s.what.contains("(hash-iteration)")));
        assert!(!sites.iter().any(|s| s.what.contains("get")));
        let called = scan_source(
            "crates/core/src/y.rs",
            "fn f(m: &HashMap<u64,u32>) { for k in m.keys() { drop(k); } }",
        );
        assert_eq!(called.len(), 1, "{called:?}");
        assert_eq!(called[0].what, "`m.keys()` (hash-iteration)");
    }

    #[test]
    fn qualified_paths_and_field_decls_bind_hash_idents() {
        let src = "struct R { set_log2: std::collections::HashMap<u64, u32> }\n\
                   fn f(r: &R) { let _ = r.set_log2.iter(); }\n";
        let sites = scan_source("crates/core/src/x.rs", src);
        assert_eq!(sites.len(), 1, "{sites:?}");
        assert_eq!(sites[0].what, "`set_log2.iter()` (hash-iteration)");
    }

    #[test]
    fn cfg_test_scopes_and_comments_are_exempt() {
        let src = "// Instant::now is banned\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t() { let _ = Instant::now(); let m: HashMap<u8,u8> = x(); m.iter(); }\n\
                   }\n";
        assert!(scan_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn missing_allowlisted_site_is_a_warning() {
        assert!(DETERMINISM
            .diagnose(&[])
            .iter()
            .any(|d| d.severity == Severity::Warning && d.message.contains("rule stale")));
    }

    /// The live tree must pass: every ambient read sits on the
    /// allowlist, and the allowlisted sites still exist.
    #[test]
    fn shipped_workspace_is_deterministic() {
        crate::scan::assert_shipped_tree_passes(&DETERMINISM);
    }
}
