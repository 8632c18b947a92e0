//! Fast-path parity coverage: every design that overrides
//! `Design::fast_forward` must be pinned bit-identical to cycle
//! stepping by the backend parity suite.
//!
//! The native backend is a *pure acceleration* (DESIGN.md §13): same
//! results, same reports, fewer host cycles. That claim is only as strong
//! as its test coverage, and a new design can grow a fused replay without
//! anyone adding it to the randomized parity suite. [`FAST_PATH_CLAIMS`]
//! names, for each design type with a fast path, the `backend_parity`
//! test that exercises it across backends.
//!
//! A claim resolves through the code, not the file it sits in: from the
//! claimed type, through the types its inherent `impl` blocks name (and
//! theirs, transitively), to the `impl Design for` types it reaches. A
//! fast path shared by several designs may live in another file, and a
//! sibling impl's override in the same file vouches for nothing.
//! [`check_fast_paths`] proves three things against the live trees:
//!
//! 1. every `impl Design for` that overrides `fast_forward` is reached
//!    by at least one claim (a new fast path with no claim is an error);
//! 2. every claim reaches such an override (a stale claim is an error);
//! 3. every claimed test still exists in the parity suite by name (a
//!    renamed or deleted test is an error).
//!
//! This is the matcher of the rule table's fast-path row
//! ([`crate::scan::FAST_PATH_PARITY`]), which `drc` runs.

use crate::drc::{Diagnostic, Severity};
use crate::source::{matches, skip_balanced, SourceFile, Tok};

/// Which randomized parity test (in `crates/bench/tests/backend_parity.rs`)
/// vouches for each design type that overrides `Design::fast_forward`.
///
/// Kept sorted by design type name.
pub const FAST_PATH_CLAIMS: &[(&str, &str)] = &[
    ("AsumDesign", "asum_backends_agree_on_random_reals"),
    ("AxpyDesign", "axpy_and_scal_backends_agree_on_random_reals"),
    (
        "ColMajorMvm",
        "col_major_mvm_backends_agree_on_random_reals",
    ),
    (
        "DotProductDesign",
        "dot_product_backends_agree_across_random_shapes",
    ),
    (
        "LinearArrayMm",
        "linear_array_mm_backends_agree_on_random_reals",
    ),
    (
        "ReduceFeed",
        "reduction_sets_backends_agree_on_random_reals",
    ),
    (
        "RowMajorMvm",
        "row_major_mvm_backends_agree_on_random_reals",
    ),
    ("ScalDesign", "axpy_and_scal_backends_agree_on_random_reals"),
    ("SpmvDesign", "spmv_backends_agree_on_random_reals"),
];

/// The parity suite every claim must point into.
pub const PARITY_SUITE: &str = "crates/bench/tests/backend_parity.rs";

/// The rule's roots: the source trees scanned for `fast_forward`
/// overrides (every crate a streaming design lives in), then the suite.
pub const FAST_PATH_ROOTS: &[&str] = &[
    "crates/core/src",
    "crates/sparse/src",
    "crates/fabric/src",
    PARITY_SUITE,
];

/// Does the token slice declare `fn name(`?
fn declares_fn(toks: &[Tok], name: &str) -> bool {
    (0..toks.len()).any(|i| matches(toks, i, &["fn", name, "("]))
}

/// Whole-word occurrence, so `DotProductDesign` does not match a
/// hypothetical `DotProductDesignV2`.
fn mentions_type(toks: &[Tok], name: &str) -> bool {
    toks.iter().any(|t| t.text == name)
}

/// One `impl` item of the scanned trees.
struct Impl<'a> {
    label: &'a str,
    /// The implementing type.
    ty: &'a str,
    /// `impl Design for ty` (else an inherent or other trait impl).
    design: bool,
    body: &'a [Tok],
}

/// Every `impl` item in `file` (not `impl Trait` in a signature). The
/// header runs to the first `{`; the self type is the token after `for`
/// (a trait impl) or after the generics (an inherent impl).
fn impls(file: &SourceFile) -> Vec<Impl<'_>> {
    let toks = &file.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let item = i == 0 || matches!(toks[i - 1].text.as_str(), "}" | ";" | "]" | "{");
        if toks[i].text != "impl" || !item {
            continue;
        }
        let Some(open) = (i..toks.len()).find(|&j| toks[j].text == "{") else {
            break;
        };
        let header = &toks[i + 1..open];
        let for_at = header.iter().position(|t| t.text == "for");
        let ty = match for_at {
            Some(f) => f + 1,
            None if header.first().is_some_and(|t| t.text == "<") => {
                skip_balanced(header, 0, "<", ">")
            }
            None => 0,
        };
        if let Some(ty) = header.get(ty) {
            out.push(Impl {
                label: &file.label,
                ty: &ty.text,
                design: for_at.is_some_and(|f| f > 0 && header[f - 1].text == "Design"),
                body: &toks[open..skip_balanced(toks, open, "{", "}")],
            });
        }
    }
    out
}

/// The types `claim` reaches: itself, then every type an inherent impl
/// of a reached type names, transitively.
fn reached<'a>(claim: &'a str, all: &[Impl<'a>]) -> Vec<&'a str> {
    let mut seen = vec![claim];
    let mut i = 0;
    while let Some(&ty) = seen.get(i) {
        for block in all.iter().filter(|b| b.ty == ty && !b.design) {
            for other in all {
                if !seen.contains(&other.ty) && mentions_type(block.body, other.ty) {
                    seen.push(other.ty);
                }
            }
        }
        i += 1;
    }
    seen
}

/// The fast-path row's matcher: [`FAST_PATH_CLAIMS`] against the
/// fast-path trees and the parity suite among `files`.
pub fn check(files: &[&SourceFile]) -> Vec<Diagnostic> {
    let (suite, trees): (Vec<&SourceFile>, Vec<&SourceFile>) =
        files.iter().partition(|f| f.label == PARITY_SUITE);
    let empty = SourceFile::new(PARITY_SUITE, "");
    check_fast_paths(FAST_PATH_CLAIMS, &trees, suite.first().unwrap_or(&&empty))
}

/// Check a claims table against the fast-path trees' files and the
/// parity suite. Tests feed deliberately broken trees through it.
pub fn check_fast_paths(
    claims: &[(&str, &str)],
    files: &[&SourceFile],
    parity_suite: &SourceFile,
) -> Vec<Diagnostic> {
    let all: Vec<Impl> = files.iter().flat_map(|f| impls(f)).collect();
    let fast: Vec<&Impl> = all
        .iter()
        .filter(|b| b.design && declares_fn(b.body, "fast_forward"))
        .collect();
    let reach: Vec<Vec<&str>> = claims.iter().map(|(ty, _)| reached(ty, &all)).collect();
    let diag = |severity, message| Diagnostic {
        rule_id: "fast-path-parity",
        severity,
        message,
        quantities: vec![],
    };
    let mut diags = Vec::new();

    // 1. Every fast path must be reached by at least one claim.
    for &Impl { label, ty, .. } in &fast {
        let claimed: Vec<&str> = claims
            .iter()
            .zip(&reach)
            .filter(|(_, reached)| reached.contains(ty))
            .map(|((claim, _), _)| *claim)
            .collect();
        diags.push(if claimed.is_empty() {
            let message = format!(
                "{label} overrides Design::fast_forward for `{ty}` but no design type \
                 claimed by the backend parity suite reaches it — add the type and its \
                 randomized test to FAST_PATH_CLAIMS"
            );
            diag(Severity::Error, message)
        } else {
            let message = format!(
                "{label}: `{ty}` fast path covered via {}",
                claimed.join(", ")
            );
            diag(Severity::Info, message)
        });
    }

    // 2 & 3. Every claim must reach a live fast path and a live test.
    for ((ty, test), reached) in claims.iter().zip(&reach) {
        if !fast.iter().any(|b| reached.contains(&b.ty)) {
            let message = format!(
                "claim for `{ty}` reaches no `impl Design for` overriding fast_forward \
                 in the policed trees — stale claim or renamed design"
            );
            diags.push(diag(Severity::Error, message));
        }
        if !declares_fn(&parity_suite.toks, test) {
            let message = format!(
                "claimed parity test `{test}` (for `{ty}`) not found in {PARITY_SUITE} — \
                 renamed or deleted test"
            );
            diags.push(diag(Severity::Error, message));
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite_with(tests: &[&str]) -> SourceFile {
        let src: String = tests
            .iter()
            .map(|t| format!("#[test]\nfn {t}() {{}}\n"))
            .collect();
        SourceFile::new(PARITY_SUITE, &src)
    }

    fn file(label: &str, src: &str) -> SourceFile {
        SourceFile::new(label, src)
    }

    #[test]
    fn unclaimed_fast_path_is_an_error() {
        let kernel = file(
            "crates/core/src/new_kernel.rs",
            "pub struct NewKernelDesign;\nimpl Design for NewKernelDesign {\n\
             fn fast_forward(&mut self, p: &mut Probe) -> u64 { 0 }\n}",
        );
        let diags = check_fast_paths(&[], &[&kernel], &suite_with(&[]));
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("new_kernel.rs")));
    }

    #[test]
    fn stale_claim_and_missing_test_are_errors() {
        let dot = file(
            "crates/core/src/dot.rs",
            "pub struct DotProductDesign;\nimpl Design for DotProductDesign { fn fast_forward() {} }",
        );
        let claims: &[(&str, &str)] = &[
            ("DotProductDesign", "dot_parity"),
            ("GhostDesign", "ghost_parity"),
        ];
        let diags = check_fast_paths(claims, &[&dot], &suite_with(&["dot_parity"]));
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("GhostDesign")));
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("ghost_parity")));
        assert!(!diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("`dot_parity`")));
    }

    #[test]
    fn covered_file_is_info() {
        let dot = file(
            "crates/core/src/dot.rs",
            "pub struct DotProductDesign;\nimpl Design for DotProductDesign { fn fast_forward() {} }",
        );
        let claims: &[(&str, &str)] = &[("DotProductDesign", "dot_parity")];
        let diags = check_fast_paths(claims, &[&dot], &suite_with(&["dot_parity"]));
        assert!(diags.iter().all(|d| d.severity != Severity::Error));
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Info && d.message.contains("DotProductDesign")));
    }

    #[test]
    fn whole_word_type_matching() {
        let v2 = file("x.rs", "struct DotProductDesignV2;");
        assert!(!mentions_type(&v2.toks, "DotProductDesign"));
        let call = file("x.rs", "let d = DotProductDesign::new();");
        assert!(mentions_type(&call.toks, "DotProductDesign"));
    }

    #[test]
    fn files_without_fast_forward_are_ignored() {
        let other = file(
            "crates/core/src/other.rs",
            "pub struct Other;\nfn cycle() {}",
        );
        let diags = check_fast_paths(&[], &[&other], &suite_with(&[]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    /// A fast path shared by designs in other files (the tree-reduce
    /// pattern) is vouched for by the designs that construct it.
    #[test]
    fn fast_path_claimed_from_another_file_passes() {
        let tree = file(
            "crates/core/src/tree_reduce.rs",
            "pub struct TreeRun<S>(S);\n\
             impl<S: GroupSource> TreeRun<S> { pub fn new(s: S) -> Self { TreeRun(s) } }\n\
             impl<S: GroupSource> Design for TreeRun<S> {\n\
             fn fast_forward(&mut self, p: &mut Probe) -> u64 { 0 }\n}",
        );
        let dot = file(
            "crates/core/src/dot.rs",
            "pub struct DotProductDesign;\nstruct DotSource;\n\
             impl DotProductDesign { pub fn run(&self) { TreeRun::new(DotSource); } }",
        );
        let spmv = file(
            "crates/sparse/src/spmv.rs",
            "pub struct SpmvDesign;\n\
             impl SpmvDesign { pub fn run(&self) { fblas_core::tree_reduce::TreeRun::new(0); } }",
        );
        let claims: &[(&str, &str)] = &[
            ("DotProductDesign", "dot_parity"),
            ("SpmvDesign", "spmv_parity"),
        ];
        let suite = suite_with(&["dot_parity", "spmv_parity"]);
        let diags = check_fast_paths(claims, &[&tree, &dot, &spmv], &suite);
        assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "{diags:?}"
        );
        assert!(diags.iter().any(|d| d.severity == Severity::Info
            && d.message.contains("TreeRun")
            && d.message.contains("DotProductDesign, SpmvDesign")));
    }

    /// A claimed design whose own impl lost its override is not vouched
    /// for by a sibling impl's override in the same file.
    #[test]
    fn sibling_override_does_not_cover_a_claim() {
        let level1 = file(
            "crates/core/src/level1.rs",
            "pub struct AxpyDesign;\npub struct AsumDesign;\nstruct LaneRun;\nstruct AsumRun;\n\
             impl AxpyDesign { pub fn run(&self) { LaneRun; } }\n\
             impl Design for LaneRun { fn fast_forward(&mut self) -> u64 { 0 } }\n\
             impl AsumDesign { pub fn run(&self) { AsumRun; } }\n\
             impl Design for AsumRun { fn cycle(&mut self) {} }",
        );
        let claims: &[(&str, &str)] =
            &[("AsumDesign", "asum_parity"), ("AxpyDesign", "axpy_parity")];
        let suite = suite_with(&["asum_parity", "axpy_parity"]);
        let diags = check_fast_paths(claims, &[&level1], &suite);
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert_eq!(errors.len(), 1, "{diags:?}");
        assert!(errors[0].message.contains("`AsumDesign`"), "{diags:?}");
    }

    #[test]
    fn claims_are_sorted_by_type() {
        for pair in FAST_PATH_CLAIMS.windows(2) {
            assert!(pair[0].0 < pair[1].0, "{} !< {}", pair[0].0, pair[1].0);
        }
    }

    /// The live tree must pass: every fast path claimed, every claim live.
    #[test]
    fn shipped_fast_paths_are_covered() {
        crate::scan::assert_shipped_tree_passes(&crate::scan::FAST_PATH_PARITY);
    }
}
