//! Fast-path parity coverage: every design that overrides
//! `Design::fast_forward` must be pinned bit-identical to cycle
//! stepping by the backend parity suite.
//!
//! The tentpole's soundness story (DESIGN.md §13) is that the
//! fast-forward and native backends are *pure accelerations*: same
//! results, same reports, fewer host cycles. That claim is only as
//! strong as its test coverage, and coverage can silently rot — a new
//! design can grow a fused replay without anyone adding it to the
//! randomized parity suite. This rule closes the loop statically, the
//! same way [`crate::parity`] does for the paper tolerances:
//! [`FAST_PATH_CLAIMS`] names, for each design type with a fast path,
//! the `backend_parity` test that exercises it across backends, and
//! [`check_fast_paths`] proves three things against the live tree:
//!
//! 1. every `crates/core` source file that overrides `fast_forward`
//!    contains at least one claimed design type (a new fast path with
//!    no claim is an error before it ever ships);
//! 2. every claimed design type still lives in a file that overrides
//!    `fast_forward` (a stale claim is an error);
//! 3. every claimed test still exists in the parity suite by name (a
//!    renamed or deleted test is an error).
//!
//! This is the matcher of the rule table's fast-path row
//! ([`crate::scan::FAST_PATH_PARITY`]), which `drc` runs, so the CI gate
//! that proves feasibility also proves fast-path coverage.

use crate::drc::{Diagnostic, Severity};
use crate::source::{matches, SourceFile};

/// Which randomized parity test (in `crates/bench/tests/backend_parity.rs`)
/// vouches for each design type that overrides `Design::fast_forward`.
///
/// Kept sorted by design type name.
pub const FAST_PATH_CLAIMS: &[(&str, &str)] = &[
    ("AsumDesign", "asum_backends_agree_on_integer_data"),
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
        "RowMajorMvm",
        "row_major_mvm_backends_agree_on_integer_matrices",
    ),
    ("ScalDesign", "axpy_and_scal_backends_agree_on_random_reals"),
];

/// The source tree scanned for `fast_forward` overrides.
pub const FAST_PATH_ROOT: &str = "crates/core/src";

/// The parity suite every claim must point into.
pub const PARITY_SUITE: &str = "crates/bench/tests/backend_parity.rs";

/// Does the file declare `fn name(`? In `crates/core` a `fast_forward`
/// declaration is an override: the trait's default lives in `fblas-sim`.
fn declares_fn(file: &SourceFile, name: &str) -> bool {
    (0..file.toks.len()).any(|i| matches(&file.toks, i, &["fn", name, "("]))
}

/// Whole-word occurrence, so `DotProductDesign` does not match a
/// hypothetical `DotProductDesignV2`.
fn mentions_type(file: &SourceFile, name: &str) -> bool {
    file.toks.iter().any(|t| t.text == name)
}

/// The fast-path row's matcher: [`FAST_PATH_CLAIMS`] against the
/// fast-path tree and the parity suite among `files`.
pub fn check(files: &[&SourceFile]) -> Vec<Diagnostic> {
    let (suite, core): (Vec<&SourceFile>, Vec<&SourceFile>) =
        files.iter().partition(|f| f.label == PARITY_SUITE);
    let empty = SourceFile::new(PARITY_SUITE, "");
    check_fast_paths(FAST_PATH_CLAIMS, &core, suite.first().unwrap_or(&&empty))
}

/// Check a claims table against the fast-path tree's files and the
/// parity suite. Tests feed deliberately broken trees through it.
pub fn check_fast_paths(
    claims: &[(&str, &str)],
    core_files: &[&SourceFile],
    parity_suite: &SourceFile,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    let fast_files: Vec<&SourceFile> = core_files
        .iter()
        .copied()
        .filter(|f| declares_fn(f, "fast_forward"))
        .collect();

    // 1. Every file with a fast path must hold at least one claimed type.
    for file in &fast_files {
        let label = &file.label;
        let claimed: Vec<&str> = claims
            .iter()
            .filter(|(ty, _)| mentions_type(file, ty))
            .map(|(ty, _)| *ty)
            .collect();
        if claimed.is_empty() {
            diags.push(Diagnostic {
                rule_id: "fast-path-parity",
                severity: Severity::Error,
                message: format!(
                    "{label} overrides Design::fast_forward but no design type in it \
                     is claimed by the backend parity suite — add the type and its \
                     randomized test to FAST_PATH_CLAIMS"
                ),
                quantities: vec![],
            });
        } else {
            diags.push(Diagnostic {
                rule_id: "fast-path-parity",
                severity: Severity::Info,
                message: format!("{label}: fast path covered via {}", claimed.join(", ")),
                quantities: vec![],
            });
        }
    }

    // 2 & 3. Every claim must point at a live fast path and a live test.
    for (ty, test) in claims {
        if !fast_files.iter().any(|f| mentions_type(f, ty)) {
            diags.push(Diagnostic {
                rule_id: "fast-path-parity",
                severity: Severity::Error,
                message: format!(
                    "claim for `{ty}` matches no file overriding fast_forward under \
                     {FAST_PATH_ROOT} — stale claim or renamed design"
                ),
                quantities: vec![],
            });
        }
        if !declares_fn(parity_suite, test) {
            diags.push(Diagnostic {
                rule_id: "fast-path-parity",
                severity: Severity::Error,
                message: format!(
                    "claimed parity test `{test}` (for `{ty}`) not found in \
                     {PARITY_SUITE} — renamed or deleted test"
                ),
                quantities: vec![],
            });
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
             fn fast_forward(&mut self, p: &mut Probe, b: ExecBackend) -> u64 { 0 }\n}",
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
            "pub struct DotProductDesign;\nfn fast_forward() {}",
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
            "pub struct DotProductDesign;\nfn fast_forward() {}",
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
        assert!(!mentions_type(&v2, "DotProductDesign"));
        let call = file("x.rs", "let d = DotProductDesign::new();");
        assert!(mentions_type(&call, "DotProductDesign"));
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
