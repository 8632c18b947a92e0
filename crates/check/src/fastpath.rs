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
//! [`fast_path_report`] proves three things against the live tree:
//!
//! 1. every `crates/core` source file that overrides `fast_forward`
//!    contains at least one claimed design type (a new fast path with
//!    no claim is an error before it ever ships);
//! 2. every claimed design type still lives in a file that overrides
//!    `fast_forward` (a stale claim is an error);
//! 3. every claimed test still exists in the parity suite by name (a
//!    renamed or deleted test is an error).
//!
//! The `drc` binary appends this report to its sweep, so the CI gate
//! that proves feasibility also proves fast-path coverage.

use std::io;
use std::path::Path;

use crate::drc::{Diagnostic, Report, Severity};
use crate::source::{strip, walk_rs_files};

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

/// Does this stripped source override `Design::fast_forward`? The
/// default-method *declaration* lives in `fblas-sim`; anything matching
/// in `crates/core` is an override.
fn overrides_fast_forward(stripped: &str) -> bool {
    let squeezed: String = stripped.chars().filter(|c| !c.is_whitespace()).collect();
    squeezed.contains("fnfast_forward(")
}

/// Whole-word occurrence check on stripped source, so `DotProductDesign`
/// does not match a hypothetical `DotProductDesignV2`.
fn mentions_type(stripped: &str, name: &str) -> bool {
    let bytes = stripped.as_bytes();
    let mut from = 0;
    while let Some(pos) = stripped[from..].find(name) {
        let start = from + pos;
        let end = start + name.len();
        let before_ok =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let after_ok =
            end == bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Check the claims table against the given `(label, stripped-source)`
/// pairs for the fast-path tree plus the parity suite's stripped source.
///
/// Exposed separately from [`fast_path_report`] so tests can feed
/// deliberately broken trees through the same logic.
pub fn check_fast_paths(
    claims: &[(&str, &str)],
    core_files: &[(String, String)],
    parity_suite: &str,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    let fast_files: Vec<&(String, String)> = core_files
        .iter()
        .filter(|(_, src)| overrides_fast_forward(src))
        .collect();

    // 1. Every file with a fast path must hold at least one claimed type.
    for (label, src) in &fast_files {
        let claimed: Vec<&str> = claims
            .iter()
            .filter(|(ty, _)| mentions_type(src, ty))
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
        if !fast_files.iter().any(|(_, src)| mentions_type(src, ty)) {
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
        let decl: String = format!("fn {test}");
        let has_test = strip_contains_decl(parity_suite, &decl);
        if !has_test {
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

/// Does the stripped suite declare this function (whitespace-tolerant)?
fn strip_contains_decl(stripped: &str, decl: &str) -> bool {
    let squeeze = |s: &str| -> String { s.chars().filter(|c| !c.is_whitespace()).collect() };
    squeeze(stripped).contains(&squeeze(decl))
}

/// The fast-path coverage report over the repository at `repo_root`.
pub fn fast_path_report(repo_root: &Path) -> io::Result<Report> {
    let root = repo_root.join(FAST_PATH_ROOT);
    if !root.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("fast-path tree {} not found", root.display()),
        ));
    }
    let core_files: Vec<(String, String)> = walk_rs_files(&root, repo_root)?
        .into_iter()
        .map(|(label, src)| (label, strip(&src)))
        .collect();
    let suite_path = repo_root.join(PARITY_SUITE);
    let suite = std::fs::read_to_string(&suite_path).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("parity suite {} unreadable: {e}", suite_path.display()),
        )
    })?;
    Ok(Report {
        design: "fast-path parity coverage".to_string(),
        diagnostics: check_fast_paths(FAST_PATH_CLAIMS, &core_files, &strip(&suite)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::repo_root;

    fn suite_with(tests: &[&str]) -> String {
        tests
            .iter()
            .map(|t| format!("#[test]\nfn {t}() {{}}\n"))
            .collect()
    }

    /// The live tree must pass: every fast path claimed, every claim live.
    #[test]
    fn shipped_fast_paths_are_covered() {
        let report = fast_path_report(&repo_root()).expect("scan");
        assert!(
            report.is_feasible(),
            "fast-path coverage errors:\n{}",
            report.render(true)
        );
        assert!(
            report.count(Severity::Info) > 0,
            "no fast-forward overrides found — rule stale?"
        );
    }

    #[test]
    fn unclaimed_fast_path_is_an_error() {
        let files = vec![(
            "crates/core/src/new_kernel.rs".to_string(),
            "pub struct NewKernelDesign;\nimpl Design for NewKernelDesign {\n\
             fn fast_forward(&mut self, p: &mut Probe, b: ExecBackend) -> u64 { 0 }\n}"
                .to_string(),
        )];
        let diags = check_fast_paths(&[], &files, "");
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("new_kernel.rs")));
    }

    #[test]
    fn stale_claim_and_missing_test_are_errors() {
        let files = vec![(
            "crates/core/src/dot.rs".to_string(),
            "pub struct DotProductDesign;\nfn fast_forward() {}".to_string(),
        )];
        let claims: &[(&str, &str)] = &[
            ("DotProductDesign", "dot_parity"),
            ("GhostDesign", "ghost_parity"),
        ];
        let suite = suite_with(&["dot_parity"]);
        let diags = check_fast_paths(claims, &files, &suite);
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
        let files = vec![(
            "crates/core/src/dot.rs".to_string(),
            "pub struct DotProductDesign;\nfn fast_forward() {}".to_string(),
        )];
        let claims: &[(&str, &str)] = &[("DotProductDesign", "dot_parity")];
        let diags = check_fast_paths(claims, &files, &suite_with(&["dot_parity"]));
        assert!(diags.iter().all(|d| d.severity != Severity::Error));
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Info && d.message.contains("DotProductDesign")));
    }

    #[test]
    fn whole_word_type_matching() {
        let src = "struct DotProductDesignV2;";
        assert!(!mentions_type(src, "DotProductDesign"));
        assert!(mentions_type(
            "let d = DotProductDesign::new();",
            "DotProductDesign"
        ));
    }

    #[test]
    fn files_without_fast_forward_are_ignored() {
        let files = vec![(
            "crates/core/src/other.rs".to_string(),
            "pub struct Other;\nfn cycle() {}".to_string(),
        )];
        let diags = check_fast_paths(&[], &files, "");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn claims_are_sorted_by_type() {
        for pair in FAST_PATH_CLAIMS.windows(2) {
            assert!(pair[0].0 < pair[1].0, "{} !< {}", pair[0].0, pair[1].0);
        }
    }
}
