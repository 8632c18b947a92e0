//! Guard for the compiler-enforced source policy: softfloat purity,
//! workspace determinism and thread containment are clippy lints, not
//! `drc` rows. The lints only bite while their configuration exists, so
//! this test fails if any piece of it is removed:
//!
//! * the root `clippy.toml` bans every wall-clock, host-parallelism,
//!   thread-creation and hash-ordering path;
//! * no other `clippy.toml` exists under `crates/` (clippy reads the
//!   nearest one, so a per-crate file would drop the root bans);
//! * the four datapath roots turn on `clippy::float_arithmetic`, and no
//!   file escapes a policed lint with `allow` instead of a scoped,
//!   reasoned `expect`;
//! * CI runs clippy with warnings denied.

use std::fs;
use std::path::{Path, PathBuf};

use fblas_check::source::repo_root;

const BANNED_METHODS: &[&str] = &[
    "std::time::Instant::now",
    "std::time::SystemTime::now",
    "std::thread::available_parallelism",
    "std::thread::spawn",
    "std::thread::scope",
    "std::thread::Builder::spawn",
];

const BANNED_TYPES: &[&str] = &[
    "std::collections::HashMap",
    "std::collections::HashSet",
    "std::hash::RandomState",
];

/// The files whose crate (or module) the float lint covers.
const DATAPATH_ROOTS: &[&str] = &[
    "crates/core/src/lib.rs",
    "crates/mem/src/lib.rs",
    "crates/fabric/src/lib.rs",
    "crates/fpu/src/pipelined.rs",
];

const FLOAT_LINT: &str = "#![cfg_attr(not(test), warn(clippy::float_arithmetic))]";

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every file under `dir`, depth-first.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("read_dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            walk(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// The `path = "…"` entries of the `key = [ … ]` array in `toml`.
fn banned_paths<'a>(toml: &'a str, key: &str) -> Vec<&'a str> {
    let start = toml
        .find(&format!("\n{key} = ["))
        .unwrap_or_else(|| panic!("clippy.toml has no `{key}` array"));
    let body = &toml[start..];
    let body = &body[..body.find("\n]").expect("array is closed")];
    body.split("path = \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("path is quoted")])
        .collect()
}

#[test]
fn the_root_clippy_toml_bans_every_ambient_read_and_thread_site() {
    let toml = read(&repo_root().join("clippy.toml"));
    let methods = banned_paths(&toml, "disallowed-methods");
    let types = banned_paths(&toml, "disallowed-types");
    for path in BANNED_METHODS {
        assert!(methods.contains(path), "disallowed-methods lacks {path}");
    }
    for path in BANNED_TYPES {
        assert!(types.contains(path), "disallowed-types lacks {path}");
    }
}

#[test]
fn no_crate_shadows_the_root_clippy_toml() {
    let mut files = Vec::new();
    walk(&repo_root().join("crates"), &mut files);
    let shadows: Vec<&PathBuf> = files
        .iter()
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n == "clippy.toml" || n == ".clippy.toml")
        })
        .collect();
    assert!(shadows.is_empty(), "per-crate clippy config: {shadows:?}");
}

#[test]
fn the_datapath_roots_deny_native_float_arithmetic() {
    for root in DATAPATH_ROOTS {
        let src = read(&repo_root().join(root));
        assert!(
            src.lines().any(|l| l == FLOAT_LINT),
            "{root} lacks `{FLOAT_LINT}`"
        );
    }
}

/// A policed lint is silenced only by a scoped `#[expect(…, reason)]`,
/// which fails clippy once it matches nothing. `allow` never goes stale,
/// and an inner `#![expect]` would cover a whole crate or module.
#[test]
fn policed_lints_are_escaped_only_by_scoped_expects() {
    let mut files = Vec::new();
    walk(&repo_root().join("crates"), &mut files);
    walk(&repo_root().join("src"), &mut files);
    for lint in ["float_arithmetic", "disallowed_methods", "disallowed_types"] {
        let forbidden = [
            format!("allow(clippy::{lint}"),
            format!("#![expect(clippy::{lint}"),
        ];
        for path in files
            .iter()
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        {
            // Squeezed, so an attribute split over lines still matches.
            let src: String = read(path).split_whitespace().collect();
            for needle in &forbidden {
                assert!(!src.contains(needle), "{}: `{needle}`", path.display());
            }
        }
    }
}

#[test]
fn ci_runs_clippy_with_warnings_denied() {
    let ci = read(&repo_root().join(".github/workflows/ci.yml"));
    assert!(
        ci.contains("cargo clippy --workspace --all-targets -- -D warnings"),
        "CI no longer runs the lint wall"
    );
}
