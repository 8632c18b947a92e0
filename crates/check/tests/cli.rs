//! The `drc`/`lint` command-line contract CI relies on: exit 0 on a
//! clean tree, 1 on a finding, 2 on a usage or IO error.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let Output { status, stdout, .. } = Command::new(bin).args(args).output().expect("spawn");
    (
        status.code().expect("exit code"),
        String::from_utf8(stdout).expect("utf-8 stdout"),
    )
}

fn drc(args: &[&str]) -> (i32, String) {
    run(env!("CARGO_BIN_EXE_drc"), args)
}

fn lint(args: &[&str]) -> (i32, String) {
    run(env!("CARGO_BIN_EXE_lint"), args)
}

#[test]
fn drc_passes_the_shipped_tree() {
    let (code, out) = drc(&[]);
    assert_eq!(code, 0, "{out}");
    assert!(out.ends_with("checked 37 report(s), 0 error(s)\n"), "{out}");
}

#[test]
fn drc_fails_the_infeasible_fixture_on_area() {
    let (code, out) = drc(&["--infeasible-fixture"]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("§6.2-area"), "{out}");
}

#[test]
fn drc_usage_errors_exit_2() {
    assert_eq!(drc(&["--bogus"]).0, 2);
    assert_eq!(drc(&["--format", "xml"]).0, 2);
}

#[test]
fn lint_passes_the_datapath() {
    let (code, out) = lint(&[]);
    assert_eq!(code, 0, "{out}");
}

#[test]
fn lint_reports_native_arithmetic_in_a_given_file() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lint_native_f64.rs");
    std::fs::write(&path, "fn f(x: f64) -> f64 { x * 2.0 }\n").expect("write fixture");
    let label = path.to_str().expect("utf-8 path");
    let (code, out) = lint(&[label]);
    assert_eq!(code, 1, "{out}");
    assert!(
        out.contains(&format!("{label}:1: native `*` on f64")),
        "{out}"
    );
}

/// The f64 evidence of a call may sit in another scanned file: a copy
/// of the MM accumulation line `hierarchical.rs` once shipped fires only
/// next to the file declaring `at -> f64`.
#[test]
fn lint_types_calls_across_the_given_files() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lint_cross_file");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (mm, matrix) = (dir.join("mm.rs"), dir.join("matrix.rs"));
    std::fs::write(
        &mm,
        "fn run(a: &DenseMatrix, b: &DenseMatrix, c: &mut [f64]) {\n\
         \x20   let mut acc = c[0];\n\
         \x20   acc += a.at(i0 + i, q0 + q) * b.at(q0 + q, j0 + j);\n\
         \x20   c[0] = acc;\n}\n",
    )
    .expect("write fixture");
    std::fs::write(
        &matrix,
        "impl DenseMatrix {\n    pub fn at(&self, i: usize, j: usize) -> f64 { self.data[i] }\n}\n",
    )
    .expect("write fixture");
    let (mm, matrix) = (mm.to_str().expect("utf-8"), matrix.to_str().expect("utf-8"));
    assert_eq!(lint(&[mm]).0, 0);
    let (code, out) = lint(&[mm, matrix]);
    assert_eq!(code, 1, "{out}");
    assert!(
        out.contains(&format!(
            "{mm}:3: native `*` on f64 (call of `at` returning f64)"
        )),
        "{out}"
    );
}

#[test]
fn lint_missing_path_exits_2() {
    assert_eq!(lint(&["/nonexistent"]).0, 2);
}
