//! The `drc` command-line contract CI relies on: exit 0 on a clean
//! tree, 1 on a finding, 2 on a usage or IO error.

use std::process::{Command, Output};

fn drc(args: &[&str]) -> (i32, String) {
    let Output { status, stdout, .. } = Command::new(env!("CARGO_BIN_EXE_drc"))
        .args(args)
        .output()
        .expect("spawn");
    (
        status.code().expect("exit code"),
        String::from_utf8(stdout).expect("utf-8 stdout"),
    )
}

#[test]
fn drc_passes_the_shipped_tree() {
    let (code, out) = drc(&[]);
    assert_eq!(code, 0, "{out}");
    assert!(out.ends_with("checked 35 report(s), 0 error(s)\n"), "{out}");
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
