//! Smoke tests: the fast table/figure binaries must run to completion
//! (their internal assertions re-check the paper claims on every run).
//! The heavyweight ones (`table3`, `table4`, `cpu_compare`) are
//! exercised by `cargo run --release` in CI, which also checks that
//! `table3 --json` and `table4 --json` write the committed matrix
//! cells; in debug-mode tests they would dominate the suite's runtime.

use std::path::Path;
use std::process::Command;

use fblas_metrics::{artifact, FaultSet, Json, Record, RecordSet, ScaleSet, ServeSet};

fn run(bin: &str) {
    let status = Command::new(bin)
        .status()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(status.success(), "{bin} exited with {status}");
}

#[test]
fn table1_runs() {
    run(env!("CARGO_BIN_EXE_table1"));
}

#[test]
fn table2_runs() {
    run(env!("CARGO_BIN_EXE_table2"));
}

#[test]
fn fig9_runs() {
    run(env!("CARGO_BIN_EXE_fig9"));
}

#[test]
fn fig11_runs() {
    run(env!("CARGO_BIN_EXE_fig11"));
}

#[test]
fn fig12_runs() {
    run(env!("CARGO_BIN_EXE_fig12"));
}

#[test]
fn alpha_sweep_runs() {
    run(env!("CARGO_BIN_EXE_alpha_sweep"));
}

/// `chassis` asserts the §6.4 bandwidth checks and the feasibility of
/// every fabric link of the six- and twelve-FPGA plans.
#[test]
fn chassis_runs() {
    run(env!("CARGO_BIN_EXE_chassis"));
}

/// `--json` smoke: every bench binary shares the `RecordSink` writer, so
/// exercising one fast binary proves the flag end to end — the file must
/// be a schema-versioned record set that loads back.
#[test]
fn json_flag_writes_a_record_set() {
    let out = std::env::temp_dir().join("fblas_table1_records.json");
    let status = Command::new(env!("CARGO_BIN_EXE_table1"))
        .arg("--json")
        .arg(&out)
        .status()
        .expect("failed to launch table1");
    assert!(status.success(), "table1 --json exited with {status}");
    let text = std::fs::read_to_string(&out).expect("records file missing");
    let set = artifact::load(&out, RecordSet::from_json_str).expect("records must parse");
    std::fs::remove_file(&out).ok();
    assert!(
        text.contains(&format!(
            "\"schema_version\": {}",
            fblas_metrics::SCHEMA_VERSION
        )),
        "file must carry the schema version"
    );
    assert_eq!(set.generator, "table1");
    assert!(!set.records.is_empty(), "table1 must emit records");
}

/// One producer per paper figure: every record `fig9`, `fig11` and
/// `fig12` write whose cell the committed `BENCH_0001.json` carries
/// serializes to that cell's exact JSON, paper tags included.
#[test]
fn figure_binaries_write_the_committed_matrix_cells() {
    let bench = RecordSet::from_json_str(&committed("BENCH_0001.json")).expect("BENCH parses");
    for (name, bin, shared) in [
        ("fig9", env!("CARGO_BIN_EXE_fig9"), 2),
        ("fig11", env!("CARGO_BIN_EXE_fig11"), 1),
        ("fig12", env!("CARGO_BIN_EXE_fig12"), 1),
    ] {
        let out = std::env::temp_dir().join(format!("fblas_{name}_cells.json"));
        let status = Command::new(bin)
            .arg("--json")
            .arg(&out)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        assert!(status.success(), "{name} --json exited with {status}");
        let set = artifact::load(&out, RecordSet::from_json_str).expect("records must parse");
        std::fs::remove_file(&out).ok();
        let mut seen = 0;
        for record in &set.records {
            if let Some(cell) = bench.find(&record.key()) {
                assert_eq!(
                    record.to_json().render(),
                    cell.to_json().render(),
                    "{name}: {}",
                    record.key()
                );
                seen += 1;
            }
        }
        assert_eq!(seen, shared, "{name} must write {shared} matrix cell(s)");
    }
}

/// `observatory run --quick` smoke: two runs into the same directory must
/// produce byte-identical BENCH files, the verdict must count the figures
/// the quick matrix checked and those it never measured, and `observatory diff`
/// against the first file must be clean (exit 0).
#[test]
fn observatory_quick_run_is_deterministic_and_self_diffs_clean() {
    let dir = std::env::temp_dir().join("fblas_observatory_smoke");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let observatory = env!("CARGO_BIN_EXE_observatory");

    for _ in 0..2 {
        let output = Command::new(observatory)
            .args(["run", "--quick", "--dir"])
            .arg(&dir)
            .output()
            .expect("failed to launch observatory");
        assert!(
            output.status.success(),
            "observatory run exited with {}",
            output.status
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(
            stdout.lines().last(),
            Some("paper parity: 8 of 8 figures within tolerance, 9 of 17 not measured"),
            "stdout was {stdout:?}"
        );
    }
    let first = std::fs::read(dir.join("BENCH_0001.json")).expect("BENCH_0001 missing");
    let second = std::fs::read(dir.join("BENCH_0002.json")).expect("BENCH_0002 missing");
    assert_eq!(first, second, "BENCH files must be byte-identical");

    let status = Command::new(observatory)
        .args(["diff", "--quick"])
        .arg(dir.join("BENCH_0001.json"))
        .status()
        .expect("failed to launch observatory diff");
    assert!(status.success(), "self-diff must be clean, got {status}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `observatory run --jobs N` smoke: the pooled run must write BENCH
/// bytes identical to the serial run, and its wallclock sidecar must
/// carry the job count and speedup fields.
#[test]
fn observatory_parallel_run_matches_serial_bytes() {
    let observatory = env!("CARGO_BIN_EXE_observatory");
    let mut bench = Vec::new();
    for jobs in ["1", "3"] {
        let dir = std::env::temp_dir().join(format!("fblas_observatory_jobs_{jobs}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let status = Command::new(observatory)
            .args(["run", "--quick", "--jobs", jobs, "--dir"])
            .arg(&dir)
            .status()
            .expect("failed to launch observatory");
        assert!(status.success(), "--jobs {jobs} run exited with {status}");
        bench.push(std::fs::read(dir.join("BENCH_0001.json")).expect("BENCH_0001 missing"));
        let sidecar = std::fs::read_to_string(dir.join("BENCH_0001.wallclock.json"))
            .expect("wallclock sidecar missing");
        assert!(
            sidecar.contains(&format!("\"jobs\": {jobs}")),
            "sidecar must record the job count: {sidecar}"
        );
        for field in ["elapsed_seconds", "aggregate_speedup", "speedup_share"] {
            assert!(sidecar.contains(field), "sidecar lacks {field}: {sidecar}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(
        bench[0], bench[1],
        "BENCH bytes must not depend on the worker count"
    );
}

/// Bad `--jobs` values must be rejected up front with exit status 2 and
/// a diagnostic, not silently clamped or crashed on later.
#[test]
fn observatory_rejects_bad_jobs_values() {
    let observatory = env!("CARGO_BIN_EXE_observatory");
    for (cmd, bad) in [
        ("run", "0"),
        ("run", "four"),
        ("diff", "0"),
        ("faults", "-2"),
        ("serve", "0"),
        ("serve", "none"),
        ("scale", "0"),
        ("scale", "none"),
    ] {
        let output = Command::new(observatory)
            .args([cmd, "--quick", "--jobs", bad])
            .output()
            .expect("failed to launch observatory");
        assert_eq!(
            output.status.code(),
            Some(2),
            "{cmd} --jobs {bad}: {:?}",
            output.status
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("--jobs requires a positive integer"),
            "{cmd} --jobs {bad}: stderr was {stderr:?}"
        );
    }
}

/// Unknown `--backend` names must be rejected with exit status 2 and the
/// shared parser's diagnostic on every subcommand that accepts the flag.
#[test]
fn observatory_rejects_unknown_backends() {
    let observatory = env!("CARGO_BIN_EXE_observatory");
    // `fast-forward`/`ff` are no longer backends and must stay rejected.
    for backend in ["warp-drive", "fast-forward", "ff"] {
        for cmd in ["run", "diff", "serve", "scale"] {
            let output = Command::new(observatory)
                .args([cmd, "--quick", "--backend", backend])
                .output()
                .expect("failed to launch observatory");
            assert_eq!(
                output.status.code(),
                Some(2),
                "{cmd} --backend {backend}: {:?}",
                output.status
            );
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                stderr.contains("--backend:"),
                "{cmd} --backend {backend}: stderr was {stderr:?}"
            );
        }
    }
}

/// Usage errors exit 2 before any work: a stray positional, a `diff`
/// without exactly one baseline or with a `--dir`, and a `--json` or
/// `--trace` flag missing its path.
#[test]
fn usage_errors_exit_2() {
    let observatory = env!("CARGO_BIN_EXE_observatory");
    let table1 = env!("CARGO_BIN_EXE_table1");
    let table2 = env!("CARGO_BIN_EXE_table2");
    for (bin, args) in [
        (observatory, &["run", "extra"][..]),
        (observatory, &["diff"]),
        (observatory, &["diff", "a.json", "b.json"]),
        (observatory, &["diff", "--dir", "/tmp", "x.json"]),
        (observatory, &["faults", "extra"]),
        (table1, &["--json"]),
        (table2, &["--trace"]),
    ] {
        let output = Command::new(bin)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert_eq!(
            output.status.code(),
            Some(2),
            "{bin} {args:?}: {:?}",
            output.status
        );
    }
}

/// `observatory serve --quick` smoke: the run must write a loadable
/// `SERVE_0001.json`, pass the conservation checks it runs internally,
/// and a `--diff` against its own output must be clean (exit 0).
#[test]
fn observatory_serve_writes_store_and_self_diffs_clean() {
    let dir = std::env::temp_dir().join("fblas_observatory_serve_smoke");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let observatory = env!("CARGO_BIN_EXE_observatory");

    for _ in 0..2 {
        let status = Command::new(observatory)
            .args(["serve", "--quick", "--dir"])
            .arg(&dir)
            .status()
            .expect("failed to launch observatory serve");
        assert!(status.success(), "observatory serve exited with {status}");
    }
    let first = std::fs::read(dir.join("SERVE_0001.json")).expect("SERVE_0001 missing");
    let second = std::fs::read(dir.join("SERVE_0002.json")).expect("SERVE_0002 missing");
    assert_eq!(first, second, "SERVE files must be byte-identical");

    let set = artifact::load(&dir.join("SERVE_0001.json"), ServeSet::from_json_str)
        .expect("store must parse");
    assert!(!set.records.is_empty(), "serve campaign must emit records");

    let status = Command::new(observatory)
        .args(["serve", "--quick", "--diff"])
        .arg(dir.join("SERVE_0001.json"))
        .status()
        .expect("failed to launch observatory serve --diff");
    assert!(status.success(), "self-diff must be clean, got {status}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `observatory scale --quick` smoke: two runs into the same directory
/// must write byte-identical SCALE stores, the store must load and carry
/// records, a `--diff` against the first file must be clean (exit 0),
/// and a stray positional argument must be rejected with exit status 2.
#[test]
fn observatory_scale_writes_store_and_self_diffs_clean() {
    let dir = std::env::temp_dir().join("fblas_observatory_scale_smoke");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let observatory = env!("CARGO_BIN_EXE_observatory");

    for _ in 0..2 {
        let status = Command::new(observatory)
            .args(["scale", "--quick", "--dir"])
            .arg(&dir)
            .status()
            .expect("failed to launch observatory scale");
        assert!(status.success(), "observatory scale exited with {status}");
    }
    let first = std::fs::read(dir.join("SCALE_0001.json")).expect("SCALE_0001 missing");
    let second = std::fs::read(dir.join("SCALE_0002.json")).expect("SCALE_0002 missing");
    assert_eq!(first, second, "SCALE files must be byte-identical");

    let set = artifact::load(&dir.join("SCALE_0001.json"), ScaleSet::from_json_str)
        .expect("store must parse");
    assert!(!set.records.is_empty(), "scale campaign must emit records");

    let status = Command::new(observatory)
        .args(["scale", "--quick", "--diff"])
        .arg(dir.join("SCALE_0001.json"))
        .status()
        .expect("failed to launch observatory scale --diff");
    assert!(status.success(), "self-diff must be clean, got {status}");
    std::fs::remove_dir_all(&dir).ok();

    let output = Command::new(observatory)
        .args(["scale", "--quick", "extra-positional"])
        .output()
        .expect("failed to launch observatory scale");
    assert_eq!(
        output.status.code(),
        Some(2),
        "stray positional must exit 2: {:?}",
        output.status
    );
}

/// A baseline nested far past any stack budget must be rejected as a
/// malformed store (exit 2), not abort the gate with a stack overflow.
#[test]
fn deeply_nested_baselines_exit_2() {
    let dir = std::env::temp_dir().join("fblas_observatory_deep_json");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(200_000)).expect("write deep baseline");
    let observatory = env!("CARGO_BIN_EXE_observatory");
    for args in [&["diff", "--quick"][..], &["scale", "--quick", "--diff"]] {
        let output = Command::new(observatory)
            .args(args)
            .arg(&deep)
            .output()
            .expect("failed to launch observatory");
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?}: {:?}",
            output.status
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("nesting"),
            "{args:?}: stderr was {stderr:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The committed store `name` at the repository root.
fn committed(name: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// `text` with its first record repeated verbatim.
fn with_repeated_first_record(text: &str) -> String {
    let Ok(Json::Obj(mut members)) = Json::parse(text) else {
        panic!("store is not an object")
    };
    let (_, records) = members
        .iter_mut()
        .find(|(k, _)| k == "records")
        .expect("store has records");
    let Json::Arr(rows) = records else {
        panic!("records is not an array")
    };
    rows.insert(1, rows[0].clone());
    Json::Obj(members).render()
}

/// `text` with the first numeric member after `"records"` overwritten
/// by a literal that overflows a double.
fn with_overflowing_number(text: &str) -> String {
    let records = text.find("\"records\"").expect("store has records");
    let at = (records..text.len())
        .find(|&i| text[i..].starts_with("\": ") && text.as_bytes()[i + 3].is_ascii_digit())
        .expect("a numeric member")
        + 3;
    let end = at + text[at..].find([',', '\n']).expect("number ends");
    format!("{}1e999{}", &text[..at], &text[end..])
}

/// Malformed-store corpus: every `--diff` gate must reject a truncated,
/// wrong-schema, repeated-cell or non-finite baseline with exit 2 and
/// a diagnostic naming the defect, before any campaign runs.
#[test]
fn malformed_baselines_exit_2_on_every_gate() {
    let dir = std::env::temp_dir().join("fblas_observatory_malformed");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let observatory = env!("CARGO_BIN_EXE_observatory");
    for (args, store, first_key) in [
        (
            &["diff", "--quick"][..],
            "BENCH_0001.json",
            "dot[k=2,n=2048]",
        ),
        (
            &["serve", "--quick", "--diff"],
            "SERVE_0001.json",
            "dot64/open/b1",
        ),
        (
            &["scale", "--quick", "--diff"],
            "SCALE_0001.json",
            "mm/linear/s1",
        ),
    ] {
        let text = committed(store);
        let duplicate = format!("duplicate record key '{first_key}'");
        let cases = [
            (
                "truncated",
                text[..text.len() / 2].to_string(),
                "JSON error",
            ),
            (
                "schema",
                text.replacen("\"schema_version\": 1,", "\"schema_version\": 2,", 1),
                "schema version mismatch",
            ),
            ("duplicate", with_repeated_first_record(&text), &duplicate),
            ("overflow", with_overflowing_number(&text), "1e999"),
        ];
        for (case, body, needle) in cases {
            let baseline = dir.join(format!("{case}-{store}"));
            std::fs::write(&baseline, body).expect("write baseline");
            let output = Command::new(observatory)
                .args(args)
                .arg(&baseline)
                .output()
                .expect("failed to launch observatory");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(
                output.status.code(),
                Some(2),
                "{args:?} {case}: {:?}, stderr {stderr:?}",
                output.status
            );
            assert!(
                stderr.contains(needle),
                "{args:?} {case}: stderr was {stderr:?}"
            );
            assert!(
                !stderr.contains("running the"),
                "{args:?} {case}: baseline must be rejected before the run: {stderr:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `serve --diff` and `scale --diff` load the baseline before running
/// the campaign: a missing file exits 2 at once, with no banner.
#[test]
fn campaign_gates_reject_a_missing_baseline_before_running() {
    let missing = std::env::temp_dir().join("fblas_observatory_no_such_baseline.json");
    std::fs::remove_file(&missing).ok();
    let observatory = env!("CARGO_BIN_EXE_observatory");
    for cmd in ["serve", "scale"] {
        let output = Command::new(observatory)
            .args([cmd, "--quick", "--jobs", "2", "--diff"])
            .arg(&missing)
            .output()
            .expect("failed to launch observatory");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{cmd}: {:?}", output.status);
        assert!(
            stderr.contains("cannot read"),
            "{cmd}: stderr was {stderr:?}"
        );
        assert!(
            !stderr.contains("running the"),
            "{cmd}: campaign ran before the baseline was read: {stderr:?}"
        );
    }
}

/// `observatory faults` smoke: the campaign must exit clean (zero silent
/// corruptions on covered kernels), write a loadable fault set, and emit
/// byte-identical files at any worker count.
#[test]
fn observatory_fault_campaign_is_deterministic_across_jobs() {
    let observatory = env!("CARGO_BIN_EXE_observatory");
    let mut files = Vec::new();
    for jobs in ["1", "4"] {
        let out = std::env::temp_dir().join(format!("fblas_faults_jobs_{jobs}.json"));
        std::fs::remove_file(&out).ok();
        let status = Command::new(observatory)
            .args(["faults", "--quick", "--seed", "7", "--jobs", jobs, "--out"])
            .arg(&out)
            .status()
            .expect("failed to launch observatory faults");
        assert!(status.success(), "--jobs {jobs} campaign exited {status}");
        files.push(std::fs::read(&out).expect("FAULTS file missing"));
        let set = artifact::load(&out, FaultSet::from_json_str).expect("fault set must parse");
        assert_eq!(set.seed, 7);
        assert!(!set.records.is_empty());
        std::fs::remove_file(&out).ok();
    }
    assert_eq!(
        files[0], files[1],
        "FAULTS bytes must not depend on the worker count"
    );
}

/// `--trace` smoke: the flag must produce a non-empty Chrome trace with
/// the JSON envelope and per-component metadata.
#[test]
fn trace_flag_writes_chrome_trace() {
    let out = std::env::temp_dir().join("fblas_table1_trace.json");
    let status = Command::new(env!("CARGO_BIN_EXE_table1"))
        .arg("--trace")
        .arg(&out)
        .status()
        .expect("failed to launch table1");
    assert!(status.success(), "table1 --trace exited with {status}");
    let trace = std::fs::read_to_string(&out).expect("trace file missing");
    std::fs::remove_file(&out).ok();
    assert!(trace.starts_with("{\"displayTimeUnit\""), "bad envelope");
    for needle in [
        "traceEvents",
        "dot/front-end",
        "mm/pe-array",
        "row-mvm/front-end",
    ] {
        assert!(trace.contains(needle), "trace lacks {needle:?}");
    }
}
