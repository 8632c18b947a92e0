//! The paper-parity observatory: canonical run records, `BENCH_<n>.json`
//! trajectory files and CI regression gates.
//!
//! ```sh
//! observatory run  [--quick] [--jobs <n>] [--backend <b>] [--dir <dir>]   # measure, persist next BENCH_<n>.json + TELEM_<n>.json
//! observatory diff <baseline.json> [--quick] [--jobs <n>] [--backend <b>] # measure, gate against a baseline
//! observatory report [--dir <dir>] [--doc <md>]           # splice scoreboards into EXPERIMENTS.md
//! observatory trend  [--dir <dir>] [--doc <md>]           # splice telemetry dashboard, gate efficiency model
//! observatory faults [--quick] [--seed <s>] [--jobs <n>] [--out <json>]  # fault campaign
//! observatory serve  [--quick] [--jobs <n>] [--backend <b>] [--dir <dir>] [--diff <baseline.json>]  # serving campaign
//! observatory scale  [--quick] [--jobs <n>] [--backend <b>] [--dir <dir>] [--diff <baseline.json>]  # multi-FPGA scaling campaign
//! observatory analyze [--dir <dir>] [--verbose]           # channel-graph static analyses
//! ```
//!
//! `run` executes the full paper matrix (every kernel family behind
//! Tables 1–4 and Figures 9–12) through the instrumented harness and
//! writes the canonical record set to the next free `BENCH_<n>.json` in
//! `--dir` (default: current directory). The records are
//! byte-deterministic; host throughput (simulated cycles per second)
//! goes to a `BENCH_<n>.wallclock.json` sidecar instead.
//!
//! Windowed telemetry is on by default: the same run seals one
//! time-resolved series per simulated kernel (busy/stall/occupancy per
//! [`DEFAULT_TELEM_WINDOW`]-cycle window plus completion-latency
//! histograms) and persists them as `TELEM_<n>.json` — byte-deterministic
//! under every `--jobs` count and every backend, exactly like the record
//! set. `--telemetry-window <cycles>` overrides the window width;
//! `--no-telemetry` disables sampling (the sidecar records either way
//! via its `telemetry_enabled`/`telemetry_window` fields).
//!
//! `trend` loads the whole committed trajectory (`BENCH_*.json` plus
//! each point's `TELEM_<n>.json`, where present), renders the telemetry
//! dashboard — per-run utilization timelines with fill/steady/drain
//! phase segmentation, the stall heatmap, completion-latency digest,
//! the steady-state efficiency scoreboard against the paper's `n/(n+α)`
//! model, and cross-PR utilization sparklines — and splices it into
//! `EXPERIMENTS.md` between the telemetry markers. Exit status is
//! non-zero if any efficiency row of the latest point falls outside the
//! model tolerance, so CI gates on the paper's efficiency law holding.
//!
//! `--jobs <n>` runs the matrix entries on an n-worker pool (default:
//! the host's available parallelism). The pool merges results through a
//! deterministic ordered reducer, so the `BENCH_<n>.json` bytes are
//! identical for every `--jobs` value — only the wallclock sidecar (and
//! its speedup fields) reflects the parallelism.
//!
//! `--backend <b>` selects the execution backend: `cycle` (default)
//! steps every simulated cycle; `native` lets designs replay quiescent
//! steady-state streaming in a fused loop that performs the datapath's
//! own softfloat operations in the datapath's order. Both produce
//! byte-identical `BENCH_<n>.json` files — the sidecar records the
//! backend and the stepped-vs-simulated cycle ratio (`backend_speedup`).
//!
//! `diff` re-measures and compares against a baseline record set
//! (the committed `BENCH_0001.json` in CI): exact cycle/flop/word/stall-counter
//! equality, bounded sustained-MFLOPS drift, no bound-classification
//! flips, and every paper-parity figure still inside its tolerance band.
//! Exit status is non-zero on any regression, so CI can gate on it.
//!
//! `report` loads every committed `BENCH_*.json`, renders the
//! paper-parity scoreboard, the kernel table and the sustained-MFLOPS
//! trajectory sparklines, and splices them into `EXPERIMENTS.md` between
//! the observatory markers. When a committed `FAULTS.json` exists it also
//! splices the fault-coverage scoreboard between the fault markers, and
//! when `SCALE_*.json` stores exist it splices the latest multi-FPGA
//! scaling ladder between the scale markers.
//!
//! `faults` runs the seeded fault-injection campaign of `fblas-faults`
//! across the same worker pool: every trial is a pure function of
//! `(--seed, family, trial index)`, so the `FAULTS.json` bytes are
//! identical at any `--jobs` value. Exit status is non-zero if any
//! ABFT-covered kernel (`mvm/*`, `mm/*`) shows a silent corruption.
//!
//! `serve` runs the BLAS-as-a-service campaign of `fblas-serve` across
//! the same worker pool: seeded multi-tenant arrival streams, admission
//! control and batch scheduling over the simulated fleet, one cell per
//! pool job. Without `--diff` it persists the next free `SERVE_<n>.json`
//! in `--dir`; with `--diff <baseline>` it instead gates the fresh
//! campaign against a committed store (exact counters, digests and SLO
//! verdicts). The baseline is loaded and validated before the campaign
//! runs, so a bad baseline exits 2 at once. Either way the `fblas-check` conservation and
//! batch-amortization rules must pass. The records are byte-identical
//! at any `--jobs` count and under every backend, like everything else
//! the observatory writes.
//!
//! `scale` runs the multi-FPGA scaling campaign of `fblas-fabric`:
//! every shipped shard plan (linear-array MM across 1–12 FPGAs and up
//! to two chassis, both `MvM` orientations across 1–6 FPGAs) simulated
//! over the RocketIO/RapidArray fabric model, one plan per pool job.
//! Every row is gated against the §6.4 linear-scaling projection — a
//! measured rate above the model is a hard error, divergence beyond the
//! committed tolerance a warning — and against the `fblas-check`
//! fabric-link-budget and scale-store rules. Without `--diff` it
//! persists the next free `SCALE_<n>.json` in `--dir`; with `--diff
//! <baseline>` it gates the fresh campaign against a committed store,
//! validated before the ladder runs. `serve` and `scale` share one
//! driver ([`cmd_campaign`]). Byte-identical at any `--jobs` count and
//! under every backend.
//!
//! `analyze` runs the `fblas-check` channel-graph analyses — the
//! deadlock-freedom proof and throughput/bandwidth cuts over every
//! shipped topology — then cross-validates every committed
//! `BENCH_*.json` record against the static throughput bound rebuilt
//! from the record's own parameters. Exit status is non-zero if any
//! proof fails or any measured rate exceeds its bound.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fblas_bench::cli;
use fblas_bench::fault_matrix::run_fault_matrix_with_jobs;
use fblas_bench::paper_matrix::{run_matrix_telemetry, run_matrix_with_backend};
use fblas_bench::scale_matrix::run_scale_matrix_with_jobs;
use fblas_bench::serve_matrix::run_serve_matrix_with_jobs;
use fblas_check::drc::Report;
use fblas_check::graph::{cross_validate, topology_report};
use fblas_check::{check_scale_set, check_serve_set, fabric_link_budget_report, Severity};
use fblas_metrics::artifact::{
    self, file_name, list_files, next_index, BENCH, SCALE, SERVE, TELEM,
};
use fblas_metrics::{
    diff_cells, diff_sets, faults as obs_faults, report as obs_report, scale as obs_scale,
    FaultSet, Record, RecordSet, ScaleRecord, ScaleSet, ServeRecord, Store, WallClock,
};
use fblas_sim::{ExecBackend, DEFAULT_TELEM_WINDOW};
use fblas_telemetry::trend::TrendPoint;
use fblas_telemetry::{render_trend_section, splice_trend_section, TelemSet};

fn usage() -> ExitCode {
    eprintln!(
        "usage: observatory run  [--quick] [--jobs <n>] [--backend cycle|native] [--dir <dir>]\n\
                                [--telemetry-window <cycles>] [--no-telemetry]\n\
                observatory diff <baseline.json> [--quick] [--jobs <n>] [--backend <b>]\n\
                observatory report [--dir <dir>] [--doc <markdown>]\n\
                observatory trend  [--dir <dir>] [--doc <markdown>]\n\
                observatory faults [--quick] [--seed <s>] [--jobs <n>] [--out <json>]\n\
                observatory serve  [--quick] [--jobs <n>] [--backend <b>] [--dir <dir>]\n\
                                [--diff <baseline.json>]\n\
                observatory scale  [--quick] [--jobs <n>] [--backend <b>] [--dir <dir>]\n\
                                [--diff <baseline.json>]\n\
                observatory analyze [--dir <dir>] [--verbose]"
    );
    ExitCode::from(2)
}

/// Unwrap a result or print the error and exit 2 — the one funnel every
/// usage and IO error goes through, so no subcommand can drift in how
/// it rejects `--jobs 0`, an unknown `--backend` or an unreadable store.
fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Parse `--jobs` with the shared validator, exiting 2 on bad input.
fn take_jobs(args: &mut Vec<String>) -> usize {
    or_exit(cli::take_jobs(args))
}

/// Parse `--backend` with the shared validator, exiting 2 on bad input.
fn take_backend(args: &mut Vec<String>) -> ExecBackend {
    or_exit(cli::take_backend(args))
}

/// Parse `--seed` with the shared validator, exiting 2 on bad input.
fn take_seed(args: &mut Vec<String>) -> u64 {
    or_exit(cli::take_seed(args))
}

/// Parse the telemetry flags with the shared validator.
fn take_telemetry(args: &mut Vec<String>) -> Option<u64> {
    or_exit(cli::take_telemetry(args, DEFAULT_TELEM_WINDOW))
}

/// Parse `--flag <value>` with the shared helper, exiting 2 on a flag
/// missing its value.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    or_exit(cli::take_value(args, flag))
}

/// Parse `--dir <dir>` (default: the current directory).
fn take_dir(args: &mut Vec<String>) -> PathBuf {
    PathBuf::from(take_value(args, "--dir").unwrap_or_else(|| ".".into()))
}

use cli::take_flag;

/// Load and parse a store, exiting 2 if it is unreadable or malformed.
fn load_or_exit<T>(path: &Path, parse: fn(&str) -> Result<T, String>) -> T {
    or_exit(artifact::load(path, parse))
}

/// Write a rendered store, exiting 2 on an IO error.
fn save_or_exit(path: &Path, text: &str) {
    or_exit(artifact::save(path, text));
}

/// Load the whole `BENCH_*.json` trajectory in `dir`, oldest first.
/// Exits 2 on an unreadable point, or on an empty trajectory when
/// `required`.
fn load_trajectory(dir: &Path, required: bool) -> Vec<(u64, RecordSet)> {
    let files = list_files(dir, BENCH);
    if required && files.is_empty() {
        eprintln!("error: no BENCH_*.json found in {}", dir.display());
        std::process::exit(2);
    }
    files
        .into_iter()
        .map(|(index, path)| (index, load_or_exit(&path, RecordSet::from_json_str)))
        .collect()
}

fn measure(
    quick: bool,
    jobs: usize,
    backend: ExecBackend,
    telemetry: Option<u64>,
) -> (RecordSet, WallClock, Option<TelemSet>) {
    eprintln!(
        "observatory: running the {} paper matrix on {} job(s), {} backend, telemetry {}...",
        if quick { "quick" } else { "full" },
        jobs,
        backend,
        telemetry.map_or_else(|| "off".to_string(), |w| format!("window={w}")),
    );
    let (set, wall, telem) = match telemetry {
        Some(window) => {
            let (set, wall, telem) = run_matrix_telemetry(quick, jobs, backend, window);
            (set, wall, Some(telem))
        }
        None => {
            let (set, wall) = run_matrix_with_backend(quick, jobs, backend);
            (set, wall, None)
        }
    };
    eprintln!(
        "observatory: {} record(s), {} simulated cycles in {:.2}s elapsed \
         ({:.2}s summed, {:.2}x speedup, {:.2}M cycles/s, {:.2}x backend speedup)",
        set.records.len(),
        wall.total_cycles(),
        wall.elapsed_seconds,
        wall.total_seconds(),
        wall.aggregate_speedup(),
        wall.cycles_per_second() / 1e6,
        wall.backend_speedup()
    );
    (set, wall, telem)
}

fn cmd_run(mut args: Vec<String>) -> ExitCode {
    let quick = take_flag(&mut args, "--quick");
    let jobs = take_jobs(&mut args);
    let backend = take_backend(&mut args);
    let telemetry = take_telemetry(&mut args);
    let dir = take_dir(&mut args);
    if !args.is_empty() {
        return usage();
    }
    let (set, wall, telem) = measure(quick, jobs, backend, telemetry);
    let index = next_index(&dir, BENCH);
    let path = dir.join(file_name(BENCH, index));
    save_or_exit(&path, &set.to_json_string());
    let sidecar = dir.join(format!("BENCH_{index:04}.wallclock.json"));
    save_or_exit(&sidecar, &wall.to_json_string());
    println!("wrote {}", path.display());
    println!("wrote {} (not for committing)", sidecar.display());
    if let Some(telem) = telem {
        let telem_path = dir.join(file_name(TELEM, index));
        save_or_exit(&telem_path, &telem.to_json_string());
        println!(
            "wrote {} ({} run(s))",
            telem_path.display(),
            telem.runs.len()
        );
    }
    let failing: Vec<&str> = set
        .records
        .iter()
        .flat_map(|r| &r.paper)
        .filter(|p| !p.within_tolerance())
        .map(|p| p.figure_id.as_str())
        .collect();
    if failing.is_empty() {
        println!("paper parity: all figures within tolerance");
        ExitCode::SUCCESS
    } else {
        println!("paper parity: OUT OF TOLERANCE: {}", failing.join(", "));
        ExitCode::FAILURE
    }
}

/// Validate the wallclock sidecars `diff` can see: the freshly-measured
/// one must round-trip through the schema-validating parser (a
/// self-check on the writer), and a committed sibling of the baseline —
/// `<baseline>.wallclock.json`, when present — must parse with
/// consistent telemetry-config fields. Returns an error message when
/// either check fails.
fn validate_sidecars(wall: &WallClock, baseline_path: &Path) -> Result<(), String> {
    let own = WallClock::from_json_str(&wall.to_json_string())
        .map_err(|e| format!("own sidecar failed validation: {e}"))?;
    if own.telemetry_window != wall.telemetry_window {
        return Err("own sidecar telemetry config did not round-trip".to_string());
    }
    let sibling = baseline_path.with_extension("wallclock.json");
    if sibling.exists() {
        let parsed = artifact::load(&sibling, WallClock::from_json_str)?;
        eprintln!(
            "observatory: baseline sidecar {} ok (backend {}, telemetry {})",
            sibling.display(),
            parsed.backend,
            parsed
                .telemetry_window
                .map_or_else(|| "off".to_string(), |w| format!("window={w}")),
        );
    }
    Ok(())
}

fn cmd_diff(mut args: Vec<String>) -> ExitCode {
    let quick = take_flag(&mut args, "--quick");
    let jobs = take_jobs(&mut args);
    let backend = take_backend(&mut args);
    let telemetry = take_telemetry(&mut args);
    if args.len() != 1 {
        return usage();
    }
    let baseline_path = PathBuf::from(&args[0]);
    let baseline = load_or_exit(&baseline_path, RecordSet::from_json_str);
    let (run, wall, _telem) = measure(quick, jobs, backend, telemetry);
    or_exit(validate_sidecars(&wall, &baseline_path));
    let report = diff_sets(&baseline, &run);
    print!("{}", report.render());
    println!("\nPaper-parity scoreboard (this run):\n");
    print!("{}", obs_report::render_scoreboard(&run));
    if report.passes() {
        println!(
            "\nobservatory diff: PASS (baseline {})",
            baseline_path.display()
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "\nobservatory diff: FAIL — {} regression(s) vs {}",
            report.regressions(),
            baseline_path.display()
        );
        ExitCode::FAILURE
    }
}

fn cmd_report(mut args: Vec<String>) -> ExitCode {
    let dir = take_dir(&mut args);
    let doc =
        PathBuf::from(take_value(&mut args, "--doc").unwrap_or_else(|| "EXPERIMENTS.md".into()));
    if !args.is_empty() {
        return usage();
    }
    let (labels, runs): (Vec<String>, Vec<RecordSet>) = load_trajectory(&dir, false)
        .into_iter()
        .map(|(index, set)| (format!("BENCH_{index:04}"), set))
        .unzip();
    let section = obs_report::render_section(&labels, &runs);
    let document = std::fs::read_to_string(&doc).unwrap_or_default();
    let mut spliced = obs_report::splice_section(&document, &section);
    let faults_path = dir.join("FAULTS.json");
    let mut fault_note = String::new();
    if faults_path.exists() {
        let set = load_or_exit(&faults_path, FaultSet::from_json_str);
        let section = obs_faults::render_fault_section(&set);
        spliced = obs_faults::splice_fault_section(&spliced, &section);
        fault_note = format!(" + fault coverage ({} trials)", set.records.len());
    }
    let mut scale_note = String::new();
    if let Some((index, path)) = list_files(&dir, SCALE).last() {
        let set = load_or_exit(path, ScaleSet::from_json_str);
        let section = obs_scale::render_scale_section(&set);
        spliced = obs_scale::splice_scale_section(&spliced, &section);
        scale_note = format!(
            " + scaling ladder (SCALE_{index:04}, {} rows)",
            set.records.len()
        );
    }
    save_or_exit(&doc, &spliced);
    println!(
        "spliced {} run(s){}{} into {} ({} bytes)",
        runs.len(),
        fault_note,
        scale_note,
        doc.display(),
        spliced.len()
    );
    ExitCode::SUCCESS
}

/// `trend`: load the committed `BENCH_*.json` trajectory plus each
/// point's `TELEM_<n>.json` (older points legitimately have none),
/// render the telemetry dashboard and splice it into the document
/// between the telemetry markers. Non-zero exit if any efficiency row
/// of the latest point is outside the paper-model tolerance.
fn cmd_trend(mut args: Vec<String>) -> ExitCode {
    let dir = take_dir(&mut args);
    let doc =
        PathBuf::from(take_value(&mut args, "--doc").unwrap_or_else(|| "EXPERIMENTS.md".into()));
    if !args.is_empty() {
        return usage();
    }
    let points: Vec<TrendPoint> = load_trajectory(&dir, true)
        .into_iter()
        .map(|(index, records)| {
            let telem_path = dir.join(file_name(TELEM, index));
            TrendPoint {
                label: format!("BENCH_{index:04}"),
                records,
                telem: telem_path
                    .exists()
                    .then(|| load_or_exit(&telem_path, TelemSet::from_json_str)),
            }
        })
        .collect();
    let with_telem = points.iter().filter(|p| p.telem.is_some()).count();
    let (section, out_of_tol) = render_trend_section(&points);
    let document = std::fs::read_to_string(&doc).unwrap_or_default();
    let spliced = splice_trend_section(&document, &section);
    save_or_exit(&doc, &spliced);
    println!(
        "spliced telemetry dashboard ({} point(s), {} with telemetry) into {}",
        points.len(),
        with_telem,
        doc.display()
    );
    if out_of_tol == 0 {
        println!("efficiency model: every streaming design within tolerance of n/(n+α)");
        ExitCode::SUCCESS
    } else {
        println!("efficiency model: FAIL — {out_of_tol} design(s) outside tolerance");
        ExitCode::FAILURE
    }
}

fn cmd_faults(mut args: Vec<String>) -> ExitCode {
    let quick = take_flag(&mut args, "--quick");
    let seed = take_seed(&mut args);
    let jobs = take_jobs(&mut args);
    let out = PathBuf::from(take_value(&mut args, "--out").unwrap_or_else(|| "FAULTS.json".into()));
    if !args.is_empty() {
        return usage();
    }
    eprintln!(
        "observatory: running the {} fault campaign (seed {}) on {} job(s)...",
        if quick { "quick" } else { "full" },
        seed,
        jobs
    );
    let set = run_fault_matrix_with_jobs(seed, quick, jobs);
    save_or_exit(&out, &set.to_json_string());
    println!("wrote {} ({} trial(s))\n", out.display(), set.records.len());
    print!("{}", obs_faults::render_fault_scoreboard(&set));
    println!("\nGraceful degradation:\n");
    print!("{}", obs_faults::render_degradation_table(&set));
    let silent = set.covered_silent_corruptions();
    if silent == 0 {
        println!("\nfault coverage: zero silent corruptions on ABFT-covered kernels");
        ExitCode::SUCCESS
    } else {
        println!("\nfault coverage: FAIL — {silent} silent corruption(s) on ABFT-covered kernels");
        ExitCode::FAILURE
    }
}

/// `analyze`: run the channel-graph analyses (deadlock-freedom proofs,
/// throughput bounds, composed-bandwidth budgets) over every shipped
/// topology, then cross-validate every committed `BENCH_*.json` against
/// the static bounds. Exit status is non-zero on any error, so CI can
/// gate on the soundness of the model.
fn cmd_analyze(mut args: Vec<String>) -> ExitCode {
    let dir = take_dir(&mut args);
    let verbose = take_flag(&mut args, "--verbose");
    if !args.is_empty() {
        return usage();
    }
    let trajectory = load_trajectory(&dir, true);
    let mut reports = topology_report();
    reports.extend(trajectory.iter().map(|(_, set)| cross_validate(set)));
    let mut errors = 0;
    for report in &reports {
        print!("{}", report.render(verbose));
        errors += report.count(Severity::Error);
    }
    println!(
        "analyzed {} topology/cross-validation report(s), {} error(s)",
        reports.len(),
        errors
    );
    if errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What differs between the store-backed campaign subcommands (`serve`,
/// `scale`); [`cmd_campaign`] owns the rest.
struct Campaign<R> {
    /// Subcommand name, e.g. `"serve"`.
    cmd: &'static str,
    /// Campaign name in the banner, e.g. `"serving"`.
    name: &'static str,
    /// Trajectory prefix of the persisted store.
    prefix: &'static str,
    /// What the `wrote` line calls a row, e.g. `"cell(s)"`.
    rows: &'static str,
    /// Run the campaign: `(quick, jobs, backend)`.
    run: fn(bool, usize, ExecBackend) -> Store<R>,
    /// One stdout line per row.
    row: fn(&R) -> String,
    /// The `fblas-check` reports the fresh store must pass.
    gates: fn(&Store<R>) -> Vec<Report>,
    /// Verdict detail when a gate reports an error.
    gate_failure: &'static str,
}

/// `serve`: the BLAS-as-a-service campaign, gated by the conservation
/// and batch-amortization rules.
const SERVE_CAMPAIGN: Campaign<ServeRecord> = Campaign {
    cmd: "serve",
    name: "serving",
    prefix: SERVE,
    rows: "cell(s)",
    run: run_serve_matrix_with_jobs,
    row: |r| {
        format!(
            "{:24} offered {:5}  completed {:5}  rejected {:4}  in-flight {:3}  \
             batches {:4}  staging {:9} ns  p99 {}  slo {}",
            r.cell,
            r.offered(),
            r.completed(),
            r.rejected(),
            r.in_flight(),
            r.batches,
            r.staging_ns,
            r.latency
                .p99()
                .map_or_else(|| "-".to_string(), |p| format!("{p} ns")),
            if r.slo_pass { "PASS" } else { "FAIL" },
        )
    },
    gates: |set| vec![check_serve_set(set)],
    gate_failure: "conservation/amortization rules violated",
};

/// `scale`: the multi-FPGA ladder, gated by the fabric link budgets and
/// the §6.4 soundness rules.
const SCALE_CAMPAIGN: Campaign<ScaleRecord> = Campaign {
    cmd: "scale",
    name: "scaling",
    prefix: SCALE,
    rows: "row(s)",
    run: run_scale_matrix_with_jobs,
    row: |r| {
        format!(
            "{:14} n {:4}  cycles {:9}  {:8.1} MFLOPS  speedup {:6.3}  eff {:5.3}  \
             model {:8.1}  div {:5.1}%  starved {:7}  backpressured {:7}  {}",
            r.cell(),
            r.n,
            r.cycles,
            r.sustained_mflops,
            r.speedup,
            r.efficiency,
            r.modeled_mflops,
            r.divergence * 100.0,
            r.stalls_starved,
            r.stalls_backpressured,
            if r.within_bound { "ok" } else { "OVER MODEL" },
        )
    },
    gates: |set| vec![fabric_link_budget_report(), check_scale_set(set)],
    gate_failure: "fabric budget/soundness rules violated",
};

/// Run a store-backed campaign on the worker pool, print its rows, gate
/// them with the campaign's `fblas-check` rules, then either persist the
/// next free `<PREFIX>_<n>.json` or — with `--diff <baseline>` — gate
/// the fresh store exactly against a committed one. The baseline is
/// loaded before the campaign runs, so a bad one costs no simulation.
/// Exit status: 2 on usage/IO errors, 1 on any failed gate.
fn cmd_campaign<R: Record>(c: &Campaign<R>, mut args: Vec<String>) -> ExitCode {
    let quick = take_flag(&mut args, "--quick");
    let jobs = take_jobs(&mut args);
    let backend = take_backend(&mut args);
    let dir = take_dir(&mut args);
    let baseline_path = take_value(&mut args, "--diff").map(PathBuf::from);
    if !args.is_empty() {
        return usage();
    }
    let baseline = baseline_path.map(|path| {
        let set = load_or_exit(&path, Store::<R>::from_json_str);
        (path, set)
    });
    eprintln!(
        "observatory: running the {} {} campaign on {} job(s), {} backend...",
        if quick { "quick" } else { "full" },
        c.name,
        jobs,
        backend
    );
    let set = (c.run)(quick, jobs, backend);
    for r in &set.records {
        println!("{}", (c.row)(r));
    }
    let mut errors = 0;
    for report in (c.gates)(&set) {
        print!("{}", report.render(false));
        errors += report.count(Severity::Error);
    }
    if errors > 0 {
        println!("observatory {}: FAIL — {}", c.cmd, c.gate_failure);
        return ExitCode::FAILURE;
    }
    if let Some((path, baseline)) = baseline {
        let diff = diff_cells(&set, &baseline);
        print!("{}", diff.render());
        if !diff.pass() {
            println!(
                "observatory {}: FAIL — campaign drifted from {}",
                c.cmd,
                path.display()
            );
            return ExitCode::FAILURE;
        }
        println!("observatory {}: PASS (baseline {})", c.cmd, path.display());
        return ExitCode::SUCCESS;
    }
    let path = dir.join(file_name(c.prefix, next_index(&dir, c.prefix)));
    save_or_exit(&path, &set.to_json_string());
    println!(
        "wrote {} ({} {})",
        path.display(),
        set.records.len(),
        c.rows
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "run" => cmd_run(args),
        "diff" => cmd_diff(args),
        "report" => cmd_report(args),
        "trend" => cmd_trend(args),
        "faults" => cmd_faults(args),
        "serve" => cmd_campaign(&SERVE_CAMPAIGN, args),
        "scale" => cmd_campaign(&SCALE_CAMPAIGN, args),
        "analyze" => cmd_analyze(args),
        _ => usage(),
    }
}
