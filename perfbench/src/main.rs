//! Host-time benchmark of the fpga-blas simulator.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-cycle|paper-native|scale-ladder|all> \
//!     [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Run from the repository root: set-up loads the committed artifacts
//! (`BENCH_0001.json`, `TELEM_0001.json`, `SCALE_0001.json`) from there.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--workload all` runs each workload in its own process and prints
//! every metric by name and unit. See `perfbench/README.md`.

mod check;
mod host;
mod paper;
mod scale;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use fblas_metrics::Json;

use crate::check::Tally;
use crate::host::{median, Stamp};
use crate::trace::Span;

/// The seed whose inputs are the committed artifacts' inputs.
pub(crate) const DEFAULT_SEED: u64 = 0;

/// Set-up is rebuilt before every timed pass, repeatedly until this
/// many seconds are spent on it in that round, so `setup_s` is a median
/// of samples spread over the whole run rather than one burst of it.
const SETUP_ROUND_SECONDS: f64 = 0.2;

/// Fewest timed passes per run, however short `--seconds` is.
pub(crate) const MIN_PASSES: usize = 3;

const WORKLOADS: [&str; 3] = ["paper-cycle", "paper-native", "scale-ladder"];

/// End-to-end metrics: name, unit, better direction.
const END_TO_END: [(&str, &str, &str); 5] = [
    ("wall_s", "s", "lower"),
    ("sim_cycles_per_s", "cycles/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("pass_rate", "fraction", "higher"),
];

/// Per-layer metrics: name and unit. A workload that does not reach a
/// layer reports 0 for it.
const PER_LAYER: [(&str, &str); 41] = [
    ("fpu.sf_add_ns", "ns"),
    ("fpu.sf_mul_ns", "ns"),
    ("fpu.flops", "count"),
    ("sim.stepped_cycles", "count"),
    ("sim.replayed_cycles", "count"),
    ("sim.ns_per_stepped_cycle", "ns"),
    ("core.dot_s", "s"),
    ("core.axpy_s", "s"),
    ("core.scal_s", "s"),
    ("core.asum_s", "s"),
    ("core.mvm_row_s", "s"),
    ("core.mvm_col_s", "s"),
    ("core.mvm_xd1_l2_s", "s"),
    ("core.mm_linear_s", "s"),
    ("core.mm_hierarchical_s", "s"),
    ("core.reduce_s", "s"),
    ("sparse.spmv_s", "s"),
    ("telemetry.probe_overhead_s", "s"),
    ("telemetry.render_s", "s"),
    ("fabric.values_s", "s"),
    ("fabric.schedule_s", "s"),
    ("fabric.link_words", "count"),
    ("fabric.congestion_cycles", "count"),
    ("bench.pool_busy_s", "s"),
    ("bench.pool_idle_s", "s"),
    ("bench.pool_wait_s", "s"),
    ("metrics.render_s", "s"),
    ("metrics.parse_s", "s"),
    ("metrics.diff_s", "s"),
    ("check.gate_s", "s"),
    ("bench.self_s", "s"),
    ("core.self_s", "s"),
    ("sparse.self_s", "s"),
    ("fabric.self_s", "s"),
    ("metrics.self_s", "s"),
    ("telemetry.self_s", "s"),
    ("check.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_share", "fraction"),
];

/// Layers whose self time is reported as `<layer>.self_s`.
const LAYERS: [&str; 7] = [
    "bench",
    "core",
    "sparse",
    "fabric",
    "metrics",
    "telemetry",
    "check",
];

/// One benchmark invocation.
pub(crate) struct Run {
    pub(crate) seed: u64,
    pub(crate) seconds: f64,
    pub(crate) trace: bool,
}

/// What a workload hands back to `main`.
pub(crate) struct Outcome {
    pub(crate) backend: String,
    pub(crate) workers: usize,
    pub(crate) passes: usize,
    pub(crate) tally: Tally,
    /// End-to-end metrics untraced, per-layer metrics traced.
    pub(crate) metrics: Vec<(String, f64)>,
    pub(crate) spans: Vec<Span>,
}

/// The operand seed of input `base` under benchmark seed `seed`. The
/// default seed keeps every base, so it reproduces the committed inputs.
pub(crate) fn op_seed(seed: u64, base: u64) -> u64 {
    if seed == DEFAULT_SEED {
        base
    } else {
        splitmix64(splitmix64(seed) ^ base)
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One round of set-up: drop `previous`, then build until the round
/// has spent [`SETUP_ROUND_SECONDS`] (at least once), pushing each
/// build's time to `times` and keeping the last build. Only one set-up
/// is alive at a time.
pub(crate) fn set_up<T>(
    times: &mut Vec<f64>,
    previous: Option<T>,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    drop(previous);
    let mut spent = 0.0;
    let mut last = None;
    while last.is_none() || spent < SETUP_ROUND_SECONDS {
        drop(last.take());
        let t0 = std::time::Instant::now();
        last = Some(build()?);
        let t = t0.elapsed().as_secs_f64();
        spent += t;
        times.push(t);
    }
    Ok(last.expect("at least one set-up"))
}

/// One line on the spread of the untraced pass times.
pub(crate) fn print_passes(walls: &[f64]) {
    let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let max = walls.iter().copied().fold(0.0, f64::max);
    println!(
        "passes {}: wall_s median {:.6} min {min:.6} max {max:.6} {walls:.3?}",
        walls.len(),
        median(walls)
    );
}

/// The five end-to-end metrics of an untraced run.
#[allow(clippy::cast_precision_loss)]
pub(crate) fn end_to_end(
    wall_s: f64,
    cycles: f64,
    setup_s: f64,
    tally: &Tally,
) -> Vec<(String, f64)> {
    vec![
        ("wall_s".into(), wall_s),
        ("sim_cycles_per_s".into(), cycles / wall_s),
        ("setup_s".into(), setup_s),
        ("peak_rss_mb".into(), host::peak_rss_mib()),
        (
            "pass_rate".into(),
            1.0 - tally.failed() as f64 / tally.attempted().max(1) as f64,
        ),
    ]
}

/// Per-layer metrics every workload measures the same way, from the
/// spans of one traced pass run on `workers` pool workers.
#[allow(clippy::cast_precision_loss)]
pub(crate) fn common_layer_metrics(spans: &[Span], workers: usize) -> Vec<(String, f64)> {
    let mut busy = 0.0;
    let mut wait = 0.0;
    let mut pool_s = 0.0;
    for pool in spans.iter().filter(|s| s.name == "bench.pool") {
        pool_s += pool.duration();
        for job in spans
            .iter()
            .filter(|s| s.name == "bench.job" && s.parent == pool.id)
        {
            busy += job.duration();
            wait += job.start_s - pool.start_s;
        }
    }
    let selfs = trace::self_times(spans);
    let wall = trace::total(spans, "pass");
    let unattributed = trace::layer_self(spans, &selfs, "pass");
    let mut m: Vec<(String, f64)> = vec![
        ("bench.pool_busy_s".into(), busy),
        ("bench.pool_idle_s".into(), workers as f64 * pool_s - busy),
        ("bench.pool_wait_s".into(), wait),
        (
            "metrics.render_s".into(),
            trace::total(spans, "metrics.render"),
        ),
        (
            "metrics.parse_s".into(),
            trace::total(spans, "metrics.parse"),
        ),
        ("metrics.diff_s".into(), trace::total(spans, "metrics.diff")),
        ("check.gate_s".into(), trace::total(spans, "check.gate")),
        ("trace.wall_s".into(), wall),
        ("trace.unattributed_s".into(), unattributed),
        ("trace.unattributed_share".into(), unattributed / wall),
    ];
    for layer in LAYERS {
        m.push((
            format!("{layer}.self_s"),
            trace::layer_self(spans, &selfs, layer),
        ));
    }
    m
}

/// Per-metric medians over the traced passes.
pub(crate) fn layer_medians(passes: &[Vec<(String, f64)>]) -> Vec<(String, f64)> {
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for pass in passes {
        for (name, value) in pass {
            by_name.entry(name.clone()).or_default().push(*value);
        }
    }
    by_name
        .into_iter()
        .map(|(name, values)| (name, median(&values)))
        .collect()
}

/// Nanoseconds per softfloat add and multiply over a seeded stream of
/// normal, subnormal, ±0, ±Inf and NaN operands.
#[allow(clippy::cast_precision_loss)]
pub(crate) fn fpu_metrics(seed: u64) -> Vec<(String, f64)> {
    use std::hint::black_box;
    const PAIRS: usize = 4096;
    const ROUNDS: usize = 64;
    let mut state = op_seed(seed, 200);
    let mut operand = || {
        state = splitmix64(state);
        let sign = (state >> 63) << 63;
        let frac = state & ((1 << 52) - 1);
        let exp: u64 = match state % 20 {
            0..=11 => 1 + (state >> 52) % 2046,
            12..=14 => 0,
            15..=16 => return sign,
            17..=18 => return sign | (0x7FF << 52),
            _ => return (0x7FF << 52) | (1 << 51) | (frac >> 1),
        };
        sign | (exp << 52) | frac.max(u64::from(exp == 0))
    };
    let stream: Vec<(u64, u64)> = (0..PAIRS).map(|_| (operand(), operand())).collect();
    let ns_per_op = |op: fn(u64, u64) -> u64| {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let mut acc = 0u64;
                for _ in 0..ROUNDS {
                    for &(a, b) in &stream {
                        acc ^= op(black_box(a), black_box(b));
                    }
                }
                black_box(acc);
                t0.elapsed().as_secs_f64() * 1e9 / (ROUNDS * PAIRS) as f64
            })
            .collect();
        median(&samples)
    };
    vec![
        ("fpu.sf_add_ns".into(), ns_per_op(fblas_fpu::sf_add)),
        ("fpu.sf_mul_ns".into(), ns_per_op(fblas_fpu::sf_mul)),
    ]
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <paper-cycle|paper-native|scale-ladder|all> \
         [--seed <n>] [--seconds <s>] [--trace <0|1>]"
    );
    ExitCode::from(2)
}

struct Args {
    workload: String,
    run: Run,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut run = Run {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad("a workload name"));
                }
                workload = Some(value);
            }
            "--seed" => run.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                run.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a number of seconds"))?;
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, run })
}

fn run_workload(name: &str, run: &Run) -> Result<Outcome, String> {
    match name {
        "paper-cycle" => paper::run(run, paper::Mode::cycle()),
        "paper-native" => paper::run(run, paper::Mode::native()),
        "scale-ladder" => scale::run(run),
        _ => Err(format!("unknown workload {name}")),
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _)| (n, u))
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Print the run's report and, last, the result line.
fn emit(name: &str, args: &Args, outcome: &Outcome) -> Result<(), String> {
    let stamp = Stamp {
        workload: name.to_string(),
        seed: args.run.seed,
        passes: outcome.passes,
        workers: outcome.workers,
        backend: outcome.backend.clone(),
        trace: args.run.trace,
    }
    .to_json();
    println!("stamp {}", stamp.render_compact());
    for line in outcome.tally.report_lines() {
        println!("{line}");
    }

    let wanted: Vec<&str> = if args.run.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _, _)| *n).collect()
    };
    let measured: BTreeMap<&str, f64> = outcome
        .metrics
        .iter()
        .map(|(n, v)| (n.as_str(), *v))
        .collect();
    if let Some(stray) = measured.keys().find(|n| !wanted.contains(n)) {
        return Err(format!("workload reported an undeclared metric {stray}"));
    }
    let mut metrics = Json::obj();
    for name in wanted {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        let value = measured.get(name).copied().unwrap_or(0.0) + 0.0;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        println!("  {name:28} {value:>16.6} {}", unit_of(name));
        metrics.set(
            name,
            Json::obj()
                .with("value", Json::Num(value))
                .with("unit", Json::Str(unit_of(name).to_string())),
        );
    }

    if args.run.trace {
        let dir = std::path::Path::new("perfbench/out");
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{name}-seed{}.json", args.run.seed));
        let doc = Json::obj()
            .with("stamp", stamp)
            .with("metrics", metrics.clone())
            .with("spans", trace::to_json(&outcome.spans));
        std::fs::write(&path, doc.render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }

    let result = Json::obj()
        .with("correct", Json::Bool(outcome.tally.correct()))
        .with("attempted", Json::Num(outcome.tally.attempted() as f64))
        .with("failed", Json::Num(outcome.tally.failed() as f64))
        .with("metrics", metrics);
    println!("{}", result.render_compact());
    Ok(())
}

/// `--workload all`: one child process per workload (so each reports
/// its own peak RSS), then every metric by name and unit.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rows = Vec::new();
    for name in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.run.seed.to_string()])
            .args(["--seconds", &args.run.seconds.to_string()])
            .args(["--trace", if args.run.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(out) if out.status.success() => out,
            Ok(out) => {
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                eprintln!("error: workload {name} failed ({})", out.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: cannot run workload {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines().filter(|l| {
            l.starts_with("stamp ") || l.starts_with("FAILED") || l.starts_with("ERROR")
        }) {
            println!("{name}: {line}");
        }
        let parsed = stdout.lines().last().and_then(|l| Json::parse(l).ok());
        let Some(result) = parsed else {
            eprintln!("error: workload {name} printed no result line");
            return ExitCode::FAILURE;
        };
        rows.push((name, result));
    }
    println!(
        "\n{:14} {:28} {:>18} {:10} correct/attempted/failed",
        "workload", "metric", "value", "unit"
    );
    for (name, result) in &rows {
        let verdict = format!(
            "{}/{}/{}",
            result
                .get("correct")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            result.get("attempted").and_then(Json::as_u64).unwrap_or(0),
            result.get("failed").and_then(Json::as_u64).unwrap_or(0),
        );
        if let Some(Json::Obj(metrics)) = result.get("metrics") {
            for (metric, body) in metrics {
                let value = body.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = body.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("{name:14} {metric:28} {value:>18.6} {unit:10} {verdict}");
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let outcome = match run_workload(&args.workload, &args.run) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match emit(&args.workload, &args, &outcome) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
