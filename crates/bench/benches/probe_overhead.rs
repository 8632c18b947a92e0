//! Host-time guard on the probe layer's cost on the k = 8
//! matrix-multiply workload (one 32×32 block on the PE array).
//!
//! Three things are measured:
//!
//! * `probes_off` — the default summary probe: the cheap counters that
//!   every run needs to assemble its `SimReport`;
//! * `probes_telem` — the summary probe plus windowed telemetry at the
//!   observatory's default window, the exact configuration every
//!   `observatory run` now uses;
//! * `probes_deep` — full instrumentation: stall events, occupancy and
//!   utilization waveforms, Chrome-trace bookkeeping.
//!
//! The guards at the end assert that deep instrumentation costs less
//! than 2 % over the summary path on this workload — waveforms are change-compressed,
//! so a steady hazard-free block multiply emits almost no events — and
//! that windowed telemetry costs less than 3 %: its per-cycle hook is a
//! single branch plus a handful of adds, sealed once per window.
//!
//! The estimator is the median over [`ROUNDS`] interleaved rounds of
//! each mode's paired overhead: a round times one block multiply per
//! mode back to back (order rotating), so the host's speed swings —
//! co-tenant load and frequency changes that last a few ms — hit the
//! pair alike and cancel, and the median drops the rounds a preemption
//! hits. Per-mode minima of whole timings pick each mode's luckiest
//! moment separately; on a shared 2-core host they read the same code
//! anywhere from −20 % to +50 %.
//!
//! Accounting equality between the modes is checked by the
//! deterministic `harness_probe` and `telemetry_matrix` integration
//! tests; this bench covers the time axis.

use fblas_bench::synth_int;
use fblas_core::mm::{BlockEngine, MmParams};
use fblas_core::mvm::DenseMatrix;
use fblas_sim::{Harness, DEFAULT_TELEM_WINDOW};
use std::hint::black_box;
use std::time::{Duration, Instant};

const K: usize = 8;
const M: usize = 32;
/// Interleaved rounds the guard takes the median over.
const ROUNDS: usize = 400;

/// Probe configuration a timed run uses.
#[derive(Clone, Copy)]
enum Mode {
    Off,
    Telem,
    Deep,
}

const MODES: [Mode; 3] = [Mode::Off, Mode::Telem, Mode::Deep];

fn workload() -> (BlockEngine, DenseMatrix, DenseMatrix) {
    let a = DenseMatrix::from_rows(M, M, synth_int(5, M * M, 4));
    let b = DenseMatrix::from_rows(M, M, synth_int(6, M * M, 4));
    (BlockEngine::new(MmParams::test(K, M)), a, b)
}

fn run_once(engine: &BlockEngine, a: &DenseMatrix, b: &DenseMatrix, mode: Mode) {
    let mut h = match mode {
        Mode::Deep => Harness::deep(),
        Mode::Off | Mode::Telem => Harness::new(),
    };
    if matches!(mode, Mode::Telem) {
        h.enable_telemetry(DEFAULT_TELEM_WINDOW);
    }
    let mut c = vec![0.0; M * M];
    black_box(engine.multiply_accumulate_in(&mut h, a, b, &mut c));
    black_box(c);
}

fn time_once(mut f: impl FnMut()) -> Duration {
    #[expect(
        clippy::disallowed_methods,
        reason = "host timing: this bench times the host"
    )]
    let t = Instant::now();
    f();
    t.elapsed()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let (engine, a, b) = workload();

    // The guards proper: warm up once per mode, then time one block
    // multiply per mode per round and keep each round's overheads
    // against its own summary-mode run.
    for mode in MODES {
        run_once(&engine, &a, &b, mode);
    }
    let mut telem = Vec::with_capacity(ROUNDS);
    let mut deep = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let mut t = [0.0; 3];
        for i in 0..MODES.len() {
            let m = (round + i) % MODES.len();
            t[m] = time_once(|| run_once(&engine, &a, &b, MODES[m])).as_secs_f64();
        }
        telem.push(t[1] / t[0] - 1.0);
        deep.push(t[2] / t[0] - 1.0);
    }
    let telem_overhead = median(telem);
    let deep_overhead = median(deep);
    println!(
        "probe overhead guard (median of {ROUNDS} paired rounds): telem {:+.2}%, deep {:+.2}%",
        telem_overhead * 100.0,
        deep_overhead * 100.0
    );
    assert!(
        deep_overhead < 0.02,
        "deep probes cost {:.2}% over the summary path (budget: 2%)",
        deep_overhead * 100.0
    );
    assert!(
        telem_overhead < 0.03,
        "windowed telemetry costs {:.2}% over the summary path (budget: 3%)",
        telem_overhead * 100.0
    );
}
