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
//! The guards at the end assert (on min-of-N timings, which reject
//! scheduler noise) that deep instrumentation costs less than 2 % over
//! the summary path on this workload — waveforms are change-compressed,
//! so a steady hazard-free block multiply emits almost no events — and
//! that windowed telemetry costs less than 3 %: its per-cycle hook is a
//! single branch plus a handful of adds, sealed once per window.
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

/// Probe configuration a timed run uses.
#[derive(Clone, Copy)]
enum Mode {
    Off,
    Telem,
    Deep,
}

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
    let t = Instant::now();
    f();
    t.elapsed()
}

fn main() {
    let (engine, a, b) = workload();

    // The guards proper. Warm up once per mode, then take interleaved
    // minima so clock drift and scheduler noise hit all modes alike.
    run_once(&engine, &a, &b, Mode::Off);
    run_once(&engine, &a, &b, Mode::Telem);
    run_once(&engine, &a, &b, Mode::Deep);
    let mut off = Duration::MAX;
    let mut telem = Duration::MAX;
    let mut deep = Duration::MAX;
    for _ in 0..60 {
        off = off.min(time_once(|| run_once(&engine, &a, &b, Mode::Off)));
        telem = telem.min(time_once(|| run_once(&engine, &a, &b, Mode::Telem)));
        deep = deep.min(time_once(|| run_once(&engine, &a, &b, Mode::Deep)));
    }
    let deep_overhead = deep.as_secs_f64() / off.as_secs_f64() - 1.0;
    let telem_overhead = telem.as_secs_f64() / off.as_secs_f64() - 1.0;
    println!(
        "probe overhead guard: off {:?}, telem {:?} ({:+.2}%), deep {:?} ({:+.2}%)",
        off,
        telem,
        telem_overhead * 100.0,
        deep,
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
