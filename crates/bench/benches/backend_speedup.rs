//! Host-time guard pinning the native backend's raison d'être: its
//! fused replays must actually be faster than cycle stepping on the
//! streaming kernels they target.
//!
//! Three workloads from the paper matrix run under both
//! [`ExecBackend`]s: the Table 3 dot product, the row-major MVM and the
//! col-major MVM, each at the full (non-quick) problem size. The guard
//! at the end asserts — on min-of-N timings, rejecting scheduler noise —
//! that native beats cycle stepping on the combined workload.
//!
//! The guard floor is deliberately modest: native keeps every softfloat
//! operation bit-for-bit (results are pinned equal to the cycle path),
//! so what it can remove is the per-cycle work around the values, not
//! the values themselves. The lockstep front ends replay in closed
//! form, and the §4.3 reduction circuit replays a whole set per period
//! once a run of equal sets repeats its schedule (DESIGN.md §13), so
//! on the row-major MVM what is left is the value fold — k multiplies
//! and a balanced tree per group — plus one host add per reduced value;
//! dot's single set and sets of α values or fewer still tick the
//! circuit once per cycle. The ≥10× speedup the backend targets is in
//! *simulated cycles not stepped* — the wallclock sidecar's
//! `backend_speedup` field over the full paper matrix — not in host
//! seconds on a softfloat-bound kernel. Bit-equality of the results
//! across backends is not this bench's job; the `backend_parity`
//! integration suite and the per-design unit suites pin that.

use fblas_bench::synth_int;
use fblas_core::dot::{DotParams, DotProductDesign};
use fblas_core::mvm::{ColMajorMvm, DenseMatrix, MvmParams, RowMajorMvm};
use fblas_sim::{ExecBackend, Harness};
use std::hint::black_box;
use std::time::{Duration, Instant};

const DOT_N: usize = 8192;
const MVM_N: usize = 192;

struct Workload {
    dot: DotProductDesign,
    u: Vec<f64>,
    v: Vec<f64>,
    row: RowMajorMvm,
    col: ColMajorMvm,
    a: DenseMatrix,
    x: Vec<f64>,
}

fn workload() -> Workload {
    Workload {
        dot: DotProductDesign::standalone(DotParams::table3(), 170.0),
        u: synth_int(1, DOT_N, 8),
        v: synth_int(2, DOT_N, 8),
        row: RowMajorMvm::standalone(MvmParams::table3(), 170.0),
        col: ColMajorMvm::standalone(MvmParams::with_k(4), 170.0),
        a: DenseMatrix::from_rows(MVM_N, MVM_N, synth_int(3, MVM_N * MVM_N, 8)),
        x: synth_int(4, MVM_N, 8),
    }
}

fn run_once(w: &Workload, backend: ExecBackend) {
    let mut h = Harness::with_backend(backend);
    black_box(w.dot.run_in(&mut h, &w.u, &w.v).result);
    black_box(w.row.run_in(&mut h, &w.a, &w.x).y);
    black_box(w.col.run_in(&mut h, &w.a, &w.x).y);
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

fn main() {
    let w = workload();

    // The guard proper: interleaved minima so clock drift and scheduler
    // noise hit all backends alike.
    for backend in ExecBackend::ALL {
        run_once(&w, backend); // warm-up
    }
    let mut cycle = Duration::MAX;
    let mut native = Duration::MAX;
    for _ in 0..20 {
        cycle = cycle.min(time_once(|| run_once(&w, ExecBackend::Cycle)));
        native = native.min(time_once(|| run_once(&w, ExecBackend::Native)));
    }
    let native_speedup = cycle.as_secs_f64() / native.as_secs_f64();
    println!("backend speedup guard: cycle {cycle:?}, native {native:?} ({native_speedup:.1}x)");
    assert!(
        native_speedup > 1.2,
        "native is only {native_speedup:.2}x over cycle stepping (floor: 1.2x)"
    );
}
