//! Telemetry parity: native (fast-forwarded) runs must reconstruct the
//! *exact* windowed time-series and latency histograms the cycle stepper
//! produces — positioned batch recording, not just matching totals —
//! without declining fast-forward (CI gates on the ≥10× speedup, so a
//! design that silently declined under telemetry would regress it).
//!
//! The final test pins the other side of the contract: a design whose
//! schedule cannot be positioned in closed form declines fast-forward,
//! and the native harness falls back to the cycle stepper, which keeps
//! the series exact.

use fblas_core::dot::{DotParams, DotProductDesign};
use fblas_core::level1::{AsumDesign, AxpyDesign, Level1Params, ScalDesign};
use fblas_core::mm::{LinearArrayMm, MmParams};
use fblas_core::mvm::{ColMajorMvm, DenseMatrix, MvmParams, RowMajorMvm};
use fblas_sim::{Design, ExecBackend, Harness, Probe, ProbeId, StallCause, TelemSeries};

/// Deliberately small and odd: many windows and a ragged final window.
const WINDOW: u64 = 7;

/// Operand data; the schedule, and so the telemetry, never depends on it.
fn ivec(n: usize, phase: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 3 + phase) % 11) as f64).collect()
}

/// Run the same design on both backends with telemetry enabled and
/// assert the native run (a) did not decline fast-forward and (b)
/// reproduced the stepped run's telemetry byte-for-byte.
fn assert_telem_parity(label: &str, run: &dyn Fn(&mut Harness)) -> Vec<TelemSeries> {
    let mut cy = Harness::new();
    cy.enable_telemetry(WINDOW);
    run(&mut cy);
    let reference = cy.take_telemetry();
    assert_eq!(reference.len(), 1, "{label}: one run, one series");
    assert!(
        reference[0].windows() > 1,
        "{label}: workload too small to exercise windowing"
    );

    let mut h = Harness::with_backend(ExecBackend::Native);
    h.enable_telemetry(WINDOW);
    run(&mut h);
    assert!(
        h.ff_cycles() > 0,
        "{label}: native declined fast-forward under telemetry"
    );
    assert_eq!(
        h.take_telemetry(),
        reference,
        "{label}: native telemetry diverged from the cycle stepper"
    );
    reference
}

/// The latency histogram of the named component must be populated.
fn assert_latencies(series: &[TelemSeries], comp: &str, expect_samples: u64) {
    let c = series[0]
        .comps
        .iter()
        .find(|c| c.name == comp)
        .unwrap_or_else(|| panic!("component {comp} missing from telemetry"));
    assert_eq!(
        c.latency.samples(),
        expect_samples,
        "{comp}: latency sample count"
    );
    assert!(c.latency.min() >= 1, "{comp}: zero-cycle latency");
}

#[test]
fn axpy_telemetry_parity() {
    for n in [512usize, 1023] {
        let d = AxpyDesign::new(Level1Params::with_k(4));
        let x = ivec(n, 0);
        let y = ivec(n, 5);
        let series = assert_telem_parity("axpy", &|h: &mut Harness| {
            d.run_in(h, 3.0, &x, &y);
        });
        // One completion per group of k.
        assert_latencies(&series, "axpy/lanes", n.div_ceil(4) as u64);
    }
}

#[test]
fn scal_telemetry_parity() {
    for n in [512usize, 1023] {
        let d = ScalDesign::new(Level1Params::with_k(4));
        let x = ivec(n, 2);
        let series = assert_telem_parity("scal", &|h: &mut Harness| {
            d.run_in(h, -2.0, &x);
        });
        assert_latencies(&series, "scal/lanes", n.div_ceil(4) as u64);
    }
}

#[test]
fn asum_telemetry_parity() {
    for n in [512usize, 1023] {
        let d = AsumDesign::new(Level1Params::with_k(4));
        let x = ivec(n, 1);
        let series = assert_telem_parity("asum", &|h: &mut Harness| {
            d.run_in(h, &x);
        });
        // A single reduction result spanning the whole run.
        assert_latencies(&series, "asum/reducer", 1);
    }
}

#[test]
fn dot_telemetry_parity() {
    for n in [512usize, 1023] {
        let d = DotProductDesign::standalone(DotParams::with_k(4), 170.0);
        let u = ivec(n, 0);
        let v = ivec(n, 3);
        let series = assert_telem_parity("dot", &|h: &mut Harness| {
            d.run_in(h, &u, &v);
        });
        assert_latencies(&series, "dot/reducer", 1);
    }
}

#[test]
fn row_mvm_telemetry_parity() {
    for n in [32usize, 33] {
        let a = DenseMatrix::from_fn(n, n, |i, j| ((i + 2 * j) % 5) as f64);
        let x = ivec(n, 4);
        let y0 = ivec(n, 7);
        for y0 in [None, Some(&y0[..])] {
            let d = RowMajorMvm::standalone(MvmParams::with_k(4), 170.0);
            let series = assert_telem_parity("row-mvm", &|h: &mut Harness| {
                let mut r = fblas_core::reduce::SingleAdderReducer::new(fblas_fpu::ADDER_STAGES);
                d.run_with_reducer_in(h, &a, &x, y0, &mut r);
            });
            // One completion per row.
            assert_latencies(&series, "row-mvm/reducer", n as u64);
        }
    }
}

#[test]
fn col_mvm_telemetry_parity() {
    for n in [64usize, 65] {
        let a = DenseMatrix::from_fn(n, n, |i, j| ((i * 5 + j) % 7) as f64);
        let x = ivec(n, 6);
        let d = ColMajorMvm::standalone(MvmParams::with_k(4), 170.0);
        let series = assert_telem_parity("col-mvm", &|h: &mut Harness| {
            d.run_in(h, &a, &x);
        });
        // One MAC batch per chunk of every column.
        assert_latencies(&series, "col-mvm/lanes", (n * n.div_ceil(4)) as u64);
    }
}

#[test]
fn linear_array_mm_telemetry_parity() {
    // One block per run (n = m) so the run seals one series; the
    // multiplier depth is varied past the block's compute span too.
    for (k, m, mult_stages) in [(4, 16, fblas_fpu::MULTIPLIER_STAGES), (2, 8, 300)] {
        let a = DenseMatrix::from_fn(m, m, |i, j| ((i * 3 + j) % 7) as f64);
        let b = DenseMatrix::from_fn(m, m, |i, j| ((i + 5 * j) % 9) as f64);
        let params = MmParams {
            mult_stages,
            ..MmParams::test(k, m)
        };
        let d = LinearArrayMm::new(params);
        let series = assert_telem_parity("mm-block", &|h: &mut Harness| {
            d.run_in(h, &a, &b);
        });
        // Every MAC lands one C′ write.
        assert_latencies(&series, "mm/accumulators", (m * m * m) as u64);
    }
}

#[test]
fn reduction_sets_telemetry_parity() {
    // Sizes straddle α = 14, with size-1 sets between long ones.
    let sets: Vec<Vec<f64>> = [1, 30, 3, 1, 17, 60, 2, 14, 1]
        .iter()
        .enumerate()
        .map(|(i, &s)| ivec(s, i))
        .collect();
    let series = assert_telem_parity("reduce", &|h: &mut Harness| {
        let mut r = fblas_core::reduce::SingleAdderReducer::new(fblas_fpu::ADDER_STAGES);
        fblas_core::reduce::run_sets_in(h, &mut r, &sets);
    });
    // One completion per set.
    assert_latencies(&series, "reduce/circuit", sets.len() as u64);
}

/// A feed whose duty cycle is decided per cycle — representative of
/// schedules without a closed positional form. It keeps the default
/// `fast_forward`, which declines, so the native backend must fall back
/// to the cycle stepper.
struct JitterFeed {
    fed: u64,
    total: u64,
    id: Option<ProbeId>,
}

impl JitterFeed {
    fn new(total: u64) -> Self {
        Self {
            fed: 0,
            total,
            id: None,
        }
    }
}

impl Design for JitterFeed {
    fn name(&self) -> &str {
        "jitter-feed"
    }

    fn setup(&mut self, probe: &mut Probe) {
        self.id = Some(probe.component("test/jitter"));
    }

    fn cycle(&mut self, probe: &mut Probe) {
        let id = self.id.expect("setup registered components");
        if probe.run_cycle().is_multiple_of(3) {
            probe.stall(id, StallCause::InputStarved);
        } else {
            probe.busy(id);
            self.fed += 1;
        }
    }

    fn done(&self) -> bool {
        self.fed >= self.total
    }

    fn cycle_limit(&self) -> u64 {
        4 * self.total + 64
    }
}

#[test]
fn unpositionable_design_declines_fast_forward_under_telemetry() {
    // The design declines, the harness cycle-steps, and the series is
    // the stepped ground truth.
    let mut cy_t = Harness::new();
    cy_t.enable_telemetry(WINDOW);
    cy_t.run(&mut JitterFeed::new(100));
    let mut nat_t = Harness::with_backend(ExecBackend::Native);
    nat_t.enable_telemetry(WINDOW);
    let report = nat_t.run(&mut JitterFeed::new(100));
    assert_eq!(nat_t.ff_cycles(), 0, "the design must decline");
    assert_eq!(report.cycles, 149);
    assert_eq!(nat_t.take_telemetry(), cy_t.take_telemetry());
}
