//! Randomized cross-backend parity properties.
//!
//! The unit suites in `fblas-core` pin the backends to each other on a
//! handful of named shapes; this suite is the property-style sweep: for
//! hundreds of randomized (shape, blocking, seed) triples, the
//! cycle-stepped datapath and the native fused replay must produce
//! bit-identical results *and* bit-identical probe counters. No proptest
//! dependency — the workspace vendors nothing — so shrinking is replaced
//! by printing the failing `(trial, seed, shape, k)` tuple in every
//! assert message.
//!
//! Data regimes follow DESIGN.md §13: the native replay performs the
//! datapath's own softfloat operations in the datapath's order, so no
//! kernel needs association-independent data. The reduction kernels
//! (dot, asum, row-major MVM) and linear-array MM are swept with reals
//! across binades, cycling per trial through three regimes: plain, with
//! ±0 and subnormals, and with ±Inf and NaN as well; axpy and scal with
//! full-mantissa reals; col-major MVM with both, its ragged-chunk trials
//! carrying a y0. `SpMV` and the bare reduction circuit (`run_sets_in`)
//! share the tree-reduce replay and are swept the same way, and the
//! blocked drivers run every panel on the harness under test.

use fblas_core::dot::{DotParams, DotProductDesign};
use fblas_core::level1::{AsumDesign, AxpyDesign, Level1Params, ScalDesign};
use fblas_core::mm::{LinearArrayMm, MmParams};
use fblas_core::mvm::{
    BlockedColMajorMvm, BlockedRowMajorMvm, ColMajorMvm, DenseMatrix, MvmParams, RowMajorMvm,
};
use fblas_core::reduce::{run_sets_in, Reducer, SingleAdderReducer, StallingReducer};
use fblas_sim::{ExecBackend, Harness, SimReport};
use fblas_sparse::{BlockedSpmv, CsrMatrix, SpmvDesign, SpmvParams};

/// xorshift64* — the same tiny deterministic generator the unit suites
/// use, seeded per trial so failures reproduce from the printed tuple.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut s = self.0;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.0 = s;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform usize in `[lo, hi]`.
    fn size(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }

    /// Arbitrary real in roughly `[-8, 8)` with a full mantissa.
    fn real(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 50) as f64 - 8.0
    }

    /// A full-mantissa real scaled into a random binade in 2⁻³⁰..2³³;
    /// with `specials` set, one draw in eight is instead ±0 or a
    /// subnormal, and (`specials == 2`) one in sixty-four ±Inf or NaN.
    fn wide_real(&mut self, specials: u8) -> f64 {
        let roll = self.next_u64() % 64;
        if specials >= 2 && roll == 0 {
            return [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][self.size(0, 2)];
        }
        if specials >= 1 && roll < 8 {
            let tiny = f64::MIN_POSITIVE * self.real() / 16.0;
            return [0.0, -0.0, tiny][self.size(0, 2)];
        }
        self.real() * 2f64.powi(self.size(0, 60) as i32 - 30)
    }

    fn wide_vec(&mut self, n: usize, specials: u8) -> Vec<f64> {
        (0..n).map(|_| self.wide_real(specials)).collect()
    }

    fn real_vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.real()).collect()
    }
}

/// Run one closure under both backends and assert the scalar/vector
/// payload and the probe report agree bit for bit. Returns the stepped
/// cycles saved by the native harness (0 when the design declined).
fn assert_backends_agree<T, F>(ctx: &str, run: F) -> u64
where
    T: PartialEq + std::fmt::Debug,
    F: Fn(&mut Harness) -> (T, SimReport),
{
    let mut cycle = Harness::with_backend(ExecBackend::Cycle);
    let (base_out, base_report) = run(&mut cycle);
    assert_eq!(cycle.ff_cycles(), 0, "{ctx}: cycle backend fast-forwarded");
    let mut native = Harness::with_backend(ExecBackend::Native);
    let (out, report) = run(&mut native);
    assert_eq!(out, base_out, "{ctx}: native result diverged");
    assert_eq!(report, base_report, "{ctx}: native report diverged");
    native.ff_cycles()
}

/// Bit-pattern view of an f64 vector, so `assert_eq!` compares exact
/// representations (NaN-safe, -0.0 ≠ 0.0) instead of numeric values.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn dot_product_backends_agree_across_random_shapes() {
    let mut saved_total = 0;
    for trial in 0..24 {
        let mut rng = Rng::new(0xD07 + trial);
        let k = [2, 4, 8][rng.size(0, 2)];
        let n = rng.size(1, 220);
        let specials = (trial % 3) as u8;
        let u = rng.wide_vec(n, specials);
        let v = rng.wide_vec(n, specials);
        let ctx = format!("dot trial={trial} n={n} k={k} specials={specials}");
        let design = DotProductDesign::standalone(DotParams::with_k(k), 170.0);
        saved_total += assert_backends_agree(&ctx, |h| {
            let out = design.run_in(h, &u, &v);
            (out.result.to_bits(), out.report)
        });
    }
    assert!(saved_total > 0, "no dot trial ever fast-forwarded");
}

#[test]
fn axpy_and_scal_backends_agree_on_random_reals() {
    let mut saved_total = 0;
    for trial in 0..24 {
        let mut rng = Rng::new(0xA1_97 + trial);
        let k = [2, 4, 8][rng.size(0, 2)];
        let n = rng.size(1, 200);
        let a = rng.real();
        let x = rng.real_vec(n);
        let y = rng.real_vec(n);
        let ctx = format!("axpy trial={trial} n={n} k={k}");
        let axpy = AxpyDesign::new(Level1Params::with_k(k));
        saved_total += assert_backends_agree(&ctx, |h| {
            let out = axpy.run_in(h, a, &x, &y);
            (bits(&out.result), out.report)
        });
        let ctx = format!("scal trial={trial} n={n} k={k}");
        let scal = ScalDesign::new(Level1Params::with_k(k));
        saved_total += assert_backends_agree(&ctx, |h| {
            let out = scal.run_in(h, a, &x);
            (bits(&out.result), out.report)
        });
    }
    assert!(saved_total > 0, "no level-1 trial ever fast-forwarded");
}

#[test]
fn asum_backends_agree_on_random_reals() {
    let mut saved_total = 0;
    for trial in 0..24 {
        let mut rng = Rng::new(0xA5_13 + trial);
        let k = [2, 4, 8][rng.size(0, 2)];
        let n = rng.size(1, 200);
        let specials = (trial % 3) as u8;
        let x = rng.wide_vec(n, specials);
        let ctx = format!("asum trial={trial} n={n} k={k} specials={specials}");
        let asum = AsumDesign::new(Level1Params::with_k(k));
        saved_total += assert_backends_agree(&ctx, |h| {
            let out = asum.run_in(h, &x);
            (out.result.to_bits(), out.report)
        });
    }
    assert!(saved_total > 0, "no asum trial ever fast-forwarded");
}

#[test]
fn row_major_mvm_backends_agree_on_random_reals() {
    let mut saved_total = 0;
    for trial in 0..12 {
        let mut rng = Rng::new(0x20_77 + trial);
        let k = [2, 4, 8][rng.size(0, 2)];
        let rows = rng.size(1, 48);
        let cols = rng.size(1, 48);
        let specials = (trial % 3) as u8;
        let a = DenseMatrix::from_rows(rows, cols, rng.wide_vec(rows * cols, specials));
        let x = rng.wide_vec(cols, specials);
        let ctx =
            format!("row-mvm trial={trial} rows={rows} cols={cols} k={k} specials={specials}");
        let mvm = RowMajorMvm::standalone(MvmParams::with_k(k), 170.0);
        saved_total += assert_backends_agree(&ctx, |h| {
            let out = mvm.run_in(h, &a, &x);
            (bits(&out.y), out.report)
        });
    }
    assert!(saved_total > 0, "no row-mvm trial ever fast-forwarded");
}

/// Row-major `MvM` with enough rows for the §4.3 circuit to settle into
/// its one-set period (DESIGN.md §13): every row is a set of cols/k
/// groups — below α, at α, at 2α and at 512 — one slot longer with a
/// carried-in y0, and the last group ragged on odd trials. The native
/// replay replays each period after the first few; results, reports,
/// probe counters and the circuit's own counters must match stepping.
#[test]
fn row_major_mvm_steady_state_backends_agree() {
    let k = 4;
    let mut saved_total = 0;
    for (trial, groups, rows) in [(0u64, 11, 120), (1, 14, 120), (2, 28, 80), (3, 512, 20)] {
        let mut rng = Rng::new(0x57_EA + trial);
        let cols = groups * k - (trial % 2) as usize;
        let specials = (trial % 3) as u8;
        let a = DenseMatrix::from_rows(rows, cols, rng.wide_vec(rows * cols, specials));
        let x = rng.wide_vec(cols, specials);
        let y0 = rng.wide_vec(rows, specials);
        let mvm = RowMajorMvm::standalone(MvmParams::with_k(k), 170.0);
        for y0 in [None, Some(&y0[..])] {
            let ctx = format!(
                "steady row-mvm trial={trial} rows={rows} cols={cols} y0={}",
                y0.is_some()
            );
            saved_total += assert_backends_agree(&ctx, |h| {
                let mut r = SingleAdderReducer::new(14);
                let out = mvm.run_with_reducer_in(h, &a, &x, y0, &mut r);
                let circuit = (r.cycles(), r.adds_issued(), r.buffer_high_water());
                let occupancy = r.occupancy_histogram().clone();
                let stats = h.probe().component_stats();
                ((bits(&out.y), circuit, occupancy, stats), out.report)
            });
        }
    }
    assert!(
        saved_total > 0,
        "no steady-state row-mvm trial fast-forwarded"
    );
}

#[test]
fn col_major_mvm_backends_agree_on_random_reals() {
    let mut saved_total = 0;
    for trial in 0..10 {
        let mut rng = Rng::new(0xC0_11 + trial);
        let k = [2, 4][rng.size(0, 1)];
        // The §4.2 hazard condition demands rows/k ≥ α = 14 in-flight
        // chunks per column; randomize above that floor.
        let rows = k * rng.size(14, 24);
        let cols = rng.size(1, 40);
        let a = DenseMatrix::from_rows(rows, cols, rng.real_vec(rows * cols));
        let x = rng.real_vec(cols);
        let ctx = format!("col-mvm trial={trial} rows={rows} cols={cols} k={k}");
        let mvm = ColMajorMvm::standalone(MvmParams::with_k(k), 170.0);
        saved_total += assert_backends_agree(&ctx, |h| {
            let out = mvm.run_in(h, &a, &x);
            (bits(&out.y), out.report)
        });
    }
    assert!(saved_total > 0, "no col-mvm trial ever fast-forwarded");

    // Ragged last chunks (rows ≢ 0 mod k, still ⌈rows/k⌉ ≥ α), reals
    // across binades with specials, and a carried-in y0 on even trials.
    for trial in 0..12 {
        let mut rng = Rng::new(0xC0_5A + trial);
        let k = [2, 4, 8][rng.size(0, 2)];
        let rows = k * rng.size(14, 18) + rng.size(1, k - 1);
        let cols = rng.size(1, 24);
        let specials = (trial % 3) as u8;
        let a = DenseMatrix::from_rows(rows, cols, rng.wide_vec(rows * cols, specials));
        let x = rng.wide_vec(cols, specials);
        let y0 = (trial % 2 == 0).then(|| rng.wide_vec(rows, specials));
        let ctx = format!(
            "ragged col-mvm trial={trial} rows={rows} cols={cols} k={k} specials={specials} y0={}",
            y0.is_some()
        );
        let mvm = ColMajorMvm::standalone(MvmParams::with_k(k), 170.0);
        let saved = assert_backends_agree(&ctx, |h| {
            let out = mvm.run_with_initial_in(h, &a, &x, y0.as_deref());
            (bits(&out.y), out.report)
        });
        assert!(saved > 0, "{ctx}: declined fast-forward");
    }

    // A sub-chunk stream rate breaks the gapless feed: decline.
    let mut rng = Rng::new(0xC0_F2);
    let (rows, cols) = (61, 7);
    let a = DenseMatrix::from_rows(rows, cols, rng.wide_vec(rows * cols, 2));
    let x = rng.wide_vec(cols, 2);
    let y0 = rng.wide_vec(rows, 2);
    let starved = ColMajorMvm::standalone(
        MvmParams {
            matrix_words_per_cycle: 2.5,
            ..MvmParams::with_k(4)
        },
        170.0,
    );
    let saved = assert_backends_agree("fractional col-mvm k=4", |h| {
        let out = starved.run_with_initial_in(h, &a, &x, Some(&y0));
        (bits(&out.y), out.report)
    });
    assert_eq!(
        saved, 0,
        "a fractional stream rate must decline fast-forward"
    );
}

/// The blocked drivers run every panel on the caller's harness, so under
/// the native backend each panel replays — the row-major and `SpMV`
/// panels after the first carry the previous panel's y in.
#[test]
fn blocked_drivers_backends_agree_on_random_reals() {
    for trial in 0..6 {
        let mut rng = Rng::new(0xB1_0C + trial);
        let k = [2, 4][rng.size(0, 1)];
        let specials = (trial % 3) as u8;

        // Row-major: column panels of width b < cols.
        let (rows, cols) = (rng.size(1, 30), rng.size(k + 1, 50));
        let b = rng.size(k, cols - 1);
        let a = DenseMatrix::from_rows(rows, cols, rng.wide_vec(rows * cols, specials));
        let x = rng.wide_vec(cols, specials);
        let ctx = format!("blocked row-mvm trial={trial} rows={rows} cols={cols} b={b} k={k}");
        let row = BlockedRowMajorMvm::new(RowMajorMvm::standalone(MvmParams::with_k(k), 170.0), b);
        let saved = assert_backends_agree(&ctx, |h| {
            let out = row.run_in(h, &a, &x);
            (bits(&out.y), out.report)
        });
        let cycles = row.run(&a, &x).report.cycles;
        assert_eq!(saved, cycles, "{ctx}: every panel, y0 or not, replays");

        // Column-major: row panels of height b, the last one still
        // ⌈rows/k⌉ ≥ α deep.
        let b = k * rng.size(14, 18) + rng.size(0, k - 1);
        let (rows, cols) = (b + rng.size(14 * k, b), rng.size(1, 20));
        let a = DenseMatrix::from_rows(rows, cols, rng.wide_vec(rows * cols, specials));
        let x = rng.wide_vec(cols, specials);
        let ctx = format!("blocked col-mvm trial={trial} rows={rows} cols={cols} b={b} k={k}");
        let col = BlockedColMajorMvm::new(ColMajorMvm::standalone(MvmParams::with_k(k), 170.0), b);
        let saved = assert_backends_agree(&ctx, |h| {
            let out = col.run_in(h, &a, &x);
            (bits(&out.y), out.report)
        });
        assert_eq!(saved, col.run(&a, &x).report.cycles, "{ctx}: panels replay");

        // SpMV: column panels of width b, empty rows included.
        let (rows, cols) = (rng.size(1, 30), rng.size(k + 1, 40));
        let b = rng.size(1, cols - 1);
        let mut trip = Vec::new();
        for i in 0..rows {
            let len = [0, 1, rng.size(1, 3 * k)][rng.size(0, 2)];
            let start = rng.size(0, cols - 1);
            for j in 0..len.min(cols) {
                trip.push((i, (start + j) % cols, rng.wide_real(specials)));
            }
        }
        let a = CsrMatrix::from_triplets(rows, cols, &trip);
        let x = rng.wide_vec(cols, specials);
        let ctx = format!("blocked spmv trial={trial} rows={rows} cols={cols} b={b} k={k}");
        let spmv = BlockedSpmv::new(SpmvParams::with_k(k), b);
        let saved = assert_backends_agree(&ctx, |h| {
            let out = spmv.run_in(h, &a, &x);
            ((bits(&out.y), out.reduction_buffer_high_water), out.report)
        });
        let cycles = spmv.run(&a, &x).report.cycles;
        assert_eq!(saved, cycles, "{ctx}: every panel, y0 or not, replays");
    }
}

/// The decline rule itself: a *fractional-rate* design violates the
/// fused replay's full-rate precondition (DESIGN.md §13), so under the
/// native backend it must fall back to stepping and still agree.
#[test]
fn fractional_rate_designs_step_identically_under_native() {
    let mut rng = Rng::new(0xF2AC);
    let n = 96;
    let u = rng.wide_vec(n, 2);
    let v = rng.wide_vec(n, 2);
    let mut params = DotParams::with_k(4);
    params.words_per_cycle_per_vector = 2.0; // starved: below k
    let design = DotProductDesign::standalone(params, 170.0);
    let saved = assert_backends_agree("fractional dot n=96 k=4", |h| {
        let out = design.run_in(h, &u, &v);
        (out.result.to_bits(), out.report)
    });
    assert_eq!(saved, 0, "starved channel must decline fast-forward");
}

#[test]
fn linear_array_mm_backends_agree_on_random_reals() {
    let mut saved_total = 0;
    for trial in 0..12 {
        let mut rng = Rng::new(0x3A_77 + trial);
        let k = [2, 4, 8][rng.size(0, 2)];
        // Hazard-free blockings only (m²/k ≥ α = 14): m = 8 for k ≤ 4,
        // m = 16 for every k.
        let m = if k == 8 { 16 } else { [8, 16][rng.size(0, 1)] };
        let n = m * rng.size(1, 2);
        let specials = (trial % 3) as u8;
        let a = DenseMatrix::from_fn(n, n, |_, _| rng.wide_real(specials));
        let b = DenseMatrix::from_fn(n, n, |_, _| rng.wide_real(specials));
        let ctx = format!("mm trial={trial} n={n} m={m} k={k} specials={specials}");
        let mm = LinearArrayMm::on_xd1(MmParams::test(k, m));
        saved_total += assert_backends_agree(&ctx, |h| {
            let out = mm.run_in(h, &a, &b);
            ((bits(out.c.as_slice()), out.hazard_violations), out.report)
        });
    }
    assert!(
        saved_total > 0,
        "no linear-array MM trial ever fast-forwarded"
    );
}

/// The paper's XD1 blocking m = k = 8 breaks §5.1's m²/k ≥ α, so its
/// hazard windows must be stepped, never replayed.
#[test]
fn table4_mm_declines_fast_forward() {
    let mut rng = Rng::new(0x7AB4);
    let a = DenseMatrix::from_rows(16, 16, rng.real_vec(256));
    let b = DenseMatrix::from_rows(16, 16, rng.real_vec(256));
    let mm = LinearArrayMm::on_xd1(MmParams::table4());
    let saved = assert_backends_agree("table4 mm n=16", |h| {
        let out = mm.run_in(h, &a, &b);
        ((bits(out.c.as_slice()), out.hazard_violations), out.report)
    });
    assert_eq!(saved, 0, "m = k = 8 must decline fast-forward");
    let mut h = Harness::with_backend(ExecBackend::Native);
    assert!(mm.run_in(&mut h, &a, &b).hazard_violations > 0);
    assert_eq!(h.ff_cycles(), 0);
}

#[test]
fn spmv_backends_agree_on_random_reals() {
    let mut saved_total = 0;
    for trial in 0..16 {
        let mut rng = Rng::new(0x5B_77 + trial);
        let k = [1, 2, 4, 8][trial as usize % 4];
        let rows = rng.size(1, 40);
        let cols = rng.size(1, 40);
        let specials = (trial % 3) as u8;
        // Empty rows, single entries, short rows and rows longer than k.
        let mut trip = Vec::new();
        for i in 0..rows {
            let len = [0, 1, rng.size(1, k), rng.size(k + 1, 3 * k + 2)][rng.size(0, 3)];
            let start = rng.size(0, cols - 1);
            for j in 0..len.min(cols) {
                trip.push((i, (start + j) % cols, rng.wide_real(specials)));
            }
        }
        let a = CsrMatrix::from_triplets(rows, cols, &trip);
        let x = rng.wide_vec(cols, specials);
        let ctx = format!("spmv trial={trial} rows={rows} cols={cols} k={k} specials={specials}");
        let spmv = SpmvDesign::new(SpmvParams::with_k(k));
        saved_total += assert_backends_agree(&ctx, |h| {
            let out = spmv.run_in(h, &a, &x);
            ((bits(&out.y), out.reduction_buffer_high_water), out.report)
        });
    }
    assert!(saved_total > 0, "no spmv trial ever fast-forwarded");

    // No stored entry: every row bypasses the datapath, in zero cycles
    // on both backends.
    let empty = CsrMatrix::from_triplets(5, 3, &[]);
    let spmv = SpmvDesign::new(SpmvParams::with_k(4));
    for backend in [ExecBackend::Cycle, ExecBackend::Native] {
        let out = spmv.run_in(&mut Harness::with_backend(backend), &empty, &[1.0; 3]);
        assert_eq!(out.report.cycles, 0, "empty spmv on {backend:?}");
        assert_eq!(out.report.words_out, 5);
        assert_eq!(out.y, vec![0.0; 5]);
    }

    // A fractional entry rate breaks the gapless feed: decline.
    let mut rng = Rng::new(0x5B_F2);
    let trip: Vec<_> = (0..60)
        .map(|i| (i % 12, (i * 7) % 12, rng.wide_real(2)))
        .collect();
    let a = CsrMatrix::from_triplets(12, 12, &trip);
    let x = rng.wide_vec(12, 2);
    let starved = SpmvDesign::new(SpmvParams {
        entries_per_cycle: 2.5,
        ..SpmvParams::with_k(4)
    });
    let saved = assert_backends_agree("fractional spmv k=4", |h| {
        let out = starved.run_in(h, &a, &x);
        (bits(&out.y), out.report)
    });
    assert_eq!(
        saved, 0,
        "a fractional entry rate must decline fast-forward"
    );
}

/// The bare circuit has no `SimReport` of its own: compare the run's
/// cycles and busy cycles, its results, its own counters and every
/// component counter.
fn reduce_sets<R: Reducer>(
    h: &mut Harness,
    r: &mut R,
    sets: &[Vec<f64>],
) -> (impl PartialEq + std::fmt::Debug, SimReport) {
    let busy = h.probe().busy_cycles();
    let run = run_sets_in(h, r, sets);
    let results: Vec<(u64, u64)> = run
        .results
        .iter()
        .map(|e| (e.set_id, e.value.to_bits()))
        .collect();
    let report = SimReport {
        cycles: run.total_cycles,
        busy_cycles: h.probe().busy_cycles() - busy,
        ..SimReport::default()
    };
    let counters = (run.stall_cycles, run.buffer_high_water, run.adds_issued);
    ((results, counters, h.probe().component_stats()), report)
}

#[test]
fn reduction_sets_backends_agree_on_random_reals() {
    let mut saved_total = 0;
    for trial in 0..16 {
        let mut rng = Rng::new(0x2E_D5 + trial);
        let n_sets = rng.size(1, 60);
        let specials = (trial % 3) as u8;
        // Size-1 sets, short sets and sets far longer than α.
        let sets: Vec<Vec<f64>> = (0..n_sets)
            .map(|_| {
                let size = [1, rng.size(2, 14), rng.size(15, 80)][rng.size(0, 2)];
                rng.wide_vec(size, specials)
            })
            .collect();
        let ctx = format!("reduce trial={trial} sets={n_sets} specials={specials}");
        saved_total += assert_backends_agree(&ctx, |h| {
            reduce_sets(h, &mut SingleAdderReducer::new(14), &sets)
        });
    }
    assert!(saved_total > 0, "no reduction trial ever fast-forwarded");

    // A circuit that back-pressures its input has no closed-form feed.
    let mut rng = Rng::new(0x2E_F0);
    let sets: Vec<Vec<f64>> = (1..12).map(|s| rng.wide_vec(s, 2)).collect();
    let saved = assert_backends_agree("stalling reducer", |h| {
        reduce_sets(h, &mut StallingReducer::new(14), &sets)
    });
    assert_eq!(saved, 0, "a stalling reducer must decline fast-forward");
}

/// Runs of equal sets switching size mid-run (DESIGN.md §13): the bare
/// circuit replays each run's period once it settles, steps again at
/// every switch, and keeps stepping sets of α and α/2, whose schedule
/// never repeats over one set. Everything must match stepping,
/// including the circuit's occupancy histogram.
#[test]
fn reduction_set_runs_switching_size_backends_agree() {
    let mut saved_total = 0;
    for (trial, runs) in [
        (0u64, vec![(10, 512), (10, 64), (5, 512)]),
        (1, vec![(40, 7), (40, 14)]),
        (2, vec![(30, 1), (30, 2), (12, 20), (3, 1000)]),
    ] {
        let mut rng = Rng::new(0x5E_75 + trial);
        let specials = (trial % 3) as u8;
        let sets: Vec<Vec<f64>> = runs
            .iter()
            .flat_map(|&(n, size)| vec![size; n])
            .map(|size| rng.wide_vec(size, specials))
            .collect();
        let ctx = format!("set runs trial={trial} runs={runs:?}");
        saved_total += assert_backends_agree(&ctx, |h| {
            let mut r = SingleAdderReducer::new(14);
            let (run, report) = reduce_sets(h, &mut r, &sets);
            ((run, r.occupancy_histogram().clone()), report)
        });
    }
    assert!(saved_total > 0, "no set-run trial fast-forwarded");
}

/// With telemetry windows on, a replayed period must land its buffered
/// words, busy marks and latencies in the same windows as stepping —
/// windows that split periods anywhere included.
#[test]
fn steady_state_replay_keeps_telemetry_windows() {
    let mut rng = Rng::new(0x7E_1E);
    let (rows, cols) = (48, 112);
    let a = DenseMatrix::from_rows(rows, cols, rng.wide_vec(rows * cols, 1));
    let x = rng.wide_vec(cols, 1);
    let y0 = rng.wide_vec(rows, 1);
    let sets: Vec<Vec<f64>> = [vec![256; 8], vec![64; 12]]
        .concat()
        .into_iter()
        .map(|size| rng.wide_vec(size, 1))
        .collect();
    let mvm = RowMajorMvm::standalone(MvmParams::with_k(4), 170.0);
    for window in [64, 100, 1000] {
        let run = |backend| {
            let mut h = Harness::with_backend(backend);
            h.enable_telemetry(window);
            let mut r = SingleAdderReducer::new(14);
            let y = bits(&mvm.run_with_reducer_in(&mut h, &a, &x, Some(&y0), &mut r).y);
            let (reduced, _) = reduce_sets(&mut h, &mut SingleAdderReducer::new(14), &sets);
            ((y, reduced, h.take_telemetry()), h.ff_cycles())
        };
        let (cycle, stepped_ff) = run(ExecBackend::Cycle);
        let (native, saved) = run(ExecBackend::Native);
        assert_eq!(stepped_ff, 0);
        assert!(saved > 0, "window {window}: native never fast-forwarded");
        assert_eq!(native, cycle, "window {window}: telemetry diverged");
    }
}
