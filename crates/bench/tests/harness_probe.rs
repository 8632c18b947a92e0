//! Regression tests for the shared harness/probe engine.
//!
//! 1. **Accounting parity** — every design ported onto the shared
//!    [`Harness`] reproduces its pre-refactor `SimReport` numbers
//!    exactly. The numbers below were captured from the bespoke
//!    per-design run loops immediately before the port. The single
//!    intentional change is `asum`'s `busy_cycles` (250 → 278 on the
//!    k = 4, n = 1000 workload): the old loop counted only front-end
//!    fires, while the unified definition also counts cycles where the
//!    reduction circuit accepts a value, matching every other design.
//! 2. **Probe neutrality** — a deep probe (waveforms + stall events)
//!    yields a bit-identical `SimReport` to the default summary probe.
//! 3. **Golden traces** — the Chrome `trace_event` exports of a fixed
//!    dot + `MvM` run, of fixed axpy + scal + asum runs and of fixed
//!    tree-reduce runs (`SpMV`, row-major `MvM` and dot with a stalling
//!    reducer) and of fixed interleaved-accumulator runs (column-major
//!    `MvM` and linear-array blocks) are stable down to the byte.

use fblas_core::dot::{DotParams, DotProductDesign};
use fblas_core::level1::{AsumDesign, AxpyDesign, Level1Params, ScalDesign};
use fblas_core::mm::{BlockEngine, BlockStats, LinearArrayMm, MmParams};
use fblas_core::mvm::{ColMajorMvm, DenseMatrix, MvmParams, RowMajorMvm};
use fblas_core::reduce::{run_sets_in, SingleAdderReducer, StallingReducer};
use fblas_sim::{Harness, SimReport};
use fblas_sparse::{CsrMatrix, SpmvDesign, SpmvParams};

/// Small deterministic vector (same generator the baselines used).
fn v(n: usize, m: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64 * 7 + m) % 13) as f64 - 5.0)
        .collect()
}

fn rep(cycles: u64, flops: u64, words_in: u64, words_out: u64, busy_cycles: u64) -> SimReport {
    SimReport {
        cycles,
        flops,
        words_in,
        words_out,
        busy_cycles,
    }
}

/// The irregular 60-row CSR matrix the sparse baselines used.
fn sparse60() -> CsrMatrix {
    let mut trip = Vec::new();
    for i in 0..60usize {
        trip.push((i, i, 3.0 + (i % 4) as f64));
        for d in 1..=(i % 6) {
            if i + d < 60 {
                trip.push((i, i + d, (d % 3) as f64 + 1.0));
            }
            if i >= d * 3 {
                trip.push((i, i - d * 3, 2.0));
            }
        }
    }
    CsrMatrix::from_triplets(60, 60, &trip)
}

#[test]
fn dot_matches_pre_refactor_accounting() {
    let d = DotProductDesign::standalone(DotParams::table3(), 170.0);
    let o = d.run(&v(2048, 1), &v(2048, 3));
    assert_eq!(o.report, rep(1117, 4096, 4096, 1, 1049));
    assert_eq!(o.reduction_buffer_high_water, 14);

    let d = DotProductDesign::standalone(DotParams::with_k(4), 170.0);
    let o = d.run(&v(1000, 2), &v(1000, 5));
    assert_eq!(o.report, rep(357, 2000, 2000, 1, 289));
    assert_eq!(o.reduction_buffer_high_water, 14);

    let deep = d.run_in(&mut Harness::deep(), &v(1000, 2), &v(1000, 5));
    assert_eq!(
        deep.report, o.report,
        "deep probe must not change accounting"
    );
}

#[test]
fn level1_matches_pre_refactor_accounting() {
    let p = Level1Params::with_k(4);

    let o = AxpyDesign::new(p).run(1.5, &v(1000, 1), &v(1000, 2));
    assert_eq!(o.report, rep(275, 2000, 2000, 1000, 250));
    let deep = AxpyDesign::new(p).run_in(&mut Harness::deep(), 1.5, &v(1000, 1), &v(1000, 2));
    assert_eq!(deep.report, o.report);

    let o = ScalDesign::new(p).run(1.5, &v(1000, 1));
    assert_eq!(o.report, rep(261, 1000, 1000, 1000, 250));
    let deep = ScalDesign::new(p).run_in(&mut Harness::deep(), 1.5, &v(1000, 1));
    assert_eq!(deep.report, o.report);

    // busy_cycles here is the documented correction: 250 front-end fires
    // plus 28 reduction-circuit accepts during the drain (lg 4 · α = 28).
    let o = AsumDesign::new(p).run(&v(1000, 1));
    assert_eq!(o.report, rep(346, 1000, 1000, 1, 278));
    let deep = AsumDesign::new(p).run_in(&mut Harness::deep(), &v(1000, 1));
    assert_eq!(deep.report, o.report);
}

#[test]
fn row_major_mvm_matches_pre_refactor_accounting() {
    let a = DenseMatrix::from_fn(64, 64, |i, j| ((i * 3 + j * 5) % 11) as f64 - 4.0);
    let x = v(64, 4);
    let m = RowMajorMvm::standalone(MvmParams::table3(), 170.0);

    let o = m.run(&a, &x);
    assert_eq!(o.report, rep(1131, 8192, 4096, 64, 1063));
    let deep = m.run_in(&mut Harness::deep(), &a, &x);
    assert_eq!(deep.report, o.report);

    let y0 = v(64, 6);
    let o = m.run_with_initial(&a, &x, Some(&y0));
    assert_eq!(o.report, rep(1195, 8192, 4096, 64, 1124));

    let a48 = DenseMatrix::from_fn(48, 40, |i, j| ((i * 5 + j * 7) % 9) as f64 - 3.0);
    let o = m.run(&a48, &v(40, 2));
    assert_eq!(o.report, rep(576, 3840, 1920, 48, 519));
}

#[test]
fn col_major_mvm_matches_pre_refactor_accounting() {
    let a = DenseMatrix::from_fn(64, 64, |i, j| ((i * 3 + j * 5) % 11) as f64 - 4.0);
    let m = ColMajorMvm::standalone(MvmParams::table3(), 170.0);

    let o = m.run(&a, &v(64, 4));
    assert_eq!(o.report, rep(1049, 8192, 4160, 64, 1035));
    let deep = m.run_in(&mut Harness::deep(), &a, &v(64, 4));
    assert_eq!(deep.report, o.report);

    let a80 = DenseMatrix::from_fn(80, 40, |i, j| ((i * 5 + j * 7) % 9) as f64 - 3.0);
    let o = m.run(&a80, &v(40, 2));
    assert_eq!(o.report, rep(825, 6400, 3240, 80, 811));
}

/// The four interleaved-accumulator runs of the golden trace below.
fn interleaved_runs(h: &mut Harness) -> (Vec<SimReport>, Vec<BlockStats>, Vec<Vec<f64>>) {
    // Column-major with a ragged last chunk (29 rows, k = 2: 15 chunks
    // per column ≥ α) and a carried-in y0.
    let a = DenseMatrix::from_fn(29, 3, |i, j| ((i * 3 + j * 5) % 11) as f64 - 4.0);
    let ragged = ColMajorMvm::standalone(MvmParams::with_k(2), 170.0).run_with_initial_in(
        h,
        &a,
        &v(3, 4),
        Some(&v(29, 6)),
    );
    // Column-major at 2.5 words/cycle: the front end starves.
    let starved = MvmParams {
        matrix_words_per_cycle: 2.5,
        ..MvmParams::with_k(4)
    };
    let a = DenseMatrix::from_fn(57, 2, |i, j| ((i * 5 + j * 7) % 9) as f64 - 3.0);
    let slow = ColMajorMvm::standalone(starved, 170.0).run_in(h, &a, &v(2, 1));
    // A hazard-free block (m²/k = 64 ≥ α) onto a nonzero C′.
    let a = DenseMatrix::from_fn(16, 16, |i, j| ((i * 7 + j) % 5) as f64 - 2.0);
    let b = DenseMatrix::from_fn(16, 16, |i, j| ((i + j * 3) % 7) as f64 - 3.0);
    let mut c16 = v(256, 2);
    let free = BlockEngine::new(MmParams::test(4, 16)).multiply_accumulate_in(h, &a, &b, &mut c16);
    // The Table-4 block (m = k = 8): forwarded hazards.
    let a = DenseMatrix::from_fn(8, 8, |i, j| ((i * 3 + j) % 7) as f64 - 3.0);
    let b = DenseMatrix::from_fn(8, 8, |i, j| ((i + j * 5) % 9) as f64 - 4.0);
    let mut c8 = vec![0.0; 64];
    let t4 = BlockEngine::new(MmParams::table4()).multiply_accumulate_in(h, &a, &b, &mut c8);
    (
        vec![ragged.report, slow.report],
        vec![free, t4],
        vec![ragged.y, slow.y, c16, c8],
    )
}

/// The golden trace's column-major and block runs, summary probe and
/// deep probe alike.
#[test]
fn interleaved_runs_match_pre_refactor_accounting() {
    let stats = |cycles, macs, hazard_violations| BlockStats {
        cycles,
        macs,
        hazard_violations,
    };
    let (reports, blocks, values) = interleaved_runs(&mut Harness::new());
    assert_eq!(
        reports,
        [rep(70, 174, 90, 29, 56), rep(74, 228, 116, 57, 47)]
    );
    assert_eq!(blocks, [stats(1119, 4096, 0), stats(111, 512, 64)]);
    let (deep_reports, deep_blocks, deep_values) = interleaved_runs(&mut Harness::deep());
    assert_eq!(deep_reports, reports);
    assert_eq!(deep_blocks, blocks);
    assert_eq!(deep_values, values);
}

#[test]
fn linear_array_mm_matches_pre_refactor_accounting() {
    let mm = LinearArrayMm::new(MmParams::test(4, 16));
    let a = DenseMatrix::from_fn(32, 32, |i, j| ((i * 7 + j) % 5) as f64 - 2.0);
    let b = DenseMatrix::from_fn(32, 32, |i, j| ((i + j * 3) % 7) as f64 - 3.0);

    let o = mm.run(&a, &b);
    assert_eq!(o.report, rep(8543, 65536, 4096, 1024, 8192));
    let deep = mm.run_in(&mut Harness::deep(), &a, &b);
    assert_eq!(deep.report, o.report);
    assert_eq!(deep.c.as_slice(), o.c.as_slice());
}

#[test]
fn spmv_matches_pre_refactor_accounting() {
    let a = sparse60();
    assert_eq!(a.nnz(), 336);
    let x = v(60, 3);
    let s = SpmvDesign::new(SpmvParams::with_k(4));

    let o = s.run(&a, &x);
    assert_eq!(o.report, rep(171, 672, 672, 60, 153));
    assert_eq!(o.reduction_buffer_high_water, 11);
    let deep = s.run_in(&mut Harness::deep(), &a, &x);
    assert_eq!(deep.report, o.report);

    let o = s.run_with_initial(&a, &x, &v(60, 8));
    assert_eq!(o.report, rep(172, 672, 672, 60, 154));
    assert_eq!(o.reduction_buffer_high_water, 11);
}

/// A 10-row CSR matrix with empty rows and rows longer than k = 4.
fn ragged_sparse() -> CsrMatrix {
    let lens = [0usize, 3, 9, 0, 1, 5, 0, 0, 2, 6];
    let mut trip = Vec::new();
    for (i, &len) in lens.iter().enumerate() {
        for j in 0..len {
            trip.push((i, (i * 3 + j * 7) % 10, ((i + 2 * j) % 7) as f64 - 3.0));
        }
    }
    CsrMatrix::from_triplets(10, 10, &trip)
}

/// The `SpMV` paths no harness entry reaches: an explicit (stalling)
/// reduction circuit and a carried-in y0 over a matrix with empty rows.
#[test]
fn spmv_reducer_and_initial_paths_match_pre_refactor_accounting() {
    let s = SpmvDesign::new(SpmvParams::with_k(4));
    let mut r = StallingReducer::new(14);
    let o = s.run_with_reducer(&sparse60(), &v(60, 3), &mut r);
    assert_eq!(o.report, rep(957, 672, 672, 60, 219));
    assert_eq!(o.reduction_buffer_high_water, 1);

    let a = ragged_sparse();
    let y0 = v(10, 8);
    let o = s.run_with_initial(&a, &v(10, 3), &y0);
    assert_eq!(o.report, rep(71, 52, 52, 10, 20));
    assert_eq!(o.reduction_buffer_high_water, 4);
    let expect: Vec<f64> = a
        .ref_spmv(&v(10, 3))
        .iter()
        .zip(&y0)
        .map(|(r, y)| r + y)
        .collect();
    assert_eq!(o.y, expect);
}

#[test]
fn reduction_run_matches_pre_refactor_accounting() {
    let sets: Vec<Vec<f64>> = (0..150)
        .map(|i| v(1 + (i * 13 + 5) % 40, i as u64))
        .collect();

    let mut r = SingleAdderReducer::new(14);
    let run = run_sets_in(&mut Harness::new(), &mut r, &sets);
    assert_eq!(
        (
            run.total_cycles,
            run.stall_cycles,
            run.buffer_high_water,
            run.adds_issued
        ),
        (3123, 0, 29, 2905)
    );

    let mut r = SingleAdderReducer::new(14);
    let deep = run_sets_in(&mut Harness::deep(), &mut r, &sets);
    assert_eq!(deep.total_cycles, run.total_cycles);
    assert_eq!(deep.results, run.results);
}

/// Deep vs summary probes on one shared harness: the merged `SimReport` of
/// several back-to-back runs must also be bit-identical.
#[test]
fn shared_harness_multi_run_is_probe_neutral() {
    let reports: Vec<SimReport> = [false, true]
        .iter()
        .map(|&deep| {
            let mut h = if deep {
                Harness::deep()
            } else {
                Harness::new()
            };
            let d = DotProductDesign::standalone(DotParams::with_k(4), 170.0);
            let a = DenseMatrix::from_fn(32, 32, |i, j| ((i * 3 + j * 5) % 11) as f64 - 4.0);
            let r1 = d.run_in(&mut h, &v(200, 2), &v(200, 5)).report;
            let r2 = RowMajorMvm::standalone(MvmParams::with_k(4), 170.0)
                .run_in(&mut h, &a, &v(32, 4))
                .report;
            SimReport {
                cycles: r1.cycles + r2.cycles,
                flops: r1.flops + r2.flops,
                words_in: r1.words_in + r2.words_in,
                words_out: r1.words_out + r2.words_out,
                busy_cycles: r1.busy_cycles + r2.busy_cycles,
            }
        })
        .collect();
    assert_eq!(reports[0], reports[1]);
}

/// One fixed small dot + row-major `MvM` run, traced deep on one harness.
fn golden_trace() -> String {
    let mut h = Harness::deep();
    DotProductDesign::standalone(DotParams::with_k(4), 170.0).run_in(&mut h, &v(24, 1), &v(24, 2));
    let a = DenseMatrix::from_fn(8, 8, |i, j| ((i * 3 + j * 5) % 11) as f64 - 4.0);
    RowMajorMvm::standalone(MvmParams::with_k(4), 170.0).run_in(&mut h, &a, &v(8, 4));
    h.probe().chrome_trace()
}

#[test]
fn golden_trace_is_byte_stable() {
    let t = golden_trace();
    assert_eq!(t, golden_trace(), "trace export must be deterministic");
    assert_eq!(
        t,
        include_str!("golden/dot_mvm_trace.json"),
        "Chrome trace drifted from the golden file. If the change is \
         intentional, regenerate with:\n  cargo test -p fblas-bench \
         --test harness_probe -- --ignored regen_golden_trace"
    );
}

#[test]
fn golden_trace_has_components_and_stall_attribution() {
    let t = golden_trace();
    for needle in [
        "\"displayTimeUnit\"",
        "dot/front-end",
        "dot/reduction-buffer",
        "row-mvm/front-end",
        "row-mvm/reduction-buffer",
        "\"ph\":\"M\"",
        "\"ph\":\"C\"",
        "\"ph\":\"X\"",
        "drain",
    ] {
        assert!(t.contains(needle), "trace lacks {needle:?}:\n{t}");
    }
}

#[test]
#[ignore = "writes tests/golden/dot_mvm_trace.json; run after intentional format changes"]
fn regen_golden_trace() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/dot_mvm_trace.json"
    );
    std::fs::write(path, golden_trace()).unwrap();
    println!("rewrote {path}");
}

/// Small axpy, scal and asum runs traced deep on one harness. Deep
/// probes always cycle-step, so this pins the order of the stepped
/// Level-1 waveforms and stall events; scal runs at a fractional stream
/// rate so input-starved stalls appear too.
fn level1_golden_trace() -> String {
    let mut h = Harness::deep();
    let p = Level1Params::with_k(4);
    AxpyDesign::new(p).run_in(&mut h, 1.5, &v(10, 1), &v(10, 2));
    let starved = Level1Params {
        words_per_cycle_per_stream: 2.5,
        ..p
    };
    ScalDesign::new(starved).run_in(&mut h, -2.0, &v(10, 3));
    AsumDesign::new(p).run_in(&mut h, &v(10, 4));
    h.probe().chrome_trace()
}

#[test]
fn level1_golden_trace_is_byte_stable() {
    let t = level1_golden_trace();
    assert_eq!(
        t,
        level1_golden_trace(),
        "trace export must be deterministic"
    );
    for needle in [
        "axpy/pipeline",
        "scal/x-stream",
        "asum/reducer",
        "input-starved",
    ] {
        assert!(t.contains(needle), "trace lacks {needle:?}:\n{t}");
    }
    assert_eq!(
        t,
        include_str!("golden/level1_trace.json"),
        "Chrome trace drifted from the golden file. If the change is \
         intentional, regenerate with:\n  cargo test -p fblas-bench \
         --test harness_probe -- --ignored regen_level1_golden_trace"
    );
}

#[test]
#[ignore = "writes tests/golden/level1_trace.json; run after intentional format changes"]
fn regen_level1_golden_trace() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/level1_trace.json"
    );
    std::fs::write(path, level1_golden_trace()).unwrap();
    println!("rewrote {path}");
}

/// The tree-reduce family's stepped waveforms on one deep harness:
/// `SpMV` at full rate over empty rows and rows longer than k, `SpMV` at
/// 2.5 entries/cycle so input-starved stalls appear, row-major `MvM`
/// with a carried-in y0 and a stalling reducer (injection slots,
/// back-pressure and backlog occupancy), and dot with a stalling
/// reducer.
fn tree_reduce_golden_trace() -> String {
    let mut h = Harness::deep();
    let a = ragged_sparse();
    let x = v(10, 5);
    SpmvDesign::new(SpmvParams::with_k(4)).run_in(&mut h, &a, &x);
    let starved = SpmvParams {
        entries_per_cycle: 2.5,
        ..SpmvParams::with_k(4)
    };
    SpmvDesign::new(starved).run_in(&mut h, &a, &x);
    // k = 1 keeps the front end shallower than the feed, so the gate
    // closes and back-pressure shows within a short run.
    let m = DenseMatrix::from_fn(3, 5, |i, j| ((i * 3 + j * 5) % 11) as f64 - 4.0);
    let mut r = StallingReducer::new(14);
    RowMajorMvm::standalone(MvmParams::with_k(1), 170.0).run_with_reducer_in(
        &mut h,
        &m,
        &v(5, 4),
        Some(&v(3, 6)),
        &mut r,
    );
    let mut r = StallingReducer::new(14);
    DotProductDesign::standalone(DotParams::with_k(1), 170.0).run_with_reducer_in(
        &mut h,
        &v(8, 1),
        &v(8, 2),
        &mut r,
    );
    h.probe().chrome_trace()
}

#[test]
fn tree_reduce_golden_trace_is_byte_stable() {
    let t = tree_reduce_golden_trace();
    assert_eq!(
        t,
        tree_reduce_golden_trace(),
        "trace export must be deterministic"
    );
    for needle in [
        "spmv/backlog",
        "row-mvm/backlog",
        "dot/reducer",
        "input-starved",
        "output-backpressured",
    ] {
        assert!(t.contains(needle), "trace lacks {needle:?}:\n{t}");
    }
    assert_eq!(
        t,
        include_str!("golden/tree_reduce_trace.json"),
        "Chrome trace drifted from the golden file. If the change is \
         intentional, regenerate with:\n  cargo test -p fblas-bench \
         --test harness_probe -- --ignored regen_tree_reduce_golden_trace"
    );
}

#[test]
#[ignore = "writes tests/golden/tree_reduce_trace.json; run after intentional format changes"]
fn regen_tree_reduce_golden_trace() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/tree_reduce_trace.json"
    );
    std::fs::write(path, tree_reduce_golden_trace()).unwrap();
    println!("rewrote {path}");
}

/// The interleaved-accumulator family's stepped waveforms on one deep
/// harness: column-major `MvM` with a ragged last chunk and a y0,
/// column-major at 2.5 words/cycle so input-starved stalls appear, a
/// hazard-free linear-array block onto a nonzero C′, and the Table-4
/// block whose forwarded hazards mark hazard-window stalls.
fn interleaved_golden_trace() -> String {
    let mut h = Harness::deep();
    interleaved_runs(&mut h);
    h.probe().chrome_trace()
}

#[test]
fn interleaved_golden_trace_is_byte_stable() {
    let t = interleaved_golden_trace();
    assert_eq!(
        t,
        interleaved_golden_trace(),
        "trace export must be deterministic"
    );
    for needle in [
        "col-mvm/a-stream",
        "col-mvm/hazard-window",
        "mm/add-pipe",
        "input-starved",
        "\"hazard-window\"",
    ] {
        assert!(t.contains(needle), "trace lacks {needle:?}:\n{t}");
    }
    assert_eq!(
        t,
        include_str!("golden/interleaved_trace.json"),
        "Chrome trace drifted from the golden file. If the change is \
         intentional, regenerate with:\n  cargo test -p fblas-bench \
         --test harness_probe -- --ignored regen_interleaved_golden_trace"
    );
}

#[test]
#[ignore = "writes tests/golden/interleaved_trace.json; run after intentional format changes"]
fn regen_interleaved_golden_trace() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/interleaved_trace.json"
    );
    std::fs::write(path, interleaved_golden_trace()).unwrap();
    println!("rewrote {path}");
}
