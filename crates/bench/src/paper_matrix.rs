//! The canonical paper matrix: one run of every kernel family behind the
//! SC'05 tables and figures, emitted as [`RunRecord`]s.
//!
//! This is the measurement core of the `observatory` binary: `run` and
//! `diff` both execute [`run_matrix`] and persist/compare the resulting
//! [`RecordSet`]. The records are deterministic by construction — the
//! simulator is cycle-accurate and the workloads are seeded — so the
//! serialized set is byte-identical across runs and machines. Host
//! wall-clock throughput (simulated cycles per second) is measured too,
//! but returned in the separate [`WallClock`] sidecar so it never
//! perturbs the committed bytes.
//!
//! Every entry is an independent [`Job`]: it synthesizes its own
//! workload, instantiates its own design and cost models, and runs on a
//! worker-owned harness. [`run_matrix`] schedules the jobs on
//! the shared pool ([`crate::pool`]) and reassembles the records in
//! submission order, so `--jobs N` output is byte-identical to serial
//! (see DESIGN.md §10 for the determinism argument).
//!
//! `quick` mode shrinks the problem sizes and skips the two expensive
//! Level-2/3 XD1 runs so debug-build smoke tests stay fast; quick
//! records carry no paper-parity entries (the paper's numbers are for
//! the full sizes).

use std::time::Instant;

use fblas_core::dot::{DotParams, DotProductDesign};
use fblas_core::level1::{AsumDesign, AxpyDesign, Level1Params, ScalDesign};
use fblas_core::mm::{HierarchicalMm, HierarchicalParams, LinearArrayMm, MmParams};
use fblas_core::mvm::{ColMajorMvm, DenseMatrix, MvmParams, RowMajorMvm};
use fblas_core::reduce::{run_sets_in, SingleAdderReducer};
use fblas_fpu::FP_ADDER;
use fblas_mem::DmaModel;
use fblas_metrics::{RecordSet, RunRecord, StallBreakdown, WallClock};
use fblas_sim::{ExecBackend, Harness, TelemSeries};
use fblas_sparse::{SpmvDesign, SpmvParams};
use fblas_system::projection::scaled_sustained_gflops;
use fblas_system::{
    device_peak_flops, io_bound_peak_mvm, AreaModel, ChassisProjection, ClockModel, Xd1Node,
    XC2VP100, XC2VP50,
};
use fblas_telemetry::TelemSet;

use crate::pool::{self, Job};
use crate::record_sink::measure;
use crate::synth_int;
use crate::workloads::laplacian_2d;

/// What one matrix job yields: the deterministic record, the host
/// seconds its kernel or model took and, when windowed telemetry is on,
/// the run's sealed series.
struct Entry {
    record: RunRecord,
    seconds: f64,
    /// Cycles a harness stepped or fast-forwarded for this job: the
    /// record's cycles for simulated entries, 0 for modeled ones, whose
    /// analytic cycles would swamp the sidecar's cycle-compression ratio.
    harness_cycles: u64,
    /// Cycles the harness fast-forwarded through fused replays during
    /// this job (0 on the cycle backend, or when the design declined).
    ff_cycles: u64,
    /// The run's sealed telemetry series (`None` with telemetry off,
    /// and for analytic entries that never touch the harness).
    telem: Option<TelemSeries>,
}

impl Entry {
    fn simulated(
        record: RunRecord,
        seconds: f64,
        ff_cycles: u64,
        telem: Option<TelemSeries>,
    ) -> Self {
        Self {
            harness_cycles: record.cycles,
            record,
            seconds,
            ff_cycles,
            telem,
        }
    }

    fn modeled(record: RunRecord, seconds: f64) -> Self {
        Self {
            record,
            seconds,
            harness_cycles: 0,
            ff_cycles: 0,
            telem: None,
        }
    }
}

/// A job whose record is a model evaluation, timed as a whole.
fn modeled(label: &str, model: fn() -> RunRecord) -> Job<Entry> {
    Job::new(label, move |_h| {
        let t0 = Instant::now();
        let record = model();
        Entry::modeled(record, t0.elapsed().as_secs_f64())
    })
}

/// Run one simulated kernel on `h`, timing it, attributing its stalls,
/// counting the cycles the backend fast-forwarded and — when a
/// telemetry window is given — harvesting the run's sealed series.
///
/// Telemetry is (re-)enabled on the worker-owned harness before the run;
/// `Probe::enable_telemetry` is idempotent per window width, and the
/// recorded windows are run-relative, so a job's series is independent
/// of whatever ran on the same worker before it — the property that
/// keeps `TELEM_<n>.json` byte-identical at any `--jobs` count.
fn timed<T>(
    h: &mut Harness,
    telem_window: Option<u64>,
    run: impl FnOnce(&mut Harness) -> T,
) -> (T, StallBreakdown, f64, u64, Option<TelemSeries>) {
    if let Some(w) = telem_window {
        h.enable_telemetry(w);
    }
    let t0 = Instant::now();
    let ff0 = h.ff_cycles();
    let (out, stalls) = measure(h, run);
    let secs = t0.elapsed().as_secs_f64();
    let ff = h.ff_cycles() - ff0;
    let telem = if telem_window.is_some() {
        h.take_telemetry().pop()
    } else {
        None
    };
    (out, stalls, secs, ff, telem)
}

/// The full (or quick) paper matrix as an ordered job list. Submission
/// order is the record order of the serialized set — the byte format —
/// so jobs must be listed here in the canonical sequence.
fn jobs(quick: bool, telem_window: Option<u64>) -> Vec<Job<Entry>> {
    let mut list: Vec<Job<Entry>> = Vec::new();

    // ---- Level 1: dot product (Table 3, k = 2) ----
    let n = if quick { 256 } else { 2048 };
    list.push(Job::new("dot", move |h| {
        let node = Xd1Node::default();
        let area = AreaModel::default();
        let dot = DotProductDesign::new(DotParams::table3(), &node);
        let u = synth_int(1, n, 8);
        let v = synth_int(2, n, 8);
        let (out, stalls, secs, ff, telem) = timed(h, telem_window, |h| dot.run_in(h, &u, &v));
        let dref: f64 = u.iter().zip(&v).map(|(a, b)| a * b).sum();
        assert_eq!(out.result, dref, "dot result mismatch");
        let mut r = RunRecord::from_sim(
            "dot",
            &[("k", 2), ("n", n as i64)],
            out.report,
            stalls,
            out.clock.mhz(),
            u64::from(area.dot_design(2)),
        );
        if !quick {
            let mflops = r.sustained_mflops;
            r = r
                .with_paper("table3.dot.mflops", mflops)
                .with_paper("table3.dot.slices", f64::from(area.dot_design(2)));
        }
        Entry::simulated(r, secs, ff, telem)
    }));

    // ---- Level 1: axpy / scal / asum streams ----
    list.push(Job::new("axpy", move |h| {
        let axpy = AxpyDesign::new(Level1Params::with_k(2));
        let x = synth_int(5, n, 8);
        let y = synth_int(6, n, 8);
        let (out, stalls, secs, ff, telem) =
            timed(h, telem_window, |h| axpy.run_in(h, 3.0, &x, &y));
        let r = RunRecord::from_sim(
            "axpy",
            &[("k", 2), ("n", n as i64)],
            out.report,
            stalls,
            out.clock.mhz(),
            0,
        );
        Entry::simulated(r, secs, ff, telem)
    }));

    list.push(Job::new("scal", move |h| {
        let scal = ScalDesign::new(Level1Params::with_k(2));
        let x = synth_int(5, n, 8);
        let (out, stalls, secs, ff, telem) = timed(h, telem_window, |h| scal.run_in(h, 3.0, &x));
        let r = RunRecord::from_sim(
            "scal",
            &[("k", 2), ("n", n as i64)],
            out.report,
            stalls,
            out.clock.mhz(),
            0,
        );
        Entry::simulated(r, secs, ff, telem)
    }));

    let an = if quick { 200 } else { 1000 };
    list.push(Job::new("asum", move |h| {
        let asum = AsumDesign::new(Level1Params::with_k(4));
        let ax = synth_int(7, an, 8);
        let (out, stalls, secs, ff, telem) = timed(h, telem_window, |h| asum.run_in(h, &ax));
        let r = RunRecord::from_sim(
            "asum",
            &[("k", 4), ("n", an as i64)],
            out.report,
            stalls,
            out.clock.mhz(),
            0,
        );
        Entry::simulated(r, secs, ff, telem)
    }));

    // ---- Level 2: row- and column-major matrix-vector ----
    let mn = if quick { 128 } else { 2048 };
    list.push(Job::new("mvm/row", move |h| {
        let node = Xd1Node::default();
        let area = AreaModel::default();
        let mvm = RowMajorMvm::new(MvmParams::table3(), &node);
        let a = DenseMatrix::from_rows(mn, mn, synth_int(3, mn * mn, 8));
        let xv = synth_int(4, mn, 8);
        let (out, stalls, secs, ff, telem) = timed(h, telem_window, |h| mvm.run_in(h, &a, &xv));
        assert_eq!(out.y, a.ref_mvm(&xv), "row-major mvm mismatch");
        let mut r = RunRecord::from_sim(
            "mvm/row",
            &[("k", 4), ("n", mn as i64)],
            out.report,
            stalls,
            out.clock.mhz(),
            u64::from(area.mvm_design(4)),
        );
        if !quick {
            let mflops = r.sustained_mflops;
            r = r
                .with_paper("table3.mvm.mflops", mflops)
                .with_paper("table3.mvm.slices", f64::from(area.mvm_design(4)));
        }
        Entry::simulated(r, secs, ff, telem)
    }));

    let cn = if quick { 128 } else { 512 };
    list.push(Job::new("mvm/col", move |h| {
        let node = Xd1Node::default();
        let col = ColMajorMvm::new(MvmParams::with_k(4), &node);
        let ca = DenseMatrix::from_rows(cn, cn, synth_int(8, cn * cn, 8));
        let cx = synth_int(9, cn, 8);
        let (out, stalls, secs, ff, telem) = timed(h, telem_window, |h| col.run_in(h, &ca, &cx));
        assert_eq!(out.y, ca.ref_mvm(&cx), "col-major mvm mismatch");
        let r = RunRecord::from_sim(
            "mvm/col",
            &[("k", 4), ("n", cn as i64)],
            out.report,
            stalls,
            out.clock.mhz(),
            0,
        );
        Entry::simulated(r, secs, ff, telem)
    }));

    // ---- Level 2 on XD1 (Table 4): compute + DRAM→SRAM staging ----
    if !quick {
        list.push(Job::new("mvm/xd1-l2", move |h| {
            let area = AreaModel::default();
            let clocks = ClockModel::default();
            let n2 = 1024usize;
            let l2_clock = clocks.xd1_l2();
            let l2 = RowMajorMvm::standalone(MvmParams::table3(), l2_clock.mhz());
            let a2 = DenseMatrix::from_rows(n2, n2, synth_int(5, n2 * n2, 8));
            let x2 = synth_int(6, n2, 8);
            let (out, stalls, secs, ff, telem) = timed(h, telem_window, |h| l2.run_in(h, &a2, &x2));
            let dma = DmaModel::xd1_dram();
            let staging_s = dma.transfer_seconds_words((n2 * n2 + n2) as u64);
            let total_s = out.report.latency_seconds(&l2_clock) + staging_s;
            let sustained = out.report.flops as f64 / total_s;
            let r = RunRecord::from_sim(
                "mvm/xd1-l2",
                &[("k", 4), ("n", n2 as i64)],
                out.report,
                stalls,
                l2_clock.mhz(),
                u64::from(area.mvm_design_xd1(4)),
            )
            .with_paper("table4.l2.latency-ms", total_s * 1e3)
            .with_paper("table4.l2.mflops", sustained / 1e6)
            .with_paper(
                "table4.l2.peak-pct",
                sustained / io_bound_peak_mvm(dma.bandwidth_bytes_per_s) * 100.0,
            );
            Entry::simulated(r, secs, ff, telem)
        }));
    }

    // ---- Level 3: linear-array block multiply (§5.1) ----
    list.push(Job::new("mm/linear", move |h| {
        let area = AreaModel::default();
        let bm = 16usize;
        let bn = 32usize;
        let mm = LinearArrayMm::new(MmParams::test(4, bm));
        let ma = DenseMatrix::from_rows(bn, bn, synth_int(5, bn * bn, 4));
        let mb = DenseMatrix::from_rows(bn, bn, synth_int(6, bn * bn, 4));
        let (out, stalls, secs, ff, telem) = timed(h, telem_window, |h| mm.run_in(h, &ma, &mb));
        let r = RunRecord::from_sim(
            "mm/linear",
            &[("k", 4), ("m", bm as i64), ("n", bn as i64)],
            out.report,
            stalls,
            out.clock.mhz(),
            u64::from(area.mm_design(4)),
        );
        Entry::simulated(r, secs, ff, telem)
    }));

    // ---- Level 3: hierarchical design on one XD1 FPGA (Table 4) ----
    // `HierarchicalMm::run` aggregates its blocks analytically (no
    // harness), so stall attribution is empty; classification falls back
    // to arithmetic intensity. The harness never steps a single one of
    // its millions of modeled cycles, so the sidecar times the run but
    // counts none of its cycles.
    if !quick {
        list.push(Job::new("mm/hierarchical", move |_h| {
            let area = AreaModel::default();
            let hp = HierarchicalParams::xd1_single_node();
            let hier = HierarchicalMm::new(hp);
            let n3 = 512usize;
            let ha = DenseMatrix::from_rows(n3, n3, synth_int(7, n3 * n3, 4));
            let hb = DenseMatrix::from_rows(n3, n3, synth_int(8, n3 * n3, 4));
            let t0 = Instant::now();
            let out = hier.run(&ha, &hb);
            let secs = t0.elapsed().as_secs_f64();
            let r = RunRecord::from_sim(
                "mm/hierarchical",
                &[("b", 512), ("k", 8), ("m", 8), ("n", n3 as i64)],
                out.report,
                StallBreakdown::default(),
                out.clock.mhz(),
                u64::from(area.mm_design_xd1(8)),
            )
            .with_paper("table4.l3.gflops", out.sustained_gflops())
            .with_paper(
                "table4.l3.latency-ms",
                out.report.latency_seconds(&out.clock) * 1e3,
            );
            Entry::modeled(r, secs)
        }));
    }

    // ---- Reduction circuit (§4.3, α = adder depth) ----
    let n_sets = if quick { 40 } else { 150 };
    list.push(Job::new("reduce/single-adder", move |h| {
        let area = AreaModel::default();
        let alpha = 14usize;
        let sets: Vec<Vec<f64>> = (0..n_sets)
            .map(|i| synth_int(i as u64, 1 + (i * 53 + 7) % 211, 16))
            .collect();
        let total_words: u64 = sets.iter().map(|s| s.len() as u64).sum();
        let mut red = SingleAdderReducer::new(alpha);
        let (run, stalls, secs, ff, telem) =
            timed(h, telem_window, |h| run_sets_in(h, &mut red, &sets));
        let r = RunRecord::from_sim(
            "reduce/single-adder",
            &[("alpha", alpha as i64), ("sets", n_sets as i64)],
            fblas_sim::SimReport {
                cycles: run.total_cycles,
                flops: run.adds_issued,
                words_in: total_words,
                words_out: sets.len() as u64,
                busy_cycles: run.adds_issued,
            },
            stalls,
            FP_ADDER.clock_mhz,
            u64::from(area.reduction_slices),
        );
        Entry::simulated(r, secs, ff, telem)
    }));

    // ---- Sparse matrix-vector (tree design + reduction circuit) ----
    let grid = if quick { 8 } else { 32 };
    list.push(Job::new("spmv", move |h| {
        let sa = laplacian_2d(grid);
        let sn = grid * grid;
        let sx = synth_int(11, sn, 8);
        let spmv = SpmvDesign::new(SpmvParams::with_k(4));
        let (out, stalls, secs, ff, telem) = timed(h, telem_window, |h| spmv.run_in(h, &sa, &sx));
        let r = RunRecord::from_sim(
            "spmv",
            &[("k", 4), ("n", sn as i64)],
            out.report,
            stalls,
            out.clock.mhz(),
            0,
        );
        Entry::simulated(r, secs, ff, telem)
    }));

    // ---- Modeled records: Figure 9 and the §6 projections ----
    list.push(modeled("mm/model[k=1]", || {
        let area = AreaModel::default();
        let clocks = ClockModel::default();
        RunRecord::modeled(
            "mm/model",
            &[("k", 1)],
            clocks.mm_mhz(1),
            u64::from(area.mm_design(1)),
        )
        .with_paper("fig9.clock.k1", clocks.mm_mhz(1))
    }));
    list.push(modeled("mm/model[k=10]", || {
        let area = AreaModel::default();
        let clocks = ClockModel::default();
        RunRecord::modeled(
            "mm/model",
            &[("k", 10)],
            clocks.mm_mhz(10),
            u64::from(area.mm_design(10)),
        )
        .with_paper("fig9.clock.k10", clocks.mm_mhz(10))
        .with_paper("fig9.max-pes.xc2vp50", f64::from(area.max_pes(&XC2VP50)))
    }));
    list.push(modeled("model/device-peak", || {
        let area = AreaModel::default();
        RunRecord::modeled("model/device-peak", &[], 170.0, 0).with_paper(
            "sec6.device-peak.gflops",
            device_peak_flops(&XC2VP50, &area, 170.0) / 1e9,
        )
    }));
    list.push(modeled("model/chassis[nodes=6]", || {
        RunRecord::modeled("model/chassis", &[("nodes", 6)], 130.0, 0)
            .with_paper("sec6.chassis.gflops", scaled_sustained_gflops(2.06, 6))
    }));
    list.push(modeled("model/chassis[nodes=72]", || {
        RunRecord::modeled("model/chassis", &[("nodes", 72)], 130.0, 0)
            .with_paper("sec6.chassis12.gflops", scaled_sustained_gflops(2.06, 72))
    }));
    list.push(modeled("model/projection[xc2vp=50]", || {
        RunRecord::modeled("model/projection", &[("xc2vp", 50)], 200.0, 1600).with_paper(
            "fig11.best.gflops",
            ChassisProjection::xd1(XC2VP50)
                .point(1600, 200.0)
                .chassis_gflops,
        )
    }));
    list.push(modeled("model/projection[xc2vp=100]", || {
        RunRecord::modeled("model/projection", &[("xc2vp", 100)], 200.0, 1600).with_paper(
            "fig12.best.gflops",
            ChassisProjection::xd1(XC2VP100)
                .point(1600, 200.0)
                .chassis_gflops,
        )
    }));

    list
}

/// Execute the full (or quick) paper matrix on `workers` pool workers
/// under `backend` and return the canonical record set, the
/// host-throughput sidecar and — when `telem_window` is set — one sealed
/// telemetry series per simulated entry at that window width (the
/// analytic hierarchical design never touches a harness and contributes
/// none; with telemetry off the set is empty).
///
/// The record set and the telemetry set are byte-identical for every
/// `workers` value (ordered reduce over independent jobs, run-relative
/// windows on worker-owned harnesses) and for every backend (the native
/// backend replays the exact probe sequence and softfloat operation
/// order, and reconstructs the positioned telemetry of the cycles it
/// skips). Only the sidecar varies: its timings, its
/// `jobs`/`elapsed_seconds`/speedup fields, which backend ran and how
/// many cycles were actually stepped ([`WallClock::backend_speedup`]).
pub fn run_matrix(
    quick: bool,
    workers: usize,
    backend: ExecBackend,
    telem_window: Option<u64>,
) -> (RecordSet, WallClock, TelemSet) {
    let t0 = Instant::now();
    let entries = pool::run_ordered_with_backend(jobs(quick, telem_window), workers, backend);
    let elapsed = t0.elapsed().as_secs_f64();

    let generator = if quick {
        "observatory-quick"
    } else {
        "observatory"
    };
    let mut set = RecordSet::new(generator);
    let mut telem_set = TelemSet::new(
        generator,
        telem_window.unwrap_or(fblas_sim::DEFAULT_TELEM_WINDOW),
    );
    let mut wall = WallClock::new();
    wall.jobs = workers.max(1) as u64;
    wall.backend = backend.to_string();
    wall.elapsed_seconds = elapsed;
    wall.telemetry_window = telem_window;
    for entry in entries {
        wall.push(
            &entry.record.key(),
            entry.harness_cycles,
            entry.harness_cycles - entry.ff_cycles,
            entry.seconds,
        );
        if let Some(series) = entry.telem {
            telem_set.push(&entry.record.key(), series);
        }
        set.push(entry.record);
    }
    (set, wall, telem_set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fblas_metrics::Bound;

    #[test]
    fn quick_matrix_is_deterministic_and_classified() {
        let (a, _, _) = run_matrix(true, 1, ExecBackend::Cycle, None);
        let (b, _, _) = run_matrix(true, 1, ExecBackend::Cycle, None);
        assert_eq!(a.to_json_string(), b.to_json_string());
        // The §4.4 argument recovered from measurements: streaming
        // kernels are bandwidth-bound, the blocked multiplier is not.
        let dot = a.find("dot[k=2,n=256]").expect("dot present");
        assert_eq!(dot.bound, Bound::Bandwidth);
        let mm = a.find("mm/linear[k=4,m=16,n=32]").expect("mm present");
        assert_eq!(mm.bound, Bound::Compute);
    }

    #[test]
    fn quick_matrix_self_diff_is_clean() {
        let (a, _, _) = run_matrix(true, 1, ExecBackend::Cycle, None);
        let (b, _, _) = run_matrix(true, 1, ExecBackend::Cycle, None);
        let d = fblas_metrics::diff_sets(&a, &b);
        assert!(d.passes(), "{}", d.render());
    }

    /// The tentpole invariant: the native backend serializes to the
    /// exact bytes of the cycle-stepped matrix — it replays the probe
    /// sequence and the datapath's softfloat order — and only the
    /// sidecar's backend/stepped-cycle provenance differs.
    #[test]
    fn backends_produce_identical_bytes() {
        let (cycle, wc, _) = run_matrix(true, 1, ExecBackend::Cycle, None);
        let (nat, wn, _) = run_matrix(true, 2, ExecBackend::Native, None);
        assert_eq!(
            cycle.to_json_string(),
            nat.to_json_string(),
            "native bytes diverged"
        );
        // Cycle backend: every cycle stepped, ratio exactly 1.
        assert_eq!(wc.backend, "cycle");
        assert_eq!(wc.total_stepped_cycles(), wc.total_cycles());
        assert!((wc.backend_speedup() - 1.0).abs() < 1e-12);
        // Native backend: same cycle totals, fewer stepped.
        assert_eq!(wn.backend, "native");
        assert_eq!(wn.total_cycles(), wc.total_cycles());
        assert!(
            wn.total_stepped_cycles() < wn.total_cycles(),
            "quick matrix has fast-forwardable kernels"
        );
        assert!(wn.backend_speedup() > 1.0);
    }

    /// The tentpole invariant: the pooled matrix must serialize to the
    /// exact bytes of the serial matrix, for any worker count, and the
    /// sidecar must time every record either way.
    #[test]
    fn parallel_matrix_bytes_match_serial() {
        let (serial, wall1, _) = run_matrix(true, 1, ExecBackend::Cycle, None);
        assert_eq!(wall1.jobs, 1);
        assert_eq!(wall1.entries.len(), serial.records.len());
        for workers in [2, 3, 8] {
            let (pooled, wall, _) = run_matrix(true, workers, ExecBackend::Cycle, None);
            assert_eq!(
                serial.to_json_string(),
                pooled.to_json_string(),
                "bytes diverged at {workers} workers"
            );
            assert_eq!(wall.jobs, workers as u64);
            assert_eq!(wall.entries.len(), wall1.entries.len());
            assert!(wall.elapsed_seconds > 0.0);
        }
    }
}
