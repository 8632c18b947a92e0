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
//! The cells behind Tables 3 and 4 and Figures 9, 11 and 12 are public
//! functions ([`dot`], [`mvm_row`], [`mvm_xd1_l2`], [`mm_hierarchical`],
//! [`mm_model`], [`projection`]). The job list and the table and figure
//! binaries call the same functions, so every paper figure has one
//! producer.
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

use fblas_core::dot::{DotOutcome, DotParams, DotProductDesign};
use fblas_core::level1::{AsumDesign, AxpyDesign, Level1Params, ScalDesign};
use fblas_core::mm::{
    HierarchicalMm, HierarchicalOutcome, HierarchicalParams, LinearArrayMm, MmParams,
};
use fblas_core::mvm::{ColMajorMvm, DenseMatrix, MvmOutcome, MvmParams, RowMajorMvm};
use fblas_core::reduce::{run_sets_in, SingleAdderReducer};
use fblas_fpu::FP_ADDER;
use fblas_mem::DmaModel;
use fblas_metrics::{RecordSet, RunRecord, StallBreakdown, WallClock};
use fblas_sim::{ExecBackend, Harness, TelemSeries};
use fblas_sparse::{SpmvDesign, SpmvParams};
use fblas_system::projection::scaled_sustained_gflops;
use fblas_system::{
    device_peak_flops, io_bound_peak_mvm, AreaModel, ChassisProjection, ClockModel, FpgaDevice,
    ProjectionPoint, Xd1Node, XC2VP100, XC2VP50,
};
use fblas_telemetry::TelemSet;

use crate::pool::{self, Job};
use crate::record_sink::measure;
use crate::synth_int;
use crate::workloads::laplacian_2d;

/// One simulated paper-matrix cell: the kernel's typed output and its
/// finished record, paper tags attached. The matrix keeps the host
/// accounting for its sidecar; a binary prints from `out` and `record`.
pub struct Cell<T> {
    /// The kernel's typed output.
    pub out: T,
    /// The cell's record.
    pub record: RunRecord,
    host: Host,
}

/// What a matrix job yields: a cell's record and host accounting.
type Entry = (RunRecord, Host);

impl<T> Cell<T> {
    fn entry(self) -> Entry {
        (self.record, self.host)
    }
}

/// Host-side accounting of one cell, for the wallclock sidecar and the
/// telemetry store.
#[derive(Default)]
struct Host {
    /// Seconds the kernel or model took.
    seconds: f64,
    /// Whether a harness stepped or fast-forwarded the record's cycles.
    /// Modeled cells count none: their analytic cycles would swamp the
    /// sidecar's cycle-compression ratio.
    simulated: bool,
    /// Cycles the harness fast-forwarded through fused replays during
    /// this cell (0 on the cycle backend, or when the design declined).
    ff_cycles: u64,
    /// The run's sealed telemetry series (`None` with telemetry off,
    /// and for analytic cells that never touch the harness).
    telem: Option<TelemSeries>,
}

/// Host accounting of a model evaluation that took `seconds`.
fn modeled_host(seconds: f64) -> Host {
    Host {
        seconds,
        ..Host::default()
    }
}

/// A job whose record is a model evaluation, timed as a whole.
fn modeled(label: &str, model: fn() -> RunRecord) -> Job<Entry> {
    Job::new(label, move |_h| {
        let t0 = Instant::now();
        let record = model();
        (record, modeled_host(t0.elapsed().as_secs_f64()))
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
) -> (T, StallBreakdown, Host) {
    if let Some(w) = telem_window {
        h.enable_telemetry(w);
    }
    let t0 = Instant::now();
    let ff0 = h.ff_cycles();
    let (out, stalls) = measure(h, run);
    let host = Host {
        seconds: t0.elapsed().as_secs_f64(),
        simulated: true,
        ff_cycles: h.ff_cycles() - ff0,
        telem: telem_window.and_then(|_| h.take_telemetry().pop()),
    };
    (out, stalls, host)
}

/// Table 3's Level-1 cell: the k = 2 dot product on XD1 at n = 2048
/// (256 when `quick`), checked against the host sum. Full runs carry
/// `table3.dot.mflops` and `table3.dot.slices`.
pub fn dot(h: &mut Harness, telem_window: Option<u64>, quick: bool) -> Cell<DotOutcome> {
    let n = if quick { 256 } else { 2048 };
    let dot = DotProductDesign::new(DotParams::table3(), &Xd1Node::default());
    let u = synth_int(1, n, 8);
    let v = synth_int(2, n, 8);
    let (out, stalls, host) = timed(h, telem_window, |h| dot.run_in(h, &u, &v));
    let dref: f64 = u.iter().zip(&v).map(|(a, b)| a * b).sum();
    assert_eq!(out.result, dref, "dot result mismatch");
    let slices = AreaModel::default().dot_design(2);
    let mut record = RunRecord::from_sim(
        "dot",
        &[("k", 2), ("n", n as i64)],
        out.report,
        stalls,
        out.clock.mhz(),
        u64::from(slices),
    );
    if !quick {
        let mflops = record.sustained_mflops;
        record = record
            .with_paper("table3.dot.mflops", mflops)
            .with_paper("table3.dot.slices", f64::from(slices));
    }
    Cell { out, record, host }
}

/// Table 3's Level-2 cell: the k = 4 row-major matrix-vector multiply
/// on XD1 at n = 2048 (128 when `quick`), checked against the host
/// product. Full runs carry `table3.mvm.mflops` and `table3.mvm.slices`.
pub fn mvm_row(h: &mut Harness, telem_window: Option<u64>, quick: bool) -> Cell<MvmOutcome> {
    let n = if quick { 128 } else { 2048 };
    let mvm = RowMajorMvm::new(MvmParams::table3(), &Xd1Node::default());
    let a = DenseMatrix::from_rows(n, n, synth_int(3, n * n, 8));
    let x = synth_int(4, n, 8);
    let (out, stalls, host) = timed(h, telem_window, |h| mvm.run_in(h, &a, &x));
    assert_eq!(out.y, a.ref_mvm(&x), "row-major mvm mismatch");
    let slices = AreaModel::default().mvm_design(4);
    let mut record = RunRecord::from_sim(
        "mvm/row",
        &[("k", 4), ("n", n as i64)],
        out.report,
        stalls,
        out.clock.mhz(),
        u64::from(slices),
    );
    if !quick {
        let mflops = record.sustained_mflops;
        record = record
            .with_paper("table3.mvm.mflops", mflops)
            .with_paper("table3.mvm.slices", f64::from(slices));
    }
    Cell { out, record, host }
}

/// Table 4's Level-2 operands: the 1024 × 1024 matrix A and x.
pub fn xd1_l2_operands() -> (DenseMatrix, Vec<f64>) {
    let n = 1024usize;
    let a = DenseMatrix::from_rows(n, n, synth_int(5, n * n, 8));
    (a, synth_int(6, n, 8))
}

/// Table 4's Level-2 cell: the k = 4 row-major matrix-vector multiply
/// of [`xd1_l2_operands`] on one XD1 FPGA at its Level-2 clock, checked
/// against the host product. The record carries `table4.l2.*`, whose
/// latency adds the DRAM → SRAM staging of A and x to the compute.
pub fn mvm_xd1_l2(h: &mut Harness, telem_window: Option<u64>) -> Cell<MvmOutcome> {
    let (a, x) = xd1_l2_operands();
    let n = a.rows();
    let clock = ClockModel::default().xd1_l2();
    let mvm = RowMajorMvm::standalone(MvmParams::table3(), clock.mhz());
    let (out, stalls, host) = timed(h, telem_window, |h| mvm.run_in(h, &a, &x));
    assert_eq!(out.y, a.ref_mvm(&x), "xd1 level-2 mvm mismatch");
    let dma = DmaModel::xd1_dram();
    let staging_s = dma.transfer_seconds_words((n * n + n) as u64);
    let total_s = out.report.latency_seconds(&clock) + staging_s;
    let sustained = out.report.flops as f64 / total_s;
    let record = RunRecord::from_sim(
        "mvm/xd1-l2",
        &[("k", 4), ("n", n as i64)],
        out.report,
        stalls,
        clock.mhz(),
        u64::from(AreaModel::default().mvm_design_xd1(4)),
    )
    .with_paper("table4.l2.latency-ms", total_s * 1e3)
    .with_paper("table4.l2.mflops", sustained / 1e6)
    .with_paper(
        "table4.l2.peak-pct",
        sustained / io_bound_peak_mvm(dma.bandwidth_bytes_per_s) * 100.0,
    );
    Cell { out, record, host }
}

/// Table 4's Level-3 operands: A and B, 512 × 512.
pub fn hierarchical_operands() -> (DenseMatrix, DenseMatrix) {
    let n = 512usize;
    let a = DenseMatrix::from_rows(n, n, synth_int(7, n * n, 4));
    (a, DenseMatrix::from_rows(n, n, synth_int(8, n * n, 4)))
}

/// Table 4's Level-3 cell: the hierarchical k = m = 8, b = 512 design
/// on one XD1 FPGA over [`hierarchical_operands`]. The record carries
/// `table4.l3.*`. The product is not checked here: a host gemm of this
/// size takes longer than the run itself; `table4` checks it.
///
/// `HierarchicalMm::run` aggregates its blocks analytically (no
/// harness), so stall attribution is empty; classification falls back
/// to arithmetic intensity. The harness never steps a single one of its
/// millions of modeled cycles, so the sidecar times the run but counts
/// none of its cycles.
pub fn mm_hierarchical() -> Cell<HierarchicalOutcome> {
    let (a, b) = hierarchical_operands();
    let hier = HierarchicalMm::new(HierarchicalParams::xd1_single_node());
    let t0 = Instant::now();
    let out = hier.run(&a, &b);
    let host = modeled_host(t0.elapsed().as_secs_f64());
    let record = RunRecord::from_sim(
        "mm/hierarchical",
        &[("b", 512), ("k", 8), ("m", 8), ("n", a.rows() as i64)],
        out.report,
        StallBreakdown::default(),
        out.clock.mhz(),
        u64::from(AreaModel::default().mm_design_xd1(8)),
    )
    .with_paper("table4.l3.gflops", out.sustained_gflops())
    .with_paper(
        "table4.l3.latency-ms",
        out.report.latency_seconds(&out.clock) * 1e3,
    );
    Cell { out, record, host }
}

/// Figure 9's cell at `k` PEs: the modeled clock and area of the
/// linear-array multiplier on the XC2VP50. k = 1 carries
/// `fig9.clock.k1`; the most PEs that fit carries `fig9.clock.k10` and
/// `fig9.max-pes.xc2vp50`.
pub fn mm_model(k: u32) -> RunRecord {
    let area = AreaModel::default();
    let mhz = ClockModel::default().mm_mhz(k);
    let max_pes = area.max_pes(&XC2VP50);
    let mut r = RunRecord::modeled(
        "mm/model",
        &[("k", i64::from(k))],
        mhz,
        u64::from(area.mm_design(k)),
    );
    if k == 1 {
        r = r.with_paper("fig9.clock.k1", mhz);
    }
    if k == max_pes {
        r = r
            .with_paper("fig9.clock.k10", mhz)
            .with_paper("fig9.max-pes.xc2vp50", f64::from(max_pes));
    }
    r
}

/// Figure `figure`'s cell: the projected best point (1600-slice PEs at
/// 200 MHz) of one XD1 chassis of `device`, the XC2VP`part`, checked
/// against XD1's 12.8 GB/s SRAM and 3.2 GB/s DRAM. The record carries
/// `fig<figure>.best.gflops`.
pub fn projection(figure: u32, device: FpgaDevice, part: i64) -> (ProjectionPoint, RunRecord) {
    let best = ChassisProjection::xd1(device).point(1600, 200.0);
    assert!(best.required_sram_bytes_per_s < 12.8e9);
    assert!(best.required_dram_bytes_per_s < 3.2e9);
    let r = RunRecord::modeled("model/projection", &[("xc2vp", part)], 200.0, 1600)
        .with_paper(&format!("fig{figure}.best.gflops"), best.chassis_gflops);
    (best, r)
}

/// The full (or quick) paper matrix as an ordered job list. Submission
/// order is the record order of the serialized set — the byte format —
/// so jobs must be listed here in the canonical sequence.
fn jobs(quick: bool, telem_window: Option<u64>) -> Vec<Job<Entry>> {
    let mut list: Vec<Job<Entry>> = Vec::new();

    // ---- Level 1: dot product (Table 3, k = 2) ----
    list.push(Job::new("dot", move |h| {
        dot(h, telem_window, quick).entry()
    }));

    // ---- Level 1: axpy / scal / asum streams ----
    let n = if quick { 256 } else { 2048 };
    list.push(Job::new("axpy", move |h| {
        let axpy = AxpyDesign::new(Level1Params::with_k(2));
        let x = synth_int(5, n, 8);
        let y = synth_int(6, n, 8);
        let (out, stalls, host) = timed(h, telem_window, |h| axpy.run_in(h, 3.0, &x, &y));
        let r = RunRecord::from_sim(
            "axpy",
            &[("k", 2), ("n", n as i64)],
            out.report,
            stalls,
            out.clock.mhz(),
            0,
        );
        (r, host)
    }));

    list.push(Job::new("scal", move |h| {
        let scal = ScalDesign::new(Level1Params::with_k(2));
        let x = synth_int(5, n, 8);
        let (out, stalls, host) = timed(h, telem_window, |h| scal.run_in(h, 3.0, &x));
        let r = RunRecord::from_sim(
            "scal",
            &[("k", 2), ("n", n as i64)],
            out.report,
            stalls,
            out.clock.mhz(),
            0,
        );
        (r, host)
    }));

    let an = if quick { 200 } else { 1000 };
    list.push(Job::new("asum", move |h| {
        let asum = AsumDesign::new(Level1Params::with_k(4));
        let ax = synth_int(7, an, 8);
        let (out, stalls, host) = timed(h, telem_window, |h| asum.run_in(h, &ax));
        let r = RunRecord::from_sim(
            "asum",
            &[("k", 4), ("n", an as i64)],
            out.report,
            stalls,
            out.clock.mhz(),
            0,
        );
        (r, host)
    }));

    // ---- Level 2: row- and column-major matrix-vector ----
    list.push(Job::new("mvm/row", move |h| {
        mvm_row(h, telem_window, quick).entry()
    }));

    let cn = if quick { 128 } else { 512 };
    list.push(Job::new("mvm/col", move |h| {
        let node = Xd1Node::default();
        let col = ColMajorMvm::new(MvmParams::with_k(4), &node);
        let ca = DenseMatrix::from_rows(cn, cn, synth_int(8, cn * cn, 8));
        let cx = synth_int(9, cn, 8);
        let (out, stalls, host) = timed(h, telem_window, |h| col.run_in(h, &ca, &cx));
        assert_eq!(out.y, ca.ref_mvm(&cx), "col-major mvm mismatch");
        let r = RunRecord::from_sim(
            "mvm/col",
            &[("k", 4), ("n", cn as i64)],
            out.report,
            stalls,
            out.clock.mhz(),
            0,
        );
        (r, host)
    }));

    // ---- Level 2 on XD1 (Table 4): compute + DRAM→SRAM staging ----
    if !quick {
        list.push(Job::new("mvm/xd1-l2", move |h| {
            mvm_xd1_l2(h, telem_window).entry()
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
        let (out, stalls, host) = timed(h, telem_window, |h| mm.run_in(h, &ma, &mb));
        let r = RunRecord::from_sim(
            "mm/linear",
            &[("k", 4), ("m", bm as i64), ("n", bn as i64)],
            out.report,
            stalls,
            out.clock.mhz(),
            u64::from(area.mm_design(4)),
        );
        (r, host)
    }));

    // ---- Level 3: hierarchical design on one XD1 FPGA (Table 4) ----
    if !quick {
        list.push(Job::new("mm/hierarchical", |_h| mm_hierarchical().entry()));
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
        let (run, stalls, host) = timed(h, telem_window, |h| run_sets_in(h, &mut red, &sets));
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
        (r, host)
    }));

    // ---- Sparse matrix-vector (tree design + reduction circuit) ----
    let grid = if quick { 8 } else { 32 };
    list.push(Job::new("spmv", move |h| {
        let sa = laplacian_2d(grid);
        let sn = grid * grid;
        let sx = synth_int(11, sn, 8);
        let spmv = SpmvDesign::new(SpmvParams::with_k(4));
        let (out, stalls, host) = timed(h, telem_window, |h| spmv.run_in(h, &sa, &sx));
        let r = RunRecord::from_sim(
            "spmv",
            &[("k", 4), ("n", sn as i64)],
            out.report,
            stalls,
            out.clock.mhz(),
            0,
        );
        (r, host)
    }));

    // ---- Modeled records: Figure 9 and the §6 projections ----
    list.push(modeled("mm/model[k=1]", || mm_model(1)));
    list.push(modeled("mm/model[k=10]", || mm_model(10)));
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
        projection(11, XC2VP50, 50).1
    }));
    list.push(modeled("model/projection[xc2vp=100]", || {
        projection(12, XC2VP100, 100).1
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
    for (record, host) in entries {
        let cycles = if host.simulated { record.cycles } else { 0 };
        wall.push(&record.key(), cycles, cycles - host.ff_cycles, host.seconds);
        if let Some(series) = host.telem {
            telem_set.push(&record.key(), series);
        }
        set.push(record);
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

    /// Native replays every simulated kernel of the quick matrix except
    /// the linear-array MM, whose hazard windows must step.
    #[test]
    fn native_steps_only_the_hazardous_mm() {
        let (_, wn, _) = run_matrix(true, 1, ExecBackend::Native, None);
        for e in &wn.entries {
            if !e.key.starts_with("mm/linear[") {
                assert_eq!(e.stepped_cycles, 0, "{} stepped under native", e.key);
            }
        }
        assert!(wn.total_stepped_cycles() > 0, "the hazardous MM steps");
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
