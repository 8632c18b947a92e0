//! The paper-matrix workloads, `paper-cycle` and `paper-native`.
//!
//! One pass runs every kernel of the committed paper matrix (the job
//! list of `observatory run`, at the committed sizes) plus real-valued
//! variants of dot, asum and row-major `MvM`, on the shared worker pool,
//! then builds the record set and runs the BENCH (and, with telemetry
//! on, TELEM) render, parse and diff gates and the cross-validation
//! gate. Operands and designs are built in set-up, so a pass times only
//! the calls into the crates.

use std::sync::Arc;
use std::time::Instant;

use fblas_bench::pool::{run_ordered_with_backend, Job};
use fblas_bench::record_sink::measure;
use fblas_bench::workloads::laplacian_2d;
use fblas_bench::{synth, synth_int};
use fblas_check::graph::cross_validate;
use fblas_check::Severity;
use fblas_core::dot::{DotParams, DotProductDesign};
use fblas_core::level1::{AsumDesign, AxpyDesign, Level1Params, ScalDesign};
use fblas_core::mm::{HierarchicalMm, HierarchicalParams, LinearArrayMm, MmParams};
use fblas_core::mvm::{ColMajorMvm, DenseMatrix, MvmParams, RowMajorMvm};
use fblas_core::reduce::{run_sets_in, SingleAdderReducer};
use fblas_fpu::FP_ADDER;
use fblas_mem::DmaModel;
use fblas_metrics::{diff_sets, DiffSeverity, RecordSet, RunRecord, StallBreakdown};
use fblas_sim::{ExecBackend, Harness, SimReport, TelemSeries, DEFAULT_TELEM_WINDOW};
use fblas_sparse::{CsrMatrix, SpmvDesign, SpmvParams};
use fblas_system::projection::scaled_sustained_gflops;
use fblas_system::{
    device_peak_flops, io_bound_peak_mvm, AreaModel, ChassisProjection, ClockModel, Xd1Node,
    XC2VP100, XC2VP50,
};
use fblas_telemetry::TelemSet;

use crate::check::{bit_equal, Expected, Fault, PassVerdicts, Tally};
use crate::host::median;
use crate::trace::{self, SpanId, Trace, NO_SPAN};
use crate::{op_seed, Outcome, Run};

/// The committed artifacts a paper pass is gated against.
const BENCH_FILE: &str = "BENCH_0001.json";
const TELEM_FILE: &str = "TELEM_0001.json";

/// Worker count: the paper matrix runs serially, as its artifacts do.
const WORKERS: usize = 1;

/// How a paper workload drives the matrix.
#[derive(Clone, Copy)]
pub(crate) struct Mode {
    pub(crate) backend: ExecBackend,
    pub(crate) telemetry: Option<u64>,
}

impl Mode {
    pub(crate) fn cycle() -> Self {
        Self {
            backend: ExecBackend::Cycle,
            telemetry: Some(DEFAULT_TELEM_WINDOW),
        }
    }

    pub(crate) fn native() -> Self {
        Self {
            backend: ExecBackend::Native,
            telemetry: None,
        }
    }

    fn native_mode(self) -> bool {
        self.backend == ExecBackend::Native
    }
}

/// A kernel with its design and operands, built in set-up.
enum Kernel {
    Dot(DotProductDesign, Vec<f64>, Vec<f64>),
    Axpy(AxpyDesign, Vec<f64>, Vec<f64>),
    Scal(ScalDesign, Vec<f64>),
    Asum(AsumDesign, Vec<f64>),
    MvmRow(RowMajorMvm, DenseMatrix, Vec<f64>),
    MvmCol(ColMajorMvm, DenseMatrix, Vec<f64>),
    MvmXd1L2(RowMajorMvm, DenseMatrix, Vec<f64>),
    MmLinear(LinearArrayMm, DenseMatrix, DenseMatrix),
    MmHierarchical(HierarchicalMm, DenseMatrix, DenseMatrix),
    Reduce(Vec<Vec<f64>>),
    Spmv(SpmvDesign, CsrMatrix, Vec<f64>),
    Modeled(fn() -> RunRecord),
}

/// One job of the pass.
struct Op {
    /// Record kernel name (`dot`, `dot/real`, ...).
    name: &'static str,
    /// Part of the committed matrix (its record is in `BENCH_0001.json`).
    committed: bool,
    /// Real-valued operands: results are checked against a rounding
    /// bound instead of exactly.
    real: bool,
    kernel: Kernel,
}

/// What one job returns.
#[derive(Clone)]
struct OpRun {
    record: RunRecord,
    values: Vec<f64>,
    telem: Option<TelemSeries>,
    /// Cycles the harness replayed instead of stepping.
    replayed: u64,
    /// Whether the record's cycles came from a harness (not analytic).
    harness: bool,
}

const DOT_N: usize = 2048;
const ASUM_N: usize = 1000;
const MVM_ROW_N: usize = 2048;
const MVM_COL_N: usize = 512;
const XD1_L2_N: usize = 1024;
const MM_BLOCK: usize = 16;
const MM_N: usize = 32;
const HIER_N: usize = 512;
const REDUCE_ALPHA: usize = 14;
const REDUCE_SETS: usize = 150;
const SPMV_GRID: usize = 32;
/// Sizes of the real-valued dot variants; the known native/cycle bit
/// mismatch shows at each of them.
const REAL_DOT_NS: [usize; 3] = [64, 256, 2048];
const REAL_MVM_N: usize = 256;

fn ints(seed: u64, base: u64, len: usize, modulus: u64) -> Vec<f64> {
    synth_int(op_seed(seed, base), len, modulus)
}

fn int_matrix(seed: u64, base: u64, n: usize, modulus: u64) -> DenseMatrix {
    DenseMatrix::from_rows(n, n, ints(seed, base, n * n, modulus))
}

/// Real values of both signs spread over 24 binades, so summation order
/// shows in the last bits of nearly every sum.
fn reals(seed: u64, base: u64, len: usize) -> Vec<f64> {
    let seed = op_seed(seed, base);
    let binades = synth_int(seed ^ 0x5555, len, 24);
    synth(seed, len)
        .into_iter()
        .zip(binades)
        .map(|(v, e)| v * (e - 12.0).exp2())
        .collect()
}

/// Every op of a pass, in record order: the committed matrix first
/// (the order and operand seeds of `observatory run`), then the
/// real-valued variants.
fn build_ops(seed: u64) -> Vec<Op> {
    let committed = |name, kernel| Op {
        name,
        committed: true,
        real: false,
        kernel,
    };
    let real = |name, kernel| Op {
        name,
        committed: false,
        real: true,
        kernel,
    };
    let node = Xd1Node::default();
    let dot = || DotProductDesign::new(DotParams::table3(), &node);
    let asum = || AsumDesign::new(Level1Params::with_k(4));
    let mvm_row = || RowMajorMvm::new(MvmParams::table3(), &node);
    let l1 = || Level1Params::with_k(2);
    let l2_mhz = ClockModel::default().xd1_l2().mhz();
    let sets = (0..REDUCE_SETS)
        .map(|i| ints(seed, i as u64, 1 + (i * 53 + 7) % 211, 16))
        .collect();
    let mut ops = vec![
        committed(
            "dot",
            Kernel::Dot(dot(), ints(seed, 1, DOT_N, 8), ints(seed, 2, DOT_N, 8)),
        ),
        committed(
            "axpy",
            Kernel::Axpy(
                AxpyDesign::new(l1()),
                ints(seed, 5, DOT_N, 8),
                ints(seed, 6, DOT_N, 8),
            ),
        ),
        committed(
            "scal",
            Kernel::Scal(ScalDesign::new(l1()), ints(seed, 5, DOT_N, 8)),
        ),
        committed("asum", Kernel::Asum(asum(), ints(seed, 7, ASUM_N, 8))),
        committed(
            "mvm/row",
            Kernel::MvmRow(
                mvm_row(),
                int_matrix(seed, 3, MVM_ROW_N, 8),
                ints(seed, 4, MVM_ROW_N, 8),
            ),
        ),
        committed(
            "mvm/col",
            Kernel::MvmCol(
                ColMajorMvm::new(MvmParams::with_k(4), &node),
                int_matrix(seed, 8, MVM_COL_N, 8),
                ints(seed, 9, MVM_COL_N, 8),
            ),
        ),
        committed(
            "mvm/xd1-l2",
            Kernel::MvmXd1L2(
                RowMajorMvm::standalone(MvmParams::table3(), l2_mhz),
                int_matrix(seed, 5, XD1_L2_N, 8),
                ints(seed, 6, XD1_L2_N, 8),
            ),
        ),
        committed(
            "mm/linear",
            Kernel::MmLinear(
                LinearArrayMm::new(MmParams::test(4, MM_BLOCK)),
                int_matrix(seed, 5, MM_N, 4),
                int_matrix(seed, 6, MM_N, 4),
            ),
        ),
        committed(
            "mm/hierarchical",
            Kernel::MmHierarchical(
                HierarchicalMm::new(HierarchicalParams::xd1_single_node()),
                int_matrix(seed, 7, HIER_N, 4),
                int_matrix(seed, 8, HIER_N, 4),
            ),
        ),
        committed("reduce/single-adder", Kernel::Reduce(sets)),
        committed(
            "spmv",
            Kernel::Spmv(
                SpmvDesign::new(SpmvParams::with_k(4)),
                laplacian_2d(SPMV_GRID),
                ints(seed, 11, SPMV_GRID * SPMV_GRID, 8),
            ),
        ),
    ];
    ops.extend(MODELED.map(|m| committed("model", Kernel::Modeled(m))));
    for (j, n) in (0u64..).zip(REAL_DOT_NS) {
        let (u, v) = (reals(seed, 100 + 2 * j, n), reals(seed, 101 + 2 * j, n));
        ops.push(real("dot/real", Kernel::Dot(dot(), u, v)));
    }
    ops.push(real(
        "asum/real",
        Kernel::Asum(asum(), reals(seed, 110, ASUM_N)),
    ));
    let a = reals(seed, 111, REAL_MVM_N * REAL_MVM_N);
    ops.push(real(
        "mvm/row/real",
        Kernel::MvmRow(
            mvm_row(),
            DenseMatrix::from_rows(REAL_MVM_N, REAL_MVM_N, a),
            reals(seed, 112, REAL_MVM_N),
        ),
    ));
    ops
}

/// The modeled records of Figure 9 and the §6 projections.
const MODELED: [fn() -> RunRecord; 7] = [
    || {
        let (area, clocks) = (AreaModel::default(), ClockModel::default());
        RunRecord::modeled(
            "mm/model",
            &[("k", 1)],
            clocks.mm_mhz(1),
            u64::from(area.mm_design(1)),
        )
        .with_paper("fig9.clock.k1", clocks.mm_mhz(1))
    },
    || {
        let (area, clocks) = (AreaModel::default(), ClockModel::default());
        RunRecord::modeled(
            "mm/model",
            &[("k", 10)],
            clocks.mm_mhz(10),
            u64::from(area.mm_design(10)),
        )
        .with_paper("fig9.clock.k10", clocks.mm_mhz(10))
        .with_paper("fig9.max-pes.xc2vp50", f64::from(area.max_pes(&XC2VP50)))
    },
    || {
        let area = AreaModel::default();
        RunRecord::modeled("model/device-peak", &[], 170.0, 0).with_paper(
            "sec6.device-peak.gflops",
            device_peak_flops(&XC2VP50, &area, 170.0) / 1e9,
        )
    },
    || {
        RunRecord::modeled("model/chassis", &[("nodes", 6)], 130.0, 0)
            .with_paper("sec6.chassis.gflops", scaled_sustained_gflops(2.06, 6))
    },
    || {
        RunRecord::modeled("model/chassis", &[("nodes", 72)], 130.0, 0)
            .with_paper("sec6.chassis12.gflops", scaled_sustained_gflops(2.06, 72))
    },
    || {
        RunRecord::modeled("model/projection", &[("xc2vp", 50)], 200.0, 1600).with_paper(
            "fig11.best.gflops",
            ChassisProjection::xd1(XC2VP50)
                .point(1600, 200.0)
                .chassis_gflops,
        )
    },
    || {
        RunRecord::modeled("model/projection", &[("xc2vp", 100)], 200.0, 1600).with_paper(
            "fig12.best.gflops",
            ChassisProjection::xd1(XC2VP100)
                .point(1600, 200.0)
                .chassis_gflops,
        )
    },
];

/// Per-job context: where spans go and whether telemetry is sampled.
struct JobCtx<'a> {
    trace: &'a Trace,
    job: SpanId,
    telemetry: Option<u64>,
}

/// One design call, ready to become a record.
struct Ran {
    report: SimReport,
    clock_mhz: f64,
    stalls: StallBreakdown,
    values: Vec<f64>,
    telem: Option<TelemSeries>,
    replayed: u64,
    harness: bool,
}

impl Ran {
    fn record(&self, name: &str, config: &[(&str, i64)], slices: u32) -> RunRecord {
        RunRecord::from_sim(
            name,
            config,
            self.report,
            self.stalls,
            self.clock_mhz,
            u64::from(slices),
        )
    }
}

impl JobCtx<'_> {
    /// Run a harness-backed design call inside span `span`, with its
    /// stalls, replayed cycles and telemetry series; `parts` extracts
    /// the report, clock and output values from its outcome.
    fn sim<T>(
        &self,
        h: &mut Harness,
        span: &'static str,
        run: impl FnOnce(&mut Harness) -> T,
        parts: impl FnOnce(T) -> (SimReport, f64, Vec<f64>),
    ) -> Ran {
        if let Some(w) = self.telemetry {
            h.enable_telemetry(w);
        }
        let ff0 = h.ff_cycles();
        let (out, stalls) = self.trace.span(span, self.job, |_| measure(h, run));
        let replayed = h.ff_cycles() - ff0;
        let telem = self.telemetry.and_then(|_| h.take_telemetry().pop());
        let (report, clock_mhz, values) = parts(out);
        Ran {
            report,
            clock_mhz,
            stalls,
            values,
            telem,
            replayed,
            harness: true,
        }
    }
}

fn size(n: usize) -> i64 {
    i64::try_from(n).expect("size fits i64")
}

impl Op {
    /// Run the op on a worker's harness.
    fn run(&self, h: &mut Harness, ctx: &JobCtx) -> OpRun {
        let area = AreaModel::default();
        let name = self.name;
        let n = |len: usize| ("n", size(len));
        let ran = match &self.kernel {
            Kernel::Dot(d, u, v) => ctx.sim(
                h,
                "core.dot",
                |h| d.run_in(h, u, v),
                |o| (o.report, o.clock.mhz(), vec![o.result]),
            ),
            Kernel::Axpy(d, x, y) => ctx.sim(
                h,
                "core.axpy",
                |h| d.run_in(h, 3.0, x, y),
                |o| (o.report, o.clock.mhz(), o.result),
            ),
            Kernel::Scal(d, x) => ctx.sim(
                h,
                "core.scal",
                |h| d.run_in(h, 3.0, x),
                |o| (o.report, o.clock.mhz(), o.result),
            ),
            Kernel::Asum(d, x) => ctx.sim(
                h,
                "core.asum",
                |h| d.run_in(h, x),
                |o| (o.report, o.clock.mhz(), vec![o.result]),
            ),
            Kernel::MvmRow(d, a, x) => ctx.sim(
                h,
                "core.mvm_row",
                |h| d.run_in(h, a, x),
                |o| (o.report, o.clock.mhz(), o.y),
            ),
            Kernel::MvmCol(d, a, x) => ctx.sim(
                h,
                "core.mvm_col",
                |h| d.run_in(h, a, x),
                |o| (o.report, o.clock.mhz(), o.y),
            ),
            Kernel::MvmXd1L2(d, a, x) => ctx.sim(
                h,
                "core.mvm_xd1_l2",
                |h| d.run_in(h, a, x),
                |o| (o.report, o.clock.mhz(), o.y),
            ),
            Kernel::MmLinear(d, a, b) => ctx.sim(
                h,
                "core.mm_linear",
                |h| d.run_in(h, a, b),
                |o| (o.report, o.clock.mhz(), o.c.as_slice().to_vec()),
            ),
            Kernel::MmHierarchical(d, a, b) => {
                // Analytic: aggregates its blocks without a harness.
                let o = ctx
                    .trace
                    .span("core.mm_hierarchical", ctx.job, |_| d.run(a, b));
                Ran {
                    report: o.report,
                    clock_mhz: o.clock.mhz(),
                    stalls: StallBreakdown::default(),
                    values: o.c.as_slice().to_vec(),
                    telem: None,
                    replayed: 0,
                    harness: false,
                }
            }
            Kernel::Reduce(sets) => {
                let mut reducer = SingleAdderReducer::new(REDUCE_ALPHA);
                ctx.sim(
                    h,
                    "core.reduce",
                    |h| run_sets_in(h, &mut reducer, sets),
                    |o| {
                        let report = SimReport {
                            cycles: o.total_cycles,
                            flops: o.adds_issued,
                            words_in: sets.iter().map(|s| s.len() as u64).sum(),
                            words_out: sets.len() as u64,
                            busy_cycles: o.adds_issued,
                        };
                        let mut sums = vec![f64::NAN; sets.len()];
                        for event in &o.results {
                            if let Some(slot) = usize::try_from(event.set_id)
                                .ok()
                                .and_then(|i| sums.get_mut(i))
                            {
                                *slot = event.value;
                            }
                        }
                        (report, FP_ADDER.clock_mhz, sums)
                    },
                )
            }
            Kernel::Spmv(d, a, x) => ctx.sim(
                h,
                "sparse.spmv",
                |h| d.run_in(h, a, x),
                |o| (o.report, o.clock.mhz(), o.y),
            ),
            Kernel::Modeled(build) => {
                return OpRun {
                    record: ctx.trace.span("metrics.record", ctx.job, |_| build()),
                    values: Vec::new(),
                    telem: None,
                    replayed: 0,
                    harness: false,
                };
            }
        };
        let record = ctx
            .trace
            .span("metrics.record", ctx.job, |_| match &self.kernel {
                Kernel::Dot(_, u, _) => {
                    let r = ran.record(name, &[("k", 2), n(u.len())], area.dot_design(2));
                    let mflops = r.sustained_mflops;
                    if self.committed {
                        r.with_paper("table3.dot.mflops", mflops)
                            .with_paper("table3.dot.slices", f64::from(area.dot_design(2)))
                    } else {
                        r
                    }
                }
                Kernel::Axpy(_, x, _) | Kernel::Scal(_, x) => {
                    ran.record(name, &[("k", 2), n(x.len())], 0)
                }
                Kernel::Asum(_, x) => ran.record(name, &[("k", 4), n(x.len())], 0),
                Kernel::MvmRow(_, a, _) => {
                    let r = ran.record(name, &[("k", 4), n(a.rows())], area.mvm_design(4));
                    let mflops = r.sustained_mflops;
                    if self.committed {
                        r.with_paper("table3.mvm.mflops", mflops)
                            .with_paper("table3.mvm.slices", f64::from(area.mvm_design(4)))
                    } else {
                        r
                    }
                }
                Kernel::MvmCol(_, a, _) => ran.record(name, &[("k", 4), n(a.rows())], 0),
                Kernel::MvmXd1L2(_, a, _) => {
                    let n2 = a.rows();
                    let l2_clock = ClockModel::default().xd1_l2();
                    let dma = DmaModel::xd1_dram();
                    let staging_s = dma.transfer_seconds_words((n2 * n2 + n2) as u64);
                    let total_s = ran.report.latency_seconds(&l2_clock) + staging_s;
                    let sustained = ran.report.flops as f64 / total_s;
                    ran.record(name, &[("k", 4), n(n2)], area.mvm_design_xd1(4))
                        .with_paper("table4.l2.latency-ms", total_s * 1e3)
                        .with_paper("table4.l2.mflops", sustained / 1e6)
                        .with_paper(
                            "table4.l2.peak-pct",
                            sustained / io_bound_peak_mvm(dma.bandwidth_bytes_per_s) * 100.0,
                        )
                }
                Kernel::MmLinear(_, a, _) => ran.record(
                    name,
                    &[("k", 4), ("m", size(MM_BLOCK)), n(a.rows())],
                    area.mm_design(4),
                ),
                Kernel::MmHierarchical(..) => {
                    let clock = fblas_sim::ClockDomain::from_mhz(ran.clock_mhz);
                    let latency_s = ran.report.latency_seconds(&clock);
                    ran.record(
                        name,
                        &[("b", 512), ("k", 8), ("m", 8), n(HIER_N)],
                        area.mm_design_xd1(8),
                    )
                    .with_paper("table4.l3.gflops", ran.report.sustained_flops(&clock) / 1e9)
                    .with_paper("table4.l3.latency-ms", latency_s * 1e3)
                }
                Kernel::Reduce(sets) => ran.record(
                    name,
                    &[("alpha", size(REDUCE_ALPHA)), ("sets", size(sets.len()))],
                    area.reduction_slices,
                ),
                Kernel::Spmv(_, a, _) => ran.record(name, &[("k", 4), n(a.n_rows())], 0),
                Kernel::Modeled(_) => unreachable!("modeled ops returned above"),
            });
        OpRun {
            record,
            values: ran.values,
            telem: ran.telem,
            replayed: ran.replayed,
            harness: ran.harness,
        }
    }

    /// The software reference for the op's output values.
    fn expected(&self) -> Expected {
        let summed = |rows: Vec<(f64, f64)>, terms: usize| {
            let (values, magnitude): (Vec<f64>, Vec<f64>) = rows.into_iter().unzip();
            if self.real {
                Expected::summed(values, &magnitude, terms)
            } else {
                Expected::exact(values)
            }
        };
        let dot = |u: &[f64], v: &[f64]| {
            (
                fblas_sw::dot::dot_naive(u, v),
                u.iter().zip(v).map(|(a, b)| (a * b).abs()).sum::<f64>(),
            )
        };
        let mvm = |a: &DenseMatrix, x: &[f64]| {
            let rows = (0..a.rows())
                .map(|i| dot(&a.as_slice()[i * a.cols()..(i + 1) * a.cols()], x))
                .collect();
            summed(rows, a.cols())
        };
        let gemm = |a: &DenseMatrix, b: &DenseMatrix| {
            Expected::exact(fblas_sw::gemm::gemm_naive(
                a.as_slice(),
                b.as_slice(),
                a.rows(),
            ))
        };
        match &self.kernel {
            Kernel::Dot(_, u, v) => summed(vec![dot(u, v)], u.len()),
            Kernel::Axpy(_, x, y) => {
                let mut out = y.clone();
                fblas_sw::level1::axpy(3.0, x, &mut out);
                Expected::exact(out)
            }
            Kernel::Scal(_, x) => {
                let mut out = x.clone();
                fblas_sw::level1::scal(3.0, &mut out);
                Expected::exact(out)
            }
            Kernel::Asum(_, x) => {
                let s = fblas_sw::level1::asum(x);
                summed(vec![(s, s)], x.len())
            }
            Kernel::MvmRow(_, a, x) | Kernel::MvmCol(_, a, x) | Kernel::MvmXd1L2(_, a, x) => {
                mvm(a, x)
            }
            Kernel::MmLinear(_, a, b) | Kernel::MmHierarchical(_, a, b) => gemm(a, b),
            Kernel::Reduce(sets) => Expected::exact(sets.iter().map(|s| s.iter().sum()).collect()),
            Kernel::Spmv(_, a, x) => Expected::exact(
                (0..a.n_rows())
                    .map(|i| a.row(i).map(|(j, v)| v * x[j]).sum())
                    .collect(),
            ),
            Kernel::Modeled(_) => Expected::exact(Vec::new()),
        }
    }
}

/// Everything built before the first timed pass.
pub(crate) struct Setup {
    ops: Arc<Vec<Op>>,
    bench: RecordSet,
    bench_text: String,
    telem: Option<(TelemSet, String)>,
    /// Cycle-stepped outputs of every op (native mode only).
    cycle_ref: Option<Vec<OpRun>>,
}

fn load(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

impl Setup {
    pub(crate) fn build(seed: u64, mode: Mode) -> Result<Self, String> {
        let ops = Arc::new(build_ops(seed));
        let bench_text = load(BENCH_FILE)?;
        let bench = RecordSet::from_json_str(&bench_text)?;
        let telem = match mode.telemetry {
            Some(_) => {
                let text = load(TELEM_FILE)?;
                Some((TelemSet::from_json_str(&text)?, text))
            }
            None => None,
        };
        let cycle_ref = mode.native_mode().then(|| {
            run_ops(
                &ops,
                &Trace::off(),
                NO_SPAN,
                Mode {
                    backend: ExecBackend::Cycle,
                    telemetry: None,
                },
            )
        });
        Ok(Self {
            ops,
            bench,
            bench_text,
            telem,
            cycle_ref,
        })
    }
}

/// Run every op on the pool.
fn run_ops(ops: &Arc<Vec<Op>>, trace: &Trace, parent: SpanId, mode: Mode) -> Vec<OpRun> {
    let jobs: Vec<Job<OpRun>> = (0..ops.len())
        .map(|i| {
            let ops = Arc::clone(ops);
            let trace = trace.clone();
            Job::new(ops[i].name, move |h| {
                trace.span("bench.job", parent, |job| {
                    let ctx = JobCtx {
                        trace: &trace,
                        job,
                        telemetry: mode.telemetry,
                    };
                    ops[i].run(h, &ctx)
                })
            })
        })
        .collect();
    run_ordered_with_backend(jobs, WORKERS, mode.backend)
}

/// The outputs of one pass that the verdicts look at.
struct Pass {
    wall_s: f64,
    runs: Vec<OpRun>,
    bench_text: String,
    bench_parsed: Result<RecordSet, String>,
    diff: Option<fblas_metrics::DiffReport>,
    gate: Option<fblas_check::drc::Report>,
    /// Rendered TELEM text and, if it parsed back, the keys whose
    /// series drifted from the committed TELEM.
    telem: Option<(String, Result<Vec<String>, String>)>,
}

/// The TELEM diff gate: keys whose series is missing from, or differs
/// from, the committed telemetry.
fn telem_drift(committed: Option<&TelemSet>, run: &TelemSet) -> Vec<String> {
    run.runs
        .iter()
        .filter(|r| committed.and_then(|c| c.find(&r.key)) != Some(r))
        .map(|r| r.key.clone())
        .collect()
}

fn pass(setup: &Setup, mode: Mode, trace: &Trace) -> Pass {
    let t0 = Instant::now();
    let mut out = trace.span("pass", NO_SPAN, |root| {
        let runs = trace.span("bench.pool", root, |pool| {
            run_ops(&setup.ops, trace, pool, mode)
        });
        let (set, telem_set) = trace.span("metrics.collect", root, |_| {
            let mut set = RecordSet::new("observatory");
            let mut telem = mode.telemetry.map(|w| TelemSet::new("observatory", w));
            for (op, run) in setup.ops.iter().zip(&runs) {
                if !op.committed {
                    continue;
                }
                if let (Some(t), Some(series)) = (&mut telem, &run.telem) {
                    t.push(&run.record.key(), series.clone());
                }
                set.push(run.record.clone());
            }
            (set, telem)
        });
        let bench_text = trace.span("metrics.render", root, |_| set.to_json_string());
        let bench_parsed = trace.span("metrics.parse", root, |_| {
            RecordSet::from_json_str(&bench_text)
        });
        let diff = trace.span("metrics.diff", root, |_| {
            bench_parsed
                .as_ref()
                .ok()
                .map(|p| diff_sets(&setup.bench, p))
        });
        let gate = trace.span("check.gate", root, |_| {
            bench_parsed.as_ref().ok().map(cross_validate)
        });
        let telem = telem_set.map(|t| {
            let text = trace.span("telemetry.render", root, |_| t.to_json_string());
            let parsed = trace.span("telemetry.parse", root, |_| TelemSet::from_json_str(&text));
            let drift = trace.span("telemetry.diff", root, |_| {
                let committed = setup.telem.as_ref().map(|(c, _)| c);
                parsed.map(|p| telem_drift(committed, &p))
            });
            (text, drift)
        });
        Pass {
            wall_s: 0.0,
            runs,
            bench_text,
            bench_parsed,
            diff,
            gate,
            telem,
        }
    });
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

/// Judge one pass: references, committed artifacts, gates and, in
/// native mode, bit agreement with cycle stepping.
fn judge(setup: &Setup, pass: &Pass, expected: &[Expected], seed: u64) -> PassVerdicts {
    let labels: Vec<String> = pass.runs.iter().map(|r| r.record.key()).collect();
    let mut v = PassVerdicts::new(labels.clone());
    let committed_inputs = seed == crate::DEFAULT_SEED;
    for (i, (op, run)) in setup.ops.iter().zip(&pass.runs).enumerate() {
        if let Err(e) = expected[i].check(&run.values) {
            v.fail(i, Fault::Reference, e);
        }
        if let Some(cycle) = &setup.cycle_ref {
            if run.record != cycle[i].record {
                v.fail(
                    i,
                    Fault::BitAgreement,
                    "record differs from cycle stepping".to_string(),
                );
            }
            if let Err(e) = bit_equal(&run.values, &cycle[i].values) {
                v.fail(i, Fault::BitAgreement, e);
            }
        }
        if op.committed && committed_inputs && setup.bench.find(&labels[i]) != Some(&run.record) {
            v.fail(
                i,
                Fault::Committed,
                format!("record differs from {BENCH_FILE}"),
            );
        }
    }
    if let Err(e) = &pass.bench_parsed {
        v.unattributed(format!("BENCH render/parse: {e}"));
    }
    if committed_inputs && pass.bench_text != setup.bench_text {
        v.unattributed(format!(
            "rendered records are not byte-identical to {BENCH_FILE}"
        ));
    }
    for finding in pass.diff.iter().flat_map(|d| &d.findings) {
        if finding.severity == DiffSeverity::Regression {
            v.gate_error(&format!("{} {}", finding.key, finding.message));
        }
    }
    for d in pass.gate.iter().flat_map(|g| &g.diagnostics) {
        if d.severity == Severity::Error {
            v.gate_error(&d.message);
        }
    }
    if let (Some((text, drift)), Some((_, committed_text))) = (&pass.telem, &setup.telem) {
        match drift {
            Err(e) => v.unattributed(format!("TELEM render/parse: {e}")),
            Ok(keys) => {
                for key in keys {
                    v.gate_error(&format!("{key} telemetry differs from {TELEM_FILE}"));
                }
            }
        }
        if committed_inputs && text != committed_text {
            v.unattributed(format!(
                "rendered telemetry is not byte-identical to {TELEM_FILE}"
            ));
        }
    }
    v
}

/// Per-pass counts that do not depend on timing.
struct Counts {
    harness_cycles: u64,
    replayed_cycles: u64,
    flops: u64,
}

fn counts(runs: &[OpRun]) -> Counts {
    let harnessed = || runs.iter().filter(|r| r.harness);
    Counts {
        harness_cycles: harnessed().map(|r| r.record.cycles).sum(),
        replayed_cycles: harnessed().map(|r| r.replayed).sum(),
        flops: harnessed().map(|r| r.record.flops).sum(),
    }
}

/// Span names of the harness-backed design calls.
const KERNEL_SPANS: [&str; 10] = [
    "core.dot",
    "core.axpy",
    "core.scal",
    "core.asum",
    "core.mvm_row",
    "core.mvm_col",
    "core.mvm_xd1_l2",
    "core.mm_linear",
    "core.reduce",
    "sparse.spmv",
];

/// Per-layer metrics of one traced pass.
fn layer_metrics(spans: &[trace::Span], runs: &[OpRun]) -> Vec<(String, f64)> {
    let c = counts(runs);
    let stepped = c.harness_cycles - c.replayed_cycles;
    let kernel_s: f64 = KERNEL_SPANS.iter().map(|n| trace::total(spans, n)).sum();
    let mut m: Vec<(String, f64)> = vec![
        ("fpu.flops".into(), c.flops as f64),
        ("sim.stepped_cycles".into(), stepped as f64),
        ("sim.replayed_cycles".into(), c.replayed_cycles as f64),
        (
            "sim.ns_per_stepped_cycle".into(),
            kernel_s * 1e9 / stepped.max(1) as f64,
        ),
    ];
    for name in KERNEL_SPANS.iter().chain(&["core.mm_hierarchical"]) {
        m.push((format!("{name}_s"), trace::total(spans, name)));
    }
    m.push((
        "telemetry.render_s".into(),
        trace::total(spans, "telemetry.render"),
    ));
    m.extend(crate::common_layer_metrics(spans, WORKERS));
    m
}

/// Run a paper workload.
pub(crate) fn run(run: &Run, mode: Mode) -> Result<Outcome, String> {
    let build = || Setup::build(run.seed, mode);
    let mut setup_times = Vec::new();
    let mut setup = crate::set_up(&mut setup_times, None, build)?;
    // References are computed once, outside set-up and every timed pass.
    let expected: Vec<Expected> = setup.ops.iter().map(Op::expected).collect();
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut untelemetered = Vec::new();
    let mut layers = Vec::new();
    let mut all_spans = Vec::new();
    let mut cycles = 0;
    let t0 = Instant::now();
    while walls.len() < crate::MIN_PASSES || t0.elapsed().as_secs_f64() < run.seconds {
        if !walls.is_empty() {
            setup = crate::set_up(&mut setup_times, Some(setup), build)?;
        }
        let mut traced_pass = |tally: &mut Tally| {
            let trace = Trace::on();
            let p = pass(&setup, mode, &trace);
            tally.add(judge(&setup, &p, &expected, run.seed));
            let spans = trace.take();
            traced_walls.push(p.wall_s);
            layers.push(layer_metrics(&spans, &p.runs));
            all_spans.extend(spans);
        };
        // Traced runs alternate which pass goes first, so neither side
        // of `trace.overhead_s` always runs on a warmer machine.
        let traced_first = walls.len() % 2 == 1;
        if run.trace && traced_first {
            traced_pass(&mut tally);
        }
        let p = pass(&setup, mode, &Trace::off());
        tally.add(judge(&setup, &p, &expected, run.seed));
        walls.push(p.wall_s);
        cycles = counts(&p.runs).harness_cycles;
        if run.trace && !traced_first {
            traced_pass(&mut tally);
        }
        if run.trace && mode.telemetry.is_some() {
            let quiet = Mode {
                telemetry: None,
                ..mode
            };
            let p = pass(&setup, quiet, &Trace::off());
            tally.add(judge(&setup, &p, &expected, run.seed));
            untelemetered.push(p.wall_s);
        }
    }

    let wall_s = median(&walls);
    crate::print_passes(&walls);
    let metrics = if run.trace {
        let probe_overhead = if untelemetered.is_empty() {
            0.0
        } else {
            wall_s - median(&untelemetered)
        };
        let mut m = crate::layer_medians(&layers);
        m.extend(crate::fpu_metrics(run.seed));
        m.push(("telemetry.probe_overhead_s".into(), probe_overhead));
        m.push(("trace.overhead_s".into(), median(&traced_walls) - wall_s));
        m
    } else {
        crate::end_to_end(wall_s, cycles as f64, median(&setup_times), &tally)
    };
    Ok(Outcome {
        backend: mode.backend.to_string(),
        workers: WORKERS,
        passes: walls.len(),
        tally,
        metrics,
        spans: all_spans,
    })
}
