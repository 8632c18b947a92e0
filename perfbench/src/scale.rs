//! The `scale-ladder` workload: the full multi-FPGA ladder of
//! `observatory scale` (MM over 1–12 FPGAs, both `MvM` orientations over
//! 1–6), one plan per job on two pool workers, then the finalize step,
//! the SCALE render, parse and diff gates, and the scale-store and
//! link-budget gates.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use fblas_bench::pool::{run_ordered_with_backend, Job};
use fblas_bench::scale_matrix::{finalize, mm_operands, mvm_operands, MM_KERNEL};
use fblas_bench::synth_int;
use fblas_check::{check_scale_set, fabric_link_budget_report, Severity};
use fblas_core::mvm::{ColMajorMvm, DenseMatrix, MvmParams, RowMajorMvm};
use fblas_fabric::{mm_plans, mvm_plans, FabricMm, FabricMvm, LinkReport, Orientation};
use fblas_metrics::{diff_scale, ScaleRecord, ScaleSet};
use fblas_sim::{ExecBackend, Harness, SimReport};

use crate::check::{Expected, Fault, PassVerdicts, Tally};
use crate::host::median;
use crate::trace::{self, SpanId, Trace, NO_SPAN};
use crate::{op_seed, Outcome, Run};

const SCALE_FILE: &str = "SCALE_0001.json";

/// Pool workers, capped at the host's parallelism.
fn workers() -> usize {
    2.min(crate::host::nproc())
}

enum Design {
    Mm(FabricMm),
    Mvm(FabricMvm),
}

/// Operands per problem order, shared by every width of a ladder.
struct Operands {
    mm: BTreeMap<usize, (DenseMatrix, DenseMatrix)>,
    mvm: BTreeMap<usize, (DenseMatrix, Vec<f64>)>,
}

/// The committed campaign's operands at the default seed; otherwise
/// seeded operands of the same value classes (small dyadic values, so
/// every product and sum is exact).
fn operands(seed: u64, mm_ns: &[usize], mvm_ns: &[usize]) -> Operands {
    let draw = |base: u64, len: usize, modulus: u64| synth_int(op_seed(seed, base), len, modulus);
    let mm = mm_ns
        .iter()
        .map(|&n| {
            let ops = if seed == crate::DEFAULT_SEED {
                mm_operands(n)
            } else {
                let a = draw(301, n * n, 8).into_iter().map(|v| v - 3.5).collect();
                let b = draw(302, n * n, 9).into_iter().map(|v| v * 0.25).collect();
                (
                    DenseMatrix::from_rows(n, n, a),
                    DenseMatrix::from_rows(n, n, b),
                )
            };
            (n, ops)
        })
        .collect();
    let mvm = mvm_ns
        .iter()
        .map(|&n| {
            let ops = if seed == crate::DEFAULT_SEED {
                mvm_operands(n)
            } else {
                let a = draw(303, n * n, 5).into_iter().map(|v| v - 2.0).collect();
                let x = draw(304, n, 11)
                    .into_iter()
                    .map(|v| v * 0.5 - 2.5)
                    .collect();
                (DenseMatrix::from_rows(n, n, a), x)
            };
            (n, ops)
        })
        .collect();
    Operands { mm, mvm }
}

/// Everything built before the first timed pass.
struct Setup {
    designs: Arc<Vec<Design>>,
    operands: Arc<Operands>,
    committed: ScaleSet,
    committed_text: String,
}

impl Setup {
    fn build(seed: u64) -> Result<Self, String> {
        let mm = mm_plans(false);
        let mvm = mvm_plans(false);
        let mm_ns: Vec<usize> = mm.iter().map(|p| p.n).collect();
        let mvm_ns: Vec<usize> = mvm.iter().map(|p| p.n).collect();
        let designs = mm
            .into_iter()
            .map(|p| Design::Mm(FabricMm::on_xd1(p)))
            .chain(mvm.into_iter().map(|p| Design::Mvm(FabricMvm::on_xd1(p))))
            .collect();
        let committed_text = std::fs::read_to_string(SCALE_FILE)
            .map_err(|e| format!("cannot read {SCALE_FILE}: {e}"))?;
        Ok(Self {
            designs: Arc::new(designs),
            operands: Arc::new(operands(seed, &mm_ns, &mvm_ns)),
            committed: ScaleSet::from_json_str(&committed_text)?,
            committed_text,
        })
    }
}

/// What one plan's job returns.
struct PlanRun {
    record: ScaleRecord,
    values: Vec<f64>,
    replayed: u64,
}

/// The raw (pre-finalize) record of a plan, as `observatory scale`
/// builds it.
fn raw_record(
    design: &Design,
    report: &SimReport,
    starved: u64,
    backpressured: u64,
    links: &[LinkReport],
) -> ScaleRecord {
    let (kernel, shards, chassis, n, k, m, clock_mhz) = match design {
        Design::Mm(d) => {
            let p = d.plan();
            (MM_KERNEL, p.shards, p.chassis, p.n, p.k, p.m, p.clock_mhz)
        }
        Design::Mvm(d) => {
            let p = d.plan();
            (
                p.orientation.kernel(),
                p.shards,
                1,
                p.n,
                p.k,
                0,
                p.clock_mhz,
            )
        }
    };
    ScaleRecord {
        kernel: kernel.to_string(),
        shards: shards as u64,
        chassis: chassis as u64,
        n: n as u64,
        k: k as u64,
        m: m as u64,
        cycles: report.cycles,
        flops: report.flops,
        words_in: report.words_in,
        words_out: report.words_out,
        busy_cycles: report.busy_cycles,
        stalls_starved: starved,
        stalls_backpressured: backpressured,
        link_words_forwarded: links.iter().map(|l| l.forwarded_words).sum(),
        link_congestion_cycles: links.iter().map(|l| l.congestion_cycles).sum(),
        link_max_backlog_words: links.iter().map(|l| l.max_backlog_words).max().unwrap_or(0),
        clock_mhz,
        sustained_mflops: 0.0,
        baseline_cycles: 0,
        speedup: 0.0,
        efficiency: 0.0,
        modeled_mflops: 0.0,
        divergence: 0.0,
        within_bound: false,
    }
}

fn run_plan(
    design: &Design,
    ops: &Operands,
    h: &mut Harness,
    trace: &Trace,
    job: SpanId,
) -> PlanRun {
    let ff0 = h.ff_cycles();
    let (record, values) = match design {
        Design::Mm(d) => {
            let (a, b) = &ops.mm[&d.plan().n];
            let out = trace.span("fabric.mm", job, |_| d.run_in(h, a, b));
            let record = trace.span("metrics.record", job, |_| {
                raw_record(
                    design,
                    &out.report,
                    out.starved_cycles,
                    out.backpressured_cycles,
                    &out.links,
                )
            });
            (record, out.c.as_slice().to_vec())
        }
        Design::Mvm(d) => {
            let (a, x) = &ops.mvm[&d.plan().n];
            let out = trace.span("fabric.mvm", job, |_| d.run_in(h, a, x));
            let record = trace.span("metrics.record", job, |_| {
                raw_record(
                    design,
                    &out.report,
                    out.starved_cycles,
                    out.backpressured_cycles,
                    &out.links,
                )
            });
            (record, out.y)
        }
    };
    PlanRun {
        record,
        values,
        replayed: h.ff_cycles() - ff0,
    }
}

struct Pass {
    wall_s: f64,
    runs: Vec<PlanRun>,
    set: ScaleSet,
    text: String,
    parsed: Result<ScaleSet, String>,
    diff: Option<fblas_metrics::ScaleDiff>,
    gates: Vec<fblas_check::drc::Report>,
}

fn pass(setup: &Setup, trace: &Trace) -> Pass {
    let t0 = Instant::now();
    let mut out = trace.span("pass", NO_SPAN, |root| {
        let runs = trace.span("bench.pool", root, |pool| {
            let jobs: Vec<Job<PlanRun>> = (0..setup.designs.len())
                .map(|i| {
                    let designs = Arc::clone(&setup.designs);
                    let ops = Arc::clone(&setup.operands);
                    let trace = trace.clone();
                    Job::new("plan", move |h| {
                        trace.span("bench.job", pool, |job| {
                            run_plan(&designs[i], &ops, h, &trace, job)
                        })
                    })
                })
                .collect();
            run_ordered_with_backend(jobs, workers(), ExecBackend::Cycle)
        });
        let set = trace.span("bench.finalize", root, |_| {
            let mut set = ScaleSet::new("observatory");
            set.records = finalize(runs.iter().map(|r| r.record.clone()).collect());
            set
        });
        let text = trace.span("metrics.render", root, |_| set.to_json_string());
        let parsed = trace.span("metrics.parse", root, |_| ScaleSet::from_json_str(&text));
        let diff = trace.span("metrics.diff", root, |_| {
            parsed
                .as_ref()
                .ok()
                .map(|p| diff_scale(p, &setup.committed))
        });
        let gates = trace.span("check.gate", root, |_| {
            let mut gates = vec![fabric_link_budget_report()];
            gates.extend(parsed.as_ref().ok().map(check_scale_set));
            gates
        });
        Pass {
            wall_s: 0.0,
            runs,
            set,
            text,
            parsed,
            diff,
            gates,
        }
    });
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

/// Software references, one per plan, computed once per operand set.
fn references(setup: &Setup) -> Vec<Expected> {
    let mm: BTreeMap<usize, Vec<f64>> = setup
        .operands
        .mm
        .iter()
        .map(|(&n, (a, b))| (n, fblas_sw::gemm::gemm_naive(a.as_slice(), b.as_slice(), n)))
        .collect();
    let mvm: BTreeMap<usize, Vec<f64>> = setup
        .operands
        .mvm
        .iter()
        .map(|(&n, (a, x))| (n, a.ref_mvm(x)))
        .collect();
    setup
        .designs
        .iter()
        .map(|d| match d {
            Design::Mm(d) => Expected::exact(mm[&d.plan().n].clone()),
            Design::Mvm(d) => Expected::exact(mvm[&d.plan().n].clone()),
        })
        .collect()
}

fn judge(setup: &Setup, pass: &Pass, expected: &[Expected], seed: u64) -> PassVerdicts {
    let labels: Vec<String> = pass.set.records.iter().map(ScaleRecord::cell).collect();
    let mut v = PassVerdicts::new(labels.clone());
    let committed_inputs = seed == crate::DEFAULT_SEED;
    for (i, run) in pass.runs.iter().enumerate() {
        if let Err(e) = expected[i].check(&run.values) {
            v.fail(i, Fault::Reference, e);
        }
        if committed_inputs && setup.committed.find(&labels[i]) != Some(&pass.set.records[i]) {
            v.fail(
                i,
                Fault::Committed,
                format!("record differs from {SCALE_FILE}"),
            );
        }
    }
    match &pass.parsed {
        Err(e) => v.unattributed(format!("SCALE render/parse: {e}")),
        Ok(parsed) if *parsed != pass.set => {
            v.unattributed("SCALE did not survive a render/parse round trip".to_string());
        }
        Ok(_) => {}
    }
    if committed_inputs && pass.text != setup.committed_text {
        v.unattributed(format!(
            "rendered ladder is not byte-identical to {SCALE_FILE}"
        ));
    }
    for line in pass.diff.iter().flat_map(|d| &d.lines) {
        if line.contains("DRIFT") || line.contains("MISSING") {
            v.gate_error(line);
        }
    }
    for report in &pass.gates {
        for d in &report.diagnostics {
            if d.severity == Severity::Error {
                v.gate_error(&format!("{}: {}", report.design, d.message));
            }
        }
    }
    v
}

/// Host seconds of the fabric value stage alone: each MM plan's
/// unsharded product and each `MvM` plan's slice designs, on the plan's
/// operands and a fresh cycle harness, as the fabric computes them.
fn value_stage_s(setup: &Setup) -> f64 {
    let ops = &setup.operands;
    let t0 = Instant::now();
    for design in setup.designs.iter() {
        match design {
            Design::Mm(d) => {
                let (a, b) = &ops.mm[&d.plan().n];
                std::hint::black_box(d.unsharded().run_in(&mut Harness::new(), a, b));
            }
            Design::Mvm(d) => {
                let plan = d.plan();
                let (a, x) = &ops.mvm[&plan.n];
                let params = MvmParams::with_k(plan.k);
                for j in 0..plan.shards {
                    let (r0, r1) = plan.rows_of(j);
                    let slice = DenseMatrix::from_fn(r1 - r0, plan.n, |i, c| a.at(r0 + i, c));
                    std::hint::black_box(match plan.orientation {
                        Orientation::Row => {
                            RowMajorMvm::standalone(params, plan.clock_mhz).run(&slice, x)
                        }
                        Orientation::Col => {
                            ColMajorMvm::standalone(params, plan.clock_mhz).run(&slice, x)
                        }
                    });
                }
            }
        }
    }
    t0.elapsed().as_secs_f64()
}

#[allow(clippy::cast_precision_loss)]
fn layer_metrics(spans: &[trace::Span], p: &Pass, values_s: f64) -> Vec<(String, f64)> {
    let cycles: u64 = p.runs.iter().map(|r| r.record.cycles).sum();
    let replayed: u64 = p.runs.iter().map(|r| r.replayed).sum();
    let stepped = cycles - replayed;
    let fabric_s = trace::total(spans, "fabric.mm") + trace::total(spans, "fabric.mvm");
    let schedule_s = fabric_s - values_s;
    let mut m: Vec<(String, f64)> = vec![
        (
            "fpu.flops".into(),
            p.runs.iter().map(|r| r.record.flops as f64).sum(),
        ),
        ("sim.stepped_cycles".into(), stepped as f64),
        ("sim.replayed_cycles".into(), replayed as f64),
        (
            "sim.ns_per_stepped_cycle".into(),
            schedule_s * 1e9 / stepped.max(1) as f64,
        ),
        ("fabric.values_s".into(), values_s),
        ("fabric.schedule_s".into(), schedule_s),
        (
            "fabric.link_words".into(),
            p.runs
                .iter()
                .map(|r| r.record.link_words_forwarded as f64)
                .sum(),
        ),
        (
            "fabric.congestion_cycles".into(),
            p.runs
                .iter()
                .map(|r| r.record.link_congestion_cycles as f64)
                .sum(),
        ),
    ];
    m.extend(crate::common_layer_metrics(spans, workers()));
    m
}

pub(crate) fn run(run: &Run) -> Result<Outcome, String> {
    let build = || Setup::build(run.seed);
    let mut setup_times = Vec::new();
    let mut setup = crate::set_up(&mut setup_times, None, build)?;
    // References are computed once, outside set-up and every timed pass.
    let expected = references(&setup);
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let mut cycles = 0;
    let mut traced = None;
    let t0 = Instant::now();
    while walls.len() < crate::MIN_PASSES || t0.elapsed().as_secs_f64() < run.seconds {
        if !walls.is_empty() {
            setup = crate::set_up(&mut setup_times, Some(setup), build)?;
        }
        let p = pass(&setup, &Trace::off());
        tally.add(judge(&setup, &p, &expected, run.seed));
        walls.push(p.wall_s);
        cycles = p.runs.iter().map(|r| r.record.cycles).sum::<u64>();
        if run.trace {
            // One untraced and one traced pass: a ladder pass is long.
            let trace = Trace::on();
            let p = pass(&setup, &trace);
            tally.add(judge(&setup, &p, &expected, run.seed));
            traced = Some((p, trace.take()));
            break;
        }
    }
    let wall_s = median(&walls);
    crate::print_passes(&walls);
    let (metrics, spans) = match traced {
        None => (
            crate::end_to_end(wall_s, cycles as f64, median(&setup_times), &tally),
            Vec::new(),
        ),
        Some((p, spans)) => {
            let mut m = layer_metrics(&spans, &p, value_stage_s(&setup));
            m.extend(crate::fpu_metrics(run.seed));
            m.push(("trace.overhead_s".into(), p.wall_s - wall_s));
            (m, spans)
        }
    };
    Ok(Outcome {
        backend: ExecBackend::Cycle.to_string(),
        workers: workers(),
        passes: walls.len(),
        tally,
        metrics,
        spans,
    })
}
