//! Additional Level-1 BLAS streaming designs: axpy, scal, asum, nrm2.
//!
//! The paper studies dot product as *the* representative Level-1
//! operation (§4.1) because it is the only one that needs the reduction
//! circuit; a usable BLAS library also ships the other Level-1 routines,
//! and on the reconfigurable-system model they are straightforward
//! streaming designs built from the same parts:
//!
//! * [`AxpyDesign`] — y ← a·x + y: k multiplier/adder lanes, 2k words in
//!   and k words out per cycle (the most bandwidth-hungry Level-1 op:
//!   3 words of traffic per 2 flops).
//! * [`ScalDesign`] — x ← a·x: k multiplier lanes, k words each way.
//!
//!   Both are one elementwise lane design: each public type fills in its
//!   input streams (x and y, or x), the per-lane op, the pipeline depth
//!   and the flops per element, and its probe component ids.
//! * [`AsumDesign`] — Σ|xᵢ|: magnitude extraction is free in hardware
//!   (drop the sign bit), then the §4.1 adder tree + §4.3 reduction
//!   circuit accumulate, exactly like dot product with one input stream:
//!   a group source of the shared [`crate::tree_reduce`] design.
//! * [`nrm2`] — ‖x‖₂ via the dot-product design plus a host-side square
//!   root (XD1's intended FPGA/processor split; a hardware sqrt unit
//!   would pipeline the same way as the adder).
//!
//! These are extensions beyond the paper's evaluation; DESIGN.md lists
//! them as such.

use crate::dot::{DotOutcome, DotParams, DotProductDesign};
use crate::reduce::{ReduceInput, SingleAdderReducer};
use crate::report::SimReport;
use crate::tree_reduce::{Feed, GroupSource, Slot, TreeIds, TreeRun};
use fblas_fpu::softfloat::{add_f64, balanced_sum, mul_f64, SIGN_MASK};
use fblas_fpu::{ADDER_STAGES, MULTIPLIER_STAGES};
use fblas_mem::{ReadChannel, WriteChannel};
use fblas_sim::{
    flip_f64_bit, ClockDomain, DelayLine, DepthRuns, Design, EdgeKind, FaultKind, FaultSpec,
    Harness, Probe, ProbeId, StallCause, Topology,
};
use fblas_system::io_bound_peak_dot;

/// Parameters of the streaming Level-1 designs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Level1Params {
    /// Parallel lanes.
    pub k: usize,
    /// Adder pipeline depth α.
    pub adder_stages: usize,
    /// Multiplier pipeline depth.
    pub mult_stages: usize,
    /// Words per cycle each input stream sustains.
    pub words_per_cycle_per_stream: f64,
}

impl Level1Params {
    /// A k-lane configuration fed at full rate.
    pub fn with_k(k: usize) -> Self {
        Self {
            k,
            adder_stages: ADDER_STAGES,
            mult_stages: MULTIPLIER_STAGES,
            words_per_cycle_per_stream: k as f64,
        }
    }
}

/// Result of a streaming Level-1 run producing a vector.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// The output vector.
    pub result: Vec<f64>,
    /// Cycle/flop/word accounting.
    pub report: SimReport,
    /// Clock domain (tree-design rate, 170 MHz).
    pub clock: ClockDomain,
}

/// y ← a·x + y on k multiplier/adder lanes.
///
/// # Examples
///
/// ```
/// use fblas_core::level1::{AxpyDesign, Level1Params};
///
/// let axpy = AxpyDesign::new(Level1Params::with_k(2));
/// let out = axpy.run(2.0, &[1.0, 2.0, 3.0], &[10.0, 10.0, 10.0]);
/// assert_eq!(out.result, vec![12.0, 14.0, 16.0]);
/// ```
#[derive(Debug, Clone)]
pub struct AxpyDesign {
    params: Level1Params,
    clock: ClockDomain,
}

impl AxpyDesign {
    /// Instantiate at the tree-design clock.
    pub fn new(params: Level1Params) -> Self {
        Self {
            params,
            clock: ClockDomain::from_mhz(170.0),
        }
    }

    /// The parameter set.
    pub fn params(&self) -> &Level1Params {
        &self.params
    }

    /// Static channel graph: two input streams into k lockstep
    /// multiplier/adder lanes, one output stream. Feed-forward — no
    /// feedback loop, so deadlock-freedom is structural.
    pub fn topology(&self) -> Topology {
        let p = &self.params;
        let mut t = Topology::new(format!("axpy[k={}]", p.k));
        let x = t.source("x-stream");
        let y = t.source("y-stream");
        let mult = t.pe("mult-bank", p.k as f64);
        let add = t.pe("adder-bank", p.k as f64);
        let out = t.sink("out-stream");
        let rate = p.words_per_cycle_per_stream;
        t.edge(
            "x-feed",
            x,
            mult,
            EdgeKind::Channel {
                words_per_cycle: rate,
                flops_per_word: 1.0,
            },
        );
        t.edge(
            "y-feed",
            y,
            add,
            EdgeKind::Channel {
                words_per_cycle: rate,
                flops_per_word: 1.0,
            },
        );
        t.edge(
            "mult-pipe",
            mult,
            add,
            EdgeKind::Delay {
                stages: p.mult_stages,
            },
        );
        let tail = t.junction("out-port");
        t.edge(
            "add-pipe",
            add,
            tail,
            EdgeKind::Delay {
                stages: p.adder_stages,
            },
        );
        t.edge(
            "out-feed",
            tail,
            out,
            EdgeKind::Channel {
                words_per_cycle: rate,
                flops_per_word: 0.0,
            },
        );
        t
    }

    /// Compute `a·x + y`, cycle by cycle.
    pub fn run(&self, a: f64, x: &[f64], y: &[f64]) -> StreamOutcome {
        self.run_in(&mut Harness::new(), a, x, y)
    }

    /// [`AxpyDesign::run`] through a caller-supplied harness, so the
    /// run's stall attribution and channel waveforms land in the
    /// caller's probe.
    pub fn run_in(&self, harness: &mut Harness, a: f64, x: &[f64], y: &[f64]) -> StreamOutcome {
        assert_eq!(x.len(), y.len(), "axpy needs equal-length vectors");
        let lanes = Lanes {
            name: "axpy",
            op: |a, [x, y]: [f64; 2]| add_f64(mul_f64(a, x), y),
            flops_per_elem: 2,
            // Lockstep lanes: multiply then add, one batch per cycle.
            stages: self.params.mult_stages + self.params.adder_stages,
            register: |probe| LaneIds {
                lanes: probe.component("axpy/lanes"),
                streams: [
                    probe.component("axpy/x-stream"),
                    probe.component("axpy/y-stream"),
                ],
                out_stream: probe.component("axpy/out-stream"),
                pipeline: probe.component("axpy/pipeline"),
            },
        };
        lanes.run(harness, &self.params, self.clock, a, [x, y])
    }
}

/// x ← a·x on k multiplier lanes.
#[derive(Debug, Clone)]
pub struct ScalDesign {
    params: Level1Params,
    clock: ClockDomain,
}

impl ScalDesign {
    /// Instantiate at the tree-design clock.
    pub fn new(params: Level1Params) -> Self {
        Self {
            params,
            clock: ClockDomain::from_mhz(170.0),
        }
    }

    /// Static channel graph: one input stream through k multipliers to
    /// one output stream. Feed-forward, trivially deadlock-free.
    pub fn topology(&self) -> Topology {
        let p = &self.params;
        let mut t = Topology::new(format!("scal[k={}]", p.k));
        let x = t.source("x-stream");
        let mult = t.pe("mult-bank", p.k as f64);
        let out = t.sink("out-stream");
        let rate = p.words_per_cycle_per_stream;
        t.edge(
            "x-feed",
            x,
            mult,
            EdgeKind::Channel {
                words_per_cycle: rate,
                flops_per_word: 1.0,
            },
        );
        let tail = t.junction("out-port");
        t.edge(
            "mult-pipe",
            mult,
            tail,
            EdgeKind::Delay {
                stages: p.mult_stages,
            },
        );
        t.edge(
            "out-feed",
            tail,
            out,
            EdgeKind::Channel {
                words_per_cycle: rate,
                flops_per_word: 0.0,
            },
        );
        t
    }

    /// Compute `a·x`, cycle by cycle.
    pub fn run(&self, a: f64, x: &[f64]) -> StreamOutcome {
        self.run_in(&mut Harness::new(), a, x)
    }

    /// [`ScalDesign::run`] through a caller-supplied harness.
    pub fn run_in(&self, harness: &mut Harness, a: f64, x: &[f64]) -> StreamOutcome {
        let lanes = Lanes {
            name: "scal",
            op: |a, [x]: [f64; 1]| mul_f64(a, x),
            flops_per_elem: 1,
            stages: self.params.mult_stages,
            register: |probe| LaneIds {
                lanes: probe.component("scal/lanes"),
                streams: [probe.component("scal/x-stream")],
                out_stream: probe.component("scal/out-stream"),
                pipeline: probe.component("scal/pipeline"),
            },
        };
        lanes.run(harness, &self.params, self.clock, a, [x])
    }
}

/// What a public elementwise design fills in: `S` input streams (x, or
/// x and y) through k lockstep lanes that each apply `op` and feed a
/// `stages`-deep pipeline to one output stream.
struct Lanes<const S: usize, F> {
    name: &'static str,
    /// The per-lane op on `a` and one element of each input stream.
    op: F,
    flops_per_elem: u64,
    stages: usize,
    /// Registers the probe components, in the design's order.
    register: fn(&mut Probe) -> LaneIds<S>,
}

impl<const S: usize, F: Fn(f64, [f64; S]) -> f64> Lanes<S, F> {
    fn run(
        self,
        harness: &mut Harness,
        params: &Level1Params,
        clock: ClockDomain,
        a: f64,
        streams: [&[f64]; S],
    ) -> StreamOutcome {
        let k = params.k;
        let n = streams[0].len();
        let rate = params.words_per_cycle_per_stream;
        let mut run = LaneRun {
            pipe: DelayLine::new(self.stages),
            lanes: self,
            a,
            k,
            n,
            inputs: streams.map(|s| ReadChannel::new(s, rate)),
            out_ch: WriteChannel::with_capacity(rate, n),
            bufs: std::array::from_fn(|_| Vec::with_capacity(k)),
            fed: 0,
            limit: (n as u64 + 64) * 16 + 100_000,
            // Rate precondition for fast-forwarding (k as f64 is exact).
            // Rate accounting, not datapath. lint: allow(native-f64)
            full_rate: rate >= k as f64,
            ids: None,
        };
        let report = harness.run(&mut run);
        StreamOutcome {
            result: run.out_ch.into_data(),
            report,
            clock,
        }
    }
}

/// Probe components of one elementwise lane run.
#[derive(Debug, Clone, Copy)]
struct LaneIds<const S: usize> {
    lanes: ProbeId,
    streams: [ProbeId; S],
    out_stream: ProbeId,
    pipeline: ProbeId,
}

/// One in-flight axpy or scal computation as a harness [`Design`].
struct LaneRun<'a, const S: usize, F> {
    lanes: Lanes<S, F>,
    a: f64,
    k: usize,
    n: usize,
    inputs: [ReadChannel<'a>; S],
    out_ch: WriteChannel,
    pipe: DelayLine<Vec<f64>>,
    bufs: [Vec<f64>; S],
    fed: usize,
    limit: u64,
    // Every stream sustains k words/cycle — the precondition of the
    // fused fast-forward replay (batch t fires at cycle t, emerges at
    // t + pipeline latency, and the output port never back-pressures).
    full_rate: bool,
    ids: Option<LaneIds<S>>,
}

impl<const S: usize, F: Fn(f64, [f64; S]) -> f64> Design for LaneRun<'_, S, F> {
    fn name(&self) -> &str {
        self.lanes.name
    }

    fn setup(&mut self, probe: &mut Probe) {
        self.ids = Some((self.lanes.register)(probe));
    }

    fn cycle(&mut self, probe: &mut Probe) {
        let ids = self.ids.expect("setup registered components");
        for ch in &mut self.inputs {
            ch.tick();
        }
        self.out_ch.tick();

        let mut batch_in = None;
        if self.fed < self.n {
            let want = self.k.min(self.n - self.fed);
            let mut got = 0;
            for (ch, buf) in self.inputs.iter_mut().zip(&mut self.bufs) {
                got += ch.read_up_to(want - buf.len(), buf);
            }
            probe.io_in(got as u64);
            if self.bufs.iter().all(|buf| buf.len() == want) {
                let batch: Vec<f64> = (0..want)
                    .map(|i| (self.lanes.op)(self.a, std::array::from_fn(|s| self.bufs[s][i])))
                    .collect();
                for buf in &mut self.bufs {
                    buf.clear();
                }
                self.fed += want;
                probe.busy(ids.lanes);
                probe.flops(self.lanes.flops_per_elem * want as u64);
                batch_in = Some(batch);
            } else {
                probe.stall(ids.lanes, StallCause::InputStarved);
            }
        } else {
            probe.stall(ids.lanes, StallCause::Drain);
        }
        if let Some(batch) = self.pipe.step(batch_in) {
            for v in batch {
                assert!(self.out_ch.write(v), "output bandwidth must match input");
                probe.io_out(1);
            }
        }

        self.pipe.probe_occupancy(probe, ids.pipeline);
        for (ch, id) in self.inputs.iter().zip(ids.streams) {
            ch.probe_utilization(probe, id);
        }
        self.out_ch.probe_utilization(probe, ids.out_stream);
    }

    fn done(&self) -> bool {
        self.out_ch.words_written() >= self.n
    }

    fn cycle_limit(&self) -> u64 {
        self.limit
    }

    fn progress(&self) -> Option<u64> {
        Some(self.fed as u64 + self.out_ch.words_written() as u64)
    }

    /// Fused replay (DESIGN.md §13): at full rate the schedule is the
    /// closed form "batch t fires at cycle t, emerges at t + P", so the
    /// whole run collapses to `groups + P` cycles. Probe counters are
    /// reconstructed analytically through the batched recording API —
    /// bit-identical to the stepped run's, as the parity suites assert —
    /// and the elementwise values are computed in one flat pass. An
    /// empty run declines: the stepper finishes it in zero cycles.
    fn fast_forward(&mut self, probe: &mut Probe) -> u64 {
        if !self.full_rate || self.n == 0 {
            return 0;
        }
        let ids = self.ids.expect("setup registered components");
        let n = self.n as u64;
        let k = self.k as u64;
        let groups = n.div_ceil(k.max(1));
        let pipe_lat = self.pipe.latency() as u64;
        let total = groups + pipe_lat;
        assert!(
            total < self.limit,
            "{}: simulation exceeded cycle limit {}",
            self.lanes.name,
            self.limit
        );

        // Values, in stream order.
        for i in 0..self.n {
            let v = (self.lanes.op)(self.a, std::array::from_fn(|s| self.inputs[s].data()[i]));
            self.out_ch.push_unthrottled(v);
        }
        self.fed = self.n;

        // Counter reconstruction, positioned so windowed telemetry (if
        // enabled) lands on the same per-window vectors the stepped run
        // produces: groups fire at cycles 1..=groups, the pipeline
        // drains through groups+1..=total.
        probe.io_in(S as u64 * n);
        probe.flops(self.lanes.flops_per_elem * n);
        probe.io_out(n);
        probe.record_busy_marks_at(ids.lanes, 1, groups);
        probe.record_busy_cycles_at(1, groups);
        probe.record_stalls_at(ids.lanes, StallCause::Drain, groups + 1, pipe_lat);
        let mut pipe_runs = DepthRuns::new(ids.pipeline);
        for t in 1..=total {
            let in_flight = t.min(groups) - t.saturating_sub(pipe_lat).min(groups);
            pipe_runs.push(probe, in_flight as usize);
        }
        pipe_runs.finish(probe);
        // The inputs drain at the end while the output fills at the head
        // (trailing by the pipe latency).
        for id in ids.streams {
            record_stream_rate(probe, id, n, k, 0, pipe_lat);
        }
        record_stream_rate(probe, ids.out_stream, n, k, pipe_lat, 0);
        total
    }

    fn drain(&mut self, probe: &mut Probe) {
        // Completion latency: every batch spends exactly the pipeline
        // latency between firing and emerging — recorded here so the
        // stepped and fast-forwarded paths share one source.
        let ids = self.ids.expect("setup registered components");
        let groups = (self.n as u64).div_ceil(self.k.max(1) as u64);
        probe.record_latencies(ids.lanes, self.pipe.latency() as u64, groups);
    }

    fn inject(&mut self, fault: &FaultSpec) -> bool {
        match fault.kind {
            // Lane 0 of the in-flight batch at `stage`: all lanes are
            // identical registers, so one lane stands for the bank.
            FaultKind::PipelineBitFlip { stage, bit } => self
                .pipe
                .fault_mutate(stage, |batch| batch[0] = flip_f64_bit(batch[0], bit)),
            FaultKind::BufferBitFlip { slot, bit } => {
                let xb = &mut self.bufs[0];
                if xb.is_empty() {
                    return false;
                }
                let idx = slot % xb.len();
                xb[idx] = flip_f64_bit(xb[idx], bit);
                true
            }
            FaultKind::ChannelStall { beats } => self.inputs[0].fault_drop_beats(beats),
            // No reduction circuit in this design: stuck-at faults on
            // reduction state have nothing to land on.
            FaultKind::StuckAtZero { .. } => false,
        }
    }
}

/// Result of an asum run.
#[derive(Debug, Clone)]
pub struct AsumOutcome {
    /// Σ|xᵢ|.
    pub result: f64,
    /// Cycle/flop/word accounting.
    pub report: SimReport,
    /// Clock domain.
    pub clock: ClockDomain,
    /// I/O-bound peak under the exercised bandwidth.
    pub peak_flops: f64,
}

/// Σ|xᵢ| via the adder tree and the reduction circuit.
#[derive(Debug, Clone)]
pub struct AsumDesign {
    params: Level1Params,
    clock: ClockDomain,
}

impl AsumDesign {
    /// Instantiate at the tree-design clock.
    pub fn new(params: Level1Params) -> Self {
        assert!(
            params.k.is_power_of_two(),
            "adder tree needs power-of-two k"
        );
        Self {
            params,
            clock: ClockDomain::from_mhz(170.0),
        }
    }

    /// Static channel graph: the magnitude/adder-tree front end feeding
    /// the §4.3 reduction circuit. The only feedback cycle is the
    /// reduction loop (the circuit never back-pressures the tree, so no
    /// backlog gate exists in this design).
    pub fn topology(&self) -> Topology {
        let p = &self.params;
        let mut t = Topology::new(format!("asum[k={}]", p.k));
        let x = t.source("x-stream");
        let tree = t.pe("magnitude-tree", (p.k - 1) as f64);
        let reducer = t.pe("reduction", 1.0);
        let out = t.sink("result");
        t.edge(
            "x-feed",
            x,
            tree,
            EdgeKind::Channel {
                words_per_cycle: p.words_per_cycle_per_stream,
                flops_per_word: 1.0,
            },
        );
        t.edge(
            "tree-pipe",
            tree,
            reducer,
            EdgeKind::Delay {
                stages: (p.k.ilog2() as usize * p.adder_stages).max(1),
            },
        );
        crate::topology::attach_reduction_loop(&mut t, reducer, p.adder_stages);
        t.edge(
            "result-port",
            reducer,
            out,
            EdgeKind::Channel {
                words_per_cycle: 1.0,
                flops_per_word: 0.0,
            },
        );
        t
    }

    /// Compute Σ|xᵢ| with the paper's reduction circuit.
    pub fn run(&self, x: &[f64]) -> AsumOutcome {
        self.run_in(&mut Harness::new(), x)
    }

    /// [`AsumDesign::run`] through a caller-supplied harness.
    ///
    /// Busy-cycle note: asum counts a cycle as busy when the lockstep
    /// magnitude/tree front end fires *or* the reduction circuit accepts
    /// a value — the workspace-wide definition (≥1 FP unit issued work
    /// that cycle), matching the dot-product design. A pre-harness
    /// version counted only front-end fires, undercounting the
    /// reduction-drain tail by ~tree-latency cycles.
    pub fn run_in(&self, harness: &mut Harness, x: &[f64]) -> AsumOutcome {
        assert!(!x.is_empty(), "asum of an empty vector");
        let k = self.params.k;
        let rate = self.params.words_per_cycle_per_stream;
        let source = AsumSource {
            k,
            x: ReadChannel::new(x, rate),
            buf: Vec::with_capacity(k),
            lo: 0,
        };
        let feed = Feed {
            // |x| is a wire-level operation (clear bit 63): zero latency,
            // no flops — then the dot-product tree/reduction path applies.
            latency: (k.ilog2() as usize * self.params.adder_stages).max(1),
            slots: x.len().div_ceil(k) as u64,
            words: x.len() as u64,
            // Rate accounting, not datapath. lint: allow(native-f64)
            gapless: rate >= k as f64,
        };
        let mut reducer = SingleAdderReducer::new(self.params.adder_stages);
        let out = TreeRun::new(source, feed, &mut reducer, vec![f64::NAN]).run_in(harness);
        AsumOutcome {
            result: out.y[0],
            report: out.report,
            clock: self.clock,
            // Bandwidth accounting. lint: allow(native-f64)
            peak_flops: io_bound_peak_dot(rate * 8.0 * self.clock.hz()),
        }
    }
}

/// Asum's group source: k magnitudes of one stream per group, one set.
/// The §4.3 circuit never back-pressures the tree, so no backlog gate
/// exists in this design and the front end never waits on one.
struct AsumSource<'a> {
    k: usize,
    x: ReadChannel<'a>,
    /// Words of the next group staged so far (the fault-injectable input
    /// buffer).
    buf: Vec<f64>,
    /// First element of the next group.
    lo: usize,
}

impl GroupSource for AsumSource<'_> {
    type Streams = [ProbeId; 1];
    const NAME: &'static str = "asum";
    const WHOLE_RUN_LATENCY: bool = true;

    fn register(probe: &mut Probe) -> TreeIds<[ProbeId; 1]> {
        TreeIds {
            front_end: probe.component("asum/front-end"),
            streams: [probe.component("asum/x-stream")],
            backlog: None,
            reducer: probe.component("asum/reducer"),
            reduction_buffer: probe.component("asum/reduction-buffer"),
        }
    }

    fn tick(&mut self) {
        self.x.tick();
    }

    fn arrive(&mut self) -> (u64, bool) {
        let want = self.k.min(self.x.len() - self.lo);
        let got = self.x.read_up_to(want - self.buf.len(), &mut self.buf);
        (got as u64, self.buf.len() == want)
    }

    fn next(&mut self) -> Slot {
        let hi = (self.lo + self.k).min(self.x.len());
        // The replay stages the group straight from the stream.
        let staged = self.lo + self.buf.len();
        self.buf.extend_from_slice(&self.x.data()[staged..hi]);
        for v in &mut self.buf {
            *v = f64::from_bits(v.to_bits() & !SIGN_MASK);
        }
        let value = balanced_sum(&self.buf);
        self.buf.clear();
        let want = hi - self.lo;
        self.lo = hi;
        Slot {
            input: ReduceInput {
                set_id: 0,
                value,
                last: hi == self.x.len(),
            },
            // want−1 tree adds plus the free magnitude op on the last
            // lane: totals n over the run (n−1 adds + 1).
            flops: Some(want as u64),
            words: want,
        }
    }

    /// The front end drains once the stream is exhausted.
    fn drain_stall(_open: bool) -> bool {
        true
    }

    fn sample_streams(&self, probe: &mut Probe, [id]: [ProbeId; 1]) {
        self.x.probe_utilization(probe, id);
    }

    fn fault_drop_beats(&mut self, beats: u64) -> bool {
        self.x.fault_drop_beats(beats)
    }

    fn fault_flip_buffer(&mut self, slot: usize, bit: u32) -> Option<bool> {
        if self.buf.is_empty() {
            return Some(false);
        }
        let idx = slot % self.buf.len();
        self.buf[idx] = flip_f64_bit(self.buf[idx], bit);
        Some(true)
    }
}

/// Stream-rate reconstruction of a full-rate stream of `n > 0` words
/// moving `k` per cycle: 0 for `lead` cycles from cycle 1, then k per
/// full group, the ragged tail group once, and 0 for `trail` cycles.
fn record_stream_rate(probe: &mut Probe, id: ProbeId, n: u64, k: u64, lead: u64, trail: u64) {
    let groups = n.div_ceil(k);
    let tail = n - (groups - 1) * k;
    let full = if tail == k { groups } else { groups - 1 };
    probe.record_depths_at(id, 0, 1, lead);
    probe.record_depths_at(id, k as usize, lead + 1, full);
    probe.record_depths_at(id, tail as usize, lead + full + 1, groups - full);
    probe.record_depths_at(id, 0, lead + groups + 1, trail);
    probe.record_rate_base(id, n);
}

/// ‖x‖₂ via the dot-product design; the square root runs on the host
/// processor (the XD1 split of control vs compute).
pub fn nrm2(design: &DotProductDesign, x: &[f64]) -> (f64, DotOutcome) {
    let out = design.run(x, x);
    (out.result.sqrt(), out)
}

/// Convenience constructor for the dot design used by [`nrm2`].
pub fn nrm2_design(k: usize) -> DotProductDesign {
    DotProductDesign::standalone(DotParams::with_k(k), 170.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fblas_sim::ExecBackend;

    fn int_vec(seed: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 7 + seed * 3 + 1) % 16) as f64 - 8.0)
            .collect()
    }

    #[test]
    fn axpy_matches_reference() {
        for n in [1usize, 7, 64, 1000] {
            let x = int_vec(1, n);
            let y = int_vec(2, n);
            let out = AxpyDesign::new(Level1Params::with_k(4)).run(3.0, &x, &y);
            let expect: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| 3.0 * xi + yi).collect();
            assert_eq!(out.result, expect, "n = {n}");
        }
    }

    #[test]
    fn axpy_is_io_bound_near_one_group_per_cycle() {
        let n = 4096;
        let x = int_vec(1, n);
        let y = int_vec(2, n);
        let out = AxpyDesign::new(Level1Params::with_k(4)).run(2.0, &x, &y);
        let lower = (n / 4) as u64;
        assert!(out.report.cycles >= lower);
        assert!(
            out.report.cycles < lower + 64,
            "cycles {}",
            out.report.cycles
        );
    }

    #[test]
    fn scal_matches_reference() {
        let x = int_vec(3, 513);
        let out = ScalDesign::new(Level1Params::with_k(4)).run(-2.5, &x);
        let expect: Vec<f64> = x.iter().map(|xi| -2.5 * xi).collect();
        assert_eq!(out.result, expect);
    }

    #[test]
    fn scal_zero_scales_to_signed_zero() {
        let out = ScalDesign::new(Level1Params::with_k(2)).run(0.0, &[1.0, -2.0]);
        assert_eq!(out.result[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(out.result[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn asum_matches_reference() {
        for n in [1usize, 5, 64, 777] {
            let x = int_vec(4, n);
            let out = AsumDesign::new(Level1Params::with_k(4)).run(&x);
            let expect: f64 = x.iter().map(|v| v.abs()).sum();
            assert_eq!(out.result, expect, "n = {n}");
        }
    }

    #[test]
    fn asum_handles_negative_zero() {
        let out = AsumDesign::new(Level1Params::with_k(2)).run(&[-0.0, -1.0, 2.0]);
        assert_eq!(out.result, 3.0);
    }

    #[test]
    fn asum_busy_counts_reduction_accepts() {
        // The unified busy definition: front-end fires plus the cycles
        // where the reduction circuit accepts tree output after the
        // stream drains. Strictly more than the n/k fires alone.
        let x = int_vec(4, 1000);
        let out = AsumDesign::new(Level1Params::with_k(4)).run(&x);
        assert!(
            out.report.busy_cycles > 250,
            "busy {} should exceed the 250 front-end fires",
            out.report.busy_cycles
        );
        assert!(out.report.busy_cycles < out.report.cycles);
    }

    #[test]
    fn nrm2_matches_reference() {
        let x = int_vec(5, 256);
        let (norm, out) = nrm2(&nrm2_design(2), &x);
        let expect: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert_eq!(norm, expect);
        assert_eq!(out.report.flops, 2 * 256);
    }

    #[test]
    fn axpy_flop_and_word_accounting() {
        let x = int_vec(1, 100);
        let y = int_vec(2, 100);
        let out = AxpyDesign::new(Level1Params::with_k(2)).run(1.0, &x, &y);
        assert_eq!(out.report.flops, 200);
        assert_eq!(out.report.words_in, 200);
        assert_eq!(out.report.words_out, 100);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn axpy_mismatched_lengths_rejected() {
        AxpyDesign::new(Level1Params::with_k(2)).run(1.0, &[1.0], &[1.0, 2.0]);
    }

    /// Empty vectors finish in zero cycles on both backends: the fused
    /// replay declines instead of charging a pipeline drain (and, in
    /// debug builds, underflowing its ragged-tail arithmetic).
    #[test]
    fn empty_vectors_take_zero_cycles_on_both_backends() {
        let p = Level1Params::with_k(4);
        for backend in [ExecBackend::Cycle, ExecBackend::Native] {
            let out = AxpyDesign::new(p).run_in(&mut Harness::with_backend(backend), 2.0, &[], &[]);
            assert_eq!(out.report, SimReport::default(), "axpy {backend:?}");
            assert!(out.result.is_empty());
            let out = ScalDesign::new(p).run_in(&mut Harness::with_backend(backend), 2.0, &[]);
            assert_eq!(out.report, SimReport::default(), "scal {backend:?}");
        }
    }

    /// Backend parity: each streaming design replays bit-identically
    /// (results and probe-derived reports) under native on random reals,
    /// while skipping the cycle stepper entirely.
    #[test]
    fn backends_agree_bit_for_bit() {
        let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for n in [1usize, 3, 63, 1000] {
            let x = crate::random_vec(n as u64, n);
            let y = crate::random_vec(n as u64 + 5, n);

            let axpy = AxpyDesign::new(Level1Params::with_k(4));
            let (mut cy, mut nat) = (Harness::new(), Harness::with_backend(ExecBackend::Native));
            let out_cy = axpy.run_in(&mut cy, 3.0, &x, &y);
            let out_nat = axpy.run_in(&mut nat, 3.0, &x, &y);
            assert_eq!(nat.ff_cycles(), out_cy.report.cycles, "axpy n = {n}");
            assert_eq!(bits(&out_nat.result), bits(&out_cy.result), "axpy n = {n}");
            assert_eq!(out_nat.report, out_cy.report, "axpy n = {n}");
            assert_eq!(cy.probe().stall_totals(), nat.probe().stall_totals());

            let scal = ScalDesign::new(Level1Params::with_k(4));
            let (mut cy, mut nat) = (Harness::new(), Harness::with_backend(ExecBackend::Native));
            let out_cy = scal.run_in(&mut cy, -2.5, &x);
            let out_nat = scal.run_in(&mut nat, -2.5, &x);
            assert_eq!(nat.ff_cycles(), out_cy.report.cycles, "scal n = {n}");
            assert_eq!(bits(&out_nat.result), bits(&out_cy.result), "scal n = {n}");
            assert_eq!(out_nat.report, out_cy.report, "scal n = {n}");
            assert_eq!(cy.probe().stall_totals(), nat.probe().stall_totals());

            let asum = AsumDesign::new(Level1Params::with_k(4));
            let (mut cy, mut nat) = (Harness::new(), Harness::with_backend(ExecBackend::Native));
            let out_cy = asum.run_in(&mut cy, &x);
            let out_nat = asum.run_in(&mut nat, &x);
            assert_eq!(nat.ff_cycles(), out_cy.report.cycles, "asum n = {n}");
            assert_eq!(out_nat.result.to_bits(), out_cy.result.to_bits());
            assert_eq!(out_nat.report, out_cy.report, "asum n = {n}");
            assert_eq!(cy.probe().stall_totals(), nat.probe().stall_totals());
        }
    }
}
