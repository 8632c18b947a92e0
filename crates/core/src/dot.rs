//! Level-1 BLAS: the tree-based dot-product architecture (paper §4.1).
//!
//! k multipliers accept one element of each vector per cycle; an adder
//! tree of k−1 pipelined adders sums the k products; because k < n, a
//! reduction circuit accumulates the tree's output stream into the final
//! scalar. The operation is I/O bound: performance is set by the rate at
//! which the two vectors stream in (2k words per cycle), and the paper
//! picks k to match the available memory bandwidth (k = 2 on XD1, Table 3).
//!
//! All k lanes operate in lockstep, so the multiplier bank and the adder
//! tree are modelled as a single delay line of latency
//! `mult_stages + lg(k)·adder_stages` carrying the balanced-tree partial
//! sum of each group of k products — cycle-exact and bit-exact with the
//! lane-by-lane hardware (the combine uses the same balanced association).

use crate::reduce::{ReduceInput, Reducer, SingleAdderReducer};
use crate::report::SimReport;
use fblas_fpu::softfloat::{balanced_sum, mul_f64};
use fblas_fpu::{ADDER_STAGES, MULTIPLIER_STAGES};
use fblas_mem::ReadChannel;
use fblas_sim::{
    flip_f64_bit, ClockDomain, DelayLine, DepthRuns, Design, EdgeKind, FaultKind, FaultSpec, Fifo,
    Harness, Probe, ProbeId, SpanRuns, StallCause, Topology,
};
use fblas_system::{io_bound_peak_dot, ClockModel, Xd1Node};

/// Parameters of the tree-based dot-product design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DotParams {
    /// Number of multipliers (must be a power of two).
    pub k: usize,
    /// Pipeline depth of each adder (α).
    pub adder_stages: usize,
    /// Pipeline depth of each multiplier.
    pub mult_stages: usize,
    /// Words per cycle each vector stream delivers (the design consumes
    /// 2·k words per cycle total when both streams sustain k).
    pub words_per_cycle_per_vector: f64,
}

impl DotParams {
    /// The paper's Table 3 configuration: k = 2 at 170 MHz, constrained by
    /// the 6.4 GB/s SRAM read path (2k = 4 words/cycle ⇒ 5.5 GB/s used).
    pub fn table3() -> Self {
        Self {
            k: 2,
            adder_stages: ADDER_STAGES,
            mult_stages: MULTIPLIER_STAGES,
            words_per_cycle_per_vector: 2.0,
        }
    }

    /// A configuration with `k` lanes fed at full rate.
    pub fn with_k(k: usize) -> Self {
        Self {
            k,
            adder_stages: ADDER_STAGES,
            mult_stages: MULTIPLIER_STAGES,
            words_per_cycle_per_vector: k as f64,
        }
    }

    /// Latency of the lockstep multiplier + adder-tree front end.
    pub fn tree_latency(&self) -> usize {
        self.mult_stages + self.k.ilog2() as usize * self.adder_stages
    }
}

/// Result of one dot-product run.
#[derive(Debug, Clone)]
pub struct DotOutcome {
    /// The computed dot product.
    pub result: f64,
    /// Cycle/flop/word accounting.
    pub report: SimReport,
    /// The clock domain the design closes timing at (170 MHz).
    pub clock: ClockDomain,
    /// Peak FLOPS permitted by the exercised memory bandwidth (§4.4).
    pub peak_flops: f64,
    /// Buffered words observed inside the reduction circuit.
    pub reduction_buffer_high_water: usize,
}

impl DotOutcome {
    /// Fraction of the I/O-bound peak the run sustained (paper: 80 %).
    pub fn fraction_of_peak(&self) -> f64 {
        self.report.fraction_of_peak(&self.clock, self.peak_flops)
    }
}

/// The tree-based dot-product design instance.
///
/// # Examples
///
/// ```
/// use fblas_core::dot::{DotParams, DotProductDesign};
/// use fblas_system::Xd1Node;
///
/// let design = DotProductDesign::new(DotParams::table3(), &Xd1Node::default());
/// let u = vec![1.0, 2.0, 3.0, 4.0];
/// let v = vec![4.0, 3.0, 2.0, 1.0];
/// let out = design.run(&u, &v);
/// assert_eq!(out.result, 20.0);
/// assert!(out.report.cycles > 0);
/// ```
#[derive(Debug, Clone)]
pub struct DotProductDesign {
    params: DotParams,
    clock: ClockDomain,
}

impl DotProductDesign {
    /// Instantiate the design on an XD1 node (fixes the clock at the
    /// tree-design rate and checks the bandwidth demand is available).
    pub fn new(params: DotParams, node: &Xd1Node) -> Self {
        assert!(
            params.k.is_power_of_two(),
            "adder tree needs power-of-two k"
        );
        let clock = ClockModel::default().tree_design();
        // Bandwidth accounting, not datapath. lint: allow(native-f64)
        let demand = 2.0 * params.words_per_cycle_per_vector;
        let supply = node.sram_words_per_cycle(clock.mhz());
        assert!(
            demand <= supply + 1e-9,
            "design demands {demand} words/cycle but the SRAM path supplies {supply}"
        );
        Self { params, clock }
    }

    /// Instantiate on an SRC `MAPstation` user FPGA: the 4.8 GB/s SRAM path
    /// sustains only ≈3.5 words/cycle at 170 MHz, so the two vector
    /// streams are derated to share it — the §3.2 computational model
    /// applied to the paper's second platform.
    pub fn on_src(k: usize, station: &fblas_system::src_station::SrcMapStation) -> Self {
        assert!(k.is_power_of_two(), "adder tree needs power-of-two k");
        let clock = ClockModel::default().tree_design();
        let supply = station.sram_words_per_cycle(clock.mhz());
        let params = DotParams {
            k,
            adder_stages: fblas_fpu::ADDER_STAGES,
            mult_stages: fblas_fpu::MULTIPLIER_STAGES,
            // Each stream gets half the read path, capped at k words.
            // Rate accounting, not datapath. lint: allow(native-f64)
            words_per_cycle_per_vector: (supply / 2.0).min(k as f64),
        };
        Self { params, clock }
    }

    /// Instantiate without a platform check (for ablations).
    pub fn standalone(params: DotParams, clock_mhz: f64) -> Self {
        assert!(
            params.k.is_power_of_two(),
            "adder tree needs power-of-two k"
        );
        Self {
            params,
            clock: ClockDomain::from_mhz(clock_mhz),
        }
    }

    /// The design parameters.
    pub fn params(&self) -> &DotParams {
        &self.params
    }

    /// The clock domain.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Memory bandwidth the run exercises, in bytes/s.
    pub fn bandwidth_bytes_per_s(&self) -> f64 {
        2.0 * self.params.words_per_cycle_per_vector * 8.0 * self.clock.hz()
    }

    /// Static channel graph of the design (§4.1): two vector streams into
    /// the lockstep multiplier bank, the (k−1)-adder tree behind a gated
    /// backlog, and the §4.3 reduction circuit at the root. Analyzed by
    /// `fblas-check` for deadlock-freedom and a sound throughput bound.
    pub fn topology(&self) -> Topology {
        let p = &self.params;
        let mut t = Topology::new(format!("dot[k={}]", p.k));
        let u = t.source("u-stream");
        let v = t.source("v-stream");
        let mult = t.pe("mult-bank", p.k as f64);
        let tree = t.pe("adder-tree", (p.k - 1) as f64);
        let reducer = t.pe("reduction", 1.0);
        let out = t.sink("result");
        let rate = p.words_per_cycle_per_vector;
        t.edge(
            "u-feed",
            u,
            mult,
            EdgeKind::Channel {
                words_per_cycle: rate,
                flops_per_word: 1.0,
            },
        );
        t.edge(
            "v-feed",
            v,
            mult,
            EdgeKind::Channel {
                words_per_cycle: rate,
                flops_per_word: 1.0,
            },
        );
        t.edge("lockstep", mult, tree, EdgeKind::Wire);
        crate::topology::attach_gated_backlog(&mut t, tree, reducer, mult, p.tree_latency());
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

    /// Run `u · v` through the paper's reduction circuit.
    pub fn run(&self, u: &[f64], v: &[f64]) -> DotOutcome {
        self.run_with_reducer(u, v, &mut SingleAdderReducer::new(self.params.adder_stages))
    }

    /// [`DotProductDesign::run`] through a caller-supplied harness, so
    /// the run's stall attribution and occupancy waveforms land in the
    /// caller's probe (e.g. a `--trace` session).
    pub fn run_in(&self, harness: &mut Harness, u: &[f64], v: &[f64]) -> DotOutcome {
        self.run_with_reducer_in(
            harness,
            u,
            v,
            &mut SingleAdderReducer::new(self.params.adder_stages),
        )
    }

    /// Run with an explicit reduction circuit (ablation hook).
    pub fn run_with_reducer<R: Reducer>(
        &self,
        u: &[f64],
        v: &[f64],
        reducer: &mut R,
    ) -> DotOutcome {
        self.run_with_reducer_in(&mut Harness::new(), u, v, reducer)
    }

    /// [`DotProductDesign::run_with_reducer`] through a caller-supplied
    /// harness.
    pub fn run_with_reducer_in<R: Reducer>(
        &self,
        harness: &mut Harness,
        u: &[f64],
        v: &[f64],
        reducer: &mut R,
    ) -> DotOutcome {
        assert_eq!(u.len(), v.len(), "dot product needs equal-length vectors");
        assert!(!u.is_empty(), "empty vectors have no dot product");
        let k = self.params.k;
        let n = u.len();

        let mut run = DotRun {
            k,
            groups: n.div_ceil(k),
            u_ch: ReadChannel::new(u.to_vec(), self.params.words_per_cycle_per_vector),
            v_ch: ReadChannel::new(v.to_vec(), self.params.words_per_cycle_per_vector),
            tree: DelayLine::new(self.params.tree_latency()),
            u_buf: Vec::with_capacity(k),
            v_buf: Vec::with_capacity(k),
            backlog: Fifo::new(2 + self.params.tree_latency()),
            groups_in: 0,
            reducer,
            result: None,
            limit: (n as u64 + 64) * 32 + 100_000,
            // Rate precondition for fast-forwarding (k as f64 is exact).
            // Rate accounting, not datapath. lint: allow(native-f64)
            full_rate: self.params.words_per_cycle_per_vector >= k as f64,
            ids: None,
        };
        let report = harness.run(&mut run);
        let buffer_id = run.ids.expect("setup ran").reduction_buffer;
        DotOutcome {
            result: run.result.expect("harness exits on result"),
            report,
            clock: self.clock,
            peak_flops: io_bound_peak_dot(self.bandwidth_bytes_per_s()),
            reduction_buffer_high_water: harness.probe().high_water(buffer_id),
        }
    }
}

/// Probe components of one dot-product run.
#[derive(Debug, Clone, Copy)]
struct DotIds {
    front_end: ProbeId,
    u_stream: ProbeId,
    v_stream: ProbeId,
    backlog: ProbeId,
    reducer: ProbeId,
    reduction_buffer: ProbeId,
}

/// One in-flight dot-product computation as a harness [`Design`].
struct DotRun<'a, R: Reducer> {
    k: usize,
    groups: usize,
    u_ch: ReadChannel,
    v_ch: ReadChannel,
    tree: DelayLine<(f64, bool)>,
    u_buf: Vec<f64>,
    v_buf: Vec<f64>,
    // Values that left the tree while the reduction circuit exerted
    // back-pressure (empty forever with the proposed circuit; grows
    // only for stalling baselines, which also gate the front end).
    // Bounded: the front end stops issuing once two values wait, so
    // only the tree's in-flight contents can land on top of them.
    backlog: Fifo<(f64, bool)>,
    groups_in: usize,
    reducer: &'a mut R,
    result: Option<f64>,
    limit: u64,
    // Both streams sustain k words/cycle, so every group fires the cycle
    // its words arrive — one precondition of the fused fast-forward
    // replay (the other is a never-stalling reduction circuit).
    full_rate: bool,
    ids: Option<DotIds>,
}

impl<R: Reducer> Design for DotRun<'_, R> {
    fn name(&self) -> &str {
        "dot"
    }

    fn setup(&mut self, probe: &mut Probe) {
        self.ids = Some(DotIds {
            front_end: probe.component("dot/front-end"),
            u_stream: probe.component("dot/u-stream"),
            v_stream: probe.component("dot/v-stream"),
            backlog: probe.component("dot/backlog"),
            reducer: probe.component("dot/reducer"),
            reduction_buffer: probe.component("dot/reduction-buffer"),
        });
    }

    fn cycle(&mut self, probe: &mut Probe) {
        let ids = self.ids.expect("setup registered components");

        // Front end: pull up to k element pairs from the streams. A
        // back-pressured reduction circuit stalls the whole front end.
        self.u_ch.tick();
        self.v_ch.tick();
        let tree_in = if self.groups_in < self.groups && self.backlog.len() < 2 {
            let got_u = self
                .u_ch
                .read_up_to(self.k - self.u_buf.len(), &mut self.u_buf);
            let got_v = self
                .v_ch
                .read_up_to(self.k - self.v_buf.len(), &mut self.v_buf);
            probe.io_in((got_u + got_v) as u64);
            let last_group = self.groups_in + 1 == self.groups;
            let full = self.u_buf.len() == self.k && self.v_buf.len() == self.k;
            let tail = last_group
                && self.u_ch.exhausted()
                && self.v_ch.exhausted()
                && !self.u_buf.is_empty()
                && self.u_buf.len() == self.v_buf.len();
            if full || tail {
                // All k lanes fire in lockstep: multiply and combine in
                // balanced-tree order (bit-exact with the lane tree).
                let products: Vec<f64> = self
                    .u_buf
                    .drain(..)
                    .zip(self.v_buf.drain(..))
                    .map(|(a, b)| mul_f64(a, b))
                    .collect();
                self.groups_in += 1;
                probe.busy(ids.front_end);
                probe.flops(2 * products.len() as u64);
                Some((balanced_sum(&products), last_group))
            } else {
                probe.stall(ids.front_end, StallCause::InputStarved);
                None
            }
        } else {
            if self.groups_in < self.groups {
                probe.stall(ids.front_end, StallCause::OutputBackpressured);
            }
            None
        };

        // Adder tree latency. The push must always succeed: a full
        // backlog here would mean the gate above let the tree run
        // ahead of its claimed bound.
        if let Some(out) = self.tree.step(tree_in) {
            self.backlog
                .try_push(out)
                .expect("backlog exceeded its 2 + tree-latency bound");
        }

        // Reduction circuit consumes the tree's output stream.
        let red_in = if self.reducer.ready() {
            self.backlog.pop().map(|(value, last)| ReduceInput {
                set_id: 0,
                value,
                last,
            })
        } else {
            None
        };
        if red_in.is_some() {
            probe.busy(ids.reducer);
        } else if self.groups_in == self.groups {
            probe.stall(ids.reducer, StallCause::Drain);
        } else if !self.backlog.is_empty() {
            probe.stall(ids.reducer, StallCause::OutputBackpressured);
        }
        if let Some(ev) = self.reducer.tick(red_in) {
            self.result = Some(ev.value);
            probe.io_out(1);
            // Completion latency of the single result: the whole run.
            let rc = probe.run_cycle();
            probe.latency(ids.reducer, rc);
        }

        self.backlog.probe_occupancy(probe, ids.backlog);
        probe.sample_depth(ids.reduction_buffer, self.reducer.buffered());
        self.u_ch.probe_utilization(probe, ids.u_stream);
        self.v_ch.probe_utilization(probe, ids.v_stream);
    }

    fn done(&self) -> bool {
        self.result.is_some()
    }

    fn cycle_limit(&self) -> u64 {
        self.limit
    }

    fn progress(&self) -> Option<u64> {
        Some(self.groups_in as u64 + self.reducer.adds_issued())
    }

    /// Fused replay of the whole run (DESIGN.md §13). Sound only when
    /// both streams sustain `k` words/cycle (every group then fires the
    /// cycle its words arrive, making the feed schedule the closed form
    /// "group t at cycle t") and the reduction circuit never exerts
    /// back-pressure (the backlog FIFO is then provably empty at every
    /// sample point, and tree outputs flow straight into the reducer
    /// `tree_latency` cycles after their group fired). Anything else —
    /// e.g. the SRC deployment's fractional stream rate, or a stalling
    /// ablation reducer — declines to the cycle-stepped reference path.
    ///
    /// Probe counters are reconstructed analytically: the replay loop
    /// accumulates plain integers (busy cycles, drain stalls, run-length
    /// encoded buffer depths) and lands them through the probe's batched
    /// recording API afterwards, landing on the exact state the
    /// per-cycle calls would have produced — the parity suites assert
    /// bit-equality. The savings come from bypassing the channels,
    /// throttles, delay line, FIFO, per-cycle buffer churn *and* the
    /// per-cycle probe traffic.
    fn fast_forward(&mut self, probe: &mut Probe) -> u64 {
        if !self.full_rate || !self.reducer.never_stalls() {
            return 0;
        }
        assert!(
            self.groups_in == 0 && self.result.is_none(),
            "fast_forward requires fresh run state"
        );
        let ids = self.ids.expect("setup registered components");
        let n = self.u_ch.len();
        let latency = self.tree.latency() as u64;
        let groups = self.groups as u64;
        let mut products: Vec<f64> = Vec::with_capacity(self.k);
        let mut busy_runs = SpanRuns::busy();
        let mut drain_runs = SpanRuns::stalls(ids.reducer, StallCause::Drain);
        let mut buffer_runs = DepthRuns::new(ids.reduction_buffer);
        let mut t: u64 = 0;
        while self.result.is_none() {
            t += 1;
            assert!(
                t < self.limit,
                "dot: simulation exceeded cycle limit {}",
                self.limit
            );

            // Front end: group t's words arrive and it fires, in one
            // cycle — the feed schedule is the closed form "group t at
            // cycle t", so only the reduction circuit needs stepping.
            let feeding = t <= groups;

            // Tree delivery: group t − latency reaches the reduction
            // circuit this cycle (the backlog stays empty throughout).
            let red_in = if t > latency && t <= groups + latency {
                let g = t - latency;
                let lo = (g as usize - 1) * self.k;
                let hi = (lo + self.k).min(n);
                products.clear();
                for i in lo..hi {
                    products.push(mul_f64(self.u_ch.data()[i], self.v_ch.data()[i]));
                }
                Some(ReduceInput {
                    set_id: 0,
                    value: balanced_sum(&products),
                    last: g == groups,
                })
            } else {
                None
            };
            if feeding || red_in.is_some() {
                busy_runs.mark(probe, t);
            }
            if red_in.is_none() && t >= groups {
                drain_runs.mark(probe, t);
            }
            if let Some(ev) = self.reducer.tick(red_in) {
                self.result = Some(ev.value);
            }
            buffer_runs.push(probe, self.reducer.buffered());
        }
        self.groups_in = self.groups;
        busy_runs.finish(probe);
        drain_runs.finish(probe);
        buffer_runs.finish(probe);

        // Counter reconstruction: positioned spans matching the stepped
        // run's per-cycle probe calls over its t cycles (exact windowed
        // telemetry when enabled; the same totals either way).
        probe.io_in(2 * n as u64);
        probe.flops(2 * n as u64);
        probe.io_out(1);
        probe.record_busy_marks_at(ids.front_end, 1, groups);
        probe.record_busy_marks_at(ids.reducer, latency + 1, groups);
        probe.record_depths_at(ids.backlog, 0, 1, t);
        // Stream-rate histograms: delta k on every full-group cycle, the
        // ragged tail group once, 0 through the drain.
        let tail = n - (groups as usize - 1) * self.k;
        for id in [ids.u_stream, ids.v_stream] {
            let full = if tail == self.k { groups } else { groups - 1 };
            probe.record_depths_at(id, self.k, 1, full);
            probe.record_depths_at(id, tail, full + 1, groups - full);
            probe.record_depths_at(id, 0, groups + 1, t - groups);
            probe.record_rate_base(id, n as u64);
        }
        // The single result emerges on the final cycle.
        probe.record_latencies(ids.reducer, t, 1);
        t
    }

    fn inject(&mut self, fault: &FaultSpec) -> bool {
        match fault.kind {
            FaultKind::PipelineBitFlip { stage, bit } => self
                .tree
                .fault_mutate(stage, |t| t.0 = flip_f64_bit(t.0, bit)),
            FaultKind::BufferBitFlip { slot, bit } => self
                .backlog
                .fault_mutate(slot, |t| t.0 = flip_f64_bit(t.0, bit)),
            FaultKind::ChannelStall { beats } => self.u_ch.fault_drop_beats(beats),
            FaultKind::StuckAtZero { slot, bit } => self.reducer.fault_stuck_at(slot, bit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fblas_sim::ExecBackend;

    fn vecs(n: usize) -> (Vec<f64>, Vec<f64>) {
        // Small integers: sums are exact under any association.
        let u: Vec<f64> = (0..n).map(|i| ((i * 5 + 1) % 16) as f64).collect();
        let v: Vec<f64> = (0..n).map(|i| ((i * 3 + 2) % 16) as f64).collect();
        (u, v)
    }

    fn reference(u: &[f64], v: &[f64]) -> f64 {
        u.iter().zip(v).map(|(a, b)| a * b).sum()
    }

    #[test]
    fn result_exact_for_integer_vectors() {
        let (u, v) = vecs(2048);
        let d = DotProductDesign::new(DotParams::table3(), &Xd1Node::default());
        let out = d.run(&u, &v);
        assert_eq!(out.result, reference(&u, &v));
    }

    #[test]
    fn table3_shape_high_fraction_of_peak() {
        // Table 3: k=2, n=2048 sustains ≥80 % of the I/O-bound peak. The
        // overhead is the reduction drain, amortized over n/k cycles.
        let (u, v) = vecs(2048);
        let d = DotProductDesign::new(DotParams::table3(), &Xd1Node::default());
        let out = d.run(&u, &v);
        let frac = out.fraction_of_peak();
        assert!(frac >= 0.80, "fraction of peak {frac}");
        assert!(frac <= 1.0, "cannot exceed peak, got {frac}");
    }

    #[test]
    fn bandwidth_of_table3_design_is_5_5_gbs() {
        let d = DotProductDesign::new(DotParams::table3(), &Xd1Node::default());
        let bw = d.bandwidth_bytes_per_s();
        assert!((bw / 1e9 - 5.44).abs() < 0.1, "got {bw}");
    }

    #[test]
    fn n_not_multiple_of_k() {
        let (u, v) = vecs(1023);
        let d = DotProductDesign::standalone(DotParams::with_k(4), 170.0);
        let out = d.run(&u, &v);
        assert_eq!(out.result, reference(&u, &v));
    }

    #[test]
    fn single_element_vectors() {
        let d = DotProductDesign::standalone(DotParams::with_k(2), 170.0);
        let out = d.run(&[3.0], &[4.0]);
        assert_eq!(out.result, 12.0);
    }

    #[test]
    fn larger_k_reduces_cycles() {
        let (u, v) = vecs(4096);
        let d2 = DotProductDesign::standalone(DotParams::with_k(2), 170.0);
        let d8 = DotProductDesign::standalone(DotParams::with_k(8), 170.0);
        let c2 = d2.run(&u, &v).report.cycles;
        let c8 = d8.run(&u, &v).report.cycles;
        assert!(
            c8 * 3 < c2,
            "k=8 ({c8} cycles) should be ~4x faster than k=2 ({c2})"
        );
    }

    #[test]
    fn cycles_close_to_io_lower_bound() {
        // The stream takes n/k cycles; everything else is pipeline fill
        // and reduction drain, bounded by 2α² + tree latency.
        let (u, v) = vecs(2048);
        let p = DotParams::table3();
        let d = DotProductDesign::new(p, &Xd1Node::default());
        let out = d.run(&u, &v);
        let lower = 2048 / p.k as u64;
        let slack = 2 * (p.adder_stages * p.adder_stages) as u64 + p.tree_latency() as u64 + 4;
        assert!(out.report.cycles >= lower);
        assert!(
            out.report.cycles <= lower + slack,
            "cycles {} exceed bound {}",
            out.report.cycles,
            lower + slack
        );
    }

    #[test]
    fn ablation_stalling_reducer_is_much_slower() {
        use crate::reduce::StallingReducer;
        let (u, v) = vecs(512);
        let d = DotProductDesign::standalone(DotParams::with_k(2), 170.0);
        let fast = d.run(&u, &v).report.cycles;
        let mut stall = StallingReducer::new(ADDER_STAGES);
        let slow = d.run_with_reducer(&u, &v, &mut stall).report.cycles;
        assert!(
            slow > 3 * fast,
            "stalling ({slow}) should dwarf proposed ({fast})"
        );
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mismatched_lengths_rejected() {
        let d = DotProductDesign::standalone(DotParams::with_k(2), 170.0);
        d.run(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "words/cycle")]
    fn bandwidth_overdemand_rejected() {
        // k=8 needs 16 words/cycle; the XD1 SRAM path supplies ~4.7.
        DotProductDesign::new(DotParams::with_k(8), &Xd1Node::default());
    }

    #[test]
    fn src_mapstation_deployment_fractional_bandwidth() {
        // The SRC SRAM path forces a fractional per-stream rate (~1.76
        // words/cycle for k = 2); the design still computes exactly and
        // stays I/O-bound efficient relative to ITS available bandwidth.
        use fblas_system::src_station::SrcMapStation;
        let station = SrcMapStation::default();
        let d = DotProductDesign::on_src(2, &station);
        assert!(d.params().words_per_cycle_per_vector < 2.0);
        let (u, v) = vecs(2048);
        let out = d.run(&u, &v);
        assert_eq!(out.result, reference(&u, &v));
        assert!(
            out.fraction_of_peak() > 0.85,
            "got {}",
            out.fraction_of_peak()
        );
        // Slower than the XD1 deployment, as Table 1's bandwidths dictate.
        let xd1 = DotProductDesign::new(DotParams::table3(), &Xd1Node::default());
        assert!(out.report.cycles > xd1.run(&u, &v).report.cycles);
    }

    /// The native backend replays the run with bit-identical results
    /// and probe-derived reports on rounding-sensitive data, while
    /// actually skipping the cycle stepper.
    #[test]
    fn backends_agree_bit_for_bit() {
        for n in [1usize, 5, 256, 2048] {
            let u = crate::random_vec(n as u64, n);
            let v = crate::random_vec(n as u64 + 7, n);
            let d = DotProductDesign::new(DotParams::table3(), &Xd1Node::default());
            let mut cy = Harness::new();
            let mut nat = Harness::with_backend(ExecBackend::Native);
            let out_cy = d.run_in(&mut cy, &u, &v);
            let out_nat = d.run_in(&mut nat, &u, &v);
            assert_eq!(nat.ff_cycles(), out_cy.report.cycles, "n = {n}");
            assert_eq!(out_nat.result.to_bits(), out_cy.result.to_bits());
            assert_eq!(out_nat.report, out_cy.report, "n = {n}");
            assert_eq!(
                out_nat.reduction_buffer_high_water,
                out_cy.reduction_buffer_high_water
            );
            assert_eq!(cy.probe().stall_totals(), nat.probe().stall_totals());
        }
    }

    /// The SRC deployment's fractional stream rate (≈1.76 < k words per
    /// cycle) violates the fast path's full-rate precondition: the run
    /// must decline to the cycle stepper, not replay an unsound
    /// schedule.
    #[test]
    fn fractional_rate_declines_fast_forward() {
        use fblas_system::src_station::SrcMapStation;
        let d = DotProductDesign::on_src(2, &SrcMapStation::default());
        let (u, v) = vecs(512);
        let mut cy = Harness::new();
        let mut nat = Harness::with_backend(ExecBackend::Native);
        let out_cy = d.run_in(&mut cy, &u, &v);
        let out_nat = d.run_in(&mut nat, &u, &v);
        assert_eq!(nat.ff_cycles(), 0, "fractional rate must cycle-step");
        assert_eq!(out_nat.result.to_bits(), out_cy.result.to_bits());
        assert_eq!(out_nat.report, out_cy.report);
    }

    /// A stalling ablation reducer fails the never-stalls precondition:
    /// fast-forward declines and both backends still agree.
    #[test]
    fn stalling_reducer_declines_fast_forward() {
        use crate::reduce::StallingReducer;
        let (u, v) = vecs(256);
        let d = DotProductDesign::standalone(DotParams::with_k(2), 170.0);
        let mut nat = Harness::with_backend(ExecBackend::Native);
        let mut r1 = StallingReducer::new(ADDER_STAGES);
        let out_nat = d.run_with_reducer_in(&mut nat, &u, &v, &mut r1);
        assert_eq!(nat.ff_cycles(), 0, "stalling reducer must cycle-step");
        let mut r2 = StallingReducer::new(ADDER_STAGES);
        let out_cy = d.run_with_reducer(&u, &v, &mut r2);
        assert_eq!(out_nat.report, out_cy.report);
    }
}
