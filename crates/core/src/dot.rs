//! Level-1 BLAS: the tree-based dot-product architecture (paper §4.1).
//!
//! k multipliers accept one element of each vector per cycle; an adder
//! tree of k−1 pipelined adders sums the k products; because k < n, a
//! reduction circuit accumulates the tree's output stream into the final
//! scalar. The operation is I/O bound: performance is set by the rate at
//! which the two vectors stream in (2k words per cycle), and the paper
//! picks k to match the available memory bandwidth (k = 2 on XD1, Table 3).
//!
//! The design runs on the shared tree-reduce datapath
//! ([`crate::tree_reduce`]); this module supplies its group source: k
//! elements of each vector per group, multiplied lane by lane and folded
//! in balanced-tree order, all groups one reduction set.

use crate::reduce::{ReduceInput, Reducer, SingleAdderReducer};
use crate::report::SimReport;
use crate::tree_reduce::{Feed, GroupSource, Slot, TreeIds, TreeRun};
use fblas_fpu::softfloat::{balanced_fold, mul_f64};
use fblas_fpu::{ADDER_STAGES, MULTIPLIER_STAGES};
use fblas_mem::ReadChannel;
use fblas_sim::{ClockDomain, Harness, Probe, ProbeId, Topology};
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
    #[expect(
        clippy::float_arithmetic,
        reason = "accounting: bandwidth demand against the SRAM supply"
    )]
    pub fn new(params: DotParams, node: &Xd1Node) -> Self {
        assert!(
            params.k.is_power_of_two(),
            "adder tree needs power-of-two k"
        );
        let clock = ClockModel::default().tree_design();
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
    #[expect(
        clippy::float_arithmetic,
        reason = "accounting: splits the SRAM read rate between two streams"
    )]
    pub fn on_src(k: usize, station: &fblas_system::src_station::SrcMapStation) -> Self {
        assert!(k.is_power_of_two(), "adder tree needs power-of-two k");
        let clock = ClockModel::default().tree_design();
        let supply = station.sram_words_per_cycle(clock.mhz());
        let params = DotParams {
            k,
            adder_stages: fblas_fpu::ADDER_STAGES,
            mult_stages: fblas_fpu::MULTIPLIER_STAGES,
            // Each stream gets half the read path, capped at k words.
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
    #[expect(clippy::float_arithmetic, reason = "accounting: bytes per second")]
    pub fn bandwidth_bytes_per_s(&self) -> f64 {
        2.0 * self.params.words_per_cycle_per_vector * 8.0 * self.clock.hz()
    }

    /// Static channel graph of the design (§4.1): two vector streams into
    /// the lockstep multiplier bank, the (k−1)-adder tree behind a gated
    /// backlog, and the §4.3 reduction circuit at the root. Analyzed by
    /// `fblas-check` for deadlock-freedom and a sound throughput bound.
    pub fn topology(&self) -> Topology {
        let p = &self.params;
        let rate = p.words_per_cycle_per_vector;
        crate::topology::tree_reduce(
            format!("dot[k={}]", p.k),
            p.k,
            p.tree_latency(),
            p.adder_stages,
            &[
                ("u-stream", "u-feed", rate, 1.0),
                ("v-stream", "v-feed", rate, 1.0),
            ],
            None,
            ("result", "result-port"),
        )
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
        let rate = self.params.words_per_cycle_per_vector;
        let source = DotSource {
            k: self.params.k,
            u: ReadChannel::new(u, rate),
            v: ReadChannel::new(v, rate),
            have: [0; 2],
            lo: 0,
        };
        let feed = Feed {
            latency: self.params.tree_latency(),
            slots: u.len().div_ceil(self.params.k) as u64,
            words: 2 * u.len() as u64,
            gapless: rate >= self.params.k as f64,
        };
        let out = TreeRun::new(source, feed, reducer, vec![f64::NAN]).run_in(harness);
        DotOutcome {
            result: out.y[0],
            report: out.report,
            clock: self.clock,
            peak_flops: io_bound_peak_dot(self.bandwidth_bytes_per_s()),
            reduction_buffer_high_water: out.reduction_buffer_high_water,
        }
    }
}

/// Dot's group source: k elements of each vector per group, one set.
struct DotSource<'a> {
    k: usize,
    u: ReadChannel<'a>,
    v: ReadChannel<'a>,
    /// Words of the next group that have arrived, per stream.
    have: [usize; 2],
    /// First element of the next group.
    lo: usize,
}

impl GroupSource for DotSource<'_> {
    type Streams = [ProbeId; 2];
    const NAME: &'static str = "dot";
    const WHOLE_RUN_LATENCY: bool = true;

    fn register(probe: &mut Probe) -> TreeIds<[ProbeId; 2]> {
        TreeIds {
            front_end: probe.component("dot/front-end"),
            streams: [
                probe.component("dot/u-stream"),
                probe.component("dot/v-stream"),
            ],
            backlog: Some(probe.component("dot/backlog")),
            reducer: probe.component("dot/reducer"),
            reduction_buffer: probe.component("dot/reduction-buffer"),
        }
    }

    fn tick(&mut self) {
        self.u.tick();
        self.v.tick();
    }

    fn arrive(&mut self) -> (u64, bool) {
        let want = self.k.min(self.u.len() - self.lo);
        let mut words = 0;
        for (ch, have) in [&mut self.u, &mut self.v].into_iter().zip(&mut self.have) {
            let got = ch.take(want - *have);
            *have += got;
            words += got as u64;
        }
        (words, self.have == [want; 2])
    }

    fn next(&mut self) -> Slot {
        // All k lanes fire in lockstep: multiply and combine in
        // balanced-tree order (bit-exact with the lane tree).
        let (lo, n) = (self.lo, self.u.len());
        let hi = (lo + self.k).min(n);
        let (u, v) = (&self.u.data()[lo..hi], &self.v.data()[lo..hi]);
        let value = balanced_fold(hi - lo, |i| mul_f64(u[i], v[i]));
        (self.lo, self.have) = (hi, [0; 2]);
        Slot {
            input: ReduceInput {
                set_id: 0,
                value,
                last: hi == n,
            },
            flops: Some(2 * (hi - lo) as u64),
            words: hi - lo,
        }
    }

    /// The front end has no drain phase of its own.
    fn drain_stall(_open: bool) -> bool {
        false
    }

    fn sample_streams(&self, probe: &mut Probe, ids: [ProbeId; 2]) {
        self.u.probe_utilization(probe, ids[0]);
        self.v.probe_utilization(probe, ids[1]);
    }

    fn fault_drop_beats(&mut self, beats: u64) -> bool {
        self.u.fault_drop_beats(beats)
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
