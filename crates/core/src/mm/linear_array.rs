//! Cycle-accurate linear-array matrix multiplier (paper §5.1).
//!
//! One m×m block multiply proceeds in three stages:
//!
//! 1. **Fill** — the first row of B traverses the array; PE p banks the
//!    elements whose column index ≡ p (mod k) in its registers
//!    (m·(m/k) + (k−1) cycles).
//! 2. **Compute** — every m/k cycles one element of A (column-major) and
//!    one of B (row-major) enter PE 0. An A element resides m/k cycles in
//!    each PE, multiplying against the PE's m/k registered B elements and
//!    accumulating into the PE's slice of C′ (one MAC per PE per cycle).
//!    The next B row streams into the second register bank meanwhile.
//! 3. **Drain** — final C elements ride the array right-to-left into C
//!    storage and out through PE 0, overlapped with the next block's
//!    compute.
//!
//! [`BlockEngine`] simulates stage 2 MAC-by-MAC (with the fill offset
//! added), so the §5.1 latency formulas are *measured*; [`LinearArrayMm`]
//! chains (n/m)³ block multiplies with the overlap rule (effective latency
//! m³/k per block) to produce the full-matrix result and Table 4's cycle
//! counts. Stage 2 runs on the shared interleaved-accumulator datapath
//! (`crate::interleaved`), this module supplying its source: PE p's
//! residency schedule, C′ written at add issue. On hazard-free blockings
//! the native backend replays it in closed form (DESIGN.md §13).

#[cfg(test)]
use super::ref_matmul;
use super::{HazardPolicy, MmParams};
use crate::interleaved::{InterleavedRun, MacBatch, MacIds, MacSource, Shape};
use crate::mvm::DenseMatrix;
use crate::report::SimReport;
use crate::topology::attach_accumulator_loop;
use fblas_fpu::softfloat::{add_f64, matmul_acc, mul_f64};
use fblas_sim::{
    clear_f64_bit, flip_f64_bit, ClockDomain, EdgeKind, Harness, Probe, StallCause, Topology,
};
use fblas_system::{AreaModel, ClockModel, XC2VP50};

/// Measured outcome of one block multiply on the PE array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockStats {
    /// Cycles from the start of the fill stage to the last C′ write.
    pub cycles: u64,
    /// Multiply-accumulates performed (= m³/k per PE... k per cycle).
    pub macs: u64,
    /// Reads of a C′ cell whose previous update was still in flight
    /// (only non-zero under [`HazardPolicy::Document`]).
    pub hazard_violations: u64,
}

/// Cycle-accurate engine for one m×m block multiply-accumulate.
#[derive(Debug, Clone)]
pub struct BlockEngine {
    params: MmParams,
}

impl BlockEngine {
    /// Create an engine (validates the parameter set).
    pub fn new(params: MmParams) -> Self {
        params.validate();
        Self { params }
    }

    /// The parameter set.
    pub fn params(&self) -> &MmParams {
        &self.params
    }

    /// Perform `c += a · b` for m×m blocks, cycle by cycle.
    ///
    /// `c` is the C′ storage content (accumulated in place across the
    /// z-blocks of a full multiply).
    pub fn multiply_accumulate(
        &self,
        a: &DenseMatrix,
        b: &DenseMatrix,
        c: &mut [f64],
    ) -> BlockStats {
        self.multiply_accumulate_in(&mut Harness::new(), a, b, c)
    }

    /// [`BlockEngine::multiply_accumulate`] through a caller-supplied
    /// harness, so every block of a full multiply shares one probe and
    /// its trace timeline.
    pub fn multiply_accumulate_in(
        &self,
        harness: &mut Harness,
        a: &DenseMatrix,
        b: &DenseMatrix,
        c: &mut [f64],
    ) -> BlockStats {
        let m = self.params.m;
        assert_eq!(a.rows(), m);
        assert_eq!(a.cols(), m);
        assert_eq!(b.rows(), m);
        assert_eq!(b.cols(), m);
        assert_eq!(c.len(), m * m);

        // Two pipeline segments per PE, modelled as lockstep batches: the
        // multiplier produces (cell, product); the C′ read happens at
        // *add issue* (when the product emerges from the multiplier), so
        // the hazard window is the adder depth α, exactly §5.1's m²/k ≥ α
        // condition.
        let p = &self.params;
        let shape = Shape {
            mult_stages: p.mult_stages,
            adder_stages: p.adder_stages,
            cells: m * m,
            // PE p fires on cycles p .. p + m³/k: the k − 1 skew.
            batches: p.effective_block_cycles() + p.k as u64 - 1,
            // Every MAC lands one write and has its own latency.
            products: (m * m * m) as u64,
            latencies: (m * m * m) as u64,
            words_out: 0,
            gapless: p.hazard_free(),
        };
        let source = BlockSource {
            params: p,
            a,
            b,
            c,
            cycle: 0,
            hazards: 0,
        };
        let (report, source) = InterleavedRun::new(source, shape).run_in(harness);
        BlockStats {
            cycles: p.fill_cycles() + report.cycles,
            macs: shape.products,
            hazard_violations: source.hazards,
        }
    }
}

/// The linear-array block's products: PE p multiplies the A element it
/// holds against its registered B elements, one MAC per cycle, and
/// accumulates into its columns of C′.
struct BlockSource<'a> {
    params: &'a MmParams,
    a: &'a DenseMatrix,
    b: &'a DenseMatrix,
    /// C′, written at add issue (the forwarded value).
    c: &'a mut [f64],
    /// The current cycle, 0-based.
    cycle: usize,
    hazards: u64,
}

impl MacSource for BlockSource<'_> {
    type Streams = ();
    const NAME: &'static str = "mm-block";
    const IDLE_STALLS: bool = false;
    const FLIP_ADDER: bool = false;

    fn register(&mut self, probe: &mut Probe) -> MacIds<()> {
        // The fill stage banks one m²-word B block while the previous
        // block's A stream finishes; stage 2 then streams the A block.
        // Both stream once per block multiply: 2m² words.
        probe.io_in(2 * (self.params.m * self.params.m) as u64);
        MacIds {
            front_end: probe.component("mm/pe-array"),
            lanes: probe.component("mm/accumulators"),
            add_pipe: probe.component("mm/add-pipe"),
            streams: (),
        }
    }

    fn fire(&mut self, probe: &mut Probe, batch: &mut MacBatch) -> Option<StallCause> {
        let (m, k, r) = (self.params.m, self.params.k, self.params.residency());
        let elements = m * m; // A elements, column-major
        self.cycle = probe.run_cycle() as usize - 1;
        // Each PE p works on A element e = (cycle − p) / r during its
        // residency window; d indexes the PE's registered B elements.
        for p in 0..k.min(self.cycle + 1) {
            let local = self.cycle - p;
            let (e, d) = (local / r, local % r);
            if e >= elements {
                continue;
            }
            let q = e / m; // A column / B row index
            let i = e % m; // row of C
            let j = d * k + p; // column of C owned by PE p
            batch.push((i * m + j, mul_f64(self.a.at(i, q), self.b.at(q, j))));
        }
        if !batch.is_empty() {
            None
        } else if self.cycle >= elements * r {
            Some(StallCause::Drain)
        } else {
            Some(StallCause::InputStarved)
        }
    }

    /// The sum is forwarded to C′ at issue (architectural value); the
    /// add pipeline carries only the landing time of each write.
    fn issue(&mut self, cell: usize, product: f64, hazard: bool) -> f64 {
        if hazard {
            assert!(
                self.params.hazard_policy == HazardPolicy::Document,
                "read-after-write hazard on C′ cell {cell} at cycle {}: \
                 update interval m²/k = {} < α = {}",
                self.cycle,
                self.params.update_interval(),
                self.params.adder_stages
            );
            self.hazards += 1;
        }
        self.c[cell] = add_f64(self.c[cell], product);
        self.c[cell]
    }

    /// Each C′ cell receives its updates in ascending q whatever the
    /// operands are, so the values are one [`matmul_acc`] call.
    fn replay(&mut self, _probe: &mut Probe, _streams: (), _total: u64) {
        matmul_acc(self.params.m, self.a.as_slice(), self.b.as_slice(), self.c);
    }

    /// C′ is the PE array's accumulator storage. The block engine owns
    /// no streaming channel (A and B arrive via direct block reads), so a
    /// channel glitch has no landing site.
    fn fault_flip_buffer(&mut self, slot: usize, bit: u32) -> bool {
        let idx = slot % self.c.len();
        self.c[idx] = flip_f64_bit(self.c[idx], bit);
        true
    }

    fn fault_stuck_at(&mut self, slot: usize, bit: u32) -> bool {
        let idx = slot % self.c.len();
        self.c[idx] = clear_f64_bit(self.c[idx], bit);
        true
    }
}

/// Outcome of a full n×n matrix multiply on the linear array.
#[derive(Debug, Clone)]
pub struct MmOutcome {
    /// The computed product C = A·B.
    pub c: DenseMatrix,
    /// Cycle/flop/word accounting.
    pub report: SimReport,
    /// The clock the k-PE design closes timing at (Figure 9 model).
    pub clock: ClockDomain,
    /// Compute-bound device peak (§6.3: 4.42 GFLOPS on XC2VP50).
    pub peak_flops: f64,
    /// Total hazard violations recorded (zero under Enforce policy).
    pub hazard_violations: u64,
    /// Total on-chip storage the design used, in words (claim: 2m²).
    pub storage_words: usize,
}

impl MmOutcome {
    /// Fraction of the device peak sustained (paper: 46.6 %).
    pub fn fraction_of_peak(&self) -> f64 {
        self.report.fraction_of_peak(&self.clock, self.peak_flops)
    }
}

/// The single-FPGA linear-array matrix multiplier.
///
/// # Examples
///
/// ```
/// use fblas_core::mm::{LinearArrayMm, MmParams};
/// use fblas_core::mvm::DenseMatrix;
///
/// // k = 4 PEs, 16×16 on-chip blocks, 32×32 problem.
/// let mm = LinearArrayMm::new(MmParams::test(4, 16));
/// let a = DenseMatrix::from_fn(32, 32, |i, j| ((i + j) % 4) as f64);
/// let b = DenseMatrix::from_fn(32, 32, |i, j| ((i * j) % 4) as f64);
/// let out = mm.run(&a, &b);
///
/// // Effective latency ≈ n³/k cycles (§5.1), exact functional result.
/// assert!(out.report.cycles >= 32 * 32 * 32 / 4);
/// assert_eq!(out.c.at(0, 0), (0..32).map(|q| a.at(0, q) * b.at(q, 0)).sum());
/// ```
#[derive(Debug, Clone)]
pub struct LinearArrayMm {
    engine: BlockEngine,
    clock: ClockDomain,
    on_xd1: bool,
}

impl LinearArrayMm {
    /// Instantiate on a bare device with the Figure 9 clock model.
    pub fn new(params: MmParams) -> Self {
        let clock = ClockModel::default().mm(params.k as u32);
        Self {
            engine: BlockEngine::new(params),
            clock,
            on_xd1: false,
        }
    }

    /// Instantiate as deployed on XD1 (Table 4 clock: 130 MHz at k = 8).
    pub fn on_xd1(params: MmParams) -> Self {
        let clock = ClockModel::default().xd1_mm(params.k as u32);
        Self {
            engine: BlockEngine::new(params),
            clock,
            on_xd1: true,
        }
    }

    /// The parameter set.
    pub fn params(&self) -> &MmParams {
        &self.engine.params
    }

    /// The clock domain.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Static channel graph (§5.1): A/B block streams at k/m words per
    /// cycle each into the k-PE linear array; the C′ accumulation loop
    /// provides m²/k cells of storage against α in-flight updates.
    ///
    /// Under [`HazardPolicy::Document`] the export adds the α forwarding
    /// registers a hardware fix-up supplies (the paper's m = k = 8
    /// configuration has m²/k = 8 < α = 14 and computes with forwarded
    /// values), so the loop stays provably deadlock-free; under
    /// [`HazardPolicy::Enforce`] the bare m²/k cells must cover α — the
    /// same condition the constructor asserts.
    pub fn topology(&self) -> Topology {
        let p = self.params();
        let mut t = Topology::new(format!("mm-linear[k={},m={}]", p.k, p.m));
        let a = t.source("a-blocks");
        let b = t.source("b-blocks");
        let regs = t.junction("b-registers");
        let mult = t.pe("pe-mult-bank", p.k as f64);
        let add = t.pe("pe-adder-bank", p.k as f64);
        let c = t.sink("c-blocks");
        // Per §5.1 each of A, B streams k/m words per cycle; every
        // delivered word participates in m multiply-accumulates.
        #[expect(clippy::float_arithmetic, reason = "accounting: words per cycle")]
        let in_rate = p.k as f64 / p.m as f64;
        let feed = EdgeKind::Channel {
            words_per_cycle: in_rate,
            flops_per_word: p.m as f64,
        };
        t.edge("a-feed", a, mult, feed);
        t.edge("b-feed", b, regs, feed);
        t.edge("b-reuse", regs, mult, EdgeKind::Wire);
        t.edge("mac-chain", mult, add, EdgeKind::Wire);
        let depth = p.update_interval()
            + match p.hazard_policy {
                HazardPolicy::Enforce => 0,
                HazardPolicy::Document => p.adder_stages,
            };
        let out = ("c-drain", in_rate);
        attach_accumulator_loop(&mut t, add, c, "cprime", out, p.adder_stages, depth);
        t
    }

    /// Compute C = A·B. n must be a multiple of the block edge m.
    pub fn run(&self, a: &DenseMatrix, b: &DenseMatrix) -> MmOutcome {
        self.run_in(&mut Harness::new(), a, b)
    }

    /// [`LinearArrayMm::run`] through a caller-supplied harness: every
    /// block multiply lands in the caller's probe, back to back on one
    /// trace timeline.
    ///
    /// The outcome's [`SimReport`] stays the §5.1 overlap aggregate: the
    /// blocks simulate sequentially here, but in hardware the fill and
    /// drain of consecutive blocks hide under compute, so total cycles
    /// are `first + (blocks−1)·m³/k + drain` rather than the sum of
    /// per-block measurements, and `busy_cycles` is the analytic
    /// `macs/k` (k MACs retire per fully-occupied cycle; the per-block
    /// probe counts also see the ragged skew cycles, which the overlap
    /// hides).
    pub fn run_in(&self, harness: &mut Harness, a: &DenseMatrix, b: &DenseMatrix) -> MmOutcome {
        let p = &self.engine.params;
        let (m, k) = (p.m, p.k);
        let n = a.rows();
        assert_eq!(a.cols(), n, "square matrices");
        assert_eq!(b.rows(), n, "shape mismatch");
        assert_eq!(b.cols(), n, "square matrices");
        assert_eq!(n % m, 0, "n must be a multiple of the block edge m");
        let nb = n / m;

        let mut c_data = vec![0.0f64; n * n];
        let mut cblk = vec![0.0f64; m * m];
        let (mut first_block_cycles, mut hazards, mut macs, mut blocks_done) = (0, 0, 0, 0u64);

        for g in 0..nb {
            for h in 0..nb {
                cblk.fill(0.0);
                for z in 0..nb {
                    let ablk = DenseMatrix::from_fn(m, m, |i, q| a.at(g * m + i, z * m + q));
                    let bblk = DenseMatrix::from_fn(m, m, |q, j| b.at(z * m + q, h * m + j));
                    let stats = self
                        .engine
                        .multiply_accumulate_in(harness, &ablk, &bblk, &mut cblk);
                    if blocks_done == 0 {
                        first_block_cycles = stats.cycles;
                    }
                    hazards += stats.hazard_violations;
                    macs += stats.macs;
                    blocks_done += 1;
                }
                for (i, row) in cblk.chunks(m).enumerate() {
                    let at = (g * m + i) * n + h * m;
                    c_data[at..at + m].copy_from_slice(row);
                }
            }
        }

        // Three-stage overlap (§5.1): the fill and drain of consecutive
        // block multiplies hide under compute, so after the first block
        // each one costs its effective latency m³/k; the last block's C
        // elements still have to ride the array out through PE 0.
        let cycles =
            first_block_cycles + (blocks_done - 1) * p.effective_block_cycles() + p.drain_cycles();

        let report = SimReport {
            cycles,
            flops: 2 * macs,
            // Each block multiply streams one A block and one B block in;
            // each (g,h) pair writes one C block out.
            words_in: blocks_done * (2 * m * m) as u64,
            words_out: (n * n) as u64,
            busy_cycles: macs / k as u64,
        };
        let peak = fblas_system::device_peak_flops(&XC2VP50, &AreaModel::default(), 170.0);
        MmOutcome {
            c: DenseMatrix::from_rows(n, n, c_data),
            report,
            clock: self.clock,
            peak_flops: peak,
            hazard_violations: hazards,
            storage_words: 2 * m * m,
        }
    }

    /// Whether this instance models the XD1 deployment.
    pub fn is_on_xd1(&self) -> bool {
        self.on_xd1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm::testmat::int_pair;
    use fblas_sim::ExecBackend;

    #[test]
    fn block_engine_matches_reference() {
        let p = MmParams::test(4, 16);
        let (a, b) = int_pair(16);
        let engine = BlockEngine::new(p);
        let mut c = vec![0.0; 16 * 16];
        engine.multiply_accumulate(&a, &b, &mut c);
        let expect = ref_matmul(&a, &b);
        assert_eq!(c, expect.as_slice());
    }

    #[test]
    fn block_engine_accumulates_in_place() {
        let p = MmParams::test(4, 16);
        let (a, b) = int_pair(16);
        let engine = BlockEngine::new(p);
        let mut c = vec![1.0; 16 * 16];
        engine.multiply_accumulate(&a, &b, &mut c);
        let expect = ref_matmul(&a, &b);
        for (got, want) in c.iter().zip(expect.as_slice()) {
            assert_eq!(*got, want + 1.0);
        }
    }

    #[test]
    fn block_cycles_match_paper_stage_formula() {
        // §5.1 stage 2: the last element is generated after
        // m³/k + m²/k + (k−1) + α cycles; our measured count adds the
        // MAC pipeline drain.
        let p = MmParams::test(4, 32);
        let (a, b) = int_pair(32);
        let engine = BlockEngine::new(p);
        let mut c = vec![0.0; 32 * 32];
        let stats = engine.multiply_accumulate(&a, &b, &mut c);
        let formula = (32u64 * 32 * 32) / 4 // m³/k
            + (32 * 32) / 4                 // fill m²/k
            + 3                             // k−1
            + 25; // MAC pipeline latency
        assert!(
            stats.cycles.abs_diff(formula) <= 8,
            "measured {} vs formula {formula}",
            stats.cycles
        );
    }

    #[test]
    fn hazard_free_configuration_has_no_violations() {
        let p = MmParams::test(2, 8); // m²/k = 32 ≥ 25
        let (a, b) = int_pair(8);
        let mut c = vec![0.0; 64];
        let stats = BlockEngine::new(p).multiply_accumulate(&a, &b, &mut c);
        assert_eq!(stats.hazard_violations, 0);
    }

    #[test]
    fn table4_configuration_documents_hazards() {
        let p = MmParams::table4(); // m = k = 8: m²/k = 8 < α
        let (a, b) = int_pair(8);
        let mut c = vec![0.0; 64];
        let stats = BlockEngine::new(p).multiply_accumulate(&a, &b, &mut c);
        assert!(stats.hazard_violations > 0, "m=k=8 must record hazards");
        // With Document policy the forwarded values still give the exact
        // product.
        assert_eq!(c, ref_matmul(&a, &b).as_slice());
    }

    /// Full-mantissa reals spread over 2⁻²⁰..2²¹: products of these round
    /// and their sums depend on association, unlike [`int_pair`].
    fn real_pair(n: usize, seed: u64) -> (DenseMatrix, DenseMatrix) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let frac = 1.0 + (s >> 12) as f64 / (1u64 << 52) as f64;
            let sign = if s & 1 == 0 { 1.0 } else { -1.0 };
            sign * frac * 2f64.powi(((s >> 3) % 41) as i32 - 20)
        };
        let a = DenseMatrix::from_fn(n, n, |_, _| next());
        let b = DenseMatrix::from_fn(n, n, |_, _| next());
        (a, b)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn closed_form_block_cycles_match_the_stepped_engine() {
        let mut shapes = 0;
        // The k × m grid, plus the full scale ladder's k = 8, m = 64
        // blocking (the fabric schedules its first block in closed form).
        let grid = [1, 2, 4, 8]
            .into_iter()
            .flat_map(|k| [8, 16, 24, 32].map(|m| (k, m)))
            .chain([(8, 64)]);
        for (k, m) in grid {
            for mult_stages in [1, fblas_fpu::MULTIPLIER_STAGES, 40] {
                let p = MmParams {
                    mult_stages,
                    ..MmParams::test(k, m)
                };
                if m % k != 0 || !p.hazard_free() {
                    continue;
                }
                let ctx = format!("k={k} m={m} mult={mult_stages}");
                let (a, b) = real_pair(m, (k * 100 + m) as u64);
                let engine = BlockEngine::new(p);
                let mut stepped_h = Harness::new();
                let mut stepped_c = vec![0.5; m * m];
                let stepped = engine.multiply_accumulate_in(&mut stepped_h, &a, &b, &mut stepped_c);
                assert_eq!(stepped.cycles, p.block_cycles(), "{ctx}");

                let mut nat_h = Harness::with_backend(ExecBackend::Native);
                let mut nat_c = vec![0.5; m * m];
                let nat = engine.multiply_accumulate_in(&mut nat_h, &a, &b, &mut nat_c);
                assert!(nat_h.ff_cycles() > 0, "{ctx}: fast-forward declined");
                assert_eq!(nat, stepped, "{ctx}");
                assert_eq!(bits(&nat_c), bits(&stepped_c), "{ctx}");
                assert_eq!(
                    nat_h.probe().component_stats(),
                    stepped_h.probe().component_stats(),
                    "{ctx}"
                );
                assert_eq!(
                    nat_h.probe().busy_cycles(),
                    stepped_h.probe().busy_cycles(),
                    "{ctx}"
                );
                shapes += 1;
            }
        }
        assert!(shapes >= 30, "grid collapsed to {shapes} shapes");
    }

    #[test]
    fn full_multiply_matches_reference() {
        let (a, b) = int_pair(32);
        let mm = LinearArrayMm::new(MmParams::test(4, 16));
        let out = mm.run(&a, &b);
        assert_eq!(out.c.as_slice(), ref_matmul(&a, &b).as_slice());
        assert_eq!(out.hazard_violations, 0);
    }

    #[test]
    fn effective_latency_is_n_cubed_over_k() {
        let (a, b) = int_pair(64);
        let p = MmParams::test(4, 16);
        let mm = LinearArrayMm::new(p);
        let out = mm.run(&a, &b);
        let ideal = (64u64 * 64 * 64) / 4;
        let ratio = out.report.cycles as f64 / ideal as f64;
        assert!(
            (1.0..1.1).contains(&ratio),
            "cycles {} vs n³/k {ideal} (ratio {ratio})",
            out.report.cycles
        );
    }

    #[test]
    fn io_complexity_theta_n3_over_m() {
        let (a, b) = int_pair(64);
        let out = LinearArrayMm::new(MmParams::test(4, 16)).run(&a, &b);
        // 2·n³/m words in: (n/m)³ block pairs of 2m² words.
        assert_eq!(out.report.words_in, 2 * 64 * 64 * 64 / 16);
        assert_eq!(out.report.words_out, 64 * 64);
    }

    #[test]
    fn storage_claim_two_m_squared() {
        let (a, b) = int_pair(32);
        let out = LinearArrayMm::new(MmParams::test(4, 32)).run(&a, &b);
        assert_eq!(out.storage_words, 2 * 32 * 32);
    }

    #[test]
    fn clock_degrades_with_k() {
        let mm2 = LinearArrayMm::new(MmParams::test(2, 16));
        let mm8 = LinearArrayMm::new(MmParams::test(8, 16));
        assert!(mm2.clock().mhz() > mm8.clock().mhz());
    }

    #[test]
    #[should_panic(expected = "multiple of the block edge")]
    fn n_not_multiple_of_m_rejected() {
        let (a, b) = int_pair(24);
        LinearArrayMm::new(MmParams::test(4, 16)).run(&a, &b);
    }
}
