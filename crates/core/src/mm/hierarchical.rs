//! Hierarchical matrix multiply on multiple FPGAs (paper §5.2).
//!
//! The single-FPGA linear array only uses BRAM; this design adds the SRAM
//! level of the memory hierarchy and a linear array of l FPGAs:
//!
//! * A and B are cut into b×b SRAM blocks (2b² words of SRAM across the
//!   array), each further cut into m×m BRAM blocks;
//! * FPGA f banks the B column-blocks with index ≡ f (mod l) and runs the
//!   §5.1 engine ("MM") on them, combining block products into its slice
//!   of C′ (in SRAM) through one extra floating-point adder;
//! * FPGA 0 alone touches processor DRAM — three m×m blocks every
//!   m²b/(k·l) cycles — giving effective latency n³/(k·l) and DRAM I/O
//!   complexity Θ(n³/b), the lower bound for internal memory 2b².
//!
//! The inner engine's timing is taken from the cycle-accurate
//! [`BlockEngine`] (run on a probe block each
//! invocation); the outer schedule is deterministic arithmetic on top,
//! exactly as §5.2 derives it. The blocking never reorders a C cell's
//! updates, so the values come from the shared kernel [`matmul_acc`].

use super::BlockEngine;
use super::HazardPolicy;
use super::MmParams;
use crate::mvm::DenseMatrix;
use crate::report::SimReport;
use fblas_fpu::softfloat::matmul_acc;
use fblas_sim::{ClockDomain, EdgeKind, Topology};
use fblas_system::projection::{
    hierarchical_dram_bytes_per_s, hierarchical_sram_bytes_per_s, multi_fpga_fill_cycles,
};
use fblas_system::{ClockModel, Xd1Chassis, Xd1Node};

/// Parameters of the multi-FPGA hierarchical design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchicalParams {
    /// The inner single-FPGA engine configuration.
    pub mm: MmParams,
    /// Number of FPGAs in the linear array.
    pub l: usize,
    /// SRAM block edge (total SRAM use is 2b² words).
    pub b: usize,
}

impl HierarchicalParams {
    /// §6.3: one XD1 node — l = 1, k = m = 8, b = 512.
    pub fn xd1_single_node() -> Self {
        Self {
            mm: MmParams::table4(),
            l: 1,
            b: 512,
        }
    }

    /// §6.4.1: one XD1 chassis — l = 6, k = m = 8, b = 2048.
    pub fn xd1_chassis() -> Self {
        Self {
            mm: MmParams::table4(),
            l: 6,
            b: 2048,
        }
    }

    /// §6.4.2: a 12-chassis installation — l = 72, k = m = 8, b = 2048.
    pub fn xd1_installation() -> Self {
        Self {
            mm: MmParams::table4(),
            l: 72,
            b: 2048,
        }
    }

    /// A small configuration for tests.
    pub fn test(k: usize, m: usize, l: usize, b: usize) -> Self {
        Self {
            mm: MmParams::test(k, m),
            l,
            b,
        }
    }

    /// SRAM words needed per FPGA: the C′ and C slices. Column-blocks
    /// distribute round-robin, so the busiest FPGA owns ⌈(b/m)/l⌉ of the
    /// b/m column-blocks (b²/l for even splits, the paper's accounting).
    pub fn sram_words_per_fpga(&self) -> u64 {
        let col_blocks = (self.b / self.mm.m).div_ceil(self.l) as u64;
        2 * col_blocks * self.mm.m as u64 * self.b as u64
    }

    fn validate(&self) {
        assert!(self.l >= 1, "need at least one FPGA");
        assert_eq!(self.b % self.mm.m, 0, "b must be a multiple of m");
        assert!(
            self.b / self.mm.m >= self.l,
            "need at least one column-block (b/m = {}) per FPGA (l = {})",
            self.b / self.mm.m,
            self.l
        );
    }
}

/// Outcome of a hierarchical multi-FPGA run.
#[derive(Debug, Clone)]
pub struct HierarchicalOutcome {
    /// The computed product.
    pub c: DenseMatrix,
    /// Cycle/flop/word accounting (words are DRAM words: the design's
    /// external traffic).
    pub report: SimReport,
    /// Clock of the PE arrays.
    pub clock: ClockDomain,
    /// Required DRAM bandwidth in bytes/s (= inter-FPGA link demand).
    pub dram_bytes_per_s: f64,
    /// Required SRAM bandwidth per FPGA in bytes/s.
    pub sram_bytes_per_s: f64,
    /// SRAM words used per FPGA.
    pub sram_words_per_fpga: u64,
    /// Pipeline-fill penalty of the l·k-PE array, in cycles.
    pub fill_penalty_cycles: u64,
    /// Hazard violations recorded by the probe block (per inner block).
    pub hazards_per_block: u64,
}

impl HierarchicalOutcome {
    /// Sustained GFLOPS at the design clock.
    pub fn sustained_gflops(&self) -> f64 {
        self.report.sustained_flops(&self.clock) / 1e9
    }
}

/// The §5.2 multi-FPGA matrix multiplier.
#[derive(Debug, Clone)]
pub struct HierarchicalMm {
    params: HierarchicalParams,
    clock: ClockDomain,
}

impl HierarchicalMm {
    /// Instantiate with the XD1 clock model for the inner arrays.
    pub fn new(params: HierarchicalParams) -> Self {
        params.validate();
        params.mm.validate();
        let clock = ClockModel::default().xd1_mm(params.mm.k as u32);
        Self { params, clock }
    }

    /// Check the design fits one node's SRAM and the chassis links.
    pub fn check_platform(&self, node: &Xd1Node, chassis: &Xd1Chassis) -> Result<(), String> {
        if self.params.sram_words_per_fpga() > node.sram_words() {
            return Err(format!(
                "needs {} SRAM words per FPGA, node has {}",
                self.params.sram_words_per_fpga(),
                node.sram_words()
            ));
        }
        let dram = hierarchical_dram_bytes_per_s(
            self.params.mm.k as u32,
            self.params.l,
            self.params.b as u64,
            self.clock.mhz(),
        );
        if dram > node.dram.bandwidth_bytes_per_s {
            return Err(format!(
                "needs {dram} B/s of DRAM bandwidth, node provides {}",
                node.dram.bandwidth_bytes_per_s
            ));
        }
        if dram > chassis.inter_fpga_bytes_per_s {
            return Err(format!(
                "needs {dram} B/s between FPGAs, links provide {}",
                chassis.inter_fpga_bytes_per_s
            ));
        }
        Ok(())
    }

    /// The parameter set.
    pub fn params(&self) -> &HierarchicalParams {
        &self.params
    }

    /// The clock domain.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Static channel graph (§5.2): the DRAM port on FPGA 0 streams
    /// 2kl/b words per cycle (each re-read b times across the SRAM-level
    /// blocking, hence b FLOPs per delivered word), staged through SRAM
    /// to l aggregated k-PE arrays; each FPGA's combine adder folds
    /// block products into its C′ slice in SRAM. Two feedback loops: the
    /// inner BRAM C′ rotation (m²/k cells, plus the α forwarding
    /// registers under the documented-hazard policy) and the SRAM C′
    /// slice rotation (mb/l cells per FPGA at minimum — always ≫ α).
    pub fn topology(&self) -> Topology {
        let p = &self.params;
        let (k, m, l, b) = (p.mm.k as f64, p.mm.m, p.l as f64, p.b as f64);
        let alpha = p.mm.adder_stages;
        let mut t = Topology::new(format!("mm-hier[k={},m={},l={},b={}]", p.mm.k, m, p.l, p.b));
        let dram = t.source("dram-port");
        let staging = t.junction("sram-staging");
        let mult = t.pe("pe-mult-banks", k * l);
        let add = t.pe("pe-adder-banks", k * l);
        let combine = t.pe("combine-adders", l);
        let c = t.sink("c-dram-port");
        t.edge(
            "dram-feed",
            dram,
            staging,
            EdgeKind::Channel {
                // Channel-rate accounting, not datapath. lint: allow(native-f64)
                words_per_cycle: 2.0 * k * l / b,
                flops_per_word: b,
            },
        );
        t.edge("sram-feed", staging, mult, EdgeKind::Wire);
        t.edge("mac-chain", mult, add, EdgeKind::Wire);
        let bram = t.junction("cprime-bram");
        t.edge("add-pipe", add, bram, EdgeKind::Delay { stages: alpha });
        let depth = p.mm.update_interval()
            + match p.mm.hazard_policy {
                HazardPolicy::Enforce => 0,
                HazardPolicy::Document => alpha,
            };
        t.edge("cprime-rotation", bram, add, EdgeKind::Fifo { depth });
        t.edge("block-products", bram, combine, EdgeKind::Wire);
        let sram = t.junction("cprime-sram");
        t.edge(
            "combine-pipe",
            combine,
            sram,
            EdgeKind::Delay { stages: alpha },
        );
        t.edge(
            "sram-rotation",
            sram,
            combine,
            EdgeKind::Fifo {
                depth: (m * p.b).div_ceil(p.l),
            },
        );
        t.edge(
            "c-drain",
            sram,
            c,
            EdgeKind::Channel {
                words_per_cycle: k * l / b,
                flops_per_word: 0.0,
            },
        );
        t
    }

    /// Compute C = A·B. n must be a multiple of the SRAM block edge b.
    pub fn run(&self, a: &DenseMatrix, b: &DenseMatrix) -> HierarchicalOutcome {
        let p = &self.params;
        let (k, m, l, bb) = (p.mm.k, p.mm.m, p.l, p.b);
        let n = a.rows();
        assert_eq!(a.cols(), n, "square matrices");
        assert_eq!(b.rows(), n, "shape mismatch");
        assert_eq!(b.cols(), n, "square matrices");
        assert_eq!(n % bb, 0, "n must be a multiple of the SRAM block edge b");

        // Probe one inner block through the cycle-accurate engine: this
        // pins the inner timing and hazard behaviour to measurement.
        let engine = BlockEngine::new(p.mm);
        let probe_a = DenseMatrix::from_fn(m, m, |i, j| a.at(i % n, j % n));
        let probe_b = DenseMatrix::from_fn(m, m, |i, j| b.at(i % n, j % n));
        let mut probe_c = vec![0.0; m * m];
        let probe = engine.multiply_accumulate(&probe_a, &probe_b, &mut probe_c);

        // Functional result: the blocked schedule (outer b-blocks, inner
        // m-blocks dealt round-robin over FPGAs) sums each C cell over q
        // in ascending order, as the kernel does.
        let mut c = vec![0.0f64; n * n];
        matmul_acc(n, a.as_slice(), b.as_slice(), &mut c);

        // Timing (§5.2): effective latency n³/(k·l); the first block pays
        // its measured fill, and each element additionally traverses the
        // l·k-PE array once.
        let n3 = (n as u64).pow(3);
        let effective = n3 / (k as u64 * l as u64);
        let fill_penalty = multi_fpga_fill_cycles(k as u32, l);
        let first_block_extra = probe.cycles - p.mm.effective_block_cycles();
        let cycles = effective + fill_penalty + first_block_extra;

        let words_in = 2 * n3 / bb as u64; // Θ(n³/b) DRAM reads
        let words_out = (n * n) as u64;
        let report = SimReport {
            cycles,
            flops: 2 * n3,
            words_in,
            words_out,
            busy_cycles: n3 / (k as u64 * l as u64),
        };

        HierarchicalOutcome {
            c: DenseMatrix::from_rows(n, n, c),
            report,
            clock: self.clock,
            dram_bytes_per_s: hierarchical_dram_bytes_per_s(
                k as u32,
                l,
                bb as u64,
                self.clock.mhz(),
            ),
            sram_bytes_per_s: hierarchical_sram_bytes_per_s(
                k as u32,
                l,
                bb as u64,
                self.clock.mhz(),
            ),
            sram_words_per_fpga: p.sram_words_per_fpga(),
            fill_penalty_cycles: fill_penalty,
            hazards_per_block: probe.hazard_violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm::ref_matmul;
    use crate::mm::testmat::int_pair;

    #[test]
    fn single_node_matches_reference() {
        let p = HierarchicalParams::test(4, 16, 1, 32);
        let mm = HierarchicalMm::new(p);
        let (a, b) = int_pair(64);
        let out = mm.run(&a, &b);
        assert_eq!(out.c.as_slice(), ref_matmul(&a, &b).as_slice());
    }

    #[test]
    fn multi_fpga_matches_reference() {
        let p = HierarchicalParams::test(4, 16, 2, 32);
        let mm = HierarchicalMm::new(p);
        let (a, b) = int_pair(64);
        let out = mm.run(&a, &b);
        assert_eq!(out.c.as_slice(), ref_matmul(&a, &b).as_slice());
    }

    #[test]
    fn effective_latency_divides_by_l() {
        let (a, b) = int_pair(64);
        let one = HierarchicalMm::new(HierarchicalParams::test(4, 16, 1, 32)).run(&a, &b);
        let two = HierarchicalMm::new(HierarchicalParams::test(4, 16, 2, 32)).run(&a, &b);
        let ratio = one.report.cycles as f64 / two.report.cycles as f64;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn dram_io_is_theta_n3_over_b() {
        let (a, b) = int_pair(64);
        let out = HierarchicalMm::new(HierarchicalParams::test(4, 16, 1, 32)).run(&a, &b);
        assert_eq!(out.report.words_in, 2 * 64u64.pow(3) / 32);
    }

    #[test]
    fn chassis_configuration_fits_xd1() {
        let mm = HierarchicalMm::new(HierarchicalParams::xd1_chassis());
        let node = Xd1Node::default();
        let chassis = Xd1Chassis::default();
        mm.check_platform(&node, &chassis).expect("chassis fits");
        // §6.4.1: b = 2048 uses 2·2048²/6 ≈ 1.4M words of 2M per FPGA.
        assert!(mm.params().sram_words_per_fpga() <= node.sram_words());
    }

    #[test]
    fn single_node_sram_check() {
        // §6.3: b = 512 with l = 1 ⇒ 2·512² = 512K words, well within 2M.
        let p = HierarchicalParams::xd1_single_node();
        assert_eq!(p.sram_words_per_fpga(), 2 * 512 * 512);
    }

    #[test]
    fn oversized_b_fails_platform_check() {
        let mut p = HierarchicalParams::xd1_single_node();
        p.b = 2048; // 2·2048² = 8M words > 2M per FPGA
        let mm = HierarchicalMm::new(p);
        assert!(mm
            .check_platform(&Xd1Node::default(), &Xd1Chassis::default())
            .is_err());
    }

    #[test]
    fn fill_penalty_is_k_times_l() {
        let (a, b) = int_pair(64);
        let out = HierarchicalMm::new(HierarchicalParams::test(4, 16, 2, 32)).run(&a, &b);
        assert_eq!(out.fill_penalty_cycles, 8);
    }

    #[test]
    fn uneven_distribution_still_correct() {
        // b/m = 4 column-blocks over l = 3 FPGAs: FPGA 0 owns two.
        let p = HierarchicalParams::test(4, 16, 3, 64);
        let mm = HierarchicalMm::new(p);
        let (a, b) = int_pair(64);
        let out = mm.run(&a, &b);
        assert_eq!(out.c.as_slice(), ref_matmul(&a, &b).as_slice());
        // The busiest FPGA holds ⌈4/3⌉ = 2 column-blocks: 2·2·16·64 words.
        assert_eq!(mm.params().sram_words_per_fpga(), 2 * 2 * 16 * 64);
    }

    #[test]
    #[should_panic(expected = "at least one column-block")]
    fn more_fpgas_than_column_blocks_rejected() {
        HierarchicalMm::new(HierarchicalParams::test(4, 16, 5, 64));
    }
}
