//! Host-accumulated matrix multiply for problems exceeding the SRAM block
//! size (paper §6.3, closing paragraph).
//!
//! "For n > 512, we set b = 512; that is, matrices A and B are
//! partitioned into blocks of size 512×512. These blocks are read by the
//! design consecutively. If the results of block multiplies are
//! accumulated by the general-purpose processors, the sustained
//! performance of the FPGA will not be affected."
//!
//! [`HostAccumulatedMm`] implements exactly that split: the FPGA design
//! (the §5.2 hierarchical engine) multiplies b×b blocks back to back,
//! and the Opterons accumulate the partial C blocks. The outcome reports
//! the FPGA and host work separately, so the claim — FPGA sustained
//! performance unaffected by n — is testable.

use super::{HierarchicalMm, HierarchicalParams};
use crate::mvm::DenseMatrix;
use crate::report::SimReport;
use fblas_fpu::softfloat::add_f64;
use fblas_sim::ClockDomain;

/// Outcome of a host-accumulated large matrix multiply.
#[derive(Debug, Clone)]
pub struct HostAccumulatedOutcome {
    /// The computed product.
    pub c: DenseMatrix,
    /// Aggregate FPGA-side accounting across all block multiplies.
    pub fpga_report: SimReport,
    /// Floating-point additions performed by the host processors.
    pub host_adds: u64,
    /// Number of b×b block multiplies the FPGA executed.
    pub block_multiplies: u64,
    /// Clock of the FPGA design.
    pub clock: ClockDomain,
}

/// Large-n matrix multiply: FPGA block engine + host accumulation.
#[derive(Debug, Clone)]
pub struct HostAccumulatedMm {
    inner: HierarchicalMm,
}

impl HostAccumulatedMm {
    /// Wrap a hierarchical engine (its b becomes the outer block size).
    pub fn new(params: HierarchicalParams) -> Self {
        Self {
            inner: HierarchicalMm::new(params),
        }
    }

    /// The underlying engine.
    pub fn inner(&self) -> &HierarchicalMm {
        &self.inner
    }

    /// Compute C = A·B for n any multiple of b.
    pub fn run(&self, a: &DenseMatrix, b: &DenseMatrix) -> HostAccumulatedOutcome {
        let bb = self.inner.params().b;
        let n = a.rows();
        assert_eq!(a.cols(), n, "square matrices");
        assert_eq!(b.rows(), n, "shape mismatch");
        assert_eq!(b.cols(), n, "square matrices");
        assert_eq!(n % bb, 0, "n must be a multiple of the block size b");
        let nb = n / bb;

        let mut c = vec![0.0f64; n * n];
        let mut fpga = SimReport::default();
        let mut host_adds = 0u64;
        let mut blocks = 0u64;

        for bi in 0..nb {
            for bj in 0..nb {
                for bq in 0..nb {
                    let a_blk = DenseMatrix::from_fn(bb, bb, |i, j| a.at(bi * bb + i, bq * bb + j));
                    let b_blk = DenseMatrix::from_fn(bb, bb, |i, j| b.at(bq * bb + i, bj * bb + j));
                    let out = self.inner.run(&a_blk, &b_blk);
                    blocks += 1;
                    fpga.cycles += out.report.cycles;
                    fpga.flops += out.report.flops;
                    fpga.words_in += out.report.words_in;
                    fpga.words_out += out.report.words_out;
                    fpga.busy_cycles += out.report.busy_cycles;
                    // Host: C_blk += partial (first q is a plain store).
                    for i in 0..bb {
                        for j in 0..bb {
                            let dst = &mut c[(bi * bb + i) * n + (bj * bb + j)];
                            if bq == 0 {
                                *dst = out.c.at(i, j);
                            } else {
                                *dst = add_f64(*dst, out.c.at(i, j));
                                host_adds += 1;
                            }
                        }
                    }
                }
            }
        }

        HostAccumulatedOutcome {
            c: DenseMatrix::from_rows(n, n, c),
            fpga_report: fpga,
            host_adds,
            block_multiplies: blocks,
            clock: self.inner.clock(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm::testmat::int_pair;
    use crate::mm::{ref_matmul, HierarchicalParams};

    fn params(b: usize) -> HierarchicalParams {
        HierarchicalParams::test(4, 16, 1, b)
    }

    #[test]
    fn large_n_matches_reference() {
        let (a, b) = int_pair(64);
        let mm = HostAccumulatedMm::new(params(32)); // n = 2b
        let out = mm.run(&a, &b);
        assert_eq!(out.c.as_slice(), ref_matmul(&a, &b).as_slice());
        assert_eq!(out.block_multiplies, 8); // (n/b)³
    }

    #[test]
    fn host_add_count() {
        let (a, b) = int_pair(64);
        let out = HostAccumulatedMm::new(params(32)).run(&a, &b);
        // (nb − 1)·nb²·b² host additions with nb = 2, b = 32.
        assert_eq!(out.host_adds, 4 * 32 * 32);
    }

    #[test]
    fn fpga_sustained_rate_independent_of_n() {
        // §6.3's claim: block multiplies stream consecutively, so the
        // FPGA's flops-per-cycle does not change with n.
        let (a1, b1) = int_pair(32);
        let (a2, b2) = int_pair(96);
        let small = HostAccumulatedMm::new(params(32)).run(&a1, &b1);
        let large = HostAccumulatedMm::new(params(32)).run(&a2, &b2);
        let r_small = small.fpga_report.flops as f64 / small.fpga_report.cycles as f64;
        let r_large = large.fpga_report.flops as f64 / large.fpga_report.cycles as f64;
        assert!(
            (r_small - r_large).abs() / r_small < 0.01,
            "flops/cycle drifted: {r_small} vs {r_large}"
        );
    }

    #[test]
    fn single_block_degenerates_to_hierarchical() {
        let (a, b) = int_pair(32);
        let host = HostAccumulatedMm::new(params(32)).run(&a, &b);
        let direct = HierarchicalMm::new(params(32)).run(&a, &b);
        assert_eq!(host.c.as_slice(), direct.c.as_slice());
        assert_eq!(host.host_adds, 0);
        assert_eq!(host.fpga_report.cycles, direct.report.cycles);
    }

    #[test]
    #[should_panic(expected = "multiple of the block size")]
    fn non_multiple_rejected() {
        let (a, b) = int_pair(48);
        HostAccumulatedMm::new(params(32)).run(&a, &b);
    }
}
