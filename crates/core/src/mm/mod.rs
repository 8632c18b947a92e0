//! Level-3 BLAS: dense matrix multiply on a linear array of PEs
//! (paper §5).
//!
//! Matrix multiply reuses every element n times, so unlike the Level-1/2
//! operations it need not be I/O bound. The paper's design streams m×m
//! blocks through k processing elements connected in a linear array:
//!
//! * [`BlockEngine`] — cycle-accurate simulation of one m×m block
//!   multiply-accumulate on the PE array (one A element and one B element
//!   enter every m/k cycles; PE p multiplies each A element against its
//!   m/k registered B-row elements and accumulates into its slice of C′).
//!   This is where the paper's stage formulas (§5.1) are *measured* rather
//!   than assumed.
//! * [`LinearArrayMm`] — the full n×n driver: (n/m)³ block multiplies with
//!   the three-stage overlap (the register-fill stage of one block hides
//!   under the compute of the previous), effective latency n³/k, total
//!   storage 2m², I/O complexity Θ(n³/m).
//! * [`hierarchical`] — the §5.2 multi-FPGA design: l FPGAs in a linear
//!   array, SRAM-level b×b blocking, effective latency n³/(k·l), DRAM I/O
//!   complexity Θ(n³/b).

mod drain;
pub mod hierarchical;
mod host_accumulated;
mod linear_array;

pub use drain::{DrainModel, DrainStats};
pub use hierarchical::{HierarchicalMm, HierarchicalOutcome, HierarchicalParams};
pub use host_accumulated::{HostAccumulatedMm, HostAccumulatedOutcome};
pub use linear_array::{BlockEngine, BlockStats, LinearArrayMm, MmOutcome};

use crate::mvm::DenseMatrix;

/// Hazard-handling policy for configurations where the C′ update interval
/// m²/k is shorter than the adder pipeline α.
///
/// The paper's single-FPGA implementation (§5.3) uses m = 128, giving a
/// comfortable margin, but its XD1 deployment (§6.3) picks m = k = 8 "to
/// simplify the implementation", for which m²/k = 8 < α = 14. The paper
/// does not say how its hardware resolved this; the simulation therefore
/// offers both behaviours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardPolicy {
    /// Panic on any read of a C′ cell with an in-flight update (default:
    /// architectures must honour §5.1's stated condition m²/k ≥ α).
    Enforce,
    /// Count violations but compute with forwarded (architecturally
    /// current) values, as a hardware fix-up would. Used to reproduce the
    /// paper's m = k = 8 Table 4 configuration.
    Document,
}

/// Parameters of the linear-array matrix multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmParams {
    /// Number of processing elements.
    pub k: usize,
    /// Block edge (on-chip storage is 2m² words). Must be a multiple of k.
    pub m: usize,
    /// Adder pipeline depth α.
    pub adder_stages: usize,
    /// Multiplier pipeline depth.
    pub mult_stages: usize,
    /// What to do when m²/k < α.
    pub hazard_policy: HazardPolicy,
}

impl MmParams {
    /// The paper's single-FPGA §5.3 configuration: m = 128 with `k` PEs.
    pub fn single_fpga(k: usize) -> Self {
        Self {
            k,
            m: 128,
            adder_stages: fblas_fpu::ADDER_STAGES,
            mult_stages: fblas_fpu::MULTIPLIER_STAGES,
            hazard_policy: HazardPolicy::Enforce,
        }
    }

    /// The paper's XD1 §6.3 configuration: k = m = 8 (hazard documented,
    /// not enforced — see [`HazardPolicy`]).
    pub fn table4() -> Self {
        Self {
            k: 8,
            m: 8,
            adder_stages: fblas_fpu::ADDER_STAGES,
            mult_stages: fblas_fpu::MULTIPLIER_STAGES,
            hazard_policy: HazardPolicy::Document,
        }
    }

    /// A small test configuration with hazard enforcement.
    pub fn test(k: usize, m: usize) -> Self {
        Self {
            k,
            m,
            adder_stages: fblas_fpu::ADDER_STAGES,
            mult_stages: fblas_fpu::MULTIPLIER_STAGES,
            hazard_policy: HazardPolicy::Enforce,
        }
    }

    /// A elements reside m/k cycles in each PE.
    pub fn residency(&self) -> usize {
        self.m / self.k
    }

    /// Cycles between successive updates of one C′ cell.
    pub fn update_interval(&self) -> usize {
        self.m * self.m / self.k
    }

    /// Whether the §5.1 hazard-freedom condition m²/k ≥ α holds.
    pub fn hazard_free(&self) -> bool {
        self.update_interval() >= self.adder_stages
    }

    /// Register-fill cycles for one block (§5.1 stage 1): m·(m/k) + (k−1).
    pub fn fill_cycles(&self) -> u64 {
        (self.m * self.m / self.k + self.k - 1) as u64
    }

    /// Effective per-block latency with overlap (§5.1): m³/k.
    pub fn effective_block_cycles(&self) -> u64 {
        (self.m * self.m * self.m / self.k) as u64
    }

    /// One block multiply in isolation, as [`BlockEngine`] measures it
    /// on a hazard-free blocking: fill, m³/k MAC slots per PE, the
    /// k − 1 skew, and one transit of the multiplier and adder.
    pub fn block_cycles(&self) -> u64 {
        self.fill_cycles()
            + self.effective_block_cycles()
            + (self.k - 1 + self.mult_stages + self.adder_stages) as u64
    }

    /// Cycles after the last block's compute (§5.1 stage 3): its C
    /// elements ride the array right-to-left, m²/k per PE over k − 1
    /// hops, then leave through PE 0.
    pub fn drain_cycles(&self) -> u64 {
        let per_pe = self.m * self.m / self.k;
        (per_pe * (self.k - 1) + per_pe) as u64
    }

    /// Required external bandwidth in words per cycle (§5.1): 3k/m.
    #[expect(clippy::float_arithmetic, reason = "accounting: words per cycle")]
    pub fn words_per_cycle(&self) -> f64 {
        3.0 * self.k as f64 / self.m as f64
    }

    fn validate(&self) {
        assert!(self.k >= 1, "need at least one PE");
        assert!(self.m >= self.k, "m must be at least k");
        assert_eq!(self.m % self.k, 0, "m must be a multiple of k");
        if self.hazard_policy == HazardPolicy::Enforce {
            assert!(
                self.hazard_free(),
                "m²/k = {} < α = {}: §5.1 hazard condition violated \
                 (use HazardPolicy::Document to reproduce the paper's \
                 m = k = 8 configuration)",
                self.update_interval(),
                self.adder_stages
            );
        }
    }
}

/// Reference C = A·B (+ C₀) in plain f64, for test oracles.
#[expect(clippy::float_arithmetic, reason = "oracle: plain f64 reference")]
pub fn ref_matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.cols(), b.rows());
    DenseMatrix::from_fn(a.rows(), b.cols(), |i, j| {
        (0..a.cols()).map(|q| a.at(i, q) * b.at(q, j)).sum()
    })
}

#[cfg(test)]
pub(crate) mod testmat {
    use crate::mvm::DenseMatrix;

    /// Integer-valued matrices: block products sum exactly in any
    /// association, so the simulated result must equal the oracle bit for
    /// bit.
    pub fn int_pair(n: usize) -> (DenseMatrix, DenseMatrix) {
        let a = DenseMatrix::from_fn(n, n, |i, j| ((i * 5 + j * 3) % 8) as f64);
        let b = DenseMatrix::from_fn(n, n, |i, j| ((i * 2 + j * 7) % 8) as f64);
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_params_document_the_hazard() {
        let p = MmParams::table4();
        assert!(!p.hazard_free());
        assert_eq!(p.update_interval(), 8);
        p.validate(); // must not panic under Document policy
    }

    #[test]
    fn single_fpga_params_are_hazard_free() {
        let p = MmParams::single_fpga(8);
        assert!(p.hazard_free());
        assert_eq!(p.update_interval(), 2048);
    }

    #[test]
    #[should_panic(expected = "hazard condition violated")]
    fn enforce_policy_rejects_tight_blocking() {
        let mut p = MmParams::table4();
        p.hazard_policy = HazardPolicy::Enforce;
        p.validate();
    }

    #[test]
    fn paper_formulas() {
        let p = MmParams::single_fpga(8);
        assert_eq!(p.residency(), 16);
        assert_eq!(p.fill_cycles(), 2048 + 7);
        assert_eq!(p.effective_block_cycles(), 128 * 128 * 128 / 8);
        // §5.1: 3k/m words per cycle.
        assert!((p.words_per_cycle() - 3.0 * 8.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn reference_matmul() {
        let a = crate::mvm::DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = crate::mvm::DenseMatrix::from_rows(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = ref_matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }
}
