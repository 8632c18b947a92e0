//! Level-2 BLAS: matrix-vector multiply architectures (paper §4.2).
//!
//! `y = A·x` for an n×n matrix streams every element of A exactly once —
//! the operation is I/O bound — while each element of x is reused n times
//! from on-chip storage. The paper proposes two architectures, keyed to
//! the storage order of A:
//!
//! * [`RowMajorMvm`] — A in row-major order: the computation is n dot
//!   products sharing the tree-based front end of §4.1, with part of x in
//!   a local store next to each multiplier and the reduction circuit
//!   accumulating each row's partial stream (n sets of n/k values — the
//!   workload the reduction circuit exists for).
//! * [`ColMajorMvm`] — A in column-major order: k multiplier/adder pairs,
//!   each owning the intermediate results of the y elements congruent to
//!   its lane index mod k. A given yᵢ is touched once every n/k cycles,
//!   so no read-after-write hazard arises as long as n/k ≥ α — a
//!   reduction-circuit-free design whose applicability condition the
//!   constructor enforces.
//!
//! When x (or y) exceeds on-chip storage, [`blocked`] runs the same
//! engines panel by panel: the row-major form folds each panel's partial
//! sums into the next panel's reduction sets; the column-major form
//! processes disjoint row panels and re-streams x per panel.

pub mod blocked;
mod col_major;
mod row_major;

pub use blocked::{BlockedColMajorMvm, BlockedRowMajorMvm};
pub use col_major::ColMajorMvm;
pub use row_major::RowMajorMvm;

use crate::report::SimReport;
use fblas_sim::ClockDomain;
use fblas_system::io_bound_peak_mvm;

/// Parameters shared by both matrix-vector architectures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MvmParams {
    /// Number of multiplier lanes (power of two for the row-major tree).
    pub k: usize,
    /// Adder pipeline depth α.
    pub adder_stages: usize,
    /// Multiplier pipeline depth.
    pub mult_stages: usize,
    /// Words of A delivered per cycle (k on XD1: one per SRAM bank).
    pub matrix_words_per_cycle: f64,
}

impl MvmParams {
    /// The paper's Table 3 / Table 4 configuration: k = 4 lanes fed by
    /// four SRAM banks at one word per bank per cycle.
    pub fn table3() -> Self {
        Self {
            k: 4,
            adder_stages: fblas_fpu::ADDER_STAGES,
            mult_stages: fblas_fpu::MULTIPLIER_STAGES,
            matrix_words_per_cycle: 4.0,
        }
    }

    /// A configuration with `k` lanes fed at full rate.
    pub fn with_k(k: usize) -> Self {
        Self {
            k,
            adder_stages: fblas_fpu::ADDER_STAGES,
            mult_stages: fblas_fpu::MULTIPLIER_STAGES,
            matrix_words_per_cycle: k as f64,
        }
    }
}

/// Result of one matrix-vector run.
#[derive(Debug, Clone)]
pub struct MvmOutcome {
    /// The computed vector y.
    pub y: Vec<f64>,
    /// Cycle/flop/word accounting.
    pub report: SimReport,
    /// The clock the design closes timing at.
    pub clock: ClockDomain,
    /// §4.4 peak under the exercised bandwidth: 2·bw FLOPS.
    pub peak_flops: f64,
}

impl MvmOutcome {
    /// Fraction of the I/O-bound peak sustained (paper: ~97 % from SRAM).
    pub fn fraction_of_peak(&self) -> f64 {
        self.report.fraction_of_peak(&self.clock, self.peak_flops)
    }

    fn new(y: Vec<f64>, report: SimReport, clock: ClockDomain, words_per_cycle: f64) -> Self {
        #[expect(clippy::float_arithmetic, reason = "accounting: bytes per second")]
        let bw = words_per_cycle * 8.0 * clock.hz();
        Self {
            y,
            report,
            clock,
            peak_flops: io_bound_peak_mvm(bw),
        }
    }
}

/// A dense row-major matrix wrapper used by the Level-2/3 designs.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Create from row-major data.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self { rows, cols, data }
    }

    /// Create by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element (i, j).
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Row-major backing slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Reference y = A·x in plain f64 (test oracle).
    #[expect(clippy::float_arithmetic, reason = "oracle: plain f64 reference")]
    pub fn ref_mvm(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        (0..self.rows)
            .map(|i| (0..self.cols).map(|j| self.at(i, j) * x[j]).sum())
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod testmat {
    use super::DenseMatrix;

    /// Integer-valued matrix/vector whose products sum exactly.
    pub fn int_case(n: usize) -> (DenseMatrix, Vec<f64>) {
        let a = DenseMatrix::from_fn(n, n, |i, j| ((i * 3 + j * 7) % 8) as f64);
        let x = (0..n).map(|j| ((j * 5 + 1) % 8) as f64).collect();
        (a, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_matrix_indexing() {
        let m = DenseMatrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.at(0, 0), 0.0);
        assert_eq!(m.at(1, 2), 12.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn stream_orders() {
        let m = DenseMatrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64);
        assert_eq!(m.as_slice(), [0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn reference_mvm() {
        let m = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.ref_mvm(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_shape_rejected() {
        DenseMatrix::from_rows(2, 2, vec![1.0]);
    }
}
