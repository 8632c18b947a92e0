//! Block matrix-vector multiply: matrices larger than on-chip storage
//! (paper §4.2, final paragraphs).
//!
//! On-chip memory holds at most b words of the reused vector. The two
//! architectures block differently:
//!
//! * **Row-major**: A is cut into column panels of width b; each panel's
//!   x-slice lives on chip while the panel streams. Every row's panel
//!   result is a partial sum, carried into the next panel's reduction set
//!   as one extra input — no extra accumulator hardware.
//! * **Column-major**: A is cut into row panels of height b; each panel
//!   owns a disjoint y-slice, so panels are independent, but x must be
//!   re-streamed for every panel (the I/O cost the words-in accounting
//!   exposes).

use super::{ColMajorMvm, DenseMatrix, MvmOutcome, RowMajorMvm};
use crate::reduce::SingleAdderReducer;
use crate::report::SimReport;
use fblas_sim::Harness;

/// Row-major blocked driver: column panels of width `b`.
#[derive(Debug, Clone)]
pub struct BlockedRowMajorMvm {
    engine: RowMajorMvm,
    /// On-chip capacity for the x slice, in words.
    pub b: usize,
}

impl BlockedRowMajorMvm {
    /// Create a blocked driver over a row-major engine.
    pub fn new(engine: RowMajorMvm, b: usize) -> Self {
        assert!(b >= engine.params().k, "panel must hold at least one group");
        Self { engine, b }
    }

    /// Compute `y = A·x` for arbitrary n, b words of x on chip at a time.
    pub fn run(&self, a: &DenseMatrix, x: &[f64]) -> MvmOutcome {
        self.run_in(&mut Harness::new(), a, x)
    }

    /// [`BlockedRowMajorMvm::run`] with every panel on the caller's
    /// harness.
    pub fn run_in(&self, harness: &mut Harness, a: &DenseMatrix, x: &[f64]) -> MvmOutcome {
        let n_rows = a.rows();
        let n_cols = a.cols();
        assert_eq!(x.len(), n_cols);
        let panels = n_cols.div_ceil(self.b);

        let mut y: Option<Vec<f64>> = None;
        let mut total = SimReport::default();
        for p in 0..panels {
            let lo = p * self.b;
            let hi = (lo + self.b).min(n_cols);
            let panel = DenseMatrix::from_fn(n_rows, hi - lo, |i, j| a.at(i, lo + j));
            let mut reducer = SingleAdderReducer::new(self.engine.params().adder_stages);
            let out = self.engine.run_with_reducer_in(
                harness,
                &panel,
                &x[lo..hi],
                y.as_deref(),
                &mut reducer,
            );
            // Panels run back to back on the same hardware: cycles add.
            total.cycles += out.report.cycles;
            total.flops += out.report.flops;
            total.words_in += out.report.words_in;
            total.busy_cycles += out.report.busy_cycles;
            // Only the final panel's y leaves the FPGA; intermediate
            // partials stay in the reduction path.
            total.words_out = out.report.words_out;
            y = Some(out.y);
        }
        // The injected partials are extra additions beyond 2n².
        total.flops = 2 * (n_rows as u64) * (n_cols as u64) + (panels as u64 - 1) * n_rows as u64;
        MvmOutcome::new(
            y.expect("at least one panel"),
            total,
            self.engine.clock(),
            self.engine.params().matrix_words_per_cycle,
        )
    }
}

/// Column-major blocked driver: row panels of height `b`.
#[derive(Debug, Clone)]
pub struct BlockedColMajorMvm {
    engine: ColMajorMvm,
    /// On-chip capacity for the y slice, in words.
    pub b: usize,
}

impl BlockedColMajorMvm {
    /// Create a blocked driver over a column-major engine.
    pub fn new(engine: ColMajorMvm, b: usize) -> Self {
        assert!(
            b / engine.params().k >= engine.params().adder_stages,
            "panel height b = {b} violates the hazard condition b/k ≥ α"
        );
        Self { engine, b }
    }

    /// Compute `y = A·x` for arbitrary n, b words of y on chip at a time.
    pub fn run(&self, a: &DenseMatrix, x: &[f64]) -> MvmOutcome {
        self.run_in(&mut Harness::new(), a, x)
    }

    /// [`BlockedColMajorMvm::run`] with every panel on the caller's
    /// harness.
    pub fn run_in(&self, harness: &mut Harness, a: &DenseMatrix, x: &[f64]) -> MvmOutcome {
        let n_rows = a.rows();
        let n_cols = a.cols();
        assert_eq!(x.len(), n_cols);
        let panels = n_rows.div_ceil(self.b);

        let mut y = Vec::with_capacity(n_rows);
        let mut total = SimReport::default();
        for p in 0..panels {
            let lo = p * self.b;
            let hi = (lo + self.b).min(n_rows);
            let panel = DenseMatrix::from_fn(hi - lo, n_cols, |i, j| a.at(lo + i, j));
            let out = self.engine.run_in(harness, &panel, x);
            total.cycles += out.report.cycles;
            total.flops += out.report.flops;
            total.words_in += out.report.words_in; // x re-streamed per panel
            total.words_out += out.report.words_out;
            total.busy_cycles += out.report.busy_cycles;
            y.extend_from_slice(&out.y);
        }
        MvmOutcome::new(
            y,
            total,
            self.engine.clock(),
            self.engine.params().matrix_words_per_cycle,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvm::testmat::int_case;
    use crate::mvm::MvmParams;

    #[test]
    fn blocked_row_major_matches_reference() {
        let (a, x) = int_case(64);
        let engine = RowMajorMvm::standalone(MvmParams::with_k(4), 170.0);
        let d = BlockedRowMajorMvm::new(engine, 16);
        let out = d.run(&a, &x);
        assert_eq!(out.y, a.ref_mvm(&x));
    }

    #[test]
    fn blocked_row_major_matches_unblocked() {
        let (a, x) = int_case(48);
        let engine = RowMajorMvm::standalone(MvmParams::with_k(4), 170.0);
        let unblocked = engine.run(&a, &x);
        let blocked = BlockedRowMajorMvm::new(engine, 12).run(&a, &x);
        assert_eq!(blocked.y, unblocked.y);
    }

    #[test]
    fn blocked_col_major_matches_reference() {
        let (a, x) = int_case(128);
        let engine = ColMajorMvm::standalone(MvmParams::with_k(4), 170.0);
        let d = BlockedColMajorMvm::new(engine, 64);
        let out = d.run(&a, &x);
        assert_eq!(out.y, a.ref_mvm(&x));
    }

    #[test]
    fn col_major_blocking_restreams_x() {
        let (a, x) = int_case(128);
        let engine = ColMajorMvm::standalone(MvmParams::with_k(4), 170.0);
        let two_panels = BlockedColMajorMvm::new(engine.clone(), 64).run(&a, &x);
        let one_panel = BlockedColMajorMvm::new(engine, 128).run(&a, &x);
        // Two panels read x twice: n extra words in.
        assert_eq!(two_panels.report.words_in, one_panel.report.words_in + 128);
    }

    #[test]
    fn ragged_final_panel() {
        let (a, x) = int_case(40);
        let engine = RowMajorMvm::standalone(MvmParams::with_k(4), 170.0);
        let d = BlockedRowMajorMvm::new(engine, 16); // 16+16+8
        let out = d.run(&a, &x);
        assert_eq!(out.y, a.ref_mvm(&x));
    }

    #[test]
    #[should_panic(expected = "hazard condition")]
    fn col_major_panel_too_short_rejected() {
        let engine = ColMajorMvm::standalone(MvmParams::with_k(4), 170.0);
        BlockedColMajorMvm::new(engine, 32); // 32/4 = 8 < 14
    }
}
