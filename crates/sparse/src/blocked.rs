//! Blocked sparse matrix-vector multiply: x larger than on-chip storage.
//!
//! The §4.2 blocking story applied to the sparse design: the matrix is
//! cut into column panels of width b (the on-chip x budget); each panel
//! streams its CRS entries through the tree architecture while its x
//! slice sits in BRAM, and every row's panel result is carried into the
//! next panel's reduction set as one extra injected value — the same
//! accumulator-free chaining the dense blocked driver uses.

use crate::csr::CsrMatrix;
use crate::spmv::{SpmvDesign, SpmvOutcome, SpmvParams};
use fblas_core::report::SimReport;
use fblas_sim::Harness;

/// Column-blocked driver over the `SpMV` design.
#[derive(Debug, Clone)]
pub struct BlockedSpmv {
    design: SpmvDesign,
    /// On-chip x capacity in words.
    pub b: usize,
}

impl BlockedSpmv {
    /// Create a blocked driver with x panels of `b` words.
    pub fn new(params: SpmvParams, b: usize) -> Self {
        assert!(b >= 1, "panel must hold at least one x word");
        Self {
            design: SpmvDesign::new(params),
            b,
        }
    }

    /// The underlying design.
    pub fn design(&self) -> &SpmvDesign {
        &self.design
    }

    /// Compute y = A·x, one column panel at a time.
    pub fn run(&self, a: &CsrMatrix, x: &[f64]) -> SpmvOutcome {
        self.run_in(&mut Harness::new(), a, x)
    }

    /// [`BlockedSpmv::run`] with every panel on the caller's harness.
    pub fn run_in(&self, harness: &mut Harness, a: &CsrMatrix, x: &[f64]) -> SpmvOutcome {
        assert_eq!(x.len(), a.n_cols(), "x must match the matrix width");
        let n_cols = a.n_cols();
        let panels = n_cols.div_ceil(self.b);

        let mut outcome: Option<SpmvOutcome> = None;
        let mut total = SimReport::default();
        for p in 0..panels {
            let lo = p * self.b;
            let hi = (lo + self.b).min(n_cols);
            let panel = a.column_panel(lo, hi);
            let out = match &outcome {
                None => self.design.run_in(harness, &panel, &x[lo..hi]),
                Some(prev) => {
                    let y0 = &prev.y;
                    self.design
                        .run_with_initial_in(harness, &panel, &x[lo..hi], y0)
                }
            };
            total.cycles += out.report.cycles;
            total.flops += out.report.flops;
            total.words_in += out.report.words_in;
            total.busy_cycles += out.report.busy_cycles;
            total.words_out = out.report.words_out;
            outcome = Some(out);
        }

        let mut last = outcome.expect("at least one panel");
        last.report = total;
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn irregular(n: usize) -> CsrMatrix {
        let mut trip = Vec::new();
        for i in 0..n {
            trip.push((i, i, 3.0 + (i % 4) as f64));
            for d in 1..=(i % 6) {
                if i + d < n {
                    trip.push((i, i + d, (d % 3) as f64 + 1.0));
                }
                if i >= d * 3 {
                    trip.push((i, i - d * 3, 2.0));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &trip)
    }

    #[test]
    fn blocked_matches_unblocked_and_reference() {
        let a = irregular(120);
        let x: Vec<f64> = (0..120).map(|j| f64::from((j * 5 + 1) % 8)).collect();
        let full = SpmvDesign::new(SpmvParams::with_k(4)).run(&a, &x);
        for b in [16usize, 40, 64, 120, 200] {
            let blocked = BlockedSpmv::new(SpmvParams::with_k(4), b).run(&a, &x);
            assert_eq!(blocked.y, a.ref_spmv(&x), "b = {b}");
            assert_eq!(blocked.y, full.y, "b = {b}");
        }
    }

    #[test]
    fn rows_empty_in_some_panels_carry_partials() {
        // Row 0 only has entries in the first panel; row 2 only in the
        // last: partial carrying must pass both through untouched.
        let a =
            CsrMatrix::from_triplets(3, 9, &[(0, 0, 2.0), (1, 1, 1.0), (1, 8, 3.0), (2, 7, 5.0)]);
        let x: Vec<f64> = (0..9).map(|j| f64::from(j + 1)).collect();
        let out = BlockedSpmv::new(SpmvParams::with_k(2), 3).run(&a, &x);
        assert_eq!(out.y, a.ref_spmv(&x));
    }

    #[test]
    fn single_panel_degenerates_to_plain_run() {
        let a = irregular(40);
        let x: Vec<f64> = (0..40).map(|j| f64::from(j % 5)).collect();
        let plain = SpmvDesign::new(SpmvParams::with_k(2)).run(&a, &x);
        let blocked = BlockedSpmv::new(SpmvParams::with_k(2), 40).run(&a, &x);
        assert_eq!(plain.y, blocked.y);
        assert_eq!(plain.report.cycles, blocked.report.cycles);
    }

    #[test]
    fn flops_include_injected_partials() {
        let a = irregular(60);
        let x = vec![1.0; 60];
        let one = BlockedSpmv::new(SpmvParams::with_k(2), 60).run(&a, &x);
        let four = BlockedSpmv::new(SpmvParams::with_k(2), 15).run(&a, &x);
        // More panels ⇒ more carried-partial additions ⇒ more cycles.
        assert!(four.report.cycles > one.report.cycles);
    }
}
