//! Preconditioned conjugate gradient on the FPGA kernels.
//!
//! §7 of the paper positions the Jacobi solver as a *preconditioner* "for
//! the more efficient methods like conjugate gradient (CG)". This module
//! closes that loop: a CG solver whose matrix-vector products run on the
//! `SpMV` design and whose inner products run on the Level-1 dot design,
//! with an optional Jacobi (diagonal) preconditioner. The element-wise
//! vector updates run on the host processor, the intended FPGA/CPU split
//! of the reconfigurable-system model.

use crate::csr::CsrMatrix;
use crate::spmv::{SpmvDesign, SpmvParams};
use fblas_core::dot::{DotParams, DotProductDesign};
use fblas_core::report::SimReport;
use fblas_sim::ClockDomain;

/// Outcome of a conjugate-gradient solve.
#[derive(Debug, Clone)]
pub struct CgOutcome {
    /// The solution estimate.
    pub x: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the residual tolerance was met.
    pub converged: bool,
    /// Final 2-norm of the residual b − A·x.
    pub residual: f64,
    /// Accumulated FPGA accounting (`SpMV` + dot runs).
    pub report: SimReport,
    /// Clock domain of the designs.
    pub clock: ClockDomain,
}

/// Conjugate-gradient solver over the FPGA `SpMV` and dot designs.
#[derive(Debug, Clone)]
pub struct CgSolver {
    spmv: SpmvDesign,
    dot: DotProductDesign,
    /// Residual 2-norm tolerance.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Apply the Jacobi (diagonal) preconditioner.
    pub jacobi_preconditioner: bool,
}

impl CgSolver {
    /// Create a solver with k-lane `SpMV` and 2-lane dot designs.
    pub fn new(params: SpmvParams, tolerance: f64, max_iterations: usize) -> Self {
        assert!(tolerance > 0.0, "tolerance must be positive");
        assert!(max_iterations > 0, "need at least one iteration");
        Self {
            spmv: SpmvDesign::new(params),
            dot: DotProductDesign::standalone(DotParams::table3(), 170.0),
            tolerance,
            max_iterations,
            jacobi_preconditioner: true,
        }
    }

    /// Solve A·x = b (A symmetric positive definite) from a zero guess.
    pub fn solve(&self, a: &CsrMatrix, b: &[f64]) -> CgOutcome {
        let n = a.n_rows();
        assert_eq!(a.n_cols(), n, "CG needs a square system");
        assert_eq!(b.len(), n, "right-hand side length mismatch");
        assert!(
            a.is_symmetric(),
            "conjugate gradient requires a symmetric matrix"
        );

        let inv_diag: Option<Vec<f64>> = if self.jacobi_preconditioner {
            Some(
                (0..n)
                    .map(|i| {
                        let d = a
                            .diagonal(i)
                            .unwrap_or_else(|| panic!("row {i} has no diagonal entry"));
                        assert!(d > 0.0, "SPD matrix needs positive diagonal, row {i}");
                        1.0 / d
                    })
                    .collect(),
            )
        } else {
            None
        };

        let mut total = SimReport::default();
        let fpga_dot = |u: &[f64], v: &[f64], total: &mut SimReport| -> f64 {
            let out = self.dot.run(u, v);
            total.cycles += out.report.cycles;
            total.flops += out.report.flops;
            total.words_in += out.report.words_in;
            total.words_out += out.report.words_out;
            total.busy_cycles += out.report.busy_cycles;
            out.result
        };

        let mut x = vec![0.0f64; n];
        let mut r = b.to_vec();
        let z: Vec<f64> = match &inv_diag {
            Some(d) => r.iter().zip(d).map(|(ri, di)| ri * di).collect(),
            None => r.clone(),
        };
        let mut p = z.clone();
        let mut rz = fpga_dot(&r, &z, &mut total);
        let mut iterations = 0usize;
        let mut residual = fpga_dot(&r, &r, &mut total).sqrt();

        while residual > self.tolerance && iterations < self.max_iterations {
            // FPGA: q = A·p.
            let q = {
                let out = self.spmv.run(a, &p);
                total.cycles += out.report.cycles;
                total.flops += out.report.flops;
                total.words_in += out.report.words_in;
                total.words_out += out.report.words_out;
                total.busy_cycles += out.report.busy_cycles;
                out.y
            };
            let pq = fpga_dot(&p, &q, &mut total);
            let alpha = rz / pq;
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * q[i];
            }
            total.flops += 4 * n as u64; // host-side updates
            let z_new: Vec<f64> = match &inv_diag {
                Some(d) => r.iter().zip(d).map(|(ri, di)| ri * di).collect(),
                None => r.clone(),
            };
            let rz_new = fpga_dot(&r, &z_new, &mut total);
            let beta = rz_new / rz;
            for i in 0..n {
                p[i] = z_new[i] + beta * p[i];
            }
            total.flops += 2 * n as u64;
            rz = rz_new;
            residual = fpga_dot(&r, &r, &mut total).sqrt();
            iterations += 1;
        }

        CgOutcome {
            x,
            iterations,
            converged: residual <= self.tolerance,
            residual,
            report: total,
            clock: self.spmv.clock(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SPD tridiagonal system with manufactured solution.
    fn spd_system(n: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let mut trip = Vec::new();
        for i in 0..n {
            trip.push((i, i, 4.0));
            if i > 0 {
                trip.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                trip.push((i, i + 1, -1.0));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &trip);
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 5) as f64 - 2.0) / 2.0).collect();
        let b = a.ref_spmv(&x_true);
        (a, x_true, b)
    }

    #[test]
    fn converges_on_spd_system() {
        let (a, x_true, b) = spd_system(100);
        let solver = CgSolver::new(SpmvParams::with_k(4), 1e-10, 300);
        let out = solver.solve(&a, &b);
        assert!(out.converged, "residual {}", out.residual);
        for (got, want) in out.x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn preconditioning_does_not_hurt_iteration_count() {
        let (a, _, b) = spd_system(100);
        let mut plain = CgSolver::new(SpmvParams::with_k(4), 1e-10, 300);
        plain.jacobi_preconditioner = false;
        let pre = CgSolver::new(SpmvParams::with_k(4), 1e-10, 300);
        let it_plain = plain.solve(&a, &b).iterations;
        let it_pre = pre.solve(&a, &b).iterations;
        // Constant diagonal ⇒ Jacobi preconditioning is a scalar rescale:
        // iteration counts must be essentially identical, and both finite.
        assert!(it_pre <= it_plain + 2, "pre {it_pre} vs plain {it_plain}");
    }

    #[test]
    fn cg_beats_jacobi_in_iterations() {
        use crate::jacobi::JacobiSolver;
        let (a, _, b) = spd_system(80);
        let cg = CgSolver::new(SpmvParams::with_k(4), 1e-9, 500).solve(&a, &b);
        let jac = JacobiSolver::new(SpmvParams::with_k(4), 1e-9, 500).solve(&a, &b);
        assert!(cg.converged && jac.converged);
        assert!(
            cg.iterations < jac.iterations,
            "CG {} should beat Jacobi {}",
            cg.iterations,
            jac.iterations
        );
    }

    #[test]
    fn hardware_accounting_grows_with_iterations() {
        let (a, _, b) = spd_system(60);
        let loose = CgSolver::new(SpmvParams::with_k(2), 1e-2, 300).solve(&a, &b);
        let tight = CgSolver::new(SpmvParams::with_k(2), 1e-12, 300).solve(&a, &b);
        assert!(tight.iterations > loose.iterations);
        assert!(tight.report.cycles > loose.report.cycles);
    }

    #[test]
    #[should_panic(expected = "positive diagonal")]
    fn non_spd_diagonal_rejected() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, -1.0), (1, 1, 1.0)]);
        CgSolver::new(SpmvParams::with_k(2), 1e-6, 10).solve(&a, &[1.0, 1.0]);
    }

    /// The symmetry precondition holds in release builds too: CG is
    /// undefined on a non-symmetric system, even one whose diagonal
    /// would pass the SPD check.
    #[test]
    #[should_panic(expected = "symmetric")]
    fn non_symmetric_matrix_rejected() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 2.0)]);
        CgSolver::new(SpmvParams::with_k(2), 1e-6, 10).solve(&a, &[1.0, 1.0]);
    }
}
