//! Workload generators shared by the table/figure binaries, benches and
//! tests: the matrix families the paper's motivating applications
//! (iterative solvers, eigenproblems, molecular dynamics reductions)
//! actually produce.

use fblas_core::mvm::DenseMatrix;
use fblas_sparse::CsrMatrix;

/// Deterministic xorshift stream in [0, 1).
struct Xs(u64);

impl Xs {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
    fn next_below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 17) % n
    }
}

/// Dense n×n matrix with entries uniform in [-1, 1).
pub fn dense_uniform(seed: u64, n: usize) -> DenseMatrix {
    let mut xs = Xs::new(seed);
    DenseMatrix::from_fn(n, n, |_, _| xs.next_f64() * 2.0 - 1.0)
}

/// Banded matrix: ones on the diagonal, integer fill within `half_band`.
pub fn banded(seed: u64, n: usize, half_band: usize) -> CsrMatrix {
    let mut xs = Xs::new(seed);
    let mut trip = Vec::new();
    for i in 0..n {
        for j in i.saturating_sub(half_band)..(i + half_band + 1).min(n) {
            if i == j {
                trip.push((i, j, (2 * half_band + 1) as f64));
            } else {
                trip.push((i, j, xs.next_below(3) as f64 - 1.0));
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &trip)
}

/// Random sparse matrix with the given expected density and irregular
/// row populations — the "no assumption on the sparsity" workload of the
/// `SpMV` design.
pub fn random_sparse(seed: u64, n: usize, density: f64) -> CsrMatrix {
    assert!((0.0..=1.0).contains(&density));
    let mut xs = Xs::new(seed);
    let mut trip = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if xs.next_f64() < density {
                trip.push((i, j, (xs.next_below(8) + 1) as f64));
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &trip)
}

/// Five-point 2-D Laplacian stencil on a `grid × grid` domain, shifted
/// diagonally dominant so Jacobi converges.
pub fn laplacian_2d(grid: usize) -> CsrMatrix {
    let n = grid * grid;
    let mut trip = Vec::with_capacity(5 * n);
    for r in 0..grid {
        for c in 0..grid {
            let i = r * grid + c;
            trip.push((i, i, 4.5));
            if r > 0 {
                trip.push((i, i - grid, -1.0));
            }
            if r + 1 < grid {
                trip.push((i, i + grid, -1.0));
            }
            if c > 0 {
                trip.push((i, i - 1, -1.0));
            }
            if c + 1 < grid {
                trip.push((i, i + 1, -1.0));
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &trip)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_uniform_deterministic_and_bounded() {
        let a = dense_uniform(1, 16);
        let b = dense_uniform(1, 16);
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(a.as_slice().iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn banded_has_expected_band() {
        let m = banded(2, 20, 2);
        for i in 0..20usize {
            for (c, _) in m.row(i) {
                assert!(i.abs_diff(c) <= 2, "entry ({i},{c}) outside band");
            }
        }
        assert!(m.is_strictly_diagonally_dominant());
    }

    #[test]
    fn random_sparse_density_in_range() {
        let n = 64;
        let m = random_sparse(3, n, 0.1);
        let density = m.nnz() as f64 / (n * n) as f64;
        assert!((0.05..0.15).contains(&density), "density {density}");
    }

    #[test]
    fn laplacian_shape() {
        let m = laplacian_2d(8);
        assert_eq!(m.n_rows(), 64);
        assert!(m.is_strictly_diagonally_dominant());
        // Interior points have 5 entries.
        assert_eq!(m.row_nnz(8 + 1), 5);
        // Corner points have 3.
        assert_eq!(m.row_nnz(0), 3);
    }
}
