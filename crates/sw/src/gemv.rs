//! Software matrix-vector multiply: the Level-2 baseline.
//!
//! Matrices are dense row-major `&[f64]` of shape `rows × cols`. As
//! with [`crate::gemm`], every rung runs through the single
//! [`gemv_panel`] loop nest: each `y[i]` accumulates directly in
//! ascending-j order regardless of panel width or thread count, so all
//! rungs agree bit-for-bit on **any** input. (The blocked rung
//! historically kept a per-panel partial sum and folded it in at panel
//! end — a different association that diverged from the naive rung on
//! rounding-sensitive data; deduplicating onto one nest fixed that.)

/// Reference y = A·x: the panelled engine with one whole-row panel.
pub fn gemv_naive(a: &[f64], rows: usize, cols: usize, x: &[f64]) -> Vec<f64> {
    gemv_blocked(a, rows, cols, x, cols.max(1))
}

/// Cache-blocked y = A·x: column panels sized to keep the x slice in
/// cache while several rows stream — the software analogue of the
/// paper's block matrix-vector multiply (§4.2).
pub fn gemv_blocked(a: &[f64], rows: usize, cols: usize, x: &[f64], panel: usize) -> Vec<f64> {
    assert_eq!(a.len(), rows * cols, "matrix shape mismatch");
    assert_eq!(x.len(), cols, "x length mismatch");
    assert!(panel > 0, "panel width must be positive");
    let mut y = vec![0.0f64; rows];
    gemv_panel(a, 0, cols, x, panel, &mut y);
    y
}

/// The one shared loop nest: accumulate `y[i] += A[lo+i][·]·x` for the
/// row range covered by the `y` slice, column-panelled, folding each
/// product straight into `y[i]` so the association is ascending-j for
/// every panel width.
fn gemv_panel(a: &[f64], lo: usize, cols: usize, x: &[f64], panel: usize, y: &mut [f64]) {
    let mut c0 = 0;
    while c0 < cols {
        let c1 = (c0 + panel).min(cols);
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &a[(lo + i) * cols + c0..(lo + i) * cols + c1];
            let xs = &x[c0..c1];
            for (aij, xj) in row.iter().zip(xs) {
                *yi += aij * xj;
            }
        }
        c0 = c1;
    }
}

/// Multi-threaded y = A·x: row ranges distributed over scoped threads
/// (disjoint output slices, no synchronization needed), each running
/// the shared [`gemv_panel`] nest.
pub fn gemv_parallel(a: &[f64], rows: usize, cols: usize, x: &[f64], threads: usize) -> Vec<f64> {
    assert_eq!(a.len(), rows * cols, "matrix shape mismatch");
    assert_eq!(x.len(), cols, "x length mismatch");
    assert!(threads >= 1, "need at least one thread");
    let mut y = vec![0.0f64; rows];
    let rows_per = rows.div_ceil(threads);
    #[expect(
        clippy::disallowed_methods,
        reason = "the row partitions are disjoint, so the result is independent of scheduling"
    )]
    std::thread::scope(|s| {
        let mut rest: &mut [f64] = &mut y;
        let mut row0 = 0usize;
        while row0 < rows {
            let chunk = rows_per.min(rows - row0);
            let (panel, tail) = rest.split_at_mut(chunk);
            rest = tail;
            let lo = row0;
            s.spawn(move || gemv_panel(a, lo, cols, x, cols.max(1), panel));
            row0 += chunk;
        }
    });
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_case(rows: usize, cols: usize) -> (Vec<f64>, Vec<f64>) {
        let a = (0..rows * cols).map(|i| ((i * 5 + 3) % 9) as f64).collect();
        let x = (0..cols).map(|j| ((j * 2 + 1) % 9) as f64).collect();
        (a, x)
    }

    /// Deterministic xorshift64* stream of finite doubles in (-8, 8).
    fn random_vec(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 50) as f64 - 8.0
            })
            .collect()
    }

    #[test]
    fn naive_small_case() {
        // [[1,2],[3,4]] · [1,1] = [3,7]
        let y = gemv_naive(&[1.0, 2.0, 3.0, 4.0], 2, 2, &[1.0, 1.0]);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    /// The dedupe regression: one loop nest behind every rung means the
    /// ladder is bit-identical on *random* (rounding-sensitive) data —
    /// the pre-dedupe blocked rung's per-panel partial sums failed this.
    #[test]
    fn all_rungs_bit_identical_on_random_data() {
        for (rows, cols) in [(7usize, 31usize), (33, 17), (16, 128)] {
            let a = random_vec(rows as u64, rows * cols);
            let x = random_vec(cols as u64 + 5, cols);
            let reference = gemv_naive(&a, rows, cols, &x);
            let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for panel in [1usize, 5, 8, 1024] {
                assert_eq!(
                    bits(&gemv_blocked(&a, rows, cols, &x, panel)),
                    bits(&reference),
                    "{rows}x{cols} panel {panel}"
                );
            }
            for threads in [2usize, 5, 16] {
                assert_eq!(
                    bits(&gemv_parallel(&a, rows, cols, &x, threads)),
                    bits(&reference),
                    "{rows}x{cols} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn blocked_matches_naive_exactly_on_integers() {
        for (rows, cols, panel) in [(8, 8, 3), (16, 32, 8), (33, 17, 5), (1, 64, 64)] {
            let (a, x) = int_case(rows, cols);
            assert_eq!(
                gemv_blocked(&a, rows, cols, &x, panel),
                gemv_naive(&a, rows, cols, &x),
                "{rows}x{cols} panel {panel}"
            );
        }
    }

    #[test]
    fn parallel_matches_naive() {
        for threads in [1, 2, 5, 16] {
            let (a, x) = int_case(37, 29);
            assert_eq!(
                gemv_parallel(&a, 37, 29, &x, threads),
                gemv_naive(&a, 37, 29, &x),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn non_square() {
        let (a, x) = int_case(3, 5);
        let y = gemv_naive(&a, 3, 5, &x);
        assert_eq!(y.len(), 3);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_shape() {
        gemv_naive(&[1.0], 2, 2, &[1.0, 2.0]);
    }
}
