//! Property-based tests of the matrix-multiply architectures: random
//! shapes and integer data must reproduce the oracle exactly, every MM
//! value path must agree bit for bit on real and non-finite data, and
//! the measured cycle counts must track the §5.1 formulas.

use fpga_blas::blas::mm::{
    ref_matmul, BlockEngine, HierarchicalMm, HierarchicalParams, LinearArrayMm, MmParams,
};
use fpga_blas::blas::mvm::DenseMatrix;
use fpga_blas::sim::{ExecBackend, Harness};
use proptest::prelude::*;

/// Legal (k, m) pairs with the hazard condition satisfied.
fn km() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        Just((1usize, 8usize)),
        Just((2, 8)),
        Just((2, 16)),
        Just((4, 16)),
        Just((4, 32)),
        Just((8, 32)),
        Just((8, 16)),
    ]
}

fn int_mat(seed: u64, n: usize) -> DenseMatrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    DenseMatrix::from_fn(n, n, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 17) % 6) as f64
    })
}

/// Full-mantissa reals of both signs with exponents within 2^±20:
/// products round and sums depend on their order, unlike [`int_mat`].
fn real_mat(seed: u64, n: usize) -> DenseMatrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    DenseMatrix::from_fn(n, n, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let frac = 1.0 + (state >> 12) as f64 / (1u64 << 52) as f64;
        let sign = if state & 1 == 0 { 1.0 } else { -1.0 };
        sign * frac * 2f64.powi(((state >> 3) % 41) as i32 - 20)
    })
}

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn block_engine_exact_for_any_legal_shape((k, m) in km(), seed in 0u64..1000) {
        let a = int_mat(seed, m);
        let b = int_mat(seed + 1, m);
        let mut c = vec![0.0; m * m];
        let stats = BlockEngine::new(MmParams::test(k, m)).multiply_accumulate(&a, &b, &mut c);
        let expect = ref_matmul(&a, &b);
        prop_assert_eq!(&c[..], expect.as_slice());
        prop_assert_eq!(stats.macs, (m * m * m) as u64);
        prop_assert_eq!(stats.hazard_violations, 0);
    }

    #[test]
    fn block_cycles_track_formula((k, m) in km(), seed in 0u64..100) {
        let a = int_mat(seed, m);
        let b = int_mat(seed + 7, m);
        let mut c = vec![0.0; m * m];
        let stats = BlockEngine::new(MmParams::test(k, m)).multiply_accumulate(&a, &b, &mut c);
        // fill (m²/k + k−1) + compute (m³/k + k) + MAC pipeline drain (25).
        let formula = (m * m / k + k - 1) as u64 + (m * m * m / k) as u64;
        let slack = (k + 32) as u64;
        prop_assert!(
            stats.cycles >= formula && stats.cycles <= formula + slack,
            "k={k}, m={m}: {} vs formula {formula}",
            stats.cycles
        );
    }

    #[test]
    fn full_multiply_exact_with_multiple_blocks((k, m) in km(), blocks in 1usize..3, seed in 0u64..100) {
        let n = m * blocks;
        let a = int_mat(seed, n);
        let b = int_mat(seed + 3, n);
        let out = LinearArrayMm::new(MmParams::test(k, m)).run(&a, &b);
        let expect = ref_matmul(&a, &b);
        prop_assert_eq!(out.c.as_slice(), expect.as_slice());
    }

    #[test]
    fn hierarchical_matches_linear_array((k, m) in km(), l in 1usize..3, seed in 0u64..100) {
        let b_edge = 2 * m; // b/m = 2 column-blocks
        prop_assume!(b_edge / m >= l);
        let n = b_edge;
        for (a, b) in [
            (int_mat(seed, n), int_mat(seed + 5, n)),
            (real_mat(seed, n), real_mat(seed + 5, n)),
        ] {
            let la = LinearArrayMm::new(MmParams::test(k, m)).run(&a, &b);
            let h = HierarchicalMm::new(HierarchicalParams::test(k, m, l, b_edge)).run(&a, &b);
            prop_assert_eq!(bits(&la.c), bits(&h.c));
        }
    }

    #[test]
    fn io_words_scale_inversely_with_m(seed in 0u64..50) {
        // Doubling m halves external words (Θ(n³/m)).
        let n = 64;
        let a = int_mat(seed, n);
        let b = int_mat(seed + 9, n);
        let w16 = LinearArrayMm::new(MmParams::test(4, 16)).run(&a, &b).report.words_in;
        let w32 = LinearArrayMm::new(MmParams::test(4, 32)).run(&a, &b).report.words_in;
        prop_assert_eq!(w16, 2 * w32);
    }
}

/// NaN payloads, a negative NaN, `inf·0`, `inf − inf` and ±Inf in A
/// and B: the hierarchical design returns the linear array's bits on
/// both backends, every NaN the canonical quiet NaN.
#[test]
fn hierarchical_matches_linear_array_on_non_finite_operands() {
    const QNAN: u64 = 0x7FF8_0000_0000_0000;
    let (k, m, n) = (4, 16, 32);
    let mut a = int_mat(11, n).as_slice().to_vec();
    let mut b = int_mat(12, n).as_slice().to_vec();
    a[3] = f64::from_bits(0x7FF8_0000_0000_0001); // row 0: payload NaN
    b[5 * n + 7] = f64::from_bits(0xFFF8_0000_0000_0002); // column 7: negative NaN
    a[10 * n + 2] = f64::INFINITY; // row 10: +Inf, and inf·0 where B is 0
    b[2 * n] = 2.0;
    b[2 * n + 4] = 0.0;
    b[2 * n + 9] = 1.0;
    b[20 * n + 9] = f64::NEG_INFINITY; // column 9: −Inf, inf − inf at (10, 9)
    a[3 * n + 20] = 3.0;
    a[10 * n + 20] = 1.0;
    a[20 * n + 20] = 0.0;
    let (a, b) = (
        DenseMatrix::from_rows(n, n, a),
        DenseMatrix::from_rows(n, n, b),
    );

    let la = LinearArrayMm::new(MmParams::test(k, m));
    let cycle = la.run(&a, &b);
    let mut native_h = Harness::with_backend(ExecBackend::Native);
    let native = la.run_in(&mut native_h, &a, &b);
    assert!(native_h.ff_cycles() > 0, "native replay declined");
    let h = HierarchicalMm::new(HierarchicalParams::test(k, m, 2, n)).run(&a, &b);

    let want = bits(&cycle.c);
    assert_eq!(bits(&native.c), want, "native linear array");
    assert_eq!(bits(&h.c), want, "hierarchical");
    for (i, j) in [(0, 0), (3, 7), (10, 4), (10, 9), (20, 9)] {
        assert_eq!(want[i * n + j], QNAN, "cell ({i}, {j})");
    }
    assert_eq!(cycle.c.at(10, 0), f64::INFINITY);
    assert_eq!(cycle.c.at(3, 9), f64::NEG_INFINITY);
}
