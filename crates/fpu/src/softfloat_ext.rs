//! Bit-accurate IEEE-754 binary64 division and square root.
//!
//! The floating-point core library the paper draws on (Govindu et al.,
//! ERSA'05 — "a library of parameterizable floating-point cores") also
//! provides dividers and square-root units; the Jacobi solver needs D⁻¹
//! and nrm2 needs √. These routines complete the datapath set with the
//! same guarantee as the integer add/mul: round-to-nearest-even results
//! bit-exact against the host FPU, verified by proptest. They have no
//! host fast path: only the pipelined divider and square-root units call
//! them, and no benchmarked workload reaches those.

use crate::softfloat::{
    exp_of, frac_of, is_inf, is_nan, is_zero, pack, round_pack, sign_of, BIAS, EXP_MAX, FRAC_BITS,
    QNAN,
};

/// Significand with explicit leading bit and effective biased exponent;
/// subnormals are renormalized (their exponent goes below 1).
#[inline]
fn normalized_sig_exp(bits: u64) -> (u64, i32) {
    let e = exp_of(bits);
    if e == 0 {
        let f = frac_of(bits);
        assert!(f != 0);
        let lz = f.leading_zeros() - (64 - FRAC_BITS - 1);
        (f << lz, 1 - lz as i32)
    } else {
        (frac_of(bits) | (1 << FRAC_BITS), e as i32)
    }
}

/// IEEE-754 binary64 division `a / b` on raw bit patterns
/// (round-to-nearest-even).
pub fn sf_div(a: u64, b: u64) -> u64 {
    let sign = sign_of(a) ^ sign_of(b);
    if is_nan(a) || is_nan(b) {
        return QNAN;
    }
    match (is_inf(a), is_inf(b)) {
        (true, true) => return QNAN,
        (true, false) => return pack(sign, EXP_MAX, 0),
        (false, true) => return pack(sign, 0, 0),
        _ => {}
    }
    match (is_zero(a), is_zero(b)) {
        (true, true) => return QNAN,
        (true, false) => return pack(sign, 0, 0),
        (false, true) => return pack(sign, EXP_MAX, 0), // x/0 = ±inf
        _ => {}
    }

    let (mut sig_a, e_a) = normalized_sig_exp(a);
    let (sig_b, e_b) = normalized_sig_exp(b);
    let mut e = e_a - e_b + BIAS;
    // Pre-normalize so the quotient lands in [1, 2).
    if sig_a < sig_b {
        sig_a <<= 1;
        e -= 1;
    }
    // 54 extra quotient bits: 53 significand + guard + round; the
    // remainder folds into the sticky bit.
    let num = u128::from(sig_a) << 54;
    let q = (num / u128::from(sig_b)) as u64;
    let rem = num % u128::from(sig_b);
    assert!(q >> 54 == 1, "quotient normalized to [2^54, 2^55)");
    let sig = (q << 1) | u64::from(rem != 0);
    // sig: leading bit at 55 = FRAC_BITS + 3 → guard/round/sticky low bits.
    round_pack(sign, e, sig, 3)
}

/// Integer square root of a u128 (binary digit recurrence).
fn isqrt_u128(n: u128) -> u128 {
    if n == 0 {
        return 0;
    }
    let mut x = 0u128;
    let mut bit = 1u128 << ((127 - n.leading_zeros()) & !1);
    let mut rem = n;
    while bit != 0 {
        if rem >= x + bit {
            rem -= x + bit;
            x = (x >> 1) + bit;
        } else {
            x >>= 1;
        }
        bit >>= 2;
    }
    x
}

/// IEEE-754 binary64 square root on a raw bit pattern
/// (round-to-nearest-even).
pub fn sf_sqrt(a: u64) -> u64 {
    if is_nan(a) {
        return QNAN;
    }
    if is_zero(a) {
        return a; // √±0 = ±0
    }
    if sign_of(a) == 1 {
        return QNAN; // √negative
    }
    if is_inf(a) {
        return a;
    }

    let (sig, e) = normalized_sig_exp(a);
    // value = sig · 2^d with d = e − BIAS − 52.
    let d = e - BIAS - FRAC_BITS as i32;
    // Shift so that (d − k) is even and the integer root has 54 bits
    // (53 significand + 1 guard).
    let k = 54 + ((d - 54).rem_euclid(2)) as u32;
    let m = u128::from(sig) << k;
    let s = isqrt_u128(m) as u64;
    let sticky = u128::from(s) * u128::from(s) != m;
    assert!(s >> 53 == 1, "root normalized to [2^53, 2^54)");
    let t = (d - k as i32) / 2;
    let er = t + 53 + BIAS;
    round_pack(0, er, (s << 1) | u64::from(sticky), 2)
}

/// Convenience wrapper: square root through the softfloat core.
#[inline]
pub fn sqrt_f64(a: f64) -> f64 {
    f64::from_bits(sf_sqrt(a.to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same(ours: u64, native: f64) -> bool {
        if is_nan(ours) {
            native.is_nan()
        } else {
            ours == native.to_bits()
        }
    }

    fn check_div(a: f64, b: f64) {
        let ours = sf_div(a.to_bits(), b.to_bits());
        assert!(
            same(ours, a / b),
            "div({a:e}, {b:e}): ours {ours:#018x} native {:#018x}",
            (a / b).to_bits()
        );
    }

    fn check_sqrt(a: f64) {
        let ours = sf_sqrt(a.to_bits());
        assert!(
            same(ours, a.sqrt()),
            "sqrt({a:e}): ours {ours:#018x} native {:#018x}",
            a.sqrt().to_bits()
        );
    }

    fn interesting() -> Vec<f64> {
        vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.0,
            0.5,
            3.0,
            10.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            f64::EPSILON,
            1e308,
            1e-308,
            0.1,
            1.0 / 3.0,
            4503599627370496.0,
        ]
    }

    #[test]
    fn div_directed_edge_cases() {
        let vals = interesting();
        for &a in &vals {
            for &b in &vals {
                check_div(a, b);
            }
        }
    }

    #[test]
    fn sqrt_directed_edge_cases() {
        for &a in &interesting() {
            check_sqrt(a);
        }
        check_sqrt(4.0);
        check_sqrt(2.0);
        check_sqrt(1e300);
        check_sqrt(1e-300);
    }

    #[test]
    fn div_special_values() {
        assert!(is_nan(sf_div(0.0f64.to_bits(), 0.0f64.to_bits())));
        assert!(is_nan(sf_div(
            f64::INFINITY.to_bits(),
            f64::INFINITY.to_bits()
        )));
        // x/0 = ±inf with the XOR sign.
        assert_eq!(
            sf_div(1.0f64.to_bits(), (-0.0f64).to_bits()),
            f64::NEG_INFINITY.to_bits()
        );
    }

    #[test]
    fn sqrt_special_values() {
        assert_eq!(sf_sqrt((-0.0f64).to_bits()), (-0.0f64).to_bits());
        assert!(is_nan(sf_sqrt((-1.0f64).to_bits())));
        assert_eq!(sf_sqrt(f64::INFINITY.to_bits()), f64::INFINITY.to_bits());
    }

    #[test]
    fn div_underflow_gradual() {
        check_div(f64::MIN_POSITIVE, 2.0);
        check_div(f64::MIN_POSITIVE, 1e10);
        check_div(f64::from_bits(123), 7.0);
        check_div(1e-300, 1e300);
    }

    #[test]
    fn div_overflow_to_inf() {
        check_div(1e308, 1e-308);
        check_div(f64::MAX, 0.5);
    }

    #[test]
    fn sqrt_of_subnormals() {
        check_sqrt(f64::from_bits(1));
        check_sqrt(f64::from_bits(12345));
        check_sqrt(f64::MIN_POSITIVE / 4.0);
    }

    #[test]
    fn isqrt_exact_squares() {
        for v in [0u128, 1, 4, 9, 1 << 100, (1u128 << 53) * (1 << 53)] {
            let r = isqrt_u128(v);
            assert_eq!(r * r, v);
        }
        assert_eq!(isqrt_u128(2), 1);
        assert_eq!(isqrt_u128(8), 2);
        assert_eq!(isqrt_u128(99), 9);
    }

    #[test]
    fn perfect_square_roots_are_exact() {
        for i in 1..100u32 {
            let v = f64::from(i * i);
            assert_eq!(sqrt_f64(v), f64::from(i));
        }
    }
}
