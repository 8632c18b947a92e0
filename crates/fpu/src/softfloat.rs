//! Bit-accurate IEEE-754 binary64 (double precision) arithmetic.
//!
//! These routines mirror what the paper's VHDL floating-point cores compute:
//! IEEE-754 double precision with round-to-nearest-even, gradual underflow,
//! and standard NaN/infinity handling. Each operation has two
//! implementations:
//!
//! * [`sf_add_int`] / [`sf_mul_int`] work purely on the `u64` bit
//!   patterns in integer arithmetic. They are the executable specification
//!   of the hardware datapath — the adder's align/add/normalize/round
//!   structure is exactly the stage decomposition a 14-stage pipelined
//!   hardware adder implements — and the oracle the fast path is tested
//!   against.
//! * [`sf_add`] / [`sf_mul`], which every datapath calls, use the host FPU
//!   where [`HOST_FPU_EXACT`] holds: Rust defines binary64 `+`/`*` as
//!   IEEE-754 round-to-nearest-even, so the host computes the same bits as
//!   the integer path (DESIGN.md §6). Elsewhere they fall back to the
//!   integer path.
//!
//! NaN results are canonicalized to the quiet NaN `0x7FF8_0000_0000_0000`
//! on both paths, so the two agree on every bit pattern, NaNs included.
//! Hardware and host FPUs may propagate NaN payloads differently, so tests
//! against the host compare NaNs as a class.

/// Number of fraction (mantissa) bits in binary64.
pub const FRAC_BITS: u32 = 52;
/// Exponent field width in binary64.
pub const EXP_BITS: u32 = 11;
/// Maximum (all-ones) exponent field value: infinity/NaN marker.
pub const EXP_MAX: u64 = (1 << EXP_BITS) - 1;
/// Exponent bias.
pub const BIAS: i32 = 1023;
/// Mask of the fraction field.
pub const FRAC_MASK: u64 = (1 << FRAC_BITS) - 1;
/// Mask of the sign bit.
pub const SIGN_MASK: u64 = 1 << 63;
/// The canonical quiet NaN produced by these routines.
pub const QNAN: u64 = 0x7FF8_0000_0000_0000;

/// True where the host's binary64 `+`/`*` are IEEE-754 round-to-nearest-even
/// with no excess precision, so [`sf_add`]/[`sf_mul`] may use them. The
/// x87 targets (32-bit x86 without SSE2) round through 80-bit registers
/// and are excluded.
pub const HOST_FPU_EXACT: bool = cfg!(any(target_arch = "x86_64", target_arch = "aarch64"));

/// Extract the sign bit (0 or 1).
#[inline]
pub fn sign_of(bits: u64) -> u64 {
    bits >> 63
}

/// Extract the raw (biased) exponent field.
#[inline]
pub fn exp_of(bits: u64) -> u64 {
    (bits >> FRAC_BITS) & EXP_MAX
}

/// Extract the fraction field.
#[inline]
pub fn frac_of(bits: u64) -> u64 {
    bits & FRAC_MASK
}

/// True if the bit pattern encodes any NaN.
#[inline]
pub fn is_nan(bits: u64) -> bool {
    exp_of(bits) == EXP_MAX && frac_of(bits) != 0
}

/// True if the bit pattern encodes ±infinity.
#[inline]
pub fn is_inf(bits: u64) -> bool {
    exp_of(bits) == EXP_MAX && frac_of(bits) == 0
}

/// True if the bit pattern encodes ±0.
#[inline]
pub fn is_zero(bits: u64) -> bool {
    bits & !SIGN_MASK == 0
}

/// Pack sign/exponent/fraction fields into a bit pattern.
#[inline]
pub(crate) fn pack(sign: u64, exp: u64, frac: u64) -> u64 {
    assert!(sign <= 1 && exp <= EXP_MAX && frac <= FRAC_MASK);
    (sign << 63) | (exp << FRAC_BITS) | frac
}

/// Significand with the implicit bit made explicit, plus the *effective*
/// biased exponent (subnormals are treated as exponent 1 with no implicit
/// bit, which makes alignment arithmetic uniform).
#[inline]
fn sig_and_exp(bits: u64) -> (u64, i32) {
    let e = exp_of(bits);
    if e == 0 {
        (frac_of(bits), 1)
    } else {
        (frac_of(bits) | (1 << FRAC_BITS), e as i32)
    }
}

/// Shift `sig` right by `n`, `ORing` every shifted-out bit into bit 0
/// (the "sticky" bit). This models the hardware alignment shifter.
#[inline]
fn shift_right_sticky(sig: u64, n: u32) -> u64 {
    if n == 0 {
        sig
    } else if n >= 64 {
        u64::from(sig != 0)
    } else {
        let lost = sig & ((1u64 << n) - 1);
        (sig >> n) | u64::from(lost != 0)
    }
}

/// Round-to-nearest-even decision for a significand whose lowest `grs_bits`
/// bits are guard/round/sticky information and whose true LSB sits just
/// above them.
#[inline]
fn rne_round_up(sig: u64, grs_bits: u32) -> bool {
    assert!(grs_bits >= 2);
    let guard = (sig >> (grs_bits - 1)) & 1;
    let rest = sig & ((1 << (grs_bits - 1)) - 1);
    let lsb = (sig >> grs_bits) & 1;
    guard == 1 && (rest != 0 || lsb == 1)
}

/// Map every NaN to the canonical [`QNAN`]; other patterns pass through.
#[inline]
fn canonical_nan(bits: u64) -> u64 {
    if is_nan(bits) {
        QNAN
    } else {
        bits
    }
}

/// IEEE-754 binary64 addition on raw bit patterns (round-to-nearest-even).
/// Bit-identical to [`sf_add_int`] on every input; uses the host FPU where
/// [`HOST_FPU_EXACT`] holds.
///
/// # Examples
///
/// ```
/// use fblas_fpu::softfloat::{sf_add, sf_add_int};
///
/// let sum = sf_add(0.1f64.to_bits(), 0.2f64.to_bits());
/// // Bit-exact agreement with the host FPU, rounding error included.
/// assert_eq!(sum, (0.1f64 + 0.2f64).to_bits());
/// assert_eq!(sum, sf_add_int(0.1f64.to_bits(), 0.2f64.to_bits()));
/// ```
#[inline]
pub fn sf_add(a: u64, b: u64) -> u64 {
    if HOST_FPU_EXACT {
        canonical_nan((f64::from_bits(a) + f64::from_bits(b)).to_bits())
    } else {
        sf_add_int(a, b)
    }
}

/// IEEE-754 binary64 addition in integer arithmetic only: the oracle
/// [`sf_add`] is tested against.
pub fn sf_add_int(a: u64, b: u64) -> u64 {
    // Special values -------------------------------------------------------
    if is_nan(a) || is_nan(b) {
        return QNAN;
    }
    if is_inf(a) {
        return if is_inf(b) && sign_of(a) != sign_of(b) {
            QNAN // (+inf) + (-inf)
        } else {
            a
        };
    }
    if is_inf(b) {
        return b;
    }
    if is_zero(a) && is_zero(b) {
        // (+0)+(+0)=+0, (-0)+(-0)=-0, mixed = +0 under round-to-nearest.
        return pack(sign_of(a) & sign_of(b), 0, 0);
    }
    if is_zero(a) {
        return b;
    }
    if is_zero(b) {
        return a;
    }

    // Order by magnitude: for finite doubles, magnitude order is integer
    // order of the sign-stripped bit pattern.
    let (big, small) = if (a & !SIGN_MASK) >= (b & !SIGN_MASK) {
        (a, b)
    } else {
        (b, a)
    };
    let (sig_b, e_b) = sig_and_exp(big);
    let (sig_s, e_s) = sig_and_exp(small);
    let sign_big = sign_of(big);
    let effective_sub = sign_of(a) != sign_of(b);

    // Three extra low-order bits: guard, round, sticky.
    const GRS: u32 = 3;
    let big_sig = sig_b << GRS;
    let small_sig = shift_right_sticky(sig_s << GRS, (e_b - e_s) as u32);
    let mut e = e_b;

    let mut sig;
    if effective_sub {
        sig = big_sig - small_sig;
        if sig == 0 {
            // Exact cancellation rounds to +0 under round-to-nearest-even.
            return pack(0, 0, 0);
        }
        // At most one lossy alignment bit exists when the shift distance was
        // ≥ 2, in which case normalization moves left by at most one place;
        // otherwise the subtraction was exact and arbitrary left shifts are
        // safe. Either way the loop below is exact.
        let top = 1u64 << (FRAC_BITS + GRS); // normalized leading-bit position
        while sig < top && e > 1 {
            sig <<= 1;
            e -= 1;
        }
    } else {
        sig = big_sig + small_sig;
        let top_plus = 1u64 << (FRAC_BITS + GRS + 1);
        if sig >= top_plus {
            sig = shift_right_sticky(sig, 1);
            e += 1;
        }
    }

    round_pack(sign_big, e, sig, GRS)
}

/// IEEE-754 binary64 subtraction on raw bit patterns: `a - b`.
#[inline]
pub fn sf_sub(a: u64, b: u64) -> u64 {
    // NaN must not have its "sign flipped" semantics confused; sf_add
    // handles NaN before looking at signs, so flipping b's sign is safe.
    sf_add(a, b ^ SIGN_MASK)
}

/// IEEE-754 binary64 multiplication on raw bit patterns
/// (round-to-nearest-even). Bit-identical to [`sf_mul_int`] on every
/// input; uses the host FPU where [`HOST_FPU_EXACT`] holds.
#[inline]
pub fn sf_mul(a: u64, b: u64) -> u64 {
    if HOST_FPU_EXACT {
        canonical_nan((f64::from_bits(a) * f64::from_bits(b)).to_bits())
    } else {
        sf_mul_int(a, b)
    }
}

/// IEEE-754 binary64 multiplication in integer arithmetic only: the
/// oracle [`sf_mul`] is tested against.
pub fn sf_mul_int(a: u64, b: u64) -> u64 {
    let sign = sign_of(a) ^ sign_of(b);
    // Special values -------------------------------------------------------
    if is_nan(a) || is_nan(b) {
        return QNAN;
    }
    if is_inf(a) || is_inf(b) {
        return if is_zero(a) || is_zero(b) {
            QNAN // 0 × inf
        } else {
            pack(sign, EXP_MAX, 0)
        };
    }
    if is_zero(a) || is_zero(b) {
        return pack(sign, 0, 0);
    }

    // Normalize subnormal inputs so both significands carry an explicit
    // leading one; track the exponent adjustment.
    let (mut sig_a, mut e_a) = sig_and_exp(a);
    let (mut sig_b, mut e_b) = sig_and_exp(b);
    if exp_of(a) == 0 {
        let lz = sig_a.leading_zeros() - (64 - FRAC_BITS - 1);
        sig_a <<= lz;
        e_a -= lz as i32;
    }
    if exp_of(b) == 0 {
        let lz = sig_b.leading_zeros() - (64 - FRAC_BITS - 1);
        sig_b <<= lz;
        e_b -= lz as i32;
    }

    // Significands are in [2^52, 2^53); the product is in [2^104, 2^106).
    let mut prod = u128::from(sig_a) * u128::from(sig_b);
    let mut e = e_a + e_b - BIAS;
    if prod >> 105 != 0 {
        e += 1;
    } else {
        prod <<= 1;
    }
    // Leading bit now at position 105; keep 53 significand bits plus a
    // guard at bit 52 and fold everything below into a sticky bit.
    let sticky = (prod & ((1u128 << 52) - 1)) != 0;
    let sig = ((prod >> 52) as u64) << 1 | u64::from(sticky);
    // sig: 53 significand bits, then guard at bit 1 and sticky at bit 0.
    round_pack(sign, e, sig, 2)
}

/// Shared normalize-subnormal / round / overflow / pack tail.
///
/// `sig` carries the significand with its leading bit (for a normal result)
/// at position `FRAC_BITS + grs`, and `grs` low bits of rounding
/// information. `e` is the effective biased exponent (1 ⇒ may be
/// subnormal).
pub(crate) fn round_pack(sign: u64, mut e: i32, mut sig: u64, grs: u32) -> u64 {
    assert!(sig != 0);
    // Gradual underflow: align to the subnormal window, folding lost bits
    // into the sticky position before rounding.
    if e < 1 {
        sig = shift_right_sticky(sig, (1 - e) as u32);
        e = 1;
    }

    let mut sig_main = sig >> grs;
    if rne_round_up(sig, grs) {
        sig_main += 1;
        if sig_main >> (FRAC_BITS + 1) != 0 {
            sig_main >>= 1;
            e += 1;
        }
    }

    if sig_main >> FRAC_BITS == 0 {
        // Subnormal (or zero after rounding): exponent field is 0.
        assert!(e == 1, "unnormalized significand with e={e}");
        return pack(sign, 0, sig_main);
    }
    if e >= EXP_MAX as i32 {
        return pack(sign, EXP_MAX, 0); // overflow → ±inf
    }
    pack(sign, e as u64, sig_main & FRAC_MASK)
}

/// Convenience wrapper: add two `f64`s through the softfloat core.
#[inline]
pub fn add_f64(a: f64, b: f64) -> f64 {
    f64::from_bits(sf_add(a.to_bits(), b.to_bits()))
}

/// Balanced-tree summation through [`add_f64`]: the association order
/// of a `vals.len()`-leaf adder tree (left half, right half, combine).
/// Every stepped datapath and its fused replay sum through this one
/// fold, so the two agree on every input. Empty input sums to `+0.0`.
#[inline]
pub fn balanced_sum(vals: &[f64]) -> f64 {
    match vals.len() {
        0 => 0.0,
        1 => vals[0],
        n => {
            let mid = n / 2;
            add_f64(balanced_sum(&vals[..mid]), balanced_sum(&vals[mid..]))
        }
    }
}

/// Convenience wrapper: multiply two `f64`s through the softfloat core.
#[inline]
pub fn mul_f64(a: f64, b: f64) -> f64 {
    f64::from_bits(sf_mul(a.to_bits(), b.to_bits()))
}

/// `c += a · b` for `n`×`n` row-major matrices, bit-identical to
/// `c[i][j] = add_f64(c[i][j], mul_f64(a[i][q], b[q][j]))` for q
/// ascending, the §5.1 order every matrix-product value path uses. Where
/// [`HOST_FPU_EXACT`] holds it runs in host `f64` in i-q-j order (so it
/// vectorizes across j only) and maps NaN to [`QNAN`] once per row at the
/// store: IEEE `+`/`*` propagate NaN and Rust never contracts to FMA, so
/// that equals canonicalizing per op (DESIGN.md §6).
pub fn matmul_acc(n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    let len = n * n;
    assert!(a.len() == len && b.len() == len && c.len() == len);
    let row = n.max(1); // n = 0: empty slices, and no zero-width chunks
    for (a_row, c_row) in a.chunks_exact(row).zip(c.chunks_exact_mut(row)) {
        for (&aiq, b_row) in a_row.iter().zip(b.chunks_exact(row)) {
            for (cij, &bqj) in c_row.iter_mut().zip(b_row) {
                *cij = if HOST_FPU_EXACT {
                    *cij + aiq * bqj
                } else {
                    add_f64(*cij, mul_f64(aiq, bqj))
                };
            }
        }
        if HOST_FPU_EXACT {
            for cij in c_row.iter_mut() {
                *cij = f64::from_bits(canonical_nan(cij.to_bits()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_sum_association() {
        // ((1+2)+(3+4)) for four leaves.
        assert_eq!(balanced_sum(&[1.0, 2.0, 3.0, 4.0]), 10.0);
        assert_eq!(balanced_sum(&[]), 0.0);
        assert_eq!(balanced_sum(&[7.5]), 7.5);
    }

    /// Bit-exact equality, treating all NaNs as one equivalence class.
    fn same(ours: u64, native: f64) -> bool {
        if is_nan(ours) {
            native.is_nan()
        } else {
            ours == native.to_bits()
        }
    }

    fn check_add(a: f64, b: f64) {
        let ours = sf_add_int(a.to_bits(), b.to_bits());
        let native = a + b;
        assert!(
            same(ours, native),
            "add({a:e} [{:#018x}], {b:e} [{:#018x}]): ours {:#018x} native {:#018x}",
            a.to_bits(),
            b.to_bits(),
            ours,
            native.to_bits()
        );
    }

    fn check_mul(a: f64, b: f64) {
        let ours = sf_mul_int(a.to_bits(), b.to_bits());
        let native = a * b;
        assert!(
            same(ours, native),
            "mul({a:e} [{:#018x}], {b:e} [{:#018x}]): ours {:#018x} native {:#018x}",
            a.to_bits(),
            b.to_bits(),
            ours,
            native.to_bits()
        );
    }

    /// The directed edge-case operand set used across the tests.
    fn interesting() -> Vec<f64> {
        vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.0,
            0.5,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,         // smallest normal
            f64::MIN_POSITIVE / 2.0,   // subnormal
            f64::from_bits(1),         // smallest subnormal
            f64::from_bits(FRAC_MASK), // largest subnormal
            f64::EPSILON,
            1.0 + f64::EPSILON,
            1e308,
            -1e308,
            1e-308,
            #[allow(clippy::approx_constant)]
            3.141592653589793,
            #[allow(clippy::approx_constant)]
            -2.718281828459045,
            6.02214076e23,
            1.0 / 3.0,
            9007199254740993.0, // 2^53 + 1 (not representable; rounds)
            4503599627370496.0, // 2^52
        ]
    }

    #[test]
    fn add_directed_edge_cases() {
        let vals = interesting();
        for &a in &vals {
            for &b in &vals {
                check_add(a, b);
            }
        }
    }

    #[test]
    fn mul_directed_edge_cases() {
        let vals = interesting();
        for &a in &vals {
            for &b in &vals {
                check_mul(a, b);
            }
        }
    }

    #[test]
    fn sub_matches_native_on_edge_cases() {
        let vals = interesting();
        for &a in &vals {
            for &b in &vals {
                let ours = sf_add_int(a.to_bits(), b.to_bits() ^ SIGN_MASK);
                assert!(same(ours, a - b), "sub({a:e},{b:e})");
            }
        }
    }

    #[test]
    fn add_rounds_to_nearest_even_at_tie() {
        // 2^53 is exactly representable; 2^53 + 1 ties between 2^53 and
        // 2^53 + 2 and must round to the even significand (2^53).
        let big = (1u64 << 53) as f64;
        check_add(big, 1.0);
        // 2^53 + 3 ties between +2 and +4 and must round up to +4.
        check_add(big, 3.0);
    }

    #[test]
    fn add_exact_cancellation_is_positive_zero() {
        let r = sf_add(1.5f64.to_bits(), (-1.5f64).to_bits());
        assert_eq!(r, 0.0f64.to_bits());
        assert_eq!(sign_of(r), 0);
    }

    #[test]
    fn add_signed_zero_rules() {
        assert_eq!(
            sf_add((-0.0f64).to_bits(), (-0.0f64).to_bits()),
            (-0.0f64).to_bits()
        );
        assert_eq!(
            sf_add((-0.0f64).to_bits(), 0.0f64.to_bits()),
            0.0f64.to_bits()
        );
        assert_eq!(sf_add(0.0f64.to_bits(), 0.0f64.to_bits()), 0.0f64.to_bits());
    }

    #[test]
    fn inf_minus_inf_is_nan() {
        assert!(is_nan(sf_add(
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits()
        )));
        assert!(is_nan(sf_sub(
            f64::INFINITY.to_bits(),
            f64::INFINITY.to_bits()
        )));
    }

    #[test]
    fn zero_times_inf_is_nan() {
        assert!(is_nan(sf_mul(0.0f64.to_bits(), f64::INFINITY.to_bits())));
        assert!(is_nan(sf_mul(
            f64::NEG_INFINITY.to_bits(),
            (-0.0f64).to_bits()
        )));
    }

    #[test]
    fn mul_overflow_saturates_to_infinity() {
        check_mul(1e308, 10.0);
        check_mul(-1e308, 10.0);
        check_mul(f64::MAX, f64::MAX);
    }

    #[test]
    fn mul_underflow_is_gradual() {
        check_mul(f64::MIN_POSITIVE, 0.5);
        check_mul(f64::MIN_POSITIVE, 0.25);
        check_mul(f64::from_bits(1), 0.5);
        check_mul(1e-200, 1e-200);
    }

    #[test]
    fn mul_subnormal_times_large_renormalizes() {
        check_mul(f64::from_bits(1), 1e300);
        check_mul(f64::from_bits(12345), 2.0f64.powi(700));
    }

    #[test]
    fn add_with_huge_exponent_gap_is_absorbing() {
        check_add(1e300, 1e-300);
        check_add(1e300, -1e-300);
        check_add(-1.0, f64::from_bits(1));
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        // Sterbenz: subtraction of nearby values is exact.
        check_add(1.0000000000000002, -1.0);
        check_add(1.0, -0.9999999999999999);
    }

    #[test]
    fn subnormal_plus_subnormal() {
        let a = f64::from_bits(123456789);
        let b = f64::from_bits(987654321);
        check_add(a, b);
        check_add(a, -b);
    }

    #[test]
    fn field_extractors() {
        let x = (-1.5f64).to_bits();
        assert_eq!(sign_of(x), 1);
        assert_eq!(exp_of(x), BIAS as u64);
        assert_eq!(frac_of(x), 1 << (FRAC_BITS - 1));
    }

    #[test]
    fn classification_predicates() {
        assert!(is_nan(QNAN));
        assert!(is_inf(f64::INFINITY.to_bits()));
        assert!(is_inf(f64::NEG_INFINITY.to_bits()));
        assert!(is_zero(0.0f64.to_bits()));
        assert!(is_zero((-0.0f64).to_bits()));
        assert!(!is_nan(1.0f64.to_bits()));
        assert!(!is_inf(f64::MAX.to_bits()));
    }

    #[test]
    fn shift_right_sticky_collects_lost_bits() {
        assert_eq!(shift_right_sticky(0b1000, 3), 0b1);
        assert_eq!(shift_right_sticky(0b1001, 3), 0b11 >> 1 | 1); // 0b1 | sticky
        assert_eq!(shift_right_sticky(0b1010_0000, 5), 0b101);
        assert_eq!(shift_right_sticky(1, 64), 1);
        assert_eq!(shift_right_sticky(0, 64), 0);
    }
}
