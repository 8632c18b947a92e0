//! Property-based verification of the integer softfloat against the host
//! FPU.
//!
//! Both the integer routines (`sf_add_int`, `sf_mul_int`, `sf_div`,
//! `sf_sqrt`) and the host implement IEEE-754 binary64 with
//! round-to-nearest-even, so every finite-input operation must agree bit for
//! bit; NaNs are compared as a class because payload propagation is
//! implementation-defined. The host fast path `sf_add`/`sf_mul` is held to
//! the integer routines bit for bit by `softfloat_oracle.rs`.

use fblas_fpu::softfloat::{self, sf_add_int, sf_mul_int, SIGN_MASK};
use fblas_fpu::softfloat_ext::{sf_div, sf_sqrt};
use proptest::prelude::*;

/// Bit-exact equality with NaNs treated as one class.
fn same(ours: u64, native: f64) -> bool {
    if softfloat::is_nan(ours) {
        native.is_nan()
    } else {
        ours == native.to_bits()
    }
}

/// `a - b` in integer arithmetic only (what `sf_sub` computes).
fn sf_sub_int(a: u64, b: u64) -> u64 {
    sf_add_int(a, b ^ SIGN_MASK)
}

/// Arbitrary *bit patterns*, not arbitrary values: this covers NaN payloads,
/// subnormals and infinities far more densely than sampling by value.
fn any_bits() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Uniform over the full pattern space.
        any::<u64>(),
        // Clustered near exponent-field boundaries where rounding and
        // underflow/overflow corner cases live.
        (0u64..=1, 0u64..=4, any::<u64>())
            .prop_map(|(s, e, f)| { (s << 63) | (e << 52) | (f & ((1 << 52) - 1)) }),
        (0u64..=1, 2043u64..=2047, any::<u64>())
            .prop_map(|(s, e, f)| { (s << 63) | (e << 52) | (f & ((1 << 52) - 1)) }),
        // Pairs of nearby magnitudes (catastrophic-cancellation region).
        any::<i64>().prop_map(|x| (x.unsigned_abs()) % (1 << 60)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn add_matches_native(a in any_bits(), b in any_bits()) {
        let ours = sf_add_int(a, b);
        let native = f64::from_bits(a) + f64::from_bits(b);
        prop_assert!(
            same(ours, native),
            "add({a:#018x}, {b:#018x}) = {ours:#018x}, native {:#018x}",
            native.to_bits()
        );
    }

    #[test]
    fn sub_matches_native(a in any_bits(), b in any_bits()) {
        let ours = sf_sub_int(a, b);
        let native = f64::from_bits(a) - f64::from_bits(b);
        prop_assert!(
            same(ours, native),
            "sub({a:#018x}, {b:#018x}) = {ours:#018x}, native {:#018x}",
            native.to_bits()
        );
    }

    #[test]
    fn mul_matches_native(a in any_bits(), b in any_bits()) {
        let ours = sf_mul_int(a, b);
        let native = f64::from_bits(a) * f64::from_bits(b);
        prop_assert!(
            same(ours, native),
            "mul({a:#018x}, {b:#018x}) = {ours:#018x}, native {:#018x}",
            native.to_bits()
        );
    }

    #[test]
    fn add_is_commutative(a in any_bits(), b in any_bits()) {
        let ab = sf_add_int(a, b);
        let ba = sf_add_int(b, a);
        prop_assert!(ab == ba || (softfloat::is_nan(ab) && softfloat::is_nan(ba)));
    }

    #[test]
    fn mul_is_commutative(a in any_bits(), b in any_bits()) {
        let ab = sf_mul_int(a, b);
        let ba = sf_mul_int(b, a);
        prop_assert!(ab == ba || (softfloat::is_nan(ab) && softfloat::is_nan(ba)));
    }

    #[test]
    fn add_identity_zero(a in any_bits()) {
        prop_assume!(!softfloat::is_nan(a) && !softfloat::is_zero(a));
        prop_assert_eq!(sf_add_int(a, 0.0f64.to_bits()), a);
    }

    #[test]
    fn mul_identity_one(a in any_bits()) {
        prop_assume!(!softfloat::is_nan(a));
        prop_assert_eq!(sf_mul_int(a, 1.0f64.to_bits()), a);
    }

    #[test]
    fn div_matches_native(a in any_bits(), b in any_bits()) {
        let ours = sf_div(a, b);
        let native = f64::from_bits(a) / f64::from_bits(b);
        prop_assert!(
            same(ours, native),
            "div({a:#018x}, {b:#018x}) = {ours:#018x}, native {:#018x}",
            native.to_bits()
        );
    }

    #[test]
    fn sqrt_matches_native(a in any_bits()) {
        let ours = sf_sqrt(a);
        let native = f64::from_bits(a).sqrt();
        prop_assert!(
            same(ours, native),
            "sqrt({a:#018x}) = {ours:#018x}, native {:#018x}",
            native.to_bits()
        );
    }

    #[test]
    fn div_by_self_is_one(a in any_bits()) {
        let v = f64::from_bits(a);
        prop_assume!(v.is_finite() && v != 0.0);
        prop_assert_eq!(sf_div(a, a), 1.0f64.to_bits());
    }

    #[test]
    fn sqrt_then_square_round_trips_within_two_ulp(v in 1e-300f64..1e300) {
        let r = f64::from_bits(sf_sqrt(v.to_bits()));
        let back = f64::from_bits(sf_mul_int(r.to_bits(), r.to_bits()));
        let ulp = (v.to_bits() as i64 - back.to_bits() as i64).abs();
        prop_assert!(ulp <= 2, "√ then square drifted {ulp} ulp for {v:e}");
    }

    #[test]
    fn sterbenz_subtraction_is_exact(m in 1u64..(1 << 52), e in 1u64..2046) {
        // For b/2 <= a <= b, a - b is exactly representable, so the
        // softfloat result must equal the mathematically exact difference.
        let a = f64::from_bits((e << 52) | m);
        let b = f64::from_bits(((e) << 52) | (m / 2));
        let ours = f64::from_bits(sf_sub_int(a.to_bits(), b.to_bits()));
        prop_assert_eq!(ours, a - b);
    }
}
