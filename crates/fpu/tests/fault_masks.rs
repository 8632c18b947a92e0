//! Fault-mask edge cases: single-bit sign/exponent flips crossing the
//! subnormal/Inf/NaN boundaries must round-trip correctly through the
//! softfloat add/mul datapath.
//!
//! The fault-injection subsystem (`fblas-faults`) XORs single bits into
//! values travelling through the simulated FPUs. A flipped *sign* bit
//! negates; a flipped *exponent* bit can catapult a value across the
//! subnormal boundary (gradual underflow), to infinity, or into NaN
//! space. The softfloat core must handle every such corrupted operand
//! exactly as a hardware IEEE-754 unit would. These are property tests
//! over deterministically seeded operand streams (xorshift, fixed seeds:
//! same failures on every run, no persistence files needed). They check
//! the integer oracle (`sf_add_int`/`sf_mul_int`) against the host FPU;
//! `softfloat_oracle.rs` holds the host fast path to the oracle.

use fblas_fpu::softfloat::{self, sf_add_int, sf_mul_int, EXP_MAX, FRAC_BITS, SIGN_MASK};

/// The deterministic generator used across the workspace (same xorshift
/// idiom as `fblas-bench::synth`).
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Bit-exact equality with NaNs compared as a class (payload propagation
/// is implementation-defined).
fn same(ours: u64, native: f64) -> bool {
    if softfloat::is_nan(ours) {
        native.is_nan()
    } else {
        ours == native.to_bits()
    }
}

fn assert_ops_match_native(a: u64, b: u64, context: &str) {
    let add = sf_add_int(a, b);
    let native_add = f64::from_bits(a) + f64::from_bits(b);
    assert!(
        same(add, native_add),
        "{context}: add({a:#018x}, {b:#018x}) = {add:#018x}, native {:#018x}",
        native_add.to_bits()
    );
    let mul = sf_mul_int(a, b);
    let native_mul = f64::from_bits(a) * f64::from_bits(b);
    assert!(
        same(mul, native_mul),
        "{context}: mul({a:#018x}, {b:#018x}) = {mul:#018x}, native {:#018x}",
        native_mul.to_bits()
    );
}

const CASES: usize = 4096;

#[test]
fn sign_flips_round_trip_through_add_and_mul() {
    let mut rng = XorShift::new(7);
    for i in 0..CASES {
        let a = rng.next();
        let b = rng.next();
        let flipped = a ^ SIGN_MASK;
        assert_ops_match_native(flipped, b, "sign flip");
        assert_eq!(flipped ^ SIGN_MASK, a, "double flip restores, case {i}");
    }
}

#[test]
fn exponent_flips_crossing_the_subnormal_boundary_match_native() {
    let mut rng = XorShift::new(11);
    for _ in 0..CASES {
        // Operands with tiny exponents: flipping any exponent bit lands
        // in (or leaves) the subnormal range, exercising gradual
        // underflow in both directions.
        let raw = rng.next();
        let small_exp = raw >> 62; // 0..=3: subnormal or barely normal
        let a = (raw & SIGN_MASK) | (small_exp << FRAC_BITS) | (rng.next() >> (64 - FRAC_BITS));
        let bit = FRAC_BITS + (rng.next() % 11) as u32;
        let flipped = a ^ (1u64 << bit);
        let b = rng.next();
        assert_ops_match_native(flipped, b, "subnormal-boundary exponent flip");
        // Subnormal against subnormal, too.
        let c = (rng.next() & SIGN_MASK) | (rng.next() >> (64 - FRAC_BITS));
        assert_ops_match_native(flipped, c, "subnormal vs subnormal");
    }
}

#[test]
fn exponent_flips_crossing_inf_and_nan_boundaries_match_native() {
    let mut rng = XorShift::new(13);
    for _ in 0..CASES {
        // Operands with near-maximal exponents: a single exponent-bit
        // flip saturates to EXP_MAX, producing Inf (zero fraction) or
        // NaN (non-zero fraction).
        let raw = rng.next();
        let high_exp = EXP_MAX - (raw >> 62); // 2044..=2047
        let a = (raw & SIGN_MASK) | (high_exp << FRAC_BITS) | (rng.next() >> (64 - FRAC_BITS));
        let bit = FRAC_BITS + (rng.next() % 11) as u32;
        let flipped = a ^ (1u64 << bit);
        let b = rng.next();
        assert_ops_match_native(flipped, b, "inf/nan-boundary exponent flip");
        // Inf/NaN interacting with exact infinities and zeros.
        assert_ops_match_native(flipped, f64::INFINITY.to_bits(), "vs +inf");
        assert_ops_match_native(flipped, (-0.0f64).to_bits(), "vs -0");
    }
}

#[test]
fn any_single_bit_flip_keeps_the_datapath_ieee_exact() {
    // The fully general property: whatever single bit a fault flips —
    // sign, exponent or mantissa, on either operand — the softfloat
    // result stays bit-identical to the host FPU's.
    let mut rng = XorShift::new(17);
    for _ in 0..CASES {
        let a = rng.next();
        let b = rng.next();
        let bit = (rng.next() % 64) as u32;
        let flipped_a = a ^ (1u64 << bit);
        let flipped_b = b ^ (1u64 << bit);
        assert_ops_match_native(flipped_a, b, "flip on a");
        assert_ops_match_native(a, flipped_b, "flip on b");
    }
}

#[test]
fn flip_inject_then_flip_back_restores_the_pipelined_result_bit_exactly() {
    use fblas_fpu::PipelinedAdder;
    // Retry-with-replay leans on this: a corrupted in-flight value whose
    // fault is undone (or a clean re-run) must reproduce the original
    // result to the bit, even when the flip crossed into NaN space.
    let mut rng = XorShift::new(19);
    for _ in 0..256 {
        let a = f64::from_bits(rng.next());
        let b = f64::from_bits(rng.next());
        let bit = (rng.next() % 64) as u32;

        let run = |corrupt: bool| {
            let mut adder = PipelinedAdder::<()>::with_stages(5);
            adder.step(Some((a, b, ())));
            if corrupt {
                assert!(adder.fault_flip_in_flight(4, bit));
                assert!(adder.fault_flip_in_flight(4, bit), "undo the flip");
            }
            let mut out = None;
            for _ in 0..5 {
                out = adder.step(None);
            }
            out.expect("result after latency").value.to_bits()
        };
        assert_eq!(run(false), run(true), "flip+unflip must be a no-op");
    }
}
