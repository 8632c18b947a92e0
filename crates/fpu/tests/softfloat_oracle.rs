//! Differential test: the host fast path (`sf_add`, `sf_mul`, `sf_sub`)
//! against the integer softfloat oracle (`sf_add_int`, `sf_mul_int`).
//!
//! The integer routines are the definition of correct; the fast path must
//! reproduce them on *exact bits*, NaN results included (both sides
//! canonicalize every NaN to `QNAN`). Two operand sources:
//!
//! * directed edges — round-to-nearest-even ties, the subnormal/normal
//!   boundary, overflow to ±Inf, exact cancellation, signed zeros, quiet
//!   and signalling NaNs of both signs, `inf - inf` and `0 × inf`, each
//!   pinned to its expected bits and then crossed with every other edge;
//! * a seeded xorshift stream of operand pairs drawn from uniform bit
//!   patterns, subnormals, the Inf/NaN exponent range, short-mantissa
//!   values, near-cancellation pairs and pairs built to round on a tie:
//!   10⁷ pairs.
//!
//! The matrix kernel `matmul_acc` is checked the same way: on matrices
//! drawn from those regimes it must give the bits of the per-op loop,
//! through the fast path and through the oracle.

use fblas_fpu::softfloat::{
    matmul_acc, sf_add, sf_add_int, sf_mul, sf_mul_int, sf_sub, FRAC_BITS, FRAC_MASK, QNAN,
    SIGN_MASK,
};

/// Pairs the stream checks: every op of every pair is compared.
const STREAM_PAIRS: u64 = 10_000_000;

const POS_INF: u64 = 0x7FF0_0000_0000_0000;
const NEG_INF: u64 = 0xFFF0_0000_0000_0000;
const POS_ZERO: u64 = 0;
const NEG_ZERO: u64 = SIGN_MASK;
const SNAN: u64 = 0x7FF0_0000_0000_0001;
const NEG_SNAN: u64 = 0xFFF0_0000_0000_0001;
const NEG_QNAN: u64 = 0xFFF8_0000_0000_0000;
const QNAN_PAYLOAD: u64 = 0x7FF8_DEAD_BEEF_0001;
const MIN_NORMAL: u64 = 1 << FRAC_BITS;
const MAX_SUBNORMAL: u64 = FRAC_MASK;

fn bits(x: f64) -> u64 {
    x.to_bits()
}

/// Compare all three fast-path ops with the oracle on one pair.
fn check(a: u64, b: u64) {
    let (fast, int) = (sf_add(a, b), sf_add_int(a, b));
    assert_eq!(
        fast, int,
        "add({a:#018x}, {b:#018x}): fast {fast:#018x}, oracle {int:#018x}"
    );
    let (fast, int) = (sf_sub(a, b), sf_add_int(a, b ^ SIGN_MASK));
    assert_eq!(
        fast, int,
        "sub({a:#018x}, {b:#018x}): fast {fast:#018x}, oracle {int:#018x}"
    );
    let (fast, int) = (sf_mul(a, b), sf_mul_int(a, b));
    assert_eq!(
        fast, int,
        "mul({a:#018x}, {b:#018x}): fast {fast:#018x}, oracle {int:#018x}"
    );
}

/// Both paths give `want` for `op(a, b)`.
fn pin(name: &str, fast: fn(u64, u64) -> u64, int: fn(u64, u64) -> u64, a: u64, b: u64, want: u64) {
    for (path, f) in [("fast", fast), ("oracle", int)] {
        let got = f(a, b);
        assert_eq!(
            got, want,
            "{path} {name}({a:#018x}, {b:#018x}) = {got:#018x}, want {want:#018x}"
        );
    }
}

fn pin_add(a: u64, b: u64, want: u64) {
    pin("add", sf_add, sf_add_int, a, b, want);
}

fn pin_mul(a: u64, b: u64, want: u64) {
    pin("mul", sf_mul, sf_mul_int, a, b, want);
}

#[test]
fn round_to_nearest_even_ties() {
    let two53 = bits(9_007_199_254_740_992.0);
    // 2^53 + 1 ties between 2^53 and 2^53 + 2: even wins, down.
    pin_add(two53, bits(1.0), two53);
    // 2^53 + 3 ties between 2^53 + 2 and 2^53 + 4: even wins, up.
    pin_add(two53, bits(3.0), two53 + 2);
    // 1 + 2^-53 ties between 1 and 1 + 2^-52: down to 1.
    pin_add(bits(1.0), bits(f64::EPSILON / 2.0), bits(1.0));
    // (1 + 2^-52) + 2^-53 ties the other way: up to 1 + 2^-51.
    pin_add(
        bits(1.0 + f64::EPSILON),
        bits(f64::EPSILON / 2.0),
        bits(1.0) + 2,
    );
    // (1 + 2^-52)^2 = 1 + 2^-51 + 2^-104: above the tie, sticky rounds down.
    pin_mul(
        bits(1.0 + f64::EPSILON),
        bits(1.0 + f64::EPSILON),
        bits(1.0) + 2,
    );
    // (2^27 + 1)^2 = 2^54 + 2^28 + 1: the trailing 1 is below half an ulp.
    let x = bits(134_217_729.0);
    pin_mul(x, x, bits(18_014_398_777_917_440.0));
}

#[test]
fn subnormal_normal_boundary() {
    // Smallest normal minus the smallest subnormal is the largest subnormal.
    pin_add(MIN_NORMAL, 1 | SIGN_MASK, MAX_SUBNORMAL);
    // Largest subnormal plus the smallest subnormal is the smallest normal.
    pin_add(MAX_SUBNORMAL, 1, MIN_NORMAL);
    // Halving the smallest normal is exact and subnormal.
    pin_mul(MIN_NORMAL, bits(0.5), 1 << (FRAC_BITS - 1));
    // Halving the smallest subnormal ties between 0 and it: even is 0.
    pin_mul(1, bits(0.5), POS_ZERO);
    pin_mul(1 | SIGN_MASK, bits(0.5), NEG_ZERO);
    // 3 × smallest subnormal × 0.5 = 1.5 ulp ties up to 2 (even).
    pin_mul(3, bits(0.5), 2);
    // A subnormal times a large power of two renormalizes exactly.
    pin_mul(1, bits(2f64.powi(1023)), bits(2f64.powi(-51)));
}

#[test]
fn overflow_saturates_to_signed_infinity() {
    let max = bits(f64::MAX);
    pin_add(max, max, POS_INF);
    pin_add(max | SIGN_MASK, max | SIGN_MASK, NEG_INF);
    pin_mul(max, bits(2.0), POS_INF);
    pin_mul(max, bits(-2.0), NEG_INF);
    // Just below the rounding threshold stays finite.
    pin_add(max, bits(2f64.powi(969)), max);
}

#[test]
fn exact_cancellation_is_positive_zero_and_zero_signs_follow_ieee() {
    for x in [
        bits(1.5),
        bits(-3.25e-300),
        1,
        MAX_SUBNORMAL,
        bits(f64::MAX),
    ] {
        pin_add(x, x ^ SIGN_MASK, POS_ZERO);
        pin_add(x ^ SIGN_MASK, x, POS_ZERO);
    }
    pin_add(POS_ZERO, POS_ZERO, POS_ZERO);
    pin_add(NEG_ZERO, NEG_ZERO, NEG_ZERO);
    pin_add(NEG_ZERO, POS_ZERO, POS_ZERO);
    pin_add(POS_ZERO, NEG_ZERO, POS_ZERO);
    pin_mul(NEG_ZERO, bits(3.0), NEG_ZERO);
    pin_mul(NEG_ZERO, bits(-3.0), POS_ZERO);
    pin_mul(NEG_ZERO, NEG_ZERO, POS_ZERO);
}

#[test]
fn every_nan_result_is_the_canonical_quiet_nan() {
    let nans = [QNAN, NEG_QNAN, SNAN, NEG_SNAN, QNAN_PAYLOAD, u64::MAX];
    for n in nans {
        for x in [POS_ZERO, NEG_ZERO, bits(1.0), POS_INF, NEG_INF, n] {
            pin_add(n, x, QNAN);
            pin_add(x, n, QNAN);
            pin_mul(n, x, QNAN);
            pin_mul(x, n, QNAN);
        }
    }
    // Invalid operations (the x86 default NaN is negative, 0xFFF8…).
    pin_add(POS_INF, NEG_INF, QNAN);
    pin_add(NEG_INF, POS_INF, QNAN);
    assert_eq!(sf_sub(POS_INF, POS_INF), QNAN);
    assert_eq!(sf_sub(NEG_INF, NEG_INF), QNAN);
    pin_mul(POS_ZERO, POS_INF, QNAN);
    pin_mul(NEG_INF, POS_ZERO, QNAN);
    pin_mul(NEG_ZERO, NEG_INF, QNAN);
}

/// Every directed edge crossed with every other, on all three ops.
#[test]
fn directed_edges_cross_product() {
    let edges = [
        POS_ZERO,
        NEG_ZERO,
        1,
        1 | SIGN_MASK,
        2,
        3,
        MAX_SUBNORMAL,
        MAX_SUBNORMAL | SIGN_MASK,
        MIN_NORMAL,
        MIN_NORMAL | SIGN_MASK,
        MIN_NORMAL + 1,
        bits(0.5),
        bits(1.0),
        bits(-1.0),
        bits(1.0 + f64::EPSILON),
        bits(1.0 - f64::EPSILON / 2.0),
        bits(f64::EPSILON / 2.0),
        bits(3.0),
        bits(9_007_199_254_740_992.0),
        bits(1.0 / 3.0),
        bits(-2.0 / 3.0),
        bits(f64::MAX),
        bits(f64::MIN),
        bits(2f64.powi(1023)),
        bits(2f64.powi(-1022)),
        bits(2f64.powi(-537)),
        bits(2f64.powi(512)),
        POS_INF,
        NEG_INF,
        QNAN,
        NEG_QNAN,
        SNAN,
        NEG_SNAN,
        QNAN_PAYLOAD,
    ];
    for &a in &edges {
        for &b in &edges {
            check(a, b);
        }
    }
}

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

/// One operand of a class chosen by `class`; `x` is fresh randomness.
fn operand(class: u64, x: u64, rng: &mut XorShift) -> u64 {
    let sign = x & SIGN_MASK;
    let frac = rng.next() & FRAC_MASK;
    match class {
        // Uniform over the full pattern space.
        0 => x,
        // Subnormal or barely normal: exponent field 0..=2.
        1 => sign | ((x >> 40) % 3) << FRAC_BITS | frac,
        // Inf/NaN and the overflow edge: exponent field 2043..=2047, with
        // a zero fraction a quarter of the time (±Inf at 2047).
        2 => {
            let f = if x & 3 == 0 { 0 } else { frac };
            sign | (2043 + (x >> 40) % 5) << FRAC_BITS | f
        }
        // Short mantissas in a narrow exponent band (exact sums and
        // products, signed-zero results on cancellation).
        _ => sign | (1016 + (x >> 40) % 16) << FRAC_BITS | (frac & !((1 << 40) - 1)),
    }
}

/// The second operand of a pair: a few pair shapes aim at `a` itself.
fn partner(a: u64, r: u64, rng: &mut XorShift) -> u64 {
    let exp = (a >> FRAC_BITS) & 0x7FF;
    match (r >> 2) & 7 {
        // Near-cancellation: -a moved by a few ulps (which may cross a
        // binade or the subnormal boundary).
        0 => {
            let ulps = ((r >> 5) & 15) as i64 - 8;
            (a.wrapping_add(ulps as u64) & !SIGN_MASK) | (!a & SIGN_MASK)
        }
        // Addition ties: a half (or quarter) ulp of `a`, as a power of
        // two or with a few more bits, of either sign.
        1 if exp > 54 => {
            let e = exp - 53 - ((r >> 5) & 1);
            let f = if (r >> 6) & 1 == 0 {
                0
            } else {
                rng.next() & FRAC_MASK & !((1 << 44) - 1)
            };
            (r << 57 & SIGN_MASK) | e << FRAC_BITS | f
        }
        // Multiplication ties: ±1.5 × 2^k times an odd significand needs
        // one bit more than binary64 holds about half the time; the
        // exponent spans the whole range, so ties also land subnormal.
        2 => (r << 57 & SIGN_MASK) | (1 + (rng.next() % 2046)) << FRAC_BITS | 1 << (FRAC_BITS - 1),
        _ => operand((r >> 5) & 3, rng.next(), rng),
    }
}

fn stream(seed: u64, pairs: u64) {
    let mut rng = XorShift::new(seed);
    for _ in 0..pairs {
        let r = rng.next();
        let a = operand(r & 3, rng.next(), &mut rng);
        let b = partner(a, r, &mut rng);
        check(a, b);
    }
}

// The stream is split in two so the halves run on separate test threads.

#[test]
fn seeded_stream_first_half_matches_bit_for_bit() {
    stream(0x5EED_0001, STREAM_PAIRS / 2);
}

#[test]
fn seeded_stream_second_half_matches_bit_for_bit() {
    stream(0x5EED_0002, STREAM_PAIRS - STREAM_PAIRS / 2);
}

/// One matrix entry of `regime`; rarely (about four per `n`×`n` pair) a
/// signed zero, infinity, payload or signalling NaN, or subnormal edge.
fn entry(regime: u64, n: usize, rng: &mut XorShift) -> u64 {
    const SPECIALS: [u64; 9] = [
        POS_ZERO,
        NEG_ZERO,
        POS_INF,
        NEG_INF,
        QNAN_PAYLOAD,
        NEG_QNAN,
        NEG_SNAN,
        MAX_SUBNORMAL,
        1 | SIGN_MASK,
    ];
    let r = rng.next();
    if r.is_multiple_of((n * n / 2).max(2) as u64) {
        return SPECIALS[((r >> 20) % SPECIALS.len() as u64) as usize];
    }
    let x = rng.next();
    match regime {
        // Reals within 2^±20: every product rounds.
        0 => x & (SIGN_MASK | FRAC_MASK) | (1003 + (x >> 53) % 41) << FRAC_BITS,
        // Uniform bits, subnormals, the Inf/NaN range, short mantissas.
        class => operand(class - 1, x, rng),
    }
}

/// `c += a·b` one `sf_*` op at a time, q ascending per cell.
fn per_op(
    n: usize,
    a: &[u64],
    b: &[u64],
    c: &mut [u64],
    add: fn(u64, u64) -> u64,
    mul: fn(u64, u64) -> u64,
) {
    for i in 0..n {
        for j in 0..n {
            for q in 0..n {
                c[i * n + j] = add(c[i * n + j], mul(a[i * n + q], b[q * n + j]));
            }
        }
    }
}

fn to_f64(v: &[u64]) -> Vec<f64> {
    v.iter().map(|&x| f64::from_bits(x)).collect()
}

/// The kernel against the per-op loop (fast path and oracle) on one
/// operand triple, exact bits.
fn check_kernel(n: usize, a: &[u64], b: &[u64], c: &[u64], ctx: &str) {
    let mut got = to_f64(c);
    matmul_acc(n, &to_f64(a), &to_f64(b), &mut got);
    let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
    for (path, add, mul) in [
        (
            "fast",
            sf_add as fn(u64, u64) -> u64,
            sf_mul as fn(u64, u64) -> u64,
        ),
        ("oracle", sf_add_int, sf_mul_int),
    ] {
        let mut want = c.to_vec();
        per_op(n, a, b, &mut want, add, mul);
        for (cell, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g,
                w,
                "{ctx}: cell ({}, {}) kernel {g:#018x}, {path} per-op {w:#018x}",
                cell / n,
                cell % n
            );
        }
    }
}

#[test]
fn matmul_kernel_matches_the_per_op_loop() {
    let mut rng = XorShift::new(0x5EED_0003);
    let mut nan_cells = 0;
    for n in [1, 2, 3, 7, 8, 64] {
        let cases = (512 / (n * n)).max(2);
        for regime in 0..5 {
            for case in 0..cases {
                let mut draw =
                    || -> Vec<u64> { (0..n * n).map(|_| entry(regime, n, &mut rng)).collect() };
                let (a, mut b, c) = (draw(), draw(), draw());
                // Odd rows of B nearly cancel the even rows above them,
                // so consecutive products of a cell nearly cancel too.
                if case % 2 == 1 {
                    for q in (1..n).step_by(2) {
                        for j in 0..n {
                            let r = rng.next() & !(7 << 2);
                            b[q * n + j] = partner(b[(q - 1) * n + j], r, &mut rng);
                        }
                    }
                }
                let ctx = format!("n={n} regime={regime} case={case}");
                check_kernel(n, &a, &b, &c, &ctx);
                check_kernel(n, &a, &b, &vec![POS_ZERO; n * n], &format!("{ctx} c=0"));
                let mut out = to_f64(&c);
                matmul_acc(n, &to_f64(&a), &to_f64(&b), &mut out);
                nan_cells += out.iter().filter(|x| x.is_nan()).count();
            }
        }
    }
    assert!(nan_cells > 0, "no NaN reached a kernel output");
}
