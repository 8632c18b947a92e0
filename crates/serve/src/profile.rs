//! Shape classes and calibrated service profiles.
//!
//! The front end does not re-simulate every request cycle by cycle —
//! that would make a million-request campaign intractable. Instead each
//! campaign cell *calibrates* its (kernel family, problem size) class
//! once against the real instrumented design on the worker's
//! [`Harness`], converts the measured cycle count into nanoseconds at
//! the design's own post-place-&-route clock, and replays that service
//! time through the discrete-event engine. Because the execution
//! backends are cycle-identical by contract (the PR-7 parity suites),
//! the calibrated profile — and therefore the whole `SERVE_*.json`
//! store — is byte-identical under `cycle` and `native` execution.
//!
//! The staging split mirrors the paper's Table 4 story: the Level-2
//! design spends 8.0 ms end to end on a 1024x1024 `MvM` of which only
//! 1.6 ms is compute — the rest is DRAM->SRAM data movement. Serving
//! makes that movement *shareable*: the matrix (dot: the fixed operand
//! vector; axpy: the resident accumulator) is the per-batch operand
//! staged once, while each request contributes only its private
//! vectors.

use fblas_core::dot::{DotParams, DotProductDesign};
use fblas_core::level1::{AxpyDesign, Level1Params};
use fblas_core::mvm::{ColMajorMvm, DenseMatrix, MvmParams};
use fblas_mem::WORD_BYTES;
use fblas_sim::{ClockDomain, Harness};

use crate::rng::SplitMix64;

/// Kernel families the front end serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelFamily {
    /// Level-1 tree dot product (§4.1, 170 MHz).
    Dot,
    /// Level-2 column-major matrix-vector multiply (§4.2, 164 MHz).
    Mvm,
    /// Level-1 streaming axpy.
    Axpy,
}

impl KernelFamily {
    /// Stable name used in record JSON and cell identities.
    pub fn name(self) -> &'static str {
        match self {
            KernelFamily::Dot => "dot",
            KernelFamily::Mvm => "mvm",
            KernelFamily::Axpy => "axpy",
        }
    }
}

/// A batchable request class: kernel family plus problem size.
///
/// Two requests are batch-compatible exactly when their classes are
/// equal — the scheduler never mixes families or sizes in one batch,
/// so the staged shared operand is valid for every request it serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeClass {
    /// Kernel family.
    pub family: KernelFamily,
    /// Vector length (dot/axpy) or matrix order (mvm).
    pub n: usize,
}

impl ShapeClass {
    /// Identity string, e.g. `mvm1024`.
    pub fn key(&self) -> String {
        format!("{}{}", self.family.name(), self.n)
    }
}

/// Calibrated per-class costs, all in integer nanoseconds / bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceProfile {
    /// Compute time of one request at the design's clock.
    pub service_ns: u64,
    /// Bytes of the shared operand staged once per batch.
    pub shared_bytes: u64,
    /// Private bytes staged per request in the batch.
    pub per_request_bytes: u64,
}

/// Convert a cycle count to nanoseconds at `clock`, rounding up so a
/// partial nanosecond of work still occupies the timeline.
pub fn cycles_to_ns(cycles: u64, clock: &ClockDomain) -> u64 {
    // The workspace clocks are integral MHz, so hz is exact in u64 and
    // the conversion is pure integer arithmetic.
    let hz = clock.hz() as u64;
    assert!(hz > 0, "clock must tick");
    (u128::from(cycles) * 1_000_000_000u128).div_ceil(u128::from(hz)) as u64
}

/// Deterministic synthetic operand in `[0, 1)` (bit-exact everywhere:
/// one integer shift and one power-of-two division).
fn synth(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Run the class's design once on `harness` and distill its profile.
///
/// The harness keeps whatever backend it was constructed with, so a
/// campaign calibrated under native replay must agree with one
/// calibrated cycle by cycle — the serve determinism suite checks
/// exactly that.
pub fn calibrate(harness: &mut Harness, class: &ShapeClass) -> ServiceProfile {
    let n = class.n;
    let nb = n as u64 * WORD_BYTES;
    let mut rng = SplitMix64::new(0xCA11_B8A7 ^ n as u64);
    match class.family {
        KernelFamily::Dot => {
            let design = DotProductDesign::standalone(DotParams::table3(), 170.0);
            let u: Vec<f64> = (0..n).map(|_| synth(&mut rng)).collect();
            let v: Vec<f64> = (0..n).map(|_| synth(&mut rng)).collect();
            let out = design.run_in(harness, &u, &v);
            ServiceProfile {
                service_ns: cycles_to_ns(out.report.cycles, &out.clock),
                // The fixed operand u is the shared batch stage; each
                // request ships its own v and reads back one scalar.
                shared_bytes: nb,
                per_request_bytes: nb + WORD_BYTES,
            }
        }
        KernelFamily::Mvm => {
            let design = ColMajorMvm::standalone(MvmParams::table3(), 164.0);
            let a = DenseMatrix::from_fn(n, n, |_, _| synth(&mut rng));
            let x: Vec<f64> = (0..n).map(|_| synth(&mut rng)).collect();
            let out = design.run_in(harness, &a, &x);
            ServiceProfile {
                service_ns: cycles_to_ns(out.report.cycles, &out.clock),
                // The matrix dominates staging and is shared; requests
                // ship x in and y out.
                shared_bytes: n as u64 * nb,
                per_request_bytes: 2 * nb,
            }
        }
        KernelFamily::Axpy => {
            let design = AxpyDesign::new(Level1Params::with_k(4));
            let a = synth(&mut rng);
            let x: Vec<f64> = (0..n).map(|_| synth(&mut rng)).collect();
            let y: Vec<f64> = (0..n).map(|_| synth(&mut rng)).collect();
            let out = design.run_in(harness, a, &x, &y);
            ServiceProfile {
                service_ns: cycles_to_ns(out.report.cycles, &out.clock),
                // The accumulator block y stays resident; requests ship
                // x in and the updated y back.
                shared_bytes: nb,
                per_request_bytes: 2 * nb,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fblas_sim::ExecBackend;

    #[test]
    fn cycles_to_ns_rounds_up() {
        let c170 = ClockDomain::from_mhz(170.0);
        // One 170 MHz cycle is 5.88.. ns -> must round to 6, not 5.
        assert_eq!(cycles_to_ns(1, &c170), 6);
        assert_eq!(cycles_to_ns(0, &c170), 0);
        // 170 cycles is exactly 1000 ns.
        assert_eq!(cycles_to_ns(170, &c170), 1000);
    }

    #[test]
    fn class_keys_are_stable() {
        let c = ShapeClass {
            family: KernelFamily::Mvm,
            n: 1024,
        };
        assert_eq!(c.key(), "mvm1024");
        assert_eq!(KernelFamily::Dot.name(), "dot");
        assert_eq!(KernelFamily::Axpy.name(), "axpy");
    }

    #[test]
    fn calibration_is_deterministic_and_backend_invariant() {
        let class = ShapeClass {
            family: KernelFamily::Dot,
            n: 64,
        };
        let mut h1 = Harness::new();
        let mut h2 = Harness::new();
        let p1 = calibrate(&mut h1, &class);
        let p2 = calibrate(&mut h2, &class);
        assert_eq!(p1, p2);
        let mut nat = Harness::with_backend(ExecBackend::Native);
        assert_eq!(
            calibrate(&mut nat, &class),
            p1,
            "backend changed the profile"
        );
        assert!(p1.service_ns > 0);
        assert_eq!(p1.shared_bytes, 64 * 8);
    }

    #[test]
    fn mvm_staging_dwarfs_its_compute_like_table4() {
        // The serving premise: for the Level-2 design the shared-matrix
        // stage is the dominant cost (paper: 8.0 ms total vs 1.6 ms
        // compute at n = 1024). Verify the calibrated shape at n = 128.
        let class = ShapeClass {
            family: KernelFamily::Mvm,
            n: 128,
        };
        let p = calibrate(&mut Harness::new(), &class);
        let staging =
            fblas_mem::BatchStaging::xd1().batch_ns(p.shared_bytes, p.per_request_bytes, 1);
        assert!(
            staging > p.service_ns,
            "staging {staging} ns should exceed compute {} ns",
            p.service_ns
        );
    }
}
