//! The paper's contributions: FPGA BLAS architectures for reconfigurable
//! systems.
//!
//! This crate implements, as cycle-stepped architecture simulations, every
//! design proposed in Zhuo & Prasanna, *High Performance Linear Algebra
//! Operations on Reconfigurable Systems* (SC'05):
//!
//! * [`reduce`] — the single-adder reduction circuit of §4.3 (one
//!   floating-point adder, two buffers of size α², reduces multiple sets
//!   of arbitrary size without ever stalling the input), together with the
//!   baseline circuits it is compared against: a naive stalling
//!   accumulator, Kogge's lg(s)-adder chain, the Ni–Hwang single-adder
//!   vector method, and the authors' earlier two-adder FCCM'05 design.
//! * [`dot`] — the tree-based Level-1 dot-product architecture of §4.1
//!   (k multipliers, a (k−1)-adder tree, the reduction circuit at the
//!   root).
//! * [`mvm`] — the two Level-2 matrix-vector architectures of §4.2
//!   (row-major tree form and column-major interleaved-accumulator form)
//!   plus their blocked variants for matrices exceeding on-chip storage.
//! * [`mm`] — the Level-3 linear-array matrix multiplier of §5.1 (k PEs,
//!   m×m blocking, C′/C local stores, three-stage overlapped schedule,
//!   effective latency n³/k) and the hierarchical multi-FPGA design of
//!   §5.2 (l FPGAs, SRAM-level b×b blocking, I/O complexity Θ(n³/b)).
//! * [`tree_reduce`] — the one stepped datapath dot, row-major `MvM` and
//!   `SpMV` share (k-lane multiplier bank, adder tree, gated backlog,
//!   reduction circuit), each family supplying a group source, plus the
//!   fused replay of every gapless reduction stream.
//! * `interleaved` (crate-private) — the one stepped datapath
//!   column-major `MvM` and the linear-array MM block share (k
//!   multiply-accumulate lanes, an α-deep adder, a hazard-locked
//!   accumulator store), each family supplying a MAC source, plus their
//!   closed-form replay.
//! * [`report`] — the [`report::SimReport`] every design
//!   produces: cycles, flops, words moved, utilizations — the raw material
//!   of the paper's Tables 3 and 4.
//!
//! Arithmetic note: the simulations perform every floating-point operation
//! through pipelined units whose datapath is IEEE-754 binary64
//! round-to-nearest-even — verified bit-exact against the host FPU in
//! `fblas-fpu` — so functional results are exactly what the paper's VHDL
//! cores would produce for the same operation order.

#![forbid(unsafe_code)]

pub mod deploy;
pub mod dot;
mod interleaved;
pub mod level1;
pub mod mm;
pub mod mvm;
pub mod reduce;
pub mod report;
pub mod topology;
pub mod tree_reduce;

pub use report::SimReport;

/// Deterministic xorshift64* stream of finite doubles in (-8, 8): the
/// rounding-sensitive operands of the backend-parity unit tests.
#[cfg(test)]
pub(crate) fn random_vec(seed: u64, n: usize) -> Vec<f64> {
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
