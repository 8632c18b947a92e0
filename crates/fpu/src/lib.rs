//! Floating-point substrate: bit-accurate IEEE-754 binary64 arithmetic and
//! pipelined FPGA floating-point unit models.
//!
//! The SC'05 paper uses hand-written double-precision floating-point cores
//! (Govindu et al., ERSA'05) with the following post-place-&-route
//! characteristics (paper Table 2):
//!
//! | unit       | pipeline stages | area (slices) | clock (MHz) |
//! |------------|-----------------|---------------|-------------|
//! | adder      | 14              | 892           | 170         |
//! | multiplier | 11              | 835           | 170         |
//!
//! This crate reproduces both aspects of those cores:
//!
//! * **Numerics** ([`softfloat`]): IEEE-754 binary64 addition, subtraction
//!   and multiplication with round-to-nearest-even, gradual underflow
//!   (subnormals) and full NaN/infinity semantics. A from-scratch
//!   integer implementation (`sf_add_int`/`sf_mul_int`) is the reference,
//!   verified bit-exact against the host FPU (both implement the same
//!   standard) — precisely the guarantee the paper's VHDL cores give. The
//!   datapath calls [`sf_add`]/[`sf_mul`], which use the host FPU where
//!   that is exact and are tested bit-identical to the reference, NaN bits
//!   included.
//! * **Timing** ([`pipelined`]): wrapper units that issue at most one
//!   operation per cycle and deliver the result exactly α cycles later,
//!   reproducing the read-after-write hazard window that motivates the
//!   paper's reduction circuit.
//! * **Cost** ([`cost`]): the Table 2 area/latency/clock sheet used by the
//!   area and clock models in `fblas-system`.

#![forbid(unsafe_code)]

pub mod cost;
pub mod pipelined;
pub mod softfloat;
pub mod softfloat_ext;

pub use cost::{UnitCost, FP_ADDER, FP_MULTIPLIER};
pub use pipelined::{
    PipelinedAdder, PipelinedDivider, PipelinedMultiplier, PipelinedSqrt, ADDER_STAGES,
    DIVIDER_STAGES, MULTIPLIER_STAGES, SQRT_STAGES,
};
pub use softfloat::{sf_add, sf_mul, sf_sub};
pub use softfloat_ext::{sf_div, sf_sqrt};
