//! Platform models for reconfigurable high-end computing systems.
//!
//! This crate captures everything about the *hardware platform* that the
//! architecture simulations in `fblas-core` need but cannot derive from
//! functional simulation:
//!
//! * [`device`] — FPGA device sheets (Xilinx Virtex-II Pro XC2VP50 and
//!   XC2VP100: slices, on-chip memory, I/O pins).
//! * [`area`] — the slice-count cost model calibrated to the paper's
//!   post-place-&-route results (Tables 2, 3, 4 and the PE size of §5.3).
//! * [`clock`] — the routing-degradation clock model calibrated to
//!   Figure 9 (155 MHz at k=1 falling to 125 MHz at k=10) and the measured
//!   design clocks (170 / 164 / 130 MHz).
//! * [`xd1`] — the Cray XD1 topology: compute node (Opterons + one FPGA +
//!   4 SRAM banks + DRAM over `RapidArray`), chassis of six blades with a
//!   RocketI/O FPGA ring, and the typical 12-chassis installation.
//! * [`src_station`] — the SRC `MAPstation` (two FPGAs + controller, six
//!   SRAM banks each), used for the Table 1 comparison.
//! * [`peak`] — peak-performance calculators: the I/O-bound bounds of
//!   §4.4 (dot peak = bw, matrix-vector peak = 2·bw) and the
//!   compute-bound device peak of §6.3 (4.42 GFLOPS for XC2VP50).
//! * [`projection`] — the §6.4 projections behind Figures 11 and 12 and
//!   the single/multi-chassis predictions (12.4 and 148.3 GFLOPS), with
//!   their bandwidth-requirement checks.
//! * [`rate`] — clamped-denominator rate helpers shared by the
//!   projection and interconnect formulas: a degenerate operating point
//!   (zero FPGAs, zero bandwidth, a zero-cycle interval) yields an
//!   honest zero rate, never a NaN that would sail through gates.

#![forbid(unsafe_code)]

pub mod area;
pub mod clock;
pub mod device;
pub mod peak;
pub mod projection;
pub mod rate;
pub mod src_station;
pub mod xd1;

pub use area::AreaModel;
pub use clock::ClockModel;
pub use device::{FpgaDevice, XC2VP100, XC2VP50};
pub use peak::{device_peak_flops, io_bound_peak_dot, io_bound_peak_mvm};
pub use projection::{ChassisProjection, ProjectionPoint};
pub use rate::{rate_or_zero, units_per};
pub use xd1::{Xd1Chassis, Xd1Node, Xd1System};
