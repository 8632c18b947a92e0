//! Memory hierarchy model for reconfigurable high-end computing systems.
//!
//! Section 3.2.2 of the paper abstracts the memory available to one FPGA in
//! a reconfigurable system into three levels (paper Table 1):
//!
//! | level | what              | Cray XD1           | SRC `MAPstation`    |
//! |-------|-------------------|--------------------|-------------------|
//! | A     | on-chip BRAM      | 522 KB, 209 GB/s   | 648 KB, 260 GB/s  |
//! | B     | on-board SRAM     | 16 MB, 12.8 GB/s   | 24 MB, 4.8 GB/s   |
//! | C     | processor DRAM    | 8 GB, 3.2 GB/s     | 8 GB, 1.4 GB/s    |
//!
//! The Level-1/2 BLAS designs are I/O bound, so their simulated performance
//! is dictated by how many words per cycle these models deliver. The crate
//! provides:
//!
//! * [`hierarchy`] — the Table 1 level specifications for both platforms.
//! * [`channel`] — bandwidth-limited streaming read/write channels (a
//!   [`fblas_sim::Throttle`] in front of a word buffer).
//! * [`store`] — bounded on-chip local stores (register files, BRAM blocks,
//!   the C′/C storages of the matrix multiplier) with capacity enforcement
//!   and access counting.
//! * [`sram`] — the XD1's four QDR-II SRAM banks, one word per bank per
//!   cycle.
//! * [`staging`] — the DRAM→SRAM DMA staging model that accounts for the
//!   data-movement time the paper reports (8.0 ms total vs 1.6 ms compute
//!   for the Level-2 design). `fblas-bench`'s `paper_matrix::mvm_xd1_l2`
//!   cell is the one producer of that split.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::float_arithmetic))]

pub mod channel;
pub mod hierarchy;
pub mod sram;
pub mod staging;
pub mod store;

pub use channel::{ReadChannel, WriteChannel};
pub use hierarchy::{Level, LevelSpec, MemoryHierarchy};
pub use sram::SramBanks;
pub use staging::{BatchStaging, DmaModel, XD1_DRAM_BURST_BYTES};
pub use store::LocalStore;

/// Bytes in one double-precision word.
pub const WORD_BYTES: u64 = 8;

/// Bits per SRAM word on XD1 including the 8-bit parity code the paper
/// counts when quoting 5.9 GB/s for four banks at 164 MHz.
pub const SRAM_WORD_BITS: u64 = 72;
