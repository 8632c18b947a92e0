//! Regenerates **Figure 12**: the Figure 11 projection sweep with the
//! larger Xilinx Virtex-II Pro XC2VP100 in place of the XC2VP50 — about
//! twice the slices, hence about twice the projected performance
//! (≈50 GFLOPS per chassis at the best point).

use fblas_bench::chassis_sweep;
use fblas_system::{ChassisProjection, XC2VP100, XC2VP50};

fn main() {
    let best = chassis_sweep(12, XC2VP100, 100);
    let best50 = ChassisProjection::xd1(XC2VP50).point(1600, 200.0);
    println!(
        "\nBest point: {:.1} GFLOPS — {:.2}× the XC2VP50 chassis ({:.1} GFLOPS); \
         the paper predicts ≈2× and \"about 50 GFLOPS\".",
        best.chassis_gflops,
        best.chassis_gflops / best50.chassis_gflops,
        best50.chassis_gflops
    );
    println!(
        "Bandwidth at the best point: SRAM {:.1} GB/s (paper 2.7), DRAM {:.0} MB/s \
         (paper 284.8) — met by XD1.",
        best.required_sram_bytes_per_s / 1e9,
        best.required_dram_bytes_per_s / 1e6
    );
}
