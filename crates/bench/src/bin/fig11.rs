//! Regenerates **Figure 11**: projected sustained performance of the
//! matrix-multiply design using one chassis of XD1 (XC2VP50), as a
//! function of PE area (1600–2000 slices) and PE clock (160–200 MHz),
//! with the 25 % routing deduction.

use fblas_bench::chassis_sweep;
use fblas_system::XC2VP50;

fn main() {
    let best = chassis_sweep(11, XC2VP50, 50);
    println!(
        "\nBest point (1600 slices @ 200 MHz): {:.1} GFLOPS (paper: \"more than 27\" with \
         fractional PEs; flooring to {} whole PEs gives the value above).",
        best.chassis_gflops, best.pes_per_device
    );
    println!(
        "Bandwidth at the best point: SRAM {:.1} GB/s (paper 2.5), DRAM {:.0} MB/s \
         (paper 147.7) — both within XD1's 12.8 GB/s and 3.2 GB/s.",
        best.required_sram_bytes_per_s / 1e9,
        best.required_dram_bytes_per_s / 1e6
    );
}
