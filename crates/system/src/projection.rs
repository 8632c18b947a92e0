//! Performance projections (paper §6.4, Figures 11 and 12).
//!
//! The paper projects chassis-level matrix-multiply performance as the PE
//! shrinks (1600–2000 slices) and speeds up (160–200 MHz), and onto the
//! larger XC2VP100 device. The projection formula is
//!
//! ```text
//! GFLOPS = 2 × (PEs per device) × PE clock × (FPGAs per chassis) × 0.75
//! ```
//!
//! where the 25 % deduction accounts for clock degradation caused by
//! routing. Each projection point also carries the bandwidth the design
//! would then require, which §6.4 checks against what XD1 provides:
//!
//! * DRAM / inter-FPGA:  `3·k·l/b` words per cycle (three m×m blocks per
//!   `m²b/(k·l)` cycles);
//! * SRAM: 2 words per cycle for C′ traffic plus `2·k·l/b` for C-block
//!   forwarding.

use crate::device::FpgaDevice;
use crate::rate::{rate_or_zero, units_per};
use fblas_mem::WORD_BYTES;

/// Fraction of projected performance retained after routing degradation
/// (§6.4: "25 % of the performance is deducted").
pub const ROUTING_DERATE: f64 = 0.75;

/// One point of the Figure 11/12 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectionPoint {
    /// Assumed PE area in slices.
    pub pe_slices: u32,
    /// Assumed PE clock in MHz.
    pub pe_clock_mhz: f64,
    /// PEs that fit per device at this area.
    pub pes_per_device: u32,
    /// Projected sustained chassis performance in GFLOPS.
    pub chassis_gflops: f64,
    /// SRAM bandwidth the design then requires, bytes/s per FPGA.
    pub required_sram_bytes_per_s: f64,
    /// DRAM (= inter-FPGA) bandwidth required, bytes/s.
    pub required_dram_bytes_per_s: f64,
}

/// The Figure 11/12 projection sweep for one device.
///
/// # Examples
///
/// ```
/// use fblas_system::{ChassisProjection, XC2VP50};
///
/// let p = ChassisProjection::xd1(XC2VP50).point(1600, 200.0);
/// assert_eq!(p.pes_per_device, 14);
/// assert!(p.chassis_gflops > 25.0); // Figure 11's best corner
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChassisProjection {
    /// Device the PEs are placed on.
    pub device: FpgaDevice,
    /// FPGAs per chassis (6 on XD1).
    pub fpgas_per_chassis: u32,
    /// SRAM block size b of the hierarchical design (§6.4: 2048).
    pub b: u64,
}

impl ChassisProjection {
    /// Projection for one chassis of XD1 with the given device.
    pub fn xd1(device: FpgaDevice) -> Self {
        Self {
            device,
            fpgas_per_chassis: 6,
            b: 2048,
        }
    }

    /// Evaluate one (area, clock) point. Uses k = m = PEs-per-device, as in
    /// §6.4's bandwidth accounting.
    pub fn point(&self, pe_slices: u32, pe_clock_mhz: f64) -> ProjectionPoint {
        let pes = units_per(self.device.slices, pe_slices);
        let l = f64::from(self.fpgas_per_chassis);
        let gflops = 2.0 * f64::from(pes) * pe_clock_mhz * 1e6 * l * ROUTING_DERATE / 1e9;
        let hz = pe_clock_mhz * 1e6;
        let k = f64::from(pes);
        let words = WORD_BYTES as f64;
        // C′ storage: one read + one write per cycle; C forwarding: two m×m
        // blocks per m²b/(k·l) cycles.
        let sram = (2.0 + rate_or_zero(2.0 * k * l, self.b as f64)) * words * hz;
        // A, B in and C out: three m×m blocks per m²b/(k·l) cycles.
        let dram = rate_or_zero(3.0 * k * l, self.b as f64) * words * hz;
        ProjectionPoint {
            pe_slices,
            pe_clock_mhz,
            pes_per_device: pes,
            chassis_gflops: gflops,
            required_sram_bytes_per_s: sram,
            required_dram_bytes_per_s: dram,
        }
    }

    /// The full Figure 11/12 grid: areas 1600..=2000 step 100 crossed with
    /// clocks 160..=200 MHz step 10.
    pub fn sweep(&self) -> Vec<ProjectionPoint> {
        let mut points = Vec::with_capacity(25);
        for pe_slices in (1600..=2000).step_by(100) {
            for clock in (160..=200).step_by(10) {
                points.push(self.point(pe_slices, f64::from(clock)));
            }
        }
        points
    }
}

/// §6.4.1/§6.4.2: sustained multi-FPGA performance by linear scaling of
/// the measured single-FPGA number (the linear array adds only k·l cycles
/// of fill latency, negligible for large n).
pub fn scaled_sustained_gflops(single_fpga_gflops: f64, total_fpgas: usize) -> f64 {
    single_fpga_gflops * total_fpgas as f64
}

/// Extra pipeline-fill latency in cycles when the linear array spans
/// `total_fpgas` FPGAs of `k` PEs each (§6.4: k × l cycles).
pub fn multi_fpga_fill_cycles(k: u32, total_fpgas: usize) -> u64 {
    u64::from(k) * total_fpgas as u64
}

/// DRAM / inter-FPGA bandwidth (bytes/s) required by the hierarchical
/// design: three m×m blocks per m²b/(k·l) cycles.
pub fn hierarchical_dram_bytes_per_s(k: u32, l: usize, b: u64, clock_mhz: f64) -> f64 {
    rate_or_zero(3.0 * f64::from(k) * l as f64, b as f64) * WORD_BYTES as f64 * clock_mhz * 1e6
}

/// SRAM bandwidth (bytes/s) required per FPGA by the hierarchical design:
/// C′ read+write every cycle plus C-block forwarding.
pub fn hierarchical_sram_bytes_per_s(k: u32, l: usize, b: u64, clock_mhz: f64) -> f64 {
    (2.0 + rate_or_zero(2.0 * f64::from(k) * l as f64, b as f64))
        * WORD_BYTES as f64
        * clock_mhz
        * 1e6
}

/// DRAM bandwidth (bytes/s) required by the *naive* multi-FPGA design —
/// the §5.1 linear array simply stretched across l FPGAs with no SRAM
/// blocking ("such an implementation does not utilize the SRAM attached
/// to the FPGAs", §5.2). The array then has k·l PEs sharing one m-sized
/// BRAM block, so the external requirement is 3·(k·l)/m words per cycle —
/// growing linearly with l, which is what makes the hierarchical design
/// necessary.
pub fn naive_multi_fpga_dram_bytes_per_s(k: u32, l: usize, m: u64, clock_mhz: f64) -> f64 {
    rate_or_zero(3.0 * f64::from(k) * l as f64, m as f64) * WORD_BYTES as f64 * clock_mhz * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{XC2VP100, XC2VP50};

    #[test]
    fn chassis_prediction_12_4_gflops() {
        // §6.4.1: 2.06 GFLOPS × 6 FPGAs ≈ 12.4 GFLOPS.
        let g = scaled_sustained_gflops(2.06, 6);
        assert!((g - 12.36).abs() < 0.01);
    }

    #[test]
    fn installation_prediction_148_3_gflops() {
        // §6.4.2: 2.06 × 6 × 12 ≈ 148.3 GFLOPS.
        let g = scaled_sustained_gflops(2.06, 72);
        assert!((g - 148.3).abs() < 0.05, "got {g}");
    }

    #[test]
    fn fill_latency_matches_paper() {
        assert_eq!(multi_fpga_fill_cycles(8, 6), 48); // §6.4.1
        assert_eq!(multi_fpga_fill_cycles(8, 72), 576); // §6.4.2
    }

    #[test]
    fn chassis_dram_bandwidth_73_mb_s() {
        // §6.4.1: k=m=8, l=6, b=2048 at 130 MHz ⇒ 73.1 MB/s.
        let bw = hierarchical_dram_bytes_per_s(8, 6, 2048, 130.0);
        assert!((bw / 1e6 - 73.1).abs() < 0.2, "got {bw}");
    }

    #[test]
    fn installation_dram_bandwidth_877_mb_s() {
        // §6.4.2: l = 72 ⇒ 877.5 MB/s.
        let bw = hierarchical_dram_bytes_per_s(8, 72, 2048, 130.0);
        assert!((bw / 1e6 - 877.5).abs() < 1.0, "got {bw}");
    }

    #[test]
    fn installation_sram_bandwidth_about_3_gb_s() {
        // §6.4.2 quotes 3.0 GB/s; the formula gives 2.7–3.2 GB/s depending
        // on the clock used — shape (additional ~0.6 GB/s of C traffic on
        // top of the 2.1 GB/s C′ stream) is what matters.
        let bw = hierarchical_sram_bytes_per_s(8, 72, 2048, 155.0);
        assert!((bw / 1e9 - 3.0).abs() < 0.3, "got {bw}");
    }

    #[test]
    fn naive_multi_fpga_motivates_hierarchy() {
        // §5.2's motivation quantified: at k = m = 8, the naive array's
        // DRAM demand grows with l while the hierarchical design's stays
        // tiny (divided by b instead of m).
        let naive1 = naive_multi_fpga_dram_bytes_per_s(8, 1, 8, 130.0);
        let naive72 = naive_multi_fpga_dram_bytes_per_s(8, 72, 8, 130.0);
        let hier72 = hierarchical_dram_bytes_per_s(8, 72, 2048, 130.0);
        assert!((naive72 / naive1 - 72.0).abs() < 1e-9);
        // 3·8·72/8 = 216 words/cycle ≈ 225 GB/s: wildly beyond XD1's
        // 3.2 GB/s DRAM path, while the hierarchical design needs <1 GB/s.
        assert!(naive72 > 100e9);
        assert!(hier72 < 1e9);
        assert!((naive72 / hier72 - 2048.0 / 8.0).abs() < 1e-6);
    }

    #[test]
    fn fig11_best_point_over_25_gflops() {
        // Smallest (1600-slice) and fastest (200 MHz) PE on XC2VP50:
        // paper says "more than 27 GFLOPS"; the flooring of PEs-per-device
        // gives 25.2 — same ballpark, same trend.
        let p = ChassisProjection::xd1(XC2VP50).point(1600, 200.0);
        assert_eq!(p.pes_per_device, 14);
        assert!(p.chassis_gflops > 25.0, "got {}", p.chassis_gflops);
    }

    #[test]
    fn fig12_doubles_fig11() {
        // XC2VP100 has about twice the slices, so roughly twice the PEs
        // and twice the projected performance (~50 GFLOPS).
        let p50 = ChassisProjection::xd1(XC2VP50).point(1600, 200.0);
        let p100 = ChassisProjection::xd1(XC2VP100).point(1600, 200.0);
        let ratio = p100.chassis_gflops / p50.chassis_gflops;
        assert!((ratio - 1.93).abs() < 0.1, "ratio {ratio}");
        assert!(p100.chassis_gflops > 45.0, "got {}", p100.chassis_gflops);
    }

    #[test]
    fn projection_monotone_in_clock_and_area() {
        let proj = ChassisProjection::xd1(XC2VP50);
        // Faster clock, same area: strictly better.
        assert!(proj.point(1800, 200.0).chassis_gflops > proj.point(1800, 160.0).chassis_gflops);
        // Smaller PE, same clock: at least as good (more PEs fit).
        assert!(proj.point(1600, 180.0).chassis_gflops >= proj.point(2000, 180.0).chassis_gflops);
    }

    #[test]
    fn sweep_covers_5x5_grid() {
        let pts = ChassisProjection::xd1(XC2VP50).sweep();
        assert_eq!(pts.len(), 25);
        // All points on XC2VP50 lie between ~14 and ~27 GFLOPS (Figure 11's
        // y-axis span).
        for p in &pts {
            assert!(p.chassis_gflops > 13.0 && p.chassis_gflops < 28.0);
        }
    }

    #[test]
    fn degenerate_operating_points_yield_zeros_not_nan() {
        // A zero-slice PE fits no PEs: everything collapses to honest
        // zeros instead of a divide-by-zero panic or inf.
        let p = ChassisProjection::xd1(XC2VP50).point(0, 200.0);
        assert_eq!(p.pes_per_device, 0);
        assert_eq!(p.chassis_gflops, 0.0);
        assert!(p.required_dram_bytes_per_s == 0.0);
        assert!(p.required_sram_bytes_per_s.is_finite());

        // Zero SRAM blocking: the per-block terms vanish finitely.
        let proj = ChassisProjection {
            device: XC2VP50,
            fpgas_per_chassis: 6,
            b: 0,
        };
        let p = proj.point(1600, 200.0);
        assert_eq!(p.required_dram_bytes_per_s, 0.0);
        assert!(p.required_sram_bytes_per_s.is_finite());

        // Zero FPGAs / zero blocking in the free functions.
        assert_eq!(hierarchical_dram_bytes_per_s(8, 0, 2048, 130.0), 0.0);
        assert_eq!(hierarchical_dram_bytes_per_s(8, 6, 0, 130.0), 0.0);
        assert!(hierarchical_sram_bytes_per_s(8, 6, 0, 130.0).is_finite());
        assert_eq!(naive_multi_fpga_dram_bytes_per_s(8, 6, 0, 130.0), 0.0);
        assert_eq!(scaled_sustained_gflops(2.06, 0), 0.0);
        // None of the degenerate values is NaN — NaN would sneak
        // through every `<=` gate downstream.
        for v in [
            hierarchical_dram_bytes_per_s(0, 0, 0, 0.0),
            hierarchical_sram_bytes_per_s(0, 0, 0, 0.0),
            naive_multi_fpga_dram_bytes_per_s(0, 0, 0, 0.0),
        ] {
            assert!(!v.is_nan());
        }
    }

    #[test]
    fn projected_bandwidths_met_by_xd1() {
        // §6.4.1: with the smallest/fastest PE the requirements stay within
        // XD1's provisioning (12.8 GB/s SRAM, 3.2 GB/s DRAM).
        let p = ChassisProjection::xd1(XC2VP50).point(1600, 200.0);
        assert!(p.required_sram_bytes_per_s < 12.8e9);
        assert!(p.required_dram_bytes_per_s < 3.2e9);
    }
}
