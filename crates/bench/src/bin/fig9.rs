//! Regenerates **Figure 9**: area and clock speed of the matrix-multiply
//! design on a single FPGA, as a function of the number of PEs.
//!
//! The paper measures linear area growth (2158 slices per PE) and clock
//! degradation from 155 MHz at k = 1 to 125 MHz at k = 10 (the most PEs
//! that fit on the XC2VP50).

use fblas_bench::print_table;
use fblas_bench::record_sink::RecordSink;
use fblas_bench::trace::{reference_kernels, TraceOption};
use fblas_metrics::RunRecord;
use fblas_system::{AreaModel, ClockModel, XC2VP50};

fn main() {
    let trace = TraceOption::from_args();
    let mut sink = RecordSink::from_args("fig9");
    let area = AreaModel::default();
    let clock = ClockModel::default();
    let max_k = area.max_pes(&XC2VP50);

    // One modeled record per design point; the endpoints carry the
    // paper's parity figures.
    for k in 1..=max_k {
        let mut r = RunRecord::modeled(
            "mm/model",
            &[("k", i64::from(k))],
            clock.mm_mhz(k),
            u64::from(area.mm_design(k)),
        );
        if k == 1 {
            r = r.with_paper("fig9.clock.k1", clock.mm_mhz(1));
        }
        if k == max_k {
            r = r
                .with_paper("fig9.clock.k10", clock.mm_mhz(max_k))
                .with_paper("fig9.max-pes.xc2vp50", f64::from(max_k));
        }
        sink.push(r);
    }

    let rows: Vec<Vec<String>> = (1..=max_k)
        .map(|k| {
            let a = area.mm_design(k);
            vec![
                k.to_string(),
                a.to_string(),
                format!("{:.0}%", XC2VP50.occupancy(a) * 100.0),
                format!("{:.1}", clock.mm_mhz(k)),
                format!("{:.2}", 2.0 * f64::from(k) * clock.mm_mhz(k) / 1000.0),
            ]
        })
        .collect();

    print_table(
        "Figure 9: Area & clock speed of the matrix-multiply design (XC2VP50)",
        &[
            "k (PEs)",
            "Area (slices)",
            "% of device",
            "Clock (MHz)",
            "GFLOPS at k",
        ],
        &rows,
    );

    println!(
        "\nEndpoints: k=1 at {:.0} MHz, k={max_k} at {:.0} MHz (paper: 155 → 125 MHz).",
        clock.mm_mhz(1),
        clock.mm_mhz(max_k)
    );
    println!(
        "Maximum sustained at k = {max_k}: {:.2} GFLOPS (paper: 2.5 GFLOPS).",
        2.0 * f64::from(max_k) * clock.mm_mhz(max_k) / 1000.0
    );
    assert_eq!(max_k, 10, "paper: at most 10 PEs on XC2VP50");

    // This binary is analytic; trace the representative kernels instead.
    reference_kernels(&trace, None);
    sink.write();
}
