//! Regenerates **Table 4**: performance of Level-2 and Level-3 BLAS on a
//! single FPGA in Cray XD1.
//!
//! Prints the paper matrix's `mvm/xd1-l2` and `mm/hierarchical` cells.
//! Level 2: k = 4, n = 1024, matrix staged DRAM → SRAM before compute
//! (the staging dominates: ≈6.4 of the ≈8.0 ms total).
//! Level 3: k = m = 8, b = 512, n = 512 on the hierarchical design.

use fblas_bench::paper_matrix;
use fblas_bench::record_sink::RecordSink;
use fblas_bench::trace::TraceOption;
use fblas_bench::{figure, print_table, synth_int, vs_figure};
use fblas_core::mm::{LinearArrayMm, MmParams};
use fblas_core::mvm::DenseMatrix;
use fblas_mem::{DmaModel, SramBanks, SRAM_WORD_BITS};
use fblas_system::{AreaModel, XC2VP50};

fn main() {
    let trace = TraceOption::from_args();
    let mut sink = RecordSink::from_args("table4");
    let mut th = trace.harness();
    let l2 = paper_matrix::mvm_xd1_l2(&mut th, None);
    let l3 = paper_matrix::mm_hierarchical();
    let (out, mout) = (&l2.out, &l3.out);

    // ------------------- Level 2: matrix-vector -------------------
    let n = out.y.len();
    let compute_s = out.report.latency_seconds(&out.clock);
    let dma = DmaModel::xd1_dram();
    let staging_s = paper_matrix::xd1_l2_staging_s(n);
    let sram_resident = out.report.flops as f64 / compute_s;

    // Achieved SRAM bandwidth: one 72-bit word per bank per cycle.
    let (a, _) = paper_matrix::xd1_l2_operands();
    let mut banks = SramBanks::striped(a.as_slice(), SramBanks::XD1_BANKS);
    let mut buf = Vec::new();
    while !banks.exhausted() {
        banks.read_cycle(&mut buf);
    }
    let sram_bw = banks.achieved_bandwidth(out.clock.mhz(), SRAM_WORD_BITS);

    // ------------------- Level 3: matrix multiply -------------------
    let l3_total_s = mout.report.latency_seconds(&mout.clock);
    let l3_peak = fblas_system::device_peak_flops(&XC2VP50, &AreaModel::default(), 170.0);
    let l3_dram_bw = mout.report.io_bytes() as f64 / l3_total_s;

    let (l2_area, l3_area) = (l2.record.modeled_slices, l3.record.modeled_slices);
    let rows = vec![
        vec!["k".into(), "4".into(), "8".into()],
        vec![
            "Area (slices)".into(),
            format!("{l2_area} (paper 13772)"),
            format!("{l3_area} (paper 21029)"),
        ],
        vec![
            "% of total area".into(),
            format!(
                "{:.0}% (paper 58%)",
                XC2VP50.occupancy(l2_area as u32) * 100.0
            ),
            format!(
                "{:.0}% (paper 89%)",
                XC2VP50.occupancy(l3_area as u32) * 100.0
            ),
        ],
        vec![
            "Clock speed".into(),
            format!("{:.0} MHz (paper 164)", l2.record.clock_mhz),
            format!("{:.0} MHz (paper 130)", l3.record.clock_mhz),
        ],
        vec![
            "SRAM bandwidth".into(),
            format!("{:.1} GB/s (paper 5.9)", sram_bw / 1e9),
            format!("{:.1} GB/s (paper 2.1)", mout.sram_bytes_per_s / 1e9),
        ],
        vec![
            "DRAM bandwidth".into(),
            format!("{:.1} GB/s (paper 1.3)", dma.bandwidth_bytes_per_s / 1e9),
            format!("{:.1} MB/s (paper 24.3 rd / 48.8 total)", l3_dram_bw / 1e6),
        ],
        vec![
            "Sustained performance".into(),
            vs_figure(&l2.record, "table4.l2.mflops"),
            vs_figure(&l3.record, "table4.l3.gflops"),
        ],
        vec![
            "% of peak".into(),
            format!(
                "{:.1}% (paper 80.6%)",
                figure(&l2.record, "table4.l2.peak-pct")
            ),
            format!(
                "{:.1}% (paper 46.6%)",
                mout.report.sustained_flops(&mout.clock) / l3_peak * 100.0
            ),
        ],
    ];
    print_table(
        "Table 4: Level 2 and Level 3 BLAS on a single FPGA in XD1",
        &[
            "",
            "Level 2 (n = 1024)",
            "Level 3 (n = 512, b = 512, m = 8)",
        ],
        &rows,
    );

    println!("\nLevel-2 latency breakdown:");
    println!(
        "  total {:.1} ms (paper 8.0): compute {:.2} ms (paper 1.6) + DRAM→SRAM staging {:.2} ms",
        figure(&l2.record, "table4.l2.latency-ms"),
        compute_s * 1e3,
        staging_s * 1e3
    );
    println!(
        "  if A starts in SRAM: {} (paper 1.05 GFLOPS; see EXPERIMENTS.md)",
        fblas_sim::clock::fmt::flops(sram_resident)
    );
    println!(
        "\nLevel-3 latency: {:.0} ms (paper 131 ms)",
        figure(&l3.record, "table4.l3.latency-ms")
    );
    println!(
        "  I/O share if serialized: {:.1}% (paper: 0.7% — overlapped)",
        (mout.report.io_bytes() as f64 / dma.bandwidth_bytes_per_s) / l3_total_s * 100.0
    );
    println!(
        "  C' update hazards per 8×8 block under m=k=8: {} (§5.1's m²/k ≥ α \
         does not hold for the paper's own Table-4 blocking; see DESIGN.md)",
        mout.hazards_per_block
    );

    // Functional check of the Level-3 result against the software oracle.
    let (ma, mb) = paper_matrix::hierarchical_operands();
    let expect = fblas_sw::gemm_blocked(ma.as_slice(), mb.as_slice(), ma.rows(), 64);
    assert_eq!(mout.c.as_slice(), &expect[..], "matrix multiply mismatch");
    println!("\nLevel-3 result verified against the software gemm oracle.");

    if trace.enabled() {
        // The hierarchical Level-3 run aggregates its blocks analytically;
        // trace one linear-array block multiply explicitly so the §5.1
        // components appear on the timeline next to the Level-2 run.
        let ta = DenseMatrix::from_rows(32, 32, synth_int(9, 32 * 32, 4));
        let tb = DenseMatrix::from_rows(32, 32, synth_int(10, 32 * 32, 4));
        LinearArrayMm::new(MmParams::test(4, 16)).run_in(&mut th, &ta, &tb);
    }
    sink.push(l2.record);
    sink.push(l3.record);
    trace.write(&th);
    sink.write();
}
