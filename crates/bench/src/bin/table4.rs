//! Regenerates **Table 4**: performance of Level-2 and Level-3 BLAS on a
//! single FPGA in Cray XD1.
//!
//! Level 2: k = 4, n = 1024, matrix staged DRAM → SRAM before compute
//! (the staging dominates: ≈6.4 of the ≈8.0 ms total).
//! Level 3: k = m = 8, b = 512, n = 512 on the hierarchical design.

use fblas_bench::record_sink::{measure, RecordSink};
use fblas_bench::trace::TraceOption;
use fblas_bench::{print_table, synth_int, vs_figure};
use fblas_core::mm::{HierarchicalMm, HierarchicalParams, LinearArrayMm, MmParams};
use fblas_core::mvm::{DenseMatrix, MvmParams, RowMajorMvm};
use fblas_mem::{DmaModel, SramBanks, SRAM_WORD_BITS};
use fblas_metrics::{RunRecord, StallBreakdown};
use fblas_system::{io_bound_peak_mvm, AreaModel, ClockModel, XC2VP50};

fn main() {
    let trace = TraceOption::from_args();
    let mut sink = RecordSink::from_args("table4");
    let mut th = trace.harness();
    let area = AreaModel::default();
    let clocks = ClockModel::default();

    // ------------------- Level 2: matrix-vector -------------------
    let n = 1024usize;
    let l2_clock = clocks.xd1_l2();
    let mvm = RowMajorMvm::standalone(MvmParams::table3(), l2_clock.mhz());
    let a = DenseMatrix::from_rows(n, n, synth_int(3, n * n, 8));
    let x = synth_int(4, n, 8);
    let (out, l2_stalls) = measure(&mut th, |h| mvm.run_in(h, &a, &x));
    assert_eq!(out.y, a.ref_mvm(&x), "mvm result mismatch");

    let compute_s = out.report.latency_seconds(&l2_clock);
    // Staging: matrix A (n² words) moves DRAM → SRAM at the achieved
    // 1.3 GB/s; x (n words) initializes the local stores over the same
    // path.
    let dma = DmaModel::xd1_dram();
    let staging_s = dma.transfer_seconds_words((n * n + n) as u64);
    let total_s = compute_s + staging_s;
    let sustained = out.report.flops as f64 / total_s;
    let peak = io_bound_peak_mvm(dma.bandwidth_bytes_per_s);
    let sram_resident = out.report.flops as f64 / compute_s;

    // Achieved SRAM bandwidth: one 72-bit word per bank per cycle.
    let mut banks = SramBanks::striped(a.as_slice(), SramBanks::XD1_BANKS);
    let mut buf = Vec::new();
    while !banks.exhausted() {
        banks.read_cycle(&mut buf);
    }
    let sram_bw = banks.achieved_bandwidth(l2_clock.mhz(), SRAM_WORD_BITS);

    // ------------------- Level 3: matrix multiply -------------------
    let p = HierarchicalParams::xd1_single_node();
    let mm = HierarchicalMm::new(p);
    let nn = 512usize;
    let ma = DenseMatrix::from_rows(nn, nn, synth_int(5, nn * nn, 4));
    let mb = DenseMatrix::from_rows(nn, nn, synth_int(6, nn * nn, 4));
    let mout = mm.run(&ma, &mb);
    let l3_clock = mout.clock;
    let l3_total_s = mout.report.latency_seconds(&l3_clock);
    let l3_sustained = mout.report.flops as f64 / l3_total_s;
    let l3_peak = fblas_system::device_peak_flops(&XC2VP50, &area, 170.0);
    let l3_dram_bw = mout.report.io_bytes() as f64 / l3_total_s;

    sink.push(
        RunRecord::from_sim(
            "mvm/xd1-l2",
            &[("k", 4), ("n", n as i64)],
            out.report,
            l2_stalls,
            l2_clock.mhz(),
            u64::from(area.mvm_design_xd1(4)),
        )
        .with_paper("table4.l2.latency-ms", total_s * 1e3)
        .with_paper("table4.l2.mflops", sustained / 1e6)
        .with_paper("table4.l2.peak-pct", sustained / peak * 100.0),
    );
    sink.push(
        RunRecord::from_sim(
            "mm/hierarchical",
            &[("b", 512), ("k", 8), ("m", 8), ("n", nn as i64)],
            mout.report,
            StallBreakdown::default(),
            l3_clock.mhz(),
            u64::from(area.mm_design_xd1(8)),
        )
        .with_paper("table4.l3.gflops", l3_sustained / 1e9)
        .with_paper("table4.l3.latency-ms", l3_total_s * 1e3),
    );

    let rows = vec![
        vec!["k".into(), "4".into(), "8".into()],
        vec![
            "Area (slices)".into(),
            format!("{} (paper 13772)", area.mvm_design_xd1(4)),
            format!("{} (paper 21029)", area.mm_design_xd1(8)),
        ],
        vec![
            "% of total area".into(),
            format!(
                "{:.0}% (paper 58%)",
                XC2VP50.occupancy(area.mvm_design_xd1(4)) * 100.0
            ),
            format!(
                "{:.0}% (paper 89%)",
                XC2VP50.occupancy(area.mm_design_xd1(8)) * 100.0
            ),
        ],
        vec![
            "Clock speed".into(),
            format!("{:.0} MHz (paper 164)", l2_clock.mhz()),
            format!("{:.0} MHz (paper 130)", l3_clock.mhz()),
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
            vs_figure(sustained / 1e6, "table4.l2.mflops"),
            vs_figure(l3_sustained / 1e9, "table4.l3.gflops"),
        ],
        vec![
            "% of peak".into(),
            format!("{:.1}% (paper 80.6%)", sustained / peak * 100.0),
            format!("{:.1}% (paper 46.6%)", l3_sustained / l3_peak * 100.0),
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
        total_s * 1e3,
        compute_s * 1e3,
        staging_s * 1e3
    );
    println!(
        "  if A starts in SRAM: {} (paper 1.05 GFLOPS; see EXPERIMENTS.md)",
        fblas_sim::clock::fmt::flops(sram_resident)
    );
    println!(
        "\nLevel-3 latency: {:.0} ms (paper 131 ms)",
        l3_total_s * 1e3
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
    let expect = fblas_sw::gemm_blocked(ma.as_slice(), mb.as_slice(), nn, 64);
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
    trace.write(&th);
    sink.write();
}
