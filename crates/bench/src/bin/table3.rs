//! Regenerates **Table 3**: characteristics of the Level-1 (dot product,
//! k = 2) and Level-2 (matrix-vector, k = 4) designs at n = 2048.
//!
//! Prints the paper matrix's `dot` and `mvm/row` cells: the sustained
//! MFLOPS come from cycle-accurate simulation; area and clock from the
//! calibrated cost models.

use fblas_bench::paper_matrix;
use fblas_bench::record_sink::RecordSink;
use fblas_bench::trace::TraceOption;
use fblas_bench::{print_table, vs_figure};
use fblas_core::dot::{DotParams, DotProductDesign};
use fblas_system::{Xd1Node, XC2VP50};

fn main() {
    let trace = TraceOption::from_args();
    let mut sink = RecordSink::from_args("table3");
    let mut th = trace.harness();
    let dot = paper_matrix::dot(&mut th, None, false);
    let mvm = paper_matrix::mvm_row(&mut th, None, false);
    let (dout, mout) = (&dot.out, &mvm.out);
    let dot_area = dot.record.modeled_slices;
    let mvm_area = mvm.record.modeled_slices;
    let dot_bandwidth =
        DotProductDesign::new(DotParams::table3(), &Xd1Node::default()).bandwidth_bytes_per_s();

    let rows = vec![
        vec!["No. of multipliers, k".into(), "2".into(), "4".into()],
        vec![
            "Area (slices)".into(),
            format!("{dot_area} (paper 5210)"),
            format!("{mvm_area} (paper 9669)"),
        ],
        vec![
            "% of total area".into(),
            format!(
                "{:.0}% (paper 22%)",
                XC2VP50.occupancy(dot_area as u32) * 100.0
            ),
            format!(
                "{:.0}% (paper 41%)",
                XC2VP50.occupancy(mvm_area as u32) * 100.0
            ),
        ],
        vec![
            "Clock speed (MHz)".into(),
            format!("{:.0}", dot.record.clock_mhz),
            format!("{:.0}", mvm.record.clock_mhz),
        ],
        vec![
            "Memory bandwidth (GB/s)".into(),
            format!("{:.1} (paper 5.5)", dot_bandwidth / 1e9),
            format!(
                "{:.1} (paper 5.6)",
                mout.report.achieved_bandwidth(&mout.clock) / 1e9
            ),
        ],
        vec![
            "Sustained MFLOPS".into(),
            vs_figure(&dot.record, "table3.dot.mflops"),
            vs_figure(&mvm.record, "table3.mvm.mflops"),
        ],
        vec![
            "% of peak MFLOPS".into(),
            format!("{:.0}% (paper 80%)", dout.fraction_of_peak() * 100.0),
            format!("{:.0}% (paper 97%)", mout.fraction_of_peak() * 100.0),
        ],
    ];
    print_table(
        &format!(
            "Table 3: Level 1 & Level 2 BLAS designs (n = {})",
            mout.y.len()
        ),
        &["", "Level 1 (dot)", "Level 2 (matrix-vector)"],
        &rows,
    );

    println!("\nCycle detail:");
    println!(
        "  dot:  {} cycles for 2n = {} flops ({} words in)",
        dout.report.cycles, dout.report.flops, dout.report.words_in
    );
    println!(
        "  mvm:  {} cycles for 2n² = {} flops ({} words in)",
        mout.report.cycles, mout.report.flops, mout.report.words_in
    );
    println!(
        "  reduction buffer high water (dot): {} words (2α² = 392)",
        dout.reduction_buffer_high_water
    );

    sink.push(dot.record);
    sink.push(mvm.record);
    trace.write(&th);
    sink.write();
}
