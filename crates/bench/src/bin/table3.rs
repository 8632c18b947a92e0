//! Regenerates **Table 3**: characteristics of the Level-1 (dot product,
//! k = 2) and Level-2 (matrix-vector, k = 4) designs at n = 2048.
//!
//! The sustained MFLOPS come from cycle-accurate simulation; area and
//! clock from the calibrated cost models.

use fblas_bench::record_sink::{measure, RecordSink};
use fblas_bench::trace::TraceOption;
use fblas_bench::{print_table, synth_int, vs_figure};
use fblas_core::dot::{DotParams, DotProductDesign};
use fblas_core::mvm::{DenseMatrix, MvmParams, RowMajorMvm};
use fblas_metrics::RunRecord;
use fblas_system::{AreaModel, Xd1Node, XC2VP50};

fn main() {
    let trace = TraceOption::from_args();
    let mut sink = RecordSink::from_args("table3");
    let mut th = trace.harness();
    let n = 2048usize;
    let node = Xd1Node::default();
    let area = AreaModel::default();

    // ---- Level 1: dot product, k = 2 ----
    let dot = DotProductDesign::new(DotParams::table3(), &node);
    let u = synth_int(1, n, 8);
    let v = synth_int(2, n, 8);
    let (dout, dot_stalls) = measure(&mut th, |h| dot.run_in(h, &u, &v));
    let dref: f64 = u.iter().zip(&v).map(|(a, b)| a * b).sum();
    assert_eq!(dout.result, dref, "dot result mismatch");

    // ---- Level 2: matrix-vector, k = 4 ----
    let mvm = RowMajorMvm::new(MvmParams::table3(), &node);
    let a = DenseMatrix::from_rows(n, n, synth_int(3, n * n, 8));
    let x = synth_int(4, n, 8);
    let (mout, mvm_stalls) = measure(&mut th, |h| mvm.run_in(h, &a, &x));
    assert_eq!(mout.y, a.ref_mvm(&x), "mvm result mismatch");

    let dot_area = area.dot_design(2);
    let mvm_area = area.mvm_design(4);
    let dot_mflops = dout.report.sustained_flops(&dout.clock) / 1e6;
    let mvm_mflops = mout.report.sustained_flops(&mout.clock) / 1e6;
    sink.push(
        RunRecord::from_sim(
            "dot",
            &[("k", 2), ("n", n as i64)],
            dout.report,
            dot_stalls,
            dout.clock.mhz(),
            u64::from(dot_area),
        )
        .with_paper("table3.dot.mflops", dot_mflops)
        .with_paper("table3.dot.slices", f64::from(dot_area)),
    );
    sink.push(
        RunRecord::from_sim(
            "mvm/row",
            &[("k", 4), ("n", n as i64)],
            mout.report,
            mvm_stalls,
            mout.clock.mhz(),
            u64::from(mvm_area),
        )
        .with_paper("table3.mvm.mflops", mvm_mflops)
        .with_paper("table3.mvm.slices", f64::from(mvm_area)),
    );

    let rows = vec![
        vec!["No. of multipliers, k".into(), "2".into(), "4".into()],
        vec![
            "Area (slices)".into(),
            format!("{dot_area} (paper 5210)"),
            format!("{mvm_area} (paper 9669)"),
        ],
        vec![
            "% of total area".into(),
            format!("{:.0}% (paper 22%)", XC2VP50.occupancy(dot_area) * 100.0),
            format!("{:.0}% (paper 41%)", XC2VP50.occupancy(mvm_area) * 100.0),
        ],
        vec![
            "Clock speed (MHz)".into(),
            format!("{:.0}", dout.clock.mhz()),
            format!("{:.0}", mout.clock.mhz()),
        ],
        vec![
            "Memory bandwidth (GB/s)".into(),
            format!("{:.1} (paper 5.5)", dot.bandwidth_bytes_per_s() / 1e9),
            format!(
                "{:.1} (paper 5.6)",
                mout.report.achieved_bandwidth(&mout.clock) / 1e9
            ),
        ],
        vec![
            "Sustained MFLOPS".into(),
            vs_figure(dot_mflops, "table3.dot.mflops"),
            vs_figure(mvm_mflops, "table3.mvm.mflops"),
        ],
        vec![
            "% of peak MFLOPS".into(),
            format!("{:.0}% (paper 80%)", dout.fraction_of_peak() * 100.0),
            format!("{:.0}% (paper 97%)", mout.fraction_of_peak() * 100.0),
        ],
    ];
    print_table(
        &format!("Table 3: Level 1 & Level 2 BLAS designs (n = {n})"),
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

    trace.write(&th);
    sink.write();
}
