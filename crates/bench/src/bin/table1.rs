//! Regenerates **Table 1**: characteristics of memory for a single FPGA
//! in reconfigurable systems (SRC `MAPstation` and Cray XD1).

use fblas_bench::print_table;
use fblas_bench::record_sink::RecordSink;
use fblas_bench::trace::{reference_kernels, TraceOption};
use fblas_mem::{Level, MemoryHierarchy};

fn fmt_size(bytes: u64) -> String {
    if bytes >= 1 << 30 {
        format!("{} GB", bytes >> 30)
    } else if bytes >= 1 << 20 {
        format!("{} MB", bytes >> 20)
    } else {
        format!("{} KB", bytes >> 10)
    }
}

fn fmt_bw(bps: f64) -> String {
    format!("{:.1} GB/s", bps / 1e9)
}

fn main() {
    let trace = TraceOption::from_args();
    let mut sink = RecordSink::from_args("table1");
    let src = MemoryHierarchy::src_mapstation();
    let cray = MemoryHierarchy::cray_xd1();

    let rows: Vec<Vec<String>> = Level::ALL
        .iter()
        .map(|&l| {
            let s = src.level(l);
            let c = cray.level(l);
            vec![
                l.name().to_string(),
                fmt_size(s.capacity_bytes),
                fmt_bw(s.bandwidth_bytes_per_s),
                fmt_size(c.capacity_bytes),
                fmt_bw(c.bandwidth_bytes_per_s),
            ]
        })
        .collect();

    print_table(
        "Table 1: Characteristics of memory for a single FPGA",
        &[
            "Level",
            "SRC size",
            "SRC bandwidth",
            "Cray size",
            "Cray bandwidth",
        ],
        &rows,
    );

    for h in [&src, &cray] {
        assert!(h.is_well_formed(), "{} hierarchy ill-formed", h.platform);
    }
    println!("\nBoth hierarchies are well-formed (bandwidth strictly decreases,");
    println!("capacity strictly increases down the levels — Figure 5's shape).");

    // This binary is analytic; trace/record the representative kernels
    // instead.
    reference_kernels(&trace, Some(&mut sink));
    sink.write();
}
