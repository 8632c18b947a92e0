//! Regenerates the **§6.4 multi-FPGA predictions**: one chassis
//! (12.4 GFLOPS) and a 12-chassis installation (148.3 GFLOPS), with the
//! bandwidth-requirement checks and the per-link fabric budgets of the
//! six- and twelve-FPGA plans, plus a functional validation of the
//! hierarchical design at a simulation-friendly size.

use fblas_bench::{print_table, synth_int, vs_paper};
use fblas_core::mm::{ref_matmul, HierarchicalMm, HierarchicalParams};
use fblas_core::mvm::DenseMatrix;
use fblas_fabric::{mm_link_budgets, mm_plans, RingSpec};
use fblas_system::projection::{
    hierarchical_dram_bytes_per_s, hierarchical_sram_bytes_per_s, multi_fpga_fill_cycles,
    scaled_sustained_gflops,
};
use fblas_system::{Xd1Chassis, Xd1Node, Xd1System};

fn main() {
    let node = Xd1Node::default();
    let chassis = Xd1Chassis::default();
    let system = Xd1System::default();
    let single_fpga_gflops = 2.06; // Table 4 measurement (see table4 bin)

    let configs = [
        ("one FPGA (§6.3)", 1usize, 512u64),
        ("one chassis (§6.4.1)", chassis.n_fpgas, 2048),
        ("12 chassis (§6.4.2)", system.total_fpgas(), 2048),
    ];
    let paper_gflops = [2.06, 12.4, 148.3];
    let paper_dram_mbs = [48.8, 73.1, 877.5];

    let rows: Vec<Vec<String>> = configs
        .iter()
        .zip(paper_gflops.iter().zip(&paper_dram_mbs))
        .map(|(&(name, l, b), (&pg, &pd))| {
            let g = scaled_sustained_gflops(single_fpga_gflops, l);
            let dram = hierarchical_dram_bytes_per_s(8, l, b, 130.0);
            let sram = hierarchical_sram_bytes_per_s(8, l, b, 130.0);
            vec![
                name.to_string(),
                l.to_string(),
                b.to_string(),
                vs_paper(g, pg, "GFLOPS"),
                vs_paper(dram / 1e6, pd, "MB/s"),
                format!("{:.2} GB/s", sram / 1e9),
                format!("{}", multi_fpga_fill_cycles(8, l)),
            ]
        })
        .collect();

    print_table(
        "§6.4: Multi-FPGA matrix-multiply predictions (k = m = 8)",
        &[
            "configuration",
            "l",
            "b",
            "sustained",
            "DRAM / inter-FPGA bw",
            "SRAM bw per FPGA",
            "fill cycles",
        ],
        &rows,
    );

    // Bandwidth feasibility, exactly the checks §6.4 makes.
    let mm6 = HierarchicalMm::new(HierarchicalParams::xd1_chassis());
    mm6.check_platform(&node, &chassis)
        .expect("chassis fits XD1");
    let dram12 = hierarchical_dram_bytes_per_s(8, system.total_fpgas(), 2048, 130.0);
    assert!(dram12 < node.dram.bandwidth_bytes_per_s);
    assert!(dram12 < system.inter_chassis_bytes_per_s);
    println!("\nAll bandwidth requirements are met by XD1's provisioning");
    println!(
        "(DRAM {:.1} GB/s, inter-FPGA {:.1} GB/s, inter-chassis {:.1} GB/s).",
        node.dram.bandwidth_bytes_per_s / 1e9,
        chassis.inter_fpga_bytes_per_s / 1e9,
        system.inter_chassis_bytes_per_s / 1e9
    );

    // Per-link feasibility on the fabric model the scaling ladder
    // simulates: the full ladder's chassis plans (six FPGAs on one ring,
    // twelve across two chassis) under the XD1 RocketIO/RapidArray spec.
    let chassis_plans: Vec<_> = mm_plans(false)
        .into_iter()
        .filter(|p| matches!((p.shards, p.chassis), (6, 1) | (12, 2)))
        .collect();
    assert_eq!(chassis_plans.len(), 2, "both chassis points in the ladder");
    for plan in &chassis_plans {
        let rows: Vec<Vec<String>> = mm_link_budgets(plan, &RingSpec::xd1(plan.clock_mhz))
            .iter()
            .map(|b| {
                assert!(b.feasible(), "{}: demand exceeds capacity: {b:?}", b.link);
                vec![
                    b.link.clone(),
                    b.class.name().to_string(),
                    format!("{:.4}", b.demand_words_per_cycle),
                    format!("{:.4}", b.capacity_words_per_cycle),
                ]
            })
            .collect();
        print_table(
            &format!(
                "Fabric link budgets, MM s = {} c = {} (words/cycle at {:.0} MHz)",
                plan.shards, plan.chassis, plan.clock_mhz
            ),
            &["link", "class", "demand", "capacity"],
            &rows,
        );
    }
    println!("\nEvery fabric link of the six- and twelve-FPGA plans is feasible.");

    // Functional validation of the multi-FPGA schedule at a small size:
    // 6 FPGAs, b = 96, m = 8, n = 192.
    let p = HierarchicalParams {
        mm: fblas_core::mm::MmParams::table4(),
        l: 6,
        b: 96,
    };
    let mm = HierarchicalMm::new(p);
    let n = 192usize;
    let a = DenseMatrix::from_rows(n, n, synth_int(9, n * n, 4));
    let b = DenseMatrix::from_rows(n, n, synth_int(10, n * n, 4));
    let out = mm.run(&a, &b);
    assert_eq!(out.c.as_slice(), ref_matmul(&a, &b).as_slice());
    println!(
        "\nFunctional check (l = 6, n = {n}): exact match; {} cycles \
         ({}× fewer than l = 1 would need), fill penalty {} cycles.",
        out.report.cycles, 6, out.fill_penalty_cycles
    );
}
