//! fblas-fabric: the simulated multi-FPGA interconnect.
//!
//! The paper's §6.4 system numbers — six FPGAs per chassis on a
//! `RocketIO` ring, chassis pairs over `RapidArray` — exist elsewhere in
//! this workspace only as analytic projections
//! (`fblas_system::projection`). This crate simulates the
//! installation instead: links are first-class rate/latency channels
//! with shared-hop contention ([`FabricLink`], [`RingNet`]), and the
//! linear-array kernels are sharded across them ([`FabricMm`],
//! [`FabricMvm`]). Each takes its values from the unsharded designs
//! and describes its shards to one cycle-stepped [`fblas_sim::Design`]
//! schedule, which stalls honestly (`InputStarved` when operands have
//! not crossed the fabric, `OutputBackpressured` when a return hop
//! saturates).
//!
//! Contracts the rest of the workspace holds this crate to:
//!
//! * **Degeneracy** — a one-shard fabric produces bit-identical values
//!   *and* an identical `SimReport` to the unsharded design (tested
//!   here, pinned by the scale campaign's baseline row).
//! * **Shard invariance** — values never depend on the shard count;
//!   only the schedule does.
//! * **Budget soundness** — every shipped [`plan`] fits its per-link
//!   budget (`fblas-check`'s fabric-link-budget rule), and measured
//!   speedup never exceeds the §6.4 projection (the `observatory
//!   scale` gate).
//! * **Determinism** — no wall clock, no hash iteration, no native
//!   f64 in the datapath; the softfloat and determinism lints police
//!   this tree like any kernel crate.

pub mod link;
pub mod mm;
pub mod mvm;
pub mod net;
pub mod plan;
mod schedule;

pub use link::{FabricLink, LinkClass, LinkReport, RingSpec};
pub use mm::{FabricMm, FabricMmOutcome};
pub use mvm::{FabricMvm, FabricMvmOutcome};
pub use net::{Layout, LinkDir, LinkMeta, NetDeliveries, RingNet};
pub use plan::{
    mm_link_budgets, mm_plans, mvm_link_budgets, mvm_plans, LinkBudget, MmShardPlan, MvmShardPlan,
    Orientation,
};

#[cfg(test)]
mod tests {
    use super::*;
    use fblas_core::mm::{ref_matmul, LinearArrayMm, MmParams};
    use fblas_core::mvm::{ColMajorMvm, DenseMatrix, MvmParams, RowMajorMvm};
    use fblas_system::ClockModel;

    fn test_mats(n: usize) -> (DenseMatrix, DenseMatrix) {
        let a = DenseMatrix::from_fn(n, n, |i, j| ((i * 3 + j * 7) % 8) as f64 - 3.5);
        let b = DenseMatrix::from_fn(n, n, |i, j| ((i * 5 + j * 11) % 9) as f64 * 0.25);
        (a, b)
    }

    fn mm_plan(n: usize, m: usize, shards: usize, chassis: usize) -> MmShardPlan {
        MmShardPlan {
            n,
            k: 8,
            m,
            shards,
            chassis,
            clock_mhz: ClockModel::default().xd1_mm(8).mhz(),
        }
    }

    #[test]
    fn single_shard_fabric_degenerates_bit_identically() {
        let (a, b) = test_mats(64);
        let plan = mm_plan(64, 16, 1, 1);
        let fabric = FabricMm::on_xd1(plan).run(&a, &b);
        let single = LinearArrayMm::on_xd1(MmParams::test(8, 16)).run(&a, &b);
        // Bit-identical values, not approximately equal ones.
        assert_eq!(fabric.c.as_slice(), single.c.as_slice());
        // And the schedule reproduces the unsharded report exactly.
        assert_eq!(fabric.report, single.report);
        assert_eq!(fabric.clock, single.clock);
        assert_eq!(fabric.starved_cycles, 0);
        assert_eq!(fabric.backpressured_cycles, 0);
        assert!(fabric.links.is_empty());
    }

    #[test]
    fn mm_values_are_shard_invariant_and_correct() {
        let (a, b) = test_mats(64);
        let reference = ref_matmul(&a, &b);
        let baseline = FabricMm::on_xd1(mm_plan(64, 16, 1, 1)).run(&a, &b);
        for (shards, chassis) in [(2, 1), (4, 1), (4, 2)] {
            let out = FabricMm::on_xd1(mm_plan(64, 16, shards, chassis)).run(&a, &b);
            assert_eq!(out.c.as_slice(), baseline.c.as_slice(), "s={shards}");
            for i in 0..64 {
                for j in 0..64 {
                    assert!((out.c.at(i, j) - reference.at(i, j)).abs() < 1e-9);
                }
            }
            // Sharding must actually help: the makespan shrinks and
            // never beats the perfectly linear bound.
            assert!(out.report.cycles < baseline.report.cycles, "s={shards}");
            assert!(out.report.cycles * shards as u64 >= baseline.report.cycles);
            assert_eq!(out.report.flops, baseline.report.flops);
            assert_eq!(out.report.words_in, baseline.report.words_in);
            assert_eq!(out.report.words_out, baseline.report.words_out);
        }
    }

    /// Full-mantissa reals across 2⁻²⁰..2²⁰: unlike [`test_mats`], their
    /// products round and their sums depend on summation order.
    fn real_mats(n: usize) -> (DenseMatrix, DenseMatrix) {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let frac = 1.0 + (s >> 12) as f64 / (1u64 << 52) as f64;
            let sign = if s & 1 == 0 { 1.0 } else { -1.0 };
            sign * frac * 2f64.powi(((s >> 3) % 41) as i32 - 20)
        };
        let a = DenseMatrix::from_fn(n, n, |_, _| next());
        let b = DenseMatrix::from_fn(n, n, |_, _| next());
        (a, b)
    }

    #[test]
    fn real_valued_products_match_the_stepped_design_bit_for_bit() {
        let (a, b) = real_mats(64);
        let stepped = LinearArrayMm::on_xd1(MmParams::test(8, 16)).run(&a, &b);
        let bits = |c: &DenseMatrix| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want = bits(&stepped.c);
        // The operands really are order-sensitive: summing each cell in
        // descending q instead of the datapath's ascending q disagrees.
        let reversed = DenseMatrix::from_fn(64, 64, |i, j| {
            (0..64)
                .rev()
                .fold(0.0, |acc, q| acc + a.at(i, q) * b.at(q, j))
        });
        assert_ne!(bits(&reversed), want);
        for shards in [1, 2, 4] {
            let out = FabricMm::on_xd1(mm_plan(64, 16, shards, 1)).run(&a, &b);
            assert_eq!(bits(&out.c), want, "s={shards}");
            if shards == 1 {
                assert_eq!(out.report, stepped.report);
            }
        }
    }

    #[test]
    fn one_hop_ring_two_fpga_fabric_works() {
        let (a, b) = test_mats(32);
        let plan = mm_plan(32, 16, 2, 1);
        let out = FabricMm::on_xd1(plan).run(&a, &b);
        let reference = ref_matmul(&a, &b);
        for i in 0..32 {
            for j in 0..32 {
                assert!((out.c.at(i, j) - reference.at(i, j)).abs() < 1e-9);
            }
        }
        // Exactly one forward hop and its return twin carried traffic.
        assert_eq!(out.links.len(), 2);
        assert_eq!(out.links[0].name, "c0/hop0");
        assert_eq!(out.links[1].name, "c0/hop0/ret");
        // Shard 1 owns 2 of the 4 pairs: 2 pairs × 2 blocks × 2·16²
        // operand words forward, 2 × 16² result words back.
        assert_eq!(out.links[0].forwarded_words, 2 * 2 * 2 * 16 * 16);
        assert_eq!(out.links[1].forwarded_words, 2 * 16 * 16);
    }

    #[test]
    fn starved_ring_backpressures_and_attributes_stalls() {
        let (a, b) = test_mats(32);
        let plan = mm_plan(32, 16, 2, 1);
        // A fabric whose links are far too slow for the schedule and
        // whose egress window holds less than one C block: the remote
        // shard must stall on both operand delivery and result drain.
        let spec = RingSpec {
            intra_words_per_cycle: 0.5,
            inter_words_per_cycle: 0.5,
            intra_latency_cycles: 4,
            inter_latency_cycles: 4,
            egress_capacity_words: 128,
        };
        let out = FabricMm::with_ring(plan, spec).run(&a, &b);
        // Values survive congestion untouched.
        let reference = ref_matmul(&a, &b);
        for i in 0..32 {
            for j in 0..32 {
                assert!((out.c.at(i, j) - reference.at(i, j)).abs() < 1e-9);
            }
        }
        // The operand stream (2k/m = 1.0 w/c demand vs 0.5 capacity)
        // starves the remote shard; the 128-word egress window cannot
        // take a 256-word C block until the return hop drains it.
        assert!(out.starved_cycles > 0, "expected operand starvation");
        assert!(out.backpressured_cycles > 0, "expected egress backpressure");
        let fwd = &out.links[0];
        assert!(fwd.congestion_cycles > 0, "forward hop never congested");
        // Congestion must slow the run down relative to the real ring.
        let healthy = FabricMm::on_xd1(plan).run(&a, &b);
        assert!(out.report.cycles > healthy.report.cycles);
        assert_eq!(out.c.as_slice(), healthy.c.as_slice());
    }

    #[test]
    fn congested_run_stall_attribution_is_pinned() {
        // The deterministic fabric makes stall attribution exact, so
        // pin it: same seed data, same spec, same counts, every run.
        let (a, b) = test_mats(32);
        let spec = RingSpec {
            intra_words_per_cycle: 0.5,
            inter_words_per_cycle: 0.5,
            intra_latency_cycles: 4,
            inter_latency_cycles: 4,
            egress_capacity_words: 128,
        };
        let one = FabricMm::with_ring(mm_plan(32, 16, 2, 1), spec).run(&a, &b);
        let two = FabricMm::with_ring(mm_plan(32, 16, 2, 1), spec).run(&a, &b);
        assert_eq!(one.report, two.report);
        assert_eq!(one.starved_cycles, two.starved_cycles);
        assert_eq!(one.backpressured_cycles, two.backpressured_cycles);
        assert_eq!(one.links, two.links);
    }

    fn mvm_case(n: usize) -> (DenseMatrix, Vec<f64>) {
        let a = DenseMatrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let x: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) * 0.5 - 2.5).collect();
        (a, x)
    }

    #[test]
    fn mvm_single_shard_degenerates_bit_identically() {
        let (a, x) = mvm_case(64);
        let clock = ClockModel::default().xd1_l2().mhz();
        for orientation in [Orientation::Row, Orientation::Col] {
            let plan = MvmShardPlan {
                orientation,
                n: 64,
                k: 4,
                shards: 1,
                clock_mhz: clock,
            };
            let fabric = FabricMvm::on_xd1(plan).run(&a, &x);
            let params = MvmParams::with_k(4);
            let single = match orientation {
                Orientation::Row => RowMajorMvm::standalone(params, clock).run(&a, &x),
                Orientation::Col => ColMajorMvm::standalone(params, clock).run(&a, &x),
            };
            assert_eq!(fabric.y, single.y, "{orientation:?}");
            assert_eq!(fabric.report, single.report, "{orientation:?}");
            assert_eq!(fabric.starved_cycles, 0);
            assert_eq!(fabric.backpressured_cycles, 0);
        }
    }

    #[test]
    fn congested_mvm_stall_attribution_is_pinned() {
        // Two row-major shards over half-rate links whose 8-word egress
        // window cannot take the remote shard's 32-row y slice at once:
        // the slice waits for the x broadcast, then trickles its rows
        // out. The cycle that finishes the slice's compute is work,
        // not backpressure, even though its same-cycle hand-off fails.
        let (a, x) = mvm_case(64);
        let plan = MvmShardPlan {
            orientation: Orientation::Row,
            n: 64,
            k: 4,
            shards: 2,
            clock_mhz: ClockModel::default().xd1_l2().mhz(),
        };
        let spec = RingSpec {
            intra_words_per_cycle: 0.5,
            inter_words_per_cycle: 0.5,
            intra_latency_cycles: 4,
            inter_latency_cycles: 4,
            egress_capacity_words: 8,
        };
        let out = FabricMvm::with_ring(plan, spec).run(&a, &x);
        assert_eq!(out.y, FabricMvm::on_xd1(plan).run(&a, &x).y);
        assert_eq!(out.report.cycles, 815);
        assert_eq!(out.starved_cycles, 131);
        assert_eq!(out.backpressured_cycles, 44);
    }

    #[test]
    fn mvm_values_are_shard_invariant_and_faster() {
        let clock = ClockModel::default().xd1_l2().mhz();
        for orientation in [Orientation::Row, Orientation::Col] {
            // Column-major slices must keep rows/k ≥ α (the §4.2
            // hazard condition), so the column case uses a larger n.
            let n = match orientation {
                Orientation::Row => 64,
                Orientation::Col => 224,
            };
            let (a, x) = mvm_case(n);
            let base = FabricMvm::on_xd1(MvmShardPlan {
                orientation,
                n,
                k: 4,
                shards: 1,
                clock_mhz: clock,
            })
            .run(&a, &x);
            for shards in [2usize, 4] {
                let out = FabricMvm::on_xd1(MvmShardPlan {
                    orientation,
                    n,
                    k: 4,
                    shards,
                    clock_mhz: clock,
                })
                .run(&a, &x);
                assert_eq!(out.y, base.y, "{orientation:?} s={shards}");
                assert!(out.report.cycles < base.report.cycles);
                assert!(out.report.cycles * shards as u64 >= base.report.cycles);
                let reference = a.ref_mvm(&x);
                for (got, want) in out.y.iter().zip(&reference) {
                    assert!((got - want).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn topologies_have_the_advertised_shape() {
        let mm = FabricMm::on_xd1(mm_plan(384, 64, 12, 2)).topology();
        // 1 dram + 1 sink + 12 FPGAs + 12 cprime junctions.
        assert_eq!(mm.nodes.len(), 26);
        let mvm = FabricMvm::on_xd1(MvmShardPlan {
            orientation: Orientation::Row,
            n: 384,
            k: 4,
            shards: 4,
            clock_mhz: ClockModel::default().xd1_l2().mhz(),
        })
        .topology();
        // 1 broadcast source + 1 sink + 4 FPGAs + 4 local A sources.
        assert_eq!(mvm.nodes.len(), 10);
    }
}
