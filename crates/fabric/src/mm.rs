//! The sharded linear-array matrix multiply.
//!
//! [`FabricMm`] deals the `(g, h)` output-block pairs of the §5.1
//! schedule round-robin across the fabric's FPGAs. Operand blocks
//! stream from the head node's DRAM over the forward link plane (the
//! §6.4 hierarchical configuration: one memory, many arrays); finished
//! `C` blocks ride the return plane back. Shard 0 sits next to the
//! source and never touches a link, so a one-FPGA "fabric" *is* the
//! unsharded [`LinearArrayMm`] — bit-identical values and an identical
//! [`SimReport`] — which is the degeneracy contract the fabric tests
//! pin.
//!
//! The run has two stages:
//!
//! 1. **Values.** The unsharded [`LinearArrayMm`] computes `C` on a
//!    private native harness, so results do not depend on the shard
//!    count or on the caller's backend. Its block engine is not stepped
//!    there: the fused replay computes each block with
//!    `fblas_fpu::softfloat::matmul_acc`, the one matrix-product kernel,
//!    which sums every C′ cell in the datapath's ascending-q order at
//!    host speed (DESIGN.md §6, §13).
//! 2. **Schedule.** The shared fabric schedule steps every shard's
//!    blocks against the links: 2m² operand words and m³/k cycles per
//!    block (the first block and the drain in closed form from
//!    [`MmParams`]), and an m²-word `C` block back per pair. A shard
//!    only starts a block once its operands crossed the fabric (else
//!    the cycle is attributed `InputStarved`), and holds finished
//!    blocks when its return hop is saturated (`OutputBackpressured`).

use fblas_core::mm::{LinearArrayMm, MmParams};
use fblas_core::mvm::DenseMatrix;
use fblas_sim::{ClockDomain, EdgeKind, ExecBackend, Harness, SimReport, Topology};

use crate::link::{LinkReport, RingSpec};
use crate::net::{Layout, RingNet};
use crate::plan::MmShardPlan;
use crate::schedule::{Kernel, Schedule};

/// Result of a sharded matrix-multiply run.
#[derive(Debug, Clone)]
pub struct FabricMmOutcome {
    /// The product, bit-identical to the unsharded design's.
    pub c: DenseMatrix,
    /// Fabric-level aggregate: makespan cycles, total flops, operand
    /// words in, result words out, and the busiest shard's FPU-busy
    /// cycles (shards overlap, so summing would overcount).
    pub report: SimReport,
    /// The common compute clock.
    pub clock: ClockDomain,
    /// Shard-cycles spent waiting for operands to cross the fabric.
    pub starved_cycles: u64,
    /// Shard-cycles spent holding results against a full return hop.
    pub backpressured_cycles: u64,
    /// Per-link traffic and congestion statistics.
    pub links: Vec<LinkReport>,
}

/// The sharded linear-array MM design over a [`RingSpec`] fabric.
#[derive(Debug, Clone)]
pub struct FabricMm {
    plan: MmShardPlan,
    params: MmParams,
    spec: RingSpec,
    clock: ClockDomain,
}

impl FabricMm {
    /// Instantiate on the XD1 fabric at the plan's compute clock.
    pub fn on_xd1(plan: MmShardPlan) -> Self {
        Self::with_ring(plan, RingSpec::xd1(plan.clock_mhz))
    }

    /// Instantiate over an explicit link spec (tests use constrained
    /// specs to provoke congestion deterministically).
    pub fn with_ring(plan: MmShardPlan, spec: RingSpec) -> Self {
        plan.validate();
        Self {
            plan,
            params: MmParams::test(plan.k, plan.m),
            spec,
            clock: ClockDomain::from_mhz(plan.clock_mhz),
        }
    }

    /// The shard plan.
    pub fn plan(&self) -> &MmShardPlan {
        &self.plan
    }

    /// The per-FPGA array parameters.
    pub fn params(&self) -> &MmParams {
        &self.params
    }

    /// The compute clock.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Static channel graph of the sharded schedule: the operand
    /// source feeds shard 0 directly and every other shard over its
    /// route's hop edges at the modeled link rate; each FPGA carries
    /// the unsharded design's C′ accumulation loop (delay forward,
    /// FIFO back — the deadlock proof obligation), and drains finished
    /// blocks to the collection sink.
    pub fn topology(&self) -> Topology {
        let p = &self.params;
        let plan = &self.plan;
        let layout = Layout::new(plan.shards, plan.chassis);
        let mut t = Topology::new(format!(
            "fabric-mm[s={},c={},k={},m={}]",
            plan.shards, plan.chassis, p.k, p.m
        ));
        let dram = t.source("dram");
        let sink = t.sink("c-out");
        let pes: Vec<_> = (0..plan.shards)
            .map(|j| t.pe(format!("fpga{j}"), crate::plan::mac_flops(p.k)))
            .collect();

        // Forward plane: local feed plus one edge per layout hop. A
        // hop edge runs from the previous FPGA on the route (or the
        // source) to the next, at the link's modeled word rate.
        t.edge(
            "local-feed",
            dram,
            pes[0],
            EdgeKind::Channel {
                words_per_cycle: p.words_per_cycle(),
                flops_per_word: p.m as f64,
            },
        );
        for j in 1..plan.shards {
            let route = layout.forward_route(j);
            // Only the last hop of the route terminates at shard j;
            // earlier hops already exist (routes share prefixes). A
            // RocketIO hop physically leaves the previous FPGA on the
            // ring; a RapidArray trunk leaves the source-side switch.
            let hop = *route.last().expect("remote shard has a route");
            let meta = &layout.links()[hop];
            let prev = match meta.class {
                crate::link::LinkClass::RapidArray => dram,
                crate::link::LinkClass::RocketIo => pes[j - 1],
            };
            t.edge(
                meta.name.clone(),
                prev,
                pes[j],
                EdgeKind::Channel {
                    words_per_cycle: self.spec.rate(meta.class),
                    flops_per_word: p.m as f64,
                },
            );
        }

        // Per-shard C′ accumulation loop (§5.1) and result drain.
        let depth = p.update_interval();
        for (j, &pe) in pes.iter().enumerate() {
            let store = t.junction(format!("fpga{j}/cprime"));
            t.edge(
                format!("fpga{j}/add-pipe"),
                pe,
                store,
                EdgeKind::Delay {
                    stages: p.adder_stages,
                },
            );
            t.edge(
                format!("fpga{j}/cprime-rotation"),
                store,
                pe,
                EdgeKind::Fifo { depth },
            );
            t.edge(
                format!("fpga{j}/c-drain"),
                store,
                sink,
                EdgeKind::Channel {
                    words_per_cycle: plan.egress_words_per_cycle(),
                    flops_per_word: 0.0,
                },
            );
        }
        t
    }

    /// Compute `C = A·B` on a fresh harness.
    pub fn run(&self, a: &DenseMatrix, b: &DenseMatrix) -> FabricMmOutcome {
        self.run_in(&mut Harness::new(), a, b)
    }

    /// [`FabricMm::run`] with the fabric schedule stepping on the
    /// caller's harness (values always come from a private native
    /// harness whose probe is discarded, so they are identical under
    /// every execution backend).
    pub fn run_in(
        &self,
        harness: &mut Harness,
        a: &DenseMatrix,
        b: &DenseMatrix,
    ) -> FabricMmOutcome {
        let plan = &self.plan;
        let p = &self.params;
        assert_eq!(a.rows(), plan.n, "matrix order must match the plan");

        // Stage 1: values from the unsharded design, whose global
        // block order does not depend on the shard count.
        let values = self
            .unsharded()
            .run_in(&mut Harness::with_backend(ExecBackend::Native), a, b);

        // Stage 2: the fabric schedule. Every block is a hazard-free
        // m × m multiply, so its cycles are the closed form.
        let nb = plan.nb() as u64;
        let kernel = Kernel {
            name: "fabric-mm",
            block_words: (2 * p.m * p.m) as u64,
            block_cycles: p.effective_block_cycles(),
            blocks_per_egress: nb,
            egress_words: (p.m * p.m) as u64,
            drain_cycles: p.drain_cycles(),
        };
        let net = RingNet::new(Layout::new(plan.shards, plan.chassis), &self.spec);
        let blocks_of = |j| plan.pairs_of(j) as u64 * nb;
        let shares = (0..plan.shards).map(|j| (blocks_of(j), p.block_cycles()));
        let mut sched = Schedule::new(net, kernel, shares);
        let cycles = harness.run(&mut sched).cycles;

        // The busiest shard retires k MACs per cycle over its blocks.
        let busiest = (0..plan.shards).map(blocks_of).max().unwrap_or(0);
        FabricMmOutcome {
            c: values.c,
            report: SimReport {
                cycles,
                busy_cycles: busiest * p.effective_block_cycles(),
                ..values.report
            },
            clock: self.clock,
            starved_cycles: sched.starved,
            backpressured_cycles: sched.backpressured,
            links: sched.net.link_reports(),
        }
    }

    /// The unsharded reference this fabric degenerates to at one
    /// shard (same parameters, same XD1 clock).
    pub fn unsharded(&self) -> LinearArrayMm {
        LinearArrayMm::on_xd1(self.params)
    }
}
