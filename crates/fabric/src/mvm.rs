//! The sharded matrix-vector multiply, row-major or column-major.
//!
//! `MvM` shards by row range: each FPGA holds its slice of `A` in local
//! memory (the §6.4 independent-memory configuration — `MvM` is
//! bandwidth-bound, so streaming `A` over the ring would make the
//! fabric the bottleneck at any width). Only the `x` vector crosses
//! the forward plane (a broadcast to every shard), and the `y` slices
//! ride the return plane back to the head node.
//!
//! Values come from the real [`RowMajorMvm`]/[`ColMajorMvm`] designs
//! running on each slice — a row split changes no per-row reduction
//! order, so `y` is bit-identical to the unsharded run at every shard
//! count, not just at one. The shared fabric schedule then steps each
//! slice as one block: the whole `x` broadcast in, the slice's compute
//! cycles, its `y` rows out, no drain.

use fblas_core::mvm::{ColMajorMvm, DenseMatrix, MvmParams, RowMajorMvm};
use fblas_sim::{ClockDomain, EdgeKind, ExecBackend, Harness, SimReport, Topology};

use crate::link::{LinkClass, LinkReport, RingSpec};
use crate::net::{Layout, RingNet};
use crate::plan::{MvmShardPlan, Orientation};
use crate::schedule::{Kernel, Schedule};

/// Result of a sharded matrix-vector run.
#[derive(Debug, Clone)]
pub struct FabricMvmOutcome {
    /// The product, bit-identical to the unsharded design's.
    pub y: Vec<f64>,
    /// Fabric-level aggregate: makespan cycles, summed flops and I/O
    /// (the broadcast honestly duplicates `x` per remote shard), and
    /// the busiest shard's FPU-busy cycles.
    pub report: SimReport,
    /// The common compute clock.
    pub clock: ClockDomain,
    /// Shard-cycles spent waiting for the `x` broadcast.
    pub starved_cycles: u64,
    /// Shard-cycles spent holding `y` against a full return hop.
    pub backpressured_cycles: u64,
    /// Per-link traffic and congestion statistics.
    pub links: Vec<LinkReport>,
}

/// The sharded `MvM` design over a [`RingSpec`] fabric.
#[derive(Debug, Clone)]
pub struct FabricMvm {
    plan: MvmShardPlan,
    params: MvmParams,
    spec: RingSpec,
    clock: ClockDomain,
}

impl FabricMvm {
    /// Instantiate on the XD1 fabric at the plan's compute clock.
    pub fn on_xd1(plan: MvmShardPlan) -> Self {
        Self::with_ring(plan, RingSpec::xd1(plan.clock_mhz))
    }

    /// Instantiate over an explicit link spec.
    pub fn with_ring(plan: MvmShardPlan, spec: RingSpec) -> Self {
        plan.validate();
        Self {
            plan,
            params: MvmParams::with_k(plan.k),
            spec,
            clock: ClockDomain::from_mhz(plan.clock_mhz),
        }
    }

    /// The shard plan.
    pub fn plan(&self) -> &MvmShardPlan {
        &self.plan
    }

    /// The compute clock.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Static channel graph: the `x` broadcast walks the ring hop by
    /// hop at the modeled link rates, each FPGA streams its local `A`
    /// slice from its own memory, and the `y` slices converge on the
    /// gather sink. A pure DAG — sharded `MvM` has no feedback, so its
    /// deadlock proof is trivial and the interesting obligation is the
    /// per-hop bandwidth budget.
    pub fn topology(&self) -> Topology {
        let plan = &self.plan;
        let layout = Layout::new(plan.shards, 1);
        let mut t = Topology::new(format!(
            "fabric-{}[s={},k={}]",
            match plan.orientation {
                Orientation::Row => "mvm-row",
                Orientation::Col => "mvm-col",
            },
            plan.shards,
            plan.k
        ));
        let x = t.source("x-broadcast");
        let sink = t.sink("y-gather");
        let pes: Vec<_> = (0..plan.shards)
            .map(|j| t.pe(format!("fpga{j}"), crate::plan::mac_flops(plan.k)))
            .collect();
        t.edge(
            "local-x",
            x,
            pes[0],
            EdgeKind::Channel {
                words_per_cycle: 1.0,
                flops_per_word: crate::plan::mac_flops(plan.rows_per_shard()),
            },
        );
        for j in 1..plan.shards {
            let hop = *layout.forward_route(j).last().expect("remote route");
            let meta = &layout.links()[hop];
            t.edge(
                meta.name.clone(),
                pes[j - 1],
                pes[j],
                EdgeKind::Channel {
                    words_per_cycle: self.spec.rate(meta.class),
                    flops_per_word: crate::plan::mac_flops(plan.rows_per_shard()),
                },
            );
        }
        for (j, &pe) in pes.iter().enumerate() {
            let a = t.source(format!("fpga{j}/a-slice"));
            t.edge(
                format!("fpga{j}/a-stream"),
                a,
                pe,
                EdgeKind::Channel {
                    words_per_cycle: plan.k as f64,
                    flops_per_word: 2.0,
                },
            );
            t.edge(
                format!("fpga{j}/y-drain"),
                pe,
                sink,
                EdgeKind::Channel {
                    words_per_cycle: self.spec.rate(LinkClass::RocketIo),
                    flops_per_word: 0.0,
                },
            );
        }
        t
    }

    /// Compute `y = A·x` on a fresh harness.
    pub fn run(&self, a: &DenseMatrix, x: &[f64]) -> FabricMvmOutcome {
        self.run_in(&mut Harness::new(), a, x)
    }

    /// [`FabricMvm::run`] with the fabric schedule stepping on the
    /// caller's harness (slice values always come from private native
    /// harnesses, as in `FabricMm`, so they are backend-invariant by
    /// construction and cost each design's fused replay).
    pub fn run_in(&self, harness: &mut Harness, a: &DenseMatrix, x: &[f64]) -> FabricMvmOutcome {
        let plan = &self.plan;
        let n = plan.n;
        assert_eq!(a.rows(), n, "matrix order must match the plan");
        assert_eq!(a.cols(), n, "square matrix");
        assert_eq!(x.len(), n, "vector length must match");

        // Stage 1: slice values on the real designs.
        let mut y = Vec::with_capacity(n);
        let mut slice_cycles = Vec::with_capacity(plan.shards);
        let mut flops = 0u64;
        let mut words_in = 0u64;
        let mut words_out = 0u64;
        let mut busy = 0u64;
        for j in 0..plan.shards {
            let (r0, r1) = plan.rows_of(j);
            let slice = DenseMatrix::from_fn(r1 - r0, n, |i, c| a.at(r0 + i, c));
            let native = &mut Harness::with_backend(ExecBackend::Native);
            let out =
                match plan.orientation {
                    Orientation::Row => RowMajorMvm::standalone(self.params, plan.clock_mhz)
                        .run_in(native, &slice, x),
                    Orientation::Col => ColMajorMvm::standalone(self.params, plan.clock_mhz)
                        .run_in(native, &slice, x),
                };
            y.extend_from_slice(&out.y);
            slice_cycles.push(out.report.cycles);
            flops += out.report.flops;
            words_in += out.report.words_in;
            words_out += out.report.words_out;
            busy = busy.max(out.report.busy_cycles);
        }

        // Stage 2: the fabric schedule. Each shard's slice is one
        // block: the whole x broadcast in, its y rows out, no drain.
        let kernel = Kernel {
            name: "fabric-mvm",
            block_words: n as u64,
            block_cycles: 0,
            blocks_per_egress: 1,
            egress_words: plan.rows_per_shard() as u64,
            drain_cycles: 0,
        };
        let net = RingNet::new(Layout::new(plan.shards, 1), &self.spec);
        let shares = slice_cycles.into_iter().map(|cycles| (1, cycles));
        let mut sched = Schedule::new(net, kernel, shares);
        let cycles = harness.run(&mut sched).cycles;

        FabricMvmOutcome {
            y,
            report: SimReport {
                cycles,
                flops,
                words_in,
                words_out,
                busy_cycles: busy,
            },
            clock: self.clock,
            starved_cycles: sched.starved,
            backpressured_cycles: sched.backpressured,
            links: sched.net.link_reports(),
        }
    }
}
