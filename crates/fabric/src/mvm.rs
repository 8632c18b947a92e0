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
//! count, not just at one.

use fblas_core::mvm::{ColMajorMvm, DenseMatrix, MvmParams, RowMajorMvm};
use fblas_sim::{
    ClockDomain, Design, EdgeKind, Harness, Probe, ProbeId, SimReport, StallCause, Topology,
};

use crate::link::{LinkClass, LinkReport, RingSpec};
use crate::net::{Layout, NetDeliveries, RingNet};
use crate::plan::{MvmShardPlan, Orientation};

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
    /// Compute cycles of each shard's slice, in shard order.
    pub per_shard_cycles: Vec<u64>,
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
    /// caller's harness (slice values always come from private
    /// harnesses, so they are backend-invariant by construction).
    pub fn run_in(&self, harness: &mut Harness, a: &DenseMatrix, x: &[f64]) -> FabricMvmOutcome {
        let plan = &self.plan;
        let n = plan.n;
        assert_eq!(a.rows(), n, "matrix order must match the plan");
        assert_eq!(a.cols(), n, "square matrix");
        assert_eq!(x.len(), n, "vector length must match");

        // Stage 1: slice values on the real designs.
        let mut y = Vec::with_capacity(n);
        let mut per_shard_cycles = Vec::with_capacity(plan.shards);
        let mut flops = 0u64;
        let mut words_in = 0u64;
        let mut words_out = 0u64;
        let mut busy = 0u64;
        for j in 0..plan.shards {
            let (r0, r1) = plan.rows_of(j);
            let slice = DenseMatrix::from_fn(r1 - r0, n, |i, c| a.at(r0 + i, c));
            let out = match plan.orientation {
                Orientation::Row => {
                    RowMajorMvm::standalone(self.params, plan.clock_mhz).run(&slice, x)
                }
                Orientation::Col => {
                    ColMajorMvm::standalone(self.params, plan.clock_mhz).run(&slice, x)
                }
            };
            y.extend_from_slice(&out.y);
            per_shard_cycles.push(out.report.cycles);
            flops += out.report.flops;
            words_in += out.report.words_in;
            words_out += out.report.words_out;
            busy = busy.max(out.report.busy_cycles);
        }

        // Stage 2: the fabric schedule.
        let mut sched = MvmSchedule::new(plan, &self.spec, &per_shard_cycles);
        let sched_report = harness.run(&mut sched);

        let report = SimReport {
            cycles: sched_report.cycles,
            flops,
            words_in,
            words_out,
            busy_cycles: busy,
        };
        FabricMvmOutcome {
            y,
            report,
            clock: self.clock,
            per_shard_cycles,
            starved_cycles: sched.starved,
            backpressured_cycles: sched.backpressured,
            links: sched.net.link_reports(),
        }
    }
}

/// Per-shard scheduling state.
#[derive(Debug)]
struct SliceState {
    local: bool,
    broadcast_offered: bool,
    ingress_words: u64,
    compute_remaining: u64,
    started: bool,
    pending_egress: u64,
    egress_rows: u64,
    finished: bool,
}

/// The cycle-stepped fabric schedule behind [`FabricMvm::run_in`].
#[derive(Debug)]
struct MvmSchedule {
    net: RingNet,
    deliveries: NetDeliveries,
    slices: Vec<SliceState>,
    broadcast_words: u64,
    expected_return_words: u64,
    returned_words: u64,
    ticks_worked: u64,
    starved: u64,
    backpressured: u64,
    ids: Option<(ProbeId, ProbeId)>,
    limit: u64,
}

impl MvmSchedule {
    fn new(plan: &MvmShardPlan, spec: &RingSpec, per_shard_cycles: &[u64]) -> Self {
        let net = RingNet::new(Layout::new(plan.shards, 1), spec);
        let rows = plan.rows_per_shard() as u64;
        let slices: Vec<SliceState> = per_shard_cycles
            .iter()
            .enumerate()
            .map(|(j, &cycles)| SliceState {
                local: net.is_local(j),
                broadcast_offered: false,
                ingress_words: 0,
                compute_remaining: cycles,
                started: false,
                pending_egress: 0,
                egress_rows: rows,
                finished: false,
            })
            .collect();
        let max_cycles = per_shard_cycles.iter().copied().max().unwrap_or(0);
        Self {
            net,
            deliveries: NetDeliveries::default(),
            slices,
            broadcast_words: plan.n as u64,
            expected_return_words: plan.n as u64,
            returned_words: 0,
            ticks_worked: 0,
            starved: 0,
            backpressured: 0,
            ids: None,
            limit: max_cycles * 8 + 10_000_000,
        }
    }

    /// Flush a slice's held `y` words if the return path accepts them.
    fn try_flush(
        net: &mut RingNet,
        returned: &mut u64,
        shard: usize,
        state: &mut SliceState,
    ) -> bool {
        if state.pending_egress == 0 {
            return true;
        }
        if state.local {
            *returned += state.pending_egress;
            state.pending_egress = 0;
        } else {
            // Partial drain: an egress window smaller than the whole
            // y slice trickles instead of deadlocking.
            let take = net.return_headroom(shard).min(state.pending_egress);
            if take > 0 {
                net.offer_return(shard, take);
                state.pending_egress -= take;
            }
            if state.pending_egress > 0 {
                return false;
            }
        }
        state.finished = true;
        true
    }
}

impl Design for MvmSchedule {
    fn name(&self) -> &str {
        "fabric-mvm"
    }

    fn setup(&mut self, probe: &mut Probe) {
        self.ids = Some((
            probe.component("fabric/pe-fleet"),
            probe.component("fabric/ring"),
        ));
    }

    fn cycle(&mut self, probe: &mut Probe) {
        let (pe_id, ring_id) = self.ids.expect("setup registers components");

        // Broadcast x to every remote shard, once.
        for j in 0..self.slices.len() {
            if !self.slices[j].local && !self.slices[j].broadcast_offered {
                self.net.offer_forward(j, self.broadcast_words);
                self.slices[j].broadcast_offered = true;
            }
        }

        let moved_before = self.net.progress_words();
        self.net.tick(&mut self.deliveries);
        for &(j, w) in &self.deliveries.ingress {
            self.slices[j].ingress_words += w;
        }
        for &(_, w) in &self.deliveries.returned {
            self.returned_words += w;
        }
        if self.net.progress_words() > moved_before {
            probe.busy(ring_id);
        }

        let mut fleet_worked = false;
        for j in 0..self.slices.len() {
            let state = &mut self.slices[j];
            if state.finished {
                continue;
            }
            if state.pending_egress > 0 {
                if !Self::try_flush(&mut self.net, &mut self.returned_words, j, state) {
                    probe.stall(pe_id, StallCause::OutputBackpressured);
                    self.backpressured += 1;
                }
                continue;
            }
            if !state.started {
                if !state.local && state.ingress_words < self.broadcast_words {
                    probe.stall(pe_id, StallCause::InputStarved);
                    self.starved += 1;
                    continue;
                }
                state.started = true;
            }
            state.compute_remaining -= 1;
            self.ticks_worked += 1;
            fleet_worked = true;
            if state.compute_remaining == 0 {
                state.pending_egress = state.egress_rows;
                // Same-cycle flush keeps the s = 1 cycle count equal
                // to the unsharded design's.
                if !Self::try_flush(&mut self.net, &mut self.returned_words, j, state) {
                    probe.stall(pe_id, StallCause::OutputBackpressured);
                    self.backpressured += 1;
                }
            }
        }
        if fleet_worked {
            probe.busy(pe_id);
        }
    }

    fn done(&self) -> bool {
        self.slices.iter().all(|s| s.finished)
            && self.returned_words == self.expected_return_words
            && self.net.is_idle()
    }

    fn cycle_limit(&self) -> u64 {
        self.limit
    }

    fn progress(&self) -> Option<u64> {
        Some(self.ticks_worked + self.net.progress_words() + self.returned_words)
    }
}
