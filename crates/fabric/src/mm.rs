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
//! The run has two stages sharing one code path:
//!
//! 1. **Values.** Every block multiply runs on the real
//!    [`BlockEngine`] (softfloat datapath) in the same global order as
//!    the unsharded design, so results do not depend on the shard
//!    count. The engine is not stepped here: its fused replay applies
//!    each C′ cell's multiply-adds in the datapath's ascending-q order
//!    and returns the closed-form block cycle count (DESIGN.md §13), so
//!    values and per-block cycles are those of the stepped engine.
//! 2. **Schedule.** A cycle-stepped [`Design`] advances all shards and
//!    links together: a shard only starts a block once its operands
//!    crossed the fabric (else the cycle is attributed
//!    `InputStarved`), and holds finished blocks when its return hop
//!    is saturated (`OutputBackpressured`).

use fblas_core::mm::{BlockEngine, LinearArrayMm, MmParams};
use fblas_core::mvm::DenseMatrix;
use fblas_sim::{
    ClockDomain, Design, EdgeKind, ExecBackend, Harness, Probe, ProbeId, SimReport, StallCause,
    Topology,
};

use crate::link::{LinkReport, RingSpec};
use crate::net::{Layout, NetDeliveries, RingNet};
use crate::plan::MmShardPlan;

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
    /// Hazard near-misses summed over every block multiply.
    pub hazard_violations: u64,
    /// Multiply-accumulates executed per shard, in shard order.
    pub per_shard_macs: Vec<u64>,
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
        let (m, k) = (p.m, p.k);
        let n = a.rows();
        assert_eq!(n, plan.n, "matrix order must match the plan");
        assert_eq!(a.cols(), n, "square matrices");
        assert_eq!(b.rows(), n, "shape mismatch");
        assert_eq!(b.cols(), n, "square matrices");
        let nb = plan.nb();

        // Stage 1: values and per-block stats, in the unsharded
        // design's global block order (pair-major, z inner) so the
        // softfloat stream — and therefore every C bit — is invariant
        // in the shard count.
        let engine = BlockEngine::new(*p);
        let mut value_harness = Harness::with_backend(ExecBackend::Native);
        let mut c_data = vec![0.0f64; n * n];
        let mut cblk = vec![0.0f64; m * m];
        let mut per_shard_macs = vec![0u64; plan.shards];
        let mut hazards = 0u64;
        let mut first_block_cycles = 0u64;
        let mut blocks_done = 0u64;
        for pair in 0..plan.pairs() {
            let owner = pair % plan.shards;
            let (g, h) = (pair / nb, pair % nb);
            cblk.iter_mut().for_each(|v| *v = 0.0);
            for z in 0..nb {
                let ablk = DenseMatrix::from_fn(m, m, |i, q| a.at(g * m + i, z * m + q));
                let bblk = DenseMatrix::from_fn(m, m, |q, j| b.at(z * m + q, h * m + j));
                let stats =
                    engine.multiply_accumulate_in(&mut value_harness, &ablk, &bblk, &mut cblk);
                if blocks_done == 0 {
                    first_block_cycles = stats.cycles;
                }
                per_shard_macs[owner] += stats.macs;
                hazards += stats.hazard_violations;
                blocks_done += 1;
            }
            for i in 0..m {
                for j in 0..m {
                    c_data[(g * m + i) * n + (h * m + j)] = cblk[i * m + j];
                }
            }
        }

        // Stage 2: the fabric schedule.
        let mut sched = MmSchedule::new(plan, p, &self.spec, first_block_cycles);
        let sched_report = harness.run(&mut sched);

        let macs_total: u64 = per_shard_macs.iter().sum();
        let busy = per_shard_macs
            .iter()
            .map(|&mj| mj / k as u64)
            .max()
            .unwrap_or(0);
        let report = SimReport {
            cycles: sched_report.cycles,
            flops: 2 * macs_total,
            words_in: blocks_done * (2 * m * m) as u64,
            words_out: (n * n) as u64,
            busy_cycles: busy,
        };
        FabricMmOutcome {
            c: DenseMatrix::from_rows(n, n, c_data),
            report,
            clock: self.clock,
            hazard_violations: hazards,
            per_shard_macs,
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

/// Per-shard scheduling state.
#[derive(Debug)]
struct ShardState {
    local: bool,
    blocks: u64,
    blocks_done: u64,
    block_remaining: u64,
    ingress_words: u64,
    pending_egress: u64,
    drain_remaining: u64,
    draining: bool,
    finished: bool,
}

/// The cycle-stepped fabric schedule behind [`FabricMm::run_in`].
#[derive(Debug)]
struct MmSchedule {
    net: RingNet,
    deliveries: NetDeliveries,
    shards: Vec<ShardState>,
    source_remaining: Vec<u64>,
    offered_words: Vec<u64>,
    consumed_words: Vec<u64>,
    window_words: u64,
    first_cycles: u64,
    eff_cycles: u64,
    drain_cycles: u64,
    block_words: u64,
    egress_words: u64,
    blocks_per_pair: u64,
    expected_return_words: u64,
    returned_words: u64,
    ticks_worked: u64,
    starved: u64,
    backpressured: u64,
    ids: Option<(ProbeId, ProbeId)>,
    limit: u64,
}

impl MmSchedule {
    fn new(plan: &MmShardPlan, p: &MmParams, spec: &RingSpec, first_cycles: u64) -> Self {
        let (m, k) = (p.m, p.k);
        let nb = plan.nb() as u64;
        let block_words = (2 * m * m) as u64;
        let eff_cycles = p.effective_block_cycles();
        let drain_cycles = ((m * m / k) * (k - 1) + m * m / k) as u64;
        let net = RingNet::new(Layout::new(plan.shards, plan.chassis), spec);
        let mut shards = Vec::with_capacity(plan.shards);
        let mut source_remaining = Vec::with_capacity(plan.shards);
        for j in 0..plan.shards {
            let blocks = plan.pairs_of(j) as u64 * nb;
            let local = net.is_local(j);
            shards.push(ShardState {
                local,
                blocks,
                blocks_done: 0,
                block_remaining: 0,
                ingress_words: 0,
                pending_egress: 0,
                drain_remaining: 0,
                draining: false,
                finished: blocks == 0,
            });
            source_remaining.push(if local { 0 } else { blocks * block_words });
        }
        let blocks_total: u64 = shards.iter().map(|s| s.blocks).sum();
        let single_total = first_cycles + (blocks_total - 1) * eff_cycles + drain_cycles;
        Self {
            net,
            deliveries: NetDeliveries::default(),
            shards,
            source_remaining,
            offered_words: vec![0; plan.shards],
            consumed_words: vec![0; plan.shards],
            window_words: 4 * block_words,
            first_cycles,
            eff_cycles,
            drain_cycles,
            block_words,
            egress_words: (m * m) as u64,
            blocks_per_pair: nb,
            expected_return_words: (plan.n * plan.n) as u64,
            returned_words: 0,
            ticks_worked: 0,
            starved: 0,
            backpressured: 0,
            ids: None,
            limit: single_total * 64 + 10_000_000,
        }
    }

    /// Flush a shard's held results if the return path accepts them.
    fn try_flush(
        net: &mut RingNet,
        returned: &mut u64,
        shard: usize,
        state: &mut ShardState,
    ) -> bool {
        if state.pending_egress == 0 {
            return true;
        }
        if state.local {
            *returned += state.pending_egress;
            state.pending_egress = 0;
            return true;
        }
        // Partial drain: push whatever fits in the return hop's
        // window — an egress window smaller than a whole C block must
        // trickle, not deadlock.
        let take = net.return_headroom(shard).min(state.pending_egress);
        if take > 0 {
            net.offer_return(shard, take);
            state.pending_egress -= take;
        }
        state.pending_egress == 0
    }
}

impl Design for MmSchedule {
    fn name(&self) -> &str {
        "fabric-mm"
    }

    fn setup(&mut self, probe: &mut Probe) {
        self.ids = Some((
            probe.component("fabric/pe-fleet"),
            probe.component("fabric/ring"),
        ));
    }

    fn cycle(&mut self, probe: &mut Probe) {
        let (pe_id, ring_id) = self.ids.expect("setup registers components");

        // Source pacing: keep each remote shard's in-flight operand
        // window topped up, never dumping the whole stream at once.
        for j in 0..self.shards.len() {
            if self.source_remaining[j] == 0 {
                continue;
            }
            let outstanding = self.offered_words[j] - self.consumed_words[j];
            if outstanding < self.window_words {
                let chunk = (self.window_words - outstanding).min(self.source_remaining[j]);
                self.net.offer_forward(j, chunk);
                self.offered_words[j] += chunk;
                self.source_remaining[j] -= chunk;
            }
        }

        // Move the fabric one cycle.
        let moved_before = self.net.progress_words();
        self.net.tick(&mut self.deliveries);
        for &(j, w) in &self.deliveries.ingress {
            self.shards[j].ingress_words += w;
        }
        for &(_, w) in &self.deliveries.returned {
            self.returned_words += w;
        }
        if self.net.progress_words() > moved_before {
            probe.busy(ring_id);
        }

        // Advance every shard.
        let mut fleet_worked = false;
        for j in 0..self.shards.len() {
            let state = &mut self.shards[j];
            if state.finished {
                continue;
            }
            // Results held from an earlier cycle block everything
            // downstream of the array until the return hop drains.
            if !Self::try_flush(&mut self.net, &mut self.returned_words, j, state) {
                probe.stall(pe_id, StallCause::OutputBackpressured);
                self.backpressured += 1;
                continue;
            }
            if state.draining {
                state.drain_remaining -= 1;
                self.ticks_worked += 1;
                fleet_worked = true;
                if state.drain_remaining == 0 {
                    state.finished = true;
                }
                continue;
            }
            if state.block_remaining == 0 {
                // Start the next block: local operands are always at
                // hand; remote ones must have crossed the fabric.
                if !state.local {
                    if state.ingress_words < self.block_words {
                        probe.stall(pe_id, StallCause::InputStarved);
                        self.starved += 1;
                        continue;
                    }
                    state.ingress_words -= self.block_words;
                    self.consumed_words[j] += self.block_words;
                }
                state.block_remaining = if state.blocks_done == 0 {
                    self.first_cycles
                } else {
                    self.eff_cycles
                };
            }
            state.block_remaining -= 1;
            self.ticks_worked += 1;
            fleet_worked = true;
            if state.block_remaining == 0 {
                state.blocks_done += 1;
                if state.blocks_done.is_multiple_of(self.blocks_per_pair) {
                    state.pending_egress += self.egress_words;
                    // Same-cycle flush: a clear return path costs the
                    // schedule nothing (the s = 1 identity depends on
                    // this).
                    Self::try_flush(&mut self.net, &mut self.returned_words, j, state);
                }
                if state.blocks_done == state.blocks {
                    state.draining = true;
                    state.drain_remaining = self.drain_cycles;
                }
            }
        }
        if fleet_worked {
            probe.busy(pe_id);
        }
    }

    fn done(&self) -> bool {
        self.shards.iter().all(|s| s.finished)
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
