//! The one cycle-stepped fabric schedule behind [`FabricMm`] and
//! [`FabricMvm`].
//!
//! Both sharded kernels are the same §6.4 pattern, so they fill in one
//! [`Kernel`] description and every shard steps through the same loop:
//!
//! 1. **Wait** until a block's `block_words` of operands crossed the
//!    fabric (remote shards only — shard 0 sits next to the source);
//!    a shard waiting here is `InputStarved`.
//! 2. **Compute** for `first_cycles` on the shard's first block, then
//!    `block_cycles` per later block.
//! 3. **Hold** `egress_words` of results every `blocks_per_egress`
//!    blocks until the return hop takes them. An egress window smaller
//!    than the results trickles them out rather than deadlocking; a
//!    shard holding results is `OutputBackpressured` and does no work.
//! 4. **Drain** for `drain_cycles` after the last block. With no drain
//!    a shard finishes on the cycle its last results leave.
//!
//! The cycle that finishes a block counts as work only, even if the
//! same-cycle hand-off of its results fails; the hold starts counting
//! on the next cycle.
//!
//! Stepping costs what changes. A shard spends `block_cycles` counting
//! down inside each block with nothing to decide, so after every full
//! cycle the schedule opens a *quiet window* over the cycles in which
//! that holds for every unfinished shard; those cycles tick the net and
//! count the shards' work without visiting them. The net in turn skips
//! dormant links. Every probe call still lands in the cycle and order
//! of the full step, so reports, ledgers and deep traces are unchanged.
//!
//! [`FabricMm`]: crate::FabricMm
//! [`FabricMvm`]: crate::FabricMvm

use fblas_sim::{Design, Probe, ProbeId, StallCause};

use crate::net::{NetDeliveries, RingNet};

/// One sharded kernel, in the terms every shard steps through.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Kernel {
    /// The design name the harness reports.
    pub name: &'static str,
    /// Operand words a remote shard needs at hand to start a block.
    pub block_words: u64,
    /// Cycles of every block after a shard's first.
    pub block_cycles: u64,
    /// Blocks between two result hand-offs.
    pub blocks_per_egress: u64,
    /// Result words handed to the return path per hand-off.
    pub egress_words: u64,
    /// Cycles after a shard's last block before it is done.
    pub drain_cycles: u64,
}

/// Per-shard scheduling state.
#[derive(Debug)]
struct Shard {
    local: bool,
    blocks: u64,
    first_cycles: u64,
    blocks_done: u64,
    block_remaining: u64,
    drain_remaining: u64,
    /// Operand words the source has not offered yet.
    unsent_words: u64,
    /// Operand words offered but not yet consumed by a block start.
    outstanding_words: u64,
    ingress_words: u64,
    pending_egress: u64,
    finished: bool,
}

impl Shard {
    /// Hand held results to the return path; `true` once none are held.
    fn flush(&mut self, j: usize, net: &mut RingNet, returned: &mut u64) -> bool {
        if self.pending_egress == 0 {
            return true;
        }
        if self.local {
            *returned += self.pending_egress;
            self.pending_egress = 0;
            return true;
        }
        let take = net.return_headroom(j).min(self.pending_egress);
        if take > 0 {
            net.offer_return(j, take);
            self.pending_egress -= take;
        }
        self.pending_egress == 0
    }
}

/// The stepped fabric [`Design`]: run it on a harness, then read its
/// stall ledgers and `net.link_reports()`.
#[derive(Debug)]
pub(crate) struct Schedule {
    kernel: Kernel,
    pub net: RingNet,
    deliveries: NetDeliveries,
    shards: Vec<Shard>,
    /// Operand words the source keeps in flight per remote shard.
    window_words: u64,
    expected_return_words: u64,
    returned_words: u64,
    ticks_worked: u64,
    /// Shard-cycles spent waiting for operands.
    pub starved: u64,
    /// Shard-cycles spent holding results against a full return hop.
    pub backpressured: u64,
    /// Quiet cycles left in the current window ([`Schedule::quiet_window`]).
    quiet: u64,
    /// Unfinished shards, each working every cycle of a quiet window.
    quiet_shards: u64,
    ids: Option<(ProbeId, ProbeId)>,
    limit: u64,
}

impl Schedule {
    /// Schedule `kernel` over `net`. `shares` gives each shard, in
    /// shard order, its block count and its first block's cycles.
    pub fn new(net: RingNet, kernel: Kernel, shares: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let shards: Vec<Shard> = shares
            .into_iter()
            .enumerate()
            .map(|(j, (blocks, first_cycles))| {
                let local = net.is_local(j);
                Shard {
                    local,
                    blocks,
                    first_cycles,
                    blocks_done: 0,
                    block_remaining: 0,
                    drain_remaining: 0,
                    unsent_words: if local {
                        0
                    } else {
                        blocks * kernel.block_words
                    },
                    outstanding_words: 0,
                    ingress_words: 0,
                    pending_egress: 0,
                    finished: false,
                }
            })
            .collect();
        let expected_return_words = shards
            .iter()
            .map(|s| s.blocks / kernel.blocks_per_egress * kernel.egress_words)
            .sum();
        // Every shard's work end to end, one after another: a generous
        // bound the schedule only reaches if the fabric stops moving.
        let serial: u64 = shards
            .iter()
            .map(|s| {
                s.first_cycles
                    + s.blocks.saturating_sub(1) * kernel.block_cycles
                    + kernel.drain_cycles
            })
            .sum();
        Self {
            kernel,
            net,
            deliveries: NetDeliveries::default(),
            shards,
            // Four blocks in flight, which always covers a one-block
            // broadcast whole.
            window_words: 4 * kernel.block_words,
            expected_return_words,
            returned_words: 0,
            ticks_worked: 0,
            starved: 0,
            backpressured: 0,
            quiet: 0,
            quiet_shards: 0,
            ids: None,
            limit: serial * 64 + 10_000_000,
        }
    }

    /// Move the fabric one cycle and bank its deliveries; the ring is
    /// busy in any cycle that moved a word.
    fn tick_net(&mut self, probe: &mut Probe, ring_id: ProbeId) {
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
    }

    /// Open a quiet window after a full cycle: the number of upcoming
    /// cycles in which every unfinished shard only counts down inside a
    /// block or its drain (at least two cycles left there), holds no
    /// results, and no shard's operand window needs topping up. Such a
    /// cycle decides nothing per shard, so [`Design::cycle`] just ticks
    /// the net and counts the shards' work. The shards' countdowns are
    /// settled for the whole window here; nothing reads them before it
    /// ends, since no shard can finish inside it.
    fn quiet_window(&mut self) -> u64 {
        let mut window = u64::MAX;
        let mut working = 0;
        for shard in &self.shards {
            if shard.unsent_words > 0 && shard.outstanding_words < self.window_words {
                return 0;
            }
            if shard.finished {
                continue;
            }
            let left = if shard.blocks_done == shard.blocks {
                shard.drain_remaining
            } else {
                shard.block_remaining
            };
            if shard.pending_egress > 0 || left < 2 {
                return 0;
            }
            window = window.min(left - 1);
            working += 1;
        }
        if working == 0 {
            return 0;
        }
        for shard in self.shards.iter_mut().filter(|s| !s.finished) {
            if shard.blocks_done == shard.blocks {
                shard.drain_remaining -= window;
            } else {
                shard.block_remaining -= window;
            }
        }
        self.quiet_shards = working;
        window
    }
}

impl Design for Schedule {
    fn name(&self) -> &str {
        self.kernel.name
    }

    fn setup(&mut self, probe: &mut Probe) {
        self.ids = Some((
            probe.component("fabric/pe-fleet"),
            probe.component("fabric/ring"),
        ));
    }

    fn cycle(&mut self, probe: &mut Probe) {
        let (pe_id, ring_id) = self.ids.expect("setup registers components");
        if self.quiet > 0 {
            self.quiet -= 1;
            self.tick_net(probe, ring_id);
            self.ticks_worked += self.quiet_shards;
            probe.busy(pe_id);
            return;
        }
        let kernel = self.kernel;

        // Source pacing: keep each remote shard's in-flight operand
        // window topped up, never dumping the whole stream at once.
        for (j, shard) in self.shards.iter_mut().enumerate() {
            if shard.unsent_words > 0 && shard.outstanding_words < self.window_words {
                let chunk = (self.window_words - shard.outstanding_words).min(shard.unsent_words);
                self.net.offer_forward(j, chunk);
                shard.outstanding_words += chunk;
                shard.unsent_words -= chunk;
            }
        }

        self.tick_net(probe, ring_id);

        // Advance every shard.
        let mut fleet_worked = false;
        for (j, shard) in self.shards.iter_mut().enumerate() {
            if shard.finished {
                continue;
            }
            // Results held from an earlier cycle block everything
            // downstream of the array until the return hop drains.
            if !shard.flush(j, &mut self.net, &mut self.returned_words) {
                probe.stall(pe_id, StallCause::OutputBackpressured);
                self.backpressured += 1;
                continue;
            }
            if shard.blocks_done == shard.blocks {
                if shard.drain_remaining > 0 {
                    shard.drain_remaining -= 1;
                    self.ticks_worked += 1;
                    fleet_worked = true;
                }
                shard.finished = shard.drain_remaining == 0;
                continue;
            }
            if shard.block_remaining == 0 {
                // Start the next block: local operands are always at
                // hand; remote ones must have crossed the fabric.
                if !shard.local {
                    if shard.ingress_words < kernel.block_words {
                        probe.stall(pe_id, StallCause::InputStarved);
                        self.starved += 1;
                        continue;
                    }
                    shard.ingress_words -= kernel.block_words;
                    shard.outstanding_words -= kernel.block_words;
                }
                shard.block_remaining = if shard.blocks_done == 0 {
                    shard.first_cycles
                } else {
                    kernel.block_cycles
                };
            }
            shard.block_remaining -= 1;
            self.ticks_worked += 1;
            fleet_worked = true;
            if shard.block_remaining == 0 {
                shard.blocks_done += 1;
                if shard.blocks_done.is_multiple_of(kernel.blocks_per_egress) {
                    shard.pending_egress += kernel.egress_words;
                    // Same-cycle flush: a clear return path costs the
                    // schedule nothing (the one-shard identity with the
                    // unsharded design depends on this).
                    shard.flush(j, &mut self.net, &mut self.returned_words);
                }
                if shard.blocks_done == shard.blocks {
                    shard.drain_remaining = kernel.drain_cycles;
                    shard.finished = shard.pending_egress == 0 && shard.drain_remaining == 0;
                }
            }
        }
        if fleet_worked {
            probe.busy(pe_id);
        }
        self.quiet = self.quiet_window();
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
