//! Fabric links: `RocketIO` ring hops and `RapidArray` chassis trunks.
//!
//! A [`FabricLink`] is a shared, rate-limited, store-and-forward pipe.
//! Several flows (one per destination shard) contend for the same
//! physical link; grants are issued word-at-a-time round-robin from a
//! rotating pointer, so arbitration is fair and — crucially for the
//! byte-determinism contract — a pure function of offered traffic.
//! Granted words spend the link's wire latency in flight and arrive in
//! FIFO order.
//!
//! The two link classes model the XD1 installation of §6.4: intra-
//! chassis `RocketIO` lanes (2 GB/s per direction between neighbours)
//! and the inter-chassis `RapidArray` fabric (4 GB/s per direction
//! between a chassis pair). Rates are converted to words/cycle in the
//! *compute* clock domain, so a design stepping at 130 MHz sees a
//! 2 GB/s link as ≈1.92 words/cycle.

use fblas_mem::WORD_BYTES;
use fblas_sim::Throttle;
use std::collections::VecDeque;

/// Physical class of a fabric link, fixing its rate and latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkClass {
    /// Intra-chassis `RocketIO` lane between ring neighbours (2 GB/s).
    RocketIo,
    /// Inter-chassis `RapidArray` trunk (4 GB/s).
    RapidArray,
}

impl LinkClass {
    /// Sustained bandwidth of one direction of the link, bytes/s.
    pub fn bytes_per_s(self) -> f64 {
        match self {
            LinkClass::RocketIo => 2.0e9,
            LinkClass::RapidArray => 4.0e9,
        }
    }

    /// Wire + `SerDes` latency of the link, in compute-clock cycles.
    pub fn default_latency_cycles(self) -> u64 {
        match self {
            // One RocketIO hop: SerDes + neighbour board trace.
            LinkClass::RocketIo => 24,
            // Crossing the RapidArray switch between chassis.
            LinkClass::RapidArray => 208,
        }
    }

    /// Short stable name used in link reports and DRC diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            LinkClass::RocketIo => "rocketio",
            LinkClass::RapidArray => "rapidarray",
        }
    }

    /// Link bandwidth in 64-bit words per cycle of a `clock_mhz` clock.
    pub fn words_per_cycle(self, clock_mhz: f64) -> f64 {
        self.bytes_per_s() / WORD_BYTES as f64 / (clock_mhz * 1e6)
    }
}

/// Fabric-wide link parameters, one rate/latency pair per class.
///
/// Tests substitute constrained specs (a starved ring, a tiny egress
/// window) to provoke congestion and backpressure deterministically;
/// [`RingSpec::xd1`] is the honest §6.4 installation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingSpec {
    /// `RocketIO` hop rate, words per compute cycle.
    pub intra_words_per_cycle: f64,
    /// `RapidArray` trunk rate, words per compute cycle.
    pub inter_words_per_cycle: f64,
    /// `RocketIO` hop latency, cycles.
    pub intra_latency_cycles: u64,
    /// `RapidArray` trunk latency, cycles.
    pub inter_latency_cycles: u64,
    /// Result words a shard may have queued on its return path before
    /// further completions are held back (output backpressure).
    pub egress_capacity_words: u64,
}

impl RingSpec {
    /// The XD1 installation at a given compute clock: `RocketIO` ring
    /// hops inside the chassis, `RapidArray` between chassis.
    pub fn xd1(clock_mhz: f64) -> Self {
        Self {
            intra_words_per_cycle: LinkClass::RocketIo.words_per_cycle(clock_mhz),
            inter_words_per_cycle: LinkClass::RapidArray.words_per_cycle(clock_mhz),
            intra_latency_cycles: LinkClass::RocketIo.default_latency_cycles(),
            inter_latency_cycles: LinkClass::RapidArray.default_latency_cycles(),
            egress_capacity_words: 8192,
        }
    }

    /// Rate of a link of `class` under this spec, words/cycle.
    pub fn rate(&self, class: LinkClass) -> f64 {
        match class {
            LinkClass::RocketIo => self.intra_words_per_cycle,
            LinkClass::RapidArray => self.inter_words_per_cycle,
        }
    }

    /// Latency of a link of `class` under this spec, cycles.
    pub fn latency(&self, class: LinkClass) -> u64 {
        match class {
            LinkClass::RocketIo => self.intra_latency_cycles,
            LinkClass::RapidArray => self.inter_latency_cycles,
        }
    }
}

/// Cumulative statistics of one link direction over a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkReport {
    /// Link name, e.g. `c0/hop0` or `ra/c1`.
    pub name: String,
    /// Physical class of the link.
    pub class: LinkClass,
    /// Words granted onto the wire over the whole run.
    pub forwarded_words: u64,
    /// Cycles in which offered traffic was left queued after the
    /// cycle's grants — the link was the bottleneck that cycle.
    pub congestion_cycles: u64,
    /// Peak queued backlog across all flows, words.
    pub max_backlog_words: u64,
}

/// One direction of one physical link, shared by several flows.
#[derive(Debug)]
pub struct FabricLink {
    class: LinkClass,
    latency_cycles: u64,
    throttle: Throttle,
    /// Queued words per flow, awaiting a grant.
    pending: Vec<u64>,
    /// Sum of `pending`, kept in step with it.
    backlog: u64,
    /// Per-flow grants of the current cycle; all zero between ticks.
    moved: Vec<u64>,
    /// Granted words in flight: (arrival cycle, flow, words), FIFO.
    in_flight: VecDeque<(u64, usize, u64)>,
    /// Round-robin pointer: next flow to consider for a grant (past
    /// `hi` means wrap to `lo`).
    rr: usize,
    /// Lowest and highest flow ever offered: no other flow can hold
    /// queued words, so grant sweeps stay inside this span.
    lo: usize,
    hi: usize,
    now: u64,
    congestion_cycles: u64,
    max_backlog_words: u64,
    forwarded_words: u64,
}

impl FabricLink {
    /// A link of `class` shared by `flows` flows.
    ///
    /// # Panics
    /// Panics if `words_per_cycle` is not positive or `flows` is zero.
    pub fn new(class: LinkClass, words_per_cycle: f64, latency_cycles: u64, flows: usize) -> Self {
        assert!(flows > 0, "a link needs at least one flow");
        Self {
            class,
            latency_cycles,
            throttle: Throttle::new(words_per_cycle),
            pending: vec![0; flows],
            backlog: 0,
            moved: vec![0; flows],
            in_flight: VecDeque::new(),
            rr: 0,
            lo: flows,
            hi: 0,
            now: 0,
            congestion_cycles: 0,
            max_backlog_words: 0,
            forwarded_words: 0,
        }
    }

    /// Queue `words` of `flow` at the link's ingress.
    pub fn offer(&mut self, flow: usize, words: u64) {
        self.pending[flow] += words;
        self.backlog += words;
        self.lo = self.lo.min(flow);
        self.hi = self.hi.max(flow);
    }

    /// Total queued words across all flows.
    pub fn backlog_words(&self) -> u64 {
        self.backlog
    }

    /// Whether the link holds no queued or in-flight traffic.
    pub fn is_idle(&self) -> bool {
        self.backlog_words() == 0 && self.in_flight.is_empty()
    }

    /// Words granted onto the wire so far.
    pub fn forwarded_words(&self) -> u64 {
        self.forwarded_words
    }

    /// Whether ticking the link at cycle `now` would only accrue
    /// credit: no word is queued and no arrival is due by `now`. The
    /// network skips a dormant link and [`FabricLink::tick`] catches
    /// its credit up when it next wakes.
    pub fn is_dormant_at(&self, now: u64) -> bool {
        self.backlog == 0 && self.in_flight.front().is_none_or(|&(due, ..)| due > now)
    }

    /// Advance to cycle `now`: replenish credit, grant queued words
    /// round-robin, and pop arrivals whose latency has elapsed. Every
    /// cycle since the last tick must have been dormant; their credit
    /// accrues first. Appends the `(flow, words)` batches arriving this
    /// cycle to `arrivals` and returns the words granted onto the wire.
    ///
    /// # Panics
    /// Panics if `now` does not lie after the last tick, or if an
    /// arrival fell due in a skipped cycle.
    pub fn tick(&mut self, now: u64, arrivals: &mut Vec<(usize, u64)>) -> u64 {
        assert!(now > self.now, "link ticked twice at cycle {now}");
        assert!(
            self.in_flight.front().is_none_or(|&(due, ..)| due >= now),
            "an arrival fell due while the link was skipped"
        );
        let skipped = now - self.now - 1;
        if skipped > 0 {
            self.throttle.advance(skipped);
        }
        self.now = now;
        self.throttle.tick();

        self.max_backlog_words = self.max_backlog_words.max(self.backlog);
        let budget = self.throttle.grant_up_to(self.backlog);
        if budget > 0 {
            // Word-at-a-time round-robin in one cyclic sweep from `rr`
            // over the offered span: each visit to a flow with queued
            // words grants it one, so arbitration is fair to within one
            // word per cycle and independent of flow insertion order.
            // The budget never exceeds the backlog, so the sweep ends.
            let (lo, hi) = (self.lo, self.hi);
            let mut f = if (lo..=hi).contains(&self.rr) {
                self.rr
            } else {
                lo
            };
            let mut left = budget;
            let mut last = f;
            while left > 0 {
                if self.pending[f] > 0 {
                    self.pending[f] -= 1;
                    self.moved[f] += 1;
                    left -= 1;
                    last = f;
                }
                f = if f == hi { lo } else { f + 1 };
            }
            self.rr = last + 1;
            self.backlog -= budget;
            for (f, w) in self.moved[lo..=hi].iter_mut().enumerate() {
                if *w > 0 {
                    self.in_flight
                        .push_back((self.now + self.latency_cycles, lo + f, *w));
                    *w = 0;
                }
            }
        }
        self.forwarded_words += budget;
        if self.backlog > 0 {
            self.congestion_cycles += 1;
        }

        while let Some(&(due, f, w)) = self.in_flight.front() {
            if due > self.now {
                break;
            }
            self.in_flight.pop_front();
            arrivals.push((f, w));
        }
        budget
    }

    /// Snapshot the link's cumulative statistics under `name`.
    pub fn report(&self, name: &str) -> LinkReport {
        LinkReport {
            name: name.to_string(),
            class: self.class,
            forwarded_words: self.forwarded_words,
            congestion_cycles: self.congestion_cycles,
            max_backlog_words: self.max_backlog_words,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xd1_rates_match_the_paper_links() {
        let spec = RingSpec::xd1(130.0);
        // 2 GB/s at 130 MHz and 8-byte words: ~1.923 words/cycle.
        assert!((spec.intra_words_per_cycle - 1.923).abs() < 1e-2);
        // RapidArray is exactly twice RocketIO.
        assert!((spec.inter_words_per_cycle / spec.intra_words_per_cycle - 2.0).abs() < 1e-12);
        assert!(spec.inter_latency_cycles > spec.intra_latency_cycles);
    }

    #[test]
    fn single_flow_drains_at_link_rate_after_latency() {
        let mut link = FabricLink::new(LinkClass::RocketIo, 2.0, 3, 1);
        link.offer(0, 10);
        let mut delivered = 0;
        let mut cycles = 0;
        while delivered < 10 {
            cycles += 1;
            let mut arrivals = Vec::new();
            link.tick(cycles, &mut arrivals);
            for (f, w) in arrivals {
                assert_eq!(f, 0);
                delivered += w;
            }
            assert!(cycles < 100, "link failed to drain");
        }
        // 10 words at 2/cycle = 5 grant cycles, plus 3 cycles latency.
        assert_eq!(cycles, 8);
        assert!(link.is_idle());
        assert_eq!(link.forwarded_words(), 10);
    }

    #[test]
    fn round_robin_is_fair_between_competing_flows() {
        let mut link = FabricLink::new(LinkClass::RocketIo, 1.0, 0, 2);
        link.offer(0, 50);
        link.offer(1, 50);
        let mut got = [0u64; 2];
        let mut arrivals = Vec::new();
        for now in 1..=40 {
            link.tick(now, &mut arrivals);
        }
        for (f, w) in arrivals {
            got[f] += w;
        }
        // One word per cycle, alternating: within a word of even.
        assert!(got[0].abs_diff(got[1]) <= 1, "{got:?}");
        assert_eq!(got[0] + got[1], 40);
    }

    #[test]
    fn skipping_dormant_cycles_changes_no_grant() {
        // Two links at a fractional rate: one ticked every cycle, one
        // only when it is not dormant. Offers land in bursts with idle
        // gaps long enough to saturate the credit in between.
        let mut every = FabricLink::new(LinkClass::RocketIo, 0.7, 2, 3);
        let mut lazy = FabricLink::new(LinkClass::RocketIo, 0.7, 2, 3);
        let (mut got_every, mut got_lazy) = (Vec::new(), Vec::new());
        for now in 1..=200u64 {
            if now % 37 == 1 {
                for link in [&mut every, &mut lazy] {
                    link.offer((now % 3) as usize, 4);
                    link.offer(((now + 1) % 3) as usize, 1);
                }
            }
            let mut arrivals = Vec::new();
            every.tick(now, &mut arrivals);
            got_every.push(arrivals);
            let mut arrivals = Vec::new();
            if !lazy.is_dormant_at(now) {
                lazy.tick(now, &mut arrivals);
            }
            got_lazy.push(arrivals);
        }
        assert_eq!(got_every, got_lazy);
        assert_eq!(every.report("l"), lazy.report("l"));
    }

    #[test]
    fn congestion_is_counted_only_while_backlogged() {
        let mut link = FabricLink::new(LinkClass::RocketIo, 1.0, 0, 1);
        link.offer(0, 4);
        let mut arrivals = Vec::new();
        for now in 1..=10 {
            link.tick(now, &mut arrivals);
        }
        let r = link.report("test");
        // 4 words at 1/cycle: backlogged for the first 3 post-grant
        // cycles, idle afterwards.
        assert_eq!(r.congestion_cycles, 3);
        assert_eq!(r.max_backlog_words, 4);
        assert_eq!(r.forwarded_words, 4);
    }
}
