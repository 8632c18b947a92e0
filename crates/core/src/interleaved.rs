//! The interleaved-accumulator design (paper §4.2, §5.1), one datapath
//! behind column-major matrix-vector multiply and the linear-array
//! multiplier's block: k lanes fire a batch of products in lockstep, and
//! each product's add updates one cell of an on-chip store. A cell is
//! updated again only after its previous add has left the α-deep adder
//! (n/k ≥ α for `MvM`, m²/k ≥ α for the block), so no reduction circuit
//! is needed. Each family supplies a [`MacSource`]: column-major `MvM`
//! (one chunk of a column of A times its x word, y written at adder
//! retire) and the block (PE p's residency schedule, C′ written at add
//! issue). The multiplier and adder are two delay lines of batches, and a
//! lock marks every cell with an add in flight; a retired batch's buffer
//! carries the next fire, so stepping allocates nothing in steady state.
//!
//! The fused replay (DESIGN.md §13) serves every gapless run: batch f
//! fires at cycle f, issues at f+M and retires at f+M+α, so every busy
//! span, stall span and add-pipe depth lands in closed form. Only the
//! value fold stays per family.

use crate::report::SimReport;
use fblas_sim::{
    flip_f64_bit, DelayLine, Design, FaultKind, FaultSpec, Harness, Probe, ProbeId, StallCause,
};

/// One pipeline batch: (accumulator cell, product or sum) per lane.
pub(crate) type MacBatch = Vec<(usize, f64)>;

/// Probe components of one interleaved run; `S` holds the stream ids.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MacIds<S> {
    /// The multiplier bank's issue (the front end).
    pub(crate) front_end: ProbeId,
    /// The accumulating adders.
    pub(crate) lanes: ProbeId,
    /// The adder pipeline's fill.
    pub(crate) add_pipe: ProbeId,
    /// The family's input streams.
    pub(crate) streams: S,
}

/// Where an interleaved run's products come from and where its sums
/// land: one per family.
pub(crate) trait MacSource {
    /// The stream probe components.
    type Streams: Copy;
    /// Design name in reports and panics.
    const NAME: &'static str;
    /// Idle lanes stall: on `HazardWindow` while adds are in flight, then
    /// on `Drain` once the front end is exhausted.
    const IDLE_STALLS: bool;
    /// A pipeline fault on a multiplier bubble tries the adder instead.
    const FLIP_ADDER: bool;

    /// Register the probe components, in the family's order.
    fn register(&mut self, probe: &mut Probe) -> MacIds<Self::Streams>;
    /// Push this cycle's (cell, product) pairs onto the empty `batch`,
    /// or leave it empty and return the front end's stall cause.
    fn fire(&mut self, probe: &mut Probe, batch: &mut MacBatch) -> Option<StallCause>;
    /// Add issue: the value the adder carries for `cell`. `hazard`: the
    /// cell's previous add is still in the adder.
    fn issue(&mut self, cell: usize, product: f64, hazard: bool) -> f64;
    /// The add of `cell` leaves the adder carrying `value`.
    fn retire(&mut self, _cell: usize, _value: f64) {}
    /// Sample this cycle's stream words.
    fn sample_streams(&self, _probe: &mut Probe, _streams: Self::Streams) {}
    /// Fused replay of a `total`-cycle run: fold every product into the
    /// store and record the family's I/O words and stream depths.
    fn replay(&mut self, probe: &mut Probe, streams: Self::Streams, total: u64);
    /// Fault hook: flip `bit` of a buffered word.
    fn fault_flip_buffer(&mut self, slot: usize, bit: u32) -> bool;
    /// Fault hook: drop `beats` delivery beats of the input stream.
    fn fault_drop_beats(&mut self, _beats: u64) -> bool {
        false
    }
    /// Fault hook: clear `bit` of an accumulator cell.
    fn fault_stuck_at(&mut self, slot: usize, bit: u32) -> bool;
}

/// The static shape of one interleaved run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    /// Multiplier and adder pipeline depths.
    pub(crate) mult_stages: usize,
    pub(crate) adder_stages: usize,
    /// Accumulator cells (the hazard lock's width).
    pub(crate) cells: usize,
    /// Cycles on which the front end fires a batch.
    pub(crate) batches: u64,
    /// Products, each one accumulator write.
    pub(crate) products: u64,
    /// Completion-latency samples (per batch or per product).
    pub(crate) latencies: u64,
    /// Result words written back at the end of the run.
    pub(crate) words_out: u64,
    /// The front end fires on cycles 1..=batches and no add meets an
    /// in-flight cell: the fused replay's precondition.
    pub(crate) gapless: bool,
}

/// One in-flight interleaved-accumulator computation as a harness
/// [`Design`].
pub(crate) struct InterleavedRun<S: MacSource> {
    source: S,
    shape: Shape,
    mult: DelayLine<MacBatch>,
    adder: DelayLine<MacBatch>,
    /// Hazard lock: cells with an add in the adder.
    in_flight: Vec<bool>,
    /// A retired batch's buffer, reused by the next fire.
    spare: MacBatch,
    fired: u64,
    writes_done: u64,
    ids: Option<MacIds<S::Streams>>,
}

impl<S: MacSource> InterleavedRun<S> {
    /// Feed `source`'s products through the lanes of `shape`.
    pub(crate) fn new(source: S, shape: Shape) -> Self {
        Self {
            source,
            mult: DelayLine::new(shape.mult_stages),
            adder: DelayLine::new(shape.adder_stages),
            in_flight: vec![false; shape.cells],
            spare: Vec::new(),
            fired: 0,
            writes_done: 0,
            shape,
            ids: None,
        }
    }

    /// Run to completion on `harness`; the source holds the results.
    pub(crate) fn run_in(mut self, harness: &mut Harness) -> (SimReport, S) {
        let report = harness.run(&mut self);
        (report, self.source)
    }
}

impl<S: MacSource> Design for InterleavedRun<S> {
    fn name(&self) -> &str {
        S::NAME
    }

    fn setup(&mut self, probe: &mut Probe) {
        self.ids = Some(self.source.register(probe));
    }

    fn cycle(&mut self, probe: &mut Probe) {
        let ids = self.ids.expect("setup registered components");

        // Adds leaving the adder retire before this cycle's reads
        // (same-edge visibility) and release their cells.
        if let Some(batch) = self.adder.peek() {
            for &(cell, value) in batch {
                self.in_flight[cell] = false;
                self.source.retire(cell, value);
            }
            self.writes_done += batch.len() as u64;
        }

        // Front end: this cycle's products.
        let mut batch = std::mem::take(&mut self.spare);
        batch.clear();
        let mult_in = match self.source.fire(probe, &mut batch) {
            Some(cause) => {
                probe.stall(ids.front_end, cause);
                self.spare = batch;
                None
            }
            None => {
                probe.busy(ids.front_end);
                probe.flops(batch.len() as u64);
                self.fired += 1;
                Some(batch)
            }
        };

        // Products leaving the multipliers read their cell and issue the
        // accumulating adds.
        let mut hazard = false;
        let add_in = self.mult.step(mult_in).map(|mut batch| {
            for mac in &mut batch {
                let locked = std::mem::replace(&mut self.in_flight[mac.0], true);
                hazard |= locked;
                mac.1 = self.source.issue(mac.0, mac.1, locked);
            }
            batch
        });
        let issued = add_in.as_ref().map_or(0, Vec::len);
        if let Some(retired) = self.adder.step(add_in) {
            self.spare = retired;
        }
        if issued > 0 {
            probe.busy(ids.lanes);
            probe.flops(issued as u64);
        } else if S::IDLE_STALLS && !self.adder.is_empty() {
            probe.stall(ids.lanes, StallCause::HazardWindow);
        } else if S::IDLE_STALLS && self.fired == self.shape.batches {
            probe.stall(ids.lanes, StallCause::Drain);
        }
        if hazard {
            // A forwarded hazard marks the window it bit.
            probe.stall(ids.lanes, StallCause::HazardWindow);
        }

        self.adder.probe_occupancy(probe, ids.add_pipe);
        self.source.sample_streams(probe, ids.streams);
    }

    /// Fused replay (DESIGN.md §13) of a gapless run, exactly F+M+α
    /// cycles. No add meets an in-flight cell, so each cell takes its
    /// updates in fire order and the source folds the values in one
    /// pass; the counters land as the stepped run's positioned spans.
    fn fast_forward(&mut self, probe: &mut Probe) -> u64 {
        if !self.shape.gapless {
            return 0;
        }
        assert!(self.fired == 0, "fast_forward needs a fresh run");
        let ids = self.ids.expect("setup registered components");
        let (f, products) = (self.shape.batches, self.shape.products);
        let (m, alpha) = (self.mult.latency() as u64, self.adder.latency() as u64);
        let total = f + m + alpha;
        self.source.replay(probe, ids.streams, total);
        (self.fired, self.writes_done) = (f, products);

        // The front end fires on 1..=F, the lanes issue on M+1..=M+F.
        probe.flops(2 * products);
        probe.record_busy_cycles_at(1, f);
        probe.record_busy_cycles_at(f.max(m) + 1, f.min(m));
        probe.record_busy_marks_at(ids.front_end, 1, f);
        probe.record_busy_marks_at(ids.lanes, m + 1, f);
        probe.record_stalls_at(ids.front_end, StallCause::Drain, f + 1, total - f);
        if S::IDLE_STALLS {
            // Adds in flight lock the idle lanes after the last issue;
            // they idle on Drain from the front end's last fire until
            // they issue, and on the final cycle.
            let last = f + m;
            probe.record_stalls_at(ids.lanes, StallCause::HazardWindow, last + 1, alpha - 1);
            if f <= m {
                probe.record_stalls_at(ids.lanes, StallCause::Drain, f, m - f + 1);
            }
            probe.record_stalls_at(ids.lanes, StallCause::Drain, total, 1);
        }
        // Adder fill after cycle t counts the batches that entered on
        // cycles (t − α, t] ∩ (M, M + F]: 0 for M cycles, a ramp up to
        // min(α, F), a plateau through t = M + max(α, F), a ramp down.
        let plateau = alpha.min(f);
        let mut at = 1;
        for (depth, n) in std::iter::once((0, m))
            .chain((1..plateau).map(|d| (d, 1)))
            .chain(std::iter::once((plateau, alpha.max(f) - plateau + 1)))
            .chain((0..plateau).rev().map(|d| (d, 1)))
        {
            probe.record_depths_at(ids.add_pipe, depth as usize, at, n);
            at += n;
        }
        assert_eq!(at, total + 1, "{}: add-pipe runs cover the run", S::NAME);
        total
    }

    fn drain(&mut self, probe: &mut Probe) {
        probe.io_out(self.shape.words_out);
        // Every product transits multiplier and adder in exactly M + α
        // cycles whatever the feed rate, stepped or replayed.
        let ids = self.ids.expect("setup registered components");
        let transit = (self.shape.mult_stages + self.shape.adder_stages) as u64;
        probe.record_latencies(ids.lanes, transit, self.shape.latencies);
    }

    fn done(&self) -> bool {
        self.writes_done >= self.shape.products
    }

    fn cycle_limit(&self) -> u64 {
        (self.shape.products + 1024) * 8 + 200_000
    }

    fn progress(&self) -> Option<u64> {
        Some(self.fired + self.writes_done)
    }

    fn inject(&mut self, fault: &FaultSpec) -> bool {
        match fault.kind {
            FaultKind::PipelineBitFlip { stage, bit } => {
                let flip = |batch: &mut MacBatch| {
                    if let Some(mac) = batch.first_mut() {
                        mac.1 = flip_f64_bit(mac.1, bit);
                    }
                };
                self.mult.fault_mutate(stage, flip)
                    || (S::FLIP_ADDER && self.adder.fault_mutate(stage, flip))
            }
            FaultKind::BufferBitFlip { slot, bit } => self.source.fault_flip_buffer(slot, bit),
            FaultKind::ChannelStall { beats } => self.source.fault_drop_beats(beats),
            FaultKind::StuckAtZero { slot, bit } => self.source.fault_stuck_at(slot, bit),
        }
    }
}
