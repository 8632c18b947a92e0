//! The tree-reduce stream design (paper §4.1–4.3), one datapath behind
//! dot, asum, row-major matrix-vector multiply and sparse `MvM`: k lanes
//! fire in lockstep on a group, an adder tree folds it, and the §4.3
//! reduction circuit accumulates the tree's output stream set by set.
//! The families differ only in where a group's words come from and how
//! it folds, so each supplies a [`GroupSource`] and all run as one
//! [`TreeRun`]: dot (two vector streams, one set), asum (one stream's
//! magnitudes, no backlog), row-major `MvM` (one set per row, a carried-in
//! partial in its own slot) and `SpMV` (one set per non-empty row, the
//! partial riding as its last entry).
//!
//! The multiplier bank and the tree are one delay line of latency
//! `mult_stages + lg(k)·adder_stages` carrying each group's balanced-tree
//! value, cycle- and bit-exact with the lane-by-lane hardware. The front
//! end stops issuing once two values wait at the reduction circuit, so
//! the backlog is a bounded [`Fifo`] of 2 + tree-latency entries; a push
//! past that bound panics in every build.
//!
//! `Replay` is the fused replay of a gapless feed (DESIGN.md §13): slot
//! g enters the front end at cycle g and reaches a never-stalling reducer
//! `latency` cycles later. It serves every [`TreeRun`] and the bare
//! reduction circuit (`reduce::run_sets_in`: latency 0, no front end).
//! The value fold and the stream depths stay per slot; the reducer
//! ticks per cycle until its schedule repeats set for set, and from
//! then on replays a whole set per period (`Reducer::replay_set`).

use crate::reduce::{ReduceEvent, ReduceInput, Reducer, SetReplay};
use crate::report::SimReport;
use fblas_sim::{
    flip_f64_bit, DelayLine, DepthRuns, Design, FaultKind, FaultSpec, Fifo, Harness, Probe,
    ProbeId, StallCause,
};

/// One feed slot: the value entering the tree and what the lanes issue.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// Set id, the group's balanced-tree value and the set's last flag.
    pub input: ReduceInput,
    /// Flops the lanes issue; `None` for a carried-in partial, which
    /// takes the slot without issuing an FP unit.
    pub flops: Option<u64>,
    /// Words each input stream delivers for the slot.
    pub words: usize,
}

/// Probe components of one tree-reduce run; `S` holds the stream ids.
#[derive(Debug, Clone, Copy)]
pub struct TreeIds<S> {
    /// The lockstep multiplier bank + adder tree.
    pub front_end: ProbeId,
    /// The input stream(s).
    pub streams: S,
    /// Tree outputs waiting for the reduction circuit, if exported.
    pub backlog: Option<ProbeId>,
    /// The reduction circuit.
    pub reducer: ProbeId,
    /// The reduction circuit's buffered words.
    pub reduction_buffer: ProbeId,
}

/// Where a tree-reduce run's groups come from: one per family.
pub trait GroupSource {
    /// The stream probe components.
    type Streams: Copy + AsRef<[ProbeId]>;
    /// Design name in reports and panics.
    const NAME: &'static str;
    /// The one result's latency is the whole run (dot, asum), not the
    /// cycles since its set's first slot.
    const WHOLE_RUN_LATENCY: bool = false;
    /// Whether the run models fault sites (tree, backlog, stream, reducer).
    const INJECTS: bool = true;

    /// Register the probe components, in the family's order.
    fn register(probe: &mut Probe) -> TreeIds<Self::Streams>;
    /// Advance the streams one cycle.
    fn tick(&mut self);
    /// Read toward the next slot this cycle: the words read and whether
    /// the slot is complete.
    fn arrive(&mut self) -> (u64, bool);
    /// The next slot in feed order (shared by stepping and replay).
    fn next(&mut self) -> Slot;
    /// Whether the exhausted front end stalls on Drain, given whether
    /// the backlog gate is open.
    fn drain_stall(open: bool) -> bool {
        open
    }
    /// Sample this cycle's stream words.
    fn sample_streams(&self, probe: &mut Probe, ids: Self::Streams);
    /// Fault hook: drop `beats` delivery beats of the first stream.
    fn fault_drop_beats(&mut self, _beats: u64) -> bool {
        false
    }
    /// Fault hook: flip `bit` of a staged input word, where the family's
    /// buffer faults land there instead of the backlog.
    fn fault_flip_buffer(&mut self, _slot: usize, _bit: u32) -> Option<bool> {
        None
    }
}

/// The static shape of one tree-reduce run.
#[derive(Debug, Clone, Copy)]
pub struct Feed {
    /// Front-end (multiplier bank + adder tree) latency in cycles.
    pub latency: usize,
    /// Feed slots in the run.
    pub slots: u64,
    /// Memory words the run reads.
    pub words: u64,
    /// Every slot fires the cycle it is tried (full-rate streams).
    pub gapless: bool,
}

/// What one tree-reduce run returns.
#[derive(Debug, Clone)]
pub struct TreeOutcome {
    /// One result per set id (initial values where no set ran).
    pub y: Vec<f64>,
    /// Cycle/flop/word accounting.
    pub report: SimReport,
    /// High-water mark of the reduction circuit's buffers.
    pub reduction_buffer_high_water: usize,
}

/// One in-flight tree-reduce computation as a harness [`Design`].
pub struct TreeRun<'a, S: GroupSource, R: Reducer> {
    source: S,
    tree: DelayLine<ReduceInput>,
    backlog: Fifo<ReduceInput>,
    reducer: &'a mut R,
    y: Vec<f64>,
    /// Run cycle each set's first slot entered the tree (latency base).
    set_start: Vec<u64>,
    /// The next slot opens a set.
    set_open: bool,
    feed: Feed,
    fed: u64,
    /// Sets fed through their last slot, and sets emitted.
    closed: usize,
    done: usize,
    limit: u64,
    ids: Option<TreeIds<S::Streams>>,
}

impl<'a, S: GroupSource, R: Reducer> TreeRun<'a, S, R> {
    /// Feed `source` through the front end into `reducer`; `y` holds one
    /// initial result per set id (those of sets with no slot are written
    /// back unchanged).
    pub fn new(source: S, feed: Feed, reducer: &'a mut R, y: Vec<f64>) -> Self {
        Self {
            limit: (feed.words + feed.slots + y.len() as u64 + 1024) * 32 + 200_000,
            set_start: vec![1; y.len()],
            source,
            tree: DelayLine::new(feed.latency),
            // The gate stops the front end at two waiting values, so only
            // the tree's in-flight contents can land on top of them.
            backlog: Fifo::new(2 + feed.latency),
            reducer,
            y,
            set_open: true,
            feed,
            fed: 0,
            closed: 0,
            done: 0,
            ids: None,
        }
    }

    /// Run to completion on `harness`.
    pub fn run_in(mut self, harness: &mut Harness) -> TreeOutcome {
        let report = harness.run(&mut self);
        let buffer = self.ids.expect("setup ran").reduction_buffer;
        TreeOutcome {
            y: self.y,
            report,
            reduction_buffer_high_water: harness.probe().high_water(buffer),
        }
    }
}

impl<S: GroupSource, R: Reducer> Design for TreeRun<'_, S, R> {
    fn name(&self) -> &str {
        S::NAME
    }

    fn setup(&mut self, probe: &mut Probe) {
        self.ids = Some(S::register(probe));
    }

    fn cycle(&mut self, probe: &mut Probe) {
        let ids = self.ids.expect("setup registered components");

        // Front end: a back-pressured reduction circuit stalls it.
        self.source.tick();
        let open = self.backlog.len() < 2;
        let mut tree_in = None;
        if self.fed == self.feed.slots {
            if S::drain_stall(open) {
                probe.stall(ids.front_end, StallCause::Drain);
            }
        } else if !open {
            probe.stall(ids.front_end, StallCause::OutputBackpressured);
        } else {
            let (words, ready) = self.source.arrive();
            probe.io_in(words);
            if ready {
                let slot = self.source.next();
                if let Some(flops) = slot.flops {
                    probe.busy(ids.front_end);
                    probe.flops(flops);
                }
                if self.set_open && !S::WHOLE_RUN_LATENCY {
                    self.set_start[slot.input.set_id as usize] = probe.run_cycle();
                }
                self.set_open = slot.input.last;
                self.closed += usize::from(self.set_open);
                self.fed += 1;
                tree_in = Some(slot.input);
            } else {
                probe.stall(ids.front_end, StallCause::InputStarved);
            }
        }

        // Adder tree latency. The push must always succeed: a full
        // backlog here would mean the gate let the tree run ahead of its
        // claimed bound.
        if let Some(out) = self.tree.step(tree_in) {
            self.backlog
                .try_push(out)
                .expect("backlog exceeded its 2 + tree-latency bound");
        }

        // Reduction circuit consumes the tree's output stream.
        let red_in = self.reducer.ready().then(|| self.backlog.pop()).flatten();
        if red_in.is_some() {
            probe.busy(ids.reducer);
        } else if self.fed == self.feed.slots {
            probe.stall(ids.reducer, StallCause::Drain);
        } else if !self.backlog.is_empty() {
            probe.stall(ids.reducer, StallCause::OutputBackpressured);
        }
        if let Some(ev) = self.reducer.tick(red_in) {
            self.y[ev.set_id as usize] = ev.value;
            self.done += 1;
            probe.io_out(1);
            // Completion latency: emission cycle minus the cycle the
            // set's first slot entered the tree, inclusive.
            let start = self.set_start[ev.set_id as usize];
            probe.latency(ids.reducer, probe.run_cycle() - start + 1);
        }

        if let Some(id) = ids.backlog {
            self.backlog.probe_occupancy(probe, id);
        }
        probe.sample_depth(ids.reduction_buffer, self.reducer.buffered());
        self.source.sample_streams(probe, ids.streams);
    }

    fn drain(&mut self, probe: &mut Probe) {
        // Sets that bypass the datapath (SpMV's empty rows) still write
        // their result back to memory.
        probe.io_out((self.y.len() - self.done) as u64);
    }

    fn done(&self) -> bool {
        self.fed == self.feed.slots && self.done == self.closed
    }

    fn cycle_limit(&self) -> u64 {
        self.limit
    }

    fn progress(&self) -> Option<u64> {
        Some(self.fed + self.reducer.adds_issued() + self.done as u64)
    }

    /// Fused replay (DESIGN.md §13), sound only for a gapless source
    /// (slot g fires at cycle g) and a reducer that never back-pressures
    /// (the backlog is then empty at every sample point). Anything else —
    /// a fractional stream rate, a stalling ablation reducer — declines
    /// to stepping, as does a run with no slots (zero stepped cycles).
    fn fast_forward(&mut self, probe: &mut Probe) -> u64 {
        let f = self.feed.slots;
        if f == 0 || !self.feed.gapless || !self.reducer.never_stalls() {
            return 0;
        }
        assert!(self.fed == 0, "fast_forward requires fresh run state");
        let ids = self.ids.expect("setup registered components");
        let replay = Replay {
            name: S::NAME,
            latency: self.feed.latency as u64,
            limit: self.limit,
            slots: f,
            sets: self.y.len(),
            front_end: Some(ids.front_end),
            streams: ids.streams.as_ref(),
            reducer: ids.reducer,
            reduction_buffer: ids.reduction_buffer,
        };
        let (source, y, done) = (&mut self.source, &mut self.y, &mut self.done);
        let t = replay.run(
            probe,
            &mut *self.reducer,
            || source.next(),
            |ev| {
                y[ev.set_id as usize] = ev.value;
                *done += 1;
            },
        );
        (self.fed, self.closed) = (f, self.done);
        probe.io_in(self.feed.words);
        probe.io_out(self.done as u64);
        if S::drain_stall(true) {
            probe.record_stalls_at(ids.front_end, StallCause::Drain, f + 1, t - f);
        }
        if let Some(id) = ids.backlog {
            probe.record_depths_at(id, 0, 1, t);
        }
        t
    }

    fn inject(&mut self, fault: &FaultSpec) -> bool {
        if !S::INJECTS {
            return false;
        }
        match fault.kind {
            FaultKind::PipelineBitFlip { stage, bit } => self
                .tree
                .fault_mutate(stage, |i| i.value = flip_f64_bit(i.value, bit)),
            FaultKind::BufferBitFlip { slot, bit } => {
                match self.source.fault_flip_buffer(slot, bit) {
                    Some(landed) => landed,
                    None => self
                        .backlog
                        .fault_mutate(slot, |i| i.value = flip_f64_bit(i.value, bit)),
                }
            }
            FaultKind::ChannelStall { beats } => self.source.fault_drop_beats(beats),
            FaultKind::StuckAtZero { slot, bit } => self.reducer.fault_stuck_at(slot, bit),
        }
    }
}

/// The gapless single-reducer schedule (DESIGN.md §13): slot g (1-based)
/// enters the front end at cycle g and reaches the reduction circuit
/// `latency` cycles later, with no backlog in between.
pub(crate) struct Replay<'a> {
    /// Design name and cycle limit, for the cycle-limit panic.
    pub(crate) name: &'static str,
    pub(crate) limit: u64,
    /// Front-end latency and feed slots (at least one).
    pub(crate) latency: u64,
    pub(crate) slots: u64,
    /// Bound on the set ids.
    pub(crate) sets: usize,
    /// The probe components; the bare reduction circuit has no front
    /// end and no streams.
    pub(crate) front_end: Option<ProbeId>,
    pub(crate) streams: &'a [ProbeId],
    pub(crate) reducer: ProbeId,
    pub(crate) reduction_buffer: ProbeId,
}

impl Replay<'_> {
    /// Feed the reduction circuit `next()` on the cycle each slot leaves
    /// the front end, until every set is emitted (each through `emit`).
    /// A circuit in a repeating steady state advances a whole set per
    /// [`Reducer::replay_set`]; otherwise, and through the fill and the
    /// drain, it ticks once per cycle. Records the flops, the busy
    /// cycles, the front-end and reducer busy marks, the reducer's drain
    /// stalls, the stream rates, the reduction-buffer depths and each
    /// set's latency; returns the run's cycle count. I/O words,
    /// front-end stalls and other components are the caller's.
    pub(crate) fn run<R: Reducer + ?Sized>(
        &self,
        probe: &mut Probe,
        reducer: &mut R,
        mut next: impl FnMut() -> Slot,
        mut emit: impl FnMut(ReduceEvent),
    ) -> u64 {
        let (l, f) = (self.latency, self.slots);
        let mut w = Walk {
            replay: self,
            set_start: vec![0; self.sets],
            set_open: true,
            closed: 0,
            emitted: 0,
            flops: 0,
            fire_from: 1,
            buffer: DepthRuns::new(self.reduction_buffer),
            streams: self.streams.iter().map(|&id| DepthRuns::new(id)).collect(),
            words: 0,
            t: 0,
        };
        // The circuit idles until the first slot leaves the front end.
        for _ in 0..l {
            w.tick(probe, reducer, None, &mut emit);
        }
        let mut set = Vec::new();
        let mut g = 0;
        while g < f {
            let len = if w.set_open {
                reducer.set_boundary()
            } else {
                None
            };
            let Some(len) = len else {
                g += 1;
                let slot = next();
                w.enter(probe, &slot, g);
                w.tick(probe, reducer, Some(slot.input), &mut emit);
                continue;
            };
            // Take the next set whole if it is `len` slots long.
            set.clear();
            while set.len() < len && g < f {
                g += 1;
                let slot = next();
                w.enter(probe, &slot, g);
                set.push(slot.input);
                if slot.input.last {
                    break;
                }
            }
            let whole = set.len() == len && set.last().is_some_and(|i| i.last);
            match whole.then(|| reducer.replay_set(&set)).flatten() {
                Some(period) => w.replayed(probe, &period, len as u64, &mut emit),
                None => {
                    for &input in &set {
                        w.tick(probe, reducer, Some(input), &mut emit);
                    }
                }
            }
        }
        while w.emitted < w.closed {
            w.tick(probe, reducer, None, &mut emit);
        }
        w.finish(probe)
    }

    /// The front end fired on slots `from..to`: its busy marks, and the
    /// busy cycles before the reducer's first input (from then on every
    /// cycle is busy until the last slot reaches the reducer).
    fn fires(&self, probe: &mut Probe, from: u64, to: u64) {
        let Some(front_end) = self.front_end else {
            return;
        };
        if to > from {
            probe.record_busy_marks_at(front_end, from, to - from);
            probe.record_busy_cycles_at(from, to.min(self.latency + 1).saturating_sub(from));
        }
    }
}

/// One gapless replay in progress: the feed's accounting by slot and the
/// reduction circuit's by cycle.
struct Walk<'r, 'a> {
    replay: &'r Replay<'a>,
    /// Slot each set's first slot entered the front end (latency base).
    set_start: Vec<u64>,
    /// The next slot opens a set.
    set_open: bool,
    /// Sets fed through their last slot, and sets emitted.
    closed: u64,
    emitted: u64,
    flops: u64,
    /// First slot of the current run of firing slots.
    fire_from: u64,
    buffer: DepthRuns,
    streams: Vec<DepthRuns>,
    words: u64,
    /// Cycles so far.
    t: u64,
}

impl Walk<'_, '_> {
    /// Slot `g` (1-based) enters the front end.
    fn enter(&mut self, probe: &mut Probe, slot: &Slot, g: u64) {
        if self.set_open {
            self.set_start[slot.input.set_id as usize] = g;
        }
        self.set_open = slot.input.last;
        self.closed += u64::from(self.set_open);
        match slot.flops {
            Some(n) => self.flops += n,
            None => {
                self.replay.fires(probe, self.fire_from, g);
                self.fire_from = g + 1;
            }
        }
        for runs in &mut self.streams {
            runs.push(probe, slot.words);
        }
        self.words += slot.words as u64;
    }

    /// Advance the clock by `n` cycles, within the cycle limit.
    fn advance(&mut self, n: u64) {
        self.t += n;
        assert!(
            self.t < self.replay.limit,
            "{}: simulation exceeded cycle limit {}",
            self.replay.name,
            self.replay.limit
        );
    }

    /// Set `ev` left the reduction circuit at cycle `t`.
    fn emit(
        &mut self,
        probe: &mut Probe,
        t: u64,
        ev: ReduceEvent,
        emit: &mut impl FnMut(ReduceEvent),
    ) {
        self.emitted += 1;
        let start = self.set_start[ev.set_id as usize];
        probe.latency(self.replay.reducer, t - start + 1);
        emit(ev);
    }

    /// One stepped cycle of the reduction circuit.
    fn tick<R: Reducer + ?Sized>(
        &mut self,
        probe: &mut Probe,
        reducer: &mut R,
        input: Option<ReduceInput>,
        emit: &mut impl FnMut(ReduceEvent),
    ) {
        self.advance(1);
        if let Some(ev) = reducer.tick(input) {
            self.emit(probe, self.t, ev, emit);
        }
        self.buffer.push(probe, reducer.buffered());
    }

    /// A whole set of `len` cycles advanced by one replayed period.
    fn replayed(
        &mut self,
        probe: &mut Probe,
        period: &SetReplay,
        len: u64,
        emit: &mut impl FnMut(ReduceEvent),
    ) {
        let t0 = self.t;
        self.advance(len);
        for &(at, ev) in period.emitted {
            self.emit(probe, t0 + at, ev, emit);
        }
        for &(words, n) in period.depths {
            self.buffer.push_n(probe, words, n);
        }
    }

    /// Land the run's batched counters; returns its cycle count.
    fn finish(self, probe: &mut Probe) -> u64 {
        let (r, t) = (self.replay, self.t);
        let (l, f) = (r.latency, r.slots);
        self.buffer.finish(probe);
        // The streams idle through the drain.
        for (mut runs, &id) in self.streams.into_iter().zip(r.streams) {
            runs.push_n(probe, 0, t - f);
            runs.finish(probe);
            probe.record_rate_base(id, self.words);
        }
        r.fires(probe, self.fire_from, f + 1);
        probe.flops(self.flops);
        probe.record_busy_marks_at(r.reducer, l + 1, f);
        probe.record_busy_cycles_at(l + 1, f);
        // The reducer idles once the front end is exhausted: before the
        // last slot arrives (a front end deeper than the feed) and after.
        if f <= l {
            probe.record_stalls_at(r.reducer, StallCause::Drain, f, l - f + 1);
        }
        probe.record_stalls_at(r.reducer, StallCause::Drain, f + l + 1, t - f - l);
        t
    }
}
