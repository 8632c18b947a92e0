//! Reduction circuits: accumulating sequentially delivered floating-point
//! values on a deeply pipelined adder (paper §4.3).
//!
//! Dot product and matrix-vector multiply both end in an accumulation of
//! values that arrive one per cycle. With an α-stage pipelined adder,
//! naive sequential accumulation creates a read-after-write hazard: the
//! running sum is not available for α cycles after each add. The circuits
//! here resolve that hazard in different ways:
//!
//! | circuit | adders | buffer | input sets | stalls input? |
//! |---|---|---|---|---|
//! | [`SingleAdderReducer`] (proposed, §4.3) | 1 | 2·α² | any sizes | never |
//! | [`Pow2Reducer`] (RAW'05 \[28\]) | 1 | Θ(lg s) | powers of two only | never |
//! | [`StallingReducer`] (naive baseline) | 1 | O(1) | any sizes | α cycles per add |
//! | [`KoggeTreeReducer`] \[15\] | lg s | O(lg s) | padded to 2ᵏ | during padding |
//! | [`NiHwangReducer`] \[21\] | 1 | α | any sizes | between sets |
//! | [`TwoAdderReducer`] (FCCM'05 \[19\]) | 2 | Θ(α·lg α) | any sizes | never |
//!
//! All circuits consume a stream of [`ReduceInput`]s — `(set_id, value,
//! last)` triples delivered in set order — and emit one [`ReduceEvent`]
//! per completed set. The [`run_sets`] driver feeds a workload, honours
//! each circuit's `ready()` back-pressure, and measures exactly the
//! quantities the paper argues about: total cycles, stall cycles, buffer
//! high-water marks and adder counts.
//!
//! Numerical note: every circuit re-associates the additions of a set, so
//! different circuits may round differently; all are exact whenever the
//! values sum without rounding (e.g. small integers), which is what the
//! equivalence tests use.

mod kogge;
mod ni_hwang;
mod pow2;
mod single_adder;
mod stalling;
mod two_adder;

use crate::tree_reduce::{Replay, Slot};
use fblas_sim::{Design, Harness, Probe, StallCause};

pub use kogge::KoggeTreeReducer;
pub use ni_hwang::NiHwangReducer;
pub use pow2::Pow2Reducer;
pub use single_adder::SingleAdderReducer;
pub use stalling::StallingReducer;
pub use two_adder::TwoAdderReducer;

/// One element of the sequential input stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReduceInput {
    /// Which input set this value belongs to. Sets are delivered in order
    /// and never interleaved (the architectures produce one row/dot at a
    /// time).
    pub set_id: u64,
    /// The value to accumulate.
    pub value: f64,
    /// True on the final value of the set.
    pub last: bool,
}

/// A completed reduction: the sum of every value of `set_id`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReduceEvent {
    /// The set that finished.
    pub set_id: u64,
    /// Its accumulated sum.
    pub value: f64,
}

/// A cycle-stepped reduction circuit.
pub trait Reducer {
    /// Circuit name for reports.
    fn name(&self) -> &'static str;

    /// Number of floating-point adders the circuit instantiates.
    fn adders(&self) -> usize;

    /// True if the circuit can accept an input value *this* cycle.
    /// The proposed circuit always returns true — its headline property.
    fn ready(&self) -> bool;

    /// True if [`Reducer::ready`] is *constantly* true — the circuit
    /// never back-pressures its input stream — and its cycle-by-cycle
    /// schedule is value-independent. Opting in (the proposed §4.3
    /// circuit does) lets owning designs fast-forward their streaming
    /// phase under `ExecBackend::Native`: with no
    /// back-pressure possible, the feed schedule is a closed form and
    /// the backlog FIFO is provably empty every cycle. The conservative
    /// default keeps every other circuit on the cycle-stepped path.
    fn never_stalls(&self) -> bool {
        false
    }

    /// Advance one clock cycle, optionally consuming one input (only legal
    /// when [`Reducer::ready`] returned true) and possibly emitting one
    /// completed set.
    fn tick(&mut self, input: Option<ReduceInput>) -> Option<ReduceEvent>;

    /// True once every accepted set has been reduced and emitted.
    fn is_done(&self) -> bool;

    /// Elapsed cycles.
    fn cycles(&self) -> u64;

    /// Total additions issued so far.
    fn adds_issued(&self) -> u64;

    /// Highest number of buffered words observed (excludes values inside
    /// the adder pipelines and the one-per-cycle output port).
    fn buffer_high_water(&self) -> usize;

    /// Words currently buffered (same accounting as
    /// [`Reducer::buffer_high_water`]), so the owning design can sample
    /// the circuit's occupancy into a probe every cycle.
    fn buffered(&self) -> usize;

    /// Periodic-replay hook of the gapless replay (DESIGN.md §13),
    /// called at every set boundary of a back-to-back feed (one input
    /// per cycle): the length of the next set that
    /// [`Reducer::replay_set`] can replay from here, once the circuit's
    /// schedule repeats set for set. The default never replays.
    fn set_boundary(&mut self) -> Option<usize> {
        None
    }

    /// Advance through `set` — the whole next set, of the length
    /// [`Reducer::set_boundary`] just returned, one input per cycle —
    /// without ticking, leaving the circuit and its counters as that
    /// many ticks would. Returns the sets emitted and the buffered
    /// words per cycle, or `None` (nothing advanced) when the set does
    /// not replay; the caller then ticks it.
    fn replay_set(&mut self, _set: &[ReduceInput]) -> Option<SetReplay<'_>> {
        None
    }

    /// Fault-injection hook: force `bit` of one buffered word to zero,
    /// modelling a stuck-at-0 storage cell in the circuit's buffers. The
    /// `slot` selects among currently buffered words (reduced modulo the
    /// occupancy, implementation-defined ordering). Returns false when
    /// the circuit buffers nothing injectable this cycle — the fault is
    /// architecturally masked. The default is a circuit with no exposed
    /// storage: every such fault is masked.
    ///
    /// Only call this from a [`Design::inject`] implementation (enforced
    /// by the `fault-hook-purity` DRC rule).
    fn fault_stuck_at(&mut self, _slot: usize, _bit: u32) -> bool {
        false
    }
}

/// One set advanced by [`Reducer::replay_set`].
#[derive(Debug)]
pub struct SetReplay<'a> {
    /// Sets emitted, each with its cycle in the replayed set (1-based).
    pub emitted: &'a [(u64, ReduceEvent)],
    /// Buffered words per cycle, as (words, cycles) runs.
    pub depths: &'a [(usize, u64)],
}

/// Measured outcome of driving a workload through a reduction circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionRun {
    /// `(set_id, sum)` in completion order.
    pub results: Vec<ReduceEvent>,
    /// Cycles from first input until the final set emerged.
    pub total_cycles: u64,
    /// Cycles in which an input was available but the circuit refused it.
    pub stall_cycles: u64,
    /// Peak buffered words.
    pub buffer_high_water: usize,
    /// Total additions issued.
    pub adds_issued: u64,
}

/// The [`Design`] wrapper that feeds a reduction workload into a circuit
/// at one value per cycle (when accepted), honouring `ready()`
/// back-pressure.
struct ReduceFeed<'a, R: Reducer> {
    reducer: &'a mut R,
    /// Every input in feed order; the first `consumed` were accepted.
    inputs: Vec<ReduceInput>,
    consumed: usize,
    n_sets: usize,
    results: Vec<ReduceEvent>,
    stall_cycles: u64,
    /// Run cycle each set's first value was accepted (latency base).
    set_start: Vec<u64>,
    limit: u64,
    ids: Option<(fblas_sim::ProbeId, fblas_sim::ProbeId)>,
}

impl<R: Reducer> Design for ReduceFeed<'_, R> {
    fn name(&self) -> &str {
        self.reducer.name()
    }

    fn setup(&mut self, probe: &mut Probe) {
        let circuit = probe.component("reduce/circuit");
        let buffer = probe.component("reduce/buffer");
        self.ids = Some((circuit, buffer));
    }

    fn cycle(&mut self, probe: &mut Probe) {
        let (circuit, buffer) = self.ids.expect("setup registered components");
        let pending = self.inputs.get(self.consumed).copied();
        let feed = if pending.is_some() && self.reducer.ready() {
            self.consumed += 1;
            pending
        } else {
            if pending.is_some() {
                self.stall_cycles += 1;
                probe.stall(circuit, StallCause::OutputBackpressured);
            } else {
                probe.stall(circuit, StallCause::Drain);
            }
            None
        };
        if let Some(i) = &feed {
            probe.busy(circuit);
            let idx = i.set_id as usize;
            if self.set_start[idx] == 0 {
                self.set_start[idx] = probe.run_cycle();
            }
        }
        if let Some(ev) = self.reducer.tick(feed) {
            // Set completion latency: emission cycle minus the cycle the
            // set's first value was accepted, inclusive.
            let rc = probe.run_cycle();
            probe.latency(circuit, rc - self.set_start[ev.set_id as usize] + 1);
            self.results.push(ev);
        }
        probe.sample_depth(buffer, self.reducer.buffered());
    }

    fn done(&self) -> bool {
        self.results.len() >= self.n_sets
    }

    fn cycle_limit(&self) -> u64 {
        self.limit
    }

    fn progress(&self) -> Option<u64> {
        Some(self.consumed as u64 + self.reducer.adds_issued() + self.results.len() as u64)
    }

    /// Fused replay (DESIGN.md §13): the tree-reduce schedule with no
    /// front end and latency 0 — input i is accepted at cycle i, which
    /// holds whenever the circuit never back-pressures.
    fn fast_forward(&mut self, probe: &mut Probe) -> u64 {
        if self.inputs.is_empty() || !self.reducer.never_stalls() {
            return 0;
        }
        let (circuit, buffer) = self.ids.expect("setup registered components");
        let replay = Replay {
            name: self.reducer.name(),
            latency: 0,
            limit: self.limit,
            slots: self.inputs.len() as u64,
            sets: self.n_sets,
            front_end: None,
            streams: &[],
            reducer: circuit,
            reduction_buffer: buffer,
        };
        let mut feed = self.inputs.iter();
        let next = || Slot {
            input: *feed.next().expect("one input per slot"),
            flops: None,
            words: 1,
        };
        let results = &mut self.results;
        let t = replay.run(probe, &mut *self.reducer, next, |ev| results.push(ev));
        self.consumed = self.inputs.len();
        t
    }
}

/// Feed `sets` through a reducer at one value per cycle (when accepted)
/// and run until completion, through a locally owned [`Harness`].
///
/// # Panics
/// Panics if any set is empty, or if the circuit fails to finish within a
/// generous cycle budget (which would mean a livelocked schedule).
pub fn run_sets<R: Reducer>(r: &mut R, sets: &[Vec<f64>]) -> ReductionRun {
    run_sets_in(&mut Harness::new(), r, sets)
}

/// [`run_sets`] through a caller-supplied harness, so the workload's
/// stall attribution and buffer occupancy land in the caller's probe.
pub fn run_sets_in<R: Reducer>(h: &mut Harness, r: &mut R, sets: &[Vec<f64>]) -> ReductionRun {
    let total_inputs: u64 = sets.iter().map(|s| s.len() as u64).sum();
    for (i, s) in sets.iter().enumerate() {
        assert!(!s.is_empty(), "set {i} is empty; sets must have s_i >= 1");
    }

    let inputs: Vec<ReduceInput> = sets
        .iter()
        .enumerate()
        .flat_map(|(id, s)| {
            let n = s.len();
            s.iter().enumerate().map(move |(j, &v)| ReduceInput {
                set_id: id as u64,
                value: v,
                last: j + 1 == n,
            })
        })
        .collect();
    let mut feed = ReduceFeed {
        reducer: r,
        inputs,
        consumed: 0,
        n_sets: sets.len(),
        results: Vec::with_capacity(sets.len()),
        stall_cycles: 0,
        set_start: vec![0; sets.len()],
        // Generous budget: even the stalling baseline needs only ~α cycles
        // per input plus a drain tail.
        limit: total_inputs * 64 + 100_000,
        ids: None,
    };
    let report = h.run(&mut feed);

    assert!(
        feed.reducer.is_done(),
        "{}: results complete but circuit not idle",
        feed.reducer.name()
    );

    ReductionRun {
        results: feed.results,
        total_cycles: report.cycles,
        stall_cycles: feed.stall_cycles,
        buffer_high_water: feed.reducer.buffer_high_water(),
        adds_issued: feed.reducer.adds_issued(),
    }
}

/// Reference sums computed in plain sequential order, for test oracles.
pub fn reference_sums(sets: &[Vec<f64>]) -> Vec<f64> {
    sets.iter().map(|s| s.iter().sum()).collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    /// Workload of sets whose values are small integers, so every
    /// association of the additions yields the identical exact sum.
    pub fn integer_sets(sizes: &[usize]) -> Vec<Vec<f64>> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (0..s).map(|j| ((i * 7 + j * 3) % 32) as f64).collect())
            .collect()
    }
}
