//! Instrumentation layer: named per-component counters, stall-cause
//! attribution, occupancy waveforms and trace exporters.
//!
//! A [`Probe`] is the single accounting truth for a simulation run. The
//! [`Harness`](crate::Harness) owns one and passes it to every
//! [`Design::cycle`](crate::Design::cycle) call; the design reports what
//! happened this cycle — floating-point issues ([`Probe::busy`] +
//! [`Probe::flops`]), memory traffic ([`Probe::io_in`] / [`Probe::io_out`]),
//! stalls with a cause ([`Probe::stall`]) and buffer depths
//! ([`Probe::sample_depth`]) — and the harness folds the counters into a
//! [`SimReport`](crate::SimReport) when the run completes.
//!
//! Probes have two modes:
//!
//! * **summary** ([`Probe::new`]) — only the cheap always-on counters run:
//!   totals, per-cause stall counts, high-water marks and occupancy
//!   histograms. This is the default and is what every `run()` entry point
//!   uses; the counters *are* the report, so disabling deep tracing cannot
//!   change any measured number.
//! * **deep** ([`Probe::deep`]) — additionally records change-compressed
//!   occupancy waveforms and per-cycle stall events, exportable as a JSON
//!   summary ([`Probe::summary_json`]) or a Chrome `trace_event` timeline
//!   ([`Probe::chrome_trace`]) for `chrome://tracing` / Perfetto.
//!
//! Cycle counts and `SimReport` fields are bit-identical between the two
//! modes (the probe-parity integration tests assert this): deep mode only
//! *observes* more, it never feeds back into the design.

use crate::stats::Histogram;
use crate::telem::{TelemRecorder, TelemSeries};

/// Why a component failed to do useful work in a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Upstream did not deliver enough data (e.g. a memory channel's
    /// token bucket ran dry before a full SIMD group was available).
    InputStarved,
    /// Downstream refused data (e.g. the reduction backlog FIFO hit its
    /// depth gate).
    OutputBackpressured,
    /// A read-after-write hazard window forced a wait (e.g. the column
    /// `MvM` updating a y element still inside the adder pipeline).
    HazardWindow,
    /// Inputs are exhausted and the pipeline is flushing its tail.
    Drain,
}

impl StallCause {
    /// All causes, in the order used by per-cause arrays and exports.
    pub const ALL: [StallCause; 4] = [
        StallCause::InputStarved,
        StallCause::OutputBackpressured,
        StallCause::HazardWindow,
        StallCause::Drain,
    ];

    /// Stable position of this cause in per-cause arrays (matches
    /// [`StallCause::ALL`] order).
    pub fn index(self) -> usize {
        match self {
            StallCause::InputStarved => 0,
            StallCause::OutputBackpressured => 1,
            StallCause::HazardWindow => 2,
            StallCause::Drain => 3,
        }
    }

    /// Stable kebab-case name used in exports and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            StallCause::InputStarved => "input-starved",
            StallCause::OutputBackpressured => "output-backpressured",
            StallCause::HazardWindow => "hazard-window",
            StallCause::Drain => "drain",
        }
    }
}

/// Handle to a registered component (index into the probe's tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeId(usize);

/// Run-length encoder for a varying occupancy series inside a fused
/// fast-forward loop: push one depth per cycle (starting at run-relative
/// cycle 1), and maximal runs of equal depths land in the probe as
/// single positioned [`Probe::record_depths_at`] batches — the exact
/// histogram *and* telemetry windows a per-cycle [`Probe::sample_depth`]
/// sequence would have produced, at one integer compare per cycle for
/// the (common) steady-state plateaus.
#[derive(Debug)]
pub struct DepthRuns {
    id: ProbeId,
    depth: usize,
    run: u64,
    /// Run-relative cycle of the current run's first sample.
    at: u64,
}

impl DepthRuns {
    /// Start an empty series for component `id`.
    pub fn new(id: ProbeId) -> Self {
        Self {
            id,
            depth: 0,
            run: 0,
            at: 1,
        }
    }

    /// Observe this cycle's depth.
    pub fn push(&mut self, probe: &mut Probe, depth: usize) {
        if depth == self.depth {
            self.run += 1;
        } else {
            probe.record_depths_at(self.id, self.depth, self.at, self.run);
            self.at += self.run;
            self.depth = depth;
            self.run = 1;
        }
    }

    /// Flush the trailing run.
    pub fn finish(self, probe: &mut Probe) {
        probe.record_depths_at(self.id, self.depth, self.at, self.run);
    }
}

/// Number of occupancy-histogram buckets per component.
const OCCUPANCY_BUCKETS: usize = 64;

#[derive(Debug, Clone)]
struct Comp {
    name: String,
    stalls: [u64; 4],
    last_stall: Option<(StallCause, u64)>,
    busy_marks: u64,
    hist: Histogram,
    depth_sum: u64,
    high_water: usize,
    last_total: u64,
    wave_last: Option<usize>,
    waveform: Vec<(u64, usize)>,
    stall_events: Vec<(u64, StallCause)>,
}

impl Comp {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            stalls: [0; 4],
            last_stall: None,
            busy_marks: 0,
            hist: Histogram::new(OCCUPANCY_BUCKETS),
            depth_sum: 0,
            high_water: 0,
            last_total: 0,
            wave_last: None,
            waveform: Vec::new(),
            stall_events: Vec::new(),
        }
    }
}

/// Copy of one component's always-on counters, exported by
/// [`Probe::component_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentStats {
    /// Component name as registered (e.g. `"dot/front-end"`).
    pub name: String,
    /// FP-issue marks the component recorded.
    pub busy_marks: u64,
    /// Stalled cycles per cause, indexed like [`StallCause::ALL`].
    pub stalls: [u64; 4],
    /// Highest occupancy sampled.
    pub occupancy_high_water: usize,
    /// Number of occupancy samples taken.
    pub occupancy_samples: u64,
}

/// Snapshot of the probe's run-scoped counters, taken by the harness at
/// the start of a run so a shared probe can report per-run deltas.
#[derive(Debug, Clone, Copy)]
pub struct RunMark {
    busy_cycles: u64,
    flops: u64,
    words_in: u64,
    words_out: u64,
}

/// Instrumentation sink shared by every design in a run. See the module
/// docs for the summary/deep split.
#[derive(Debug, Clone)]
pub struct Probe {
    deep: bool,
    time_base: u64,
    now: u64,
    busy_this_cycle: bool,
    busy_cycles: u64,
    flops: u64,
    words_in: u64,
    words_out: u64,
    busy_wave_last: Option<bool>,
    busy_waveform: Vec<(u64, bool)>,
    comps: Vec<Comp>,
    /// Windowed time-series recorder; `None` (the default) keeps every
    /// telemetry hook to a single branch.
    telem: Option<TelemRecorder>,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// A summary-mode probe: counters only, no waveforms.
    pub fn new() -> Self {
        Self {
            deep: false,
            time_base: 0,
            now: 0,
            busy_this_cycle: false,
            busy_cycles: 0,
            flops: 0,
            words_in: 0,
            words_out: 0,
            busy_wave_last: None,
            busy_waveform: Vec::new(),
            comps: Vec::new(),
            telem: None,
        }
    }

    /// A deep-mode probe: counters plus waveforms and trace events.
    pub fn deep() -> Self {
        let mut p = Self::new();
        p.deep = true;
        p
    }

    /// True if this probe records waveforms and trace events.
    pub fn is_deep(&self) -> bool {
        self.deep
    }

    /// Enable windowed telemetry (DESIGN.md §14): from now on every
    /// per-cycle sample is additionally folded into `window`-cycle
    /// windows, completion latencies are recorded, and one
    /// [`TelemSeries`] is sealed per run. Idempotent per window width;
    /// re-enabling with a different width restarts the recorder.
    pub fn enable_telemetry(&mut self, window: u64) {
        match &self.telem {
            Some(t) if t.window() == window => {}
            _ => self.telem = Some(TelemRecorder::new(window)),
        }
    }

    /// True if windowed telemetry is enabled. Fused fast-forward
    /// implementations that cannot position their batched records must
    /// check this and decline (return 0) so the cycle stepper produces
    /// the windows instead.
    pub fn telemetry_enabled(&self) -> bool {
        self.telem.is_some()
    }

    /// The telemetry window width, if telemetry is enabled.
    pub fn telemetry_window(&self) -> Option<u64> {
        self.telem.as_ref().map(TelemRecorder::window)
    }

    /// Drain the telemetry series sealed since the last call (one per
    /// completed run, oldest first). Empty if telemetry is disabled.
    pub fn take_telemetry(&mut self) -> Vec<TelemSeries> {
        self.telem
            .as_mut()
            .map(TelemRecorder::take)
            .unwrap_or_default()
    }

    /// The current run-relative cycle (1-based) — what
    /// [`Probe::begin_cycle`] last observed. Designs use this to
    /// timestamp block starts for completion-latency recording.
    pub fn run_cycle(&self) -> u64 {
        self.now - self.time_base
    }

    /// Register (or look up) a component by name. Registration is
    /// idempotent: a blocked driver re-running a design reuses the rows.
    ///
    /// Re-registration resets the [`Probe::sample_rate`] monotone base:
    /// designs rebuild their channels per run, so a new run's counters
    /// restart at zero, and carrying the previous run's base across
    /// would make the first delta of the new run depend on what else the
    /// shared harness executed before it.
    pub fn component(&mut self, name: &str) -> ProbeId {
        if let Some(i) = self.comps.iter().position(|c| c.name == name) {
            self.comps[i].last_total = 0;
            return ProbeId(i);
        }
        self.comps.push(Comp::new(name));
        ProbeId(self.comps.len() - 1)
    }

    // ---- per-cycle recording (called by the harness and designs) ----

    /// Start a cycle. Called by the harness; `cycle` is 1-based within
    /// the current run.
    pub fn begin_cycle(&mut self, cycle: u64) {
        self.now = self.time_base + cycle;
        self.busy_this_cycle = false;
        if let Some(t) = self.telem.as_mut() {
            t.begin_cycle(cycle);
        }
    }

    /// Close the cycle: fold the FP-issue flag into `busy_cycles`.
    pub fn end_cycle(&mut self) {
        if self.busy_this_cycle {
            self.busy_cycles += 1;
            if let Some(t) = self.telem.as_mut() {
                t.busy_cycle();
            }
        }
        if self.deep && self.busy_wave_last != Some(self.busy_this_cycle) {
            self.busy_wave_last = Some(self.busy_this_cycle);
            self.busy_waveform.push((self.now, self.busy_this_cycle));
        }
    }

    /// Advance the trace time base past a finished run of `cycles`
    /// cycles, so consecutive runs through one probe do not overlap on
    /// the exported timeline. Seals the run's telemetry series, if
    /// telemetry is enabled.
    pub fn finish_run(&mut self, cycles: u64) {
        if let Some(t) = self.telem.as_mut() {
            let names: Vec<String> = self.comps.iter().map(|c| c.name.clone()).collect();
            t.seal(cycles, &names);
        }
        self.time_base += cycles + 1;
    }

    /// Mark a floating-point issue by `id` this cycle. Any mark makes the
    /// cycle a busy cycle; the per-component mark count is kept for
    /// attribution.
    pub fn busy(&mut self, id: ProbeId) {
        self.busy_this_cycle = true;
        self.comps[id.0].busy_marks += 1;
        if let Some(t) = self.telem.as_mut() {
            t.busy_mark(id.0);
        }
    }

    /// Account `n` floating-point operations.
    pub fn flops(&mut self, n: u64) {
        self.flops += n;
    }

    /// Account `n` words read from external memory.
    pub fn io_in(&mut self, n: u64) {
        self.words_in += n;
    }

    /// Account `n` words written to external memory.
    pub fn io_out(&mut self, n: u64) {
        self.words_out += n;
    }

    /// Attribute a stalled cycle of component `id` to `cause`.
    pub fn stall(&mut self, id: ProbeId, cause: StallCause) {
        let c = &mut self.comps[id.0];
        c.stalls[cause.index()] += 1;
        c.last_stall = Some((cause, self.now));
        if self.deep {
            c.stall_events.push((self.now, cause));
        }
        if let Some(t) = self.telem.as_mut() {
            t.stall(id.0, cause.index());
        }
    }

    /// Sample an occupancy (FIFO depth, pipeline fill, buffered words)
    /// for component `id`: feeds the occupancy histogram and the
    /// high-water mark; in deep mode also the change-compressed waveform.
    pub fn sample_depth(&mut self, id: ProbeId, depth: usize) {
        let c = &mut self.comps[id.0];
        c.hist.record(depth);
        c.depth_sum += depth as u64;
        c.high_water = c.high_water.max(depth);
        if self.deep && c.wave_last != Some(depth) {
            c.wave_last = Some(depth);
            c.waveform.push((self.now, depth));
        }
        if let Some(t) = self.telem.as_mut() {
            t.depth_sample(id.0, depth as u64);
        }
    }

    /// Record the completion latency (in cycles) of one block/request
    /// attributed to component `id`. Feeds the per-component
    /// [`LogHistogram`](crate::stats::LogHistogram) of the current
    /// telemetry series; a no-op while telemetry is disabled, so the
    /// always-on probe cost is unchanged.
    pub fn latency(&mut self, id: ProbeId, cycles: u64) {
        if let Some(t) = self.telem.as_mut() {
            t.latency(id.0, cycles, 1);
        }
    }

    /// Batched [`Probe::latency`]: `n` blocks that all completed with
    /// the same latency (histograms are order-free, so fused
    /// fast-forward replays use this for constant-latency pipelines).
    pub fn record_latencies(&mut self, id: ProbeId, cycles: u64, n: u64) {
        if let Some(t) = self.telem.as_mut() {
            t.latency(id.0, cycles, n);
        }
    }

    /// Sample a monotone word counter (e.g. a channel's total words
    /// delivered): the per-cycle delta is recorded as the component's
    /// utilization sample, so the histogram shows words/cycle.
    pub fn sample_rate(&mut self, id: ProbeId, total: u64) {
        let delta = total.saturating_sub(self.comps[id.0].last_total) as usize;
        self.comps[id.0].last_total = total;
        self.sample_depth(id, delta);
    }

    // ---- batched recording (fast-forward reconstruction) ----
    //
    // A fused fast-forward (DESIGN.md §13) reconstructs the counters a
    // cycle-stepped run would have produced without paying one method
    // call per cycle: it accumulates plain integers in its replay loop
    // and lands them here in bulk. Every summary-mode counter is a sum,
    // a max or a last-write, so batched application is exact — the
    // parity suites assert bit-equality of the resulting reports. Deep
    // probes are excluded (the harness never fast-forwards them):
    // waveforms and trace events are order-sensitive and genuinely need
    // the per-cycle path.

    /// Batched [`Probe::end_cycle`] outcome: add `n` busy cycles.
    pub fn record_busy_cycles(&mut self, n: u64) {
        assert!(!self.deep, "bulk recording on a deep probe");
        assert!(
            self.telem.is_none(),
            "unpositioned batch recording with telemetry enabled; \
             use record_busy_cycles_at"
        );
        self.busy_cycles += n;
    }

    /// Batched [`Probe::busy`]: add `n` FP-issue marks to `id` without
    /// touching the per-cycle busy flag (pair with
    /// [`Probe::record_busy_cycles`]).
    pub fn record_busy_marks(&mut self, id: ProbeId, n: u64) {
        assert!(!self.deep, "bulk recording on a deep probe");
        assert!(
            self.telem.is_none(),
            "unpositioned batch recording with telemetry enabled; \
             use record_busy_marks_at"
        );
        self.comps[id.0].busy_marks += n;
    }

    /// Batched [`Probe::stall`]: attribute `n` stalled cycles of `id` to
    /// `cause`, the latest at run-relative cycle `last_cycle` (feeds the
    /// stall diagnosis exactly like the per-cycle path). No-op when
    /// `n == 0`.
    pub fn record_stalls(&mut self, id: ProbeId, cause: StallCause, n: u64, last_cycle: u64) {
        assert!(!self.deep, "bulk recording on a deep probe");
        assert!(
            self.telem.is_none(),
            "unpositioned batch recording with telemetry enabled; \
             use record_stalls_at"
        );
        if n == 0 {
            return;
        }
        let c = &mut self.comps[id.0];
        c.stalls[cause.index()] += n;
        c.last_stall = Some((cause, self.time_base + last_cycle));
    }

    /// Batched [`Probe::sample_depth`]: record `n` occupancy samples of
    /// the same `depth` for `id`. No-op when `n == 0`.
    pub fn record_depths(&mut self, id: ProbeId, depth: usize, n: u64) {
        assert!(!self.deep, "bulk recording on a deep probe");
        assert!(
            self.telem.is_none(),
            "unpositioned batch recording with telemetry enabled; \
             use record_depths_at"
        );
        if n == 0 {
            return;
        }
        let c = &mut self.comps[id.0];
        c.hist.record_n(depth, n);
        c.depth_sum += depth as u64 * n;
        c.high_water = c.high_water.max(depth);
    }

    // ---- positioned batched recording (telemetry-aware fast-forward) ----
    //
    // When windowed telemetry is enabled an aggregate count is not
    // enough: the recorder must know *which* run-relative cycles a batch
    // covers so it can split the count across windows. The `_at` variants
    // take a 1-based span start `start` (covering `start..start + n`),
    // update exactly the same always-on counters as their unpositioned
    // twins, and additionally feed the telemetry windows. The fused
    // fast-forwards use only these, so one code path serves telemetry-on
    // and telemetry-off runs; the unpositioned variants debug-assert
    // telemetry is off so an accidental mix is caught in tests.

    /// Positioned [`Probe::record_busy_cycles`]: `n` busy cycles covering
    /// run-relative cycles `start..start + n`. No-op when `n == 0`.
    pub fn record_busy_cycles_at(&mut self, start: u64, n: u64) {
        assert!(!self.deep, "bulk recording on a deep probe");
        if n == 0 {
            return;
        }
        self.busy_cycles += n;
        if let Some(t) = self.telem.as_mut() {
            t.busy_cycles_at(start, n);
        }
    }

    /// Positioned [`Probe::record_busy_marks`]: one FP-issue mark of `id`
    /// per cycle of `start..start + n`. No-op when `n == 0`.
    pub fn record_busy_marks_at(&mut self, id: ProbeId, start: u64, n: u64) {
        assert!(!self.deep, "bulk recording on a deep probe");
        if n == 0 {
            return;
        }
        self.comps[id.0].busy_marks += n;
        if let Some(t) = self.telem.as_mut() {
            t.busy_marks_at(id.0, start, n);
        }
    }

    /// Positioned [`Probe::record_stalls`]: one stalled cycle of `id`
    /// attributed to `cause` per cycle of `start..start + n`; the stall
    /// diagnosis sees the span's last cycle. No-op when `n == 0`.
    pub fn record_stalls_at(&mut self, id: ProbeId, cause: StallCause, start: u64, n: u64) {
        assert!(!self.deep, "bulk recording on a deep probe");
        if n == 0 {
            return;
        }
        let c = &mut self.comps[id.0];
        c.stalls[cause.index()] += n;
        c.last_stall = Some((cause, self.time_base + start + n - 1));
        if let Some(t) = self.telem.as_mut() {
            t.stalls_at(id.0, cause.index(), start, n);
        }
    }

    /// Positioned [`Probe::record_depths`]: one occupancy sample of
    /// `depth` for `id` per cycle of `start..start + n`. No-op when
    /// `n == 0`.
    pub fn record_depths_at(&mut self, id: ProbeId, depth: usize, start: u64, n: u64) {
        assert!(!self.deep, "bulk recording on a deep probe");
        if n == 0 {
            return;
        }
        let c = &mut self.comps[id.0];
        c.hist.record_n(depth, n);
        c.depth_sum += depth as u64 * n;
        c.high_water = c.high_water.max(depth);
        if let Some(t) = self.telem.as_mut() {
            t.depths_at(id.0, depth as u64, start, n);
        }
    }

    /// Batched [`Probe::sample_rate`] epilogue: after recording a run's
    /// per-cycle word deltas via [`Probe::record_depths`], advance the
    /// monotone base so a later per-cycle `sample_rate` continues from
    /// the right total.
    pub fn record_rate_base(&mut self, id: ProbeId, total: u64) {
        assert!(!self.deep, "bulk recording on a deep probe");
        self.comps[id.0].last_total = total;
    }

    // ---- queries ----

    /// Busy cycles accumulated so far (across all runs on this probe).
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Highest occupancy sampled for `id`.
    pub fn high_water(&self, id: ProbeId) -> usize {
        self.comps[id.0].high_water
    }

    /// Occupancy histogram of `id` (every [`Probe::sample_depth`] sample).
    pub fn occupancy(&self, id: ProbeId) -> &Histogram {
        &self.comps[id.0].hist
    }

    /// Stalled cycles of `id` attributed to `cause`.
    pub fn stalls(&self, id: ProbeId, cause: StallCause) -> u64 {
        self.comps[id.0].stalls[cause.index()]
    }

    /// Total stalled cycles of `id` across all causes.
    pub fn total_stalls(&self, id: ProbeId) -> u64 {
        self.comps[id.0].stalls.iter().sum()
    }

    /// FP-issue marks recorded by `id`.
    pub fn busy_marks(&self, id: ProbeId) -> u64 {
        self.comps[id.0].busy_marks
    }

    /// Aggregated stall totals across all components, indexed like
    /// [`StallCause::ALL`]. Snapshot before and after a run to attribute
    /// a single run's stalls on a shared probe (the `RunRecord`
    /// conversion path does exactly this).
    pub fn stall_totals(&self) -> [u64; 4] {
        let mut totals = [0u64; 4];
        for c in &self.comps {
            for (t, s) in totals.iter_mut().zip(&c.stalls) {
                *t += s;
            }
        }
        totals
    }

    /// Per-component counter snapshot, in registration order: one
    /// [`ComponentStats`] per registered component. This is the read-only
    /// export surface for observability tooling (run records, external
    /// dashboards) — it copies the cheap counters and leaves waveforms to
    /// the trace exporters.
    pub fn component_stats(&self) -> Vec<ComponentStats> {
        self.comps
            .iter()
            .map(|c| ComponentStats {
                name: c.name.clone(),
                busy_marks: c.busy_marks,
                stalls: c.stalls,
                occupancy_high_water: c.high_water,
                occupancy_samples: c.hist.samples(),
            })
            .collect()
    }

    /// Snapshot the run-scoped counters; the harness pairs this with
    /// [`Probe::report_since`] to produce per-run reports from a shared
    /// probe.
    pub fn mark(&self) -> RunMark {
        RunMark {
            busy_cycles: self.busy_cycles,
            flops: self.flops,
            words_in: self.words_in,
            words_out: self.words_out,
        }
    }

    /// Build the report for a run of `cycles` cycles that started at
    /// `mark`.
    pub fn report_since(&self, mark: &RunMark, cycles: u64) -> crate::SimReport {
        crate::SimReport {
            cycles,
            flops: self.flops - mark.flops,
            words_in: self.words_in - mark.words_in,
            words_out: self.words_out - mark.words_out,
            busy_cycles: self.busy_cycles - mark.busy_cycles,
        }
    }

    /// One-line description of the most recently stalled component, for
    /// the livelock watchdog: names the component, its last stall cause
    /// and its per-cause totals.
    pub fn stall_diagnosis(&self) -> String {
        let last = self
            .comps
            .iter()
            .filter_map(|c| c.last_stall.map(|(cause, at)| (at, cause, c)))
            .max_by_key(|&(at, _, _)| at);
        match last {
            None => "no stalls recorded by probes".to_string(),
            Some((at, cause, c)) => {
                let totals: Vec<String> = StallCause::ALL
                    .iter()
                    .map(|&k| format!("{}={}", k.name(), c.stalls[k.index()]))
                    .collect();
                format!(
                    "last stall: component '{}' {} at cycle {} ({})",
                    c.name,
                    cause.name(),
                    at,
                    totals.join(", ")
                )
            }
        }
    }

    // ---- exporters ----

    /// Summary of every counter as a JSON object. Deterministic: field
    /// and component order are fixed, all values are integers.
    pub fn summary_json(&self) -> String {
        let mut comps = Vec::with_capacity(self.comps.len());
        for c in &self.comps {
            let stalls: Vec<String> = StallCause::ALL
                .iter()
                .map(|&k| format!("\"{}\":{}", k.name(), c.stalls[k.index()]))
                .collect();
            let samples = c.hist.samples();
            let mean_milli = (c.depth_sum * 1000).checked_div(samples).unwrap_or(0);
            comps.push(format!(
                "{{\"name\":\"{}\",\"busy_marks\":{},\"stalls\":{{{}}},\
                 \"occupancy_high_water\":{},\"occupancy_samples\":{},\
                 \"occupancy_mean_milli\":{}}}",
                escape(&c.name),
                c.busy_marks,
                stalls.join(","),
                c.high_water,
                samples,
                mean_milli,
            ));
        }
        format!(
            "{{\"busy_cycles\":{},\"flops\":{},\"words_in\":{},\
             \"words_out\":{},\"components\":[{}]}}",
            self.busy_cycles,
            self.flops,
            self.words_in,
            self.words_out,
            comps.join(",")
        )
    }

    /// Export the recorded timeline as a Chrome `trace_event` JSON
    /// document (load in `chrome://tracing` or <https://ui.perfetto.dev>).
    ///
    /// Emits, per component: a thread-name metadata record, an occupancy
    /// counter track ("C" events, one per change), and one complete-span
    /// ("X") event per contiguous stall run, named by its cause. When
    /// windowed telemetry is enabled, per-window counter tracks ride
    /// along: a global busy-cycles-per-window track plus one
    /// busy/stalled track per active component, one "C" event per
    /// window, timestamped at the window's first cycle on the same
    /// multi-run timeline the waveforms use. The output is deterministic
    /// down to the byte for a given run (the golden-trace test relies on
    /// this). Time is reported in cycle-as-microsecond units. Waveforms
    /// and stall spans are only recorded on a deep probe; a summary
    /// probe exports metadata (and telemetry tracks, if enabled) but no
    /// per-cycle events.
    pub fn chrome_trace(&self) -> String {
        let mut ev: Vec<String> = Vec::new();
        ev.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"fblas harness\"}}"
                .to_string(),
        );
        for (i, c) in self.comps.iter().enumerate() {
            ev.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                i + 1,
                escape(&c.name)
            ));
        }
        for (at, busy) in &self.busy_waveform {
            ev.push(format!(
                "{{\"name\":\"fp busy\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\
                 \"ts\":{},\"args\":{{\"busy\":{}}}}}",
                at,
                u8::from(*busy)
            ));
        }
        for (i, c) in self.comps.iter().enumerate() {
            for (at, depth) in &c.waveform {
                ev.push(format!(
                    "{{\"name\":\"{} occupancy\",\"ph\":\"C\",\"pid\":1,\
                     \"tid\":{},\"ts\":{},\"args\":{{\"depth\":{}}}}}",
                    escape(&c.name),
                    i + 1,
                    at,
                    depth
                ));
            }
            for (start, dur, cause) in merge_spans(&c.stall_events) {
                ev.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                     \"ts\":{},\"dur\":{},\"args\":{{\"component\":\"{}\"}}}}",
                    cause.name(),
                    i + 1,
                    start,
                    dur,
                    escape(&c.name)
                ));
            }
        }
        if let Some(t) = self.telem.as_ref() {
            // Per-run series are run-relative; reconstruct each run's
            // absolute start offset by walking the sealed list the same
            // way finish_run advances the time base (cycles + 1 apart).
            let mut offset = 0u64;
            for s in t.sealed() {
                for (w, &busy) in s.busy.iter().enumerate() {
                    ev.push(format!(
                        "{{\"name\":\"busy/window\",\"ph\":\"C\",\"pid\":1,\
                         \"tid\":0,\"ts\":{},\"args\":{{\"busy\":{}}}}}",
                        offset + w as u64 * s.window + 1,
                        busy
                    ));
                }
                for c in &s.comps {
                    let tid = self
                        .comps
                        .iter()
                        .position(|p| p.name == c.name)
                        .map_or(0, |i| i + 1);
                    for w in 0..s.windows() {
                        let stalled: u64 = c.stalls.iter().map(|v| v[w]).sum();
                        ev.push(format!(
                            "{{\"name\":\"{}/window\",\"ph\":\"C\",\"pid\":1,\
                             \"tid\":{},\"ts\":{},\
                             \"args\":{{\"busy\":{},\"stalled\":{}}}}}",
                            escape(&c.name),
                            tid,
                            offset + w as u64 * s.window + 1,
                            c.busy[w],
                            stalled
                        ));
                    }
                }
                offset += s.cycles + 1;
            }
        }
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
            ev.join(",\n")
        )
    }

    /// Write [`Probe::chrome_trace`] to `path`.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace())
    }
}

/// Merge per-cycle stall events into contiguous (start, duration, cause)
/// spans. Events arrive in nondecreasing cycle order.
fn merge_spans(events: &[(u64, StallCause)]) -> Vec<(u64, u64, StallCause)> {
    let mut spans: Vec<(u64, u64, StallCause)> = Vec::new();
    for &(at, cause) in events {
        match spans.last_mut() {
            Some((start, dur, c)) if *c == cause && at == *start + *dur => *dur += 1,
            _ => spans.push((at, 1, cause)),
        }
    }
    spans
}

/// Escape a string for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut p = Probe::new();
        let a = p.component("a");
        p.begin_cycle(1);
        p.busy(a);
        p.flops(2);
        p.io_in(4);
        p.end_cycle();
        p.begin_cycle(2);
        p.stall(a, StallCause::InputStarved);
        p.end_cycle();
        assert_eq!(p.busy_cycles(), 1);
        assert_eq!(p.stalls(a, StallCause::InputStarved), 1);
        assert_eq!(p.total_stalls(a), 1);
        assert_eq!(p.busy_marks(a), 1);
    }

    #[test]
    fn stall_totals_aggregate_across_components() {
        let mut p = Probe::new();
        let a = p.component("a");
        let b = p.component("b");
        p.begin_cycle(1);
        p.stall(a, StallCause::InputStarved);
        p.stall(b, StallCause::InputStarved);
        p.stall(b, StallCause::Drain);
        p.end_cycle();
        assert_eq!(p.stall_totals(), [2, 0, 0, 1]);
    }

    #[test]
    fn component_stats_snapshot_copies_counters() {
        let mut p = Probe::new();
        let a = p.component("alpha");
        p.begin_cycle(1);
        p.busy(a);
        p.sample_depth(a, 9);
        p.stall(a, StallCause::HazardWindow);
        p.end_cycle();
        let stats = p.component_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].name, "alpha");
        assert_eq!(stats[0].busy_marks, 1);
        assert_eq!(stats[0].stalls, [0, 0, 1, 0]);
        assert_eq!(stats[0].occupancy_high_water, 9);
        assert_eq!(stats[0].occupancy_samples, 1);
    }

    #[test]
    fn component_registration_is_idempotent() {
        let mut p = Probe::new();
        let a = p.component("x");
        let b = p.component("x");
        assert_eq!(a, b);
        assert_ne!(p.component("y"), a);
    }

    #[test]
    fn report_since_returns_deltas() {
        let mut p = Probe::new();
        p.begin_cycle(1);
        p.flops(10);
        p.io_in(3);
        p.io_out(1);
        p.end_cycle();
        let m = p.mark();
        p.begin_cycle(2);
        let a = p.component("a");
        p.busy(a);
        p.flops(5);
        p.end_cycle();
        let r = p.report_since(&m, 1);
        assert_eq!(r.cycles, 1);
        assert_eq!(r.flops, 5);
        assert_eq!(r.words_in, 0);
        assert_eq!(r.busy_cycles, 1);
    }

    #[test]
    fn depth_sampling_tracks_high_water_and_histogram() {
        let mut p = Probe::new();
        let f = p.component("fifo");
        for d in [0usize, 3, 7, 2] {
            p.begin_cycle(1);
            p.sample_depth(f, d);
            p.end_cycle();
        }
        assert_eq!(p.high_water(f), 7);
        assert_eq!(p.occupancy(f).samples(), 4);
        assert_eq!(p.occupancy(f).max_seen(), 7);
    }

    #[test]
    fn rate_sampling_records_deltas() {
        let mut p = Probe::new();
        let ch = p.component("chan");
        p.sample_rate(ch, 4);
        p.sample_rate(ch, 7);
        p.sample_rate(ch, 7);
        assert_eq!(p.high_water(ch), 4);
        assert_eq!(p.occupancy(ch).samples(), 3);
    }

    #[test]
    fn deep_waveforms_are_change_compressed() {
        let mut p = Probe::deep();
        let f = p.component("fifo");
        for (cy, d) in [(1u64, 2usize), (2, 2), (3, 5), (4, 5), (5, 1)] {
            p.begin_cycle(cy);
            p.sample_depth(f, d);
            p.end_cycle();
        }
        let trace = p.chrome_trace();
        // Three changes → three counter events for the fifo.
        assert_eq!(trace.matches("fifo occupancy").count(), 3);
    }

    #[test]
    fn stall_spans_merge() {
        let ev = [
            (3u64, StallCause::Drain),
            (4, StallCause::Drain),
            (5, StallCause::InputStarved),
            (9, StallCause::InputStarved),
        ];
        let spans = merge_spans(&ev);
        assert_eq!(
            spans,
            vec![
                (3, 2, StallCause::Drain),
                (5, 1, StallCause::InputStarved),
                (9, 1, StallCause::InputStarved),
            ]
        );
    }

    #[test]
    fn diagnosis_names_latest_stall() {
        let mut p = Probe::new();
        let a = p.component("alpha");
        let b = p.component("beta");
        p.begin_cycle(1);
        p.stall(a, StallCause::InputStarved);
        p.end_cycle();
        p.begin_cycle(2);
        p.stall(b, StallCause::HazardWindow);
        p.end_cycle();
        let d = p.stall_diagnosis();
        assert!(d.contains("beta"), "{d}");
        assert!(d.contains("hazard-window"), "{d}");
    }

    #[test]
    fn summary_json_is_valid_shape() {
        let mut p = Probe::new();
        let a = p.component("a");
        p.begin_cycle(1);
        p.busy(a);
        p.sample_depth(a, 3);
        p.end_cycle();
        let j = p.summary_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"busy_cycles\":1"));
        assert!(j.contains("\"occupancy_high_water\":3"));
    }

    #[test]
    fn trace_is_deterministic() {
        let run = || {
            let mut p = Probe::deep();
            let a = p.component("a");
            for cy in 1..=10u64 {
                p.begin_cycle(cy);
                if cy % 3 == 0 {
                    p.stall(a, StallCause::OutputBackpressured);
                } else {
                    p.busy(a);
                }
                p.sample_depth(a, (cy % 4) as usize);
                p.end_cycle();
            }
            p.chrome_trace()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn telemetry_windows_fold_per_cycle_samples() {
        let mut p = Probe::new();
        p.enable_telemetry(4);
        let a = p.component("a");
        for cy in 1..=10u64 {
            p.begin_cycle(cy);
            if cy <= 6 {
                p.busy(a);
                p.sample_depth(a, 2);
            } else {
                p.stall(a, StallCause::Drain);
            }
            p.end_cycle();
        }
        p.latency(a, 7);
        p.finish_run(10);
        let series = p.take_telemetry();
        assert_eq!(series.len(), 1);
        let s = &series[0];
        assert_eq!(s.cycles, 10);
        assert_eq!(s.busy, vec![4, 2, 0]);
        assert_eq!(s.comps.len(), 1);
        assert_eq!(s.comps[0].busy, vec![4, 2, 0]);
        assert_eq!(s.comps[0].stalls[StallCause::Drain.index()], vec![0, 2, 2]);
        assert_eq!(s.comps[0].depth_sum, vec![8, 4, 0]);
        assert_eq!(s.comps[0].depth_samples, vec![4, 2, 0]);
        assert_eq!(s.comps[0].latency.samples(), 1);
        assert_eq!(s.comps[0].latency.percentile(0.5), 7);
        assert!(p.take_telemetry().is_empty(), "take drains");
    }

    #[test]
    fn telemetry_disabled_records_and_returns_nothing() {
        let mut p = Probe::new();
        let a = p.component("a");
        p.begin_cycle(1);
        p.busy(a);
        p.latency(a, 3);
        p.end_cycle();
        p.finish_run(1);
        assert!(!p.telemetry_enabled());
        assert!(p.take_telemetry().is_empty());
    }

    #[test]
    fn positioned_batches_match_per_cycle_telemetry() {
        let stepped = {
            let mut p = Probe::new();
            p.enable_telemetry(4);
            let a = p.component("a");
            for cy in 1..=10u64 {
                p.begin_cycle(cy);
                if (3..=9).contains(&cy) {
                    p.busy(a);
                    p.sample_depth(a, 5);
                } else {
                    p.stall(a, StallCause::InputStarved);
                }
                p.end_cycle();
            }
            p.finish_run(10);
            p
        };
        let batched = {
            let mut p = Probe::new();
            p.enable_telemetry(4);
            let a = p.component("a");
            p.record_busy_cycles_at(3, 7);
            p.record_busy_marks_at(a, 3, 7);
            p.record_depths_at(a, 5, 3, 7);
            p.record_stalls_at(a, StallCause::InputStarved, 1, 2);
            p.record_stalls_at(a, StallCause::InputStarved, 10, 1);
            p.finish_run(10);
            p
        };
        assert_eq!(
            stepped.clone().take_telemetry(),
            batched.clone().take_telemetry()
        );
        assert_eq!(stepped.busy_cycles(), batched.busy_cycles());
        assert_eq!(stepped.component_stats(), batched.component_stats());
    }

    #[test]
    fn positioned_stalls_feed_the_diagnosis() {
        let mut p = Probe::new();
        p.enable_telemetry(4);
        let a = p.component("alpha");
        p.record_stalls_at(a, StallCause::Drain, 5, 3);
        let d = p.stall_diagnosis();
        assert!(d.contains("alpha"), "{d}");
        assert!(d.contains("at cycle 7"), "{d}");
    }

    #[test]
    fn enable_telemetry_is_idempotent_per_width() {
        let mut p = Probe::new();
        p.enable_telemetry(8);
        let a = p.component("a");
        p.begin_cycle(1);
        p.busy(a);
        p.end_cycle();
        p.enable_telemetry(8); // same width: keeps the recorder
        p.finish_run(1);
        assert_eq!(p.take_telemetry().len(), 1);
        assert_eq!(p.telemetry_window(), Some(8));
        p.enable_telemetry(16); // new width: restarts
        assert_eq!(p.telemetry_window(), Some(16));
    }

    #[test]
    fn chrome_trace_folds_telemetry_counter_tracks() {
        let mut p = Probe::new();
        p.enable_telemetry(4);
        let a = p.component("a");
        for cy in 1..=6u64 {
            p.begin_cycle(cy);
            p.busy(a);
            p.end_cycle();
        }
        p.finish_run(6);
        // Second run: offsets continue past cycles + 1.
        p.begin_cycle(1);
        p.busy(a);
        p.end_cycle();
        p.finish_run(1);
        let trace = p.chrome_trace();
        assert!(trace.contains("\"name\":\"busy/window\""), "{trace}");
        assert!(trace.contains("\"name\":\"a/window\""), "{trace}");
        // Run 1 windows start at ts 1 and 5; run 2's single window at 8.
        assert!(trace.contains("\"ts\":5"), "{trace}");
        assert!(trace.contains("\"ts\":8"), "{trace}");
    }

    #[test]
    fn finish_run_offsets_timeline() {
        let mut p = Probe::deep();
        let a = p.component("a");
        p.begin_cycle(1);
        p.sample_depth(a, 1);
        p.end_cycle();
        p.finish_run(1);
        p.begin_cycle(1);
        p.sample_depth(a, 2);
        p.end_cycle();
        let trace = p.chrome_trace();
        assert!(trace.contains("\"ts\":1"));
        assert!(trace.contains("\"ts\":3"), "{trace}");
    }
}
