//! Time-resolved telemetry: deterministic windowed series per run.
//!
//! When enabled on a [`Probe`](crate::Probe), every per-cycle sample is
//! additionally folded into fixed-width cycle windows: global busy
//! cycles, per-component busy marks, per-cause stall counts, and
//! occupancy/bandwidth sample sums. One [`TelemSeries`] is sealed per
//! harness run; runs are *run-relative* (window 0 always starts at the
//! run's cycle 1), so the series a job produces is independent of what
//! else its worker harness executed before it — the property that keeps
//! `observatory run --jobs N` byte-deterministic.
//!
//! Fused fast-forward replays reconstruct the same windows through the
//! probe's *positioned* batched-recording API
//! ([`Probe::record_busy_cycles_at`](crate::Probe::record_busy_cycles_at)
//! and friends): a positioned batch spreads its count across the windows
//! its cycle span covers, landing on the exact vectors the per-cycle
//! path would have produced. The telemetry parity suites assert
//! bit-equality of stepped and fast-forwarded series.
//!
//! Completion latencies ride along: [`Probe::latency`](crate::Probe::latency)
//! records per-block/per-request latencies into a per-component
//! [`LogHistogram`] inside the current series. All latency recording is
//! a no-op while telemetry is disabled, so the always-on probe cost is
//! unchanged.

use crate::stats::LogHistogram;

/// Default telemetry window width, in cycles. Chosen so the paper-matrix
/// runs (≈500–1 000 000 cycles) produce tens-to-hundreds of windows:
/// enough to segment fill/steady/drain phases, small enough that the
/// committed `TELEM_<n>.json` store stays reviewable.
pub const DEFAULT_TELEM_WINDOW: u64 = 4096;

/// Windowed counters of one probe component over one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompSeries {
    /// Component name as registered (e.g. `"dot/front-end"`).
    pub name: String,
    /// FP-issue marks per window.
    pub busy: Vec<u64>,
    /// Stalled cycles per cause per window, indexed like
    /// [`StallCause::ALL`](crate::StallCause::ALL).
    pub stalls: [Vec<u64>; 4],
    /// Sum of occupancy/bandwidth samples per window.
    pub depth_sum: Vec<u64>,
    /// Number of occupancy/bandwidth samples per window.
    pub depth_samples: Vec<u64>,
    /// Completion-latency histogram (per-block/per-request), whole-run.
    pub latency: LogHistogram,
}

impl CompSeries {
    /// True if any counter of this component moved during the run.
    fn active(&self) -> bool {
        self.busy.iter().any(|&v| v > 0)
            || self.stalls.iter().flatten().any(|&v| v > 0)
            || self.depth_samples.iter().any(|&v| v > 0)
            || self.latency.samples() > 0
    }

    /// Pad every window vector to exactly `n` windows.
    fn pad_to(&mut self, n: usize) {
        self.busy.resize(n, 0);
        for s in &mut self.stalls {
            s.resize(n, 0);
        }
        self.depth_sum.resize(n, 0);
        self.depth_samples.resize(n, 0);
    }
}

/// The sealed telemetry of one harness run: global busy windows plus one
/// [`CompSeries`] per component that recorded anything this run (in
/// registration order — components registered by *earlier* runs on a
/// shared probe that stayed silent are excluded, which is what makes the
/// series independent of worker job history).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemSeries {
    /// Cycles the run took.
    pub cycles: u64,
    /// Window width in cycles.
    pub window: u64,
    /// Busy cycles per window.
    pub busy: Vec<u64>,
    /// Active components' windowed counters.
    pub comps: Vec<CompSeries>,
}

impl TelemSeries {
    /// Number of windows (the last may be partial).
    pub fn windows(&self) -> usize {
        self.busy.len()
    }

    /// Width in cycles of window `w` (all `window` wide except a
    /// partial tail).
    pub fn window_width(&self, w: usize) -> u64 {
        let full = self.cycles / self.window;
        if w < full as usize {
            self.window
        } else {
            self.cycles - full * self.window
        }
    }
}

/// Accumulates windowed counters during a run; owned by the probe.
///
/// The per-cycle hooks never reach the recorder: the probe counts the
/// current window in plain [`WindowCounts`] next to its always-on
/// counters, and the recorder adds them into the window vectors only when
/// a cycle leaves the current window and when the run is sealed. So a
/// hook is a plain add, and `begin_cycle` divides only on a window
/// crossing.
/// The positioned path adds into the vectors directly; every counter is a
/// sum, so the two paths mix freely within a run.
#[derive(Debug, Clone)]
pub(crate) struct TelemRecorder {
    window: u64,
    /// Index of the current window.
    cur_w: usize,
    /// First run-relative cycle of the current window.
    w_start: u64,
    busy: Vec<u64>,
    comps: Vec<CompTelem>,
    sealed: Vec<TelemSeries>,
}

#[derive(Debug, Clone, Default)]
struct CompTelem {
    busy: Vec<u64>,
    stalls: [Vec<u64>; 4],
    depth_sum: Vec<u64>,
    depth_samples: Vec<u64>,
    latency: LogHistogram,
}

/// One component's per-cycle telemetry counts within the current window,
/// kept by the probe and flushed by the recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WindowCounts {
    /// FP-issue marks.
    pub(crate) busy: u64,
    /// Stalled cycles per cause.
    pub(crate) stalls: [u64; 4],
    /// Sum of occupancy/bandwidth samples.
    pub(crate) depth_sum: u64,
    /// Number of occupancy/bandwidth samples.
    pub(crate) depth_samples: u64,
}

/// Grow-and-add on a lazily sized window vector.
fn bump(v: &mut Vec<u64>, w: usize, n: u64) {
    if w >= v.len() {
        v.resize(w + 1, 0);
    }
    v[w] = v[w].saturating_add(n);
}

impl TelemRecorder {
    pub(crate) fn new(window: u64) -> Self {
        assert!(window >= 1, "telemetry window must be at least one cycle");
        Self {
            window,
            cur_w: 0,
            w_start: 1,
            busy: Vec::new(),
            comps: Vec::new(),
            sealed: Vec::new(),
        }
    }

    pub(crate) fn window(&self) -> u64 {
        self.window
    }

    fn comp(&mut self, idx: usize) -> &mut CompTelem {
        if idx >= self.comps.len() {
            self.comps.resize_with(idx + 1, CompTelem::default);
        }
        &mut self.comps[idx]
    }

    // ---- per-cycle path ----

    /// Start run-relative `cycle`. When it lies outside the current
    /// window, first flush the current window's counts into it: `busy`
    /// cycles and each component's [`WindowCounts`], which this clears.
    #[inline]
    pub(crate) fn begin_cycle<'a>(
        &mut self,
        cycle: u64,
        busy: &mut u64,
        comps: impl Iterator<Item = &'a mut WindowCounts>,
    ) {
        // One compare per cycle: a cycle below `w_start` wraps and so
        // crosses too.
        if cycle.wrapping_sub(self.w_start) >= self.window {
            self.flush(busy, comps);
            self.cur_w = ((cycle.max(1) - 1) / self.window) as usize;
            self.w_start = self.cur_w as u64 * self.window + 1;
        }
    }

    /// Add the current window's counts into window `cur_w` and clear them.
    fn flush<'a>(&mut self, busy: &mut u64, comps: impl Iterator<Item = &'a mut WindowCounts>) {
        let w = self.cur_w;
        bump(&mut self.busy, w, std::mem::take(busy));
        for (idx, counts) in comps.enumerate() {
            let n = std::mem::take(counts);
            if n != WindowCounts::default() {
                let c = self.comp(idx);
                bump(&mut c.busy, w, n.busy);
                for (v, k) in c.stalls.iter_mut().zip(n.stalls) {
                    bump(v, w, k);
                }
                bump(&mut c.depth_sum, w, n.depth_sum);
                bump(&mut c.depth_samples, w, n.depth_samples);
            }
        }
    }

    pub(crate) fn latency(&mut self, idx: usize, value: u64, n: u64) {
        self.comp(idx).latency.record_n(value, n);
    }

    // ---- positioned batched path (fast-forward reconstruction) ----
    //
    // A span covers run-relative cycles [start, start + n); each helper
    // splits the span across the windows it touches. Spans are short
    // relative to runs, so the per-window loop is negligible against the
    // per-cycle work it replaces.

    /// Call `f(window, cycles_in_window)` for each window the span
    /// [start, start+n) intersects.
    fn each_window(window: u64, start: u64, n: u64, mut f: impl FnMut(usize, u64)) {
        if n == 0 {
            return;
        }
        let start = start.max(1);
        let mut c = start;
        let end = start + n;
        while c < end {
            let w = (c - 1) / window;
            let next = w * window + window + 1;
            let take = next.min(end) - c;
            f(w as usize, take);
            c += take;
        }
    }

    pub(crate) fn busy_cycles_at(&mut self, start: u64, n: u64) {
        let window = self.window;
        let busy = &mut self.busy;
        Self::each_window(window, start, n, |w, take| bump(busy, w, take));
    }

    pub(crate) fn busy_marks_at(&mut self, idx: usize, start: u64, n: u64) {
        let window = self.window;
        let c = self.comp(idx);
        Self::each_window(window, start, n, |w, take| bump(&mut c.busy, w, take));
    }

    pub(crate) fn stalls_at(&mut self, idx: usize, cause: usize, start: u64, n: u64) {
        let window = self.window;
        let c = self.comp(idx);
        Self::each_window(window, start, n, |w, take| {
            bump(&mut c.stalls[cause], w, take);
        });
    }

    pub(crate) fn depths_at(&mut self, idx: usize, depth: u64, start: u64, n: u64) {
        let window = self.window;
        let c = self.comp(idx);
        Self::each_window(window, start, n, |w, take| {
            bump(&mut c.depth_sum, w, depth.saturating_mul(take));
            bump(&mut c.depth_samples, w, take);
        });
    }

    // ---- run lifecycle ----

    /// Seal the current run into a [`TelemSeries`], first flushing the
    /// current window's counts (as in [`TelemRecorder::begin_cycle`]) and
    /// naming components from the probe's registry. Components with no
    /// activity this run are dropped (they belong to other runs sharing
    /// the probe).
    pub(crate) fn seal<'a>(
        &mut self,
        cycles: u64,
        names: &[String],
        busy: &mut u64,
        comps: impl Iterator<Item = &'a mut WindowCounts>,
    ) {
        self.flush(busy, comps);
        let n_windows = if cycles == 0 {
            0
        } else {
            cycles.div_ceil(self.window) as usize
        };
        let mut busy = std::mem::take(&mut self.busy);
        busy.resize(n_windows, 0);
        let mut comps = Vec::new();
        for (idx, raw) in std::mem::take(&mut self.comps).into_iter().enumerate() {
            let mut series = CompSeries {
                name: names.get(idx).cloned().unwrap_or_default(),
                busy: raw.busy,
                stalls: raw.stalls,
                depth_sum: raw.depth_sum,
                depth_samples: raw.depth_samples,
                latency: raw.latency,
            };
            if series.active() {
                series.pad_to(n_windows);
                comps.push(series);
            }
        }
        self.sealed.push(TelemSeries {
            cycles,
            window: self.window,
            busy,
            comps,
        });
        self.cur_w = 0;
        self.w_start = 1;
    }

    /// Drain every sealed series (oldest first).
    pub(crate) fn take(&mut self) -> Vec<TelemSeries> {
        std::mem::take(&mut self.sealed)
    }

    /// Peek the sealed series without draining them (trace exporters).
    pub(crate) fn sealed(&self) -> &[TelemSeries] {
        &self.sealed
    }
}

/// Contiguous-span accumulator inside a fused fast-forward loop: `mark`
/// cycles in ascending order, and maximal contiguous spans land through
/// the positioned probe call the accumulator was built for.
#[derive(Debug)]
pub struct SpanRuns {
    kind: SpanKind,
    start: u64,
    len: u64,
}

/// The probe record a [`SpanRuns`] flushes its spans to.
#[derive(Debug, Clone, Copy)]
enum SpanKind {
    Busy,
    Marks(crate::ProbeId),
    Stalls(crate::ProbeId, crate::StallCause),
}

impl SpanRuns {
    fn new(kind: SpanKind) -> Self {
        Self {
            kind,
            start: 0,
            len: 0,
        }
    }

    /// Busy cycles, through
    /// [`Probe::record_busy_cycles_at`](crate::Probe::record_busy_cycles_at).
    pub fn busy() -> Self {
        Self::new(SpanKind::Busy)
    }

    /// Component `id`'s FP-issue marks, through
    /// [`Probe::record_busy_marks_at`](crate::Probe::record_busy_marks_at).
    pub fn marks(id: crate::ProbeId) -> Self {
        Self::new(SpanKind::Marks(id))
    }

    /// Component `id`'s stalls of one cause, through
    /// [`Probe::record_stalls_at`](crate::Probe::record_stalls_at), which
    /// also maintains the last-stall diagnosis exactly like the
    /// per-cycle path.
    pub fn stalls(id: crate::ProbeId, cause: crate::StallCause) -> Self {
        Self::new(SpanKind::Stalls(id, cause))
    }

    /// Record run-relative cycle `t`.
    pub fn mark(&mut self, probe: &mut crate::Probe, t: u64) {
        if t == self.start + self.len {
            self.len += 1;
        } else {
            self.flush(probe);
            self.start = t;
            self.len = 1;
        }
    }

    /// Flush the trailing span.
    pub fn finish(self, probe: &mut crate::Probe) {
        self.flush(probe);
    }

    fn flush(&self, probe: &mut crate::Probe) {
        match self.kind {
            SpanKind::Busy => probe.record_busy_cycles_at(self.start, self.len),
            SpanKind::Marks(id) => probe.record_busy_marks_at(id, self.start, self.len),
            SpanKind::Stalls(id, cause) => probe.record_stalls_at(id, cause, self.start, self.len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Probe, StallCause};

    #[test]
    fn window_spans_split_correctly() {
        let mut hits: Vec<(usize, u64)> = Vec::new();
        TelemRecorder::each_window(4, 3, 7, |w, n| hits.push((w, n)));
        // Cycles 3..=9 over 4-wide windows: [3,4]→w0, [5,8]→w1, [9]→w2.
        assert_eq!(hits, vec![(0, 2), (1, 4), (2, 1)]);
    }

    #[test]
    fn span_of_zero_is_a_no_op() {
        let mut hits = 0;
        TelemRecorder::each_window(4, 10, 0, |_, _| hits += 1);
        assert_eq!(hits, 0);
    }

    #[test]
    fn seal_pads_and_drops_inactive_components() {
        let mut p = Probe::new();
        p.enable_telemetry(4);
        p.component("silent");
        let active = p.component("active");
        p.begin_cycle(1);
        p.busy(active);
        p.end_cycle();
        p.finish_run(10);
        let series = p.take_telemetry();
        assert_eq!(series.len(), 1);
        let s = &series[0];
        assert_eq!(s.cycles, 10);
        assert_eq!(s.windows(), 3);
        assert_eq!(s.busy, vec![1, 0, 0]);
        assert_eq!(s.comps.len(), 1);
        assert_eq!(s.comps[0].name, "active");
        assert_eq!(s.comps[0].busy, vec![1, 0, 0]);
        assert_eq!(s.window_width(0), 4);
        assert_eq!(s.window_width(2), 2);
        assert!(p.take_telemetry().is_empty(), "take drains");
    }

    /// Regression (observatory `--telemetry-window` edge cases): a
    /// window wider than the whole run must degrade to exactly one
    /// window holding the entire series — deterministically, with the
    /// partial-tail width equal to the run length — and the per-cycle
    /// and positioned paths must agree on it. A zero-width window is a
    /// constructor error (the CLI layer rejects it before any recorder
    /// exists; see `fblas-bench`'s shared `cli` helpers).
    #[test]
    fn window_wider_than_the_run_is_one_giant_window() {
        let giant = 1u64 << 40;
        let mut stepped = Probe::new();
        stepped.enable_telemetry(giant);
        let c = stepped.component("c");
        for t in 1..=100u64 {
            stepped.begin_cycle(t);
            if t % 2 == 0 {
                stepped.busy(c);
            }
            stepped.end_cycle();
        }
        stepped.finish_run(100);
        let mut batched = Probe::new();
        batched.enable_telemetry(giant);
        let c = batched.component("c");
        for t in 1..=100u64 {
            if t % 2 == 0 {
                batched.record_busy_cycles_at(t, 1);
                batched.record_busy_marks_at(c, t, 1);
            }
        }
        batched.finish_run(100);
        let a = stepped.take_telemetry();
        let b = batched.take_telemetry();
        assert_eq!(a, b, "stepped and positioned series must be identical");
        let s = &a[0];
        assert_eq!(s.windows(), 1, "one giant window");
        assert_eq!(s.busy, vec![50]);
        assert_eq!(s.comps[0].busy, vec![50]);
        assert_eq!(s.window_width(0), 100, "tail width is the run length");
    }

    #[test]
    #[should_panic(expected = "telemetry window must be at least one cycle")]
    fn zero_width_window_is_rejected_at_construction() {
        let _ = TelemRecorder::new(0);
    }

    /// Current-window counts land in the right window when stepping
    /// skips windows, interleaves with positioned spans, or restarts at
    /// cycle 1 in the next run.
    #[test]
    fn per_cycle_counts_flush_on_crossings_and_seal() {
        let mut p = Probe::new();
        p.enable_telemetry(4);
        let c = p.component("c");
        for t in [1, 2, 9, 10] {
            p.begin_cycle(t);
            p.busy(c);
            p.sample_depth(c, t as usize);
            p.end_cycle();
        }
        p.record_busy_cycles_at(5, 2);
        p.finish_run(10);
        p.begin_cycle(1);
        p.stall(c, StallCause::Drain);
        p.end_cycle();
        p.finish_run(3);
        let series = p.take_telemetry();
        assert_eq!(series[0].busy, vec![2, 2, 2]);
        assert_eq!(series[0].comps[0].depth_sum, vec![3, 0, 19]);
        assert_eq!(series[0].comps[0].depth_samples, vec![2, 0, 2]);
        assert_eq!(series[1].busy, vec![0]);
        assert_eq!(
            series[1].comps[0].stalls[StallCause::Drain.index()],
            vec![1]
        );
    }

    #[test]
    fn positioned_and_per_cycle_paths_agree() {
        let mut stepped = Probe::new();
        stepped.enable_telemetry(4);
        let c = stepped.component("c");
        for t in 1..=10u64 {
            stepped.begin_cycle(t);
            if (3..=9).contains(&t) {
                stepped.busy(c);
                stepped.stall(c, StallCause::Drain);
                stepped.sample_depth(c, 2);
            }
            stepped.end_cycle();
        }
        stepped.finish_run(10);
        let mut batched = Probe::new();
        batched.enable_telemetry(4);
        let c = batched.component("c");
        batched.record_busy_cycles_at(3, 7);
        batched.record_busy_marks_at(c, 3, 7);
        batched.record_stalls_at(c, StallCause::Drain, 3, 7);
        batched.record_depths_at(c, 2, 3, 7);
        batched.finish_run(10);
        assert_eq!(stepped.take_telemetry(), batched.take_telemetry());
    }
}
