//! The shared run engine: one loop, one watchdog, one report assembler.
//!
//! Every architecture in the workspace implements [`Design`] — a
//! setup → stream → drain lifecycle over its synchronous components —
//! and is executed by [`Harness::run`], which owns the cycle loop that
//! the designs used to hand-roll: the cycle counter, the hard cycle
//! limit, the livelock watchdog and the final
//! [`SimReport`](crate::SimReport) assembly from
//! [`Probe`](crate::Probe) counters.
//!
//! The contract mirrors the old per-design loops exactly, so ported
//! designs keep their cycle counts bit-for-bit: each loop iteration
//! first increments the cycle counter, asserts it is below
//! [`Design::cycle_limit`], then runs [`Design::cycle`] once.

use crate::backend::ExecBackend;
use crate::fault::{ArmedFaults, FaultLog, FaultSpec};
use crate::probe::Probe;
use crate::SimReport;

/// Cycles without forward progress after which [`Harness::run`] declares
/// a livelock. Generous: the deepest legitimate stall in these models is
/// a pipeline drain plus a reduction-buffer sweep, far below this.
pub const LIVELOCK_WINDOW: u64 = 100_000;

/// A simulated architecture with a setup → stream → drain lifecycle.
///
/// One call to [`Design::cycle`] advances every component of the design
/// by one clock; the design reports what the cycle did through the
/// [`Probe`]. Composite designs tick their sub-components in dataflow
/// order within `cycle`, exactly as [`Component`]-style models composed
/// their `tick`s.
///
/// [`Component`]: crate#components
pub trait Design {
    /// Short name for diagnostics and traces (e.g. `"dot"`).
    fn name(&self) -> &str;

    /// One-time initialisation before the first cycle: register probe
    /// components, pre-load local stores, account setup I/O.
    fn setup(&mut self, _probe: &mut Probe) {}

    /// Advance the design by one clock cycle.
    fn cycle(&mut self, probe: &mut Probe);

    /// True once every output has been produced (pipelines drained).
    fn done(&self) -> bool;

    /// Hook after the last cycle: flush results, account trailing I/O.
    fn drain(&mut self, _probe: &mut Probe) {}

    /// Hard cycle budget; exceeding it is a scheduling bug (a design
    /// that claims a latency bound must meet it).
    fn cycle_limit(&self) -> u64;

    /// A monotone counter of useful work (words consumed, results
    /// emitted, …), if the design tracks one. The harness watchdog
    /// watches it: a design whose clock advances while its progress
    /// counter stays frozen for [`LIVELOCK_WINDOW`] cycles is live-locked
    /// (stuck back-pressure, a lost token, a wedged handshake) and the
    /// run panics with a diagnosis — naming the most recently stalled
    /// component and its stall cause from probe data — distinct from the
    /// cycle-limit overrun.
    fn progress(&self) -> Option<u64> {
        None
    }

    /// Land a scheduled fault on this design's state.
    ///
    /// Called by the harness only while a fault schedule is armed (see
    /// [`Harness::arm_faults`]), at the top of the cycle the fault is due,
    /// before the design's combinational logic runs. Implementations map
    /// the spec onto one of their components via the `fault_*` hooks
    /// (`Fifo::fault_mutate`, `DelayLine::fault_mutate`, …) and return
    /// whether the fault found an occupied target; `false` means the
    /// fault was architecturally masked (bubble, empty buffer, or a site
    /// this design does not model). The default supports no injection.
    fn inject(&mut self, _fault: &FaultSpec) -> bool {
        false
    }

    /// Replay this design's run in a fused loop, skipping the
    /// cycle-stepped machinery (see [`ExecBackend`] and DESIGN.md §13).
    ///
    /// Called by the harness **once, at run start** (after
    /// [`Design::setup`], before the first [`Design::cycle`]) and only
    /// when the harness backend fast-forwards, no fault schedule is
    /// armed, and the probe is in summary mode. Implementations either:
    ///
    /// * return `0` to *decline* — the harness falls back to cycle
    ///   stepping with no observable difference (the default, and the
    ///   required answer whenever a soundness precondition fails, e.g. a
    ///   channel rate below the consume width or a reducer that can
    ///   stall); or
    /// * execute the **entire run** — identical softfloat arithmetic in
    ///   identical order, identical per-cycle probe samples,
    ///   bulk-reconstructed busy/stall/flop/io counters — leaving
    ///   [`Design::done`] true, and return the number of cycles the run
    ///   took. A partial fast-forward is not allowed: the fused loop
    ///   bypasses the design's channels and pipelines, so resuming
    ///   `cycle()` mid-run would observe inconsistent state.
    fn fast_forward(&mut self, _probe: &mut Probe) -> u64 {
        0
    }
}

/// Drives a [`Design`] to completion and assembles its [`SimReport`].
///
/// A harness owns a [`Probe`]; several designs can be run back-to-back
/// through the same harness (blocked drivers, traced multi-design
/// sessions) and each run reports only its own deltas while the probe
/// accumulates one continuous timeline.
///
/// A harness is `Send` (pinned by a compile-time assertion below): the
/// bench worker pool gives each worker its own harness, and nothing in
/// the harness or probe may ever grow interior shared state (`Rc`, raw
/// pointers, thread-local handles) that would make moving it across
/// threads unsound. Designs scheduled onto the pool must be `Send` for
/// the same reason — the pool's job type enforces that bound.
#[derive(Debug, Default)]
pub struct Harness {
    probe: Probe,
    /// Armed fault schedule, if any. `None` (the default) keeps the run
    /// loop on the zero-cost path: one `Option` test per cycle.
    faults: Option<ArmedFaults>,
    /// How runs execute: cycle-stepped (default) or natively replayed
    /// through `Design::fast_forward` where a design allows it.
    backend: ExecBackend,
    /// Cycles skipped past the cycle-stepper by `Design::fast_forward`,
    /// cumulative across runs (the wallclock sidecar reports per-run
    /// deltas the same way it reports stall deltas).
    ff_cycles: u64,
}

/// Compile-time audit: the simulation stack owns all of its state, so
/// harnesses (and the probes and reports they produce) can move to pool
/// workers. If a future field breaks this, the build fails here rather
/// than in a downstream crate.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Harness>();
    assert_send::<Probe>();
    assert_send::<SimReport>();
};

impl Harness {
    /// A harness with a summary-mode probe (the default for `run()`
    /// entry points).
    pub fn new() -> Self {
        Self::with_probe(Probe::new())
    }

    /// A harness recording deep traces (waveforms + trace events).
    pub fn deep() -> Self {
        Self::with_probe(Probe::deep())
    }

    /// A harness over a caller-constructed probe.
    pub fn with_probe(probe: Probe) -> Self {
        Self {
            probe,
            faults: None,
            backend: ExecBackend::Cycle,
            ff_cycles: 0,
        }
    }

    /// A summary-probe harness running on `backend`.
    pub fn with_backend(backend: ExecBackend) -> Self {
        let mut h = Self::new();
        h.backend = backend;
        h
    }

    /// Select the execution backend for subsequent runs.
    pub fn set_backend(&mut self, backend: ExecBackend) {
        self.backend = backend;
    }

    /// The execution backend subsequent runs will use.
    pub fn backend(&self) -> ExecBackend {
        self.backend
    }

    /// Cycles skipped past the cycle-stepper by fast-forwarding,
    /// cumulative across this harness's runs (0 under the cycle
    /// backend). Snapshot around a run for the per-run delta.
    pub fn ff_cycles(&self) -> u64 {
        self.ff_cycles
    }

    /// Arm a fault schedule: every subsequent [`Harness::run`] delivers
    /// due [`FaultSpec`]s to the design's [`Design::inject`] at the top
    /// of the scheduled cycle. The cycle counter is cumulative across
    /// runs from this call until [`Harness::disarm_faults`], so designs
    /// that execute as several back-to-back runs (blocked drivers) see
    /// one continuous fault timeline.
    pub fn arm_faults(&mut self, schedule: Vec<FaultSpec>) {
        self.faults = Some(ArmedFaults::new(schedule));
    }

    /// Disarm the fault schedule, returning its delivery log (`None` if
    /// nothing was armed).
    pub fn disarm_faults(&mut self) -> Option<FaultLog> {
        self.faults.take().map(|armed| armed.log())
    }

    /// The delivery log of the currently armed schedule, if any.
    pub fn fault_log(&self) -> Option<FaultLog> {
        self.faults.as_ref().map(ArmedFaults::log)
    }

    /// Enable windowed telemetry on this harness's probe: every
    /// subsequent run seals one [`TelemSeries`](crate::TelemSeries),
    /// drained via [`Probe::take_telemetry`]. See DESIGN.md §14.
    pub fn enable_telemetry(&mut self, window: u64) {
        self.probe.enable_telemetry(window);
    }

    /// Drain the telemetry series sealed by runs since the last call.
    pub fn take_telemetry(&mut self) -> Vec<crate::TelemSeries> {
        self.probe.take_telemetry()
    }

    /// The probe (for queries after a run).
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// Mutable access to the probe (to pre-register components).
    pub fn probe_mut(&mut self) -> &mut Probe {
        &mut self.probe
    }

    /// Consume the harness, yielding the probe and its recordings.
    pub fn into_probe(self) -> Probe {
        self.probe
    }

    /// Run `design` to completion.
    ///
    /// Returns the report of this run alone (cycles, FP issues, I/O
    /// words, busy cycles), derived from probe counters.
    ///
    /// # Panics
    /// * if the cycle counter reaches [`Design::cycle_limit`] — the
    ///   message names the design and contains `"cycle limit"`;
    /// * if [`Design::progress`] reports a counter and it stays frozen
    ///   for [`LIVELOCK_WINDOW`] consecutive cycles — the message starts
    ///   with `"livelock: no forward progress"` and appends the probe's
    ///   stall diagnosis.
    pub fn run<D: Design + ?Sized>(&mut self, design: &mut D) -> SimReport {
        let mark = self.probe.mark();
        design.setup(&mut self.probe);
        let limit = design.cycle_limit();
        let mut cycles: u64 = 0;
        // One fast-forward attempt, at run start only: the fused replay
        // either executes the whole run (returning its cycle count) or
        // declines with 0 and the stepper below runs untouched. Armed
        // faults and deep probes force the reference path — faults need
        // per-cycle inject dispatch, waveforms need per-cycle samples of
        // components the fused loop bypasses.
        if self.backend.fast_forwards() && self.faults.is_none() && !self.probe.is_deep() {
            let skipped = design.fast_forward(&mut self.probe);
            if skipped > 0 {
                assert!(
                    skipped < limit,
                    "{}: simulation exceeded cycle limit {limit}",
                    design.name()
                );
                assert!(
                    design.done(),
                    "{}: fast_forward returned {skipped} cycles without completing the run",
                    design.name()
                );
                cycles = skipped;
                self.ff_cycles += skipped;
            }
        }
        let mut last_progress = design.progress();
        let mut stuck_since: u64 = cycles;
        while !design.done() {
            cycles += 1;
            assert!(
                cycles < limit,
                "{}: simulation exceeded cycle limit {limit}",
                design.name()
            );
            self.probe.begin_cycle(cycles);
            if let Some(armed) = self.faults.as_mut() {
                armed.begin_cycle();
                while let Some(spec) = armed.pop_due() {
                    let landed = design.inject(&spec);
                    armed.record(landed);
                }
            }
            design.cycle(&mut self.probe);
            self.probe.end_cycle();
            let progress = design.progress();
            if progress != last_progress {
                last_progress = progress;
                stuck_since = cycles;
            } else if progress.is_some() {
                assert!(
                    cycles - stuck_since < LIVELOCK_WINDOW,
                    "livelock: no forward progress in '{}' for {LIVELOCK_WINDOW} cycles \
                     (progress counter stuck at {:?} since cycle {stuck_since}); {}",
                    design.name(),
                    progress.unwrap_or(0),
                    self.probe.stall_diagnosis()
                );
            }
        }
        design.drain(&mut self.probe);
        let report = self.probe.report_since(&mark, cycles);
        self.probe.finish_run(cycles);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::StallCause;

    /// Counts up to a target, marking every cycle busy.
    struct Counter {
        n: u64,
        target: u64,
        limit: u64,
    }
    impl Design for Counter {
        fn name(&self) -> &str {
            "counter"
        }
        fn cycle(&mut self, probe: &mut Probe) {
            self.n += 1;
            probe.flops(1);
        }
        fn done(&self) -> bool {
            self.n >= self.target
        }
        fn cycle_limit(&self) -> u64 {
            self.limit
        }
    }

    #[test]
    fn run_counts_cycles_and_builds_report() {
        let mut h = Harness::new();
        let r = h.run(&mut Counter {
            n: 0,
            target: 42,
            limit: 100,
        });
        assert_eq!(r.cycles, 42);
        assert_eq!(r.flops, 42);
        assert_eq!(r.busy_cycles, 0);
    }

    #[test]
    #[should_panic(expected = "cycle limit")]
    fn run_enforces_limit() {
        let mut h = Harness::new();
        h.run(&mut Counter {
            n: 0,
            target: u64::MAX,
            limit: 10,
        });
    }

    /// Ticks forever but stops making progress after `stall_at` items.
    struct Staller {
        n: u64,
        items: u64,
        stall_at: u64,
    }
    impl Design for Staller {
        fn name(&self) -> &str {
            "staller"
        }
        fn setup(&mut self, probe: &mut Probe) {
            probe.component("staller/feed");
        }
        fn cycle(&mut self, probe: &mut Probe) {
            self.n += 1;
            if self.items < self.stall_at {
                self.items += 1;
            } else {
                let id = probe.component("staller/feed");
                probe.stall(id, StallCause::OutputBackpressured);
            }
        }
        fn done(&self) -> bool {
            false
        }
        fn cycle_limit(&self) -> u64 {
            10 * LIVELOCK_WINDOW
        }
        fn progress(&self) -> Option<u64> {
            Some(self.items)
        }
    }

    #[test]
    fn livelock_fires_before_cycle_limit_and_names_the_component() {
        let res = std::panic::catch_unwind(|| {
            let mut h = Harness::new();
            h.run(&mut Staller {
                n: 0,
                items: 0,
                stall_at: 7,
            });
        });
        let err = res.expect_err("must livelock");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_else(|| {
            err.downcast_ref::<&str>()
                .map(std::string::ToString::to_string)
                .unwrap()
        });
        assert!(msg.contains("livelock: no forward progress"), "{msg}");
        assert!(msg.contains("staller/feed"), "{msg}");
        assert!(msg.contains("output-backpressured"), "{msg}");
    }

    #[test]
    fn slow_but_live_progress_is_not_a_livelock() {
        struct Slow {
            n: u64,
        }
        impl Design for Slow {
            fn name(&self) -> &str {
                "slow"
            }
            fn cycle(&mut self, _probe: &mut Probe) {
                self.n += 1;
            }
            fn done(&self) -> bool {
                self.n >= 3 * LIVELOCK_WINDOW
            }
            fn cycle_limit(&self) -> u64 {
                4 * LIVELOCK_WINDOW
            }
            fn progress(&self) -> Option<u64> {
                // One unit of work just inside every watchdog window.
                Some(self.n / (LIVELOCK_WINDOW - 1))
            }
        }
        let r = Harness::new().run(&mut Slow { n: 0 });
        assert_eq!(r.cycles, 3 * LIVELOCK_WINDOW);
    }

    #[test]
    fn designs_without_progress_tracking_skip_the_watchdog() {
        struct NoProgress {
            n: u64,
        }
        impl Design for NoProgress {
            fn name(&self) -> &str {
                "noprogress"
            }
            fn cycle(&mut self, _probe: &mut Probe) {
                self.n += 1;
            }
            fn done(&self) -> bool {
                self.n >= LIVELOCK_WINDOW + 10
            }
            fn cycle_limit(&self) -> u64 {
                2 * LIVELOCK_WINDOW
            }
        }
        let r = Harness::new().run(&mut NoProgress { n: 0 });
        assert_eq!(r.cycles, LIVELOCK_WINDOW + 10);
    }

    #[test]
    fn sequential_runs_report_their_own_deltas() {
        let mut h = Harness::new();
        let r1 = h.run(&mut Counter {
            n: 0,
            target: 10,
            limit: 100,
        });
        let r2 = h.run(&mut Counter {
            n: 0,
            target: 25,
            limit: 100,
        });
        assert_eq!(r1.cycles, 10);
        assert_eq!(r1.flops, 10);
        assert_eq!(r2.cycles, 25);
        assert_eq!(r2.flops, 25);
    }

    /// A design with one injectable register: accumulates cycle numbers
    /// into `acc`, and `inject` adds a marker value so fault delivery is
    /// observable and cycle-exact.
    struct Injectable {
        n: u64,
        target: u64,
        acc: u64,
        hits: Vec<u64>,
        support_injection: bool,
    }
    impl Design for Injectable {
        fn name(&self) -> &str {
            "injectable"
        }
        fn cycle(&mut self, _probe: &mut Probe) {
            self.n += 1;
            self.acc += self.n;
        }
        fn done(&self) -> bool {
            self.n >= self.target
        }
        fn cycle_limit(&self) -> u64 {
            1000
        }
        fn inject(&mut self, fault: &crate::FaultSpec) -> bool {
            if !self.support_injection {
                return false;
            }
            // Delivered before this cycle's logic: self.n is the
            // previous cycle, so the fault cycle is n + 1.
            self.hits.push(self.n + 1);
            self.acc ^= 1 << 40;
            let _ = fault;
            true
        }
    }

    #[test]
    fn armed_faults_are_delivered_on_their_scheduled_cycle() {
        let mut h = Harness::new();
        h.arm_faults(vec![
            crate::FaultSpec {
                cycle: 3,
                kind: crate::FaultKind::BufferBitFlip { slot: 0, bit: 1 },
            },
            crate::FaultSpec {
                cycle: 7,
                kind: crate::FaultKind::ChannelStall { beats: 2 },
            },
        ]);
        let mut d = Injectable {
            n: 0,
            target: 10,
            acc: 0,
            hits: Vec::new(),
            support_injection: true,
        };
        h.run(&mut d);
        assert_eq!(d.hits, vec![3, 7]);
        let log = h.disarm_faults().expect("was armed");
        assert_eq!(log.applied, 2);
        assert_eq!(log.missed, 0);
        assert_eq!(log.pending, 0);
        assert_eq!(log.cycles, 10);
        assert!(h.disarm_faults().is_none(), "disarm is one-shot");
    }

    #[test]
    fn fault_cycle_counter_is_cumulative_across_runs() {
        let mut h = Harness::new();
        h.arm_faults(vec![crate::FaultSpec {
            cycle: 15,
            kind: crate::FaultKind::PipelineBitFlip { stage: 0, bit: 0 },
        }]);
        let mk = || Injectable {
            n: 0,
            target: 10,
            acc: 0,
            hits: Vec::new(),
            support_injection: true,
        };
        let mut first = mk();
        h.run(&mut first);
        assert!(first.hits.is_empty(), "due at 15, first run ends at 10");
        let mut second = mk();
        h.run(&mut second);
        // Cycle 15 of the armed timeline is cycle 5 of the second run.
        assert_eq!(second.hits, vec![5]);
        assert_eq!(h.fault_log().unwrap().applied, 1);
    }

    #[test]
    fn unsupported_designs_mask_faults_into_the_log() {
        let mut h = Harness::new();
        h.arm_faults(vec![crate::FaultSpec {
            cycle: 2,
            kind: crate::FaultKind::StuckAtZero { slot: 0, bit: 0 },
        }]);
        let mut d = Injectable {
            n: 0,
            target: 5,
            acc: 0,
            hits: Vec::new(),
            support_injection: false,
        };
        h.run(&mut d);
        let log = h.disarm_faults().unwrap();
        assert_eq!(log.applied, 0);
        assert_eq!(log.missed, 1);
    }

    /// Probe-neutrality analogue for the fault layer: a harness that was
    /// never armed — and one that was armed with an *empty* schedule —
    /// produces bit-identical design state and reports.
    #[test]
    fn disarmed_and_empty_schedules_leave_runs_bit_identical() {
        let run_with = |arm: Option<Vec<crate::FaultSpec>>| {
            let mut h = Harness::new();
            if let Some(schedule) = arm {
                h.arm_faults(schedule);
            }
            let mut d = Injectable {
                n: 0,
                target: 50,
                acc: 0,
                hits: Vec::new(),
                support_injection: true,
            };
            let report = h.run(&mut d);
            (d.acc, report)
        };
        let (acc_plain, rep_plain) = run_with(None);
        let (acc_empty, rep_empty) = run_with(Some(Vec::new()));
        assert_eq!(acc_plain, acc_empty);
        assert_eq!(rep_plain, rep_empty);
    }

    #[test]
    fn deep_and_summary_probes_produce_identical_reports() {
        let mut summary = Harness::new();
        let mut deep = Harness::deep();
        let mk = || Counter {
            n: 0,
            target: 33,
            limit: 100,
        };
        assert_eq!(summary.run(&mut mk()), deep.run(&mut mk()));
    }
}
