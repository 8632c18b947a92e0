//! Row-major matrix-vector multiply: the tree-based architecture.
//!
//! With A streamed in row-major order, `y = A·x` is n consecutive dot
//! products. Multiplier p holds elements p, k+p, 2k+p, … of x in a local
//! store; each cycle the k multipliers receive k consecutive elements of a
//! row of A, look up the matching x elements and fire in lockstep; the
//! adder tree folds the k products and the reduction circuit accumulates
//! each row's stream — n sets of n/k values arriving back to back with no
//! gaps, which is precisely the multi-set, no-stall workload the §4.3
//! circuit was designed for.

use super::{DenseMatrix, MvmOutcome, MvmParams};
use crate::reduce::{ReduceInput, Reducer, SingleAdderReducer};
use fblas_fpu::softfloat::{balanced_sum, mul_f64};
use fblas_mem::{LocalStore, ReadChannel};
use fblas_sim::{
    flip_f64_bit, ClockDomain, DelayLine, DepthRuns, Design, EdgeKind, FaultKind, FaultSpec, Fifo,
    Harness, Probe, ProbeId, SpanRuns, StallCause, Topology,
};
use fblas_system::{ClockModel, Xd1Node};

/// The tree-based row-major matrix-vector design.
#[derive(Debug, Clone)]
pub struct RowMajorMvm {
    params: MvmParams,
    clock: ClockDomain,
    /// On-chip words available for the x stores (None = unchecked).
    bram_words_limit: Option<u64>,
}

impl RowMajorMvm {
    /// Instantiate on an XD1 node, checking bandwidth and on-chip storage
    /// (x occupies n words of BRAM; §4.2: "the size of required on-chip
    /// memory is n words").
    pub fn new(params: MvmParams, node: &Xd1Node) -> Self {
        assert!(
            params.k.is_power_of_two(),
            "adder tree needs power-of-two k"
        );
        let clock = ClockModel::default().tree_design();
        let supply = node.sram_words_per_cycle(clock.mhz());
        assert!(
            params.matrix_words_per_cycle <= supply + 1e-9,
            "design demands {} words/cycle but the SRAM path supplies {supply}",
            params.matrix_words_per_cycle
        );
        Self {
            params,
            clock,
            bram_words_limit: Some(node.device.bram_words()),
        }
    }

    /// Instantiate without platform checks (ablations, blocked driver).
    pub fn standalone(params: MvmParams, clock_mhz: f64) -> Self {
        assert!(
            params.k.is_power_of_two(),
            "adder tree needs power-of-two k"
        );
        Self {
            params,
            clock: ClockDomain::from_mhz(clock_mhz),
            bram_words_limit: None,
        }
    }

    /// Design parameters.
    pub fn params(&self) -> &MvmParams {
        &self.params
    }

    /// Clock domain.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Static channel graph (§4.2 row-major form): the matrix stream and
    /// per-lane x local stores feed the k-lane tree front end; each row's
    /// partial stream accumulates in the §4.3 reduction circuit behind
    /// the gated backlog, exactly as in the dot-product design.
    pub fn topology(&self) -> Topology {
        let p = &self.params;
        let mut t = Topology::new(format!("mvm-row[k={}]", p.k));
        let a = t.source("a-stream");
        let xs = t.junction("x-stores");
        let mult = t.pe("mult-bank", p.k as f64);
        let tree = t.pe("adder-tree", (p.k - 1) as f64);
        let reducer = t.pe("reduction", 1.0);
        let y = t.sink("y-port");
        t.edge(
            "a-feed",
            a,
            mult,
            EdgeKind::Channel {
                words_per_cycle: p.matrix_words_per_cycle,
                flops_per_word: 2.0,
            },
        );
        t.edge("x-reuse", xs, mult, EdgeKind::Wire);
        t.edge("lockstep", mult, tree, EdgeKind::Wire);
        let tree_latency = p.mult_stages + p.k.ilog2() as usize * p.adder_stages;
        crate::topology::attach_gated_backlog(&mut t, tree, reducer, mult, tree_latency);
        crate::topology::attach_reduction_loop(&mut t, reducer, p.adder_stages);
        t.edge(
            "y-write",
            reducer,
            y,
            EdgeKind::Channel {
                words_per_cycle: 1.0,
                flops_per_word: 0.0,
            },
        );
        t
    }

    /// Compute `y = A·x` with the paper's reduction circuit.
    pub fn run(&self, a: &DenseMatrix, x: &[f64]) -> MvmOutcome {
        self.run_with_initial(a, x, None)
    }

    /// [`RowMajorMvm::run`] through a caller-supplied harness, so the
    /// run's stall attribution and occupancy waveforms land in the
    /// caller's probe (e.g. a `--trace` session).
    pub fn run_in(&self, harness: &mut Harness, a: &DenseMatrix, x: &[f64]) -> MvmOutcome {
        let mut reducer = SingleAdderReducer::new(self.params.adder_stages);
        self.run_with_reducer_in(harness, a, x, None, &mut reducer)
    }

    /// Compute `y = y0 + A·x`: the blocked driver folds the previous
    /// panel's partial sums (`y0`) into each row's reduction set as one
    /// extra input value.
    pub fn run_with_initial(&self, a: &DenseMatrix, x: &[f64], y0: Option<&[f64]>) -> MvmOutcome {
        let mut reducer = SingleAdderReducer::new(self.params.adder_stages);
        self.run_with_reducer(a, x, y0, &mut reducer)
    }

    /// Full-control entry point: explicit reduction circuit (ablations).
    pub fn run_with_reducer<R: Reducer>(
        &self,
        a: &DenseMatrix,
        x: &[f64],
        y0: Option<&[f64]>,
        reducer: &mut R,
    ) -> MvmOutcome {
        self.run_with_reducer_in(&mut Harness::new(), a, x, y0, reducer)
    }

    /// [`RowMajorMvm::run_with_reducer`] through a caller-supplied
    /// harness.
    pub fn run_with_reducer_in<R: Reducer>(
        &self,
        harness: &mut Harness,
        a: &DenseMatrix,
        x: &[f64],
        y0: Option<&[f64]>,
        reducer: &mut R,
    ) -> MvmOutcome {
        let k = self.params.k;
        let rows = a.rows();
        let cols = a.cols();
        assert_eq!(x.len(), cols, "x must have one element per column of A");
        assert!(rows > 0 && cols > 0, "empty matrix");
        if let Some(y0) = y0 {
            assert_eq!(y0.len(), rows, "y0 must have one element per row");
        }
        if let Some(limit) = self.bram_words_limit {
            // §4.2: "the size of required on-chip memory is n words"; when
            // x exceeds BRAM the blocked driver must be used instead.
            assert!(
                (cols as u64) <= limit,
                "x needs {cols} on-chip words but the device holds {limit}; \
                 use BlockedRowMajorMvm"
            );
        }

        // Distribute x across the k per-multiplier local stores: store p
        // holds x[p], x[k+p], … at local indices 0, 1, …
        let lanes = cols.div_ceil(k);
        let mut x_stores: Vec<LocalStore> = (0..k)
            .map(|p| LocalStore::new(format!("x[lane {p}]"), lanes))
            .collect();
        for (j, &xj) in x.iter().enumerate() {
            x_stores[j % k].write(j / k, xj);
        }

        let tree_latency = self.params.mult_stages + k.ilog2() as usize * self.params.adder_stages;
        let mut run = RowMvmRun {
            k,
            rows,
            cols,
            groups_per_row: cols.div_ceil(k),
            // Rate accounting, not datapath. lint: allow(native-f64)
            full_rate: self.params.matrix_words_per_cycle >= k as f64,
            x_stores,
            a_ch: ReadChannel::new(a.row_major_stream(), self.params.matrix_words_per_cycle),
            tree: DelayLine::new(tree_latency),
            // Bounded like the dot-product backlog: the front end stops at
            // two waiting values, plus whatever the tree holds in flight.
            backlog: Fifo::new(2 + tree_latency),
            group: Vec::with_capacity(k),
            row: 0,
            group_in_row: 0,
            y0,
            // The extra y0 element is injected as the first value of each set.
            y0_injected: y0.is_none(),
            row_start: vec![0; rows],
            y: vec![f64::NAN; rows],
            done_rows: 0,
            values_fed: 0,
            reducer,
            limit: (rows as u64 * cols as u64 / k as u64 + 1024) * 8 + 200_000,
            ids: None,
        };
        let report = harness.run(&mut run);
        MvmOutcome::new(
            run.y,
            report,
            self.clock,
            self.params.matrix_words_per_cycle,
        )
    }
}

/// Probe components of one row-major `MvM` run.
#[derive(Debug, Clone, Copy)]
struct RowMvmIds {
    front_end: ProbeId,
    a_stream: ProbeId,
    backlog: ProbeId,
    reducer: ProbeId,
    reduction_buffer: ProbeId,
}

/// One in-flight row-major `MvM` computation as a harness [`Design`].
struct RowMvmRun<'a, R: Reducer> {
    k: usize,
    rows: usize,
    cols: usize,
    groups_per_row: usize,
    /// Channel rate covers a whole group per cycle — precondition of the
    /// fused fast-forward schedule.
    full_rate: bool,
    x_stores: Vec<LocalStore>,
    a_ch: ReadChannel,
    tree: DelayLine<(u64, f64, bool)>,
    backlog: Fifo<(u64, f64, bool)>,
    group: Vec<f64>,
    row: usize,
    group_in_row: usize,
    y0: Option<&'a [f64]>,
    y0_injected: bool,
    /// Run cycle each row's first value entered the tree (latency base).
    row_start: Vec<u64>,
    y: Vec<f64>,
    done_rows: usize,
    values_fed: u64,
    reducer: &'a mut R,
    limit: u64,
    ids: Option<RowMvmIds>,
}

impl<R: Reducer> Design for RowMvmRun<'_, R> {
    fn name(&self) -> &str {
        "row-mvm"
    }

    fn setup(&mut self, probe: &mut Probe) {
        self.ids = Some(RowMvmIds {
            front_end: probe.component("row-mvm/front-end"),
            a_stream: probe.component("row-mvm/a-stream"),
            backlog: probe.component("row-mvm/backlog"),
            reducer: probe.component("row-mvm/reducer"),
            reduction_buffer: probe.component("row-mvm/reduction-buffer"),
        });
    }

    fn cycle(&mut self, probe: &mut Probe) {
        let ids = self.ids.expect("setup registered components");

        self.a_ch.tick();
        let mut tree_in = None;
        if self.row < self.rows && self.backlog.len() < 2 {
            if !self.y0_injected {
                // One injection cycle per row: the carried-in partial. No
                // FP unit issues and no new words stream in, so neither
                // busy nor flops nor I/O is charged.
                tree_in = Some((self.row as u64, self.y0.expect("guarded")[self.row], false));
                self.row_start[self.row] = probe.run_cycle();
                self.y0_injected = true;
                self.values_fed += 1;
            } else {
                let lo = self.group_in_row * self.k;
                let hi = (lo + self.k).min(self.cols);
                let got = self
                    .a_ch
                    .read_up_to(hi - lo - self.group.len(), &mut self.group);
                probe.io_in(got as u64);
                if self.group.len() == hi - lo {
                    // Lockstep: multiply each element with its lane's
                    // stored x and fold through the balanced tree
                    // (same association as the k-leaf adder tree).
                    let mut prods = Vec::with_capacity(self.k);
                    for (off, &aij) in self.group.iter().enumerate() {
                        let j = lo + off;
                        let xj = self.x_stores[j % self.k].read(j / self.k);
                        prods.push(mul_f64(aij, xj));
                    }
                    let value = balanced_sum(&prods);
                    // One mul per element plus one accumulation add per
                    // element (tree + reduction, amortized): 2·cols·rows
                    // over the run, the analytic §4.2 count.
                    probe.busy(ids.front_end);
                    probe.flops(2 * self.group.len() as u64);
                    self.group.clear();
                    let last = self.group_in_row + 1 == self.groups_per_row;
                    tree_in = Some((self.row as u64, value, last));
                    if self.group_in_row == 0 && self.y0.is_none() {
                        self.row_start[self.row] = probe.run_cycle();
                    }
                    self.group_in_row += 1;
                    self.values_fed += 1;
                    if last {
                        self.row += 1;
                        self.group_in_row = 0;
                        self.y0_injected = self.y0.is_none();
                    }
                } else {
                    probe.stall(ids.front_end, StallCause::InputStarved);
                }
            }
        } else if self.row < self.rows {
            probe.stall(ids.front_end, StallCause::OutputBackpressured);
        } else {
            probe.stall(ids.front_end, StallCause::Drain);
        }

        if let Some(out) = self.tree.step(tree_in) {
            self.backlog
                .try_push(out)
                .expect("backlog exceeded its 2 + tree-latency bound");
        }
        let red_in = if self.reducer.ready() {
            self.backlog.pop().map(|(set_id, value, last)| ReduceInput {
                set_id,
                value,
                last,
            })
        } else {
            None
        };
        if red_in.is_some() {
            probe.busy(ids.reducer);
        } else if self.row == self.rows {
            probe.stall(ids.reducer, StallCause::Drain);
        } else if !self.backlog.is_empty() {
            probe.stall(ids.reducer, StallCause::OutputBackpressured);
        }
        if let Some(ev) = self.reducer.tick(red_in) {
            self.y[ev.set_id as usize] = ev.value;
            self.done_rows += 1;
            probe.io_out(1);
            // Row completion latency: emission cycle minus the cycle the
            // row's first value entered the tree, inclusive.
            let rc = probe.run_cycle();
            probe.latency(ids.reducer, rc - self.row_start[ev.set_id as usize] + 1);
        }

        self.backlog.probe_occupancy(probe, ids.backlog);
        probe.sample_depth(ids.reduction_buffer, self.reducer.buffered());
        self.a_ch.probe_utilization(probe, ids.a_stream);
    }

    /// Fused replay of the whole run. At full channel rate every cycle
    /// completes exactly one group (or one y0 injection), so the feed
    /// schedule is gapless and closed-form: feed slot t covers row
    /// `(t-1)/per_row`, the tree delivers it L cycles later, and a
    /// never-stalling reducer consumes it the cycle it arrives (the
    /// backlog never dwells, hence samples 0 every cycle — the invariant
    /// the cycle-stepped path exhibits). The loop only ticks the
    /// reduction circuit and accumulates plain integers; probe counters
    /// are reconstructed through the batched recording API afterwards,
    /// bit-identical to the stepped run's (the parity suites assert it).
    fn fast_forward(&mut self, probe: &mut Probe) -> u64 {
        if !self.full_rate || !self.reducer.never_stalls() {
            return 0;
        }
        assert!(
            self.row == 0 && self.done_rows == 0,
            "fast_forward must run before the first cycle"
        );
        let ids = self.ids.expect("setup registered components");
        let latency = self.tree.latency() as u64;
        let inj = u64::from(self.y0.is_some());
        let gpr = self.groups_per_row as u64;
        let per_row = gpr + inj;
        let rows = self.rows as u64;
        let feed_total = rows * per_row;
        let elems = rows * self.cols as u64;
        // The stored x, in column order: the lane banks hold x[j] at
        // bank j mod k, word j / k.
        let x: Vec<f64> = (0..self.cols)
            .map(|j| self.x_stores[j % self.k].read(j / self.k))
            .collect();
        let a = self.a_ch.data();
        let mut prods: Vec<f64> = Vec::with_capacity(self.k);
        let mut busy_runs = SpanRuns::busy();
        let mut feed_runs = SpanRuns::marks(ids.front_end);
        let mut drain_runs = SpanRuns::stalls(ids.reducer, StallCause::Drain);
        let mut buffer_runs = DepthRuns::new(ids.reduction_buffer);
        let mut stream_runs = DepthRuns::new(ids.a_stream);
        let mut t: u64 = 0;
        while self.done_rows < self.rows {
            t += 1;
            assert!(
                t < self.limit,
                "row-mvm: simulation exceeded cycle limit {}",
                self.limit
            );
            // Front end: injection slots charge neither busy nor flops
            // nor I/O, exactly as in the stepped loop.
            let feeding = t <= feed_total && (t - 1) % per_row >= inj;
            // Tree delivery: the entry fed at cycle t−L reaches the
            // reducer this cycle.
            let red_in = if t > latency && t <= feed_total + latency {
                let idx = t - latency - 1;
                let r = idx / per_row;
                let pos = idx % per_row;
                let (value, last) = if pos < inj {
                    (self.y0.expect("guarded")[r as usize], false)
                } else {
                    let g = (pos - inj) as usize;
                    let lo = g * self.k;
                    let hi = (lo + self.k).min(self.cols);
                    let row = &a[r as usize * self.cols..][lo..hi];
                    prods.clear();
                    prods.extend(
                        row.iter()
                            .zip(&x[lo..hi])
                            .map(|(&aij, &xj)| mul_f64(aij, xj)),
                    );
                    (balanced_sum(&prods), g + 1 == self.groups_per_row)
                };
                Some(ReduceInput {
                    set_id: r,
                    value,
                    last,
                })
            } else {
                None
            };
            if feeding {
                feed_runs.mark(probe, t);
            }
            if feeding || red_in.is_some() {
                busy_runs.mark(probe, t);
            }
            if red_in.is_none() && t >= feed_total {
                drain_runs.mark(probe, t);
            }
            if let Some(ev) = self.reducer.tick(red_in) {
                self.y[ev.set_id as usize] = ev.value;
                self.done_rows += 1;
                // Row completion latency: the feed schedule is gapless,
                // so row r's first value entered the tree at r·per_row+1.
                probe.latency(ids.reducer, t - ev.set_id * per_row);
            }
            buffer_runs.push(probe, self.reducer.buffered());
            // Matrix-channel words consumed this cycle: a full or ragged
            // group on feed slots, nothing on injections and the drain.
            let delta = if t <= feed_total {
                let pos = (t - 1) % per_row;
                if pos < inj {
                    0
                } else {
                    let lo = (pos - inj) as usize * self.k;
                    (lo + self.k).min(self.cols) - lo
                }
            } else {
                0
            };
            stream_runs.push(probe, delta);
        }
        self.values_fed += feed_total;
        self.row = self.rows;
        busy_runs.finish(probe);
        feed_runs.finish(probe);
        drain_runs.finish(probe);
        buffer_runs.finish(probe);
        stream_runs.finish(probe);

        // Counter reconstruction: positioned spans matching the stepped
        // run's per-cycle probe calls over its t cycles (exact windowed
        // telemetry when enabled; the same totals either way).
        probe.io_in(elems);
        probe.flops(2 * elems);
        probe.io_out(rows);
        probe.record_busy_marks_at(ids.reducer, latency + 1, feed_total);
        probe.record_stalls_at(
            ids.front_end,
            StallCause::Drain,
            feed_total + 1,
            t - feed_total,
        );
        probe.record_depths_at(ids.backlog, 0, 1, t);
        probe.record_rate_base(ids.a_stream, elems);
        t
    }

    fn done(&self) -> bool {
        self.done_rows >= self.rows
    }

    fn cycle_limit(&self) -> u64 {
        self.limit
    }

    fn progress(&self) -> Option<u64> {
        Some(self.values_fed + self.reducer.adds_issued() + self.done_rows as u64)
    }

    fn inject(&mut self, fault: &FaultSpec) -> bool {
        match fault.kind {
            FaultKind::PipelineBitFlip { stage, bit } => self
                .tree
                .fault_mutate(stage, |t| t.1 = flip_f64_bit(t.1, bit)),
            FaultKind::BufferBitFlip { slot, bit } => self
                .backlog
                .fault_mutate(slot, |t| t.1 = flip_f64_bit(t.1, bit)),
            FaultKind::ChannelStall { beats } => self.a_ch.fault_drop_beats(beats),
            FaultKind::StuckAtZero { slot, bit } => self.reducer.fault_stuck_at(slot, bit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvm::testmat::int_case;
    use fblas_sim::ExecBackend;

    #[test]
    fn result_exact_for_integer_matrix() {
        let (a, x) = int_case(64);
        let d = RowMajorMvm::standalone(MvmParams::with_k(4), 170.0);
        let out = d.run(&a, &x);
        assert_eq!(out.y, a.ref_mvm(&x));
    }

    #[test]
    fn table3_shape_high_fraction_of_peak() {
        // Table 3: k = 4 sustains ~97 % of the 2·bw peak; the reduction
        // drain is negligible against n²/k streaming cycles.
        let (a, x) = int_case(256);
        let d = RowMajorMvm::new(MvmParams::table3(), &Xd1Node::default());
        let out = d.run(&a, &x);
        let frac = out.fraction_of_peak();
        assert!(frac > 0.9, "fraction of peak {frac}");
        assert!(frac <= 1.0);
    }

    #[test]
    fn cycles_near_io_lower_bound() {
        let (a, x) = int_case(128);
        let p = MvmParams::with_k(4);
        let d = RowMajorMvm::standalone(p, 170.0);
        let out = d.run(&a, &x);
        let lower = (128 * 128 / 4) as u64;
        assert!(out.report.cycles >= lower);
        assert!(
            out.report.cycles < lower + 2 * 14 * 14 + 200,
            "cycles {} too far above bound {lower}",
            out.report.cycles
        );
    }

    #[test]
    fn non_square_and_ragged_dimensions() {
        let a = DenseMatrix::from_fn(5, 7, |i, j| ((i + 2 * j) % 5) as f64);
        let x: Vec<f64> = (0..7).map(|j| f64::from(j % 3)).collect();
        let d = RowMajorMvm::standalone(MvmParams::with_k(4), 170.0);
        let out = d.run(&a, &x);
        assert_eq!(out.y, a.ref_mvm(&x));
    }

    #[test]
    fn initial_y_folds_in() {
        let (a, x) = int_case(16);
        let y0: Vec<f64> = (0..16).map(|i| f64::from(i % 4)).collect();
        let d = RowMajorMvm::standalone(MvmParams::with_k(2), 170.0);
        let out = d.run_with_initial(&a, &x, Some(&y0));
        let expect: Vec<f64> = a.ref_mvm(&x).iter().zip(&y0).map(|(r, y)| r + y).collect();
        assert_eq!(out.y, expect);
    }

    #[test]
    fn k1_degenerates_to_scalar_stream() {
        let (a, x) = int_case(8);
        let d = RowMajorMvm::standalone(MvmParams::with_k(1), 170.0);
        let out = d.run(&a, &x);
        assert_eq!(out.y, a.ref_mvm(&x));
    }

    #[test]
    fn bram_capacity_enforced_on_platform_instances() {
        // XC2VP50 holds 64K doubles of BRAM; an x of 100K words must be
        // rejected with a pointer at the blocked driver.
        let d = RowMajorMvm::new(MvmParams::table3(), &Xd1Node::default());
        let a = DenseMatrix::from_fn(4, 100_000, |_, _| 1.0);
        let x = vec![1.0; 100_000];
        let res = std::panic::catch_unwind(|| d.run(&a, &x));
        assert!(res.is_err(), "oversized x must be rejected");
    }

    /// The parity pin: the native backend replays the exact probe
    /// sequence and the tree + reducer association, so it reproduces the
    /// cycle stepper's result *and* report bit-for-bit on random reals,
    /// with and without a carried-in y0, on square and ragged shapes.
    #[test]
    fn backends_agree_bit_for_bit() {
        use crate::random_vec;
        for n in [8usize, 64, 129] {
            let a = DenseMatrix::from_rows(n, n, random_vec(n as u64, n * n));
            let x = random_vec(n as u64 + 3, n);
            let y0 = random_vec(n as u64 + 9, n);
            for y0 in [None, Some(&y0[..])] {
                let d = RowMajorMvm::standalone(MvmParams::with_k(4), 170.0);
                let mut cy = Harness::new();
                let mut nat = Harness::with_backend(ExecBackend::Native);
                let run = |h: &mut Harness| {
                    let mut r = SingleAdderReducer::new(fblas_fpu::ADDER_STAGES);
                    d.run_with_reducer_in(h, &a, &x, y0, &mut r)
                };
                let out_cy = run(&mut cy);
                let out_nat = run(&mut nat);
                assert_eq!(nat.ff_cycles(), out_cy.report.cycles, "n = {n}");
                let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out_nat.y), bits(&out_cy.y), "n = {n}");
                assert_eq!(out_nat.report, out_cy.report, "n = {n}");
                assert_eq!(cy.probe().stall_totals(), nat.probe().stall_totals());
            }
        }
    }

    #[test]
    fn ragged_shape_backends_agree() {
        let a = DenseMatrix::from_fn(5, 7, |i, j| ((i + 2 * j) % 5) as f64);
        let x: Vec<f64> = (0..7).map(|j| f64::from(j % 3)).collect();
        let d = RowMajorMvm::standalone(MvmParams::with_k(4), 170.0);
        let mut cy = Harness::new();
        let mut nat = Harness::with_backend(ExecBackend::Native);
        let out_cy = d.run_in(&mut cy, &a, &x);
        let out_nat = d.run_in(&mut nat, &a, &x);
        assert_eq!(nat.ff_cycles(), out_cy.report.cycles);
        assert_eq!(out_nat.y, out_cy.y);
        assert_eq!(out_nat.report, out_cy.report);
    }

    /// A sub-group stream rate violates the full-rate precondition: the
    /// run declines to the cycle stepper rather than replay an unsound
    /// schedule.
    #[test]
    fn fractional_rate_declines_fast_forward() {
        let params = MvmParams {
            matrix_words_per_cycle: 2.0,
            ..MvmParams::with_k(4)
        };
        let (a, x) = int_case(32);
        let d = RowMajorMvm::standalone(params, 170.0);
        let mut cy = Harness::new();
        let mut nat = Harness::with_backend(ExecBackend::Native);
        let out_cy = d.run_in(&mut cy, &a, &x);
        let out_nat = d.run_in(&mut nat, &a, &x);
        assert_eq!(nat.ff_cycles(), 0, "fractional rate must cycle-step");
        assert_eq!(out_nat.y, out_cy.y);
        assert_eq!(out_nat.report, out_cy.report);
    }

    /// A stalling ablation reducer fails the never-stalls precondition:
    /// fast-forward declines and both backends still agree.
    #[test]
    fn stalling_reducer_declines_fast_forward() {
        use crate::reduce::StallingReducer;
        let (a, x) = int_case(16);
        let d = RowMajorMvm::standalone(MvmParams::with_k(2), 170.0);
        let mut nat = Harness::with_backend(ExecBackend::Native);
        let mut r1 = StallingReducer::new(fblas_fpu::ADDER_STAGES);
        let out_nat = d.run_with_reducer_in(&mut nat, &a, &x, None, &mut r1);
        assert_eq!(nat.ff_cycles(), 0, "stalling reducer must cycle-step");
        let mut r2 = StallingReducer::new(fblas_fpu::ADDER_STAGES);
        let out_cy = d.run_with_reducer(&a, &x, None, &mut r2);
        assert_eq!(out_nat.report, out_cy.report);
    }

    #[test]
    fn words_accounting() {
        let (a, x) = int_case(32);
        let d = RowMajorMvm::standalone(MvmParams::with_k(4), 170.0);
        let out = d.run(&a, &x);
        assert_eq!(out.report.words_in, 32 * 32);
        assert_eq!(out.report.words_out, 32);
        assert_eq!(out.report.flops, 2 * 32 * 32);
    }
}
