//! Column-major matrix-vector multiply: interleaved accumulators.
//!
//! With A streamed in column-major order, each cycle k multipliers take k
//! *distinct* elements of the current column and one broadcast element of
//! x; adder p accumulates into the intermediate results of the y elements
//! congruent to p mod k, held in a local store. A given yᵢ is updated once
//! every n/k cycles, so as long as n/k ≥ α the previous update has left
//! the adder pipeline before the next one reads it — no hazard, no
//! reduction circuit. The constructor enforces that applicability
//! condition, and the simulation *verifies* it by asserting on every
//! accumulator read that no in-flight write targets the same element.

use super::{DenseMatrix, MvmOutcome, MvmParams};
use fblas_fpu::softfloat::{add_f64, mul_f64};
use fblas_mem::{LocalStore, ReadChannel};
use fblas_sim::{
    clear_f64_bit, flip_f64_bit, ClockDomain, DelayLine, DepthRuns, Design, EdgeKind, FaultKind,
    FaultSpec, Harness, Probe, ProbeId, StallCause, Topology,
};
use fblas_system::{ClockModel, Xd1Node};

/// One in-flight multiply-accumulate: target y index and addend.
type MacBatch = Vec<(usize, f64)>;

/// The column-major interleaved-accumulator design.
#[derive(Debug, Clone)]
pub struct ColMajorMvm {
    params: MvmParams,
    clock: ClockDomain,
}

impl ColMajorMvm {
    /// Instantiate on an XD1 node (bandwidth check as in the row-major
    /// form).
    pub fn new(params: MvmParams, node: &Xd1Node) -> Self {
        let clock = ClockModel::default().tree_design();
        let supply = node.sram_words_per_cycle(clock.mhz());
        assert!(
            params.matrix_words_per_cycle <= supply + 1e-9,
            "design demands {} words/cycle but the SRAM path supplies {supply}",
            params.matrix_words_per_cycle
        );
        Self { params, clock }
    }

    /// Instantiate without platform checks.
    pub fn standalone(params: MvmParams, clock_mhz: f64) -> Self {
        Self {
            params,
            clock: ClockDomain::from_mhz(clock_mhz),
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

    /// Static channel graph (§4.2 column-major form) for an n-row
    /// matrix: k multiplier/adder lanes accumulating into the y store,
    /// whose per-lane rotation of ⌈n/k⌉ cells is the feedback loop's
    /// buffering. The deadlock-freedom proof over this loop (⌈n/k⌉ cells
    /// against α in-flight updates) is exactly the §4.2 hazard condition
    /// n/k ≥ α.
    pub fn topology(&self, n: usize) -> Topology {
        let p = &self.params;
        let mut t = Topology::new(format!("mvm-col[k={},n={n}]", p.k));
        let a = t.source("a-stream");
        let mult = t.pe("mult-bank", p.k as f64);
        let add = t.pe("adder-bank", p.k as f64);
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
        t.edge(
            "mult-pipe",
            mult,
            add,
            EdgeKind::Delay {
                stages: p.mult_stages,
            },
        );
        let store = t.junction("y-store");
        t.edge(
            "add-pipe",
            add,
            store,
            EdgeKind::Delay {
                stages: p.adder_stages,
            },
        );
        t.edge(
            "y-rotation",
            store,
            add,
            EdgeKind::Fifo {
                depth: n.div_ceil(p.k),
            },
        );
        t.edge(
            "y-write",
            store,
            y,
            EdgeKind::Channel {
                words_per_cycle: 1.0,
                flops_per_word: 0.0,
            },
        );
        t
    }

    /// Compute `y = A·x`.
    ///
    /// # Panics
    /// Panics if `rows/k < α` — the hazard-freedom condition of §4.2.
    pub fn run(&self, a: &DenseMatrix, x: &[f64]) -> MvmOutcome {
        self.run_with_initial(a, x, None)
    }

    /// [`ColMajorMvm::run`] through a caller-supplied harness.
    pub fn run_in(&self, harness: &mut Harness, a: &DenseMatrix, x: &[f64]) -> MvmOutcome {
        self.run_with_initial_in(harness, a, x, None)
    }

    /// Compute `y = y0 + A·x` (the blocked driver preloads `y0`).
    pub fn run_with_initial(&self, a: &DenseMatrix, x: &[f64], y0: Option<&[f64]>) -> MvmOutcome {
        self.run_with_initial_in(&mut Harness::new(), a, x, y0)
    }

    /// [`ColMajorMvm::run_with_initial`] through a caller-supplied
    /// harness.
    pub fn run_with_initial_in(
        &self,
        harness: &mut Harness,
        a: &DenseMatrix,
        x: &[f64],
        y0: Option<&[f64]>,
    ) -> MvmOutcome {
        let k = self.params.k;
        let rows = a.rows();
        let cols = a.cols();
        assert_eq!(x.len(), cols, "x must have one element per column of A");
        assert!(rows > 0 && cols > 0, "empty matrix");
        let chunks_per_col = rows.div_ceil(k);
        assert!(
            chunks_per_col >= self.params.adder_stages,
            "hazard condition violated: rows/k = {chunks_per_col} < α = {}; \
             an update would read a y element whose previous update is \
             still in the adder pipeline (§4.2)",
            self.params.adder_stages
        );

        // Intermediate y lives on chip; one logical store (lane-sliced in
        // hardware; a single capacity-checked store is equivalent here).
        let mut y_store = LocalStore::new("y'", rows);
        if let Some(y0) = y0 {
            y_store.load(y0);
        }

        let mut run = ColMvmRun {
            k,
            rows,
            cols,
            chunks_per_col,
            // Rate accounting, not datapath. lint: allow(native-f64)
            full_rate: self.params.matrix_words_per_cycle >= k as f64,
            x,
            y_store,
            a_ch: ReadChannel::new(a.col_major_stream(), self.params.matrix_words_per_cycle),
            // Lockstep lanes: multiplier then accumulating adder, modelled
            // as two delay lines carrying per-cycle MAC batches.
            mult: DelayLine::new(self.params.mult_stages),
            adder: DelayLine::new(self.params.adder_stages),
            in_flight: vec![false; rows],
            in_flight_count: 0,
            col: 0,
            chunk: 0,
            group: Vec::with_capacity(k),
            writes_done: 0,
            // Every element of A is one multiply-accumulate, hence one write.
            total_writes: (rows * cols) as u64,
            values_fed: 0,
            limit: (rows as u64 * cols as u64 / k as u64 + 1024) * 8 + 200_000,
            ids: None,
        };
        let report = harness.run(&mut run);
        let y = run.y_store.contents().to_vec();
        MvmOutcome::new(y, report, self.clock, self.params.matrix_words_per_cycle)
    }
}

/// Probe components of one column-major `MvM` run.
#[derive(Debug, Clone, Copy)]
struct ColMvmIds {
    front_end: ProbeId,
    a_stream: ProbeId,
    lanes: ProbeId,
    hazard_window: ProbeId,
}

/// One in-flight column-major `MvM` computation as a harness [`Design`].
struct ColMvmRun<'a> {
    k: usize,
    rows: usize,
    cols: usize,
    chunks_per_col: usize,
    /// Channel rate covers a whole chunk per cycle — precondition of the
    /// fused fast-forward schedule.
    full_rate: bool,
    x: &'a [f64],
    y_store: LocalStore,
    a_ch: ReadChannel,
    mult: DelayLine<MacBatch>,
    adder: DelayLine<MacBatch>,
    // Hazard detector: y indices with an in-flight accumulate.
    in_flight: Vec<bool>,
    in_flight_count: usize,
    col: usize,
    chunk: usize,
    group: Vec<f64>,
    writes_done: u64,
    total_writes: u64,
    values_fed: u64,
    limit: u64,
    ids: Option<ColMvmIds>,
}

impl Design for ColMvmRun<'_> {
    fn name(&self) -> &str {
        "col-mvm"
    }

    fn setup(&mut self, probe: &mut Probe) {
        self.ids = Some(ColMvmIds {
            front_end: probe.component("col-mvm/front-end"),
            a_stream: probe.component("col-mvm/a-stream"),
            lanes: probe.component("col-mvm/lanes"),
            hazard_window: probe.component("col-mvm/hazard-window"),
        });
    }

    fn cycle(&mut self, probe: &mut Probe) {
        let ids = self.ids.expect("setup registered components");

        // Retire accumulates leaving the adder: write back and clear
        // the hazard marker *before* this cycle's reads.
        if let Some(batch) = self.adder.peek().cloned() {
            for (idx, _) in &batch {
                self.in_flight[*idx] = false;
            }
            self.in_flight_count -= batch.len();
            for (idx, v) in batch {
                self.y_store.write(idx, v);
                self.writes_done += 1;
            }
        }

        // Front end: k elements of the current column.
        self.a_ch.tick();
        let mut mult_in = None;
        if self.col < self.cols {
            let lo = self.chunk * self.k;
            let hi = (lo + self.k).min(self.rows);
            let got = self
                .a_ch
                .read_up_to(hi - lo - self.group.len(), &mut self.group);
            probe.io_in(got as u64);
            if self.group.len() == hi - lo {
                let xj = self.x[self.col];
                if self.chunk == 0 {
                    // The broadcast x element streams in once per column.
                    probe.io_in(1);
                }
                let batch: MacBatch = self
                    .group
                    .drain(..)
                    .enumerate()
                    .map(|(off, aij)| (lo + off, mul_f64(aij, xj)))
                    .collect();
                probe.busy(ids.front_end);
                probe.flops(batch.len() as u64);
                self.values_fed += batch.len() as u64;
                mult_in = Some(batch);
                self.chunk += 1;
                if self.chunk == self.chunks_per_col {
                    self.chunk = 0;
                    self.col += 1;
                }
            } else {
                probe.stall(ids.front_end, StallCause::InputStarved);
            }
        } else {
            probe.stall(ids.front_end, StallCause::Drain);
        }

        // Products emerging from the multipliers issue their adds,
        // reading the current intermediate value.
        let adder_in = self.mult.step(mult_in).map(|batch| {
            batch
                .into_iter()
                .map(|(idx, prod)| {
                    assert!(
                        !self.in_flight[idx],
                        "read-after-write hazard on y[{idx}]: previous \
                         accumulate still in the adder pipeline"
                    );
                    self.in_flight[idx] = true;
                    (idx, add_f64(self.y_store.read(idx), prod))
                })
                .collect::<MacBatch>()
        });
        if let Some(batch) = &adder_in {
            probe.busy(ids.lanes);
            probe.flops(batch.len() as u64);
            self.in_flight_count += batch.len();
        } else if self.in_flight_count > 0 {
            // The adder issue slot is empty while earlier accumulates are
            // still locking their y elements in the pipeline.
            probe.stall(ids.lanes, StallCause::HazardWindow);
        } else if self.col == self.cols {
            probe.stall(ids.lanes, StallCause::Drain);
        }
        self.adder.step(adder_in);

        self.adder.probe_occupancy(probe, ids.hazard_window);
        self.a_ch.probe_utilization(probe, ids.a_stream);
    }

    /// Fused replay of the whole run. At full channel rate the feed is
    /// gapless — feed slot f covers chunk `(f-1) % cpc` of column
    /// `(f-1) / cpc` — so every pipeline stage is closed-form: the
    /// multiplier bank issues slot f's adds at f+M and the adder retires
    /// them at f+M+α, making the run exactly F+M+α cycles. The hazard
    /// condition (rows/k ≥ α) guarantees no other update touches a y
    /// element between issue and retire, so the read-modify-writes fold
    /// into one flat pass over A in retire order. Probe counters are
    /// reconstructed analytically: an integer-only replay of the stepped
    /// loop's stall/busy/occupancy conditions, landed through the
    /// batched recording API — bit-identical to the stepped run's, as
    /// the parity suites assert.
    fn fast_forward(&mut self, probe: &mut Probe) -> u64 {
        if !self.full_rate {
            return 0;
        }
        assert!(
            self.col == 0 && self.writes_done == 0,
            "fast_forward must run before the first cycle"
        );
        let ids = self.ids.expect("setup registered components");
        let cpc = self.chunks_per_col as u64;
        let feed_total = self.cols as u64 * cpc;
        let m = self.mult.latency() as u64;
        let alpha = self.adder.latency() as u64;
        let total = feed_total + m + alpha;
        assert!(
            total < self.limit,
            "col-mvm: simulation exceeded cycle limit {}",
            self.limit
        );

        // Values: retires happen in ascending feed-slot order, which is
        // exactly ascending (column, row) — one flat pass over A with
        // the same y-store read/modify/write sequence as the stepped
        // datapath.
        for col in 0..self.cols {
            let xj = self.x[col];
            for i in 0..self.rows {
                let aij = self.a_ch.data()[col * self.rows + i];
                let v = add_f64(self.y_store.read(i), mul_f64(aij, xj));
                self.y_store.write(i, v);
            }
        }
        let elems = self.rows as u64 * self.cols as u64;
        self.writes_done = self.total_writes;
        self.values_fed += elems;
        self.col = self.cols;

        // The stepped loop's stall, busy and occupancy conditions in
        // closed form. The front end fires on slots 1..=F and the lanes
        // issue M cycles later; after the last issue, batches still in
        // the adder lock the issue slot (the hazard window) until the
        // final cycle, and the lanes idle on Drain from the exhausted
        // front end until they issue, and on that final cycle.
        let last = feed_total + m;
        probe.record_busy_cycles_at(1, feed_total);
        probe.record_busy_cycles_at(feed_total.max(m) + 1, feed_total.min(m));
        probe.record_stalls_at(ids.lanes, StallCause::HazardWindow, last + 1, alpha - 1);
        if feed_total <= m {
            let n = m - feed_total + 1;
            probe.record_stalls_at(ids.lanes, StallCause::Drain, feed_total, n);
        }
        probe.record_stalls_at(ids.lanes, StallCause::Drain, total, 1);
        let mut occ_runs = DepthRuns::new(ids.hazard_window);
        for t in 1..=total {
            // Adder fill: batches entered in (t−α, t] intersected with
            // the issue window (M, F+M].
            let occ = t.min(last).saturating_sub(t.saturating_sub(alpha).max(m));
            occ_runs.push(probe, occ as usize);
        }
        occ_runs.finish(probe);
        // Matrix-channel words consumed: one full or ragged chunk per
        // feed slot, nothing through the drain.
        let mut stream_runs = DepthRuns::new(ids.a_stream);
        for _ in 0..self.cols {
            stream_runs.push_n(probe, self.k, cpc - 1);
            stream_runs.push_n(probe, self.rows - (cpc as usize - 1) * self.k, 1);
        }
        stream_runs.push_n(probe, 0, total - feed_total);
        stream_runs.finish(probe);

        // Counter reconstruction: positioned spans matching the stepped
        // run's per-cycle probe calls (exact windowed telemetry when
        // enabled), including the broadcast x word on each column's
        // first chunk.
        probe.io_in(elems + self.cols as u64);
        probe.flops(2 * elems);
        probe.record_busy_marks_at(ids.front_end, 1, feed_total);
        probe.record_busy_marks_at(ids.lanes, m + 1, feed_total);
        probe.record_stalls_at(
            ids.front_end,
            StallCause::Drain,
            feed_total + 1,
            total - feed_total,
        );
        probe.record_rate_base(ids.a_stream, elems);
        total
    }

    fn drain(&mut self, probe: &mut Probe) {
        // y streams back to memory once the accumulators settle.
        probe.io_out(self.rows as u64);
        // Every MAC batch transits multiplier + adder in exactly M + α
        // cycles regardless of feed rate: the per-batch completion
        // latency, recorded here once for stepped and fast-forwarded
        // runs alike.
        let ids = self.ids.expect("setup registered components");
        let transit = (self.mult.latency() + self.adder.latency()) as u64;
        probe.record_latencies(
            ids.lanes,
            transit,
            self.cols as u64 * self.chunks_per_col as u64,
        );
    }

    fn done(&self) -> bool {
        self.writes_done >= self.total_writes
    }

    fn cycle_limit(&self) -> u64 {
        self.limit
    }

    fn progress(&self) -> Option<u64> {
        Some(self.values_fed + self.writes_done)
    }

    fn inject(&mut self, fault: &FaultSpec) -> bool {
        match fault.kind {
            // Try the multiplier bank first; if the stage is a bubble
            // there, the same register index in the adder bank.
            FaultKind::PipelineBitFlip { stage, bit } => {
                let flip = |batch: &mut MacBatch| {
                    if let Some(mac) = batch.first_mut() {
                        mac.1 = flip_f64_bit(mac.1, bit);
                    }
                };
                self.mult.fault_mutate(stage, flip) || self.adder.fault_mutate(stage, flip)
            }
            FaultKind::BufferBitFlip { slot, bit } => {
                if self.group.is_empty() {
                    return false;
                }
                let idx = slot % self.group.len();
                self.group[idx] = flip_f64_bit(self.group[idx], bit);
                true
            }
            FaultKind::ChannelStall { beats } => self.a_ch.fault_drop_beats(beats),
            // The interleaved accumulator store *is* this design's
            // reduction state.
            FaultKind::StuckAtZero { slot, bit } => self
                .y_store
                .fault_mutate(slot, |v| *v = clear_f64_bit(*v, bit)),
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
        let d = ColMajorMvm::standalone(MvmParams::with_k(4), 170.0);
        let out = d.run(&a, &x);
        assert_eq!(out.y, a.ref_mvm(&x));
    }

    #[test]
    fn high_fraction_of_peak_without_reduction_circuit() {
        let (a, x) = int_case(256);
        let d = ColMajorMvm::new(MvmParams::table3(), &Xd1Node::default());
        let out = d.run(&a, &x);
        let frac = out.fraction_of_peak();
        assert!(frac > 0.9, "fraction of peak {frac}");
    }

    #[test]
    fn hazard_condition_enforced() {
        // rows/k = 8 < α = 14 must be rejected up front.
        let (a, x) = int_case(32);
        let d = ColMajorMvm::standalone(MvmParams::with_k(4), 170.0);
        let result = std::panic::catch_unwind(|| d.run(&a, &x));
        assert!(result.is_err(), "expected hazard-condition panic");
    }

    #[test]
    fn non_square_matrix() {
        let a = DenseMatrix::from_fn(60, 9, |i, j| ((i + 2 * j) % 5) as f64);
        let x: Vec<f64> = (0..9).map(|j| f64::from(j % 3)).collect();
        let d = ColMajorMvm::standalone(MvmParams::with_k(4), 170.0);
        let out = d.run(&a, &x);
        assert_eq!(out.y, a.ref_mvm(&x));
    }

    #[test]
    fn initial_y_preloaded() {
        let (a, x) = int_case(64);
        let y0: Vec<f64> = (0..64).map(|i| f64::from(i % 4)).collect();
        let d = ColMajorMvm::standalone(MvmParams::with_k(4), 170.0);
        let out = d.run_with_initial(&a, &x, Some(&y0));
        let expect: Vec<f64> = a.ref_mvm(&x).iter().zip(&y0).map(|(r, y)| r + y).collect();
        assert_eq!(out.y, expect);
    }

    #[test]
    fn cycles_near_io_lower_bound() {
        let (a, x) = int_case(128);
        let d = ColMajorMvm::standalone(MvmParams::with_k(4), 170.0);
        let out = d.run(&a, &x);
        let lower = (128u64 * 128) / 4;
        assert!(out.report.cycles >= lower);
        assert!(
            out.report.cycles < lower + 100,
            "cycles {} too far above {lower}",
            out.report.cycles
        );
    }

    /// The parity pin, on *random* data: the native backend replays the
    /// interleaved accumulator's update order, so it is bit-identical on
    /// rounding-sensitive inputs.
    #[test]
    fn backends_agree_bit_for_bit_on_random_data() {
        use crate::random_vec;
        for n in [64usize, 129] {
            let a = DenseMatrix::from_rows(n, n, random_vec(n as u64, n * n));
            let x = random_vec(n as u64 + 3, n);
            let y0 = random_vec(n as u64 + 9, n);
            for y0 in [None, Some(&y0[..])] {
                let d = ColMajorMvm::standalone(MvmParams::with_k(4), 170.0);
                let mut cy = Harness::new();
                let mut nat = Harness::with_backend(ExecBackend::Native);
                let out_cy = d.run_with_initial_in(&mut cy, &a, &x, y0);
                let out_nat = d.run_with_initial_in(&mut nat, &a, &x, y0);
                assert_eq!(nat.ff_cycles(), out_cy.report.cycles, "n = {n}");
                let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out_nat.y), bits(&out_cy.y), "n = {n}");
                assert_eq!(out_nat.report, out_cy.report, "n = {n}");
                assert_eq!(cy.probe().stall_totals(), nat.probe().stall_totals());
            }
        }
    }

    #[test]
    fn non_square_backends_agree() {
        let a = DenseMatrix::from_fn(60, 9, |i, j| ((i + 2 * j) % 5) as f64);
        let x: Vec<f64> = (0..9).map(|j| f64::from(j % 3)).collect();
        let d = ColMajorMvm::standalone(MvmParams::with_k(4), 170.0);
        let mut cy = Harness::new();
        let mut nat = Harness::with_backend(ExecBackend::Native);
        let out_cy = d.run_in(&mut cy, &a, &x);
        let out_nat = d.run_in(&mut nat, &a, &x);
        assert_eq!(nat.ff_cycles(), out_cy.report.cycles);
        assert_eq!(out_nat.y, out_cy.y);
        assert_eq!(out_nat.report, out_cy.report);
    }

    /// A sub-chunk stream rate violates the full-rate precondition: the
    /// run declines to the cycle stepper.
    #[test]
    fn fractional_rate_declines_fast_forward() {
        let params = MvmParams {
            matrix_words_per_cycle: 2.0,
            ..MvmParams::with_k(4)
        };
        let (a, x) = int_case(64);
        let d = ColMajorMvm::standalone(params, 170.0);
        let mut cy = Harness::new();
        let mut nat = Harness::with_backend(ExecBackend::Native);
        let out_cy = d.run_in(&mut cy, &a, &x);
        let out_nat = d.run_in(&mut nat, &a, &x);
        assert_eq!(nat.ff_cycles(), 0, "fractional rate must cycle-step");
        assert_eq!(out_nat.y, out_cy.y);
        assert_eq!(out_nat.report, out_cy.report);
    }

    #[test]
    fn agrees_with_row_major_architecture() {
        use crate::mvm::RowMajorMvm;
        let (a, x) = int_case(128);
        let col = ColMajorMvm::standalone(MvmParams::with_k(4), 170.0).run(&a, &x);
        let row = RowMajorMvm::standalone(MvmParams::with_k(4), 170.0).run(&a, &x);
        assert_eq!(col.y, row.y);
    }
}
