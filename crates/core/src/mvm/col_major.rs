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
//!
//! The design runs on the shared interleaved-accumulator datapath
//! (`crate::interleaved`); this module supplies its source: one chunk of
//! up to k rows of a column of A per batch, y written at adder retire.

use super::{DenseMatrix, MvmOutcome, MvmParams};
use crate::interleaved::{InterleavedRun, MacBatch, MacIds, MacSource, Shape};
use crate::topology::attach_accumulator_loop;
use fblas_fpu::softfloat::{add_f64, mul_f64};
use fblas_mem::{LocalStore, ReadChannel};
use fblas_sim::{
    clear_f64_bit, flip_f64_bit, ClockDomain, DepthRuns, EdgeKind, Harness, Probe, ProbeId,
    StallCause, Topology,
};
use fblas_system::{ClockModel, Xd1Node};

/// The column-major interleaved-accumulator design.
#[derive(Debug, Clone)]
pub struct ColMajorMvm {
    params: MvmParams,
    clock: ClockDomain,
}

impl ColMajorMvm {
    /// Instantiate on an XD1 node (bandwidth check as in the row-major
    /// form).
    #[expect(
        clippy::float_arithmetic,
        reason = "accounting: bandwidth demand against the SRAM supply"
    )]
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
        let feed = EdgeKind::Channel {
            words_per_cycle: p.matrix_words_per_cycle,
            flops_per_word: 2.0,
        };
        t.edge("a-feed", a, mult, feed);
        let pipe = EdgeKind::Delay {
            stages: p.mult_stages,
        };
        t.edge("mult-pipe", mult, add, pipe);
        let rotation = n.div_ceil(p.k);
        attach_accumulator_loop(
            &mut t,
            add,
            y,
            "y",
            ("y-write", 1.0),
            p.adder_stages,
            rotation,
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
        let (k, rows, cols) = (self.params.k, a.rows(), a.cols());
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
        let mut y = LocalStore::new("y'", rows);
        if let Some(y0) = y0 {
            y.load(y0);
        }
        let rate = self.params.matrix_words_per_cycle;
        let source = ColSource {
            k,
            x,
            y,
            a_ch: ReadChannel::new(a.as_slice(), rate),
            col: 0,
            row: 0,
            group: Vec::with_capacity(k),
        };
        let batches = cols as u64 * chunks_per_col as u64;
        let shape = Shape {
            mult_stages: self.params.mult_stages,
            adder_stages: self.params.adder_stages,
            cells: rows,
            batches,
            // Every element of A is one multiply-accumulate.
            products: rows as u64 * cols as u64,
            latencies: batches,
            // y streams back to memory once the accumulators settle.
            words_out: rows as u64,
            gapless: rate >= k as f64,
        };
        let (report, source) = InterleavedRun::new(source, shape).run_in(harness);
        MvmOutcome::new(source.y.contents().to_vec(), report, self.clock, rate)
    }
}

/// The column-major family's products: each batch is one chunk of up to
/// k rows of a column of A times the column's broadcast x word.
struct ColSource<'a> {
    k: usize,
    x: &'a [f64],
    /// The interleaved accumulators, written at adder retire.
    y: LocalStore,
    /// A in row-major storage order: the channel grants the words and
    /// the source reads them in place, down the current column.
    a_ch: ReadChannel<'a>,
    /// The next chunk's column and first row.
    col: usize,
    row: usize,
    /// The next chunk's staged matrix words.
    group: Vec<f64>,
}

impl MacSource for ColSource<'_> {
    type Streams = ProbeId;
    const NAME: &'static str = "col-mvm";
    const IDLE_STALLS: bool = true;
    const FLIP_ADDER: bool = true;

    fn register(&mut self, probe: &mut Probe) -> MacIds<ProbeId> {
        let front_end = probe.component("col-mvm/front-end");
        let streams = probe.component("col-mvm/a-stream");
        MacIds {
            front_end,
            streams,
            lanes: probe.component("col-mvm/lanes"),
            add_pipe: probe.component("col-mvm/hazard-window"),
        }
    }

    fn fire(&mut self, probe: &mut Probe, batch: &mut MacBatch) -> Option<StallCause> {
        self.a_ch.tick();
        if self.col == self.x.len() {
            return Some(StallCause::Drain);
        }
        let (lo, rows) = (self.row, self.y.capacity());
        let hi = (lo + self.k).min(rows);
        let first = lo + self.group.len();
        let got = self.a_ch.take(hi - first);
        let (a, col, cols) = (self.a_ch.data(), self.col, self.x.len());
        let words = (first..first + got).map(|i| a[i * cols + col]);
        self.group.extend(words);
        probe.io_in(got as u64);
        if self.group.len() < hi - lo {
            return Some(StallCause::InputStarved);
        }
        if lo == 0 {
            // The broadcast x element streams in once per column.
            probe.io_in(1);
        }
        let xj = self.x[self.col];
        let products = self.group.drain(..).enumerate();
        batch.extend(products.map(|(off, aij)| (lo + off, mul_f64(aij, xj))));
        self.row = if hi == rows { 0 } else { hi };
        self.col += usize::from(hi == rows);
        None
    }

    fn issue(&mut self, cell: usize, product: f64, hazard: bool) -> f64 {
        assert!(
            !hazard,
            "read-after-write hazard on y[{cell}]: previous accumulate \
             still in the adder pipeline"
        );
        add_f64(self.y.read(cell), product)
    }

    fn retire(&mut self, cell: usize, value: f64) {
        self.y.write(cell, value);
    }

    fn sample_streams(&self, probe: &mut Probe, a_stream: ProbeId) {
        self.a_ch.probe_utilization(probe, a_stream);
    }

    /// Retires run in ascending feed-slot order, which is ascending
    /// (column, row), so each y element takes its columns in ascending
    /// order. Elements are independent, so the replay walks A in storage
    /// order, one row per y element, with the same bits. The matrix
    /// stream carries one full or ragged chunk per feed slot and nothing
    /// through the drain.
    fn replay(&mut self, probe: &mut Probe, a_stream: ProbeId, total: u64) {
        let (rows, cols) = (self.y.capacity(), self.x.len());
        for (i, row) in self.a_ch.data().chunks_exact(cols).enumerate() {
            let mut acc = self.y.read(i);
            for (&aij, &xj) in row.iter().zip(self.x) {
                acc = add_f64(acc, mul_f64(aij, xj));
            }
            self.y.write(i, acc);
        }
        self.col = cols;
        let elems = (rows * cols) as u64;
        probe.io_in(elems + cols as u64);
        let cpc = rows.div_ceil(self.k);
        let mut stream_runs = DepthRuns::new(a_stream);
        for _ in 0..cols {
            stream_runs.push_n(probe, self.k, cpc as u64 - 1);
            stream_runs.push_n(probe, rows - (cpc - 1) * self.k, 1);
        }
        stream_runs.push_n(probe, 0, total - (cols * cpc) as u64);
        stream_runs.finish(probe);
        probe.record_rate_base(a_stream, elems);
    }

    fn fault_flip_buffer(&mut self, slot: usize, bit: u32) -> bool {
        if self.group.is_empty() {
            return false;
        }
        let idx = slot % self.group.len();
        self.group[idx] = flip_f64_bit(self.group[idx], bit);
        true
    }

    fn fault_drop_beats(&mut self, beats: u64) -> bool {
        self.a_ch.fault_drop_beats(beats)
    }

    /// The interleaved accumulator store *is* this design's reduction
    /// state.
    fn fault_stuck_at(&mut self, slot: usize, bit: u32) -> bool {
        self.y.fault_mutate(slot, |v| *v = clear_f64_bit(*v, bit))
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
