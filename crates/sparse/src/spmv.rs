//! Sparse matrix-vector multiply on the tree-based architecture
//! (the authors' FPGA'05 design \[32\]).
//!
//! The row-major Level-2 architecture generalizes directly: k multipliers
//! receive k (value, column) pairs of the current CRS row per cycle, look
//! the columns up in the on-chip copy of x, and feed the adder tree; the
//! reduction circuit accumulates each row's product stream. Because row
//! lengths are arbitrary, the reduction sets have arbitrary sizes — this
//! is the workload for which the §4.3 circuit's "multiple sets of
//! arbitrary size, no stalls" property exists. Rows with no stored
//! entries bypass the datapath entirely (yᵢ = 0).

use crate::csr::CsrMatrix;
use fblas_core::reduce::{ReduceInput, Reducer, SingleAdderReducer};
use fblas_fpu::softfloat::{balanced_sum, mul_f64};
use fblas_fpu::{ADDER_STAGES, MULTIPLIER_STAGES};
use fblas_sim::{
    ClockDomain, DelayLine, Design, EdgeKind, Harness, Probe, ProbeId, StallCause, Throttle,
    Topology,
};
use fblas_system::io_bound_peak_mvm;

/// Parameters of the `SpMV` design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpmvParams {
    /// Multiplier lanes (power of two for the adder tree).
    pub k: usize,
    /// Adder pipeline depth α.
    pub adder_stages: usize,
    /// Multiplier pipeline depth.
    pub mult_stages: usize,
    /// CRS (value, column) pairs delivered per cycle.
    pub entries_per_cycle: f64,
}

impl SpmvParams {
    /// A k-lane configuration fed at full rate.
    pub fn with_k(k: usize) -> Self {
        Self {
            k,
            adder_stages: ADDER_STAGES,
            mult_stages: MULTIPLIER_STAGES,
            entries_per_cycle: k as f64,
        }
    }
}

/// Result of one `SpMV` run.
#[derive(Debug, Clone)]
pub struct SpmvOutcome {
    /// The computed y = A·x.
    pub y: Vec<f64>,
    /// Cycle/flop/word accounting. `words_in` counts value + index words.
    pub report: fblas_sim::SimReport,
    /// Clock domain (tree-design rate).
    pub clock: ClockDomain,
    /// I/O-bound peak: every stored entry costs a value word and an index
    /// word, and contributes two flops.
    pub peak_flops: f64,
    /// High-water mark of the reduction buffers (probe-derived).
    pub reduction_buffer_high_water: usize,
}

impl SpmvOutcome {
    /// Fraction of the I/O-bound peak sustained.
    pub fn fraction_of_peak(&self) -> f64 {
        self.report.fraction_of_peak(&self.clock, self.peak_flops)
    }
}

/// The tree-based `SpMV` design.
#[derive(Debug, Clone)]
pub struct SpmvDesign {
    params: SpmvParams,
    clock: ClockDomain,
}

impl SpmvDesign {
    /// Instantiate at the tree-design clock (170 MHz).
    pub fn new(params: SpmvParams) -> Self {
        assert!(
            params.k.is_power_of_two(),
            "adder tree needs power-of-two k"
        );
        Self {
            params,
            clock: ClockDomain::from_mhz(170.0),
        }
    }

    /// The parameter set.
    pub fn params(&self) -> &SpmvParams {
        &self.params
    }

    /// The clock domain.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Static channel graph: the CRS entry stream (value + column index
    /// per token, two FLOPs each) feeds the k-lane tree front end with x
    /// gathered from its local store; row partial streams accumulate in
    /// the §4.3 reduction circuit behind a gated backlog, as in the
    /// row-major `MvM` design.
    pub fn topology(&self) -> Topology {
        let p = &self.params;
        let mut t = Topology::new(format!("spmv[k={}]", p.k));
        let entries = t.source("entry-stream");
        let xs = t.junction("x-store");
        let mult = t.pe("mult-bank", p.k as f64);
        let tree = t.pe("adder-tree", (p.k - 1) as f64);
        let reducer = t.pe("reduction", 1.0);
        let y = t.sink("y-port");
        t.edge(
            "entry-feed",
            entries,
            mult,
            EdgeKind::Channel {
                words_per_cycle: p.entries_per_cycle,
                flops_per_word: 2.0,
            },
        );
        t.edge("x-gather", xs, mult, EdgeKind::Wire);
        t.edge("lockstep", mult, tree, EdgeKind::Wire);
        let tree_latency = p.mult_stages + p.k.ilog2() as usize * p.adder_stages;
        fblas_core::topology::attach_gated_backlog(&mut t, tree, reducer, mult, tree_latency);
        fblas_core::topology::attach_reduction_loop(&mut t, reducer, p.adder_stages);
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

    /// Compute y = A·x with the paper's reduction circuit.
    pub fn run(&self, a: &CsrMatrix, x: &[f64]) -> SpmvOutcome {
        let mut reducer = SingleAdderReducer::new(self.params.adder_stages);
        self.run_full(&mut Harness::new(), a, x, None, &mut reducer)
    }

    /// [`SpmvDesign::run`] through a caller-supplied harness, so the
    /// run's stall attribution and occupancy waveforms land in the
    /// caller's probe.
    pub fn run_in(&self, harness: &mut Harness, a: &CsrMatrix, x: &[f64]) -> SpmvOutcome {
        let mut reducer = SingleAdderReducer::new(self.params.adder_stages);
        self.run_full(harness, a, x, None, &mut reducer)
    }

    /// Compute y = y0 + A·x: the blocked driver injects the previous
    /// panel's partials as one extra value into each row's reduction set.
    pub fn run_with_initial(&self, a: &CsrMatrix, x: &[f64], y0: &[f64]) -> SpmvOutcome {
        let mut reducer = SingleAdderReducer::new(self.params.adder_stages);
        self.run_full(&mut Harness::new(), a, x, Some(y0), &mut reducer)
    }

    /// Run with an explicit reduction circuit (ablation hook).
    pub fn run_with_reducer<R: Reducer>(
        &self,
        a: &CsrMatrix,
        x: &[f64],
        reducer: &mut R,
    ) -> SpmvOutcome {
        self.run_full(&mut Harness::new(), a, x, None, reducer)
    }

    fn run_full<R: Reducer>(
        &self,
        harness: &mut Harness,
        a: &CsrMatrix,
        x: &[f64],
        y0: Option<&[f64]>,
        reducer: &mut R,
    ) -> SpmvOutcome {
        assert_eq!(x.len(), a.n_cols(), "x must match the matrix width");
        if let Some(y0) = y0 {
            assert_eq!(y0.len(), a.n_rows(), "y0 must have one element per row");
        }
        let k = self.params.k;
        let n_rows = a.n_rows();

        // Rows with entries, as (row, its entries chunked into k-groups).
        // With an injected partial, empty rows pass y0 through directly.
        let y = match y0 {
            Some(y0) => y0.to_vec(),
            None => vec![0.0f64; n_rows],
        };
        let dense_rows: Vec<usize> = (0..n_rows).filter(|&i| a.row_nnz(i) > 0).collect();
        let expected = dense_rows.len();

        let mut run = SpmvRun {
            k,
            a,
            x,
            y0,
            y,
            expected,
            n_rows,
            tree: DelayLine::new(
                self.params.mult_stages + k.ilog2() as usize * self.params.adder_stages,
            ),
            backlog: std::collections::VecDeque::new(),
            // Entry stream throttle: entries_per_cycle CRS entries arrive
            // per cycle; a group of up to k same-row entries fires together.
            throttle: Throttle::new(self.params.entries_per_cycle),
            dense_rows,
            next_row: 0,
            current: None,
            row_start: vec![0; n_rows],
            done: 0,
            values_fed: 0,
            reducer,
            limit: (a.nnz() as u64 / k as u64 + n_rows as u64 + 1024) * 16 + 200_000,
            ids: None,
        };
        let report = harness.run(&mut run);
        let buffer_id = run.ids.expect("setup ran").reduction_buffer;

        // Bandwidth accounting. lint: allow(native-f64)
        let bw = self.params.entries_per_cycle * 16.0 * self.clock.hz();
        SpmvOutcome {
            y: run.y,
            report,
            clock: self.clock,
            peak_flops: io_bound_peak_mvm(bw / 2.0),
            reduction_buffer_high_water: harness.probe().high_water(buffer_id),
        }
    }
}

/// Probe components of one `SpMV` run.
#[derive(Debug, Clone, Copy)]
struct SpmvIds {
    front_end: ProbeId,
    entry_stream: ProbeId,
    backlog: ProbeId,
    reducer: ProbeId,
    reduction_buffer: ProbeId,
}

/// (row index, its entries, entries already consumed).
type ActiveRow = (usize, Vec<(usize, f64)>, usize);

/// One in-flight `SpMV` computation as a harness [`Design`].
struct SpmvRun<'a, R: Reducer> {
    k: usize,
    a: &'a CsrMatrix,
    x: &'a [f64],
    y0: Option<&'a [f64]>,
    y: Vec<f64>,
    expected: usize,
    n_rows: usize,
    tree: DelayLine<(u64, f64, bool)>,
    backlog: std::collections::VecDeque<(u64, f64, bool)>,
    throttle: Throttle,
    dense_rows: Vec<usize>,
    next_row: usize,
    current: Option<ActiveRow>,
    /// Run cycle each row's first group entered the tree (latency base).
    row_start: Vec<u64>,
    done: usize,
    values_fed: u64,
    reducer: &'a mut R,
    limit: u64,
    ids: Option<SpmvIds>,
}

impl<R: Reducer> Design for SpmvRun<'_, R> {
    fn name(&self) -> &str {
        "spmv"
    }

    fn setup(&mut self, probe: &mut Probe) {
        self.ids = Some(SpmvIds {
            front_end: probe.component("spmv/front-end"),
            entry_stream: probe.component("spmv/entry-stream"),
            backlog: probe.component("spmv/backlog"),
            reducer: probe.component("spmv/reducer"),
            reduction_buffer: probe.component("spmv/reduction-buffer"),
        });
    }

    fn cycle(&mut self, probe: &mut Probe) {
        let ids = self.ids.expect("setup registered components");
        self.throttle.tick();

        if self.current.is_none() {
            if let Some(&r) = self.dense_rows.get(self.next_row) {
                self.next_row += 1;
                let mut entries: Vec<(usize, f64)> = self.a.row(r).collect();
                if let Some(y0) = self.y0 {
                    // The carried-in partial rides as one extra set
                    // element (a multiply by 1.0 against a constant-1
                    // x extension in hardware). It streams from on-chip
                    // partial storage, so it costs no memory words and
                    // no fresh flops against the 2·nnz total.
                    entries.push((usize::MAX, y0[r]));
                }
                self.current = Some((r, entries, 0));
            }
        }

        let mut tree_in = None;
        if self.backlog.len() < 2 {
            if let Some((r, entries, consumed)) = self.current.as_mut() {
                let want = self.k.min(entries.len() - *consumed);
                if self.throttle.grant(want as u64) {
                    let group = &entries[*consumed..*consumed + want];
                    let real: u64 = group.iter().filter(|&&(c, _)| c != usize::MAX).count() as u64;
                    let mut prods: Vec<f64> = group
                        .iter()
                        .map(|&(c, v)| {
                            if c == usize::MAX {
                                v
                            } else {
                                mul_f64(v, self.x[c])
                            }
                        })
                        .collect();
                    prods.resize(self.k, 0.0);
                    let value = balanced_sum(&prods);
                    if *consumed == 0 {
                        self.row_start[*r] = probe.run_cycle();
                    }
                    *consumed += want;
                    let last = *consumed == entries.len();
                    tree_in = Some((*r as u64, value, last));
                    probe.busy(ids.front_end);
                    // Each stored entry: one multiply plus one
                    // accumulation add (tree + reduction, amortized) and
                    // a value word + packed column-index word.
                    probe.flops(2 * real);
                    probe.io_in(2 * real);
                    self.values_fed += 1;
                    if last {
                        self.current = None;
                    }
                } else {
                    probe.stall(ids.front_end, StallCause::InputStarved);
                }
            } else if self.next_row >= self.dense_rows.len() {
                probe.stall(ids.front_end, StallCause::Drain);
            }
        } else if self.current.is_some() {
            probe.stall(ids.front_end, StallCause::OutputBackpressured);
        }

        if let Some(out) = self.tree.step(tree_in) {
            self.backlog.push_back(out);
        }
        let red_in = if self.reducer.ready() {
            self.backlog
                .pop_front()
                .map(|(set_id, value, last)| ReduceInput {
                    set_id,
                    value,
                    last,
                })
        } else {
            None
        };
        if red_in.is_some() {
            probe.busy(ids.reducer);
        } else if self.current.is_none() && self.next_row >= self.dense_rows.len() {
            probe.stall(ids.reducer, StallCause::Drain);
        } else if !self.backlog.is_empty() {
            probe.stall(ids.reducer, StallCause::OutputBackpressured);
        }
        if let Some(ev) = self.reducer.tick(red_in) {
            self.y[ev.set_id as usize] = ev.value;
            self.done += 1;
            probe.io_out(1);
            // Row completion latency: emission cycle minus the cycle the
            // row's first group entered the tree, inclusive.
            let rc = probe.run_cycle();
            probe.latency(ids.reducer, rc - self.row_start[ev.set_id as usize] + 1);
        }

        probe.sample_depth(ids.backlog, self.backlog.len());
        probe.sample_depth(ids.reduction_buffer, self.reducer.buffered());
        self.throttle.probe_utilization(probe, ids.entry_stream);
    }

    fn drain(&mut self, probe: &mut Probe) {
        // Empty rows bypass the datapath but still write their yᵢ (zero
        // or the carried partial) back to memory.
        probe.io_out((self.n_rows - self.expected) as u64);
    }

    fn done(&self) -> bool {
        self.done >= self.expected
    }

    fn cycle_limit(&self) -> u64 {
        self.limit
    }

    fn progress(&self) -> Option<u64> {
        Some(self.values_fed + self.reducer.adds_issued() + self.done as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A banded test matrix with irregular row lengths and integer values.
    fn test_matrix(n: usize) -> CsrMatrix {
        let mut trip = Vec::new();
        for i in 0..n {
            trip.push((i, i, 4.0 + (i % 3) as f64));
            if i + 1 < n && i % 2 == 0 {
                trip.push((i, i + 1, 1.0));
            }
            if i >= 3 && i % 5 == 0 {
                trip.push((i, i - 3, 2.0));
            }
            if i % 7 == 0 {
                for d in 1..(i % 11).min(n - i.min(n)) {
                    if i + d < n {
                        trip.push((i, i + d, (d % 4) as f64));
                    }
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &trip)
    }

    #[test]
    fn matches_reference_on_irregular_matrix() {
        let a = test_matrix(100);
        let x: Vec<f64> = (0..100).map(|j| f64::from((j * 3 + 1) % 8)).collect();
        let d = SpmvDesign::new(SpmvParams::with_k(4));
        let out = d.run(&a, &x);
        assert_eq!(out.y, a.ref_spmv(&x));
    }

    #[test]
    fn empty_rows_produce_zero() {
        let a = CsrMatrix::from_triplets(4, 4, &[(1, 2, 3.0)]);
        let d = SpmvDesign::new(SpmvParams::with_k(2));
        let out = d.run(&a, &[1.0; 4]);
        assert_eq!(out.y, vec![0.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn single_entry_rows() {
        let a = CsrMatrix::from_triplets(3, 3, &[(0, 0, 2.0), (1, 1, 3.0), (2, 2, 4.0)]);
        let d = SpmvDesign::new(SpmvParams::with_k(4));
        let out = d.run(&a, &[1.0, 2.0, 3.0]);
        assert_eq!(out.y, vec![2.0, 6.0, 12.0]);
    }

    #[test]
    fn reduction_sets_of_arbitrary_size_never_stall() {
        // The circuit's buffer bound must hold under highly irregular row
        // lengths.
        let a = test_matrix(300);
        let x: Vec<f64> = (0..300).map(|j| f64::from((j * 5 + 2) % 8)).collect();
        let d = SpmvDesign::new(SpmvParams::with_k(4));
        let out = d.run(&a, &x);
        assert_eq!(out.y, a.ref_spmv(&x));
        assert!(out.reduction_buffer_high_water <= 2 * 14 * 14);
    }

    #[test]
    fn cycles_scale_with_nnz_not_n_squared() {
        let a = test_matrix(256);
        let x = vec![1.0; 256];
        let d = SpmvDesign::new(SpmvParams::with_k(4));
        let out = d.run(&a, &x);
        // nnz/k streaming cycles plus per-row pipeline overheads; far
        // below the dense n²/k.
        let dense_cycles = 256u64 * 256 / 4;
        assert!(
            out.report.cycles < dense_cycles / 4,
            "cycles {} should be far below dense {dense_cycles}",
            out.report.cycles
        );
    }

    #[test]
    fn k1_configuration() {
        let a = test_matrix(40);
        let x: Vec<f64> = (0..40).map(|j| f64::from(j % 5)).collect();
        let d = SpmvDesign::new(SpmvParams::with_k(1));
        let out = d.run(&a, &x);
        assert_eq!(out.y, a.ref_spmv(&x));
    }

    #[test]
    fn word_accounting_counts_value_and_index_words() {
        let a = test_matrix(60);
        let x = vec![1.0; 60];
        let d = SpmvDesign::new(SpmvParams::with_k(4));
        let out = d.run(&a, &x);
        assert_eq!(out.report.words_in, 2 * a.nnz() as u64);
        assert_eq!(out.report.words_out, 60);
        assert_eq!(out.report.flops, 2 * a.nnz() as u64);
    }
}
