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
//!
//! The design runs on the shared tree-reduce datapath
//! ([`fblas_core::tree_reduce`]); this module supplies its group source:
//! up to k entries of one CRS row per group, zero-padded to the k tree
//! leaves, one set per non-empty row.

use crate::csr::CsrMatrix;
use fblas_core::reduce::{ReduceInput, Reducer, SingleAdderReducer};
use fblas_core::tree_reduce::{Feed, GroupSource, Slot, TreeIds, TreeRun};
use fblas_fpu::softfloat::{balanced_sum, mul_f64};
use fblas_fpu::{ADDER_STAGES, MULTIPLIER_STAGES};
use fblas_sim::{ClockDomain, Harness, Probe, ProbeId, Throttle, Topology};
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
        fblas_core::topology::tree_reduce(
            format!("spmv[k={}]", p.k),
            p.k,
            p.mult_stages + p.k.ilog2() as usize * p.adder_stages,
            p.adder_stages,
            &[("entry-stream", "entry-feed", p.entries_per_cycle, 2.0)],
            Some(("x-store", "x-gather")),
            ("y-port", "y-write"),
        )
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
        self.run_with_initial_in(&mut Harness::new(), a, x, y0)
    }

    /// [`SpmvDesign::run_with_initial`] through a caller-supplied
    /// harness.
    pub fn run_with_initial_in(
        &self,
        harness: &mut Harness,
        a: &CsrMatrix,
        x: &[f64],
        y0: &[f64],
    ) -> SpmvOutcome {
        let mut reducer = SingleAdderReducer::new(self.params.adder_stages);
        self.run_full(harness, a, x, Some(y0), &mut reducer)
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

        // The stored entries row by row, each non-empty row's set closed
        // by its carried-in partial when there is one. Empty rows bypass
        // the datapath: their yᵢ (zero or the partial) is written back in
        // the design's drain.
        let (mut entries, mut rows) = (Vec::new(), Vec::new());
        for r in (0..n_rows).filter(|&r| a.row_nnz(r) > 0) {
            let first = entries.len();
            entries.extend(a.row(r));
            entries.extend(y0.map(|y0| (PARTIAL, y0[r])));
            rows.push((r, first, entries.len() - first));
        }
        let rate = self.params.entries_per_cycle;
        let feed = Feed {
            latency: self.params.mult_stages + k.ilog2() as usize * self.params.adder_stages,
            slots: rows.iter().map(|r| r.2.div_ceil(k) as u64).sum(),
            words: 2 * a.nnz() as u64,
            // Rate accounting, not datapath. lint: allow(native-f64)
            gapless: rate >= k as f64,
        };
        let source = SpmvSource {
            k,
            entries,
            rows,
            x,
            row: 0,
            consumed: 0,
            products: Vec::with_capacity(k),
            // Entry stream throttle: entries_per_cycle CRS entries arrive
            // per cycle; a group of up to k same-row entries fires together.
            throttle: Throttle::new(rate),
        };
        let y = y0.map_or_else(|| vec![0.0; n_rows], <[f64]>::to_vec);
        let out = TreeRun::new(source, feed, reducer, y).run_in(harness);

        // Bandwidth accounting. lint: allow(native-f64)
        let bw = rate * 16.0 * self.clock.hz();
        SpmvOutcome {
            y: out.y,
            report: out.report,
            clock: self.clock,
            peak_flops: io_bound_peak_mvm(bw / 2.0),
            reduction_buffer_high_water: out.reduction_buffer_high_water,
        }
    }
}

/// The column index of a carried-in partial. It rides as one extra set
/// entry (a multiply by 1.0 against a constant-1 x extension in
/// hardware) and streams from on-chip partial storage, so it costs no
/// memory words and no fresh flops against the 2·nnz total.
const PARTIAL: usize = usize::MAX;

/// `SpMV`'s group source: up to k entries of one CRS row per group,
/// zero-padded to the k tree leaves, one set per non-empty row.
struct SpmvSource<'a> {
    k: usize,
    /// The sets' entries as (column, value), row by row.
    entries: Vec<(usize, f64)>,
    /// The non-empty rows as (row, first entry, entry count).
    rows: Vec<(usize, usize, usize)>,
    x: &'a [f64],
    /// The next group's row (index into `rows`).
    row: usize,
    /// Entries of that row already fed.
    consumed: usize,
    products: Vec<f64>,
    throttle: Throttle,
}

impl SpmvSource<'_> {
    /// The next group's entries.
    fn group(&self) -> &[(usize, f64)] {
        let (_, first, len) = self.rows[self.row];
        let want = self.k.min(len - self.consumed);
        &self.entries[first + self.consumed..][..want]
    }
}

/// Stored (non-partial) entries of a group.
fn stored(group: &[(usize, f64)]) -> u64 {
    group.iter().filter(|&&(c, _)| c != PARTIAL).count() as u64
}

impl GroupSource for SpmvSource<'_> {
    type Streams = [ProbeId; 1];
    const NAME: &'static str = "spmv";
    /// The design models no fault sites.
    const INJECTS: bool = false;

    fn register(probe: &mut Probe) -> TreeIds<[ProbeId; 1]> {
        TreeIds {
            front_end: probe.component("spmv/front-end"),
            streams: [probe.component("spmv/entry-stream")],
            backlog: Some(probe.component("spmv/backlog")),
            reducer: probe.component("spmv/reducer"),
            reduction_buffer: probe.component("spmv/reduction-buffer"),
        }
    }

    fn tick(&mut self) {
        self.throttle.tick();
    }

    fn arrive(&mut self) -> (u64, bool) {
        let group = self.group();
        let (want, real) = (group.len() as u64, stored(group));
        if self.throttle.grant(want) {
            // A value word and a packed column-index word per entry.
            (2 * real, true)
        } else {
            (0, false)
        }
    }

    fn next(&mut self) -> Slot {
        let (r, first, len) = self.rows[self.row];
        let want = self.k.min(len - self.consumed);
        let group = &self.entries[first + self.consumed..][..want];
        self.products.clear();
        self.products.extend(group.iter().map(|&(c, v)| {
            if c == PARTIAL {
                v
            } else {
                mul_f64(v, self.x[c])
            }
        }));
        // Zero-padded to the k tree leaves.
        self.products.resize(self.k, 0.0);
        let real = stored(group);
        self.consumed += want;
        let last = self.consumed == len;
        if last {
            self.row += 1;
            self.consumed = 0;
        }
        Slot {
            input: ReduceInput {
                set_id: r as u64,
                value: balanced_sum(&self.products),
                last,
            },
            // Each stored entry: one multiply plus one accumulation add
            // (tree + reduction, amortized).
            flops: Some(2 * real),
            words: want,
        }
    }

    fn sample_streams(&self, probe: &mut Probe, [id]: [ProbeId; 1]) {
        self.throttle.probe_utilization(probe, id);
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

    /// Windowed telemetry parity (the pattern of
    /// `crates/core/tests/telemetry_parity.rs`): the native replay lands
    /// the exact per-window series and latency histograms the stepper
    /// produces, empty rows and rows longer than k included.
    #[test]
    fn telemetry_parity_across_backends() {
        use fblas_sim::ExecBackend;
        let mut trip = Vec::new();
        for i in 0..40usize {
            for d in 0..(i * 7) % 11 {
                trip.push((i, (i + 3 * d) % 40, ((i + d) % 5) as f64 - 2.0));
            }
        }
        let a = CsrMatrix::from_triplets(40, 40, &trip);
        let x: Vec<f64> = (0..40).map(|j| f64::from(j % 7) - 3.0).collect();
        let d = SpmvDesign::new(SpmvParams::with_k(4));
        let mut telem = Vec::new();
        for backend in [ExecBackend::Cycle, ExecBackend::Native] {
            let mut h = Harness::with_backend(backend);
            h.enable_telemetry(7);
            d.run_in(&mut h, &a, &x);
            assert_eq!(h.ff_cycles() > 0, backend == ExecBackend::Native);
            telem.push(h.take_telemetry());
        }
        assert!(telem[0][0].windows() > 1, "too small to exercise windowing");
        assert_eq!(telem[1], telem[0], "native telemetry diverged");
        let reducer = telem[0][0].comps.iter().find(|c| c.name == "spmv/reducer");
        let dense = (0..40).filter(|&i| a.row_nnz(i) > 0).count() as u64;
        assert_eq!(reducer.expect("reducer series").latency.samples(), dense);
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
