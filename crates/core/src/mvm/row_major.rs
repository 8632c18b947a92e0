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
//!
//! The design runs on the shared tree-reduce datapath
//! ([`crate::tree_reduce`]); this module supplies its group source: one
//! row's k-element groups per set, with a carried-in partial (y0) in its
//! own slot ahead of each row.

use super::{DenseMatrix, MvmOutcome, MvmParams};
use crate::reduce::{ReduceInput, Reducer, SingleAdderReducer};
use crate::tree_reduce::{Feed, GroupSource, Slot, TreeIds, TreeRun};
use fblas_fpu::softfloat::{balanced_fold, mul_f64};
use fblas_mem::ReadChannel;
use fblas_sim::{ClockDomain, Harness, Probe, ProbeId, Topology};
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
    #[expect(
        clippy::float_arithmetic,
        reason = "accounting: bandwidth demand against the SRAM supply"
    )]
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
        crate::topology::tree_reduce(
            format!("mvm-row[k={}]", p.k),
            p.k,
            p.mult_stages + p.k.ilog2() as usize * p.adder_stages,
            p.adder_stages,
            &[("a-stream", "a-feed", p.matrix_words_per_cycle, 2.0)],
            Some(("x-stores", "x-reuse")),
            ("y-port", "y-write"),
        )
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

        let rate = self.params.matrix_words_per_cycle;
        let source = RowSource {
            k,
            cols,
            a: ReadChannel::new(a.as_slice(), rate),
            x,
            y0,
            row: 0,
            lo: y0.is_none().then_some(0),
            have: 0,
        };
        let feed = Feed {
            latency: self.params.mult_stages + k.ilog2() as usize * self.params.adder_stages,
            slots: (rows * (cols.div_ceil(k) + usize::from(y0.is_some()))) as u64,
            words: (rows * cols) as u64,
            gapless: rate >= k as f64,
        };
        let out = TreeRun::new(source, feed, reducer, vec![f64::NAN; rows]).run_in(harness);
        MvmOutcome::new(out.y, out.report, self.clock, rate)
    }
}

/// Row-major `MvM`'s group source: k consecutive elements of a row per
/// group, one set per row, and with a carried-in y0 one injection slot
/// opening each row.
struct RowSource<'a> {
    k: usize,
    cols: usize,
    a: ReadChannel<'a>,
    /// x as the lanes hold it: lane p's local store keeps x[p], x[k+p], …,
    /// so element j of a group meets x[j] whichever lane it lands on.
    x: &'a [f64],
    y0: Option<&'a [f64]>,
    row: usize,
    /// First column of the next group; `None` while the row's injection
    /// slot is due.
    lo: Option<usize>,
    /// Words of the next group that have arrived.
    have: usize,
}

impl GroupSource for RowSource<'_> {
    type Streams = [ProbeId; 1];
    const NAME: &'static str = "row-mvm";

    fn register(probe: &mut Probe) -> TreeIds<[ProbeId; 1]> {
        TreeIds {
            front_end: probe.component("row-mvm/front-end"),
            streams: [probe.component("row-mvm/a-stream")],
            backlog: Some(probe.component("row-mvm/backlog")),
            reducer: probe.component("row-mvm/reducer"),
            reduction_buffer: probe.component("row-mvm/reduction-buffer"),
        }
    }

    fn tick(&mut self) {
        self.a.tick();
    }

    fn arrive(&mut self) -> (u64, bool) {
        let Some(lo) = self.lo else {
            // The injection slot streams nothing in.
            return (0, true);
        };
        let want = self.k.min(self.cols - lo);
        let got = self.a.take(want - self.have);
        self.have += got;
        (got as u64, self.have == want)
    }

    fn next(&mut self) -> Slot {
        let row = self.row;
        let Some(lo) = self.lo else {
            // The carried-in partial: no FP unit issues and no new words
            // stream in, so neither busy nor flops nor I/O is charged.
            self.lo = Some(0);
            let value = self.y0.expect("injection slots need y0")[row];
            return Slot {
                input: ReduceInput {
                    set_id: row as u64,
                    value,
                    last: false,
                },
                flops: None,
                words: 0,
            };
        };
        // Lockstep: multiply each element with its lane's stored x and
        // fold through the balanced tree (same association as the k-leaf
        // adder tree).
        let hi = (lo + self.k).min(self.cols);
        let (a, x) = (&self.a.data()[row * self.cols..][lo..hi], &self.x[lo..hi]);
        let value = balanced_fold(hi - lo, |j| mul_f64(a[j], x[j]));
        let last = hi == self.cols;
        self.have = 0;
        self.lo = Some(hi);
        if last {
            self.row += 1;
            self.lo = self.y0.is_none().then_some(0);
        }
        Slot {
            input: ReduceInput {
                set_id: row as u64,
                value,
                last,
            },
            // One mul per element plus one accumulation add per element
            // (tree + reduction, amortized): 2·cols·rows over the run,
            // the analytic §4.2 count.
            flops: Some(2 * (hi - lo) as u64),
            words: hi - lo,
        }
    }

    /// The front end drains after the last row whether or not the
    /// reduction circuit back-pressures it.
    fn drain_stall(_open: bool) -> bool {
        true
    }

    fn sample_streams(&self, probe: &mut Probe, [id]: [ProbeId; 1]) {
        self.a.probe_utilization(probe, id);
    }

    fn fault_drop_beats(&mut self, beats: u64) -> bool {
        self.a.fault_drop_beats(beats)
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
