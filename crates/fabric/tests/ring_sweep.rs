//! A seeded sweep of fabric link specs, pinned to a golden file.
//!
//! Every run steps the shared shard schedule against a [`RingSpec`]
//! drawn from a fixed xorshift stream: fractional link rates from 0.3
//! to 4.0 words/cycle, latencies from 0 up, egress windows from one
//! word to above a block, 1–12 MM shards over 1–3 chassis, and both
//! `MvM` orientations on 1–6 shards. The golden file records each
//! run's report, its starved and backpressured ledgers and every
//! `LinkReport`, so any change to how the fabric steps — link grants,
//! hop timing, source pacing, stall attribution — shows up as a diff.

use std::fmt::Write as _;

use fblas_core::mvm::DenseMatrix;
use fblas_fabric::{
    FabricMm, FabricMvm, LinkReport, MmShardPlan, MvmShardPlan, Orientation, RingSpec,
};
use fblas_sim::SimReport;
use fblas_system::ClockModel;

/// Deterministic xorshift64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    /// A link rate in 0.30..=4.00 words/cycle, in steps of 0.01.
    fn rate(&mut self) -> f64 {
        (30 + self.below(371)) as f64 / 100.0
    }

    fn spec(&mut self, max_egress: u64) -> RingSpec {
        RingSpec {
            intra_words_per_cycle: self.rate(),
            inter_words_per_cycle: self.rate(),
            intra_latency_cycles: self.pick(&[0, 0, 1, 2, 3, 5, 8, 13, 24]),
            inter_latency_cycles: self.pick(&[0, 1, 4, 17, 60, 208]),
            egress_capacity_words: 1 + self.below(max_egress),
        }
    }
}

/// Every (shards, chassis) pair an XD1 layout admits up to 12 FPGAs
/// over 3 chassis.
const MM_WIDTHS: &[(usize, usize)] = &[
    (1, 1),
    (2, 1),
    (3, 1),
    (4, 1),
    (5, 1),
    (6, 1),
    (2, 2),
    (4, 2),
    (6, 2),
    (8, 2),
    (10, 2),
    (12, 2),
    (3, 3),
    (6, 3),
    (9, 3),
    (12, 3),
];

const MM_RUNS: usize = 96;
const MVM_RUNS: usize = 48;

fn mats(n: usize) -> (DenseMatrix, DenseMatrix) {
    let a = DenseMatrix::from_fn(n, n, |i, j| ((i * 3 + j * 7) % 8) as f64 - 3.5);
    let b = DenseMatrix::from_fn(n, n, |i, j| ((i * 5 + j * 11) % 9) as f64 * 0.25);
    (a, b)
}

fn record(
    out: &mut String,
    report: &SimReport,
    starved: u64,
    backpressured: u64,
    links: &[LinkReport],
) {
    writeln!(
        out,
        "  cycles={} flops={} in={} out={} busy={} starved={starved} backpressured={backpressured}",
        report.cycles, report.flops, report.words_in, report.words_out, report.busy_cycles
    )
    .unwrap();
    for l in links {
        writeln!(
            out,
            "  {} {} forwarded={} congestion={} max_backlog={}",
            l.name,
            l.class.name(),
            l.forwarded_words,
            l.congestion_cycles,
            l.max_backlog_words
        )
        .unwrap();
    }
}

fn spec_line(spec: &RingSpec) -> String {
    format!(
        "intra={}w/c@{} inter={}w/c@{} egress={}",
        spec.intra_words_per_cycle,
        spec.intra_latency_cycles,
        spec.inter_words_per_cycle,
        spec.inter_latency_cycles,
        spec.egress_capacity_words
    )
}

/// Render the whole sweep, one stanza per run.
fn sweep() -> String {
    let mut rng = Rng(0x5EED_FAB1_C0DE_2005);
    let mut out = String::new();

    // MM: n = 32, m = 8, k = 4 is hazard-free (m²/k = 16 ≥ α) and
    // deals 16 block pairs, enough for every width up to 12 FPGAs. A
    // C block is m² = 64 words, so windows run from 1 to 96 words.
    let (a, b) = mats(32);
    let clock_mhz = ClockModel::default().xd1_mm(4).mhz();
    for run in 0..MM_RUNS {
        let (shards, chassis) = MM_WIDTHS[run % MM_WIDTHS.len()];
        let spec = rng.spec(96);
        let plan = MmShardPlan {
            n: 32,
            k: 4,
            m: 8,
            shards,
            chassis,
            clock_mhz,
        };
        let o = FabricMm::with_ring(plan, spec).run(&a, &b);
        writeln!(out, "mm s={shards} c={chassis} {}", spec_line(&spec)).unwrap();
        record(
            &mut out,
            &o.report,
            o.starved_cycles,
            o.backpressured_cycles,
            &o.links,
        );
    }

    // MvM: both orientations on 1–6 shards. Column-major slices keep
    // rows/k ≥ α, hence its larger n.
    let clock_mhz = ClockModel::default().xd1_l2().mhz();
    for run in 0..MVM_RUNS {
        let (orientation, n) = if run % 2 == 0 {
            (Orientation::Row, 96)
        } else {
            (Orientation::Col, 336)
        };
        let shards = rng.pick(&[1, 2, 3, 4, 6]);
        let rows = n / shards;
        let spec = rng.spec(rows as u64 + 16);
        let plan = MvmShardPlan {
            orientation,
            n,
            k: 4,
            shards,
            clock_mhz,
        };
        let a = DenseMatrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let x: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) * 0.5 - 2.5).collect();
        let o = FabricMvm::with_ring(plan, spec).run(&a, &x);
        writeln!(out, "mvm {orientation:?} s={shards} {}", spec_line(&spec)).unwrap();
        record(
            &mut out,
            &o.report,
            o.starved_cycles,
            o.backpressured_cycles,
            &o.links,
        );
    }
    out
}

#[test]
fn seeded_ring_spec_sweep_is_pinned() {
    assert_eq!(
        sweep(),
        include_str!("golden/ring_sweep.txt"),
        "fabric sweep drifted from the golden file. If the change is \
         intentional, regenerate with:\n  cargo test -p fblas-fabric \
         --test ring_sweep -- --ignored regen_ring_sweep_golden"
    );
}

#[test]
#[ignore = "writes tests/golden/ring_sweep.txt; run after intentional schedule changes"]
fn regen_ring_sweep_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ring_sweep.txt");
    std::fs::write(path, sweep()).unwrap();
    println!("rewrote {path}");
}
