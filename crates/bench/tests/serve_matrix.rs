//! Serving-store determinism properties.
//!
//! The `SERVE_<n>.json` contract mirrors the BENCH one: the bytes are a
//! pure function of (campaign, seed) — never of the worker count, the
//! execution backend or the host. This suite pins that contract two
//! ways: the quick campaign's serialized bytes across `--jobs` 1/2/8
//! and across both backends, and a property-style sweep of
//! randomized single cells (seed, batching, tenant mix varied per
//! trial) re-run cycle-stepped vs native, which must
//! agree record-for-record. Every store produced along the way must
//! also satisfy the `fblas-check` conservation rules — determinism
//! without honest books would pin the wrong thing.

use fblas_bench::serve_matrix::run_serve_matrix_with_jobs;
use fblas_check::{check_serve_set, Severity};
use fblas_metrics::ServeSet;
use fblas_serve::{run_cell, CellSpec, KernelFamily, ShapeClass, TenantSpec};
use fblas_sim::{ExecBackend, Harness};

#[test]
fn serve_bytes_are_identical_across_jobs_counts() {
    let baseline = run_serve_matrix_with_jobs(true, 1, ExecBackend::Cycle).to_json_string();
    for jobs in [2, 8] {
        let run = run_serve_matrix_with_jobs(true, jobs, ExecBackend::Cycle).to_json_string();
        assert_eq!(baseline, run, "--jobs {jobs} changed the SERVE bytes");
    }
    // And the bytes round-trip losslessly through the store parser.
    let parsed = ServeSet::from_json_str(&baseline).expect("store must parse");
    assert_eq!(parsed.to_json_string(), baseline);
}

#[test]
fn serve_bytes_are_identical_across_backends() {
    let cycle = run_serve_matrix_with_jobs(true, 2, ExecBackend::Cycle).to_json_string();
    let run = run_serve_matrix_with_jobs(true, 2, ExecBackend::Native).to_json_string();
    assert_eq!(cycle, run, "backend native changed the SERVE bytes");
}

/// xorshift64* — per-trial deterministic generator, same idiom as the
/// backend-parity sweep, so failures reproduce from the printed tuple.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut s = self.0;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.0 = s;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn pick(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// A randomized quick cell: seed, batching depth, drain mode, queue
/// limits and tenant mix all vary per trial.
fn random_cell(trial: u64, rng: &mut Rng) -> CellSpec {
    let family = match rng.pick(0, 2) {
        0 => KernelFamily::Dot,
        1 => KernelFamily::Axpy,
        _ => KernelFamily::Mvm,
    };
    // MvM needs rows/k >= adder depth (the §4.2 hazard bound), so its
    // smallest legal class here is n = 64.
    let n = match family {
        KernelFamily::Mvm => 64 << rng.pick(0, 1),
        _ => 64 << rng.pick(0, 2),
    };
    let mut tenants = vec![TenantSpec::open(
        "open",
        rng.pick(2_000, 50_000),
        rng.pick(2, 32) as usize,
    )];
    if rng.pick(0, 1) == 1 {
        tenants.push(
            TenantSpec::open("metered", rng.pick(5_000, 80_000), rng.pick(2, 16) as usize)
                .with_tokens(rng.pick(1, 8), rng.pick(10_000, 200_000)),
        );
    }
    if rng.pick(0, 1) == 1 {
        tenants.push(TenantSpec::closed(
            "closed",
            rng.pick(1, 4),
            rng.pick(5_000, 50_000),
            rng.pick(2, 16) as usize,
        ));
    }
    CellSpec {
        name: format!("prop/trial{trial}"),
        class: ShapeClass {
            family,
            n: n as usize,
        },
        tenants,
        seed: rng.next_u64(),
        max_batch: rng.pick(1, 8),
        drain: rng.pick(0, 1) == 1,
        horizon_ns: rng.pick(200_000, 2_000_000),
        window_ns: rng.pick(50_000, 500_000),
        slo_p99_ns: rng.pick(100_000, 5_000_000),
    }
}

#[test]
fn randomized_cells_agree_across_backends_and_conserve() {
    for trial in 0..24u64 {
        let mut rng = Rng::new(0x5EED ^ trial);
        let spec = random_cell(trial, &mut rng);
        let cycle = run_cell(&mut Harness::new(), &spec);
        let other = run_cell(&mut Harness::with_backend(ExecBackend::Native), &spec);
        assert_eq!(
            cycle, other,
            "trial {trial} ({}) drifted under backend native",
            spec.name
        );
        let mut set = ServeSet::new("prop-test");
        set.records.push(cycle);
        let report = check_serve_set(&set);
        assert_eq!(
            report.count(Severity::Error),
            0,
            "trial {trial}: {}",
            report.render(true)
        );
    }
}
