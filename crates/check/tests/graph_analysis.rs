//! Acceptance gates for the channel-graph analyzer (DESIGN.md §12):
//! every shipped design point proves deadlock-free and every committed
//! BENCH measurement sits under its static throughput bound.

use fblas_check::graph::{
    analyze_topology, cross_validate, enumerate_cycles, shipped_topologies, throughput_bound,
};
use fblas_check::source::repo_root;
use fblas_check::Severity;
use fblas_metrics::{artifact, RecordSet};

/// Every shipped topology passes all three graph analyses, and every
/// feedback design actually carries a proven cycle (the proof is not
/// vacuous).
#[test]
fn every_shipped_topology_is_deadlock_free() {
    let shipped = shipped_topologies();
    assert!(shipped.len() >= 12, "shipped topology set shrank");
    let mut cycles_proven = 0;
    for (topology, clock) in &shipped {
        let report = analyze_topology(topology, *clock);
        assert!(
            report.is_feasible(),
            "{} fails its graph analyses:\n{}",
            topology.name,
            report.render(true)
        );
        for proof in enumerate_cycles(topology) {
            assert!(
                proof.is_deadlock_free(),
                "{}: cycle {:?} undersized",
                topology.name,
                proof.path
            );
            cycles_proven += 1;
        }
    }
    // dot, asum, mvm-row (x2 clocks), mvm-col, mm-linear, mm-hier,
    // reduce and spmv all carry feedback loops.
    assert!(cycles_proven >= 10, "only {cycles_proven} cycles proven");
}

/// The reduction-circuit designs reproduce the paper's §4.3 sizing: the
/// adder loop holds `alpha` in-flight tokens against `2·alpha²` slots.
#[test]
fn reduction_loop_proof_matches_the_paper_bound() {
    let (reduce, _) = shipped_topologies()
        .into_iter()
        .find(|(t, _)| t.name.starts_with("reduce-single-adder"))
        .expect("reduce topology shipped");
    let proofs = enumerate_cycles(&reduce);
    assert_eq!(proofs.len(), 1, "one reduction loop");
    assert_eq!(proofs[0].required_tokens(), 14, "alpha in-flight");
    assert_eq!(proofs[0].capacity, 2 * 14 * 14, "2*alpha^2 slots");
}

/// Every simulated record in the committed BENCH set satisfies
/// `measured <= static bound` with no divergence warnings — the
/// tentpole's cross-validation acceptance bar.
#[test]
fn committed_bench_set_cross_validates_clean() {
    let set = artifact::load(
        &repo_root().join("BENCH_0001.json"),
        RecordSet::from_json_str,
    )
    .expect("load BENCH");
    let report = cross_validate(&set);
    assert!(report.is_feasible(), "{}", report.render(true));
    assert_eq!(
        report.count(Severity::Warning),
        0,
        "{}",
        report.render(true)
    );
    assert!(
        report.count(Severity::Info) >= 11,
        "every simulated record validated:\n{}",
        report.render(true)
    );
}

/// The throughput bounds are non-trivial: finite, positive, and the
/// binding cut is identified for each shipped design.
#[test]
fn throughput_bounds_are_finite_and_positive() {
    for (topology, clock) in shipped_topologies() {
        let bound = throughput_bound(&topology, clock);
        assert!(
            bound.mflops().is_finite() && bound.mflops() > 0.0,
            "{}: degenerate bound {:?}",
            topology.name,
            bound
        );
        assert!(!bound.binding_cut().is_empty());
    }
}
