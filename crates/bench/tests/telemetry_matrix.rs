//! Telemetry determinism and efficiency gates over the quick paper
//! matrix (ISSUE 8, satellite 4).
//!
//! The tentpole invariant is that telemetry is an *observer*: enabling
//! it must not change what is measured, and what it records must be
//! byte-identical regardless of how the matrix was scheduled (`--jobs`)
//! or executed (`--backend`). These tests pin that end to end — the
//! `TELEM` store document, the JSONL event log and the Prometheus
//! snapshot are compared as bytes across worker counts and across the
//! cycle and native backends — and then gate the measured
//! steady-state efficiency of every modelled design against the paper's
//! n/(n+α) prediction.

use fblas_bench::paper_matrix::run_matrix;
use fblas_metrics::RecordSet;
use fblas_sim::{ExecBackend, DEFAULT_TELEM_WINDOW};
use fblas_telemetry::{
    efficiency_row, jsonl_events, prometheus_snapshot, segment, steady_model, TelemSet,
};

fn quick_telem(workers: usize, backend: ExecBackend) -> (RecordSet, TelemSet) {
    let (set, _wall, telem) = run_matrix(true, workers, backend, Some(DEFAULT_TELEM_WINDOW));
    (set, telem)
}

/// The `TELEM` document must not depend on the worker count: run-relative
/// windows plus the pool's ordered reducer make each run's series
/// independent of which worker's harness executed it.
#[test]
fn telem_store_is_byte_identical_across_jobs() {
    let (_, serial) = quick_telem(1, ExecBackend::Cycle);
    let baseline = serial.to_json_string();
    for workers in [2, 8] {
        let (_, pooled) = quick_telem(workers, ExecBackend::Cycle);
        assert_eq!(
            baseline,
            pooled.to_json_string(),
            "TELEM bytes differ between 1 and {workers} workers"
        );
    }
}

/// Native replays reconstruct the exact per-window
/// telemetry the cycle stepper would have produced (or decline, which
/// also lands on the stepper's bytes) — so the whole `TELEM` document is
/// backend-invariant.
#[test]
fn telem_store_is_byte_identical_across_backends() {
    let (_, cycle) = quick_telem(1, ExecBackend::Cycle);
    let baseline = cycle.to_json_string();
    let (_, native) = quick_telem(2, ExecBackend::Native);
    assert_eq!(
        baseline,
        native.to_json_string(),
        "TELEM bytes differ under native"
    );
}

/// The exporters are pure functions of the store, so they inherit its
/// determinism — pinned here as bytes so a formatting regression (or an
/// accidental hash-map iteration) cannot slip through.
#[test]
fn exporters_are_byte_identical_across_jobs_and_backends() {
    let (_, baseline) = quick_telem(1, ExecBackend::Cycle);
    let events = jsonl_events(&baseline);
    let snapshot = prometheus_snapshot(&baseline);
    assert!(!events.is_empty() && !snapshot.is_empty());
    for (workers, backend) in [(8, ExecBackend::Cycle), (2, ExecBackend::Native)] {
        let (_, other) = quick_telem(workers, backend);
        assert_eq!(
            events,
            jsonl_events(&other),
            "JSONL differs at jobs={workers} backend={backend:?}"
        );
        assert_eq!(
            snapshot,
            prometheus_snapshot(&other),
            "Prometheus snapshot differs at jobs={workers} backend={backend:?}"
        );
    }
}

/// Telemetry is an observer: the record set measured with telemetry on
/// must be byte-identical to the one measured with it off.
#[test]
fn telemetry_does_not_perturb_the_measurement() {
    let (with_telem, _) = quick_telem(1, ExecBackend::Cycle);
    let (without, _wall, _) = run_matrix(true, 1, ExecBackend::Cycle, None);
    assert_eq!(with_telem.to_json_string(), without.to_json_string());
}

/// The store survives a save/load round trip losslessly — RLE series,
/// latency histograms and quantiles included.
#[test]
fn telem_store_round_trips_through_json() {
    let (_, telem) = quick_telem(1, ExecBackend::Cycle);
    let text = telem.to_json_string();
    let reloaded = TelemSet::from_json_str(&text).expect("parse");
    assert_eq!(text, reloaded.to_json_string());
}

/// Every simulated design with a steady-state model must measure within
/// tolerance of the paper's n/(n+α) (or m²/(m²+α)) prediction, and its
/// recorded series must segment into phases whose steady span dominates.
#[test]
fn quick_matrix_meets_the_steady_state_model() {
    let (set, telem) = quick_telem(1, ExecBackend::Cycle);
    let mut gated = 0;
    for record in &set.records {
        let steady = telem
            .find(&record.key())
            .map(|run| segment(&run.series).steady_efficiency);
        let Some(row) = efficiency_row(record, steady) else {
            continue;
        };
        gated += 1;
        assert!(
            row.within,
            "{}: measured {:.4} vs predicted {:.4} (α={}) out of tolerance",
            row.key, row.measured, row.predicted, row.alpha
        );
    }
    // Every family in STEADY_MODELS that the quick matrix simulates must
    // actually have been gated — at least the seven quick-run kernels.
    assert!(gated >= 7, "only {gated} records carried a steady model");
    // Spot-check the model table itself resolves the quick keys.
    for kernel in ["dot", "axpy", "mvm/row", "spmv"] {
        assert!(steady_model(kernel).is_some(), "no model for {kernel}");
    }
}
