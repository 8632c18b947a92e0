//! The observatory fault campaign: fan the seeded trial matrix of
//! `fblas-faults` across the deterministic worker pool and collect the
//! byte-deterministic [`FaultSet`] that `observatory faults` persists.
//!
//! Each trial is a pure function of `(seed, family, trial index)` and
//! shares no mutable state with any other, so the pool's ordered reducer
//! guarantees identical `FAULTS.json` bytes at any `--jobs` value — the
//! same contract the paper matrix upholds for `BENCH_<n>.json`.

use fblas_faults::{degrade_mm, degrade_row_mvm, run_trial, trial_specs, DegradedRun, TrialResult};
use fblas_metrics::{DegradedRecord, FaultRecord, FaultSet};
use fblas_sim::ExecBackend;

use crate::pool::{self, Job};

/// Trials per kernel family for `--quick` campaigns (CI smoke).
pub const QUICK_TRIALS_PER_FAMILY: usize = 6;
/// Trials per kernel family for full campaigns.
pub const FULL_TRIALS_PER_FAMILY: usize = 16;

/// Convert a classified campaign trial into its persistent record.
pub fn record_from_trial(t: &TrialResult) -> FaultRecord {
    let (recovered, attempts, cycles) = t.recovery.map_or((false, 0, 0), |r| {
        (r.recovered, u64::from(r.attempts), r.recovery_cycles)
    });
    FaultRecord {
        kernel: t.family.to_string(),
        fault: t.fault.to_string(),
        cycle: t.cycle,
        landed: t.landed,
        outcome: t.outcome.name().to_string(),
        detector: t.detector.to_string(),
        recovered,
        recovery_attempts: attempts,
        recovery_cycles: cycles,
    }
}

/// Convert a graceful-degradation measurement into its persistent record.
pub fn record_from_degraded(d: &DegradedRun) -> DegradedRecord {
    DegradedRecord {
        kernel: d.family.to_string(),
        healthy_k: d.healthy_k as u64,
        degraded_k: d.degraded_k as u64,
        healthy_mflops: d.healthy_mflops,
        degraded_mflops: d.degraded_mflops,
        exact: d.exact,
    }
}

/// Build one pool job per campaign trial. The job ignores the pool's
/// per-worker harness: a trial needs a *fresh* harness per run (a caught
/// panic may leave shared state corrupted), so [`run_trial`] constructs
/// its own.
pub fn fault_jobs(seed: u64, trials_per_family: usize) -> Vec<Job<FaultRecord>> {
    trial_specs(seed, trials_per_family)
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let label = format!(
                "faults/{}/{}",
                spec.family.name(),
                i % trials_per_family.max(1)
            );
            Job::new(&label, move |_harness| record_from_trial(&run_trial(&spec)))
        })
        .collect()
}

/// Run the full campaign: the seeded trial matrix on `workers` pool
/// workers, then the two graceful-degradation measurements.
pub fn run_fault_matrix_with_jobs(seed: u64, quick: bool, workers: usize) -> FaultSet {
    let trials = if quick {
        QUICK_TRIALS_PER_FAMILY
    } else {
        FULL_TRIALS_PER_FAMILY
    };
    let mut set = FaultSet::new("observatory faults", seed);
    set.records =
        pool::run_ordered_with_backend(fault_jobs(seed, trials), workers, ExecBackend::Cycle);
    set.degraded
        .push(record_from_degraded(&degrade_row_mvm(seed)));
    set.degraded.push(record_from_degraded(&degrade_mm(seed)));
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_bytes_do_not_depend_on_the_worker_count() {
        let serial = run_fault_matrix_with_jobs(7, true, 1);
        let pooled = run_fault_matrix_with_jobs(7, true, 3);
        assert_eq!(serial.to_json_string(), pooled.to_json_string());
    }

    #[test]
    fn quick_campaign_covers_every_family_and_stays_gate_clean() {
        let set = run_fault_matrix_with_jobs(7, true, 2);
        assert_eq!(
            set.records.len(),
            fblas_faults::Family::ALL.len() * QUICK_TRIALS_PER_FAMILY
        );
        assert_eq!(set.degraded.len(), 2);
        assert_eq!(
            set.covered_silent_corruptions(),
            0,
            "ABFT-covered kernels must have zero silent corruptions"
        );
        assert!(
            set.records.iter().any(|r| r.landed),
            "a campaign with no landed faults proves nothing"
        );
    }

    #[test]
    fn recovery_fields_are_zero_when_no_response_ran() {
        let set = run_fault_matrix_with_jobs(7, true, 2);
        for r in &set.records {
            if r.outcome == "masked" || r.outcome == "silent-corruption" {
                assert!(!r.recovered, "{r:?}");
                assert_eq!(r.recovery_attempts, 0, "{r:?}");
                assert_eq!(r.recovery_cycles, 0, "{r:?}");
            }
        }
    }
}
