//! Self-scheduling worker pool with a deterministic ordered reducer.
//!
//! The paper matrix is embarrassingly parallel: every entry owns its
//! workload, its design instances and its harness, so entries can run on
//! any worker in any order. What must *not* vary is the output order —
//! `BENCH_<n>.json` is byte-compared against baselines — so the pool
//! separates scheduling from reduction:
//!
//! * **Scheduling** is work-stealing in the self-scheduling sense: workers
//!   pull the next unclaimed job from a shared queue, so a worker that
//!   drew short jobs steals the long tail instead of idling behind a
//!   static partition.
//! * **Reduction** is ordered: each result is tagged with its submission
//!   index and placed into its slot, so [`run_ordered`] returns results
//!   in exactly the order the jobs were submitted, regardless of which
//!   worker finished when.
//!
//! With one worker the pool degenerates to the serial loop (one harness,
//! jobs in submission order), which is why `--jobs 1` reproduces the old
//! serial byte stream exactly. With N workers each worker owns a private
//! [`Harness`]; records stay identical because they are built from
//! per-run probe *deltas* (see `record_sink::measure`), never from
//! harness-lifetime totals. The determinism argument is spelled out in
//! DESIGN.md §10.
//!
//! This module is the only place in `fblas-bench` allowed to spawn
//! threads — `fblas-check drc` enforces that (`bench-thread-containment`).

use std::collections::VecDeque;
use std::sync::{mpsc, Mutex};

use fblas_sim::{ExecBackend, Harness};

/// One schedulable unit: a label (for diagnostics) plus a closure that
/// runs a kernel on a worker-owned harness and returns its result.
///
/// The `Send` bound on the closure is the pool's shared-state audit: a
/// job that tried to smuggle an `Rc`, a raw pointer or a non-`Send`
/// design across workers would fail to compile.
pub struct Job<T> {
    label: String,
    run: Box<dyn FnOnce(&mut Harness) -> T + Send>,
}

impl<T> Job<T> {
    /// Package `run` as a job named `label`.
    pub fn new(label: &str, run: impl FnOnce(&mut Harness) -> T + Send + 'static) -> Self {
        Self {
            label: label.to_string(),
            run: Box::new(run),
        }
    }

    /// The job's diagnostic label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// Default worker count: the host's available parallelism (1 if unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Run `jobs` on `workers` self-scheduling workers and return the results
/// in submission order.
///
/// `workers` is clamped to `[1, jobs.len()]`. With one worker no threads
/// are spawned at all: the jobs run in order on the caller's thread
/// through a single harness — the exact serial semantics the observatory
/// had before the pool existed. A panicking job (the matrix entries carry
/// correctness asserts) propagates to the caller after the other workers
/// drain.
pub fn run_ordered<T: Send>(jobs: Vec<Job<T>>, workers: usize) -> Vec<T> {
    run_ordered_with_backend(jobs, workers, ExecBackend::Cycle)
}

/// [`run_ordered`] with every worker harness created on the given
/// execution backend, so the whole matrix runs cycle-stepped or
/// native. Scheduling and ordered reduction are
/// unchanged — backend choice affects wall clock only, never bytes.
pub fn run_ordered_with_backend<T: Send>(
    jobs: Vec<Job<T>>,
    workers: usize,
    backend: ExecBackend,
) -> Vec<T> {
    let n = jobs.len();
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        let mut harness = Harness::with_backend(backend);
        return jobs.into_iter().map(|j| (j.run)(&mut harness)).collect();
    }

    type JobResult<T> = Result<T, Box<dyn std::any::Any + Send>>;
    let queue: Mutex<VecDeque<(usize, Job<T>)>> =
        Mutex::new(jobs.into_iter().enumerate().collect());
    let (tx, rx) = mpsc::channel::<(usize, JobResult<T>)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            scope.spawn(move || {
                // Each worker owns one harness for its whole lifetime;
                // records are probe deltas, so reuse across jobs cannot
                // leak state into the results.
                let mut harness = Harness::with_backend(backend);
                loop {
                    let claimed = queue.lock().expect("queue poisoned").pop_front();
                    let Some((index, job)) = claimed else { break };
                    // Catch job panics so the original payload (a failed
                    // kernel assert, say) reaches the caller instead of
                    // the scope's generic "a scoped thread panicked".
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        (job.run)(&mut harness)
                    }));
                    let panicked = out.is_err();
                    if tx.send((index, out)).is_err() || panicked {
                        // After a panic this worker's harness may hold
                        // broken invariants — retire it; the remaining
                        // workers drain the queue.
                        break;
                    }
                }
            });
        }
    });
    drop(tx);

    // All workers have joined; drain the tagged results into their slots,
    // re-raising the lowest-index panic (deterministic pick) if any job
    // failed.
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut first_panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
    for (index, result) in rx {
        match result {
            Ok(out) => slots[index] = Some(out),
            Err(payload) => match &first_panic {
                Some((earliest, _)) if *earliest <= index => {}
                _ => first_panic = Some((index, payload)),
            },
        }
    }
    if let Some((_, payload)) = first_panic {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("job {i} produced no result")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_jobs(n: usize) -> Vec<Job<usize>> {
        (0..n)
            .map(|i| Job::new(&format!("sq/{i}"), move |_h| i * i))
            .collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        for workers in [1, 2, 3, 8, 64] {
            let out = run_ordered(square_jobs(17), workers);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_oversized_inputs_are_fine() {
        assert!(run_ordered(Vec::<Job<u8>>::new(), 4).is_empty());
        assert_eq!(run_ordered(square_jobs(2), 100), vec![0, 1]);
        assert_eq!(run_ordered(square_jobs(3), 0), vec![0, 1, 4]);
    }

    #[test]
    fn jobs_see_a_working_harness() {
        use fblas_core::dot::{DotParams, DotProductDesign};
        let jobs: Vec<Job<f64>> = (0..4)
            .map(|i| {
                Job::new(&format!("dot/{i}"), move |h: &mut Harness| {
                    let design = DotProductDesign::standalone(DotParams::table3(), 170.0);
                    let u = crate::synth_int(i, 64, 8);
                    let v = crate::synth_int(i + 1, 64, 8);
                    design.run_in(h, &u, &v).result
                })
            })
            .collect();
        let serial = run_ordered(
            (0..4)
                .map(|i| {
                    Job::new(&format!("dot/{i}"), move |h: &mut Harness| {
                        let design = DotProductDesign::standalone(DotParams::table3(), 170.0);
                        let u = crate::synth_int(i, 64, 8);
                        let v = crate::synth_int(i + 1, 64, 8);
                        design.run_in(h, &u, &v).result
                    })
                })
                .collect(),
            1,
        );
        assert_eq!(run_ordered(jobs, 3), serial);
    }

    #[test]
    fn labels_are_preserved() {
        let j = Job::new("dot[k=2]", |_h: &mut Harness| 0u8);
        assert_eq!(j.label(), "dot[k=2]");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn job_panics_propagate() {
        let jobs = vec![
            Job::new("ok", |_h: &mut Harness| 1u8),
            Job::new("bad", |_h: &mut Harness| panic!("boom")),
        ];
        run_ordered(jobs, 2);
    }
}
