//! The discrete-event serving engine.
//!
//! One [`CellSpec`] describes a campaign cell: a batchable request
//! class, a set of tenants, a batch limit, an arrival horizon and an
//! SLO target. [`run_cell`] calibrates the class against the real
//! design on the worker's harness, then replays seeded arrivals through
//! a single-fleet discrete-event simulation on
//! [`fblas_sim::EventQueue`] — whose `(time, seq)` ordering makes the
//! loop FIFO-among-equals and therefore fully deterministic — and
//! distills the run into a [`ServeRecord`].
//!
//! Scheduling model: the fleet serves one batch at a time. When it goes
//! idle it packs up to `max_batch` queued requests, oldest first across
//! tenants (ties broken by tenant order), pays the class's DRAM->SRAM
//! staging **once** for the batch (shared operand + per-request
//! operands, burst-granular), then serves the requests back to back at
//! the calibrated service time. A request admitted at time `a` and
//! finishing service at time `f` contributes latency `f - a`.
//!
//! After the arrival horizon the generators stop. A *draining* cell
//! keeps dispatching until the queues empty; a non-draining cell stops
//! dispatching at the horizon and reports whatever is still queued as
//! `in_flight` — the third leg of the conservation identity.

use std::collections::VecDeque;

use fblas_mem::BatchStaging;
use fblas_metrics::{LatencyDigest, ServeRecord, TenantRecord};
use fblas_sim::{EventQueue, Harness, LogHistogram};

use crate::profile::{calibrate, ShapeClass};
use crate::rng::SplitMix64;
use crate::tenant::{ArrivalProcess, TenantSpec, TokenBucket};

/// Static description of one serving-campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Cell identity, unique within a campaign, e.g. `mvm128/open/b8`.
    pub name: String,
    /// The batchable request class every tenant submits.
    pub class: ShapeClass,
    /// The tenants, in book-keeping order.
    pub tenants: Vec<TenantSpec>,
    /// Arrival-stream seed.
    pub seed: u64,
    /// Maximum requests per batch (1 disables batching).
    pub max_batch: u64,
    /// Whether to keep dispatching after the horizon until empty.
    pub drain: bool,
    /// Arrival horizon in ns.
    pub horizon_ns: u64,
    /// Window width for the per-tenant completion/rejection series, ns.
    pub window_ns: u64,
    /// p99 completion-latency target, ns.
    pub slo_p99_ns: u64,
}

/// Events on the cell timeline.
enum Ev {
    /// A request from tenant `usize` arrives at the front door.
    Arrival(usize),
    /// The in-flight batch finishes; the fleet goes idle.
    BatchDone,
}

/// Mutable per-tenant books during a run.
struct TenantState {
    rng: SplitMix64,
    bucket: Option<TokenBucket>,
    queue: VecDeque<u64>,
    arrivals: u64,
    rejected_queue: u64,
    rejected_tokens: u64,
    completed: u64,
    latency: LogHistogram,
}

/// What happened to one request, stamped for the windowed series.
enum Outcome {
    Completed(u64),
    Rejected(u64),
}

/// Run one cell on the worker's harness and return its record.
///
/// # Panics
/// Panics on degenerate specs: no tenants, `max_batch == 0`,
/// `window_ns == 0` or `horizon_ns == 0`.
pub fn run_cell(harness: &mut Harness, spec: &CellSpec) -> ServeRecord {
    assert!(
        !spec.tenants.is_empty(),
        "{}: a cell needs tenants",
        spec.name
    );
    assert!(
        spec.max_batch >= 1,
        "{}: max_batch must be at least 1",
        spec.name
    );
    assert!(
        spec.window_ns >= 1,
        "{}: window must be at least 1 ns",
        spec.name
    );
    assert!(
        spec.horizon_ns >= 1,
        "{}: horizon must be at least 1 ns",
        spec.name
    );

    let profile = calibrate(harness, &spec.class);
    let staging = BatchStaging::xd1();

    let mut states: Vec<TenantState> = spec
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| TenantState {
            // Mix the tenant index into the cell seed through the
            // generator itself so tenant streams are independent.
            rng: SplitMix64::new(
                SplitMix64::new(spec.seed ^ (i as u64).wrapping_mul(0x9E37_79B9)).next_u64(),
            ),
            bucket: t.tokens.map(|(cap, ns)| TokenBucket::new(cap, ns)),
            queue: VecDeque::new(),
            arrivals: 0,
            rejected_queue: 0,
            rejected_tokens: 0,
            completed: 0,
            latency: LogHistogram::default(),
        })
        .collect();

    let mut q: EventQueue<Ev> = EventQueue::new();
    for (i, t) in spec.tenants.iter().enumerate() {
        match t.arrival {
            ArrivalProcess::Open { .. } => {
                let gap = t.arrival.next_gap_ns(&mut states[i].rng);
                if gap <= spec.horizon_ns {
                    q.push(gap, Ev::Arrival(i));
                }
            }
            ArrivalProcess::Closed { clients, .. } => {
                for _ in 0..clients {
                    let gap = t.arrival.next_gap_ns(&mut states[i].rng);
                    if gap <= spec.horizon_ns {
                        q.push(gap, Ev::Arrival(i));
                    }
                }
            }
        }
    }

    let mut fleet_latency = LogHistogram::default();
    let mut outcomes: Vec<(usize, Outcome)> = Vec::new();
    let mut busy_until = 0u64;
    let mut elapsed = 0u64;
    let mut batches = 0u64;
    let mut staging_total = 0u64;
    let mut compute_total = 0u64;

    while let Some((now, ev)) = q.pop() {
        elapsed = elapsed.max(now);
        match ev {
            Ev::Arrival(i) => {
                let t = &spec.tenants[i];
                let st = &mut states[i];
                st.arrivals += 1;
                let admitted = if st.queue.len() >= t.queue_limit {
                    st.rejected_queue += 1;
                    false
                } else if st.bucket.as_mut().is_some_and(|b| !b.try_take(now)) {
                    st.rejected_tokens += 1;
                    false
                } else {
                    st.queue.push_back(now);
                    true
                };
                if !admitted {
                    outcomes.push((i, Outcome::Rejected(now)));
                }
                match t.arrival {
                    ArrivalProcess::Open { .. } => {
                        // Open loop: the stream ticks regardless of fate.
                        let next = now + t.arrival.next_gap_ns(&mut st.rng);
                        if next <= spec.horizon_ns {
                            q.push(next, Ev::Arrival(i));
                        }
                    }
                    ArrivalProcess::Closed { .. } => {
                        // Closed loop: a rejected client thinks and
                        // retries; an admitted one reissues on
                        // completion (scheduled at dispatch below).
                        if !admitted {
                            let next = now + t.arrival.next_gap_ns(&mut st.rng);
                            if next <= spec.horizon_ns {
                                q.push(next, Ev::Arrival(i));
                            }
                        }
                    }
                }
            }
            Ev::BatchDone => {}
        }

        // Dispatch whenever the fleet is idle and work may proceed.
        if now >= busy_until && (spec.drain || now < spec.horizon_ns) {
            let mut batch: Vec<(usize, u64)> = Vec::new();
            while (batch.len() as u64) < spec.max_batch {
                // Oldest queued head across tenants, ties to the lower
                // tenant index — deterministic and starvation-free for
                // FIFO queues.
                let next = (0..states.len())
                    .filter_map(|i| states[i].queue.front().map(|&at| (at, i)))
                    .min();
                match next {
                    Some((at, i)) => {
                        states[i].queue.pop_front();
                        batch.push((i, at));
                    }
                    None => break,
                }
            }
            if !batch.is_empty() {
                let stage_ns = staging.batch_ns(
                    profile.shared_bytes,
                    profile.per_request_bytes,
                    batch.len() as u64,
                );
                let mut finish = now + stage_ns;
                for &(i, at) in &batch {
                    finish += profile.service_ns;
                    let lat = finish - at;
                    states[i].latency.record(lat);
                    fleet_latency.record(lat);
                    states[i].completed += 1;
                    outcomes.push((i, Outcome::Completed(finish)));
                    if let ArrivalProcess::Closed { .. } = spec.tenants[i].arrival {
                        let next = finish + spec.tenants[i].arrival.next_gap_ns(&mut states[i].rng);
                        if next <= spec.horizon_ns {
                            q.push(next, Ev::Arrival(i));
                        }
                    }
                }
                batches += 1;
                staging_total += stage_ns;
                compute_total += profile.service_ns * batch.len() as u64;
                busy_until = finish;
                q.push(finish, Ev::BatchDone);
            }
        }
    }

    elapsed = elapsed.max(busy_until);
    let windows = elapsed.div_ceil(spec.window_ns).max(1);

    let mut completions_w: Vec<Vec<u64>> = vec![vec![0; windows as usize]; spec.tenants.len()];
    let mut rejections_w: Vec<Vec<u64>> = vec![vec![0; windows as usize]; spec.tenants.len()];
    for (i, outcome) in &outcomes {
        match *outcome {
            Outcome::Completed(at) => {
                completions_w[*i][((at / spec.window_ns).min(windows - 1)) as usize] += 1;
            }
            Outcome::Rejected(at) => {
                rejections_w[*i][((at / spec.window_ns).min(windows - 1)) as usize] += 1;
            }
        }
    }

    let tenants: Vec<TenantRecord> = spec
        .tenants
        .iter()
        .zip(states.iter())
        .zip(completions_w.into_iter().zip(rejections_w))
        .map(|((t, st), (completions, rejections))| TenantRecord {
            name: t.name.clone(),
            arrivals: st.arrivals,
            rejected_queue: st.rejected_queue,
            rejected_tokens: st.rejected_tokens,
            completed: st.completed,
            in_flight: st.queue.len() as u64,
            latency: LatencyDigest::from_histogram(&st.latency),
            completions,
            rejections,
        })
        .collect();

    let completed: u64 = tenants.iter().map(|t| t.completed).sum();
    let throughput_milli_rps = if elapsed == 0 {
        0
    } else {
        (u128::from(completed) * 1_000_000_000_000u128 / u128::from(elapsed)) as u64
    };
    let latency = LatencyDigest::from_histogram(&fleet_latency);
    ServeRecord {
        cell: spec.name.clone(),
        kernel: spec.class.family.name().to_string(),
        n: spec.class.n as u64,
        seed: spec.seed,
        max_batch: spec.max_batch,
        drain: spec.drain,
        horizon_ns: spec.horizon_ns,
        window_ns: spec.window_ns,
        windows,
        batches,
        staging_ns: staging_total,
        compute_ns: compute_total,
        elapsed_ns: elapsed,
        throughput_milli_rps,
        slo_pass: latency.p99().is_some_and(|p| p <= spec.slo_p99_ns),
        latency,
        slo_p99_ns: spec.slo_p99_ns,
        tenants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::KernelFamily;
    use fblas_sim::ExecBackend;

    fn quick_class() -> ShapeClass {
        ShapeClass {
            family: KernelFamily::Dot,
            n: 64,
        }
    }

    fn open_cell(name: &str, max_batch: u64, drain: bool) -> CellSpec {
        CellSpec {
            name: name.to_string(),
            class: quick_class(),
            tenants: vec![
                TenantSpec::open("alpha", 4_000, 16),
                TenantSpec::open("beta", 9_000, 4).with_tokens(8, 20_000),
            ],
            seed: 2025,
            max_batch,
            drain,
            horizon_ns: 2_000_000,
            window_ns: 250_000,
            slo_p99_ns: 500_000,
        }
    }

    #[test]
    fn every_tenant_conserves_requests() {
        let rec = run_cell(&mut Harness::new(), &open_cell("t/conserve", 8, true));
        for t in &rec.tenants {
            assert_eq!(
                t.arrivals,
                t.completed + t.rejected_queue + t.rejected_tokens + t.in_flight,
                "{}: books do not balance",
                t.name
            );
            // Windowed series must sum to the counters they observe.
            assert_eq!(t.completions.iter().sum::<u64>(), t.completed);
            assert_eq!(t.rejections.iter().sum::<u64>(), t.rejected());
        }
        assert!(rec.offered() > 0);
        assert!(rec.completed() > 0);
        // A drained open-loop cell finishes all admitted work.
        assert_eq!(rec.in_flight(), 0);
    }

    #[test]
    fn batching_amortizes_staging() {
        let unbatched = run_cell(&mut Harness::new(), &open_cell("t/b1", 1, true));
        let batched = run_cell(&mut Harness::new(), &open_cell("t/b8", 8, true));
        // Identical seeds and drain: both serve every offered request.
        assert_eq!(unbatched.offered(), batched.offered());
        assert!(batched.batches < unbatched.batches);
        assert!(
            batched.staging_ns < unbatched.staging_ns,
            "batched staging {} ns should beat unbatched {} ns",
            batched.staging_ns,
            unbatched.staging_ns
        );
        assert!(batched.busy_ns() < unbatched.busy_ns());
        assert!(batched.elapsed_ns <= unbatched.elapsed_ns);
    }

    #[test]
    fn no_drain_overload_leaves_requests_in_flight() {
        let mut spec = open_cell("t/inflight", 1, false);
        // Arrivals far faster than an mvm-free service can absorb.
        spec.tenants = vec![TenantSpec::open("storm", 500, 1_000)];
        let rec = run_cell(&mut Harness::new(), &spec);
        assert!(
            rec.in_flight() > 0,
            "overloaded no-drain cell must strand work"
        );
        let t = &rec.tenants[0];
        assert_eq!(
            t.arrivals,
            t.completed + t.rejected_queue + t.rejected_tokens + t.in_flight
        );
    }

    #[test]
    fn tight_limits_reject_honestly() {
        let mut spec = open_cell("t/reject", 1, true);
        spec.tenants = vec![
            TenantSpec::open("queue-bound", 1_000, 2),
            TenantSpec::open("token-bound", 1_000, 1_000).with_tokens(1, 1_000_000),
        ];
        let rec = run_cell(&mut Harness::new(), &spec);
        assert!(
            rec.tenants[0].rejected_queue > 0,
            "depth limit never tripped"
        );
        assert!(
            rec.tenants[1].rejected_tokens > 0,
            "token bucket never tripped"
        );
    }

    #[test]
    fn closed_loop_bounds_concurrency() {
        let mut spec = open_cell("t/closed", 4, true);
        spec.tenants = vec![TenantSpec::closed("think", 3, 10_000, 16)];
        let rec = run_cell(&mut Harness::new(), &spec);
        let t = &rec.tenants[0];
        assert!(t.arrivals > 3, "clients should cycle more than once");
        assert_eq!(
            t.arrivals,
            t.completed + t.rejected_queue + t.rejected_tokens
        );
        // With 3 clients no batch can ever hold more than 3 requests,
        // so staging amortization is capped by the population.
        assert!(rec.batches * 3 >= rec.completed());
    }

    #[test]
    fn records_are_identical_across_runs_and_backends() {
        let spec = open_cell("t/det", 8, true);
        let a = run_cell(&mut Harness::new(), &spec);
        let b = run_cell(&mut Harness::new(), &spec);
        assert_eq!(a, b);
        let c = run_cell(&mut Harness::with_backend(ExecBackend::Native), &spec);
        assert_eq!(a, c, "native calibration changed the record");
    }

    #[test]
    fn slo_verdict_tracks_the_target() {
        let mut spec = open_cell("t/slo", 8, true);
        spec.slo_p99_ns = u64::MAX;
        let pass = run_cell(&mut Harness::new(), &spec);
        assert!(pass.slo_pass);
        spec.slo_p99_ns = 1;
        let fail = run_cell(&mut Harness::new(), &spec);
        assert!(!fail.slo_pass);
    }
}
