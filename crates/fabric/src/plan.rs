//! Shard plans: how a kernel is cut across the fabric, and what each
//! link must sustain to feed that cut.
//!
//! A plan is pure geometry — problem size, shard count, chassis count,
//! compute clock. The demand functions below turn a plan into per-link
//! sustained rates, which the `fblas-check` fabric-link-budget rule
//! compares against the modeled RocketIO/RapidArray capacities: a
//! shipped plan whose steady-state traffic oversubscribes any hop is a
//! DRC error before a single cycle is simulated.

use fblas_system::ClockModel;

use crate::link::{LinkClass, RingSpec};
use crate::net::{Layout, LinkDir};

/// Orientation of a sharded matrix-vector multiply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// Row-major slices on the adder-tree design.
    Row,
    /// Column-major slices on the single-adder design.
    Col,
}

impl Orientation {
    /// Stable kernel label used in SCALE records, e.g. `mvm/row`.
    pub fn kernel(self) -> &'static str {
        match self {
            Orientation::Row => "mvm/row",
            Orientation::Col => "mvm/col",
        }
    }
}

/// A sharded linear-array matrix-multiply configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmShardPlan {
    /// Matrix order (the product is `n × n`).
    pub n: usize,
    /// PEs per FPGA (the linear-array depth).
    pub k: usize,
    /// Block edge: each FPGA multiplies `m × m` blocks.
    pub m: usize,
    /// FPGAs the block pairs are dealt across.
    pub shards: usize,
    /// Chassis the FPGAs are spread over (ring-position-major).
    pub chassis: usize,
    /// Compute clock, MHz (all shards run the same bitstream).
    pub clock_mhz: f64,
}

impl MmShardPlan {
    /// Blocks per matrix edge.
    pub fn nb(&self) -> usize {
        self.n / self.m
    }

    /// Total `(g, h)` output-block pairs in the schedule.
    pub fn pairs(&self) -> usize {
        self.nb() * self.nb()
    }

    /// Pairs dealt to `shard` under the round-robin schedule.
    pub fn pairs_of(&self, shard: usize) -> usize {
        let pairs = self.pairs();
        let base = pairs / self.shards;
        let extra = usize::from(shard < pairs % self.shards);
        base + extra
    }

    /// Validate the plan's divisibility and placement constraints.
    ///
    /// # Panics
    /// Panics on an infeasible plan; plans are static data, so this is
    /// a construction-time assertion, not a runtime error path.
    pub fn validate(&self) {
        assert!(self.n.is_multiple_of(self.m), "m must divide n");
        assert!(self.m.is_multiple_of(self.k), "k must divide m");
        assert!(self.shards >= 1 && self.chassis >= 1);
        assert!(
            self.shards.is_multiple_of(self.chassis),
            "chassis must divide shards"
        );
        assert!(
            self.shards / self.chassis <= 6,
            "an XD1 chassis holds six FPGAs"
        );
        assert!(
            self.shards <= self.pairs(),
            "more shards than block pairs leaves idle FPGAs"
        );
    }

    /// Steady-state operand demand of one busy shard, words/cycle:
    /// `2m²` words per block step of `m³/k` cycles.
    pub fn operand_words_per_cycle(&self) -> f64 {
        2.0 * self.k as f64 / self.m as f64
    }

    /// Steady-state result drain of one busy shard, words/cycle:
    /// `m²` words per pair of `nb · m³/k` cycles.
    pub fn egress_words_per_cycle(&self) -> f64 {
        self.k as f64 / (self.nb() * self.m) as f64
    }
}

/// A sharded matrix-vector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MvmShardPlan {
    /// Which `MvM` design the shards run.
    pub orientation: Orientation,
    /// Matrix order.
    pub n: usize,
    /// Multiplier lanes per FPGA.
    pub k: usize,
    /// FPGAs the row range is split across.
    pub shards: usize,
    /// Compute clock, MHz.
    pub clock_mhz: f64,
}

impl MvmShardPlan {
    /// Rows owned by each shard (the split is even by construction).
    pub fn rows_per_shard(&self) -> usize {
        self.n / self.shards
    }

    /// Row range `[start, end)` of `shard`.
    pub fn rows_of(&self, shard: usize) -> (usize, usize) {
        let rows = self.rows_per_shard();
        (shard * rows, (shard + 1) * rows)
    }

    /// Validate the plan's divisibility and placement constraints.
    ///
    /// # Panics
    /// Panics on an infeasible plan (static data, see
    /// [`MmShardPlan::validate`]).
    pub fn validate(&self) {
        assert!(self.shards >= 1 && self.shards <= 6);
        assert!(
            self.n.is_multiple_of(self.shards * self.k),
            "shards*k must divide n for even, lane-aligned slices"
        );
    }

    /// Steady-state broadcast demand of one shard, words/cycle: the
    /// `n`-word x vector over an `n · rows / k`-cycle compute.
    pub fn broadcast_words_per_cycle(&self) -> f64 {
        self.k as f64 / self.rows_per_shard() as f64
    }

    /// Steady-state gather rate of one shard, words/cycle: `rows`
    /// result words over the same compute span.
    pub fn gather_words_per_cycle(&self) -> f64 {
        self.k as f64 / self.n as f64
    }
}

/// Sustained demand vs modeled capacity for one link of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkBudget {
    /// Link name from the layout, e.g. `c0/hop0` or `ra/c1/ret`.
    pub link: String,
    /// Physical class (fixes the capacity side).
    pub class: LinkClass,
    /// Direction of the link.
    pub dir: LinkDir,
    /// Summed steady-state demand of every flow routed over the link,
    /// words/cycle.
    pub demand_words_per_cycle: f64,
    /// Modeled link capacity under the spec, words/cycle.
    pub capacity_words_per_cycle: f64,
}

impl LinkBudget {
    /// Capacity with a hair of slack for float accumulation,
    /// words/cycle (accounting about the link, not a datapath value).
    fn slack_capacity_words_per_cycle(&self) -> f64 {
        self.capacity_words_per_cycle * (1.0 + 1e-9)
    }

    /// Whether demand fits inside capacity (with a hair of slack for
    /// float accumulation).
    pub fn feasible(&self) -> bool {
        self.demand_words_per_cycle <= self.slack_capacity_words_per_cycle()
    }
}

/// Accumulate `rate` (words/cycle of accounting demand) onto every
/// link of `route`.
fn add_route_rate(budget: &mut [f64], route: &[usize], rate: f64) {
    for &link in route {
        budget[link] += rate;
    }
}

/// FLOP-rate accounting: a MAC datapath performs two FLOPs per
/// element, so a stage holding `count` elements runs at `2·count`.
pub(crate) fn mac_flops(count: usize) -> f64 {
    2.0 * count as f64
}

/// Wrap accumulated per-link demand into [`LinkBudget`] rows.
fn budgets_from(layout: &Layout, spec: &RingSpec, demand: &[f64]) -> Vec<LinkBudget> {
    layout
        .links()
        .iter()
        .zip(demand)
        .map(|(meta, &d)| LinkBudget {
            link: meta.name.clone(),
            class: meta.class,
            dir: meta.dir,
            demand_words_per_cycle: d,
            capacity_words_per_cycle: spec.rate(meta.class),
        })
        .collect()
}

/// Per-link budget of an MM plan: operand streams on the forward
/// plane, result drain on the return plane.
pub fn mm_link_budgets(plan: &MmShardPlan, spec: &RingSpec) -> Vec<LinkBudget> {
    plan.validate();
    let layout = Layout::new(plan.shards, plan.chassis);
    let mut demand = vec![0.0; layout.links().len()];
    for shard in 0..plan.shards {
        if plan.pairs_of(shard) == 0 {
            continue;
        }
        add_route_rate(
            &mut demand,
            layout.forward_route(shard),
            plan.operand_words_per_cycle(),
        );
        add_route_rate(
            &mut demand,
            layout.return_route(shard),
            plan.egress_words_per_cycle(),
        );
    }
    budgets_from(&layout, spec, &demand)
}

/// Per-link budget of an `MvM` plan: x broadcast forward, y gather back.
pub fn mvm_link_budgets(plan: &MvmShardPlan, spec: &RingSpec) -> Vec<LinkBudget> {
    plan.validate();
    let layout = Layout::new(plan.shards, 1);
    let mut demand = vec![0.0; layout.links().len()];
    for shard in 0..plan.shards {
        add_route_rate(
            &mut demand,
            layout.forward_route(shard),
            plan.broadcast_words_per_cycle(),
        );
        add_route_rate(
            &mut demand,
            layout.return_route(shard),
            plan.gather_words_per_cycle(),
        );
    }
    budgets_from(&layout, spec, &demand)
}

/// The shipped MM scaling ladder. `quick` is the CI subset; the full
/// ladder adds the six-FPGA chassis and the two-chassis twelve-FPGA
/// point that anchors the §6.4.1 curve.
pub fn mm_plans(quick: bool) -> Vec<MmShardPlan> {
    let clock_mhz = ClockModel::default().xd1_mm(8).mhz();
    let (n, m, widths): (usize, usize, &[(usize, usize)]) = if quick {
        (128, 32, &[(1, 1), (2, 1), (4, 1)])
    } else {
        (384, 64, &[(1, 1), (2, 1), (4, 1), (6, 1), (12, 2)])
    };
    widths
        .iter()
        .map(|&(shards, chassis)| {
            let plan = MmShardPlan {
                n,
                k: 8,
                m,
                shards,
                chassis,
                clock_mhz,
            };
            plan.validate();
            plan
        })
        .collect()
}

/// The shipped `MvM` scaling ladders, one per orientation.
pub fn mvm_plans(quick: bool) -> Vec<MvmShardPlan> {
    let clock_mhz = ClockModel::default().xd1_l2().mhz();
    let widths: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 6] };
    let mut plans = Vec::new();
    for &(orientation, n_full, n_quick) in
        &[(Orientation::Row, 384, 192), (Orientation::Col, 384, 336)]
    {
        let n = if quick { n_quick } else { n_full };
        for &shards in widths {
            let plan = MvmShardPlan {
                orientation,
                n,
                k: 4,
                shards,
                clock_mhz,
            };
            plan.validate();
            plans.push(plan);
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm_pair_deal_is_balanced_on_shipped_plans() {
        for plan in mm_plans(false) {
            let total: usize = (0..plan.shards).map(|j| plan.pairs_of(j)).sum();
            assert_eq!(total, plan.pairs());
            let max = (0..plan.shards).map(|j| plan.pairs_of(j)).max().unwrap();
            let min = (0..plan.shards).map(|j| plan.pairs_of(j)).min().unwrap();
            // The full ladder is chosen to divide evenly at every
            // width — imbalance is what the efficiency gate measures,
            // so the shipped ladder keeps it at zero.
            assert_eq!(max, min, "unbalanced deal in {plan:?}");
        }
    }

    #[test]
    fn shipped_plans_fit_their_link_budgets() {
        let mm_clock = ClockModel::default().xd1_mm(8).mhz();
        let mvm_clock = ClockModel::default().xd1_l2().mhz();
        for plan in mm_plans(false).iter().chain(mm_plans(true).iter()) {
            for b in mm_link_budgets(plan, &RingSpec::xd1(mm_clock)) {
                assert!(
                    b.feasible(),
                    "{}: {} > {}",
                    b.link,
                    b.demand_words_per_cycle,
                    b.capacity_words_per_cycle
                );
            }
        }
        for plan in mvm_plans(false).iter().chain(mvm_plans(true).iter()) {
            for b in mvm_link_budgets(plan, &RingSpec::xd1(mvm_clock)) {
                assert!(b.feasible(), "{}", b.link);
            }
        }
    }

    #[test]
    fn starved_spec_trips_the_budget() {
        let plan = mm_plans(false).into_iter().last().unwrap();
        let spec = RingSpec {
            intra_words_per_cycle: 0.01,
            inter_words_per_cycle: 0.01,
            intra_latency_cycles: 1,
            inter_latency_cycles: 1,
            egress_capacity_words: 64,
        };
        assert!(mm_link_budgets(&plan, &spec).iter().any(|b| !b.feasible()));
    }

    #[test]
    fn chassis_trunk_carries_every_remote_flow() {
        let plan = mm_plans(false).into_iter().last().unwrap();
        assert_eq!((plan.shards, plan.chassis), (12, 2));
        let budgets = mm_link_budgets(&plan, &RingSpec::xd1(plan.clock_mhz));
        let trunk = budgets.iter().find(|b| b.link == "ra/c1").unwrap();
        // Six remote shards each stream 2k/m words/cycle.
        let expect = 6.0 * plan.operand_words_per_cycle();
        assert!((trunk.demand_words_per_cycle - expect).abs() < 1e-12);
        assert!(trunk.feasible());
    }

    #[test]
    fn infeasible_plans_panic_loudly() {
        let bad = MmShardPlan {
            n: 384,
            k: 8,
            m: 64,
            shards: 12,
            chassis: 1, // 12 FPGAs in one 6-slot chassis
            clock_mhz: 130.0,
        };
        assert!(std::panic::catch_unwind(|| bad.validate()).is_err());
        let bad_mvm = MvmShardPlan {
            orientation: Orientation::Row,
            n: 100,
            k: 4,
            shards: 3, // 3*4 does not divide 100
            clock_mhz: 164.0,
        };
        assert!(std::panic::catch_unwind(|| bad_mvm.validate()).is_err());
    }
}
