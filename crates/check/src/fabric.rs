//! Fabric-link-budget DRC and scaling-store gate rules.
//!
//! Two commitments from the multi-FPGA fabric are re-proved here
//! instead of trusted:
//!
//! * **Link budgets** — every shipped shard plan's steady-state traffic
//!   must fit inside the modeled RocketIO/RapidArray capacities on
//!   every hop it routes over. An oversubscribed hop means the schedule
//!   *cannot* sustain its claimed rate no matter what the simulation
//!   reports, so this is a DRC error before a single cycle runs.
//! * **Scaling-store soundness** — every `SCALE_<n>.json` row must stay
//!   at or below its §6.4 linear-scaling projection (a measured rate
//!   above the model claims super-linear scaling the installation
//!   cannot deliver — hard error), carry a one-FPGA baseline row to
//!   anchor the ladder, keep its derived speedup/efficiency arithmetic
//!   consistent with its own counters, and stay inside the committed
//!   per-kernel divergence tolerance (warning beyond it).

use fblas_fabric::{mm_link_budgets, mm_plans, mvm_link_budgets, mvm_plans, LinkBudget, RingSpec};
use fblas_metrics::{scale_tolerance, ScaleRecord, ScaleSet, SCALE_SOUNDNESS_EPS};

use crate::drc::{Diagnostic, Report, Severity};

fn diag(
    rule_id: &'static str,
    severity: Severity,
    message: String,
    quantities: Vec<(&'static str, f64)>,
) -> Diagnostic {
    Diagnostic {
        rule_id,
        severity,
        message,
        quantities,
    }
}

/// Budget diagnostics for one named plan's per-link rows.
fn budget_diagnostics(plan: &str, budgets: &[LinkBudget], out: &mut Vec<Diagnostic>) {
    for b in budgets {
        let margin = b.capacity_words_per_cycle - b.demand_words_per_cycle;
        if b.feasible() {
            out.push(diag(
                "fabric-link-budget",
                Severity::Info,
                format!(
                    "{plan}: {} carries {:.4} of {:.4} words/cycle ({:.4} margin)",
                    b.link, b.demand_words_per_cycle, b.capacity_words_per_cycle, margin
                ),
                vec![
                    ("demand_words_per_cycle", b.demand_words_per_cycle),
                    ("capacity_words_per_cycle", b.capacity_words_per_cycle),
                ],
            ));
        } else {
            out.push(diag(
                "fabric-link-budget",
                Severity::Error,
                format!(
                    "{plan}: {} oversubscribed — demand {:.4} words/cycle exceeds the \
                     modeled {:.4} capacity",
                    b.link, b.demand_words_per_cycle, b.capacity_words_per_cycle
                ),
                vec![
                    ("demand_words_per_cycle", b.demand_words_per_cycle),
                    ("capacity_words_per_cycle", b.capacity_words_per_cycle),
                ],
            ));
        }
    }
}

/// Prove every shipped shard plan (quick and full ladders, both
/// kernels) fits its per-link budget under `spec`.
///
/// Exposed with an explicit spec so the trip tests can demonstrate the
/// rule actually fires on a starved fabric; CI and `drc` use
/// [`fabric_link_budget_report`], which checks the real XD1 spec.
pub fn fabric_link_budget_report_with_spec(spec_of: impl Fn(f64) -> RingSpec) -> Report {
    let mut diagnostics = Vec::new();
    let mut seen_mm: Vec<(usize, usize)> = Vec::new();
    for plan in mm_plans(false).into_iter().chain(mm_plans(true)) {
        if seen_mm.contains(&(plan.shards, plan.chassis)) {
            continue;
        }
        seen_mm.push((plan.shards, plan.chassis));
        let name = format!("mm/linear s={} c={}", plan.shards, plan.chassis);
        budget_diagnostics(
            &name,
            &mm_link_budgets(&plan, &spec_of(plan.clock_mhz)),
            &mut diagnostics,
        );
    }
    let mut seen_mvm: Vec<(&str, usize)> = Vec::new();
    for plan in mvm_plans(false).into_iter().chain(mvm_plans(true)) {
        let key = (plan.orientation.kernel(), plan.shards);
        if seen_mvm.contains(&key) {
            continue;
        }
        seen_mvm.push(key);
        let name = format!("{} s={}", plan.orientation.kernel(), plan.shards);
        budget_diagnostics(
            &name,
            &mvm_link_budgets(&plan, &spec_of(plan.clock_mhz)),
            &mut diagnostics,
        );
    }
    Report {
        design: "fabric link budgets (shipped shard plans)".to_string(),
        diagnostics,
    }
}

/// [`fabric_link_budget_report_with_spec`] under the modeled XD1 links.
pub fn fabric_link_budget_report() -> Report {
    fabric_link_budget_report_with_spec(RingSpec::xd1)
}

#[allow(clippy::cast_precision_loss)]
fn check_scale_record(rec: &ScaleRecord, out: &mut Vec<Diagnostic>) {
    let cell = rec.cell();
    // Soundness: the model is an upper bound by construction.
    if rec.sustained_mflops > rec.modeled_mflops * (1.0 + SCALE_SOUNDNESS_EPS) {
        out.push(diag(
            "scale-soundness",
            Severity::Error,
            format!(
                "{cell}: measured {:.1} MFLOPS exceeds the §6.4 projection {:.1} — the \
                 simulation claims super-linear scaling",
                rec.sustained_mflops, rec.modeled_mflops
            ),
            vec![
                ("sustained_mflops", rec.sustained_mflops),
                ("modeled_mflops", rec.modeled_mflops),
            ],
        ));
    } else {
        out.push(diag(
            "scale-soundness",
            Severity::Info,
            format!(
                "{cell}: measured {:.1} <= modeled {:.1} MFLOPS",
                rec.sustained_mflops, rec.modeled_mflops
            ),
            vec![("sustained_mflops", rec.sustained_mflops)],
        ));
    }
    if !rec.within_bound && rec.sustained_mflops <= rec.modeled_mflops * (1.0 + SCALE_SOUNDNESS_EPS)
    {
        out.push(diag(
            "scale-consistency",
            Severity::Error,
            format!("{cell}: within_bound recorded false but the numbers satisfy the bound"),
            vec![],
        ));
    }
    // Divergence: how far short of the model the schedule falls.
    match scale_tolerance(&rec.kernel) {
        None => out.push(diag(
            "scale-divergence",
            Severity::Error,
            format!(
                "{cell}: kernel '{}' has no committed divergence tolerance",
                rec.kernel
            ),
            vec![],
        )),
        Some(tol) if rec.divergence > tol => out.push(diag(
            "scale-divergence",
            Severity::Warning,
            format!(
                "{cell}: measured rate diverges {:.1}% below the model (tolerance {:.0}%) — \
                 the fabric schedule and the §6.4 projection have drifted apart",
                rec.divergence * 100.0,
                tol * 100.0
            ),
            vec![("divergence", rec.divergence), ("tolerance", tol)],
        )),
        Some(tol) => out.push(diag(
            "scale-divergence",
            Severity::Info,
            format!(
                "{cell}: divergence {:.1}% within the {:.0}% tolerance",
                rec.divergence * 100.0,
                tol * 100.0
            ),
            vec![("divergence", rec.divergence)],
        )),
    }
    // Arithmetic consistency of the derived columns.
    if rec.cycles > 0 && rec.baseline_cycles > 0 {
        let speedup = rec.baseline_cycles as f64 / rec.cycles as f64;
        let efficiency = speedup / rec.shards as f64;
        if (speedup - rec.speedup).abs() > 1e-9 || (efficiency - rec.efficiency).abs() > 1e-9 {
            out.push(diag(
                "scale-consistency",
                Severity::Error,
                format!(
                    "{cell}: derived speedup/efficiency ({speedup:.6}/{efficiency:.6}) do not \
                     match the recorded {:.6}/{:.6}",
                    rec.speedup, rec.efficiency
                ),
                vec![("speedup", rec.speedup)],
            ));
        }
    }
    if rec.shards == 1 {
        if (rec.speedup - 1.0).abs() > 1e-12 || rec.baseline_cycles != rec.cycles {
            out.push(diag(
                "scale-consistency",
                Severity::Error,
                format!(
                    "{cell}: the one-FPGA row must be its own baseline (speedup {:.6}, \
                     baseline {} vs {} cycles)",
                    rec.speedup, rec.baseline_cycles, rec.cycles
                ),
                vec![],
            ));
        }
        if rec.stalls_starved + rec.stalls_backpressured + rec.link_words_forwarded > 0 {
            out.push(diag(
                "scale-consistency",
                Severity::Error,
                format!(
                    "{cell}: a one-FPGA fabric crossed no links, yet records {} stall \
                     cycles and {} forwarded words",
                    rec.stalls_starved + rec.stalls_backpressured,
                    rec.link_words_forwarded
                ),
                vec![],
            ));
        }
    }
}

/// Re-check a scaling store from first principles.
pub fn check_scale_set(set: &ScaleSet) -> Report {
    let mut diagnostics = Vec::new();
    let mut kernels: Vec<&str> = Vec::new();
    for rec in &set.records {
        if !kernels.contains(&rec.kernel.as_str()) {
            kernels.push(&rec.kernel);
        }
    }
    for kernel in &kernels {
        if set
            .records
            .iter()
            .any(|r| r.kernel == *kernel && r.shards == 1)
        {
            diagnostics.push(diag(
                "scale-baseline",
                Severity::Info,
                format!("{kernel}: one-FPGA baseline row present"),
                vec![],
            ));
        } else {
            diagnostics.push(diag(
                "scale-baseline",
                Severity::Error,
                format!("{kernel}: ladder has no one-FPGA baseline row to anchor speedup"),
                vec![],
            ));
        }
    }
    let mut seen: Vec<String> = Vec::new();
    for rec in &set.records {
        let cell = rec.cell();
        if seen.contains(&cell) {
            diagnostics.push(diag(
                "scale-consistency",
                Severity::Error,
                format!("duplicate cell identity '{cell}'"),
                vec![],
            ));
        }
        seen.push(cell);
        check_scale_record(rec, &mut diagnostics);
    }
    Report {
        design: format!("scale store ({} rows)", set.records.len()),
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sound_set() -> ScaleSet {
        let base = ScaleRecord {
            kernel: "mm/linear".to_string(),
            shards: 1,
            chassis: 1,
            n: 128,
            k: 8,
            m: 32,
            cycles: 1_000_000,
            flops: 4_194_304,
            words_in: 262_144,
            words_out: 16_384,
            busy_cycles: 524_288,
            stalls_starved: 0,
            stalls_backpressured: 0,
            link_words_forwarded: 0,
            link_congestion_cycles: 0,
            link_max_backlog_words: 0,
            clock_mhz: 130.0,
            sustained_mflops: 545.3,
            baseline_cycles: 1_000_000,
            speedup: 1.0,
            efficiency: 1.0,
            modeled_mflops: 545.3,
            divergence: 0.0,
            within_bound: true,
        };
        let mut wide = base.clone();
        wide.shards = 2;
        wide.cycles = 520_000;
        wide.link_words_forwarded = 131_072;
        wide.sustained_mflops = 1_048.6;
        wide.speedup = 1_000_000.0 / 520_000.0;
        wide.efficiency = wide.speedup / 2.0;
        wide.modeled_mflops = 1_090.6;
        wide.divergence = (wide.modeled_mflops - wide.sustained_mflops) / wide.modeled_mflops;
        let mut set = ScaleSet::new("unit-test");
        set.records = vec![base, wide];
        set
    }

    #[test]
    fn shipped_plans_pass_the_link_budget_rule() {
        let report = fabric_link_budget_report();
        assert_eq!(report.count(Severity::Error), 0, "{}", report.render(true));
        // Both fabrics and both planes appear in the sweep.
        let messages: Vec<&str> = report
            .rule("fabric-link-budget")
            .iter()
            .map(|d| d.message.as_str())
            .collect();
        assert!(messages.iter().any(|m| m.contains("ra/c1")));
        assert!(messages.iter().any(|m| m.contains("mvm/col")));
        assert!(messages.iter().any(|m| m.contains("/ret")));
    }

    #[test]
    fn starved_fabric_trips_the_link_budget_rule() {
        let report = fabric_link_budget_report_with_spec(|_clock| RingSpec {
            intra_words_per_cycle: 0.01,
            inter_words_per_cycle: 0.01,
            intra_latency_cycles: 1,
            inter_latency_cycles: 1,
            egress_capacity_words: 64,
        });
        assert!(
            report.count(Severity::Error) > 0,
            "a 0.01 words/cycle ring cannot feed any multi-shard plan"
        );
        assert!(report
            .rule("fabric-link-budget")
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("oversubscribed")));
    }

    #[test]
    fn sound_store_passes_every_scale_rule() {
        let report = check_scale_set(&sound_set());
        assert_eq!(report.count(Severity::Error), 0, "{}", report.render(true));
        assert!(!report.rule("scale-baseline").is_empty());
    }

    #[test]
    fn super_linear_claims_are_a_hard_error() {
        let mut set = sound_set();
        set.records[1].sustained_mflops = set.records[1].modeled_mflops * 1.01;
        let report = check_scale_set(&set);
        assert!(report
            .rule("scale-soundness")
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("super-linear")));
    }

    #[test]
    fn missing_baseline_is_detected() {
        let mut set = sound_set();
        set.records.remove(0);
        let report = check_scale_set(&set);
        assert!(report
            .rule("scale-baseline")
            .iter()
            .any(|d| d.severity == Severity::Error));
    }

    #[test]
    fn excess_divergence_is_a_warning_not_an_error() {
        let mut set = sound_set();
        set.records[1].sustained_mflops = set.records[1].modeled_mflops * 0.4;
        set.records[1].divergence = 0.6;
        // Keep the arithmetic columns consistent so only divergence fires.
        let report = check_scale_set(&set);
        assert_eq!(report.count(Severity::Error), 0, "{}", report.render(true));
        assert!(report
            .rule("scale-divergence")
            .iter()
            .any(|d| d.severity == Severity::Warning && d.message.contains("drifted")));
    }

    #[test]
    fn inconsistent_speedup_arithmetic_is_detected() {
        let mut set = sound_set();
        set.records[1].speedup = 3.0;
        let report = check_scale_set(&set);
        assert!(report
            .rule("scale-consistency")
            .iter()
            .any(|d| d.severity == Severity::Error));
    }

    #[test]
    fn phantom_traffic_on_the_baseline_row_is_detected() {
        let mut set = sound_set();
        set.records[0].link_words_forwarded = 5;
        let report = check_scale_set(&set);
        assert!(report
            .rule("scale-consistency")
            .iter()
            .any(|d| d.message.contains("crossed no links")));
    }

    #[test]
    fn unknown_kernels_need_a_tolerance_row() {
        let mut set = sound_set();
        set.records[0].kernel = "mystery/kernel".to_string();
        set.records[1].kernel = "mystery/kernel".to_string();
        let report = check_scale_set(&set);
        assert!(report
            .rule("scale-divergence")
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("no committed")));
    }
}
