//! Static analysis for the FPGA BLAS workspace.
//!
//! Model rules, run on design points, topologies and committed stores:
//!
//! * [`drc`] — the **design-rule checker**: proves the paper's
//!   feasibility bounds (area, BRAM, SRAM, bandwidth, hazard and schedule
//!   legality) for a design point *before* any cycle is simulated, and
//!   computes cycle-count lower bounds the simulation must not beat.
//! * [`parity`] — **paper-parity coverage**: every row of the shared
//!   [`fblas_metrics::PAPER_TOLERANCES`] table is carried by exactly one
//!   record of the committed BENCH set, and no record carries a stale id.
//! * [`graph`] — the **channel-graph analyzer** over the
//!   [`fblas_sim::Topology`] each design exports: deadlock-freedom
//!   proofs, throughput bounds cross-validated against the committed
//!   BENCH records, and composed-bandwidth checks.
//! * [`serve`] — **serving-store conservation** over committed
//!   `SERVE_*.json` cells.
//! * [`fabric`] — **fabric link budgets** for every shipped multi-FPGA
//!   plan and §6.4 scaling rules over committed `SCALE_*.json` rows.
//!
//! Source rules, one row each in the [`scan::RULES`] table. [`source`]
//! reads and prepares every file once; [`scan::Workspace`] runs the rows:
//!
//! | row | rule id | matcher | reads |
//! |---|---|---|---|
//! | [`scan::HOOK_PURITY`] | `fault-hook-purity` | [`scan`] | `crates` |
//! | [`scan::FAST_PATH_PARITY`] | `fast-path-parity` | [`fastpath`] | core, sparse and fabric sources, parity suite |
//! | [`scan::METRIC_REGISTRY`] | `telemetry-metric-registry` | [`telemetry`] | datapath designs |
//!
//! Rules that need types are compiler lints, run by CI's clippy step
//! (`cargo clippy --workspace --all-targets -- -D warnings`):
//!
//! | policy | lint | where |
//! |---|---|---|
//! | softfloat purity | `clippy::float_arithmetic` | roots of `fblas-core`, `fblas-mem`, `fblas-fabric`; `fblas-fpu`'s `pipelined.rs` |
//! | workspace determinism | `clippy::disallowed_methods`/`disallowed_types` (root `clippy.toml`) | every crate |
//! | thread containment | `clippy::disallowed_methods` (root `clippy.toml`) | every crate |
//!
//! A sanctioned site carries a fn- or statement-scoped
//! `#[expect(<lint>, reason = "…")]` naming its role (accounting, oracle,
//! host timing, worker pool); an expect that stops matching fails the
//! same step. `tests/lint_policy.rs` fails if the policy is removed.
//!
//! All are libraries (used by the test suite) and run through the `drc`
//! binary, which CI runs.

#![forbid(unsafe_code)]

pub mod drc;
pub mod fabric;
pub mod fastpath;
pub mod graph;
pub mod parity;
pub mod scan;
pub mod serve;
pub mod source;
pub mod telemetry;

pub use drc::{
    check, infeasible_k10_with_rt_core, min_cycles, shipped_design_points, DesignPoint, Diagnostic,
    Kernel, Platform, Report, Severity,
};
pub use fabric::{check_scale_set, fabric_link_budget_report, fabric_link_budget_report_with_spec};
pub use graph::{
    analyze_topology, cross_validate, shipped_topologies, topology_report, CycleProof,
    ThroughputBound,
};
pub use parity::coverage_report;
pub use scan::{Rule, Workspace, RULES};
pub use serve::check_serve_set;
pub use source::SourceFile;

/// Tests of the fault-hook purity row, [`scan::HOOK_PURITY`].
#[cfg(test)]
mod hooks {
    mod tests {
        use crate::scan::{assert_shipped_tree_passes, hook_sites, HOOK_PURITY};
        use crate::{Severity, SourceFile};

        #[test]
        fn inject_body_is_allowed_free_call_is_not() {
            let src = "impl Design for Run {\n\
                       fn inject(&mut self, spec: &FaultSpec) -> bool {\n\
                       self.fifo.fault_mutate(0, |v| *v = 0.0)\n\
                       }\n\
                       }\n\
                       fn main() { run.fifo.fault_mutate(0, |v| *v = 0.0); }\n";
            let file = SourceFile::new("crates/core/src/x.rs", src);
            let sites = hook_sites(&file);
            assert_eq!(sites.len(), 2, "{sites:?}");
            assert!(sites[0].allowed && !sites[1].allowed, "{sites:?}");
            assert!(HOOK_PURITY
                .diagnose(&[&file])
                .iter()
                .any(|d| d.severity == Severity::Error && d.message.contains("x.rs:6")));
        }

        #[test]
        fn hook_bodies_may_delegate_to_deeper_hooks() {
            let src = "pub fn fault_flip_in_flight(&mut self, stage: usize, bit: u32) -> bool {\n\
                       self.pipe.fault_mutate(stage, |t| t.v = flip(t.v, bit))\n\
                       }\n";
            let sites = hook_sites(&SourceFile::new("crates/fpu/src/x.rs", src));
            assert_eq!(sites.len(), 1);
            assert!(sites[0].allowed);
        }

        /// Exempt code yields no sites at all, so it can draw no Error.
        #[test]
        fn test_code_and_the_faults_crate_are_exempt() {
            for (label, src) in [
                (
                    "crates/sim/src/fifo.rs",
                    "#[cfg(test)]\nmod tests {\n fn t() { f.fault_mutate(0, id); } \n}\n",
                ),
                (
                    "crates/fpu/tests/masks.rs",
                    "fn t() { a.fault_flip_in_flight(1, 2); }",
                ),
                (
                    "crates/faults/src/x.rs",
                    "fn f() { a.fault_mutate(0, id); }",
                ),
            ] {
                assert!(
                    hook_sites(&SourceFile::new(label, src)).is_empty(),
                    "{label}"
                );
            }
        }

        #[test]
        fn read_only_fault_log_and_prose_do_not_fire() {
            let src = "// .fault_mutate is forbidden\n\
                       fn f() { let n = h.fault_log().unwrap(); let s = \".fault_mutate(\"; }\n";
            assert!(hook_sites(&SourceFile::new("crates/bench/src/x.rs", src)).is_empty());
        }

        #[test]
        fn missing_inject_sites_is_a_warning() {
            assert!(HOOK_PURITY
                .diagnose(&[])
                .iter()
                .any(|d| d.severity == Severity::Warning && d.message.contains("rule stale")));
        }

        /// The live tree must pass: every hook call sits in an inject/hook
        /// body, a test, or the faults crate — and the inject wiring exists.
        #[test]
        fn shipped_workspace_is_pure() {
            assert_shipped_tree_passes(&HOOK_PURITY);
        }
    }
}
