//! `drc` — run every static analysis the workspace ships:
//!
//! * the design-rule checker over every shipped configuration;
//! * the paper-parity coverage rule (every row of the shared tolerance
//!   table carried by exactly one committed BENCH record);
//! * the source rules of `fblas_check::RULES` (fault-hook purity,
//!   fast-path parity coverage, the telemetry metric registry), in one
//!   pass that reads each file under `crates/` once (softfloat purity,
//!   determinism and thread containment are clippy lints, see the root
//!   `clippy.toml`);
//! * the channel-graph analyses (deadlock-freedom proofs, throughput
//!   bounds, composed-bandwidth budgets) over every shipped topology;
//! * the fabric-link-budget rule (steady-state demand vs. link rate)
//!   over every multi-FPGA plan the scaling campaign ships;
//! * the BENCH cross-validation (measured rate vs. static bound).
//!
//! The parity-coverage rule and the cross-validation both read the
//! committed `BENCH_0001.json`, loaded once.
//!
//! Flags:
//!
//! * `--verbose` / `-v` — also print the Info diagnostics (satisfied
//!   bounds and their margins).
//! * `--format text|json` — output format (default `text`). The JSON
//!   document is `{schema_version, reports: [...], errors, warnings}`
//!   with one entry per report in run order, each carrying its full
//!   diagnostic list; byte-deterministic for a given tree.
//! * `--infeasible-fixture` — instead check the §6.2 counter-example
//!   (k = 10 PEs next to the XD1 RT core) and exit non-zero with its
//!   `§6.2-area` diagnostic, demonstrating what a violation looks like.
//!
//! Exit status (stable contract, relied on by CI):
//!
//! * `0` — every analysis ran and found zero errors;
//! * `1` — the analyses ran and at least one reported an error;
//! * `2` — usage error or an analysis could not run (unreadable tree,
//!   missing BENCH file).

use fblas_check::drc::{check, infeasible_k10_with_rt_core, shipped_design_points};
use fblas_check::fabric::fabric_link_budget_report;
use fblas_check::graph::{cross_validate, topology_report};
use fblas_check::parity::coverage_report;
use fblas_check::source::repo_root;
use fblas_check::{Report, Severity, Workspace, RULES};
use fblas_metrics::{artifact, Json, RecordSet};

fn usage_exit() -> ! {
    eprintln!("usage: drc [--verbose|-v] [--format text|json] [--infeasible-fixture]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut verbose = false;
    let mut json = false;
    let mut fixture = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--verbose" | "-v" => verbose = true,
            "--infeasible-fixture" => fixture = true,
            "--format" => match it.next().map(String::as_str) {
                Some("text") => json = false,
                Some("json") => json = true,
                other => {
                    eprintln!("drc: --format takes `text` or `json`, got {other:?}");
                    usage_exit();
                }
            },
            unknown => {
                eprintln!("drc: unknown argument `{unknown}`");
                usage_exit();
            }
        }
    }

    let points = if fixture {
        vec![infeasible_k10_with_rt_core()]
    } else {
        shipped_design_points()
    };

    let root = repo_root();
    let bench = match artifact::load(&root.join("BENCH_0001.json"), RecordSet::from_json_str) {
        Ok(bench) => bench,
        Err(e) => {
            eprintln!("drc: cannot load the committed BENCH records: {e}");
            std::process::exit(2);
        }
    };
    let mut reports: Vec<Report> = points.iter().map(check).collect();
    reports.push(coverage_report(&bench));
    let scanned = Workspace::load(&root).and_then(|workspace| {
        RULES
            .iter()
            .map(|rule| workspace.report(rule))
            .collect::<std::io::Result<Vec<Report>>>()
    });
    match scanned {
        Ok(scanned) => reports.extend(scanned),
        Err(e) => {
            eprintln!("drc: cannot scan workspace sources: {e}");
            std::process::exit(2);
        }
    }
    reports.extend(topology_report());
    reports.push(fabric_link_budget_report());
    reports.push(cross_validate(&bench));

    let errors: usize = reports.iter().map(|r| r.count(Severity::Error)).sum();
    let warnings: usize = reports.iter().map(|r| r.count(Severity::Warning)).sum();
    if json {
        let doc = Json::obj()
            .with("schema_version", Json::Num(1.0))
            .with(
                "reports",
                Json::Arr(reports.iter().map(Report::to_json).collect()),
            )
            .with("errors", Json::Num(errors as f64))
            .with("warnings", Json::Num(warnings as f64));
        println!("{}", doc.render());
    } else {
        for report in &reports {
            print!("{}", report.render(verbose));
        }
        println!("checked {} report(s), {} error(s)", reports.len(), errors);
    }
    if errors > 0 {
        std::process::exit(1);
    }
}
