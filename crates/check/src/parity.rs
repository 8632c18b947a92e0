//! Paper-parity coverage: every row of the shared tolerance table must be
//! carried by exactly one record of the committed BENCH set, and every
//! paper entry a record carries must name a row of the table.
//!
//! [`fblas_metrics::PAPER_TOLERANCES`] is the single source of truth for
//! the paper's headline numbers; `observatory run`/`diff` gate fresh
//! measurements against it. This module closes the loop over the
//! committed `BENCH_0001.json` that CI diffs every fresh run against:
//! [`coverage_report`] proves the records and the table agree — a row no
//! record carries, an id two records carry, or an id the table does not
//! know is a [`Severity::Error`]. `observatory diff BENCH_0001.json`
//! already fails when the live matrix stops measuring a figure the
//! baseline carries, so the two checks together keep the live matrix
//! covered without a second, hand-kept list of figures. The `drc` binary
//! appends this report to its sweep.

use std::collections::BTreeMap;

use crate::drc::{Diagnostic, Report, Severity};
use fblas_metrics::{lookup, RecordSet, PAPER_TOLERANCES};

/// The parity-coverage report of one BENCH record set.
pub fn coverage_report(set: &RecordSet) -> Report {
    let mut carriers: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for record in &set.records {
        for parity in &record.paper {
            carriers
                .entry(parity.figure_id.as_str())
                .or_default()
                .push(record.key());
        }
    }

    let mut diagnostics = Vec::new();
    for (id, keys) in &carriers {
        let (severity, message, quantities) = match (lookup(id), keys.as_slice()) {
            (None, _) => (
                Severity::Error,
                format!(
                    "{} carries `{id}` but the shared tolerance table has no such row — \
                     stale or renamed id",
                    keys.join(", ")
                ),
                vec![],
            ),
            (Some(t), [key]) => (
                Severity::Info,
                format!("{key} carries {id}: {} {}", t.paper, t.unit),
                vec![("paper", t.paper), ("tol_frac", t.tol_frac)],
            ),
            (Some(t), _) => (
                Severity::Error,
                format!(
                    "`{id}` is carried by {} records ({}) — each paper figure must come \
                     from exactly one record",
                    keys.len(),
                    keys.join(", ")
                ),
                vec![("paper", t.paper), ("tol_frac", t.tol_frac)],
            ),
        };
        diagnostics.push(Diagnostic {
            rule_id: "parity-coverage",
            severity,
            message,
            quantities,
        });
    }

    for t in PAPER_TOLERANCES {
        if !carriers.contains_key(t.id) {
            diagnostics.push(Diagnostic {
                rule_id: "parity-coverage",
                severity: Severity::Error,
                message: format!(
                    "tolerance `{}` ({}) is in the shared table but no {} record \
                     carries it — the paper figure would go unchecked",
                    t.id, t.description, set.generator
                ),
                quantities: vec![("paper", t.paper), ("tol_frac", t.tol_frac)],
            });
        }
    }

    Report {
        design: format!("paper-parity coverage ({})", set.generator),
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::repo_root;
    use fblas_metrics::{artifact, PaperParity};

    fn committed_bench() -> RecordSet {
        artifact::load(
            &repo_root().join("BENCH_0001.json"),
            RecordSet::from_json_str,
        )
        .expect("committed BENCH_0001.json loads")
    }

    fn errors(report: &Report) -> Vec<&str> {
        report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.message.as_str())
            .collect()
    }

    /// The record carrying `id` in `set`, as an index into its records.
    fn carrier(set: &RecordSet, id: &str) -> usize {
        set.records
            .iter()
            .position(|r| r.paper.iter().any(|p| p.figure_id == id))
            .unwrap_or_else(|| panic!("no record carries {id}"))
    }

    #[test]
    fn shipped_claims_cover_the_whole_table() {
        let report = coverage_report(&committed_bench());
        assert!(
            report.is_feasible(),
            "parity coverage has errors:\n{}",
            report.render(true)
        );
        // One Info diagnostic per table row — full, non-overlapping cover.
        assert_eq!(report.count(Severity::Info), PAPER_TOLERANCES.len());
    }

    #[test]
    fn unclaimed_tolerance_is_an_error() {
        let mut set = committed_bench();
        let i = carrier(&set, "fig9.clock.k1");
        set.records[i]
            .paper
            .retain(|p| p.figure_id != "fig9.clock.k1");
        let report = coverage_report(&set);
        assert_eq!(
            errors(&report),
            [
                "tolerance `fig9.clock.k1` (MM design clock at k = 1) is in the shared table \
                 but no observatory record carries it — the paper figure would go unchecked"
            ]
        );
        assert_eq!(report.count(Severity::Info), PAPER_TOLERANCES.len() - 1);

        // An empty set leaves every row uncarried.
        let empty = coverage_report(&RecordSet::new("empty"));
        assert_eq!(errors(&empty).len(), PAPER_TOLERANCES.len());
    }

    #[test]
    fn duplicated_claim_is_an_error() {
        let mut set = committed_bench();
        let i = carrier(&set, "table3.dot.mflops");
        let j = carrier(&set, "table3.mvm.mflops");
        assert_ne!(i, j);
        set.records[j].paper.push(PaperParity {
            figure_id: "table3.dot.mflops".to_string(),
            measured: 557.0,
        });
        let report = coverage_report(&set);
        let errs = errors(&report);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(
            errs[0].starts_with("`table3.dot.mflops` is carried by 2 records"),
            "{}",
            errs[0]
        );
    }

    #[test]
    fn stale_claim_is_an_error() {
        let mut set = committed_bench();
        let i = carrier(&set, "fig12.best.gflops");
        for p in &mut set.records[i].paper {
            if p.figure_id == "fig12.best.gflops" {
                p.figure_id = "no.such.figure".to_string();
            }
        }
        let report = coverage_report(&set);
        let errs = errors(&report);
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0].contains("carries `no.such.figure` but the shared tolerance table"));
        assert!(errs[1].starts_with("tolerance `fig12.best.gflops`"));
    }
}
