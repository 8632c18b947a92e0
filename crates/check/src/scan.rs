//! The source-rule table: six rules, one pass over the workspace.
//!
//! [`Workspace::load`] walks `crates/` once and prepares every `.rs`
//! file as a [`SourceFile`]. Each rule is then one row of [`RULES`]: a
//! rule id, a report name, the repo-relative roots it reads, and a
//! matcher. A row's roots select its files from the loaded workspace (in
//! root order, each root in walk order); a root that does not exist is an
//! [`io::ErrorKind::NotFound`] error, so `drc` and `lint` exit 2 instead
//! of passing vacuously.
//!
//! Rules that look for *sites* share one policy: an allowed site is
//! Info, any other site is an Error, and a tree with no allowed site at
//! all draws a "rule stale?" Warning, since an allowlist that matches
//! nothing means the code it vouched for moved without the rule.
//!
//! Info lines name a file and what was found, never a line, and repeats
//! fold into one line with a count ([`fold_info`]), so an edit that only
//! moves a sanctioned site leaves the report unchanged. Errors and
//! warnings keep their `file:line`.
//!
//! None of these rules duplicates a byte-equality or parity test; each
//! row's doc comment names the defect it catches that no such test does.

use std::io;
use std::path::{Path, PathBuf};

use crate::drc::{Diagnostic, Report, Severity};
use crate::source::{file_label, load, SourceFile};
use crate::{determinism, fastpath, lint, telemetry};

/// One finding of a site-based rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Label of the file it is in.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What matched, as the diagnostic quotes it.
    pub what: String,
    /// Whether the site is sanctioned (Info) rather than a violation.
    pub allowed: bool,
}

/// How a rule turns prepared files into diagnostics.
pub enum Check {
    /// Sites found file by file, worded by the shared site policy:
    /// `"{file}: {what}"` plus `allowed` (Info, folded by
    /// [`fold_info`]) or `"{file}:{line}: {what}"` plus `forbidden`
    /// (Error), and `stale` (Warning) if no site is allowed.
    Sites {
        /// The per-file matcher.
        find: fn(&SourceFile) -> Vec<Site>,
        /// Suffix of an allowed site's Info message.
        allowed: &'static str,
        /// Suffix of a forbidden site's Error message.
        forbidden: &'static str,
        /// The Warning when no allowed site is seen.
        stale: &'static str,
    },
    /// A check over the whole file set (claims tables, registries).
    Files(fn(&[&SourceFile]) -> Vec<Diagnostic>),
}

/// One row of the rule table.
pub struct Rule {
    /// Rule id every diagnostic carries.
    pub id: &'static str,
    /// Name of the rule's [`Report`].
    pub report: &'static str,
    /// Repo-relative directories or files the rule reads.
    pub roots: &'static [&'static str],
    /// Whether `drc` runs the rule (the softfloat lint has its own
    /// `lint` binary).
    pub drc: bool,
    /// The matcher.
    pub check: Check,
}

impl Rule {
    /// The rule's diagnostics over `files`.
    pub fn diagnose(&self, files: &[&SourceFile]) -> Vec<Diagnostic> {
        let (find, allowed, forbidden, stale) = match self.check {
            Check::Files(check) => return check(files),
            Check::Sites {
                find,
                allowed,
                forbidden,
                stale,
            } => (find, allowed, forbidden, stale),
        };
        let sites: Vec<Site> = files.iter().flat_map(|f| find(f)).collect();
        let mut diags = fold_info(
            sites
                .iter()
                .map(|site| {
                    if site.allowed {
                        let message = format!("{}: {}{allowed}", site.file, site.what);
                        self.diagnostic(Severity::Info, message)
                    } else {
                        let message =
                            format!("{}:{}: {}{forbidden}", site.file, site.line, site.what);
                        self.diagnostic(Severity::Error, message)
                    }
                })
                .collect(),
        );
        if !sites.iter().any(|s| s.allowed) {
            diags.push(self.diagnostic(Severity::Warning, stale.to_string()));
        }
        diags
    }

    fn diagnostic(&self, severity: Severity, message: String) -> Diagnostic {
        Diagnostic {
            rule_id: self.id,
            severity,
            message,
            quantities: vec![],
        }
    }
}

/// `diags` with each Info diagnostic folded into the first one of equal
/// message, which carries a `sites` count when more than one folded.
/// Other severities pass through in place.
pub(crate) fn fold_info(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut folded: Vec<(Diagnostic, u32)> = Vec::with_capacity(diags.len());
    for d in diags {
        let same = folded.iter_mut().find(|(f, _)| {
            d.severity == Severity::Info && f.severity == d.severity && f.message == d.message
        });
        match same {
            Some((_, count)) => *count += 1,
            None => folded.push((d, 1)),
        }
    }
    folded
        .into_iter()
        .map(|(mut d, count)| {
            if count > 1 {
                d.quantities.push(("sites", f64::from(count)));
            }
            d
        })
        .collect()
}

/// Softfloat purity ([`crate::lint`]). Catches a datapath value computed
/// with native `f64` arithmetic: on the committed data it is often
/// bit-equal to the softfloat result, so no byte-equality test notices.
pub const SOFTFLOAT_PURITY: Rule = Rule {
    id: "softfloat-purity",
    report: "softfloat purity",
    roots: lint::DATAPATH_PATHS,
    drc: false,
    check: Check::Files(lint::check),
};

/// Bench thread containment. Catches a thread created outside the
/// worker pool's ordered reducer: its nondeterminism fails CI's `cmp`
/// steps only when the scheduler happens to reorder.
pub const THREAD_CONTAINMENT: Rule = Rule {
    id: "bench-thread-containment",
    report: "bench thread containment",
    roots: &["crates/bench/src"],
    drc: true,
    check: Check::Sites {
        find: thread_sites,
        allowed: " inside the shared pool (allowed site)",
        forbidden: " outside the shared worker pool — bench code must schedule work \
                    through crates/bench/src/pool.rs so the ordered reducer keeps BENCH \
                    output deterministic",
        stale: "no thread-creation site found in the allowed module(s) \
                [\"crates/bench/src/pool.rs\"] — pool moved or rule stale?",
    },
};

/// Fault-hook purity. Catches a `.fault_*` mutation hook called outside
/// `fn inject`/`fn fault_*` bodies, `crates/faults` and tests — including
/// on paths no committed workload reaches, where no artifact diff can.
pub const HOOK_PURITY: Rule = Rule {
    id: "fault-hook-purity",
    report: "fault hook purity",
    roots: &["crates"],
    drc: true,
    check: Check::Sites {
        find: hook_sites,
        allowed: "hook call inside an inject/hook body (allowed site)",
        forbidden: "`.fault_*` hook call outside crates/faults and outside any \
                    `fn inject`/`fn fault_*` body — a production call here could \
                    perturb a clean (disarmed) run and corrupt the BENCH baselines",
        stale: "no `.fault_*` call found in any `fn inject` body — fault delivery \
                removed or rule stale?",
    },
};

/// Workspace determinism ([`crate::determinism`]). Catches wall-clock,
/// ambient-RNG and host-parallelism reads and hash-order iteration in
/// result-affecting code, which fail CI's `cmp` steps only by chance.
pub const DETERMINISM: Rule = Rule {
    id: "workspace-determinism",
    report: "workspace determinism",
    roots: determinism::DETERMINISM_ROOTS,
    drc: true,
    check: Check::Sites {
        find: determinism::sites,
        allowed: " at an allowlisted site",
        forbidden: " in result-affecting code — BENCH byte-determinism forbids ambient \
                    reads outside the allowlist (see DESIGN.md §12)",
        stale: "no allowlisted ambient read found — pool/sidecar moved or rule stale?",
    },
};

/// Fast-path parity coverage ([`crate::fastpath`]). Catches a
/// `fast_forward` override that no backend-parity test pins, which no
/// existing test can notice because the test is the thing missing.
pub const FAST_PATH_PARITY: Rule = Rule {
    id: "fast-path-parity",
    report: "fast-path parity coverage",
    roots: fastpath::FAST_PATH_ROOTS,
    drc: true,
    check: Check::Files(fastpath::check),
};

/// Telemetry metric registry ([`crate::telemetry`]). Catches a component
/// id emitted without a registry docstring, or a stale registry entry:
/// output bytes stay stable either way, only the documentation is wrong.
pub const METRIC_REGISTRY: Rule = Rule {
    id: "telemetry-metric-registry",
    report: "telemetry metric registry",
    roots: telemetry::POLICED_TREES,
    drc: true,
    check: Check::Files(telemetry::check),
};

/// Every source rule, in `drc` report order.
pub const RULES: &[Rule] = &[
    SOFTFLOAT_PURITY,
    THREAD_CONTAINMENT,
    HOOK_PURITY,
    DETERMINISM,
    FAST_PATH_PARITY,
    METRIC_REGISTRY,
];

/// Thread-creation constructs, matched on squeezed stripped lines so
/// `std::thread::spawn`, `thread::spawn` and `thread :: spawn` all hit.
const THREAD_PATTERNS: &[&str] = &["thread::spawn", "thread::scope", "thread::Builder"];

pub(crate) fn thread_sites(file: &SourceFile) -> Vec<Site> {
    let allowed = file.label == "crates/bench/src/pool.rs";
    let mut sites = Vec::new();
    for (i, squeezed) in file.squeezed.iter().enumerate() {
        for pattern in THREAD_PATTERNS {
            if squeezed.contains(pattern) {
                sites.push(Site {
                    file: file.label.clone(),
                    line: i + 1,
                    what: format!("`{pattern}`"),
                    allowed,
                });
            }
        }
    }
    sites
}

/// One site per line holding a `.fault_*` call other than the read-only
/// `.fault_log(` query. `crates/faults`, `tests/` trees and
/// `#[cfg(test)]` items yield none; a call inside a `fn inject` or
/// `fn fault_*` item (hook delegation) is allowed.
pub(crate) fn hook_sites(file: &SourceFile) -> Vec<Site> {
    if file.label.starts_with("crates/faults/") || file.label.contains("/tests/") {
        return Vec::new();
    }
    let hook_bodies = file.item_lines(|toks, i| {
        let opens = toks[i].text == "fn"
            && toks
                .get(i + 1)
                .is_some_and(|t| t.text == "inject" || t.text.starts_with("fault_"));
        opens.then_some(i)
    });
    let mut sites = Vec::new();
    for (i, squeezed) in file.squeezed.iter().enumerate() {
        if squeezed.contains(".fault_") && !squeezed.contains(".fault_log(") && !file.in_test(i + 1)
        {
            sites.push(Site {
                file: file.label.clone(),
                line: i + 1,
                what: String::new(),
                allowed: hook_bodies[i],
            });
        }
    }
    sites
}

/// Every `.rs` file under a repository's `crates/`, each read once.
pub struct Workspace {
    root: PathBuf,
    files: Vec<SourceFile>,
}

impl Workspace {
    /// Load the repository at `repo_root`, labelling files repo-relative.
    pub fn load(repo_root: &Path) -> io::Result<Self> {
        Ok(Workspace {
            root: repo_root.to_path_buf(),
            files: load(&[repo_root.join("crates")], |p| file_label(p, repo_root))?,
        })
    }

    /// The files `rule` reads, root by root. A missing root is a
    /// [`io::ErrorKind::NotFound`] error.
    pub fn files(&self, rule: &Rule) -> io::Result<Vec<&SourceFile>> {
        let mut files = Vec::new();
        for root in rule.roots {
            if !self.root.join(root).exists() {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("policed source path {root} not found"),
                ));
            }
            files.extend(self.files.iter().filter(|f| {
                f.label
                    .strip_prefix(root)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
            }));
        }
        Ok(files)
    }

    /// `rule`'s report over this workspace.
    pub fn report(&self, rule: &Rule) -> io::Result<Report> {
        Ok(Report {
            design: rule.report.to_string(),
            diagnostics: rule.diagnose(&self.files(rule)?),
        })
    }
}

/// Asserts the live tree passes `rule`: no errors, no stale-rule
/// warnings, and at least the row's minimum number of Info sites, so
/// the row still sees the live sites it vouches for.
#[cfg(test)]
pub(crate) fn assert_shipped_tree_passes(rule: &Rule) {
    let workspace = Workspace::load(&crate::source::repo_root()).expect("load");
    let report = workspace.report(rule).expect("scan");
    assert!(report.is_feasible(), "{}", report.render(true));
    assert_eq!(report.count(Severity::Warning), 0, "{}", rule.id);
    let min_info = match rule.id {
        "softfloat-purity" => 0,
        // One Info per registry row at minimum — full cover.
        "telemetry-metric-registry" => fblas_telemetry::METRICS.len(),
        _ => 1,
    };
    assert!(report.count(Severity::Info) >= min_info, "{}", rule.id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::repo_root;

    fn diagnose(rule: &Rule, label: &str, src: &str) -> Vec<Diagnostic> {
        rule.diagnose(&[&SourceFile::new(label, src)])
    }

    fn errors_at(diags: &[Diagnostic], at: &str) -> bool {
        diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains(at))
    }

    /// Every row, including one added later, passes the live tree.
    #[test]
    fn shipped_tree_passes_every_rule() {
        for rule in RULES {
            assert_shipped_tree_passes(rule);
        }
    }

    #[test]
    fn a_missing_root_is_not_found() {
        let workspace = Workspace::load(&repo_root()).expect("load");
        let rule = Rule {
            roots: &["crates/no-such-crate/src"],
            ..THREAD_CONTAINMENT
        };
        let err = workspace.report(&rule).expect_err("missing root");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    /// `#[cfg(test)]` on a brace-less item covers that item only: the
    /// next production item's hook call is still forbidden.
    #[test]
    fn cfg_test_use_does_not_exempt_the_next_hook_call() {
        let src = "#[cfg(test)]\nuse super::helper;\n\
                   fn f(x: &mut X) {\n    x.fifo.fault_mutate(0, |v| *v = 0.0);\n}\n";
        let diags = diagnose(&HOOK_PURITY, "crates/core/src/x.rs", src);
        assert!(errors_at(&diags, "x.rs:4"), "{diags:?}");
    }

    /// The same shape for the determinism row: the wall-clock read after
    /// a test-only `use` is an error.
    #[test]
    fn cfg_test_use_does_not_exempt_the_next_clock_read() {
        let src = "#[cfg(test)]\nuse super::helper;\n\
                   fn f() { let t = Instant::now(); }\n";
        let diags = diagnose(&DETERMINISM, "crates/sim/src/x.rs", src);
        assert!(errors_at(&diags, "x.rs:3: `Instant::now`"), "{diags:?}");
    }

    /// Moving allowed sites down a line leaves their Info output
    /// unchanged (repeats fold into one counted line), while an error
    /// still names its line.
    #[test]
    fn info_output_is_stable_when_a_site_moves_and_errors_keep_their_line() {
        let src = "fn f() {\n    thread::scope(|_| {});\n    thread::scope(|_| {});\n}\n";
        let moved = format!("\n{src}");
        let render = |label: &str, src: &str| -> Vec<String> {
            let diags = diagnose(&THREAD_CONTAINMENT, label, src);
            diags.iter().map(ToString::to_string).collect()
        };
        let pool = "crates/bench/src/pool.rs";
        assert_eq!(render(pool, src), render(pool, &moved));
        assert_eq!(
            render(pool, src),
            [
                "info    [bench-thread-containment] crates/bench/src/pool.rs: `thread::scope` \
              inside the shared pool (allowed site) (sites=2)"
            ]
        );
        let diags = diagnose(&THREAD_CONTAINMENT, "crates/bench/src/x.rs", &moved);
        assert!(errors_at(&diags, "x.rs:3: `thread::scope`"), "{diags:?}");
        assert!(errors_at(&diags, "x.rs:4: `thread::scope`"), "{diags:?}");
    }

    /// A hook-trait declaration without a body sanctions nothing after it.
    #[test]
    fn a_bodiless_hook_declaration_sanctions_nothing() {
        let src = "trait T {\n    fn inject(&mut self) -> bool;\n}\n\
                   fn f(x: &mut X) {\n    x.fifo.fault_mutate(0, |v| *v = 0.0);\n}\n";
        let sites = hook_sites(&SourceFile::new("crates/core/src/x.rs", src));
        assert_eq!(sites.len(), 1);
        assert!(!sites[0].allowed);
    }
}
