//! Telemetry-metric-registry rule: every probe component id the
//! datapath designs emit must be declared in the central registry.
//!
//! [`fblas_telemetry::METRICS`] is the single source of truth for the
//! component ids that key every telemetry surface — windowed series,
//! Chrome counter tracks, the Prometheus snapshot (whose `# HELP` lines
//! come from the registry docstrings) and the JSONL event log. This rule
//! closes the loop statically: it scans the datapath source trees for
//! `.component("…")` call sites and proves both directions. An emitted
//! id the registry does not declare is undocumented telemetry
//! ([`Severity::Error`]); a registry entry no design emits any more is a
//! stale docstring ([`Severity::Error`]); a `.component(...)` call whose
//! argument is not a string literal cannot be audited at all and is also
//! an error. Matched sites are reported as [`Severity::Info`] carrying
//! the registry docstring, so the sweep shows live coverage; they name
//! the file and the id but no line, folded by [`crate::scan::fold_info`],
//! so moving a call site changes no output.
//!
//! The scan works on comment-/string-stripped source to locate call
//! sites (prose about `.component("x")` never fires), then re-reads the
//! *raw* line to recover the literal the stripper blanked out. It is the
//! matcher of the rule table's registry row
//! ([`crate::scan::METRIC_REGISTRY`]).

use crate::drc::{Diagnostic, Severity};
use crate::scan::fold_info;
use crate::source::SourceFile;
use fblas_telemetry::METRICS;

/// The source trees whose `.component(...)` calls the rule polices,
/// relative to the repo root. These are the shipped datapath designs;
/// test-only components (e.g. the probe unit tests' jitter feeds) live
/// under `tests/` and are deliberately outside the registry.
pub const POLICED_TREES: &[&str] = &["crates/core/src", "crates/fabric/src", "crates/sparse/src"];

/// One `.component(...)` call site found by the scanner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSite {
    /// Repo-root-relative path of the file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The literal id, or `None` when the argument is not a string
    /// literal on the same line (which the rule treats as an error).
    pub id: Option<String>,
}

/// Extract the first string literal after position `from` in a raw
/// source line, provided only whitespace precedes its opening quote.
fn literal_after(raw: &str, from: usize) -> Option<String> {
    let rest = raw.get(from..)?;
    let trimmed = rest.trim_start();
    let body = trimmed.strip_prefix('"')?;
    let end = body.find('"')?;
    Some(body[..end].to_string())
}

/// The `.component(...)` call sites in one file.
///
/// Call sites are located on the stripped source so comments and string
/// literals never fire; the id is then parsed out of the raw line, where
/// the literal still exists.
pub fn sites(file: &SourceFile) -> Vec<MetricSite> {
    let mut sites = Vec::new();
    for ((i, stripped_line), raw_line) in file.stripped.lines().enumerate().zip(file.raw.lines()) {
        let mut search = 0;
        while let Some(pos) = stripped_line[search..].find(".component(") {
            let open = search + pos + ".component(".len();
            sites.push(MetricSite {
                file: file.label.clone(),
                line: i + 1,
                id: literal_after(raw_line, open),
            });
            search = open;
        }
    }
    sites
}

/// The registry row's matcher: `files`' call sites against the shipped
/// [`fblas_telemetry::METRICS`].
pub fn check(files: &[&SourceFile]) -> Vec<Diagnostic> {
    let sites: Vec<MetricSite> = files.iter().flat_map(|f| sites(f)).collect();
    check_sites(&sites, METRICS)
}

/// Check scanned sites against a registry of `(id, docstring)` rows.
///
/// Exposed separately from [`check`] so tests can feed synthetic sites
/// and deliberately broken registries through the same logic.
pub fn check_sites(sites: &[MetricSite], registry: &[(&str, &str)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for site in sites {
        match &site.id {
            None => diags.push(Diagnostic {
                rule_id: "telemetry-metric-registry",
                severity: Severity::Error,
                message: format!(
                    "{}:{}: `.component(...)` id is not a string literal — the registry \
                     rule cannot audit a computed id; name the metric inline",
                    site.file, site.line
                ),
                quantities: vec![],
            }),
            Some(id) => match registry
                .binary_search_by(|(rid, _)| rid.cmp(&id.as_str()))
                .ok()
                .map(|at| registry[at].1)
            {
                Some(doc) => diags.push(Diagnostic {
                    rule_id: "telemetry-metric-registry",
                    severity: Severity::Info,
                    message: format!("{}: `{id}` — {doc}", site.file),
                    quantities: vec![],
                }),
                None => diags.push(Diagnostic {
                    rule_id: "telemetry-metric-registry",
                    severity: Severity::Error,
                    message: format!(
                        "{}:{}: emits metric id `{id}` that the central registry does not \
                         declare — add it to fblas_telemetry::METRICS with a docstring",
                        site.file, site.line
                    ),
                    quantities: vec![],
                }),
            },
        }
    }
    for (id, _) in registry {
        let emitted = sites.iter().any(|s| s.id.as_deref() == Some(id));
        if !emitted {
            diags.push(Diagnostic {
                rule_id: "telemetry-metric-registry",
                severity: Severity::Error,
                message: format!(
                    "registry declares `{id}` but no policed design emits it — stale \
                     entry; remove it or restore the component"
                ),
                quantities: vec![],
            });
        }
    }
    fold_info(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_source(label: &str, source: &str) -> Vec<MetricSite> {
        sites(&SourceFile::new(label, source))
    }

    fn site(id: Option<&str>) -> MetricSite {
        MetricSite {
            file: "crates/core/src/x.rs".to_string(),
            line: 1,
            id: id.map(str::to_string),
        }
    }

    #[test]
    fn literal_ids_are_extracted_from_raw_lines() {
        let src = "fn f(p: &mut Probe) { let c = p.component(\"dot/front-end\"); }";
        let sites = scan_source("crates/core/src/x.rs", src);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].id.as_deref(), Some("dot/front-end"));
        assert_eq!(sites[0].line, 1);
    }

    #[test]
    fn comments_and_strings_do_not_fire() {
        let src = "// a doc line about probe.component(\"ghost/id\")\n\
                   fn f() { let _ = \"probe.component(\\\"ghost/id\\\")\"; }";
        assert!(scan_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn non_literal_id_is_an_error() {
        let src = "fn f(p: &mut Probe, name: &str) { let c = p.component(name); }";
        let sites = scan_source("crates/core/src/x.rs", src);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].id, None);
        let diags = check_sites(&sites, METRICS);
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("not a string literal")));
    }

    #[test]
    fn undeclared_and_stale_ids_are_errors() {
        let registry: &[(&str, &str)] = &[("a/known", "a known metric"), ("b/stale", "never used")];
        let sites = [site(Some("a/known")), site(Some("c/undeclared"))];
        let diags = check_sites(&sites, registry);
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Info && d.message.contains("a/known")));
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("`c/undeclared`")));
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("`b/stale`")));
    }

    /// A registry hit names its file and id, not its line: a call site
    /// moved down a line reports the same Info.
    #[test]
    fn a_moved_call_site_reports_the_same_info() {
        let src = "fn f(p: &mut Probe) { p.component(\"dot/front-end\"); }";
        let info = |src: &str| {
            let diags = check_sites(&scan_source("crates/core/src/x.rs", src), METRICS);
            diags
                .into_iter()
                .filter(|d| d.severity == Severity::Info)
                .map(|d| d.message)
                .collect::<Vec<_>>()
        };
        let before = info(src);
        assert_eq!(before.len(), 1);
        assert!(before[0].starts_with("crates/core/src/x.rs: `dot/front-end` — "));
        assert_eq!(info(&format!("\n\n{src}")), before);
    }

    /// The live tree must pass: every emitted id declared, every
    /// declaration emitted, and every call site a string literal.
    #[test]
    fn shipped_tree_matches_registry_exactly() {
        crate::scan::assert_shipped_tree_passes(&crate::scan::METRIC_REGISTRY);
    }
}
