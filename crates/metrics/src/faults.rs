//! Fault-coverage records: the byte-deterministic output of an
//! `observatory faults` campaign.
//!
//! A [`FaultSet`] is to the reliability subsystem what
//! [`RecordSet`](crate::RecordSet) is to the performance observatory:
//! schema-versioned, insertion-ordered, free of timestamps and host
//! details, so the same seed produces byte-identical files at any worker
//! count — which is exactly what the CI campaign gate compares.
//!
//! The scoreboard renderer lives here too, with its own marker pair
//! ([`FAULT_SECTION_BEGIN`]/[`FAULT_SECTION_END`]) so the fault section
//! of `EXPERIMENTS.md` splices independently of the paper-parity section
//! (whose byte-exact golden test must not be disturbed).

use crate::artifact::{array, envelope, generator, open};
use crate::json::Json;
use crate::report::splice_between;

/// Schema version of fault-coverage documents (independent of the
/// performance-record schema).
pub const FAULT_SCHEMA_VERSION: u64 = 1;

/// Marker opening the generated fault section of `EXPERIMENTS.md`.
pub const FAULT_SECTION_BEGIN: &str = "<!-- observatory:faults:begin -->";
/// Marker closing the generated fault section of `EXPERIMENTS.md`.
pub const FAULT_SECTION_END: &str = "<!-- observatory:faults:end -->";

/// One classified campaign trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Kernel family, e.g. `"mvm/row"`.
    pub kernel: String,
    /// Fault kind name, e.g. `"pipeline-bit-flip"`.
    pub fault: String,
    /// Injection cycle armed on the harness.
    pub cycle: u64,
    /// Whether the design reported the fault as landed.
    pub landed: bool,
    /// Outcome name: `detected` / `silent-corruption` / `masked` / `hang`.
    pub outcome: String,
    /// Detector that fired (`abft`, `residual`, `invariant`, `watchdog`,
    /// `none`).
    pub detector: String,
    /// Whether replay restored the clean result bit-exactly.
    pub recovered: bool,
    /// Replay attempts consumed (0 when no response ran).
    pub recovery_attempts: u64,
    /// Total cycles charged to recovery (0 when no response ran).
    pub recovery_cycles: u64,
}

impl FaultRecord {
    /// Serialize with a fixed member order.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("kernel", Json::Str(self.kernel.clone()))
            .with("fault", Json::Str(self.fault.clone()))
            .with("cycle", Json::Num(self.cycle as f64))
            .with("landed", Json::Bool(self.landed))
            .with("outcome", Json::Str(self.outcome.clone()))
            .with("detector", Json::Str(self.detector.clone()))
            .with("recovered", Json::Bool(self.recovered))
            .with(
                "recovery_attempts",
                Json::Num(self.recovery_attempts as f64),
            )
            .with("recovery_cycles", Json::Num(self.recovery_cycles as f64))
    }

    /// Parse a record serialized by [`FaultRecord::to_json`].
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let str_field = |k: &str| -> Result<String, String> {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("fault record missing '{k}'"))
        };
        let u64_field = |k: &str| -> Result<u64, String> {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("fault record missing '{k}'"))
        };
        let bool_field = |k: &str| -> Result<bool, String> {
            doc.get(k)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("fault record missing '{k}'"))
        };
        Ok(Self {
            kernel: str_field("kernel")?,
            fault: str_field("fault")?,
            cycle: u64_field("cycle")?,
            landed: bool_field("landed")?,
            outcome: str_field("outcome")?,
            detector: str_field("detector")?,
            recovered: bool_field("recovered")?,
            recovery_attempts: u64_field("recovery_attempts")?,
            recovery_cycles: u64_field("recovery_cycles")?,
        })
    }
}

/// One graceful-degradation measurement (faulted PE dropped, kernel
/// re-scheduled on the smaller array).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedRecord {
    /// Kernel family.
    pub kernel: String,
    /// Healthy lane/PE count.
    pub healthy_k: u64,
    /// Lane/PE count after dropping the faulted unit.
    pub degraded_k: u64,
    /// Sustained MFLOPS of the healthy configuration.
    pub healthy_mflops: f64,
    /// Honest sustained MFLOPS after degradation.
    pub degraded_mflops: f64,
    /// Whether the degraded result still matches the oracle exactly.
    pub exact: bool,
}

impl DegradedRecord {
    /// Serialize with a fixed member order.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("kernel", Json::Str(self.kernel.clone()))
            .with("healthy_k", Json::Num(self.healthy_k as f64))
            .with("degraded_k", Json::Num(self.degraded_k as f64))
            .with("healthy_mflops", Json::Num(self.healthy_mflops))
            .with("degraded_mflops", Json::Num(self.degraded_mflops))
            .with("exact", Json::Bool(self.exact))
    }

    /// Parse a record serialized by [`DegradedRecord::to_json`].
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(Self {
            kernel: doc
                .get("kernel")
                .and_then(Json::as_str)
                .ok_or("degraded record missing 'kernel'")?
                .to_string(),
            healthy_k: doc
                .get("healthy_k")
                .and_then(Json::as_u64)
                .ok_or("degraded record missing 'healthy_k'")?,
            degraded_k: doc
                .get("degraded_k")
                .and_then(Json::as_u64)
                .ok_or("degraded record missing 'degraded_k'")?,
            healthy_mflops: doc
                .get("healthy_mflops")
                .and_then(Json::as_f64)
                .ok_or("degraded record missing 'healthy_mflops'")?,
            degraded_mflops: doc
                .get("degraded_mflops")
                .and_then(Json::as_f64)
                .ok_or("degraded record missing 'degraded_mflops'")?,
            exact: doc
                .get("exact")
                .and_then(Json::as_bool)
                .ok_or("degraded record missing 'exact'")?,
        })
    }
}

/// The full output of one fault campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSet {
    /// Tool that produced the set, e.g. `"observatory faults"`.
    pub generator: String,
    /// Campaign seed (the entire matrix derives from it).
    pub seed: u64,
    /// Classified trials, in matrix order.
    pub records: Vec<FaultRecord>,
    /// Graceful-degradation measurements.
    pub degraded: Vec<DegradedRecord>,
}

impl FaultSet {
    /// An empty set for `generator` and `seed`.
    pub fn new(generator: &str, seed: u64) -> Self {
        Self {
            generator: generator.to_string(),
            seed,
            records: Vec::new(),
            degraded: Vec::new(),
        }
    }

    /// Serialize to the canonical byte-deterministic JSON document.
    pub fn to_json_string(&self) -> String {
        envelope(FAULT_SCHEMA_VERSION, &self.generator)
            .with("seed", Json::Num(self.seed as f64))
            .with(
                "records",
                Json::Arr(self.records.iter().map(FaultRecord::to_json).collect()),
            )
            .with(
                "degraded",
                Json::Arr(self.degraded.iter().map(DegradedRecord::to_json).collect()),
            )
            .render()
    }

    /// Parse a document produced by [`FaultSet::to_json_string`],
    /// rejecting schema mismatches outright.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let doc = open(text, "faults", FAULT_SCHEMA_VERSION)?;
        Ok(Self {
            generator: generator(&doc)?,
            seed: doc
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("document missing 'seed'")?,
            records: array(&doc, "records")?
                .iter()
                .map(FaultRecord::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            degraded: array(&doc, "degraded")?
                .iter()
                .map(DegradedRecord::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }

    /// Silent corruptions among ABFT-covered kernels (`mvm/*`, `mm/*`) —
    /// the quantity the CI gate requires to be zero.
    pub fn covered_silent_corruptions(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| {
                (r.kernel.starts_with("mvm/") || r.kernel.starts_with("mm/"))
                    && r.outcome == "silent-corruption"
            })
            .count() as u64
    }
}

/// Per-kernel aggregate of a fault set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultCoverage {
    /// Kernel family.
    pub kernel: String,
    /// Total trials.
    pub trials: u64,
    /// Trials whose fault landed on occupied state.
    pub landed: u64,
    /// Outcome counts.
    pub detected: u64,
    /// Silent corruptions (must stay zero for ABFT-covered kernels).
    pub silent: u64,
    /// Architecturally masked trials.
    pub masked: u64,
    /// Watchdog trips.
    pub hung: u64,
    /// Trials whose replay recovered bit-exactly.
    pub recovered: u64,
    /// Sum of recovery cycles across recovered trials.
    pub recovery_cycles: u64,
}

impl FaultCoverage {
    /// Detection rate over corrupting faults, in permille (integer math,
    /// so the rendering is byte-deterministic). `None` when no fault
    /// corrupted anything.
    pub fn caught_permille(&self) -> Option<u64> {
        let corrupting = self.detected + self.silent;
        (corrupting > 0).then(|| self.detected * 1000 / corrupting)
    }

    /// Mean recovery cycles across recovered trials (integer division).
    pub fn mean_recovery_cycles(&self) -> Option<u64> {
        (self.recovered > 0).then(|| self.recovery_cycles / self.recovered)
    }
}

/// Aggregate records per kernel, in first-seen order.
pub fn coverage(records: &[FaultRecord]) -> Vec<FaultCoverage> {
    let mut out: Vec<FaultCoverage> = Vec::new();
    for r in records {
        let entry = match out.iter_mut().find(|c| c.kernel == r.kernel) {
            Some(entry) => entry,
            None => {
                out.push(FaultCoverage {
                    kernel: r.kernel.clone(),
                    ..FaultCoverage::default()
                });
                out.last_mut().expect("just pushed")
            }
        };
        entry.trials += 1;
        entry.landed += u64::from(r.landed);
        match r.outcome.as_str() {
            "detected" => entry.detected += 1,
            "silent-corruption" => entry.silent += 1,
            "masked" => entry.masked += 1,
            "hang" => entry.hung += 1,
            other => panic!("unknown outcome {other:?} in fault record"),
        }
        if r.recovered {
            entry.recovered += 1;
            entry.recovery_cycles += r.recovery_cycles;
        }
    }
    out
}

fn permille_percent(p: Option<u64>) -> String {
    p.map_or_else(|| "—".to_string(), |p| format!("{}.{}%", p / 10, p % 10))
}

/// Render the fault-coverage scoreboard as a markdown table.
pub fn render_fault_scoreboard(set: &FaultSet) -> String {
    let mut out = String::new();
    out.push_str("| kernel | trials | landed | detected | silent | masked | hang | caught | mean recovery |\n");
    out.push_str("|---|---|---|---|---|---|---|---|---|\n");
    for c in coverage(&set.records) {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            c.kernel,
            c.trials,
            c.landed,
            c.detected,
            if c.silent > 0 {
                format!("**{}**", c.silent)
            } else {
                "0".to_string()
            },
            c.masked,
            c.hung,
            permille_percent(c.caught_permille()),
            c.mean_recovery_cycles()
                .map_or_else(|| "—".to_string(), |cy| format!("{cy} cy")),
        ));
    }
    out
}

/// Render the graceful-degradation table.
pub fn render_degradation_table(set: &FaultSet) -> String {
    let mut out = String::new();
    if set.degraded.is_empty() {
        return out;
    }
    out.push_str(
        "| kernel | healthy k | degraded k | healthy MFLOPS | degraded MFLOPS | exact |\n",
    );
    out.push_str("|---|---|---|---|---|---|\n");
    for d in &set.degraded {
        out.push_str(&format!(
            "| {} | {} | {} | {:.1} | {:.1} | {} |\n",
            d.kernel,
            d.healthy_k,
            d.degraded_k,
            d.healthy_mflops,
            d.degraded_mflops,
            if d.exact { "yes" } else { "**no**" }
        ));
    }
    out
}

/// Build the full fault section (without the markers).
pub fn render_fault_section(set: &FaultSet) -> String {
    let mut out = String::new();
    out.push_str("## Observatory — fault-injection coverage\n\n");
    out.push_str(&format!(
        "Generated by `cargo run --release -p fblas-bench --bin observatory -- faults --seed {}`.\n\
         Do not edit between the markers; re-run the command instead.\n\n",
        set.seed
    ));
    out.push_str(&format!(
        "{} trials, seed {}. Outcome taxonomy: a fault is *detected* (ABFT checksum, \
         software residual gate, or a design invariant fired), *masked* \
         (bit-identical result — the fault hit a bubble, a dead bit, or only \
         perturbed timing), a *hang* (watchdog), or a **silent corruption**. \
         ABFT-covered kernels (`mvm/*`, `mm/*`) must show zero silent corruptions.\n\n",
        set.records.len(),
        set.seed
    ));
    out.push_str(&render_fault_scoreboard(set));
    if !set.degraded.is_empty() {
        out.push_str("\n### Graceful degradation (faulted PE dropped)\n\n");
        out.push_str(&render_degradation_table(set));
    }
    out
}

/// Splice the fault section into a document between the fault markers.
pub fn splice_fault_section(document: &str, section: &str) -> String {
    splice_between(document, FAULT_SECTION_BEGIN, FAULT_SECTION_END, section)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kernel: &str, outcome: &str, recovered: bool) -> FaultRecord {
        FaultRecord {
            kernel: kernel.to_string(),
            fault: "pipeline-bit-flip".to_string(),
            cycle: 17,
            landed: outcome != "masked",
            outcome: outcome.to_string(),
            detector: if outcome == "detected" {
                "abft"
            } else {
                "none"
            }
            .to_string(),
            recovered,
            recovery_attempts: u64::from(recovered),
            recovery_cycles: if recovered { 420 } else { 0 },
        }
    }

    fn sample() -> FaultSet {
        let mut set = FaultSet::new("observatory faults", 7);
        set.records.push(record("mvm/row", "detected", true));
        set.records.push(record("mvm/row", "masked", false));
        set.records.push(record("dot", "detected", true));
        set.degraded.push(DegradedRecord {
            kernel: "mvm/row".to_string(),
            healthy_k: 4,
            degraded_k: 2,
            healthy_mflops: 1200.0,
            degraded_mflops: 640.0,
            exact: true,
        });
        set
    }

    #[test]
    fn fault_set_round_trips() {
        let set = sample();
        let text = set.to_json_string();
        assert_eq!(FaultSet::from_json_str(&text).unwrap(), set);
    }

    #[test]
    fn serialization_is_byte_deterministic() {
        assert_eq!(sample().to_json_string(), sample().to_json_string());
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = sample().to_json_string().replacen(
            &format!("\"schema_version\": {FAULT_SCHEMA_VERSION}"),
            &format!("\"schema_version\": {}", FAULT_SCHEMA_VERSION + 9),
            1,
        );
        let err = FaultSet::from_json_str(&text).unwrap_err();
        assert!(err.contains("schema version mismatch"), "{err}");
    }

    #[test]
    fn coverage_groups_by_kernel_in_first_seen_order() {
        let set = sample();
        let cov = coverage(&set.records);
        assert_eq!(cov.len(), 2);
        assert_eq!(cov[0].kernel, "mvm/row");
        assert_eq!(cov[0].trials, 2);
        assert_eq!(cov[0].detected, 1);
        assert_eq!(cov[0].masked, 1);
        assert_eq!(cov[0].caught_permille(), Some(1000));
        assert_eq!(cov[0].mean_recovery_cycles(), Some(420));
        assert_eq!(cov[1].kernel, "dot");
    }

    #[test]
    fn covered_silent_corruptions_counts_only_abft_kernels() {
        let mut set = sample();
        assert_eq!(set.covered_silent_corruptions(), 0);
        set.records.push(record("dot", "silent-corruption", false));
        assert_eq!(set.covered_silent_corruptions(), 0, "dot is not covered");
        set.records
            .push(record("mm/linear", "silent-corruption", false));
        assert_eq!(set.covered_silent_corruptions(), 1);
    }

    #[test]
    fn golden_fault_scoreboard() {
        // Pins the exact rendering: a formatting change must update this.
        let text = render_fault_scoreboard(&sample());
        let expected = "\
| kernel | trials | landed | detected | silent | masked | hang | caught | mean recovery |
|---|---|---|---|---|---|---|---|---|
| mvm/row | 2 | 1 | 1 | 0 | 1 | 0 | 100.0% | 420 cy |
| dot | 1 | 1 | 1 | 0 | 0 | 0 | 100.0% | 420 cy |
";
        assert_eq!(text, expected);
    }

    #[test]
    fn fault_section_splices_independently_of_the_parity_section() {
        let doc = format!(
            "# head\n\n{}\nparity\n{}\n",
            crate::report::SECTION_BEGIN,
            crate::report::SECTION_END
        );
        let spliced = splice_fault_section(&doc, &render_fault_section(&sample()));
        assert!(spliced.contains("parity"), "parity section untouched");
        assert!(spliced.contains(FAULT_SECTION_BEGIN));
        assert!(spliced.contains("fault-injection coverage"));
        let again = splice_fault_section(&spliced, &render_fault_section(&sample()));
        assert_eq!(again, spliced, "splice is idempotent");
    }
}
