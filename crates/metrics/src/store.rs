//! The BENCH record set and its wall-clock sidecar.
//!
//! A [`RecordSet`] is what one observatory (or bench-binary `--json`) run
//! emits: the schema version, the generator name and the records, in run
//! order — a [`Store`] of [`RunRecord`]s. Sets serialize
//! deterministically, so re-running an unchanged tree produces
//! byte-identical files; the volatile simulator-throughput numbers ride
//! in a separate [`WallClock`] sidecar instead.
//!
//! Committed runs live at the repository root as `BENCH_0001.json`,
//! `BENCH_0002.json`, … (the [`artifact`] trajectory convention with
//! prefix [`BENCH`](crate::artifact::BENCH)).

use crate::artifact::{self, Store};
use crate::json::Json;
use crate::record::{RunRecord, SCHEMA_VERSION};

/// An ordered collection of records from one run.
pub type RecordSet = Store<RunRecord>;

/// One simulated run's volatile throughput measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct WallClockEntry {
    /// Record identity key, e.g. `dot[k=2,n=2048]`.
    pub key: String,
    /// Simulated cycles the record accounts for.
    pub cycles: u64,
    /// Cycles the harness stepped one `Design::cycle` at a time — the
    /// remainder were fast-forwarded through a fused replay. Equal to
    /// `cycles` on the cycle backend; the per-run cycle-compression
    /// ratio is `cycles / stepped_cycles`.
    pub stepped_cycles: u64,
    /// Host wall seconds the run took.
    pub seconds: f64,
}

/// Volatile per-run simulator-throughput measurements, kept out of the
/// deterministic record set. One entry per record: the key, the host
/// seconds its job took and the rate at which the harness retired
/// simulated cycles (modeled records count no cycles).
///
/// Since the matrix can run on a worker pool, the sidecar also carries the
/// job count and the end-to-end elapsed time, from which it derives the
/// aggregate speedup (sum of per-entry seconds over elapsed seconds) and a
/// per-entry `speedup_share` (that entry's contribution to the aggregate).
/// Since the matrix can also run under an accelerated execution backend,
/// it carries the backend name and the stepped-cycle totals from which
/// the backend cycle-compression ratio ([`WallClock::backend_speedup`])
/// is derived.
#[derive(Debug, Clone)]
pub struct WallClock {
    /// Per-run measurements, in record order.
    pub entries: Vec<WallClockEntry>,
    /// Worker count the matrix ran with (1 = serial).
    pub jobs: u64,
    /// Execution backend the matrix ran under (`cycle` or `native`) —
    /// provenance only; the record bytes are backend-invariant.
    pub backend: String,
    /// End-to-end wall time for the whole matrix. Under a pool this is
    /// less than [`WallClock::total_seconds`]; 0.0 means "not measured".
    pub elapsed_seconds: f64,
    /// Telemetry window width (cycles) the matrix ran with, `None` when
    /// windowed telemetry was disabled. Provenance for the sidecar's
    /// sibling `TELEM_<n>.json` store; the record bytes are
    /// telemetry-invariant either way.
    pub telemetry_window: Option<u64>,
}

impl Default for WallClock {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            jobs: 1,
            backend: "cycle".to_string(),
            elapsed_seconds: 0.0,
            telemetry_window: None,
        }
    }
}

impl WallClock {
    /// An empty sidecar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one run.
    pub fn push(&mut self, key: &str, cycles: u64, stepped_cycles: u64, seconds: f64) {
        self.entries.push(WallClockEntry {
            key: key.to_string(),
            cycles,
            stepped_cycles,
            seconds,
        });
    }

    /// Total simulated cycles across entries.
    pub fn total_cycles(&self) -> u64 {
        self.entries.iter().map(|e| e.cycles).sum()
    }

    /// Total cycles stepped one at a time across entries.
    pub fn total_stepped_cycles(&self) -> u64 {
        self.entries.iter().map(|e| e.stepped_cycles).sum()
    }

    /// Backend cycle-compression ratio: simulated cycles accounted for
    /// per cycle actually stepped. 1.0 on the cycle backend; under
    /// native the ratio is what the fused replays bought. 0 when
    /// nothing was stepped at all (the same zero-denominator clamp the
    /// rates use).
    pub fn backend_speedup(&self) -> f64 {
        let stepped = self.total_stepped_cycles();
        if stepped > 0 {
            self.total_cycles() as f64 / stepped as f64
        } else {
            0.0
        }
    }

    /// Total wall seconds across entries.
    pub fn total_seconds(&self) -> f64 {
        self.entries.iter().map(|e| e.seconds).sum()
    }

    /// Aggregate simulated cycles per wall second (0 if nothing ran).
    pub fn cycles_per_second(&self) -> f64 {
        let s = self.total_seconds();
        if s > 0.0 {
            self.total_cycles() as f64 / s
        } else {
            0.0
        }
    }

    /// Parallel speedup: sum of per-entry seconds over end-to-end elapsed
    /// seconds. 1.0 means no overlap (serial); `jobs`-way overlap
    /// approaches `jobs`. 0 when elapsed time was not measured — the same
    /// clamp the per-entry rates use, so a coarse clock reading 0.0
    /// seconds never turns into an `inf` in the sidecar.
    pub fn aggregate_speedup(&self) -> f64 {
        if self.elapsed_seconds > 0.0 {
            self.total_seconds() / self.elapsed_seconds
        } else {
            0.0
        }
    }

    /// Serialize the sidecar (not byte-deterministic — contains timings).
    ///
    /// Every rate is guarded against a zero denominator (a fast entry can
    /// measure 0.0 seconds on a coarse clock) and rendered as 0 rather
    /// than `inf`; the JSON writer would otherwise have to degrade the
    /// value to `null`.
    pub fn to_json_string(&self) -> String {
        let mut doc = Json::obj()
            .with("schema_version", Json::Num(SCHEMA_VERSION as f64))
            .with("jobs", Json::Num(self.jobs as f64))
            .with("backend", Json::Str(self.backend.clone()))
            .with(
                "telemetry_enabled",
                Json::Bool(self.telemetry_window.is_some()),
            );
        // The window key is present exactly when telemetry ran; the
        // sidecar never renders `null` (see the zero-rate regression).
        if let Some(w) = self.telemetry_window {
            doc.set("telemetry_window", Json::Num(w as f64));
        }
        doc.with("sim_cycles_per_second", Json::Num(self.cycles_per_second()))
            .with("total_cycles", Json::Num(self.total_cycles() as f64))
            .with(
                "total_stepped_cycles",
                Json::Num(self.total_stepped_cycles() as f64),
            )
            .with("backend_speedup", Json::Num(self.backend_speedup()))
            .with("total_seconds", Json::Num(self.total_seconds()))
            .with("elapsed_seconds", Json::Num(self.elapsed_seconds))
            .with("aggregate_speedup", Json::Num(self.aggregate_speedup()))
            .with(
                "runs",
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|e| {
                            Json::obj()
                                .with("key", Json::Str(e.key.clone()))
                                .with("cycles", Json::Num(e.cycles as f64))
                                .with("stepped_cycles", Json::Num(e.stepped_cycles as f64))
                                .with(
                                    "backend_speedup",
                                    Json::Num(if e.stepped_cycles > 0 {
                                        e.cycles as f64 / e.stepped_cycles as f64
                                    } else {
                                        0.0
                                    }),
                                )
                                .with("seconds", Json::Num(e.seconds))
                                .with(
                                    "cycles_per_second",
                                    Json::Num(if e.seconds > 0.0 {
                                        e.cycles as f64 / e.seconds
                                    } else {
                                        0.0
                                    }),
                                )
                                .with(
                                    "speedup_share",
                                    Json::Num(if self.elapsed_seconds > 0.0 {
                                        e.seconds / self.elapsed_seconds
                                    } else {
                                        0.0
                                    }),
                                )
                        })
                        .collect(),
                ),
            )
            .render()
    }

    /// Parse a sidecar document written by [`WallClock::to_json_string`].
    ///
    /// Validates the schema version and the telemetry-config fields —
    /// `telemetry_enabled` must agree with `telemetry_window` being a
    /// number — so `observatory diff` can reject a sidecar whose
    /// provenance was hand-edited into inconsistency. Derived rates
    /// (`backend_speedup`, `cycles_per_second`, …) are recomputed from
    /// the parsed entries, not read back.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let doc = artifact::open(text, "sidecar", SCHEMA_VERSION)?;
        let jobs = doc
            .get("jobs")
            .and_then(Json::as_u64)
            .ok_or_else(|| "sidecar missing 'jobs'".to_string())?;
        let backend = doc
            .get("backend")
            .and_then(Json::as_str)
            .ok_or_else(|| "sidecar missing 'backend'".to_string())?
            .to_string();
        let enabled = doc
            .get("telemetry_enabled")
            .and_then(Json::as_bool)
            .ok_or_else(|| "sidecar missing 'telemetry_enabled'".to_string())?;
        let telemetry_window = match (enabled, doc.get("telemetry_window")) {
            (true, Some(w)) => {
                Some(w.as_u64().filter(|&w| w >= 1).ok_or_else(|| {
                    "sidecar telemetry_window is not a positive integer".to_string()
                })?)
            }
            (true, None) => {
                return Err(
                    "sidecar telemetry_enabled=true but telemetry_window is missing".to_string(),
                )
            }
            (false, None) => None,
            (false, Some(_)) => {
                return Err(
                    "sidecar telemetry_enabled=false but telemetry_window is set".to_string(),
                )
            }
        };
        let elapsed_seconds = doc
            .get("elapsed_seconds")
            .and_then(Json::as_f64)
            .ok_or_else(|| "sidecar missing 'elapsed_seconds'".to_string())?;
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| "sidecar missing 'runs' array".to_string())?;
        let mut wall = WallClock {
            entries: Vec::with_capacity(runs.len()),
            jobs,
            backend,
            elapsed_seconds,
            telemetry_window,
        };
        for run in runs {
            let key = run
                .get("key")
                .and_then(Json::as_str)
                .ok_or_else(|| "sidecar run missing 'key'".to_string())?;
            let field = |name: &str| {
                run.get(name)
                    .ok_or_else(|| format!("sidecar run {key} missing '{name}'"))
            };
            wall.push(
                key,
                field("cycles")?
                    .as_u64()
                    .ok_or_else(|| format!("sidecar run {key}: bad 'cycles'"))?,
                field("stepped_cycles")?
                    .as_u64()
                    .ok_or_else(|| format!("sidecar run {key}: bad 'stepped_cycles'"))?,
                field("seconds")?
                    .as_f64()
                    .ok_or_else(|| format!("sidecar run {key}: bad 'seconds'"))?,
            );
        }
        Ok(wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::StallBreakdown;
    use fblas_sim::SimReport;

    fn sample_set() -> RecordSet {
        let mut set = RecordSet::new("unit-test");
        set.push(
            RunRecord::from_sim(
                "dot",
                &[("k", 2), ("n", 64)],
                SimReport {
                    cycles: 40,
                    flops: 128,
                    words_in: 128,
                    words_out: 1,
                    busy_cycles: 32,
                },
                StallBreakdown::default(),
                170.0,
                5220,
            )
            .with_paper("table3.dot.mflops", 544.0),
        );
        set.push(RunRecord::modeled("mm/model", &[("k", 10)], 125.0, 21580));
        set
    }

    #[test]
    fn set_round_trips() {
        let set = sample_set();
        let text = set.to_json_string();
        let parsed = RecordSet::from_json_str(&text).unwrap();
        assert_eq!(parsed, set);
        assert!(parsed.find("dot[k=2,n=64]").is_some());
        assert!(parsed.find("dot[k=2,n=65]").is_none());
    }

    #[test]
    fn serialization_is_byte_deterministic() {
        assert_eq!(sample_set().to_json_string(), sample_set().to_json_string());
    }

    #[test]
    fn schema_version_bump_is_detected() {
        let text = sample_set().to_json_string().replacen(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            &format!("\"schema_version\": {}", SCHEMA_VERSION + 1),
            1,
        );
        let err = RecordSet::from_json_str(&text).unwrap_err();
        assert!(err.contains("schema version mismatch"), "{err}");
    }

    #[test]
    fn wallclock_aggregates() {
        let mut w = WallClock::new();
        w.push("dot[k=2,n=64]", 1000, 1000, 0.5);
        w.push("mvm[k=4,n=64]", 3000, 3000, 0.5);
        assert_eq!(w.total_cycles(), 4000);
        assert!((w.cycles_per_second() - 4000.0).abs() < 1e-9);
        let text = w.to_json_string();
        assert!(text.contains("sim_cycles_per_second"));
        assert_eq!(WallClock::new().cycles_per_second(), 0.0);
    }

    /// Backend accounting: the sidecar names the backend, totals the
    /// stepped cycles, and derives the cycle-compression ratio with the
    /// usual zero-denominator clamp.
    #[test]
    fn wallclock_backend_speedup_fields() {
        let mut w = WallClock::new();
        assert_eq!(w.backend, "cycle", "cycle by default");
        assert_eq!(w.backend_speedup(), 0.0, "empty sidecar clamps");
        w.backend = "native".to_string();
        w.push("dot[k=2,n=64]", 1000, 100, 0.1);
        w.push("mvm[k=4,n=64]", 3000, 300, 0.1);
        assert_eq!(w.total_stepped_cycles(), 400);
        assert!((w.backend_speedup() - 10.0).abs() < 1e-12);
        let doc = Json::parse(&w.to_json_string()).unwrap();
        assert_eq!(doc.get("backend").and_then(Json::as_str), Some("native"));
        assert_eq!(
            doc.get("total_stepped_cycles").and_then(Json::as_u64),
            Some(400)
        );
        assert_eq!(
            doc.get("backend_speedup").and_then(Json::as_f64),
            Some(10.0)
        );
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(
            runs[0].get("stepped_cycles").and_then(Json::as_u64),
            Some(100)
        );
        assert_eq!(
            runs[0].get("backend_speedup").and_then(Json::as_f64),
            Some(10.0)
        );
    }

    /// Regression for the sidecar rate math: an entry that measures 0.0
    /// seconds (coarse host clock) must render a rate of 0, not `inf` or
    /// `null`, and the document must stay parseable.
    #[test]
    fn wallclock_zero_second_entry_renders_zero_rate() {
        let mut w = WallClock::new();
        w.push("dot[k=2,n=64]", 1000, 1000, 0.0);
        assert_eq!(w.cycles_per_second(), 0.0);
        let text = w.to_json_string();
        assert!(!text.contains("inf") && !text.contains("null"), "{text}");
        let doc = Json::parse(&text).unwrap();
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(
            runs[0].get("cycles_per_second").and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            runs[0].get("speedup_share").and_then(Json::as_f64),
            Some(0.0)
        );
    }

    /// Speedup accounting: shares sum to the aggregate, the aggregate is
    /// total-over-elapsed, and an unmeasured elapsed time clamps to 0.
    #[test]
    fn wallclock_speedup_fields() {
        let mut w = WallClock::new();
        assert_eq!(w.jobs, 1, "serial by default");
        assert_eq!(w.aggregate_speedup(), 0.0, "unmeasured elapsed clamps");
        w.push("dot[k=2,n=64]", 1000, 1000, 1.5);
        w.push("mvm[k=4,n=64]", 3000, 3000, 0.5);
        w.jobs = 2;
        w.elapsed_seconds = 1.0;
        assert!((w.aggregate_speedup() - 2.0).abs() < 1e-12);
        let doc = Json::parse(&w.to_json_string()).unwrap();
        assert_eq!(doc.get("jobs").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("elapsed_seconds").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            doc.get("aggregate_speedup").and_then(Json::as_f64),
            Some(2.0)
        );
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        let shares: f64 = runs
            .iter()
            .map(|r| r.get("speedup_share").and_then(Json::as_f64).unwrap())
            .sum();
        assert!((shares - w.aggregate_speedup()).abs() < 1e-12);
    }

    /// Satellite contract: the sidecar carries its telemetry config,
    /// round-trips through the parser, and the parser rejects both
    /// schema-version mismatches and inconsistent telemetry fields.
    #[test]
    fn wallclock_telemetry_fields_round_trip() {
        let mut w = WallClock::new();
        w.jobs = 4;
        w.backend = "native".to_string();
        w.elapsed_seconds = 0.25;
        w.telemetry_window = Some(4096);
        w.push("dot[k=2,n=64]", 1000, 100, 0.125);
        let text = w.to_json_string();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("telemetry_enabled").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            doc.get("telemetry_window").and_then(Json::as_u64),
            Some(4096)
        );
        let parsed = WallClock::from_json_str(&text).unwrap();
        assert_eq!(parsed.telemetry_window, Some(4096));
        assert_eq!(parsed.jobs, 4);
        assert_eq!(parsed.backend, "native");
        assert_eq!(parsed.entries, w.entries);
        assert!((parsed.backend_speedup() - 10.0).abs() < 1e-12);

        // Disabled telemetry: no window key, parses back to None.
        w.telemetry_window = None;
        let text = w.to_json_string();
        assert!(!text.contains("telemetry_window"));
        assert_eq!(
            WallClock::from_json_str(&text).unwrap().telemetry_window,
            None
        );
    }

    #[test]
    fn wallclock_parser_rejects_bad_documents() {
        let mut w = WallClock::new();
        w.telemetry_window = Some(64);
        w.push("dot[k=2,n=64]", 1000, 1000, 0.1);
        let text = w.to_json_string();

        let bumped = text.replacen(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            &format!("\"schema_version\": {}", SCHEMA_VERSION + 1),
            1,
        );
        let err = WallClock::from_json_str(&bumped).unwrap_err();
        assert!(err.contains("schema version mismatch"), "{err}");

        // telemetry_enabled=true with the window edited away.
        let clipped = text.replacen("  \"telemetry_window\": 64,\n", "", 1);
        let err = WallClock::from_json_str(&clipped).unwrap_err();
        assert!(err.contains("telemetry_window is missing"), "{err}");

        // telemetry_enabled hand-flipped to false with the window left in.
        let flipped = text.replacen(
            "\"telemetry_enabled\": true",
            "\"telemetry_enabled\": false",
            1,
        );
        let err = WallClock::from_json_str(&flipped).unwrap_err();
        assert!(err.contains("telemetry_window is set"), "{err}");
    }
}
