//! The canonical, schema-versioned measurement record.
//!
//! A [`RunRecord`] captures everything one kernel run (or one closed-form
//! model evaluation) contributes to the paper's tables: the identifying
//! (kernel, config) pair, the raw [`SimReport`] counters, the stall-cause
//! breakdown from the probe layer, the modeled area/clock, the derived
//! sustained MFLOPS, the compute- vs bandwidth-bound classification and —
//! where the paper reports a number for it — the parity delta against the
//! shared tolerance table.
//!
//! Records are deterministic by construction: nothing time- or
//! host-dependent is stored in them. Simulator wall-clock throughput is
//! measured per run but kept *outside* the record (see
//! [`WallClock`](crate::WallClock)) so `BENCH_*.json` stays
//! byte-identical across repeated runs.

use fblas_sim::{SimReport, StallCause};

use crate::artifact::Record;
use crate::json::Json;
use crate::tolerance;

/// Version of the record schema. Bump on any field change; readers reject
/// mismatched versions so a stale baseline cannot be silently compared.
pub const SCHEMA_VERSION: u64 = 1;

/// How the numbers in a record were obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Cycle-accurate simulation through the instrumented harness.
    Simulated,
    /// Closed-form cost/projection model (no cycles simulated).
    Modeled,
}

impl RecordKind {
    fn name(self) -> &'static str {
        match self {
            RecordKind::Simulated => "sim",
            RecordKind::Modeled => "model",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "sim" => Some(RecordKind::Simulated),
            "model" => Some(RecordKind::Modeled),
            _ => None,
        }
    }
}

/// Compute- vs bandwidth-bound classification (the paper's §4.4/§6
/// bandwidth argument, recovered from measurements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Paced by external data movement (Level 1/2 designs, `SpMV`).
    Bandwidth,
    /// Paced by the floating-point datapath (blocked Level 3).
    Compute,
    /// Not applicable (modeled records, records without I/O accounting).
    Unclassified,
}

impl Bound {
    /// Stable name used in JSON and scoreboards.
    pub fn name(self) -> &'static str {
        match self {
            Bound::Bandwidth => "bandwidth-bound",
            Bound::Compute => "compute-bound",
            Bound::Unclassified => "unclassified",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "bandwidth-bound" => Some(Bound::Bandwidth),
            "compute-bound" => Some(Bound::Compute),
            "unclassified" => Some(Bound::Unclassified),
            _ => None,
        }
    }
}

/// Per-cause stall totals accumulated over a run (aggregated across all
/// probe components), in [`StallCause::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallBreakdown {
    /// Totals indexed like [`StallCause::ALL`].
    pub by_cause: [u64; 4],
}

impl StallBreakdown {
    /// Breakdown from two aggregated-total snapshots (before/after a run).
    pub fn from_delta(before: [u64; 4], after: [u64; 4]) -> Self {
        let mut by_cause = [0u64; 4];
        for (slot, (b, a)) in by_cause.iter_mut().zip(before.iter().zip(after)) {
            *slot = a - b;
        }
        Self { by_cause }
    }

    /// Total stalled cycles across causes.
    pub fn total(&self) -> u64 {
        self.by_cause.iter().sum()
    }

    /// Stalls attributed to `cause`.
    pub fn get(&self, cause: StallCause) -> u64 {
        self.by_cause[StallCause::ALL
            .iter()
            .position(|&c| c == cause)
            .expect("in ALL")]
    }
}

/// Parity of a measurement against one paper-reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperParity {
    /// Id into the shared tolerance table
    /// ([`tolerance::PAPER_TOLERANCES`]).
    pub figure_id: String,
    /// The measured value in the figure's unit.
    pub measured: f64,
}

impl PaperParity {
    /// Relative delta vs the paper, if the id is known to the table.
    pub fn delta_frac(&self) -> Option<f64> {
        tolerance::lookup(&self.figure_id).map(|t| t.delta_frac(self.measured))
    }

    /// True iff within the table's tolerance (unknown ids never pass).
    pub fn within_tolerance(&self) -> bool {
        tolerance::lookup(&self.figure_id).is_some_and(|t| t.accepts(self.measured))
    }
}

/// One canonical measurement record.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Kernel family, e.g. `"dot"`, `"mvm/row"`, `"mm/hierarchical"`.
    pub kernel: String,
    /// Configuration as ordered `(name, value)` pairs (`k`, `n`, `m`, …).
    /// Order is part of the record identity and the byte format.
    pub config: Vec<(String, i64)>,
    /// How the numbers were obtained.
    pub kind: RecordKind,
    /// Total clock cycles (0 for modeled records).
    pub cycles: u64,
    /// Floating-point operations performed.
    pub flops: u64,
    /// Words read from external memory.
    pub words_in: u64,
    /// Words written to external memory.
    pub words_out: u64,
    /// Cycles in which at least one FP unit issued an operation.
    pub busy_cycles: u64,
    /// Stall-cause breakdown from the probe layer.
    pub stalls: StallBreakdown,
    /// Design clock in MHz (modeled).
    pub clock_mhz: f64,
    /// Modeled area in slices (0 where the area model has no entry).
    pub modeled_slices: u64,
    /// Sustained MFLOPS at `clock_mhz` (0 for modeled records).
    pub sustained_mflops: f64,
    /// Compute/bandwidth classification (see [`RunRecord::classify`]).
    pub bound: Bound,
    /// Parity entries against the paper's reported values.
    pub paper: Vec<PaperParity>,
}

impl RunRecord {
    /// A simulated record from a harness [`SimReport`].
    ///
    /// `stalls` is the per-run delta of the probe's aggregated stall
    /// totals (see `Probe::stall_totals`). Classification is derived
    /// immediately; parity entries are attached by the caller.
    pub fn from_sim(
        kernel: &str,
        config: &[(&str, i64)],
        report: SimReport,
        stalls: StallBreakdown,
        clock_mhz: f64,
        modeled_slices: u64,
    ) -> Self {
        let sustained_mflops = if report.cycles == 0 {
            0.0
        } else {
            report.flops as f64 * clock_mhz / report.cycles as f64
        };
        let mut r = Self {
            kernel: kernel.to_string(),
            config: config.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            kind: RecordKind::Simulated,
            cycles: report.cycles,
            flops: report.flops,
            words_in: report.words_in,
            words_out: report.words_out,
            busy_cycles: report.busy_cycles,
            stalls,
            clock_mhz,
            modeled_slices,
            sustained_mflops,
            bound: Bound::Unclassified,
            paper: Vec::new(),
        };
        r.bound = r.classify();
        r
    }

    /// A modeled (closed-form) record: no cycles, only model outputs.
    pub fn modeled(kernel: &str, config: &[(&str, i64)], clock_mhz: f64, slices: u64) -> Self {
        Self {
            kernel: kernel.to_string(),
            config: config.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            kind: RecordKind::Modeled,
            cycles: 0,
            flops: 0,
            words_in: 0,
            words_out: 0,
            busy_cycles: 0,
            stalls: StallBreakdown::default(),
            clock_mhz,
            modeled_slices: slices,
            sustained_mflops: 0.0,
            bound: Bound::Unclassified,
            paper: Vec::new(),
        }
    }

    /// Attach a paper-parity entry (builder style).
    #[must_use]
    pub fn with_paper(mut self, figure_id: &str, measured: f64) -> Self {
        self.paper.push(PaperParity {
            figure_id: figure_id.to_string(),
            measured,
        });
        self
    }

    /// Identity key: kernel plus rendered config, e.g. `"dot[k=2,n=2048]"`.
    /// Diffing matches records across runs by this key.
    pub fn key(&self) -> String {
        let cfg: Vec<String> = self
            .config
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}[{}]", self.kernel, cfg.join(","))
    }

    /// Classify the record compute- vs bandwidth-bound.
    ///
    /// The rule (DESIGN.md §9): a simulated kernel is **bandwidth-bound**
    /// when either
    ///
    /// 1. input-starved stalls dominate its stall attribution (the probe
    ///    saw the datapath waiting on memory more than on anything else),
    ///    or
    /// 2. its arithmetic intensity is at most 2 FLOPs per external word —
    ///    the §4.4 envelope in which every word can feed at most one
    ///    multiply-add pair, so performance is set by the stream rate.
    ///
    /// Otherwise it is **compute-bound**. Modeled records and records
    /// without I/O accounting stay [`Bound::Unclassified`].
    pub fn classify(&self) -> Bound {
        if self.kind == RecordKind::Modeled || self.cycles == 0 {
            return Bound::Unclassified;
        }
        let words = self.words_in + self.words_out;
        if words == 0 {
            return Bound::Unclassified;
        }
        let starved = self.stalls.get(StallCause::InputStarved);
        let others = self.stalls.total() - starved;
        if starved > others && starved > 0 {
            return Bound::Bandwidth;
        }
        let intensity = self.flops as f64 / words as f64;
        if intensity <= 2.0 {
            Bound::Bandwidth
        } else {
            Bound::Compute
        }
    }

    /// Fraction of cycles with FP work issued.
    ///
    /// Guarded like the `sustained_mflops` derivation in
    /// [`RunRecord::from_sim`]: a zero-cycle run (a degenerate workload or
    /// a modeled record) reports 0 utilization instead of a NaN that would
    /// poison downstream JSON or scoreboard math.
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.cycles as f64
        }
    }
}

impl Record for RunRecord {
    const KIND: &'static str = "bench";
    const SCHEMA_VERSION: u64 = SCHEMA_VERSION;

    fn cell_key(&self) -> String {
        self.key()
    }

    /// Serialize to the canonical JSON tree (field order fixed).
    fn to_json(&self) -> Json {
        let config = Json::Obj(
            self.config
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                .collect(),
        );
        let stalls = Json::Obj(
            StallCause::ALL
                .iter()
                .map(|&c| (c.name().to_string(), Json::Num(self.stalls.get(c) as f64)))
                .collect(),
        );
        let paper = Json::Arr(
            self.paper
                .iter()
                .map(|p| {
                    let mut o = Json::obj()
                        .with("figure", Json::Str(p.figure_id.clone()))
                        .with("measured", Json::Num(p.measured));
                    if let Some(t) = tolerance::lookup(&p.figure_id) {
                        o.set("paper", Json::Num(t.paper));
                        o.set("unit", Json::Str(t.unit.to_string()));
                        o.set("tol_frac", Json::Num(t.tol_frac));
                        o.set("delta_frac", Json::Num(t.delta_frac(p.measured)));
                    }
                    o
                })
                .collect(),
        );
        Json::obj()
            .with("kernel", Json::Str(self.kernel.clone()))
            .with("config", config)
            .with("kind", Json::Str(self.kind.name().to_string()))
            .with("cycles", Json::Num(self.cycles as f64))
            .with("flops", Json::Num(self.flops as f64))
            .with("words_in", Json::Num(self.words_in as f64))
            .with("words_out", Json::Num(self.words_out as f64))
            .with("busy_cycles", Json::Num(self.busy_cycles as f64))
            .with("stalls", stalls)
            .with("clock_mhz", Json::Num(self.clock_mhz))
            .with("modeled_slices", Json::Num(self.modeled_slices as f64))
            .with("sustained_mflops", Json::Num(self.sustained_mflops))
            .with("bound", Json::Str(self.bound.name().to_string()))
            .with("paper", paper)
    }

    /// Deserialize from the canonical JSON tree.
    fn from_json(json: &Json) -> Result<Self, String> {
        let str_field = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("record missing string field '{key}'"))
        };
        let u64_field = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("record missing integer field '{key}'"))
        };
        let f64_field = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("record missing number field '{key}'"))
        };

        let config = match json.get("config") {
            Some(Json::Obj(members)) => members
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|x| (k.clone(), x as i64))
                        .ok_or_else(|| format!("config value '{k}' is not a number"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("record missing object field 'config'".into()),
        };
        let mut stalls = StallBreakdown::default();
        let stalls_json = json
            .get("stalls")
            .ok_or_else(|| "record missing object field 'stalls'".to_string())?;
        for (i, &cause) in StallCause::ALL.iter().enumerate() {
            stalls.by_cause[i] = stalls_json
                .get(cause.name())
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stalls missing cause '{}'", cause.name()))?;
        }
        let paper = match json.get("paper") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|p| {
                    Ok(PaperParity {
                        figure_id: p
                            .get("figure")
                            .and_then(Json::as_str)
                            .ok_or_else(|| "paper entry missing 'figure'".to_string())?
                            .to_string(),
                        measured: p
                            .get("measured")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| "paper entry missing 'measured'".to_string())?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("record missing array field 'paper'".into()),
        };

        Ok(Self {
            kernel: str_field("kernel")?.to_string(),
            config,
            kind: RecordKind::parse(str_field("kind")?)
                .ok_or_else(|| "unknown record kind".to_string())?,
            cycles: u64_field("cycles")?,
            flops: u64_field("flops")?,
            words_in: u64_field("words_in")?,
            words_out: u64_field("words_out")?,
            busy_cycles: u64_field("busy_cycles")?,
            stalls,
            clock_mhz: f64_field("clock_mhz")?,
            modeled_slices: u64_field("modeled_slices")?,
            sustained_mflops: f64_field("sustained_mflops")?,
            bound: Bound::parse(str_field("bound")?)
                .ok_or_else(|| "unknown bound classification".to_string())?,
            paper,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_record() -> RunRecord {
        RunRecord::from_sim(
            "dot",
            &[("k", 2), ("n", 2048)],
            SimReport {
                cycles: 1100,
                flops: 4096,
                words_in: 4096,
                words_out: 1,
                busy_cycles: 1024,
            },
            StallBreakdown {
                by_cause: [30, 0, 0, 12],
            },
            170.0,
            5220,
        )
        .with_paper("table3.dot.mflops", 633.0)
    }

    #[test]
    fn sim_constructor_derives_mflops_and_bound() {
        let r = sim_record();
        // 4096 flops * 170 MHz / 1100 cycles ≈ 633 MFLOPS.
        assert!((r.sustained_mflops - 4096.0 * 170.0 / 1100.0).abs() < 1e-9);
        // intensity = 4096 / 4097 < 2 and input-starved dominates.
        assert_eq!(r.bound, Bound::Bandwidth);
        assert_eq!(r.key(), "dot[k=2,n=2048]");
        assert!((r.utilization() - 1024.0 / 1100.0).abs() < 1e-12);
    }

    #[test]
    fn high_intensity_stall_free_runs_are_compute_bound() {
        let r = RunRecord::from_sim(
            "mm/block",
            &[("k", 4), ("m", 16)],
            SimReport {
                cycles: 1500,
                flops: 8192,
                words_in: 512,
                words_out: 256,
                busy_cycles: 1400,
            },
            StallBreakdown::default(),
            130.0,
            0,
        );
        assert_eq!(r.bound, Bound::Compute);
    }

    #[test]
    fn modeled_records_stay_unclassified() {
        let r = RunRecord::modeled("mm/model", &[("k", 10)], 125.0, 21580);
        assert_eq!(r.classify(), Bound::Unclassified);
        assert_eq!(r.sustained_mflops, 0.0);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let r = sim_record();
        let parsed = RunRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // And a modeled record too.
        let m = RunRecord::modeled("mm/model", &[("k", 3)], 149.0, 6474);
        assert_eq!(RunRecord::from_json(&m.to_json()).unwrap(), m);
    }

    /// Regression: a zero-cycle simulated run (degenerate workload) must
    /// not divide by zero anywhere — `utilization`, `sustained_mflops` and
    /// classification all take the guarded path, and the record still
    /// serializes and round-trips without a panic.
    #[test]
    fn zero_cycle_record_is_finite_and_round_trips() {
        let r = RunRecord::from_sim(
            "dot",
            &[("k", 2), ("n", 0)],
            SimReport {
                cycles: 0,
                flops: 0,
                words_in: 0,
                words_out: 0,
                busy_cycles: 0,
            },
            StallBreakdown::default(),
            170.0,
            5220,
        );
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.sustained_mflops, 0.0);
        assert_eq!(r.bound, Bound::Unclassified);
        let rendered = r.to_json().render();
        assert!(
            !rendered.contains("null"),
            "no field should degrade: {rendered}"
        );
        assert_eq!(RunRecord::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn parity_entry_reports_delta_against_shared_table() {
        let r = sim_record();
        let p = &r.paper[0];
        assert!(p.within_tolerance());
        let delta = p.delta_frac().unwrap();
        assert!((delta - (633.0 - 557.0) / 557.0).abs() < 1e-12);
    }

    #[test]
    fn from_json_rejects_malformed_records() {
        let mut j = sim_record().to_json();
        // Remove "cycles" by rebuilding without it.
        if let Json::Obj(members) = &mut j {
            members.retain(|(k, _)| k != "cycles");
        }
        assert!(RunRecord::from_json(&j).unwrap_err().contains("cycles"));
    }
}
