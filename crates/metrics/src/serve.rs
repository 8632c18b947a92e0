//! Serving-campaign records: the `SERVE_<n>.json` trajectory store.
//!
//! `fblas-serve` turns the simulated FPGA fleet into a BLAS-as-a-service
//! front end; each campaign *cell* (one arrival pattern x admission
//! policy x batching mode) produces a [`ServeRecord`] with honest
//! counters (offered vs admitted vs rejected vs completed vs still
//! in flight), modeled staging/compute time, a latency digest and an
//! SLO verdict. A [`ServeSet`] persists the cells of one campaign in the
//! same deterministic, schema-versioned JSON dialect as `BENCH_*.json`:
//! no timestamps, no host information, byte-identical at any `--jobs`
//! count and under every execution backend.
//!
//! Trajectory convention: committed stores live at the repository root
//! as `SERVE_0001.json`, `SERVE_0002.json`, … and `observatory serve
//! --diff` gates the regenerated campaign against a committed baseline
//! with the exact cell-diff gate ([`diff_cells`](crate::artifact::diff_cells)).

use fblas_sim::LogHistogram;

use crate::artifact::{Record, Store};
use crate::json::{rle_decode, rle_encode, Json};

/// Version of the serving store schema. Bump on any field change;
/// readers reject mismatches so a stale baseline cannot be silently
/// compared against a newer tool.
pub const SERVE_SCHEMA_VERSION: u64 = 1;

/// Compact latency summary extracted from a [`LogHistogram`].
///
/// `quantiles` is `None` when the histogram saw no samples — the honest
/// form of the empty case (a served-nothing cell has *no* p99, not a
/// zero-nanosecond one). Quantiles are `[p50, p95, p99, p999]` in
/// nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyDigest {
    /// Number of recorded latencies.
    pub samples: u64,
    /// Smallest recorded latency in ns (0 when empty).
    pub min: u64,
    /// Largest recorded latency in ns (0 when empty).
    pub max: u64,
    /// `[p50, p95, p99, p999]` in ns, or `None` when `samples == 0`.
    pub quantiles: Option<[u64; 4]>,
}

impl LatencyDigest {
    /// Digest a histogram, preserving the empty case as `None`.
    pub fn from_histogram(h: &LogHistogram) -> Self {
        Self {
            samples: h.samples(),
            min: if h.samples() == 0 { 0 } else { h.min() },
            max: if h.samples() == 0 { 0 } else { h.max() },
            quantiles: h.try_quantiles(),
        }
    }

    /// p99 in ns, or `None` for an empty digest.
    pub fn p99(&self) -> Option<u64> {
        self.quantiles.map(|q| q[2])
    }

    fn to_json(self) -> Json {
        let mut j = Json::obj()
            .with("samples", Json::Num(self.samples as f64))
            .with("min", Json::Num(self.min as f64))
            .with("max", Json::Num(self.max as f64));
        match self.quantiles {
            Some([p50, p95, p99, p999]) => {
                j = j
                    .with("p50", Json::Num(p50 as f64))
                    .with("p95", Json::Num(p95 as f64))
                    .with("p99", Json::Num(p99 as f64))
                    .with("p999", Json::Num(p999 as f64));
            }
            None => {
                j = j.with("p50", Json::Null).with("p95", Json::Null);
                j = j.with("p99", Json::Null).with("p999", Json::Null);
            }
        }
        j
    }

    fn from_json(json: &Json, what: &str) -> Result<Self, String> {
        let field = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{what}: latency missing '{key}'"))
        };
        let samples = field("samples")?;
        let quantiles = if samples == 0 {
            for key in ["p50", "p95", "p99", "p999"] {
                if json.get(key).and_then(Json::as_u64).is_some() {
                    return Err(format!(
                        "{what}: empty latency digest carries a '{key}' quantile"
                    ));
                }
            }
            None
        } else {
            Some([field("p50")?, field("p95")?, field("p99")?, field("p999")?])
        };
        Ok(Self {
            samples,
            min: field("min")?,
            max: field("max")?,
            quantiles,
        })
    }
}

/// Per-tenant accounting for one cell.
///
/// The conservation contract — enforced by `fblas-check` — is
/// `arrivals == completed + rejected_queue + rejected_tokens +
/// in_flight` for every tenant: nothing offered to the front end may
/// vanish from the books.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRecord {
    /// Tenant name, unique within the cell.
    pub name: String,
    /// Requests the generator offered for this tenant.
    pub arrivals: u64,
    /// Requests turned away because the tenant queue was full.
    pub rejected_queue: u64,
    /// Requests turned away because the token bucket was empty.
    pub rejected_tokens: u64,
    /// Requests that finished service within the horizon.
    pub completed: u64,
    /// Requests admitted but still queued or in service at the end of
    /// the run (non-zero only for no-drain cells).
    pub in_flight: u64,
    /// Completion-latency digest (arrival -> batch completion), ns.
    pub latency: LatencyDigest,
    /// Completions per telemetry window (length = cell `windows`).
    pub completions: Vec<u64>,
    /// Rejections (both causes) per telemetry window.
    pub rejections: Vec<u64>,
}

impl TenantRecord {
    /// Total rejections across both admission-control causes.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue + self.rejected_tokens
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .with("name", Json::Str(self.name.clone()))
            .with("arrivals", Json::Num(self.arrivals as f64))
            .with("rejected_queue", Json::Num(self.rejected_queue as f64))
            .with("rejected_tokens", Json::Num(self.rejected_tokens as f64))
            .with("completed", Json::Num(self.completed as f64))
            .with("in_flight", Json::Num(self.in_flight as f64))
            .with("latency", self.latency.to_json())
            .with("completions", rle_encode(&self.completions))
            .with("rejections", rle_encode(&self.rejections))
    }

    fn from_json(json: &Json, windows: usize) -> Result<Self, String> {
        let name = json
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| "tenant missing 'name'".to_string())?
            .to_string();
        let field = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name}: tenant missing '{key}'"))
        };
        Ok(Self {
            arrivals: field("arrivals")?,
            rejected_queue: field("rejected_queue")?,
            rejected_tokens: field("rejected_tokens")?,
            completed: field("completed")?,
            in_flight: field("in_flight")?,
            latency: LatencyDigest::from_json(
                json.get("latency")
                    .ok_or_else(|| format!("{name}: tenant missing 'latency'"))?,
                &name,
            )?,
            completions: rle_decode(
                json.get("completions")
                    .ok_or_else(|| format!("{name}: tenant missing 'completions'"))?,
                windows,
                &format!("{name}.completions"),
            )?,
            rejections: rle_decode(
                json.get("rejections")
                    .ok_or_else(|| format!("{name}: tenant missing 'rejections'"))?,
                windows,
                &format!("{name}.rejections"),
            )?,
            name,
        })
    }
}

/// One campaign cell: configuration identity, totals, digest, SLO.
///
/// All times are nanoseconds on the shared fleet timeline (designs at
/// different clocks — the 170 MHz dot tree, the 164 MHz XD1 memory
/// interface — close their cycle counts into ns before entering the
/// event queue, so the record needs no per-kernel clock context).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRecord {
    /// Cell identity, e.g. `mvm1024/open/batched`. Unique per set.
    pub cell: String,
    /// Kernel family served, e.g. `mvm`, `dot`, `axpy`.
    pub kernel: String,
    /// Problem size class (vector length / matrix order).
    pub n: u64,
    /// Arrival-generator seed.
    pub seed: u64,
    /// Maximum requests packed into one batch (1 = no batching).
    pub max_batch: u64,
    /// Whether the scheduler drained queues after the arrival horizon.
    pub drain: bool,
    /// Offered load horizon in ns (arrivals stop after this).
    pub horizon_ns: u64,
    /// Telemetry window width in ns for the per-tenant series.
    pub window_ns: u64,
    /// Number of telemetry windows each tenant series spans.
    pub windows: u64,
    /// Dispatched batches (each pays its staging cost exactly once).
    pub batches: u64,
    /// Total DRAM->SRAM staging time across all batches, ns.
    pub staging_ns: u64,
    /// Total compute (kernel service) time across all batches, ns.
    pub compute_ns: u64,
    /// Timeline position after the last completion (makespan), ns.
    pub elapsed_ns: u64,
    /// Completed requests per second, in milli-rps (integer so the
    /// stored value is exact and byte-stable).
    pub throughput_milli_rps: u64,
    /// Fleet-wide completion-latency digest, ns.
    pub latency: LatencyDigest,
    /// p99 latency target for this cell, ns.
    pub slo_p99_ns: u64,
    /// Whether the measured p99 met the target (an empty digest fails).
    pub slo_pass: bool,
    /// Per-tenant books, in tenant order.
    pub tenants: Vec<TenantRecord>,
}

impl ServeRecord {
    /// Sum of a per-tenant counter across all tenants.
    fn total(&self, f: impl Fn(&TenantRecord) -> u64) -> u64 {
        self.tenants.iter().map(f).sum()
    }

    /// Requests offered across all tenants.
    pub fn offered(&self) -> u64 {
        self.total(|t| t.arrivals)
    }

    /// Requests completed across all tenants.
    pub fn completed(&self) -> u64 {
        self.total(|t| t.completed)
    }

    /// Requests rejected (either cause) across all tenants.
    pub fn rejected(&self) -> u64 {
        self.total(TenantRecord::rejected)
    }

    /// Requests still in flight at the end of the run.
    pub fn in_flight(&self) -> u64 {
        self.total(|t| t.in_flight)
    }

    /// Total modeled busy time (staging + compute), ns.
    pub fn busy_ns(&self) -> u64 {
        self.staging_ns + self.compute_ns
    }
}

impl Record for ServeRecord {
    const KIND: &'static str = "serve";
    const SCHEMA_VERSION: u64 = SERVE_SCHEMA_VERSION;

    fn cell_key(&self) -> String {
        self.cell.clone()
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .with("cell", Json::Str(self.cell.clone()))
            .with("kernel", Json::Str(self.kernel.clone()))
            .with("n", Json::Num(self.n as f64))
            .with("seed", Json::Num(self.seed as f64))
            .with("max_batch", Json::Num(self.max_batch as f64))
            .with("drain", Json::Bool(self.drain))
            .with("horizon_ns", Json::Num(self.horizon_ns as f64))
            .with("window_ns", Json::Num(self.window_ns as f64))
            .with("windows", Json::Num(self.windows as f64))
            .with("batches", Json::Num(self.batches as f64))
            .with("staging_ns", Json::Num(self.staging_ns as f64))
            .with("compute_ns", Json::Num(self.compute_ns as f64))
            .with("elapsed_ns", Json::Num(self.elapsed_ns as f64))
            .with(
                "throughput_milli_rps",
                Json::Num(self.throughput_milli_rps as f64),
            )
            .with("latency", self.latency.to_json())
            .with("slo_p99_ns", Json::Num(self.slo_p99_ns as f64))
            .with("slo_pass", Json::Bool(self.slo_pass))
            .with(
                "tenants",
                Json::Arr(self.tenants.iter().map(TenantRecord::to_json).collect()),
            )
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let cell = json
            .get("cell")
            .and_then(Json::as_str)
            .ok_or_else(|| "record missing 'cell'".to_string())?
            .to_string();
        let field = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{cell}: missing '{key}'"))
        };
        let flag = |key: &str| {
            json.get(key)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("{cell}: missing '{key}'"))
        };
        let windows = field("windows")?;
        let tenants = json
            .get("tenants")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{cell}: missing 'tenants' array"))?
            .iter()
            .map(|t| {
                TenantRecord::from_json(t, windows as usize).map_err(|e| format!("{cell}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            kernel: json
                .get("kernel")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{cell}: missing 'kernel'"))?
                .to_string(),
            n: field("n")?,
            seed: field("seed")?,
            max_batch: field("max_batch")?,
            drain: flag("drain")?,
            horizon_ns: field("horizon_ns")?,
            window_ns: field("window_ns")?,
            windows,
            batches: field("batches")?,
            staging_ns: field("staging_ns")?,
            compute_ns: field("compute_ns")?,
            elapsed_ns: field("elapsed_ns")?,
            throughput_milli_rps: field("throughput_milli_rps")?,
            latency: LatencyDigest::from_json(
                json.get("latency")
                    .ok_or_else(|| format!("{cell}: missing 'latency'"))?,
                &cell,
            )?,
            slo_p99_ns: field("slo_p99_ns")?,
            slo_pass: flag("slo_pass")?,
            tenants,
            cell,
        })
    }

    fn drift(&self, base: &Self) -> Vec<String> {
        let mut causes = Vec::new();
        if self.completed() != base.completed() {
            causes.push(format!(
                "completed {} != baseline {}",
                self.completed(),
                base.completed()
            ));
        }
        if self.rejected() != base.rejected() {
            causes.push(format!(
                "rejected {} != baseline {}",
                self.rejected(),
                base.rejected()
            ));
        }
        if self.elapsed_ns != base.elapsed_ns {
            causes.push(format!(
                "elapsed_ns {} != baseline {}",
                self.elapsed_ns, base.elapsed_ns
            ));
        }
        if self.latency != base.latency {
            causes.push("latency digest drifted".to_string());
        }
        if self.slo_pass != base.slo_pass {
            causes.push(format!(
                "SLO verdict flipped ({} -> {})",
                base.slo_pass, self.slo_pass
            ));
        }
        causes
    }
}

/// An ordered collection of serving cells from one campaign.
pub type ServeSet = Store<ServeRecord>;

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A small synthetic two-tenant cell with one rejection and one
    /// request left in flight.
    pub fn sample_record(cell: &str) -> ServeRecord {
        let mut h = LogHistogram::default();
        for ns in [1_000, 2_000, 2_000, 50_000] {
            h.record(ns);
        }
        ServeRecord {
            cell: cell.to_string(),
            kernel: "mvm".to_string(),
            n: 1024,
            seed: 42,
            max_batch: 8,
            drain: false,
            horizon_ns: 1_000_000,
            window_ns: 250_000,
            windows: 4,
            batches: 2,
            staging_ns: 12_000,
            compute_ns: 3_000,
            elapsed_ns: 1_100_000,
            throughput_milli_rps: 3_636,
            latency: LatencyDigest::from_histogram(&h),
            slo_p99_ns: 100_000,
            slo_pass: true,
            tenants: vec![
                TenantRecord {
                    name: "alpha".to_string(),
                    arrivals: 4,
                    rejected_queue: 1,
                    rejected_tokens: 0,
                    completed: 3,
                    in_flight: 0,
                    latency: LatencyDigest::from_histogram(&h),
                    completions: vec![1, 2, 0, 0],
                    rejections: vec![0, 1, 0, 0],
                },
                TenantRecord {
                    name: "beta".to_string(),
                    arrivals: 2,
                    rejected_queue: 0,
                    rejected_tokens: 0,
                    completed: 1,
                    in_flight: 1,
                    latency: LatencyDigest {
                        samples: 0,
                        min: 0,
                        max: 0,
                        quantiles: None,
                    },
                    completions: vec![0, 0, 1, 0],
                    rejections: vec![0, 0, 0, 0],
                },
            ],
        }
    }

    /// A one-cell sample set.
    pub fn sample_set() -> ServeSet {
        let mut set = ServeSet::new("unit-test");
        set.records.push(sample_record("mvm1024/open/batched"));
        set
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{sample_record, sample_set};
    use super::*;
    use crate::artifact::{diff_cells, file_name, list_files, load, next_index, save, SERVE};

    #[test]
    fn set_round_trips_losslessly() {
        let set = sample_set();
        let parsed = ServeSet::from_json_str(&set.to_json_string()).unwrap();
        assert_eq!(parsed, set);
        assert!(parsed.find("mvm1024/open/batched").is_some());
        assert!(parsed.find("nope").is_none());
    }

    #[test]
    fn serialization_is_byte_deterministic() {
        assert_eq!(sample_set().to_json_string(), sample_set().to_json_string());
    }

    #[test]
    fn totals_sum_tenants_and_conserve_requests() {
        let r = sample_record("c");
        assert_eq!(r.offered(), 6);
        assert_eq!(r.completed(), 4);
        assert_eq!(r.rejected(), 1);
        assert_eq!(r.in_flight(), 1);
        assert_eq!(r.offered(), r.completed() + r.rejected() + r.in_flight());
        assert_eq!(r.busy_ns(), 15_000);
    }

    #[test]
    fn empty_latency_digest_has_no_quantiles() {
        let d = LatencyDigest::from_histogram(&LogHistogram::default());
        assert_eq!(d.samples, 0);
        assert_eq!(d.quantiles, None);
        assert_eq!(d.p99(), None);
        // And it round-trips through JSON as nulls, not zeros.
        let parsed = ServeSet::from_json_str(&sample_set().to_json_string()).unwrap();
        assert_eq!(parsed.records[0].tenants[1].latency.quantiles, None);
    }

    #[test]
    fn schema_version_bump_is_detected() {
        let text = sample_set().to_json_string().replacen(
            &format!("\"schema_version\": {SERVE_SCHEMA_VERSION}"),
            &format!("\"schema_version\": {}", SERVE_SCHEMA_VERSION + 1),
            1,
        );
        let err = ServeSet::from_json_str(&text).unwrap_err();
        assert!(err.contains("schema version mismatch"), "{err}");
    }

    #[test]
    fn diff_passes_on_identity_and_fails_on_drift() {
        let set = sample_set();
        let diff = diff_cells(&set, &set);
        assert!(diff.pass(), "{}", diff.render());

        let mut drifted = set.clone();
        drifted.records[0].tenants[0].completed += 1;
        let diff = diff_cells(&drifted, &set);
        assert!(!diff.pass());
        assert!(
            diff.render()
                .contains("mvm1024/open/batched: DRIFT — completed 5 != baseline 4"),
            "{}",
            diff.render()
        );
        assert!(diff.render().ends_with("serve diff: FAIL (1 finding(s))\n"));
    }

    #[test]
    fn trajectory_scan_and_next_index() {
        let dir = std::env::temp_dir().join("fblas_serve_store_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let set = sample_set();
        for index in [1, 2] {
            save(&dir.join(file_name(SERVE, index)), &set.to_json_string()).unwrap();
        }
        let files = list_files(&dir, SERVE);
        assert_eq!(files.iter().map(|&(i, _)| i).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(next_index(&dir, SERVE), 3);
        assert_eq!(load(&files[0].1, ServeSet::from_json_str).unwrap(), set);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
