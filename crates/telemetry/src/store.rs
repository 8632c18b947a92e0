//! Persistence: the schema-versioned `TELEM_<n>.json` trajectory store.
//!
//! One [`TelemSet`] is what `observatory run` persists next to each
//! `BENCH_<n>.json`: the schema version, the generator, the telemetry
//! window width and one [`TelemRun`] per simulated paper-matrix entry,
//! keyed by the entry's record identity key. Window vectors are
//! run-length encoded as `[value, run]` pairs — steady-state streaming
//! produces long constant stretches, so the committed store stays
//! reviewable — and decode losslessly because the window count is fixed
//! by `ceil(cycles / window)`.
//!
//! The store inherits the record set's determinism contract: no
//! timestamps, no host information, byte-identical at any `--jobs`
//! count and under every execution backend (the telemetry parity suites
//! prove the underlying series equal; this module only serializes them).
//!
//! Trajectory convention: committed stores live at the repository root
//! as `TELEM_0001.json`, `TELEM_0002.json`, … (the shared
//! [`artifact`](fblas_metrics::artifact) convention with prefix
//! [`TELEM`](fblas_metrics::artifact::TELEM)), and `observatory trend`
//! reads them oldest-first.

use fblas_metrics::artifact::{array, envelope, generator, open, unique_keys};
use fblas_metrics::json::{rle_decode, rle_encode};
use fblas_metrics::Json;
use fblas_sim::{CompSeries, LogHistogram, StallCause, TelemSeries};

/// Version of the telemetry store schema. Bump on any field change;
/// readers reject mismatches so a stale store cannot be reinterpreted.
pub const TELEM_SCHEMA_VERSION: u64 = 1;

/// One simulated run's telemetry, keyed by its record identity key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemRun {
    /// Record identity key, e.g. `dot[k=2,n=2048]`.
    pub key: String,
    /// The sealed windowed series of the run.
    pub series: TelemSeries,
}

/// An ordered collection of telemetry runs from one matrix execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemSet {
    /// Tool that produced the set, e.g. `"observatory"`.
    pub generator: String,
    /// Window width in cycles (shared by every run in the set).
    pub window: u64,
    /// The runs, in record order.
    pub runs: Vec<TelemRun>,
}

fn histogram_to_json(h: &LogHistogram) -> Json {
    let buckets = Json::Arr(
        h.nonzero_buckets()
            .into_iter()
            .map(|(idx, count)| Json::Arr(vec![Json::Num(idx as f64), Json::Num(count as f64)]))
            .collect(),
    );
    let [p50, p95, p99, p999] = h.quantiles();
    Json::obj()
        .with("samples", Json::Num(h.samples() as f64))
        .with("min", Json::Num(h.min() as f64))
        .with("max", Json::Num(h.max() as f64))
        .with("buckets", buckets)
        .with("p50", Json::Num(p50 as f64))
        .with("p95", Json::Num(p95 as f64))
        .with("p99", Json::Num(p99 as f64))
        .with("p999", Json::Num(p999 as f64))
}

fn histogram_from_json(json: &Json, what: &str) -> Result<LogHistogram, String> {
    let min = json
        .get("min")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what}: latency missing 'min'"))?;
    let max = json
        .get("max")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what}: latency missing 'max'"))?;
    let buckets = json
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{what}: latency missing 'buckets'"))?;
    let mut pairs = Vec::with_capacity(buckets.len());
    for b in buckets {
        let items = b
            .as_arr()
            .filter(|a| a.len() == 2)
            .ok_or_else(|| format!("{what}: latency buckets are [index, count] pairs"))?;
        let idx = items[0]
            .as_u64()
            .ok_or_else(|| format!("{what}: latency bucket index is not an integer"))?;
        let count = items[1]
            .as_u64()
            .ok_or_else(|| format!("{what}: latency bucket count is not an integer"))?;
        pairs.push((idx as usize, count));
    }
    let h = LogHistogram::from_parts(&pairs, min, max);
    let samples = json
        .get("samples")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what}: latency missing 'samples'"))?;
    if h.samples() != samples {
        return Err(format!(
            "{what}: latency buckets sum to {} samples, header says {samples}",
            h.samples()
        ));
    }
    Ok(h)
}

fn comp_to_json(c: &CompSeries) -> Json {
    let stalls = Json::Obj(
        StallCause::ALL
            .iter()
            .map(|&cause| {
                (
                    cause.name().to_string(),
                    rle_encode(&c.stalls[cause.index()]),
                )
            })
            .collect(),
    );
    Json::obj()
        .with("name", Json::Str(c.name.clone()))
        .with("busy", rle_encode(&c.busy))
        .with("stalls", stalls)
        .with("depth_sum", rle_encode(&c.depth_sum))
        .with("depth_samples", rle_encode(&c.depth_samples))
        .with("latency", histogram_to_json(&c.latency))
}

fn comp_from_json(json: &Json, windows: usize) -> Result<CompSeries, String> {
    let name = json
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| "component missing 'name'".to_string())?
        .to_string();
    let stalls_json = json
        .get("stalls")
        .ok_or_else(|| format!("{name}: missing 'stalls'"))?;
    let mut stalls: [Vec<u64>; 4] = Default::default();
    for &cause in &StallCause::ALL {
        let v = stalls_json
            .get(cause.name())
            .ok_or_else(|| format!("{name}: stalls missing cause '{}'", cause.name()))?;
        stalls[cause.index()] = rle_decode(v, windows, &format!("{name}.stalls.{}", cause.name()))?;
    }
    let field = |key: &str| {
        json.get(key)
            .ok_or_else(|| format!("{name}: missing '{key}'"))
    };
    Ok(CompSeries {
        busy: rle_decode(field("busy")?, windows, &format!("{name}.busy"))?,
        stalls,
        depth_sum: rle_decode(field("depth_sum")?, windows, &format!("{name}.depth_sum"))?,
        depth_samples: rle_decode(
            field("depth_samples")?,
            windows,
            &format!("{name}.depth_samples"),
        )?,
        latency: histogram_from_json(field("latency")?, &name)?,
        name,
    })
}

impl TelemSet {
    /// An empty set for `generator` at the given window width.
    pub fn new(generator: &str, window: u64) -> Self {
        assert!(window >= 1, "telemetry window must be at least one cycle");
        Self {
            generator: generator.to_string(),
            window,
            runs: Vec::new(),
        }
    }

    /// Append one run's series under its record key.
    ///
    /// # Panics
    /// Panics if the series was recorded at a different window width —
    /// mixing widths in one store would make windows incomparable.
    pub fn push(&mut self, key: &str, series: TelemSeries) {
        assert_eq!(
            series.window, self.window,
            "{key}: series window {} != store window {}",
            series.window, self.window
        );
        self.runs.push(TelemRun {
            key: key.to_string(),
            series,
        });
    }

    /// Find a run by its record identity key.
    pub fn find(&self, key: &str) -> Option<&TelemRun> {
        self.runs.iter().find(|r| r.key == key)
    }

    /// Serialize to the canonical byte-deterministic JSON document.
    pub fn to_json_string(&self) -> String {
        let runs = Json::Arr(
            self.runs
                .iter()
                .map(|r| {
                    Json::obj()
                        .with("key", Json::Str(r.key.clone()))
                        .with("cycles", Json::Num(r.series.cycles as f64))
                        .with("busy", rle_encode(&r.series.busy))
                        .with(
                            "comps",
                            Json::Arr(r.series.comps.iter().map(comp_to_json).collect()),
                        )
                })
                .collect(),
        );
        envelope(TELEM_SCHEMA_VERSION, &self.generator)
            .with("window", Json::Num(self.window as f64))
            .with("runs", runs)
            .render()
    }

    /// Parse a document produced by [`TelemSet::to_json_string`].
    ///
    /// Rejects schema-version mismatches outright, like the record
    /// store: telemetry written by a different schema must be
    /// regenerated, not reinterpreted.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let doc = open(text, "telemetry", TELEM_SCHEMA_VERSION)?;
        let window = doc
            .get("window")
            .and_then(Json::as_u64)
            .filter(|&w| w >= 1)
            .ok_or_else(|| "document missing positive 'window'".to_string())?;
        let runs_json = array(&doc, "runs")?;
        let mut runs = Vec::with_capacity(runs_json.len());
        for run in runs_json {
            let key = run
                .get("key")
                .and_then(Json::as_str)
                .ok_or_else(|| "run missing 'key'".to_string())?
                .to_string();
            let cycles = run
                .get("cycles")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{key}: missing 'cycles'"))?;
            let windows = if cycles == 0 {
                0
            } else {
                cycles.div_ceil(window) as usize
            };
            let busy = rle_decode(
                run.get("busy")
                    .ok_or_else(|| format!("{key}: missing 'busy'"))?,
                windows,
                &format!("{key}.busy"),
            )?;
            let comps = run
                .get("comps")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{key}: missing 'comps' array"))?
                .iter()
                .map(|c| comp_from_json(c, windows).map_err(|e| format!("{key}: {e}")))
                .collect::<Result<Vec<_>, _>>()?;
            runs.push(TelemRun {
                key,
                series: TelemSeries {
                    cycles,
                    window,
                    busy,
                    comps,
                },
            });
        }
        unique_keys(runs.iter().map(|r| r.key.as_str()))?;
        Ok(Self {
            generator: generator(&doc)?,
            window,
            runs,
        })
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A small synthetic store: one dot-like run with a front end busy
    /// through the first two windows, a reducer with a drain tail and a
    /// latency sample, over 10 cycles at window 4.
    pub fn sample_set() -> TelemSet {
        let mut front = CompSeries {
            name: "dot/front-end".to_string(),
            busy: vec![4, 4, 0],
            ..CompSeries::default()
        };
        front.stalls[StallCause::Drain.index()] = vec![0, 0, 2];
        front.depth_sum = vec![8, 8, 0];
        front.depth_samples = vec![4, 4, 0];
        let mut reducer = CompSeries {
            name: "dot/reducer".to_string(),
            busy: vec![3, 4, 1],
            ..CompSeries::default()
        };
        reducer.stalls[StallCause::Drain.index()] = vec![1, 0, 1];
        reducer.latency.record(10);
        for c in [&mut front, &mut reducer] {
            for s in &mut c.stalls {
                s.resize(3, 0);
            }
            c.depth_sum.resize(3, 0);
            c.depth_samples.resize(3, 0);
        }
        let series = TelemSeries {
            cycles: 10,
            window: 4,
            busy: vec![4, 4, 2],
            comps: vec![front, reducer],
        };
        let mut set = TelemSet::new("unit-test", 4);
        set.push("dot[k=2,n=16]", series);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::sample_set;
    use super::*;
    use fblas_metrics::artifact::{file_name, list_files, load, next_index, save, TELEM};

    #[test]
    fn rle_round_trips() {
        for v in [
            vec![],
            vec![7],
            vec![0, 0, 0, 5, 5, 1],
            vec![1, 2, 3, 4],
            vec![9; 100],
        ] {
            let encoded = rle_encode(&v);
            assert_eq!(rle_decode(&encoded, v.len(), "t").unwrap(), v);
        }
        // Long constant stretches compress to one pair.
        let Json::Arr(pairs) = rle_encode(&[3; 64]) else {
            panic!("rle_encode returns an array")
        };
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn rle_length_mismatch_is_an_error() {
        let encoded = rle_encode(&[1, 1, 2]);
        let err = rle_decode(&encoded, 5, "t").unwrap_err();
        assert!(err.contains("expected 5"), "{err}");
    }

    #[test]
    fn set_round_trips_losslessly() {
        let set = sample_set();
        let text = set.to_json_string();
        let parsed = TelemSet::from_json_str(&text).unwrap();
        assert_eq!(parsed, set);
        assert!(parsed.find("dot[k=2,n=16]").is_some());
        assert!(parsed.find("dot[k=2,n=17]").is_none());
    }

    #[test]
    fn serialization_is_byte_deterministic() {
        assert_eq!(sample_set().to_json_string(), sample_set().to_json_string());
    }

    #[test]
    fn schema_version_bump_is_detected() {
        let text = sample_set().to_json_string().replacen(
            &format!("\"schema_version\": {TELEM_SCHEMA_VERSION}"),
            &format!("\"schema_version\": {}", TELEM_SCHEMA_VERSION + 1),
            1,
        );
        let err = TelemSet::from_json_str(&text).unwrap_err();
        assert!(err.contains("schema version mismatch"), "{err}");
    }

    #[test]
    fn latency_histograms_survive_the_store() {
        let set = sample_set();
        let parsed = TelemSet::from_json_str(&set.to_json_string()).unwrap();
        let reducer = &parsed.runs[0].series.comps[1];
        assert_eq!(reducer.latency.samples(), 1);
        assert_eq!(reducer.latency.min(), 10);
        assert_eq!(reducer.latency.max(), 10);
    }

    #[test]
    fn trajectory_scan_and_next_index() {
        let dir = std::env::temp_dir().join("fblas_telemetry_store_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let set = sample_set();
        for index in [1, 2] {
            save(&dir.join(file_name(TELEM, index)), &set.to_json_string()).unwrap();
        }
        let files = list_files(&dir, TELEM);
        assert_eq!(files.iter().map(|&(i, _)| i).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(next_index(&dir, TELEM), 3);
        assert_eq!(load(&files[0].1, TelemSet::from_json_str).unwrap(), set);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeated_run_keys_are_rejected() {
        let mut set = sample_set();
        let run = set.runs[0].clone();
        set.runs.push(run);
        let err = TelemSet::from_json_str(&set.to_json_string()).unwrap_err();
        assert_eq!(err, "duplicate record key 'dot[k=2,n=16]'");
    }

    #[test]
    fn mixed_window_push_panics() {
        let set = sample_set();
        let mut other = TelemSet::new("t", 8);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            other.push("x", set.runs[0].series.clone());
        }));
        assert!(r.is_err(), "window mismatch must panic");
    }
}
