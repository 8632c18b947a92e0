//! The one artifact store: what every committed JSON family shares.
//!
//! The observatory pins its results in five families — BENCH, TELEM,
//! SERVE, SCALE and FAULTS. Each document opens with the same envelope
//! (`schema_version`, then `generator`), is read and written whole, and
//! — for the trajectory families — lives at the repository root as
//! `<PREFIX>_<n>.json`. This module owns those pieces once:
//!
//! * [`open`] / [`envelope`] — parse and emit the envelope, rejecting a
//!   schema mismatch with one message naming the family;
//! * [`load`] / [`save`] — file IO with the path in every error;
//! * [`file_name`] / [`list_files`] / [`next_index`] — the trajectory
//!   convention, keyed by prefix ([`BENCH`], [`TELEM`], [`SERVE`],
//!   [`SCALE`]);
//! * [`Store`] — the `{schema_version, generator, records}` families,
//!   generic over a [`Record`] row type;
//! * [`diff_cells`] — the exact cell-diff gate: every baseline cell must
//!   exist with identical contents, new cells are informational.
//!
//! A record type supplies only what differs: its JSON body, its cell
//! key and the drift causes the gate names when a cell changes.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::json::Json;

/// Trajectory prefix of the paper-matrix record sets.
pub const BENCH: &str = "BENCH";
/// Trajectory prefix of the windowed-telemetry stores.
pub const TELEM: &str = "TELEM";
/// Trajectory prefix of the serving-campaign stores.
pub const SERVE: &str = "SERVE";
/// Trajectory prefix of the multi-FPGA scaling stores.
pub const SCALE: &str = "SCALE";

/// Parse a document and check its `schema_version`.
///
/// A document written by a different schema must be regenerated, not
/// reinterpreted, so a mismatch is an error naming the `kind` of store.
pub fn open(text: &str, kind: &str, version: u64) -> Result<Json, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let found = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| "document missing 'schema_version'".to_string())?;
    if found != version {
        return Err(format!(
            "{kind} schema version mismatch: file has v{found}, this tool speaks v{version} \
             — regenerate the store"
        ));
    }
    Ok(doc)
}

/// The `generator` member of an opened document.
pub fn generator(doc: &Json) -> Result<String, String> {
    doc.get("generator")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "document missing 'generator'".to_string())
}

/// The envelope every store document starts with.
pub fn envelope(version: u64, generator: &str) -> Json {
    Json::obj()
        .with("schema_version", Json::Num(version as f64))
        .with("generator", Json::Str(generator.to_string()))
}

/// The `name` array member of a document.
pub fn array<'a>(doc: &'a Json, name: &str) -> Result<&'a [Json], String> {
    doc.get(name)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("document missing '{name}' array"))
}

/// Reject a store whose rows repeat an identity key: the gates match
/// cells by key, so a repeated row would shadow its twin.
pub fn unique_keys<K: Ord + std::fmt::Display>(
    keys: impl IntoIterator<Item = K>,
) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    for key in keys {
        if seen.contains(&key) {
            return Err(format!("duplicate record key '{key}'"));
        }
        seen.insert(key);
    }
    Ok(())
}

/// Read `path` and parse it with `parse`.
pub fn load<T>(path: &Path, parse: impl FnOnce(&str) -> Result<T, String>) -> Result<T, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Write a rendered document to `path`.
pub fn save(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// File name of trajectory point `index`: `BENCH_0007.json`.
pub fn file_name(prefix: &str, index: u64) -> String {
    format!("{prefix}_{index:04}.json")
}

/// Parse an index out of a `<prefix>_<n>.json` file name. Dotted
/// names such as the `BENCH_0001.wallclock.json` sidecar are not
/// trajectory points.
fn parse_index(prefix: &str, name: &str) -> Option<u64> {
    let rest = name
        .strip_prefix(prefix)?
        .strip_prefix('_')?
        .strip_suffix(".json")?;
    if rest.contains('.') {
        return None;
    }
    rest.parse().ok()
}

/// The `<prefix>_*.json` files in `dir`, sorted by index.
pub fn list_files(dir: &Path, prefix: &str) -> Vec<(u64, PathBuf)> {
    let mut found = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Some(index) = entry
                .file_name()
                .to_str()
                .and_then(|name| parse_index(prefix, name))
            {
                found.push((index, entry.path()));
            }
        }
    }
    found.sort_by_key(|&(index, _)| index);
    found
}

/// First unused trajectory index for `prefix` in `dir` (1-based).
pub fn next_index(dir: &Path, prefix: &str) -> u64 {
    list_files(dir, prefix)
        .last()
        .map_or(1, |&(index, _)| index + 1)
}

/// One row of a [`Store`].
pub trait Record: Sized + PartialEq {
    /// Family name used in schema errors and the diff verdict, e.g.
    /// `"scale"`.
    const KIND: &'static str;
    /// Schema version of the family's documents. Bump on any field
    /// change.
    const SCHEMA_VERSION: u64;

    /// Identity key, unique within a store; the diff gate matches
    /// cells across runs by it.
    fn cell_key(&self) -> String;

    /// Serialize with a fixed member order.
    fn to_json(&self) -> Json;

    /// Parse a row serialized by [`Record::to_json`].
    fn from_json(json: &Json) -> Result<Self, String>;

    /// The summarized differences the diff gate reports when `self`
    /// drifted from `baseline`. Empty means the drift lies outside the
    /// summarized fields.
    fn drift(&self, _baseline: &Self) -> Vec<String> {
        Vec::new()
    }
}

/// A schema-versioned, ordered collection of rows from one run.
///
/// Serializes deterministically — no timestamps, no host information —
/// so re-running an unchanged tree produces byte-identical files.
#[derive(Debug, Clone, PartialEq)]
pub struct Store<R> {
    /// Tool that produced the set, e.g. `"observatory"`.
    pub generator: String,
    /// The rows, in run order.
    pub records: Vec<R>,
}

impl<R: Record> Store<R> {
    /// An empty set for `generator`.
    pub fn new(generator: &str) -> Self {
        Self {
            generator: generator.to_string(),
            records: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, record: R) {
        self.records.push(record);
    }

    /// Find a row by its identity key.
    pub fn find(&self, key: &str) -> Option<&R> {
        self.records.iter().find(|r| r.cell_key() == key)
    }

    /// Serialize to the canonical byte-deterministic JSON document.
    pub fn to_json_string(&self) -> String {
        envelope(R::SCHEMA_VERSION, &self.generator)
            .with(
                "records",
                Json::Arr(self.records.iter().map(R::to_json).collect()),
            )
            .render()
    }

    /// Parse a document produced by [`Store::to_json_string`],
    /// rejecting schema mismatches and repeated cell keys.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let doc = open(text, R::KIND, R::SCHEMA_VERSION)?;
        let records = array(&doc, "records")?
            .iter()
            .map(R::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        unique_keys(records.iter().map(R::cell_key))?;
        Ok(Self {
            generator: generator(&doc)?,
            records,
        })
    }
}

/// Result of gating a regenerated store against a baseline.
#[derive(Debug, Clone, Default)]
pub struct CellDiff {
    /// Family name for the verdict line, e.g. `"scale"`.
    pub kind: &'static str,
    /// Human-readable per-cell findings, in baseline order.
    pub lines: Vec<String>,
    /// Number of gate failures (0 means the diff passes).
    pub failures: u64,
}

impl CellDiff {
    /// Whether the regenerated store matches the baseline.
    pub fn pass(&self) -> bool {
        self.failures == 0
    }

    /// Render the findings (one line each) followed by a verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        if self.pass() {
            out.push_str(&format!("{} diff: PASS\n", self.kind));
        } else {
            out.push_str(&format!(
                "{} diff: FAIL ({} finding(s))\n",
                self.kind, self.failures
            ));
        }
        out
    }
}

/// Strict comparison of a regenerated store against a committed
/// baseline.
///
/// The campaigns are deterministic end to end, so the gate is exact:
/// every baseline cell must exist with identical contents. Cells present
/// only in `current` are reported as informational (new cells are how a
/// campaign grows) and do not fail the gate.
pub fn diff_cells<R: Record>(current: &Store<R>, baseline: &Store<R>) -> CellDiff {
    let mut diff = CellDiff {
        kind: R::KIND,
        ..CellDiff::default()
    };
    for base in &baseline.records {
        let cell = base.cell_key();
        match current.find(&cell) {
            None => {
                diff.lines
                    .push(format!("{cell}: MISSING from regenerated campaign"));
                diff.failures += 1;
            }
            Some(cur) if cur == base => diff.lines.push(format!("{cell}: ok")),
            Some(cur) => {
                let mut causes = cur.drift(base);
                if causes.is_empty() {
                    causes.push("field drift outside summarized counters".to_string());
                }
                diff.lines
                    .push(format!("{cell}: DRIFT — {}", causes.join("; ")));
                diff.failures += 1;
            }
        }
    }
    for cur in &current.records {
        let cell = cur.cell_key();
        if baseline.find(&cell).is_none() {
            diff.lines
                .push(format!("{cell}: new cell (not in baseline)"));
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal row: a key and one counter.
    #[derive(Debug, Clone, PartialEq)]
    struct Row {
        key: String,
        count: u64,
    }

    impl Record for Row {
        const KIND: &'static str = "test";
        const SCHEMA_VERSION: u64 = 3;

        fn cell_key(&self) -> String {
            self.key.clone()
        }

        fn to_json(&self) -> Json {
            Json::obj()
                .with("key", Json::Str(self.key.clone()))
                .with("count", Json::Num(self.count as f64))
        }

        fn from_json(json: &Json) -> Result<Self, String> {
            Ok(Self {
                key: json
                    .get("key")
                    .and_then(Json::as_str)
                    .ok_or("row missing 'key'")?
                    .to_string(),
                count: json
                    .get("count")
                    .and_then(Json::as_u64)
                    .ok_or("row missing 'count'")?,
            })
        }

        fn drift(&self, baseline: &Self) -> Vec<String> {
            vec![format!(
                "count {} != baseline {}",
                self.count, baseline.count
            )]
        }
    }

    fn row(key: &str, count: u64) -> Row {
        Row {
            key: key.to_string(),
            count,
        }
    }

    fn sample() -> Store<Row> {
        let mut set = Store::new("unit-test");
        set.push(row("a", 1));
        set.push(row("b", 2));
        set
    }

    #[test]
    fn store_round_trips_and_finds_by_key() {
        let set = sample();
        let text = set.to_json_string();
        assert!(text.starts_with("{\n  \"schema_version\": 3,\n  \"generator\": \"unit-test\""));
        let parsed = Store::<Row>::from_json_str(&text).unwrap();
        assert_eq!(parsed, set);
        assert_eq!(parsed.find("b"), Some(&row("b", 2)));
        assert_eq!(parsed.find("c"), None);
    }

    #[test]
    fn schema_mismatch_names_the_family() {
        let text =
            sample()
                .to_json_string()
                .replacen("\"schema_version\": 3", "\"schema_version\": 4", 1);
        let err = Store::<Row>::from_json_str(&text).unwrap_err();
        assert_eq!(
            err,
            "test schema version mismatch: file has v4, this tool speaks v3 — regenerate the store"
        );
    }

    #[test]
    fn repeated_cell_keys_are_rejected_by_name() {
        let mut set = sample();
        set.push(row("a", 1));
        let err = Store::<Row>::from_json_str(&set.to_json_string()).unwrap_err();
        assert_eq!(err, "duplicate record key 'a'");
    }

    #[test]
    fn missing_members_are_errors() {
        for (text, what) in [
            ("{\"generator\": \"g\", \"records\": []}", "schema_version"),
            ("{\"schema_version\": 3, \"records\": []}", "generator"),
            ("{\"schema_version\": 3, \"generator\": \"g\"}", "records"),
        ] {
            let err = Store::<Row>::from_json_str(text).unwrap_err();
            assert!(err.contains(what), "{err}");
        }
    }

    #[test]
    fn diff_passes_on_identity_and_reports_drift_missing_and_new() {
        let set = sample();
        let diff = diff_cells(&set, &set);
        assert!(diff.pass());
        assert_eq!(diff.render(), "a: ok\nb: ok\ntest diff: PASS\n");

        let mut drifted = sample();
        drifted.records[1].count = 5;
        drifted.records.remove(0);
        drifted.push(row("c", 0));
        let diff = diff_cells(&drifted, &set);
        assert_eq!(diff.failures, 2);
        assert_eq!(
            diff.render(),
            "a: MISSING from regenerated campaign\n\
             b: DRIFT — count 5 != baseline 2\n\
             c: new cell (not in baseline)\n\
             test diff: FAIL (2 finding(s))\n"
        );
    }

    #[test]
    fn file_names_parse_and_list_in_order() {
        for prefix in [BENCH, TELEM, SERVE, SCALE] {
            assert_eq!(file_name(prefix, 7), format!("{prefix}_0007.json"));
            let parse = |name: String| parse_index(prefix, &name);
            assert_eq!(parse(format!("{prefix}_0012.json")), Some(12));
            assert_eq!(parse(format!("{prefix}_12.json")), Some(12));
            assert_eq!(parse(format!("{prefix}_0001.wallclock.json")), None);
            assert_eq!(parse(format!("{prefix}_x.json")), None);
            assert_eq!(parse(format!("{prefix}0001.json")), None);
            assert_eq!(parse("baseline.json".to_string()), None);

            let dir = std::env::temp_dir()
                .join(format!("fblas-artifact-{prefix}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            assert_eq!(next_index(&dir, prefix), 1);
            let text = sample().to_json_string();
            save(&dir.join(file_name(prefix, 1)), &text).unwrap();
            save(&dir.join(file_name(prefix, 3)), &text).unwrap();
            save(&dir.join(format!("{prefix}_0003.wallclock.json")), "{}").unwrap();
            let other = if prefix == BENCH { SCALE } else { BENCH };
            save(&dir.join(file_name(other, 9)), &text).unwrap();
            let files = list_files(&dir, prefix);
            assert_eq!(files.iter().map(|&(i, _)| i).collect::<Vec<_>>(), [1, 3]);
            assert_eq!(next_index(&dir, prefix), 4);
            let loaded = load(&files[1].1, Store::<Row>::from_json_str).unwrap();
            assert_eq!(loaded, sample());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn load_errors_name_the_path() {
        let missing = std::env::temp_dir().join("fblas-artifact-missing.json");
        let err = load(&missing, Store::<Row>::from_json_str).unwrap_err();
        assert!(err.starts_with("cannot read "), "{err}");
        assert!(err.contains("fblas-artifact-missing.json"), "{err}");
    }
}
