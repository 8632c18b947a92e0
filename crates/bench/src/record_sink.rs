//! Shared `--json <out.json>` support for the bench binaries.
//!
//! Every table/figure binary accepts `--json <path>` (also spelled
//! `--json=<path>`). When the flag is present the binary pushes a
//! [`RunRecord`] for each measurement it derives into a [`RecordSink`]
//! and, on exit, writes the whole [`RecordSet`] — the same canonical,
//! schema-versioned format the `observatory` binary persists as
//! `BENCH_<n>.json` — to the path. Without the flag the sink is inert,
//! so binaries push unconditionally.

use std::path::PathBuf;

use fblas_metrics::{artifact, RecordSet, RunRecord, StallBreakdown};
use fblas_sim::Harness;

use crate::cli;

/// Result of scanning the process arguments for `--json`, plus the
/// records collected so far.
pub struct RecordSink {
    path: Option<PathBuf>,
    set: RecordSet,
}

/// Compile-time audit: sinks hold only owned data, so a future parallel
/// binary can move one into a worker or collect records across threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<RecordSink>();
};

impl RecordSink {
    /// Scan `std::env::args` for `--json <path>` / `--json=<path>`.
    ///
    /// `generator` names the producing binary in the record set.
    /// Exits with an error message when the flag is given without a path.
    pub fn from_args(generator: &str) -> Self {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        Self {
            path: cli::or_exit(cli::take_value(&mut args, "--json")).map(PathBuf::from),
            set: RecordSet::new(generator),
        }
    }

    /// Whether a record file was requested.
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Collect one record (cheap; kept even when disabled so callers
    /// need no conditionals).
    pub fn push(&mut self, record: RunRecord) {
        self.set.push(record);
    }

    /// Write the collected records, if a path was requested. Exits with
    /// an error message on I/O failure.
    pub fn write(&self) {
        let Some(path) = &self.path else { return };
        match artifact::save(path, &self.set.to_json_string()) {
            Ok(()) => eprintln!("records: wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write records: {e}");
                std::process::exit(2);
            }
        }
    }
}

/// Run one kernel through `harness` and attribute the stalls it caused.
///
/// Snapshots the probe's aggregated per-cause stall totals around the
/// run, so binaries that share one harness across many kernels still get
/// per-run [`StallBreakdown`]s.
pub fn measure<T>(
    harness: &mut Harness,
    run: impl FnOnce(&mut Harness) -> T,
) -> (T, StallBreakdown) {
    let before = harness.probe().stall_totals();
    let out = run(harness);
    let after = harness.probe().stall_totals();
    (out, StallBreakdown::from_delta(before, after))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fblas_core::dot::{DotParams, DotProductDesign};

    #[test]
    fn measure_attributes_stalls_per_run() {
        let mut h = Harness::new();
        let design = DotProductDesign::standalone(DotParams::table3(), 170.0);
        let u = crate::synth_int(1, 128, 8);
        let v = crate::synth_int(2, 128, 8);
        let (first, s1) = measure(&mut h, |h| design.run_in(h, &u, &v));
        let (second, s2) = measure(&mut h, |h| design.run_in(h, &u, &v));
        // Identical runs through one shared harness yield identical
        // per-run deltas (the snapshots isolate them).
        assert_eq!(first.report, second.report);
        assert_eq!(s1, s2);
    }
}
