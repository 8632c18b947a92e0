//! Paper-parity observatory: canonical run records, trajectory files and
//! regression gates.
//!
//! The SC'05 reproduction derives all of its value from a set of numbers —
//! sustained MFLOPS, cycle counts, slices and clock rates versus Tables
//! 1–4 and Figures 9–12. This crate makes those numbers *persistent
//! artifacts* instead of transient stdout:
//!
//! * [`RunRecord`] — one schema-versioned measurement: kernel + config
//!   identity, the raw [`SimReport`](fblas_sim::SimReport) counters, the
//!   probe layer's stall-cause breakdown, modeled area/clock, sustained
//!   MFLOPS, compute- vs bandwidth-bound classification and paper-parity
//!   deltas.
//! * [`artifact`] — the one store every committed family shares: the
//!   `schema_version`/`generator` envelope, load/save, the
//!   `<PREFIX>_<n>.json` trajectory convention, the generic [`Store`]
//!   and the exact cell-diff gate.
//! * [`RecordSet`] / [`store`] — the `BENCH_<n>.json` record set and its
//!   wall-clock sidecar.
//! * [`tolerance`] — the one shared table of paper-reported values and
//!   tolerances that every parity check reads.
//! * [`diff`] — strict baseline comparison (cycle drift, MFLOPS drift,
//!   stall-attribution drift, parity-band exits) with a CI exit code.
//! * [`report`] — markdown scoreboards and ASCII-sparkline trajectories
//!   spliced into `EXPERIMENTS.md`.
//! * [`faults`] — fault-coverage records and the reliability scoreboard
//!   emitted by `observatory faults` (same determinism contract, its own
//!   schema version and `EXPERIMENTS.md` marker pair).
//! * [`serve`] — serving-campaign records (`SERVE_<n>.json`): per-tenant
//!   admission/latency/SLO accounting for the BLAS-as-a-service front
//!   end, with the same byte-determinism contract and a strict baseline
//!   diff gate.
//! * [`scale`] — multi-FPGA scaling records (`SCALE_<n>.json`): one row
//!   per shard plan of the simulated fabric campaign, gated against the
//!   §6.4 projections with a committed per-kernel tolerance table.
//!
//! JSON is hand-rolled ([`json`]) because the workspace vendors no
//! serialization crates; the writer is byte-deterministic by contract.

#![forbid(unsafe_code)]

pub mod artifact;
pub mod diff;
pub mod faults;
pub mod json;
pub mod record;
pub mod report;
pub mod scale;
pub mod serve;
pub mod store;
pub mod tolerance;

pub use artifact::{diff_cells, CellDiff, Record, Store};
pub use diff::{diff_sets, DiffReport, DiffSeverity};
pub use faults::{
    coverage, render_fault_scoreboard, render_fault_section, splice_fault_section, DegradedRecord,
    FaultCoverage, FaultRecord, FaultSet, FAULT_SCHEMA_VERSION,
};
pub use json::Json;
pub use record::{Bound, PaperParity, RecordKind, RunRecord, StallBreakdown, SCHEMA_VERSION};
pub use scale::{
    diff_scale, render_scale_section, scale_tolerance, splice_scale_section, ScaleDiff,
    ScaleRecord, ScaleSet, SCALE_SCHEMA_VERSION, SCALE_SOUNDNESS_EPS, SCALE_TOLERANCES,
};
pub use serve::{LatencyDigest, ServeRecord, ServeSet, TenantRecord, SERVE_SCHEMA_VERSION};
pub use store::{RecordSet, WallClock, WallClockEntry};
pub use tolerance::{lookup, PaperTolerance, PAPER_TOLERANCES};
