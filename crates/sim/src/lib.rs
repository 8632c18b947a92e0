//! Cycle-stepped dataflow simulation kernel.
//!
//! Every architecture in this workspace (reduction circuits, the tree-based
//! dot-product / matrix-vector designs, the linear-array matrix multiplier)
//! is expressed as a synchronous digital circuit: a collection of stateful
//! components that all observe the same clock. This crate provides the small
//! set of primitives those models are built from:
//!
//! * [`DelayLine`] — a fixed-latency pipeline register chain, the model of a
//!   deeply pipelined floating-point unit's timing behaviour.
//! * [`Fifo`] — a bounded queue with high-water-mark tracking, the model of
//!   an on-chip buffer whose size we must prove bounded.
//! * [`Throttle`] — a token-bucket rate limiter, the model of a
//!   bandwidth-limited memory channel (words per cycle, possibly
//!   fractional).
//! * [`ClockDomain`] — converts cycle counts into wall-clock time and
//!   sustained FLOPS given a clock frequency in MHz.
//! * [`Topology`] — the static channel-graph descriptor (`graph` module)
//!   designs export for `fblas-check`'s deadlock-freedom and
//!   throughput-bound analyses.
//!
//! On top of the primitives sits the shared run engine:
//!
//! * [`Design`] — the setup → stream → drain lifecycle every architecture
//!   implements; one [`Design::cycle`] call advances all of a design's
//!   components by one clock.
//! * [`Harness`] — owns the run loop: cycle counting, the hard cycle
//!   limit, the livelock watchdog, and [`SimReport`] assembly.
//! * [`Probe`] — the instrumentation layer: named per-component counters
//!   with stall-cause attribution ([`StallCause`]), occupancy histograms
//!   and high-water marks, and — in deep mode — waveforms exportable as
//!   JSON summaries or Chrome `trace_event` timelines.
//! * [`SimReport`] — the per-run accounting record behind the paper's
//!   tables, built centrally by the harness from probe counters.
//!
//! # Components
//!
//! A *component* here is any stateful struct advanced once per clock from
//! inside [`Design::cycle`] — the delay lines, FIFOs, throttles and
//! reducers above. Composite designs tick their sub-components in
//! dataflow order within one `cycle` call.
//!
//! The kernel is deliberately *not* an event-driven simulator: the
//! architectures in the SC'05 paper are fully synchronous and compute-dense
//! (some unit does work almost every cycle), so stepping every cycle is both
//! simpler and faster than maintaining an event queue.

#![forbid(unsafe_code)]

pub mod backend;
pub mod clock;
pub mod delay;
pub mod event;
pub mod fault;
pub mod fifo;
pub mod graph;
pub mod harness;
pub mod probe;
pub mod report;
pub mod stats;
pub mod telem;
pub mod throttle;

pub use backend::ExecBackend;
pub use clock::ClockDomain;
pub use delay::DelayLine;
pub use event::EventQueue;
pub use fault::{clear_f64_bit, flip_f64_bit, ArmedFaults, FaultKind, FaultLog, FaultSpec};
pub use fifo::{Fifo, FifoFull};
pub use graph::{Edge, EdgeKind, Node, NodeId, NodeRole, Topology};
pub use harness::{Design, Harness, LIVELOCK_WINDOW};
pub use probe::{ComponentStats, DepthRuns, Probe, ProbeId, RunMark, StallCause};
pub use report::SimReport;
pub use stats::{Histogram, LogHistogram};
pub use telem::{CompSeries, SpanRuns, TelemSeries, DEFAULT_TELEM_WINDOW};
pub use throttle::Throttle;
