//! Execution backends: *what is the result* vs *what does it cost*.
//!
//! Every number in this workspace used to come from one place: the
//! cycle-stepped softfloat datapath. That couples two questions that are
//! separable for fully synchronous, value-independent schedules:
//!
//! 1. **What is the result?** For the streaming BLAS designs the numeric
//!    answer is determined by the operand order the datapath applies —
//!    which is itself a pure function of the schedule, not of simulation.
//! 2. **What does it cost?** Cycle counts, stall attribution and
//!    occupancy histograms depend only on shapes, rates and pipeline
//!    depths — never on the operand *values* (see DESIGN.md §13 for the
//!    value-independence argument).
//!
//! [`ExecBackend`] selects how a [`Harness`](crate::Harness) answers the
//! two questions:
//!
//! * [`ExecBackend::Cycle`] — the reference path: every cycle is stepped
//!   through [`Design::cycle`](crate::Design::cycle). Always available.
//! * [`ExecBackend::Native`] — the fast path: a design whose streaming
//!   phase is provably quiescent (input rate ≥ consumption rate, reducer
//!   never back-pressures) replays the whole run in a fused loop via
//!   [`Design::fast_forward`](crate::Design::fast_forward), performing
//!   the *same* softfloat arithmetic in the *same* order as the datapath
//!   (adder tree and reduction circuit included) while reconstructing
//!   probe counters analytically. Because the paper's schedules do not
//!   depend on operand values, results and reports are bit-identical to
//!   cycle stepping on every input, at a fraction of the wall clock.
//!
//! Fast-forwarding is *declined* — transparently falling back to cycle
//! stepping — whenever its soundness preconditions fail: armed faults,
//! deep (waveform) probes, fractional channel rates below the consume
//! width, or a reducer that can stall.

use std::fmt;
use std::str::FromStr;

/// How a harness executes a design: see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// Step every cycle through `Design::cycle` (reference semantics).
    #[default]
    Cycle,
    /// Replay quiescent streaming phases in a fused loop; identical
    /// arithmetic in identical order, analytically reconstructed
    /// counters.
    Native,
}

impl ExecBackend {
    /// All backends, in the order the CLI documents them.
    pub const ALL: [ExecBackend; 2] = [ExecBackend::Cycle, ExecBackend::Native];

    /// Whether this backend asks designs to fast-forward quiescent
    /// phases.
    pub fn fast_forwards(self) -> bool {
        matches!(self, ExecBackend::Native)
    }

    /// The canonical CLI spelling (`cycle`, `native`).
    pub fn as_str(self) -> &'static str {
        match self {
            ExecBackend::Cycle => "cycle",
            ExecBackend::Native => "native",
        }
    }
}

impl fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ExecBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cycle" => Ok(ExecBackend::Cycle),
            "native" => Ok(ExecBackend::Native),
            other => Err(format!(
                "unknown backend {other:?} (expected cycle or native)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_strings() {
        for b in ExecBackend::ALL {
            assert_eq!(b.as_str().parse::<ExecBackend>().unwrap(), b);
            assert_eq!(format!("{b}"), b.as_str());
        }
    }

    #[test]
    fn unknown_backends_are_diagnosed() {
        for name in ["turbo", "fast-forward", "ff"] {
            let err = name.parse::<ExecBackend>().unwrap_err();
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn default_is_cycle_and_only_cycle_declines_fast_forward() {
        assert_eq!(ExecBackend::default(), ExecBackend::Cycle);
        assert!(!ExecBackend::Cycle.fast_forwards());
        assert!(ExecBackend::Native.fast_forwards());
    }
}
