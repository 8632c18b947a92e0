//! Pipelined floating-point unit models.
//!
//! The paper's adder has α = 14 pipeline stages and its multiplier 11
//! (Table 2): one operation may be issued per cycle and the result emerges
//! exactly α cycles later. These wrappers combine the bit-accurate
//! [`softfloat`](crate::softfloat) datapath with a
//! [`DelayLine`] timing model, and carry an arbitrary
//! `Tag` alongside each operation so architectures can route results
//! (e.g. "this sum belongs to output row 17").

#![cfg_attr(not(test), warn(clippy::float_arithmetic))]

use crate::softfloat::{sf_add, sf_mul};
use fblas_sim::DelayLine;

/// Pipeline depth of the paper's double-precision adder (α in the paper).
pub const ADDER_STAGES: usize = 14;
/// Pipeline depth of the paper's double-precision multiplier.
pub const MULTIPLIER_STAGES: usize = 11;

/// A result emerging from a pipelined unit, with its routing tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tagged<T> {
    /// The floating-point result.
    pub value: f64,
    /// Caller-supplied routing information.
    pub tag: T,
}

/// A pipelined floating-point unit computing `op(a, b)` with fixed latency.
#[derive(Debug, Clone)]
struct PipelinedUnit<T> {
    pipe: DelayLine<Tagged<T>>,
    ops_issued: u64,
    /// Operation staged for the next clock edge (see [`PipelinedUnit::stage`]).
    staged: Option<(f64, f64, T)>,
}

impl<T> PipelinedUnit<T> {
    fn new(stages: usize) -> Self {
        Self {
            pipe: DelayLine::new(stages),
            ops_issued: 0,
            staged: None,
        }
    }

    /// Stage an operation for the upcoming clock edge. The unit has one
    /// issue port: staging twice between edges is a double issue — two
    /// drivers on the same port — and a scheduling bug in the caller.
    fn stage(&mut self, a: f64, b: f64, tag: T) {
        assert!(
            self.staged.is_none(),
            "double issue: a single-issue floating-point unit was given two \
             operations in the same cycle"
        );
        self.staged = Some((a, b, tag));
    }

    fn step(&mut self, input: Option<(f64, f64, T)>, op: fn(u64, u64) -> u64) -> Option<Tagged<T>> {
        assert!(
            !(input.is_some() && self.staged.is_some()),
            "double issue: step(Some(..)) while another operation is staged \
             for this cycle"
        );
        let input = input.or_else(|| self.staged.take());
        let computed = input.map(|(a, b, tag)| {
            self.ops_issued += 1;
            Tagged {
                value: f64::from_bits(op(a.to_bits(), b.to_bits())),
                tag,
            }
        });
        self.pipe.step(computed)
    }
}

/// Pipelined IEEE-754 binary64 adder (α-stage, one issue per cycle).
///
/// # Examples
///
/// ```
/// use fblas_fpu::{PipelinedAdder, ADDER_STAGES};
///
/// let mut adder = PipelinedAdder::<u32>::new();
/// adder.step(Some((1.5, 2.25, 42))); // issue, tagged 42
/// let mut out = None;
/// for _ in 0..ADDER_STAGES {
///     out = adder.step(None); // result emerges after α cycles
/// }
/// let out = out.expect("after α cycles");
/// assert_eq!(out.value, 3.75);
/// assert_eq!(out.tag, 42);
/// ```
#[derive(Debug, Clone)]
pub struct PipelinedAdder<T = ()> {
    unit: PipelinedUnit<T>,
}

impl<T> PipelinedAdder<T> {
    /// Create an adder with the paper's default depth of [`ADDER_STAGES`].
    pub fn new() -> Self {
        Self::with_stages(ADDER_STAGES)
    }

    /// Create an adder with an explicit pipeline depth.
    pub fn with_stages(stages: usize) -> Self {
        Self {
            unit: PipelinedUnit::new(stages),
        }
    }

    /// Advance one cycle, optionally issuing `a + b` tagged with `tag`.
    /// Returns the operation issued `latency` cycles ago, if any.
    pub fn step(&mut self, input: Option<(f64, f64, T)>) -> Option<Tagged<T>> {
        self.unit.step(input, sf_add)
    }

    /// Stage `a + b` for the upcoming clock edge without advancing the
    /// clock; the next [`PipelinedAdder::step`]`(None)` issues it. Control
    /// logic with several candidate producers can use this split form —
    /// staging twice in one cycle panics (in release builds too),
    /// catching schedules that double-issue a single-issue unit.
    pub fn issue(&mut self, a: f64, b: f64, tag: T) {
        self.unit.stage(a, b, tag);
    }

    /// True if an operation is already staged for the upcoming edge.
    pub fn issue_pending(&self) -> bool {
        self.unit.staged.is_some()
    }

    /// The result that will emerge on the next [`PipelinedAdder::step`],
    /// visible on the same clock edge so the control logic can route it
    /// before choosing the next operation to issue.
    pub fn peek(&self) -> Option<&Tagged<T>> {
        self.unit.pipe.peek()
    }

    /// Pipeline depth in cycles.
    pub fn latency(&self) -> usize {
        self.unit.pipe.latency()
    }

    /// The results in flight by stage, the next to emerge first
    /// (bubbles as `None`).
    pub fn stages(&self) -> impl Iterator<Item = Option<&Tagged<T>>> {
        self.unit.pipe.stages()
    }

    /// [`PipelinedAdder::stages`], mutably: a fused replay that carries
    /// the adder through a recorded steady-state period rewrites the
    /// results in flight and their routing tags in place.
    pub fn stages_mut(&mut self) -> impl Iterator<Item = Option<&mut Tagged<T>>> {
        self.unit.pipe.stages_mut()
    }

    /// Number of additions currently in flight.
    pub fn in_flight(&self) -> usize {
        self.unit.pipe.in_flight()
    }

    /// True if the pipeline holds no in-flight additions.
    pub fn is_empty(&self) -> bool {
        self.unit.pipe.is_empty()
    }

    /// Total additions issued.
    pub fn ops_issued(&self) -> u64 {
        self.unit.ops_issued
    }

    /// Fraction of cycles in which an addition was issued.
    pub fn utilization(&self) -> f64 {
        self.unit.pipe.utilization()
    }

    /// Fault-injection hook: flip one bit of the result in flight at
    /// pipeline stage `stage` (0 = emerging next; reduced modulo the
    /// depth), modelling an SEU in an adder pipeline register. Returns
    /// false if that stage holds a bubble. Only call from a
    /// `Design::inject` implementation (`fault-hook-purity` DRC rule).
    pub fn fault_flip_in_flight(&mut self, stage: usize, bit: u32) -> bool {
        self.unit
            .pipe
            .fault_mutate(stage, |t| t.value = fblas_sim::flip_f64_bit(t.value, bit))
    }
}

impl<T> Default for PipelinedAdder<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Pipelined IEEE-754 binary64 multiplier (one issue per cycle).
#[derive(Debug, Clone)]
pub struct PipelinedMultiplier<T = ()> {
    unit: PipelinedUnit<T>,
}

impl<T> PipelinedMultiplier<T> {
    /// Create a multiplier with the paper's default depth of
    /// [`MULTIPLIER_STAGES`].
    pub fn new() -> Self {
        Self::with_stages(MULTIPLIER_STAGES)
    }

    /// Create a multiplier with an explicit pipeline depth.
    pub fn with_stages(stages: usize) -> Self {
        Self {
            unit: PipelinedUnit::new(stages),
        }
    }

    /// Advance one cycle, optionally issuing `a × b` tagged with `tag`.
    /// Returns the operation issued `latency` cycles ago, if any.
    pub fn step(&mut self, input: Option<(f64, f64, T)>) -> Option<Tagged<T>> {
        self.unit.step(input, sf_mul)
    }

    /// Stage `a × b` for the upcoming clock edge; see
    /// [`PipelinedAdder::issue`]. Double-staging panics.
    pub fn issue(&mut self, a: f64, b: f64, tag: T) {
        self.unit.stage(a, b, tag);
    }

    /// True if an operation is already staged for the upcoming edge.
    pub fn issue_pending(&self) -> bool {
        self.unit.staged.is_some()
    }

    /// The result that will emerge on the next
    /// [`PipelinedMultiplier::step`] (same-edge visibility; see
    /// [`PipelinedAdder::peek`]).
    pub fn peek(&self) -> Option<&Tagged<T>> {
        self.unit.pipe.peek()
    }

    /// Pipeline depth in cycles.
    pub fn latency(&self) -> usize {
        self.unit.pipe.latency()
    }

    /// Number of multiplications currently in flight.
    pub fn in_flight(&self) -> usize {
        self.unit.pipe.in_flight()
    }

    /// True if the pipeline holds no in-flight multiplications.
    pub fn is_empty(&self) -> bool {
        self.unit.pipe.is_empty()
    }

    /// Total multiplications issued.
    pub fn ops_issued(&self) -> u64 {
        self.unit.ops_issued
    }

    /// Fraction of cycles in which a multiplication was issued.
    pub fn utilization(&self) -> f64 {
        self.unit.pipe.utilization()
    }

    /// Fault-injection hook: flip one bit of the product in flight at
    /// pipeline stage `stage` (see
    /// [`PipelinedAdder::fault_flip_in_flight`]). Only call from a
    /// `Design::inject` implementation (`fault-hook-purity` DRC rule).
    pub fn fault_flip_in_flight(&mut self, stage: usize, bit: u32) -> bool {
        self.unit
            .pipe
            .fault_mutate(stage, |t| t.value = fblas_sim::flip_f64_bit(t.value, bit))
    }
}

impl<T> Default for PipelinedMultiplier<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Pipeline depth of a double-precision divider of the era (digit
/// recurrence, ~2 stages per quotient bit group). Not from the paper's
/// Table 2 — the paper's designs need no divider — but the Govindu core
/// library provides one; this depth is representative.
pub const DIVIDER_STAGES: usize = 32;
/// Representative pipeline depth of a double-precision square-root core.
pub const SQRT_STAGES: usize = 32;

/// Pipelined IEEE-754 binary64 divider (one issue per cycle).
#[derive(Debug, Clone)]
pub struct PipelinedDivider<T = ()> {
    unit: PipelinedUnit<T>,
}

impl<T> PipelinedDivider<T> {
    /// Create a divider with the representative depth [`DIVIDER_STAGES`].
    pub fn new() -> Self {
        Self::with_stages(DIVIDER_STAGES)
    }

    /// Create a divider with an explicit pipeline depth.
    pub fn with_stages(stages: usize) -> Self {
        Self {
            unit: PipelinedUnit::new(stages),
        }
    }

    /// Advance one cycle, optionally issuing `a / b` tagged with `tag`.
    pub fn step(&mut self, input: Option<(f64, f64, T)>) -> Option<Tagged<T>> {
        self.unit.step(input, crate::softfloat_ext::sf_div)
    }

    /// Pipeline depth in cycles.
    pub fn latency(&self) -> usize {
        self.unit.pipe.latency()
    }

    /// True if no divisions are in flight.
    pub fn is_empty(&self) -> bool {
        self.unit.pipe.is_empty()
    }
}

impl<T> Default for PipelinedDivider<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Pipelined IEEE-754 binary64 square-root unit (one issue per cycle).
#[derive(Debug, Clone)]
pub struct PipelinedSqrt<T = ()> {
    pipe: DelayLine<Tagged<T>>,
    ops_issued: u64,
}

impl<T> PipelinedSqrt<T> {
    /// Create a square-root unit with the representative depth
    /// [`SQRT_STAGES`].
    pub fn new() -> Self {
        Self::with_stages(SQRT_STAGES)
    }

    /// Create a unit with an explicit pipeline depth.
    pub fn with_stages(stages: usize) -> Self {
        Self {
            pipe: DelayLine::new(stages),
            ops_issued: 0,
        }
    }

    /// Advance one cycle, optionally issuing `√a` tagged with `tag`.
    pub fn step(&mut self, input: Option<(f64, T)>) -> Option<Tagged<T>> {
        let computed = input.map(|(a, tag)| {
            self.ops_issued += 1;
            Tagged {
                value: f64::from_bits(crate::softfloat_ext::sf_sqrt(a.to_bits())),
                tag,
            }
        });
        self.pipe.step(computed)
    }

    /// Pipeline depth in cycles.
    pub fn latency(&self) -> usize {
        self.pipe.latency()
    }

    /// True if no operations are in flight.
    pub fn is_empty(&self) -> bool {
        self.pipe.is_empty()
    }

    /// Total operations issued.
    pub fn ops_issued(&self) -> u64 {
        self.ops_issued
    }
}

impl<T> Default for PipelinedSqrt<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_result_after_exactly_alpha_cycles() {
        let mut add = PipelinedAdder::<u32>::new();
        assert_eq!(add.latency(), ADDER_STAGES);
        assert_eq!(add.step(Some((1.5, 2.25, 7))), None);
        for _ in 0..ADDER_STAGES - 1 {
            assert_eq!(add.step(None), None);
        }
        let out = add.step(None).expect("result after α cycles");
        assert_eq!(out.value, 3.75);
        assert_eq!(out.tag, 7);
    }

    #[test]
    fn multiplier_result_after_exactly_its_depth() {
        let mut mul = PipelinedMultiplier::<()>::new();
        assert_eq!(mul.latency(), MULTIPLIER_STAGES);
        mul.step(Some((3.0, 4.0, ())));
        for _ in 0..MULTIPLIER_STAGES - 1 {
            assert_eq!(mul.step(None), None);
        }
        assert_eq!(mul.step(None).unwrap().value, 12.0);
    }

    #[test]
    fn fully_pipelined_issue_one_result_per_cycle() {
        let mut add = PipelinedAdder::<usize>::with_stages(5);
        let mut results = Vec::new();
        for i in 0..20 {
            if let Some(r) = add.step(Some((i as f64, 1.0, i))) {
                results.push(r);
            }
        }
        while let Some(r) = add.step(None) {
            results.push(r);
            if add.is_empty() {
                break;
            }
        }
        assert_eq!(results.len(), 20);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.tag, i);
            assert_eq!(r.value, i as f64 + 1.0);
        }
    }

    #[test]
    fn utilization_reflects_issue_density() {
        let mut add = PipelinedAdder::<()>::with_stages(4);
        for i in 0..100 {
            let input = (i % 4 == 0).then_some((1.0, 1.0, ()));
            add.step(input);
        }
        assert!((add.utilization() - 0.25).abs() < 1e-12);
        assert_eq!(add.ops_issued(), 25);
    }

    #[test]
    fn divider_and_sqrt_units() {
        let mut div = PipelinedDivider::<u8>::with_stages(3);
        div.step(Some((1.0, 3.0, 9)));
        div.step(None);
        div.step(None);
        let out = div.step(None).expect("after 3 cycles");
        assert_eq!(out.value.to_bits(), (1.0f64 / 3.0f64).to_bits());
        assert_eq!(out.tag, 9);
        assert!(div.is_empty());

        let mut sq = PipelinedSqrt::<()>::with_stages(2);
        sq.step(Some((2.0, ())));
        sq.step(None);
        let out = sq.step(None).expect("after 2 cycles");
        assert_eq!(out.value.to_bits(), 2.0f64.sqrt().to_bits());
        assert_eq!(sq.ops_issued(), 1);
    }

    #[test]
    fn default_div_sqrt_depths() {
        assert_eq!(PipelinedDivider::<()>::new().latency(), DIVIDER_STAGES);
        assert_eq!(PipelinedSqrt::<()>::new().latency(), SQRT_STAGES);
    }

    #[test]
    fn results_are_bit_accurate_ieee754() {
        let mut mul = PipelinedMultiplier::<()>::with_stages(2);
        mul.step(Some((0.1, 0.2, ())));
        mul.step(None);
        let r = mul.step(None);
        // drained on the 2nd step after issue
        let r = r.or_else(|| mul.step(None)).unwrap();
        assert_eq!(r.value.to_bits(), (0.1f64 * 0.2f64).to_bits());
    }

    #[test]
    fn staged_issue_computes_like_direct_issue() {
        let mut adder = PipelinedAdder::<u8>::with_stages(3);
        adder.issue(1.5, 2.25, 7);
        assert!(adder.issue_pending());
        let mut out = adder.step(None); // the staged op enters the pipe here
        assert!(!adder.issue_pending());
        for _ in 0..3 {
            out = adder.step(None);
        }
        let out = out.expect("after the 3-stage latency");
        assert_eq!(out.value, 3.75);
        assert_eq!(out.tag, 7);
        assert!(!adder.issue_pending());
        assert_eq!(adder.ops_issued(), 1);
    }

    #[test]
    fn fault_flip_corrupts_exactly_one_in_flight_bit() {
        let mut add = PipelinedAdder::<u8>::with_stages(4);
        add.step(Some((1.0, 2.0, 1)));
        add.step(Some((4.0, 8.0, 2)));
        // Two results in flight: the older emerges at stage 2 (two more
        // steps of bubbles first), the younger right behind it at stage
        // 3. Flip the older result's sign bit.
        assert!(add.fault_flip_in_flight(2, 63));
        let mut out = Vec::new();
        for _ in 0..4 {
            if let Some(r) = add.step(None) {
                out.push(r);
            }
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value, -3.0, "sign bit flipped");
        assert_eq!(out[1].value, 12.0, "younger result untouched");
        // An empty pipeline masks the fault.
        let mut idle = PipelinedMultiplier::<()>::with_stages(3);
        assert!(!idle.fault_flip_in_flight(0, 51));
    }

    #[test]
    #[should_panic(expected = "double issue")]
    fn double_staging_in_one_cycle_is_caught() {
        let mut adder = PipelinedAdder::<()>::new();
        adder.issue(1.0, 2.0, ());
        adder.issue(3.0, 4.0, ());
    }

    #[test]
    #[should_panic(expected = "double issue")]
    fn step_some_over_a_staged_op_is_caught() {
        let mut mul = PipelinedMultiplier::<()>::new();
        mul.issue(1.0, 2.0, ());
        mul.step(Some((3.0, 4.0, ())));
    }
}
