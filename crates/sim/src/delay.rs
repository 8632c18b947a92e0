//! Fixed-latency delay line: the timing model of a pipelined functional unit.
//!
//! A floating-point adder with α pipeline stages accepts (at most) one new
//! operation per cycle and produces the corresponding result exactly α
//! cycles later. [`DelayLine`] models exactly that: a ring buffer of
//! `latency` slots, each either empty (`None`, a pipeline bubble) or
//! carrying an in-flight value.
//!
//! The read-after-write hazard that motivates the paper's reduction circuit
//! falls straight out of this model: a value pushed at cycle `t` is not
//! observable until cycle `t + latency`, so a dependent operation issued
//! before then would read stale data.

/// A pipeline with fixed latency and an issue rate of one item per cycle.
///
/// Each call to [`DelayLine::step`] advances the pipeline one cycle: the
/// item that entered `latency` cycles ago (if any) emerges, and the new
/// item (if any) enters stage 0.
///
/// # Examples
///
/// ```
/// use fblas_sim::DelayLine;
///
/// // A 3-stage pipeline: a value emerges exactly 3 steps after entering.
/// let mut pipe = DelayLine::new(3);
/// assert_eq!(pipe.step(Some("op")), None);
/// assert_eq!(pipe.step(None), None);
/// assert_eq!(pipe.step(None), None);
/// assert_eq!(pipe.step(None), Some("op"));
/// ```
#[derive(Debug, Clone)]
pub struct DelayLine<T> {
    slots: Vec<Option<T>>,
    /// Index of the slot that will emerge on the next `step`.
    head: usize,
    in_flight: usize,
    total_entered: u64,
    total_cycles: u64,
}

impl<T> DelayLine<T> {
    /// Create a delay line with the given latency in cycles.
    ///
    /// # Panics
    /// Panics if `latency` is zero; a zero-latency unit is combinational
    /// and needs no delay line.
    pub fn new(latency: usize) -> Self {
        assert!(latency > 0, "delay line latency must be >= 1");
        let mut slots = Vec::with_capacity(latency);
        slots.resize_with(latency, || None);
        Self {
            slots,
            head: 0,
            in_flight: 0,
            total_entered: 0,
            total_cycles: 0,
        }
    }

    /// The pipeline depth in cycles.
    pub fn latency(&self) -> usize {
        self.slots.len()
    }

    /// Number of items currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// True if no items are in flight (all slots are bubbles).
    pub fn is_empty(&self) -> bool {
        self.in_flight == 0
    }

    /// The item that will emerge on the *next* [`DelayLine::step`], if any.
    ///
    /// Synchronous designs need this to route a result in the same cycle
    /// in which it becomes architecturally visible, before deciding what
    /// to issue next (hardware sees both on the same clock edge).
    pub fn peek(&self) -> Option<&T> {
        self.slots[self.head].as_ref()
    }

    /// Advance one cycle: insert `input` into the first stage and return
    /// whatever reaches the last stage this cycle.
    pub fn step(&mut self, input: Option<T>) -> Option<T> {
        self.total_cycles += 1;
        if input.is_some() {
            self.total_entered += 1;
        }
        let out = std::mem::replace(&mut self.slots[self.head], input);
        match (&out, self.slots[self.head].is_some()) {
            (Some(_), false) => self.in_flight -= 1,
            (None, true) => self.in_flight += 1,
            _ => {}
        }
        self.head += 1;
        if self.head == self.slots.len() {
            self.head = 0;
        }
        out
    }

    /// Every stage in emergence order (the slot emerging on the next
    /// step first), bubbles as `None`.
    pub fn stages(&self) -> impl Iterator<Item = Option<&T>> {
        let (older, newer) = self.slots.split_at(self.head);
        newer.iter().chain(older).map(Option::as_ref)
    }

    /// [`DelayLine::stages`], mutably: a fused replay that advances a
    /// unit through a recorded steady-state period rewrites the items in
    /// flight in place.
    pub fn stages_mut(&mut self) -> impl Iterator<Item = Option<&mut T>> {
        let (older, newer) = self.slots.split_at_mut(self.head);
        newer.iter_mut().chain(older).map(Option::as_mut)
    }

    /// Total items that have entered the pipeline.
    pub fn total_entered(&self) -> u64 {
        self.total_entered
    }

    /// Fraction of elapsed cycles in which a new item was issued.
    ///
    /// This is the pipeline utilization the paper maximizes: the reduction
    /// circuit keeps the single adder busy while the naive stalling design
    /// leaves it mostly idle.
    pub fn utilization(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.total_entered as f64 / self.total_cycles as f64
        }
    }

    /// Sample the pipeline fill (items in flight) into a probe. Call once
    /// per cycle from the owning design.
    pub fn probe_occupancy(&self, probe: &mut crate::Probe, id: crate::ProbeId) {
        probe.sample_depth(id, self.in_flight);
    }

    /// Fault-injection hook: mutate the in-flight item at `stage` (0 =
    /// the slot emerging on the next step, reduced modulo the latency),
    /// modelling an SEU in a pipeline register. Returns false when the
    /// targeted stage holds a bubble — the fault is architecturally
    /// masked.
    ///
    /// Only call this from a [`Design::inject`](crate::Design::inject)
    /// implementation (enforced by the `fault-hook-purity` DRC rule).
    pub fn fault_mutate(&mut self, stage: usize, f: impl FnOnce(&mut T)) -> bool {
        let len = self.slots.len();
        let idx = (self.head + stage % len) % len;
        match self.slots[idx].as_mut() {
            Some(item) => {
                f(item);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_list_in_emergence_order() {
        let mut d = DelayLine::new(3);
        d.step(Some(1u32));
        d.step(None);
        d.step(Some(3));
        d.step(Some(4)); // 1 emerges
        let seen: Vec<Option<u32>> = d.stages().map(Option::<&u32>::copied).collect();
        assert_eq!(seen, [None, Some(3), Some(4)]);
        for v in d.stages_mut().flatten() {
            *v *= 10;
        }
        assert_eq!(d.step(None), None);
        assert_eq!(d.step(None), Some(30));
        assert_eq!(d.step(None), Some(40));
    }

    #[test]
    fn value_emerges_after_exactly_latency_cycles() {
        let mut d = DelayLine::new(14);
        assert_eq!(d.step(Some(7u32)), None);
        for _ in 0..13 {
            assert_eq!(d.step(None), None);
        }
        // 14th step after insertion: the value emerges.
        assert_eq!(d.step(None), Some(7));
    }

    #[test]
    fn back_to_back_issue_preserves_order_and_spacing() {
        let mut d = DelayLine::new(3);
        let mut out = Vec::new();
        for i in 0..10u32 {
            out.push(d.step(Some(i)));
        }
        for _ in 0..3 {
            out.push(d.step(None));
        }
        let got: Vec<u32> = out.into_iter().flatten().collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bubbles_pass_through() {
        let mut d = DelayLine::new(2);
        assert_eq!(d.step(Some(1u8)), None);
        assert_eq!(d.step(None), None);
        assert_eq!(d.step(Some(2)), Some(1));
        assert_eq!(d.step(None), None);
        assert_eq!(d.step(None), Some(2));
        assert!(d.is_empty());
    }

    #[test]
    fn peek_previews_next_step_without_consuming() {
        let mut d = DelayLine::new(2);
        d.step(Some(5u8));
        assert_eq!(d.peek(), None);
        d.step(None);
        assert_eq!(d.peek(), Some(&5));
        assert_eq!(d.peek(), Some(&5)); // non-consuming
        assert_eq!(d.step(None), Some(5));
        assert_eq!(d.peek(), None);
    }

    #[test]
    fn in_flight_tracks_occupancy() {
        let mut d = DelayLine::new(4);
        d.step(Some(1u8));
        d.step(Some(2));
        assert_eq!(d.in_flight(), 2);
        d.step(None);
        d.step(None);
        assert_eq!(d.in_flight(), 2);
        d.step(None); // first emerges
        assert_eq!(d.in_flight(), 1);
        d.step(None); // second emerges
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn utilization_counts_issued_fraction() {
        let mut d = DelayLine::new(2);
        d.step(Some(0u8));
        d.step(None);
        d.step(Some(1));
        d.step(None);
        assert!((d.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "latency")]
    fn zero_latency_rejected() {
        DelayLine::<u8>::new(0);
    }

    #[test]
    fn fault_mutate_targets_stage_relative_to_emergence() {
        let mut d = DelayLine::new(3);
        d.step(Some(10u8)); // will emerge in 3 more steps
        d.step(Some(20u8));
        // Stage 1 is the slot emerging one step after the head: with two
        // items two steps from emerging, stage 1 holds the older item.
        assert!(d.fault_mutate(1, |v| *v += 1));
        assert!(!d.fault_mutate(0, |_| {}), "head slot is a bubble");
        assert_eq!(d.step(None), None);
        assert_eq!(d.step(None), Some(11));
        assert_eq!(d.step(None), Some(20));
    }
}
