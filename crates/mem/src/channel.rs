//! Bandwidth-limited streaming channels between a memory level and a design.
//!
//! A [`ReadChannel`] models a unidirectional path that delivers at most
//! `words_per_cycle` words each cycle (fractional rates model links such as
//! a 1.3 GB/s DRAM path feeding a 164 MHz design ≈ 0.99 words/cycle). The
//! channel must be ticked every cycle; reads then draw against the accrued
//! bandwidth credit.

use fblas_sim::Throttle;

/// A rate-limited streaming read port over the caller's words, borrowed
/// in stream order.
#[derive(Debug, Clone)]
pub struct ReadChannel<'a> {
    data: &'a [f64],
    pos: usize,
    throttle: Throttle,
    /// Pending fault-injected stall beats; latched into `denied` at tick.
    stalled: u64,
    denied: bool,
}

impl<'a> ReadChannel<'a> {
    /// Create a channel that streams `data` at `words_per_cycle`.
    pub fn new(data: &'a [f64], words_per_cycle: f64) -> Self {
        Self {
            data,
            pos: 0,
            throttle: Throttle::new(words_per_cycle),
            stalled: 0,
            denied: false,
        }
    }

    /// Advance one cycle, accruing bandwidth credit.
    pub fn tick(&mut self) {
        self.throttle.tick();
        self.denied = self.stalled > 0;
        self.stalled = self.stalled.saturating_sub(1);
    }

    /// Attempt to read the next word this cycle.
    ///
    /// Returns `None` if the stream is exhausted *or* the bandwidth credit
    /// for this cycle is spent.
    pub fn read(&mut self) -> Option<f64> {
        (self.take(1) == 1).then(|| self.data[self.pos - 1])
    }

    /// Read up to `n` words this cycle (bounded by bandwidth and data).
    pub fn read_up_to(&mut self, n: usize, out: &mut Vec<f64>) -> usize {
        let start = self.pos;
        let got = self.take(n);
        out.extend_from_slice(&self.data[start..start + got]);
        got
    }

    /// Grant up to `n` words of this cycle's delivery (bounded by
    /// bandwidth and data) without copying them: a design that addresses
    /// its operand in place takes the grant and reads the words itself.
    #[inline]
    pub fn take(&mut self, n: usize) -> usize {
        if self.denied {
            return 0;
        }
        let want = n.min(self.data.len() - self.pos) as u64;
        let got = self.throttle.grant_up_to(want) as usize;
        self.pos += got;
        got
    }

    /// True once every word has been delivered.
    pub fn exhausted(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Total words in the stream.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the stream holds no words at all.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Configured rate in words per cycle.
    pub fn rate(&self) -> f64 {
        self.throttle.rate()
    }

    /// Borrow the full backing stream (delivered and undelivered words
    /// alike). Fused fast-forward replays consume the stream by index
    /// arithmetic instead of per-cycle reads, so they address it whole.
    pub fn data(&self) -> &'a [f64] {
        self.data
    }

    /// Sample channel utilization (words delivered since the last sample)
    /// into a probe. Call once per cycle from the owning design.
    pub fn probe_utilization(&self, probe: &mut fblas_sim::Probe, id: fblas_sim::ProbeId) {
        self.throttle.probe_utilization(probe, id);
    }

    /// Fault-injection hook: drop the next `beats` delivery beats,
    /// modelling a transient memory-channel glitch (refresh collision,
    /// link retrain). Reads are denied for exactly `beats` ticks starting
    /// with the tick that follows injection; no data is lost or
    /// reordered, so the fault is purely a timing perturbation. Returns
    /// false for a zero-beat request (architecturally masked).
    ///
    /// Only call this from a [`fblas_sim::Design::inject`] implementation
    /// (enforced by the `fault-hook-purity` DRC rule).
    pub fn fault_drop_beats(&mut self, beats: u64) -> bool {
        if beats == 0 {
            return false;
        }
        self.stalled = self.stalled.max(beats);
        true
    }
}

/// A rate-limited streaming write port collecting words into a buffer.
#[derive(Debug, Clone)]
pub struct WriteChannel {
    data: Vec<f64>,
    throttle: Throttle,
}

impl WriteChannel {
    /// Create a write channel sustaining `words_per_cycle`.
    pub fn new(words_per_cycle: f64) -> Self {
        Self {
            data: Vec::new(),
            throttle: Throttle::new(words_per_cycle),
        }
    }

    /// Create a write channel expecting `capacity` words (preallocates).
    pub fn with_capacity(words_per_cycle: f64, capacity: usize) -> Self {
        Self {
            data: Vec::with_capacity(capacity),
            throttle: Throttle::new(words_per_cycle),
        }
    }

    /// Advance one cycle, accruing bandwidth credit.
    pub fn tick(&mut self) {
        self.throttle.tick();
    }

    /// Attempt to write one word this cycle; returns false if the cycle's
    /// bandwidth is exhausted (the design must hold the word and retry).
    pub fn write(&mut self, v: f64) -> bool {
        if self.throttle.grant(1) {
            self.data.push(v);
            true
        } else {
            false
        }
    }

    /// Deliver a word without drawing bandwidth credit. Fused
    /// fast-forward replays use this after proving the rate
    /// precondition (emergent words per cycle never exceed the channel
    /// rate), so the throttle is bypassed rather than simulated; the
    /// caller reconstructs `probe_utilization` totals itself.
    pub fn push_unthrottled(&mut self, v: f64) {
        self.data.push(v);
    }

    /// Words written so far.
    pub fn words_written(&self) -> usize {
        self.data.len()
    }

    /// Consume the channel, returning everything written.
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// Borrow everything written so far.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Sample channel utilization (words accepted since the last sample)
    /// into a probe. Call once per cycle from the owning design.
    pub fn probe_utilization(&self, probe: &mut fblas_sim::Probe, id: fblas_sim::ProbeId) {
        self.throttle.probe_utilization(probe, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_channel_delivers_in_order_at_rate() {
        let data: Vec<f64> = (0..10).map(f64::from).collect();
        let mut ch = ReadChannel::new(&data, 2.0);
        let mut got = Vec::new();
        for _ in 0..5 {
            ch.tick();
            // two words per cycle, a third read is denied
            got.push(ch.read().unwrap());
            got.push(ch.read().unwrap());
            assert_eq!(ch.read(), None);
        }
        assert_eq!(got, (0..10).map(f64::from).collect::<Vec<_>>());
        assert!(ch.exhausted());
    }

    #[test]
    fn fractional_rate_delivers_every_other_cycle() {
        let mut ch = ReadChannel::new(&[1.0; 100], 0.5);
        let mut delivered = 0;
        for _ in 0..100 {
            ch.tick();
            if ch.read().is_some() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 50);
    }

    #[test]
    fn exhausted_stream_returns_none_with_credit_left() {
        let mut ch = ReadChannel::new(&[7.0], 4.0);
        ch.tick();
        assert_eq!(ch.read(), Some(7.0));
        assert!(ch.exhausted());
        assert_eq!(ch.read(), None);
    }

    #[test]
    fn read_up_to_respects_bandwidth() {
        let mut ch = ReadChannel::new(&[1.0; 16], 3.0);
        let mut out = Vec::new();
        ch.tick();
        assert_eq!(ch.read_up_to(8, &mut out), 3);
        ch.tick();
        assert_eq!(ch.read_up_to(8, &mut out), 3);
        assert_eq!(out.len(), 6);
        // A count-only grant draws the same credit and skips its words.
        let data: Vec<f64> = (0..8).map(f64::from).collect();
        let mut ch = ReadChannel::new(&data, 3.0);
        ch.tick();
        assert_eq!(ch.take(8), 3);
        assert_eq!(ch.read(), None, "credit spent");
        ch.tick();
        assert_eq!(ch.read(), Some(3.0));
    }

    #[test]
    fn fault_drop_beats_denies_exactly_that_many_ticks() {
        let data: Vec<f64> = (0..8).map(f64::from).collect();
        let mut ch = ReadChannel::new(&data, 1.0);
        ch.tick();
        assert_eq!(ch.read(), Some(0.0));
        assert!(!ch.fault_drop_beats(0), "zero beats is masked");
        assert!(ch.fault_drop_beats(3));
        for _ in 0..3 {
            ch.tick();
            assert_eq!(ch.read(), None, "stalled beat delivers nothing");
        }
        // Stream resumes in order with nothing lost.
        let mut got = Vec::new();
        for _ in 0..7 {
            ch.tick();
            if let Some(v) = ch.read() {
                got.push(v);
            }
        }
        assert_eq!(got, (1..8).map(f64::from).collect::<Vec<_>>());
        assert!(ch.exhausted());
    }

    #[test]
    fn write_channel_enforces_rate() {
        let mut ch = WriteChannel::new(1.0);
        let mut written = 0;
        for i in 0..10 {
            ch.tick();
            if ch.write(f64::from(i)) {
                written += 1;
            }
            // second write in the same cycle may use banked credit once,
            // after which the rate limits to one per cycle
            ch.write(100.0);
        }
        assert!(written >= 9, "sustained writes: {written}");
        let achieved = ch.words_written() as f64 / 10.0;
        assert!(achieved <= 1.2, "rate exceeded: {achieved} words/cycle");
    }

    #[test]
    fn write_channel_preserves_order() {
        let mut ch = WriteChannel::with_capacity(2.0, 4);
        for i in 0..4 {
            ch.tick();
            assert!(ch.write(f64::from(i)));
        }
        assert_eq!(ch.into_data(), vec![0.0, 1.0, 2.0, 3.0]);
    }
}
