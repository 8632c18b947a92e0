//! Token-bucket bandwidth throttle: the model of a rate-limited channel.
//!
//! Memory channels in the reconfigurable-system model deliver a fixed
//! number of words per FPGA clock cycle — e.g. the XD1 SRAM interface
//! delivers one 64-bit word per bank per cycle, while a DRAM link at
//! 1.3 GB/s feeding a 164 MHz design delivers ≈0.99 words/cycle. The rate
//! is generally fractional, so the throttle accumulates fractional credit
//! each cycle and grants whole words when enough credit is available.

/// A token-bucket rate limiter measured in words per cycle.
///
/// # Examples
///
/// ```
/// use fblas_sim::Throttle;
///
/// // A channel sustaining half a word per cycle delivers on every
/// // second cycle under continuous demand.
/// let mut ch = Throttle::new(0.5);
/// let mut delivered = 0;
/// for _ in 0..10 {
///     ch.tick();
///     if ch.grant(1) {
///         delivered += 1;
///     }
/// }
/// assert_eq!(delivered, 5);
/// ```
///
/// Credit accrues by `rate` every [`Throttle::tick`] and is spent by
/// [`Throttle::grant`]. Credit accumulation is capped at one burst worth
/// (`burst` words, default: `rate.ceil() + 1`), modelling a channel without
/// deep buffering: unused bandwidth in one cycle cannot be banked
/// indefinitely. The `+ 1` guarantees that a consumer draining whole words
/// every cycle loses no fractional credit to the cap.
#[derive(Debug, Clone)]
pub struct Throttle {
    rate: f64,
    burst: f64,
    credit: f64,
    granted: u64,
    cycles: u64,
}

impl Throttle {
    /// Create a throttle granting `rate` words per cycle (may be
    /// fractional), with a credit cap of `rate.ceil() + 1`.
    ///
    /// # Panics
    /// Panics unless `rate` is positive and finite.
    pub fn new(rate: f64) -> Self {
        Self::with_burst(rate, rate.ceil() + 1.0)
    }

    /// Create a throttle with an explicit credit cap.
    pub fn with_burst(rate: f64, burst: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "rate must be positive, got {rate}"
        );
        assert!(
            burst >= rate.min(1.0),
            "burst {burst} too small for rate {rate}"
        );
        Self {
            rate,
            burst,
            credit: 0.0,
            granted: 0,
            cycles: 0,
        }
    }

    /// Words per cycle this throttle sustains.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Advance one cycle, accruing credit.
    #[inline]
    pub fn tick(&mut self) {
        self.cycles += 1;
        self.credit = (self.credit + self.rate).min(self.burst);
    }

    /// Advance `n` cycles with no grant in between: bit-equal to `n`
    /// calls of [`Throttle::tick`]. Credit saturates at `burst` within
    /// ⌈burst/rate⌉ ticks and stays there, so only the ticks before
    /// saturation add.
    pub fn advance(&mut self, n: u64) {
        self.cycles += n;
        for _ in 0..n {
            if self.credit >= self.burst {
                break;
            }
            self.credit = (self.credit + self.rate).min(self.burst);
        }
    }

    /// Number of whole words available this cycle.
    pub fn available(&self) -> u64 {
        self.credit as u64
    }

    /// Try to consume `words` words of credit. Returns true on success.
    #[inline]
    pub fn grant(&mut self, words: u64) -> bool {
        if self.credit >= words as f64 {
            self.credit -= words as f64;
            self.granted += words;
            true
        } else {
            false
        }
    }

    /// Consume up to `words` words and return how many were granted.
    #[inline]
    pub fn grant_up_to(&mut self, words: u64) -> u64 {
        let n = (self.credit as u64).min(words);
        if n > 0 {
            // n ≤ ⌊credit⌋, so the grant always succeeds.
            self.grant(n);
        }
        n
    }

    /// Total words granted over the throttle's lifetime.
    pub fn total_granted(&self) -> u64 {
        self.granted
    }

    /// Achieved words/cycle so far (granted / elapsed cycles).
    pub fn achieved_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.granted as f64 / self.cycles as f64
        }
    }

    /// Sample channel utilization into a probe: records the words granted
    /// since the last sample, so the component's occupancy histogram shows
    /// the delivered words/cycle distribution. Call once per cycle from
    /// the owning design.
    pub fn probe_utilization(&self, probe: &mut crate::Probe, id: crate::ProbeId) {
        probe.sample_rate(id, self.granted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_rate_grants_every_cycle() {
        let mut t = Throttle::new(2.0);
        for _ in 0..10 {
            t.tick();
            assert!(t.grant(2));
        }
        assert_eq!(t.total_granted(), 20);
    }

    #[test]
    fn fractional_rate_interleaves_grants() {
        // 0.5 words/cycle: a word every other cycle.
        let mut t = Throttle::new(0.5);
        let mut granted = 0;
        for _ in 0..100 {
            t.tick();
            if t.grant(1) {
                granted += 1;
            }
        }
        assert_eq!(granted, 50);
    }

    #[test]
    fn credit_capped_at_burst() {
        let mut t = Throttle::new(1.0);
        for _ in 0..100 {
            t.tick(); // never draining
        }
        // Burst cap is 2 words: idling for 100 cycles banks no more.
        assert_eq!(t.available(), 2);
        assert!(t.grant(2));
        assert!(!t.grant(1));
    }

    #[test]
    fn grant_fails_without_credit_and_leaves_credit_intact() {
        let mut t = Throttle::new(0.25);
        t.tick();
        assert!(!t.grant(1));
        t.tick();
        t.tick();
        t.tick();
        assert!(t.grant(1));
    }

    #[test]
    fn grant_up_to_partial() {
        let mut t = Throttle::with_burst(3.0, 3.0);
        t.tick();
        assert_eq!(t.grant_up_to(5), 3);
        assert_eq!(t.grant_up_to(5), 0);
    }

    #[test]
    fn achieved_rate_converges_to_rate_under_demand() {
        let mut t = Throttle::new(1.3 / 8.0); // e.g. 1.3 GB/s in words at ~1 GHz
        for _ in 0..10_000 {
            t.tick();
            t.grant_up_to(1);
        }
        assert!((t.achieved_rate() - 1.3 / 8.0).abs() < 1e-3);
    }

    #[test]
    fn advance_is_bit_equal_to_repeated_ticks() {
        for &rate in &[
            0.3,
            1.0 / 3.0,
            0.5,
            1.3 / 8.0,
            1.923_076_923_076_923,
            2.0,
            3.7,
            4.0,
        ] {
            // n on both sides of saturation (⌈burst/rate⌉ is 2..13
            // ticks here), with a grant between every advance.
            for &n in &[0u64, 1, 2, 3, 5, 8, 13, 21, 100] {
                let mut stepped = Throttle::new(rate);
                let mut advanced = Throttle::new(rate);
                for round in 0..6u64 {
                    for _ in 0..n {
                        stepped.tick();
                    }
                    advanced.advance(n);
                    assert_eq!(
                        stepped.credit.to_bits(),
                        advanced.credit.to_bits(),
                        "rate {rate}, n {n}, round {round}"
                    );
                    let want = round % 3;
                    assert_eq!(stepped.grant_up_to(want), advanced.grant_up_to(want));
                    stepped.tick();
                    advanced.tick();
                }
                assert_eq!(stepped.cycles, advanced.cycles);
                assert_eq!(stepped.total_granted(), advanced.total_granted());
                assert_eq!(
                    stepped.achieved_rate().to_bits(),
                    advanced.achieved_rate().to_bits()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_rate_rejected() {
        Throttle::new(-1.0);
    }
}
