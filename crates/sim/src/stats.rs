//! Occupancy and latency histograms shared by the architecture models.

/// A fixed-bucket histogram of small non-negative samples (buffer
/// occupancies, queue depths).
///
/// Samples at or above the bucket count land in the last bucket, so the
/// histogram never loses mass; [`Histogram::percentile`] then answers
/// questions like "what occupancy covers 99 % of cycles" — how the
/// buffer-sizing claims of the paper translate into observed behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    samples: u64,
    max_seen: usize,
}

impl Histogram {
    /// Create a histogram with buckets 0..`buckets`−1 plus an overflow
    /// bucket.
    pub fn new(buckets: usize) -> Self {
        assert!(buckets >= 1);
        Self {
            buckets: vec![0; buckets],
            samples: 0,
            max_seen: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: usize) {
        self.record_n(value, 1);
    }

    /// Record `n` samples of the same value at once. Histograms are
    /// order-free, so a fast-forwarding design can batch a whole
    /// steady-state plateau into one call and land on the exact state a
    /// per-cycle [`Histogram::record`] sequence would have produced.
    /// Counts saturate at `u64::MAX` instead of wrapping.
    pub fn record_n(&mut self, value: usize, n: u64) {
        if n == 0 {
            return;
        }
        let idx = value.min(self.buckets.len() - 1);
        self.buckets[idx] = self.buckets[idx].saturating_add(n);
        self.samples = self.samples.saturating_add(n);
        self.max_seen = self.max_seen.max(value);
    }

    /// Total samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Largest sample ever recorded (even if it overflowed the buckets).
    pub fn max_seen(&self) -> usize {
        self.max_seen
    }

    /// Smallest bucket index b such that at least `p` (0..=1) of the
    /// samples are ≤ b. Returns 0 for an empty histogram. Out-of-range
    /// or non-finite `p` is clamped into [0, 1] (NaN behaves as 0), and
    /// `p = 0` answers with the smallest *recorded* bucket, never a
    /// bucket below all data — so a single-sample histogram reports that
    /// sample's bucket at every percentile.
    pub fn percentile(&self, p: f64) -> usize {
        let p = if p > 0.0 { p.min(1.0) } else { 0.0 };
        if self.samples == 0 {
            return 0;
        }
        // At least one sample must be covered: ceil(0·n) = 0 would
        // otherwise return bucket 0 regardless of where the data lives.
        let target = ((p * self.samples as f64).ceil() as u64).max(1);
        let mut acc = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            acc = acc.saturating_add(count);
            if acc >= target {
                return i;
            }
        }
        self.buckets.len() - 1
    }

    /// Mean of the recorded samples (overflowed samples count at the
    /// last bucket's value). Always non-negative: an empty histogram
    /// reports `0.0`, never `-0.0` or NaN, and the accumulation is done
    /// in 128-bit so saturated bucket counts cannot overflow it.
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let sum: u128 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| i as u128 * u128::from(c))
            .sum();
        sum as f64 / self.samples as f64
    }
}

/// Log-bucketed latency histogram (HDR-style): exact counts below 16,
/// then 16 linear sub-buckets per power-of-two octave, giving a bounded
/// ≤ 6.25 % bucket-floor error at any magnitude while staying fully
/// deterministic (integer bucketing, no floating-point in the record
/// path).
///
/// This is the substrate for per-block completion-latency recording
/// (DESIGN.md §14): designs record one sample per completed block /
/// request, and [`LogHistogram::quantiles`] extracts p50/p95/p99/p999 as
/// bucket floors clamped to the observed min/max — exact for
/// single-sample and constant-latency populations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogHistogram {
    counts: Vec<u64>,
    samples: u64,
    min: u64,
    max: u64,
}

/// Values below this many are bucketed exactly (one bucket per value).
const LOG_HIST_LINEAR: u64 = 16;

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index of `value` (exact below 16, 16 sub-buckets per
    /// octave above).
    pub fn bucket_index(value: u64) -> usize {
        if value < LOG_HIST_LINEAR {
            value as usize
        } else {
            let e = 63 - u64::from(value.leading_zeros());
            (16 + (e - 4) * 16 + ((value >> (e - 4)) & 15)) as usize
        }
    }

    /// Smallest value that lands in bucket `idx` (the reported
    /// percentile resolution).
    pub fn bucket_floor(idx: usize) -> u64 {
        if idx < 16 {
            idx as u64
        } else {
            let e = 4 + (idx - 16) / 16;
            let sub = ((idx - 16) % 16) as u64;
            (16 + sub) << (e - 4)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` samples of the same value (order-free, so fused
    /// fast-forward replays can batch constant-latency blocks). Counts
    /// saturate instead of wrapping.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::bucket_index(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] = self.counts[idx].saturating_add(n);
        if self.samples == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.samples = self.samples.saturating_add(n);
    }

    /// Fold another histogram's samples into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.samples == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        if self.samples == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.samples = self.samples.saturating_add(other.samples);
    }

    /// Total samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.samples == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.samples == 0 {
            0
        } else {
            self.max
        }
    }

    /// Value covering at least fraction `p` (0..=1) of the samples:
    /// the floor of the covering bucket, clamped to the observed
    /// [min, max]. Returns 0 when empty — callers that must distinguish
    /// "no samples" from "a 0-valued sample" (a serving campaign under
    /// full rejection completes zero requests) use
    /// [`LogHistogram::try_percentile`] instead. Never panics
    /// (non-finite `p` clamps like [`Histogram::percentile`]).
    pub fn percentile(&self, p: f64) -> u64 {
        self.try_percentile(p).unwrap_or(0)
    }

    /// [`LogHistogram::percentile`] with the empty case made explicit:
    /// `None` when no samples were ever recorded, so an empty histogram
    /// can never masquerade as a population of zero-latency requests.
    pub fn try_percentile(&self, p: f64) -> Option<u64> {
        let p = if p > 0.0 { p.min(1.0) } else { 0.0 };
        if self.samples == 0 {
            return None;
        }
        let target = ((p * self.samples as f64).ceil() as u64).max(1);
        Some(self.value_at_rank(target))
    }

    /// Exact integer-rank extraction of (p50, p95, p99, p999) — no
    /// floating-point in the rank computation, so the quadruple is
    /// byte-stable across platforms. Returns `[0; 4]` when empty —
    /// documented sentinel, not a rank; callers that must tell the two
    /// apart use [`LogHistogram::try_quantiles`].
    pub fn quantiles(&self) -> [u64; 4] {
        self.try_quantiles().unwrap_or([0; 4])
    }

    /// [`LogHistogram::quantiles`] with the empty case made explicit:
    /// `None` when the histogram holds no samples. This is the entry
    /// point the serving layer's latency digests use — a tenant whose
    /// every request was rejected has *no* latency population, and its
    /// percentiles must serialize as absent rather than as a bogus
    /// all-zero quadruple.
    pub fn try_quantiles(&self) -> Option<[u64; 4]> {
        if self.samples == 0 {
            return None;
        }
        let n = u128::from(self.samples);
        let rank = |num: u128, den: u128| -> u64 {
            let r = (n * num).div_ceil(den).max(1);
            u64::try_from(r).unwrap_or(u64::MAX)
        };
        Some([
            self.value_at_rank(rank(1, 2)),
            self.value_at_rank(rank(19, 20)),
            self.value_at_rank(rank(99, 100)),
            self.value_at_rank(rank(999, 1000)),
        ])
    }

    /// Bucketed value of the sample at 1-based `rank` (callers guard
    /// `samples > 0`).
    fn value_at_rank(&self, rank: u64) -> u64 {
        let mut acc = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            acc = acc.saturating_add(count);
            if acc >= rank {
                return Self::bucket_floor(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The non-empty buckets as (index, count) pairs, ascending — the
    /// compact serialized form.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Rebuild a histogram from its serialized parts (bucket pairs plus
    /// the observed extrema). Sample count is the sum of the counts.
    pub fn from_parts(pairs: &[(usize, u64)], min: u64, max: u64) -> Self {
        let mut h = Self::new();
        for &(idx, count) in pairs {
            if count == 0 {
                continue;
            }
            if idx >= h.counts.len() {
                h.counts.resize(idx + 1, 0);
            }
            h.counts[idx] = h.counts[idx].saturating_add(count);
            h.samples = h.samples.saturating_add(count);
        }
        if h.samples > 0 {
            h.min = min;
            h.max = max;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new(16);
        for v in [0usize, 1, 1, 2, 2, 2, 3, 3, 3, 3] {
            h.record(v);
        }
        assert_eq!(h.samples(), 10);
        assert_eq!(h.percentile(0.1), 0);
        assert_eq!(h.percentile(0.3), 1);
        assert_eq!(h.percentile(0.6), 2);
        assert_eq!(h.percentile(1.0), 3);
        assert!((h.mean() - 2.0).abs() < 1e-12);
        assert_eq!(h.max_seen(), 3);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let mut h = Histogram::new(4);
        h.record(100);
        assert_eq!(h.percentile(1.0), 3);
        assert_eq!(h.max_seen(), 100);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new(4);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    // ---- Histogram edge-case regressions ----

    #[test]
    fn single_sample_percentiles_report_that_sample() {
        let mut h = Histogram::new(16);
        h.record(7);
        // Every percentile — including p = 0 — must land on the one
        // recorded bucket, not bucket 0.
        for p in [0.0, 0.001, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(p), 7, "p = {p}");
        }
    }

    #[test]
    fn empty_histogram_never_panics_or_returns_negative_zero() {
        let h = Histogram::new(8);
        for p in [0.0, 0.5, 1.0, -3.0, 7.0, f64::NAN, f64::INFINITY] {
            assert_eq!(h.percentile(p), 0, "p = {p}");
        }
        let m = h.mean();
        assert_eq!(m, 0.0);
        assert!(m.is_sign_positive(), "mean must not be -0.0");
    }

    #[test]
    fn out_of_range_percentile_arguments_clamp() {
        let mut h = Histogram::new(8);
        h.record(2);
        h.record(5);
        assert_eq!(h.percentile(-1.0), 2);
        assert_eq!(h.percentile(2.0), 5);
        assert_eq!(h.percentile(f64::NAN), 2);
    }

    #[test]
    fn record_n_saturates_instead_of_wrapping() {
        let mut h = Histogram::new(4);
        h.record_n(1, u64::MAX - 1);
        h.record_n(1, 5);
        h.record_n(2, 5);
        assert_eq!(h.samples(), u64::MAX);
        assert_eq!(h.percentile(0.5), 1);
        let m = h.mean();
        assert!(m.is_finite() && m >= 0.0, "mean {m}");
    }

    // ---- LogHistogram ----

    #[test]
    fn log_bucket_index_is_exact_below_16_and_monotone() {
        for v in 0..16u64 {
            assert_eq!(LogHistogram::bucket_index(v), v as usize);
            assert_eq!(LogHistogram::bucket_floor(v as usize), v);
        }
        let mut last = 0;
        for v in [16u64, 17, 31, 32, 33, 100, 1000, 1 << 20, u64::MAX] {
            let idx = LogHistogram::bucket_index(v);
            assert!(idx >= last, "index must not decrease at {v}");
            last = idx;
            let floor = LogHistogram::bucket_floor(idx);
            assert!(floor <= v, "floor {floor} above value {v}");
            // ≤ 6.25 % relative bucket error.
            assert!(v - floor <= v / 16, "floor {floor} too far below {v}");
        }
    }

    #[test]
    fn log_histogram_quantiles_exact_for_constant_population() {
        let mut h = LogHistogram::new();
        h.record_n(1063, 500);
        assert_eq!(h.quantiles(), [1063; 4]);
        assert_eq!(h.min(), 1063);
        assert_eq!(h.max(), 1063);
    }

    #[test]
    fn log_histogram_quantiles_spread_population() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let [p50, p95, p99, p999] = h.quantiles();
        // Bucket floors: within one sub-bucket (6.25 %) below the exact rank.
        assert!((468..=500).contains(&p50), "p50 = {p50}");
        assert!((890..=950).contains(&p95), "p95 = {p95}");
        assert!((928..=990).contains(&p99), "p99 = {p99}");
        assert!((937..=1000).contains(&p999), "p999 = {p999}");
        assert!(p50 <= p95 && p95 <= p99 && p99 <= p999);
    }

    #[test]
    fn log_histogram_empty_and_saturation() {
        let h = LogHistogram::new();
        assert_eq!(h.quantiles(), [0; 4]);
        assert_eq!(h.percentile(f64::NAN), 0);
        let mut s = LogHistogram::new();
        s.record_n(3, u64::MAX);
        s.record_n(3, 10);
        assert_eq!(s.samples(), u64::MAX);
        assert_eq!(s.quantiles(), [3; 4]);
    }

    /// Regression (serving-layer call sites): an empty histogram — zero
    /// completed requests under full rejection — must answer `None` from
    /// the `try_*` extractors for every probe, never a fabricated rank.
    /// A pre-fix implementation that computed `ceil(p·0).max(1) = 1` and
    /// walked the (empty) bucket vector would fall through to `self.max`
    /// and report 0 indistinguishably from a real zero-latency sample.
    #[test]
    fn empty_log_histogram_quantiles_are_none_not_a_bogus_rank() {
        let h = LogHistogram::new();
        assert_eq!(h.try_quantiles(), None);
        for p in [0.0, 0.5, 0.99, 1.0, -1.0, 42.0, f64::NAN, f64::INFINITY] {
            assert_eq!(h.try_percentile(p), None, "p = {p}");
        }
        // The sentinel forms stay documented and stable.
        assert_eq!(h.quantiles(), [0; 4]);
        assert_eq!(h.percentile(0.99), 0);
        // And the ambiguity the Option forms resolve: one genuine
        // 0-valued sample answers Some(0), not None.
        let mut z = LogHistogram::new();
        z.record(0);
        assert_eq!(z.try_quantiles(), Some([0; 4]));
        assert_eq!(z.try_percentile(0.5), Some(0));
    }

    #[test]
    fn log_histogram_roundtrips_through_parts() {
        let mut h = LogHistogram::new();
        for v in [1u64, 1, 2, 40, 41, 1000, 65_536] {
            h.record(v);
        }
        let rebuilt = LogHistogram::from_parts(&h.nonzero_buckets(), h.min(), h.max());
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.quantiles(), h.quantiles());
    }

    #[test]
    fn log_histogram_merge_matches_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in [5u64, 9, 100] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 300] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        let empty = LogHistogram::new();
        let mut c = both.clone();
        c.merge(&empty);
        assert_eq!(c, both);
    }
}
