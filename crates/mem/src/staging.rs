//! DRAM↔SRAM staging (DMA) model.
//!
//! For the Level-2 design on XD1 (§6.2), matrix A begins in processor DRAM
//! and is distributed to the four SRAM banks before the computation starts;
//! the paper measures 8.0 ms total latency of which only 1.6 ms is compute —
//! the rest is this data movement at the achieved DRAM bandwidth of
//! 1.3 GB/s. [`DmaModel`] accounts for that movement.

/// A bulk-transfer engine with a fixed sustained bandwidth.
///
/// # Examples
///
/// ```
/// use fblas_mem::DmaModel;
///
/// // Staging a 1024×1024 double matrix over the 1.3 GB/s DRAM path
/// // costs ~6.5 ms — the dominant share of Table 4's 8.0 ms total.
/// let dma = DmaModel::xd1_dram();
/// let t = dma.transfer_seconds_words(1024 * 1024);
/// assert!((t - 6.45e-3).abs() < 0.2e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaModel {
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
    /// Fixed per-transfer setup latency in seconds (descriptor setup,
    /// `RapidArray` round trip). Zero in the paper's accounting.
    pub setup_s: f64,
}

impl DmaModel {
    /// A DMA engine with the given bandwidth and no setup cost.
    pub fn new(bandwidth_bytes_per_s: f64) -> Self {
        assert!(
            bandwidth_bytes_per_s > 0.0,
            "bandwidth must be positive, got {bandwidth_bytes_per_s}"
        );
        Self {
            bandwidth_bytes_per_s,
            setup_s: 0.0,
        }
    }

    /// The XD1 DRAM→FPGA path at the paper's achieved 1.3 GB/s.
    pub fn xd1_dram() -> Self {
        Self::new(1.3e9)
    }

    /// Seconds to move `bytes` bytes.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.setup_s + bytes as f64 / self.bandwidth_bytes_per_s
    }

    /// Seconds to move `words` 64-bit words.
    pub fn transfer_seconds_words(&self, words: u64) -> f64 {
        self.transfer_seconds(words * crate::WORD_BYTES)
    }

    /// Cycles to move `bytes` at an FPGA clock of `clock_mhz` (rounded up).
    pub fn transfer_cycles(&self, bytes: u64, clock_mhz: f64) -> u64 {
        (self.transfer_seconds(bytes) * clock_mhz * 1e6).ceil() as u64
    }

    /// Nanoseconds to move `bytes` (rounded up) — the integer timeline
    /// unit the serving layer's discrete-event clock uses, so designs
    /// closing timing at different MHz share one deterministic timeline.
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        // Accounting math over modeled time, not datapath value flow.
        // lint: allow(native-f64)
        (self.transfer_seconds(bytes) * 1e9).ceil() as u64
    }

    /// Number of bus bursts needed to move `bytes` at a burst granule of
    /// `burst_bytes`: the tail burst **rounds up** — a transfer that is
    /// not a whole multiple of the burst size still occupies a full
    /// burst slot on the bus. (A truncating `bytes / burst_bytes` here
    /// under-counts every ragged transfer by one burst; batching makes
    /// that off-by-one visible in the amortization ratio, because the
    /// per-batch tail is paid once instead of once per request.)
    pub fn bursts(bytes: u64, burst_bytes: u64) -> u64 {
        assert!(burst_bytes >= 1, "burst size must be positive");
        bytes.div_ceil(burst_bytes)
    }

    /// Cycles to move `bytes` in whole `burst_bytes` bursts at
    /// `clock_mhz` (tail burst rounded up, then the cycle count itself
    /// rounded up).
    pub fn transfer_cycles_bursts(&self, bytes: u64, burst_bytes: u64, clock_mhz: f64) -> u64 {
        self.transfer_cycles(
            Self::bursts(bytes, burst_bytes).saturating_mul(burst_bytes),
            clock_mhz,
        )
    }

    /// Nanoseconds to move `bytes` in whole `burst_bytes` bursts.
    pub fn transfer_ns_bursts(&self, bytes: u64, burst_bytes: u64) -> u64 {
        self.transfer_ns(Self::bursts(bytes, burst_bytes).saturating_mul(burst_bytes))
    }

    /// Effective words per FPGA cycle this engine sustains.
    pub fn words_per_cycle(&self, clock_mhz: f64) -> f64 {
        self.bandwidth_bytes_per_s / crate::WORD_BYTES as f64 / (clock_mhz * 1e6)
    }
}

/// DMA burst granule of the XD1 DRAM→SRAM path, in bytes. Transfers are
/// issued as whole bursts; a ragged tail occupies a full slot.
pub const XD1_DRAM_BURST_BYTES: u64 = 128;

/// DRAM→SRAM staging cost of one *batch* of requests that share a staged
/// operand (the Table 4 amortization: matrix A crosses the 1.3 GB/s path
/// once per batch, per-request operands once per request).
///
/// This is the accounting object behind the serving layer's batch
/// scheduler: Table 4 splits the Level-2 XD1 run into 8.0 ms total vs
/// 1.6 ms compute, so paying the ~6.45 ms staging once per batch instead
/// of once per request is the single biggest modeled win the paper's
/// numbers admit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStaging {
    /// The DMA engine staging operands.
    pub dma: DmaModel,
    /// Burst granule in bytes (tail bursts round up).
    pub burst_bytes: u64,
}

impl BatchStaging {
    /// The XD1 path: 1.3 GB/s in 128-byte bursts.
    pub fn xd1() -> Self {
        Self {
            dma: DmaModel::xd1_dram(),
            burst_bytes: XD1_DRAM_BURST_BYTES,
        }
    }

    /// Nanoseconds to stage one batch: `shared_bytes` is moved once,
    /// `per_request_bytes` once per request. `requests = 0` costs
    /// nothing (an empty batch is never issued).
    pub fn batch_ns(&self, shared_bytes: u64, per_request_bytes: u64, requests: u64) -> u64 {
        if requests == 0 {
            return 0;
        }
        let shared = self.dma.transfer_ns_bursts(shared_bytes, self.burst_bytes);
        let per_req = self
            .dma
            .transfer_ns_bursts(per_request_bytes, self.burst_bytes);
        shared.saturating_add(per_req.saturating_mul(requests))
    }

    /// Amortization ratio of a `requests`-deep batch: unbatched staging
    /// time (every request re-stages the shared operand) over batched.
    /// 1.0 when nothing is shared; approaches `requests` as the shared
    /// operand dominates — the Table 4 regime.
    pub fn amortization(&self, shared_bytes: u64, per_request_bytes: u64, requests: u64) -> f64 {
        let batched = self.batch_ns(shared_bytes, per_request_bytes, requests);
        if batched == 0 {
            return 1.0;
        }
        let unbatched = self
            .batch_ns(shared_bytes, per_request_bytes, 1)
            .saturating_mul(requests);
        unbatched as f64 / batched as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_time_reproduces_table4_split() {
        // A 1024×1024 double matrix is 8 MiB; at 1.3 GB/s that is ≈6.45 ms.
        // Added to the 1.6 ms compute time this gives the paper's ≈8.0 ms
        // total for Level-2 BLAS on XD1.
        let dma = DmaModel::xd1_dram();
        let t = dma.transfer_seconds(1024 * 1024 * 8);
        assert!((t - 6.45e-3).abs() < 0.1e-3, "got {t}");
        let total = t + 1.6e-3;
        assert!((total - 8.0e-3).abs() < 0.25e-3, "total {total}");
    }

    #[test]
    fn words_and_bytes_agree() {
        let dma = DmaModel::new(8e9);
        assert_eq!(dma.transfer_seconds_words(1000), dma.transfer_seconds(8000));
    }

    #[test]
    fn cycles_round_up() {
        let dma = DmaModel::new(8e8); // 0.1 words/cycle at 1 GHz
                                      // 1 word = 8 bytes = 10 ns = 10 cycles at 1000 MHz.
        assert_eq!(dma.transfer_cycles(8, 1000.0), 10);
        assert_eq!(dma.transfer_cycles(9, 1000.0), 12); // 11.25 → 12
    }

    #[test]
    fn setup_cost_added_once() {
        let mut dma = DmaModel::new(1e9);
        dma.setup_s = 1e-6;
        assert!((dma.transfer_seconds(0) - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn words_per_cycle_at_clock() {
        // 1.3 GB/s at 164 MHz ≈ 0.99 words/cycle: the DRAM path can just
        // barely feed one word per cycle to the Level-2 design.
        let wpc = DmaModel::xd1_dram().words_per_cycle(164.0);
        assert!((wpc - 0.99).abs() < 0.01, "got {wpc}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_bandwidth_rejected() {
        DmaModel::new(0.0);
    }

    // ---- burst-granular staging (serving-layer accounting) ----

    /// Regression: a transfer that is not a whole multiple of the burst
    /// size must round the tail burst *up*. A truncating
    /// `bytes / burst_bytes` implementation answers `k` bursts for
    /// `k·burst + 1` bytes and this test fails on it.
    #[test]
    fn tail_burst_rounds_up_not_truncates() {
        let b = XD1_DRAM_BURST_BYTES;
        assert_eq!(DmaModel::bursts(0, b), 0);
        assert_eq!(DmaModel::bursts(1, b), 1);
        assert_eq!(DmaModel::bursts(b, b), 1);
        assert_eq!(DmaModel::bursts(b + 1, b), 2, "tail must not truncate");
        assert_eq!(DmaModel::bursts(7 * b - 1, b), 7);
        assert_eq!(DmaModel::bursts(7 * b + 1, b), 8);
        // The time model sees the rounded byte count: one extra byte
        // over a burst boundary costs a whole extra burst.
        let dma = DmaModel::new(1.3e9);
        let exact = dma.transfer_ns_bursts(7 * b, b);
        let ragged = dma.transfer_ns_bursts(7 * b + 1, b);
        assert!(ragged > exact, "ragged tail must cost a full burst");
        assert_eq!(ragged, dma.transfer_ns(8 * b));
        // Cycle accounting takes the same rounded path.
        assert_eq!(
            dma.transfer_cycles_bursts(7 * b + 1, b, 164.0),
            dma.transfer_cycles(8 * b, 164.0)
        );
    }

    /// Regression against the Table 4 staging split: batching B = 8
    /// `MvM` requests that share the 1024×1024 staged matrix pays the
    /// ≈6.45 ms DRAM→SRAM movement once, so the per-request staging
    /// drops from ≈6.45 ms toward the per-request vector cost, and the
    /// amortization ratio approaches B.
    #[test]
    fn batch_staging_amortizes_the_table4_split() {
        let staging = BatchStaging::xd1();
        let a_bytes = 1024 * 1024 * 8; // matrix A, staged once per batch
        let x_bytes = 1024 * 8; // vector x, staged per request
        let one = staging.batch_ns(a_bytes, x_bytes, 1);
        assert!(
            (one as f64 / 1e6 - 6.45).abs() < 0.1,
            "single-request staging must reproduce the ≈6.45 ms split, got {one} ns"
        );
        let eight = staging.batch_ns(a_bytes, x_bytes, 8);
        assert!(
            eight < 2 * one,
            "8-deep batch must pay the matrix once: {eight} vs {one}"
        );
        let ratio = staging.amortization(a_bytes, x_bytes, 8);
        assert!(
            (7.0..8.0).contains(&ratio),
            "amortization must approach the batch depth, got {ratio}"
        );
        // No shared operand → nothing amortizes.
        assert!((staging.amortization(0, x_bytes, 8) - 1.0).abs() < 1e-12);
        // Empty batches are free and ratio-neutral.
        assert_eq!(staging.batch_ns(a_bytes, x_bytes, 0), 0);
        assert!((staging.amortization(a_bytes, x_bytes, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "burst size must be positive")]
    fn zero_burst_granule_rejected() {
        DmaModel::bursts(64, 0);
    }
}
