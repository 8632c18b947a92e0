//! The XD1's banked SRAM: four QDR-II banks, one word per bank per cycle.
//!
//! §6.2 of the paper: "the design on the FPGA reads one word from each
//! SRAM bank in one clock cycle", giving 4 × 72 bits × 164 MHz ≈ 5.9 GB/s.
//! Matrix A is striped across the banks before the computation starts.

/// Banked SRAM delivering one word per bank per cycle.
#[derive(Debug, Clone)]
pub struct SramBanks {
    banks: Vec<Vec<f64>>,
    positions: Vec<usize>,
    cycles: u64,
    words_delivered: u64,
}

impl SramBanks {
    /// Number of SRAM banks attached to each FPGA on XD1.
    pub const XD1_BANKS: usize = 4;

    /// Stripe `data` across `n_banks` banks round-robin (word `i` lands in
    /// bank `i % n_banks`), matching how the Level-2 design distributes
    /// matrix A so that k consecutive elements of a row are read in one
    /// cycle.
    pub fn striped(data: &[f64], n_banks: usize) -> Self {
        assert!(n_banks > 0, "need at least one bank");
        let mut banks = vec![Vec::with_capacity(data.len() / n_banks + 1); n_banks];
        for (i, &v) in data.iter().enumerate() {
            banks[i % n_banks].push(v);
        }
        Self {
            positions: vec![0; n_banks],
            banks,
            cycles: 0,
            words_delivered: 0,
        }
    }

    /// Number of banks.
    pub fn n_banks(&self) -> usize {
        self.banks.len()
    }

    /// Advance one cycle and read the next word from every bank that still
    /// has data. `out` receives one `Option` per bank.
    pub fn read_cycle(&mut self, out: &mut Vec<Option<f64>>) {
        self.cycles += 1;
        out.clear();
        for (bank, pos) in self.banks.iter().zip(self.positions.iter_mut()) {
            if *pos < bank.len() {
                out.push(Some(bank[*pos]));
                *pos += 1;
                self.words_delivered += 1;
            } else {
                out.push(None);
            }
        }
    }

    /// True once every bank has been fully read.
    pub fn exhausted(&self) -> bool {
        self.positions
            .iter()
            .zip(&self.banks)
            .all(|(p, b)| *p == b.len())
    }

    /// Total words delivered across all banks.
    pub fn words_delivered(&self) -> u64 {
        self.words_delivered
    }

    /// Cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Achieved bandwidth in bytes/second at the given clock, counting
    /// `bits_per_word` bits per delivered word (72 on XD1 with parity).
    #[expect(clippy::float_arithmetic, reason = "accounting: bytes per second")]
    pub fn achieved_bandwidth(&self, clock_mhz: f64, bits_per_word: u64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let bytes = self.words_delivered as f64 * bits_per_word as f64 / 8.0;
        bytes / (self.cycles as f64 / (clock_mhz * 1e6))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striping_is_round_robin() {
        let data: Vec<f64> = (0..8).map(f64::from).collect();
        let mut s = SramBanks::striped(&data, 4);
        let mut out = Vec::new();
        s.read_cycle(&mut out);
        assert_eq!(out, vec![Some(0.0), Some(1.0), Some(2.0), Some(3.0)]);
        s.read_cycle(&mut out);
        assert_eq!(out, vec![Some(4.0), Some(5.0), Some(6.0), Some(7.0)]);
        assert!(s.exhausted());
    }

    #[test]
    fn uneven_data_drains_ragged_tail() {
        let data: Vec<f64> = (0..6).map(f64::from).collect();
        let mut s = SramBanks::striped(&data, 4);
        let mut out = Vec::new();
        s.read_cycle(&mut out);
        s.read_cycle(&mut out);
        assert_eq!(out, vec![Some(4.0), Some(5.0), None, None]);
        assert!(s.exhausted());
        assert_eq!(s.words_delivered(), 6);
    }

    #[test]
    fn xd1_bandwidth_with_parity_matches_paper() {
        // 4 banks × 72 bits × 164 MHz = 5.9 GB/s (paper Table 4).
        let data = vec![1.0; 4096];
        let mut s = SramBanks::striped(&data, SramBanks::XD1_BANKS);
        let mut out = Vec::new();
        while !s.exhausted() {
            s.read_cycle(&mut out);
        }
        let bw = s.achieved_bandwidth(164.0, crate::SRAM_WORD_BITS);
        assert!((bw / 1e9 - 5.9).abs() < 0.01, "got {bw}");
    }

    #[test]
    fn one_word_per_bank_per_cycle() {
        let data = vec![0.0; 100];
        let mut s = SramBanks::striped(&data, 4);
        let mut out = Vec::new();
        s.read_cycle(&mut out);
        assert_eq!(s.words_delivered(), 4);
        assert_eq!(s.cycles(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        SramBanks::striped(&[1.0], 0);
    }
}
