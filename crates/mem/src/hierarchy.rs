//! The three-level memory hierarchy of the reconfigurable-system model
//! (paper §3.2.2, Table 1).

/// A level in the memory hierarchy of one compute node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// On-chip memory (Block RAM) — small, enormous aggregate bandwidth.
    A,
    /// On-board SRAM attached to the FPGA.
    B,
    /// DRAM of the general-purpose processor, reachable by the FPGA
    /// directly (without going through Level B — the paper's third
    /// difference from CPU cache hierarchies).
    C,
}

impl Level {
    /// All levels, fastest first.
    pub const ALL: [Level; 3] = [Level::A, Level::B, Level::C];

    /// Conventional name used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Level::A => "Level A (BRAM)",
            Level::B => "Level B (SRAM)",
            Level::C => "Level C (DRAM)",
        }
    }
}

/// Capacity and bandwidth of one memory level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelSpec {
    /// Which level this specifies.
    pub level: Level,
    /// Storage capacity in bytes.
    pub capacity_bytes: u64,
    /// Bandwidth to the FPGA in bytes per second.
    pub bandwidth_bytes_per_s: f64,
}

impl LevelSpec {
    /// Capacity in 64-bit words.
    pub fn capacity_words(&self) -> u64 {
        self.capacity_bytes / crate::WORD_BYTES
    }

    /// Words per cycle this level sustains at the given FPGA clock.
    #[expect(clippy::float_arithmetic, reason = "accounting: words per cycle")]
    pub fn words_per_cycle(&self, clock_mhz: f64) -> f64 {
        self.bandwidth_bytes_per_s / crate::WORD_BYTES as f64 / (clock_mhz * 1e6)
    }
}

/// The full hierarchy available to a single FPGA in one compute node.
///
/// # Examples
///
/// ```
/// use fblas_mem::MemoryHierarchy;
///
/// let h = MemoryHierarchy::cray_xd1();
/// // Table 1's structure: bandwidth falls, capacity grows down-level.
/// assert!(h.is_well_formed());
/// assert_eq!(h.b.capacity_words(), 2 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryHierarchy {
    /// Platform name (for reports).
    pub platform: &'static str,
    /// Level A: on-chip BRAM.
    pub a: LevelSpec,
    /// Level B: on-board SRAM.
    pub b: LevelSpec,
    /// Level C: DRAM.
    pub c: LevelSpec,
}

impl MemoryHierarchy {
    /// The Cray XD1 column of paper Table 1.
    pub fn cray_xd1() -> Self {
        Self {
            platform: "Cray XD1",
            a: LevelSpec {
                level: Level::A,
                capacity_bytes: 522 * 1024,
                bandwidth_bytes_per_s: 209e9,
            },
            b: LevelSpec {
                level: Level::B,
                capacity_bytes: 16 * 1024 * 1024,
                bandwidth_bytes_per_s: 12.8e9,
            },
            c: LevelSpec {
                level: Level::C,
                capacity_bytes: 8 * 1024 * 1024 * 1024,
                bandwidth_bytes_per_s: 3.2e9,
            },
        }
    }

    /// The SRC `MAPstation` column of paper Table 1.
    pub fn src_mapstation() -> Self {
        Self {
            platform: "SRC MAPstation",
            a: LevelSpec {
                level: Level::A,
                capacity_bytes: 648 * 1024,
                bandwidth_bytes_per_s: 260e9,
            },
            b: LevelSpec {
                level: Level::B,
                capacity_bytes: 24 * 1024 * 1024,
                bandwidth_bytes_per_s: 4.8e9,
            },
            c: LevelSpec {
                level: Level::C,
                capacity_bytes: 8 * 1024 * 1024 * 1024,
                bandwidth_bytes_per_s: 1.4e9,
            },
        }
    }

    /// Look up one level's specification.
    pub fn level(&self, l: Level) -> &LevelSpec {
        match l {
            Level::A => &self.a,
            Level::B => &self.b,
            Level::C => &self.c,
        }
    }

    /// Bandwidth decreases monotonically down the hierarchy while capacity
    /// increases — the structural property Figure 5 of the paper depicts.
    pub fn is_well_formed(&self) -> bool {
        self.a.bandwidth_bytes_per_s > self.b.bandwidth_bytes_per_s
            && self.b.bandwidth_bytes_per_s > self.c.bandwidth_bytes_per_s
            && self.a.capacity_bytes < self.b.capacity_bytes
            && self.b.capacity_bytes < self.c.capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_cray_values() {
        let h = MemoryHierarchy::cray_xd1();
        assert_eq!(h.a.capacity_bytes, 522 * 1024);
        assert_eq!(h.b.capacity_bytes, 16 << 20);
        assert_eq!(h.c.capacity_bytes, 8 << 30);
        assert_eq!(h.a.bandwidth_bytes_per_s, 209e9);
        assert_eq!(h.b.bandwidth_bytes_per_s, 12.8e9);
        assert_eq!(h.c.bandwidth_bytes_per_s, 3.2e9);
    }

    #[test]
    fn table1_src_values() {
        let h = MemoryHierarchy::src_mapstation();
        assert_eq!(h.a.capacity_bytes, 648 * 1024);
        assert_eq!(h.b.capacity_bytes, 24 << 20);
        assert_eq!(h.b.bandwidth_bytes_per_s, 4.8e9);
        assert_eq!(h.c.bandwidth_bytes_per_s, 1.4e9);
    }

    #[test]
    fn both_platforms_well_formed() {
        assert!(MemoryHierarchy::cray_xd1().is_well_formed());
        assert!(MemoryHierarchy::src_mapstation().is_well_formed());
    }

    #[test]
    fn level_lookup_matches_fields() {
        let h = MemoryHierarchy::cray_xd1();
        assert_eq!(h.level(Level::A), &h.a);
        assert_eq!(h.level(Level::B), &h.b);
        assert_eq!(h.level(Level::C), &h.c);
    }

    #[test]
    fn words_per_cycle_at_design_clock() {
        // XD1 SRAM at 12.8 GB/s feeding a 170 MHz design sustains
        // 12.8e9/8/170e6 ≈ 9.4 words/cycle; the paper caps designs at the
        // 6.4 GB/s read direction, handled by the design parameters.
        let h = MemoryHierarchy::cray_xd1();
        let wpc = h.b.words_per_cycle(170.0);
        assert!((wpc - 9.41).abs() < 0.01, "got {wpc}");
    }

    #[test]
    fn capacity_words() {
        let h = MemoryHierarchy::cray_xd1();
        // 16 MB of SRAM holds 2M words: a 1024×1024 matrix with room over
        // (§6.2: n can be at most √2 × 1024).
        assert_eq!(h.b.capacity_words(), 2 * 1024 * 1024);
    }

    #[test]
    fn level_names() {
        assert!(Level::A.name().contains("BRAM"));
        assert!(Level::B.name().contains("SRAM"));
        assert!(Level::C.name().contains("DRAM"));
    }
}
