//! The shared paper-parity tolerance table.
//!
//! One row per headline number the SC'05 paper reports (Tables 1–4,
//! Figures 9–12, §6.4 projections): a stable id, the paper's value, the
//! unit and the relative tolerance within which our reproduction must
//! land. Every consumer gates against *this* table — the `observatory
//! run`/`diff` parity verdict and scoreboard, and the design-rule
//! checker's parity-coverage rule over the committed `BENCH_0001.json` —
//! so a tolerance can never drift between tools.
//!
//! Tolerances are asymmetry-free relative bounds chosen in PR 0–2 when
//! the models were calibrated; EXPERIMENTS.md documents the cause of each
//! standing delta (e.g. the dot product's greedy reduction drain).

/// One paper-reported value and the tolerance our reproduction must meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperTolerance {
    /// Stable identifier, `<table-or-figure>.<design>.<metric>`.
    pub id: &'static str,
    /// Human-readable description.
    pub description: &'static str,
    /// The value the paper reports.
    pub paper: f64,
    /// Unit of the value (display only).
    pub unit: &'static str,
    /// Permitted relative deviation `|measured - paper| / |paper|`.
    pub tol_frac: f64,
}

impl PaperTolerance {
    /// Relative deviation of `measured` from the paper value.
    pub fn delta_frac(&self, measured: f64) -> f64 {
        (measured - self.paper) / self.paper.abs()
    }

    /// True iff `measured` is within tolerance.
    pub fn accepts(&self, measured: f64) -> bool {
        self.delta_frac(measured).abs() <= self.tol_frac
    }
}

/// The table. Kept sorted by id for scoreboard rendering.
pub const PAPER_TOLERANCES: &[PaperTolerance] = &[
    PaperTolerance {
        id: "fig11.best.gflops",
        description: "Fig 11 best projected chassis point (XC2VP50)",
        paper: 27.0,
        unit: "GFLOPS",
        tol_frac: 0.10,
    },
    PaperTolerance {
        id: "fig12.best.gflops",
        description: "Fig 12 best projected chassis point (XC2VP100)",
        paper: 50.0,
        unit: "GFLOPS",
        tol_frac: 0.05,
    },
    PaperTolerance {
        id: "fig9.clock.k1",
        description: "MM design clock at k = 1",
        paper: 155.0,
        unit: "MHz",
        tol_frac: 0.001,
    },
    PaperTolerance {
        id: "fig9.clock.k10",
        description: "MM design clock at k = 10",
        paper: 125.0,
        unit: "MHz",
        tol_frac: 0.001,
    },
    PaperTolerance {
        id: "fig9.max-pes.xc2vp50",
        description: "most MM PEs that fit the XC2VP50",
        paper: 10.0,
        unit: "PEs",
        tol_frac: 0.001,
    },
    PaperTolerance {
        id: "sec6.chassis.gflops",
        description: "§6.4 one-chassis sustained projection",
        paper: 12.4,
        unit: "GFLOPS",
        tol_frac: 0.01,
    },
    PaperTolerance {
        id: "sec6.chassis12.gflops",
        description: "§6.4 twelve-chassis sustained projection",
        paper: 148.3,
        unit: "GFLOPS",
        tol_frac: 0.01,
    },
    PaperTolerance {
        id: "sec6.device-peak.gflops",
        description: "§6.3 XC2VP50 compute-bound device peak",
        paper: 4.42,
        unit: "GFLOPS",
        tol_frac: 0.01,
    },
    PaperTolerance {
        id: "table3.dot.mflops",
        description: "Table 3 Level-1 dot product sustained (k=2, n=2048)",
        paper: 557.0,
        unit: "MFLOPS",
        tol_frac: 0.15,
    },
    PaperTolerance {
        id: "table3.dot.slices",
        description: "Table 3 Level-1 dot product area",
        paper: 5210.0,
        unit: "slices",
        tol_frac: 0.01,
    },
    PaperTolerance {
        id: "table3.mvm.mflops",
        description: "Table 3 Level-2 matrix-vector sustained (k=4, n=2048)",
        paper: 1355.0,
        unit: "MFLOPS",
        tol_frac: 0.05,
    },
    PaperTolerance {
        id: "table3.mvm.slices",
        description: "Table 3 Level-2 matrix-vector area",
        paper: 9669.0,
        unit: "slices",
        tol_frac: 0.01,
    },
    PaperTolerance {
        id: "table4.l2.latency-ms",
        description: "Table 4 Level-2 total latency on XD1 (n=1024)",
        paper: 8.0,
        unit: "ms",
        tol_frac: 0.05,
    },
    PaperTolerance {
        id: "table4.l2.mflops",
        description: "Table 4 Level-2 sustained incl. DRAM staging",
        paper: 262.0,
        unit: "MFLOPS",
        tol_frac: 0.05,
    },
    PaperTolerance {
        id: "table4.l2.peak-pct",
        description: "Table 4 Level-2 percentage of the 325 MFLOPS peak",
        paper: 80.6,
        unit: "%",
        tol_frac: 0.05,
    },
    PaperTolerance {
        id: "table4.l3.gflops",
        description: "Table 4 Level-3 hierarchical MM sustained (n=512)",
        paper: 2.06,
        unit: "GFLOPS",
        tol_frac: 0.02,
    },
    PaperTolerance {
        id: "table4.l3.latency-ms",
        description: "Table 4 Level-3 hierarchical MM latency",
        paper: 131.0,
        unit: "ms",
        tol_frac: 0.03,
    },
];

/// Look a tolerance up by id.
pub fn lookup(id: &str) -> Option<&'static PaperTolerance> {
    PAPER_TOLERANCES.iter().find(|t| t.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ids_are_unique_and_sorted() {
        for pair in PAPER_TOLERANCES.windows(2) {
            assert!(pair[0].id < pair[1].id, "{} !< {}", pair[0].id, pair[1].id);
        }
    }

    #[test]
    fn table_values_are_sane() {
        for t in PAPER_TOLERANCES {
            assert!(t.paper > 0.0, "{}", t.id);
            assert!(t.tol_frac > 0.0 && t.tol_frac < 1.0, "{}", t.id);
            assert!(!t.unit.is_empty() && !t.description.is_empty(), "{}", t.id);
        }
    }

    #[test]
    fn accepts_within_tolerance() {
        let t = lookup("table3.dot.mflops").unwrap();
        assert!(t.accepts(557.0));
        assert!(t.accepts(557.0 * 1.149));
        assert!(!t.accepts(557.0 * 1.151));
        assert!((t.delta_frac(557.0 * 1.10) - 0.10).abs() < 1e-12);
    }
}
