//! Shared infrastructure for the table/figure regeneration binaries.
//!
//! Every table and figure of the SC'05 paper has a binary in `src/bin/`
//! that re-derives it from the architecture simulations and cost models:
//!
//! | target | reproduces | paper-matrix cells it prints |
//! |---|---|---|
//! | `table1` | memory characteristics of SRC and Cray platforms | — |
//! | `table2` | floating-point unit and reduction-circuit cost sheet | — |
//! | `table3` | Level-1/2 design characteristics and sustained MFLOPS | [`paper_matrix::dot`], [`paper_matrix::mvm_row`] |
//! | `fig9`   | matrix-multiply area & clock vs number of PEs | [`paper_matrix::mm_model`] at k = 1..=10 |
//! | `table4` | Level-2/3 BLAS on one XD1 FPGA | [`paper_matrix::mvm_xd1_l2`], [`paper_matrix::mm_hierarchical`] |
//! | `fig11`  | projected chassis GFLOPS sweep (XC2VP50) | [`paper_matrix::projection`] (XC2VP50) |
//! | `fig12`  | projected chassis GFLOPS sweep (XC2VP100) | [`paper_matrix::projection`] (XC2VP100) |
//! | `chassis`| §6.4 single-chassis and 12-chassis predictions | — |
//! | `cpu_compare` | §6.3 CPU dgemm comparison (measured on this host) | — |
//! | `ablation` | reduction-circuit and design-choice ablations | — |
//! | `alpha_sweep` | buffer/latency bounds vs adder depth α | — |
//!
//! Those cells are the functions the matrix's job list calls, so the
//! binaries' `--json` records are the matrix's cells byte for byte.
//!
//! Run them with `cargo run --release -p fblas-bench --bin <name>`.
//! Every binary accepts `--trace <out.json>` to dump a Chrome
//! `trace_event` timeline of its simulated kernels (see [`trace`]) and
//! `--json <out.json>` to emit its measurements as canonical
//! [`fblas_metrics`] run records (see [`record_sink`]).
//!
//! The `observatory` binary ties the records together and is the one
//! gate on the paper's claims: `observatory run` executes the full paper
//! matrix ([`paper_matrix`], the one producer of every paper figure),
//! persists a `BENCH_<n>.json` trajectory file and checks every figure
//! against the shared tolerance table, `observatory diff` gates a fresh
//! run against a committed baseline, `observatory report` renders
//! the scoreboard into `EXPERIMENTS.md`, `observatory faults` fans
//! the seeded fault-injection campaign ([`fault_matrix`]) across the
//! same worker pool, `observatory serve` runs the BLAS-as-a-service
//! campaign ([`serve_matrix`]) and persists `SERVE_<n>.json`, and
//! `observatory scale` shards the linear-array kernels across the
//! simulated multi-FPGA fabric ([`scale_matrix`]) and persists
//! `SCALE_<n>.json` gated against the §6.4 projections. All of
//! them parse their flags through the shared, unit-tested [`cli`]
//! helpers (usage errors exit 2; gate failures exit 1).

pub mod cli;
pub mod fault_matrix;
pub mod paper_matrix;
pub mod pool;
pub mod record_sink;
pub mod scale_matrix;
pub mod serve_matrix;
pub mod trace;
pub mod workloads;

use fblas_metrics::RunRecord;
use fblas_system::{ChassisProjection, FpgaDevice, ProjectionPoint};
use record_sink::RecordSink;
use trace::{reference_kernels, TraceOption};

/// Render a fixed-width text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    println!("\n{title}");
    println!("+{line}+");
    let hdr: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!(" {h:<w$} "))
        .collect();
    println!("|{}|", hdr.join("|"));
    println!("+{line}+");
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:<w$} "))
            .collect();
        println!("|{}|", cells.join("|"));
    }
    println!("+{line}+");
}

/// Format "measured (paper: X, Δ%)" for a paper-reported value.
pub fn vs_paper(measured: f64, paper: f64, unit: &str) -> String {
    let delta = (measured - paper) / paper * 100.0;
    format!("{measured:.3} {unit} (paper {paper:.3}, {delta:+.1}%)")
}

/// The measured value of `record`'s parity entry `id`.
///
/// # Panics
/// If `record` carries no entry `id`.
pub fn figure(record: &RunRecord, id: &str) -> f64 {
    record
        .paper
        .iter()
        .find(|p| p.figure_id == id)
        .unwrap_or_else(|| panic!("{} carries no '{id}'", record.key()))
        .measured
}

/// [`vs_paper`] of `record`'s parity entry `id` against the paper value
/// and unit of the shared tolerance row `id`.
///
/// # Panics
/// If `id` is not in [`fblas_metrics::PAPER_TOLERANCES`] or `record`
/// does not carry it.
pub fn vs_figure(record: &RunRecord, id: &str) -> String {
    let t = fblas_metrics::lookup(id).unwrap_or_else(|| panic!("unknown paper figure '{id}'"));
    vs_paper(figure(record, id), t.paper, t.unit)
}

/// Figures 11 and 12: print the projected GFLOPS of one XD1 chassis of
/// `device` (the XC2VP`part`) over PE areas of 1600–2000 slices and PE
/// clocks of 160–200 MHz, record the paper matrix's projection cell
/// (the best point, 1600 slices @ 200 MHz) and return that point. The
/// sweep is analytic, so `--trace` traces the reference kernels instead.
pub fn chassis_sweep(figure: u32, device: FpgaDevice, part: i64) -> ProjectionPoint {
    let trace = TraceOption::from_args();
    let mut sink = RecordSink::from_args(&format!("fig{figure}"));
    let proj = ChassisProjection::xd1(device);

    let clocks: Vec<u32> = (160..=200).step_by(10).collect();
    let mut headers: Vec<String> = vec!["PE area (slices)".into()];
    headers.extend(clocks.iter().map(|c| format!("{c} MHz")));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = (1600..=2000u32)
        .step_by(100)
        .map(|pe| {
            let mut row = vec![format!(
                "{pe} ({} PEs)",
                proj.point(pe, 160.0).pes_per_device
            )];
            row.extend(
                clocks
                    .iter()
                    .map(|&c| format!("{:.1}", proj.point(pe, f64::from(c)).chassis_gflops)),
            );
            row
        })
        .collect();
    print_table(
        &format!(
            "Figure {figure}: Projected chassis GFLOPS, XC2VP{part} ({} FPGAs, 25% routing derate)",
            proj.fpgas_per_chassis
        ),
        &headers_ref,
        &rows,
    );

    let (best, record) = paper_matrix::projection(figure, device, part);
    sink.push(record);
    reference_kernels(&trace, None);
    sink.write();
    best
}

/// Deterministic pseudo-random matrix data in [-1, 1) without pulling a
/// generator crate into the hot path (one xorshift64 stream per seed).
pub fn synth(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Below 2⁵³, so the signed conversion (one instruction on
            // x86-64) gives the same double as the unsigned one.
            (state >> 11) as i64 as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

/// Integer-valued synthetic data (exact summation in any order): each
/// word is `(state >> 17) % modulus`.
///
/// # Panics
/// If `modulus` is 0 and `len` is not.
pub fn synth_int(seed: u64, len: usize, modulus: u64) -> Vec<f64> {
    // The quotient of x = state >> 17 < 2⁴⁷ by m is the high word of
    // x·M with M = ⌈2⁶⁴/m⌉ (one multiply, no divide): it is exact while
    // x·(M·m − 2⁶⁴) < 2⁶⁴, which holds for every m < 2¹⁷ since
    // M·m − 2⁶⁴ < m. Modulus 1 (M overflows) and wider moduli keep `%`.
    let magic = (2..1 << 17)
        .contains(&modulus)
        .then(|| u64::MAX / modulus + 1);
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = state >> 17;
            let r = match magic {
                Some(m) => x - ((u128::from(x) * u128::from(m)) >> 64) as u64 * modulus,
                None => x % modulus,
            };
            r as i64 as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_is_deterministic_and_bounded() {
        let a = synth(42, 100);
        let b = synth(42, 100);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
        assert_ne!(a, synth(43, 100));
    }

    #[test]
    fn synth_int_in_range() {
        let v = synth_int(7, 1000, 8);
        assert!(v.iter().all(|x| (0.0..8.0).contains(x) && x.fract() == 0.0));
    }

    /// The xorshift words the generators draw from, in order.
    fn words(seed: u64, len: usize) -> impl Iterator<Item = u64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len).map(move |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
    }

    #[test]
    fn synth_int_equals_the_remainder_formula() {
        let moduli = (1..=300).chain([
            512,
            (1 << 16) - 1,
            1 << 16,
            1 << 17,
            1 << 20,
            1 << 40,
            u64::MAX,
        ]);
        for m in moduli {
            for (seed, len) in [(0, 1), (1, 7), (5, 64), (9, 333), (0xDEAD_BEEF, 1000)] {
                let want: Vec<u64> = words(seed, len).map(|w| (w >> 17) % m).collect();
                let got = synth_int(seed, len, m);
                assert_eq!(got.len(), len);
                for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), (w as f64).to_bits(), "m {m} seed {seed} [{i}]");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "remainder with a divisor of zero")]
    fn synth_int_rejects_modulus_zero() {
        synth_int(3, 4, 0);
    }

    #[test]
    fn synth_bits_are_pinned() {
        for (seed, len) in [(0, 1), (42, 100), (0xDEAD_BEEF, 4096)] {
            let got = synth(seed, len);
            for (g, w) in got.iter().zip(words(seed, len)) {
                let want = (w >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
                assert_eq!(g.to_bits(), want.to_bits(), "seed {seed}");
            }
        }
        // FNV-1a over the bits of one draw: a change to the generator's
        // stream, not only to its conversion, moves this.
        let hash = synth(7, 1000)
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3)
            });
        assert_eq!(hash, 0x27da_b8bc_403f_3fed);
    }

    #[test]
    fn vs_paper_formats_delta() {
        let s = vs_paper(110.0, 100.0, "MFLOPS");
        assert!(s.contains("+10.0%"), "{s}");
        let t = &fblas_metrics::PAPER_TOLERANCES[0];
        let record = RunRecord::modeled("any", &[], 100.0, 0).with_paper(t.id, t.paper);
        assert_eq!(figure(&record, t.id), t.paper);
        assert_eq!(vs_figure(&record, t.id), vs_paper(t.paper, t.paper, t.unit));
    }
}
