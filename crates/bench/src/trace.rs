//! Shared `--trace <out.json>` support for the bench binaries.
//!
//! Every table/figure binary accepts `--trace <path>` (also spelled
//! `--trace=<path>`). When the flag is present the binary routes its
//! simulated kernels through a single deep-probed [`Harness`] and, on
//! exit, writes the merged Chrome `trace_event` JSON to the path. Open
//! the file in `chrome://tracing` or <https://ui.perfetto.dev> to see
//! per-component busy/stall spans (with stall-cause attribution) and
//! FIFO-occupancy counter tracks.
//!
//! Binaries whose tables are purely analytic (cost models, projections)
//! trace the representative simulated kernels via
//! [`trace_reference_kernels`] instead, so `--trace` is meaningful on
//! every binary.

use std::path::PathBuf;

use fblas_sim::Harness;

use crate::cli;

/// Telemetry window for traced runs. Much finer than the
/// [`fblas_sim::DEFAULT_TELEM_WINDOW`] the observatory uses: trace
/// kernels are a few hundred cycles, and the counter tracks are for
/// *looking at* in a trace viewer, so ~4-cycle-per-pixel resolution
/// beats RLE compactness here.
pub const TRACE_TELEM_WINDOW: u64 = 64;

/// Result of scanning the process arguments for `--trace`.
pub struct TraceOption {
    path: Option<PathBuf>,
}

impl TraceOption {
    /// Scan `std::env::args` for `--trace <path>` / `--trace=<path>`.
    ///
    /// Exits with an error message when the flag is given without a path.
    pub fn from_args() -> Self {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        Self {
            path: cli::or_exit(cli::take_value(&mut args, "--trace")).map(PathBuf::from),
        }
    }

    /// Whether a trace file was requested.
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// A harness to thread through the binary's simulated runs: deep
    /// (waveforms + stall events) when tracing, summary mode otherwise.
    /// Summary mode adds no waveform work, and cycle counts are
    /// identical in both modes, so binaries thread this harness
    /// unconditionally without changing their printed tables.
    ///
    /// Traced harnesses also run windowed telemetry at
    /// [`TRACE_TELEM_WINDOW`] cycles, so the written trace carries the
    /// per-window busy/stall counter tracks next to the waveforms.
    pub fn harness(&self) -> Harness {
        if self.enabled() {
            let mut h = Harness::deep();
            h.enable_telemetry(TRACE_TELEM_WINDOW);
            h
        } else {
            Harness::new()
        }
    }

    /// Write the Chrome trace collected in `harness`, if one was
    /// requested. Exits with an error message on I/O failure.
    pub fn write(&self, harness: &Harness) {
        let Some(path) = &self.path else { return };
        match harness.probe().write_chrome_trace(path) {
            Ok(()) => eprintln!("trace: wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write trace {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
}

/// Trace one representative run of each simulated kernel family — dot
/// product (§4.2), row-major matrix-vector (§4.4), and the linear-array
/// matrix multiply (§5.1) — on a single timeline.
///
/// Used by binaries whose own output is analytic; sizes are kept small
/// because the point of the trace is component/stall structure, not the
/// full-size run.
pub fn trace_reference_kernels(trace: &TraceOption) {
    use fblas_core::dot::{DotParams, DotProductDesign};
    use fblas_core::mm::{LinearArrayMm, MmParams};
    use fblas_core::mvm::{DenseMatrix, MvmParams, RowMajorMvm};

    if !trace.enabled() {
        return;
    }
    let mut h = trace.harness();

    let n = 256usize;
    let u = crate::synth_int(1, n, 8);
    let v = crate::synth_int(2, n, 8);
    DotProductDesign::standalone(DotParams::table3(), 170.0).run_in(&mut h, &u, &v);

    let a = DenseMatrix::from_rows(64, 64, crate::synth_int(3, 64 * 64, 8));
    let x = crate::synth_int(4, 64, 8);
    RowMajorMvm::standalone(MvmParams::with_k(4), 170.0).run_in(&mut h, &a, &x);

    let m = 16usize;
    let nn = 32usize;
    let ma = DenseMatrix::from_rows(nn, nn, crate::synth_int(5, nn * nn, 4));
    let mb = DenseMatrix::from_rows(nn, nn, crate::synth_int(6, nn * nn, 4));
    LinearArrayMm::new(MmParams::test(4, m)).run_in(&mut h, &ma, &mb);

    trace.write(&h);
}
