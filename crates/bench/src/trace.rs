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
//! trace (and, with `--json`, record) the representative simulated
//! kernels via [`reference_kernels`] instead, so `--trace` is meaningful
//! on every binary.

use std::path::PathBuf;

use fblas_metrics::RunRecord;
use fblas_sim::Harness;

use crate::cli;
use crate::record_sink::{measure, RecordSink};

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

/// Run one representative kernel of each simulated family — dot
/// product (§4.2), row-major matrix-vector (§4.4) and the linear-array
/// matrix multiply (§5.1) — once, on one harness: on a single timeline
/// when `--trace` is given, and as one [`RunRecord`] each in `sink` when
/// one is passed and `--json` is given.
///
/// Used by binaries whose own output is analytic, so `--trace` and
/// `--json` are meaningful on every binary; sizes are kept small
/// because the point is component/stall structure, not the full-size
/// run.
pub fn reference_kernels(trace: &TraceOption, mut sink: Option<&mut RecordSink>) {
    use fblas_core::dot::{DotParams, DotProductDesign};
    use fblas_core::mm::{LinearArrayMm, MmParams};
    use fblas_core::mvm::{DenseMatrix, MvmParams, RowMajorMvm};

    if !trace.enabled() && !sink.as_ref().is_some_and(|s| s.enabled()) {
        return;
    }
    let mut h = trace.harness();
    let mut push = |kernel: &str, params: &[(&str, i64)], report, stalls, mhz| {
        if let Some(sink) = sink.as_deref_mut() {
            sink.push(RunRecord::from_sim(kernel, params, report, stalls, mhz, 0));
        }
    };

    let n = 256usize;
    let u = crate::synth_int(1, n, 8);
    let v = crate::synth_int(2, n, 8);
    let dot = DotProductDesign::standalone(DotParams::table3(), 170.0);
    let (out, stalls) = measure(&mut h, |h| dot.run_in(h, &u, &v));
    let params = [("k", 2), ("n", n as i64)];
    push("dot", &params, out.report, stalls, out.clock.mhz());

    let a = DenseMatrix::from_rows(64, 64, crate::synth_int(3, 64 * 64, 8));
    let x = crate::synth_int(4, 64, 8);
    let mvm = RowMajorMvm::standalone(MvmParams::with_k(4), 170.0);
    let (out, stalls) = measure(&mut h, |h| mvm.run_in(h, &a, &x));
    let params = [("k", 4), ("n", 64)];
    push("mvm/row", &params, out.report, stalls, out.clock.mhz());

    let m = 16usize;
    let nn = 32usize;
    let ma = DenseMatrix::from_rows(nn, nn, crate::synth_int(5, nn * nn, 4));
    let mb = DenseMatrix::from_rows(nn, nn, crate::synth_int(6, nn * nn, 4));
    let mm = LinearArrayMm::new(MmParams::test(4, m));
    let (out, stalls) = measure(&mut h, |h| mm.run_in(h, &ma, &mb));
    let params = [("k", 4), ("m", m as i64), ("n", nn as i64)];
    push("mm/linear", &params, out.report, stalls, out.clock.mhz());

    trace.write(&h);
}
