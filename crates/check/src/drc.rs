//! Design-rule checker: the paper's feasibility bounds, statically.
//!
//! Every design the paper builds is justified by a handful of closed-form
//! constraints — area against device slices (§6.2), the 2α² reduction
//! buffer bound (§4.3), the m²/k local-store and update-interval bounds
//! (§5.1), per-channel bandwidth feasibility (§4.4, §6.4), and blocking
//! divisibility. The simulator *asserts* many of these at run time; this
//! module proves them **before** a single cycle is simulated, so an
//! infeasible configuration is reported as a [`Diagnostic`] with the
//! violated quantities instead of a panic deep inside a run.
//!
//! The checker also computes [`min_cycles`], a cycle-count lower bound
//! derived from I/O rates alone. The cycle-accurate simulation must never
//! beat it; the property tests in this crate cross-check that claim for
//! random feasible design points.

use fblas_core::dot::DotParams;
use fblas_core::mm::{HazardPolicy, HierarchicalParams, MmParams};
use fblas_core::mvm::MvmParams;
use fblas_system::projection::{hierarchical_dram_bytes_per_s, hierarchical_sram_bytes_per_s};
use fblas_system::src_station::SrcMapStation;
use fblas_system::{AreaModel, ClockModel, FpgaDevice, Xd1Chassis, Xd1Node, XC2VP50};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A satisfied bound, reported with its margin.
    Info,
    /// Legal but outside the paper's justified envelope.
    Warning,
    /// The design cannot be built or cannot run correctly.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding of the design-rule checker.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable identifier of the violated (or verified) rule, named after
    /// the paper section that states the bound, e.g. `"§6.2-area"`.
    pub rule_id: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// The quantities the rule compared, for machine consumption.
    pub quantities: Vec<(&'static str, f64)>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:7} [{}] {}", self.severity, self.rule_id, self.message)?;
        if !self.quantities.is_empty() {
            let qs: Vec<String> = self
                .quantities
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            write!(f, " ({})", qs.join(", "))?;
        }
        Ok(())
    }
}

/// The outcome of checking one design point.
#[derive(Debug, Clone)]
pub struct Report {
    /// Name of the design point that was checked.
    pub design: String,
    /// All findings, in rule order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// True if no rule was violated at [`Severity::Error`].
    pub fn is_feasible(&self) -> bool {
        self.count(Severity::Error) == 0
    }

    /// The diagnostics for one rule.
    pub fn rule(&self, rule_id: &str) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.rule_id == rule_id)
            .collect()
    }

    /// Render the report as the `drc` binary prints it.
    pub fn render(&self, verbose: bool) -> String {
        let mut out = String::new();
        let verdict = if self.is_feasible() { "PASS" } else { "FAIL" };
        out.push_str(&format!(
            "{verdict} {} ({} errors, {} warnings)\n",
            self.design,
            self.count(Severity::Error),
            self.count(Severity::Warning)
        ));
        for d in &self.diagnostics {
            if verbose || d.severity > Severity::Info {
                out.push_str(&format!("  {d}\n"));
            }
        }
        out
    }

    /// The report as a machine-readable JSON object (the element shape
    /// of the `drc --format json` document).
    pub fn to_json(&self) -> fblas_metrics::Json {
        use fblas_metrics::Json;
        let mut diags = Vec::with_capacity(self.diagnostics.len());
        for d in &self.diagnostics {
            let mut quantities = Json::obj();
            for (key, value) in &d.quantities {
                quantities.set(key, Json::Num(*value));
            }
            diags.push(
                Json::obj()
                    .with("rule", Json::Str(d.rule_id.to_string()))
                    .with("severity", Json::Str(d.severity.to_string()))
                    .with("message", Json::Str(d.message.clone()))
                    .with("quantities", quantities),
            );
        }
        Json::obj()
            .with("design", Json::Str(self.design.clone()))
            .with("feasible", Json::Bool(self.is_feasible()))
            .with("errors", Json::Num(self.count(Severity::Error) as f64))
            .with("warnings", Json::Num(self.count(Severity::Warning) as f64))
            .with("diagnostics", Json::Arr(diags))
    }
}

/// Which architecture a design point instantiates, with its parameters
/// and the problem size `n` it is asked to solve.
#[derive(Debug, Clone)]
pub enum Kernel {
    /// §4.1 tree-based dot product of two length-`n` vectors.
    Dot {
        /// Tree configuration.
        params: DotParams,
        /// Vector length.
        n: usize,
    },
    /// §4.2 row-major (reduction-circuit) matrix-vector multiply, n×n.
    RowMajorMvm {
        /// Lane configuration.
        params: MvmParams,
        /// Matrix edge.
        n: usize,
    },
    /// §4.2 column-major (lockstep-accumulator) matrix-vector multiply.
    ColMajorMvm {
        /// Lane configuration.
        params: MvmParams,
        /// Matrix edge.
        n: usize,
    },
    /// §5.1 single-FPGA linear-array matrix multiply, n×n.
    Mm {
        /// PE-array configuration.
        params: MmParams,
        /// Matrix edge.
        n: usize,
    },
    /// §5.2 hierarchical multi-FPGA matrix multiply, n×n.
    HierarchicalMm {
        /// Array and blocking configuration.
        params: HierarchicalParams,
        /// Matrix edge.
        n: usize,
    },
}

impl Kernel {
    /// The lane / PE count of the design.
    pub fn k(&self) -> usize {
        match self {
            Kernel::Dot { params, .. } => params.k,
            Kernel::RowMajorMvm { params, .. } | Kernel::ColMajorMvm { params, .. } => params.k,
            Kernel::Mm { params, .. } => params.k,
            Kernel::HierarchicalMm { params, .. } => params.mm.k,
        }
    }

    /// The problem size n.
    pub fn n(&self) -> usize {
        match self {
            Kernel::Dot { n, .. }
            | Kernel::RowMajorMvm { n, .. }
            | Kernel::ColMajorMvm { n, .. }
            | Kernel::Mm { n, .. }
            | Kernel::HierarchicalMm { n, .. } => *n,
        }
    }
}

/// The platform a design point targets: the device, the clock it closes
/// timing at, and the memory channels that feed it. Standalone (platform-
/// less) design points use [`Platform::standalone`], whose channels are
/// unlimited — only on-chip rules then apply.
#[derive(Debug, Clone)]
pub struct Platform {
    /// The FPGA.
    pub device: FpgaDevice,
    /// Design clock in MHz (used to convert bytes/s into words/cycle).
    pub clock_mhz: f64,
    /// True if the XD1 RT core + memory controllers share the fabric.
    pub xd1_infra: bool,
    /// SRAM read bandwidth in bytes/s ([`f64::INFINITY`] if unmodelled).
    pub sram_read_bytes_per_s: f64,
    /// SRAM capacity in 64-bit words ([`u64::MAX`] if unmodelled).
    pub sram_words: u64,
    /// DRAM/DMA bandwidth in bytes/s ([`f64::INFINITY`] if unmodelled).
    pub dram_bytes_per_s: f64,
    /// Inter-FPGA link bandwidth in bytes/s.
    pub inter_fpga_bytes_per_s: f64,
    /// Number of FPGAs available (hierarchical designs need `l` of them).
    pub fpgas: usize,
    /// The area cost model.
    pub area: AreaModel,
}

impl Platform {
    /// A bare device with unmodelled memory channels: only area, BRAM and
    /// schedule rules apply.
    pub fn standalone(device: FpgaDevice, clock_mhz: f64) -> Self {
        Self {
            device,
            clock_mhz,
            xd1_infra: false,
            sram_read_bytes_per_s: f64::INFINITY,
            sram_words: u64::MAX,
            dram_bytes_per_s: f64::INFINITY,
            inter_fpga_bytes_per_s: f64::INFINITY,
            fpgas: 1,
            area: AreaModel::default(),
        }
    }

    /// One Cray XD1 blade (§3.1.2) at the given design clock.
    pub fn xd1(clock_mhz: f64) -> Self {
        let node = Xd1Node::default();
        Self {
            device: node.device,
            clock_mhz,
            xd1_infra: true,
            sram_read_bytes_per_s: node.sram_read_bytes_per_s,
            sram_words: node.sram_words(),
            dram_bytes_per_s: node.dram.bandwidth_bytes_per_s,
            inter_fpga_bytes_per_s: f64::INFINITY,
            fpgas: 1,
            area: AreaModel::default(),
        }
    }

    /// `chassis_count` XD1 chassis (6 FPGAs each, RocketI/O ring).
    pub fn xd1_chassis(chassis_count: usize, clock_mhz: f64) -> Self {
        let chassis = Xd1Chassis::default();
        let mut p = Self::xd1(clock_mhz);
        p.inter_fpga_bytes_per_s = chassis.inter_fpga_bytes_per_s;
        p.fpgas = chassis.n_fpgas * chassis_count;
        p
    }

    /// The SRC `MAPstation` platform (§3.1.1) at the given design clock.
    pub fn src_map(clock_mhz: f64) -> Self {
        let station = SrcMapStation::default();
        Self {
            device: XC2VP50,
            clock_mhz,
            xd1_infra: false,
            sram_read_bytes_per_s: station.sram_read_bytes_per_s,
            sram_words: station.sram_words(),
            dram_bytes_per_s: f64::INFINITY,
            inter_fpga_bytes_per_s: f64::INFINITY,
            fpgas: station.fpgas,
            area: AreaModel::default(),
        }
    }

    /// Words per cycle the SRAM read path sustains at the design clock.
    pub fn sram_words_per_cycle(&self) -> f64 {
        self.sram_read_bytes_per_s / 8.0 / (self.clock_mhz * 1e6)
    }
}

/// A named (kernel, platform) pair — the unit the checker operates on.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// Display name, e.g. `"table3-dot-xd1"`.
    pub name: String,
    /// The architecture and problem size.
    pub kernel: Kernel,
    /// The device and memory system it targets.
    pub platform: Platform,
}

impl DesignPoint {
    /// Convenience constructor.
    pub fn new(name: &str, kernel: Kernel, platform: Platform) -> Self {
        Self {
            name: name.to_string(),
            kernel,
            platform,
        }
    }
}

/// Tolerance for floating-point bandwidth comparisons (matches the
/// constructors' own `1e-9` slack).
const EPS: f64 = 1e-9;

struct Checker {
    diags: Vec<Diagnostic>,
}

impl Checker {
    fn push(
        &mut self,
        rule_id: &'static str,
        severity: Severity,
        message: String,
        quantities: Vec<(&'static str, f64)>,
    ) {
        self.diags.push(Diagnostic {
            rule_id,
            severity,
            message,
            quantities,
        });
    }

    /// Report `used ≤ budget` as Info with margin, or as `sev` if violated.
    fn bound(
        &mut self,
        rule_id: &'static str,
        sev: Severity,
        what: &str,
        used: f64,
        budget: f64,
        unit: &str,
    ) {
        if used <= budget + EPS {
            self.push(
                rule_id,
                Severity::Info,
                format!("{what}: {used} of {budget} {unit}"),
                vec![("used", used), ("budget", budget)],
            );
        } else {
            self.push(
                rule_id,
                sev,
                format!("{what}: needs {used} {unit} but only {budget} available"),
                vec![("used", used), ("budget", budget)],
            );
        }
    }
}

/// Total slices the design needs on this platform.
fn design_slices(dp: &DesignPoint) -> u32 {
    let area = &dp.platform.area;
    let infra = if dp.platform.xd1_infra {
        area.xd1_infra_slices
    } else {
        0
    };
    match &dp.kernel {
        Kernel::Dot { params, .. } => area.dot_design(params.k as u32) + infra,
        Kernel::RowMajorMvm { params, .. } | Kernel::ColMajorMvm { params, .. } => {
            area.mvm_design(params.k as u32) + infra
        }
        Kernel::Mm { params, .. } => {
            if dp.platform.xd1_infra {
                // On XD1 the array also carries the Figure 8 accumulating
                // adder next to the RT core (§6.3).
                area.mm_design_xd1(params.k as u32)
            } else {
                area.mm_design(params.k as u32)
            }
        }
        Kernel::HierarchicalMm { params, .. } => area.mm_design_xd1(params.mm.k as u32),
    }
}

/// §6.2: the design (plus platform infrastructure) must fit the device.
fn rule_area(dp: &DesignPoint, c: &mut Checker) {
    let slices = design_slices(dp);
    let budget = dp.platform.device.slices;
    if slices <= budget {
        c.push(
            "§6.2-area",
            Severity::Info,
            format!(
                "{} slices of {} on {} ({:.0}% occupancy)",
                slices,
                budget,
                dp.platform.device.name,
                dp.platform.device.occupancy(slices) * 100.0
            ),
            vec![
                ("design_slices", f64::from(slices)),
                ("device_slices", f64::from(budget)),
            ],
        );
    } else {
        c.push(
            "§6.2-area",
            Severity::Error,
            format!(
                "design needs {} slices but {} has only {}{}",
                slices,
                dp.platform.device.name,
                budget,
                if dp.platform.xd1_infra {
                    " (includes the XD1 RT core + memory controllers)"
                } else {
                    ""
                }
            ),
            vec![
                ("design_slices", f64::from(slices)),
                ("device_slices", f64::from(budget)),
            ],
        );
    }
}

/// §4.3 / §5.1: on-chip storage (reduction buffer, x/y stores, PE local
/// stores) must fit block RAM.
fn rule_on_chip_storage(dp: &DesignPoint, c: &mut Checker) {
    let bram = dp.platform.device.bram_words() as f64;
    match &dp.kernel {
        Kernel::Dot { params, .. } => {
            let alpha = params.adder_stages as f64;
            c.bound(
                "§4.3-reduction-buffer",
                Severity::Error,
                "reduction circuit buffer 2α²",
                2.0 * alpha * alpha,
                bram,
                "BRAM words",
            );
        }
        Kernel::RowMajorMvm { params, n } => {
            let alpha = params.adder_stages as f64;
            // The x vector is resident on chip next to the 2α² buffer.
            c.bound(
                "§4.3-reduction-buffer",
                Severity::Error,
                "reduction buffer 2α² + resident x vector",
                2.0 * alpha * alpha + *n as f64,
                bram,
                "BRAM words",
            );
        }
        Kernel::ColMajorMvm { n, .. } => {
            // The intermediate y vector is resident on chip.
            c.bound(
                "§5.1-local-store",
                Severity::Error,
                "resident y' vector",
                *n as f64,
                bram,
                "BRAM words",
            );
        }
        Kernel::Mm { params, .. } => {
            let m = params.m as f64;
            // §5.1: each PE holds m²/k words of A and m²/k of C — 2m²
            // across the array, all in block RAM.
            c.bound(
                "§5.1-local-store",
                Severity::Error,
                "PE local stores 2m²",
                2.0 * m * m,
                bram,
                "BRAM words",
            );
        }
        Kernel::HierarchicalMm { params, .. } => {
            let m = params.mm.m as f64;
            c.bound(
                "§5.1-local-store",
                Severity::Error,
                "PE local stores 2m²",
                2.0 * m * m,
                bram,
                "BRAM words",
            );
        }
    }
}

/// §6.2 / §5.2: problem data must fit the SRAM attached to the FPGA(s).
fn rule_sram_capacity(dp: &DesignPoint, c: &mut Checker) {
    if dp.platform.sram_words == u64::MAX {
        return; // standalone platform: SRAM unmodelled
    }
    let sram = dp.platform.sram_words as f64;
    match &dp.kernel {
        Kernel::Dot { n, .. } => {
            c.bound(
                "§6.2-sram-capacity",
                Severity::Error,
                "both vectors resident in SRAM",
                2.0 * *n as f64,
                sram,
                "words",
            );
        }
        Kernel::RowMajorMvm { n, .. } | Kernel::ColMajorMvm { n, .. } => {
            let n = *n as f64;
            c.bound(
                "§6.2-sram-capacity",
                Severity::Error,
                "A, x and y resident in SRAM",
                n * n + 2.0 * n,
                sram,
                "words",
            );
        }
        Kernel::Mm { n, .. } => {
            // §6.2: one operand streams while the other is resident —
            // n ≤ √2 × 1024 on XD1 comes from 2n² ≤ SRAM words.
            let n = *n as f64;
            c.bound(
                "§6.2-sram-capacity",
                Severity::Error,
                "resident operand blocks 2n²",
                2.0 * n * n,
                sram,
                "words",
            );
        }
        Kernel::HierarchicalMm { params, .. } => {
            // §5.2: the busiest FPGA owns 2b²/l words of C′ and C slices.
            c.bound(
                "§5.2-sram-per-fpga",
                Severity::Error,
                "C′/C slices on the busiest FPGA",
                params.sram_words_per_fpga() as f64,
                sram,
                "words",
            );
            let b = params.b as f64;
            c.bound(
                "§5.2-sram-per-fpga",
                Severity::Error,
                "2b² SRAM blocks across the array",
                2.0 * b * b,
                sram * params.l as f64,
                "words",
            );
        }
    }
}

/// §4.4 / §6.4: the channels feeding the design must sustain its demand.
fn rule_bandwidth(dp: &DesignPoint, c: &mut Checker) {
    let supply = dp.platform.sram_words_per_cycle();
    match &dp.kernel {
        Kernel::Dot { params, .. } => {
            c.bound(
                "§4.4-bandwidth",
                Severity::Error,
                "two vector streams",
                2.0 * params.words_per_cycle_per_vector,
                supply,
                "words/cycle",
            );
        }
        Kernel::RowMajorMvm { params, .. } | Kernel::ColMajorMvm { params, .. } => {
            c.bound(
                "§4.4-bandwidth",
                Severity::Error,
                "matrix stream",
                params.matrix_words_per_cycle,
                supply,
                "words/cycle",
            );
        }
        Kernel::Mm { params, .. } => {
            c.bound(
                "§4.4-bandwidth",
                Severity::Error,
                "block traffic 3k/m",
                params.words_per_cycle(),
                supply,
                "words/cycle",
            );
        }
        Kernel::HierarchicalMm { params, .. } => {
            let (k, l, b) = (params.mm.k as u32, params.l, params.b as u64);
            let dram = hierarchical_dram_bytes_per_s(k, l, b, dp.platform.clock_mhz);
            c.bound(
                "§6.4-bandwidth",
                Severity::Error,
                "DRAM block traffic 3kl/b",
                dram,
                dp.platform.dram_bytes_per_s,
                "bytes/s",
            );
            c.bound(
                "§6.4-bandwidth",
                Severity::Error,
                "inter-FPGA C-block forwarding",
                dram,
                dp.platform.inter_fpga_bytes_per_s,
                "bytes/s",
            );
            let sram = hierarchical_sram_bytes_per_s(k, l, b, dp.platform.clock_mhz);
            c.bound(
                "§6.4-bandwidth",
                Severity::Error,
                "SRAM C′ traffic",
                sram,
                dp.platform.sram_read_bytes_per_s,
                "bytes/s",
            );
        }
    }
}

/// §4.1 / §5.1: structural schedule legality — power-of-two adder trees,
/// single-issue floating-point units, divisible blockings, enough FPGAs.
fn rule_schedule(dp: &DesignPoint, c: &mut Checker) {
    match &dp.kernel {
        Kernel::Dot { params, n } => {
            if !params.k.is_power_of_two() {
                c.push(
                    "§4.1-tree-shape",
                    Severity::Error,
                    format!("adder tree needs power-of-two k, got {}", params.k),
                    vec![("k", params.k as f64)],
                );
            }
            // Each of the k multipliers may issue at most once per cycle,
            // so the per-vector feed rate must not exceed k.
            c.bound(
                "§5.1-schedule",
                Severity::Error,
                "multiplier single-issue (feed rate ≤ k)",
                params.words_per_cycle_per_vector,
                params.k as f64,
                "words/cycle",
            );
            if *n == 0 {
                c.push(
                    "§5.1-schedule",
                    Severity::Error,
                    "empty vectors have no dot product".to_string(),
                    vec![("n", 0.0)],
                );
            }
        }
        Kernel::RowMajorMvm { params, .. } => {
            if !params.k.is_power_of_two() {
                c.push(
                    "§4.1-tree-shape",
                    Severity::Error,
                    format!("adder tree needs power-of-two k, got {}", params.k),
                    vec![("k", params.k as f64)],
                );
            }
            c.bound(
                "§5.1-schedule",
                Severity::Error,
                "multiplier single-issue (matrix rate ≤ k)",
                params.matrix_words_per_cycle,
                params.k as f64,
                "words/cycle",
            );
        }
        Kernel::ColMajorMvm { params, n } => {
            c.bound(
                "§5.1-schedule",
                Severity::Error,
                "multiplier single-issue (matrix rate ≤ k)",
                params.matrix_words_per_cycle,
                params.k as f64,
                "words/cycle",
            );
            // §4.2: an update must not read a y element whose previous
            // update is still in the adder pipeline: ⌈n/k⌉ ≥ α.
            let chunks = n.div_ceil(params.k.max(1));
            if chunks < params.adder_stages {
                c.push(
                    "§4.2-hazard",
                    Severity::Error,
                    format!(
                        "read-after-write hazard: n/k = {} < α = {} — a y update \
                         would be read before the previous one leaves the adder",
                        chunks, params.adder_stages
                    ),
                    vec![
                        ("chunks_per_column", chunks as f64),
                        ("adder_stages", params.adder_stages as f64),
                    ],
                );
            }
        }
        Kernel::Mm { params, n } => {
            rule_mm_schedule(params, *n, c);
        }
        Kernel::HierarchicalMm { params, n } => {
            rule_mm_schedule(&params.mm, params.b, c);
            if params.b % params.mm.m != 0 {
                c.push(
                    "§5.2-blocking",
                    Severity::Error,
                    format!(
                        "SRAM block edge b = {} must be a multiple of m = {}",
                        params.b, params.mm.m
                    ),
                    vec![("b", params.b as f64), ("m", params.mm.m as f64)],
                );
            } else if params.b / params.mm.m < params.l {
                c.push(
                    "§5.2-blocking",
                    Severity::Error,
                    format!(
                        "need at least one column-block (b/m = {}) per FPGA (l = {})",
                        params.b / params.mm.m,
                        params.l
                    ),
                    vec![
                        ("column_blocks", (params.b / params.mm.m) as f64),
                        ("l", params.l as f64),
                    ],
                );
            }
            if *n % params.b != 0 {
                c.push(
                    "§5.2-blocking",
                    Severity::Error,
                    format!(
                        "n = {n} must be a multiple of the SRAM block edge b = {}",
                        params.b
                    ),
                    vec![("n", *n as f64), ("b", params.b as f64)],
                );
            }
            if dp_fpgas_short(dp) {
                c.push(
                    "§5.2-blocking",
                    Severity::Error,
                    format!(
                        "array needs l = {} FPGAs, platform has {}",
                        params.l, dp.platform.fpgas
                    ),
                    vec![("l", params.l as f64), ("fpgas", dp.platform.fpgas as f64)],
                );
            }
        }
    }
}

fn dp_fpgas_short(dp: &DesignPoint) -> bool {
    match &dp.kernel {
        Kernel::HierarchicalMm { params, .. } => params.l > dp.platform.fpgas,
        _ => false,
    }
}

/// The single-FPGA matrix-multiply schedule rules, shared with the
/// hierarchical design (whose inner blocks follow the same §5.1 schedule).
fn rule_mm_schedule(params: &MmParams, n: usize, c: &mut Checker) {
    if params.k < 1 {
        c.push(
            "§5.1-schedule",
            Severity::Error,
            "need at least one PE".to_string(),
            vec![("k", params.k as f64)],
        );
        return;
    }
    if params.m < params.k || !params.m.is_multiple_of(params.k) {
        c.push(
            "§5.1-schedule",
            Severity::Error,
            format!(
                "block edge m = {} must be a positive multiple of k = {}",
                params.m, params.k
            ),
            vec![("m", params.m as f64), ("k", params.k as f64)],
        );
        return;
    }
    if !n.is_multiple_of(params.m) {
        c.push(
            "§5.1-schedule",
            Severity::Error,
            format!(
                "n = {n} must be a multiple of the block edge m = {}",
                params.m
            ),
            vec![("n", n as f64), ("m", params.m as f64)],
        );
    }
    // §5.1: C updates recur every m²/k cycles; with an α-stage adder the
    // previous update must have left the pipeline: m²/k ≥ α.
    let interval = params.update_interval();
    if interval < params.adder_stages {
        let sev = match params.hazard_policy {
            HazardPolicy::Enforce => Severity::Error,
            HazardPolicy::Document => Severity::Warning,
        };
        c.push(
            "§4.2-hazard",
            sev,
            format!(
                "update interval m²/k = {} < α = {}: C updates collide in the \
                 adder pipeline ({})",
                interval,
                params.adder_stages,
                match params.hazard_policy {
                    HazardPolicy::Enforce => "policy: enforce",
                    HazardPolicy::Document => "policy: document, as §6.3 does",
                }
            ),
            vec![
                ("update_interval", interval as f64),
                ("adder_stages", params.adder_stages as f64),
            ],
        );
    } else {
        c.push(
            "§4.2-hazard",
            Severity::Info,
            format!(
                "update interval m²/k = {} ≥ α = {}: hazard-free",
                interval, params.adder_stages
            ),
            vec![
                ("update_interval", interval as f64),
                ("adder_stages", params.adder_stages as f64),
            ],
        );
    }
}

/// A lower bound on the cycles any correct simulation of this design
/// point must take, derived from I/O rates and pipeline depths alone.
///
/// The bound is deliberately conservative (it ignores fill, drain and
/// hazard stalls), so `simulated cycles ≥ min_cycles` must always hold —
/// the property tests enforce exactly that.
pub fn min_cycles(dp: &DesignPoint) -> u64 {
    match &dp.kernel {
        Kernel::Dot { params, n } => {
            // Streaming n words per vector at rate min(k, feed) plus the
            // lockstep tree latency plus one trip through the reduction
            // adder.
            let rate = params
                .words_per_cycle_per_vector
                .min(params.k as f64)
                .max(EPS);
            let stream = (*n as f64 / rate).floor() as u64;
            stream + params.tree_latency() as u64 + params.adder_stages as u64
        }
        Kernel::RowMajorMvm { params, n } => {
            let rate = params.matrix_words_per_cycle.min(params.k as f64).max(EPS);
            let stream = ((*n as f64) * (*n as f64) / rate).floor() as u64;
            stream
                + (params.mult_stages + params.k.max(1).ilog2() as usize * params.adder_stages)
                    as u64
        }
        Kernel::ColMajorMvm { params, n } => {
            let rate = params.matrix_words_per_cycle.min(params.k as f64).max(EPS);
            ((*n as f64) * (*n as f64) / rate).floor() as u64
                + (params.mult_stages + params.adder_stages) as u64
        }
        Kernel::Mm { params, n } => {
            // §5.1: the array computes one m×m block per m³/k cycles.
            (*n as u64).pow(3) / params.k as u64
        }
        Kernel::HierarchicalMm { params, n } => {
            // l FPGAs cooperate on each block row (§5.2).
            (*n as u64).pow(3) / (params.mm.k as u64 * params.l as u64)
        }
    }
}

/// Run every design rule against one design point.
pub fn check(dp: &DesignPoint) -> Report {
    let mut c = Checker { diags: Vec::new() };
    rule_area(dp, &mut c);
    rule_on_chip_storage(dp, &mut c);
    rule_sram_capacity(dp, &mut c);
    rule_bandwidth(dp, &mut c);
    rule_schedule(dp, &mut c);
    c.push(
        "cycle-floor",
        Severity::Info,
        format!("simulation lower bound {} cycles", min_cycles(dp)),
        vec![("min_cycles", min_cycles(dp) as f64)],
    );
    Report {
        design: dp.name.clone(),
        diagnostics: c.diags,
    }
}

/// Every configuration the bench binaries ship — the `drc` binary sweeps
/// these and CI requires all of them feasible.
pub fn shipped_design_points() -> Vec<DesignPoint> {
    let clocks = ClockModel::default();
    let mut points = vec![
        DesignPoint::new(
            "table3-dot-xd1",
            Kernel::Dot {
                params: DotParams::table3(),
                n: 2048,
            },
            Platform::xd1(clocks.tree_design().mhz()),
        ),
        DesignPoint::new(
            "table3-dot-src",
            Kernel::Dot {
                // Mirror DotProductDesign::on_src: the two streams share
                // the 4.8 GB/s read path, derating each to supply/2.
                params: DotParams {
                    words_per_cycle_per_vector: (SrcMapStation::default()
                        .sram_words_per_cycle(clocks.tree_design().mhz())
                        / 2.0)
                        .min(2.0),
                    ..DotParams::table3()
                },
                n: 2048,
            },
            Platform::src_map(clocks.tree_design().mhz()),
        ),
        DesignPoint::new(
            "table3-mvm-row-xd1",
            Kernel::RowMajorMvm {
                params: MvmParams::table3(),
                n: 1024,
            },
            Platform::xd1(clocks.tree_design().mhz()),
        ),
        DesignPoint::new(
            "table4-mvm-row-xd1-l2",
            Kernel::RowMajorMvm {
                params: MvmParams::table3(),
                n: 1024,
            },
            Platform::xd1(clocks.xd1_l2().mhz()),
        ),
        DesignPoint::new(
            "mvm-col-k4-standalone",
            Kernel::ColMajorMvm {
                params: MvmParams::with_k(4),
                n: 1024,
            },
            Platform::standalone(XC2VP50, clocks.tree_design().mhz()),
        ),
        DesignPoint::new(
            "table4-mm-xd1",
            Kernel::Mm {
                params: MmParams::table4(),
                n: 512,
            },
            Platform::xd1(clocks.xd1_mm(8).mhz()),
        ),
        DesignPoint::new(
            "hier-xd1-node",
            Kernel::HierarchicalMm {
                params: HierarchicalParams::xd1_single_node(),
                n: 1024,
            },
            Platform::xd1(clocks.xd1_mm(8).mhz()),
        ),
        DesignPoint::new(
            "hier-xd1-chassis",
            Kernel::HierarchicalMm {
                params: HierarchicalParams::xd1_chassis(),
                n: 2048,
            },
            Platform::xd1_chassis(1, clocks.xd1_mm(8).mhz()),
        ),
        DesignPoint::new(
            "hier-xd1-installation",
            Kernel::HierarchicalMm {
                params: HierarchicalParams::xd1_installation(),
                n: 2048,
            },
            Platform::xd1_chassis(12, clocks.xd1_mm(8).mhz()),
        ),
    ];
    // The Figure 9 sweep on a bare XC2VP50 (m = 128, so the simulatable
    // configurations are the k that divide the block edge).
    for k in [1usize, 2, 4, 8] {
        points.push(DesignPoint::new(
            &format!("fig9-mm-k{k}"),
            Kernel::Mm {
                params: MmParams::single_fpga(k),
                n: 512,
            },
            Platform::standalone(XC2VP50, clocks.mm(k as u32).mhz()),
        ));
    }
    points
}

/// The §6.2 counter-example: ten PEs *with* the RT core do not fit the
/// XC2VP50 — the reason the paper caps the XD1 deployment at k = 8.
pub fn infeasible_k10_with_rt_core() -> DesignPoint {
    DesignPoint::new(
        "fixture-mm-k10-with-rt-core",
        Kernel::Mm {
            params: MmParams {
                // m = 130 keeps m a multiple of k = 10 so the area rule is
                // the only violation.
                m: 130,
                ..MmParams::single_fpga(10)
            },
            n: 520,
        },
        Platform::xd1(ClockModel::default().xd1_mm(10).mhz()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xd1_platform() -> Platform {
        Platform::xd1(ClockModel::default().tree_design().mhz())
    }

    fn errors_of(dp: &DesignPoint, rule_id: &str) -> usize {
        check(dp)
            .rule(rule_id)
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    // §6.2-area -----------------------------------------------------------

    #[test]
    fn area_rule_passes_the_shipped_xd1_mm() {
        let dp = DesignPoint::new(
            "mm",
            Kernel::Mm {
                params: MmParams::table4(),
                n: 512,
            },
            Platform::xd1(ClockModel::default().xd1_mm(8).mhz()),
        );
        assert_eq!(errors_of(&dp, "§6.2-area"), 0);
    }

    #[test]
    fn area_rule_rejects_ten_pes_with_rt_core() {
        let report = check(&infeasible_k10_with_rt_core());
        assert!(!report.is_feasible());
        let area = report.rule("§6.2-area");
        assert_eq!(area.len(), 1, "exactly one area diagnostic");
        assert_eq!(area[0].severity, Severity::Error);
        // The fixture is infeasible for area and for nothing else.
        assert_eq!(report.count(Severity::Error), 1);
    }

    // §4.3-reduction-buffer ------------------------------------------------

    #[test]
    fn reduction_buffer_bound_reported_and_satisfied_for_table3_dot() {
        let dp = DesignPoint::new(
            "dot",
            Kernel::Dot {
                params: DotParams::table3(),
                n: 2048,
            },
            xd1_platform(),
        );
        let report = check(&dp);
        let diags = report.rule("§4.3-reduction-buffer");
        assert!(!diags.is_empty(), "rule must always report the bound");
        assert_eq!(errors_of(&dp, "§4.3-reduction-buffer"), 0);
    }

    #[test]
    fn reduction_buffer_overflow_is_an_error() {
        // A pathological adder depth makes 2α² exceed the device BRAM.
        let dp = DesignPoint::new(
            "dot-deep-adder",
            Kernel::Dot {
                params: DotParams {
                    adder_stages: 200,
                    ..DotParams::table3()
                },
                n: 2048,
            },
            xd1_platform(),
        );
        assert!(errors_of(&dp, "§4.3-reduction-buffer") > 0);
    }

    // §5.1-local-store -----------------------------------------------------

    #[test]
    fn mm_local_store_overflow_is_an_error() {
        // 2·m² words at m = 512 cannot fit the XC2VP50 BRAM.
        let dp = DesignPoint::new(
            "mm-huge-block",
            Kernel::Mm {
                params: MmParams::test(8, 512),
                n: 512,
            },
            Platform::standalone(XC2VP50, 130.0),
        );
        assert!(errors_of(&dp, "§5.1-local-store") > 0);
    }

    #[test]
    fn mm_local_store_fits_for_the_paper_block_size() {
        let dp = DesignPoint::new(
            "mm-m128",
            Kernel::Mm {
                params: MmParams::single_fpga(4),
                n: 512,
            },
            Platform::standalone(XC2VP50, ClockModel::default().mm(4).mhz()),
        );
        assert_eq!(errors_of(&dp, "§5.1-local-store"), 0);
    }

    // §6.2-sram-capacity ---------------------------------------------------

    #[test]
    fn sram_capacity_rejects_vectors_larger_than_the_banks() {
        // XD1 SRAM holds 2M words; two 1.5M-word vectors do not fit.
        let dp = DesignPoint::new(
            "dot-oversized",
            Kernel::Dot {
                params: DotParams::table3(),
                n: 1_500_000,
            },
            xd1_platform(),
        );
        assert!(errors_of(&dp, "§6.2-sram-capacity") > 0);
    }

    #[test]
    fn sram_capacity_rejects_the_2048_point_xd1_mvm() {
        // A 2048² matrix is 4M words against the XD1's 2M SRAM words.
        let dp = DesignPoint::new(
            "mvm-oversized",
            Kernel::RowMajorMvm {
                params: MvmParams::table3(),
                n: 2048,
            },
            xd1_platform(),
        );
        assert!(errors_of(&dp, "§6.2-sram-capacity") > 0);
    }

    #[test]
    fn sram_capacity_unchecked_on_standalone_platforms() {
        let dp = DesignPoint::new(
            "dot-standalone",
            Kernel::Dot {
                params: DotParams::table3(),
                n: 1_500_000,
            },
            Platform::standalone(XC2VP50, 170.0),
        );
        assert_eq!(errors_of(&dp, "§6.2-sram-capacity"), 0);
    }

    // §4.4-bandwidth -------------------------------------------------------

    #[test]
    fn bandwidth_rule_rejects_demand_beyond_the_sram_path() {
        // 2·8 = 16 words/cycle against the XD1's ~4.7 at 170 MHz.
        let dp = DesignPoint::new(
            "dot-greedy",
            Kernel::Dot {
                params: DotParams {
                    k: 8,
                    words_per_cycle_per_vector: 8.0,
                    ..DotParams::table3()
                },
                n: 2048,
            },
            xd1_platform(),
        );
        assert!(errors_of(&dp, "§4.4-bandwidth") > 0);
    }

    #[test]
    fn bandwidth_rule_accepts_the_table3_operating_point() {
        let dp = DesignPoint::new(
            "dot-table3",
            Kernel::Dot {
                params: DotParams::table3(),
                n: 2048,
            },
            xd1_platform(),
        );
        assert_eq!(errors_of(&dp, "§4.4-bandwidth"), 0);
    }

    // §4.1-tree-shape / §4.2-hazard / §5.1-schedule ------------------------

    #[test]
    fn non_power_of_two_tree_is_an_error() {
        let dp = DesignPoint::new(
            "dot-k3",
            Kernel::Dot {
                params: DotParams {
                    k: 3,
                    words_per_cycle_per_vector: 3.0,
                    ..DotParams::table3()
                },
                n: 2048,
            },
            Platform::standalone(XC2VP50, 170.0),
        );
        assert!(errors_of(&dp, "§4.1-tree-shape") > 0);
    }

    #[test]
    fn col_major_short_columns_hazard_is_an_error() {
        // n/k = 4 < α = 14: accumulator read-modify-write would overlap.
        let dp = DesignPoint::new(
            "col-short",
            Kernel::ColMajorMvm {
                params: MvmParams::with_k(4),
                n: 16,
            },
            Platform::standalone(XC2VP50, 170.0),
        );
        assert!(errors_of(&dp, "§4.2-hazard") > 0);
    }

    #[test]
    fn mm_block_edge_must_be_a_multiple_of_k() {
        let dp = DesignPoint::new(
            "mm-ragged",
            Kernel::Mm {
                params: MmParams::test(4, 126),
                n: 504,
            },
            Platform::standalone(XC2VP50, 130.0),
        );
        assert!(errors_of(&dp, "§5.1-schedule") > 0);
    }

    #[test]
    fn table4_mm_hazard_is_a_warning_under_document_policy() {
        // k = m = 8 gives m²/k = 8 < α = 14; the paper ships it anyway,
        // so under HazardPolicy::Document this is a warning, not an error.
        let dp = DesignPoint::new(
            "mm-table4",
            Kernel::Mm {
                params: MmParams::table4(),
                n: 512,
            },
            Platform::xd1(ClockModel::default().xd1_mm(8).mhz()),
        );
        let report = check(&dp);
        let hazard = report.rule("§4.2-hazard");
        assert!(hazard.iter().any(|d| d.severity == Severity::Warning));
        assert!(report.is_feasible(), "warnings do not make it infeasible");
    }

    #[test]
    fn enforced_hazard_violation_is_an_error() {
        let dp = DesignPoint::new(
            "mm-hazard-enforced",
            Kernel::Mm {
                params: MmParams::test(8, 8),
                n: 512,
            },
            Platform::standalone(XC2VP50, 130.0),
        );
        assert!(errors_of(&dp, "§4.2-hazard") > 0);
    }

    // §5.2-blocking --------------------------------------------------------

    #[test]
    fn hierarchical_needs_enough_fpgas() {
        // A chassis-level blocking (l = 6) on a single-FPGA platform.
        let dp = DesignPoint::new(
            "hier-one-node",
            Kernel::HierarchicalMm {
                params: HierarchicalParams::xd1_chassis(),
                n: 2048,
            },
            Platform::xd1(ClockModel::default().xd1_mm(8).mhz()),
        );
        assert!(errors_of(&dp, "§5.2-blocking") > 0);
    }

    #[test]
    fn hierarchical_chassis_blocking_is_feasible_on_a_chassis() {
        let dp = DesignPoint::new(
            "hier-chassis",
            Kernel::HierarchicalMm {
                params: HierarchicalParams::xd1_chassis(),
                n: 2048,
            },
            Platform::xd1_chassis(1, ClockModel::default().xd1_mm(8).mhz()),
        );
        assert!(check(&dp).is_feasible());
    }

    // min_cycles -----------------------------------------------------------

    #[test]
    fn dot_cycle_floor_matches_the_closed_form() {
        let params = DotParams::table3();
        let dp = DesignPoint::new("dot", Kernel::Dot { params, n: 2048 }, xd1_platform());
        let expect = 2048 / 2 + (params.tree_latency() + params.adder_stages) as u64;
        assert_eq!(min_cycles(&dp), expect);
    }

    #[test]
    fn hierarchical_cycle_floor_divides_by_cooperating_fpgas() {
        let single = DesignPoint::new(
            "hier-1",
            Kernel::HierarchicalMm {
                params: HierarchicalParams::xd1_single_node(),
                n: 1024,
            },
            Platform::xd1(130.0),
        );
        let chassis = DesignPoint::new(
            "hier-6",
            Kernel::HierarchicalMm {
                params: HierarchicalParams::xd1_chassis(),
                n: 1024,
            },
            Platform::xd1_chassis(1, 130.0),
        );
        assert_eq!(min_cycles(&single), 1024u64.pow(3) / 8);
        assert_eq!(min_cycles(&chassis), 1024u64.pow(3) / (8 * 6));
    }

    #[test]
    fn every_report_carries_the_cycle_floor() {
        for dp in shipped_design_points() {
            let report = check(&dp);
            let floor = report.rule("cycle-floor");
            assert_eq!(floor.len(), 1, "{}", dp.name);
            assert!(floor[0]
                .quantities
                .iter()
                .any(|(q, v)| { *q == "min_cycles" && *v > 0.0 }));
        }
    }
}
