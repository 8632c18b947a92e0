//! Host facts stamped on every result, process memory, and the small
//! statistics the benchmark reports.

use std::process::{Command, Stdio};

use fblas_metrics::Json;

/// Everything a result needs to name the host and the run it came from.
pub(crate) struct Stamp {
    pub(crate) workload: String,
    pub(crate) seed: u64,
    pub(crate) passes: usize,
    pub(crate) workers: usize,
    pub(crate) backend: String,
    pub(crate) trace: bool,
}

impl Stamp {
    pub(crate) fn to_json(&self) -> Json {
        Json::obj()
            .with("workload", Json::Str(self.workload.clone()))
            .with("seed", Json::Num(self.seed as f64))
            .with("passes", Json::Num(self.passes as f64))
            .with("workers", Json::Num(self.workers as f64))
            .with("backend", Json::Str(self.backend.clone()))
            .with("trace", Json::Bool(self.trace))
            .with("nproc", Json::Num(nproc() as f64))
            .with("cpu_model", Json::Str(cpu_model()))
            .with(
                "rustc",
                Json::Str(env!("PERFBENCH_RUSTC_VERSION").to_string()),
            )
            .with("git_commit", Json::Str(git_commit()))
    }
}

pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, when the working directory is a git
/// checkout of its own (a parent directory's repository is not asked).
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The process's high-water resident set size in MiB (`VmHWM`).
pub(crate) fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Median of a non-empty sample.
pub(crate) fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
