//! Shared, testable CLI parsing for the bench binaries.
//!
//! Every observatory subcommand takes the same small flag vocabulary —
//! `--jobs`, `--backend`, `--seed`, `--telemetry-window` — and before
//! this module existed each parser lived inline in the binary, where a
//! unit test could not reach it and where `run` and `faults` could (and
//! briefly did) drift apart in how they rejected `--jobs 0`. The
//! helpers here are pure: they return `Result<_, String>` instead of
//! exiting, so the full validation surface is unit-tested, and the
//! binaries funnel every error through one `exit code 2` adapter —
//! usage errors are distinguishable from gate failures (exit 1) in CI.

use std::path::PathBuf;

use fblas_sim::ExecBackend;

use crate::pool;

/// Parse `--flag <value>` / `--flag=<value>` out of `args`, removing
/// it. A flag present without a value is an error, not a panic site.
pub fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let prefix = format!("{flag}=");
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            if i + 1 >= args.len() {
                return Err(format!("{flag} requires a value"));
            }
            args.remove(i);
            return Ok(Some(args.remove(i)));
        }
        if let Some(v) = args[i].strip_prefix(&prefix) {
            let v = v.to_string();
            args.remove(i);
            return Ok(Some(v));
        }
        i += 1;
    }
    Ok(None)
}

/// Parse `--flag <path>` out of `args`, falling back to `default`.
pub fn take_path(args: &mut Vec<String>, flag: &str, default: &str) -> Result<PathBuf, String> {
    Ok(PathBuf::from(
        take_value(args, flag)?.unwrap_or_else(|| default.to_string()),
    ))
}

/// Unwrap a result or print the error and exit 2 — the one funnel every
/// usage and IO error of the bench binaries goes through, so no
/// subcommand can drift in how it rejects `--jobs 0`, an unknown
/// `--backend`, a flag missing its path or an unreadable store.
pub fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Parse a bare `--flag`, removing it.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// Validate a `--jobs` value: a positive integer.
pub fn parse_jobs(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--jobs requires a positive integer, got {v:?}")),
    }
}

/// Validate a `--backend` value against the known backends.
pub fn parse_backend(v: &str) -> Result<ExecBackend, String> {
    v.parse::<ExecBackend>()
        .map_err(|e| format!("--backend: {e}"))
}

/// Validate a `--seed` value: any unsigned 64-bit integer.
pub fn parse_seed(v: &str) -> Result<u64, String> {
    v.parse::<u64>()
        .map_err(|_| format!("--seed requires an unsigned integer, got {v:?}"))
}

/// Validate a window-width value (`--telemetry-window`): a positive
/// integer — a zero-width window would make every busy/stall vector
/// infinitely long, so it is a usage error, not a degenerate run.
pub fn parse_window(v: &str) -> Result<u64, String> {
    match v.parse::<u64>() {
        Ok(w) if w >= 1 => Ok(w),
        _ => Err(format!(
            "--telemetry-window requires a positive integer, got {v:?}"
        )),
    }
}

/// Parse `--jobs <n>` out of `args`; default is the host parallelism.
pub fn take_jobs(args: &mut Vec<String>) -> Result<usize, String> {
    match take_value(args, "--jobs")? {
        Some(v) => parse_jobs(&v),
        None => Ok(pool::default_jobs()),
    }
}

/// Parse `--backend <b>` out of `args`; default is cycle stepping.
pub fn take_backend(args: &mut Vec<String>) -> Result<ExecBackend, String> {
    match take_value(args, "--backend")? {
        Some(v) => parse_backend(&v),
        None => Ok(ExecBackend::Cycle),
    }
}

/// Parse `--seed <s>` out of `args`; default is the canonical seed 7.
pub fn take_seed(args: &mut Vec<String>) -> Result<u64, String> {
    match take_value(args, "--seed")? {
        Some(v) => parse_seed(&v),
        None => Ok(7),
    }
}

/// Parse the telemetry flags: `--no-telemetry` disables sampling,
/// `--telemetry-window <cycles>` overrides `default` as the window
/// width. The two together are a contradiction and rejected.
pub fn take_telemetry(args: &mut Vec<String>, default: u64) -> Result<Option<u64>, String> {
    let off = take_flag(args, "--no-telemetry");
    let window = match take_value(args, "--telemetry-window")? {
        Some(v) => Some(parse_window(&v)?),
        None => None,
    };
    if off && window.is_some() {
        return Err("--no-telemetry contradicts --telemetry-window".to_string());
    }
    Ok(if off {
        None
    } else {
        Some(window.unwrap_or(default))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn take_value_handles_both_spellings_and_missing_values() {
        let mut a = argv(&["--jobs", "4", "rest"]);
        assert_eq!(take_value(&mut a, "--jobs").unwrap(), Some("4".into()));
        assert_eq!(a, argv(&["rest"]));
        let mut b = argv(&["--jobs=8"]);
        assert_eq!(take_value(&mut b, "--jobs").unwrap(), Some("8".into()));
        assert!(b.is_empty());
        let mut c = argv(&["--jobs"]);
        let err = take_value(&mut c, "--jobs").unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        let mut d = argv(&["other"]);
        assert_eq!(take_value(&mut d, "--jobs").unwrap(), None);
    }

    #[test]
    fn parse_jobs_accepts_positive_integers() {
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs("16"), Ok(16));
    }

    #[test]
    fn parse_jobs_rejects_zero_and_garbage() {
        for bad in ["0", "-3", "four", "", "1.5"] {
            let err = parse_jobs(bad).unwrap_err();
            assert!(
                err.contains("requires a positive integer"),
                "{bad:?}: {err}"
            );
            assert!(err.contains(bad) || bad.is_empty(), "{bad:?}: {err}");
        }
    }

    #[test]
    fn parse_backend_covers_all_and_rejects_unknown() {
        assert_eq!(parse_backend("cycle"), Ok(ExecBackend::Cycle));
        assert_eq!(parse_backend("native"), Ok(ExecBackend::Native));
        for bad in ["warp-drive", "fast-forward", "ff"] {
            let err = parse_backend(bad).unwrap_err();
            assert!(err.starts_with("--backend:"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn parse_seed_and_window_validate() {
        assert_eq!(parse_seed("0"), Ok(0));
        assert_eq!(parse_seed("18446744073709551615"), Ok(u64::MAX));
        assert!(parse_seed("-1").is_err());
        assert_eq!(parse_window("1"), Ok(1));
        // The --telemetry-window 0 bug class: zero must be a clean
        // usage error, never an accepted width.
        let err = parse_window("0").unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        assert!(parse_window("1e3").is_err());
    }

    #[test]
    fn take_helpers_apply_defaults() {
        let mut a = argv(&[]);
        assert!(take_jobs(&mut a).unwrap() >= 1);
        assert_eq!(take_backend(&mut a).unwrap(), ExecBackend::Cycle);
        assert_eq!(take_seed(&mut a).unwrap(), 7);
        assert_eq!(take_telemetry(&mut a, 512).unwrap(), Some(512));
        assert_eq!(take_path(&mut a, "--dir", ".").unwrap(), PathBuf::from("."));
        let mut b = argv(&["--out", "x.json"]);
        assert_eq!(
            take_path(&mut b, "--out", "FAULTS.json").unwrap(),
            PathBuf::from("x.json")
        );
        assert!(take_path(&mut argv(&["--dir"]), "--dir", ".").is_err());
    }

    #[test]
    fn telemetry_flags_contradiction_is_rejected() {
        let mut a = argv(&["--no-telemetry", "--telemetry-window", "64"]);
        let err = take_telemetry(&mut a, 512).unwrap_err();
        assert!(err.contains("contradicts"), "{err}");
        let mut b = argv(&["--no-telemetry"]);
        assert_eq!(take_telemetry(&mut b, 512).unwrap(), None);
        let mut c = argv(&["--telemetry-window=64"]);
        assert_eq!(take_telemetry(&mut c, 512).unwrap(), Some(64));
    }
}
