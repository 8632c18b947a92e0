//! `lint` — softfloat-purity scan of the datapath crates.
//!
//! With no arguments, scans the workspace's datapath paths (resolved
//! relative to this crate's manifest). With arguments, scans exactly the
//! given files/directories instead — used by the tests to point the
//! scanner at fixtures. Exit status 0 iff no native f64 arithmetic is
//! found, 2 if a path cannot be read.

use std::path::PathBuf;

use fblas_check::lint::{scan, LintHit};
use fblas_check::scan::SOFTFLOAT_PURITY;
use fblas_check::source::{load, repo_root};
use fblas_check::Workspace;

/// The hits over every scanned file; `-> f64` evidence is shared across
/// the whole set, so a fixture split over several files is one scan.
fn lint(args: &[String]) -> std::io::Result<Vec<LintHit>> {
    if args.is_empty() {
        let workspace = Workspace::load(&repo_root())?;
        Ok(scan(&workspace.files(&SOFTFLOAT_PURITY)?))
    } else {
        let paths: Vec<PathBuf> = args.iter().map(PathBuf::from).collect();
        let files = load(&paths, |p| p.display().to_string())?;
        Ok(scan(&files.iter().collect::<Vec<_>>()))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match lint(&args) {
        Ok(hits) => {
            for hit in &hits {
                println!("{hit}");
            }
            if hits.is_empty() {
                println!("lint: datapath is softfloat-pure");
            } else {
                println!("lint: {} native f64 arithmetic site(s)", hits.len());
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("lint: {e}");
            std::process::exit(2);
        }
    }
}
