//! `sweepd` — cached grid sweeps (DESIGN §10).
//!
//! Expands a workload × size × seed grid on one preset into deduplicated
//! jobs, simulates every job that has no report in `<dir>/cache/` on
//! `--threads N` host threads, and writes `<dir>/manifest.txt`. Rerunning
//! the same command on the same `--dir` simulates only the jobs still
//! missing and writes the identical manifest, so a stopped sweep resumes at
//! point granularity. A job that does not complete is named
//! `status=poisoned` next to its replay bundle under `<dir>/bundles/`.
//!
//! ```text
//! sweepd [--preset NAME] [--protocol NAME] [--workloads a,b] [--sizes a,b]
//!        [--seeds a,b] [--threads N] --dir DIR
//! ```
//!
//! Any other argument, or a malformed value, prints the usage text and
//! exits 2 before anything is simulated or written. Exit status 0 means the
//! sweep completed (poisoned jobs are named in the manifest, not an error),
//! and 1 an operational failure.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use ccsvm::ProtocolKind;
use ccsvm_bench::{exit_with, parse_list, BenchError};
use ccsvm_sweepd::{run_sweep, SweepError, SweepSpec};

fn main() {
    exit_with(run());
}

const SYNOPSIS: &str = "sweepd [--preset NAME] [--protocol NAME] [--workloads a,b] \
                        [--sizes a,b] [--seeds a,b] [--threads N] --dir DIR";

const HELP: &str = "
  --preset NAME     config preset (default tiny)
  --protocol NAME   directory (default), mesi-snoop or dragon; part of the
                    job identity, so each protocol sweeps separately
  --workloads LIST  vecadd, matmul, wedge (default vecadd)
  --sizes LIST      problem sizes, positive integers (default 64)
  --seeds LIST      input seeds (default 1)
  --threads N       simulate jobs on N host threads (default 1; same manifest)
  --dir DIR         sweep directory: cache/, bundles/ and manifest.txt";

/// A command-line misuse: exits 2 with the usage text.
fn cli(problem: String) -> BenchError {
    BenchError::Cli(format!("{SYNOPSIS}: {problem}{HELP}"))
}

/// Parses the command line into the sweep and its directory. Any argument
/// not listed in [`SYNOPSIS`] is an error, so a typo never runs a different
/// sweep than the one asked for.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(SweepSpec, PathBuf), BenchError> {
    let mut spec = SweepSpec::default();
    let mut dir = None;
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| cli(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "--preset" => spec.preset = value()?,
            "--protocol" => {
                let v = value()?;
                spec.protocol = ProtocolKind::parse(v.trim()).ok_or_else(|| {
                    cli(format!(
                        "unknown protocol `{v}` (want directory, mesi-snoop or dragon)"
                    ))
                })?;
            }
            "--workloads" => {
                spec.workloads =
                    parse_list(&flag, &value()?, |s| (!s.is_empty()).then(|| s.to_string()))
                        .map_err(cli)?;
            }
            "--sizes" => {
                spec.sizes = parse_list(&flag, &value()?, |s| s.parse().ok().filter(|&n| n > 0))
                    .map_err(cli)?
            }
            "--seeds" => {
                spec.seeds = parse_list(&flag, &value()?, |s| s.parse().ok()).map_err(cli)?
            }
            "--threads" => {
                let v = value()?;
                spec.threads =
                    v.trim().parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        cli(format!("bad --threads `{v}` (want an integer >= 1)"))
                    })?;
            }
            other => return Err(cli(format!("unknown argument `{other}`"))),
        }
    }
    let dir = dir.ok_or_else(|| cli("--dir is required".into()))?;
    Ok((spec, dir))
}

fn run() -> Result<(), BenchError> {
    let (spec, dir) = parse_args(std::env::args().skip(1))?;
    let s = run_sweep(&spec, &dir).map_err(|e| match e {
        SweepError::Spec(what) => cli(what),
        other => BenchError::Run(other.to_string()),
    })?;
    println!(
        "sweep complete: {}/{} done, {} poisoned{}{}",
        s.total - s.poisoned.len(),
        s.total,
        s.poisoned.len(),
        if s.poisoned.is_empty() { "" } else { ": " },
        s.poisoned.join(", "),
    );
    println!(
        "simulated {}, cached {}; manifest {} (fnv {:016x})",
        s.simulated,
        s.total - s.simulated,
        s.manifest_path.display(),
        s.manifest_fnv,
    );
    Ok(())
}
