//! `replay` — deterministically reproduce a captured failure from a triage
//! replay bundle (DESIGN §9).
//!
//! ```text
//! replay <bundle.ccbundle>
//! ```
//!
//! The bundle embeds everything the reproduction needs: the config preset
//! name (validated against the recorded config hash), the fault plan and
//! sanitizer settings, the guest source, how and at which cycle the run
//! failed, and the trace of the last events before the abort. The replay
//! forces the sanitizer on (full check verbosity) and re-runs the workload
//! from cycle 0 to the failure.
//!
//! Exit status: 0 when the failure reproduced at the recorded cycle with a
//! matching invariant, 1 when it did not reproduce or the bundle is
//! unusable, 2 on CLI misuse.

#![forbid(unsafe_code)]

use ccsvm::{replay_bundle, ReplayBundle};
use ccsvm_bench::{exit_with, BenchError};

fn main() {
    exit_with(run());
}

fn run() -> Result<(), BenchError> {
    let mut args = std::env::args().skip(1);
    let path = match (args.next(), args.next()) {
        (Some(p), None) if p != "--help" && p != "-h" => std::path::PathBuf::from(p),
        _ => {
            return Err(BenchError::Cli(
                "replay <bundle.ccbundle> — reproduce a captured failure".to_string(),
            ))
        }
    };

    let bundle = ReplayBundle::read(&path)?;
    println!("bundle:    {}", path.display());
    println!(
        "preset:    {} (config hash {:#018x})",
        bundle.preset, bundle.config_hash
    );
    println!("protocol:  {}", bundle.protocol.as_str());
    println!("captured:  {:?} at {}", bundle.outcome, bundle.first_fail);
    if let Some(v) = &bundle.violation {
        println!("violation: {v}");
    }
    println!("{}", bundle.trace);

    let (report, reproduced) =
        replay_bundle(&bundle).map_err(|e| BenchError::Run(format!("replay setup failed: {e}")))?;
    println!("replayed:  {:?} at {}", report.outcome, report.time);
    if let Some(v) = report
        .diagnostic
        .as_ref()
        .and_then(|d| d.violation.as_ref())
    {
        println!("caught:    {v}");
    }
    if let Some(d) = &report.diagnostic {
        println!("{d}");
    }
    if reproduced {
        println!("REPRODUCED: failure manifests at the captured cycle");
        Ok(())
    } else {
        Err(BenchError::Run(format!(
            "failure did NOT reproduce (captured {:?} at {}, replayed {:?} at {})",
            bundle.outcome, bundle.first_fail, report.outcome, report.time
        )))
    }
}
