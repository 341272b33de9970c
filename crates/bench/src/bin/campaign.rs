//! `campaign` — deterministic fault-campaign engine (DESIGN §14).
//!
//! Sweeps fault domain × protocol × workload cells from one seed, enforcing
//! the no-silent-wedge contract: every cell ends in a typed outcome (panics
//! are caught and recorded, hangs are watchdog- and `max_sim_time`-bounded).
//! Failing cells are delta-debugged down to a minimal fault plan, captured
//! as a replay bundle, and re-verified in-process; `bench --bin replay
//! <bundle>` reproduces them standalone.
//!
//! ```text
//! campaign [--quick] [--dir target/campaign] [--seed N]
//!          [--protocols a,b,c] [--workloads w1,w2]
//!          [--domains d1,d2,...] [--no-mutation-cell]
//! ```
//!
//! Any other argument, or a malformed value, prints the usage line and
//! exits 2 before any cell runs.
//!
//! The campaign writes `<dir>/manifest.txt` (byte-stable across re-runs),
//! `<dir>/bundles/*.ccbundle` for failing cells, and a report cache under
//! `<dir>/cache/`. Exit status 0 iff every claim holds: all grid cells
//! typed-ok, and (unless `--no-mutation-cell`) the seeded-mutation cell
//! fails, shrinks to a strictly simpler plan that keeps its probe-loss
//! carrier, and replays cycle- and invariant-exactly from its bundle.

#![forbid(unsafe_code)]

use ccsvm::{Outcome, ProtocolKind, Time};
use ccsvm_bench::{exit_with, parse_list, BenchError, Claims};
use ccsvm_engine::CampaignDomain;
use ccsvm_sweepd::campaign::{outcome_name, run_campaign, CampaignSpec, CellStatus};

fn main() {
    exit_with(run());
}

const USAGE: &str = "campaign [--quick] [--dir target/campaign] [--seed N] [--protocols a,b,c] \
                     [--workloads w1,w2] [--domains d1,d2,...] [--no-mutation-cell]";

/// A command-line misuse: exits 2 with the usage text.
fn cli(problem: String) -> BenchError {
    BenchError::Cli(format!("{USAGE}: {problem}"))
}

/// Parses the command line into the campaign and its output directory.
/// Any argument not listed in [`USAGE`] is an error, so a typo never runs
/// a different campaign than the one asked for.
fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(CampaignSpec, std::path::PathBuf), BenchError> {
    let mut spec = CampaignSpec::default();
    let mut dir = std::path::PathBuf::from("target/campaign");
    let (mut quick, mut domains) = (false, None);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| cli(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--quick" => quick = true,
            "--no-mutation-cell" => spec.mutation_cell = false,
            "--dir" => dir = value()?.into(),
            "--seed" => {
                let v = value()?;
                spec.seed = v
                    .parse()
                    .map_err(|_| cli(format!("--seed: bad value {v:?}")))?;
            }
            "--protocols" => {
                spec.protocols = parse_list(&flag, &value()?, ProtocolKind::parse).map_err(cli)?;
            }
            "--workloads" => {
                spec.workloads =
                    parse_list(&flag, &value()?, |s| Some(s.to_string())).map_err(cli)?;
            }
            "--domains" => {
                domains = Some(parse_list(&flag, &value()?, CampaignDomain::parse).map_err(cli)?);
            }
            other => return Err(cli(format!("unknown argument `{other}`"))),
        }
    }
    if let Some(domains) = domains {
        spec.domains = domains;
    } else if quick {
        // The CI smoke grid: every protocol, a cross-section of domains
        // (link loss, poison, probe loss, walk transients), both workloads.
        spec.domains = vec![
            CampaignDomain::NocDrop,
            CampaignDomain::DramDoubleBit,
            CampaignDomain::SnoopProbe,
            CampaignDomain::TlbTransient,
        ];
    }
    Ok((spec, dir))
}

fn run() -> Result<(), BenchError> {
    let (spec, dir) = parse_args(std::env::args().skip(1))?;

    println!(
        "== Fault campaign ({} protocols x {} workloads x {} domains, seed {})",
        spec.protocols.len(),
        spec.workloads.len(),
        spec.domains.len(),
        spec.seed
    );
    let summary = run_campaign(&spec, &dir).map_err(|e| BenchError::Run(format!("{e}")))?;

    println!("== Cells");
    for c in &summary.cells {
        let outcome = match (&c.report, &c.panic) {
            (Some(r), _) => outcome_name(r.outcome).to_string(),
            (None, Some(p)) => format!("panic: {p}"),
            (None, None) => "?".to_string(),
        };
        let status = match c.status {
            CellStatus::Ok => "ok",
            CellStatus::Failing => "FAILING",
            CellStatus::Panicked => "PANICKED",
        };
        println!("  {:<44} {:<24} {status}", c.label, outcome);
    }
    for s in &summary.shrinks {
        println!(
            "  shrunk {} [{}] in {} steps -> {} (replay: {})",
            s.label,
            s.signature,
            s.steps,
            s.minimal.describe(),
            match s.reproduced {
                Some(true) => "reproduced",
                Some(false) => "NOT reproduced",
                None => "no bundle",
            }
        );
    }
    println!(
        "== {} cells: {} ok, {} failing, {} panicked",
        summary.cells.len(),
        summary.ok,
        summary.failing,
        summary.panicked
    );
    println!("manifest: {}", summary.manifest_path.display());

    let mut claims = Claims::new();
    claims.check(summary.panicked == 0, "no cell panicked");
    claims.check(
        summary
            .cells
            .iter()
            .all(|c| c.report.is_some() || c.panic.is_some()),
        "every cell produced a typed outcome",
    );
    let expected_failing = usize::from(spec.mutation_cell);
    claims.check(
        summary.failing == expected_failing,
        "every grid cell's outcome is justified by its plan",
    );
    claims.check(
        summary
            .cells
            .iter()
            .filter(|c| c.report.is_some())
            .all(|c| {
                c.report.as_ref().unwrap().time <= Time::from_ms(2) // tiny_campaign max_sim_time + watchdog slack
            }),
        "every cell is time-bounded",
    );
    if spec.mutation_cell {
        let cell = summary
            .cells
            .iter()
            .find(|c| c.label == "mutation-corrupt-resend");
        claims.check(cell.is_some(), "the mutation cell ran");
        if let Some(cell) = cell {
            claims.check(
                cell.report.as_ref().map(|r| r.outcome) == Some(Outcome::InvariantViolation),
                "the seeded recovery-layer mutation is caught by the sanitizer",
            );
            let shrink = summary
                .shrinks
                .iter()
                .find(|s| s.label == "mutation-corrupt-resend");
            claims.check(shrink.is_some(), "the failing mutation cell was shrunk");
            if let Some(shrink) = shrink {
                claims.check(
                    shrink.minimal.entries.len() < cell.plan.entries.len(),
                    "shrinking produced a strictly simpler plan",
                );
                claims.check(
                    shrink
                        .minimal
                        .entries
                        .iter()
                        .any(|&(d, _)| d == CampaignDomain::SnoopProbe),
                    "the minimal plan keeps the probe-loss carrier",
                );
                claims.check(
                    shrink.reproduced == Some(true),
                    "the replay bundle reproduces cycle- and invariant-exactly",
                );
            }
        }
    }
    claims.finish("campaign")
}
