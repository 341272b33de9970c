//! `campaign` — deterministic fault-campaign engine (DESIGN §14).
//!
//! Sweeps fault domain × protocol × workload × `sim_threads` cells from one
//! seed, enforcing the no-silent-wedge contract: every cell ends in a typed
//! outcome (panics are caught and recorded, hangs are watchdog- and
//! `max_sim_time`-bounded). Failing cells are delta-debugged down to a
//! minimal fault plan, captured as a replay bundle, and re-verified
//! in-process; `bench --bin replay <bundle>` reproduces them standalone.
//!
//! ```text
//! campaign [--quick] [--dir results/campaign] [--seed N]
//!          [--protocols a,b,c] [--workloads w1,w2] [--threads 1,2]
//!          [--domains d1,d2,...] [--no-mutation-cell]
//! ```
//!
//! The campaign writes `<dir>/manifest.txt` (byte-stable across re-runs),
//! `<dir>/bundles/*.ccbundle` for failing cells, and a report cache under
//! `<dir>/cache/`. Exit status 0 iff every claim holds: all grid cells
//! typed-ok, and (unless `--no-mutation-cell`) the seeded-mutation cell
//! fails, shrinks to a strictly simpler plan that keeps its probe-loss
//! carrier, and replays cycle- and invariant-exactly from its bundle.

use ccsvm::{Outcome, ProtocolKind, Time};
use ccsvm_bench::{exit_with, BenchError, Claims};
use ccsvm_engine::CampaignDomain;
use ccsvm_sweepd::campaign::{outcome_name, run_campaign, CampaignSpec, CellStatus};

fn main() {
    exit_with(run());
}

fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

fn parse_list<T>(
    flag: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<Vec<T>>, BenchError> {
    let Some(raw) = arg_value(flag) else {
        return Ok(None);
    };
    raw.split(',')
        .map(|s| {
            let s = s.trim();
            parse(s).ok_or_else(|| BenchError::Run(format!("{flag}: bad element {s:?}")))
        })
        .collect::<Result<Vec<T>, BenchError>>()
        .map(Some)
}

fn run() -> Result<(), BenchError> {
    let quick = std::env::args().any(|a| a == "--quick");
    let dir = std::path::PathBuf::from(
        arg_value("--dir").unwrap_or_else(|| "results/campaign".to_string()),
    );

    let mut spec = CampaignSpec::default();
    if quick {
        // The CI smoke grid: every protocol, a cross-section of domains
        // (link loss, poison, probe loss, walk transients), both workloads.
        spec.domains = vec![
            CampaignDomain::NocDrop,
            CampaignDomain::DramDoubleBit,
            CampaignDomain::SnoopProbe,
            CampaignDomain::TlbTransient,
        ];
    } else {
        spec.sim_threads = vec![1, 2];
    }
    if let Some(seed) = arg_value("--seed") {
        spec.seed = seed
            .parse()
            .map_err(|_| BenchError::Run(format!("--seed: bad value {seed:?}")))?;
    }
    if let Some(protocols) = parse_list("--protocols", ProtocolKind::parse)? {
        spec.protocols = protocols;
    }
    if let Some(workloads) = parse_list("--workloads", |s| Some(s.to_string()))? {
        spec.workloads = workloads;
    }
    if let Some(threads) = parse_list("--threads", |s| s.parse::<usize>().ok())? {
        spec.sim_threads = threads;
    }
    if let Some(domains) = parse_list("--domains", CampaignDomain::parse)? {
        spec.domains = domains;
    }
    if std::env::args().any(|a| a == "--no-mutation-cell") {
        spec.mutation_cell = false;
    }

    println!(
        "== Fault campaign ({} protocols x {} workloads x {} domains x {} thread counts, seed {})",
        spec.protocols.len(),
        spec.workloads.len(),
        spec.domains.len(),
        spec.sim_threads.len(),
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
    claims.finish("campaign");
    Ok(())
}
