//! Deterministic fault-campaign engine (DESIGN §14).
//!
//! A campaign sweeps fault domain × protocol × workload cells from one
//! seed and enforces the **no-silent-wedge contract**: every
//! cell must end in a typed [`Outcome`] — never a panic (caught and recorded
//! per cell), never a hang (the preset's watchdog and `max_sim_time` bound
//! every run). A cell whose outcome its plan cannot justify is *failing*;
//! failing cells are delta-debugged with [`PlanSpec::shrink_candidates`]
//! down to a minimal plan that still reproduces the same failure signature,
//! then captured as a [`ReplayBundle`](ccsvm::ReplayBundle) via
//! [`run_with_triage`] and immediately re-verified in-process with
//! [`replay_bundle`].
//!
//! Everything is keyed off the campaign seed: cells, shrink probes, and
//! replays are deterministic, so the manifest written to `<dir>/manifest.txt`
//! is byte-identical across re-runs and at any `threads` count. The cells
//! run in one [`sweep`]; shrink probes run one after another, each
//! depending on the last. Completed cell reports are stored in the sweep
//! [`ReportCache`], which also dedupes the shrink loop's repeated probes of
//! identical candidate plans.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use ccsvm::{
    replay_bundle, run_with_triage, Mutation, MutationKind, Outcome, ProtocolKind, RunReport,
    SystemConfig, Time,
};
use ccsvm_engine::{CampaignDomain, PlanSpec};

use crate::cache::ReportCache;
use crate::run::{run_job, sweep, MANIFEST_FILE};
use crate::spec::source_for;
use crate::SweepError;

/// A sharing-heavy two-CPU workload: the campaign's mutation cell needs
/// cross-L1 solicitation rounds for the recovery-layer mutation to have a
/// carrier, which the embarrassingly parallel generators don't provide.
const PINGPONG_SRC: &str = "global results: int;
     fn worker(arg: int) -> int {
         atomic_add(&results, arg);
         return 0;
     }
     _CPU_ fn main() -> int {
         results = 0;
         let t1 = spawn_cthread(worker, 5);
         if (t1 < 0) { return -1; }
         while (results != 5) { }
         return results;
     }";

/// Generates the XC source for a campaign workload on a chip with
/// `mttop_threads` MTTOP contexts: everything [`source_for`] knows, plus
/// `pingpong` (the sharing workload above).
pub fn campaign_source(
    workload: &str,
    size: u64,
    seed: u64,
    mttop_threads: u64,
) -> Result<String, SweepError> {
    if workload == "pingpong" {
        return Ok(PINGPONG_SRC.into());
    }
    source_for(workload, size, seed, mttop_threads)
}

/// A fault campaign: the sweep axes, the per-cell plan shape, and the
/// shrinking/replay policy.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Config preset every cell runs on. `tiny_campaign` caps
    /// `max_sim_time` at 1 ms: enough headroom for solicitation-round
    /// recovery (each dropped probe costs one recovery timeout), while a
    /// genuinely wedged cell is still over in under a host-second.
    pub preset: String,
    /// Campaign seed: feeds every cell's `fault.seed`.
    pub seed: u64,
    /// Protocol axis.
    pub protocols: Vec<ProtocolKind>,
    /// Workload axis (names for [`campaign_source`]).
    pub workloads: Vec<String>,
    /// Problem size for the generated workloads.
    pub size: u64,
    /// Fault-domain axis: each grid cell runs a single-domain plan.
    pub domains: Vec<CampaignDomain>,
    /// Intensity (per-event probability) of each grid cell's domain.
    pub intensity: f64,
    /// Solicitation-round recovery timeout installed in every plan.
    pub timeout: Time,
    /// Resend budget per transaction before the typed abort.
    pub retry_budget: u32,
    /// Run the seeded-mutation cell (a known-bad recovery layer under a
    /// multi-domain plan) to exercise shrinking and replay end to end.
    pub mutation_cell: bool,
    /// Shrinking floor: halving an intensity below this removes the entry.
    pub shrink_floor: f64,
    /// Host threads the cells run on (the manifest does not depend on it).
    pub threads: usize,
}

impl Default for CampaignSpec {
    fn default() -> CampaignSpec {
        CampaignSpec {
            preset: "tiny_campaign".into(),
            seed: 11,
            protocols: ProtocolKind::ALL.to_vec(),
            workloads: vec!["vecadd".into(), "matmul".into()],
            size: 8,
            domains: CampaignDomain::ALL.to_vec(),
            intensity: 0.05,
            timeout: Time::from_us(5),
            retry_budget: 8,
            mutation_cell: true,
            shrink_floor: 0.01,
            threads: 1,
        }
    }
}

/// How one cell ended, under the no-silent-wedge contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// A typed outcome the cell's plan justifies.
    Ok,
    /// A typed outcome the plan does *not* justify (wedge, violation, or an
    /// unprovoked abort) — the campaign shrinks and captures these.
    Failing,
    /// The simulator panicked; the message is recorded, the campaign goes
    /// on. Always a bug.
    Panicked,
}

/// One executed campaign cell.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Stable label, `{protocol}-{workload}-{domain}`.
    pub label: String,
    pub protocol: ProtocolKind,
    pub workload: String,
    /// The plan the cell ran under.
    pub plan: PlanSpec,
    /// The run report (`None` when the cell panicked).
    pub report: Option<RunReport>,
    /// Panic payload when the cell panicked.
    pub panic: Option<String>,
    pub status: CellStatus,
}

/// Shrink + replay record for one failing cell.
#[derive(Clone, Debug)]
pub struct ShrinkReport {
    /// Label of the failing cell.
    pub label: String,
    /// The failure signature being preserved (outcome, plus invariant ID
    /// for sanitizer aborts; `panic` for panics).
    pub signature: String,
    /// Greedy shrink steps taken.
    pub steps: u32,
    /// The minimal plan still reproducing the signature.
    pub minimal: PlanSpec,
    /// Replay bundle path, when triage captured one.
    pub bundle: Option<PathBuf>,
    /// Whether the in-process replay of the bundle reproduced the failure
    /// cycle- and invariant-exactly (`None` when no bundle was captured).
    pub reproduced: Option<bool>,
}

/// Everything a finished campaign produced.
#[derive(Clone, Debug)]
pub struct CampaignSummary {
    pub cells: Vec<CellReport>,
    pub shrinks: Vec<ShrinkReport>,
    pub ok: usize,
    pub failing: usize,
    pub panicked: usize,
    /// The deterministic manifest written under the campaign directory.
    pub manifest_path: PathBuf,
}

/// Stable manifest name for an [`Outcome`].
pub fn outcome_name(o: Outcome) -> &'static str {
    match o {
        Outcome::Completed => "completed",
        Outcome::Deadlock => "deadlock",
        Outcome::Poisoned => "poisoned",
        Outcome::RetryBudgetExhausted => "retry-budget-exhausted",
        Outcome::InvariantViolation => "invariant-violation",
    }
}

/// Whether `outcome` is one the plan can justify. Poison is only legitimate
/// when the plan injects uncorrectable ECC errors; a retry-budget abort only
/// when it injects message loss the recovery layer retries against. Wedges
/// and invariant violations are never acceptable.
pub fn acceptable(plan: &PlanSpec, outcome: Outcome) -> bool {
    let has = |pred: fn(CampaignDomain) -> bool| plan.entries.iter().any(|&(d, _)| pred(d));
    match outcome {
        Outcome::Completed => true,
        Outcome::Poisoned => has(|d| d == CampaignDomain::DramDoubleBit),
        Outcome::RetryBudgetExhausted => has(|d| {
            matches!(
                d,
                CampaignDomain::NocDrop | CampaignDomain::SnoopProbe | CampaignDomain::UpdAck
            )
        }),
        Outcome::Deadlock | Outcome::InvariantViolation => false,
    }
}

/// The failure signature shrinking preserves: the outcome name, plus the
/// invariant ID for sanitizer aborts, or `panic` when there is no report.
fn signature(report: Option<&RunReport>) -> String {
    let Some(r) = report else {
        return "panic".into();
    };
    let inv = r
        .diagnostic
        .as_ref()
        .and_then(|d| d.violation.as_ref())
        .map(|v| v.invariant.as_str());
    match inv {
        Some(id) => format!("{}:{id}", outcome_name(r.outcome)),
        None => outcome_name(r.outcome).to_string(),
    }
}

impl CampaignSpec {
    /// Builds one cell's full config: preset + protocol + the plan
    /// projected onto the fault config, sanitizer always on.
    fn cell_config(
        &self,
        protocol: ProtocolKind,
        plan: &PlanSpec,
        mutate: Option<Mutation>,
    ) -> Result<SystemConfig, SweepError> {
        let mut cfg = SystemConfig::by_preset(&self.preset)
            .ok_or_else(|| SweepError::Spec(format!("unknown preset {:?}", self.preset)))?;
        cfg.protocol = protocol;
        cfg.sanitizer.enabled = true;
        cfg.sanitizer.mutate = mutate;
        cfg.fault.seed = self.seed;
        plan.apply(&mut cfg.fault);
        Ok(cfg)
    }
}

/// Greedy delta-debugging: repeatedly replace the plan with the first
/// strictly-simpler candidate that still reproduces `target`, until no
/// candidate does. Terminates because every candidate removes an entry or
/// halves an intensity (with halvings below the floor becoming removals).
fn shrink_plan(
    spec: &CampaignSpec,
    cache: &ReportCache,
    protocol: ProtocolKind,
    source: &str,
    mutate: Option<Mutation>,
    plan: &PlanSpec,
    target: &str,
) -> Result<(PlanSpec, u32), SweepError> {
    let mut current = plan.clone();
    let mut steps = 0u32;
    loop {
        let mut advanced = false;
        for cand in current.shrink_candidates(spec.shrink_floor) {
            let cfg = spec.cell_config(protocol, &cand, mutate)?;
            if signature(run_job(cache, &cfg, source)?.result.as_ref().ok()) == target {
                current = cand;
                steps += 1;
                advanced = true;
                break;
            }
        }
        if !advanced {
            return Ok((current, steps));
        }
    }
}

/// Captures a replay bundle for a failing cell under its minimal plan and
/// verifies it in-process. Returns `(bundle_path, reproduced)`; both `None`
/// when the failing run produced no bundle (or panicked during capture —
/// recorded as unreproduced rather than killing the campaign).
fn capture_and_replay(
    spec: &CampaignSpec,
    dir: &Path,
    label: &str,
    protocol: ProtocolKind,
    source: &str,
    mutate: Option<Mutation>,
    minimal: &PlanSpec,
) -> Result<(Option<PathBuf>, Option<bool>), SweepError> {
    let cfg = spec.cell_config(protocol, minimal, mutate)?;
    let preset = spec.preset.clone();
    let src = source.to_string();
    let triaged = catch_unwind(AssertUnwindSafe(move || {
        run_with_triage(&cfg, &preset, &src)
    }));
    let bundle = match triaged {
        Ok(Ok(t)) => t.bundle,
        Ok(Err(e)) => return Err(SweepError::Spec(format!("triage of {label} failed: {e}"))),
        Err(_) => None, // the failure is a panic; nothing to bundle
    };
    let Some(bundle) = bundle else {
        return Ok((None, None));
    };
    let bundles = dir.join("bundles");
    std::fs::create_dir_all(&bundles).map_err(|e| SweepError::io(&bundles, &e))?;
    let path = bundles.join(format!("{label}.ccbundle"));
    bundle.write(&path).map_err(SweepError::Snap)?;
    let reproduced = replay_bundle(&bundle)
        .map(|(_, ok)| ok)
        .map_err(|e| SweepError::Spec(format!("replay of {label} failed: {e}")))?;
    Ok((Some(path), Some(reproduced)))
}

/// A campaign cell, built before any cell runs.
struct PlannedCell {
    label: String,
    protocol: ProtocolKind,
    workload: String,
    cfg: SystemConfig,
    source: String,
    plan: PlanSpec,
    mutate: Option<Mutation>,
}

/// Runs the whole campaign into `dir`: the grid and the optional mutation
/// cell (one [`sweep`] on `spec.threads` host threads), shrinking + capture
/// for every failing cell, and the deterministic manifest. Never aborts on
/// a failing *cell* — only on infrastructure errors (bad spec, I/O).
pub fn run_campaign(spec: &CampaignSpec, dir: &Path) -> Result<CampaignSummary, SweepError> {
    if spec.protocols.is_empty() || spec.workloads.is_empty() || spec.domains.is_empty() {
        return Err(SweepError::Spec("empty campaign axis".into()));
    }
    std::fs::create_dir_all(dir).map_err(|e| SweepError::io(dir, &e))?;
    let cache = ReportCache::new(dir.join("cache")).map_err(SweepError::Snap)?;
    let chip = SystemConfig::by_preset(&spec.preset)
        .ok_or_else(|| SweepError::Spec(format!("unknown preset {:?}", spec.preset)))?
        .mttop_threads();

    // One cell per protocol × workload × domain, each with a single-domain
    // plan at the campaign intensity, then the mutation cell: a known-bad
    // recovery layer (CorruptResendEpoch) under a deliberately fat
    // multi-domain plan, so shrinking has real work to do — the expected
    // minimal plan is the probe-loss entry alone.
    let mut planned = Vec::new();
    for &protocol in &spec.protocols {
        for workload in &spec.workloads {
            let source = campaign_source(workload, spec.size, spec.seed, chip)?;
            for &domain in &spec.domains {
                let mut plan = PlanSpec::new(vec![(domain, spec.intensity)], Some(spec.timeout));
                plan.retry_budget = spec.retry_budget;
                planned.push(PlannedCell {
                    label: format!("{}-{}-{}", protocol.as_str(), workload, domain.name()),
                    protocol,
                    workload: workload.clone(),
                    cfg: spec.cell_config(protocol, &plan, None)?,
                    source: source.clone(),
                    plan,
                    mutate: None,
                });
            }
        }
    }
    let mutation = Mutation {
        kind: MutationKind::CorruptResendEpoch,
        nth: 1,
    };
    if spec.mutation_cell {
        let mut plan = PlanSpec::new(
            vec![
                (CampaignDomain::NocDrop, 0.02),
                (CampaignDomain::DramSingleBit, 0.2),
                (CampaignDomain::SnoopProbe, 0.2),
            ],
            Some(spec.timeout),
        );
        plan.retry_budget = 32;
        let protocol = ProtocolKind::MesiSnoop;
        planned.push(PlannedCell {
            label: "mutation-corrupt-resend".into(),
            protocol,
            workload: "pingpong".into(),
            cfg: spec.cell_config(protocol, &plan, Some(mutation))?,
            source: campaign_source("pingpong", spec.size, spec.seed, chip)?,
            plan,
            mutate: Some(mutation),
        });
    }
    let runs = sweep(planned.len(), spec.threads.max(1), |i| {
        run_job(&cache, &planned[i].cfg, &planned[i].source)
    });
    let cells = planned
        .into_iter()
        .zip(runs)
        .map(|(cell, run)| Ok(classify(cell, run?.result)))
        .collect::<Result<Vec<_>, SweepError>>()?;

    // Shrink + capture every failing cell.
    let mut shrinks = Vec::new();
    for cell in cells.iter().filter(|c| c.status != CellStatus::Ok) {
        let mutate = (cell.label == "mutation-corrupt-resend").then_some(mutation);
        let source = campaign_source(&cell.workload, spec.size, spec.seed, chip)?;
        let signature = signature(cell.report.as_ref());
        let (minimal, steps) = shrink_plan(
            spec,
            &cache,
            cell.protocol,
            &source,
            mutate,
            &cell.plan,
            &signature,
        )?;
        let (bundle, reproduced) = capture_and_replay(
            spec,
            dir,
            &cell.label,
            cell.protocol,
            &source,
            mutate,
            &minimal,
        )?;
        shrinks.push(ShrinkReport {
            label: cell.label.clone(),
            signature,
            steps,
            minimal,
            bundle,
            reproduced,
        });
    }

    let ok = cells.iter().filter(|c| c.status == CellStatus::Ok).count();
    let panicked = cells
        .iter()
        .filter(|c| c.status == CellStatus::Panicked)
        .count();
    let failing = cells.len() - ok;
    let manifest_path = dir.join(MANIFEST_FILE);
    let manifest = render_manifest(spec, &cells, &shrinks, dir);
    ccsvm_snap::write_file(&manifest_path, manifest.as_bytes()).map_err(SweepError::Snap)?;
    Ok(CampaignSummary {
        cells,
        shrinks,
        ok,
        failing,
        panicked,
        manifest_path,
    })
}

fn classify(cell: PlannedCell, run: Result<RunReport, String>) -> CellReport {
    let (report, panic, status) = match run {
        Err(msg) => (None, Some(msg), CellStatus::Panicked),
        // A mutated cell is *supposed* to fail: it is always routed through
        // shrinking + capture, and its contract (an invariant violation
        // whose bundle replays) is checked by the campaign's caller.
        Ok(r) => {
            let status = if cell.mutate.is_none() && acceptable(&cell.plan, r.outcome) {
                CellStatus::Ok
            } else {
                CellStatus::Failing
            };
            (Some(r), None, status)
        }
    };
    CellReport {
        label: cell.label,
        protocol: cell.protocol,
        workload: cell.workload,
        plan: cell.plan,
        report,
        panic,
        status,
    }
}

/// Renders the deterministic campaign manifest. Bundle paths are written
/// relative to the campaign directory so the manifest is machine-portable.
fn render_manifest(
    spec: &CampaignSpec,
    cells: &[CellReport],
    shrinks: &[ShrinkReport],
    dir: &Path,
) -> String {
    let mut out = String::new();
    out.push_str("ccsvm-campaign v1\n");
    out.push_str(&format!(
        "preset={} seed={} intensity={} timeout={}us budget={}\n",
        spec.preset,
        spec.seed,
        spec.intensity,
        spec.timeout.as_ps() / 1_000_000,
        spec.retry_budget
    ));
    for c in cells {
        let (outcome, exit, invariant) = match &c.report {
            None => ("panic".to_string(), "-".to_string(), "-".to_string()),
            Some(r) => (
                outcome_name(r.outcome).to_string(),
                format!("{}", r.exit_code),
                r.diagnostic
                    .as_ref()
                    .and_then(|d| d.violation.as_ref())
                    .map(|v| v.invariant.as_str().to_string())
                    .unwrap_or_else(|| "-".to_string()),
            ),
        };
        let status = match c.status {
            CellStatus::Ok => "ok",
            CellStatus::Failing => "failing",
            CellStatus::Panicked => "panicked",
        };
        out.push_str(&format!(
            "cell {} plan={} outcome={outcome} exit={exit} invariant={invariant} status={status}\n",
            c.label,
            c.plan.describe()
        ));
    }
    for s in shrinks {
        out.push_str(&format!(
            "shrink {} signature={} steps={} minimal={}\n",
            s.label,
            s.signature,
            s.steps,
            s.minimal.describe()
        ));
        let bundle = s
            .bundle
            .as_ref()
            .and_then(|p| p.strip_prefix(dir).ok())
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "-".to_string());
        let reproduced = match s.reproduced {
            Some(true) => "yes",
            Some(false) => "no",
            None => "-",
        };
        out.push_str(&format!(
            "replay {} bundle={bundle} reproduced={reproduced}\n",
            s.label
        ));
    }
    let ok = cells.iter().filter(|c| c.status == CellStatus::Ok).count();
    let panicked = cells
        .iter()
        .filter(|c| c.status == CellStatus::Panicked)
        .count();
    out.push_str(&format!(
        "total={} ok={ok} failing={} panicked={panicked}\n",
        cells.len(),
        cells.len() - ok
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ccsvm-campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn acceptability_matches_the_plan() {
        let lossy = PlanSpec::new(
            vec![(CampaignDomain::SnoopProbe, 0.1)],
            Some(Time::from_us(5)),
        );
        assert!(acceptable(&lossy, Outcome::Completed));
        assert!(acceptable(&lossy, Outcome::RetryBudgetExhausted));
        assert!(!acceptable(&lossy, Outcome::Poisoned));
        assert!(!acceptable(&lossy, Outcome::Deadlock));
        assert!(!acceptable(&lossy, Outcome::InvariantViolation));
        let ecc = PlanSpec::new(vec![(CampaignDomain::DramDoubleBit, 0.1)], None);
        assert!(acceptable(&ecc, Outcome::Poisoned));
        assert!(!acceptable(&ecc, Outcome::RetryBudgetExhausted));
    }

    #[test]
    fn small_grid_completes_with_typed_outcomes_and_a_stable_manifest() {
        let spec = CampaignSpec {
            protocols: vec![ProtocolKind::Directory, ProtocolKind::MesiSnoop],
            workloads: vec!["vecadd".into()],
            domains: vec![CampaignDomain::NocDrop, CampaignDomain::SnoopProbe],
            mutation_cell: false,
            ..CampaignSpec::default()
        };
        let dir = tmpdir("grid");
        let a = run_campaign(&spec, &dir).unwrap();
        assert_eq!(a.cells.len(), 4);
        assert_eq!(a.ok, 4, "manifest: {:?}", a.cells);
        assert_eq!(a.panicked, 0);
        let first = std::fs::read(&a.manifest_path).unwrap();
        // Re-running (now fully cache-hit) renders the identical manifest.
        let b = run_campaign(&spec, &dir).unwrap();
        assert_eq!(std::fs::read(&b.manifest_path).unwrap(), first);
        // So does a cold run of the same grid on two host threads.
        let dir2 = tmpdir("grid-threads");
        let spec2 = CampaignSpec { threads: 2, ..spec };
        let c = run_campaign(&spec2, &dir2).unwrap();
        assert_eq!(std::fs::read(&c.manifest_path).unwrap(), first);
        let _ = std::fs::remove_dir_all(&dir2);
        let text = String::from_utf8(first).unwrap();
        assert!(text.starts_with("ccsvm-campaign v1\n"));
        assert!(text.contains("total=4 ok=4 failing=0 panicked=0"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mutation_cell_shrinks_to_probe_loss_and_replays() {
        let spec = CampaignSpec {
            protocols: vec![ProtocolKind::MesiSnoop],
            workloads: vec!["vecadd".into()],
            domains: vec![CampaignDomain::NocDrop],
            mutation_cell: true,
            ..CampaignSpec::default()
        };
        let dir = tmpdir("mutation");
        let summary = run_campaign(&spec, &dir).unwrap();
        assert_eq!(summary.panicked, 0);
        let cell = summary
            .cells
            .iter()
            .find(|c| c.label == "mutation-corrupt-resend")
            .expect("mutation cell ran");
        assert_eq!(cell.status, CellStatus::Failing);
        let r = cell.report.as_ref().expect("typed outcome, not a panic");
        assert_eq!(r.outcome, Outcome::InvariantViolation);
        let shrink = summary
            .shrinks
            .iter()
            .find(|s| s.label == "mutation-corrupt-resend")
            .expect("failing cell was shrunk");
        assert!(shrink.steps >= 1, "fat plan must shrink at least one step");
        // The minimal plan must keep the probe-loss carrier (the mutation
        // only fires on a timed-out solicitation round) and must be
        // strictly simpler than the original three-domain plan.
        assert!(
            shrink
                .minimal
                .entries
                .iter()
                .any(|&(d, _)| d == CampaignDomain::SnoopProbe),
            "minimal plan lost its carrier: {}",
            shrink.minimal.describe()
        );
        assert!(shrink.minimal.entries.len() < 3);
        assert_eq!(
            shrink.reproduced,
            Some(true),
            "bundle replay must reproduce cycle- and invariant-exactly"
        );
        let bundle = shrink.bundle.as_ref().expect("bundle written");
        assert!(bundle.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
