//! The one point runner, the one host-thread loop, and the grid sweep.
//!
//! Every simulated point of a figure, a sweep or a fault campaign goes
//! through [`run_point`]: the source is compiled and run on a fresh machine
//! under `catch_unwind`. A sweep or campaign job goes through [`run_job`],
//! which first looks its report up in the [`ReportCache`] under
//! `fnv1a(config_hash ‖ source)` ([`job_key`]) and stores it after a miss.
//! The preset's watchdog and `max_sim_time` bound every run, so a job always
//! ends in a typed `Outcome` or a caught panic; being deterministic, it is
//! run once and never retried.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ccsvm::{
    config_hash, run_with_triage, Machine, Outcome, RunReport, SystemConfig, TriageResult,
};
use ccsvm_snap::{fnv1a, write_file};

use crate::cache::ReportCache;
use crate::spec::{JobSpec, SweepSpec};
use crate::SweepError;

/// Name of the manifest inside a sweep or campaign directory.
pub const MANIFEST_FILE: &str = "manifest.txt";

/// The cache key of a job: FNV-1a of its config hash followed by its source.
pub fn job_key(cfg_hash: u64, source: &str) -> u64 {
    let mut buf = cfg_hash.to_le_bytes().to_vec();
    buf.extend_from_slice(source.as_bytes());
    fnv1a(&buf)
}

/// How one job ended.
#[derive(Clone, Debug)]
pub struct JobRun {
    /// The run report, or the panic message when the simulator panicked.
    pub result: Result<RunReport, String>,
    /// `false` when the report was served from the cache.
    pub simulated: bool,
}

impl JobRun {
    /// Whether the job ran to a `Completed` outcome.
    pub fn completed(&self) -> bool {
        matches!(&self.result, Ok(r) if r.outcome == Outcome::Completed)
    }
}

/// Runs `source` under `cfg`, or serves its report from `cache`. A corrupt
/// cache entry is a typed miss: it is logged, quarantined and re-run. Every
/// report is stored, whatever its outcome; a panic is returned, not stored.
///
/// # Errors
///
/// [`SweepError::Spec`] when the source does not compile, and cache I/O.
pub fn run_job(
    cache: &ReportCache,
    cfg: &SystemConfig,
    source: &str,
) -> Result<JobRun, SweepError> {
    let hash = config_hash(cfg);
    let key = job_key(hash, source);
    match cache.lookup(key, hash) {
        Ok(Some(report)) => {
            return Ok(JobRun {
                result: Ok(report),
                simulated: false,
            })
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("sweepd: cache entry {key:016x} invalid ({e}); quarantined, re-running");
            cache.quarantine(key);
        }
    }
    let result = run_point(&format!("{key:016x}"), cfg, source)?;
    if let Ok(report) = &result {
        cache.store(key, hash, report)?;
    }
    Ok(JobRun {
        result,
        simulated: true,
    })
}

/// Compiles `source` and runs it to completion on a fresh machine under
/// `cfg`, returning the report or, when the simulator panicked, the panic
/// message. When `cfg.trace_events` is set (`--trace-events N`) the
/// machine's event trace goes to stderr as one block headed `label`.
///
/// # Errors
///
/// [`SweepError::Spec`] when the source does not compile.
pub fn run_point(
    label: &str,
    cfg: &SystemConfig,
    source: &str,
) -> Result<Result<RunReport, String>, SweepError> {
    let prog = ccsvm_xthreads::build(source)
        .map_err(|e| SweepError::Spec(format!("workload failed to compile: {e}")))?;
    Ok(catch_unwind(AssertUnwindSafe(|| {
        let mut m = Machine::new(cfg.clone(), prog);
        let report = m.run();
        if cfg.trace_events > 0 {
            eprintln!("== {label} {}", m.trace());
        }
        report
    }))
    .map_err(
        |p| match (p.downcast_ref::<&str>(), p.downcast_ref::<String>()) {
            (Some(s), _) => s.to_string(),
            (_, Some(s)) => s.clone(),
            _ => "non-string panic payload".into(),
        },
    ))
}

/// Runs `f(0..n)` across `threads` worker threads and returns the results
/// **in input order**. Every multi-point harness runs its points through
/// this one loop.
///
/// Each sweep point gets its own independent `Machine`, so points are
/// embarrassingly parallel; indices are claimed dynamically (an atomic
/// counter) for load balance. With `threads == 1` the closure runs inline on
/// the caller's thread. Because each point is deterministic and results are
/// reassembled by index, the caller's output is byte-identical regardless
/// of the thread count.
pub fn sweep<R: Send>(n: usize, threads: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    assert!(threads >= 1, "need at least one sweep thread");
    if threads == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                *slots[i].lock().expect("sweep result slot") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("sweep result slot")
                .expect("sweep point computed")
        })
        .collect()
}

/// What a finished sweep looked like.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Unique jobs in the sweep.
    pub total: usize,
    /// Labels of poisoned jobs (empty on a fully healthy sweep).
    pub poisoned: Vec<String>,
    /// Jobs simulated by this run; the other `total - simulated` were
    /// served from the cache.
    pub simulated: usize,
    /// Where the manifest was written.
    pub manifest_path: PathBuf,
    /// FNV-1a of the manifest bytes.
    pub manifest_fnv: u64,
}

/// Where a poisoned job's replay bundle lives, relative to the sweep
/// directory.
fn bundle_rel(key: u64) -> String {
    format!("bundles/{key:016x}.bundle")
}

/// Runs the sweep described by `spec` in `dir` on `spec.threads` host
/// threads and writes `<dir>/manifest.txt`. Only jobs with no cache entry
/// are simulated. A job that does not complete is poisoned: its replay
/// bundle is captured once, and the sweep goes on.
///
/// # Errors
///
/// Harness-level failures only (bad spec, unwritable directory, cache
/// I/O), checked before anything is written when the spec is bad.
pub fn run_sweep(spec: &SweepSpec, dir: &Path) -> Result<Summary, SweepError> {
    let (jobs, dups) = spec.expand()?;
    let cfg = spec.config()?;
    std::fs::create_dir_all(dir).map_err(|e| SweepError::io(dir, &e))?;
    let cache = ReportCache::new(dir.join("cache"))?;
    let runs = sweep(jobs.len(), spec.threads.max(1), |i| {
        let run = run_job(&cache, &cfg, &jobs[i].source)?;
        if !run.completed() {
            capture_bundle(dir, &spec.preset, &cfg, &jobs[i])?;
        }
        Ok(run)
    })
    .into_iter()
    .collect::<Result<Vec<JobRun>, SweepError>>()?;

    let manifest = render_manifest(spec, &jobs, &dups, &runs);
    let manifest_path = dir.join(MANIFEST_FILE);
    write_file(&manifest_path, manifest.as_bytes())?;
    Ok(Summary {
        total: jobs.len(),
        poisoned: jobs
            .iter()
            .zip(&runs)
            .filter(|(_, run)| !run.completed())
            .map(|(job, _)| job.label.clone())
            .collect(),
        simulated: runs.iter().filter(|run| run.simulated).count(),
        manifest_path,
        manifest_fnv: fnv1a(manifest.as_bytes()),
    })
}

/// Captures the replay bundle of a job that did not complete, unless an
/// earlier run of the sweep already did. A triage run that fails or panics
/// leaves no bundle; the manifest row is the same either way.
fn capture_bundle(
    dir: &Path,
    preset: &str,
    cfg: &SystemConfig,
    job: &JobSpec,
) -> Result<(), SweepError> {
    let path = dir.join(bundle_rel(job.key));
    if path.exists() {
        return Ok(());
    }
    eprintln!("sweepd: {} did not complete; poisoned", job.label);
    let triaged = catch_unwind(AssertUnwindSafe(|| {
        run_with_triage(cfg, preset, &job.source)
    }));
    match triaged {
        Ok(Ok(TriageResult {
            bundle: Some(bundle),
            ..
        })) => {
            let parent = dir.join("bundles");
            std::fs::create_dir_all(&parent).map_err(|e| SweepError::io(&parent, &e))?;
            bundle.write(&path)?;
        }
        Ok(Err(e)) => eprintln!("sweepd: triage of {} failed: {e}", job.label),
        _ => {}
    }
    Ok(())
}

/// Renders the deterministic sweep manifest. Rows are in spec expansion
/// order, and every field comes from the spec or a report, never from
/// wall-clock, thread count or which jobs the cache already held.
fn render_manifest(spec: &SweepSpec, jobs: &[JobSpec], dups: &[String], runs: &[JobRun]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# sweepd manifest v1");
    let _ = writeln!(
        out,
        "# spec tag {:016x} preset {} protocol {}",
        spec.tag(),
        spec.preset,
        spec.protocol
    );
    let mut poisoned = 0;
    for (job, run) in jobs.iter().zip(runs) {
        match &run.result {
            Ok(report) if run.completed() => {
                let _ = writeln!(
                    out,
                    "job {} key={:016x} status=done time_ps={} exit={} dram={} report_fnv={:016x}",
                    job.label,
                    job.key,
                    report.time.as_ps(),
                    report.exit_code,
                    report.dram_accesses,
                    fnv1a(&report.to_bytes()),
                );
            }
            _ => {
                poisoned += 1;
                let _ = writeln!(
                    out,
                    "job {} key={:016x} status=poisoned bundle={}",
                    job.label,
                    job.key,
                    bundle_rel(job.key)
                );
            }
        }
    }
    for label in dups {
        let _ = writeln!(out, "dup {label}");
    }
    let _ = writeln!(
        out,
        "total={} done={} poisoned={poisoned}",
        jobs.len(),
        jobs.len() - poisoned
    );
    out
}
