//! `sweepd` — a crash-recoverable sweep orchestrator (DESIGN.md §10).
//!
//! The paper's evaluation is one long design-space sweep: the same machine
//! re-run across config and workload axes (figs 5–9). This crate turns that
//! from a one-shot CLI loop into a supervised, durable workload:
//!
//! * a [`SweepSpec`] expands into jobs deduplicated by a key derived from
//!   the normalized config hash + workload source ([`spec`]),
//! * every job state transition is appended to a write-ahead journal
//!   ([`records`] over `ccsvm_snap::journal`) — after any crash, replaying
//!   the surviving prefix reconstructs the sweep exactly,
//! * jobs run in child **worker processes** ([`worker`]) under a supervisor
//!   ([`orchestrator`]) with per-job wall-clock timeouts and seeded
//!   exponential-backoff-with-jitter retries,
//! * workers flush a machine checkpoint at a fixed simulated-time cadence;
//!   a retried job resumes from the newest valid image instead of cold
//!   booting (PR-4 snapshots make the resumed result bit-identical),
//! * completed jobs land in a [`cache::ReportCache`] keyed by job key —
//!   corrupt or mismatched entries are a typed, logged miss, never trusted —
//!   so re-running a finished sweep is a no-op and an interrupted one only
//!   re-simulates unfinished tails,
//! * a job that exhausts its retry budget is **poisoned**: the sweep
//!   completes, exits 0, and its manifest names the casualty next to a
//!   PR-5-style replay bundle captured on the final attempt.
//!
//! The headline invariant, enforced by the chaos harness (`bench --bin
//! sweepd -- --chaos kill=p,seed=s`) and its tests: any interleaving of
//! worker SIGKILLs and orchestrator crash-restarts yields a final results
//! manifest **byte-identical** to an uninterrupted cold run.

// `sig` declares three POSIX calls itself (the workspace takes no `libc`);
// it is the one module in the workspace allowed `unsafe` (DESIGN §10).
#![deny(unsafe_code)]

pub mod cache;
pub mod campaign;
pub mod orchestrator;
pub mod records;
#[allow(unsafe_code)]
pub mod sig;
pub mod spec;
pub mod worker;

pub use cache::ReportCache;
pub use campaign::{
    run_campaign, CampaignSpec, CampaignSummary, CellReport, CellStatus, ShrinkReport,
};
pub use orchestrator::{run_sweep, ChaosPlan, Summary, SweepOutcome};
pub use records::{AttemptStatus, JournalState, Record};
pub use spec::{JobSpec, SweepSpec};
pub use worker::{run_worker, WorkerJob, EXIT_ABNORMAL, EXIT_INTERRUPTED, EXIT_OK};

use std::path::PathBuf;

use ccsvm_snap::SnapError;

/// Typed orchestrator/worker failure. These are harness-level errors (bad
/// spec, I/O, decode); simulation-level failures are per-job outcomes that
/// poison the job without failing the sweep.
#[derive(Debug)]
pub enum SweepError {
    /// File or process I/O failed.
    Io {
        /// What was being touched.
        path: PathBuf,
        /// The underlying error message.
        err: String,
    },
    /// A journal, snapshot, cache, or bundle codec operation failed.
    Snap(SnapError),
    /// The sweep spec is unusable (unknown preset/workload, empty axes).
    Spec(String),
    /// A worker misbehaved at the harness level (unparseable handshake).
    Worker(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Io { path, err } => write!(f, "{}: {err}", path.display()),
            SweepError::Snap(e) => write!(f, "codec: {e}"),
            SweepError::Spec(what) => write!(f, "bad sweep spec: {what}"),
            SweepError::Worker(what) => write!(f, "worker: {what}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<SnapError> for SweepError {
    fn from(e: SnapError) -> SweepError {
        SweepError::Snap(e)
    }
}

impl SweepError {
    /// Wraps a file I/O error with the path it concerned.
    pub fn io(path: impl Into<PathBuf>, err: &std::io::Error) -> SweepError {
        SweepError::Io {
            path: path.into(),
            err: err.to_string(),
        }
    }
}
