//! `sweepd` — cached, in-process sweeps (DESIGN §10).
//!
//! The paper's evaluation (figs 5–9) is a grid of points, and each point is
//! one deterministic run. This crate runs such grids:
//!
//! * a [`SweepSpec`] expands into jobs deduplicated by a key derived from
//!   the normalized config hash + workload source ([`spec`]);
//! * [`run_point`] is the one point runner: it compiles a source and runs
//!   it on a fresh machine under `catch_unwind`;
//! * [`run_job`] wraps it in the [`ReportCache`] for sweeps and the fault
//!   campaign ([`campaign`]): a cached job is served, any other is run and
//!   stored;
//! * [`sweep`] spreads independent jobs over host threads and returns the
//!   results in input order, for [`run_sweep`] and every bench harness;
//! * [`run_sweep`] writes a manifest rendered only from the spec and the
//!   reports, so a re-run — which simulates only jobs with no cache entry —
//!   reproduces it byte for byte. A job that does not end `Completed` is
//!   named `status=poisoned` next to a replay bundle; it does not fail the
//!   sweep.
//!
//! Resume is at point granularity: a sweep stopped at any instant loses at
//! most the points it was simulating.

#![forbid(unsafe_code)]

pub mod cache;
pub mod campaign;
pub mod run;
pub mod spec;

pub use cache::ReportCache;
pub use campaign::{
    run_campaign, CampaignSpec, CampaignSummary, CellReport, CellStatus, ShrinkReport,
};
pub use run::{run_job, run_point, run_sweep, sweep, JobRun, Summary};
pub use spec::{JobSpec, SweepSpec};

use std::path::PathBuf;

use ccsvm_snap::SnapError;

/// Typed sweep failure. These are harness-level errors (bad spec, I/O,
/// decode); simulation-level failures are per-job outcomes that poison the
/// job without failing the sweep.
#[derive(Debug)]
pub enum SweepError {
    /// File I/O failed.
    Io {
        /// What was being touched.
        path: PathBuf,
        /// The underlying error message.
        err: String,
    },
    /// A cache or bundle codec operation failed.
    Snap(SnapError),
    /// The sweep spec is unusable (unknown preset/workload, empty axes).
    Spec(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Io { path, err } => write!(f, "{}: {err}", path.display()),
            SweepError::Snap(e) => write!(f, "codec: {e}"),
            SweepError::Spec(what) => write!(f, "bad sweep spec: {what}"),
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
