//! Automatic failure triage: periodic checkpointing, bisect-to-cycle, and
//! replay bundles (DESIGN §9).
//!
//! [`run_with_triage`] wraps a run in a checkpoint cadence. When the run
//! aborts abnormally it binary-searches simulated time between the last
//! healthy checkpoint and the abort — restoring the checkpoint and running
//! to the midpoint each probe — until it has the exact cycle the failure
//! first manifests, then packs everything needed to reproduce the failure
//! into a self-contained [`ReplayBundle`]: config preset + fault plan +
//! sanitizer knobs + workload source + the nearest pre-failure snapshot +
//! the run's trace of its last events. `bench --bin replay` feeds such a
//! bundle to [`replay_bundle`], which re-runs it deterministically with the
//! sanitizer forced on.

use ccsvm_engine::{FaultConfig, SanitizerConfig, Time, Violation};
use ccsvm_isa::Program;
use ccsvm_snap::{Codec, SnapError, SnapReader, SnapWriter, Snapshot};

use crate::machine::{config_hash, Machine, Outcome, RunReport};
use crate::trace::Trace;
use crate::SystemConfig;
use ccsvm_mem::ProtocolKind;

/// File magic identifying a ccsvm replay bundle.
pub const BUNDLE_MAGIC: [u8; 8] = *b"CCSVBNDL";

/// Bundle format version (independent of the snapshot schema version; the
/// embedded snapshot carries its own). v2: `FaultConfig` grew the
/// probe/ack-loss knobs, which flow into the bundle's serialized config.
/// v3: the untyped uncore-event ring became the typed [`Trace`], and
/// `SanitizerConfig` lost its ring capacity.
pub const BUNDLE_VERSION: u32 = 3;

/// Trace capacity [`run_with_triage`] records with when the caller's
/// config has the trace off.
const BUNDLE_TRACE_EVENTS: usize = 256;

/// A triage failure (distinct from in-simulation outcomes: these mean the
/// triage/replay *machinery* could not do its job).
#[derive(Clone, Debug, PartialEq)]
pub enum TriageError {
    /// The bundle names a config preset this build doesn't know.
    UnknownPreset(String),
    /// The bundled workload source no longer compiles.
    Compile(String),
    /// The bundle or its embedded snapshot failed to decode.
    Snap(SnapError),
}

impl std::fmt::Display for TriageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TriageError::UnknownPreset(p) => write!(f, "unknown config preset {p:?}"),
            TriageError::Compile(e) => write!(f, "bundled workload failed to compile: {e}"),
            TriageError::Snap(e) => write!(f, "bundle decode failed: {e}"),
        }
    }
}

impl std::error::Error for TriageError {}

impl From<SnapError> for TriageError {
    fn from(e: SnapError) -> TriageError {
        TriageError::Snap(e)
    }
}

/// Everything needed to deterministically reproduce a captured failure.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayBundle {
    /// Config preset name ([`SystemConfig::by_preset`]).
    pub preset: String,
    /// Coherence protocol of the failing run (applied on top of the
    /// preset at replay time — the embedded snapshot refuses any other).
    pub protocol: ProtocolKind,
    /// The fault plan the failing run was injected with.
    pub fault: FaultConfig,
    /// The failing run's sanitizer knobs (incl. any seeded mutation).
    pub sanitizer: SanitizerConfig,
    /// The workload's XC source.
    pub source: String,
    /// Config hash of the failing run (restore double-checks it).
    pub config_hash: u64,
    /// Simulated time of the embedded snapshot.
    pub snapshot_at: Time,
    /// The nearest pre-failure machine snapshot image.
    pub snapshot: Vec<u8>,
    /// Bisected first failing cycle: the earliest simulated time at which
    /// resuming the snapshot manifests the failure.
    pub first_fail: Time,
    /// How the captured run ended.
    pub outcome: Outcome,
    /// The sanitizer violation, when one was identified.
    pub violation: Option<Violation>,
    /// The failing run's last events, up to the abort.
    pub trace: Trace,
}

impl ReplayBundle {
    /// Serializes the bundle.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_raw(&BUNDLE_MAGIC);
        BUNDLE_VERSION.put(&mut w);
        self.preset.put(&mut w);
        w.put_str(self.protocol.as_str());
        (self.fault, self.sanitizer).put(&mut w);
        self.source.put(&mut w);
        (self.config_hash, self.snapshot_at).put(&mut w);
        w.put_bytes(&self.snapshot);
        (self.first_fail, self.outcome).put(&mut w);
        self.violation.put(&mut w);
        self.trace.save(&mut w);
        w.into_vec()
    }

    /// Decodes a bundle.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapError`] on bad magic/version, truncation, or
    /// any malformed field — never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<ReplayBundle, SnapError> {
        let mut r = SnapReader::new(bytes);
        let magic: [u8; 8] = Codec::get(&mut r)?;
        if magic != BUNDLE_MAGIC {
            return Err(SnapError::Corrupt {
                what: format!("bad bundle magic {magic:02x?}"),
            });
        }
        let version = u32::get(&mut r)?;
        if version != BUNDLE_VERSION {
            return Err(SnapError::Corrupt {
                what: format!("bundle version {version}, this build reads {BUNDLE_VERSION}"),
            });
        }
        let preset = Codec::get(&mut r)?;
        let proto_name = r.get_str()?;
        let protocol = ProtocolKind::parse(proto_name).ok_or_else(|| SnapError::Corrupt {
            what: format!("bundle names unknown coherence protocol {proto_name:?}"),
        })?;
        let (fault, sanitizer) = Codec::get(&mut r)?;
        let source = Codec::get(&mut r)?;
        let (config_hash, snapshot_at) = Codec::get(&mut r)?;
        let snapshot = r.get_bytes()?.to_vec();
        let (first_fail, outcome) = Codec::get(&mut r)?;
        let violation = Codec::get(&mut r)?;
        let mut trace = Trace::default();
        trace.load(&mut r)?;
        r.finish("bundle")?;
        Ok(ReplayBundle {
            preset,
            protocol,
            fault,
            sanitizer,
            source,
            config_hash,
            snapshot_at,
            snapshot,
            first_fail,
            outcome,
            violation,
            trace,
        })
    }

    /// Writes the bundle to `path`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Io`] on write failure.
    pub fn write(&self, path: &std::path::Path) -> Result<(), SnapError> {
        ccsvm_snap::write_file(path, &self.to_bytes())
    }

    /// Reads and decodes a bundle file.
    ///
    /// # Errors
    ///
    /// As [`ReplayBundle::from_bytes`], plus [`SnapError::Io`].
    pub fn read(path: &std::path::Path) -> Result<ReplayBundle, SnapError> {
        ReplayBundle::from_bytes(&ccsvm_snap::read_file(path)?)
    }
}

/// Result of a triaged run: the report, plus a bundle when it aborted.
#[derive(Clone, Debug)]
pub struct TriageResult {
    /// The (possibly partial) run report.
    pub report: RunReport,
    /// Present when the run aborted abnormally.
    pub bundle: Option<ReplayBundle>,
}

/// Runs `source` under `cfg` with periodic checkpoints every
/// `checkpoint_every` of simulated time. On any abnormal outcome, bisects
/// to the first failing cycle and captures a [`ReplayBundle`]. The run
/// records its trace (at `cfg.trace_events`, or 256 events when that is 0)
/// so the bundle can carry it.
///
/// `preset` names the `cfg` baseline for the bundle (the caller's `cfg`
/// must be `SystemConfig::by_preset(preset)` modulo `fault`/`sanitizer`
/// knobs — the snapshot's config hash enforces this at replay time).
///
/// # Errors
///
/// [`TriageError::Compile`] when `source` doesn't compile;
/// [`TriageError::Snap`] when a self-captured checkpoint fails to restore
/// during bisection (indicates a snapshot-layer bug).
pub fn run_with_triage(
    cfg: &SystemConfig,
    preset: &str,
    source: &str,
    checkpoint_every: Time,
) -> Result<TriageResult, TriageError> {
    let prog = ccsvm_xthreads::build(source).map_err(|e| TriageError::Compile(format!("{e}")))?;
    let mut traced = cfg.clone();
    if traced.trace_events == 0 {
        traced.trace_events = BUNDLE_TRACE_EVENTS;
    }
    let mut m = Machine::new(traced, prog.clone());
    let mut ck = m.checkpoint_bytes();
    let mut ck_at = m.now();
    let mut limit = checkpoint_every;
    let report = loop {
        match m.run_until(limit) {
            None => {
                ck = m.checkpoint_bytes();
                ck_at = m.now();
                limit += checkpoint_every;
            }
            Some(r) => break r,
        }
    };
    if report.outcome == Outcome::Completed {
        return Ok(TriageResult {
            report,
            bundle: None,
        });
    }
    let first_fail = bisect(cfg, &prog, &ck, ck_at, report.time)?;
    let violation = report.diagnostic.as_ref().and_then(|d| d.violation.clone());
    let bundle = ReplayBundle {
        preset: preset.to_string(),
        protocol: cfg.protocol,
        fault: cfg.fault,
        sanitizer: cfg.sanitizer,
        source: source.to_string(),
        config_hash: config_hash(cfg),
        snapshot_at: ck_at,
        snapshot: ck,
        first_fail,
        outcome: report.outcome,
        violation,
        trace: m.trace().clone(),
    };
    Ok(TriageResult {
        report,
        bundle: Some(bundle),
    })
}

/// Binary-searches simulated time in `(lo, hi]` for the earliest cycle at
/// which resuming `snapshot` manifests an abnormal outcome. Each probe is a
/// full restore + deterministic re-run to the midpoint, so the result is
/// exact: `run_until(first_fail - 1ps)` pauses healthy,
/// `run_until(first_fail)` aborts.
fn bisect(
    cfg: &SystemConfig,
    prog: &Program,
    snapshot: &[u8],
    lo: Time,
    hi: Time,
) -> Result<Time, TriageError> {
    let manifests_by = |t: Time| -> Result<bool, TriageError> {
        let mut m = Machine::restore_bytes(cfg.clone(), prog.clone(), snapshot)?;
        Ok(matches!(m.run_until(t), Some(r) if r.outcome != Outcome::Completed))
    };
    let (mut lo, mut hi) = (lo.as_ps(), hi.as_ps());
    debug_assert!(
        manifests_by(Time::from_ps(hi))?,
        "failure not reproducible from checkpoint"
    );
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if manifests_by(Time::from_ps(mid))? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(Time::from_ps(hi))
}

/// Re-runs a captured failure with the sanitizer forced on. Returns the
/// replay's report and whether the original failure reproduced: abnormal
/// outcome, at the bundled first-fail cycle, with a matching invariant ID
/// when the bundle recorded one.
///
/// # Errors
///
/// [`TriageError`] when the preset is unknown, the source no longer
/// compiles, or the embedded snapshot fails to restore (e.g. a config hash
/// mismatch — the preset drifted from the captured run).
pub fn replay_bundle(b: &ReplayBundle) -> Result<(RunReport, bool), TriageError> {
    let mut cfg = SystemConfig::by_preset(&b.preset)
        .ok_or_else(|| TriageError::UnknownPreset(b.preset.clone()))?;
    cfg.protocol = b.protocol;
    cfg.fault = b.fault;
    cfg.sanitizer = b.sanitizer;
    cfg.sanitizer.enabled = true; // full check verbosity, whatever was captured
    let prog =
        ccsvm_xthreads::build(&b.source).map_err(|e| TriageError::Compile(format!("{e}")))?;
    let mut m = Machine::restore_bytes(cfg, prog, &b.snapshot)?;
    let report = m.run();
    let abnormal = report.outcome != Outcome::Completed;
    let same_cycle = report.time == b.first_fail;
    let invariant_matches = match &b.violation {
        None => true,
        Some(v) => report
            .diagnostic
            .as_ref()
            .and_then(|d| d.violation.as_ref())
            .is_some_and(|rv| rv.invariant == v.invariant),
    };
    Ok((report, abnormal && same_cycle && invariant_matches))
}
