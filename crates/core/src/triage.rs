//! Automatic failure triage and replay bundles (DESIGN §9.3).
//!
//! [`run_with_triage`] runs a workload with its event trace on. When the run
//! ends abnormally it packs everything needed to reproduce the failure into
//! a self-contained [`ReplayBundle`]: config preset + protocol + fault plan +
//! sanitizer knobs + workload source + how and when the run ended + the
//! trace of its last events. A run is deterministic in its config and
//! program, so the failing run's end time is the first cycle the failure
//! manifests at, and a replay is a re-run from cycle 0. `bench --bin replay`
//! feeds a bundle to [`replay_bundle`], which does that re-run with the
//! sanitizer forced on.

use ccsvm_engine::{FaultConfig, SanitizerConfig, Time, Violation};
use ccsvm_snap::{Codec, SnapError, SnapReader, SnapWriter};

use crate::machine::{config_hash, Machine, Outcome, RunReport};
use crate::trace::Trace;
use crate::SystemConfig;
use ccsvm_mem::ProtocolKind;

/// File magic identifying a ccsvm replay bundle.
pub const BUNDLE_MAGIC: [u8; 8] = *b"CCSVBNDL";

/// Bundle format version. v2: `FaultConfig` grew the probe/ack-loss knobs,
/// which flow into the bundle's serialized config. v3: the untyped
/// uncore-event ring became the typed [`Trace`], and `SanitizerConfig` lost
/// its ring capacity. v4: the embedded machine snapshot and its time are
/// gone; a replay re-runs from cycle 0.
pub const BUNDLE_VERSION: u32 = 4;

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
    /// The bundle failed to decode, or its config hash is not the one its
    /// preset builds today ([`SnapError::ConfigMismatch`]: the preset
    /// drifted since the capture).
    Snap(SnapError),
}

impl std::fmt::Display for TriageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TriageError::UnknownPreset(p) => write!(f, "unknown config preset {p:?}"),
            TriageError::Compile(e) => write!(f, "bundled workload failed to compile: {e}"),
            TriageError::Snap(e) => write!(f, "bundle unusable: {e}"),
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
    /// preset at replay time).
    pub protocol: ProtocolKind,
    /// The fault plan the failing run was injected with.
    pub fault: FaultConfig,
    /// The failing run's sanitizer knobs (incl. any seeded mutation).
    pub sanitizer: SanitizerConfig,
    /// The workload's XC source.
    pub source: String,
    /// Config hash of the failing run; a replay refuses a preset that no
    /// longer builds it.
    pub config_hash: u64,
    /// The first failing cycle: the failing run's end time.
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
        w.put_magic(&BUNDLE_MAGIC, BUNDLE_VERSION);
        self.preset.put(&mut w);
        w.put_str(self.protocol.as_str());
        (self.fault, self.sanitizer).put(&mut w);
        self.source.put(&mut w);
        self.config_hash.put(&mut w);
        (self.first_fail, self.outcome).put(&mut w);
        self.violation.put(&mut w);
        self.trace.put(&mut w);
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
        r.expect_magic(&BUNDLE_MAGIC, BUNDLE_VERSION)?;
        let preset = Codec::get(&mut r)?;
        let proto_name = r.get_str()?;
        let protocol = ProtocolKind::parse(proto_name).ok_or_else(|| SnapError::Corrupt {
            what: format!("bundle names unknown coherence protocol {proto_name:?}"),
        })?;
        let (fault, sanitizer) = Codec::get(&mut r)?;
        let source = Codec::get(&mut r)?;
        let config_hash = Codec::get(&mut r)?;
        let (first_fail, outcome) = Codec::get(&mut r)?;
        let violation = Codec::get(&mut r)?;
        let trace = Codec::get(&mut r)?;
        r.finish("bundle")?;
        Ok(ReplayBundle {
            preset,
            protocol,
            fault,
            sanitizer,
            source,
            config_hash,
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

/// Runs `source` under `cfg` and, on any abnormal outcome, captures a
/// [`ReplayBundle`] whose first failing cycle is the run's end time. The
/// run records its trace (at `cfg.trace_events`, or 256 events when that
/// is 0) so the bundle can carry it.
///
/// `preset` names the `cfg` baseline for the bundle: the caller's `cfg`
/// must be `SystemConfig::by_preset(preset)` modulo protocol, `fault` and
/// `sanitizer` knobs, which the bundle's config hash enforces at replay.
///
/// # Errors
///
/// [`TriageError::Compile`] when `source` doesn't compile.
pub fn run_with_triage(
    cfg: &SystemConfig,
    preset: &str,
    source: &str,
) -> Result<TriageResult, TriageError> {
    let prog = ccsvm_xthreads::build(source).map_err(|e| TriageError::Compile(format!("{e}")))?;
    let mut traced = cfg.clone();
    if traced.trace_events == 0 {
        traced.trace_events = BUNDLE_TRACE_EVENTS;
    }
    let mut m = Machine::new(traced, prog);
    let report = m.run();
    let bundle = (report.outcome != Outcome::Completed).then(|| ReplayBundle {
        preset: preset.to_string(),
        protocol: cfg.protocol,
        fault: cfg.fault,
        sanitizer: cfg.sanitizer,
        source: source.to_string(),
        config_hash: config_hash(cfg),
        first_fail: report.time,
        outcome: report.outcome,
        violation: report.diagnostic.as_ref().and_then(|d| d.violation.clone()),
        trace: m.trace().clone(),
    });
    Ok(TriageResult { report, bundle })
}

/// Re-runs a captured failure from cycle 0 with the sanitizer forced on.
/// Returns the replay's report and whether the original failure reproduced:
/// the same outcome, at the bundled first-fail cycle, with a matching
/// invariant ID when the bundle recorded one.
///
/// # Errors
///
/// [`TriageError`] when the preset is unknown, the source no longer
/// compiles, or the rebuilt config's hash differs from the bundle's (the
/// preset drifted from the captured run).
pub fn replay_bundle(b: &ReplayBundle) -> Result<(RunReport, bool), TriageError> {
    let mut cfg = SystemConfig::by_preset(&b.preset)
        .ok_or_else(|| TriageError::UnknownPreset(b.preset.clone()))?;
    cfg.protocol = b.protocol;
    cfg.fault = b.fault;
    cfg.sanitizer = b.sanitizer;
    cfg.sanitizer.enabled = true; // full check verbosity, whatever was captured
    let expected = config_hash(&cfg);
    if b.config_hash != expected {
        return Err(SnapError::ConfigMismatch {
            found: b.config_hash,
            expected,
        }
        .into());
    }
    let prog =
        ccsvm_xthreads::build(&b.source).map_err(|e| TriageError::Compile(format!("{e}")))?;
    let report = Machine::new(cfg, prog).run();
    let invariant_matches = match &b.violation {
        None => true,
        Some(v) => report
            .diagnostic
            .as_ref()
            .and_then(|d| d.violation.as_ref())
            .is_some_and(|rv| rv.invariant == v.invariant),
    };
    let reproduced =
        report.outcome == b.outcome && report.time == b.first_fail && invariant_matches;
    Ok((report, reproduced))
}
