//! Typed journal records over the raw `ccsvm_snap::journal` frames.
//!
//! Every sweep state transition is one appended record. Replaying the
//! journal's surviving prefix after a crash and folding it with
//! [`JournalState::fold`] reconstructs exactly which jobs are done, which
//! are poisoned, and how many attempts each pending job has burned — the
//! orchestrator resumes from that state instead of restarting the sweep.
//!
//! Encoding is the snap codec's: a one-byte discriminant followed by the
//! variant's fields. Unknown discriminants, non-0/1 flags and short
//! payloads decode to a typed [`SnapError`], never a panic.

use ccsvm_snap::{codec, Codec, SnapError, SnapReader, SnapWriter};

/// How one worker attempt ended, as observed by the supervisor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttemptStatus {
    /// Worker exited 0 and its report landed in the cache.
    Completed,
    /// Worker exited nonzero: the simulation finished with a non-Completed
    /// outcome (deadlock, invariant violation) or the harness failed.
    Abnormal,
    /// Worker died on a signal (chaos SIGKILL, OOM-kill, ...).
    Killed,
    /// Supervisor killed the worker at the wall-clock timeout.
    Timeout,
    /// Worker was interrupted (SIGINT/SIGTERM) and exited cleanly.
    Interrupted,
    /// The worker process could not be spawned at all.
    SpawnFailed,
}

codec!(enum AttemptStatus {
    0 => Completed,
    1 => Abnormal,
    2 => Killed,
    3 => Timeout,
    4 => Interrupted,
    5 => SpawnFailed,
});

/// One journal record. `key` is always [`crate::JobSpec::key`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// Job admitted to the run queue.
    Planned {
        /// Job identity.
        key: u64,
        /// Human label for logs and the manifest.
        label: String,
    },
    /// Job satisfied by a valid cache entry; no worker will run.
    SkippedCached {
        /// Job identity.
        key: u64,
    },
    /// An axis point collapsed into an already-planned job.
    SkippedDuplicate {
        /// Key of the job it collapsed into.
        key: u64,
        /// Label of the collapsed axis point.
        label: String,
    },
    /// A worker process was (about to be) spawned.
    AttemptStarted {
        /// Job identity.
        key: u64,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The attempt's worker is gone and its exit was classified.
    AttemptEnded {
        /// Job identity.
        key: u64,
        /// 1-based attempt number.
        attempt: u32,
        /// Supervisor's classification of the exit.
        status: AttemptStatus,
        /// Simulated time the worker reported resuming from (0 = cold boot).
        resumed_at_ps: u64,
    },
    /// Job completed; its report is in the cache.
    Done {
        /// Job identity.
        key: u64,
    },
    /// Job exhausted its retry budget and was retired.
    Poisoned {
        /// Job identity.
        key: u64,
        /// Whether a replay bundle was captured on the final attempt.
        bundled: bool,
    },
    /// Orchestrator (re)started and folded the journal up to here.
    Recovered {
        /// Jobs already done at recovery.
        done: u32,
        /// Jobs still pending at recovery.
        pending: u32,
    },
    /// Orchestrator caught SIGINT/SIGTERM and is shutting down.
    Interrupted,
    /// Sweep finished; the manifest was written.
    SweepClosed {
        /// FNV-1a of the manifest bytes, for cross-run comparison.
        manifest_fnv: u64,
    },
}

codec!(enum Record {
    1 => Planned { key, label },
    2 => SkippedCached { key },
    3 => SkippedDuplicate { key, label },
    4 => AttemptStarted { key, attempt },
    5 => AttemptEnded { key, attempt, status, resumed_at_ps },
    6 => Done { key },
    7 => Poisoned { key, bundled },
    8 => Recovered { done, pending },
    9 => Interrupted,
    10 => SweepClosed { manifest_fnv },
});

impl Record {
    /// Encodes to the journal payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.put(&mut w);
        w.into_vec()
    }

    /// Decodes a journal payload. Trailing bytes are an error: records are
    /// fixed forms, not containers.
    pub fn decode(payload: &[u8]) -> Result<Record, SnapError> {
        let mut r = SnapReader::new(payload);
        let rec = Record::get(&mut r)?;
        r.finish("journal record")?;
        Ok(rec)
    }
}

/// The sweep state a journal prefix implies.
#[derive(Clone, Debug, Default)]
pub struct JournalState {
    /// Keys with a `Done` record.
    pub done: std::collections::BTreeSet<u64>,
    /// Keys with a `Poisoned` record.
    pub poisoned: std::collections::BTreeSet<u64>,
    /// Attempts *ended* per key (an `AttemptStarted` without a matching
    /// `AttemptEnded` means the attempt died with the orchestrator and is
    /// counted as burned — its worker may have been orphan-killed).
    pub attempts: std::collections::BTreeMap<u64, u32>,
    /// Highest `resumed_at_ps` seen per key (proves checkpoint resume).
    pub resumed_at: std::collections::BTreeMap<u64, u64>,
    /// A `SweepClosed` record was seen.
    pub closed: bool,
    /// Number of `Recovered` records (orchestrator restarts observed).
    pub recoveries: u32,
}

impl JournalState {
    /// Folds decoded records into the implied sweep state. A decode failure
    /// is returned as-is — callers quarantine the journal and rebuild from
    /// the cache rather than trusting a half-understood log.
    pub fn fold(payloads: &[Vec<u8>]) -> Result<JournalState, SnapError> {
        let mut st = JournalState::default();
        for p in payloads {
            match Record::decode(p)? {
                Record::AttemptStarted { key, attempt } => {
                    let burned = st.attempts.entry(key).or_insert(0);
                    *burned = (*burned).max(attempt);
                }
                Record::AttemptEnded {
                    key,
                    attempt,
                    resumed_at_ps,
                    ..
                } => {
                    let burned = st.attempts.entry(key).or_insert(0);
                    *burned = (*burned).max(attempt);
                    if resumed_at_ps > 0 {
                        let r = st.resumed_at.entry(key).or_insert(0);
                        *r = (*r).max(resumed_at_ps);
                    }
                }
                Record::Done { key } => {
                    st.done.insert(key);
                }
                Record::Poisoned { key, .. } => {
                    st.poisoned.insert(key);
                }
                Record::Recovered { .. } => st.recoveries += 1,
                Record::SweepClosed { .. } => st.closed = true,
                Record::Planned { .. }
                | Record::SkippedCached { .. }
                | Record::SkippedDuplicate { .. }
                | Record::Interrupted => {}
            }
        }
        Ok(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Record> {
        vec![
            Record::Planned {
                key: 0xdead_beef,
                label: "vecadd-n64-s1".into(),
            },
            Record::SkippedCached { key: 7 },
            Record::SkippedDuplicate {
                key: 7,
                label: "wedge-n16-s2".into(),
            },
            Record::AttemptStarted { key: 7, attempt: 1 },
            Record::AttemptEnded {
                key: 7,
                attempt: 1,
                status: AttemptStatus::Killed,
                resumed_at_ps: 0,
            },
            Record::AttemptEnded {
                key: 7,
                attempt: 2,
                status: AttemptStatus::Completed,
                resumed_at_ps: 123_456,
            },
            Record::Done { key: 7 },
            Record::Poisoned {
                key: 9,
                bundled: true,
            },
            Record::Recovered {
                done: 3,
                pending: 2,
            },
            Record::Interrupted,
            Record::SweepClosed {
                manifest_fnv: 0x1234_5678_9abc_def0,
            },
        ]
    }

    #[test]
    fn round_trip_every_variant() {
        for rec in samples() {
            let bytes = rec.encode();
            assert_eq!(Record::decode(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn trailing_bytes_and_bad_kinds_are_corrupt() {
        let mut bytes = Record::Done { key: 1 }.encode();
        bytes.push(0);
        assert!(matches!(
            Record::decode(&bytes),
            Err(SnapError::Corrupt { .. })
        ));
        assert!(matches!(
            Record::decode(&[0xff]),
            Err(SnapError::Corrupt { .. })
        ));
        assert!(Record::decode(&[]).is_err());
        // `bundled` is a strict bool like every other flag in the format.
        let mut bytes = Record::Poisoned {
            key: 9,
            bundled: true,
        }
        .encode();
        *bytes.last_mut().unwrap() = 2;
        assert!(matches!(
            Record::decode(&bytes),
            Err(SnapError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncated_payloads_are_typed_errors() {
        for rec in samples() {
            let bytes = rec.encode();
            for cut in 0..bytes.len() {
                // Every strict prefix either fails typed or (never) panics.
                // Prefixes can accidentally decode only if the form has no
                // fields; none of ours are both valid and shorter.
                if let Ok(decoded) = Record::decode(&bytes[..cut]) {
                    panic!("prefix {cut} of {rec:?} decoded as {decoded:?}");
                }
            }
        }
    }

    #[test]
    fn fold_reconstructs_state() {
        let payloads: Vec<Vec<u8>> = samples().iter().map(Record::encode).collect();
        let st = JournalState::fold(&payloads).unwrap();
        assert!(st.done.contains(&7));
        assert!(st.poisoned.contains(&9));
        assert_eq!(st.attempts.get(&7), Some(&2));
        assert_eq!(st.resumed_at.get(&7), Some(&123_456));
        assert!(st.closed);
        assert_eq!(st.recoveries, 1);
    }
}
