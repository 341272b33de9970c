//! Online invariant checking ("coherence sanitizer") support types.
//!
//! The paper's results are only meaningful if the modeled memory system
//! actually preserves the coherence and SVM invariants it claims (§3.2.2:
//! single-writer/multiple-reader, the data-value invariant). The sanitizer is
//! an opt-in check layer threaded through `mem`, `noc` and `vm` that verifies
//! those invariants *online*, at event granularity, and turns the first
//! violation into a typed, replayable failure instead of silent figure skew.
//!
//! This module holds the shared vocabulary:
//!
//! * [`InvariantId`] — stable identifiers for every checked invariant (the
//!   full catalogue, with statements and cost classes, lives in DESIGN.md §9).
//! * [`Violation`] — one detected violation: which invariant, at which cycle,
//!   with a human-readable detail string.
//! * [`SanitizerConfig`] — the toggle and the test-only protocol
//!   [`Mutation`] used to prove the checker fires.
//!
//! Determinism contract: checks are read-only. Enabling the sanitizer must
//! not change event order, statistics, RNG draws, or any other simulated
//! state — a sanitizer-on run produces a bit-identical `RunReport` to a
//! sanitizer-off run (enforced by `core/tests/sanitizer.rs`).

use std::fmt;

use crate::time::Time;

/// Stable identifier of one checked invariant. The string forms (via
/// [`InvariantId::as_str`]) are part of the replay-bundle format and the
/// test contract; never renumber or rename existing entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvariantId {
    /// At most one L1 holds a block writable (M/E); a writable copy excludes
    /// all other valid copies (single-writer/multiple-reader).
    MemSwmr,
    /// Every valid L1 copy is accounted for by the directory (as owner or
    /// sharer) or by an active transaction on the block.
    MemDirAgree,
    /// All valid copies of a block agree on its data; clean copies match the
    /// L2 backing value.
    MemDataValue,
    /// A delivered coherence response matches an expectation the directory
    /// actually holds (no spurious or duplicated responses in strict mode).
    MemMsgConserve,
    /// Uncore message conservation: every event sent is delivered, sanctioned
    /// by the fault plan, or still in flight — nothing lost or duplicated.
    NocConserve,
    /// Every TLB entry maps a page consistently with the OS page tables.
    VmTlbPt,
    /// After a shootdown (IPI/flush delivered, acks collected) no TLB retains
    /// the invalidated translation.
    VmStaleShoot,
}

impl InvariantId {
    /// All invariants, in catalogue order (DESIGN.md §9).
    pub const ALL: [InvariantId; 7] = [
        InvariantId::MemSwmr,
        InvariantId::MemDirAgree,
        InvariantId::MemDataValue,
        InvariantId::MemMsgConserve,
        InvariantId::NocConserve,
        InvariantId::VmTlbPt,
        InvariantId::VmStaleShoot,
    ];

    /// The stable string form used in diagnostics, bundles, and tests.
    pub fn as_str(self) -> &'static str {
        match self {
            InvariantId::MemSwmr => "MEM-SWMR",
            InvariantId::MemDirAgree => "MEM-DIR-AGREE",
            InvariantId::MemDataValue => "MEM-DATA-VALUE",
            InvariantId::MemMsgConserve => "MEM-MSG-CONSERVE",
            InvariantId::NocConserve => "NOC-CONSERVE",
            InvariantId::VmTlbPt => "VM-TLB-PT",
            InvariantId::VmStaleShoot => "VM-STALE-SHOOT",
        }
    }
}

ccsvm_snap::codec!(enum InvariantId {
    0 => MemSwmr,
    1 => MemDirAgree,
    2 => MemDataValue,
    3 => MemMsgConserve,
    4 => NocConserve,
    5 => VmTlbPt,
    6 => VmStaleShoot,
});

impl fmt::Display for InvariantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A set of [`InvariantId`]s. Coherence protocols declare which sanitizer
/// invariants they uphold (DESIGN.md §13): SWMR is an invariant of
/// invalidation protocols but explicitly *not* of a write-update protocol
/// like Dragon, and only the directory protocol keeps directory state for
/// `MEM-DIR-AGREE` to check. The checker consults the active protocol's mask
/// instead of being silently disabled wholesale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvariantMask(u32);

impl InvariantMask {
    /// The empty set.
    pub const EMPTY: InvariantMask = InvariantMask(0);

    /// Every invariant in the catalogue.
    pub fn all() -> InvariantMask {
        InvariantId::ALL
            .iter()
            .fold(InvariantMask::EMPTY, |m, &id| m.with(id))
    }

    /// A mask holding exactly `ids`.
    pub fn of(ids: &[InvariantId]) -> InvariantMask {
        ids.iter().fold(InvariantMask::EMPTY, |m, &id| m.with(id))
    }

    /// `self` plus `id`.
    pub fn with(self, id: InvariantId) -> InvariantMask {
        InvariantMask(self.0 | 1 << id as u32)
    }

    /// `self` minus `id`.
    pub fn without(self, id: InvariantId) -> InvariantMask {
        InvariantMask(self.0 & !(1 << id as u32))
    }

    /// Whether `id` is in the set.
    pub fn contains(self, id: InvariantId) -> bool {
        self.0 & 1 << id as u32 != 0
    }

    /// The members, in catalogue order.
    pub fn ids(self) -> Vec<InvariantId> {
        InvariantId::ALL
            .into_iter()
            .filter(|&id| self.contains(id))
            .collect()
    }
}

/// One detected invariant violation.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: InvariantId,
    /// Simulated time at which the violation was detected.
    pub at: Time,
    /// Human-readable description of the failing state.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}: {}", self.invariant, self.at, self.detail)
    }
}

ccsvm_snap::codec!(struct Violation { invariant, at, detail });

/// A deliberate, test-only protocol corruption. Each kind targets a specific
/// invariant; `core/tests/sanitizer.rs` applies every kind and asserts the
/// sanitizer reports the matching [`InvariantId`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationKind {
    /// Erase the directory's owner registration for the block of the n-th
    /// data delivery (⇒ `MEM-DIR-AGREE`).
    CorruptDirOwner,
    /// Upgrade the n-th shared-grant data delivery to a modified grant,
    /// creating a second writable copy (⇒ `MEM-SWMR`).
    CorruptGrant,
    /// Flip one payload byte of the n-th shared-grant data delivery
    /// (⇒ `MEM-DATA-VALUE`).
    CorruptFillData,
    /// Re-deliver the n-th L1→directory response a second time
    /// (⇒ `MEM-MSG-CONSERVE`).
    DuplicateResp,
    /// Silently discard the n-th L1→directory response — an unsanctioned
    /// message loss (⇒ `NOC-CONSERVE`, surfaced at the watchdog abort).
    DropResp,
    /// Skip the TLB invalidation of the n-th shootdown IPI while still
    /// acknowledging it (⇒ `VM-STALE-SHOOT`).
    SkipTlbInvalidate,
    /// Corrupt the frame of a live CPU TLB entry at the n-th uncore event
    /// (⇒ `VM-TLB-PT`).
    CorruptTlbEntry,
    /// Clear the `had` flag of the n-th shared snoop response, making the
    /// ordering point grant exclusive while a sharer survives — only
    /// meaningful under the snooping protocols (⇒ `MEM-SWMR`).
    CorruptSnoopShared,
    /// Flip the payload of the n-th write-update delivery so one sharer
    /// applies a different value than the writer — only meaningful under the
    /// Dragon protocol (⇒ `MEM-DATA-VALUE`).
    CorruptUpdValue,
    /// Corrupt the epoch bookkeeping of the n-th timed-out snoop/update
    /// solicitation round so the ordering point abandons one still-pending
    /// probe and completes the round without its answer — only meaningful
    /// under the snooping protocols with recovery armed (⇒ `MEM-SWMR` /
    /// `MEM-DATA-VALUE`, depending on what the abandoned port held).
    CorruptResendEpoch,
}

ccsvm_snap::codec!(enum MutationKind {
    0 => CorruptDirOwner,
    1 => CorruptGrant,
    2 => CorruptFillData,
    3 => DuplicateResp,
    4 => DropResp,
    5 => SkipTlbInvalidate,
    6 => CorruptTlbEntry,
    7 => CorruptSnoopShared,
    8 => CorruptUpdValue,
    9 => CorruptResendEpoch,
});

/// A seeded protocol corruption: apply `kind` to the `nth` (1-based)
/// matching event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mutation {
    /// What to corrupt.
    pub kind: MutationKind,
    /// Which matching event to corrupt (1-based).
    pub nth: u64,
}

/// Sanitizer knobs. `Default` is production: checks off, no mutation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SanitizerConfig {
    /// Master toggle for online invariant checks.
    pub enabled: bool,
    /// Test-only protocol corruption. Unlike `enabled`, a mutation *changes
    /// the simulation* and therefore participates in the config hash.
    pub mutate: Option<Mutation>,
}

ccsvm_snap::codec!(struct Mutation { kind, nth });
ccsvm_snap::codec!(struct SanitizerConfig { enabled, mutate });

/// Uncore message-conservation verdict: given end-of-run accounting, decide
/// whether every sent event is delivered, fault-sanctioned, or still queued.
/// Returns the violation detail on mismatch.
pub fn check_conservation(
    sent: u64,
    delivered: u64,
    sanctioned: u64,
    in_flight: u64,
) -> Option<String> {
    let accounted = delivered + sanctioned + in_flight;
    if accounted == sent {
        return None;
    }
    if accounted < sent {
        Some(format!(
            "{} uncore event(s) lost without fault-plan sanction \
             (sent {sent}, delivered {delivered}, sanctioned {sanctioned}, in flight {in_flight})",
            sent - accounted
        ))
    } else {
        Some(format!(
            "{} uncore event(s) duplicated \
             (sent {sent}, delivered {delivered}, sanctioned {sanctioned}, in flight {in_flight})",
            accounted - sent
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsvm_snap::{Codec, SnapReader, SnapWriter};

    #[test]
    fn invariant_ids_round_trip_and_are_unique() {
        let mut seen = Vec::new();
        for id in InvariantId::ALL {
            let mut w = SnapWriter::new();
            id.put(&mut w);
            let bytes = w.into_vec();
            assert_eq!(bytes, [id as u8], "the tag is the catalogue index");
            assert_eq!(InvariantId::get(&mut SnapReader::new(&bytes)).unwrap(), id);
            assert!(!seen.contains(&id.as_str()), "duplicate id string");
            seen.push(id.as_str());
        }
        assert!(InvariantId::get(&mut SnapReader::new(&[200])).is_err());
    }

    #[test]
    fn invariant_mask_set_ops() {
        let all = InvariantMask::all();
        for id in InvariantId::ALL {
            assert!(all.contains(id));
            assert!(!InvariantMask::EMPTY.contains(id));
        }
        let no_swmr = all.without(InvariantId::MemSwmr);
        assert!(!no_swmr.contains(InvariantId::MemSwmr));
        assert!(no_swmr.contains(InvariantId::MemDataValue));
        assert_eq!(no_swmr.with(InvariantId::MemSwmr), all);
        let pair = InvariantMask::of(&[InvariantId::NocConserve, InvariantId::VmTlbPt]);
        assert_eq!(
            pair.ids(),
            vec![InvariantId::NocConserve, InvariantId::VmTlbPt]
        );
    }

    #[test]
    fn violation_snapshot_round_trips() {
        let v = Violation {
            invariant: InvariantId::VmStaleShoot,
            at: Time::from_ns(123),
            detail: "stale va 0x4000 in cpu 1".to_string(),
        };
        let mut w = SnapWriter::new();
        v.put(&mut w);
        let bytes = w.into_vec();
        assert_eq!(Violation::get(&mut SnapReader::new(&bytes)).unwrap(), v);
    }

    #[test]
    fn sanitizer_config_round_trips() {
        let cfg = SanitizerConfig {
            enabled: true,
            mutate: Some(Mutation {
                kind: MutationKind::DuplicateResp,
                nth: 3,
            }),
        };
        let mut w = SnapWriter::new();
        cfg.put(&mut w);
        let bytes = w.into_vec();
        let back = SanitizerConfig::get(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn conservation_flags_loss_and_duplication() {
        assert_eq!(check_conservation(10, 8, 1, 1), None);
        let lost = check_conservation(10, 8, 0, 1).expect("loss detected");
        assert!(lost.contains("1 uncore event(s) lost"), "{lost}");
        let dup = check_conservation(10, 11, 0, 0).expect("dup detected");
        assert!(dup.contains("1 uncore event(s) duplicated"), "{dup}");
    }
}
