//! The pluggable coherence-protocol boundary.
//!
//! The memory system supports three per-block coherence protocols; which one
//! a machine runs is part of its configuration (and therefore of the config
//! hash that cache entries, pause images and replay bundles are keyed on):
//!
//! * **Directory MOESI** (`directory`) — the paper's protocol: a blocking
//!   directory embedded in the banked L2 orders transactions per block,
//!   invalidation-based, with an owned (O) state so dirty sharing does not
//!   force writebacks. The L2 is inclusive; installs may recall L1 copies.
//! * **Snooping MESI** (`mesi-snoop`) — bus-ordered broadcast over the
//!   existing NoC. The block's home bank acts as the per-block bus ordering
//!   point: `BusRd`/`BusRdX` transactions broadcast `Snoop` probes to every
//!   other L1 and collect `SnoopResp`s before granting, with cache-to-cache
//!   supply (dirty supplier preferred). The L2 is a plain non-inclusive
//!   victim of the traffic — no directory state, no recalls.
//! * **Dragon write-update** (`dragon`) — stores to shared blocks broadcast
//!   the written word (`BusUpd`) instead of invalidating: sharers patch their
//!   copies in place and the writer becomes the owner (Sm). The classic
//!   Dragon states map onto the existing L1 state enum as Sc=`S`, Sm=`O`,
//!   E=`E`, M=`M`. Read-modify-writes use the invalidating `BusRdX` path
//!   (updates cannot serialize an atomic's read-modify-write against racing
//!   updates, so exclusivity is acquired instead).
//!
//! [`ProtocolKind`] is what the rest of the stack knows about a protocol
//! without seeing its state machine: its identity/CLI naming and — the part
//! the sanitizer consumes — which DESIGN §9 invariants are *defined* under
//! it ([`ProtocolKind::invariants`]). SWMR is deliberately not an invariant
//! under Dragon (multiple dirty copies are the protocol working as
//! designed), and the directory-agreement invariant only exists where there
//! is a directory; the sanitizer gates on the mask rather than being
//! silently disabled. DESIGN §13.1 catalogues each protocol's states and
//! messages.
//!
//! The state machines themselves live next to the structures they drive:
//! the directory protocol in `bank.rs`/`l1.rs` (unchanged), the snooping
//! protocols' bank-side ordering point also in `bank.rs` and their L1-side
//! reactions in `l1.rs`, all dispatched on [`ProtocolKind`].

use ccsvm_engine::{InvariantId, InvariantMask};

/// Which coherence protocol a machine runs. Part of the memory system's
/// configuration: it participates in the config hash, so a pause image
/// taken under one protocol cannot silently restore into another.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Blocking directory MOESI embedded in the L2 banks (the paper's).
    #[default]
    Directory,
    /// Snooping MESI with the home bank as per-block bus ordering point.
    MesiSnoop,
    /// Dragon write-update (Sc/Sm/E/M; stores broadcast updates).
    Dragon,
}

impl ProtocolKind {
    /// All protocols, in CLI/documentation order.
    pub const ALL: [ProtocolKind; 3] = [
        ProtocolKind::Directory,
        ProtocolKind::MesiSnoop,
        ProtocolKind::Dragon,
    ];

    /// The CLI / config-file name (`directory`, `mesi-snoop`, `dragon`).
    pub fn as_str(self) -> &'static str {
        match self {
            ProtocolKind::Directory => "directory",
            ProtocolKind::MesiSnoop => "mesi-snoop",
            ProtocolKind::Dragon => "dragon",
        }
    }

    /// Parses a CLI / config-file name.
    pub fn parse(s: &str) -> Option<ProtocolKind> {
        Some(match s {
            "directory" => ProtocolKind::Directory,
            "mesi-snoop" => ProtocolKind::MesiSnoop,
            "dragon" => ProtocolKind::Dragon,
            _ => None?,
        })
    }

    /// Whether this protocol runs the L2-embedded blocking directory
    /// (inclusive L2, recalls, Fetch/Inv indirections, NACK timeouts).
    pub fn uses_directory(self) -> bool {
        matches!(self, ProtocolKind::Directory)
    }

    /// The DESIGN §9 invariants that are *defined* for this protocol. The
    /// sanitizer checks exactly this set — an invariant absent here is not
    /// an invariant of the protocol (not a disabled check).
    pub fn invariants(self) -> InvariantMask {
        match self {
            ProtocolKind::Directory => InvariantMask::all(),
            // No directory ⇒ nothing for the L2 record to agree with.
            ProtocolKind::MesiSnoop => InvariantMask::all().without(InvariantId::MemDirAgree),
            // No directory, and SWMR is *not* a Dragon invariant: an update
            // round leaves the writer in Sm with other readable copies alive
            // — that is the protocol's whole point, not a bug.
            ProtocolKind::Dragon => InvariantMask::all()
                .without(InvariantId::MemDirAgree)
                .without(InvariantId::MemSwmr),
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(kind.as_str()), Some(kind));
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert_eq!(ProtocolKind::parse("moesi"), None);
    }

    #[test]
    fn invariant_masks_differ_where_the_protocols_do() {
        let dir = ProtocolKind::Directory.invariants();
        let snoop = ProtocolKind::MesiSnoop.invariants();
        let dragon = ProtocolKind::Dragon.invariants();
        assert_eq!(dir, InvariantMask::all());
        assert!(snoop.contains(InvariantId::MemSwmr));
        assert!(!snoop.contains(InvariantId::MemDirAgree));
        assert!(!dragon.contains(InvariantId::MemSwmr));
        assert!(!dragon.contains(InvariantId::MemDirAgree));
        for m in [dir, snoop, dragon] {
            assert!(m.contains(InvariantId::MemDataValue));
            assert!(m.contains(InvariantId::MemMsgConserve));
            assert!(m.contains(InvariantId::NocConserve));
            assert!(m.contains(InvariantId::VmTlbPt));
            assert!(m.contains(InvariantId::VmStaleShoot));
        }
    }
}
