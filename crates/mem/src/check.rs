//! Coherence sanitizer checks over the memory hierarchy (DESIGN §9).
//!
//! All checks are **read-only** over quiescent-per-block state, so enabling
//! them never perturbs simulated time, message ordering, or the `RunReport`.
//! Blocks with an active directory transaction (or a queued conflicting
//! request) are deliberately skipped: the blocking directory makes every
//! invariant hold at transaction boundaries, while mid-transaction state is
//! legitimately inconsistent (e.g. an invalidation is still in flight).
//!
//! Invariants checked here:
//!
//! * **MEM-SWMR** — at most one L1 holds a block in a writable state (M/E),
//!   and a writable copy excludes every other valid copy.
//! * **MEM-DIR-AGREE** — every valid L1 copy is accounted for by the home
//!   directory entry (owner or sharer-mask bit). Only the L1→directory
//!   direction is checked: the directory may conservatively list caches that
//!   silently dropped a clean block, but it must never be *unaware* of one.
//! * **MEM-DATA-VALUE** — all valid copies of a block hold identical bytes,
//!   and when the directory records no owner (Unowned/Shared) they also match
//!   the inclusive L2 copy.
//! * **MEM-MSG-CONSERVE** — in strict mode (directory timeouts disabled) a
//!   response arriving at a bank must be one the bank is actually waiting
//!   for; anything else is a duplicated or misrouted message.

use ccsvm_engine::{InvariantId, Time, Violation};

use crate::l1::L1State;
use crate::msg::{BlockData, MemEvent, MemEventKind};
use crate::system::{MemorySystem, PortId};

fn violation(id: InvariantId, at: Time, detail: String) -> Option<Violation> {
    Some(Violation {
        invariant: id,
        at,
        detail,
    })
}

impl MemorySystem {
    /// Pre-delivery check of a single memory event (MEM-MSG-CONSERVE).
    ///
    /// Returns a violation when a directory bank receives a response it is
    /// not waiting for. Only meaningful in strict mode: with directory
    /// timeouts enabled the protocol deliberately tolerates duplicate and
    /// stale responses (NACK/retry recovery), so the check stands down.
    pub fn check_event(&self, at: Time, ev: &MemEvent) -> Option<Violation> {
        if self.dir_timeout.is_some() {
            return None; // lenient mode sanctions duplicates/stale responses
        }
        if let MemEventKind::RespArrive(bank, resp) = &ev.0 {
            if !self.banks[bank.0].expects_resp(resp) {
                return violation(
                    InvariantId::MemMsgConserve,
                    at,
                    format!(
                        "bank {} received unexpected response {resp:?}: no \
                         transaction or recall is waiting for it (duplicated \
                         or misrouted message)",
                        bank.0
                    ),
                );
            }
        }
        None
    }

    /// Checks SWMR, directory agreement, and the data-value invariant for
    /// one block — each gated on whether the configured protocol *defines*
    /// it (see [`crate::ProtocolKind::invariants`]). Skips blocks with an
    /// active transaction at the home bank.
    pub fn check_block(&self, at: Time, block: u64) -> Option<Violation> {
        let home = self.home(block);
        if self.banks[home].busy_on(block) {
            return None; // mid-transaction: transient disagreement is legal
        }
        if !self.protocol.uses_directory()
            && self
                .l1s
                .iter()
                .any(|l1| l1.mshr_on(block) || l1.evicting(block))
        {
            // Without the blocking directory the bank's transaction window
            // does not cover the whole round: a grant or `UpdDone` may still
            // be in flight to the requester after the bank retired its
            // transaction. Any outstanding L1 MSHR or writeback on the block
            // marks it mid-round.
            return None;
        }
        let mask = self.protocol.invariants();
        // Gather every valid L1 copy.
        let mut copies: Vec<(PortId, L1State, Option<BlockData>)> = Vec::new();
        for (i, l1) in self.l1s.iter().enumerate() {
            let (st, data) = l1.probe(block);
            if st != L1State::I {
                copies.push((PortId(i), st, data));
            }
        }

        // MEM-SWMR: at most one writable copy, and it excludes all others.
        // (Not a Dragon invariant: update rounds leave the Sm owner and Sc
        // sharers all valid by design.)
        if mask.contains(InvariantId::MemSwmr) {
            let writable: Vec<PortId> = copies
                .iter()
                .filter(|(_, st, _)| matches!(st, L1State::M | L1State::E))
                .map(|&(p, _, _)| p)
                .collect();
            if writable.len() > 1 {
                return violation(
                    InvariantId::MemSwmr,
                    at,
                    format!(
                        "block {block:#x}: {} L1s hold writable (M/E) copies: {:?}",
                        writable.len(),
                        writable
                    ),
                );
            }
            if writable.len() == 1 && copies.len() > 1 {
                let others: Vec<PortId> = copies
                    .iter()
                    .filter(|&&(p, _, _)| p != writable[0])
                    .map(|&(p, _, _)| p)
                    .collect();
                return violation(
                    InvariantId::MemSwmr,
                    at,
                    format!(
                        "block {block:#x}: port {} holds a writable copy but \
                         ports {others:?} also hold valid copies",
                        writable[0].0
                    ),
                );
            }
        }

        // MEM-DIR-AGREE: every valid L1 copy is known to the home directory.
        // Only defined where there *is* a directory.
        let record = self.banks[home].dir_record(block);
        if mask.contains(InvariantId::MemDirAgree) {
            for &(p, st, _) in &copies {
                let ok = match record {
                    // Inclusive L2: an L1 copy of a non-resident block is
                    // unaccountable.
                    None => false,
                    Some((owner, sharers)) => match st {
                        L1State::M | L1State::E | L1State::O => owner == Some(p),
                        // An S copy is legal as a recorded sharer, or as the
                        // registered owner (upgrade grant in flight).
                        L1State::S => sharers & (1u32 << p.0) != 0 || owner == Some(p),
                        L1State::I => unreachable!(),
                    },
                };
                if !ok {
                    return violation(
                        InvariantId::MemDirAgree,
                        at,
                        format!(
                            "block {block:#x}: port {} holds {st:?} but home bank \
                             {home} directory entry is {record:?}",
                            p.0
                        ),
                    );
                }
            }
        }

        // MEM-DATA-VALUE. Poisoned blocks carry deliberately untrustworthy
        // bytes, so they are exempt.
        if self.poisoned.contains(&block) || !mask.contains(InvariantId::MemDataValue) {
            return None;
        }
        let valid: Vec<(PortId, BlockData)> = copies
            .iter()
            .filter_map(|&(p, _, d)| d.map(|d| (p, d)))
            .collect();
        if let Some(&(p0, d0)) = valid.first() {
            for &(p, d) in &valid[1..] {
                if d != d0 {
                    return violation(
                        InvariantId::MemDataValue,
                        at,
                        format!(
                            "block {block:#x}: ports {} and {} hold valid \
                             copies with different bytes",
                            p0.0, p.0
                        ),
                    );
                }
            }
            // The L2 copy is authoritative only when no L1 owns the block:
            // under the directory that is a recorded-ownerless entry; under
            // the snooping protocols it is the absence of any M/E/O copy
            // (while a dirty copy lives, the non-inclusive L2 is legally
            // stale until writeback).
            let l2_authoritative = if self.protocol.uses_directory() {
                matches!(record, Some((None, _)))
            } else {
                !copies
                    .iter()
                    .any(|(_, st, _)| matches!(st, L1State::M | L1State::E | L1State::O))
            };
            if l2_authoritative {
                if let Some(l2) = self.banks[home].probe(block) {
                    if l2 != d0 {
                        return violation(
                            InvariantId::MemDataValue,
                            at,
                            format!(
                                "block {block:#x}: port {} holds bytes that \
                                 differ from the unowned L2 copy",
                                p0.0
                            ),
                        );
                    }
                }
            }
        }
        None
    }

    /// Sweeps every block with at least one valid L1 copy through
    /// [`MemorySystem::check_block`]. Used for the end-of-run / on-abort
    /// full check.
    pub fn check_all(&self, at: Time) -> Option<Violation> {
        let mut blocks = std::collections::BTreeSet::new();
        for l1 in &self.l1s {
            for (b, _) in l1.resident_blocks() {
                blocks.insert(b);
            }
        }
        for b in blocks {
            if let Some(v) = self.check_block(at, b) {
                return Some(v);
            }
        }
        None
    }

    /// Test-only protocol corruption: clears the registered owner of
    /// `block` at its home bank (see [`crate::msg`] for the companion
    /// message-level mutations). Returns `false` if the block has no owner.
    pub fn test_corrupt_dir_owner(&mut self, block: u64) -> bool {
        let home = self.home(block);
        self.banks[home].test_corrupt_owner(block)
    }
}
