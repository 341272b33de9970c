//! Protocol-generic solicitation-round recovery state (DESIGN §14).
//!
//! Every coherence protocol's ordering point runs *solicitation rounds*: the
//! bank sends a set of requests (directory invalidations/fetches/recalls,
//! snoop probes, write-update pushes) and waits for every answer before the
//! transaction can advance. [`Round`] is one such round: which L1s still owe
//! an answer and what each was asked. It is the one place that decides
//! whether a response is expected or stale, for the bank's response path
//! and for the sanitizer's `MEM-MSG-CONSERVE` check alike.
//!
//! When the fabric may drop messages, each round is guarded by a timeout +
//! bounded-resend loop. [`RetryRound`] is that loop's per-transaction state,
//! shared by the directory, snooping MESI and Dragon ordering points:
//!
//! * an **epoch** counter, bumped on every resend, carried by the armed
//!   timeout event so a raced timeout from a superseded round is recognised
//!   as stale and ignored;
//! * a **resend count** checked against the configured budget — exhaustion
//!   turns into a typed [`Outcome::RetryBudgetExhausted`] abort rather than a
//!   silent wedge.
//!
//! [`Outcome::RetryBudgetExhausted`]: https://docs.rs/ccsvm-core

use crate::bank::BankOut;
use crate::msg::{DirToL1, L1ToDir, SnoopKind};
use crate::system::PortId;

/// `p`'s bit in a port mask.
pub(crate) fn bit(p: PortId) -> u32 {
    debug_assert!(p.0 < 32, "port masks support 32 L1s");
    1 << p.0
}

/// The ports of `mask`, lowest first.
pub(crate) fn ports(mask: u32) -> impl Iterator<Item = PortId> {
    (0..32).filter(move |i| mask & (1 << i) != 0).map(PortId)
}

/// What a round asked of one L1, and so which response answers it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ask {
    /// `Inv`, answered by `InvResp`.
    Inv,
    /// `Fetch` to the owner (which keeps an O copy), answered by `FetchResp`.
    Fetch,
    /// `FetchInv` to the owner, answered by `FetchResp`.
    FetchInv,
    /// A snooping probe, answered by `SnoopResp`.
    Snoop(SnoopKind),
}

impl Ask {
    fn msg(self, block: u64) -> DirToL1 {
        match self {
            Ask::Inv => DirToL1::Inv { block },
            Ask::Fetch => DirToL1::Fetch { block },
            Ask::FetchInv => DirToL1::FetchInv { block },
            Ask::Snoop(kind) => DirToL1::Snoop { block, kind },
        }
    }

    fn answered_by(self, resp: &L1ToDir) -> bool {
        matches!(
            (self, resp),
            (Ask::Inv, L1ToDir::InvResp { .. })
                | (Ask::Fetch | Ask::FetchInv, L1ToDir::FetchResp { .. })
                | (Ask::Snoop(_), L1ToDir::SnoopResp { .. })
        )
    }
}

/// One solicitation round of a bank transaction: the L1s that still owe an
/// answer, and what each was asked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Round {
    /// The block every message of the round names: the transaction's demand
    /// block, or the victim of its recall.
    block: u64,
    /// The owner asked for the data, while it owes the answer.
    fetch: Option<(PortId, Ask)>,
    /// Ports asked `probe` that still owe the answer, one bit each.
    probes: u32,
    probe: Ask,
}

impl Round {
    /// No round: nothing is owed, so no response is expected.
    pub(crate) const IDLE: Round = Round {
        block: 0,
        fetch: None,
        probes: 0,
        probe: Ask::Inv,
    };

    /// A round on `block` that asks `fetch`'s owner for the data (if any)
    /// and every port of `probes` the same `probe`.
    pub(crate) fn new(block: u64, fetch: Option<(PortId, Ask)>, probe: Ask, probes: u32) -> Round {
        Round {
            block,
            fetch,
            probes,
            probe,
        }
    }

    /// Sends every ask, the owner's fetch first and then the probes in port
    /// order, and arms the timeout of the transaction on `tx_block` for its
    /// current epoch when any answer is owed. Returns whether one is.
    pub(crate) fn open(&self, tx_block: u64, retry: &RetryRound, out: &mut BankOut) -> bool {
        if let Some((owner, ask)) = self.fetch {
            out.sends.push((owner, ask.msg(self.block)));
        }
        for p in ports(self.probes) {
            out.sends.push((p, self.probe.msg(self.block)));
        }
        if self.done() {
            return false;
        }
        out.arm.push((tx_block, retry.epoch()));
        true
    }

    /// Sends again every ask still owed, the probes in port order and then
    /// the fetch. Returns how many were sent.
    pub(crate) fn resend(&self, sends: &mut Vec<(PortId, DirToL1)>) -> usize {
        let n = sends.len();
        for p in ports(self.probes) {
            sends.push((p, self.probe.msg(self.block)));
        }
        if let Some((owner, ask)) = self.fetch {
            sends.push((owner, ask.msg(self.block)));
        }
        sends.len() - n
    }

    /// Whether `resp` answers an ask this round still waits on.
    pub(crate) fn expects(&self, resp: &L1ToDir) -> bool {
        let (from, block) = resp.origin();
        block == self.block
            && match self.fetch {
                Some((owner, ask)) if owner == from && ask.answered_by(resp) => true,
                _ => self.probes & bit(from) != 0 && self.probe.answered_by(resp),
            }
    }

    /// Records the expected answer `resp`. Returns whether the round is done.
    pub(crate) fn take(&mut self, resp: &L1ToDir) -> bool {
        debug_assert!(self.expects(resp), "took an unexpected {resp:?}");
        let (from, _) = resp.origin();
        if matches!(resp, L1ToDir::FetchResp { .. }) {
            self.fetch = None;
        } else {
            self.probes &= !bit(from);
        }
        self.done()
    }

    /// Whether no answer is owed.
    pub(crate) fn done(&self) -> bool {
        self.fetch.is_none() && self.probes == 0
    }

    /// The kind of the snooping probes still owed, if this is an open snoop
    /// round.
    pub(crate) fn snoop(&self) -> Option<SnoopKind> {
        match self.probe {
            Ask::Snoop(kind) if self.probes != 0 => Some(kind),
            _ => None,
        }
    }

    /// The lowest port that still owes a probe answer.
    pub(crate) fn lowest_probe(&self) -> Option<PortId> {
        ports(self.probes).next()
    }

    /// Forgets the lowest owed probe without its answer (the test-only
    /// `CorruptResendEpoch` mutation). Returns whether the round is done.
    pub(crate) fn abandon_lowest_probe(&mut self) -> bool {
        self.probes &= self.probes.wrapping_sub(1);
        self.done()
    }
}

/// Timeout/resend bookkeeping for one in-flight transaction's current
/// solicitation round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RetryRound {
    /// Current solicitation round: `serial << 32 | resends`, where `serial`
    /// numbers the transaction among those its bank opened. Bumped on every
    /// resend so a stale timeout event (armed for a superseded round, or by
    /// an earlier transaction on the same block) can be recognised and
    /// dropped.
    epoch: u64,
    /// Resends already spent on this transaction, across all its rounds.
    nacks: u32,
}

impl RetryRound {
    /// Fresh state for the `serial`-th transaction a bank opened: no
    /// resends, and an epoch base no other of the bank's transactions uses
    /// (a `u32` budget keeps every resend's epoch below the next base).
    pub(crate) fn new(serial: u64) -> RetryRound {
        RetryRound {
            epoch: serial << 32,
            nacks: 0,
        }
    }

    /// The round a timeout event must carry to be considered live.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a timeout armed for `epoch` refers to the current round.
    pub(crate) fn is_current(&self, epoch: u64) -> bool {
        self.epoch == epoch
    }

    /// Spends one resend from `budget`. Returns the new round's epoch, or
    /// `None` if the budget is exhausted (→ typed abort, caller's job).
    pub(crate) fn spend(&mut self, budget: u32) -> Option<u64> {
        if self.nacks >= budget {
            return None;
        }
        self.nacks += 1;
        self.epoch += 1;
        Some(self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spend_bumps_epoch_until_budget_exhausted() {
        let mut r = RetryRound::new(0);
        assert_eq!(r.epoch(), 0);
        assert!(r.is_current(0));
        assert_eq!(r.spend(2), Some(1));
        assert!(r.is_current(1) && !r.is_current(0));
        assert_eq!(r.spend(2), Some(2));
        assert_eq!(r.spend(2), None);
        // Exhaustion is sticky and does not advance the round.
        assert_eq!(r.spend(2), None);
        assert!(r.is_current(2));
    }

    /// A later transaction's epochs never meet an earlier one's, even when
    /// the earlier one spent a `u32::MAX` budget.
    #[test]
    fn each_transaction_starts_past_every_earlier_epoch() {
        let mut early = RetryRound::new(1);
        assert_eq!(early.spend(3), Some((1 << 32) + 1));
        let mut spent = RetryRound::new(2);
        spent.nacks = u32::MAX - 1;
        spent.epoch = (2 << 32) + u64::from(spent.nacks);
        assert_eq!(spent.spend(u32::MAX), Some((3 << 32) - 1));
        assert_eq!(spent.spend(u32::MAX), None);
        let next = RetryRound::new(3);
        for old in [0, early.epoch(), spent.epoch()] {
            assert!(!next.is_current(old), "epoch {old:#x} is current again");
        }
    }

    /// A recall-style round: the owner's `FetchInv` goes out first and the
    /// invalidations in port order; a resend lists the probes first. Each
    /// answer is expected once, from its own port, for the round's block.
    #[test]
    fn round_opens_resends_and_takes_each_answer_once() {
        let inv = |p: usize| L1ToDir::InvResp {
            from: PortId(p),
            block: 7,
            data: None,
        };
        let fetched = L1ToDir::FetchResp {
            from: PortId(2),
            block: 7,
            data: [0; crate::BLOCK_BYTES as usize],
            dirty: false,
        };
        let mut round = Round::new(7, Some((PortId(2), Ask::FetchInv)), Ask::Inv, 0b1010);
        let mut out = BankOut::default();
        assert!(round.open(3, &RetryRound::new(0), &mut out));
        assert_eq!(
            out.sends,
            [
                (PortId(2), DirToL1::FetchInv { block: 7 }),
                (PortId(1), DirToL1::Inv { block: 7 }),
                (PortId(3), DirToL1::Inv { block: 7 }),
            ]
        );
        assert_eq!(out.arm, [(3, 0)]);

        let mut sends = Vec::new();
        assert_eq!(round.resend(&mut sends), 3);
        assert_eq!(sends[0], (PortId(1), DirToL1::Inv { block: 7 }));
        assert_eq!(sends[2], (PortId(2), DirToL1::FetchInv { block: 7 }));

        assert!(!round.expects(&inv(2)), "the owner was asked to fetch");
        assert!(!round.expects(&inv(0)), "port 0 was not asked");
        assert!(!round.take(&inv(1)));
        assert!(!round.expects(&inv(1)), "a duplicate is stale");
        assert!(!round.take(&fetched));
        assert!(!round.expects(&fetched));
        assert!(round.take(&inv(3)));
        assert!(round.done() && !Round::IDLE.expects(&inv(3)));
    }
}
