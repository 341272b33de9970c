//! Protocol-generic solicitation-round recovery state (DESIGN §14).
//!
//! Every coherence protocol's ordering point runs *solicitation rounds*: the
//! bank sends a set of requests (directory invalidations/fetches/recalls,
//! snoop probes, write-update pushes) and waits for every answer before the
//! transaction can advance. When the fabric may drop messages, each round is
//! guarded by a timeout + bounded-resend loop. [`RetryRound`] is that loop's
//! per-transaction state, extracted from the directory path so the snooping
//! MESI and Dragon ordering points share byte-identical machinery:
//!
//! * an **epoch** counter, bumped on every resend, carried by the armed
//!   timeout event so a raced timeout from a superseded round is recognised
//!   as stale and ignored;
//! * a **resend count** checked against the configured budget — exhaustion
//!   turns into a typed [`Outcome::RetryBudgetExhausted`] abort rather than a
//!   silent wedge.
//!
//! [`Outcome::RetryBudgetExhausted`]: https://docs.rs/ccsvm-core

/// Timeout/resend bookkeeping for one in-flight transaction's current
/// solicitation round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RetryRound {
    /// Current solicitation round. Bumped on every resend so a stale timeout
    /// event (armed for a superseded round) can be recognised and dropped.
    epoch: u64,
    /// Resends already spent on this transaction, across all its rounds.
    nacks: u32,
}

impl RetryRound {
    /// Fresh state for a newly arrived transaction: round 0, no resends.
    pub(crate) fn new() -> RetryRound {
        RetryRound { epoch: 0, nacks: 0 }
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
        let mut r = RetryRound::new();
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
}
