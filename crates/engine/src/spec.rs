//! Batch counters in the shape of the ledger's `core.spec_*` metrics.
//!
//! Host-side telemetry, a plain struct outside [`Stats`](crate::Stats) so
//! it never enters a `RunReport`. Nothing speculates: the machine
//! writes only `batches_total`, and every other field reads 0. The struct
//! stays only because the ledger still reads it, and is removed with the
//! ledger's `matmul_epochs`/`core.zones`/`mem.spec_*`.

/// Counters read by the ledger's `core.spec_*` metrics. All host-side
/// telemetry: never part of a pause image or a run report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Speculative epochs executed. Always 0.
    pub epochs: u64,
    /// Members claimed into those epochs. Always 0.
    pub members: u64,
    /// Members whose speculative execution committed. Always 0.
    pub committed: u64,
    /// Members rolled back. Always 0.
    pub rolled_back: u64,
    /// Undo-journal overflows. Always 0.
    pub overflows: u64,
    /// Epoch-wide rollbacks. Always 0.
    pub rollback_all: u64,
    /// Live MTTOP batch events dispatched in total.
    pub batches_total: u64,
}

impl SpecStats {
    /// Fraction of live MTTOP batches that committed speculatively, in
    /// [0, 1]; always 0, as nothing speculates.
    pub fn coverage(&self) -> f64 {
        if self.batches_total == 0 {
            0.0
        } else {
            self.committed as f64 / self.batches_total as f64
        }
    }

    /// Fraction of claimed members that committed (vs rolled back),
    /// in [0, 1]; always 1.0, as no epoch forms.
    pub fn commit_rate(&self) -> f64 {
        if self.members == 0 {
            1.0
        } else {
            self.committed as f64 / self.members as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_empty_and_partial() {
        let mut s = SpecStats::default();
        assert_eq!(s.coverage(), 0.0);
        assert_eq!(s.commit_rate(), 1.0);
        s.batches_total = 8;
        s.members = 6;
        s.committed = 3;
        assert_eq!(s.coverage(), 0.375);
        assert_eq!(s.commit_rate(), 0.5);
    }
}
