//! Campaign plan algebra (DESIGN §14): a fault plan as a first-class,
//! *shrinkable* value.
//!
//! The fault-campaign engine sweeps fault domain × intensity cells and, when
//! a cell fails its contract, delta-debugs the plan down to a minimal
//! reproducer. That needs plans to be values with two operations: `apply`
//! (project onto a [`FaultConfig`]) and `shrink_candidates` (enumerate
//! strictly simpler plans — one domain removed, or one intensity halved).
//! Both are pure, so re-running a candidate under the same seed is
//! deterministic and the greedy shrink loop terminates at a local minimum.

use crate::fault::FaultConfig;
use crate::time::Time;

/// One independently removable/halvable fault axis of a campaign plan. Each
/// maps to exactly one rate knob of [`FaultConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CampaignDomain {
    /// NoC link drops with retransmission ([`FaultConfig::noc`]).
    NocDrop,
    /// Correctable single-bit DRAM ECC flips ([`FaultConfig::dram`]).
    DramSingleBit,
    /// Uncorrectable double-bit DRAM ECC flips (poison the block).
    DramDoubleBit,
    /// Transient TLB-walk failures ([`FaultConfig::tlb`]).
    TlbTransient,
    /// Bank→L1 snoop-probe loss ([`FaultConfig::snoop_probe`]).
    SnoopProbe,
    /// L1→bank write-update acknowledgement loss ([`FaultConfig::upd_ack`]).
    UpdAck,
}

impl CampaignDomain {
    /// Every campaign domain, in canonical (manifest) order.
    pub const ALL: [CampaignDomain; 6] = [
        CampaignDomain::NocDrop,
        CampaignDomain::DramSingleBit,
        CampaignDomain::DramDoubleBit,
        CampaignDomain::TlbTransient,
        CampaignDomain::SnoopProbe,
        CampaignDomain::UpdAck,
    ];

    /// Stable manifest/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            CampaignDomain::NocDrop => "noc-drop",
            CampaignDomain::DramSingleBit => "dram-single",
            CampaignDomain::DramDoubleBit => "dram-double",
            CampaignDomain::TlbTransient => "tlb-transient",
            CampaignDomain::SnoopProbe => "snoop-probe",
            CampaignDomain::UpdAck => "upd-ack",
        }
    }

    /// Parses a manifest/CLI name.
    pub fn parse(s: &str) -> Option<CampaignDomain> {
        CampaignDomain::ALL.into_iter().find(|d| d.name() == s)
    }
}

/// A shrinkable fault plan: `(domain, intensity)` entries plus the
/// solicitation-round recovery knobs the lossy domains rely on. Intensities
/// are the per-event probabilities written into the matching
/// [`FaultConfig`] rate fields.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanSpec {
    /// Enabled fault axes with their intensities. Order is preserved (it is
    /// part of the plan's printed identity) but has no simulation effect:
    /// every domain draws from its own decorrelated stream.
    pub entries: Vec<(CampaignDomain, f64)>,
    /// Solicitation-round timeout installed on the L2 banks; `None` leaves
    /// recovery off (lossy domains then wedge into a watchdog deadlock).
    pub timeout: Option<Time>,
    /// Resend budget per transaction before a typed abort.
    pub retry_budget: u32,
}

impl PlanSpec {
    /// A plan with the given entries and standard recovery knobs.
    pub fn new(entries: Vec<(CampaignDomain, f64)>, timeout: Option<Time>) -> PlanSpec {
        PlanSpec {
            entries,
            timeout,
            retry_budget: 8,
        }
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Projects the plan onto a fault configuration (leaving the seed and
    /// watchdog knobs to the caller).
    pub fn apply(&self, fc: &mut FaultConfig) {
        for &(domain, rate) in &self.entries {
            match domain {
                CampaignDomain::NocDrop => fc.noc.drop_rate = rate,
                CampaignDomain::DramSingleBit => fc.dram.single_bit_rate = rate,
                CampaignDomain::DramDoubleBit => fc.dram.double_bit_rate = rate,
                CampaignDomain::TlbTransient => fc.tlb.transient_rate = rate,
                CampaignDomain::SnoopProbe => fc.snoop_probe.drop_rate = rate,
                CampaignDomain::UpdAck => fc.upd_ack.drop_rate = rate,
            }
        }
        fc.dir.timeout = self.timeout;
        fc.dir.retry_budget = self.retry_budget;
    }

    /// Strictly simpler candidate plans for one delta-debugging step: each
    /// candidate removes one entry, or halves one entry's intensity (halving
    /// below `floor` removes the entry instead, so every candidate is
    /// strictly smaller and the greedy loop terminates).
    pub fn shrink_candidates(&self, floor: f64) -> Vec<PlanSpec> {
        let mut out = Vec::new();
        for i in 0..self.entries.len() {
            let mut removed = self.clone();
            removed.entries.remove(i);
            out.push(removed);
        }
        for i in 0..self.entries.len() {
            let halved_rate = self.entries[i].1 / 2.0;
            if halved_rate >= floor {
                let mut halved = self.clone();
                halved.entries[i].1 = halved_rate;
                out.push(halved);
            }
        }
        out
    }

    /// Deterministic one-line description for manifests and labels, e.g.
    /// `noc-drop=0.02+snoop-probe=0.1/timeout=5us` or `(none)`.
    pub fn describe(&self) -> String {
        if self.entries.is_empty() {
            return "(none)".to_string();
        }
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(d, r)| format!("{}={r}", d.name()))
            .collect();
        match self.timeout {
            Some(t) => format!("{}/timeout={}us", body.join("+"), t.as_ps() / 1_000_000),
            None => body.join("+"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for d in CampaignDomain::ALL {
            assert_eq!(CampaignDomain::parse(d.name()), Some(d));
        }
        assert_eq!(CampaignDomain::parse("bogus"), None);
    }

    #[test]
    fn apply_projects_every_domain() {
        let plan = PlanSpec::new(
            CampaignDomain::ALL.iter().map(|&d| (d, 0.125)).collect(),
            Some(Time::from_us(5)),
        );
        let mut fc = FaultConfig::default();
        plan.apply(&mut fc);
        assert_eq!(fc.noc.drop_rate, 0.125);
        assert_eq!(fc.dram.single_bit_rate, 0.125);
        assert_eq!(fc.dram.double_bit_rate, 0.125);
        assert_eq!(fc.tlb.transient_rate, 0.125);
        assert_eq!(fc.snoop_probe.drop_rate, 0.125);
        assert_eq!(fc.upd_ack.drop_rate, 0.125);
        assert_eq!(fc.dir.timeout, Some(Time::from_us(5)));
    }

    #[test]
    fn shrink_candidates_are_strictly_simpler_and_terminate() {
        let mut plan = PlanSpec::new(
            vec![
                (CampaignDomain::NocDrop, 0.04),
                (CampaignDomain::SnoopProbe, 0.08),
            ],
            Some(Time::from_us(5)),
        );
        // Greedy descent always picking the first candidate must hit the
        // empty plan: every step removes an entry or halves an intensity.
        let mut steps = 0;
        while !plan.is_empty() {
            let cands = plan.shrink_candidates(0.01);
            assert!(!cands.is_empty());
            for c in &cands {
                let smaller = c.entries.len() < plan.entries.len()
                    || c.entries.iter().zip(&plan.entries).any(|(a, b)| a.1 < b.1);
                assert!(smaller, "candidate {c:?} is not simpler than {plan:?}");
            }
            plan = cands.into_iter().next().unwrap();
            steps += 1;
            assert!(steps < 64, "shrink descent failed to terminate");
        }
    }

    #[test]
    fn describe_is_deterministic() {
        let plan = PlanSpec::new(
            vec![(CampaignDomain::SnoopProbe, 0.1)],
            Some(Time::from_us(5)),
        );
        assert_eq!(plan.describe(), "snoop-probe=0.1/timeout=5us");
        assert_eq!(PlanSpec::new(vec![], None).describe(), "(none)");
    }
}
