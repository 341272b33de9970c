//! Deterministic fault injection and forward-progress tracking.
//!
//! A [`FaultPlan`] turns one seed into independent per-domain
//! [`SplitMix64`] streams, so every fault a run experiences is a pure
//! function of `(FaultConfig, simulated activity)` — never wall-clock — and
//! replaying the same configuration reproduces the same faults bit-for-bit.
//! Enabling faults in one domain (say, NoC drops) does not perturb the draw
//! sequence of any other domain.
//!
//! The fault taxonomy mirrors the hardware this simulator models:
//!
//! * **NoC** ([`NocFaultConfig`]) — a message is "dropped" on a link and
//!   retransmitted by link-level retry; the model charges a capped
//!   exponential backoff delay rather than actually losing the flit, so
//!   delivery stays guaranteed and bounded.
//! * **DRAM** ([`DramFaultConfig`]) — bit flips on the read path, filtered
//!   through a SECDED ECC model: single-bit errors are corrected and
//!   counted; double-bit errors are detected but uncorrectable and poison
//!   the block.
//! * **TLB walks** ([`TlbFaultConfig`]) — a completed hardware page-table
//!   walk transiently fails (the PTE read is discarded before it reaches the
//!   TLB) and the instruction retries after a penalty.
//! * **Solicitation-round timeouts** ([`DirTimeoutConfig`]) — an ordering
//!   point transaction waiting on responses (directory invalidation/fetch
//!   acks, snoop probe responses, write-update acks) that exceeds a timeout
//!   NACKs and re-solicits the missing responses, up to a retry budget.
//! * **Snoop-probe / update-ack loss** ([`ProbeLossConfig`]) — a bank→L1
//!   snoop probe or an L1→bank write-update acknowledgement is silently
//!   discarded; the solicitation-round timeout recovers by re-probing.
//!
//! The [`Watchdog`] is the other half of the robustness story: it tracks the
//! machine's last forward progress so the run loop can abort with a
//! structured diagnostic instead of spinning forever when a protocol bug (or
//! an injected, unrecoverable fault) wedges the system.

use crate::rng::SplitMix64;
use crate::time::Time;

/// NoC link-fault knobs: each hop-traversal of a message may be "dropped"
/// and retransmitted with capped exponential backoff.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NocFaultConfig {
    /// Per-message probability that a link drops it and retries (0 = off).
    pub drop_rate: f64,
    /// Maximum retransmissions charged per message.
    pub max_retries: u32,
    /// Backoff charged for the first retransmission; doubles per retry.
    pub backoff: Time,
    /// Cap on the per-retry backoff (exponential growth stops here).
    pub backoff_cap: Time,
}

impl Default for NocFaultConfig {
    fn default() -> Self {
        NocFaultConfig {
            drop_rate: 0.0,
            max_retries: 8,
            backoff: Time::from_ns(50),
            backoff_cap: Time::from_ns(800),
        }
    }
}

/// DRAM read-path bit-flip rates, filtered through SECDED ECC.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DramFaultConfig {
    /// Per-block-read probability of a correctable single-bit flip.
    pub single_bit_rate: f64,
    /// Per-block-read probability of an uncorrectable double-bit flip
    /// (poisons the block).
    pub double_bit_rate: f64,
}

/// Transient TLB-walk failure knobs (CPU cores).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TlbFaultConfig {
    /// Probability that a completed page-table walk fails transiently and
    /// the instruction retries (0 = off).
    pub transient_rate: f64,
    /// Stall charged to the core per transient failure.
    pub retry_penalty: Time,
}

impl Default for TlbFaultConfig {
    fn default() -> Self {
        TlbFaultConfig {
            transient_rate: 0.0,
            retry_penalty: Time::from_ns(200),
        }
    }
}

/// Seeded loss of coherence solicitations on the snooping paths: a bank→L1
/// `Snoop` probe delivery (the `SnoopProbe` domain) or an L1→bank response
/// answering an active write-update round (the `UpdAck` domain) is silently
/// discarded. Both losses are recoverable by the ordering point's
/// solicitation-round timeout (it re-probes exactly the still-pending
/// ports), so plans that enable either domain should also set
/// [`DirTimeoutConfig::timeout`] — without it the lost round wedges and the
/// watchdog reports a typed deadlock instead.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProbeLossConfig {
    /// Per-delivery drop probability (0 = off).
    pub drop_rate: f64,
    /// Cap on total drops per run (0 = unlimited). Lets tests and campaign
    /// plans inject an exact number of losses deterministically.
    pub max_drops: u64,
}

/// Solicitation-round timeout knobs, shared by every coherence protocol's
/// ordering point (directory invalidation/fetch rounds, snoop probe
/// collection, Dragon write-update rounds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirTimeoutConfig {
    /// How long an ordering-point transaction may wait on solicited
    /// responses before NACKing and re-soliciting them. `None` disables the
    /// mechanism. Must comfortably exceed the worst-case NoC round trip:
    /// the timeout detects *lost* messages, not slow ones.
    pub timeout: Option<Time>,
    /// How many times one transaction may re-solicit before the run aborts
    /// with `RetryBudgetExhausted`.
    pub retry_budget: u32,
}

impl Default for DirTimeoutConfig {
    fn default() -> Self {
        DirTimeoutConfig {
            timeout: None,
            retry_budget: 8,
        }
    }
}

/// Forward-progress watchdog knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Whether the machine schedules watchdog ticks at all.
    pub enabled: bool,
    /// Simulated time between watchdog observations.
    pub period: Time,
    /// Consecutive zero-progress periods before the run is declared
    /// deadlocked.
    pub quanta: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            enabled: true,
            period: Time::from_ms(1),
            quanta: 8,
        }
    }
}

/// Complete fault-injection configuration. `Default` is the production
/// setting: every fault source off, watchdog on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Seed from which every fault stream is derived.
    pub seed: u64,
    /// NoC retransmission faults.
    pub noc: NocFaultConfig,
    /// DRAM ECC faults.
    pub dram: DramFaultConfig,
    /// Transient TLB-walk faults.
    pub tlb: TlbFaultConfig,
    /// Directory NACK+retry timeouts.
    pub dir: DirTimeoutConfig,
    /// Forward-progress watchdog.
    pub watchdog: WatchdogConfig,
    /// Test knob: swallow the k-th (1-based) directory→L1 data delivery,
    /// simulating an unrecoverably lost completion. Used by the watchdog
    /// regression tests.
    pub drop_data_delivery: Option<u64>,
    /// Test knob: swallow the k-th (1-based) L1→directory response and
    /// every later response for the same block — a dead responder. With
    /// directory timeouts enabled this exhausts the retry budget.
    pub blackhole_resp: Option<u64>,
    /// Test knob: swallow exactly the k-th (1-based) L1→directory response.
    /// With directory timeouts on, the round resends to every L1 that still
    /// owes an answer, and an L1 answers a resent `Inv` or snoop probe again
    /// from its current state, so a lost `InvResp` or `SnoopResp` recovers.
    /// A lost `FetchResp` recovers only while the owner still holds the
    /// block: an owner that answered a `FetchInv` has given up its copy,
    /// stays silent on the resent fetch, and the round spends its whole
    /// budget and ends `RetryBudgetExhausted`.
    pub drop_one_resp: Option<u64>,
    /// Seeded bank→L1 snoop-probe loss (snooping protocols only; probes
    /// don't exist under the directory protocol, so the domain is inert
    /// there).
    pub snoop_probe: ProbeLossConfig,
    /// Seeded loss of L1→bank responses answering a write-update round
    /// (Dragon only; the bank ignores update-round response payloads, so the
    /// loss is always recoverable by re-probing).
    pub upd_ack: ProbeLossConfig,
}

/// An independently-seeded fault domain. `Tlb(i)` gives each CPU core its
/// own stream so per-core injection is order-independent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDomain {
    /// NoC link retransmissions.
    Noc,
    /// DRAM ECC bit flips.
    Dram,
    /// Transient TLB-walk failures for CPU core `i`.
    Tlb(u32),
    /// Bank→L1 snoop-probe loss (snooping protocols).
    SnoopProbe,
    /// L1→bank write-update acknowledgement loss (Dragon).
    UpdAck,
}

/// A seeded, deterministic fault schedule: hands out decorrelated
/// per-domain RNG streams derived from [`FaultConfig::seed`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Builds the plan for a configuration.
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        FaultPlan { cfg }
    }

    /// The configuration the plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// A fresh RNG stream for one fault domain. Streams for different
    /// domains (and different cores within `Tlb`) are decorrelated by
    /// running the seed through one SplitMix64 output step per salt.
    pub fn stream(&self, domain: FaultDomain) -> SplitMix64 {
        let (salt, index) = match domain {
            FaultDomain::Noc => (0x6E6F_635F_6C69_6E6B, 0),
            FaultDomain::Dram => (0x6472_616D_5F65_6363, 0),
            FaultDomain::Tlb(i) => (0x746C_625F_7761_6C6B, u64::from(i) + 1),
            FaultDomain::SnoopProbe => (0x736E_6F6F_705F_7072, 0),
            FaultDomain::UpdAck => (0x7570_645F_6163_6B73, 0),
        };
        let mut mixer = SplitMix64::new(self.cfg.seed ^ salt);
        let base = mixer.next_u64();
        SplitMix64::new(base.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }
}

/// Tracks the machine's last forward progress. The run loop feeds it a
/// monotone progress counter (instructions retired + completions delivered)
/// at each watchdog period; [`Watchdog::observe`] returns how many
/// consecutive periods have passed with no progress.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Watchdog {
    last_progress: u64,
    last_change: Time,
    stale: u32,
}

impl Watchdog {
    /// A watchdog that has just seen progress at time zero.
    pub fn new() -> Watchdog {
        Watchdog {
            last_progress: 0,
            last_change: Time::ZERO,
            stale: 0,
        }
    }

    /// Records an observation of the progress counter at time `now`.
    /// Returns the number of consecutive observations (including this one)
    /// with no forward progress; 0 when the counter moved.
    pub fn observe(&mut self, now: Time, progress: u64) -> u32 {
        if progress != self.last_progress {
            self.last_progress = progress;
            self.last_change = now;
            self.stale = 0;
        } else {
            self.stale += 1;
        }
        self.stale
    }

    /// The time of the last observation that showed forward progress.
    pub fn last_progress_at(&self) -> Time {
        self.last_change
    }
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog::new()
    }
}

// The full fault plan rides in replay bundles: a captured failure must
// replay under the exact schedule (rates, seeds, test knobs) that produced
// it.
ccsvm_snap::codec!(struct NocFaultConfig { drop_rate, max_retries, backoff, backoff_cap });
ccsvm_snap::codec!(struct DramFaultConfig { single_bit_rate, double_bit_rate });
ccsvm_snap::codec!(struct TlbFaultConfig { transient_rate, retry_penalty });
ccsvm_snap::codec!(struct DirTimeoutConfig { timeout, retry_budget });
ccsvm_snap::codec!(struct WatchdogConfig { enabled, period, quanta });
ccsvm_snap::codec!(struct ProbeLossConfig { drop_rate, max_drops });
ccsvm_snap::codec!(struct FaultConfig {
    seed, noc, dram, tlb, dir, watchdog,
    drop_data_delivery, blackhole_resp, drop_one_resp,
    snoop_probe, upd_ack,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_all_off_watchdog_on() {
        let cfg = FaultConfig::default();
        assert_eq!(cfg.noc.drop_rate, 0.0);
        assert_eq!(cfg.dram.single_bit_rate, 0.0);
        assert_eq!(cfg.dram.double_bit_rate, 0.0);
        assert_eq!(cfg.tlb.transient_rate, 0.0);
        assert_eq!(cfg.dir.timeout, None);
        assert!(cfg.watchdog.enabled);
        assert!(cfg.drop_data_delivery.is_none());
        assert_eq!(cfg.snoop_probe.drop_rate, 0.0);
        assert_eq!(cfg.upd_ack.drop_rate, 0.0);
    }

    #[test]
    fn streams_are_deterministic_and_domain_independent() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 42,
            ..FaultConfig::default()
        });
        let a1: Vec<u64> = {
            let mut s = plan.stream(FaultDomain::Noc);
            (0..8).map(|_| s.next_u64()).collect()
        };
        let a2: Vec<u64> = {
            let mut s = plan.stream(FaultDomain::Noc);
            (0..8).map(|_| s.next_u64()).collect()
        };
        assert_eq!(a1, a2, "same domain, same seed: identical stream");

        let b: Vec<u64> = {
            let mut s = plan.stream(FaultDomain::Dram);
            (0..8).map(|_| s.next_u64()).collect()
        };
        assert_ne!(a1, b, "different domains decorrelate");

        let t0: u64 = plan.stream(FaultDomain::Tlb(0)).next_u64();
        let t1: u64 = plan.stream(FaultDomain::Tlb(1)).next_u64();
        assert_ne!(t0, t1, "per-core TLB streams decorrelate");

        let sp: u64 = plan.stream(FaultDomain::SnoopProbe).next_u64();
        let ua: u64 = plan.stream(FaultDomain::UpdAck).next_u64();
        assert_ne!(sp, ua, "snoop-probe and upd-ack streams decorrelate");
        assert_ne!(sp, a1[0], "snoop-probe decorrelates from NoC");

        let other = FaultPlan::new(FaultConfig {
            seed: 43,
            ..FaultConfig::default()
        });
        let c: Vec<u64> = {
            let mut s = other.stream(FaultDomain::Noc);
            (0..8).map(|_| s.next_u64()).collect()
        };
        assert_ne!(a1, c, "different seeds diverge");
    }

    #[test]
    fn fault_config_codec_round_trips_probe_loss() {
        use ccsvm_snap::{Codec, SnapReader, SnapWriter};
        let mut cfg = FaultConfig {
            seed: 99,
            ..FaultConfig::default()
        };
        cfg.dir.timeout = Some(Time::from_us(5));
        cfg.snoop_probe = ProbeLossConfig {
            drop_rate: 0.25,
            max_drops: 3,
        };
        cfg.upd_ack = ProbeLossConfig {
            drop_rate: 0.5,
            max_drops: 0,
        };
        let mut w = SnapWriter::new();
        cfg.put(&mut w);
        let bytes = w.into_vec();
        let restored = FaultConfig::get(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(restored, cfg);
    }

    #[test]
    fn watchdog_counts_stale_periods_and_resets() {
        let mut wd = Watchdog::new();
        assert_eq!(wd.observe(Time::from_ns(10), 5), 0);
        assert_eq!(wd.observe(Time::from_ns(20), 5), 1);
        assert_eq!(wd.observe(Time::from_ns(30), 5), 2);
        assert_eq!(wd.last_progress_at(), Time::from_ns(10));
        assert_eq!(wd.observe(Time::from_ns(40), 6), 0, "progress resets");
        assert_eq!(wd.last_progress_at(), Time::from_ns(40));
        assert_eq!(wd.observe(Time::from_ns(50), 6), 1);
    }
}
