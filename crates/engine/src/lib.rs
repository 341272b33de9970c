//! Deterministic discrete-event simulation core for the `ccsvm` simulator.
//!
//! This crate provides the substrate every other simulator crate builds on:
//!
//! * [`Time`] — simulated time in picoseconds, with saturating arithmetic.
//! * [`Clock`] — a frequency domain that converts cycle counts to [`Time`].
//! * [`EventQueue`] — a deterministic priority queue of timestamped events.
//!   Ties are broken by an insertion sequence number so that a given set of
//!   `push` calls always drains in the same order, independent of heap
//!   internals. Determinism is a hard requirement: every experiment in the
//!   paper reproduction must be bit-for-bit repeatable.
//! * [`Stats`] — an ordered name → value table used for run reports.
//! * [`SplitMix64`] — a tiny seeded RNG for components that need pseudo-random
//!   behaviour (e.g. workload generators) without pulling `rand` into the
//!   simulator core.
//! * [`FaultPlan`] / [`Watchdog`] — seeded, replay-deterministic fault
//!   injection (NoC retransmissions, DRAM ECC flips, transient TLB-walk
//!   failures, directory timeouts) and forward-progress tracking.
//!
//! # Examples
//!
//! ```
//! use ccsvm_engine::{Clock, EventQueue, Time};
//!
//! let cpu = Clock::from_ghz(2.9);
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(cpu.cycles(10), "ten cpu cycles");
//! q.push(Time::ZERO, "now");
//! assert_eq!(q.pop().unwrap().1, "now");
//! assert_eq!(q.pop().unwrap().1, "ten cpu cycles");
//! assert!(q.pop().is_none());
//! ```

pub mod campaign;
mod event;
mod fault;
pub mod fxmap;
mod rng;
pub mod sanitizer;
mod spec;
mod stats;
mod time;

pub use campaign::{CampaignDomain, PlanSpec};
pub use event::{EventQueue, ScanControl};
pub use fault::{
    DirTimeoutConfig, DramFaultConfig, FaultConfig, FaultDomain, FaultPlan, NocFaultConfig,
    ProbeLossConfig, TlbFaultConfig, Watchdog, WatchdogConfig,
};
pub use fxmap::{fx_map_with_capacity, FxHashMap, FxHashSet};
pub use rng::SplitMix64;
pub use sanitizer::{
    InvariantId, InvariantMask, Mutation, MutationKind, SanitizerConfig, Violation,
};
pub use spec::SpecStats;
pub use stats::Stats;
pub use time::{Clock, Time};
