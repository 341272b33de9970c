//! `ccsvm` — the paper's contribution: a heterogeneous multicore chip whose
//! CPU and MTTOP cores are **full peers in cache-coherent shared virtual
//! memory** (Hechtman & Sorin, ISPASS 2013, §3).
//!
//! A [`Machine`] assembles, per Table 2 / Figure 1:
//!
//! * 4 in-order CPU cores (2.9 GHz, max IPC 0.5, 64 KB L1, 64-entry TLB),
//! * 10 SIMT MTTOP cores (600 MHz, 16 warps × 8 lanes, 16 KB L1, TLB +
//!   hardware walker),
//! * the MIFD (task launch via a `write` syscall, round-robin warp
//!   assignment, page-fault forwarding, error register),
//! * a banked, inclusive, shared 4 MB L2 with the MOESI directory embedded
//!   in its blocks,
//! * a 2D torus NoC (12 GB/s links) connecting everything,
//! * 100 ns DRAM behind the L2 banks, and
//! * `OsLite`: frame allocation, demand paging, page-fault handling
//!   (including MTTOP faults forwarded through the MIFD), TLB shootdown
//!   (selective CPU IPIs, conservative MTTOP flush-all), guest `malloc`,
//!   and CPU thread spawn.
//!
//! Programs are XC sources compiled by `ccsvm-xcc` against the xthreads
//! runtime (`ccsvm_xthreads::build`); [`Machine::run`] boots `main` on CPU 0
//! and simulates until the process exits, producing a [`RunReport`] with the
//! runtime, printed output, and every component's counters (including the
//! DRAM-access counts behind the paper's Figure 9).
//!
//! # Examples
//!
//! ```
//! use ccsvm::{Machine, SystemConfig};
//!
//! let program = ccsvm_xthreads::build(
//!     "_CPU_ fn main() -> int { print_int(6 * 7); return 0; }",
//! ).unwrap();
//! let mut m = Machine::new(SystemConfig::paper_default(), program);
//! let report = m.run();
//! assert_eq!(report.printed, ["42"]);
//! assert!(report.time.as_ns() > 0.0);
//! ```

#![forbid(unsafe_code)]

mod config;
mod machine;
mod trace;
mod triage;

pub use config::{OsCosts, SpeculationConfig, SystemConfig};
pub use machine::{config_hash, DiagnosticDump, HostPhases, Machine, Outcome, RunReport};
pub use trace::{Trace, TraceEv, TraceRecord};
pub use triage::{
    replay_bundle, run_with_triage, ReplayBundle, TriageError, TriageResult, BUNDLE_MAGIC,
    BUNDLE_VERSION,
};
// Fault-injection configuration, re-exported so harnesses can fill in
// `SystemConfig::fault` without depending on the engine crate directly.
pub use ccsvm_engine::{
    DirTimeoutConfig, DramFaultConfig, FaultConfig, NocFaultConfig, Time, TlbFaultConfig,
    WatchdogConfig,
};
// Coherence-sanitizer configuration and violation types (DESIGN §9),
// re-exported for harnesses and the triage/replay tooling.
pub use ccsvm_engine::{
    InvariantId, InvariantMask, Mutation, MutationKind, SanitizerConfig, Violation,
};
// The decode error type, re-exported so harnesses can handle checkpoint,
// bundle and report decode failures without depending on the snap crate.
pub use ccsvm_snap::SnapError;
// Coherence-protocol identity (DESIGN §13), re-exported so
// harnesses can set `SystemConfig::protocol` and query per-protocol
// invariant masks without depending on the mem crate directly.
pub use ccsvm_mem::{MemKind, ProtocolKind};
// Decoded-image counters (DESIGN §11), re-exported so perf
// harnesses can report [`Machine::sb_stats`] without an isa dependency.
pub use ccsvm_isa::SbStats;
// Batch counters in the ledger's `core.spec_*` shape, re-exported so perf
// harnesses can report [`Machine::spec_stats`]; removed with those metrics.
pub use ccsvm_engine::SpecStats;
