//! Coherent memory hierarchy for the CCSVM chip (paper §3.2.2, Table 2).
//!
//! This crate implements the paper's "standard, unoptimized MOESI directory
//! protocol in which the directory state is embedded in the L2 blocks":
//!
//! * [`CacheArray`] — a generic set-associative array with true LRU and real
//!   64-byte data blocks (data lives *in* the caches; DRAM is backing store).
//! * L1 controllers — write-back, write-allocate, MOESI states, MSHRs with
//!   same-block merging, eviction buffers for writeback races, and atomic
//!   read-modify-writes performed **at the L1 after acquiring exclusive
//!   coherence access** (the paper's §3.2.4 microarchitecture choice).
//! * Directory banks — the banked, inclusive, shared L2 with the directory
//!   embedded in its blocks. One transaction per block is active at a time
//!   (a *blocking* directory); conflicting requests queue in arrival order,
//!   which yields a total order of writes per location (SWMR) and, together
//!   with in-order blocking cores, sequential consistency (§3.2.3).
//! * [`Dram`] — fixed-latency (100 ns) off-chip memory with a per-channel
//!   bandwidth model and the access counters behind the paper's Figure 9.
//! * [`MemorySystem`] — the composition: it routes coherence messages over a
//!   [`ccsvm_noc::Network`] supplied by the caller and exposes a small
//!   port-based API ([`MemorySystem::access`] / [`MemorySystem::handle`])
//!   that core models drive.
//!
//! The crate is machine-agnostic: both the CCSVM chip and the CPU side of the
//! APU baseline instantiate it with different configurations.

mod addr;
mod bank;
mod cache;
mod check;
mod dram;
mod l1;
mod msg;
mod port;
mod protocol;
mod recover;
mod system;

pub use addr::{block_of, offset_in_block, PhysAddr, BLOCK_BYTES};
pub use cache::{CacheArray, CacheConfig};
pub use dram::{Dram, DramConfig};
pub use l1::{L1Config, WritePolicy};
pub use msg::{AtomicOp, BankId, MemEvent, MemKind};
pub use port::{CorePort, PortLog};
pub use protocol::ProtocolKind;
pub use system::{Access, AccessResult, BankConfig, Completion, MemConfig, MemorySystem, PortId};
