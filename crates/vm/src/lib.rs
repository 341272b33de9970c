//! Shared virtual memory for the CCSVM chip (paper §3.2.1).
//!
//! The paper's SVM design follows x86: hardware page-table walkers at every
//! core (CPU *and* MTTOP), a per-core CR3, per-core TLBs (64-entry, fully
//! associative, Table 2), OS-managed page tables, page faults serviced by CPU
//! cores (MTTOP faults are forwarded through the MIFD), and conservative TLB
//! shootdown that *flushes* all MTTOP TLBs.
//!
//! This crate provides the mechanisms:
//!
//! * [`VirtAddr`] and the 4-level, 4 KiB-page [`Walk`] state machine. The walk
//!   is driven by the *core models*: they read each PTE through their own L1
//!   (PTEs are cacheable and coherent, as on real x86), feed the value back,
//!   and either finish with a translation or raise a [`Fault`].
//! * [`Tlb`] — fully-associative, true-LRU translation cache with flush and
//!   single-entry invalidate (shootdown uses both).
//! * [`OsLite`] — the kernel-lite: physical frame allocator, authoritative
//!   page-table mirror, and PTE-write generation. Every mapping change is
//!   returned as a list of [`PteWrite`]s so the machine can either apply them
//!   through a CPU core's coherent stores (during simulation, e.g. in a fault
//!   handler) or through the memory backdoor (pre-run loading).
//! * [`GuestHeap`] — the `malloc`/`free` used by the xthreads runtime
//!   (`mttop_malloc` offloads to a CPU running this allocator, §5.3.2).

#![forbid(unsafe_code)]

mod heap;
mod os;
mod tlb;
mod walk;

pub use heap::GuestHeap;
pub use os::{OsLite, PteWrite};
pub use tlb::Tlb;
pub use walk::{frame_plus_offset, Fault, VirtAddr, Walk, WalkResult, PAGE_BYTES, PTE_PRESENT};
