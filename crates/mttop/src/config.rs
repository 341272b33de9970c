//! Static configuration of an MTTOP core, and the types that go into and
//! come out of a batch.

use ccsvm_engine::{Clock, Time};
use ccsvm_mem::PhysAddr;
use ccsvm_vm::VirtAddr;

/// Static configuration of one MTTOP core.
#[derive(Clone, Copy, Debug)]
pub struct MttopConfig {
    /// Core clock (Table 2: 600 MHz).
    pub clock: Clock,
    /// Warp contexts per core: 128 on the paper's core (`paper_ccsvm`, one
    /// lane each ⇒ 128 threads), 16 on the APU GPU (`apu_gpu`, 8 lanes
    /// each ⇒ 128 threads).
    pub warps: usize,
    /// Lanes per warp: 1 on the paper's fine-grained core, 8 on the
    /// lockstep APU GPU (at most 8).
    pub lanes: usize,
    /// Batch quantum in core cycles.
    pub quantum_cycles: u64,
    /// Warp-scheduler wakeup grid in core cycles: a memory completion (or
    /// fault resolution) arriving mid-grid wakes the core at the *next*
    /// grid edge, not at the completion's exact picosecond — a clocked
    /// scheduler samples runnable warps at tick edges rather than
    /// asynchronously. Coarser grids coalesce nearby completions into one
    /// batch (fewer, fatter scheduling events); `0` disables alignment.
    pub wake_grid_cycles: u64,
    /// TLB capacity.
    pub tlb_entries: usize,
    /// VLIW packing factor for ALU work (1 = the CCSVM MTTOP; 4 = the APU
    /// GPU at full VLIW utilization).
    pub vliw_ops_per_lane: u64,
    /// First hardware-context id of this core (for stack placement).
    pub ctx_base: u64,
    /// L1 access banks: this many uncoalesced same-instruction groups issue
    /// per cycle (GPU L1s are multi-banked; fully-diverged accesses serialize
    /// over `lanes / l1_banks` cycles, not `lanes`).
    pub l1_banks: u64,
    /// Lockstep SIMT (`true`: one warp-instruction per cycle across `lanes`
    /// lanes — a VLIW-GPU-style core) versus fine-grained multithreading
    /// (`false`: `issue_width` independent single-lane threads issue per
    /// cycle — Table 2's "supports 128 threads and can simultaneously
    /// execute 8 threads", which is what lets the paper's recursive
    /// pointer-chasing kernels run without lockstep divergence collapse).
    pub lockstep: bool,
    /// Threads issued per cycle in fine-grained mode.
    pub issue_width: usize,
}

impl MttopConfig {
    /// The paper's CCSVM MTTOP core: 128 thread contexts, 8 issued per
    /// cycle, fine-grained (divergence-tolerant) scheduling.
    pub fn paper_ccsvm(ctx_base: u64) -> MttopConfig {
        MttopConfig {
            clock: Clock::from_mhz(600.0),
            warps: 128,
            lanes: 1,
            quantum_cycles: 100,
            wake_grid_cycles: 16,
            tlb_entries: 64,
            vliw_ops_per_lane: 1,
            ctx_base,
            l1_banks: 4,
            lockstep: false,
            issue_width: 8,
        }
    }

    /// A Radeon-like VLIW SIMD unit for the APU baseline: 16 lockstep warps
    /// of 8 lanes packing up to 4 ops per lane.
    pub fn apu_gpu(ctx_base: u64) -> MttopConfig {
        MttopConfig {
            clock: Clock::from_mhz(600.0),
            warps: 16,
            lanes: 8,
            quantum_cycles: 100,
            wake_grid_cycles: 16,
            tlb_entries: 64,
            vliw_ops_per_lane: 4,
            ctx_base,
            l1_banks: 4,
            lockstep: true,
            issue_width: 1,
        }
    }
}

/// A warp-sized slice of a launched task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskChunk {
    /// Entry PC of the kernel function.
    pub entry: usize,
    /// Argument pointer (→ each thread's `r2`).
    pub args: u64,
    /// First thread id in this chunk (→ lane 0's `r1`).
    pub first_tid: u64,
    /// Last thread id (inclusive); `last - first + 1 <= lanes`.
    pub last_tid: u64,
    /// Page-table root for the owning process (§4.3: part of the task
    /// descriptor).
    pub cr3: PhysAddr,
    /// Return address (the program's `__kexit` stub).
    pub ra: usize,
}

/// Outcome of a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MttopAction {
    /// Schedule the next batch at the given time.
    Continue {
        /// Earliest useful resume time.
        at: Time,
    },
    /// All runnable warps are blocked on memory/walks/faults.
    Blocked,
    /// No live warps.
    Idle,
}

/// A page fault the machine must forward to a CPU via the MIFD.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageFaultReq {
    /// Faulting warp index.
    pub warp: usize,
    /// Faulting address.
    pub va: VirtAddr,
    /// CR3 the fault handler needs (§3.2.1: shipped with the interrupt).
    pub cr3: PhysAddr,
}

/// Result of [`MttopCore::run_batch`].
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Scheduling directive.
    pub action: MttopAction,
    /// New page faults discovered this batch.
    pub faults: Vec<PageFaultReq>,
    /// An access this batch (or an earlier one) touched an ECC-poisoned
    /// block; the machine must abort the run gracefully.
    pub poisoned: bool,
}
