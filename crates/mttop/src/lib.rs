//! MTTOP core timing model and the MTTOP InterFace Device (MIFD).
//!
//! Table 2's MTTOP cores: 600 MHz, 128 thread contexts per core, "can
//! simultaneously execute 8 threads" (⇒ up to 80 ops/cycle across the
//! 10-core MTTOP). Each core has a private coherent L1 (full MOESI peer,
//! §3.2.2), a 64-entry TLB with a hardware walker whose PTE reads are
//! ordinary cacheable loads, and performs atomics at the L1 after acquiring
//! M (§3.2.4).
//!
//! Two issue organisations are implemented ([`MttopConfig::lockstep`]):
//!
//! * **Fine-grained multithreading** (the CCSVM MTTOP default,
//!   [`MttopConfig::paper_ccsvm`]): 128 single-lane contexts; each cycle up
//!   to `issue_width` (8) *independent* threads issue. Control-flow
//!   divergence costs nothing, which is what lets the paper's recursive
//!   pointer-chasing kernels (§5.3) run well, and latency hiding comes from
//!   the many outstanding per-thread misses.
//! * **Lockstep SIMT** (the APU baseline's Radeon,
//!   [`MttopConfig::apu_gpu`]): 16 warps × 8 lanes, one warp-instruction per
//!   cycle with min-PC divergence handling, per-warp **coalescing**
//!   (same-instruction accesses to one 64 B block merge into one L1 access;
//!   atomics never coalesce), and `vliw_ops_per_lane` packing (4 ⇒ Table 2's
//!   "max 320 operations per cycle").
//!
//! # The min-PC reconvergence rule (exact)
//!
//! Earlier revisions of this doc said only that "lanes at the warp's minimum
//! PC execute so lagging lanes catch up", which drifted from what `issue`
//! actually implements (and under-specified what any fast-path dispatcher
//! must preserve). The precise rule, asserted by the
//! `lagging_lane_reconverges_at_min_pc` litmus test:
//!
//! 1. **Participating set**: before *every* issued warp-instruction, the set
//!    is recomputed as the **live** lanes whose PC equals the minimum PC over
//!    all live lanes. Dead lanes (`exit`ed) never participate and never hold
//!    the minimum.
//! 2. The participating lanes all execute the *same* instruction (the one at
//!    the min PC) in the same issue slot; non-participating live lanes are
//!    untouched.
//! 3. `divergent_issues` increments once per issue whose participating set is
//!    a strict subset of the live lanes.
//! 4. **Reconvergence** is emergent, not stack-based: a lane group behind the
//!    others keeps holding the minimum until its PC reaches another lane's
//!    PC, at which point the recomputation in (1) merges them into one set.
//!    Hence the batched superblock dispatcher may reuse a cached
//!    participating set **only up to the smallest lagging live lane's PC** —
//!    one micro-op short of it, the cursor dies and the next issue
//!    recomputes, exactly as the per-instruction loop would.
//! 5. A warp whose live-lane set is empty frees its context; a warp whose
//!    participating lanes sit on a memory instruction issues it for those
//!    lanes only (coalescing applies within the participating set).
//!
//! Timing quirk, kept deliberately: `CallReg` charges
//! `clock.period()` in **both** modes (fine-grained included), unlike `Call`
//! which charges the mode-dependent `full_charge` (zero in fine-grained
//! mode). Golden `RunReport`s bake this in, so no fast path may "fix" it:
//! the warp loop and the single-lane step both take the charge from
//! `control_charge`.
//!
//! Page faults cannot trap to an OS here (MTTOPs don't run the OS): the core
//! reports them and the machine forwards them through the [`Mifd`] to a CPU
//! core (§3.2.1).

#![forbid(unsafe_code)]

use ccsvm_engine::{Clock, FxHashMap, Stats, Time};
use ccsvm_isa::{abi, AmoKind, DecodedImage, Instr, MicroOp, Operand, Program, Reg};
use ccsvm_mem::{Access, AccessResult, AtomicOp, CorePort, PhysAddr, PortId};
use ccsvm_vm::{frame_plus_offset, Tlb, VirtAddr, Walk, WalkResult};

/// Static configuration of one MTTOP core.
#[derive(Clone, Copy, Debug)]
pub struct MttopConfig {
    /// Core clock (Table 2: 600 MHz).
    pub clock: Clock,
    /// Warp contexts per core (16 ⇒ 128 threads).
    pub warps: usize,
    /// Lanes per warp (8 simultaneous threads).
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

#[derive(Clone, Debug)]
struct Lane {
    regs: [u64; 32],
    pc: usize,
    live: bool,
    /// This lane's share of its warp's memory instruction in progress.
    /// Meaningful only while a [`Plan::lanes`] or [`Flight::lanes`] set names
    /// the lane: plans, coalesced groups and flights are lane *sets* over
    /// these slots, so none of them owns (or allocates) op storage.
    op: LaneOp,
}

/// The lanes selected by `set`, in ascending order.
fn lanes_of(mut set: u8) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let li = set.trailing_zeros() as usize;
            set &= set - 1;
            li
        })
    })
}

/// Executes `op` on the lanes selected by `mask`, advancing each lane's PC
/// by `pc_step`. Three shapes, chosen by how many lanes participate: the
/// full-warp case hands every register file to [`MicroOp::exec_all`] (one
/// enum dispatch per warp-op, no per-lane mask test), the single-lane case
/// (deep divergence) skips iteration entirely, and the partial case walks
/// the mask bits.
#[inline(always)]
fn exec_masked(op: MicroOp, lanes: &mut [Lane], mask: u8, full: u8, pc_step: usize) {
    if mask == full {
        op.exec_all(lanes.iter_mut().map(|l| &mut l.regs));
        for lane in lanes {
            lane.pc += pc_step;
        }
    } else if mask.is_power_of_two() {
        let lane = &mut lanes[mask.trailing_zeros() as usize];
        op.exec(&mut lane.regs);
        lane.pc += pc_step;
    } else {
        let mut m = mask;
        while m != 0 {
            let li = m.trailing_zeros() as usize;
            m &= m - 1;
            let lane = &mut lanes[li];
            op.exec(&mut lane.regs);
            lane.pc += pc_step;
        }
    }
}

/// Sprint body: executes a whole run of micro-ops on the lanes selected by
/// `mask` and advances their PCs by `ops.len()`. Full warps go op-outer so
/// the enum dispatch happens once per op for all lanes; divergent warps go
/// lane-outer so one lane's register file stays hot across the run.
#[inline(always)]
fn sprint_masked(ops: &[MicroOp], lanes: &mut [Lane], mask: u8, full: u8) {
    if mask == full {
        for op in ops {
            op.exec_all(lanes.iter_mut().map(|l| &mut l.regs));
        }
        for lane in lanes {
            lane.pc += ops.len();
        }
    } else {
        let mut m = mask;
        while m != 0 {
            let li = m.trailing_zeros() as usize;
            m &= m - 1;
            let lane = &mut lanes[li];
            for op in ops {
                op.exec(&mut lane.regs);
            }
            lane.pc += ops.len();
        }
    }
}

/// The timed access a coalesced group issues: the lead lane's operation.
/// Shared by the real issue path and the doomed-retry short circuit so the
/// two can never disagree about what a group's access looks like.
fn group_access(lanes: &[Lane], group: u8) -> Access {
    let lead = lanes[group.trailing_zeros() as usize].op;
    match lead.kind {
        LaneKind::Ld { size, .. } => Access::Read {
            paddr: lead.paddr.expect("t"),
            size: size as usize,
        },
        LaneKind::St { size, value } => Access::Write {
            paddr: lead.paddr.expect("t"),
            size: size as usize,
            value,
        },
        LaneKind::Amo { op, .. } => Access::Rmw {
            paddr: lead.paddr.expect("t"),
            size: 8,
            op,
        },
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WarpState {
    Free,
    Ready,
    /// Waiting for outstanding memory flights.
    Mem,
    /// A PTE read for this warp's walk is in flight.
    Walk,
    /// Waiting for the core's single walker to free up.
    WalkQueued,
    /// Waiting for the machine to resolve a fault.
    Fault,
}

/// Per-warp execution context. The scheduler-scanned fields (`state`,
/// `ready_at`) live in compact parallel arrays on [`MttopCore`] instead:
/// the ready scan runs every core cycle over every warp, and walking one
/// large struct per warp made that scan touch a cache line per warp.
#[derive(Clone, Debug)]
struct Warp {
    lanes: Vec<Lane>,
    outstanding: usize,
    /// Memory plan being translated/issued.
    plan: Option<Plan>,
}

impl Warp {
    fn live(&self) -> bool {
        self.lanes.iter().any(|l| l.live)
    }
}

/// What kind of access each lane performs.
#[derive(Clone, Copy, Debug)]
enum LaneKind {
    Ld { rd: Reg, size: u8 },
    St { size: u8, value: u64 },
    Amo { rd: Reg, op: AtomicOp },
}

#[derive(Clone, Copy, Debug)]
struct LaneOp {
    va: VirtAddr,
    paddr: Option<PhysAddr>,
    kind: LaneKind,
}

impl LaneOp {
    /// Content of a [`Lane::op`] slot no lane set names.
    const IDLE: LaneOp = LaneOp {
        va: VirtAddr(0),
        paddr: None,
        kind: LaneKind::Ld {
            rd: Reg(0),
            size: 0,
        },
    };
}

/// A warp memory instruction in progress.
#[derive(Clone, Copy, Debug)]
struct Plan {
    /// Participating lanes; their ops are translated in lane order.
    lanes: u8,
    /// How many of `lanes` are translated so far.
    next_translate: usize,
    /// The instruction's PC (for the advance at the end).
    pc: usize,
    /// Coalesced groups awaiting issue (built after translation).
    groups: Option<Groups>,
    /// Groups issued so far (each extra group costs an L1-port cycle).
    issued: usize,
    /// Latest inline-hit completion time.
    finish: Time,
}

/// FIFO of coalesced groups, each a lane set whose lowest lane leads (its
/// op is the timed access). At most one group per lane, and `lanes <= 8`.
#[derive(Clone, Copy, Debug, Default)]
struct Groups {
    sets: [u8; 8],
    head: u8,
    len: u8,
}

impl Groups {
    fn waiting(&self) -> &[u8] {
        &self.sets[self.head as usize..self.len as usize]
    }

    fn push(&mut self, group: u8) {
        self.sets[self.len as usize] = group;
        self.len += 1;
    }
}

/// One in-flight (timed) access and the lanes of `warp` it serves. An empty
/// set marks a walker PTE read.
#[derive(Clone, Copy, Debug)]
struct Flight {
    warp: usize,
    lanes: u8,
    issued_at: Time,
}

/// Per-warp cursor into a straight-line run of the decoded image
/// (`ccsvm_isa::decode`). While valid (`rem > 0`), [`MttopCore::issue`]
/// retires one micro-op per issue slot for the cached participating-lane set
/// without recomputing the min-PC set or re-matching the `Instr` enum.
/// Strictly host-side: never serialized, cleared on snapshot load and task
/// assignment, and revalidated (expected PC) before every use, so a stale
/// cursor is harmless.
#[derive(Clone, Copy, Debug)]
struct SbCursor {
    /// Micro-ops this warp may still execute from the run; `0` = invalid.
    /// Capped at entry so the run ends exactly where a lagging live lane's
    /// PC forces the min-PC participating set to be recomputed
    /// (reconvergence — see the module docs).
    rem: u32,
    /// Expected participating-lane PC at the next issue (validation); it
    /// also indexes the image.
    pc: u32,
    /// Participating lane set (bit per lane; `lanes <= 8`).
    mask: u8,
    /// Participating lane count.
    np: u8,
    /// Live lane count at block entry (for the `divergent_issues` counter;
    /// liveness cannot change while the warp is mid-block — only `exit`
    /// kills lanes, and `exit` is a superblock boundary).
    live: u8,
}

impl SbCursor {
    const INVALID: SbCursor = SbCursor {
        rem: 0,
        pc: 0,
        mask: 0,
        np: 0,
        live: 0,
    };
}

/// One SIMT MTTOP core.
#[derive(Debug)]
pub struct MttopCore {
    /// This core's L1 port.
    pub port: PortId,
    config: MttopConfig,
    alu_cost: Time,
    /// `l1_banks - 1` when the bank count is a power of two, else `u64::MAX`
    /// as a "divide instead" sentinel — the bank-cycle charge in
    /// `issue_accesses` sits on every issued group.
    l1_bank_mask: u64,
    /// Participating-set mask meaning "all lanes" (`config.lanes` ones).
    full_lane_mask: u8,
    warps: Vec<Warp>,
    /// `states[wi]` = scheduling state of warp `wi`. Kept out of [`Warp`]
    /// so the per-cycle ready scan stays within a couple of cache lines.
    states: Vec<WarpState>,
    /// Bit `wi` set iff `states[wi] == Ready`. The scheduler scans this
    /// with `trailing_zeros` so a cycle costs O(ready warps), not
    /// O(total warps); all transitions go through [`Self::set_state`].
    ready_mask: Vec<u64>,
    /// `ready_at[wi]` = earliest issue time for a `Ready` warp.
    ready_at: Vec<Time>,
    rr: usize,
    local_time: Time,
    tlb: Tlb,
    /// The single page-table walker: `Some((warp, walk))` when busy.
    walker: Option<(usize, Walk)>,
    walker_queue: Vec<usize>,
    flights: FxHashMap<u64, Flight>,
    arrived: Vec<(u64, u64)>,
    /// Scratch for the per-cycle ready-warp scan, reused across cycles so
    /// the scheduler loop stays allocation-free.
    chosen: Vec<usize>,
    token_prefix: u64,
    token_seq: u64,
    cr3: PhysAddr,
    // counters
    warp_instrs: u64,
    thread_instrs: u64,
    mem_instrs: u64,
    coalesced_accesses: u64,
    divergent_issues: u64,
    walks: u64,
    faults: u64,
    tasks: u64,
    miss_lat_sum: Time,
    miss_count: u64,
    /// Set (sticky) when any access observed ECC poison; surfaced through
    /// [`BatchOutcome::poisoned`] so the machine can abort gracefully.
    poisoned: bool,
    /// Whether `issue` takes straight-line runs from the decoded image (the
    /// `SystemConfig::sb_cache` knob). Host-side, never serialized; cannot
    /// change simulated behaviour.
    sb_on: bool,
    /// Runs entered through the image (host-side, never serialized).
    sb_hits: u64,
    /// `sb_cur[wi]` = warp `wi`'s fast-path cursor (invalid when `rem == 0`).
    sb_cur: Vec<SbCursor>,
    /// Monotone batch counter for the doomed-retry short circuit; never
    /// serialized (epochs restart after a snapshot load).
    batch_epoch: u64,
    /// `retry_epoch[wi]` = the batch in which warp `wi`'s head group last
    /// drew [`AccessResult::Retry`], or `u64::MAX`. While it equals
    /// `batch_epoch`, re-attempts are provably doomed (MSHRs and way
    /// reservations drain only between batches) and are short-circuited.
    retry_epoch: Vec<u64>,
}

impl MttopCore {
    /// Creates an idle core. `token_prefix` must be unique per core.
    pub fn new(port: PortId, config: MttopConfig, token_prefix: u64) -> MttopCore {
        assert!(config.lanes >= 1 && config.lanes <= 8, "1..=8 lanes");
        let alu_cost =
            Time::from_ps((config.clock.period().as_ps() / config.vliw_ops_per_lane).max(1));
        let l1_bank_mask = if config.l1_banks.is_power_of_two() {
            config.l1_banks - 1
        } else {
            u64::MAX
        };
        MttopCore {
            port,
            config,
            alu_cost,
            l1_bank_mask,
            full_lane_mask: if config.lanes == 8 {
                0xff
            } else {
                (1u8 << config.lanes) - 1
            },
            warps: vec![
                Warp {
                    lanes: vec![
                        Lane {
                            regs: [0; 32],
                            pc: 0,
                            live: false,
                            op: LaneOp::IDLE,
                        };
                        config.lanes
                    ],
                    outstanding: 0,
                    plan: None,
                };
                config.warps
            ],
            states: vec![WarpState::Free; config.warps],
            ready_mask: vec![0; config.warps.div_ceil(64)],
            ready_at: vec![Time::ZERO; config.warps],
            rr: 0,
            local_time: Time::ZERO,
            tlb: Tlb::new(config.tlb_entries),
            walker: None,
            walker_queue: Vec::new(),
            flights: FxHashMap::default(),
            arrived: Vec::new(),
            chosen: Vec::with_capacity(config.issue_width.max(1)),
            token_prefix,
            token_seq: 0,
            cr3: PhysAddr(0),
            warp_instrs: 0,
            thread_instrs: 0,
            mem_instrs: 0,
            coalesced_accesses: 0,
            divergent_issues: 0,
            walks: 0,
            faults: 0,
            tasks: 0,
            miss_lat_sum: Time::ZERO,
            miss_count: 0,
            poisoned: false,
            sb_on: true,
            sb_hits: 0,
            sb_cur: vec![SbCursor::INVALID; config.warps],
            batch_epoch: 0,
            retry_epoch: vec![u64::MAX; config.warps],
        }
    }

    /// Enables or disables the decoded-superblock fast path (the
    /// `--no-sb-cache` ablation). Pure host-perf knob: simulated timing and
    /// results are bit-identical either way.
    pub fn set_sb_cache(&mut self, enabled: bool) {
        self.sb_on = enabled;
        if !enabled {
            for c in &mut self.sb_cur {
                *c = SbCursor::INVALID;
            }
        }
    }

    /// Runs entered through the decoded image (host-side; not part of
    /// [`MttopCore::stats`]).
    pub fn sb_hits(&self) -> u64 {
        self.sb_hits
    }

    /// Transitions warp `wi` to `s`, keeping the ready bitmap in sync.
    /// Every `states` write must go through here.
    #[inline]
    fn set_state(&mut self, wi: usize, s: WarpState) {
        let bit = 1u64 << (wi & 63);
        if s == WarpState::Ready {
            self.ready_mask[wi >> 6] |= bit;
        } else {
            self.ready_mask[wi >> 6] &= !bit;
        }
        self.states[wi] = s;
    }

    /// Number of free warp contexts (the MIFD consults this).
    pub fn free_warps(&self) -> usize {
        self.states
            .iter()
            .filter(|&&s| s == WarpState::Free)
            .count()
    }

    /// Whether any warp is live.
    pub fn busy(&self) -> bool {
        self.states.iter().any(|&s| s != WarpState::Free)
    }

    /// Flush the TLB (conservative MTTOP shootdown, §3.2.1).
    pub fn tlb_flush(&mut self) {
        self.tlb.flush();
    }

    /// Invalidate one translation (the selective-shootdown extension the
    /// paper suggests as future work in §3.2.1).
    pub fn tlb_invalidate(&mut self, va: VirtAddr) {
        self.tlb.invalidate(va);
    }

    /// Live TLB translations, for the sanitizer's TLB⊆page-table check.
    /// Read-only: no LRU or counter effects.
    pub fn tlb_entries(&self) -> Vec<(u64, PhysAddr)> {
        self.tlb.entries()
    }

    /// Whether the TLB still holds a translation for `va`'s page (read-only;
    /// the sanitizer's stale-shootdown check).
    pub fn tlb_holds(&self, va: VirtAddr) -> bool {
        self.tlb.holds(va)
    }

    /// Assigns a task chunk. In lockstep mode the chunk fills one warp's
    /// lanes; in fine-grained mode it spreads over `nthreads` single-lane
    /// contexts. Returns `false` when contexts are exhausted (the MIFD then
    /// sets its error register).
    pub fn start_task(&mut self, now: Time, chunk: TaskChunk) -> bool {
        let nthreads = (chunk.last_tid - chunk.first_tid + 1) as usize;
        if self.config.lanes == 1 {
            let free: Vec<usize> = self
                .states
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s == WarpState::Free)
                .map(|(i, _)| i)
                .take(nthreads)
                .collect();
            if free.len() < nthreads {
                return false;
            }
            self.tasks += 1;
            self.cr3 = chunk.cr3;
            for (k, &wi) in free.iter().enumerate() {
                let ctx = self.config.ctx_base + wi as u64;
                let warp = &mut self.warps[wi];
                let lane = &mut warp.lanes[0];
                lane.regs = [0; 32];
                lane.regs[abi::A0.0 as usize] = chunk.first_tid + k as u64;
                lane.regs[abi::A1.0 as usize] = chunk.args;
                lane.regs[abi::SP.0 as usize] = abi::stack_top(ctx);
                lane.regs[abi::FP.0 as usize] = lane.regs[abi::SP.0 as usize];
                lane.regs[abi::RA.0 as usize] = chunk.ra as u64;
                lane.pc = chunk.entry;
                lane.live = true;
                warp.outstanding = 0;
                warp.plan = None;
                self.sb_cur[wi] = SbCursor::INVALID;
                self.set_state(wi, WarpState::Ready);
                self.ready_at[wi] = now;
            }
            return true;
        }
        let Some(wi) = self.states.iter().position(|&s| s == WarpState::Free) else {
            return false;
        };
        self.tasks += 1;
        self.cr3 = chunk.cr3;
        assert!(nthreads <= self.config.lanes, "chunk exceeds warp width");
        let ctx0 = self.config.ctx_base + (wi * self.config.lanes) as u64;
        let warp = &mut self.warps[wi];
        for (li, lane) in warp.lanes.iter_mut().enumerate() {
            if li < nthreads {
                lane.regs = [0; 32];
                lane.regs[abi::A0.0 as usize] = chunk.first_tid + li as u64;
                lane.regs[abi::A1.0 as usize] = chunk.args;
                lane.regs[abi::SP.0 as usize] = abi::stack_top(ctx0 + li as u64);
                lane.regs[abi::FP.0 as usize] = lane.regs[abi::SP.0 as usize];
                lane.regs[abi::RA.0 as usize] = chunk.ra as u64;
                lane.pc = chunk.entry;
                lane.live = true;
            } else {
                lane.live = false;
            }
        }
        warp.outstanding = 0;
        warp.plan = None;
        self.sb_cur[wi] = SbCursor::INVALID;
        self.set_state(wi, WarpState::Ready);
        self.ready_at[wi] = now;
        true
    }

    /// How many more standard 8-thread dispatch chunks this core can accept.
    pub fn free_chunks(&self, span: usize) -> usize {
        self.free_warps() * self.config.lanes / span
    }

    /// The machine resolved a page fault for `warp`; it retries translation.
    pub fn fault_resolved(&mut self, warp: usize, at: Time) {
        debug_assert_eq!(self.states[warp], WarpState::Fault);
        self.set_state(warp, WarpState::Ready);
        self.ready_at[warp] = at;
    }

    /// Records a memory completion; the machine then schedules a batch at the
    /// returned time.
    pub fn on_completion(&mut self, now: Time, token: u64, value: u64) -> Time {
        self.local_time = self.local_time.max(now);
        self.arrived.push((token, value));
        now
    }

    fn token(&mut self) -> u64 {
        self.token_seq += 1;
        self.token_prefix | self.token_seq
    }

    /// Executes until the quantum, or until every live warp blocks. `image`
    /// must be [`DecodedImage::build`] of `prog.text`; it is only read, so
    /// every core shares one.
    pub fn run_batch(
        &mut self,
        now: Time,
        prog: &Program,
        image: &DecodedImage,
        port: &mut CorePort<'_>,
    ) -> BatchOutcome {
        self.local_time = self.local_time.max(now);
        self.batch_epoch += 1;
        let mut faults = Vec::new();

        // Completions arrive only between batches (`on_completion`), so the
        // buffer can be handed back, capacity kept, once it is applied.
        let mut arrived = std::mem::take(&mut self.arrived);
        for (token, value) in arrived.drain(..) {
            self.apply_completion(token, value, port, &mut faults);
        }
        self.arrived = arrived;

        let deadline = self.local_time + self.config.clock.cycles(self.config.quantum_cycles);
        let per_cycle = if self.config.lockstep {
            1
        } else {
            self.config.issue_width.max(1)
        };
        // `chosen` is taken out of `self` once per batch (not per cycle): the
        // scheduler loop below is the hottest host loop in the core, and the
        // take/restore pair per cycle showed up in profiles.
        let mut chosen = std::mem::take(&mut self.chosen);
        let outcome = loop {
            if self.local_time >= deadline {
                break BatchOutcome {
                    action: MttopAction::Continue {
                        at: self.local_time,
                    },
                    faults,
                    poisoned: self.poisoned,
                };
            }
            // Collect up to `per_cycle` distinct ready warps for this cycle,
            // round-robin from `rr`. The bitmap scan visits only warps that
            // are actually in `Ready` (the common case is a handful out of
            // 128), in exactly the order the old full scan produced:
            // rr..n, then 0..rr.
            let n = self.warps.len();
            chosen.clear();
            let mut earliest: Option<Time> = None;
            if n <= 64 {
                // Single-word specialization (the paper-default core has 16
                // warps): the rr..n / 0..rr rotation is two masked views of
                // `ready_mask[0]`. Bits at or above `n` are never set, and
                // `rr < n <= 64` keeps the shift in range.
                let mask0 = self.ready_mask[0];
                let hi_bits = mask0 & (!0u64 << (self.rr & 63));
                'scan1: for mut bits in [hi_bits, mask0 ^ hi_bits] {
                    while bits != 0 {
                        let wi = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let at = self.ready_at[wi];
                        if at <= self.local_time {
                            chosen.push(wi);
                            if chosen.len() == per_cycle {
                                break 'scan1;
                            }
                        } else {
                            earliest = Some(match earliest {
                                Some(e) => e.min(at),
                                None => at,
                            });
                        }
                    }
                }
            } else {
                'scan: for (lo, hi) in [(self.rr, n), (0, self.rr)] {
                    if lo >= hi {
                        continue;
                    }
                    let first_word = lo >> 6;
                    let last_word = (hi + 63) >> 6; // exclusive
                    for w in first_word..last_word {
                        let mut bits = self.ready_mask[w];
                        if w == first_word {
                            bits &= !0u64 << (lo & 63);
                        }
                        if (w + 1) << 6 > hi {
                            // Partial last word (only possible when `hi` is not
                            // word-aligned, i.e. `hi & 63 != 0`).
                            bits &= (1u64 << (hi & 63)) - 1;
                        }
                        while bits != 0 {
                            let wi = (w << 6) | bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let at = self.ready_at[wi];
                            if at <= self.local_time {
                                chosen.push(wi);
                                if chosen.len() == per_cycle {
                                    break 'scan;
                                }
                            } else {
                                earliest = Some(match earliest {
                                    Some(e) => e.min(at),
                                    None => at,
                                });
                            }
                        }
                    }
                }
            }
            if chosen.is_empty() {
                if let Some(e) = earliest {
                    self.local_time = e.min(deadline);
                    continue;
                }
                let any_blocked = self.states.iter().any(|&s| {
                    matches!(
                        s,
                        WarpState::Mem | WarpState::Walk | WarpState::WalkQueued | WarpState::Fault
                    )
                });
                let action = if any_blocked {
                    MttopAction::Blocked
                } else {
                    MttopAction::Idle
                };
                break BatchOutcome {
                    action,
                    faults,
                    poisoned: self.poisoned,
                };
            }
            // ALU sprint: when every warp that can issue right now is
            // mid-superblock, whole rounds of the per-cycle rotation are pure
            // ALU work with no port traffic, so they can be retired in
            // per-warp blocks (see `try_sprint` for the equivalence argument).
            if self.config.lockstep
                && n <= 64
                && chosen.len() == 1
                && self.try_sprint(image, deadline)
            {
                continue;
            }
            // Warp indices are below `n`: wrap with a compare, not a divide.
            let next = chosen[chosen.len() - 1] + 1;
            self.rr = if next == n { 0 } else { next };
            let cycle_start = self.local_time;
            for &wi in &chosen {
                self.issue(wi, prog, image, port, &mut faults);
            }
            if !self.config.lockstep {
                // Fine-grained mode: the cycle itself is the charge.
                self.local_time = cycle_start + self.config.clock.period();
            }
        };
        self.chosen = chosen;
        outcome
    }

    /// Attempts to retire several full rotation rounds of decoded ALU
    /// micro-ops in one pass (lockstep mode, `warps <= 64`). Returns `true`
    /// if it issued anything; the caller then rescans.
    ///
    /// # Equivalence
    ///
    /// The per-cycle lockstep loop, while the set `S` of warps eligible *now*
    /// is stable and every member is mid-superblock, does exactly this each
    /// round: visit `S` in rotation order from `rr`, issue one ALU micro-op
    /// per warp, advance `local_time` by one ALU charge per issue. Those
    /// issues touch no shared state — superblock ops are port-free and
    /// branch-free, warp register files are private, and the instruction
    /// counters are commutative sums — and intermediate `local_time` values
    /// are unobservable because nothing else runs inside the window. So `k`
    /// full rounds can be retired warp-by-warp instead of round-by-round,
    /// provided `S` cannot change within the window:
    ///
    /// * nothing *leaves* `S` — a warp leaves only by exhausting its run,
    ///   so `k` is clipped to the minimum remaining run length;
    /// * nothing *joins* `S` — a parked warp with wake time `ta` joins at
    ///   cycle `ceil((ta - t) / c)`, so `k*|S|` issues are clipped below
    ///   that; the quantum deadline clips identically (`t + m*c < D`), the
    ///   same comparisons the per-cycle loop performs at cycle granularity;
    /// * `rr` ends one past the last warp of a rotation round, and the
    ///   rotation order re-stabilizes after the first round, so the final
    ///   `rr` equals `(last of round 1) + 1` — what the loop would leave;
    /// * the attempt bails (returns `false`) unless EVERY eligible warp has
    ///   a valid superblock cursor, so a slow-path warp in `S` forces the
    ///   exact per-cycle interleaving instead.
    fn try_sprint(&mut self, image: &DecodedImage, deadline: Time) -> bool {
        let n = self.warps.len();
        let t = self.local_time;
        let mask0 = self.ready_mask[0];
        let hi = mask0 & (!0u64 << (self.rr & 63));
        let mut s_buf = [0usize; 64];
        let mut s_len = 0usize;
        let mut min_rem = u32::MAX;
        let mut earliest_future: Option<Time> = None;
        for mut bits in [hi, mask0 ^ hi] {
            while bits != 0 {
                let wi = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let at = self.ready_at[wi];
                if at <= t {
                    let cur = &self.sb_cur[wi];
                    if cur.rem == 0
                        || self.warps[wi].lanes[cur.mask.trailing_zeros() as usize].pc
                            != cur.pc as usize
                    {
                        return false;
                    }
                    s_buf[s_len] = wi;
                    s_len += 1;
                    min_rem = min_rem.min(cur.rem);
                } else {
                    earliest_future = Some(earliest_future.map_or(at, |e| e.min(at)));
                }
            }
        }
        debug_assert!(s_len >= 1, "caller chose an eligible warp");
        let c = self.alu_cost.as_ps().max(1);
        // Cycle `m` (issue `m`) runs iff `t + m*c < deadline`, and a parked
        // warp with wake time `ta` joins the eligible set from cycle
        // `ceil((ta - t) / c)` on — identical to the per-cycle loop's
        // comparisons.
        let mut max_issues = (deadline.as_ps().saturating_sub(t.as_ps())).div_ceil(c);
        if let Some(f) = earliest_future {
            max_issues = max_issues.min((f.as_ps() - t.as_ps()).div_ceil(c));
        }
        let k = (min_rem as u64).min(max_issues / s_len as u64) as usize;
        if k * s_len < 2 {
            return false;
        }
        for &wi in &s_buf[..s_len] {
            let cur = self.sb_cur[wi];
            let ops = &image.run_at(cur.pc as usize)[..k];
            let warp = &mut self.warps[wi];
            sprint_masked(ops, &mut warp.lanes, cur.mask, self.full_lane_mask);
            if cur.np < cur.live {
                self.divergent_issues += k as u64;
            }
            self.warp_instrs += k as u64;
            self.thread_instrs += k as u64 * cur.np as u64;
            let cu = &mut self.sb_cur[wi];
            cu.rem -= k as u32;
            cu.pc += k as u32;
        }
        self.rr = (s_buf[s_len - 1] + 1) % n;
        self.local_time = Time::from_ps(t.as_ps() + (k * s_len) as u64 * c);
        true
    }

    /// Executes one warp-instruction for warp `wi`.
    fn issue(
        &mut self,
        wi: usize,
        prog: &Program,
        image: &DecodedImage,
        port: &mut CorePort<'_>,
        faults: &mut Vec<PageFaultReq>,
    ) {
        // A Ready warp with a plan is retrying after a fault resolution.
        if self.warps[wi].plan.is_some() {
            // Doomed-retry short circuit: this warp's head group already drew
            // `Retry` earlier in this same batch, and nothing that could
            // change the outcome (MSHR frees, way-reservation releases, line
            // fills) happens mid-batch — completions are delivered between
            // batches. Replay the real attempt's exact side effects — the
            // bank-boundary charge, the token draw, the L1 counter bumps and
            // the backoff — without re-running the memory controller.
            if self.retry_epoch[wi] == self.batch_epoch {
                let plan = self.warps[wi].plan.as_ref().expect("plan");
                let issued = plan.issued;
                let retried = plan.groups.as_ref().expect("groups").waiting()[0];
                let access = group_access(&self.warps[wi].lanes, retried);
                let on_bank_boundary = if self.l1_bank_mask != u64::MAX {
                    issued as u64 & self.l1_bank_mask == 0
                } else {
                    (issued as u64).is_multiple_of(self.config.l1_banks)
                };
                if issued > 0 && on_bank_boundary {
                    self.local_time += self.config.clock.period();
                }
                let _ = self.token();
                port.count_doomed_retry(access);
                self.ready_at[wi] = self.local_time + self.config.clock.cycles(8);
                return;
            }
            self.set_state(wi, WarpState::Mem);
            self.continue_plan(wi, port, faults);
            return;
        }
        if self.config.lanes == 1 && self.sb_on && self.issue_single(wi, prog, image, port, faults)
        {
            return;
        }
        // Superblock fast path: a valid cursor means this warp is mid-run in
        // a decoded straight-line block. Retire exactly ONE micro-op for the
        // cached participating set — cycle-exact: counters, charges, and the
        // issue-slot rotation match the slow path op for op; the win is the
        // dispatch itself (no min-PC recompute, no `Instr` match), not op
        // batching, so event interleaving with other warps is unchanged.
        let cur = self.sb_cur[wi];
        if cur.rem > 0 {
            let lead = cur.mask.trailing_zeros() as usize;
            if self.warps[wi].lanes[lead].pc == cur.pc as usize {
                let op = image
                    .op_at(cur.pc as usize)
                    .expect("a cursor never leaves its run");
                #[cfg(debug_assertions)]
                {
                    // The cached participating set must still be exactly the
                    // live lanes at the warp's min PC.
                    let warp = &self.warps[wi];
                    let mut m = cur.mask;
                    while m != 0 {
                        let li = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let lane = &warp.lanes[li];
                        debug_assert!(lane.live && lane.pc == cur.pc as usize);
                    }
                    let live = warp.lanes.iter().filter(|l| l.live).count();
                    debug_assert_eq!(live, cur.live as usize);
                }
                let warp = &mut self.warps[wi];
                exec_masked(op, &mut warp.lanes, cur.mask, self.full_lane_mask, 1);
                if (cur.np as usize) < cur.live as usize {
                    self.divergent_issues += 1;
                }
                self.warp_instrs += 1;
                self.thread_instrs += cur.np as u64;
                if self.config.lockstep {
                    self.local_time += self.alu_cost;
                }
                let c = &mut self.sb_cur[wi];
                c.rem -= 1;
                c.pc += 1;
                return;
            }
            // Stale cursor (snapshot load, task reuse): drop it and
            // re-derive everything on the slow path below.
            self.sb_cur[wi] = SbCursor::INVALID;
        }
        let min_pc = self.warps[wi]
            .lanes
            .iter()
            .filter(|l| l.live)
            .map(|l| l.pc)
            .min();
        let Some(pc) = min_pc else {
            self.set_state(wi, WarpState::Free);
            return;
        };
        // Lane sets are at most 8 wide (asserted in `new`), so the
        // participating set is a bit mask — this runs once per issued
        // warp-instruction and must not allocate.
        let mut set = 0u8;
        let mut live = 0;
        for (i, l) in self.warps[wi].lanes.iter().enumerate() {
            if l.live {
                live += 1;
                if l.pc == pc {
                    set |= 1 << i;
                }
            }
        }
        let np = set.count_ones() as usize;
        if np < live {
            self.divergent_issues += 1;
        }
        self.warp_instrs += 1;
        self.thread_instrs += np as u64;

        // First touch of a decodable run: take the superblock entered at
        // `pc`, execute its first micro-op in this issue slot, and park a
        // cursor so subsequent issues take the fast path above. The cursor is
        // capped at the nearest lagging live lane's PC: when the
        // participating set would reach it, the min-PC rule must recompute
        // the set so the lagging lane rejoins (reconvergence — see the
        // module docs and `lagging_lane_reconverges_at_min_pc`).
        if self.sb_on {
            let ops = image.run_at(pc);
            if let Some(&op0) = ops.first() {
                self.sb_hits += 1;
                let mut cap = ops.len();
                if np < live {
                    for l in &self.warps[wi].lanes {
                        if l.live && l.pc > pc {
                            cap = cap.min(l.pc - pc);
                        }
                    }
                }
                exec_masked(op0, &mut self.warps[wi].lanes, set, self.full_lane_mask, 1);
                self.local_time += self.alu_charge();
                self.sb_cur[wi] = if cap > 1 {
                    SbCursor {
                        rem: (cap - 1) as u32,
                        pc: (pc + 1) as u32,
                        mask: set,
                        np: np as u8,
                        live: live as u8,
                    }
                } else {
                    SbCursor::INVALID
                };
                return;
            }
        }

        let Some(&instr) = prog.text.get(pc) else {
            panic!("MTTOP pc {pc} outside text");
        };
        match instr {
            Instr::Alu { op, rd, ra, rb } => {
                for li in lanes_of(set) {
                    let lane = &mut self.warps[wi].lanes[li];
                    let b = match rb {
                        Operand::Reg(r) => lane_get(lane, r),
                        Operand::Imm(i) => i as u64,
                    };
                    let v = op.apply(lane_get(lane, ra), b);
                    lane_set(lane, rd, v);
                    lane.pc += 1;
                }
                self.local_time += self.alu_charge();
            }
            Instr::Li { rd, imm } => {
                for li in lanes_of(set) {
                    let lane = &mut self.warps[wi].lanes[li];
                    lane_set(lane, rd, imm as u64);
                    lane.pc += 1;
                }
                self.local_time += self.alu_charge();
            }
            Instr::Exit => {
                for li in lanes_of(set) {
                    self.warps[wi].lanes[li].live = false;
                }
                if !self.warps[wi].live() {
                    self.set_state(wi, WarpState::Free);
                }
                self.local_time += self.full_charge();
            }
            Instr::Syscall => {
                panic!(
                    "syscall executed on MTTOP core (pc {pc}): MTTOP cores do \
                     not run the OS (paper §3.2.1); xcc rejects this statically"
                );
            }
            Instr::Ld { .. } | Instr::St { .. } | Instr::Amo { .. } => {
                self.issue_mem(wi, set, pc, instr, port, faults);
            }
            _ => {
                for li in lanes_of(set) {
                    lane_control(&mut self.warps[wi].lanes[li], instr);
                }
                self.local_time += self.control_charge(instr);
            }
        }
    }

    /// The single-lane issue step (DESIGN §11.6): one issue slot for a
    /// context of one lane while the decoded image is on. With one lane the
    /// min-PC participating set is that lane whenever it is live, so the
    /// step reads its PC once and dispatches on it directly: a run op from
    /// the image, entering and counting runs exactly as the warp path does;
    /// a control instruction in place; a memory instruction through
    /// [`Self::issue_mem`]. Returns `false` for what only the warp path
    /// handles — a dead lane, `exit` and `syscall` — having at most dropped
    /// the warp's cursor, as the warp path itself would.
    fn issue_single(
        &mut self,
        wi: usize,
        prog: &Program,
        image: &DecodedImage,
        port: &mut CorePort<'_>,
        faults: &mut Vec<PageFaultReq>,
    ) -> bool {
        let lane = &mut self.warps[wi].lanes[0];
        if !lane.live {
            return false;
        }
        let pc = lane.pc;
        let cur = &mut self.sb_cur[wi];
        let op = if cur.rem > 0 && cur.pc as usize == pc {
            cur.rem -= 1;
            cur.pc += 1;
            image.op_at(pc)
        } else {
            let run = image.run_at(pc);
            self.sb_hits += u64::from(!run.is_empty());
            *cur = if run.len() > 1 {
                SbCursor {
                    rem: run.len() as u32 - 1,
                    pc: pc as u32 + 1,
                    mask: 1,
                    np: 1,
                    live: 1,
                }
            } else {
                SbCursor::INVALID
            };
            run.first().copied()
        };
        if let Some(op) = op {
            op.exec(&mut lane.regs);
            lane.pc = pc + 1;
            self.local_time += self.alu_charge();
        } else {
            let Some(&instr) = prog.text.get(pc) else {
                panic!("MTTOP pc {pc} outside text");
            };
            match instr {
                Instr::Exit | Instr::Syscall => return false,
                Instr::Ld { .. } | Instr::St { .. } | Instr::Amo { .. } => {
                    self.issue_mem(wi, 1, pc, instr, port, faults);
                }
                _ => {
                    lane_control(lane, instr);
                    self.local_time += self.control_charge(instr);
                }
            }
        }
        self.warp_instrs += 1;
        self.thread_instrs += 1;
        true
    }

    /// ALU issue charge: one VLIW slot in lockstep mode; in fine-grained
    /// mode the cycle itself is the charge.
    fn alu_charge(&self) -> Time {
        if self.config.lockstep {
            self.alu_cost
        } else {
            Time::ZERO
        }
    }

    /// Whole-cycle issue charge (control, memory, `exit`): one cycle in
    /// lockstep mode, nothing in fine-grained mode.
    fn full_charge(&self) -> Time {
        if self.config.lockstep {
            self.config.clock.period()
        } else {
            Time::ZERO
        }
    }

    /// Issue charge of a control instruction ([`lane_control`]). `CallReg`
    /// charges a cycle in both modes: the timing quirk the module docs keep.
    fn control_charge(&self, instr: Instr) -> Time {
        match instr {
            Instr::CallReg { .. } => self.config.clock.period(),
            Instr::Fence | Instr::Nop => self.alu_charge(),
            _ => self.full_charge(),
        }
    }

    /// Issues memory instruction `instr` at `pc` for the lanes in `set` of
    /// warp `wi`. A single lane (always the case in fine-grained mode) with
    /// its translation in the TLB issues through [`Self::mem_single`];
    /// otherwise the lanes' ops are staged in a [`Plan`] that
    /// [`Self::continue_plan`] translates and issues.
    fn issue_mem(
        &mut self,
        wi: usize,
        set: u8,
        pc: usize,
        instr: Instr,
        port: &mut CorePort<'_>,
        faults: &mut Vec<PageFaultReq>,
    ) {
        self.mem_instrs += 1;
        self.local_time += self.full_charge();
        if set.is_power_of_two()
            && self.mem_single(wi, set.trailing_zeros() as usize, pc, instr, port)
        {
            return;
        }
        for li in lanes_of(set) {
            let lane = &mut self.warps[wi].lanes[li];
            let (va, kind) = lane_mem_op(lane, instr);
            lane.op = LaneOp {
                va: VirtAddr(va),
                paddr: None,
                kind,
            };
        }
        self.warps[wi].plan = Some(Plan {
            lanes: set,
            next_translate: 0,
            pc,
            groups: None,
            issued: 0,
            finish: self.local_time,
        });
        self.set_state(wi, WarpState::Mem);
        self.warps[wi].outstanding = 0;
        self.continue_plan(wi, port, faults);
    }

    /// Fast path for a memory instruction with exactly one participating
    /// lane: one lane op is one coalesced group of one, so on a TLB-present
    /// translation the access can issue immediately without staging a
    /// `Plan` (an inline hit leaves no trace of one).
    /// Every state transition, counter, token draw, TLB LRU touch, and time
    /// charge replicates the generic `continue_plan`/`issue_accesses` path
    /// exactly, and on Pending/Retry/Poisoned the warp is parked with the
    /// byte-identical `Plan` the generic path would have left — a snapshot
    /// taken mid-access cannot tell the paths apart. Returns `false` (no
    /// state touched beyond one read-only TLB probe) when the translation is
    /// absent; the caller then falls back to the generic walker path, which
    /// performs the one counted TLB miss exactly as before.
    fn mem_single(
        &mut self,
        wi: usize,
        li: usize,
        pc: usize,
        instr: Instr,
        port: &mut CorePort<'_>,
    ) -> bool {
        let (va, kind) = lane_mem_op(&self.warps[wi].lanes[li], instr);
        let va = VirtAddr(va);
        // One combined probe: a hit counts exactly like `lookup`, a miss is
        // a no-op and the generic path performs the counted miss itself.
        let Some(frame) = self.tlb.try_lookup(va) else {
            return false;
        };
        let paddr = frame_plus_offset(frame, va);
        let op = LaneOp {
            va,
            paddr: Some(paddr),
            kind,
        };
        let only = 1u8 << li;
        // `issue_accesses` would build exactly one group here.
        self.coalesced_accesses += 1;
        let start = self.local_time; // the plan's `finish` baseline
        let access = match kind {
            LaneKind::Ld { size, .. } => Access::Read {
                paddr,
                size: size as usize,
            },
            LaneKind::St { size, value } => Access::Write {
                paddr,
                size: size as usize,
                value,
            },
            LaneKind::Amo { op, .. } => Access::Rmw { paddr, size: 8, op },
        };
        let token = self.token();
        match port.access(self.local_time, token, access) {
            AccessResult::Hit { finish, value } => {
                match kind {
                    LaneKind::Ld { rd, .. } | LaneKind::Amo { rd, .. } => {
                        lane_set(&mut self.warps[wi].lanes[li], rd, value);
                    }
                    LaneKind::St { .. } => {}
                }
                self.warps[wi].lanes[li].pc = pc + 1;
                self.set_state(wi, WarpState::Ready);
                self.ready_at[wi] = start.max(finish).max(self.local_time);
            }
            result => {
                // Park the warp on the plan the generic path would have
                // left: the one group issued (Pending) or still waiting.
                let pending = matches!(result, AccessResult::Pending);
                let mut groups = Groups::default();
                if pending {
                    self.flights.insert(
                        token,
                        Flight {
                            warp: wi,
                            lanes: only,
                            issued_at: self.local_time,
                        },
                    );
                } else {
                    groups.push(only);
                }
                let warp = &mut self.warps[wi];
                warp.lanes[li].op = op;
                warp.plan = Some(Plan {
                    lanes: only,
                    next_translate: 1,
                    pc,
                    groups: Some(groups),
                    issued: pending as usize,
                    finish: start,
                });
                warp.outstanding = pending as usize;
                match result {
                    AccessResult::Retry => {
                        self.set_state(wi, WarpState::Ready);
                        self.ready_at[wi] = self.local_time + self.config.clock.cycles(8);
                    }
                    AccessResult::Poisoned => {
                        self.poisoned = true;
                        self.set_state(wi, WarpState::Mem);
                    }
                    _ => self.set_state(wi, WarpState::Mem),
                }
            }
        }
        true
    }

    /// Drives a warp's memory plan: translate every lane, then issue the
    /// coalesced accesses. May leave the warp in Walk/WalkQueued/Fault/Mem.
    fn continue_plan(
        &mut self,
        wi: usize,
        port: &mut CorePort<'_>,
        faults: &mut Vec<PageFaultReq>,
    ) {
        loop {
            let warp = &mut self.warps[wi];
            let plan = warp.plan.as_mut().expect("plan");
            let Some(li) = lanes_of(plan.lanes).nth(plan.next_translate) else {
                break;
            };
            let op = &mut warp.lanes[li].op;
            match self.tlb.lookup(op.va) {
                Some(frame) => {
                    op.paddr = Some(frame_plus_offset(frame, op.va));
                    plan.next_translate += 1;
                }
                None => {
                    if self.walker.is_some() {
                        self.set_state(wi, WarpState::WalkQueued);
                        self.walker_queue.push(wi);
                        return;
                    }
                    self.walks += 1;
                    let walk = Walk::new(self.cr3, op.va);
                    if !self.issue_walk_step(wi, walk, port, faults) {
                        return; // blocked in Walk state or faulted
                    }
                    // Walk finished inline; loop to re-lookup.
                }
            }
        }
        self.issue_accesses(wi, port);
    }

    /// Issues PTE reads until blocked, done, faulted, or the L1 runs out of
    /// MSHRs. Returns `true` when the walk completed inline and the TLB now
    /// holds the translation. On MSHR exhaustion the warp yields (Ready with
    /// a one-cycle backoff) so the event loop can drain completions — a
    /// synchronous retry here would livelock the simulator.
    fn issue_walk_step(
        &mut self,
        wi: usize,
        mut walk: Walk,
        port: &mut CorePort<'_>,
        faults: &mut Vec<PageFaultReq>,
    ) -> bool {
        loop {
            let token = self.token();
            let access = Access::Read {
                paddr: walk.pte_addr(),
                size: 8,
            };
            match port.access(self.local_time, token, access) {
                AccessResult::Hit { finish, value } => {
                    self.local_time = self.local_time.max(finish);
                    match walk.feed(value) {
                        WalkResult::Continue(next) => walk = next,
                        WalkResult::Done(frame) => {
                            self.tlb.insert(walk.va(), frame);
                            return true;
                        }
                        WalkResult::Fault(f) => {
                            self.faults += 1;
                            self.set_state(wi, WarpState::Fault);
                            faults.push(PageFaultReq {
                                warp: wi,
                                va: f.va,
                                cr3: self.cr3,
                            });
                            return false;
                        }
                    }
                }
                AccessResult::Pending => {
                    self.walker = Some((wi, walk));
                    self.flights.insert(
                        token,
                        Flight {
                            warp: wi,
                            lanes: 0,
                            issued_at: self.local_time,
                        },
                    );
                    self.set_state(wi, WarpState::Walk);
                    return false;
                }
                AccessResult::Retry => {
                    self.set_state(wi, WarpState::Ready);
                    self.ready_at[wi] = self.local_time + self.config.clock.cycles(8);
                    return false;
                }
                AccessResult::Poisoned => {
                    self.poisoned = true;
                    self.set_state(wi, WarpState::Ready);
                    return false;
                }
            }
        }
    }

    /// All lanes translated: group by cache block (once) and issue the
    /// groups. On MSHR exhaustion the warp yields with the remaining groups
    /// parked in its plan; the retry re-enters here.
    fn issue_accesses(&mut self, wi: usize, port: &mut CorePort<'_>) {
        let warp = &mut self.warps[wi];
        let plan = warp.plan.as_mut().expect("plan");
        if plan.groups.is_none() {
            let mut groups = Groups::default();
            for li in lanes_of(plan.lanes) {
                let op = warp.lanes[li].op;
                let block = ccsvm_mem::block_of(op.paddr.expect("translated"));
                let joined = if matches!(op.kind, LaneKind::Amo { .. }) {
                    None
                } else {
                    groups.sets[..groups.len as usize].iter_mut().find(|g| {
                        let lead = &warp.lanes[g.trailing_zeros() as usize].op;
                        same_kind(&lead.kind, &op.kind)
                            && ccsvm_mem::block_of(lead.paddr.expect("t")) == block
                    })
                };
                match joined {
                    Some(g) => *g |= 1 << li,
                    None => groups.push(1 << li),
                }
            }
            self.coalesced_accesses += groups.len as u64;
            plan.groups = Some(groups);
            plan.finish = self.local_time;
        }

        loop {
            // The head group leaves the queue only once it has issued, so a
            // Retry or Poisoned attempt leaves it parked for the re-entry.
            let plan = self.warps[wi].plan.as_ref().expect("plan");
            let Some(&group) = plan.groups.as_ref().expect("groups").waiting().first() else {
                break;
            };
            let on_bank_boundary = if self.l1_bank_mask != u64::MAX {
                plan.issued as u64 & self.l1_bank_mask == 0
            } else {
                (plan.issued as u64).is_multiple_of(self.config.l1_banks)
            };
            if plan.issued > 0 && on_bank_boundary {
                // A cycle per `l1_banks` groups: banked L1 ports.
                self.local_time += self.config.clock.period();
            }
            let result = self.issue_group(wi, group, port);
            let plan = self.warps[wi].plan.as_mut().expect("plan");
            match result {
                AccessResult::Hit { finish: f, value } => {
                    plan.finish = plan.finish.max(f);
                    plan.issued += 1;
                    plan.groups.as_mut().expect("groups").head += 1;
                    self.apply_group(wi, group, value, port);
                }
                AccessResult::Pending => {
                    plan.issued += 1;
                    plan.groups.as_mut().expect("groups").head += 1;
                    self.warps[wi].outstanding += 1;
                }
                AccessResult::Retry => {
                    // Yield: let the event loop drain MSHR completions. Until
                    // then, re-attempts of this head group are doomed — mark
                    // the batch so `issue` can short-circuit them.
                    self.retry_epoch[wi] = self.batch_epoch;
                    self.set_state(wi, WarpState::Ready);
                    self.ready_at[wi] = self.local_time + self.config.clock.cycles(8);
                    return;
                }
                AccessResult::Poisoned => {
                    self.poisoned = true;
                    return;
                }
            }
        }

        if self.warps[wi].outstanding == 0 {
            let at = self.warps[wi].plan.as_ref().expect("plan").finish;
            self.finish_mem_instr(wi, at.max(self.local_time));
        } else {
            self.set_state(wi, WarpState::Mem);
        }
    }

    fn issue_group(&mut self, wi: usize, group: u8, port: &mut CorePort<'_>) -> AccessResult {
        let access = group_access(&self.warps[wi].lanes, group);
        let token = self.token();
        let result = port.access(self.local_time, token, access);
        if matches!(result, AccessResult::Pending) {
            self.flights.insert(
                token,
                Flight {
                    warp: wi,
                    lanes: group,
                    issued_at: self.local_time,
                },
            );
        }
        result
    }

    /// Applies one completed group: the lead lane takes `value`; the other
    /// lanes peek/poke the now-resident block. If permission slipped away
    /// between completion and application, the lane's access is re-issued as
    /// its own timed flight.
    fn apply_group(&mut self, wi: usize, group: u8, value: u64, port: &mut CorePort<'_>) {
        let lead = group.trailing_zeros() as usize;
        for li in lanes_of(group) {
            let op = self.warps[wi].lanes[li].op;
            let paddr = op.paddr.expect("translated");
            match op.kind {
                LaneKind::Ld { rd, size } => {
                    let v = if li == lead {
                        Some(value)
                    } else {
                        port.peek(paddr, size as usize)
                    };
                    match v {
                        Some(v) => lane_set(&mut self.warps[wi].lanes[li], rd, v),
                        None => match self.issue_group(wi, 1 << li, port) {
                            AccessResult::Hit { value, .. } => {
                                lane_set(&mut self.warps[wi].lanes[li], rd, value);
                            }
                            AccessResult::Pending => self.warps[wi].outstanding += 1,
                            AccessResult::Poisoned => self.poisoned = true,
                            AccessResult::Retry => {
                                unreachable!("lane fallback with a just-freed MSHR")
                            }
                        },
                    }
                }
                LaneKind::St { size, value: v } => {
                    if li != lead && !port.poke(paddr, size as usize, v) {
                        match self.issue_group(wi, 1 << li, port) {
                            AccessResult::Hit { .. } => {}
                            AccessResult::Pending => self.warps[wi].outstanding += 1,
                            AccessResult::Poisoned => self.poisoned = true,
                            AccessResult::Retry => {
                                unreachable!("lane fallback with a just-freed MSHR")
                            }
                        }
                    }
                }
                LaneKind::Amo { rd, .. } => {
                    debug_assert_eq!(group.count_ones(), 1, "atomics are not coalesced");
                    lane_set(&mut self.warps[wi].lanes[li], rd, value);
                }
            }
        }
    }

    /// All groups of the warp's memory instruction are done: advance PCs.
    fn finish_mem_instr(&mut self, wi: usize, at: Time) {
        let plan = self.warps[wi].plan.take().expect("plan");
        for li in lanes_of(plan.lanes) {
            self.warps[wi].lanes[li].pc = plan.pc + 1;
        }
        self.set_state(wi, WarpState::Ready);
        self.ready_at[wi] = at;
    }

    /// Routes an arrived completion (called from `run_batch`).
    fn apply_completion(
        &mut self,
        token: u64,
        value: u64,
        port: &mut CorePort<'_>,
        faults: &mut Vec<PageFaultReq>,
    ) {
        let flight = self
            .flights
            .remove(&token)
            .expect("unknown completion token");
        let lat = self.local_time.saturating_sub(flight.issued_at);
        self.miss_lat_sum += lat;
        self.miss_count += 1;
        if flight.lanes == 0 {
            // A walker PTE read completed.
            let (wi, walk) = self.walker.take().expect("walker busy");
            debug_assert_eq!(wi, flight.warp);
            match walk.feed(value) {
                WalkResult::Continue(next) => {
                    if !self.issue_walk_step(wi, next, port, faults) {
                        // Blocked again (Walk) or faulted; if faulted, the
                        // walker is free for queued users.
                        if self.walker.is_none() {
                            self.wake_walker_queue(port, faults);
                        }
                        return;
                    }
                    self.set_state(wi, WarpState::Mem);
                    self.continue_plan(wi, port, faults);
                }
                WalkResult::Done(frame) => {
                    self.tlb.insert(walk.va(), frame);
                    self.set_state(wi, WarpState::Mem);
                    self.continue_plan(wi, port, faults);
                }
                WalkResult::Fault(f) => {
                    self.faults += 1;
                    self.set_state(wi, WarpState::Fault);
                    faults.push(PageFaultReq {
                        warp: wi,
                        va: f.va,
                        cr3: self.cr3,
                    });
                }
            }
            if self.walker.is_none() {
                self.wake_walker_queue(port, faults);
            }
            return;
        }
        let wi = flight.warp;
        self.warps[wi].outstanding -= 1;
        self.apply_group(wi, flight.lanes, value, port);
        if self.warps[wi].outstanding == 0
            && self.states[wi] == WarpState::Mem
            && self.warps[wi]
                .plan
                .as_ref()
                .is_some_and(|p| p.groups.as_ref().is_some_and(|g| g.waiting().is_empty()))
        {
            self.finish_mem_instr(wi, self.local_time);
        }
    }

    fn wake_walker_queue(&mut self, port: &mut CorePort<'_>, faults: &mut Vec<PageFaultReq>) {
        while self.walker.is_none() {
            let Some(wi) = self.walker_queue.pop() else {
                return;
            };
            if self.states[wi] != WarpState::WalkQueued {
                continue;
            }
            self.set_state(wi, WarpState::Mem);
            self.continue_plan(wi, port, faults);
        }
    }

    /// Core counters and TLB statistics.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("warp_instructions", self.warp_instrs as f64);
        s.set("thread_instructions", self.thread_instrs as f64);
        s.set("mem_instructions", self.mem_instrs as f64);
        s.set("coalesced_accesses", self.coalesced_accesses as f64);
        s.set("divergent_issues", self.divergent_issues as f64);
        s.set("tlb_walks", self.walks as f64);
        s.set("page_faults", self.faults as f64);
        s.set("tasks", self.tasks as f64);
        s.set("miss_count", self.miss_count as f64);
        if self.miss_count > 0 {
            s.set(
                "avg_miss_ns",
                self.miss_lat_sum.as_ns() / self.miss_count as f64,
            );
        }
        s.merge_prefixed("tlb", &self.tlb.stats());
        s
    }
}

fn same_kind(a: &LaneKind, b: &LaneKind) -> bool {
    matches!(
        (a, b),
        (LaneKind::Ld { .. }, LaneKind::Ld { .. }) | (LaneKind::St { .. }, LaneKind::St { .. })
    )
}

fn lane_get(lane: &Lane, r: Reg) -> u64 {
    if r.0 == 0 {
        0
    } else {
        lane.regs[r.0 as usize]
    }
}

fn lane_set(lane: &mut Lane, r: Reg, v: u64) {
    if r.0 != 0 {
        lane.regs[r.0 as usize] = v;
    }
}

/// One lane's effect of a control instruction (`Br`, `Jmp`, `JmpReg`,
/// `Call`, `CallReg`, `Fence`, `Nop`): its next PC and, for calls, the
/// return address. Shared by the warp loop and the single-lane step; the
/// issue charge is [`MttopCore::control_charge`].
///
/// # Panics
///
/// Panics on any other instruction.
fn lane_control(lane: &mut Lane, instr: Instr) {
    let next = lane.pc + 1;
    lane.pc = match instr {
        Instr::Br {
            cond,
            ra,
            rb,
            target,
        } => {
            if cond.test(lane_get(lane, ra), lane_get(lane, rb)) {
                target
            } else {
                next
            }
        }
        Instr::Jmp { target } => target,
        Instr::JmpReg { rs } => lane_get(lane, rs) as usize,
        Instr::Call { target } => {
            lane_set(lane, abi::RA, next as u64);
            target
        }
        Instr::CallReg { rs } => {
            let target = lane_get(lane, rs) as usize;
            lane_set(lane, abi::RA, next as u64);
            target
        }
        Instr::Fence | Instr::Nop => next,
        _ => unreachable!("lane_control on non-control instruction"),
    };
}

/// One lane's (virtual address, lane-op kind) for a memory instruction.
/// Shared by the generic plan builder and the single-lane fast path so the
/// two can never drift.
///
/// # Panics
///
/// Panics if `instr` is not `Ld`/`St`/`Amo`.
fn lane_mem_op(lane: &Lane, instr: Instr) -> (u64, LaneKind) {
    match instr {
        Instr::Ld {
            rd,
            base,
            off,
            size,
        } => (
            lane_get(lane, base).wrapping_add(off as u64),
            LaneKind::Ld { rd, size },
        ),
        Instr::St {
            rs,
            base,
            off,
            size,
        } => (
            lane_get(lane, base).wrapping_add(off as u64),
            LaneKind::St {
                size,
                value: lane_get(lane, rs),
            },
        ),
        Instr::Amo { op, addr, a, b, rd } => (
            lane_get(lane, addr),
            LaneKind::Amo {
                rd,
                op: match op {
                    AmoKind::Cas => AtomicOp::Cas {
                        expected: lane_get(lane, a),
                        value: lane_get(lane, b),
                    },
                    AmoKind::Add => AtomicOp::Add {
                        value: lane_get(lane, a),
                    },
                    AmoKind::Inc => AtomicOp::Inc,
                    AmoKind::Dec => AtomicOp::Dec,
                    AmoKind::Exch => AtomicOp::Exch {
                        value: lane_get(lane, a),
                    },
                },
            },
        ),
        _ => unreachable!("lane_mem_op on non-memory instruction"),
    }
}

/// The MTTOP InterFace Device (§3.1): abstracts the number and identity of
/// MTTOP cores behind a single device. CPU cores launch tasks at it via a
/// write syscall; it splits tasks into warp-sized chunks and assigns them
/// round-robin; it forwards MTTOP page faults to a CPU core as interrupts;
/// it sets an error register when a launch doesn't fit.
#[derive(Debug)]
pub struct Mifd {
    cursor: usize,
    error_register: bool,
    launches: u64,
    chunks: u64,
    rejected: u64,
    faults_forwarded: u64,
}

impl Default for Mifd {
    fn default() -> Self {
        Mifd::new()
    }
}

/// A planned chunk assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkAssign {
    /// Target MTTOP core index.
    pub core: usize,
    /// First tid of the chunk.
    pub first_tid: u64,
    /// Last tid (inclusive).
    pub last_tid: u64,
}

impl Mifd {
    /// A fresh device.
    pub fn new() -> Mifd {
        Mifd {
            cursor: 0,
            error_register: false,
            launches: 0,
            chunks: 0,
            rejected: 0,
            faults_forwarded: 0,
        }
    }

    /// Plans a launch of threads `first..=last` over cores with the given
    /// free-warp counts, round-robin from the device cursor (§3.1: "task
    /// assignment is done in a simple round-robin manner").
    ///
    /// Returns `None` — and sets the error register — when the task needs
    /// more warp contexts than are free.
    ///
    /// # Panics
    ///
    /// Panics if `last < first` or `free_warps` is empty.
    pub fn plan_launch(
        &mut self,
        first: u64,
        last: u64,
        lanes: usize,
        free_warps: &[usize],
    ) -> Option<Vec<ChunkAssign>> {
        assert!(last >= first, "empty launch");
        assert!(!free_warps.is_empty(), "no MTTOP cores");
        self.launches += 1;
        let nthreads = last - first + 1;
        let nchunks = nthreads.div_ceil(lanes as u64);
        let total_free: usize = free_warps.iter().sum();
        if (total_free as u64) < nchunks {
            self.error_register = true;
            self.rejected += 1;
            return None;
        }
        let mut remaining: Vec<usize> = free_warps.to_vec();
        let n = remaining.len();
        let mut out = Vec::with_capacity(nchunks as usize);
        let mut tid = first;
        for _ in 0..nchunks {
            while remaining[self.cursor % n] == 0 {
                self.cursor = (self.cursor + 1) % n;
            }
            let core = self.cursor % n;
            remaining[core] -= 1;
            self.cursor = (self.cursor + 1) % n;
            let last_tid = (tid + lanes as u64 - 1).min(last);
            out.push(ChunkAssign {
                core,
                first_tid: tid,
                last_tid,
            });
            tid = last_tid + 1;
        }
        self.chunks += out.len() as u64;
        Some(out)
    }

    /// Reads and clears the error register.
    pub fn take_error(&mut self) -> bool {
        std::mem::take(&mut self.error_register)
    }

    /// Counts a forwarded page-fault interrupt (§3.2.1).
    pub fn count_fault_forward(&mut self) {
        self.faults_forwarded += 1;
    }

    /// Device counters.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("launches", self.launches as f64);
        s.set("chunks", self.chunks as f64);
        s.set("rejected", self.rejected as f64);
        s.set("faults_forwarded", self.faults_forwarded as f64);
        s
    }
}

// ---------------------------------------------------------------------------
// Snapshot codecs.

use ccsvm_snap::{codec, Codec, SnapError, SnapReader, SnapWriter, Snapshot};

codec!(struct TaskChunk { entry, args, first_tid, last_tid, cr3, ra });
codec!(struct PageFaultReq { warp, va, cr3 });
codec!(struct LaneOp { va, paddr, kind });
codec!(enum WarpState {
    0 => Free,
    1 => Ready,
    2 => Mem,
    3 => Walk,
    4 => WalkQueued,
    5 => Fault,
});

/// Written out rather than declared: `Reg` comes from the dependency-free
/// ISA crate, so a register travels as its index.
impl Codec for LaneKind {
    fn put(&self, w: &mut SnapWriter) {
        match *self {
            LaneKind::Ld { rd, size } => (0u8, rd.0, size).put(w),
            LaneKind::St { size, value } => (1u8, size, value).put(w),
            LaneKind::Amo { rd, op } => (2u8, rd.0, op).put(w),
        }
    }

    fn get(r: &mut SnapReader<'_>) -> Result<LaneKind, SnapError> {
        Ok(match u8::get(r)? {
            0 => LaneKind::Ld {
                rd: Reg(u8::get(r)?),
                size: u8::get(r)?,
            },
            1 => LaneKind::St {
                size: u8::get(r)?,
                value: u64::get(r)?,
            },
            2 => LaneKind::Amo {
                rd: Reg(u8::get(r)?),
                op: AtomicOp::get(r)?,
            },
            t => return Err(SnapError::bad_tag("LaneKind", t)),
        })
    }
}

/// Writes the ops of the lanes in `set` as the list of (lane, op) records
/// the image format has always held.
fn save_lane_ops(w: &mut SnapWriter, lanes: &[Lane], set: u8) {
    (set.count_ones() as usize).put(w);
    for li in lanes_of(set) {
        (li, lanes[li].op).put(w);
    }
}

/// Reads one op list into the op slots of `lanes` and returns the lane set
/// it named. Every list this core writes is in ascending lane order.
fn load_lane_ops(r: &mut SnapReader<'_>, lanes: &mut [Lane]) -> Result<u8, SnapError> {
    let mut set = 0u8;
    for _ in 0..r.get_count(1)? {
        let li = usize::get(r)?;
        if li >= lanes.len() || u32::from(set) >> li != 0 {
            return Err(SnapError::Corrupt {
                what: format!("lane op list names lane {li} out of order or range"),
            });
        }
        lanes[li].op = Codec::get(r)?;
        set |= 1 << li;
    }
    Ok(set)
}

/// A plan's lane ops live in its warp's lanes, so its codec takes them.
impl Plan {
    fn put_with(&self, w: &mut SnapWriter, lanes: &[Lane]) {
        save_lane_ops(w, lanes, self.lanes);
        (self.next_translate, self.pc).put(w);
        self.groups.is_some().put(w);
        if let Some(groups) = &self.groups {
            groups.waiting().len().put(w);
            for &g in groups.waiting() {
                save_lane_ops(w, lanes, g);
            }
        }
        (self.issued, self.finish).put(w);
    }

    fn get_with(r: &mut SnapReader<'_>, lanes: &mut [Lane]) -> Result<Plan, SnapError> {
        let set = load_lane_ops(r, lanes)?;
        let (next_translate, pc) = Codec::get(r)?;
        let groups = if bool::get(r)? {
            let mut groups = Groups::default();
            let n = r.get_count(1)?;
            if n > groups.sets.len() {
                return Err(SnapError::Corrupt {
                    what: format!("plan holds {n} coalesced groups"),
                });
            }
            for _ in 0..n {
                groups.push(load_lane_ops(r, lanes)?);
            }
            Some(groups)
        } else {
            None
        };
        let (issued, finish) = Codec::get(r)?;
        Ok(Plan {
            lanes: set,
            next_translate,
            pc,
            groups,
            issued,
            finish,
        })
    }
}

impl Snapshot for MttopCore {
    fn save(&self, w: &mut SnapWriter) {
        // `port`, `config`, `alu_cost` and `token_prefix` are construction
        // parameters; `chosen` is per-cycle scratch (empty between batches);
        // `ready_mask` is rebuilt from `states` on load. None of them are
        // serialized.
        self.warps.len().put(w);
        for warp in &self.warps {
            warp.lanes.len().put(w);
            // Sparse: a dead lane's registers and PC are fully reset when a
            // chunk reactivates it, so only live lanes carry state worth
            // writing. Idle cores shrink to a bitmap instead of a register
            // file per lane.
            for lane in &warp.lanes {
                lane.live.put(w);
                if lane.live {
                    (lane.regs, lane.pc).put(w);
                }
            }
            warp.outstanding.put(w);
            warp.plan.is_some().put(w);
            if let Some(p) = &warp.plan {
                p.put_with(w, &warp.lanes);
            }
        }
        self.states.iter().for_each(|s| s.put(w));
        self.ready_at.iter().for_each(|t| t.put(w));
        (self.rr, self.local_time).put(w);
        self.tlb.save(w);
        self.walker.put(w);
        self.walker_queue.put(w);
        // Flights sorted by token so the byte stream is canonical.
        let mut tokens: Vec<u64> = self.flights.keys().copied().collect();
        tokens.sort_unstable();
        tokens.len().put(w);
        for t in tokens {
            let f = &self.flights[&t];
            (t, f.warp).put(w);
            save_lane_ops(w, &self.warps[f.warp].lanes, f.lanes);
            f.issued_at.put(w);
        }
        self.arrived.put(w);
        (self.token_seq, self.cr3).put(w);
        [
            self.warp_instrs,
            self.thread_instrs,
            self.mem_instrs,
            self.coalesced_accesses,
            self.divergent_issues,
            self.walks,
            self.faults,
            self.tasks,
        ]
        .put(w);
        (self.miss_lat_sum, self.miss_count, self.poisoned).put(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = self.warps.len();
        r.get_len(n, "warps")?;
        for warp in &mut self.warps {
            r.get_len(warp.lanes.len(), "lanes per warp")?;
            for lane in &mut warp.lanes {
                lane.live = Codec::get(r)?;
                if lane.live {
                    (lane.regs, lane.pc) = Codec::get(r)?;
                    // `r0` reads as zero regardless of storage (`lane_get`
                    // masks it), so normalizing here changes nothing
                    // observable while re-establishing the `regs[0] == 0`
                    // invariant the decoded fast path relies on, even for a
                    // hand-corrupted image.
                    lane.regs[0] = 0;
                } else {
                    lane.regs = [0; 32];
                    lane.pc = 0;
                }
            }
            warp.outstanding = Codec::get(r)?;
            warp.plan = if bool::get(r)? {
                Some(Plan::get_with(r, &mut warp.lanes)?)
            } else {
                None
            };
        }
        // Route through `set_state` so `ready_mask` is rebuilt in sync.
        for wi in 0..n {
            let s = Codec::get(r)?;
            self.set_state(wi, s);
        }
        self.ready_at.iter_mut().try_for_each(|t| t.get_into(r))?;
        (self.rr, self.local_time) = Codec::get(r)?;
        self.tlb.load(r)?;
        self.walker = Codec::get(r)?;
        self.walker_queue.get_into(r)?;
        // The scheduler and the walker index `warps` with these.
        let walker = self.walker.as_ref().map(|&(wi, _)| wi);
        let named = [self.rr].into_iter().chain(walker);
        if let Some(wi) = named
            .chain(self.walker_queue.iter().copied())
            .find(|&wi| wi >= n)
        {
            return Err(SnapError::Corrupt {
                what: format!("warp index {wi} of {n}"),
            });
        }
        self.flights.clear();
        for _ in 0..r.get_count(1)? {
            let (token, warp): (u64, usize) = Codec::get(r)?;
            let Some(w) = self.warps.get_mut(warp) else {
                return Err(SnapError::Corrupt {
                    what: format!("flight for warp {warp} of {n}"),
                });
            };
            let lanes = load_lane_ops(r, &mut w.lanes)?;
            let issued_at = Codec::get(r)?;
            self.flights.insert(
                token,
                Flight {
                    warp,
                    lanes,
                    issued_at,
                },
            );
        }
        self.arrived.get_into(r)?;
        (self.token_seq, self.cr3) = Codec::get(r)?;
        [
            self.warp_instrs,
            self.thread_instrs,
            self.mem_instrs,
            self.coalesced_accesses,
            self.divergent_issues,
            self.walks,
            self.faults,
            self.tasks,
        ] = Codec::get(r)?;
        (self.miss_lat_sum, self.miss_count, self.poisoned) = Codec::get(r)?;
        // Superblock cursors and retry epochs are host-side memoization of
        // restored state, never part of a snapshot; drop them so the next
        // issue re-derives the participating set from the loaded lanes and
        // the first post-restore retry runs the real controller.
        for c in &mut self.sb_cur {
            *c = SbCursor::INVALID;
        }
        self.batch_epoch = 0;
        for e in &mut self.retry_epoch {
            *e = u64::MAX;
        }
        Ok(())
    }
}

impl Snapshot for Mifd {
    fn save(&self, w: &mut SnapWriter) {
        (self.cursor, self.error_register).put(w);
        [
            self.launches,
            self.chunks,
            self.rejected,
            self.faults_forwarded,
        ]
        .put(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        (self.cursor, self.error_register) = Codec::get(r)?;
        [
            self.launches,
            self.chunks,
            self.rejected,
            self.faults_forwarded,
        ] = Codec::get(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsvm_isa::{AluOp, Cond};
    use ccsvm_mem::{MemorySystem, PortLog};

    #[test]
    fn mifd_round_robin_assignment() {
        let mut m = Mifd::new();
        let plan = m.plan_launch(0, 31, 8, &[16, 16, 16]).unwrap();
        assert_eq!(plan.len(), 4);
        assert_eq!(
            plan[0],
            ChunkAssign {
                core: 0,
                first_tid: 0,
                last_tid: 7
            }
        );
        assert_eq!(plan[1].core, 1);
        assert_eq!(plan[2].core, 2);
        assert_eq!(plan[3].core, 0, "wraps around");
        assert_eq!(plan[3].first_tid, 24);
        assert_eq!(plan[3].last_tid, 31);
    }

    #[test]
    fn mifd_partial_tail_chunk() {
        let mut m = Mifd::new();
        let plan = m.plan_launch(0, 9, 8, &[16]).unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[1].first_tid, 8);
        assert_eq!(plan[1].last_tid, 9);
    }

    #[test]
    fn mifd_error_register_on_overflow() {
        let mut m = Mifd::new();
        assert!(m.plan_launch(0, 99, 8, &[4, 4]).is_none());
        assert!(m.take_error());
        assert!(!m.take_error(), "error register clears on read");
        assert_eq!(m.stats().get("rejected"), 1.0);
    }

    #[test]
    fn mifd_skips_busy_cores() {
        let mut m = Mifd::new();
        let plan = m.plan_launch(0, 15, 8, &[0, 2, 0]).unwrap();
        assert!(plan.iter().all(|c| c.core == 1));
    }

    #[test]
    fn start_task_fine_grained_spreads_contexts() {
        let mut core = MttopCore::new(PortId(0), MttopConfig::paper_ccsvm(0), 0);
        assert_eq!(core.free_warps(), 128);
        assert_eq!(core.free_chunks(8), 16);
        assert!(core.start_task(
            Time::ZERO,
            TaskChunk {
                entry: 0,
                args: 0x4000,
                first_tid: 8,
                last_tid: 11,
                cr3: PhysAddr(0x1000),
                ra: 99,
            }
        ));
        assert_eq!(core.free_warps(), 124, "4 threads take 4 contexts");
        assert!(core.busy());
        assert_eq!(core.warps[0].lanes[0].regs[1], 8);
        assert_eq!(core.warps[3].lanes[0].regs[1], 11);
        assert_eq!(core.warps[1].lanes[0].regs[2], 0x4000);
        assert_ne!(
            core.warps[0].lanes[0].regs[30], core.warps[1].lanes[0].regs[30],
            "distinct stacks"
        );
    }

    #[test]
    fn start_task_lockstep_fills_one_warp() {
        let mut core = MttopCore::new(PortId(0), MttopConfig::apu_gpu(0), 0);
        assert_eq!(core.free_warps(), 16);
        assert!(core.start_task(
            Time::ZERO,
            TaskChunk {
                entry: 0,
                args: 1,
                first_tid: 0,
                last_tid: 7,
                cr3: PhysAddr(0),
                ra: 0
            }
        ));
        assert_eq!(core.free_warps(), 15);
        let w = &core.warps[0];
        assert_eq!(w.lanes.iter().filter(|l| l.live).count(), 8);
        assert_ne!(w.lanes[0].regs[30], w.lanes[7].regs[30], "distinct stacks");
    }

    #[test]
    fn start_task_rejects_when_full() {
        let mut core = MttopCore::new(PortId(0), MttopConfig::paper_ccsvm(0), 0);
        for i in 0..16 {
            assert!(core.start_task(
                Time::ZERO,
                TaskChunk {
                    entry: 0,
                    args: 0,
                    first_tid: i * 8,
                    last_tid: i * 8 + 7,
                    cr3: PhysAddr(0),
                    ra: 0,
                }
            ));
        }
        assert_eq!(core.free_warps(), 0);
        assert!(!core.start_task(
            Time::ZERO,
            TaskChunk {
                entry: 0,
                args: 0,
                first_tid: 0,
                last_tid: 7,
                cr3: PhysAddr(0),
                ra: 0
            }
        ));
    }

    /// Builds a single-core memory system just big enough to hand
    /// `run_batch` a real [`CorePort`]; the litmus program is pure ALU +
    /// branch, so the port is never actually hit.
    fn litmus_mem() -> MemorySystem {
        MemorySystem::new(ccsvm_mem::MemConfig {
            l1s: vec![ccsvm_mem::L1Config {
                node: ccsvm_noc::NodeId(0),
                cache: ccsvm_mem::CacheConfig { sets: 64, ways: 4 },
                hit_time: Time::from_ps(1000),
                max_mshrs: 8,
                write_policy: ccsvm_mem::WritePolicy::WriteBack,
            }],
            banks: vec![ccsvm_mem::BankConfig {
                node: ccsvm_noc::NodeId(1),
                cache: ccsvm_mem::CacheConfig { sets: 256, ways: 8 },
                latency: Time::from_ps(10_000),
            }],
            dram: ccsvm_mem::DramConfig::paper_default(),
            ctrl_bytes: 8,
            data_bytes: 72,
            protocol: ccsvm_mem::ProtocolKind::Directory,
        })
    }

    /// Runs `prog` to completion on one lockstep warp (tids 0..=7) and
    /// returns `(per-lane r4, divergent_issues, warp_instrs, thread_instrs,
    /// final local_time)`.
    fn run_litmus(prog: &Program, sb_cache: bool) -> ([u64; 8], u64, u64, u64, Time) {
        let mut core = MttopCore::new(PortId(0), MttopConfig::apu_gpu(0), 0);
        core.set_sb_cache(sb_cache);
        let mut mem = litmus_mem();
        let mut log = PortLog::new();
        let mut port = mem.core_port(PortId(0), &mut log);
        assert!(core.start_task(
            Time::ZERO,
            TaskChunk {
                entry: 0,
                args: 0,
                first_tid: 0,
                last_tid: 7,
                cr3: PhysAddr(0),
                ra: 0,
            }
        ));
        let image = DecodedImage::build(&prog.text);
        let mut now = Time::ZERO;
        for _ in 0..64 {
            let out = core.run_batch(now, prog, &image, &mut port);
            assert!(out.faults.is_empty(), "ALU litmus cannot fault");
            match out.action {
                MttopAction::Continue { at } => now = at,
                MttopAction::Idle => break,
                MttopAction::Blocked => panic!("ALU litmus cannot block on memory"),
            }
        }
        assert!(!core.busy(), "litmus did not finish");
        let mut r4 = [0u64; 8];
        for (i, lane) in core.warps[0].lanes.iter().enumerate() {
            r4[i] = lane.regs[4];
        }
        (
            r4,
            core.divergent_issues,
            core.warp_instrs,
            core.thread_instrs,
            core.local_time,
        )
    }

    /// The module-doc min-PC reconvergence rule, end to end: after a branch
    /// splits lane 0 from lanes 1..7, lane 0 (the min-PC holder) issues
    /// *alone* through its catch-up path, and the moment its PC reaches the
    /// waiting lanes' PC the recomputed participating set merges them back
    /// into one full-warp issue — with identical architectural results and
    /// counters whether the superblock fast path is on or off (rule 4: a
    /// cached run must die at the smallest lagging live lane's PC).
    #[test]
    fn lagging_lane_reconverges_at_min_pc() {
        let r4 = Reg(4);
        let add = |imm: i64| Instr::Alu {
            op: AluOp::Add,
            rd: r4,
            ra: r4,
            rb: Operand::Imm(imm),
        };
        let prog = Program {
            text: vec![
                // Lanes with tid != 0 hop over the catch-up path.
                Instr::Br {
                    cond: Cond::Ne,
                    ra: Reg(1),
                    rb: Reg(0),
                    target: 3,
                },
                add(100), // lane 0 only
                add(100), // lane 0 only — last lagging op before reconvergence
                add(1),   // full warp again (decodes into one superblock run)
                add(1),
                add(1),
                Instr::Exit,
            ],
            symbols: Default::default(),
            globals_size: 0,
            data: Vec::new(),
        };
        let (r4_on, div_on, wi_on, ti_on, t_on) = run_litmus(&prog, true);
        assert_eq!(r4_on[0], 203, "lane 0 must run its solo path then rejoin");
        for (i, &v) in r4_on.iter().enumerate().skip(1) {
            assert_eq!(v, 3, "lane {i} must wait at the join PC, then run 3 adds");
        }
        assert_eq!(
            div_on, 2,
            "exactly the two solo catch-up issues are divergent; more means \
             the dispatcher ran past the reconvergence point"
        );
        // The host-side cache must be invisible: identical results, counters
        // and simulated clock with the fast path ablated.
        let (r4_off, div_off, wi_off, ti_off, t_off) = run_litmus(&prog, false);
        assert_eq!(r4_on, r4_off);
        assert_eq!(
            (div_on, wi_on, ti_on, t_on),
            (div_off, wi_off, ti_off, t_off),
            "superblock fast path perturbed counters or simulated time"
        );
    }
    fn snap_bytes(core: &MttopCore) -> Vec<u8> {
        let mut w = SnapWriter::new();
        core.save(&mut w);
        w.into_vec()
    }

    /// A restored core indexes `warps` with its round-robin cursor, the
    /// walker's warp and every queued walker entry, so an image naming a
    /// warp the core does not have must not load.
    #[test]
    fn restore_rejects_warp_indices_past_the_core() {
        let fresh = || MttopCore::new(PortId(0), MttopConfig::paper_ccsvm(0), 0);
        let n = fresh().warps.len();
        let corruptions: [fn(&mut MttopCore, usize); 3] = [
            |c, n| c.rr = n,
            |c, n| c.walker = Some((n, Walk::new(PhysAddr(0x1000), VirtAddr(0x4000)))),
            |c, n| c.walker_queue.push(n),
        ];
        for (i, corrupt) in corruptions.iter().enumerate() {
            let mut core = fresh();
            corrupt(&mut core, n);
            let bytes = snap_bytes(&core);
            let got = fresh().load(&mut SnapReader::new(&bytes));
            assert!(
                matches!(got, Err(SnapError::Corrupt { .. })),
                "corruption {i}: {got:?}"
            );
        }
    }
}
