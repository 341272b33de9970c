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
//!    Hence the superblock fast path may reuse a cached
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
//! `step_charge`.
//!
//! Page faults cannot trap to an OS here (MTTOPs don't run the OS): the core
//! reports them and the machine forwards them through the [`Mifd`] to a CPU
//! core (§3.2.1).
//!
//! # Modules
//!
//! What an instruction does to a lane is written once, in `ccsvm_isa`
//! ([`ccsvm_isa::Instr::step_regs`], [`ccsvm_isa::Instr::mem_operand`]), for
//! this core and the CPU alike; this crate decides only when it happens and
//! what it costs (DESIGN §11.5).
//!
//! * `config`: [`MttopConfig`] and the batch types ([`TaskChunk`],
//!   [`BatchOutcome`], [`MttopAction`], [`PageFaultReq`]).
//! * `warp`: lane and warp state (registers, PC, the staged lane op, the
//!   scheduling state and the decoded-run cursor).
//! * `sched`: the scheduler (`run_batch`'s per-cycle loop, `issue`,
//!   `issue_single`) and the issue charges.
//! * `pipeline`: the memory pipeline (`Plan`, `Groups`, `Flight`, the
//!   page-table walker, completions).
//! * `mifd`: the [`Mifd`].
//!
//! This file holds [`MttopCore`] itself: construction, task assignment, the
//! accessors the machine calls, and the counters.

#![forbid(unsafe_code)]

mod config;
mod mifd;
mod pipeline;
mod sched;
mod warp;

use ccsvm_engine::{FxHashMap, Stats, Time};
use ccsvm_isa::abi;
use ccsvm_mem::{PhysAddr, PortId};
use ccsvm_vm::{Tlb, VirtAddr, Walk};

pub use config::{BatchOutcome, MttopAction, MttopConfig, PageFaultReq, TaskChunk};
pub use mifd::{ChunkAssign, Mifd};

use pipeline::Flight;
use warp::{Lane, LaneOp, SbCursor, Warp, WarpState};

/// One SIMT MTTOP core.
#[derive(Debug)]
pub struct MttopCore {
    /// This core's L1 port.
    pub port: PortId,
    config: MttopConfig,
    alu_cost: Time,
    /// `l1_banks - 1` when the bank count is a power of two, else `u64::MAX`
    /// as a "divide instead" sentinel — the bank-cycle charge
    /// (`bank_charge`) sits on every issued group.
    l1_bank_mask: u64,
    /// Participating-set mask meaning "all lanes" (`config.lanes` ones).
    full_lane_mask: u8,
    warps: Vec<Warp>,
    /// `states[wi]` = scheduling state of warp `wi`. Kept out of [`Warp`]
    /// so the per-cycle ready scan stays within a couple of cache lines.
    states: Vec<WarpState>,
    /// Bit `wi` set iff `states[wi] == Ready`; one word, since a core has
    /// at most 128 contexts. The scheduler scans this with `trailing_zeros`
    /// so a cycle costs O(ready warps), not O(total warps); all transitions
    /// go through [`Self::set_state`].
    ready_mask: u128,
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
    /// Monotone batch counter for the doomed-retry short circuit.
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
        assert!(
            config.warps <= 128,
            "at most 128 warps: the ready set is one u128"
        );
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
            ready_mask: 0,
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
        let bit = 1u128 << wi;
        if s == WarpState::Ready {
            self.ready_mask |= bit;
        } else {
            self.ready_mask &= !bit;
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
        let lanes = self.config.lanes;
        // One context per thread on a fine-grained core, one warp per chunk
        // on a lockstep one; tids fill the contexts' lanes in order.
        let need = if lanes == 1 { nthreads } else { 1 };
        let free: Vec<usize> = self
            .states
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == WarpState::Free)
            .map(|(i, _)| i)
            .take(need)
            .collect();
        if free.len() < need {
            return false;
        }
        self.tasks += 1;
        self.cr3 = chunk.cr3;
        assert!(nthreads <= need * lanes, "chunk exceeds warp width");
        let mut tid = chunk.first_tid;
        for wi in free {
            let ctx0 = self.config.ctx_base + (wi * lanes) as u64;
            let warp = &mut self.warps[wi];
            for (li, lane) in warp.lanes.iter_mut().enumerate() {
                lane.live = tid <= chunk.last_tid;
                if lane.live {
                    lane.regs = abi::start_regs(ctx0 + li as u64, tid, chunk.args, chunk.ra as u64);
                    lane.pc = chunk.entry;
                    tid += 1;
                }
            }
            warp.outstanding = 0;
            warp.plan = None;
            self.sb_cur[wi] = SbCursor::INVALID;
            self.set_state(wi, WarpState::Ready);
            self.ready_at[wi] = now;
        }
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

#[cfg(test)]
mod tests {
    use ccsvm_isa::{AluOp, Cond, DecodedImage, Instr, Operand, Program, Reg};
    use ccsvm_mem::{MemorySystem, PortLog};

    use super::*;

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
}
