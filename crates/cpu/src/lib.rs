//! In-order CPU core timing model.
//!
//! The paper's simulated CPU cores are "in-order x86 cores, 2.9 GHz, max
//! IPC = 0.5" (Table 2) with no write buffers (§3.2.3: SC). This model
//! executes the shared HIR ISA with a configurable cycles-per-instruction
//! cost, blocking (SC) memory operations through the coherent
//! [`ccsvm_mem::MemorySystem`], a hardware page-table walker whose PTE reads
//! are ordinary cacheable loads (§3.2.1), and a per-core TLB.
//!
//! Execution is *quantum-batched*: [`CpuCore::run_batch`] executes straight
//! through L1 hits and ALU work until it blocks on a miss, reaches the time
//! quantum, or hits something the machine must handle (syscall, page fault,
//! thread exit). The surrounding machine model schedules batches through its
//! event queue, so inter-core interactions are event-accurate at quantum
//! granularity (the gem5 approach).

#![forbid(unsafe_code)]

use ccsvm_engine::{Clock, SplitMix64, Stats, Time, TlbFaultConfig};
use ccsvm_isa::{abi, AmoKind, DecodedImage, Instr, Operand, Program, Reg};
use ccsvm_mem::{Access, AccessResult, AtomicOp, CorePort, PhysAddr, PortId};
use ccsvm_vm::{frame_plus_offset, Tlb, VirtAddr, Walk, WalkResult};

/// Static configuration of one CPU core.
#[derive(Clone, Copy, Debug)]
pub struct CpuConfig {
    /// Core clock.
    pub clock: Clock,
    /// Instruction cost numerator in cycles (max IPC 0.5 ⇒ 2/1).
    pub cycles_per_instr_num: u64,
    /// Instruction cost denominator (max IPC 4 ⇒ 1/4).
    pub cycles_per_instr_den: u64,
    /// Batch quantum in core cycles.
    pub quantum_cycles: u64,
    /// TLB capacity (Table 2: 64).
    pub tlb_entries: usize,
}

impl CpuConfig {
    /// The paper's CCSVM CPU core: 2.9 GHz, max IPC 0.5, 64-entry TLB.
    pub fn paper_ccsvm() -> CpuConfig {
        CpuConfig {
            clock: Clock::from_ghz(2.9),
            cycles_per_instr_num: 2,
            cycles_per_instr_den: 1,
            quantum_cycles: 100,
            tlb_entries: 64,
        }
    }

    /// The APU baseline's out-of-order core: 2.9 GHz, max IPC 4.
    pub fn paper_apu() -> CpuConfig {
        CpuConfig {
            cycles_per_instr_num: 1,
            cycles_per_instr_den: 4,
            ..CpuConfig::paper_ccsvm()
        }
    }
}

/// What the machine must do after a [`CpuCore::run_batch`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuAction {
    /// Schedule the next batch at the given time.
    Continue {
        /// Earliest time the core can execute again.
        at: Time,
    },
    /// Blocked on an outstanding memory access; resume via
    /// [`CpuCore::on_completion`].
    Blocked,
    /// The running thread executed `syscall` (number in `r1`). The machine
    /// services it and calls [`CpuCore::resume_syscall`].
    Syscall,
    /// The walker found a non-present page. The machine (OS) maps it and
    /// calls [`CpuCore::fault_resolved`]; the faulting instruction retries.
    PageFault {
        /// Faulting virtual address.
        va: VirtAddr,
    },
    /// The thread executed `exit`; the core is idle again.
    Exited,
    /// No thread is running.
    Idle,
    /// The access touched a block poisoned by an uncorrectable ECC error;
    /// the machine must abort the run gracefully.
    Poisoned,
}

/// Seeded transient TLB-walk fault injection (installed via
/// [`CpuCore::install_tlb_faults`]).
#[derive(Debug)]
struct TlbFaults {
    cfg: TlbFaultConfig,
    rng: SplitMix64,
    transients: u64,
}

/// An architectural memory operation awaiting translation/access.
#[derive(Clone, Copy, Debug)]
enum OpKind {
    Ld {
        rd: Reg,
        size: u8,
    },
    St {
        size: u8,
        value: u64,
    },
    Amo {
        rd: Reg,
        op: AmoKind,
        a: u64,
        b: u64,
    },
}

#[derive(Clone, Copy, Debug)]
struct MemOp {
    va: VirtAddr,
    kind: OpKind,
}

/// Where the core is mid-instruction.
#[derive(Clone, Copy, Debug)]
enum Pending {
    /// Start (or restart) at `pc`.
    None,
    /// A PTE read is outstanding.
    WalkRead { walk: Walk, op: MemOp },
    /// A PTE value arrived; continue the walk in the next batch.
    WalkReady { pte: u64, walk: Walk, op: MemOp },
    /// The translated demand access is outstanding.
    Access { op: MemOp },
    /// The demand access completed; apply it in the next batch.
    AccessReady { value: u64, op: MemOp },
    /// Waiting for the machine to service a syscall.
    Syscall,
    /// Waiting for the machine to resolve a page fault (the address is
    /// carried by the `PageFault` action; kept here for Debug dumps).
    Fault {
        #[allow(dead_code)]
        va: VirtAddr,
    },
}

/// One in-order CPU core.
#[derive(Debug)]
pub struct CpuCore {
    /// This core's L1 port.
    pub port: PortId,
    config: CpuConfig,
    instr_cost: Time,
    /// Architectural registers of the running thread.
    regs: [u64; 32],
    pc: usize,
    running: bool,
    local_time: Time,
    pending: Pending,
    tlb: Tlb,
    cr3: PhysAddr,
    token_prefix: u64,
    token_seq: u64,
    outstanding_token: Option<u64>,
    icount: u64,
    mem_ops: u64,
    walks: u64,
    faults: u64,
    busy_time: Time,
    tlb_faults: Option<TlbFaults>,
    /// Whether `run_batch` takes straight-line runs from the decoded image
    /// (the `SystemConfig::sb_cache` knob). Host-side, never serialized.
    sb_on: bool,
    /// Runs entered through the image (host-side, never serialized).
    sb_hits: u64,
}

impl CpuCore {
    /// Creates an idle core. `token_prefix` must be unique per core; it tags
    /// this core's memory-completion tokens for the machine's routing.
    pub fn new(port: PortId, config: CpuConfig, token_prefix: u64) -> CpuCore {
        let instr_cost = Time::from_ps(
            config.clock.period().as_ps() * config.cycles_per_instr_num
                / config.cycles_per_instr_den,
        );
        CpuCore {
            port,
            config,
            instr_cost,
            regs: [0; 32],
            pc: 0,
            running: false,
            local_time: Time::ZERO,
            pending: Pending::None,
            tlb: Tlb::new(config.tlb_entries),
            cr3: PhysAddr(0),
            token_prefix,
            token_seq: 0,
            outstanding_token: None,
            icount: 0,
            mem_ops: 0,
            walks: 0,
            faults: 0,
            busy_time: Time::ZERO,
            tlb_faults: None,
            sb_on: true,
            sb_hits: 0,
        }
    }

    /// Enables/disables the decoded-superblock fast path (the
    /// `SystemConfig::sb_cache` ablation knob). Pure host-perf toggle: the
    /// executed instruction stream, timing and stats are identical either way.
    pub fn set_sb_cache(&mut self, enabled: bool) {
        self.sb_on = enabled;
    }

    /// Runs entered through the decoded image (host-side; not part of
    /// [`CpuCore::stats`]).
    pub fn sb_hits(&self) -> u64 {
        self.sb_hits
    }

    /// Installs seeded transient TLB-walk fault injection: each completed
    /// walk fails with probability `cfg.transient_rate`, charging
    /// `cfg.retry_penalty` and re-walking, instead of filling the TLB.
    pub fn install_tlb_faults(&mut self, cfg: TlbFaultConfig, rng: SplitMix64) {
        self.tlb_faults = Some(TlbFaults {
            cfg,
            rng,
            transients: 0,
        });
    }

    /// Whether a thread is currently assigned.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Architectural register read (machine syscall handling).
    pub fn reg(&self, i: usize) -> u64 {
        self.regs[i]
    }

    /// The core's local clock (never behind the last event it processed).
    pub fn local_time(&self) -> Time {
        self.local_time
    }

    /// Starts a thread: entry PC, argument (→ `r1`), stack context id, CR3.
    ///
    /// # Panics
    ///
    /// Panics if the core is already running a thread.
    pub fn start_thread(
        &mut self,
        now: Time,
        entry: usize,
        arg: u64,
        ctx: u64,
        cr3: PhysAddr,
        ra: usize,
    ) {
        assert!(!self.running, "core already running a thread");
        self.regs = [0; 32];
        self.regs[abi::A0.0 as usize] = arg;
        self.regs[abi::SP.0 as usize] = abi::stack_top(ctx);
        self.regs[abi::FP.0 as usize] = self.regs[abi::SP.0 as usize];
        self.regs[abi::RA.0 as usize] = ra as u64;
        self.pc = entry;
        self.cr3 = cr3;
        self.running = true;
        self.pending = Pending::None;
        self.local_time = self.local_time.max(now);
    }

    /// Advances this core's local clock to `t` (used when the OS "steals"
    /// the core for handler work: interrupts, page-fault service).
    pub fn preempt_until(&mut self, t: Time) {
        self.local_time = self.local_time.max(t);
    }

    /// Invalidate one TLB entry (shootdown IPI target, §3.2.1).
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

    /// Test-only sanitizer mutation hook: corrupt one live TLB entry's frame.
    pub fn test_corrupt_tlb(&mut self) -> bool {
        self.tlb.test_corrupt_first_entry()
    }

    fn token(&mut self) -> u64 {
        self.token_seq += 1;
        let t = self.token_prefix | self.token_seq;
        self.outstanding_token = Some(t);
        t
    }

    fn get(&self, r: Reg) -> u64 {
        if r.0 == 0 {
            0
        } else {
            self.regs[r.0 as usize]
        }
    }

    fn set(&mut self, r: Reg, v: u64) {
        if r.0 != 0 {
            self.regs[r.0 as usize] = v;
        }
    }

    /// A memory completion for this core arrived. Returns the time at which
    /// the machine should schedule the next batch.
    ///
    /// # Panics
    ///
    /// Panics if the token doesn't match the outstanding access.
    pub fn on_completion(&mut self, now: Time, token: u64, value: u64) -> Time {
        assert_eq!(
            Some(token),
            self.outstanding_token,
            "completion token mismatch"
        );
        self.outstanding_token = None;
        self.local_time = self.local_time.max(now);
        self.pending = match self.pending {
            Pending::WalkRead { walk, op } => Pending::WalkReady {
                pte: value,
                walk,
                op,
            },
            Pending::Access { op } => Pending::AccessReady { value, op },
            ref p => unreachable!("completion in state {p:?}"),
        };
        self.local_time
    }

    /// The machine serviced a syscall; `ret` goes to `r1` and execution
    /// resumes at `at`.
    pub fn resume_syscall(&mut self, at: Time, ret: u64) -> Time {
        debug_assert!(matches!(self.pending, Pending::Syscall));
        self.regs[1] = ret;
        self.pc += 1;
        self.pending = Pending::None;
        self.local_time = self.local_time.max(at);
        self.local_time
    }

    /// The machine mapped the faulting page; the instruction retries.
    pub fn fault_resolved(&mut self, at: Time) -> Time {
        debug_assert!(matches!(self.pending, Pending::Fault { .. }));
        self.pending = Pending::None;
        self.local_time = self.local_time.max(at);
        self.local_time
    }

    /// The thread exits (machine-side, e.g. the exit syscall).
    pub fn stop_thread(&mut self) {
        self.running = false;
        self.pending = Pending::None;
    }

    /// Executes until a block/quantum boundary. See the [crate docs](crate).
    ///
    /// All memory traffic goes through `port`, the core's private
    /// [`CorePort`]: the step mutates only this core and its own L1, and
    /// the machine replays its buffered [`ccsvm_mem::PortLog`] afterwards.
    /// `image` must be [`DecodedImage::build`] of `prog.text`; it is only
    /// read, so every core shares one.
    pub fn run_batch(
        &mut self,
        now: Time,
        prog: &Program,
        image: &DecodedImage,
        port: &mut CorePort<'_>,
    ) -> CpuAction {
        if !self.running {
            return CpuAction::Idle;
        }
        self.local_time = self.local_time.max(now);
        let deadline = self.local_time + self.config.clock.cycles(self.config.quantum_cycles);
        let start = self.local_time;

        loop {
            // Resolve whatever the last event left us (usually nothing).
            if !matches!(self.pending, Pending::None) {
                match std::mem::replace(&mut self.pending, Pending::None) {
                    Pending::None => {}
                    Pending::WalkReady { pte, walk, op } => {
                        if let Some(a) = self.walk_feed(pte, walk, op, port) {
                            return self.charge_and(a, start);
                        }
                    }
                    Pending::AccessReady { value, op } => {
                        self.apply_op(value, op);
                    }
                    p @ (Pending::WalkRead { .. }
                    | Pending::Access { .. }
                    | Pending::Syscall
                    | Pending::Fault { .. }) => {
                        // Spurious batch while blocked: put it back, do nothing.
                        self.pending = p;
                        return CpuAction::Blocked;
                    }
                }
            }

            if self.local_time >= deadline {
                let at = self.local_time;
                self.busy_time += at - start;
                return CpuAction::Continue { at };
            }

            // Decoded-superblock fast path (`ccsvm_isa::decode`): execute the
            // straight-line run from here in a tight loop. Each micro-op
            // retires with exactly the serial bookkeeping below — icount,
            // then the time charge, then the register write — and the same
            // quantum-deadline check between instructions, so timing and
            // stats are bit-identical to the one-`match`-per-instruction path.
            if self.sb_on {
                let ops = image.run_at(self.pc);
                if !ops.is_empty() {
                    self.sb_hits += 1;
                    let mut k = 0;
                    while k < ops.len() {
                        self.icount += 1;
                        self.local_time += self.instr_cost;
                        ops[k].exec(&mut self.regs);
                        k += 1;
                        if self.local_time >= deadline {
                            break;
                        }
                    }
                    self.pc += k;
                    continue;
                }
            }

            // `run_at` is empty outside the text, so this still catches a
            // runaway pc on the decoded path.
            let Some(&instr) = prog.text.get(self.pc) else {
                panic!("CPU pc {} outside text (len {})", self.pc, prog.text.len());
            };

            self.icount += 1;
            self.local_time += self.instr_cost;

            match instr {
                Instr::Alu { op, rd, ra, rb } => {
                    let b = match rb {
                        Operand::Reg(r) => self.get(r),
                        Operand::Imm(i) => i as u64,
                    };
                    let v = op.apply(self.get(ra), b);
                    self.set(rd, v);
                    self.pc += 1;
                }
                Instr::Li { rd, imm } => {
                    self.set(rd, imm as u64);
                    self.pc += 1;
                }
                Instr::Br {
                    cond,
                    ra,
                    rb,
                    target,
                } => {
                    self.pc = if cond.test(self.get(ra), self.get(rb)) {
                        target
                    } else {
                        self.pc + 1
                    };
                }
                Instr::Jmp { target } => self.pc = target,
                Instr::JmpReg { rs } => self.pc = self.get(rs) as usize,
                Instr::Call { target } => {
                    self.set(abi::RA, (self.pc + 1) as u64);
                    self.pc = target;
                }
                Instr::CallReg { rs } => {
                    let t = self.get(rs) as usize;
                    self.set(abi::RA, (self.pc + 1) as u64);
                    self.pc = t;
                }
                Instr::Fence | Instr::Nop => self.pc += 1,
                Instr::Syscall => {
                    self.pending = Pending::Syscall;
                    self.busy_time += self.local_time - start;
                    return CpuAction::Syscall;
                }
                Instr::Exit => {
                    self.running = false;
                    self.busy_time += self.local_time - start;
                    return CpuAction::Exited;
                }
                Instr::Ld {
                    rd,
                    base,
                    off,
                    size,
                } => {
                    let va = VirtAddr(self.get(base).wrapping_add(off as u64));
                    let op = MemOp {
                        va,
                        kind: OpKind::Ld { rd, size },
                    };
                    if let Some(a) = self.issue_mem(op, port) {
                        return self.charge_and(a, start);
                    }
                }
                Instr::St {
                    rs,
                    base,
                    off,
                    size,
                } => {
                    let va = VirtAddr(self.get(base).wrapping_add(off as u64));
                    let value = self.get(rs);
                    let op = MemOp {
                        va,
                        kind: OpKind::St { size, value },
                    };
                    if let Some(a) = self.issue_mem(op, port) {
                        return self.charge_and(a, start);
                    }
                }
                Instr::Amo { op, rd, addr, a, b } => {
                    let va = VirtAddr(self.get(addr));
                    let mop = MemOp {
                        va,
                        kind: OpKind::Amo {
                            rd,
                            op,
                            a: self.get(a),
                            b: self.get(b),
                        },
                    };
                    if let Some(act) = self.issue_mem(mop, port) {
                        return self.charge_and(act, start);
                    }
                }
            }
        }
    }

    fn charge_and(&mut self, a: CpuAction, start: Time) -> CpuAction {
        self.busy_time += self.local_time.saturating_sub(start);
        a
    }

    /// Translates and issues a memory op. `None` means it completed inline
    /// (hit); `Some(action)` means the batch must end.
    fn issue_mem(&mut self, op: MemOp, port: &mut CorePort<'_>) -> Option<CpuAction> {
        self.mem_ops += 1;
        match self.tlb.lookup(op.va) {
            Some(frame) => self.issue_access(frame_plus_offset(frame, op.va), op, port),
            None => {
                self.walks += 1;
                let walk = Walk::new(self.cr3, op.va);
                self.issue_walk_read(walk, op, port)
            }
        }
    }

    fn issue_walk_read(
        &mut self,
        walk: Walk,
        op: MemOp,
        port: &mut CorePort<'_>,
    ) -> Option<CpuAction> {
        let token = self.token();
        let access = Access::Read {
            paddr: walk.pte_addr(),
            size: 8,
        };
        match port.access(self.local_time, token, access) {
            AccessResult::Hit { finish, value } => {
                self.outstanding_token = None;
                self.local_time = finish;
                self.walk_feed(value, walk, op, port)
            }
            AccessResult::Pending => {
                self.pending = Pending::WalkRead { walk, op };
                Some(CpuAction::Blocked)
            }
            AccessResult::Retry => {
                self.outstanding_token = None;
                self.local_time += self.config.clock.period();
                Some(CpuAction::Continue {
                    at: self.local_time,
                })
            }
            AccessResult::Poisoned => {
                self.outstanding_token = None;
                Some(CpuAction::Poisoned)
            }
        }
    }

    /// Feeds a PTE into the walk; continues the walk / finishes translation /
    /// faults. `None` = fully done inline.
    fn walk_feed(
        &mut self,
        pte: u64,
        walk: Walk,
        op: MemOp,
        port: &mut CorePort<'_>,
    ) -> Option<CpuAction> {
        match walk.feed(pte) {
            WalkResult::Continue(next) => self.issue_walk_read(next, op, port),
            WalkResult::Done(frame) => {
                if let Some(f) = &mut self.tlb_faults {
                    if f.rng.next_f64() < f.cfg.transient_rate {
                        // Transient walk failure: the translation is lost
                        // before it reaches the TLB; the instruction pays the
                        // retry penalty and re-walks from scratch.
                        f.transients += 1;
                        self.local_time += f.cfg.retry_penalty;
                        return Some(CpuAction::Continue {
                            at: self.local_time,
                        });
                    }
                }
                self.tlb.insert(op.va, frame);
                self.issue_access(frame_plus_offset(frame, op.va), op, port)
            }
            WalkResult::Fault(f) => {
                self.faults += 1;
                self.pending = Pending::Fault { va: f.va };
                Some(CpuAction::PageFault { va: f.va })
            }
        }
    }

    fn issue_access(
        &mut self,
        paddr: PhysAddr,
        op: MemOp,
        port: &mut CorePort<'_>,
    ) -> Option<CpuAction> {
        let access = match op.kind {
            OpKind::Ld { size, .. } => Access::Read {
                paddr,
                size: size as usize,
            },
            OpKind::St { size, value } => Access::Write {
                paddr,
                size: size as usize,
                value,
            },
            OpKind::Amo { op: k, a, b, .. } => Access::Rmw {
                paddr,
                size: 8,
                op: match k {
                    AmoKind::Cas => AtomicOp::Cas {
                        expected: a,
                        value: b,
                    },
                    AmoKind::Add => AtomicOp::Add { value: a },
                    AmoKind::Inc => AtomicOp::Inc,
                    AmoKind::Dec => AtomicOp::Dec,
                    AmoKind::Exch => AtomicOp::Exch { value: a },
                },
            },
        };
        let token = self.token();
        match port.access(self.local_time, token, access) {
            AccessResult::Hit { finish, value } => {
                self.outstanding_token = None;
                self.local_time = finish;
                self.apply_op(value, op);
                None
            }
            AccessResult::Pending => {
                self.pending = Pending::Access { op };
                Some(CpuAction::Blocked)
            }
            AccessResult::Retry => {
                self.outstanding_token = None;
                self.local_time += self.config.clock.period();
                Some(CpuAction::Continue {
                    at: self.local_time,
                })
            }
            AccessResult::Poisoned => {
                self.outstanding_token = None;
                Some(CpuAction::Poisoned)
            }
        }
    }

    fn apply_op(&mut self, value: u64, op: MemOp) {
        match op.kind {
            OpKind::Ld { rd, .. } => self.set(rd, value),
            OpKind::St { .. } => {}
            OpKind::Amo { rd, .. } => self.set(rd, value),
        }
        self.pc += 1;
    }

    /// Core counters (instructions, memory ops, walks, faults, busy time) and
    /// TLB statistics.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("instructions", self.icount as f64);
        s.set("mem_ops", self.mem_ops as f64);
        s.set("tlb_walks", self.walks as f64);
        s.set("page_faults", self.faults as f64);
        s.set("busy_us", self.busy_time.as_us());
        if let Some(f) = &self.tlb_faults {
            s.set("tlb_transients", f.transients as f64);
        }
        s.merge_prefixed("tlb", &self.tlb.stats());
        s
    }
}

// ---------------------------------------------------------------------------
// Snapshot codecs.

use ccsvm_snap::{codec, Codec, SnapError, SnapReader, SnapWriter, Snapshot};

/// Written out rather than declared: `Reg` and `AmoKind` come from the
/// dependency-free ISA crate, so they travel as a register index and an
/// AMO kind's declaration index.
impl Codec for OpKind {
    fn put(&self, w: &mut SnapWriter) {
        match *self {
            OpKind::Ld { rd, size } => (0u8, rd.0, size).put(w),
            OpKind::St { size, value } => (1u8, size, value).put(w),
            OpKind::Amo { rd, op, a, b } => {
                (2u8, rd.0, op as u8).put(w);
                (a, b).put(w);
            }
        }
    }

    fn get(r: &mut SnapReader<'_>) -> Result<OpKind, SnapError> {
        use AmoKind::*;
        Ok(match u8::get(r)? {
            0 => OpKind::Ld {
                rd: Reg(u8::get(r)?),
                size: u8::get(r)?,
            },
            1 => OpKind::St {
                size: u8::get(r)?,
                value: u64::get(r)?,
            },
            2 => OpKind::Amo {
                rd: Reg(u8::get(r)?),
                op: match u8::get(r)? {
                    t @ 0..=4 => [Cas, Add, Inc, Dec, Exch][usize::from(t)],
                    t => return Err(SnapError::bad_tag("AmoKind", t)),
                },
                a: u64::get(r)?,
                b: u64::get(r)?,
            },
            t => return Err(SnapError::bad_tag("OpKind", t)),
        })
    }
}

codec!(struct MemOp { va, kind });
codec!(enum Pending {
    0 => None,
    1 => WalkRead { walk, op },
    2 => WalkReady { pte, walk, op },
    3 => Access { op },
    4 => AccessReady { value, op },
    5 => Syscall,
    6 => Fault { va },
});

impl Snapshot for CpuCore {
    fn save(&self, w: &mut SnapWriter) {
        // `port`, `config`, `instr_cost` and `token_prefix` are construction
        // parameters (config-derived) and deliberately not serialized.
        (self.regs, self.pc, self.running).put(w);
        (self.local_time, self.pending).put(w);
        self.tlb.save(w);
        (self.cr3, self.token_seq, self.outstanding_token).put(w);
        [self.icount, self.mem_ops, self.walks, self.faults].put(w);
        self.busy_time.put(w);
        self.tlb_faults.is_some().put(w);
        if let Some(f) = &self.tlb_faults {
            f.rng.put(w);
            f.transients.put(w);
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        (self.regs, self.pc, self.running) = Codec::get(r)?;
        (self.local_time, self.pending) = Codec::get(r)?;
        self.tlb.load(r)?;
        (self.cr3, self.token_seq, self.outstanding_token) = Codec::get(r)?;
        [self.icount, self.mem_ops, self.walks, self.faults] = Codec::get(r)?;
        self.busy_time = Codec::get(r)?;
        r.get_armed(self.tlb_faults.is_some(), "cpu tlb fault-injection")?;
        if let Some(f) = &mut self.tlb_faults {
            f.rng = Codec::get(r)?;
            f.transients = Codec::get(r)?;
        }
        Ok(())
    }
}
