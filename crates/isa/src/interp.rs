//! Functional reference interpreter.
//!
//! Executes HIR over flat (untimed, untranslated) memory. This is the
//! semantic oracle: the compiler's tests run programs here, and the timing
//! cores (`ccsvm-cpu` / `ccsvm-mttop`) must agree with it on architectural
//! results.

use ccsvm_engine::fxmap::FxHashMap;

use crate::instr::{AmoKind, Instr, Operand, Reg};
use crate::{abi, sys, DecodedImage, Program};

/// Bytes per [`FlatMem`] page.
const PAGE: u64 = 4096;

/// Sparse flat byte memory (4 KiB pages, zeroed on first touch).
///
/// Pages sit in a map under the deterministic Fx multiply-rotate hash
/// (`ccsvm_engine::fxmap`; the keys are page numbers of the program being
/// checked, not input crafted to collide), so an access within one page
/// costs one probe and one copy. Only an access that straddles two pages
/// goes byte by byte.
#[derive(Clone, Debug, Default)]
pub struct FlatMem {
    pages: FxHashMap<u64, Box<[u8; PAGE as usize]>>,
}

impl FlatMem {
    /// Creates empty memory (reads as zero).
    pub fn new() -> FlatMem {
        FlatMem::default()
    }

    /// Reads `size` bytes at `addr`, zero-extended.
    pub fn read(&self, addr: u64, size: u8) -> u64 {
        let mut v = [0u8; 8];
        let n = usize::from(size).min(8);
        let off = (addr % PAGE) as usize;
        if off + n <= PAGE as usize {
            if let Some(p) = self.pages.get(&(addr / PAGE)) {
                v[..n].copy_from_slice(&p[off..off + n]);
            }
        } else {
            for (i, b) in v.iter_mut().enumerate().take(n) {
                let a = addr.wrapping_add(i as u64);
                *b = self
                    .pages
                    .get(&(a / PAGE))
                    .map_or(0, |p| p[(a % PAGE) as usize]);
            }
        }
        u64::from_le_bytes(v)
    }

    /// Writes the low `size` bytes of `value` at `addr`.
    pub fn write(&mut self, addr: u64, size: u8, value: u64) {
        let bytes = value.to_le_bytes();
        let n = usize::from(size).min(8);
        let off = (addr % PAGE) as usize;
        if off + n <= PAGE as usize {
            self.page_mut(addr / PAGE)[off..off + n].copy_from_slice(&bytes[..n]);
        } else {
            for (i, &b) in bytes.iter().enumerate().take(n) {
                let a = addr.wrapping_add(i as u64);
                self.page_mut(a / PAGE)[(a % PAGE) as usize] = b;
            }
        }
    }

    /// Page number `page`, allocated zeroed on first touch.
    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE as usize] {
        self.pages
            .entry(page)
            .or_insert_with(|| Box::new([0; PAGE as usize]))
    }
}

/// Why execution stopped abnormally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrapKind {
    /// PC ran outside the text section.
    BadPc(usize),
    /// A syscall the host refused or doesn't implement.
    BadSyscall(u64),
    /// Instruction budget exhausted (runaway program).
    OutOfGas,
}

/// Host services backing the `syscall` instruction.
pub trait Syscalls {
    /// Handles one syscall: number in `r1`, args in `r2`…; result in `r1`.
    ///
    /// # Errors
    ///
    /// Returns a [`TrapKind`] to abort execution.
    fn syscall(
        &mut self,
        regs: &mut [u64; 32],
        mem: &mut FlatMem,
        prog: &Program,
    ) -> Result<(), TrapKind>;
}

/// Result of one [`Interp::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// Keep going.
    Continue,
    /// The thread executed `exit` (or the exit syscall).
    Exited,
}

/// A single hardware thread's architectural state, interpreted functionally.
///
/// # Examples
///
/// ```
/// use ccsvm_isa::{assemble, FuncOs, Interp};
/// let p = assemble("main:\n li r1, 6\n mul r1, r1, 7\n exit\n").unwrap();
/// let mut mem = ccsvm_isa::FlatMem::new();
/// let mut t = Interp::new(p.entry("main"), 0);
/// t.run(&p, &mut mem, &mut FuncOs::new(), 100).unwrap();
/// assert_eq!(t.regs[1], 42);
/// ```
#[derive(Clone, Debug)]
pub struct Interp {
    /// Architectural registers (`regs[0]` stays zero).
    pub regs: [u64; 32],
    /// Program counter (index into the text).
    pub pc: usize,
    /// Retired instruction count.
    pub icount: u64,
}

impl Interp {
    /// A thread starting at `entry` using hardware context `ctx`'s stack.
    pub fn new(entry: usize, ctx: u64) -> Interp {
        Interp {
            regs: abi::start_regs(ctx, 0, 0, 0),
            pc: entry,
            icount: 0,
        }
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

    fn operand(&self, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.get(r),
            Operand::Imm(i) => i as u64,
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Traps on out-of-range PCs or refused syscalls.
    pub fn step(
        &mut self,
        prog: &Program,
        mem: &mut FlatMem,
        os: &mut dyn Syscalls,
    ) -> Result<StepOutcome, TrapKind> {
        let Some(&instr) = prog.text.get(self.pc) else {
            return Err(TrapKind::BadPc(self.pc));
        };
        self.icount += 1;
        let mut next = self.pc + 1;
        match instr {
            Instr::Alu { op, rd, ra, rb } => {
                let v = op.apply(self.get(ra), self.operand(rb));
                self.set(rd, v);
            }
            Instr::Li { rd, imm } => self.set(rd, imm as u64),
            Instr::Ld {
                rd,
                base,
                off,
                size,
            } => {
                let addr = self.get(base).wrapping_add(off as u64);
                let v = mem.read(addr, size);
                self.set(rd, v);
            }
            Instr::St {
                rs,
                base,
                off,
                size,
            } => {
                let addr = self.get(base).wrapping_add(off as u64);
                mem.write(addr, size, self.get(rs));
            }
            Instr::Amo { op, rd, addr, a, b } => {
                let address = self.get(addr);
                let old = mem.read(address, 8);
                let new = match op {
                    AmoKind::Cas => {
                        if old == self.get(a) {
                            self.get(b)
                        } else {
                            old
                        }
                    }
                    AmoKind::Add => old.wrapping_add(self.get(a)),
                    AmoKind::Inc => old.wrapping_add(1),
                    AmoKind::Dec => old.wrapping_sub(1),
                    AmoKind::Exch => self.get(a),
                };
                mem.write(address, 8, new);
                self.set(rd, old);
            }
            Instr::Br {
                cond,
                ra,
                rb,
                target,
            } => {
                if cond.test(self.get(ra), self.get(rb)) {
                    next = target;
                }
            }
            Instr::Jmp { target } => next = target,
            Instr::JmpReg { rs } => next = self.get(rs) as usize,
            Instr::Call { target } => {
                self.set(abi::RA, (self.pc + 1) as u64);
                next = target;
            }
            Instr::CallReg { rs } => {
                let t = self.get(rs) as usize;
                self.set(abi::RA, (self.pc + 1) as u64);
                next = t;
            }
            Instr::Syscall => {
                if self.regs[1] == sys::EXIT_THREAD {
                    return Ok(StepOutcome::Exited);
                }
                os.syscall(&mut self.regs, mem, prog)?;
            }
            Instr::Fence | Instr::Nop => {}
            Instr::Exit => return Ok(StepOutcome::Exited),
        }
        self.pc = next;
        Ok(StepOutcome::Continue)
    }

    /// Runs until `exit` or `max_steps`.
    ///
    /// Straight-line runs execute over decoded superblocks
    /// ([`crate::decode`]) — the same fast path the timing cores use — while
    /// every boundary instruction (branch, memory, syscall, exit) goes
    /// through [`Interp::step`], which remains the per-instruction semantic
    /// oracle. The decoded image is built per `run` call, so handing the
    /// same `Interp` a different program later can never observe stale
    /// decoded state.
    ///
    /// # Errors
    ///
    /// Traps as in [`Interp::step`], plus [`TrapKind::OutOfGas`] at the
    /// step budget.
    pub fn run(
        &mut self,
        prog: &Program,
        mem: &mut FlatMem,
        os: &mut dyn Syscalls,
        max_steps: u64,
    ) -> Result<(), TrapKind> {
        let image = DecodedImage::build(&prog.text);
        self.run_decoded(prog, &image, mem, os, max_steps)
    }

    /// [`Interp::run`] over `image`, which must be `prog`'s decoded text.
    fn run_decoded(
        &mut self,
        prog: &Program,
        image: &DecodedImage,
        mem: &mut FlatMem,
        os: &mut dyn Syscalls,
        max_steps: u64,
    ) -> Result<(), TrapKind> {
        let mut gas = max_steps;
        while gas > 0 {
            let ops = image.run_at(self.pc);
            if !ops.is_empty() {
                // Budget-capped tail of the superblock; each micro-op is one
                // retired instruction, exactly as if stepped individually.
                let n = (ops.len() as u64).min(gas) as usize;
                for op in &ops[..n] {
                    op.exec(&mut self.regs);
                }
                self.pc += n;
                self.icount += n as u64;
                gas -= n as u64;
                continue;
            }
            gas -= 1;
            if self.step(prog, mem, os)? == StepOutcome::Exited {
                return Ok(());
            }
        }
        Err(TrapKind::OutOfGas)
    }
}

/// A functional OS for testing: bump-allocator `malloc`, collected
/// `print_int`/`print_float` output, and **synchronous** MTTOP launches (each
/// thread of the task runs to completion, in tid order, inside the launch
/// syscall).
///
/// Synchronous launch means kernels that block on later CPU actions (e.g.
/// `cpu_mttop_barrier`) cannot be tested here — that is what the timing
/// machine is for. Data-parallel kernels (the common case) work fine.
#[derive(Clone, Debug, Default)]
pub struct FuncOs {
    /// Everything printed via `print_int` / `print_float`.
    pub printed: Vec<String>,
    next_heap: u64,
    next_ctx: u64,
}

impl FuncOs {
    /// Fresh OS state.
    pub fn new() -> FuncOs {
        FuncOs {
            printed: Vec::new(),
            next_heap: abi::HEAP_BASE,
            next_ctx: 64, // keep clear of CPU-thread stacks
        }
    }
}

impl Syscalls for FuncOs {
    fn syscall(
        &mut self,
        regs: &mut [u64; 32],
        mem: &mut FlatMem,
        prog: &Program,
    ) -> Result<(), TrapKind> {
        match regs[1] {
            sys::MALLOC => {
                let size = regs[2].max(1).next_multiple_of(8);
                regs[1] = self.next_heap;
                self.next_heap += size;
            }
            sys::FREE => {
                regs[1] = 0;
            }
            sys::PRINT_INT => {
                self.printed.push(format!("{}", regs[2] as i64));
                regs[1] = 0;
            }
            sys::PRINT_FLOAT => {
                self.printed.push(format!("{}", f64::from_bits(regs[2])));
                regs[1] = 0;
            }
            sys::MIFD_LAUNCH => {
                // Descriptor: {entry_pc, args_ptr, first_tid, last_tid}.
                let d = regs[2];
                let entry = mem.read(d, 8) as usize;
                let args = mem.read(d + 8, 8);
                let first = mem.read(d + 16, 8);
                let last = mem.read(d + 24, 8);
                // One decoded image for every thread of the launch.
                let image = DecodedImage::build(&prog.text);
                for tid in first..=last {
                    self.next_ctx += 1;
                    let mut t = Interp::new(entry, self.next_ctx);
                    t.regs[1] = tid;
                    t.regs[2] = args;
                    if let Some(kexit) = prog.lookup("__kexit") {
                        t.regs[crate::abi::RA.0 as usize] = kexit as u64;
                    }
                    t.run_decoded(prog, &image, mem, self, 200_000_000)?;
                }
                regs[1] = 0;
            }
            other => return Err(TrapKind::BadSyscall(other)),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble;

    fn run(src: &str) -> (Interp, FlatMem, FuncOs) {
        let p = assemble(src).unwrap();
        let mut mem = FlatMem::new();
        let mut os = FuncOs::new();
        let mut t = Interp::new(p.entry("main"), 0);
        t.run(&p, &mut mem, &mut os, 1_000_000).unwrap();
        (t, mem, os)
    }

    #[test]
    fn arithmetic_and_branches() {
        // Sum 1..=10 with a loop.
        let (t, _, _) = run("main:
                li r8, 0      ; sum
                li r9, 1      ; i
             loop:
                add r8, r8, r9
                add r9, r9, 1
                li r10, 10
                bge r10, r9, loop
                mv r1, r8
                exit");
        assert_eq!(t.regs[1], 55);
    }

    #[test]
    fn memory_roundtrip_and_subword() {
        let (t, mem, _) = run("main:
                li r8, 0x1000
                li r9, 0x11223344AABBCCDD
                st8 r9, 0(r8)
                ld4 r1, 4(r8)
                ld1 r2, 0(r8)
                exit");
        assert_eq!(t.regs[1], 0x11223344);
        assert_eq!(t.regs[2], 0xDD);
        assert_eq!(mem.read(0x1000, 8), 0x11223344AABBCCDD);
    }

    #[test]
    fn calls_and_stack() {
        let (t, _, _) = run("main:
                li r1, 5
                call double
                call double
                exit
             double:
                add r1, r1, r1
                ret");
        assert_eq!(t.regs[1], 20);
    }

    #[test]
    fn recursion_factorial() {
        let (t, _, _) = run("main:
                li r1, 6
                call fact
                exit
             fact:                 ; r1 = n -> r1 = n!
                li r8, 2
                bge r1, r8, rec
                li r1, 1
                ret
             rec:
                sub r30, r30, 16
                st8 r31, 0(r30)
                st8 r1, 8(r30)
                sub r1, r1, 1
                call fact
                ld8 r9, 8(r30)
                mul r1, r1, r9
                ld8 r31, 0(r30)
                add r30, r30, 16
                ret");
        assert_eq!(t.regs[1], 720);
    }

    #[test]
    fn float_pipeline() {
        let (t, _, _) = run("main:
                lif r8, 3.0
                lif r9, 4.0
                fmul r8, r8, r8
                fmul r9, r9, r9
                fadd r8, r8, r9
                fsqrt r1, r8
                exit");
        assert_eq!(f64::from_bits(t.regs[1]), 5.0);
    }

    #[test]
    fn atomics_functional() {
        let (t, mem, _) = run("main:
                li r8, 0x2000
                li r9, 41
                st8 r9, 0(r8)
                amoinc r1, (r8)
                li r10, 42
                li r11, 99
                amocas r2, (r8), r10, r11
                exit");
        assert_eq!(t.regs[1], 41);
        assert_eq!(t.regs[2], 42);
        assert_eq!(mem.read(0x2000, 8), 99);
    }

    #[test]
    fn syscalls_malloc_print() {
        let (t, _, os) = run("main:
                li r1, 2       ; MALLOC
                li r2, 64
                syscall
                mv r8, r1      ; buffer
                li r1, 4       ; PRINT_INT
                li r2, -7
                syscall
                mv r1, r8
                exit");
        assert_eq!(os.printed, vec!["-7"]);
        assert_eq!(t.regs[1], abi::HEAP_BASE);
    }

    #[test]
    fn synchronous_launch_runs_all_threads() {
        // Kernel: out[tid] = tid * 2; launch tids 0..=7.
        let (_, mem, _) = run("main:
                li r8, 0x3000      ; descriptor
                li r9, @kernel
                st8 r9, 0(r8)
                li r9, 0x4000      ; args ptr (the out array)
                st8 r9, 8(r8)
                st8 r0, 16(r8)     ; first
                li r9, 7
                st8 r9, 24(r8)     ; last
                li r1, 1           ; MIFD_LAUNCH
                mv r2, r8
                syscall
                exit
             kernel:                ; r1 = tid, r2 = out
                mul r8, r1, 2
                mul r9, r1, 8
                add r9, r2, r9
                st8 r8, 0(r9)
                exit");
        for tid in 0..8u64 {
            assert_eq!(mem.read(0x4000 + tid * 8, 8), tid * 2, "tid {tid}");
        }
    }

    #[test]
    fn traps() {
        let p = assemble("main: jmp main\n").unwrap();
        let mut t = Interp::new(0, 0);
        let r = t.run(&p, &mut FlatMem::new(), &mut FuncOs::new(), 10);
        assert_eq!(r, Err(TrapKind::OutOfGas));

        let p = assemble("main: li r1, 77\n syscall\n").unwrap();
        let mut t = Interp::new(0, 0);
        let r = t.run(&p, &mut FlatMem::new(), &mut FuncOs::new(), 10);
        assert_eq!(r, Err(TrapKind::BadSyscall(77)));

        let p = assemble("main: nop\n").unwrap();
        let mut t = Interp::new(0, 0);
        let r = t.run(&p, &mut FlatMem::new(), &mut FuncOs::new(), 10);
        assert_eq!(r, Err(TrapKind::BadPc(1)));
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let (t, _, _) = run("main:\n li r0, 99\n mv r1, r0\n exit\n");
        assert_eq!(t.regs[1], 0);
    }
}
