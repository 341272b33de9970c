//! HIR — the heterogeneous intermediate ISA shared by CPU and MTTOP cores.
//!
//! The paper's simulated chip runs x86 on the CPU cores and an "Alpha-like
//! ISA that has been modified to be data parallel" (similar to PTX) on the
//! MTTOP cores, and explicitly factors core pipelines out of the evaluation
//! (§5.1). This reproduction uses **one** RISC-like 64-bit ISA for both core
//! types — executed scalar on CPUs and SIMT (8 lanes/warp) on MTTOPs — which
//! preserves the property the paper actually measures: the instruction and
//! memory streams that drive the coherent memory system.
//!
//! The crate provides:
//!
//! * [`Instr`] and friends — the instruction set: 64-bit integer & IEEE-754
//!   double ALU ops, 1/2/4/8-byte loads/stores, the paper's §3.2.4 atomics
//!   (`cas`, `add`, `inc`, `dec`, `exch`), branches, direct/indirect calls,
//!   `syscall` (CPU only), `fence`, and `exit`.
//! * [`Instr::step_regs`], [`Instr::mem_operand`] and [`MemOperand`] — each
//!   instruction's architectural effect, written once for the CPU and MTTOP
//!   timing cores.
//! * [`assemble`] — a text assembler with labels (and `Display`-based
//!   disassembly on every instruction).
//! * [`Program`] — the executable image: one text section holding both CPU
//!   and MTTOP code (as in the paper's toolchain, Figure 2) plus symbols.
//! * [`Interp`] — a *functional* reference interpreter over flat memory, used
//!   to test the compiler and as the semantic oracle for the timing cores.
//!
//! # Registers and ABI
//!
//! 32 general 64-bit registers. `r0` reads as zero. The xthreads ABI:
//! `r1`–`r6` arguments / `r1` return value, `r8`–`r27` temporaries,
//! `r29` frame pointer, `r30` stack pointer, `r31` return address.
//! Floating point uses the same registers (IEEE-754 bit patterns).

#![forbid(unsafe_code)]

mod asm;
mod instr;
mod interp;
mod program;
mod semantics;

pub mod abi;
pub mod decode;
pub mod sys;

pub use asm::{assemble, AsmError};
pub use decode::{decode_run, DecodedImage, MicroOp, SbStats};
pub use instr::{AluOp, AmoKind, Cond, Instr, Operand, Reg};
pub use interp::{FlatMem, FuncOs, Interp, StepOutcome, Syscalls, TrapKind};
pub use program::Program;
pub use semantics::MemOperand;
