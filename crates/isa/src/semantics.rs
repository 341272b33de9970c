//! Each instruction's architectural effect, written once for both timing
//! cores (DESIGN §11.5).
//!
//! The CPU and the MTTOP cores charge time differently but change
//! architectural state the same way. [`Instr::step_regs`] applies a
//! register-only instruction to one register file and returns the next PC;
//! [`Instr::mem_operand`] forms a memory instruction's effective address and
//! operands; [`Reg::read`] and [`Reg::write`] are the `r0`-guarded register
//! accessors. Each core keeps only its timing around these.
//!
//! [`crate::Interp`] deliberately does not use them: it is the independent
//! reference that `tests/semantics.rs` compares them against, instruction by
//! instruction.

use crate::abi;
use crate::instr::{AmoKind, Instr, Operand, Reg};

impl Reg {
    /// The value of this register in `regs`: `r0` reads as zero.
    #[inline]
    pub fn read(self, regs: &[u64; 32]) -> u64 {
        if self.0 == 0 {
            0
        } else {
            regs[self.0 as usize]
        }
    }

    /// Writes `v` to this register in `regs`; a write to `r0` is dropped.
    #[inline]
    pub fn write(self, regs: &mut [u64; 32], v: u64) {
        if self.0 != 0 {
            regs[self.0 as usize] = v;
        }
    }
}

/// A memory instruction's operation with its register operands read: what
/// a core carries from issue until the access completes and retires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemOperand {
    /// Load `size` bytes into `rd`.
    Ld {
        /// Destination.
        rd: Reg,
        /// 1, 2, 4 or 8.
        size: u8,
    },
    /// Store the low `size` bytes of `value`.
    St {
        /// 1, 2, 4 or 8.
        size: u8,
        /// The source register's value.
        value: u64,
    },
    /// Atomic `op` on the 8-byte word; `rd` gets the old value.
    Amo {
        /// Destination (old value).
        rd: Reg,
        /// Which RMW.
        op: AmoKind,
        /// First operand's value (addend / exchange value / CAS expected).
        a: u64,
        /// Second operand's value (CAS replacement).
        b: u64,
    },
}

impl Instr {
    /// Applies a register-only instruction at `pc` to `regs` and returns
    /// the next PC: `Alu`, `Li`, `Br`, `Jmp`, `JmpReg`, `Call`, `CallReg`,
    /// `Fence` and `Nop`. Returns `None`, with `regs` untouched, for memory
    /// instructions, `syscall` and `exit`, whose effect needs the memory
    /// system or the machine.
    #[inline]
    pub fn step_regs(&self, regs: &mut [u64; 32], pc: usize) -> Option<usize> {
        let next = pc + 1;
        Some(match *self {
            Instr::Alu { op, rd, ra, rb } => {
                let b = match rb {
                    Operand::Reg(r) => r.read(regs),
                    Operand::Imm(i) => i as u64,
                };
                rd.write(regs, op.apply(ra.read(regs), b));
                next
            }
            Instr::Li { rd, imm } => {
                rd.write(regs, imm as u64);
                next
            }
            Instr::Br {
                cond,
                ra,
                rb,
                target,
            } => {
                if cond.test(ra.read(regs), rb.read(regs)) {
                    target
                } else {
                    next
                }
            }
            Instr::Jmp { target } => target,
            Instr::JmpReg { rs } => rs.read(regs) as usize,
            Instr::Call { target } => {
                abi::RA.write(regs, next as u64);
                target
            }
            Instr::CallReg { rs } => {
                let target = rs.read(regs) as usize;
                abi::RA.write(regs, next as u64);
                target
            }
            Instr::Fence | Instr::Nop => next,
            Instr::Ld { .. }
            | Instr::St { .. }
            | Instr::Amo { .. }
            | Instr::Syscall
            | Instr::Exit => return None,
        })
    }

    /// A memory instruction's effective (virtual) address and operands,
    /// read from `regs`; `None` for every other instruction.
    #[inline]
    pub fn mem_operand(&self, regs: &[u64; 32]) -> Option<(u64, MemOperand)> {
        Some(match *self {
            Instr::Ld {
                rd,
                base,
                off,
                size,
            } => (
                base.read(regs).wrapping_add(off as u64),
                MemOperand::Ld { rd, size },
            ),
            Instr::St {
                rs,
                base,
                off,
                size,
            } => (
                base.read(regs).wrapping_add(off as u64),
                MemOperand::St {
                    size,
                    value: rs.read(regs),
                },
            ),
            Instr::Amo { op, rd, addr, a, b } => (
                addr.read(regs),
                MemOperand::Amo {
                    rd,
                    op,
                    a: a.read(regs),
                    b: b.read(regs),
                },
            ),
            _ => return None,
        })
    }
}
