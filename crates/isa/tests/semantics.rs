//! The instruction semantics both timing cores share — `Instr::step_regs`,
//! `Instr::mem_operand` and the `r0`-guarded `Reg::read`/`Reg::write` —
//! against the reference interpreter, one instruction at a time.
//!
//! Every register-only and memory instruction shape runs from seeded random
//! register files through the shared functions and through `Interp::step`.
//! A register-only instruction must leave the same register file and next
//! PC. A memory instruction must name the address the interpreter touches
//! and carry the operand values it uses: its effect, retired the way a core
//! retires it (the access's value written to the destination with
//! `Reg::write`), must match the interpreter's registers and memory.

use ccsvm_isa::{
    abi, AluOp, AmoKind, Cond, FlatMem, FuncOs, Instr, Interp, MemOperand, Operand, Program, Reg,
    StepOutcome,
};

/// SplitMix64: register files and instruction fields, reproducible per seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Any register, `r0` included.
    fn reg(&mut self) -> Reg {
        Reg(self.below(32) as u8)
    }

    /// Any register but `r0`.
    fn nonzero_reg(&mut self) -> Reg {
        Reg(1 + self.below(31) as u8)
    }

    /// A register file with `r0 = 0`: full-width values, small integers and
    /// repeats, so comparisons see negatives, equality and both orders.
    fn regs(&mut self) -> [u64; 32] {
        let mut regs = [0; 32];
        for i in 1..32 {
            regs[i] = match self.below(3) {
                0 => self.next(),
                1 => self.below(8),
                _ => regs[self.below(i as u64) as usize],
            };
        }
        regs
    }
}

const PC: usize = 7;

const ALU_OPS: [AluOp; 31] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Rem,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::Shr,
    AluOp::Sar,
    AluOp::Slt,
    AluOp::Sltu,
    AluOp::Seq,
    AluOp::Sne,
    AluOp::Sle,
    AluOp::Sgt,
    AluOp::FAdd,
    AluOp::FSub,
    AluOp::FMul,
    AluOp::FDiv,
    AluOp::FMin,
    AluOp::FMax,
    AluOp::FSqrt,
    AluOp::FNeg,
    AluOp::FAbs,
    AluOp::I2F,
    AluOp::F2I,
    AluOp::FLt,
    AluOp::FLe,
    AluOp::FEq,
];

const CONDS: [Cond; 6] = [
    Cond::Eq,
    Cond::Ne,
    Cond::LtS,
    Cond::GeS,
    Cond::LtU,
    Cond::GeU,
];

const AMOS: [AmoKind; 5] = [
    AmoKind::Cas,
    AmoKind::Add,
    AmoKind::Inc,
    AmoKind::Dec,
    AmoKind::Exch,
];

/// One reference step of `instr` at [`PC`] from `regs` over `mem`.
fn reference(instr: Instr, regs: [u64; 32], mem: &mut FlatMem) -> Interp {
    let mut text = vec![Instr::Nop; PC];
    text.push(instr);
    let prog = Program {
        text,
        ..Program::default()
    };
    let mut t = Interp {
        regs,
        pc: PC,
        icount: 0,
    };
    let out = t.step(&prog, mem, &mut FuncOs::new());
    assert_eq!(out, Ok(StepOutcome::Continue), "{instr}");
    t
}

/// One of every register-only shape, with random registers: each ALU op
/// with a register and an immediate operand and into `r0`, `li`, every
/// branch condition (also on one register twice), jumps, calls (`callr`
/// through `RA` itself), `fence` and `nop`.
fn register_only_shapes(rng: &mut Rng) -> Vec<Instr> {
    let mut shapes = Vec::new();
    for op in ALU_OPS {
        let (ra, rb) = (rng.reg(), rng.reg());
        for rd in [rng.reg(), Reg::ZERO] {
            shapes.push(Instr::Alu {
                op,
                rd,
                ra,
                rb: Operand::Reg(rb),
            });
        }
        shapes.push(Instr::Alu {
            op,
            rd: rng.reg(),
            ra,
            rb: Operand::Imm(rng.next() as i64 >> rng.below(64)),
        });
    }
    for rd in [rng.reg(), Reg::ZERO] {
        shapes.push(Instr::Li {
            rd,
            imm: rng.next() as i64,
        });
    }
    for cond in CONDS {
        let target = rng.below(1000) as usize;
        let ra = rng.reg();
        for rb in [rng.reg(), ra, Reg::ZERO] {
            shapes.push(Instr::Br {
                cond,
                ra,
                rb,
                target,
            });
        }
    }
    let target = rng.below(1000) as usize;
    shapes.extend([
        Instr::Jmp { target },
        Instr::JmpReg { rs: rng.reg() },
        Instr::Call { target },
        Instr::CallReg { rs: rng.reg() },
        Instr::CallReg { rs: abi::RA },
        Instr::CallReg { rs: Reg::ZERO },
        Instr::Fence,
        Instr::Nop,
    ]);
    shapes
}

/// One of every memory shape, with random registers: loads and stores of
/// every size (loads also into `r0`, addresses also off `r0`), and every
/// atomic (also into `r0`).
fn memory_shapes(rng: &mut Rng) -> Vec<Instr> {
    let mut shapes = Vec::new();
    for size in [1, 2, 4, 8] {
        let off = rng.below(8192) as i64 - 4096;
        for rd in [rng.reg(), Reg::ZERO] {
            shapes.push(Instr::Ld {
                rd,
                base: rng.nonzero_reg(),
                off,
                size,
            });
        }
        shapes.push(Instr::Ld {
            rd: rng.reg(),
            base: Reg::ZERO,
            off: off.abs(),
            size,
        });
        shapes.push(Instr::St {
            rs: rng.reg(),
            base: rng.nonzero_reg(),
            off,
            size,
        });
    }
    for op in AMOS {
        for rd in [rng.reg(), Reg::ZERO] {
            shapes.push(Instr::Amo {
                op,
                rd,
                addr: rng.reg(),
                a: rng.reg(),
                b: rng.reg(),
            });
        }
    }
    shapes
}

/// Gives `instr`'s base or address register a value that keeps the
/// effective address well inside the 64-bit space (a load off `r0` has a
/// non-negative offset, an atomic on `r0` addresses 0).
fn with_addressable_base(instr: Instr, regs: &mut [u64; 32], rng: &mut Rng) {
    let (Instr::Ld { base, .. } | Instr::St { base, .. } | Instr::Amo { addr: base, .. }) = instr
    else {
        unreachable!("memory shapes only");
    };
    if base != Reg::ZERO {
        regs[base.0 as usize] = 0x10_0000 + rng.below(1 << 40);
    }
}

/// What an atomic leaves in memory: the specification the interpreter and
/// the memory system's `AtomicOp` both implement.
fn amo_result(op: AmoKind, old: u64, a: u64, b: u64) -> u64 {
    match op {
        AmoKind::Cas if old == a => b,
        AmoKind::Cas => old,
        AmoKind::Add => old.wrapping_add(a),
        AmoKind::Inc => old.wrapping_add(1),
        AmoKind::Dec => old.wrapping_sub(1),
        AmoKind::Exch => a,
    }
}

#[test]
fn register_only_instructions_match_the_reference() {
    let mut rng = Rng(0x5EED_0001);
    for _ in 0..200 {
        let regs = rng.regs();
        for instr in register_only_shapes(&mut rng) {
            assert_eq!(instr.mem_operand(&regs), None, "{instr}");
            let mut shared = regs;
            let next = instr.step_regs(&mut shared, PC).expect("register-only");
            let t = reference(instr, regs, &mut FlatMem::new());
            assert_eq!((next, shared), (t.pc, t.regs), "{instr} from {regs:?}");
            assert_eq!(shared[0], 0, "{instr} wrote r0");
        }
    }
}

#[test]
fn memory_instructions_name_the_reference_address_and_operands() {
    let mut rng = Rng(0x5EED_0002);
    for _ in 0..200 {
        let base_regs = rng.regs();
        for instr in memory_shapes(&mut rng) {
            let mut regs = base_regs;
            with_addressable_base(instr, &mut regs, &mut rng);
            let mut untouched = regs;
            assert_eq!(instr.step_regs(&mut untouched, PC), None, "{instr}");
            assert_eq!(untouched, regs, "{instr}: step_regs wrote registers");
            let (va, operand) = instr.mem_operand(&regs).expect("memory instruction");

            // The word at the effective address; a CAS sometimes finds its
            // expected value there.
            let mut old = rng.next();
            if let MemOperand::Amo { a, .. } = operand {
                if rng.below(2) == 0 {
                    old = a;
                }
            }
            let mut mem = FlatMem::new();
            mem.write(va, 8, old);
            let t = reference(instr, regs, &mut mem);

            // Retire it as a core does: the access's value goes to the
            // destination, and the PC advances by one.
            let mut expected = FlatMem::new();
            expected.write(va, 8, old);
            match operand {
                MemOperand::Ld { rd, size } => {
                    rd.write(&mut regs, expected.read(va, size));
                }
                MemOperand::St { size, value } => expected.write(va, size, value),
                MemOperand::Amo { rd, op, a, b } => {
                    rd.write(&mut regs, old);
                    expected.write(va, 8, amo_result(op, old, a, b));
                }
            }
            assert_eq!((t.pc, t.regs), (PC + 1, regs), "{instr}");
            assert_eq!(mem.read(va, 8), expected.read(va, 8), "{instr} at {va:#x}");
        }
    }
}

#[test]
fn r0_reads_zero_and_drops_writes() {
    let mut regs = [7; 32];
    assert_eq!(Reg::ZERO.read(&regs), 0);
    Reg::ZERO.write(&mut regs, 9);
    assert_eq!(regs[0], 7, "a write to r0 touches no storage");
    Reg(5).write(&mut regs, 9);
    assert_eq!(Reg(5).read(&regs), 9);
}

#[test]
fn syscall_and_exit_are_left_to_the_core() {
    let mut regs = Rng(3).regs();
    let before = regs;
    for instr in [Instr::Syscall, Instr::Exit] {
        assert_eq!(instr.step_regs(&mut regs, PC), None);
        assert_eq!(instr.mem_operand(&regs), None);
        assert_eq!(regs, before);
    }
}
