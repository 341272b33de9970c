//! Decoded-HIR superblocks: pre-resolved micro-ops and the program-wide
//! decoded image.
//!
//! Matching the [`Instr`] enum (and re-resolving its [`Operand`]s) per
//! instruction per lane dominates host time on compute-bound workloads. This
//! module decodes **straight-line runs** of timing-free instructions — from an
//! entry PC up to, but not including, the next control-flow or memory-timing
//! boundary — into [`MicroOp`]s that a core can execute with one bounds check
//! and no enum re-matching per retired instruction. The text section is
//! immutable and shared by every core, so it is decoded once, into a
//! [`DecodedImage`], and the cores read that by shared reference.
//!
//! # Superblock boundaries
//!
//! Only instructions that neither touch data memory nor redirect the PC are
//! decodable: [`Instr::Alu`], [`Instr::Li`], [`Instr::Fence`] and
//! [`Instr::Nop`]. Everything else — branches, jumps, calls, `syscall`,
//! `exit`, and all memory instructions (whose timing flows through the TLB and
//! cache hierarchy) — terminates the block and executes on the core's ordinary
//! path. A superblock therefore never carries timing or trap side effects of
//! its own: executing its micro-ops one at a time is architecturally identical
//! to interpreting the corresponding `Instr`s one at a time.
//!
//! # Determinism
//!
//! The image is a pure host-side function of the program text. Cores still
//! charge time and retire counters per instruction exactly as on the
//! per-instruction path, and no decoded state is ever serialized. Its
//! counters live in [`SbStats`], outside the architectural `Stats`, so
//! `RunReport`s are bit-identical with the fast path on or off.
//!
//! # The `r0` invariant
//!
//! [`MicroOp::exec`] reads source registers without the `r == 0` guard the
//! slow paths use. This is sound because every writer in the system (cores,
//! interpreter, syscall glue) already refuses to write `r0`, so `regs[0]` is
//! invariantly zero; the decoder additionally turns any instruction *writing*
//! `r0` into [`MicroOp::Skip`], which preserves the invariant from inside the
//! fast path itself.

use std::time::Instant;

use crate::instr::{AluOp, Instr, Operand};

/// A pre-resolved micro-op. `Instr` operands (`Reg` wrappers, `Operand`
/// register/immediate split) are flattened at decode time so execution is a
/// couple of array indexes and one `AluOp::apply`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MicroOp {
    /// `regs[rd] = op(regs[ra], regs[rb])` — `rd != 0`.
    AluRR {
        /// Operation.
        op: AluOp,
        /// Destination register index (never 0).
        rd: u8,
        /// First source register index.
        ra: u8,
        /// Second source register index.
        rb: u8,
    },
    /// `regs[rd] = op(regs[ra], imm)` — `rd != 0`.
    AluRI {
        /// Operation.
        op: AluOp,
        /// Destination register index (never 0).
        rd: u8,
        /// First source register index.
        ra: u8,
        /// Pre-converted immediate.
        imm: u64,
    },
    /// `regs[rd] = imm` — `rd != 0`.
    Li {
        /// Destination register index (never 0).
        rd: u8,
        /// Pre-converted immediate.
        imm: u64,
    },
    /// Architectural no-op: `fence`, `nop`, or any ALU/`li` writing `r0`.
    Skip,
}

impl MicroOp {
    /// Executes the micro-op over a register file. The caller advances the PC
    /// and charges time; this only performs the architectural register write.
    #[inline(always)]
    pub fn exec(self, regs: &mut [u64; 32]) {
        debug_assert_eq!(regs[0], 0, "r0 invariant violated");
        match self {
            MicroOp::AluRR { op, rd, ra, rb } => {
                regs[rd as usize] = op.apply(regs[ra as usize], regs[rb as usize]);
            }
            MicroOp::AluRI { op, rd, ra, imm } => {
                regs[rd as usize] = op.apply(regs[ra as usize], imm);
            }
            MicroOp::Li { rd, imm } => regs[rd as usize] = imm,
            MicroOp::Skip => {}
        }
    }

    /// Executes the micro-op over every register file yielded by `regs` —
    /// the SIMT case. Semantically identical to calling [`MicroOp::exec`] per
    /// file; the point is that the enum dispatch happens once per warp-op
    /// instead of once per lane.
    #[inline(always)]
    pub fn exec_all<'a, I: IntoIterator<Item = &'a mut [u64; 32]>>(self, regs: I) {
        match self {
            MicroOp::AluRR { op, rd, ra, rb } => {
                for r in regs {
                    debug_assert_eq!(r[0], 0, "r0 invariant violated");
                    r[rd as usize] = op.apply(r[ra as usize], r[rb as usize]);
                }
            }
            MicroOp::AluRI { op, rd, ra, imm } => {
                for r in regs {
                    debug_assert_eq!(r[0], 0, "r0 invariant violated");
                    r[rd as usize] = op.apply(r[ra as usize], imm);
                }
            }
            MicroOp::Li { rd, imm } => {
                for r in regs {
                    r[rd as usize] = imm;
                }
            }
            MicroOp::Skip => {}
        }
    }
}

/// The micro-op for `instr`, or `None` if it may not appear inside a
/// superblock (memory timing, control flow, traps).
fn decode_one(instr: &Instr) -> Option<MicroOp> {
    Some(match *instr {
        Instr::Alu { op, rd, ra, rb } => {
            if rd.0 == 0 {
                MicroOp::Skip
            } else {
                match rb {
                    Operand::Reg(r) => MicroOp::AluRR {
                        op,
                        rd: rd.0,
                        ra: ra.0,
                        rb: r.0,
                    },
                    Operand::Imm(i) => MicroOp::AluRI {
                        op,
                        rd: rd.0,
                        ra: ra.0,
                        imm: i as u64,
                    },
                }
            }
        }
        Instr::Li { rd, imm } => {
            if rd.0 == 0 {
                MicroOp::Skip
            } else {
                MicroOp::Li {
                    rd: rd.0,
                    imm: imm as u64,
                }
            }
        }
        Instr::Fence | Instr::Nop => MicroOp::Skip,
        _ => return None,
    })
}

/// Decodes the straight-line run starting at `entry`. Empty iff the entry
/// instruction is itself a boundary (or the PC is outside the text).
pub fn decode_run(text: &[Instr], entry: usize) -> Vec<MicroOp> {
    let mut ops = Vec::new();
    if let Some(tail) = text.get(entry..) {
        for instr in tail {
            match decode_one(instr) {
                Some(op) => ops.push(op),
                None => break,
            }
        }
    }
    ops
}

/// Host-side decoded-image counters (never part of `Stats`/`RunReport`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SbStats {
    /// Straight-line runs the cores entered through the image.
    pub hits: u64,
    /// Maximal straight-line runs the image build decoded.
    pub misses: u64,
    /// Micro-ops the image build produced.
    pub decoded_ops: u64,
    /// Host nanoseconds the image build took.
    pub decode_ns: u64,
}

impl SbStats {
    /// Mean micro-ops per maximal run (0.0 if nothing was decoded).
    pub fn mean_decoded_len(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.decoded_ops as f64 / self.misses as f64
        }
    }
}

/// A whole text section, decoded once: `ops` is parallel to the text and
/// `run[pc]` is the length of the straight-line run that starts at `pc` (0 at
/// a boundary instruction). The superblock entered at *any* PC is therefore
/// the slice `ops[pc..pc + run[pc]]` — a mid-run entry (a quantum deadline or
/// a branch target inside a longer run) is a suffix of the same storage.
#[derive(Debug)]
pub struct DecodedImage {
    /// One slot per instruction; boundary slots hold an unreachable filler.
    ops: Vec<MicroOp>,
    run: Vec<u32>,
    built: SbStats,
}

impl DecodedImage {
    /// Decodes `text` in one backward pass: a decodable instruction extends
    /// the run that starts right after it, a boundary resets it.
    pub fn build(text: &[Instr]) -> DecodedImage {
        let t0 = Instant::now();
        assert!(u32::try_from(text.len()).is_ok(), "text exceeds u32 PCs");
        let mut ops = vec![MicroOp::Skip; text.len()];
        let mut run = vec![0u32; text.len()];
        let mut built = SbStats::default();
        let mut len = 0;
        for (pc, instr) in text.iter().enumerate().rev() {
            len = match decode_one(instr) {
                Some(op) => {
                    ops[pc] = op;
                    built.misses += u64::from(len == 0);
                    built.decoded_ops += 1;
                    len + 1
                }
                None => 0,
            };
            run[pc] = len;
        }
        built.decode_ns = t0.elapsed().as_nanos() as u64;
        DecodedImage { ops, run, built }
    }

    /// The superblock entered at `pc`: empty iff `pc` is a boundary
    /// instruction or outside the text.
    #[inline]
    pub fn run_at(&self, pc: usize) -> &[MicroOp] {
        match self.run.get(pc) {
            Some(&len) => &self.ops[pc..pc + len as usize],
            None => &[],
        }
    }

    /// The micro-op at `pc`, or `None` if `pc` is a boundary instruction or
    /// outside the text: `run_at(pc).first()` without building the slice.
    #[inline]
    pub fn op_at(&self, pc: usize) -> Option<MicroOp> {
        match self.run.get(pc) {
            Some(&len) if len > 0 => Some(self.ops[pc]),
            _ => None,
        }
    }

    /// What the build decoded and how long it took (`hits` is zero: run
    /// entries are counted by whoever executes them).
    pub fn build_stats(&self) -> SbStats {
        self.built
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble;

    fn prog(src: &str) -> crate::Program {
        assemble(src).unwrap()
    }

    #[test]
    fn decode_stops_at_boundaries() {
        let p = prog(
            "main:
                li r1, 6
                mul r1, r1, 7
                fence
                nop
                st8 r1, 0(r2)
                exit",
        );
        let ops = decode_run(&p.text, 0);
        assert_eq!(ops.len(), 4, "run ends before the store");
        assert_eq!(ops[0], MicroOp::Li { rd: 1, imm: 6 });
        assert!(matches!(
            ops[1],
            MicroOp::AluRI {
                op: AluOp::Mul,
                rd: 1,
                ra: 1,
                imm: 7
            }
        ));
        assert_eq!(ops[2], MicroOp::Skip);
        assert_eq!(ops[3], MicroOp::Skip);
        assert_eq!(decode_run(&p.text, 4).len(), 0, "entry on a boundary");
        assert_eq!(decode_run(&p.text, 99).len(), 0, "entry out of range");
    }

    #[test]
    fn image_slices_runs_at_any_pc() {
        let p = prog(
            "main:
                li r1, 6
                mul r1, r1, 7
                fence
                st8 r1, 0(r2)
                li r3, 1
                exit",
        );
        let image = DecodedImage::build(&p.text);
        for pc in 0..p.text.len() + 2 {
            assert_eq!(image.run_at(pc), &decode_run(&p.text, pc)[..], "pc {pc}");
            let first = image.run_at(pc).first().copied();
            assert_eq!(image.op_at(pc), first, "pc {pc}");
        }
        assert_eq!(image.run_at(0).len(), 3);
        assert_eq!(image.run_at(2), &[MicroOp::Skip], "a suffix of run 0");
        for pc in [3, 5, 6, usize::MAX] {
            assert!(image.run_at(pc).is_empty(), "boundary or outside: {pc}");
        }
        let built = image.build_stats();
        assert_eq!((built.hits, built.misses, built.decoded_ops), (0, 2, 4));
        assert!((built.mean_decoded_len() - 2.0).abs() < 1e-9);

        let empty = DecodedImage::build(&[]);
        assert!(empty.run_at(0).is_empty());
        assert_eq!(empty.build_stats().decoded_ops, 0);
    }

    #[test]
    fn writes_to_r0_become_skips() {
        let p = prog(
            "main:
                li r0, 99
                add r0, r1, r2
                exit",
        );
        let ops = decode_run(&p.text, 0);
        assert_eq!(ops, vec![MicroOp::Skip, MicroOp::Skip]);
        let mut regs = [0u64; 32];
        regs[1] = 5;
        regs[2] = 7;
        for op in ops {
            op.exec(&mut regs);
        }
        assert_eq!(regs[0], 0, "r0 stays hardwired zero");
    }

    #[test]
    fn exec_matches_interpreter_semantics() {
        // Differential check: every decodable instruction form, micro-op exec
        // vs `Interp::step`.
        let src = "main:
                li r1, -3
                li r2, 10
                add r3, r1, r2
                sub r4, r2, 5
                mul r5, r3, r4
                div r6, r5, r1
                and r7, r2, 6
                shl r8, r2, r1
                slt r9, r1, r2
                lif r10, 2.0
                fmul r11, r10, r10
                fsqrt r12, r11
                mv r13, r12
                fence
                nop
                exit";
        let p = prog(src);
        let mut interp = crate::Interp::new(0, 0);
        let mut mem = crate::FlatMem::new();
        let mut os = crate::FuncOs::new();
        let ops = decode_run(&p.text, 0);
        assert_eq!(ops.len(), p.text.len() - 1, "everything but exit decodes");

        let mut regs = interp.regs;
        for op in &ops {
            op.exec(&mut regs);
        }
        interp.run(&p, &mut mem, &mut os, 1000).unwrap();
        assert_eq!(regs, interp.regs);
    }

    #[test]
    fn unary_ops_ignore_second_operand_source() {
        // `fsqrt r1, r2` decodes with an arbitrary rb; exec must match apply.
        let p = prog("main:\n fsqrt r1, r2\n exit\n");
        let ops = decode_run(&p.text, 0);
        let mut regs = [0u64; 32];
        regs[2] = 9.0f64.to_bits();
        ops[0].exec(&mut regs);
        assert_eq!(f64::from_bits(regs[1]), 3.0);
    }
}
