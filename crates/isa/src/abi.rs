//! The xthreads calling convention and address-space layout constants.

use crate::Reg;

/// Hardwired zero.
pub const ZERO: Reg = Reg(0);
/// First argument / return value.
pub const A0: Reg = Reg(1);
/// Second argument.
pub const A1: Reg = Reg(2);
/// Third argument.
pub const A2: Reg = Reg(3);
/// Fourth argument.
pub const A3: Reg = Reg(4);
/// Fifth argument.
pub const A4: Reg = Reg(5);
/// Sixth argument.
pub const A5: Reg = Reg(6);
/// First caller-saved temporary; `T0..=T_LAST` form the expression stack.
pub const T0: Reg = Reg(8);
/// Last caller-saved temporary.
pub const T_LAST: Reg = Reg(27);
/// Frame pointer.
pub const FP: Reg = Reg(29);
/// Stack pointer (grows down, 8-byte aligned).
pub const SP: Reg = Reg(30);
/// Return address (written by `call`).
pub const RA: Reg = Reg(31);

/// Virtual address of the global/data segment base.
pub const DATA_BASE: u64 = 0x1000_0000;
/// Virtual address of the heap base.
pub const HEAP_BASE: u64 = 0x4000_0000;
/// Heap capacity in bytes.
pub const HEAP_LEN: u64 = 0x2000_0000; // 512 MiB
/// Virtual base of the per-thread stack area.
pub const STACK_BASE: u64 = 0x7000_0000;
/// Bytes of stack per hardware thread context.
pub const STACK_BYTES: u64 = 64 * 1024;

/// Top-of-stack (initial SP) for hardware thread context `ctx`.
///
/// Contexts are numbered CPU threads first, then MTTOP contexts; the 16-byte
/// red zone keeps a full descending stack off the next thread's region.
pub fn stack_top(ctx: u64) -> u64 {
    STACK_BASE + (ctx + 1) * STACK_BYTES - 16
}

/// The register file a thread starts with on hardware context `ctx`: `a0`
/// and `a1` in the first two argument registers, the context's stack top in
/// the stack and frame pointers, and `ra` as its return address.
pub fn start_regs(ctx: u64, a0: u64, a1: u64, ra: u64) -> [u64; 32] {
    let mut regs = [0; 32];
    regs[A0.0 as usize] = a0;
    regs[A1.0 as usize] = a1;
    regs[SP.0 as usize] = stack_top(ctx);
    regs[FP.0 as usize] = stack_top(ctx);
    regs[RA.0 as usize] = ra;
    regs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_tops_are_disjoint_and_aligned() {
        let a = stack_top(0);
        let b = stack_top(1);
        assert_eq!(a % 8, 0);
        assert_eq!(b - a, STACK_BYTES);
        assert!(a > STACK_BASE);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // compile-time layout sanity check
    fn regions_do_not_overlap() {
        assert!(DATA_BASE < HEAP_BASE);
        assert!(HEAP_BASE + HEAP_LEN <= STACK_BASE);
    }
}
