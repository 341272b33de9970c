//! The paper's evaluation benchmarks (§5.2–§5.3) as XC programs.
//!
//! Each module provides:
//!
//! * XC source generators for the **xthreads/CCSVM** version and the
//!   baselines the paper compares against (single-CPU, and pthreads-style
//!   multi-CPU for Barnes-Hut);
//! * a deterministic **Rust reference** used to validate guest results;
//! * the checksum convention: programs return a checksum as `main`'s exit
//!   code, so validation never perturbs timing.
//!
//! # Timing markers
//!
//! The paper's figures measure the offload region (launch + execution +
//! synchronization), not program setup. Programs bracket the region of
//! interest with `print_int(MARK_START)` / `print_int(MARK_END)`; harnesses
//! read the timestamps of those prints from the run report
//! ([`region_time`]). Input initialization (the benchmarks' `rand()` loops)
//! happens *before* the start mark, checksums after the end mark — matching
//! the paper's "runtime without compilation and initialization" accounting
//! for its own system.
//!
//! # Determinism
//!
//! Guest-side input initialization uses a 64-bit LCG ([`LCG_MUL`],
//! [`LCG_ADD`]) implemented identically in XC (wrapping integer multiply)
//! and in the Rust references, so reference results match bit-for-bit.

#![forbid(unsafe_code)]

pub mod apsp;
pub mod barnes_hut;
pub mod matmul;
pub mod spmm;
pub mod vecadd;

/// Marker printed at the start of the timed region.
pub const MARK_START: i64 = -7_000_001;
/// Marker printed at the end of the timed region.
pub const MARK_END: i64 = -7_000_002;

/// LCG multiplier (Knuth MMIX).
pub const LCG_MUL: i64 = 6364136223846793005;
/// LCG increment.
pub const LCG_ADD: i64 = 1442695040888963407;

/// Advances the LCG (Rust side; the XC side is `x * LCG_MUL + LCG_ADD`).
pub fn lcg_next(x: u64) -> u64 {
    x.wrapping_mul(LCG_MUL as u64).wrapping_add(LCG_ADD as u64)
}

/// XC snippet defining the LCG constants (include once per program).
pub fn lcg_xc() -> String {
    format!("const LCG_MUL = {LCG_MUL};\nconst LCG_ADD = {LCG_ADD};\n")
}

/// Extracts the `[MARK_START, MARK_END]` region duration from a run's
/// `(printed, printed_at)` pair. Returns the full runtime when markers are
/// absent.
pub fn region_time(
    printed: &[String],
    printed_at: &[ccsvm_engine::Time],
    full: ccsvm_engine::Time,
) -> ccsvm_engine::Time {
    let start = printed.iter().position(|s| s == &MARK_START.to_string());
    let end = printed.iter().position(|s| s == &MARK_END.to_string());
    match (start, end) {
        (Some(s), Some(e)) if e > s => printed_at[e] - printed_at[s],
        _ => full,
    }
}

/// Region-only DRAM accesses between the `[MARK_START, MARK_END]` prints;
/// falls back to `total` when markers are absent.
pub fn region_dram(printed: &[String], dram_at_print: &[u64], total: u64) -> u64 {
    let start = printed.iter().position(|s| s == &MARK_START.to_string());
    let end = printed.iter().position(|s| s == &MARK_END.to_string());
    match (start, end) {
        (Some(s), Some(e)) if e > s => dram_at_print[e] - dram_at_print[s],
        _ => total,
    }
}

use ccsvm_isa::Program;

/// Compiles an xthreads workload source.
///
/// # Panics
///
/// Panics on compile errors — workload sources are generated, so an error is
/// a bug in this crate.
pub fn build(source: &str) -> Program {
    ccsvm_xthreads::build(source)
        .unwrap_or_else(|e| panic!("workload failed to compile: {e}\n{source}"))
}

/// Runs a workload functionally (reference interpreter, synchronous
/// launches) and returns `main`'s exit value. Used as the semantic oracle
/// for workloads whose arithmetic is awkward to re-derive in Rust
/// (Barnes-Hut's float traversal order).
///
/// # Panics
///
/// Panics if the program traps or exceeds `max_steps`.
pub fn run_functional(source: &str, max_steps: u64) -> u64 {
    let p = build(source);
    let mut mem = ccsvm_isa::FlatMem::new();
    let mut os = ccsvm_isa::FuncOs::new();
    let mut t = ccsvm_isa::Interp::new(p.entry("__start"), 0);
    t.run(&p, &mut mem, &mut os, max_steps)
        .unwrap_or_else(|e| panic!("functional run trapped: {e:?}"));
    t.regs[1]
}
