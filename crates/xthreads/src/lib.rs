//! The **xthreads** programming model (paper §4).
//!
//! xthreads extends pthreads so a CPU thread can spawn threads on MTTOP
//! cores. This crate provides the runtime library — written in XC, exactly
//! as the paper's library sits above its ISA — implementing Table 1:
//!
//! | Called by | Function | Paper name |
//! |---|---|---|
//! | CPU | `xt_create_mthread(f, args, first, last)` | `create_mthread` |
//! | CPU | `xt_wait(cond, first, last)` | `wait` |
//! | CPU | `xt_signal(cond, first, last)` | `signal` |
//! | CPU | `xt_barrier_cpu(bar, sense, first, last)` | `cpu_mttop_barrier` |
//! | CPU | `xt_malloc_server(req, resp, n, done, first, last)` | `wait(…, waitCondition=malloc)` |
//! | MTTOP | `xt_msignal(cond, tid)` | `signal` |
//! | MTTOP | `xt_mwait(cond, tid)` | `wait` |
//! | MTTOP | `xt_barrier_mttop(bar, sense, tid)` | `cpu_mttop_barrier` |
//! | MTTOP | `xt_mttop_malloc(req, resp, tid, size)` | `mttop_malloc` |
//!
//! All synchronization is through ordinary coherent shared memory — that is
//! the paper's whole point: under CCSVM, wait/signal/barrier are a handful
//! of loads, stores, and atomics instead of driver round-trips.
//!
//! `create_mthread` performs the §4.3 `write` syscall to the MIFD with a
//! task descriptor `{entry_pc, args_ptr, first_tid, last_tid}` (the kernel
//! appends the CR3). `mttop_malloc` offloads allocation to a CPU thread
//! running [`the malloc server`](XTHREADS_LIB) (§5.3.2).
//!
//! Use [`link`] to concatenate the library with user source, and
//! [`build`] to produce a runnable [`ccsvm_isa::Program`].

#![forbid(unsafe_code)]

use ccsvm_isa::Program;
use ccsvm_xcc::CompileError;

/// Condition-variable protocol values (Table 1's `Ready`,
/// `WaitingOnMTTOP`, `WaitingOnCPU`).
pub mod cond {
    /// Element is signalled.
    pub const READY: u64 = 1;
    /// A CPU thread is waiting on this element.
    pub const WAITING_ON_MTTOP: u64 = 2;
    /// An MTTOP thread is waiting on this element.
    pub const WAITING_ON_CPU: u64 = 3;
}

/// The xthreads runtime library, in XC.
pub const XTHREADS_LIB: &str = r#"
// ---- xthreads runtime library (paper Table 1) ----------------------------
const XT_READY = 1;
const XT_WAIT_MTTOP = 2;
const XT_WAIT_CPU = 3;

// create_mthread: spawn MTTOP threads first..=last running f(tid, args).
// Builds the {entry, args, first, last} task descriptor in consecutive
// stack slots (xcc allocates `let` slots in order) and performs the write
// syscall to the MIFD. Returns 0, or 1 if the MIFD set its error register.
_CPU_ fn xt_create_mthread(f: int, args: int, first: int, last: int) -> int {
    let d0 = f;
    let d1 = args;
    let d2 = first;
    let d3 = last;
    // Taking each address pins all four to consecutive frame slots (xcc
    // register-allocates locals otherwise).
    &d1; &d2; &d3;
    return mifd_launch(&d0 as int);
}

// CPU-side wait: mark unsignalled elements WaitingOnMTTOP, then spin until
// every element in [first, last] reads Ready; elements reset to 0 for reuse.
_CPU_ fn xt_wait(cond: int*, first: int, last: int) {
    for (let i = first; i <= last; i = i + 1) {
        atomic_cas(cond + i, 0, XT_WAIT_MTTOP);
    }
    for (let i = first; i <= last; i = i + 1) {
        while (cond[i] != XT_READY) { }
        cond[i] = 0;
    }
}

// CPU-side signal: release MTTOP threads waiting on [first, last].
_CPU_ fn xt_signal(cond: int*, first: int, last: int) {
    for (let i = first; i <= last; i = i + 1) {
        cond[i] = XT_READY;
    }
}

// MTTOP-side signal of the caller's own element.
_MTTOP_ fn xt_msignal(cond: int*, tid: int) {
    cond[tid] = XT_READY;
}

// MTTOP-side wait on the caller's own element.
_MTTOP_ fn xt_mwait(cond: int*, tid: int) {
    atomic_cas(cond + tid, 0, XT_WAIT_CPU);
    while (cond[tid] != XT_READY) { }
    cond[tid] = 0;
}

// Global CPU+MTTOP barrier, MTTOP side: publish arrival (tagged with the
// epoch so no clearing pass is needed), then wait for the sense to advance.
// The sense must be read before publishing (SC makes this correct).
_MTTOP_ fn xt_barrier_mttop(bar: int*, sense: int*, tid: int) {
    let s = *sense;
    bar[tid] = s + 1;
    while (*sense == s) { }
}

// Global CPU+MTTOP barrier, CPU side: wait for every arrival of this epoch,
// then advance the sense to release everyone. Epoch-tagged arrivals keep the
// CPU's pass read-only (no invalidation storm from clearing entries).
_CPU_ fn xt_barrier_cpu(bar: int*, sense: int*, first: int, last: int) {
    let s = *sense;
    for (let i = first; i <= last; i = i + 1) {
        while (bar[i] != s + 1) { }
    }
    *sense = s + 1;
}

// mttop_malloc, MTTOP side: post the request size and spin for the pointer
// (paper 5.3.2: "offloads the malloc to a CPU by having the CPU wait for
// the MTTOP threads to signal").
_MTTOP_ fn xt_mttop_malloc(req: int*, resp: int*, tid: int, size: int) -> int {
    resp[tid] = 0;
    req[tid] = size;
    while (resp[tid] == 0) { }
    req[tid] = 0;
    return resp[tid];
}

// Userspace allocator backing the malloc server: bump allocation from
// 64 KiB slabs, one kernel malloc per slab — like a real libc, where small
// mallocs do not enter the kernel.
global xt_arena_cur: int;
global xt_arena_end: int;

_CPU_ fn xt_malloc(n: int) -> int {
    if (xt_arena_cur + n > xt_arena_end) {
        xt_arena_cur = malloc(65536) as int;
        xt_arena_end = xt_arena_cur + 65536;
    }
    let p = xt_arena_cur;
    xt_arena_cur = xt_arena_cur + n;
    return p;
}

// mttop_malloc, CPU side: service allocation requests from n MTTOP threads
// until every element of done[first..=last] is Ready (the waitCondition
// form of Table 1's wait).
_CPU_ fn xt_malloc_server(req: int*, resp: int*, n: int, done: int*, first: int, last: int) {
    let finished = 0;
    while (finished == 0) {
        for (let i = 0; i < n; i = i + 1) {
            let sz = req[i];
            if (sz != 0) {
                req[i] = 0;
                resp[i] = xt_malloc(sz);
            }
        }
        finished = 1;
        for (let j = first; j <= last; j = j + 1) {
            if (done[j] != XT_READY) { finished = 0; }
        }
    }
    for (let j = first; j <= last; j = j + 1) {
        done[j] = 0;
    }
}
// ---- end xthreads runtime library -----------------------------------------
"#;

/// Concatenates the runtime library with user source (library first, so user
/// line numbers in errors are offset by the library length — errors report
/// the combined line).
pub fn link(user_source: &str) -> String {
    format!("{XTHREADS_LIB}\n{user_source}")
}

/// Compiles user source linked against the xthreads runtime into a runnable
/// program.
///
/// # Errors
///
/// Propagates compiler errors (line numbers refer to the linked source; the
/// library occupies the first [`lib_lines`] lines).
pub fn build(user_source: &str) -> Result<Program, CompileError> {
    ccsvm_xcc::compile_to_program(&link(user_source))
}

/// Number of lines the runtime library occupies in linked source (for
/// mapping error lines back to user code).
pub fn lib_lines() -> usize {
    XTHREADS_LIB.lines().count() + 1
}

/// Byte layout of the task descriptor passed to the MIFD write syscall
/// (§4.3): `{entry_pc, args_ptr, first_tid, last_tid}`, 8 bytes each. The
/// kernel appends the CR3 when forwarding to the device.
pub const TASK_DESC_WORDS: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use ccsvm_isa::{FlatMem, FuncOs, Interp};

    #[test]
    fn library_compiles_alone() {
        let p = ccsvm_xcc::compile_to_program(XTHREADS_LIB).unwrap();
        for f in [
            "xt_create_mthread",
            "xt_wait",
            "xt_signal",
            "xt_msignal",
            "xt_mwait",
            "xt_barrier_mttop",
            "xt_barrier_cpu",
            "xt_mttop_malloc",
            "xt_malloc_server",
            "__kexit",
        ] {
            assert!(p.lookup(f).is_some(), "missing {f}");
        }
    }

    #[test]
    fn vecadd_runs_functionally() {
        // The paper's Figure 4 program, ported to XC, run on the functional
        // interpreter (synchronous launches).
        let p = build(
            "struct Args { v1: int*; v2: int*; sum: int*; done: int*; }
             _MTTOP_ fn add(tid: int, a: Args*) {
                 a->sum[tid] = a->v1[tid] + a->v2[tid];
                 xt_msignal(a->done, tid);
             }
             _CPU_ fn main() -> int {
                 let n = 64;
                 let a: Args* = malloc(sizeof(Args));
                 a->v1 = malloc(n * 8);
                 a->v2 = malloc(n * 8);
                 a->sum = malloc(n * 8);
                 a->done = malloc(n * 8);
                 for (let i = 0; i < n; i = i + 1) {
                     a->v1[i] = i;
                     a->v2[i] = i * 10;
                     a->done[i] = 0;
                 }
                 xt_create_mthread(add, a as int, 0, n - 1);
                 xt_wait(a->done, 0, n - 1);
                 let total = 0;
                 for (let i = 0; i < n; i = i + 1) { total = total + a->sum[i]; }
                 return total;
             }",
        )
        .unwrap();
        let mut mem = FlatMem::new();
        let mut os = FuncOs::new();
        let mut t = Interp::new(p.entry("__start"), 0);
        t.run(&p, &mut mem, &mut os, 10_000_000).unwrap();
        let expect: u64 = (0..64).map(|i| i + i * 10).sum();
        assert_eq!(t.regs[1], expect);
    }

    #[test]
    fn descriptor_layout_matches_convention() {
        // xt_create_mthread relies on consecutive `let` slots; verify against
        // the functional OS's launch decoding by actually launching.
        let p = build(
            "_MTTOP_ fn k(tid: int, args: int*) { args[tid] = tid + 100; }
             _CPU_ fn main() -> int {
                 let out: int* = malloc(8 * 8);
                 xt_create_mthread(k, out as int, 2, 5);
                 return out[5];
             }",
        )
        .unwrap();
        let mut mem = FlatMem::new();
        let mut os = FuncOs::new();
        let mut t = Interp::new(p.entry("__start"), 0);
        t.run(&p, &mut mem, &mut os, 1_000_000).unwrap();
        assert_eq!(t.regs[1], 105);
        // tid 0,1 not launched; 2..=5 were.
        let base = ccsvm_isa::abi::HEAP_BASE;
        assert_eq!(mem.read(base, 8), 0);
        assert_eq!(mem.read(base + 2 * 8, 8), 102);
    }

    #[test]
    fn link_and_lib_lines_consistent() {
        let linked = link("fn foo() { }");
        assert!(linked.contains("xt_create_mthread"));
        assert!(linked.ends_with("fn foo() { }"));
        assert!(lib_lines() > 10);
    }
}
