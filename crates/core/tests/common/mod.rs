//! Guest programs and fault plans shared by the `ccsvm` integration tests.

// Each test binary includes this module and uses a subset of it.
#![allow(dead_code)]

use ccsvm::{Machine, RunReport, SystemConfig};
use ccsvm_isa::Program;

/// Compiles an xthreads source; a test program that does not compile is a
/// bug in the test.
pub fn compile(src: &str) -> Program {
    ccsvm_xthreads::build(src).unwrap_or_else(|e| panic!("compile: {e}"))
}

/// Compiles `src` and runs it to the end under `cfg`.
pub fn run(cfg: SystemConfig, src: &str) -> RunReport {
    Machine::new(cfg, compile(src)).run()
}

/// The paper's xthreads matmul at n = 16 (seed 42): on the paper machine,
/// enough MTTOP batches for fork-join rounds to form.
pub fn matmul_n16() -> String {
    ccsvm_workloads::matmul::xthreads_source(&ccsvm_workloads::matmul::MatmulParams::new(16, 42))
}

/// A CPU+MTTOP offload with real NoC/L2/DRAM traffic: the CPU fills two
/// vectors, MTTOP threads add them and signal, and `main` returns the sum.
pub fn vecadd_src(n: u64) -> String {
    format!(
        "struct Args {{ v1: int*; v2: int*; sum: int*; done: int*; }}
         _MTTOP_ fn add(tid: int, a: Args*) {{
             a->sum[tid] = a->v1[tid] + a->v2[tid];
             xt_msignal(a->done, tid);
         }}
         _CPU_ fn main() -> int {{
             let n = {n};
             let a: Args* = malloc(sizeof(Args));
             a->v1 = malloc(n * 8);
             a->v2 = malloc(n * 8);
             a->sum = malloc(n * 8);
             a->done = malloc(n * 8);
             for (let i = 0; i < n; i = i + 1) {{
                 a->v1[i] = i * 3;
                 a->v2[i] = i + 7;
                 a->done[i] = 0;
             }}
             let err = xt_create_mthread(add, a as int, 0, n - 1);
             if (err != 0) {{ return -1; }}
             xt_wait(a->done, 0, n - 1);
             let total = 0;
             for (let i = 0; i < n; i = i + 1) {{ total = total + a->sum[i]; }}
             return total;
         }}"
    )
}

/// A two-CPU sharing workload: the S→M upgrade, invalidation and fetch
/// traffic the fault and mutation tests need. `main` returns 5.
pub const PINGPONG: &str = "global results: int;
     fn worker(arg: int) -> int {
         atomic_add(&results, arg);
         return 0;
     }
     _CPU_ fn main() -> int {
         results = 0;
         let t1 = spawn_cthread(worker, 5);
         if (t1 < 0) { return -1; }
         while (results != 5) { }
         return results;
     }";

/// The tiny machine under a seeded fault matrix: NoC drops, correctable
/// DRAM ECC flips and transient TLB-walk failures.
pub fn faulty_cfg(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::tiny();
    cfg.fault.seed = seed;
    cfg.fault.noc.drop_rate = 0.02;
    cfg.fault.dram.single_bit_rate = 0.2;
    cfg.fault.tlb.transient_rate = 0.02;
    cfg
}
