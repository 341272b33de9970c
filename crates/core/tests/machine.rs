//! Full-system integration tests: compiled XC programs booted on the
//! simulated CCSVM chip, exercising launches, coherence, synchronization,
//! demand paging, MTTOP fault forwarding, and shootdowns.

use ccsvm::{Machine, RunReport, SystemConfig};

mod common;
use common::vecadd_src;

fn run(cfg: SystemConfig, src: &str) -> (Machine, RunReport) {
    let prog = ccsvm_xthreads::build(src).unwrap_or_else(|e| panic!("compile: {e}"));
    let mut m = Machine::new(cfg, prog);
    let r = m.run();
    (m, r)
}

#[test]
fn trivial_main_runs_and_takes_time() {
    let (_, r) = run(
        SystemConfig::tiny(),
        "_CPU_ fn main() -> int { return 41 + 1; }",
    );
    assert_eq!(r.exit_code, 42);
    assert!(r.time.as_ns() > 0.0);
    assert!(r.instructions > 0);
    // Demand paging happened for the stack.
    assert!(r.stats.get("os.page_faults") >= 1.0);
}

#[test]
fn print_order_is_program_order() {
    let (_, r) = run(
        SystemConfig::tiny(),
        "_CPU_ fn main() -> int {
            for (let i = 0; i < 5; i = i + 1) { print_int(i * i); }
            return 0;
        }",
    );
    assert_eq!(r.printed, ["0", "1", "4", "9", "16"]);
}

#[test]
fn vecadd_on_mttop_with_wait_signal() {
    // Figure 4's program on the timing machine: a real MIFD launch, MTTOP
    // page faults forwarded to the CPU, coherent results.
    let n = 32u64; // 4 warps on the tiny machine's 2 cores
    let src = vecadd_src(n);
    let (_, r) = run(SystemConfig::tiny(), &src);
    let expect: u64 = (0..n).map(|i| i * 3 + i + 7).sum();
    assert_eq!(r.exit_code, expect);
    // MTTOP cores really executed threads.
    assert!(r.stats.sum_prefix("mttop.") > 0.0);
    assert_eq!(r.stats.get("mifd.launches"), 1.0);
    // (MTTOP page faults are exercised by tests/full_stack.rs's deep
    // recursion test; with pre-mapped stacks this small kernel may not
    // fault at all.)
}

#[test]
fn launch_error_register_when_task_too_big() {
    // tiny: 2 cores x 4 warps x 8 lanes = 64 contexts; ask for 128 threads.
    let (_, r) = run(
        SystemConfig::tiny(),
        "_MTTOP_ fn k(tid: int, a: int*) { }
         _CPU_ fn main() -> int {
             let buf: int* = malloc(8);
             return xt_create_mthread(k, buf as int, 0, 127);
         }",
    );
    assert_eq!(r.exit_code, 1, "MIFD error register propagates");
    assert_eq!(r.stats.get("mifd.rejected"), 1.0);
}

#[test]
fn cpu_mttop_barrier_round_trips() {
    // Two phases separated by a global CPU+MTTOP barrier: phase 2 must see
    // phase 1's data (coherence) and the barrier must not deadlock.
    let (_, r) = run(
        SystemConfig::tiny(),
        "struct Args { data: int*; bar: int*; sense: int*; done: int*; n: int; }
         _MTTOP_ fn k(tid: int, a: Args*) {
             a->data[tid] = tid + 1;
             xt_barrier_mttop(a->bar, a->sense, tid);
             // Threads now block in the second barrier until the CPU has
             // sampled the mid-state and releases them.
             xt_barrier_mttop(a->bar, a->sense, tid);
             a->data[tid] = a->data[tid] * 10;
             xt_msignal(a->done, tid);
         }
         _CPU_ fn main() -> int {
             let n = 16;
             let a: Args* = malloc(sizeof(Args));
             a->data = malloc(n * 8);
             a->bar = malloc(n * 8);
             a->sense = malloc(8);
             a->done = malloc(n * 8);
             a->n = n;
             for (let i = 0; i < n; i = i + 1) {
                 a->bar[i] = 0; a->data[i] = 0; a->done[i] = 0;
             }
             *(a->sense) = 0;
             xt_create_mthread(k, a as int, 0, n - 1);
             xt_barrier_cpu(a->bar, a->sense, 0, n - 1);
             // Every thread is parked in barrier 2: data is quiescent.
             let mid = 0;
             for (let i = 0; i < n; i = i + 1) { mid = mid + a->data[i]; }
             xt_barrier_cpu(a->bar, a->sense, 0, n - 1);
             xt_wait(a->done, 0, n - 1);
             let fin = 0;
             for (let i = 0; i < n; i = i + 1) { fin = fin + a->data[i]; }
             return mid * 100000 + fin;
         }",
    );
    let mid: u64 = (1..=16).sum(); // 136
    let fin = mid * 10; // 1360
    assert_eq!(r.exit_code, mid * 100000 + fin);
}

#[test]
fn mttop_malloc_builds_linked_lists() {
    // The §5.3.2 mechanism: MTTOP threads dynamically allocate via a CPU
    // malloc server, then build pointer-linked data.
    let (_, r) = run(
        SystemConfig::tiny(),
        "struct Args { req: int*; resp: int*; heads: int*; done: int*; }
         struct Node { val: int; next: Node*; }
         _MTTOP_ fn k(tid: int, a: Args*) {
             let head: Node* = 0 as Node*;
             for (let i = 1; i <= 3; i = i + 1) {
                 let n: Node* = xt_mttop_malloc(a->req, a->resp, tid, sizeof(Node)) as Node*;
                 n->val = tid * 10 + i;
                 n->next = head;
                 head = n;
             }
             a->heads[tid] = head as int;
             xt_msignal(a->done, tid);
         }
         _CPU_ fn main() -> int {
             let n = 8;
             let a: Args* = malloc(sizeof(Args));
             a->req = malloc(n * 8);
             a->resp = malloc(n * 8);
             a->heads = malloc(n * 8);
             a->done = malloc(n * 8);
             for (let i = 0; i < n; i = i + 1) {
                 a->req[i] = 0; a->resp[i] = 0; a->done[i] = 0;
             }
             xt_create_mthread(k, a as int, 0, n - 1);
             xt_malloc_server(a->req, a->resp, n, a->done, 0, n - 1);
             // Walk every list on the CPU: pointer-based structures are
             // shared across core types (the paper's §5.3 claim).
             let total = 0;
             for (let t = 0; t < n; t = t + 1) {
                 let p: Node* = a->heads[t] as Node*;
                 while (p != 0 as Node*) {
                     total = total + p->val;
                     p = p->next;
                 }
             }
             return total;
         }",
    );
    let expect: u64 = (0..8u64)
        .map(|t| (1..=3).map(|i| t * 10 + i).sum::<u64>())
        .sum();
    assert_eq!(r.exit_code, expect);
}

#[test]
fn spawn_cthreads_pthreads_style() {
    let (_, r) = run(
        SystemConfig::tiny(),
        "global results: int;
         fn worker(arg: int) -> int {
             atomic_add(&results, arg);
             return 0;
         }
         _CPU_ fn main() -> int {
             results = 0;
             let t1 = spawn_cthread(worker, 5);
             if (t1 < 0) { return -1; }
             // Wait for the worker (spin on the shared counter).
             while (results != 5) { }
             return results;
         }",
    );
    assert_eq!(r.exit_code, 5);
}

#[test]
fn munmap_triggers_shootdown() {
    let (_, r) = run(
        SystemConfig::tiny(),
        "_CPU_ fn main() -> int {
             let p: int* = malloc(4096);
             p[0] = 7;           // faults the page in
             munmap(p as int);   // unmap + full shootdown
             let q: int* = malloc(4096);
             q[0] = 9;
             return q[0];
         }",
    );
    assert_eq!(r.exit_code, 9);
    // Every MTTOP TLB was flushed; other CPU got an IPI invalidation.
    assert!(r.stats.sum_prefix("mttop.0.tlb.flushes") >= 1.0);
    assert!(r.stats.sum_prefix("mttop.1.tlb.flushes") >= 1.0);
}

#[test]
fn timing_matches_functional_semantics() {
    // The timing machine and the functional interpreter must agree on
    // architectural results for a numeric kernel.
    let src = "struct Args { out: int*; n: int; }
         _MTTOP_ fn k(tid: int, a: Args*) {
             let acc = 0;
             for (let i = 0; i <= tid; i = i + 1) { acc = acc + i * i; }
             a->out[tid] = acc;
         }
         _CPU_ fn main() -> int {
             let n = 16;
             let a: Args* = malloc(sizeof(Args));
             a->out = malloc(n * 8);
             a->n = n;
             for (let i = 0; i < n; i = i + 1) { a->out[i] = -1; }
             xt_create_mthread(k, a as int, 0, n - 1);
             // Wait by polling the last element of each warp.
             let done = 0;
             while (done == 0) {
                 done = 1;
                 for (let i = 0; i < n; i = i + 1) {
                     if (a->out[i] == -1) { done = 0; }
                 }
             }
             let s = 0;
             for (let i = 0; i < n; i = i + 1) { s = s + a->out[i]; }
             return s;
         }";
    let (_, r) = run(SystemConfig::tiny(), src);

    // Functional oracle.
    let p = ccsvm_xthreads::build(src).unwrap();
    let mut mem = ccsvm_isa::FlatMem::new();
    let mut os = ccsvm_isa::FuncOs::new();
    let mut t = ccsvm_isa::Interp::new(p.entry("__start"), 0);
    t.run(&p, &mut mem, &mut os, 100_000_000).unwrap();
    assert_eq!(r.exit_code, t.regs[1]);
}

#[test]
fn paper_default_machine_boots() {
    let (_, r) = run(
        SystemConfig::paper_default(),
        "_MTTOP_ fn k(tid: int, out: int*) { out[tid] = tid; }
         _CPU_ fn main() -> int {
             let n = 1280; // every thread context on the full chip
             let out: int* = malloc(n * 8);
             for (let i = 0; i < n; i = i + 1) { out[i] = -1; }
             if (xt_create_mthread(k, out as int, 0, n - 1) != 0) { return -1; }
             let done = 0;
             while (done == 0) {
                 done = 1;
                 for (let i = 0; i < n; i = i + 1) {
                     if (out[i] == -1) { done = 0; }
                 }
             }
             return out[1279] + out[640] + out[0];
         }",
    );
    assert_eq!(r.exit_code, 1279 + 640);
    assert_eq!(r.stats.get("mifd.chunks"), 160.0); // 1280 / 8 lanes
}

#[test]
fn sc_litmus_message_passing() {
    // Message passing: data then flag; consumer sees flag => sees data.
    // Repeated across producer on MTTOP, consumer on CPU.
    let (_, r) = run(
        SystemConfig::tiny(),
        "struct Args { data: int*; flag: int*; }
         _MTTOP_ fn producer(tid: int, a: Args*) {
             a->data[0] = 777;
             a->flag[0] = 1;    // SC: no reordering of these stores
         }
         _CPU_ fn main() -> int {
             let a: Args* = malloc(sizeof(Args));
             a->data = malloc(64);
             a->flag = malloc(64);
             a->data[0] = 0;
             a->flag[0] = 0;
             xt_create_mthread(producer, a as int, 0, 0);
             while (a->flag[0] == 0) { }
             return a->data[0];  // must be 777 under SC
         }",
    );
    assert_eq!(r.exit_code, 777);
}
