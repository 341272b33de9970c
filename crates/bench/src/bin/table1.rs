//! Table 1: the xthreads API synopsis — printed from the implementation and
//! verified against the compiled runtime library (every function must
//! exist, with the declared caller side enforced by the compiler).

#![forbid(unsafe_code)]

use ccsvm_bench::{exit_with, BenchError, Opts, Out};

fn main() {
    exit_with(run());
}

fn run() -> Result<(), BenchError> {
    let mut out = Out::new(&Opts::parse(&["--out"])?);
    let program = ccsvm_xcc::compile_to_program(ccsvm_xthreads::XTHREADS_LIB)
        .map_err(|e| BenchError::Run(format!("runtime library failed to compile: {e}")))?;
    let rows: &[(&str, &str, &str)] = &[
        (
            "CPU",
            "xt_create_mthread(fn, args, firstThread, lastThread)",
            "Spawns MTTOP threads running fn(tid, args); MIFD write syscall",
        ),
        (
            "CPU",
            "xt_wait(cond, firstThread, lastThread)",
            "Sets elements to WaitingOnMTTOP, waits until MTTOP threads set Ready",
        ),
        (
            "CPU",
            "xt_signal(cond, firstThread, lastThread)",
            "Sets condition elements to Ready so MTTOP threads stop waiting",
        ),
        (
            "CPU",
            "xt_barrier_cpu(bar, sense, firstThread, lastThread)",
            "Waits for all MTTOP arrivals, then flips the sense",
        ),
        (
            "CPU",
            "xt_malloc_server(req, resp, n, done, firstThread, lastThread)",
            "Table 1's wait(waitCondition = malloc requests): services mttop_malloc",
        ),
        (
            "MTTOP",
            "xt_mwait(cond, tid)",
            "Sets own element to WaitingOnCPU, waits until the CPU sets Ready",
        ),
        (
            "MTTOP",
            "xt_msignal(cond, tid)",
            "Sets own condition element to Ready so the CPU stops waiting",
        ),
        (
            "MTTOP",
            "xt_barrier_mttop(bar, sense, tid)",
            "Writes own barrier entry, then waits for the sense flip",
        ),
        (
            "MTTOP",
            "xt_mttop_malloc(req, resp, tid, size)",
            "Dynamic allocation proxied through a CPU thread (paper 5.3.2)",
        ),
    ];

    out.line("== Table 1: synopsis of basic xthreads API functions");
    out.line(format!("{:6} | {:62} | description", "caller", "function"));
    out.line("-".repeat(150));
    let mut missing = 0;
    for (caller, sig, desc) in rows {
        let name = sig.split('(').next().unwrap_or(sig);
        let present = program.lookup(name).is_some();
        if !present {
            missing += 1;
        }
        out.line(format!(
            "{caller:6} | {sig:62} | {desc} [{}]",
            if present { "ok" } else { "MISSING" }
        ));
    }
    out.line(format!(
        "\nruntime library: {} instructions of HIR across {} symbols",
        program.text.len(),
        program.symbols.len()
    ));
    if missing != 0 {
        return Err(BenchError::Run(format!(
            "{missing} Table 1 function(s) missing from the library"
        )));
    }
    out.line("[table1] all API functions present");
    out.finish()
}
