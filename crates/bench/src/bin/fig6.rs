//! Figure 6: all-pairs shortest path — runtime relative to the AMD CPU
//! core. The algorithm needs a barrier per outer iteration, so the
//! loosely-coupled APU relaunches the kernel N times ("because the APU's
//! synchronization is quite slow, the APU's performance never exceeds that
//! of simply using the CPU core"), while CCSVM launches once and barriers
//! in shared memory.

#![forbid(unsafe_code)]

use ccsvm_apu::{ApuConfig, ApuReport, OffloadShape};
use ccsvm_bench::{
    check_eq, exit_with, ms, region_numbers, rel, run_jobs, BenchError, Claims, Opts, Out,
};
use ccsvm_workloads as wl;

fn main() {
    exit_with(run());
}

fn run() -> Result<(), BenchError> {
    let opts = Opts::parse(ccsvm_bench::FIGURE_FLAGS)?;
    let sizes = opts.pick(&[8, 16, 32, 64, 128], &[8, 16]);
    let apu = ApuConfig::paper_scaled();
    let mut claims = Claims::new();
    let mut out = Out::new(&opts);

    let params = |n| wl::apsp::ApspParams::new(n, 42);
    let jobs: Vec<_> = sizes
        .iter()
        .flat_map(|&n| {
            let p = params(n);
            let (cpu, kernel) = (wl::apsp::cpu_source(&p), wl::apsp::xthreads_source(&p));
            opts.apu_jobs(&apu, &format!("fig6-n{n}"), cpu, kernel)
        })
        .collect();
    let reports = run_jobs(&jobs, opts.threads)?;

    out.header(
        "Figure 6: APSP runtime (ms, and relative to AMD CPU core = 1.0)",
        &[
            "   n",
            "   CPU ms",
            "   APU ms",
            "APUnoinit",
            " CCSVM ms",
            " APU rel",
            "noin rel",
            "CCSVMrel",
        ],
    );
    for (&n, r) in sizes.iter().zip(reports.chunks(3)) {
        let p = params(n);
        let expect = wl::apsp::reference_checksum(&p);
        let (t_cpu, _, cpu_code) = region_numbers(&r[0]);
        check_eq(cpu_code, expect, format!("n={n}: CPU result"))?;

        // The OpenCL port relaunches per outer iteration; the distance
        // matrix stages in once and out once.
        let shape = OffloadShape {
            buffer_bytes: 2 * n * n * 8,
            launches: wl::apsp::launches_needed(&p),
        };
        let a = ApuReport::offload(&apu, &r[1], shape);
        check_eq(a.exit_code, expect, format!("n={n}: APU result"))?;

        let (t_ccsvm, _, code) = region_numbers(&r[2]);
        check_eq(code, expect, format!("n={n}: CCSVM result"))?;

        out.line(format!(
            "{n:4} | {} | {} | {} | {} | {} | {} | {}",
            ms(t_cpu),
            ms(a.total),
            ms(a.total_no_init),
            ms(t_ccsvm),
            rel(a.total, t_cpu),
            rel(a.total_no_init, t_cpu),
            rel(t_ccsvm, t_cpu),
        ));

        claims.check(
            t_ccsvm < a.total_no_init,
            &format!("n={n}: CCSVM beats even the no-init APU"),
        );
        // With sizes scaled ~8x below the paper's sweep, the CCSVM-vs-CPU
        // crossover lands at about n=64, a near tie (see EXPERIMENTS.md).
        if n >= 128 {
            claims.check(
                t_ccsvm < t_cpu,
                &format!("n={n}: CCSVM beats the single CPU core"),
            );
        }
        if n <= 64 {
            claims.check(
                a.total_no_init > t_cpu,
                &format!("n={n}: the APU never beats the plain CPU (launch storm)"),
            );
        }
    }
    out.finish()?;
    claims.finish("fig6")
}
