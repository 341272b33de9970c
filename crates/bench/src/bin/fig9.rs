//! Figure 9: DRAM accesses for matrix multiply (log scale in the paper) —
//! the APU's staged DMA plus GPU misses versus CCSVM's on-chip
//! communication, with the single CPU's accesses growing as the working set
//! outgrows its caches.

#![forbid(unsafe_code)]

use ccsvm_apu::{ApuConfig, ApuReport, OffloadShape};
use ccsvm_bench::{check_eq, exit_with, region_numbers, run_jobs, BenchError, Claims, Opts, Out};
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

    let params = |n| wl::matmul::MatmulParams::new(n, 42);
    let jobs: Vec<_> = sizes
        .iter()
        .flat_map(|&n| {
            let p = params(n);
            let (cpu, kernel) = (wl::matmul::cpu_source(&p), wl::matmul::xthreads_source(&p));
            opts.apu_jobs(&apu, &format!("fig9-n{n}"), cpu, kernel)
        })
        .collect();
    let reports = run_jobs(&jobs, opts.threads)?;

    out.header(
        "Figure 9: DRAM accesses for matmul",
        &["   n", "      CPU", "      APU", "    CCSVM", "APU/CCSVM"],
    );
    for (&n, r) in sizes.iter().zip(reports.chunks(3)) {
        let p = params(n);
        let expect = wl::matmul::reference_checksum(&p);
        let (_, cpu_dram, c1) = region_numbers(&r[0]);
        check_eq(c1, expect, format!("n={n}: CPU result"))?;
        let shape = OffloadShape {
            buffer_bytes: 3 * n * n * 8,
            launches: 1,
        };
        let a = ApuReport::offload(&apu, &r[1], shape);
        check_eq(a.exit_code, expect, format!("n={n}: APU result"))?;
        let (_, ccsvm_dram, c3) = region_numbers(&r[2]);
        check_eq(c3, expect, format!("n={n}: CCSVM result"))?;

        out.line(format!(
            "{n:4} | {cpu_dram:8} | {:8} | {ccsvm_dram:8} | {:8.2}",
            a.dram_accesses,
            a.dram_accesses as f64 / ccsvm_dram as f64,
        ));

        claims.check(
            a.dram_accesses > ccsvm_dram,
            &format!("n={n}: APU needs more DRAM accesses than CCSVM"),
        );
    }
    out.finish()?;
    claims.finish("fig9")
}
