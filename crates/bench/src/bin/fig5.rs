//! Figures 5 and 9: dense matrix multiply, one simulated grid, two tables.
//!
//! Figure 5 is runtime relative to the AMD CPU core, for the APU (full), the
//! APU without compilation/initialization, and CCSVM/xthreads. Lower is
//! better; the paper's log-scale plot shows CCSVM winning by orders of
//! magnitude at small sizes with the APU catching up at the largest size.
//!
//! Figure 9 is DRAM accesses (log scale in the paper): the APU's staged DMA
//! plus GPU misses versus CCSVM's on-chip communication, with the single
//! CPU's accesses growing as the working set outgrows its caches.

#![forbid(unsafe_code)]

use ccsvm_bench::apu::{ApuConfig, ApuReport, OffloadShape};
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

    let params = |n| wl::matmul::MatmulParams::new(n, 42);
    let jobs: Vec<_> = sizes
        .iter()
        .flat_map(|&n| {
            let p = params(n);
            let (cpu, kernel) = (wl::matmul::cpu_source(&p), wl::matmul::xthreads_source(&p));
            opts.apu_jobs(&apu, &format!("fig5-n{n}"), cpu, kernel)
        })
        .collect();
    let reports = run_jobs(&jobs, opts.threads)?;

    out.header(
        "Figure 5: matmul runtime (ms, and relative to AMD CPU core = 1.0)",
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
    let mut rel_ccsvm_small = None;
    let mut last_ratio_noinit_over_ccsvm = 0.0;
    // Figure 9's rows, printed after Figure 5's table: (n, CPU, APU, CCSVM).
    let mut dram = Vec::with_capacity(sizes.len());
    for (&n, r) in sizes.iter().zip(reports.chunks(3)) {
        let p = params(n);
        let expect = wl::matmul::reference_checksum(&p);
        let (t_cpu, cpu_dram, cpu_code) = region_numbers(&r[0]);
        check_eq(cpu_code, expect, format!("n={n}: CPU result"))?;
        let shape = OffloadShape {
            buffer_bytes: 3 * n * n * 8,
            launches: 1,
        };
        let a = ApuReport::offload(&apu, &r[1], shape);
        check_eq(a.exit_code, expect, format!("n={n}: APU result"))?;
        let (t_ccsvm, ccsvm_dram, ccsvm_code) = region_numbers(&r[2]);
        check_eq(ccsvm_code, expect, format!("n={n}: CCSVM result"))?;
        dram.push((n, cpu_dram, a.dram_accesses, ccsvm_dram));

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

        if n == sizes[0] {
            rel_ccsvm_small = Some((t_ccsvm, a.total_no_init));
        }
        last_ratio_noinit_over_ccsvm = a.total_no_init.as_ps() as f64 / t_ccsvm.as_ps() as f64;
        claims.check(
            t_ccsvm < a.total,
            &format!("n={n}: CCSVM beats the full-runtime APU"),
        );
    }

    if let Some((ccsvm_small, apu_small)) = rel_ccsvm_small {
        claims.check(
            apu_small.as_ps() as f64 / ccsvm_small.as_ps() as f64 > 2.0,
            "smallest size: CCSVM beats even the no-init APU by > 2x",
        );
    }
    if sizes.len() > 1 {
        claims.check(
            last_ratio_noinit_over_ccsvm < 5.0,
            "largest size: the no-init APU closes most of the gap (raw VLIW throughput)",
        );
    }

    out.header(
        "Figure 9: DRAM accesses for matmul",
        &["   n", "      CPU", "      APU", "    CCSVM", "APU/CCSVM"],
    );
    for (n, cpu_dram, apu_dram, ccsvm_dram) in dram {
        out.line(format!(
            "{n:4} | {cpu_dram:8} | {apu_dram:8} | {ccsvm_dram:8} | {:8.2}",
            apu_dram as f64 / ccsvm_dram as f64,
        ));
        claims.check(
            apu_dram > ccsvm_dram,
            &format!("n={n}: APU needs more DRAM accesses than CCSVM"),
        );
    }
    out.finish()?;
    claims.finish("fig5")
}
