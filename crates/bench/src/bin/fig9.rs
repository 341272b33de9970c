//! Figure 9: DRAM accesses for matrix multiply (log scale in the paper) —
//! the APU's staged DMA plus GPU misses versus CCSVM's on-chip
//! communication, with the single CPU's accesses growing as the working set
//! outgrows its caches.

#![forbid(unsafe_code)]

use ccsvm_apu::{run_cpu, run_offload, ApuConfig, OffloadShape};
use ccsvm_bench::{check_eq, exit_with, BenchError, Claims, Opts, Out};
use ccsvm_workloads as wl;

fn main() {
    exit_with(run());
}

fn run() -> Result<(), BenchError> {
    let opts = Opts::parse(ccsvm_bench::SWEEP_FLAGS)?;
    let sizes = opts.pick(&[8, 16, 32, 64, 128], &[8, 16]);
    let apu = ApuConfig::paper_scaled();
    let mut claims = Claims::new();
    let mut out = Out::new(&opts);

    out.header(
        "Figure 9: DRAM accesses for matmul",
        &["   n", "      CPU", "      APU", "    CCSVM", "APU/CCSVM"],
    );

    // Sweep points run up front (in parallel under `--threads N`); printing
    // and claims stay in input order so output is thread-count-invariant.
    let points = ccsvm_sweepd::sweep(sizes.len(), opts.threads, |i| -> Result<_, BenchError> {
        let n = sizes[i];
        let p = wl::matmul::MatmulParams::new(n, 42);
        let expect = wl::matmul::reference_checksum(&p);

        let (_, cpu_dram, c1) = run_cpu(&apu, &wl::matmul::cpu_source(&p));
        check_eq(c1, expect, format!("n={n}: CPU result"))?;
        let shape = OffloadShape {
            buffer_bytes: 3 * n * n * 8,
            launches: 1,
        };
        let a = run_offload(&apu, &wl::matmul::xthreads_source(&p), shape);
        check_eq(a.exit_code, expect, format!("n={n}: APU result"))?;
        let (_, ccsvm_dram, c3) = ccsvm_bench::run_ccsvm_point(
            &wl::matmul::xthreads_source(&p),
            &opts,
            &format!("fig9-n{n}"),
        );
        check_eq(c3, expect, format!("n={n}: CCSVM result"))?;
        Ok((cpu_dram, a, ccsvm_dram))
    });
    let points = points.into_iter().collect::<Result<Vec<_>, _>>()?;

    for (&n, (cpu_dram, a, ccsvm_dram)) in sizes.iter().zip(points) {
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
    claims.finish("fig9");
    Ok(())
}
