//! Figure 8: sparse matrix multiplication speedup of CCSVM/xthreads over
//! the AMD CPU core. Left panel: fixed 1% density, varying size. Right
//! panel: fixed size, varying density — speedups shrink as the matrix
//! densifies because `mttop_malloc` (allocation proxied through a CPU
//! thread) becomes the bottleneck.

#![forbid(unsafe_code)]

use ccsvm::RunReport;
use ccsvm_apu::ApuConfig;
use ccsvm_bench::{
    check_eq, exit_with, ms, region_numbers, run_jobs, BenchError, Claims, Opts, Out,
};
use ccsvm_workloads::spmm;

/// Checks and prints one panel point from its two reports; returns the
/// CCSVM speedup over the CPU.
fn row(p: &spmm::SpmmParams, r: &[RunReport], out: &mut Out) -> Result<f64, BenchError> {
    let expect = spmm::reference_checksum(p);
    let (t_cpu, _, c1) = region_numbers(&r[0]);
    check_eq(c1, expect, format!("n={}: CPU spmm result", p.n))?;
    let (t_ccsvm, _, c2) = region_numbers(&r[1]);
    check_eq(c2, expect, format!("n={}: CCSVM spmm result", p.n))?;
    let speedup = t_cpu.as_ps() as f64 / t_ccsvm.as_ps() as f64;
    out.line(format!(
        "  n={:4} density={:4.1}% | CPU {} | CCSVM {} | speedup {speedup:6.2} | allocs {}",
        p.n,
        p.density_tenths_pct as f64 / 10.0,
        ms(t_cpu),
        ms(t_ccsvm),
        spmm::reference_allocations(p),
    ));
    Ok(speedup)
}

fn main() {
    exit_with(run());
}

fn run() -> Result<(), BenchError> {
    let opts = Opts::parse(ccsvm_bench::FIGURE_FLAGS)?;
    let apu = ApuConfig::paper_scaled();
    let mut claims = Claims::new();
    let mut out = Out::new(&opts);

    let params = |n, density_tenths_pct| spmm::SpmmParams {
        n,
        density_tenths_pct,
        max_threads: 1280,
        seed: 42,
    };
    // Left panel: 1% density, varying size; right panel: fixed size,
    // varying density. Each point runs on the APU's CPU, then on CCSVM.
    let sizes = opts.pick(&[64, 128, 256], &[64, 128]);
    let n = if opts.quick { 96 } else { 128 };
    let left: Vec<_> = sizes.iter().map(|&n| params(n, 10)).collect();
    let right: Vec<_> = [5u64, 10, 20, 50, 100].map(|d| params(n, d)).to_vec();
    let mut jobs = Vec::new();
    for p in left.iter().chain(&right) {
        let label = format!("fig8-n{}-d{}", p.n, p.density_tenths_pct);
        let cpu = apu.cpu_chip.clone();
        jobs.push((format!("{label}-cpu"), cpu, spmm::cpu_source(p)));
        jobs.push((label, opts.config(), spmm::xthreads_source(p)));
    }
    let reports = run_jobs(&jobs, opts.threads)?;
    let (left_reports, right_reports) = reports.split_at(2 * left.len());

    out.header(
        "Figure 8 (left): sparse matmul speedup vs size at 1% density",
        &["rows below"],
    );
    let left = left
        .iter()
        .zip(left_reports.chunks(2))
        .map(|(p, r)| row(p, r, &mut out))
        .collect::<Result<Vec<f64>, _>>()?;
    if !opts.quick {
        claims.check(
            left.iter().all(|&s| s > 0.5),
            "1% density: CCSVM stays within 2x of the CPU (there is almost no \
             compute per row at simulable sizes; the win appears as density \
             or size grows)",
        );
    }

    out.header(
        "Figure 8 (right): sparse matmul speedup vs density at fixed size",
        &["rows below"],
    );
    let right = right
        .iter()
        .zip(right_reports.chunks(2))
        .map(|(p, r)| row(p, r, &mut out))
        .collect::<Result<Vec<f64>, _>>()?;
    if !opts.quick {
        let best = right.iter().copied().fold(0.0f64, f64::max);
        claims.check(
            best > 1.0,
            "CCSVM obtains speedups on dynamically-allocated sparse matmul",
        );
        claims.check(
            best < 3.0,
            "...but far smaller than the dense benchmarks' (the paper's own caveat)",
        );
        // NOT REPRODUCED at simulable sizes: the paper's *declining* speedup
        // tail at high density. With a dense per-row accumulator and a
        // batching malloc server, allocation count scales with (and then
        // saturates below) compute at these matrix sizes, so mttop_malloc
        // never overtakes the compute term the way the paper's "extremely
        // large" matrices made it. The mechanism is still measurable: the
        // per-allocation CPU round trip is the reason speedups stay ~1x
        // instead of the dense benchmarks' 2-4x. See EXPERIMENTS.md.
        out.line(format!(
            "note: speedup-vs-density trend here: {:?} (paper shows a decline \
             at its much larger sizes)",
            right
                .iter()
                .map(|s| (s * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        ));
    } else {
        out.line("  (quick mode: sizes too small for the paper's trend; claims skipped)");
    }
    out.finish()?;
    claims.finish("fig8")
}
