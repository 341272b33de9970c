//! Figure 8: sparse matrix multiplication speedup of CCSVM/xthreads over
//! the AMD CPU core. Left panel: fixed 1% density, varying size. Right
//! panel: fixed size, varying density — speedups shrink as the matrix
//! densifies because `mttop_malloc` (allocation proxied through a CPU
//! thread) becomes the bottleneck.

#![forbid(unsafe_code)]

use ccsvm_apu::{run_cpu, ApuConfig};
use ccsvm_bench::{check_eq, exit_with, ms, BenchError, Claims, Opts, Out};
use ccsvm_workloads as wl;

fn run_pair(
    apu: &ApuConfig,
    p: &wl::spmm::SpmmParams,
    opts: &Opts,
    out: &mut Out,
) -> Result<(f64, u64), BenchError> {
    let expect = wl::spmm::reference_checksum(p);
    let (t_cpu, _, c1) = run_cpu(apu, &wl::spmm::cpu_source(p));
    check_eq(c1, expect, format!("n={}: CPU spmm result", p.n))?;
    let (t_ccsvm, _, c2) = ccsvm_bench::run_ccsvm_point(
        &wl::spmm::xthreads_source(p),
        opts,
        &format!("fig8-n{}-d{}", p.n, p.density_tenths_pct),
    );
    check_eq(c2, expect, format!("n={}: CCSVM spmm result", p.n))?;
    out.line(format!(
        "  n={:4} density={:4.1}% | CPU {} | CCSVM {} | speedup {:6.2} | allocs {}",
        p.n,
        p.density_tenths_pct as f64 / 10.0,
        ms(t_cpu),
        ms(t_ccsvm),
        t_cpu.as_ps() as f64 / t_ccsvm.as_ps() as f64,
        wl::spmm::reference_allocations(p),
    ));
    Ok((
        t_cpu.as_ps() as f64 / t_ccsvm.as_ps() as f64,
        wl::spmm::reference_allocations(p),
    ))
}

fn main() {
    exit_with(run());
}

fn run() -> Result<(), BenchError> {
    let opts = Opts::parse(ccsvm_bench::FIGURE_FLAGS)?;
    let apu = ApuConfig::paper_scaled();
    let mut claims = Claims::new();
    let mut out = Out::new(&opts);

    out.header(
        "Figure 8 (left): sparse matmul speedup vs size at 1% density",
        &["rows below"],
    );
    let sizes = opts.pick(&[64, 128, 256], &[64, 128]);
    let mut left = Vec::new();
    for &n in &sizes {
        let p = wl::spmm::SpmmParams {
            n,
            density_tenths_pct: 10,
            max_threads: 1280,
            seed: 42,
        };
        left.push(run_pair(&apu, &p, &opts, &mut out)?);
    }
    if !opts.quick {
        claims.check(
            left.iter().all(|(s, _)| *s > 0.5),
            "1% density: CCSVM stays within 2x of the CPU (there is almost no \
             compute per row at simulable sizes; the win appears as density \
             or size grows)",
        );
    }

    out.header(
        "Figure 8 (right): sparse matmul speedup vs density at fixed size",
        &["rows below"],
    );
    let n = if opts.quick { 96 } else { 128 };
    let mut right = Vec::new();
    for &d in &[5u64, 10, 20, 50, 100] {
        let p = wl::spmm::SpmmParams {
            n,
            density_tenths_pct: d,
            max_threads: 1280,
            seed: 42,
        };
        right.push(run_pair(&apu, &p, &opts, &mut out)?);
    }
    if !opts.quick {
        let best = right.iter().map(|(s, _)| *s).fold(0.0f64, f64::max);
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
                .map(|(s, _)| (*s * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        ));
    } else {
        out.line("  (quick mode: sizes too small for the paper's trend; claims skipped)");
    }
    out.finish()?;
    claims.finish("fig8");
    Ok(())
}
