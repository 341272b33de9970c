//! Figure 7: Barnes-Hut — runtime of CCSVM/xthreads and of pthreads×4 (on
//! the APU's CPU cores), relative to a single AMD CPU core. There is no
//! OpenCL version (the paper couldn't build one either — that's the point:
//! pointer chasing + frequent sequential/parallel toggling only works with
//! tight coupling).

#![forbid(unsafe_code)]

use ccsvm_apu::ApuConfig;
use ccsvm_bench::{
    check_eq, exit_with, ms, region_numbers, rel, run_jobs, BenchError, Claims, Opts, Out,
};
use ccsvm_workloads::barnes_hut as bh;

fn main() {
    exit_with(run());
}

fn run() -> Result<(), BenchError> {
    let opts = Opts::parse(ccsvm_bench::FIGURE_FLAGS)?;
    let sizes = opts.pick(&[256, 512, 1024, 2048], &[128, 256]);
    let apu = ApuConfig::paper_scaled();
    let mut claims = Claims::new();
    let mut rels: Vec<f64> = Vec::new();
    let mut out = Out::new(&opts);

    // Per size: one APU CPU core, pthreads on four of them, and CCSVM.
    let params: Vec<_> = sizes
        .iter()
        .map(|&bodies| bh::BhParams {
            bodies,
            steps: 1,
            max_threads: 1280,
            seed: 42,
        })
        .collect();
    let mut jobs = Vec::new();
    for p in &params {
        let (cpu, label) = (&apu.cpu_chip, format!("fig7-b{}", p.bodies));
        jobs.push((format!("{label}-cpu"), cpu.clone(), bh::cpu_source(p)));
        let pthreads = bh::pthreads_source(p, 4);
        jobs.push((format!("{label}-pthreads"), cpu.clone(), pthreads));
        jobs.push((label, opts.config(), bh::xthreads_source(p)));
    }
    let reports = run_jobs(&jobs, opts.threads)?;

    out.header(
        "Figure 7: Barnes-Hut runtime (ms, and relative to AMD CPU core = 1.0)",
        &[
            "bodies",
            "   CPU ms",
            "pthr4 ms",
            " CCSVM ms",
            "pthr4 rel",
            "CCSVM rel",
        ],
    );
    for (p, r) in params.iter().zip(reports.chunks(3)) {
        let (nb, oracle) = (p.bodies, bh::oracle_checksum(p));
        let (t_cpu, _, c1) = region_numbers(&r[0]);
        check_eq(c1, oracle, format!("{nb} bodies: CPU result"))?;
        let (t_pth, _, c2) = region_numbers(&r[1]);
        check_eq(c2, oracle, format!("{nb} bodies: pthreads result"))?;
        let (t_ccsvm, _, c3) = region_numbers(&r[2]);
        check_eq(c3, oracle, format!("{nb} bodies: CCSVM result"))?;

        out.line(format!(
            "{nb:6} | {} | {} | {} | {} | {}",
            ms(t_cpu),
            ms(t_pth),
            ms(t_ccsvm),
            rel(t_pth, t_cpu),
            rel(t_ccsvm, t_cpu),
        ));

        if nb >= 512 {
            claims.check(
                t_pth < t_cpu,
                &format!("{nb} bodies: pthreads x4 beats one core"),
            );
        }
        if nb >= 1024 {
            claims.check(
                t_ccsvm < t_cpu,
                &format!("{nb} bodies: CCSVM beats the single CPU core"),
            );
        }
        rels.push(t_ccsvm.as_ps() as f64 / t_cpu.as_ps() as f64);
    }
    // The crossover against the single CPU lands around 1024 bodies at our
    // scaled sizes. The paper's stronger CCSVM-beats-pthreads headline is
    // not reproduced at any size we can simulate: from 1,024 to 16,384
    // bodies CCSVM / pthreads×4 goes 2.06, 1.81, 1.65, 1.53, 1.52, levelling
    // near 1.5. The suspected cause is the sequential tree build on the
    // CCSVM chip's max-IPC-0.5 CPU (the baselines build on the APU's
    // max-IPC-4 cores), not yet tested by an ablation. Only the trend
    // against one CPU core is checked below; see EXPERIMENTS.md.
    claims.check(
        rels.windows(2).all(|w| w[1] <= w[0] * 1.05),
        "CCSVM relative runtime improves (or holds) as the problem grows",
    );
    out.line(format!(
        "note: CCSVM relative-runtime trend across sizes: {:?}",
        rels.iter()
            .map(|r| (r * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    ));
    out.finish()?;
    claims.finish("fig7")
}
