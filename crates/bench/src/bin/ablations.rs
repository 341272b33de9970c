//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Write-back vs write-through MTTOP L1s** (paper §6.1) — per-store
//!    data pushes inflate NoC/L2 traffic.
//! 2. **TLB shootdown cost vs MTTOP core count** (paper §3.2.1) — the
//!    conservative flush-all broadcast scales with the chip.
//! 3. **Torus link bandwidth** (paper §3.4) — the CCSVM network is sized
//!    generously; how much does it matter?
//! 4. **Launch-path overhead sensitivity** (paper §5.2) — what makes loose
//!    coupling slow: sweep an artificial per-chunk dispatch cost toward
//!    driver-like values.
//! 5. **Atomics contention** (paper §3.2.4) — L1-resident atomics under
//!    increasing sharing.

#![forbid(unsafe_code)]

use ccsvm::SystemConfig;
use ccsvm_bench::{check_eq, exit_with, region_numbers, run_jobs, BenchError, Job, Opts, Out};
use ccsvm_engine::Time;
use ccsvm_mem::WritePolicy;
use ccsvm_workloads as wl;

/// A point running `src` on the paper's chip as changed by `tweak`.
fn job(src: &str, tweak: impl FnOnce(&mut SystemConfig)) -> Job {
    let mut cfg = SystemConfig::paper_default();
    tweak(&mut cfg);
    ("ablations".into(), cfg, src.into())
}

fn main() {
    exit_with(run());
}

fn run() -> Result<(), BenchError> {
    let opts = Opts::parse(&["--quick", "--threads", "--out"])?;
    let n = if opts.quick { 16 } else { 48 };
    let mut out = Out::new(&opts);

    let policies = [
        ("write-back", WritePolicy::WriteBack),
        ("write-through", WritePolicy::WriteThrough),
    ];
    let core_counts = [1usize, 2, 4, 10];
    let link_gbps = [3.0, 6.0, 12.0, 24.0];
    let launch_mults = [1u64, 10, 100, 1000];
    let counters = [1u64, 8, 64, 1280];
    let mm = wl::matmul::MatmulParams::new(n, 7);
    let mm_src = wl::matmul::xthreads_source(&mm);
    let va = wl::vecadd::VecaddParams { n: 256, seed: 7 };
    let shoot_src = "
        _CPU_ fn main() -> int {
            let p: int* = malloc(4096 * 16);
            for (let i = 0; i < 16; i = i + 1) { p[i * 512] = i; }
            print_int(-7000001);
            for (let i = 0; i < 16; i = i + 1) { munmap((p as int) + i * 4096); }
            print_int(-7000002);
            return 0;
        }";
    // Warm the MTTOP TLBs with a kernel, then unmap one page: flush-all
    // destroys every warm translation; selective keeps them.
    let warm_src = "
            struct Args { data: int*; done: int*; victim: int*; }
            _MTTOP_ fn warm(tid: int, a: Args*) {
                let s = 0;
                for (let r = 0; r < 4; r = r + 1) {
                    for (let i = 0; i < 64; i = i + 1) {
                        s = s + a->data[i * 512 + tid % 8];
                    }
                }
                a->done[tid] = s + 1;
            }
            _CPU_ fn main() -> int {
                let a: Args* = malloc(sizeof(Args));
                a->data = malloc(64 * 4096);
                a->victim = malloc(4096);
                a->done = malloc(80 * 8);
                a->victim[0] = 1;
                for (let i = 0; i < 64; i = i + 1) { a->data[i * 512] = i; }
                for (let t = 0; t < 80; t = t + 1) { a->done[t] = 0; }
                xt_create_mthread(warm, a as int, 0, 79);
                let ok = 0;
                while (ok != 80) {
                    ok = 0;
                    for (let t = 0; t < 80; t = t + 1) {
                        if (a->done[t] != 0) { ok = ok + 1; }
                    }
                }
                print_int(-7000001);
                munmap(a->victim as int);
                for (let t = 0; t < 80; t = t + 1) { a->done[t] = 0; }
                xt_create_mthread(warm, a as int, 0, 79);
                ok = 0;
                while (ok != 80) {
                    ok = 0;
                    for (let t = 0; t < 80; t = t + 1) {
                        if (a->done[t] != 0) { ok = ok + 1; }
                    }
                }
                print_int(-7000002);
                return 0;
            }";

    // Every ablation's points, in the order the sections below print them.
    let mut jobs = Vec::new();
    for (_, policy) in policies {
        jobs.push(job(&mm_src, |c| c.l1_write_policy = policy));
    }
    for cores in core_counts {
        jobs.push(job(shoot_src, |c| c.n_mttops = cores));
    }
    for selective in [false, true] {
        jobs.push(job(warm_src, |c| c.mttop_selective_shootdown = selective));
    }
    for gbps in link_gbps {
        jobs.push(job(&mm_src, |c| c.noc.link_bytes_per_ns = gbps));
    }
    for mult in launch_mults {
        jobs.push(job(&wl::vecadd::xthreads_source(&va), |c| {
            c.os.mifd_chunk = Time::from_ps(c.os.mifd_chunk.as_ps() * mult);
            c.os.syscall = Time::from_ps(c.os.syscall.as_ps() * mult);
        }));
    }
    for targets in counters {
        let src = format!(
            "_MTTOP_ fn k(tid: int, ctrs: int*) {{
                 for (let i = 0; i < 32; i = i + 1) {{
                     atomic_add(ctrs + tid % {targets}, 1);
                 }}
             }}
             _CPU_ fn main() -> int {{
                 let ctrs: int* = malloc({targets} * 8);
                 for (let i = 0; i < {targets}; i = i + 1) {{ ctrs[i] = 0; }}
                 print_int(-7000001);
                 xt_create_mthread(k, ctrs as int, 0, 1279);
                 let total = 0;
                 while (total != 1280 * 32) {{
                     total = 0;
                     for (let i = 0; i < {targets}; i = i + 1) {{ total = total + ctrs[i]; }}
                 }}
                 print_int(-7000002);
                 return total;
             }}"
        );
        jobs.push(job(&src, |_| {}));
    }
    let mut reports = run_jobs(&jobs, opts.threads)?.into_iter();
    let mut next = || {
        let r = reports.next().expect("one report per job");
        (region_numbers(&r).0, r)
    };

    out.line(format!("== Ablation 1: L1 store policy (matmul n={n})"));
    for (name, _) in policies {
        let (t, r) = next();
        check_eq(
            r.exit_code,
            wl::matmul::reference_checksum(&mm),
            format!("{name} matmul result"),
        )?;
        out.line(format!(
            "  {name:13} region {t}  noc bytes {:.0}  l2 puts {:.0}",
            r.stats.get("noc.bytes"),
            r.stats.sum_prefix("mem.l2.") - r.stats.sum_prefix("mem.l2.hits"),
        ));
    }

    out.line("== Ablation 2: TLB shootdown cost vs MTTOP cores");
    for cores in core_counts {
        let (t, r) = next();
        check_eq(r.exit_code, 0, format!("{cores}-core shootdown exit code"))?;
        out.line(format!(
            "  {cores:2} MTTOP cores: 16 shootdowns in {t}  ({} each)",
            Time::from_ps(t.as_ps() / 16)
        ));
    }

    out.line("== Ablation 2b: shootdown policy (flush-all vs selective, paper 3.2.1)");
    for selective in [false, true] {
        let (t, r) = next();
        check_eq(
            r.exit_code,
            0,
            format!("shootdown policy (selective {selective}) exit code"),
        )?;
        let walks: f64 = (0..10)
            .map(|i| r.stats.get(&format!("mttop.{i}.tlb_walks")))
            .sum();
        out.line(format!(
            "  {}: post-shootdown phase {t}  (mttop TLB walks {walks:.0})",
            if selective {
                "selective "
            } else {
                "flush-all "
            },
        ));
    }

    out.line(format!(
        "== Ablation 3: torus link bandwidth (matmul n={n})"
    ));
    for gbps in link_gbps {
        let (t, r) = next();
        check_eq(
            r.exit_code,
            wl::matmul::reference_checksum(&mm),
            format!("{gbps} GB/s matmul result"),
        )?;
        out.line(format!("  {gbps:5.1} GB/s links: region {t}"));
    }

    out.line("== Ablation 4: launch-path overhead sensitivity (vecadd n=256)");
    for mult in launch_mults {
        let (t, r) = next();
        check_eq(
            r.exit_code,
            wl::vecadd::reference_checksum(&va),
            format!("launch x{mult} vecadd result"),
        )?;
        out.line(format!("  launch costs x{mult:4}: region {t}"));
    }

    out.line("== Ablation 5: atomic contention (fetch-and-add across 1280 threads)");
    for targets in counters {
        let (t, r) = next();
        check_eq(
            r.exit_code,
            1280 * 32,
            format!("{targets}-counter atomic total"),
        )?;
        out.line(format!("  {targets:4} counters: 40960 atomics in {t}"));
    }
    out.line("[ablations] done");
    out.finish()
}
