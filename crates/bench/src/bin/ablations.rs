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

use ccsvm::{RunReport, SystemConfig};
use ccsvm_bench::{check_eq, exit_with, region_numbers, run_program, BenchError, Opts, Out};
use ccsvm_engine::Time;
use ccsvm_mem::WritePolicy;
use ccsvm_workloads as wl;

fn run_with(cfg: SystemConfig, src: &str) -> (Time, RunReport) {
    let r = run_program(cfg, src, "ablations");
    (region_numbers(&r).0, r)
}

fn main() {
    exit_with(run());
}

fn run() -> Result<(), BenchError> {
    let opts = Opts::parse(&["--quick", "--out"])?;
    let n = if opts.quick { 16 } else { 48 };
    let mut out = Out::new(&opts);

    out.line(format!("== Ablation 1: L1 store policy (matmul n={n})"));
    for (name, policy) in [
        ("write-back", WritePolicy::WriteBack),
        ("write-through", WritePolicy::WriteThrough),
    ] {
        let mut cfg = SystemConfig::paper_default();
        cfg.l1_write_policy = policy;
        let p = wl::matmul::MatmulParams::new(n, 7);
        let (t, r) = run_with(cfg, &wl::matmul::xthreads_source(&p));
        check_eq(
            r.exit_code,
            wl::matmul::reference_checksum(&p),
            format!("{name} matmul result"),
        )?;
        out.line(format!(
            "  {name:13} region {t}  noc bytes {:.0}  l2 puts {:.0}",
            r.stats.get("noc.bytes"),
            r.stats.sum_prefix("mem.l2.") - r.stats.sum_prefix("mem.l2.hits"),
        ));
    }

    out.line("== Ablation 2: TLB shootdown cost vs MTTOP cores");
    let shoot_src = "
        _CPU_ fn main() -> int {
            let p: int* = malloc(4096 * 16);
            for (let i = 0; i < 16; i = i + 1) { p[i * 512] = i; }
            print_int(-7000001);
            for (let i = 0; i < 16; i = i + 1) { munmap((p as int) + i * 4096); }
            print_int(-7000002);
            return 0;
        }";
    for cores in [1usize, 2, 4, 10] {
        let mut cfg = SystemConfig::paper_default();
        cfg.n_mttops = cores;
        let (t, r) = run_with(cfg, shoot_src);
        check_eq(r.exit_code, 0, format!("{cores}-core shootdown exit code"))?;
        out.line(format!(
            "  {cores:2} MTTOP cores: 16 shootdowns in {t}  ({} each)",
            Time::from_ps(t.as_ps() / 16)
        ));
    }

    out.line("== Ablation 2b: shootdown policy (flush-all vs selective, paper 3.2.1)");
    {
        // Warm the MTTOP TLBs with a kernel, then unmap one page: flush-all
        // destroys every warm translation; selective keeps them.
        let src = "
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
        for selective in [false, true] {
            let mut cfg = SystemConfig::paper_default();
            cfg.mttop_selective_shootdown = selective;
            let (t, r) = run_with(cfg, src);
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
    }

    out.line(format!(
        "== Ablation 3: torus link bandwidth (matmul n={n})"
    ));
    for gbps in [3.0, 6.0, 12.0, 24.0] {
        let mut cfg = SystemConfig::paper_default();
        cfg.noc.link_bytes_per_ns = gbps;
        let p = wl::matmul::MatmulParams::new(n, 7);
        let (t, r) = run_with(cfg, &wl::matmul::xthreads_source(&p));
        check_eq(
            r.exit_code,
            wl::matmul::reference_checksum(&p),
            format!("{gbps} GB/s matmul result"),
        )?;
        out.line(format!("  {gbps:5.1} GB/s links: region {t}"));
    }

    out.line("== Ablation 4: launch-path overhead sensitivity (vecadd n=256)");
    for mult in [1u64, 10, 100, 1000] {
        let mut cfg = SystemConfig::paper_default();
        cfg.os.mifd_chunk = Time::from_ps(cfg.os.mifd_chunk.as_ps() * mult);
        cfg.os.syscall = Time::from_ps(cfg.os.syscall.as_ps() * mult);
        let p = wl::vecadd::VecaddParams { n: 256, seed: 7 };
        let (t, r) = run_with(cfg, &wl::vecadd::xthreads_source(&p));
        check_eq(
            r.exit_code,
            wl::vecadd::reference_checksum(&p),
            format!("launch x{mult} vecadd result"),
        )?;
        out.line(format!("  launch costs x{mult:4}: region {t}"));
    }

    out.line("== Ablation 5: atomic contention (fetch-and-add across 1280 threads)");
    for targets in [1u64, 8, 64, 1280] {
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
        let (t, r) = run_with(SystemConfig::paper_default(), &src);
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
