//! APU baseline end-to-end: the decomposition behaves like §2.3 says it
//! should, and results stay correct. The kernel and the CPU baseline run as
//! ordinary machines on the APU's chips; [`ApuReport::offload`] adds the
//! modeled overheads to the kernel's report.

use ccsvm::{Machine, RunReport, SystemConfig};
use ccsvm_bench::apu::{ApuConfig, ApuReport, OffloadShape};
use ccsvm_engine::Time;
use ccsvm_workloads as wl;

fn run(chip: &SystemConfig, src: &str) -> RunReport {
    Machine::new(chip.clone(), wl::build(src)).run()
}

fn small_cfg() -> ApuConfig {
    let mut c = ApuConfig::paper_scaled();
    // Shrink the chips for test speed.
    c.cpu_chip.n_mttops = 1;
    c.gpu_chip.n_mttops = 4;
    c.gpu_chip.max_sim_time = Time::from_ms(2_000);
    c.cpu_chip.max_sim_time = Time::from_ms(2_000);
    c
}

#[test]
fn offload_result_is_correct_and_decomposed() {
    let cfg = small_cfg();
    let p = wl::matmul::MatmulParams {
        n: 8,
        max_threads: 64,
        seed: 3,
    };
    let shape = OffloadShape {
        buffer_bytes: 3 * 8 * 8 * 8,
        launches: 1,
    };
    let kernel = run(&cfg.gpu_chip, &wl::matmul::xthreads_source(&p));
    let r = ApuReport::offload(&cfg, &kernel, shape);
    assert_eq!(r.exit_code, wl::matmul::reference_checksum(&p));
    assert_eq!(
        r.total,
        r.total_no_init + r.init_time + r.compile_time,
        "decomposition adds up"
    );
    assert_eq!(r.total_no_init, r.kernel_time + r.dma_time + r.driver_time);
    assert!(r.total_no_init < r.total);
    assert!(r.dram_accesses > 0);
}

#[test]
fn cpu_baseline_is_faster_than_ccsvm_cpu() {
    // The APU's out-of-order CPU (max IPC 4) must beat the CCSVM chip's
    // in-order core (max IPC 0.5) on the same program — the paper's
    // deliberately conservative stacking (§5.1).
    let p = wl::matmul::MatmulParams {
        n: 16,
        max_threads: 64,
        seed: 3,
    };
    let src = wl::matmul::cpu_source(&p);
    let apu = run(&small_cfg().cpu_chip, &src);
    let apu_t = wl::region_time(&apu.printed, &apu.printed_at, apu.time);

    let mut ccsvm_cfg = SystemConfig::paper_default();
    ccsvm_cfg.n_mttops = 1;
    let r = run(&ccsvm_cfg, &src);
    let ccsvm_t = wl::region_time(&r.printed, &r.printed_at, r.time);

    assert_eq!(apu.exit_code, r.exit_code);
    assert!(
        apu_t < ccsvm_t,
        "APU CPU {apu_t} should beat CCSVM CPU {ccsvm_t}"
    );
}

#[test]
fn per_iteration_launches_hurt_apsp_style_workloads() {
    // Figure 6's mechanism: the same kernel with N launches pays N driver
    // overheads on the APU.
    let cfg = small_cfg();
    let p = wl::matmul::MatmulParams {
        n: 8,
        max_threads: 64,
        seed: 3,
    };
    let kernel = run(&cfg.gpu_chip, &wl::matmul::xthreads_source(&p));
    let one = ApuReport::offload(
        &cfg,
        &kernel,
        OffloadShape {
            buffer_bytes: 1024,
            launches: 1,
        },
    );
    let many = ApuReport::offload(
        &cfg,
        &kernel,
        OffloadShape {
            buffer_bytes: 1024,
            launches: 64,
        },
    );
    let delta = many.total_no_init.saturating_sub(one.total_no_init);
    let expect = Time::from_ps(cfg.launch_overhead.as_ps() * 63);
    assert_eq!(delta, expect);
}

#[test]
fn dma_time_scales_with_bytes() {
    // Figure 9's mechanism: staging cost and traffic grow with the buffers
    // moved, for the same kernel.
    let cfg = small_cfg();
    let p = wl::matmul::MatmulParams {
        n: 8,
        max_threads: 64,
        seed: 3,
    };
    let kernel = run(&cfg.gpu_chip, &wl::matmul::xthreads_source(&p));
    let offload = |buffer_bytes| {
        let shape = OffloadShape {
            buffer_bytes,
            launches: 1,
        };
        ApuReport::offload(&cfg, &kernel, shape)
    };
    let (small, big) = (offload(64), offload(1 << 20));
    assert!(big.dma_time > small.dma_time);
    assert!(big.dram_accesses > small.dram_accesses);
    assert_eq!(big.kernel_time, small.kernel_time);
}
