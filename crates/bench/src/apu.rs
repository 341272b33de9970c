//! The loosely-coupled APU baseline (paper §2.3, §5.1: AMD A8-3850 "Llano"
//! running OpenCL).
//!
//! The paper compares its simulated CCSVM chip against *real* Llano hardware.
//! This module models that baseline as the sum of the behaviours that make
//! loose coupling slow, per §2.3:
//!
//! * **Separate address spaces**: CPU and GPU communicate only through
//!   DRAM-staged DMA of pinned buffers — every offload pays
//!   `2 × (latency + bytes/bandwidth)` and the corresponding DRAM traffic
//!   (this is the Figure 9 gap).
//! * **Driver-mediated launches**: each `clEnqueueNDRangeKernel` +
//!   completion sync costs a fixed driver overhead — so per-iteration
//!   barriers (APSP) become per-iteration relaunches (Figure 6).
//! * **One-time OpenCL costs**: `clBuildProgram` JIT compilation and
//!   platform/context/queue initialization. The paper reports APU runtimes
//!   both with and without these (Figure 5's two APU series).
//! * **Raw-throughput advantage**: the Radeon's VLIW-4 cores reach up to 4×
//!   the CCSVM MTTOP's operations per cycle (Table 2); kernel *execution* is
//!   simulated on a chip whose MTTOP cores are configured with
//!   `vliw_ops_per_lane = 4`. Its CPU cores run at max IPC 4 (out-of-order).
//!
//! Kernel execution and the CPU-only baseline are **simulated** (same
//! component library as the CCSVM chip): a harness runs the kernel as an
//! ordinary point on [`ApuConfig::gpu_chip`] and the CPU baselines on
//! [`ApuConfig::cpu_chip`]. This module runs no machine. [`ApuReport::offload`]
//! adds the driver/DMA costs to the kernel's report; they are modeled
//! constants, scaled for the simulable problem sizes and documented in
//! EXPERIMENTS.md. We cannot run the authors' 2011 hardware; what the
//! paper's comparison needs is the overhead *structure*, which this
//! preserves.

use ccsvm::{RunReport, SystemConfig};
use ccsvm_engine::Time;
use ccsvm_workloads::{region_dram, region_time};

/// APU model parameters. See [`ApuConfig::paper_scaled`].
#[derive(Clone, Debug)]
pub struct ApuConfig {
    /// `clBuildProgram` JIT compilation (one-time).
    pub compile_time: Time,
    /// Platform/context/queue/buffer initialization (one-time).
    pub init_time: Time,
    /// Per-kernel-launch driver overhead including completion sync.
    pub launch_overhead: Time,
    /// Per-DMA-transfer setup latency.
    pub dma_latency: Time,
    /// DMA staging bandwidth in bytes/ns.
    pub dma_bytes_per_ns: f64,
    /// The APU's CPU subsystem (max IPC 4, 72 ns DRAM), on which the CPU
    /// and pthreads baselines run: the "AMD CPU" denominator of Figures 5–8.
    pub cpu_chip: SystemConfig,
    /// The APU's GPU subsystem (VLIW-4 MTTOP cores), on which an offloaded
    /// kernel runs.
    pub gpu_chip: SystemConfig,
}

impl ApuConfig {
    /// Constants scaled for the simulable problem range (the paper sweeps to
    /// 1024×1024; we sweep to 128–256, so the one-time costs are scaled by
    /// ~1/10 to keep the Figure 5 crossover structure inside the measured
    /// range — see EXPERIMENTS.md for the calibration table).
    pub fn paper_scaled() -> ApuConfig {
        let mut cpu_chip = SystemConfig::paper_default();
        cpu_chip.cpu = ccsvm_cpu::CpuConfig::paper_apu();
        cpu_chip.cpu_l1_hit = Time::from_ps(345); // 1 ns-class L1 (Table 2)
        cpu_chip.dram.latency = Time::from_ns(72); // Table 2 APU DRAM
        cpu_chip.n_mttops = 1; // present but unused (the torus needs ≥1)

        let mut gpu_chip = SystemConfig::paper_default();
        // The Radeon is a lockstep VLIW SIMD machine, unlike the CCSVM
        // MTTOP's fine-grained scheduling.
        gpu_chip.mttop = ccsvm_mttop::MttopConfig::apu_gpu(0);
        gpu_chip.dram.latency = Time::from_ns(72);
        // The GPU-side host core also runs at APU speed (it only launches
        // and waits; its speed barely matters).
        gpu_chip.cpu = ccsvm_cpu::CpuConfig::paper_apu();

        ApuConfig {
            compile_time: Time::from_ms(10),
            init_time: Time::from_ms(5),
            launch_overhead: Time::from_us(100),
            dma_latency: Time::from_us(10),
            dma_bytes_per_ns: 6.0, // Llano-class pinned-memory staging
            cpu_chip,
            gpu_chip,
        }
    }
}

/// What an offload moves and launches.
#[derive(Clone, Copy, Debug)]
pub struct OffloadShape {
    /// Total bytes staged to the GPU plus staged back (all buffers).
    pub buffer_bytes: u64,
    /// Kernel launches the OpenCL host performs (APSP: one per outer
    /// iteration; matmul: one).
    pub launches: u64,
}

/// The modeled APU run, decomposed the way the paper reports it.
#[derive(Clone, Debug)]
pub struct ApuReport {
    /// Simulated kernel execution (on the VLIW GPU chip).
    pub kernel_time: Time,
    /// DMA staging time (both directions).
    pub dma_time: Time,
    /// Driver launch/sync overhead (`launches × launch_overhead`).
    pub driver_time: Time,
    /// One-time initialization.
    pub init_time: Time,
    /// One-time JIT compilation.
    pub compile_time: Time,
    /// Full runtime (everything) — Figure 5's "APU" series.
    pub total: Time,
    /// Runtime without compilation and initialization — Figure 5's second
    /// APU series.
    pub total_no_init: Time,
    /// Off-chip accesses: GPU-side demand traffic + DMA staging blocks.
    pub dram_accesses: u64,
    /// Kernel result checksum (validation).
    pub exit_code: u64,
}

impl ApuConfig {
    /// Time to stage `bytes` one way at [`ApuConfig::dma_bytes_per_ns`],
    /// excluding [`ApuConfig::dma_latency`].
    pub(crate) fn dma_transfer(&self, bytes: u64) -> Time {
        Time::from_ps((bytes as f64 * 1_000.0 / self.dma_bytes_per_ns).ceil() as u64)
    }
}

impl ApuReport {
    /// The modeled APU run of an offloaded workload: the measured region of
    /// `kernel`, the report of its xthreads program on
    /// [`ApuConfig::gpu_chip`], plus the DMA, driver and setup costs of
    /// `shape`.
    pub fn offload(cfg: &ApuConfig, kernel: &RunReport, shape: OffloadShape) -> ApuReport {
        let kernel_time = region_time(&kernel.printed, &kernel.printed_at, kernel.time);
        let kernel_dram = region_dram(&kernel.printed, &kernel.dram_at_print, kernel.dram_accesses);

        let xfer = cfg.dma_transfer(shape.buffer_bytes);
        let dma_time = cfg.dma_latency + xfer + cfg.dma_latency + xfer; // in + out
        let driver_time = Time::from_ps(cfg.launch_overhead.as_ps() * shape.launches);
        let total_no_init = kernel_time + dma_time + driver_time;
        let total = total_no_init + cfg.init_time + cfg.compile_time;
        // Staging writes the pinned region and the GPU reads it (and vice
        // versa for results): 2 DRAM accesses per staged block, both
        // directions.
        let dma_blocks = 2 * shape.buffer_bytes.div_ceil(64) * 2;
        ApuReport {
            kernel_time,
            dma_time,
            driver_time,
            init_time: cfg.init_time,
            compile_time: cfg.compile_time,
            total,
            total_no_init,
            dram_accesses: kernel_dram + dma_blocks,
            exit_code: kernel.exit_code,
        }
    }
}
