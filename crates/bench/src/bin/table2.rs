//! Table 2: the simulated CCSVM system and the modeled APU configurations.

#![forbid(unsafe_code)]

use ccsvm::SystemConfig;
use ccsvm_bench::apu::ApuConfig;
use ccsvm_bench::{exit_with, BenchError, Opts, Out};

fn main() {
    exit_with(run());
}

fn run() -> Result<(), BenchError> {
    let mut out = Out::new(&Opts::parse(&["--out"])?);
    out.line("== Table 2: simulated CCSVM system configuration");
    for line in SystemConfig::paper_default().describe().lines() {
        out.line(line);
    }

    let apu = ApuConfig::paper_scaled();
    out.line("\n== Table 2: modeled AMD APU (A8-3850-like) configuration");
    out.line(format!(
        "CPU:    {} out-of-order cores, {:.1} GHz, max IPC {}",
        apu.cpu_chip.n_cpus,
        apu.cpu_chip.cpu.clock.hz() / 1e9,
        apu.cpu_chip.cpu.cycles_per_instr_den as f64 / apu.cpu_chip.cpu.cycles_per_instr_num as f64,
    ));
    out.line(format!(
        "GPU:    {} SIMD units, {:.0} MHz, VLIW x{} (max {} ops/cycle)",
        apu.gpu_chip.n_mttops,
        apu.gpu_chip.mttop.clock.hz() / 1e6,
        apu.gpu_chip.mttop.vliw_ops_per_lane,
        apu.gpu_chip.n_mttops as u64
            * apu.gpu_chip.mttop.lanes as u64
            * apu.gpu_chip.mttop.vliw_ops_per_lane,
    ));
    out.line(format!(
        "DRAM:   {} latency (Table 2: 72 ns)",
        apu.cpu_chip.dram.latency
    ));
    out.line(format!(
        "OpenCL: compile {}  init {}",
        apu.compile_time, apu.init_time
    ));
    out.line(format!(
        "Driver: launch overhead {}  DMA {} + {:.1} B/ns",
        apu.launch_overhead, apu.dma_latency, apu.dma_bytes_per_ns
    ));
    out.line("\n(modeled constants are scaled for simulable problem sizes; see EXPERIMENTS.md)");
    out.finish()
}
