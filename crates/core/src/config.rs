//! System configuration (the paper's Table 2, CCSVM column).

use ccsvm_cpu::CpuConfig;
use ccsvm_engine::{FaultConfig, SanitizerConfig, Time};
use ccsvm_mem::{CacheConfig, DramConfig, ProtocolKind, WritePolicy};
use ccsvm_mttop::MttopConfig;
use ccsvm_noc::NocConfig;

/// Modeled operating-system service costs. The paper runs unmodified Linux
/// 2.6; these constants stand in for the handler paths its evaluation
/// exercises (documented in EXPERIMENTS.md).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OsCosts {
    /// Kernel entry/exit + simple service (malloc bookkeeping, MIFD write).
    pub syscall: Time,
    /// Page-fault trap + handler, excluding the PTE stores (those are
    /// simulated as real coherent stores).
    pub page_fault: Time,
    /// Per-target IPI delivery/handling during TLB shootdown.
    pub ipi: Time,
    /// MIFD per-chunk dispatch occupancy.
    pub mifd_chunk: Time,
}

impl OsCosts {
    /// Defaults calibrated to 2011-class Linux (see EXPERIMENTS.md).
    pub fn default_costs() -> OsCosts {
        OsCosts {
            syscall: Time::from_ns(400),
            page_fault: Time::from_ns(800),
            ipi: Time::from_ns(500),
            mifd_chunk: Time::from_ns(20),
        }
    }
}

/// The L1 undo-journal budget. Nothing in the machine reads it and it never
/// changes simulated behavior. Removed with the ledger's
/// `matmul_epochs`/`core.zones`/`mem.spec_*`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpeculationConfig {
    /// L1 undo-journal budget in cache sets, past which the journal falls
    /// back to a full set snapshot. Read only by the ledger's
    /// `mem.spec_*` probes.
    pub undo_sets: usize,
}

impl Default for SpeculationConfig {
    fn default() -> SpeculationConfig {
        SpeculationConfig { undo_sets: 24 }
    }
}

/// Full-chip configuration. [`SystemConfig::paper_default`] reproduces the
/// Table 2 CCSVM column.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of CPU cores.
    pub n_cpus: usize,
    /// Number of MTTOP cores.
    pub n_mttops: usize,
    /// CPU core parameters.
    pub cpu: CpuConfig,
    /// MTTOP core parameters (`ctx_base` is filled in per core).
    pub mttop: MttopConfig,
    /// CPU L1 geometry (64 KB, 4-way).
    pub cpu_l1: CacheConfig,
    /// CPU L1 hit latency (2 CPU cycles).
    pub cpu_l1_hit: Time,
    /// CPU L1 MSHRs.
    pub cpu_mshrs: usize,
    /// MTTOP L1 geometry (16 KB, 4-way).
    pub mttop_l1: CacheConfig,
    /// MTTOP L1 hit latency (1 MTTOP cycle).
    pub mttop_l1_hit: Time,
    /// MTTOP L1 MSHRs (one per two warps by default).
    pub mttop_mshrs: usize,
    /// L1 store policy (write-back; write-through for the §6.1 ablation).
    pub l1_write_policy: WritePolicy,
    /// Coherence protocol (the paper's directory MOESI by default; snooping
    /// MESI and Dragon write-update for the cross-protocol evaluation).
    /// Participates in the config hash: snapshots from one protocol refuse
    /// to restore into another.
    pub protocol: ProtocolKind,
    /// Number of shared-L2 banks.
    pub l2_banks: usize,
    /// Per-bank geometry (4 × 1 MB, 16-way).
    pub l2_bank: CacheConfig,
    /// L2 bank access latency (≈10 CPU cycles ≈ 2 MTTOP cycles).
    pub l2_latency: Time,
    /// DRAM parameters (100 ns).
    pub dram: DramConfig,
    /// Interconnect parameters (12 GB/s links).
    pub noc: NocConfig,
    /// Torus shape (cols, rows); must fit CPUs+banks+MIFD+MTTOPs.
    pub torus: (usize, usize),
    /// OS cost model.
    pub os: OsCosts,
    /// Shootdown policy for MTTOP TLBs: the paper's conservative choice is a
    /// full flush ("a simple, viable option", §3.2.1); selective
    /// invalidation is the paper's suggested refinement, implemented here as
    /// an extension/ablation.
    pub mttop_selective_shootdown: bool,
    /// Physical pool handed to OsLite: `[base, end)`.
    pub phys_pool: (u64, u64),
    /// Hard wall-clock limit for a run (deadlock/runaway guard).
    pub max_sim_time: Time,
    /// Fault injection and forward-progress watchdog. Defaults to all
    /// injectors off (bit-identical to a fault-free build) with the
    /// watchdog armed.
    pub fault: FaultConfig,
    /// Coherence sanitizer: always-on invariant checking over mem/noc/vm
    /// (DESIGN §9). Off by default; enabling it never changes simulated
    /// behavior — reports stay bit-identical — it only *observes* and, on a
    /// violation, aborts the run with [`crate::Outcome::InvariantViolation`].
    pub sanitizer: SanitizerConfig,
    /// Record a host wall-clock breakdown per run phase (core-exec, uncore,
    /// merge, other) — perf-artifact telemetry; adds one `Instant` read per
    /// phase switch, so it's off by default and benchmarks enable it on a
    /// separate run.
    pub host_profile: bool,
    /// Capacity of the machine's event trace ([`crate::Trace`]): the last
    /// `trace_events` dispatched events, read with
    /// [`crate::Machine::trace`]. 0 (the default) records nothing. Host-side
    /// telemetry: reports are bit-identical at any setting, and
    /// [`crate::config_hash`] ignores it.
    pub trace_events: usize,
    /// Decoded-superblock fast path on CPU and MTTOP cores (DESIGN §11). Pure
    /// host-perf knob: disabling it (`--no-sb-cache`)
    /// never changes simulated behavior — `RunReport`s stay bit-identical —
    /// it only ablates the host-side decoded-dispatch fast path.
    pub sb_cache: bool,
    /// The ledger's L1 undo-journal budget; never changes simulated
    /// results.
    pub speculation: SpeculationConfig,
}

impl SystemConfig {
    /// The Table 2 CCSVM system: 4 CPUs, 10 MTTOPs, 4 MB shared L2, 2D torus,
    /// 2 GB DRAM @ 100 ns.
    pub fn paper_default() -> SystemConfig {
        SystemConfig {
            n_cpus: 4,
            n_mttops: 10,
            cpu: CpuConfig::paper_ccsvm(),
            mttop: MttopConfig::paper_ccsvm(0),
            cpu_l1: CacheConfig::from_capacity(64 * 1024, 4),
            cpu_l1_hit: Time::from_ps(690), // 2 cycles @ 2.9 GHz
            cpu_mshrs: 4,
            mttop_l1: CacheConfig::from_capacity(16 * 1024, 4),
            mttop_l1_hit: Time::from_ps(1_667), // 1 cycle @ 600 MHz
            mttop_mshrs: 16, // deep miss queues: latency hiding is the MTTOP point
            l1_write_policy: WritePolicy::WriteBack,
            protocol: ProtocolKind::Directory,
            l2_banks: 4,
            l2_bank: CacheConfig::from_capacity(1024 * 1024, 16),
            l2_latency: Time::from_ps(3_450), // 10 CPU cycles
            dram: DramConfig::paper_default(),
            noc: NocConfig::paper_default(),
            torus: (4, 5),
            os: OsCosts::default_costs(),
            mttop_selective_shootdown: false,
            phys_pool: (0x10_0000, 2 * 1024 * 1024 * 1024),
            max_sim_time: Time::from_ms(30_000),
            fault: FaultConfig::default(),
            sanitizer: SanitizerConfig::default(),
            host_profile: false,
            trace_events: 0,
            sb_cache: true,
            speculation: SpeculationConfig::default(),
        }
    }

    /// A scaled-down machine for fast unit/integration tests: 2 CPUs,
    /// 2 MTTOPs with 4 warps each, small caches.
    pub fn tiny() -> SystemConfig {
        let mut c = SystemConfig::paper_default();
        c.n_cpus = 2;
        c.n_mttops = 2;
        c.mttop.warps = 32; // 32 single-lane contexts per core = 64 threads
        c.cpu_l1 = CacheConfig::from_capacity(8 * 1024, 2);
        c.mttop_l1 = CacheConfig::from_capacity(8 * 1024, 2);
        c.l2_banks = 2;
        c.l2_bank = CacheConfig::from_capacity(64 * 1024, 4);
        c.torus = (3, 3);
        c.max_sim_time = Time::from_ms(200);
        c
    }

    /// Looks up a named configuration preset. Replay bundles record the
    /// preset name instead of serializing a whole `SystemConfig`; the
    /// snapshot header's config hash catches any drift between the recorded
    /// run and the rebuilt preset.
    pub fn by_preset(name: &str) -> Option<SystemConfig> {
        match name {
            "paper_default" => Some(SystemConfig::paper_default()),
            "tiny" => Some(SystemConfig::tiny()),
            "tiny_brief" => Some(SystemConfig::tiny_brief()),
            "tiny_campaign" => Some(SystemConfig::tiny_campaign()),
            _ => None,
        }
    }

    /// [`SystemConfig::tiny`] with a much shorter `max_sim_time` (100 µs).
    /// Sweep jobs that wedge (spin loops, lost wakeups) hit the deadline and
    /// abort with a typed outcome in well under a host-second, which keeps
    /// retry-then-poison flows and their tests fast. Registered as the
    /// `tiny_brief` preset so replay bundles captured from such jobs rebuild
    /// the exact config.
    pub fn tiny_brief() -> SystemConfig {
        let mut c = SystemConfig::tiny();
        c.max_sim_time = Time::from_us(100);
        c
    }

    /// [`SystemConfig::tiny`] capped at 1 ms of simulated time: the fault
    /// campaign's preset. Solicitation-round recovery trades latency for
    /// loss — at a 5 µs recovery timeout, ~100 dropped probes cost ~500 µs
    /// of re-solicitation, which `tiny_brief`'s 100 µs deadline cannot
    /// absorb (the run would be misclassified as a wedge) while `tiny`'s
    /// 200 ms deadline would let a genuinely wedged cell simulate far too
    /// long. 1 ms bounds a wedge in well under a host-second and still
    /// leaves recovery-heavy cells ~8x headroom.
    pub fn tiny_campaign() -> SystemConfig {
        let mut c = SystemConfig::tiny();
        c.max_sim_time = Time::from_ms(1);
        c
    }

    /// Total MTTOP thread contexts (the MIFD's capacity).
    pub fn mttop_threads(&self) -> u64 {
        (self.n_mttops * self.mttop.warps * self.mttop.lanes) as u64
    }

    /// Nodes required on the torus.
    pub fn nodes_needed(&self) -> usize {
        self.n_cpus + self.n_mttops + self.l2_banks + 1
    }

    /// A Table-2-style description of this configuration.
    pub fn describe(&self) -> String {
        format!(
            "CPU:    {} in-order cores, {:.1} GHz, max IPC {}\n\
             MTTOP:  {} cores, {:.0} MHz, {} warps x {} lanes ({} thread contexts)\n\
             L1:     CPU {} KB {}-way ({} hit); MTTOP {} KB {}-way ({} hit)\n\
             L2:     {} banks x {} KB, {}-way, {} latency, {}\n\
             DRAM:   {} latency, {:.1} B/ns/channel, {} channels\n\
             NoC:    {}x{} torus, {:.0} GB/s links\n",
            self.n_cpus,
            self.cpu.clock.hz() / 1e9,
            self.cpu.cycles_per_instr_den as f64 / self.cpu.cycles_per_instr_num as f64,
            self.n_mttops,
            self.mttop.clock.hz() / 1e6,
            self.mttop.warps,
            self.mttop.lanes,
            self.mttop_threads(),
            self.cpu_l1.capacity() / 1024,
            self.cpu_l1.ways,
            self.cpu_l1_hit,
            self.mttop_l1.capacity() / 1024,
            self.mttop_l1.ways,
            self.mttop_l1_hit,
            self.l2_banks,
            self.l2_bank.capacity() / 1024,
            self.l2_bank.ways,
            self.l2_latency,
            match self.protocol {
                ProtocolKind::Directory => "inclusive, MOESI directory",
                ProtocolKind::MesiSnoop => "non-inclusive, snooping MESI (bank-ordered)",
                ProtocolKind::Dragon => "non-inclusive, Dragon write-update (bank-ordered)",
            },
            self.dram.latency,
            self.dram.bytes_per_ns,
            self.dram.channels,
            self.torus.0,
            self.torus.1,
            self.noc.link_bytes_per_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table2() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.n_cpus, 4);
        assert_eq!(c.n_mttops, 10);
        assert_eq!(c.mttop_threads(), 1280); // 10 x 128
        assert_eq!(c.cpu_l1.capacity(), 64 * 1024);
        assert_eq!(c.mttop_l1.capacity(), 16 * 1024);
        assert_eq!(c.l2_banks * c.l2_bank.capacity(), 4 * 1024 * 1024);
        assert_eq!(c.dram.latency, Time::from_ns(100));
        assert!(c.nodes_needed() <= c.torus.0 * c.torus.1);
    }

    #[test]
    fn describe_mentions_key_numbers() {
        let d = SystemConfig::paper_default().describe();
        assert!(d.contains("2.9 GHz"));
        assert!(d.contains("600 MHz"));
        assert!(d.contains("1280"));
        assert!(d.contains("torus"));
    }

    #[test]
    fn tiny_fits_its_torus() {
        let c = SystemConfig::tiny();
        assert!(c.nodes_needed() <= c.torus.0 * c.torus.1);
    }
}
