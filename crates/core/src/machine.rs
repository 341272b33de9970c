//! The full-system machine: event loop, OS services, MIFD, shootdowns.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use ccsvm_cpu::{CpuAction, CpuCore};
use ccsvm_engine::{
    sanitizer::check_conservation, EventQueue, FaultDomain, FaultPlan, MutationKind, SpecStats,
    SplitMix64, Stats, Time, Violation, Watchdog,
};
use ccsvm_isa::{sys, DecodedImage, Program};
use ccsvm_mem::{
    Access, AccessResult, BankConfig, Completion, L1Config, MemConfig, MemEvent, MemorySystem,
    PortId, PortLog,
};
use ccsvm_mttop::{Mifd, MttopAction, MttopCore, PageFaultReq, TaskChunk};
use ccsvm_noc::{Network, NodeId, Topology};
use ccsvm_snap::{codec, Codec, SnapError, SnapReader, SnapWriter};
use ccsvm_vm::{GuestHeap, OsLite, PteWrite, VirtAddr, PAGE_BYTES};

use crate::config::SpeculationConfig;
use crate::trace::{Trace, TraceEv};
use crate::SystemConfig;

mod checkpoint;

const KIND_SHIFT: u32 = 60;
const IDX_SHIFT: u32 = 48;
const KIND_CPU: u64 = 1;
const KIND_MTTOP: u64 = 2;
const KIND_HANDLER: u64 = 3;

fn prefix(kind: u64, idx: usize) -> u64 {
    (kind << KIND_SHIFT) | ((idx as u64) << IDX_SHIFT)
}

fn times(t: Time, k: u64) -> Time {
    let ps = t.as_ps().checked_mul(k);
    debug_assert!(
        ps.is_some(),
        "time multiply overflowed: {} ps x {k} — bad config would silently warp simulated time",
        t.as_ps()
    );
    Time::from_ps(ps.unwrap_or(u64::MAX))
}

/// Host wall-clock phase indices for [`PhaseClock`]; the clock idles
/// outside [`Machine::run_until`], and that time is in no `HostPhases`.
const PH_CORE: usize = 0;
const PH_UNCORE: usize = 1;
const PH_MERGE: usize = 2;
const PH_OTHER: usize = 3;
const PH_IDLE: usize = 4;

/// The one clock behind [`HostPhases`] (when [`SystemConfig::host_profile`]
/// is set): exactly one phase runs at a time, from entry to
/// [`Machine::run_until`] to its return, and each switch charges the host
/// time since the previous switch to the phase being left. A switch costs
/// one `Instant` read; a switch to the running phase costs none.
#[derive(Debug)]
struct PhaseClock {
    on: bool,
    phase: usize,
    since: Instant,
    spent: [Duration; 5],
}

impl PhaseClock {
    /// Enters phase `to`; returns the phase it left, for a caller that
    /// resumes it.
    fn switch(&mut self, to: usize) -> usize {
        let from = self.phase;
        if self.on && to != from {
            let now = Instant::now();
            self.spent[from] += now - self.since;
            self.since = now;
            self.phase = to;
        }
        from
    }
}

/// Host wall-clock breakdown of a run (populated when
/// [`SystemConfig::host_profile`] is set), exposing where host time goes in
/// the perf artifact.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostPhases {
    /// Core batch execution (CPU + MTTOP quantum stepping).
    pub core_exec_ms: f64,
    /// Uncore event handling (coherence hops, banks, DRAM) — inherently
    /// serial: it mutates the shared `MemorySystem`.
    pub uncore_ms: f64,
    /// Merge of a batch's buffered core actions into the uncore (port-log
    /// replay, then the batch's outcome).
    pub merge_ms: f64,
    /// Everything else in `run`: the event loop itself (queue pop, trace),
    /// OS services, MIFD, shootdowns, watchdog, the end-of-run sanitizer
    /// sweep and building the report. The four phases sum to the host time
    /// spent inside [`Machine::run_until`].
    pub other_ms: f64,
    /// Host time [`Machine::new`] spent building the decoded image
    /// (DESIGN §11). That is before `run`, so it belongs to none of the
    /// phases above, and it is counted unconditionally (no `host_profile`
    /// gate).
    pub decode_ms: f64,
    /// Always 0: nothing forms zones any more. Removed with the ledger's
    /// `core.zones` metric.
    pub zones: u64,
    /// Always 0. Removed with the ledger's `core.zone_batches` metric.
    pub zone_batches: u64,
}

/// Machine events.
#[derive(Debug)]
enum Ev {
    Mem(MemEvent),
    CpuBatch {
        core: usize,
        seq: u64,
    },
    MttopBatch {
        core: usize,
        seq: u64,
    },
    /// A launch write-syscall arrived at the MIFD.
    MifdLaunch {
        cpu: usize,
        desc: [u64; 4],
    },
    /// The MIFD's task chunk arrived at an MTTOP core.
    ChunkArrive {
        core: usize,
        chunk: TaskChunk,
    },
    /// A device/OS response releases a blocked syscall.
    ResumeSyscall {
        cpu: usize,
        ret: u64,
    },
    /// An MTTOP page-fault interrupt arrived (via the MIFD) at a CPU.
    FaultToCpu {
        req: PageFaultReq,
        mcore: usize,
    },
    /// The fault-resolution ack arrived back at the MTTOP core.
    FaultAckAtMttop {
        mcore: usize,
        warp: usize,
    },
    /// Shootdown IPI arrived at a CPU.
    IpiArrive {
        target: usize,
        va: VirtAddr,
        initiator: usize,
    },
    /// Shootdown flush request arrived at an MTTOP core.
    FlushArrive {
        target: usize,
        va: VirtAddr,
        initiator: usize,
    },
    /// Shootdown ack arrived back at the initiator.
    ShootAck {
        initiator: usize,
    },
    /// The OS handler's PTE store hit MSHR exhaustion; retry the issue.
    HandlerRetry {
        cpu: usize,
    },
    /// Periodic forward-progress check (self-rescheduling while armed).
    WatchdogTick,
}

impl Ev {
    /// The event's trace record, without its payload.
    fn trace(&self) -> TraceEv {
        match *self {
            Ev::Mem(ref me) => {
                let (kind, endpoint) = me.kind();
                let block = me.block();
                TraceEv::Mem {
                    kind,
                    block,
                    endpoint,
                }
            }
            Ev::CpuBatch { core, seq } => TraceEv::CpuBatch { core, seq },
            Ev::MttopBatch { core, seq } => TraceEv::MttopBatch { core, seq },
            Ev::MifdLaunch {
                cpu,
                desc: [_, _, first, last],
            } => TraceEv::MifdLaunch { cpu, first, last },
            Ev::ChunkArrive { core, ref chunk } => {
                let first = chunk.first_tid;
                TraceEv::ChunkArrive { core, first }
            }
            Ev::ResumeSyscall { cpu, ret } => TraceEv::ResumeSyscall { cpu, ret },
            Ev::FaultToCpu { ref req, mcore } => {
                let va = req.va.0;
                TraceEv::FaultToCpu { mcore, va }
            }
            Ev::FaultAckAtMttop { mcore, warp } => TraceEv::FaultAckAtMttop { mcore, warp },
            Ev::IpiArrive { target, va, .. } => TraceEv::IpiArrive { target, va: va.0 },
            Ev::FlushArrive { target, va, .. } => TraceEv::FlushArrive { target, va: va.0 },
            Ev::ShootAck { initiator } => TraceEv::ShootAck { initiator },
            Ev::HandlerRetry { cpu } => TraceEv::HandlerRetry { cpu },
            Ev::WatchdogTick => TraceEv::WatchdogTick {},
        }
    }
}

/// OS handler work performed on a CPU core (page-fault service, unmap).
#[derive(Clone, Copy, Debug)]
enum Job {
    /// This CPU's own thread faulted.
    Local { va: VirtAddr },
    /// A forwarded MTTOP fault (§3.2.1).
    Remote {
        mcore: usize,
        warp: usize,
        va: VirtAddr,
    },
    /// munmap: PTE clear, then TLB shootdown.
    Unmap { va: VirtAddr },
}

#[derive(Debug)]
struct Active {
    job: Job,
    writes: Vec<PteWrite>,
    next: usize,
}

#[derive(Debug, Default)]
struct Handler {
    queue: VecDeque<Job>,
    active: Option<Active>,
}

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// `main` returned; the report's results are valid.
    Completed,
    /// The watchdog saw no forward progress (or the event queue drained /
    /// `max_sim_time` was exceeded) before `main` exited.
    Deadlock,
    /// An access consumed a block poisoned by an uncorrectable (double-bit)
    /// DRAM ECC error.
    Poisoned,
    /// A directory transaction exhausted its NACK retry budget — responses
    /// were lost beyond what the protocol's recovery could absorb.
    RetryBudgetExhausted,
    /// The coherence sanitizer caught a protocol-invariant violation
    /// (DESIGN §9); the diagnostic's `violation` names the invariant and the
    /// cycle it first manifested.
    InvariantViolation,
}

/// Structured diagnostics captured when a run aborts, so a hang is
/// debuggable instead of silent.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagnosticDump {
    /// Human-readable abort reason.
    pub reason: String,
    /// Simulated time of the abort.
    pub at: Time,
    /// Outstanding miss blocks per L1 port (ports with none omitted).
    pub outstanding: Vec<(usize, Vec<u64>)>,
    /// Active directory transactions per bank: `(block, phase)`.
    pub dir_active: Vec<(usize, Vec<(u64, String)>)>,
    /// Blocks poisoned by uncorrectable ECC errors.
    pub poisoned_blocks: Vec<u64>,
    /// NoC links still draining queued flits at abort time.
    pub noc_busy_links: usize,
    /// Largest remaining per-link backlog on the NoC.
    pub noc_max_backlog: Time,
    /// The sanitizer violation behind an [`Outcome::InvariantViolation`]
    /// abort (also filled in when the sanitizer's end-of-run sweep finds a
    /// violation after another abort, e.g. a watchdog-caught wedge whose
    /// root cause was a lost message).
    pub violation: Option<Violation>,
}

impl std::fmt::Display for DiagnosticDump {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "abort at {}: {}", self.at, self.reason)?;
        for (port, blocks) in &self.outstanding {
            writeln!(f, "  port {port}: outstanding misses on blocks {blocks:?}")?;
        }
        for (bank, txs) in &self.dir_active {
            for (block, phase) in txs {
                writeln!(f, "  bank {bank}: block {block} stuck in {phase}")?;
            }
        }
        if !self.poisoned_blocks.is_empty() {
            writeln!(f, "  poisoned blocks: {:?}", self.poisoned_blocks)?;
        }
        if let Some(v) = &self.violation {
            writeln!(f, "  {v}")?;
        }
        write!(
            f,
            "  noc: {} busy links, max backlog {}",
            self.noc_busy_links, self.noc_max_backlog
        )
    }
}

/// Results of a completed run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Simulated time from boot to process exit — the paper's "runtime".
    pub time: Time,
    /// Everything the guest printed.
    pub printed: Vec<String>,
    /// Simulated time of each print (parallel to `printed`) — workloads use
    /// marker prints to delimit measured regions.
    pub printed_at: Vec<Time>,
    /// Cumulative DRAM accesses at each print (parallel to `printed`) — lets
    /// harnesses report region-only off-chip traffic (Figure 9).
    pub dram_at_print: Vec<u64>,
    /// `main`'s return value.
    pub exit_code: u64,
    /// Total off-chip DRAM accesses (Figure 9's metric).
    pub dram_accesses: u64,
    /// Total instructions executed (CPU instructions + MTTOP thread-instructions).
    pub instructions: u64,
    /// Events dispatched by the machine's event loop (hot-path perf
    /// telemetry: host throughput is `events / wall_clock`).
    pub events: u64,
    /// How the run ended. Anything but [`Outcome::Completed`] means the
    /// other fields describe a partial run.
    pub outcome: Outcome,
    /// Populated when `outcome` is not [`Outcome::Completed`].
    pub diagnostic: Option<DiagnosticDump>,
    /// Every component's counters.
    pub stats: Stats,
}

impl RunReport {
    /// Serializes the report (no header — callers that persist reports,
    /// like the sweep's report cache, add their own magic/version/config-hash
    /// envelope). The encoding is canonical: two bit-identical reports always
    /// serialize to identical bytes, even across processes (stats are
    /// written as sorted name/value pairs).
    pub fn to_bytes(&self) -> Vec<u8> {
        // The three print arrays share the one count.
        let mut w = SnapWriter::new();
        (self.time, self.printed.len()).put(&mut w);
        self.printed.iter().for_each(|s| s.put(&mut w));
        self.printed_at.iter().for_each(|t| t.put(&mut w));
        self.dram_at_print.iter().for_each(|d| d.put(&mut w));
        [
            self.exit_code,
            self.dram_accesses,
            self.instructions,
            self.events,
        ]
        .put(&mut w);
        self.outcome.put(&mut w);
        self.diagnostic.put(&mut w);
        self.stats.put(&mut w);
        w.into_vec()
    }

    /// Decodes a report written by [`RunReport::to_bytes`].
    ///
    /// # Errors
    ///
    /// A typed [`SnapError`] on truncation, trailing bytes, or any
    /// malformed field — never a panic and never a silently wrong report.
    pub fn from_bytes(bytes: &[u8]) -> Result<RunReport, SnapError> {
        let mut r = SnapReader::new(bytes);
        let time = Codec::get(&mut r)?;
        let n = r.get_count(<(String, Time, u64)>::MIN_BYTES)?;
        let printed = (0..n)
            .map(|_| Codec::get(&mut r))
            .collect::<Result<_, _>>()?;
        let printed_at = (0..n)
            .map(|_| Codec::get(&mut r))
            .collect::<Result<_, _>>()?;
        let dram_at_print = (0..n)
            .map(|_| Codec::get(&mut r))
            .collect::<Result<_, _>>()?;
        let [exit_code, dram_accesses, instructions, events] = Codec::get(&mut r)?;
        let outcome = Codec::get(&mut r)?;
        let diagnostic = Codec::get(&mut r)?;
        let stats = Codec::get(&mut r)?;
        r.finish("run report")?;
        Ok(RunReport {
            time,
            printed,
            printed_at,
            dram_at_print,
            exit_code,
            dram_accesses,
            instructions,
            events,
            outcome,
            diagnostic,
            stats,
        })
    }
}

codec!(enum Outcome {
    0 => Completed,
    1 => Deadlock,
    2 => Poisoned,
    3 => RetryBudgetExhausted,
    4 => InvariantViolation,
});
codec!(struct DiagnosticDump {
    reason, at, outstanding, dir_active, poisoned_blocks, noc_busy_links, noc_max_backlog,
    violation,
});

/// The CCSVM chip plus OsLite. See the [crate docs](crate).
pub struct Machine {
    cfg: SystemConfig,
    prog: Program,
    /// `prog.text` decoded once; every core reads it by shared reference.
    image: DecodedImage,
    mem: MemorySystem,
    net: Network,
    queue: EventQueue<Ev>,
    cpus: Vec<CpuCore>,
    mttops: Vec<MttopCore>,
    mifd: Mifd,
    os: OsLite,
    heap: GuestHeap,
    cpu_seq: Vec<u64>,
    mttop_seq: Vec<u64>,
    handlers: Vec<Handler>,
    shoot_pending: Vec<usize>,
    /// Chunks planned but not yet arrived, per MTTOP core.
    reserved: Vec<usize>,
    cpu_nodes: Vec<NodeId>,
    mttop_nodes: Vec<NodeId>,
    mifd_node: NodeId,
    kexit: usize,
    printed: Vec<String>,
    printed_at: Vec<Time>,
    dram_at_print: Vec<u64>,
    now: Time,
    main_exited: bool,
    exit_code: u64,
    started: bool,
    /// Monotone forward-progress counter the watchdog observes (batches that
    /// advanced, completions delivered, handler steps).
    progress: u64,
    /// Events dispatched by the run loop (perf telemetry).
    events: u64,
    /// Reused completion buffer for `Ev::Mem` dispatch (one `Ev::Mem` fires
    /// per coherence hop, so a fresh `Vec` per event is measurable).
    completions_buf: Vec<ccsvm_mem::Completion>,
    /// One uncore-effect buffer per L1 port (CPU ports first, then MTTOP),
    /// reused across batches: a batch buffers its sends here and the merge
    /// replays them (DESIGN §7).
    port_logs: Vec<PortLog>,
    /// Host wall-clock per phase (`PH_*`); only reads the clock when
    /// `cfg.host_profile` is set.
    clock: PhaseClock,
    /// Live MTTOP batch count, the only [`SpecStats`] field still written.
    /// Host-side only — never part of a `RunReport`.
    /// Removed with the ledger's `core.spec_*` metrics.
    spec_stats: SpecStats,
    /// [`MttopConfig::wake_grid_cycles`] converted to picoseconds once
    /// (`sched_mttop_batch` is hot); `0` disables grid alignment.
    wake_grid_ps: u64,
    /// Forward-progress watchdog, observed on every `Ev::WatchdogTick`. A
    /// `Machine` field (not a run-loop local) so its memory of the last
    /// progress survives a pause in `run_until`.
    watchdog: Watchdog,
    /// Set when the run must abort; checked after every dispatched event.
    failure: Option<(Outcome, DiagnosticDump)>,
    /// The last [`SystemConfig::trace_events`] dispatched events. Host-side
    /// telemetry: pause images and reports stay identical with the trace on
    /// or off.
    trace: Trace,
    // Test-knob counters for the deterministic event-drop fault hooks.
    data_deliveries: u64,
    resps_seen: u64,
    blackholed_block: Option<u64>,
    /// Occurrences of the configured mutation's target class seen so far.
    mut_count: u64,
    /// Whether the configured mutation has been applied (latched: a
    /// mutation fires once, at the first applicable target at or after its
    /// nth class occurrence).
    mut_done: bool,
    /// Seeded per-delivery drop stream for bank→L1 snoop probes
    /// (`FaultDomain::SnoopProbe`); `None` when the domain is off.
    snoop_probe_rng: Option<SplitMix64>,
    /// Probes dropped so far (checked against the configured cap).
    snoop_probe_drops: u64,
    /// Seeded drop stream for L1→bank `SnoopResp`s answering a write-update
    /// round (`FaultDomain::UpdAck`); `None` when the domain is off.
    upd_ack_rng: Option<SplitMix64>,
    /// Update-round acks dropped so far (checked against the cap).
    upd_ack_drops: u64,
}

impl Machine {
    /// Builds the chip for `prog` (compile with [`ccsvm_xthreads::build`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration doesn't fit its torus or the program
    /// lacks the `__start`/`__kexit` stubs.
    pub fn new(cfg: SystemConfig, prog: Program) -> Machine {
        let topo = Topology::torus(cfg.torus.0, cfg.torus.1);
        assert!(
            cfg.nodes_needed() <= topo.len(),
            "torus too small for {} units",
            cfg.nodes_needed()
        );
        let kexit = prog.entry("__kexit");
        let _ = prog.entry("__start");

        // Node placement: CPUs, then L2 banks, then the MIFD, then MTTOPs.
        let mut next = 0usize;
        let mut take = |n: usize| {
            let v: Vec<NodeId> = (next..next + n).map(NodeId).collect();
            next += n;
            v
        };
        let cpu_nodes = take(cfg.n_cpus);
        let bank_nodes = take(cfg.l2_banks);
        let mifd_node = take(1)[0];
        let mttop_nodes = take(cfg.n_mttops);

        let mut l1s = Vec::new();
        for &node in &cpu_nodes {
            l1s.push(L1Config {
                node,
                cache: cfg.cpu_l1,
                hit_time: cfg.cpu_l1_hit,
                max_mshrs: cfg.cpu_mshrs,
                write_policy: cfg.l1_write_policy,
            });
        }
        for &node in &mttop_nodes {
            l1s.push(L1Config {
                node,
                cache: cfg.mttop_l1,
                hit_time: cfg.mttop_l1_hit,
                max_mshrs: cfg.mttop_mshrs,
                write_policy: cfg.l1_write_policy,
            });
        }
        let banks = bank_nodes
            .iter()
            .map(|&node| BankConfig {
                node,
                cache: cfg.l2_bank,
                latency: cfg.l2_latency,
            })
            .collect();
        let plan = FaultPlan::new(cfg.fault);
        let mut mem = MemorySystem::new(MemConfig {
            l1s,
            banks,
            dram: cfg.dram,
            ctrl_bytes: 8,
            data_bytes: 72,
            protocol: cfg.protocol,
        });
        mem.install_faults(&plan);
        let mut net = Network::new(topo, cfg.noc);
        if cfg.fault.noc.drop_rate > 0.0 {
            net.install_faults(cfg.fault.noc, plan.stream(FaultDomain::Noc));
        }

        let mut cpus: Vec<CpuCore> = (0..cfg.n_cpus)
            .map(|i| CpuCore::new(PortId(i), cfg.cpu, prefix(KIND_CPU, i)))
            .collect();
        if cfg.fault.tlb.transient_rate > 0.0 {
            for (i, c) in cpus.iter_mut().enumerate() {
                c.install_tlb_faults(cfg.fault.tlb, plan.stream(FaultDomain::Tlb(i as u32)));
            }
        }
        let snoop_probe_rng =
            (cfg.fault.snoop_probe.drop_rate > 0.0).then(|| plan.stream(FaultDomain::SnoopProbe));
        let upd_ack_rng =
            (cfg.fault.upd_ack.drop_rate > 0.0).then(|| plan.stream(FaultDomain::UpdAck));
        let mut mttops: Vec<MttopCore> = (0..cfg.n_mttops)
            .map(|i| {
                let mut mc = cfg.mttop;
                mc.ctx_base = (cfg.n_cpus + i * mc.warps * mc.lanes) as u64;
                MttopCore::new(PortId(cfg.n_cpus + i), mc, prefix(KIND_MTTOP, i))
            })
            .collect();
        for c in &mut cpus {
            c.set_sb_cache(cfg.sb_cache);
        }
        for m in &mut mttops {
            m.set_sb_cache(cfg.sb_cache);
        }

        let os = OsLite::new(cfg.phys_pool.0, cfg.phys_pool.1);
        let heap = GuestHeap::new(
            VirtAddr(ccsvm_isa::abi::HEAP_BASE),
            ccsvm_isa::abi::HEAP_LEN,
        );

        Machine {
            handlers: (0..cfg.n_cpus).map(|_| Handler::default()).collect(),
            shoot_pending: vec![0; cfg.n_cpus],
            reserved: vec![0; cfg.n_mttops],
            cpu_seq: vec![0; cfg.n_cpus],
            mttop_seq: vec![0; cfg.n_mttops],
            port_logs: (0..cfg.n_cpus + cfg.n_mttops)
                .map(|_| PortLog::new())
                .collect(),
            wake_grid_ps: cfg.mttop.clock.cycles(cfg.mttop.wake_grid_cycles).as_ps(),
            clock: PhaseClock {
                on: cfg.host_profile,
                phase: PH_IDLE,
                since: Instant::now(),
                spent: [Duration::ZERO; 5],
            },
            trace: Trace::new(cfg.trace_events),
            cfg,
            image: DecodedImage::build(&prog.text),
            prog,
            mem,
            net,
            queue: EventQueue::new(),
            cpus,
            mttops,
            mifd: Mifd::new(),
            os,
            heap,
            cpu_nodes,
            mttop_nodes,
            mifd_node,
            kexit,
            printed: Vec::new(),
            printed_at: Vec::new(),
            dram_at_print: Vec::new(),
            now: Time::ZERO,
            main_exited: false,
            exit_code: 0,
            started: false,
            progress: 0,
            events: 0,
            completions_buf: Vec::new(),
            spec_stats: SpecStats::default(),
            watchdog: Watchdog::new(),
            failure: None,
            data_deliveries: 0,
            resps_seen: 0,
            blackholed_block: None,
            mut_count: 0,
            mut_done: false,
            snoop_probe_rng,
            snoop_probe_drops: 0,
            upd_ack_rng,
            upd_ack_drops: 0,
        }
    }

    /// Host wall-clock phase breakdown. Phase times are all zero unless
    /// [`SystemConfig::host_profile`] was set.
    pub fn host_phases(&self) -> HostPhases {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let spent = &self.clock.spent;
        HostPhases {
            core_exec_ms: ms(spent[PH_CORE]),
            uncore_ms: ms(spent[PH_UNCORE]),
            merge_ms: ms(spent[PH_MERGE]),
            other_ms: ms(spent[PH_OTHER]),
            decode_ms: self.sb_stats().decode_ns as f64 / 1e6,
            zones: 0,
            zone_batches: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Batch telemetry in the shape the ledger's `core.spec_*` metrics read:
    /// `batches_total` counts live MTTOP batches; every other field reads 0,
    /// as nothing speculates. Host-side only — never part of
    /// [`ccsvm_engine::Stats`] or the `RunReport`. Removed with the ledger's
    /// `matmul_epochs`/`core.zones`/`mem.spec_*`.
    pub fn spec_stats(&self) -> SpecStats {
        self.spec_stats
    }

    /// Decoded-image counters (DESIGN §11): what the one build decoded, and
    /// the runs every CPU and MTTOP core entered through it. Host-side
    /// telemetry only — never part of [`ccsvm_engine::Stats`] or the
    /// `RunReport`, so the `sb_cache` knob cannot perturb simulated results.
    pub fn sb_stats(&self) -> ccsvm_isa::SbStats {
        let cpu_hits: u64 = self.cpus.iter().map(CpuCore::sb_hits).sum();
        let mttop_hits: u64 = self.mttops.iter().map(MttopCore::sb_hits).sum();
        ccsvm_isa::SbStats {
            hits: cpu_hits + mttop_hits,
            ..self.image.build_stats()
        }
    }

    /// Current simulated time (the timestamp of the last dispatched event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Everything the guest has printed so far. On a machine paused by
    /// [`Machine::run_until`] this lets a harness locate region markers when
    /// choosing where to pause (e.g. at offload-region start).
    pub fn printed(&self) -> &[String] {
        &self.printed
    }

    /// The recorded failure, if the run has aborted: outcome + diagnostics.
    pub fn failure(&self) -> Option<(Outcome, &DiagnosticDump)> {
        self.failure.as_ref().map(|(o, d)| (*o, d))
    }

    /// The event trace: the last [`SystemConfig::trace_events`] events
    /// this machine dispatched, oldest first. Empty when the knob is 0.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Coherently reads guest memory (any time; used for results).
    ///
    /// # Panics
    ///
    /// Panics if any touched page is unmapped.
    pub fn guest_read(&self, va: u64, buf: &mut [u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let a = VirtAddr(va + off as u64);
            let in_page = (PAGE_BYTES - a.page_offset()) as usize;
            let n = in_page.min(buf.len() - off);
            let pa = self
                .os
                .translate(a)
                .unwrap_or_else(|| panic!("guest_read of unmapped {a}"));
            self.mem.backdoor_read(pa, &mut buf[off..off + n]);
            off += n;
        }
    }

    /// Reads `n` little-endian 64-bit words of guest memory.
    pub fn guest_read_words(&self, va: u64, n: usize) -> Vec<u64> {
        let mut bytes = vec![0u8; n * 8];
        self.guest_read(va, &mut bytes);
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect()
    }

    /// Boots `main` on CPU 0 and simulates to process exit.
    ///
    /// Never hangs or panics on a stuck machine: when forward progress stops
    /// (watchdog), `max_sim_time` is exceeded, the event queue drains early,
    /// a block is ECC-poisoned, or a directory transaction exhausts its
    /// retry budget, the run aborts gracefully and the report carries the
    /// non-`Completed` [`Outcome`] plus a [`DiagnosticDump`].
    pub fn run(&mut self) -> RunReport {
        self.run_until(Time::MAX)
            .expect("an unbounded run cannot pause")
    }

    /// Simulates until process exit **or** until the next event would lie
    /// beyond `limit` (simulated time), whichever comes first. Returns
    /// `None` when the run paused at `limit` — the machine sits at an
    /// inter-event boundary and can be checkpointed
    /// ([`Machine::checkpoint_bytes`]) or resumed with another
    /// `run_until`/[`Machine::run`] call — and `Some(report)`
    /// when the run finished (or aborted). Pausing never perturbs the
    /// simulation: a paused-and-resumed run produces a [`RunReport`]
    /// bit-identical to an uninterrupted one.
    pub fn run_until(&mut self, limit: Time) -> Option<RunReport> {
        self.clock.switch(PH_OTHER);
        if !self.started {
            self.boot();
        }
        let ended = self.drain(limit);
        self.clock.switch(PH_OTHER);
        let report = ended.then(|| {
            if !self.main_exited && self.failure.is_none() {
                let reason = "event queue drained before main exited".to_string();
                self.failure = Some((Outcome::Deadlock, self.dump(reason)));
            }
            self.final_check();
            self.report()
        });
        self.clock.switch(PH_IDLE);
        report
    }

    /// One-time boot: address-space setup, `main` on CPU 0, watchdog arm.
    fn boot(&mut self) {
        assert!(!self.started, "a Machine runs once");
        self.started = true;
        // The MIFD driver sets up the process's virtual address space when it
        // registers the MTTOP thread contexts (§3.1/§4.3): pre-map the top
        // stack page of every hardware context. Deeper stack pages (e.g.
        // recursion) still demand-fault.
        let contexts = self.cfg.n_cpus as u64
            + (self.cfg.n_mttops * self.cfg.mttop.warps * self.cfg.mttop.lanes) as u64;
        for ctx in 0..contexts {
            let top = VirtAddr(ccsvm_isa::abi::stack_top(ctx)).page_base();
            for w in self.os.map_page(top) {
                self.mem.backdoor_write(w.addr, &w.value.to_le_bytes());
            }
        }
        let entry = self.prog.entry("__start");
        let cr3 = self.os.cr3();
        self.cpus[0].start_thread(Time::ZERO, entry, 0, 0, cr3, self.kexit);
        self.sched_cpu_batch(0, Time::ZERO);

        if self.cfg.fault.watchdog.enabled {
            self.queue
                .push(self.cfg.fault.watchdog.period, Ev::WatchdogTick);
        }
    }

    /// The one event loop: pops and dispatches, in (time, push-order)
    /// order, every queued event whose timestamp is at most `until`. An
    /// event past the bound stays queued, so resuming replays nothing.
    /// Returns `false` when it paused there, and `true` when the run is
    /// over: the queue ran dry, `main` exited or a failure was recorded.
    fn drain(&mut self, until: Time) -> bool {
        let wd_cfg = self.cfg.fault.watchdog;
        loop {
            self.clock.switch(PH_OTHER);
            let Some((t, ev)) = self.queue.pop_until(until) else {
                return self.queue.is_empty();
            };
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.events += 1;
            self.trace.record(t, || ev.trace());
            if t > self.cfg.max_sim_time {
                // Re-queue the event we popped but will never dispatch so the
                // NOC-CONSERVE audit counts it as in flight, not lost.
                self.queue.push(t, ev);
                let reason = format!("simulation exceeded max_sim_time {}", self.cfg.max_sim_time);
                self.failure = Some((Outcome::Deadlock, self.dump(reason)));
                return true;
            }
            match ev {
                Ev::WatchdogTick => {
                    let stale = self.watchdog.observe(self.now, self.progress);
                    if stale >= wd_cfg.quanta {
                        self.watchdog_abort(stale, wd_cfg.period);
                        return true;
                    }
                    self.queue.push(self.now + wd_cfg.period, Ev::WatchdogTick);
                    continue;
                }
                Ev::MttopBatch { core, seq } => {
                    if seq != self.mttop_seq[core] {
                        continue; // stale: superseded by a later schedule
                    }
                    self.run_mttop_batch(core);
                }
                Ev::CpuBatch { core, seq } => {
                    if seq != self.cpu_seq[core] {
                        continue; // stale
                    }
                    self.run_cpu_batch(core);
                }
                // Batches switch the clock themselves (core-exec, then
                // merge); a memory event is uncore, and everything else
                // stays in the loop's own phase, other.
                other => {
                    if matches!(other, Ev::Mem(_)) {
                        self.clock.switch(PH_UNCORE);
                    }
                    self.dispatch(other);
                }
            }
            if self.main_exited || self.failure.is_some() {
                return true;
            }
        }
    }

    /// Records a watchdog abort. The dump's `at` is the simulated time of
    /// the *last observed forward progress* — the moment the machine
    /// actually wedged — not the (much later) abort tick, so the diagnostic
    /// points at the interesting cycle.
    fn watchdog_abort(&mut self, stale: u32, period: Time) {
        let reason = format!(
            "no forward progress for {stale} watchdog periods of {period} \
             (last progress at {})",
            self.watchdog.last_progress_at()
        );
        let mut d = self.dump(reason);
        d.at = self.watchdog.last_progress_at();
        self.failure = Some((Outcome::Deadlock, d));
    }

    /// Outstanding miss blocks per L1 port, for the abort diagnostics.
    fn outstanding(&self) -> Vec<(usize, Vec<u64>)> {
        self.mem
            .outstanding()
            .into_iter()
            .map(|(p, blocks)| (p.0, blocks))
            .collect()
    }

    /// Captures the structured abort diagnostics: who is stuck where.
    fn dump(&self, reason: String) -> DiagnosticDump {
        DiagnosticDump {
            reason,
            at: self.now,
            outstanding: self.outstanding(),
            dir_active: self
                .mem
                .dir_active()
                .into_iter()
                .map(|(bank, blocks)| {
                    let txs = blocks
                        .into_iter()
                        .map(|b| (b, self.mem.dir_tx_phase(b).unwrap_or_default()))
                        .collect();
                    (bank.0, txs)
                })
                .collect(),
            poisoned_blocks: self.mem.poisoned_blocks(),
            noc_busy_links: self.net.busy_links(self.now),
            noc_max_backlog: self.net.max_backlog(self.now),
            violation: None,
        }
    }

    // ----- coherence sanitizer ---------------------------------------------

    /// Records a sanitizer violation: the run aborts with
    /// [`Outcome::InvariantViolation`]. When another failure is already
    /// recorded (e.g. the watchdog caught the wedge a lost message caused),
    /// the outcome is *upgraded* — the sanitizer's root cause outranks the
    /// symptom — and the original dump keeps its context.
    fn san_fail(&mut self, v: Violation) {
        match &mut self.failure {
            Some((outcome, dump)) => {
                *outcome = Outcome::InvariantViolation;
                dump.violation = Some(v);
            }
            None => {
                let mut d = self.dump(format!("invariant {} violated", v.invariant));
                d.at = v.at;
                d.violation = Some(v);
                self.failure = Some((Outcome::InvariantViolation, d));
            }
        }
    }

    /// Whether no TLB shootdown is in flight anywhere — the window where
    /// VM-TLB-PT (TLB ⊆ page tables) must hold exactly. Mid-shootdown a
    /// remote TLB legitimately holds the just-unmapped translation until its
    /// IPI/flush lands.
    fn shootdowns_quiescent(&self) -> bool {
        self.shoot_pending.iter().all(|&p| p == 0)
            && self.handlers.iter().all(|h| {
                !matches!(
                    h.active,
                    Some(Active {
                        job: Job::Unmap { .. },
                        ..
                    })
                ) && !h.queue.iter().any(|j| matches!(j, Job::Unmap { .. }))
            })
    }

    /// VM-TLB-PT: every cached translation in every CPU and MTTOP TLB must
    /// agree with the OS page tables. Only called at shootdown-quiescent
    /// points.
    fn check_tlbs(&self) -> Option<Violation> {
        let check = |who: String, entries: Vec<(u64, ccsvm_mem::PhysAddr)>| {
            for (vpn, frame) in entries {
                let va = VirtAddr(vpn * PAGE_BYTES);
                if self.os.translate(va) != Some(frame) {
                    return Some(Violation {
                        invariant: ccsvm_engine::InvariantId::VmTlbPt,
                        at: self.now,
                        detail: format!(
                            "{who} TLB caches {va} -> {frame:?} but the page \
                             tables say {:?}",
                            self.os.translate(va)
                        ),
                    });
                }
            }
            None
        };
        for (i, c) in self.cpus.iter().enumerate() {
            if let Some(v) = check(format!("CPU {i}"), c.tlb_entries()) {
                return Some(v);
            }
        }
        for (i, m) in self.mttops.iter().enumerate() {
            if let Some(v) = check(format!("MTTOP {i}"), m.tlb_entries()) {
                return Some(v);
            }
        }
        None
    }

    /// The end-of-run / on-abort full sweep: every memory invariant over
    /// every resident block, TLB ⊆ page tables, and NOC-CONSERVE over the
    /// whole run's audit counters.
    fn final_check(&mut self) {
        if !self.cfg.sanitizer.enabled {
            return;
        }
        if self
            .failure
            .as_ref()
            .is_some_and(|(_, d)| d.violation.is_some())
        {
            return; // already triaged to a specific invariant
        }
        if let Some(v) = self.mem.check_all(self.now) {
            self.san_fail(v);
            return;
        }
        if self.shootdowns_quiescent() {
            if let Some(v) = self.check_tlbs() {
                self.san_fail(v);
                return;
            }
        }
        let (sent, delivered, sanctioned) = self.net.audit_counters();
        let in_flight = self
            .queue
            .ordered_entries()
            .iter()
            .filter(|(_, e)| matches!(e, Ev::Mem(_)))
            .count() as u64;
        if let Some(detail) = check_conservation(sent, delivered, sanctioned, in_flight) {
            self.san_fail(Violation {
                invariant: ccsvm_engine::InvariantId::NocConserve,
                at: self.now,
                detail,
            });
        }
    }

    /// Applies the configured test-only protocol mutation to `me` when its
    /// nth target-class occurrence comes up. Returns `true` when the event
    /// must be *discarded* (the unsanctioned-loss mutation). Latched: fires
    /// at most once per run.
    fn apply_mutation(&mut self, me: &mut MemEvent) -> bool {
        let Some(m) = self.cfg.sanitizer.mutate else {
            return false;
        };
        if self.mut_done {
            return false;
        }
        let in_class = match m.kind {
            MutationKind::CorruptDirOwner | MutationKind::CorruptTlbEntry => true,
            MutationKind::CorruptGrant | MutationKind::CorruptFillData => me.is_s_grant(),
            MutationKind::DuplicateResp | MutationKind::DropResp => me.is_resp(),
            MutationKind::CorruptSnoopShared => me.is_shared_snoop_resp(),
            MutationKind::CorruptUpdValue => me.is_upd_snoop(),
            MutationKind::CorruptResendEpoch => {
                me.dir_timeout().is_some_and(|(bank, block, epoch)| {
                    self.mem.corrupt_resend_applicable(bank, block, epoch)
                })
            }
            // Counted at `Ev::IpiArrive` dispatch, not here.
            MutationKind::SkipTlbInvalidate => false,
        };
        if !in_class {
            return false;
        }
        self.mut_count += 1;
        if self.mut_count < m.nth {
            return false;
        }
        match m.kind {
            MutationKind::CorruptDirOwner => {
                // Clears the directory's owner registration for this block;
                // the owning L1's M/E/O copy becomes unaccounted.
                self.mut_done = self.mem.test_corrupt_dir_owner(me.block());
            }
            MutationKind::CorruptGrant => self.mut_done = me.test_upgrade_s_grant(),
            MutationKind::CorruptFillData => self.mut_done = me.test_flip_s_fill_byte(),
            MutationKind::DuplicateResp => {
                // Re-inject a copy of this response without counting it as
                // sent: a duplicated message.
                self.queue.push(self.now, Ev::Mem(me.clone()));
                self.mut_done = true;
            }
            MutationKind::DropResp => {
                // Discard without sanction: a lost message.
                self.mut_done = true;
                return true;
            }
            MutationKind::CorruptTlbEntry => {
                self.mut_done = self.cpus[0].test_corrupt_tlb();
                // TLB state just changed out from under the hardware: sweep
                // immediately (at a quiescent point) so the violation is
                // pinned to the cycle the corruption appeared rather than to
                // wherever the poisoned translation later sends the core.
                if self.mut_done && self.shootdowns_quiescent() {
                    if let Some(v) = self.check_tlbs() {
                        self.san_fail(v);
                    }
                }
            }
            MutationKind::CorruptSnoopShared => self.mut_done = me.test_clear_snoop_shared(),
            MutationKind::CorruptUpdValue => self.mut_done = me.test_corrupt_upd_value(),
            MutationKind::CorruptResendEpoch => {
                // Arm the transient flag; the bank consumes it while handling
                // this very timeout and abandons one still-pending probe.
                self.mem.arm_corrupt_resend();
                self.mut_done = true;
            }
            MutationKind::SkipTlbInvalidate => unreachable!("not an uncore-event class"),
        }
        false
    }

    fn report(&self) -> RunReport {
        let mut stats = Stats::new();
        let mut instructions = 0.0;
        for (i, c) in self.cpus.iter().enumerate() {
            let s = c.stats();
            instructions += s.get("instructions");
            stats.merge_prefixed(&format!("cpu.{i}"), &s);
        }
        for (i, m) in self.mttops.iter().enumerate() {
            let s = m.stats();
            instructions += s.get("thread_instructions");
            stats.merge_prefixed(&format!("mttop.{i}"), &s);
        }
        stats.merge_prefixed("mem", &self.mem.stats());
        stats.merge_prefixed("noc", &self.net.stats());
        stats.merge_prefixed("mifd", &self.mifd.stats());
        stats.set("os.page_faults", self.os.faults_handled() as f64);
        stats.set("heap.live_bytes", self.heap.live_bytes() as f64);
        // Only present when the domain is armed, so fault-free reports stay
        // bit-identical to pre-fault builds.
        if self.snoop_probe_rng.is_some() {
            stats.set("fault.snoop_probe_drops", self.snoop_probe_drops as f64);
        }
        if self.upd_ack_rng.is_some() {
            stats.set("fault.upd_ack_drops", self.upd_ack_drops as f64);
        }
        let (outcome, diagnostic) = match &self.failure {
            Some((o, d)) => (*o, Some(d.clone())),
            None => (Outcome::Completed, None),
        };
        RunReport {
            time: self.now,
            printed: self.printed.clone(),
            printed_at: self.printed_at.clone(),
            dram_at_print: self.dram_at_print.clone(),
            exit_code: self.exit_code,
            dram_accesses: self.mem.dram_accesses(),
            instructions: instructions as u64,
            events: self.events,
            outcome,
            diagnostic,
            stats,
        }
    }

    // ----- scheduling helpers ---------------------------------------------

    fn sched_cpu_batch(&mut self, core: usize, at: Time) {
        self.cpu_seq[core] += 1;
        let seq = self.cpu_seq[core];
        self.queue
            .push(at.max(self.now), Ev::CpuBatch { core, seq });
    }

    /// Schedules (or reschedules) `core`'s next batch. The wakeup aligns to
    /// the warp scheduler's clocked grid
    /// ([`MttopConfig::wake_grid_cycles`]): completions landing within one
    /// grid tick coalesce into a single batch event, exactly as a clocked
    /// scheduler samples runnable warps at tick edges. Part of the timing
    /// model (DESIGN §7), so it participates in [`config_hash`].
    fn sched_mttop_batch(&mut self, core: usize, at: Time) {
        self.mttop_seq[core] += 1;
        let seq = self.mttop_seq[core];
        let mut at = at.max(self.now);
        if self.wake_grid_ps > 0 {
            let ps = at.as_ps();
            at = Time::from_ps(ps.div_ceil(self.wake_grid_ps) * self.wake_grid_ps);
        }
        self.queue.push(at, Ev::MttopBatch { core, seq });
    }

    // ----- dispatch --------------------------------------------------------

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Mem(mut me) => {
                if self.drop_event(&me) {
                    // A fault-plan-sanctioned loss, exempt from NOC-CONSERVE.
                    self.net.note_sanctioned();
                    return;
                }
                if self.apply_mutation(&mut me) {
                    return; // mutation discarded the event (unsanctioned)
                }
                if self.failure.is_some() {
                    return; // a state mutation was caught at its own cycle
                }
                let san = self.cfg.sanitizer.enabled;
                let block = me.block();
                if san {
                    if let Some(v) = self.mem.check_event(self.now, &me) {
                        // Don't deliver a message the protocol can't absorb:
                        // report the conservation violation instead of letting
                        // the bank trip over it.
                        self.san_fail(v);
                        return;
                    }
                }
                self.net.note_delivered();
                let mut completions = std::mem::take(&mut self.completions_buf);
                completions.clear();
                {
                    let queue = &mut self.queue;
                    let mut sent = 0u64;
                    let mut sched = |t: Time, e: MemEvent| {
                        sent += 1;
                        queue.push(t, Ev::Mem(e));
                    };
                    self.mem
                        .handle(self.now, &mut self.net, &mut sched, me, &mut completions);
                    self.net.note_sent(sent);
                }
                if let Some((bank, block)) = self.mem.take_retry_exhausted() {
                    let reason = format!(
                        "directory bank {} exhausted its NACK retry budget on block {block}",
                        bank.0
                    );
                    self.failure = Some((Outcome::RetryBudgetExhausted, self.dump(reason)));
                    self.completions_buf = completions;
                    return;
                }
                if san && self.failure.is_none() {
                    if let Some(v) = self.mem.check_block(self.now, block) {
                        self.san_fail(v);
                    }
                }
                for c in completions.drain(..) {
                    self.route_completion(c);
                }
                self.completions_buf = completions;
            }
            Ev::MifdLaunch { cpu, desc } => self.mifd_launch(cpu, desc),
            Ev::ChunkArrive { core, chunk } => {
                self.reserved[core] -= 1;
                let ok = self.mttops[core].start_task(self.now, chunk);
                assert!(ok, "MIFD overcommitted core {core}");
                self.sched_mttop_batch(core, self.now);
            }
            Ev::ResumeSyscall { cpu, ret } => {
                let at = self.cpus[cpu].resume_syscall(self.now, ret);
                self.sched_cpu_batch(cpu, at);
            }
            Ev::FaultToCpu { req, mcore } => {
                // All MTTOP faults are serviced by CPU 0 (the MIFD interrupts
                // a CPU core on behalf of the MTTOP, §3.2.1).
                self.handler_enqueue(
                    0,
                    Job::Remote {
                        mcore,
                        warp: req.warp,
                        va: req.va,
                    },
                );
            }
            Ev::FaultAckAtMttop { mcore, warp } => {
                self.mttops[mcore].fault_resolved(warp, self.now);
                self.sched_mttop_batch(mcore, self.now);
            }
            Ev::IpiArrive {
                target,
                va,
                initiator,
            } => {
                // Mutation hook: ack the IPI but skip the invalidation — the
                // stale translation survives shootdown (⇒ VM-STALE-SHOOT).
                let skip = match self.cfg.sanitizer.mutate {
                    Some(m) if m.kind == MutationKind::SkipTlbInvalidate && !self.mut_done => {
                        self.mut_count += 1;
                        self.mut_count >= m.nth
                    }
                    _ => false,
                };
                if skip {
                    self.mut_done = true;
                } else {
                    self.cpus[target].tlb_invalidate(va);
                }
                if self.cfg.sanitizer.enabled && self.cpus[target].tlb_holds(va) {
                    self.san_fail(Violation {
                        invariant: ccsvm_engine::InvariantId::VmStaleShoot,
                        at: self.now,
                        detail: format!(
                            "CPU {target} still caches a translation for {va} \
                             after acking its shootdown IPI"
                        ),
                    });
                }
                let done = self.now + self.cfg.os.ipi;
                self.cpus[target].preempt_until(done);
                let t = self
                    .net
                    .send(done, self.cpu_nodes[target], self.cpu_nodes[initiator], 8);
                self.queue.push(t, Ev::ShootAck { initiator });
            }
            Ev::FlushArrive {
                target,
                va,
                initiator,
            } => {
                if self.cfg.mttop_selective_shootdown {
                    self.mttops[target].tlb_invalidate(va);
                } else {
                    self.mttops[target].tlb_flush();
                }
                if self.cfg.sanitizer.enabled && self.mttops[target].tlb_holds(va) {
                    self.san_fail(Violation {
                        invariant: ccsvm_engine::InvariantId::VmStaleShoot,
                        at: self.now,
                        detail: format!(
                            "MTTOP {target} still caches a translation for \
                             {va} after acking its shootdown flush"
                        ),
                    });
                }
                let t = self.net.send(
                    self.now,
                    self.mttop_nodes[target],
                    self.cpu_nodes[initiator],
                    8,
                );
                self.queue.push(t, Ev::ShootAck { initiator });
            }
            Ev::HandlerRetry { cpu } => self.handler_issue(cpu, self.now),
            Ev::ShootAck { initiator } => {
                self.shoot_pending[initiator] -= 1;
                if self.shoot_pending[initiator] == 0 {
                    let at = self.cpus[initiator].resume_syscall(self.now, 0);
                    self.sched_cpu_batch(initiator, at);
                    // Shootdown complete: if no other shootdown is in flight
                    // this is a quiescent point, so VM-TLB-PT must hold.
                    if self.cfg.sanitizer.enabled
                        && self.failure.is_none()
                        && self.shootdowns_quiescent()
                    {
                        if let Some(v) = self.check_tlbs() {
                            self.san_fail(v);
                        }
                    }
                }
            }
            Ev::CpuBatch { .. } | Ev::MttopBatch { .. } | Ev::WatchdogTick => {
                unreachable!("handled in the run loop")
            }
        }
    }

    /// Seeded probe/ack-loss fault domains (`SnoopProbe`, `UpdAck`): returns
    /// `true` when this memory event must be lost. Drops only messages whose
    /// loss the solicitation-round timeout provably recovers from: bank→L1
    /// snoop probes (idempotent, any protocol) and L1→bank `SnoopResp`s that
    /// answer a *write-update* round (the bank ignores Upd payloads and a
    /// resend re-solicits only still-pending ports). Draws happen in event
    /// order, so a seed fixes the whole drop schedule.
    fn seeded_drop(&mut self, me: &MemEvent) -> bool {
        if let Some(rng) = &mut self.snoop_probe_rng {
            if me.is_snoop_probe() {
                let cap = self.cfg.fault.snoop_probe.max_drops;
                let roll = rng.next_f64();
                if (cap == 0 || self.snoop_probe_drops < cap)
                    && roll < self.cfg.fault.snoop_probe.drop_rate
                {
                    self.snoop_probe_drops += 1;
                    return true;
                }
            }
        }
        if let Some(rng) = &mut self.upd_ack_rng {
            if let Some((bank, block)) = me.snoop_resp_target() {
                if self.mem.upd_round_active(bank, block) {
                    let cap = self.cfg.fault.upd_ack.max_drops;
                    let roll = rng.next_f64();
                    if (cap == 0 || self.upd_ack_drops < cap)
                        && roll < self.cfg.fault.upd_ack.drop_rate
                    {
                        self.upd_ack_drops += 1;
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Deterministic event-drop fault hooks (`FaultConfig::drop_*` test
    /// knobs): returns `true` when this memory event must be lost.
    fn drop_event(&mut self, me: &MemEvent) -> bool {
        if self.seeded_drop(me) {
            return true;
        }
        let f = &self.cfg.fault;
        if f.drop_data_delivery.is_none() && f.blackhole_resp.is_none() && f.drop_one_resp.is_none()
        {
            return false;
        }
        if me.is_data_delivery() {
            self.data_deliveries += 1;
            if f.drop_data_delivery == Some(self.data_deliveries) {
                return true;
            }
        }
        if let Some(block) = me.resp_block() {
            self.resps_seen += 1;
            if f.blackhole_resp == Some(self.resps_seen) {
                self.blackholed_block = Some(block);
            }
            if self.blackholed_block == Some(block) {
                return true;
            }
            if f.drop_one_resp == Some(self.resps_seen) {
                return true;
            }
        }
        false
    }

    fn route_completion(&mut self, c: Completion) {
        self.progress += 1;
        if c.poisoned {
            let reason = format!(
                "port {} consumed an ECC-poisoned block (token {:#x})",
                c.port.0, c.token
            );
            self.failure = Some((Outcome::Poisoned, self.dump(reason)));
            return;
        }
        let (token, value) = (c.token, c.value);
        let kind = token >> KIND_SHIFT;
        let idx = ((token >> IDX_SHIFT) & 0xFFF) as usize;
        match kind {
            KIND_CPU => {
                let at = self.cpus[idx].on_completion(self.now, token, value);
                self.sched_cpu_batch(idx, at);
            }
            KIND_MTTOP => {
                let at = self.mttops[idx].on_completion(self.now, token, value);
                self.sched_mttop_batch(idx, at);
            }
            KIND_HANDLER => self.handler_continue(idx),
            other => panic!("unroutable completion token kind {other}"),
        }
    }

    // ----- core batches ----------------------------------------------------

    /// Replays one port's buffered uncore effects into the NoC/event queue.
    fn replay_log(&mut self, log: &mut PortLog) {
        let queue = &mut self.queue;
        let mut sent = 0u64;
        let mut sched = |t: Time, e: MemEvent| {
            sent += 1;
            queue.push(t, Ev::Mem(e));
        };
        log.replay(&mut self.net, &mut sched);
        self.net.note_sent(sent);
    }

    /// Steps one CPU batch: core execution, then the merge (uncore replay
    /// and the batch's action).
    fn run_cpu_batch(&mut self, core: usize) {
        self.clock.switch(PH_CORE);
        let mut log = std::mem::take(&mut self.port_logs[core]);
        let action = self.cpus[core].run_batch(
            self.now,
            &self.prog,
            &self.image,
            &mut self.mem.core_port(PortId(core), &mut log),
        );
        self.clock.switch(PH_MERGE);
        self.replay_log(&mut log);
        self.port_logs[core] = log;
        match action {
            CpuAction::Continue { at } => {
                self.progress += 1;
                self.sched_cpu_batch(core, at);
            }
            CpuAction::Blocked | CpuAction::Idle => {}
            CpuAction::Syscall => {
                self.progress += 1;
                self.handle_syscall(core);
            }
            CpuAction::PageFault { va } => {
                self.progress += 1;
                self.handler_enqueue(core, Job::Local { va });
            }
            CpuAction::Exited => {
                self.progress += 1;
                self.thread_exited(core);
            }
            CpuAction::Poisoned => {
                let reason = format!("CPU {core} accessed an ECC-poisoned block");
                self.failure = Some((Outcome::Poisoned, self.dump(reason)));
            }
        }
    }

    /// Steps one MTTOP batch: core execution, then the merge (uncore replay,
    /// forwarded page faults and the batch's action).
    fn run_mttop_batch(&mut self, core: usize) {
        self.spec_stats.batches_total += 1;
        self.clock.switch(PH_CORE);
        let port = PortId(self.cfg.n_cpus + core);
        let mut log = std::mem::take(&mut self.port_logs[port.0]);
        let outcome = self.mttops[core].run_batch(
            self.now,
            &self.prog,
            &self.image,
            &mut self.mem.core_port(port, &mut log),
        );
        self.clock.switch(PH_MERGE);
        self.replay_log(&mut log);
        self.port_logs[port.0] = log;
        for req in outcome.faults {
            self.mifd.count_fault_forward();
            // MTTOP -> MIFD -> CPU0 interrupt chain (§3.2.1).
            let t1 = self
                .net
                .send(self.now, self.mttop_nodes[core], self.mifd_node, 16);
            let t2 = self.net.send(t1, self.mifd_node, self.cpu_nodes[0], 16);
            self.queue.push(t2, Ev::FaultToCpu { req, mcore: core });
        }
        if outcome.poisoned {
            let reason = format!("MTTOP {core} accessed an ECC-poisoned block");
            self.failure = Some((Outcome::Poisoned, self.dump(reason)));
            return;
        }
        match outcome.action {
            MttopAction::Continue { at } => {
                self.progress += 1;
                self.sched_mttop_batch(core, at);
            }
            MttopAction::Blocked | MttopAction::Idle => {}
        }
    }

    fn thread_exited(&mut self, core: usize) {
        self.cpus[core].stop_thread();
        if core == 0 {
            self.main_exited = true;
            self.exit_code = self.cpus[0].reg(1);
        }
    }

    // ----- syscalls ---------------------------------------------------------

    fn handle_syscall(&mut self, core: usize) {
        let num = self.cpus[core].reg(1);
        let a = self.cpus[core].reg(2);
        let b = self.cpus[core].reg(3);
        let syscall_done = self.now + self.cfg.os.syscall;
        match num {
            sys::EXIT_THREAD => self.thread_exited(core),
            sys::MALLOC => {
                let ret = self.heap.malloc(a).map_or(0, |v| v.0);
                let at = self.cpus[core].resume_syscall(syscall_done, ret);
                self.sched_cpu_batch(core, at);
            }
            sys::FREE => {
                self.heap.free(VirtAddr(a));
                let at = self.cpus[core].resume_syscall(syscall_done, 0);
                self.sched_cpu_batch(core, at);
            }
            sys::PRINT_INT => {
                self.printed.push(format!("{}", a as i64));
                self.printed_at.push(self.now);
                self.dram_at_print.push(self.mem.dram_accesses());
                let at = self.cpus[core].resume_syscall(syscall_done, 0);
                self.sched_cpu_batch(core, at);
            }
            sys::PRINT_FLOAT => {
                self.printed.push(format!("{}", f64::from_bits(a)));
                self.printed_at.push(self.now);
                self.dram_at_print.push(self.mem.dram_accesses());
                let at = self.cpus[core].resume_syscall(syscall_done, 0);
                self.sched_cpu_batch(core, at);
            }
            sys::MIFD_LAUNCH => {
                // Read the 4-word descriptor from guest memory (a coherent
                // read: the CPU just wrote it).
                let w = self.guest_read_words(a, 4);
                let desc = [w[0], w[1], w[2], w[3]];
                assert!(
                    (desc[0] as usize) < self.prog.text.len(),
                    "launch entry PC {} outside text",
                    desc[0]
                );
                let t = self
                    .net
                    .send(syscall_done, self.cpu_nodes[core], self.mifd_node, 40);
                self.queue.push(t, Ev::MifdLaunch { cpu: core, desc });
                // The CPU stays blocked until the MIFD responds.
            }
            sys::SPAWN_CTHREAD => {
                let target = self.cpus.iter().position(|c| !c.is_running());
                let ret = match target {
                    Some(tc) => {
                        let cr3 = self.os.cr3();
                        self.cpus[tc].start_thread(
                            syscall_done,
                            a as usize,
                            b,
                            tc as u64,
                            cr3,
                            self.kexit,
                        );
                        self.sched_cpu_batch(tc, syscall_done);
                        tc as u64
                    }
                    None => u64::MAX, // -1: no idle CPU core
                };
                let at = self.cpus[core].resume_syscall(syscall_done, ret);
                self.sched_cpu_batch(core, at);
            }
            sys::MUNMAP => {
                self.cpus[core].tlb_invalidate(VirtAddr(a));
                self.handler_enqueue(core, Job::Unmap { va: VirtAddr(a) });
                // Blocked until all shootdown acks arrive.
            }
            other => panic!("unknown syscall {other} on CPU {core}"),
        }
    }

    fn mifd_launch(&mut self, cpu: usize, desc: [u64; 4]) {
        let [entry, args, first, last] = desc;
        // Tasks dispatch in SIMD-width (8-thread) chunks (paper 4.3),
        // independent of the core's issue organisation.
        let span = 8usize;
        let free: Vec<usize> = self
            .mttops
            .iter()
            .zip(&self.reserved)
            .map(|(m, r)| m.free_chunks(span).saturating_sub(*r))
            .collect();
        match self.mifd.plan_launch(first, last, span, &free) {
            None => {
                let err = self.mifd.take_error();
                debug_assert!(err);
                let t = self
                    .net
                    .send(self.now, self.mifd_node, self.cpu_nodes[cpu], 8);
                self.queue.push(t, Ev::ResumeSyscall { cpu, ret: 1 });
            }
            Some(chunks) => {
                let n = chunks.len() as u64;
                for (k, c) in chunks.into_iter().enumerate() {
                    self.reserved[c.core] += 1;
                    let depart = self.now + times(self.cfg.os.mifd_chunk, k as u64);
                    let t = self
                        .net
                        .send(depart, self.mifd_node, self.mttop_nodes[c.core], 40);
                    self.queue.push(
                        t,
                        Ev::ChunkArrive {
                            core: c.core,
                            chunk: TaskChunk {
                                entry: entry as usize,
                                args,
                                first_tid: c.first_tid,
                                last_tid: c.last_tid,
                                cr3: self.os.cr3(),
                                ra: self.kexit,
                            },
                        },
                    );
                }
                let depart = self.now + times(self.cfg.os.mifd_chunk, n);
                let t = self
                    .net
                    .send(depart, self.mifd_node, self.cpu_nodes[cpu], 8);
                self.queue.push(t, Ev::ResumeSyscall { cpu, ret: 0 });
            }
        }
    }

    // ----- OS handler work on CPU cores -------------------------------------

    fn handler_enqueue(&mut self, cpu: usize, job: Job) {
        self.handlers[cpu].queue.push_back(job);
        if self.handlers[cpu].active.is_none() {
            self.handler_start_next(cpu);
        }
    }

    fn handler_start_next(&mut self, cpu: usize) {
        let Some(job) = self.handlers[cpu].queue.pop_front() else {
            return;
        };
        let writes = match job {
            Job::Local { va } | Job::Remote { va, .. } => self.os.map_page(va),
            Job::Unmap { va } => self.os.unmap_page(va),
        };
        self.handlers[cpu].active = Some(Active {
            job,
            writes,
            next: 0,
        });
        // Trap + handler bookkeeping cost, then the PTE stores.
        let start = self.now + self.cfg.os.page_fault;
        self.cpus[cpu].preempt_until(start);
        self.handler_issue(cpu, start);
    }

    /// Issues the active job's remaining PTE stores through this CPU's port.
    fn handler_issue(&mut self, cpu: usize, mut at: Time) {
        loop {
            let Some(active) = self.handlers[cpu].active.as_ref() else {
                return;
            };
            let Some(w) = active.writes.get(active.next).copied() else {
                self.handler_finish(cpu, at);
                return;
            };
            let token = prefix(KIND_HANDLER, cpu) | 1;
            let access = Access::Write {
                paddr: w.addr,
                size: 8,
                value: w.value,
            };
            let result = {
                let queue = &mut self.queue;
                let mut sent = 0u64;
                let mut sched = |t: Time, e: MemEvent| {
                    sent += 1;
                    queue.push(t, Ev::Mem(e));
                };
                let r = self
                    .mem
                    .access(at, &mut self.net, &mut sched, PortId(cpu), token, access);
                self.net.note_sent(sent);
                r
            };
            match result {
                AccessResult::Hit { finish, .. } => {
                    self.handlers[cpu].active.as_mut().expect("active").next += 1;
                    self.progress += 1;
                    at = finish;
                }
                AccessResult::Pending => return, // continue on completion
                AccessResult::Retry => {
                    // Yield to the event loop so the port's MSHRs can drain.
                    self.queue
                        .push(at + self.cfg.cpu.clock.period(), Ev::HandlerRetry { cpu });
                    return;
                }
                AccessResult::Poisoned => {
                    let reason = format!("OS handler on CPU {cpu} stored to an ECC-poisoned block");
                    self.failure = Some((Outcome::Poisoned, self.dump(reason)));
                    return;
                }
            }
        }
    }

    fn handler_continue(&mut self, cpu: usize) {
        if let Some(active) = self.handlers[cpu].active.as_mut() {
            active.next += 1;
        }
        self.handler_issue(cpu, self.now);
    }

    fn handler_finish(&mut self, cpu: usize, at: Time) {
        let active = self.handlers[cpu].active.take().expect("active job");
        self.cpus[cpu].preempt_until(at);
        match active.job {
            Job::Local { .. } => {
                let resume = self.cpus[cpu].fault_resolved(at);
                self.sched_cpu_batch(cpu, resume);
            }
            Job::Remote { mcore, warp, .. } => {
                // Ack: CPU -> MIFD -> MTTOP core.
                let t1 = self.net.send(at, self.cpu_nodes[cpu], self.mifd_node, 8);
                let t2 = self
                    .net
                    .send(t1, self.mifd_node, self.mttop_nodes[mcore], 8);
                self.queue.push(t2, Ev::FaultAckAtMttop { mcore, warp });
            }
            Job::Unmap { va } => {
                // TLB shootdown: selective IPIs to the other CPUs, flush-all
                // to every MTTOP (the paper's conservative choice, §3.2.1).
                let mut pending = 0;
                for i in 0..self.cpus.len() {
                    if i != cpu {
                        let t = self.net.send(at, self.cpu_nodes[cpu], self.cpu_nodes[i], 8);
                        self.queue.push(
                            t,
                            Ev::IpiArrive {
                                target: i,
                                va,
                                initiator: cpu,
                            },
                        );
                        pending += 1;
                    }
                }
                for i in 0..self.mttops.len() {
                    let t1 = self.net.send(at, self.cpu_nodes[cpu], self.mifd_node, 8);
                    let t2 = self.net.send(t1, self.mifd_node, self.mttop_nodes[i], 8);
                    self.queue.push(
                        t2,
                        Ev::FlushArrive {
                            target: i,
                            va,
                            initiator: cpu,
                        },
                    );
                    pending += 1;
                }
                if pending == 0 {
                    let resume = self.cpus[cpu].resume_syscall(at, 0);
                    self.sched_cpu_batch(cpu, resume);
                } else {
                    self.shoot_pending[cpu] = pending;
                }
            }
        }
        if self.handlers[cpu].active.is_none() && !self.handlers[cpu].queue.is_empty() {
            self.handler_start_next(cpu);
        }
    }
}

/// Fingerprint of a `SystemConfig`, normalized so host-only knobs don't
/// partition pause images or cached reports: a checkpoint taken at one
/// `host_profile` setting restores at any other. Public because sweep
/// tooling keys jobs and result-cache entries by this hash.
pub fn config_hash(cfg: &SystemConfig) -> u64 {
    let mut c = cfg.clone();
    c.host_profile = false;
    // The sanitizer and the trace observe but never perturb, so neither
    // the sanitizer's enable switch nor the trace capacity partitions
    // images: a checkpoint from a sanitizer-off, trace-off run restores
    // into a sanitizer-on, traced replay (the whole point of triage). A
    // configured *mutation* stays in the hash — it changes simulated
    // behavior.
    c.sanitizer.enabled = false;
    c.trace_events = 0;
    // The decoded-superblock fast path is a pure host-perf knob
    // (bit-identical on/off, DESIGN §11): a checkpoint taken with it off
    // restores into a run with it on and vice versa.
    c.sb_cache = true;
    // The undo-journal budget is read only by the ledger's probes.
    c.speculation = SpeculationConfig::default();
    ccsvm_snap::fnv1a(format!("{c:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite to `Time::plus`'s guard: the machine's scalar multiply
    /// helper must also refuse to silently warp simulated time. Debug
    /// builds panic; release builds saturate to `Time::MAX`.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "time multiply overflowed"))]
    fn time_multiply_overflow_is_guarded() {
        let t = times(Time::from_ps(u64::MAX / 2), 3);
        assert_eq!(t, Time::MAX);
    }

    #[test]
    fn time_multiply_in_range_is_exact() {
        assert_eq!(times(Time::from_ps(250), 4), Time::from_ps(1000));
        assert_eq!(times(Time::ZERO, u64::MAX), Time::ZERO);
    }

    #[test]
    fn config_hash_ignores_host_knobs_only() {
        let base = SystemConfig::tiny();
        let mut host = base.clone();
        host.host_profile = true;
        host.trace_events = 4096;
        host.sb_cache = false;
        host.speculation.undo_sets = 1;
        assert_eq!(config_hash(&base), config_hash(&host));

        let mut other = base.clone();
        other.n_cpus += 1;
        assert_ne!(config_hash(&base), config_hash(&other));
    }
}
