//! Microprobes: one layer operation at a time, driven through the layer's
//! public API, timed in the `black_box` + `Instant` idiom. Each returns
//! nanoseconds per operation.
//!
//! A probe times whole batches with one `Instant` pair and reports the median
//! batch, so clock reads stay a small share of what is measured.

use std::hint::black_box;
use std::time::Instant;

use ccsvm::SystemConfig;
use ccsvm_engine::{EventQueue, Time};
use ccsvm_isa::{abi, sys, FlatMem, FuncOs, Interp, MicroOp, Program, Syscalls, TrapKind};
use ccsvm_mem::{
    Access, AccessResult, BankConfig, CacheArray, Completion, Dram, L1Config, MemConfig, MemEvent,
    MemorySystem, PhysAddr, PortId, PortLog,
};
use ccsvm_noc::{Network, NodeId, Topology};
use ccsvm_vm::{OsLite, Tlb, VirtAddr, PAGE_BYTES};

use crate::summary::median;

const BATCHES: usize = 7;

/// Median over [`BATCHES`] batches of `ops` operations each, in ns per
/// operation. `batch` runs one batch and returns something to keep alive.
fn ns_per_op<T>(ops: u64, mut batch: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(batch());
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// `engine`: one pop plus one push on a queue that holds 64 events, each
/// rescheduled a cache-hit to DRAM-access distance ahead (the hold model of
/// a discrete-event kernel, inside the calendar queue's ring window as the
/// machine's own traffic is).
pub fn queue_push_pop_ns() -> f64 {
    const DELAYS_PS: [u64; 6] = [690, 1_667, 3_450, 10_000, 21_000, 100_000];
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..64u64 {
        q.push(Time::from_ps(i * 500), i);
    }
    const OPS: u64 = 400_000;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let (t, e) = q.pop().expect("queue stays full");
            q.push(
                t + Time::from_ps(DELAYS_PS[(e % 6) as usize]),
                black_box(e + 1),
            );
        }
        q.len()
    })
}

/// `isa`: executing every decodable superblock of `prog` once per pass over
/// one register file; ns per micro-op.
pub fn sb_exec_ns_per_uop(prog: &Program) -> f64 {
    let mut blocks: Vec<Vec<MicroOp>> = Vec::new();
    let mut pc = 0;
    while pc < prog.text.len() {
        let ops = ccsvm_isa::decode_run(&prog.text, pc);
        pc += ops.len().max(1);
        if !ops.is_empty() {
            blocks.push(ops);
        }
    }
    let uops: u64 = blocks.iter().map(|b| b.len() as u64).sum();
    assert!(uops > 0, "program has no decodable superblock");
    let passes = (2_000_000 / uops).max(1);
    let mut regs = [0u64; 32];
    for (i, r) in regs.iter_mut().enumerate().skip(1) {
        *r = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64);
    }
    ns_per_op(passes * uops, || {
        for _ in 0..passes {
            for ops in black_box(&blocks) {
                for op in ops {
                    op.exec(&mut regs);
                }
            }
        }
        regs[1]
    })
}

/// Step budget of one launched thread: far above any kernel thread here, and
/// what a thread that spins on a barrier burns before the run gives up.
const LAUNCHED_THREAD_STEPS: u64 = 20_000_000;

/// `FuncOs` with the instructions of launched threads counted: `FuncOs` runs
/// them on interpreters of its own and drops their counts.
struct CountingOs {
    inner: FuncOs,
    next_ctx: u64,
    launched_instrs: u64,
}

impl Syscalls for CountingOs {
    fn syscall(
        &mut self,
        regs: &mut [u64; 32],
        mem: &mut FlatMem,
        prog: &Program,
    ) -> Result<(), TrapKind> {
        if regs[1] != sys::MIFD_LAUNCH {
            return self.inner.syscall(regs, mem, prog);
        }
        // Descriptor: {entry_pc, args_ptr, first_tid, last_tid}, as in `FuncOs`.
        let d = regs[2];
        let entry = mem.read(d, 8) as usize;
        let args = mem.read(d + 8, 8);
        let (first, last) = (mem.read(d + 16, 8), mem.read(d + 24, 8));
        for tid in first..=last {
            self.next_ctx += 1;
            let mut t = Interp::new(entry, self.next_ctx);
            t.regs[1] = tid;
            t.regs[2] = args;
            t.regs[abi::RA.0 as usize] = prog.entry("__kexit") as u64;
            let ran = t.run(prog, mem, self, LAUNCHED_THREAD_STEPS);
            self.launched_instrs += t.icount;
            ran?;
        }
        regs[1] = 0;
        Ok(())
    }
}

/// `isa`: the workload's program on the functional interpreter (synchronous
/// launches, no timing model), the ceiling for the timed machine. Returns
/// millions of instructions per host second and `main`'s exit value.
///
/// A kernel that waits for a later CPU action (`apsp`'s per-`k` barrier) can
/// never finish under synchronous launches: its first thread spins until its
/// step budget ends. The rate over the instructions retired until then is
/// still reported, with no exit value.
pub fn interp_minstr_per_s(prog: &Program) -> Result<(f64, Option<u64>), String> {
    let mut mem = FlatMem::new();
    let mut os = CountingOs {
        inner: FuncOs::new(),
        next_ctx: 64, // clear of the CPU-thread stacks, as in `FuncOs`
        launched_instrs: 0,
    };
    let mut t = Interp::new(prog.entry("__start"), 0);
    let t0 = Instant::now();
    let ran = t.run(prog, &mut mem, &mut os, 2_000_000_000);
    let secs = t0.elapsed().as_secs_f64();
    let rate = (t.icount + os.launched_instrs) as f64 / secs / 1e6;
    match ran {
        Ok(()) => Ok((rate, Some(t.regs[1]))),
        Err(TrapKind::OutOfGas) => Ok((rate, None)),
        Err(e) => Err(format!("functional run trapped: {e:?}")),
    }
}

/// `mem`: a tag lookup that hits, in a CPU-L1-sized array half full.
pub fn cache_lookup_ns(cfg: &SystemConfig) -> f64 {
    let mut cache: CacheArray<u8> = CacheArray::new(cfg.cpu_l1);
    let resident = (cfg.cpu_l1.sets * cfg.cpu_l1.ways / 2) as u64;
    for b in 0..resident {
        cache.insert(b, 1, [0; 64]);
    }
    const OPS: u64 = 400_000;
    ns_per_op(OPS, || {
        let mut found = 0u64;
        for i in 0..OPS {
            found += u64::from(cache.lookup(black_box(i % resident)).is_some());
        }
        assert_eq!(found, OPS);
        found
    })
}

/// `mem`: one timed DRAM block read.
pub fn dram_read_ns(cfg: &SystemConfig) -> f64 {
    let mut dram = Dram::new(cfg.dram);
    const OPS: u64 = 100_000;
    let mut now = Time::ZERO;
    ns_per_op(OPS, || {
        for i in 0..OPS {
            let (done, data, _) = dram.timed_read_block(now, (i % 4) as usize, i % 4_096);
            black_box(data);
            now = done;
        }
        now
    })
}

/// `noc`: one data-sized message between two nodes of the paper's torus.
pub fn noc_send_ns(cfg: &SystemConfig) -> f64 {
    let topo = Topology::torus(cfg.torus.0, cfg.torus.1);
    let n = topo.len();
    let mut net = Network::new(topo, cfg.noc);
    const OPS: u64 = 200_000;
    let mut now = Time::ZERO;
    ns_per_op(OPS, || {
        for i in 0..OPS as usize {
            black_box(net.send(now, NodeId(i % n), NodeId((i * 7 + 3) % n), DATA_BYTES));
            now += Time::from_ns(10);
        }
        now
    })
}

/// `vm`: a TLB lookup that hits, in a full CPU-sized TLB.
pub fn tlb_lookup_ns(cfg: &SystemConfig) -> f64 {
    let pages = cfg.cpu.tlb_entries as u64;
    let mut tlb = Tlb::new(cfg.cpu.tlb_entries);
    for p in 0..pages {
        tlb.insert(VirtAddr(p * PAGE_BYTES), PhysAddr((p + 100) * PAGE_BYTES));
    }
    const OPS: u64 = 400_000;
    ns_per_op(OPS, || {
        let mut hits = 0u64;
        for i in 0..OPS {
            let va = VirtAddr(black_box((i * 5) % pages) * PAGE_BYTES);
            hits += u64::from(tlb.lookup(va).is_some());
        }
        assert_eq!(hits, OPS);
        hits
    })
}

/// `vm`: mapping one fresh page (frame allocation plus the PTE writes).
pub fn map_page_ns(cfg: &SystemConfig) -> f64 {
    let mut os = OsLite::new(cfg.phys_pool.0, cfg.phys_pool.1);
    const OPS: u64 = 2_000;
    let mut page = 0u64;
    ns_per_op(OPS, || {
        let mut writes = 0usize;
        for _ in 0..OPS {
            writes += os
                .map_page(VirtAddr(abi::HEAP_BASE + page * PAGE_BYTES))
                .len();
            page += 1;
        }
        writes
    })
}

/// Control and data message sizes, as `Machine::new` configures them.
const CTRL_BYTES: usize = 8;
const DATA_BYTES: usize = 72;

/// The paper's memory hierarchy (L1s, banks, DRAM, torus) under the
/// workload's protocol with an event queue of its own: `Machine::new`'s node
/// placement, driven in the style of `mem/tests/protocol.rs`.
struct Uncore {
    mem: MemorySystem,
    net: Network,
    queue: EventQueue<MemEvent>,
    now: Time,
    done: Vec<Completion>,
    token: u64,
    /// Next never-touched block.
    fresh: u64,
    /// An MTTOP L1 port (16 MSHRs).
    port: PortId,
}

impl Uncore {
    fn new(cfg: &SystemConfig) -> Uncore {
        // Node placement: CPUs, then L2 banks, then the MIFD, then MTTOPs.
        let cpu_node = |i: usize| NodeId(i);
        let bank_node = |i: usize| NodeId(cfg.n_cpus + i);
        let mttop_node = |i: usize| NodeId(cfg.n_cpus + cfg.l2_banks + 1 + i);
        let l1 = |node, cache, hit_time, max_mshrs| L1Config {
            node,
            cache,
            hit_time,
            max_mshrs,
            write_policy: cfg.l1_write_policy,
        };
        let cpus =
            (0..cfg.n_cpus).map(|i| l1(cpu_node(i), cfg.cpu_l1, cfg.cpu_l1_hit, cfg.cpu_mshrs));
        let mttops = (0..cfg.n_mttops).map(|i| {
            l1(
                mttop_node(i),
                cfg.mttop_l1,
                cfg.mttop_l1_hit,
                cfg.mttop_mshrs,
            )
        });
        let banks = (0..cfg.l2_banks)
            .map(|i| BankConfig {
                node: bank_node(i),
                cache: cfg.l2_bank,
                latency: cfg.l2_latency,
            })
            .collect();
        Uncore {
            mem: MemorySystem::new(MemConfig {
                l1s: cpus.chain(mttops).collect(),
                banks,
                dram: cfg.dram,
                ctrl_bytes: CTRL_BYTES,
                data_bytes: DATA_BYTES,
                protocol: cfg.protocol,
            }),
            net: Network::new(Topology::torus(cfg.torus.0, cfg.torus.1), cfg.noc),
            queue: EventQueue::new(),
            now: Time::ZERO,
            done: Vec::new(),
            token: 0,
            fresh: 0x10_0000 / 64,
            port: PortId(cfg.n_cpus),
        }
    }

    fn fresh_block_addr(&mut self) -> PhysAddr {
        self.fresh += 1;
        PhysAddr(self.fresh * 64)
    }

    fn access(&mut self, access: Access) -> AccessResult {
        self.token += 1;
        let queue = &mut self.queue;
        let mut sched = |t: Time, e: MemEvent| queue.push(t, e);
        let (port, token) = (self.port, self.token);
        let r = self
            .mem
            .access(self.now, &mut self.net, &mut sched, port, token, access);
        if let AccessResult::Hit { finish, .. } = r {
            self.now = self.now.max(finish);
        }
        r
    }

    /// Handles every queued event; returns how many there were.
    fn drain(&mut self) -> u64 {
        let mut events = 0;
        while let Some((t, ev)) = self.queue.pop() {
            self.now = self.now.max(t);
            let queue = &mut self.queue;
            let mut sched = |at: Time, e: MemEvent| queue.push(at, e);
            self.mem
                .handle(t, &mut self.net, &mut sched, ev, &mut self.done);
            events += 1;
        }
        assert!(self.mem.quiescent(), "memory system did not settle");
        self.done.clear();
        events
    }

    /// Makes `n` fresh blocks resident and writable in the probe port's L1.
    fn own_blocks(&mut self, n: usize) -> Vec<PhysAddr> {
        let addrs: Vec<PhysAddr> = (0..n).map(|_| self.fresh_block_addr()).collect();
        for &paddr in &addrs {
            let r = self.access(Access::Write {
                paddr,
                size: 8,
                value: 1,
            });
            assert_eq!(r, AccessResult::Pending, "fresh block cannot hit");
            self.drain();
        }
        addrs
    }

    fn store_hits(&mut self, addrs: &[PhysAddr]) {
        for &paddr in addrs {
            let r = self.access(Access::Write {
                paddr,
                size: 8,
                value: 2,
            });
            assert!(
                matches!(r, AccessResult::Hit { .. }),
                "owned block must hit"
            );
        }
    }
}

/// What the memory-system probes found.
pub struct MemProbes {
    pub l1_hit_ns: f64,
    pub miss_txn_ns: f64,
    pub miss_txn_events: f64,
    pub portlog_replay_ns: f64,
    pub spec_commit_ns: f64,
    pub spec_rollback_ns: f64,
}

/// `mem`: L1 hit, one cold miss driven to its `Completion`, `PortLog`
/// replay, and what speculation adds to a batch of eight store hits when it
/// commits and when it rolls back, all under `cfg`'s protocol.
pub fn mem_probes(cfg: &SystemConfig) -> MemProbes {
    let mut u = Uncore::new(cfg);

    let owned = u.own_blocks(8);
    const HIT_OPS: u64 = 200_000;
    let l1_hit_ns = ns_per_op(HIT_OPS, || {
        for i in 0..HIT_OPS as usize {
            let r = u.access(Access::Read {
                paddr: owned[i % 8],
                size: 8,
            });
            debug_assert!(matches!(r, AccessResult::Hit { .. }));
            black_box(r);
        }
    });

    // Speculation's cost as a difference: the same eight store hits plain,
    // inside begin..commit, and inside begin..rollback.
    const ROUNDS: u64 = 20_000;
    let budget = cfg.speculation.undo_sets;
    let plain = ns_per_op(ROUNDS, || {
        for _ in 0..ROUNDS {
            u.store_hits(&owned);
        }
    });
    let committed = ns_per_op(ROUNDS, || {
        for _ in 0..ROUNDS {
            u.mem.spec_begin(u.port, budget);
            u.store_hits(&owned);
            u.mem.spec_commit(u.port);
        }
    });
    let rolled_back = ns_per_op(ROUNDS, || {
        for _ in 0..ROUNDS {
            u.mem.spec_begin(u.port, budget);
            u.store_hits(&owned);
            black_box(u.mem.spec_rollback(u.port));
        }
    });

    const MISSES: u64 = 2_000;
    let mut events = 0;
    let miss_txn_ns = ns_per_op(MISSES, || {
        for _ in 0..MISSES {
            let paddr = u.fresh_block_addr();
            let r = u.access(Access::Read { paddr, size: 8 });
            assert_eq!(r, AccessResult::Pending, "fresh block cannot hit");
            events += u.drain();
        }
    });
    let miss_txn_events = events as f64 / (MISSES * BATCHES as u64) as f64;

    // Eight misses buffered through a `CorePort` (well inside the MTTOP L1's
    // MSHRs), then the replay alone is timed.
    const LOGGED: u64 = 8;
    let mut log = PortLog::new();
    let replay: Vec<f64> = (0..200)
        .map(|_| {
            for _ in 0..LOGGED {
                let paddr = u.fresh_block_addr();
                u.token += 1;
                let (now, token) = (u.now, u.token);
                let r = u.mem.core_port(u.port, &mut log).access(
                    now,
                    token,
                    Access::Read { paddr, size: 8 },
                );
                assert_eq!(r, AccessResult::Pending, "fresh block cannot hit");
            }
            let queue = &mut u.queue;
            let mut sched = |t: Time, e: MemEvent| queue.push(t, e);
            let t0 = Instant::now();
            log.replay(&mut u.net, &mut sched);
            let ns = t0.elapsed().as_nanos() as f64 / LOGGED as f64;
            u.drain();
            ns
        })
        .collect();

    MemProbes {
        l1_hit_ns,
        miss_txn_ns,
        miss_txn_events,
        portlog_replay_ns: median(&replay),
        spec_commit_ns: (committed - plain).max(0.0),
        spec_rollback_ns: (rolled_back - plain).max(0.0),
    }
}
