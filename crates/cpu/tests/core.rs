//! CPU-core timing-model tests driven through a minimal harness: one core,
//! a real coherent memory system, page tables built by OsLite.

use ccsvm_cpu::{CpuAction, CpuConfig, CpuCore};
use ccsvm_engine::{EventQueue, Time};
use ccsvm_isa::{abi, assemble, DecodedImage, Program};
use ccsvm_mem::{
    BankConfig, CacheConfig, DramConfig, L1Config, MemConfig, MemEvent, MemorySystem, PortId,
    PortLog, WritePolicy,
};
use ccsvm_noc::{Network, NocConfig, NodeId, Topology};
use ccsvm_vm::{OsLite, VirtAddr};

struct Rig {
    core: CpuCore,
    mem: MemorySystem,
    net: Network,
    queue: EventQueue<MemEvent>,
    os: OsLite,
    prog: Program,
    image: DecodedImage,
    now: Time,
}

impl Rig {
    fn new(src: &str, config: CpuConfig) -> Rig {
        let topo = Topology::torus(2, 2);
        let mem = MemorySystem::new(MemConfig {
            l1s: vec![L1Config {
                node: NodeId(0),
                cache: CacheConfig::from_capacity(8 * 1024, 2),
                hit_time: Time::from_ps(690),
                max_mshrs: 4,
                write_policy: WritePolicy::WriteBack,
            }],
            banks: vec![BankConfig {
                node: NodeId(1),
                cache: CacheConfig::from_capacity(256 * 1024, 8),
                latency: Time::from_ps(3450),
            }],
            dram: DramConfig::paper_default(),
            ctrl_bytes: 8,
            data_bytes: 72,
            protocol: ccsvm_mem::ProtocolKind::Directory,
        });
        let prog = assemble(src).expect("assembles");
        let mut rig = Rig {
            core: CpuCore::new(PortId(0), config, 1 << 60),
            mem,
            net: Network::new(topo, NocConfig::paper_default()),
            queue: EventQueue::new(),
            os: OsLite::new(0x10_0000, 0x1000_0000),
            image: DecodedImage::build(&prog.text),
            prog,
            now: Time::ZERO,
        };
        // Pre-map the stack and one scratch data page the tests use.
        for va in [abi::stack_top(0) & !0xFFF, 0x4000_0000] {
            for w in rig.os.map_page(VirtAddr(va)) {
                rig.mem.backdoor_write(w.addr, &w.value.to_le_bytes());
            }
        }
        let cr3 = rig.os.cr3();
        rig.core
            .start_thread(Time::ZERO, rig.prog.entry("main"), 0, 0, cr3, usize::MAX);
        rig
    }

    /// Runs to thread exit; panics on anything unexpected.
    fn run(&mut self) -> Time {
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 1_000_000, "runaway test");
            let action = {
                let mut log = PortLog::new();
                let a = self.core.run_batch(
                    self.now,
                    &self.prog,
                    &self.image,
                    &mut self.mem.core_port(PortId(0), &mut log),
                );
                let q = &mut self.queue;
                let mut sched = |t: Time, e: MemEvent| q.push(t, e);
                log.replay(&mut self.net, &mut sched);
                a
            };
            match action {
                CpuAction::Exited => return self.core.local_time(),
                CpuAction::Continue { .. } => {}
                CpuAction::Blocked => {
                    let (t, ev) = self.queue.pop().expect("blocked with empty queue");
                    self.now = t;
                    let mut done = Vec::new();
                    {
                        let q = &mut self.queue;
                        let mut sched = |at: Time, e: MemEvent| q.push(at, e);
                        self.mem.handle(t, &mut self.net, &mut sched, ev, &mut done);
                    }
                    for c in done {
                        self.core.on_completion(self.now, c.token, c.value);
                    }
                }
                CpuAction::PageFault { va } => {
                    // Inline OS: map and retry (timing shortcut for the rig;
                    // the real machine issues the PTE stores coherently).
                    for w in self.os.map_page(va) {
                        self.mem
                            .backdoor_write_coherent(w.addr, &w.value.to_le_bytes());
                    }
                    self.core.fault_resolved(self.now);
                }
                CpuAction::Syscall => panic!("rig programs don't use syscalls"),
                CpuAction::Idle => panic!("idle while expecting work"),
                CpuAction::Poisoned => panic!("unexpected ECC poison in test"),
            }
        }
    }
}

#[test]
fn alu_loop_timing_matches_ipc() {
    // 1000 iterations x 4 instructions + prologue-ish; max IPC 0.5 at
    // 2.9 GHz means ~2 cycles (690 ps) per instruction.
    let src = "main:
        li r8, 0
        li r9, 0
    loop:
        add r8, r8, 2
        add r9, r9, 1
        li r10, 1000
        blt r9, r10, loop
        mv r1, r8
        exit";
    let mut rig = Rig::new(src, CpuConfig::paper_ccsvm());
    let t = rig.run();
    assert_eq!(rig.core.reg(1), 2000);
    let instrs = 3 + 4 * 1000 + 2;
    let expect = Time::from_ps(instrs * 690);
    let slack = Time::from_ps(expect.as_ps() / 10);
    assert!(
        t >= expect.saturating_sub(slack) && t <= expect + slack,
        "time {t} vs expected ~{expect}"
    );
}

#[test]
fn ipc4_core_is_8x_faster_on_alu() {
    let src = "main:
        li r8, 0
    loop:
        add r8, r8, 1
        li r10, 5000
        blt r8, r10, loop
        exit";
    let slow = Rig::new(src, CpuConfig::paper_ccsvm()).run();
    let fast = Rig::new(src, CpuConfig::paper_apu()).run();
    let ratio = slow.as_ps() as f64 / fast.as_ps() as f64;
    assert!((6.0..10.0).contains(&ratio), "IPC 0.5 vs 4 ratio {ratio}");
}

#[test]
fn loads_and_stores_roundtrip_through_translation() {
    let src = "main:
        li r8, 0x40000000
        li r9, 77
        st8 r9, 0(r8)
        ld8 r1, 0(r8)
        st4 r9, 16(r8)
        ld2 r2, 16(r8)
        exit";
    let mut rig = Rig::new(src, CpuConfig::paper_ccsvm());
    rig.run();
    assert_eq!(rig.core.reg(1), 77);
    assert_eq!(rig.core.reg(2), 77);
    let stats = rig.core.stats();
    assert!(stats.get("tlb_walks") >= 1.0, "data page needed a walk");
    assert_eq!(stats.get("page_faults"), 0.0, "page was pre-mapped");
}

#[test]
fn page_fault_fires_on_unmapped_page_and_retries() {
    let src = "main:
        li r8, 0x50000000   ; unmapped
        li r9, 5
        st8 r9, 0(r8)
        ld8 r1, 0(r8)
        exit";
    let mut rig = Rig::new(src, CpuConfig::paper_ccsvm());
    rig.run();
    assert_eq!(rig.core.reg(1), 5);
    assert!(rig.core.stats().get("page_faults") >= 1.0);
}

#[test]
fn tlb_hit_after_first_access() {
    let src = "main:
        li r8, 0x40000000
        li r9, 0
    loop:
        st8 r9, 0(r8)
        add r9, r9, 1
        li r10, 50
        blt r9, r10, loop
        exit";
    let mut rig = Rig::new(src, CpuConfig::paper_ccsvm());
    rig.run();
    let s = rig.core.stats();
    assert_eq!(s.get("tlb_walks"), 1.0, "one walk, then 49 TLB hits");
    assert!(s.get("tlb.hits") >= 49.0);
}

#[test]
fn atomics_execute_at_l1() {
    let src = "main:
        li r8, 0x40000000
        li r9, 10
        st8 r9, 0(r8)
        amoadd r1, (r8), r9
        amoinc r2, (r8)
        ld8 r3, 0(r8)
        exit";
    let mut rig = Rig::new(src, CpuConfig::paper_ccsvm());
    rig.run();
    assert_eq!(rig.core.reg(1), 10);
    assert_eq!(rig.core.reg(2), 20);
    assert_eq!(rig.core.reg(3), 21);
}

#[test]
fn misses_cost_more_than_hits() {
    // Stride through 64 distinct lines (all misses) vs hammer one line.
    let strided = "main:
        li r8, 0x40000000
        li r9, 0
    loop:
        ld8 r10, 0(r8)
        add r8, r8, 64
        add r9, r9, 1
        li r11, 48
        blt r9, r11, loop
        exit";
    let hot = "main:
        li r8, 0x40000000
        li r9, 0
    loop:
        ld8 r10, 0(r8)
        add r9, r9, 1
        li r11, 48
        blt r9, r11, loop
        exit";
    let t_strided = Rig::new(strided, CpuConfig::paper_ccsvm()).run();
    let t_hot = Rig::new(hot, CpuConfig::paper_ccsvm()).run();
    assert!(
        t_strided.as_ps() > t_hot.as_ps() * 2,
        "misses {t_strided} vs hits {t_hot}"
    );
}
