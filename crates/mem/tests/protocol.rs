//! End-to-end MOESI protocol tests: drive the full `MemorySystem` (L1s +
//! directory banks + DRAM) over a real torus NoC with a local event queue.

use ccsvm_engine::{EventQueue, Time};
use ccsvm_mem::{
    Access, AccessResult, AtomicOp, BankConfig, CacheConfig, Completion, DramConfig, L1Config,
    MemConfig, MemEvent, MemorySystem, PhysAddr, PortId, ProtocolKind, WritePolicy,
};
use ccsvm_noc::{Network, NocConfig, NodeId, Topology};

/// A driver around the memory system with its own event queue.
struct Harness {
    mem: MemorySystem,
    net: Network,
    queue: EventQueue<MemEvent>,
    now: Time,
    token: u64,
}

impl Harness {
    /// `n_l1` cores, `n_banks` banks, deliberately tiny caches so evictions
    /// and recalls happen constantly.
    fn tiny(n_l1: usize, n_banks: usize) -> Harness {
        Harness::tiny_proto(n_l1, n_banks, ProtocolKind::Directory)
    }

    /// Like [`Harness::tiny`], under a chosen coherence protocol.
    fn tiny_proto(n_l1: usize, n_banks: usize, protocol: ProtocolKind) -> Harness {
        Harness::build(n_l1, n_banks, 2, 2, 2, 2, WritePolicy::WriteBack, protocol)
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        n_l1: usize,
        n_banks: usize,
        l1_sets: usize,
        l1_ways: usize,
        l2_sets: usize,
        l2_ways: usize,
        policy: WritePolicy,
        protocol: ProtocolKind,
    ) -> Harness {
        let topo = Topology::torus(4, 4);
        let l1s = (0..n_l1)
            .map(|i| L1Config {
                node: NodeId(i % topo.len()),
                cache: CacheConfig {
                    sets: l1_sets,
                    ways: l1_ways,
                },
                hit_time: Time::from_ps(690),
                max_mshrs: 4,
                write_policy: policy,
            })
            .collect();
        let banks = (0..n_banks)
            .map(|i| BankConfig {
                node: NodeId((8 + i) % topo.len()),
                cache: CacheConfig {
                    sets: l2_sets,
                    ways: l2_ways,
                },
                latency: Time::from_ps(3450),
            })
            .collect();
        Harness {
            mem: MemorySystem::new(MemConfig {
                l1s,
                banks,
                dram: DramConfig::paper_default(),
                ctrl_bytes: 8,
                data_bytes: 72,
                protocol,
            }),
            net: Network::new(topo, NocConfig::paper_default()),
            queue: EventQueue::new(),
            now: Time::ZERO,
            token: 0,
        }
    }

    /// Issues an access; returns either the hit value or `None` (pending).
    fn issue(&mut self, port: usize, access: Access) -> (u64, Option<u64>) {
        self.token += 1;
        let token = self.token;
        let now = self.now;
        let (queue, mem, net) = (&mut self.queue, &mut self.mem, &mut self.net);
        let mut sched = |t: Time, e: MemEvent| queue.push(t, e);
        match mem.access(now, net, &mut sched, PortId(port), token, access) {
            AccessResult::Hit { finish, value } => {
                self.now = self.now.max(finish);
                (token, Some(value))
            }
            AccessResult::Pending => (token, None),
            AccessResult::Retry => panic!("unexpected MSHR exhaustion in test"),
            AccessResult::Poisoned => panic!("unexpected ECC poison in test"),
        }
    }

    /// Drains all events, returning completions.
    fn drain(&mut self) -> Vec<Completion> {
        let mut done = Vec::new();
        while let Some((t, ev)) = self.queue.pop() {
            assert!(t >= self.now || t == self.now, "time went backwards");
            self.now = self.now.max(t);
            let (queue, mem, net) = (&mut self.queue, &mut self.mem, &mut self.net);
            let mut sched = |at: Time, e: MemEvent| queue.push(at, e);
            mem.handle(t, net, &mut sched, ev, &mut done);
        }
        assert!(self.mem.quiescent(), "memory system not quiescent");
        done
    }

    /// Blocking read: issue and run to completion.
    fn read(&mut self, port: usize, addr: u64) -> u64 {
        let (token, hit) = self.issue(
            port,
            Access::Read {
                paddr: PhysAddr(addr),
                size: 8,
            },
        );
        match hit {
            Some(v) => v,
            None => {
                let done = self.drain();
                done.iter()
                    .find(|c| c.token == token)
                    .expect("read completion")
                    .value
            }
        }
    }

    /// Blocking write.
    fn write(&mut self, port: usize, addr: u64, value: u64) {
        let (token, hit) = self.issue(
            port,
            Access::Write {
                paddr: PhysAddr(addr),
                size: 8,
                value,
            },
        );
        if hit.is_none() {
            let done = self.drain();
            assert!(done.iter().any(|c| c.token == token), "write completion");
        }
    }

    /// Blocking atomic; returns the old value.
    fn rmw(&mut self, port: usize, addr: u64, op: AtomicOp) -> u64 {
        let (token, hit) = self.issue(
            port,
            Access::Rmw {
                paddr: PhysAddr(addr),
                size: 8,
                op,
            },
        );
        match hit {
            Some(v) => v,
            None => {
                let done = self.drain();
                done.iter()
                    .find(|c| c.token == token)
                    .expect("rmw completion")
                    .value
            }
        }
    }
}

#[test]
fn read_of_cold_memory_is_zero() {
    let mut h = Harness::tiny(2, 2);
    assert_eq!(h.read(0, 0x100), 0);
}

#[test]
fn write_then_read_same_core() {
    let mut h = Harness::tiny(2, 2);
    h.write(0, 0x40, 0xDEAD_BEEF);
    assert_eq!(h.read(0, 0x40), 0xDEAD_BEEF);
}

#[test]
fn producer_consumer_across_cores() {
    let mut h = Harness::tiny(4, 2);
    h.write(0, 0x80, 42);
    // Core 1 must see core 0's modified data (directory Fetch from owner).
    assert_eq!(h.read(1, 0x80), 42);
    // And core 0's copy stays readable (M -> O downgrade).
    assert_eq!(h.read(0, 0x80), 42);
}

#[test]
fn write_invalidates_sharers() {
    let mut h = Harness::tiny(3, 2);
    h.write(0, 0x40, 1);
    assert_eq!(h.read(1, 0x40), 1);
    assert_eq!(h.read(2, 0x40), 1);
    // Core 1 upgrades; cores 0 (owner) and 2 (sharer) must be invalidated.
    h.write(1, 0x40, 2);
    assert_eq!(h.read(0, 0x40), 2);
    assert_eq!(h.read(2, 0x40), 2);
    assert_eq!(h.read(1, 0x40), 2);
}

#[test]
fn exclusive_grant_when_unshared() {
    let mut h = Harness::tiny(2, 1);
    assert_eq!(h.read(0, 0x40), 0);
    // Directory granted E on an unshared GetS: the subsequent write must be
    // an L1 hit (silent E->M), i.e. complete with no new coherence traffic.
    let (_, hit) = h.issue(
        0,
        Access::Write {
            paddr: PhysAddr(0x40),
            size: 8,
            value: 7,
        },
    );
    assert!(hit.is_some(), "write after E grant should hit locally");
    h.drain();
    assert_eq!(h.read(1, 0x40), 7);
}

#[test]
fn atomics_are_atomic_under_contention() {
    let mut h = Harness::tiny(4, 2);
    // Issue 4 concurrent fetch-and-adds (no draining in between).
    let mut tokens = Vec::new();
    for port in 0..4 {
        let (tok, hit) = h.issue(
            port,
            Access::Rmw {
                paddr: PhysAddr(0x200),
                size: 8,
                op: AtomicOp::Add { value: 1 },
            },
        );
        assert!(hit.is_none() || port == 0, "only first could possibly hit");
        tokens.push((tok, hit));
    }
    let done = h.drain();
    // Old values observed must be a permutation of {0,1,2,3}.
    let mut olds: Vec<u64> = tokens
        .iter()
        .map(|(tok, hit)| {
            hit.unwrap_or_else(|| done.iter().find(|c| c.token == *tok).expect("done").value)
        })
        .collect();
    olds.sort();
    assert_eq!(olds, vec![0, 1, 2, 3]);
    assert_eq!(h.read(0, 0x200), 4);
}

#[test]
fn cas_success_and_failure() {
    let mut h = Harness::tiny(2, 1);
    h.write(0, 0x40, 5);
    let old = h.rmw(
        1,
        0x40,
        AtomicOp::Cas {
            expected: 5,
            value: 9,
        },
    );
    assert_eq!(old, 5);
    assert_eq!(h.read(0, 0x40), 9);
    let old = h.rmw(
        0,
        0x40,
        AtomicOp::Cas {
            expected: 5,
            value: 100,
        },
    );
    assert_eq!(old, 9, "failed CAS returns current value");
    assert_eq!(h.read(1, 0x40), 9, "failed CAS must not write");
}

#[test]
fn l1_eviction_writes_back_dirty_data() {
    // L1: 2 sets x 2 ways: writing more distinct blocks than the L1 holds
    // forces dirty evictions. The evicted data must reach another core.
    let mut h = Harness::tiny(2, 2);
    for i in 0..6u64 {
        h.write(0, i * 64, 10 + i);
    }
    for i in 0..6u64 {
        assert_eq!(h.read(1, i * 64), 10 + i);
    }
}

#[test]
fn l2_recall_preserves_data() {
    // L2: 2 banks x (2 sets x 2 ways) = 8 blocks capacity; L1s are 2x2 too.
    // Stream enough distinct dirty blocks to force inclusive-L2 recalls.
    let mut h = Harness::tiny(2, 2);
    for i in 0..32u64 {
        h.write(0, i * 64, 1000 + i);
    }
    for i in 0..32u64 {
        assert_eq!(h.read(1, i * 64), 1000 + i, "block {i}");
    }
}

#[test]
fn many_cores_shared_then_recall() {
    let mut h = Harness::tiny(8, 2);
    h.write(0, 0x40, 77);
    for p in 0..8 {
        assert_eq!(h.read(p, 0x40), 77);
    }
    // Force the L2 to recall the widely-shared block.
    for i in 1..16u64 {
        h.write(0, i * 64 + 0x400, i);
    }
    for p in 0..8 {
        assert_eq!(h.read(p, 0x40), 77, "after recall, core {p}");
    }
}

#[test]
fn backdoor_read_sees_dirty_l1_data() {
    let mut h = Harness::tiny(2, 2);
    h.write(0, 0x40, 0xABCD);
    let mut buf = [0u8; 8];
    h.mem.backdoor_read(PhysAddr(0x40), &mut buf);
    assert_eq!(u64::from_le_bytes(buf), 0xABCD);
}

#[test]
fn backdoor_write_then_coherent_read() {
    let mut h = Harness::tiny(2, 2);
    h.mem
        .backdoor_write(PhysAddr(0x1000), &123u64.to_le_bytes());
    assert_eq!(h.read(1, 0x1000), 123);
}

/// An unaligned write that spills into a cached block is caught, however
/// few bytes land there: 8 bytes at offset 60 of block 1 reach block 2.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "backdoor_write to cached block 2")]
fn backdoor_write_guard_checks_the_tail_block() {
    let mut h = Harness::tiny(2, 2);
    h.read(0, 2 * 64);
    h.mem.backdoor_write(PhysAddr(64 + 60), &[0xAA; 8]);
}

#[test]
fn peek_and_poke_follow_permissions() {
    let mut h = Harness::tiny(2, 2);
    assert_eq!(h.mem.peek(PortId(0), PhysAddr(0x40), 8), None);
    h.write(0, 0x40, 5);
    assert_eq!(h.mem.peek(PortId(0), PhysAddr(0x40), 8), Some(5));
    assert!(h.mem.poke(PortId(0), PhysAddr(0x48), 8, 6));
    assert_eq!(h.read(1, 0x48), 6, "poked data must be coherent");
    // Core 1 now shares the block: core 0 is O, poke must fail.
    assert!(!h.mem.poke(PortId(0), PhysAddr(0x48), 8, 7));
    assert_eq!(h.mem.peek(PortId(1), PhysAddr(0x48), 8), Some(6));
}

#[test]
fn sub_word_accesses() {
    let mut h = Harness::tiny(1, 1);
    h.write(0, 0x40, 0x1122_3344_5566_7788);
    let (_, v) = h.issue(
        0,
        Access::Read {
            paddr: PhysAddr(0x42),
            size: 2,
        },
    );
    assert_eq!(v.unwrap(), 0x5566);
    let (_, _) = h.issue(
        0,
        Access::Write {
            paddr: PhysAddr(0x40),
            size: 1,
            value: 0xFF,
        },
    );
    assert_eq!(h.read(0, 0x40), 0x1122_3344_5566_77FF);
}

#[test]
fn write_through_policy_stays_coherent() {
    let mut h = Harness::build(
        4,
        2,
        2,
        2,
        4,
        4,
        WritePolicy::WriteThrough,
        ProtocolKind::Directory,
    );
    h.write(0, 0x40, 1);
    assert_eq!(h.read(1, 0x40), 1);
    h.write(1, 0x40, 2);
    assert_eq!(h.read(0, 0x40), 2);
    for i in 0..16u64 {
        h.write(2, i * 64, i * 3);
    }
    for i in 0..16u64 {
        assert_eq!(h.read(3, i * 64), i * 3);
    }
}

#[test]
fn dram_access_counting() {
    let mut h = Harness::tiny(1, 1);
    h.write(0, 0x40, 1);
    let after_first = h.mem.dram_accesses();
    assert!(after_first >= 1, "cold miss fetched from DRAM");
    h.write(0, 0x40, 2); // hit: no new DRAM traffic
    h.drain();
    assert_eq!(h.mem.dram_accesses(), after_first);
    h.mem.reset_dram_counters();
    assert_eq!(h.mem.dram_accesses(), 0);
}

#[test]
fn stats_cover_components() {
    let mut h = Harness::tiny(2, 2);
    h.write(0, 0x40, 1);
    h.read(1, 0x40);
    let s = h.mem.stats();
    assert!(s.get("l1.0.stores") >= 1.0);
    assert!(s.get("l1.1.loads") >= 1.0);
    assert!(s.sum_prefix("l2.") > 0.0);
    assert!(s.get("dram.reads") >= 1.0);
}

#[test]
fn directory_tracks_owner_and_sharers() {
    let mut h = Harness::tiny(3, 1);
    h.write(0, 0x40, 1);
    assert_eq!(h.mem.dir_owner(1), Some(PortId(0)));
    h.read(1, 0x40);
    assert_eq!(h.mem.dir_owner(1), Some(PortId(0)), "owner keeps O");
    assert_eq!(h.mem.dir_sharers(1), 1 << 1);
    h.write(2, 0x40, 2);
    assert_eq!(h.mem.dir_owner(1), Some(PortId(2)));
    assert_eq!(h.mem.dir_sharers(1), 0);
}

/// Sequentially-driven random traffic against a flat shadow memory, with
/// tiny caches so evictions/recalls/upgrades happen constantly.
#[test]
fn randomized_sequential_equivalence() {
    use ccsvm_engine::SplitMix64;
    for seed in 0..8 {
        let mut h = Harness::tiny(4, 2);
        let mut rng = SplitMix64::new(seed);
        let mut shadow = std::collections::HashMap::new();
        for _ in 0..400 {
            let port = (rng.next_below(4)) as usize;
            let addr = rng.next_below(48) * 8; // 48 words over 6 blocks/bank
            match rng.next_below(3) {
                0 => {
                    let v = rng.next_u64();
                    h.write(port, addr, v);
                    shadow.insert(addr, v);
                }
                1 => {
                    let expect = shadow.get(&addr).copied().unwrap_or(0);
                    assert_eq!(h.read(port, addr), expect, "seed {seed} addr {addr:#x}");
                }
                _ => {
                    let old = h.rmw(port, addr, AtomicOp::Inc);
                    let expect = shadow.get(&addr).copied().unwrap_or(0);
                    assert_eq!(old, expect, "seed {seed} rmw old");
                    shadow.insert(addr, expect.wrapping_add(1));
                }
            }
        }
    }
}

/// Concurrent random traffic: all cores fire at once; every atomic increment
/// must be counted exactly once.
#[test]
fn concurrent_increments_from_all_cores() {
    let mut h = Harness::tiny(8, 2);
    let per_core = 5;
    let mut pending = 0;
    for round in 0..per_core {
        for port in 0..8 {
            let (_, hit) = h.issue(
                port,
                Access::Rmw {
                    paddr: PhysAddr(0x300),
                    size: 8,
                    op: AtomicOp::Add { value: 1 },
                },
            );
            if hit.is_none() {
                pending += 1;
            }
        }
        // Drain between rounds (each core has one outstanding op at a time).
        let done = h.drain();
        assert_eq!(done.len(), pending, "round {round}");
        pending = 0;
    }
    assert_eq!(h.read(0, 0x300), 8 * per_core);
}

// ---------------------------------------------------------------------------
// Cross-protocol tests: the same access sequences must produce the same
// architectural results under directory MOESI, snooping MESI, and Dragon
// write-update — only the traffic differs. Each run finishes with a full
// sanitizer sweep under the protocol's own invariant mask.

fn swept(h: Harness) {
    assert_eq!(h.mem.check_all(h.now), None, "sanitizer sweep");
    assert!(h.mem.quiescent());
}

#[test]
fn all_protocols_producer_consumer() {
    for kind in ProtocolKind::ALL {
        let mut h = Harness::tiny_proto(4, 2, kind);
        h.write(0, 0x80, 42);
        assert_eq!(h.read(1, 0x80), 42, "{kind}");
        assert_eq!(h.read(0, 0x80), 42, "{kind}: producer keeps a copy");
        swept(h);
    }
}

#[test]
fn all_protocols_write_propagates_to_sharers() {
    for kind in ProtocolKind::ALL {
        let mut h = Harness::tiny_proto(3, 2, kind);
        h.write(0, 0x40, 1);
        assert_eq!(h.read(1, 0x40), 1, "{kind}");
        assert_eq!(h.read(2, 0x40), 1, "{kind}");
        // MESI/directory invalidate the other copies; Dragon patches them in
        // place. Either way every core must observe the new value.
        h.write(1, 0x40, 2);
        assert_eq!(h.read(0, 0x40), 2, "{kind}");
        assert_eq!(h.read(2, 0x40), 2, "{kind}");
        assert_eq!(h.read(1, 0x40), 2, "{kind}");
        swept(h);
    }
}

#[test]
fn all_protocols_atomics_under_contention() {
    for kind in ProtocolKind::ALL {
        let mut h = Harness::tiny_proto(4, 2, kind);
        let mut tokens = Vec::new();
        for port in 0..4 {
            let (tok, hit) = h.issue(
                port,
                Access::Rmw {
                    paddr: PhysAddr(0x200),
                    size: 8,
                    op: AtomicOp::Add { value: 1 },
                },
            );
            tokens.push((tok, hit));
        }
        let done = h.drain();
        let mut olds: Vec<u64> = tokens
            .iter()
            .map(|(tok, hit)| {
                hit.unwrap_or_else(|| done.iter().find(|c| c.token == *tok).expect("done").value)
            })
            .collect();
        olds.sort();
        assert_eq!(olds, vec![0, 1, 2, 3], "{kind}");
        assert_eq!(h.read(0, 0x200), 4, "{kind}");
        swept(h);
    }
}

#[test]
fn all_protocols_eviction_writeback() {
    for kind in ProtocolKind::ALL {
        let mut h = Harness::tiny_proto(2, 2, kind);
        for i in 0..32u64 {
            h.write(0, i * 64, 1000 + i);
        }
        for i in 0..32u64 {
            assert_eq!(h.read(1, i * 64), 1000 + i, "{kind} block {i}");
        }
        swept(h);
    }
}

#[test]
fn all_protocols_write_through_policy() {
    for kind in ProtocolKind::ALL {
        let mut h = Harness::build(4, 2, 2, 2, 4, 4, WritePolicy::WriteThrough, kind);
        h.write(0, 0x40, 1);
        assert_eq!(h.read(1, 0x40), 1, "{kind}");
        h.write(1, 0x40, 2);
        assert_eq!(h.read(0, 0x40), 2, "{kind}");
        for i in 0..16u64 {
            h.write(2, i * 64, i * 3);
        }
        for i in 0..16u64 {
            assert_eq!(h.read(3, i * 64), i * 3, "{kind}");
        }
        swept(h);
    }
}

#[test]
fn all_protocols_randomized_sequential_equivalence() {
    use ccsvm_engine::SplitMix64;
    for kind in ProtocolKind::ALL {
        for seed in 0..8 {
            let mut h = Harness::tiny_proto(4, 2, kind);
            let mut rng = SplitMix64::new(seed);
            let mut shadow = std::collections::HashMap::new();
            for step in 0..400 {
                let port = (rng.next_below(4)) as usize;
                let addr = rng.next_below(48) * 8;
                match rng.next_below(3) {
                    0 => {
                        let v = rng.next_u64();
                        h.write(port, addr, v);
                        shadow.insert(addr, v);
                    }
                    1 => {
                        let expect = shadow.get(&addr).copied().unwrap_or(0);
                        assert_eq!(
                            h.read(port, addr),
                            expect,
                            "{kind} seed {seed} step {step} addr {addr:#x}"
                        );
                    }
                    _ => {
                        let old = h.rmw(port, addr, AtomicOp::Inc);
                        let expect = shadow.get(&addr).copied().unwrap_or(0);
                        assert_eq!(old, expect, "{kind} seed {seed} step {step} rmw old");
                        shadow.insert(addr, expect.wrapping_add(1));
                    }
                }
                let at = h.now;
                assert_eq!(
                    h.mem.check_all(at),
                    None,
                    "{kind} seed {seed} step {step}: invariant sweep"
                );
            }
        }
    }
}

#[test]
fn all_protocols_concurrent_increments() {
    for kind in ProtocolKind::ALL {
        let mut h = Harness::tiny_proto(8, 2, kind);
        let per_core = 5;
        let mut pending = 0;
        for round in 0..per_core {
            for port in 0..8 {
                let (_, hit) = h.issue(
                    port,
                    Access::Rmw {
                        paddr: PhysAddr(0x300),
                        size: 8,
                        op: AtomicOp::Add { value: 1 },
                    },
                );
                if hit.is_none() {
                    pending += 1;
                }
            }
            let done = h.drain();
            assert_eq!(done.len(), pending, "{kind} round {round}");
            pending = 0;
        }
        assert_eq!(h.read(0, 0x300), 8 * per_core, "{kind}");
        swept(h);
    }
}

#[test]
fn mesi_snoop_invalidates_on_write() {
    let mut h = Harness::tiny_proto(2, 2, ProtocolKind::MesiSnoop);
    h.write(0, 0x40, 1);
    assert_eq!(h.read(1, 0x40), 1);
    h.write(0, 0x40, 2);
    // Invalidation protocol: the other copy must be gone, not patched.
    assert_eq!(h.mem.peek(PortId(1), PhysAddr(0x40), 8), None);
    assert_eq!(h.read(1, 0x40), 2);
    swept(h);
}

#[test]
fn dragon_updates_sharers_in_place() {
    let mut h = Harness::tiny_proto(3, 2, ProtocolKind::Dragon);
    h.write(0, 0x40, 1);
    assert_eq!(h.read(1, 0x40), 1);
    assert_eq!(h.read(2, 0x40), 1);
    h.write(0, 0x40, 2);
    // Update protocol: the sharers' copies are patched in place — still
    // resident and already holding the new value, with no re-fetch.
    assert_eq!(h.mem.peek(PortId(1), PhysAddr(0x40), 8), Some(2));
    assert_eq!(h.mem.peek(PortId(2), PhysAddr(0x40), 8), Some(2));
    swept(h);
}

#[test]
fn dragon_sub_word_updates_patch_only_their_bytes() {
    let mut h = Harness::tiny_proto(2, 2, ProtocolKind::Dragon);
    h.write(0, 0x40, 0x1122_3344_5566_7788);
    assert_eq!(h.read(1, 0x40), 0x1122_3344_5566_7788);
    let (_, hit) = h.issue(
        0,
        Access::Write {
            paddr: PhysAddr(0x42),
            size: 2,
            value: 0xAABB,
        },
    );
    if hit.is_none() {
        h.drain();
    }
    assert_eq!(
        h.mem.peek(PortId(1), PhysAddr(0x40), 8),
        Some(0x1122_3344_AABB_7788),
        "sharer patched exactly the written half-word"
    );
    swept(h);
}

#[test]
fn snoop_protocols_leave_no_directory_state() {
    for kind in [ProtocolKind::MesiSnoop, ProtocolKind::Dragon] {
        let mut h = Harness::tiny_proto(2, 1, kind);
        h.write(0, 0x40, 7);
        assert_eq!(h.read(1, 0x40), 7);
        assert_eq!(h.mem.dir_owner(1), None, "{kind}: no owner registration");
        assert_eq!(h.mem.dir_sharers(1), 0, "{kind}: no sharer mask");
        swept(h);
    }
}
