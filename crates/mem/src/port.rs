//! Core-side port into the memory system with buffered uncore effects.
//!
//! [`CorePort`] borrows exactly the state a core quantum may touch — its own
//! L1 plus read-only routing configuration — so a batch step is `Send`-clean
//! and several cores can step concurrently over disjoint ports. Everything a
//! step would normally do to the shared uncore (NoC sends whose arrival
//! schedules a [`MemEvent`]) is appended to a [`PortLog`] instead; a serial
//! merge section later replays the logs in canonical order, producing the
//! exact event stream serial execution would have produced.
//!
//! [`MemorySystem::access`](crate::MemorySystem::access) itself is implemented
//! on top of a `CorePort` with an immediate replay, so the serial reference
//! path and the parallel path share one implementation of the core-side logic.

use std::collections::BTreeSet;

use ccsvm_engine::Time;
use ccsvm_noc::{Network, NodeId};

use crate::addr::{block_of, PhysAddr};
use crate::l1::{L1Access, L1Out, L1};
use crate::msg::{BankId, L1ToDir, MemEvent, MemEventKind, Request};
use crate::system::{Access, AccessResult, BankConfig, Completion};

/// One buffered uncore effect: a NoC send from `src` to `dst` of `bytes`
/// payload, injected at `at`, whose arrival schedules `ev`.
#[derive(Debug)]
struct LogEntry {
    at: Time,
    src: NodeId,
    dst: NodeId,
    bytes: usize,
    ev: MemEvent,
}

/// Ordered buffer of the uncore effects produced through one [`CorePort`].
///
/// Entries replay in push order, which matches the order the same core step
/// would have performed the sends directly — so a replay is indistinguishable
/// (in NoC state, event times and event FIFO order) from serial execution.
#[derive(Debug, Default)]
pub struct PortLog {
    entries: Vec<LogEntry>,
    /// Reusable L1 output buffer for [`CorePort::access`]. One per port and
    /// alive across batches, so the hot access path allocates nothing.
    scratch: L1Out,
}

impl PortLog {
    /// An empty log.
    pub fn new() -> PortLog {
        PortLog::default()
    }

    /// Whether nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drains the buffered sends in order: each is injected into `net` and its
    /// arrival event handed to `sched`. The log is left empty (capacity kept).
    pub fn replay(&mut self, net: &mut Network, sched: &mut dyn FnMut(Time, MemEvent)) {
        for e in self.entries.drain(..) {
            let t = net.send(e.at, e.src, e.dst, e.bytes);
            sched(t, e.ev);
        }
    }
}

/// A single core's private view of the memory system: mutable access to its
/// own L1, shared access to routing configuration, and a [`PortLog`] that
/// buffers uncore effects. Distinct ports borrow disjoint L1s, so the ports
/// of [`MemorySystem::core_ports`](crate::MemorySystem::core_ports) can be
/// moved to worker threads.
#[derive(Debug)]
pub struct CorePort<'a> {
    l1: &'a mut L1,
    poisoned: &'a BTreeSet<u64>,
    banks: &'a [BankConfig],
    ctrl_bytes: usize,
    data_bytes: usize,
    log: &'a mut PortLog,
}

impl<'a> CorePort<'a> {
    pub(crate) fn new(
        l1: &'a mut L1,
        poisoned: &'a BTreeSet<u64>,
        banks: &'a [BankConfig],
        ctrl_bytes: usize,
        data_bytes: usize,
        log: &'a mut PortLog,
    ) -> CorePort<'a> {
        CorePort {
            l1,
            poisoned,
            banks,
            ctrl_bytes,
            data_bytes,
            log,
        }
    }

    fn home(&self, block: u64) -> usize {
        (block % self.banks.len() as u64) as usize
    }

    fn req_bytes(&self, req: &Request) -> usize {
        if req.data.is_some() {
            self.data_bytes
        } else {
            self.ctrl_bytes
        }
    }

    fn resp_bytes(&self, resp: &L1ToDir) -> usize {
        match resp {
            L1ToDir::InvResp { data: Some(_), .. }
            | L1ToDir::FetchResp { .. }
            | L1ToDir::SnoopResp { data: Some(_), .. } => self.data_bytes,
            _ => self.ctrl_bytes,
        }
    }

    /// Buffers the NoC traffic produced by one L1 step and reports finished
    /// misses into `completions`. This is the one implementation of L1-side
    /// output routing; both [`CorePort::access`] and the system's directory
    /// message delivery go through it.
    pub(crate) fn flush(&mut self, now: Time, out: &mut L1Out, completions: &mut Vec<Completion>) {
        let node = self.l1.config.node;
        for req in out.requests.drain(..) {
            let b = self.home(req.block);
            let bytes = self.req_bytes(&req);
            self.log.entries.push(LogEntry {
                at: now,
                src: node,
                dst: self.banks[b].node,
                bytes,
                ev: MemEvent(MemEventKind::ReqArrive(req)),
            });
        }
        for resp in out.responses.drain(..) {
            let rb = match &resp {
                L1ToDir::InvResp { block, .. }
                | L1ToDir::FetchResp { block, .. }
                | L1ToDir::SnoopResp { block, .. } => *block,
            };
            let b = self.home(rb);
            let bytes = self.resp_bytes(&resp);
            self.log.entries.push(LogEntry {
                at: now,
                src: node,
                dst: self.banks[b].node,
                bytes,
                ev: MemEvent(MemEventKind::RespArrive(BankId(b), resp)),
            });
        }
        for (token, value, block) in out.completions.drain(..) {
            let poisoned = !self.poisoned.is_empty() && self.poisoned.contains(&block);
            completions.push(Completion {
                port: self.l1.id,
                token,
                value,
                poisoned,
            });
        }
    }

    /// Issues `access` on this port, buffering any miss traffic in the log.
    /// Mirrors [`MemorySystem::access`](crate::MemorySystem::access) exactly.
    pub fn access(&mut self, now: Time, token: u64, access: Access) -> AccessResult {
        // The L1 writes into the log's scratch buffer in place. A hit emits
        // nothing, so only a step that produced traffic pays for `flush`,
        // which drains the buffer and leaves it empty for the next access.
        let scratch = &mut self.log.scratch;
        debug_assert!(scratch.requests.is_empty() && scratch.responses.is_empty());
        let result = self.l1.access(access, token, scratch);
        debug_assert!(
            scratch.completions.is_empty(),
            "access cannot complete others"
        );
        // The miss leaves the L1 after the tag lookup (one hit time).
        let hit_time = self.l1.config.hit_time;
        if !scratch.requests.is_empty() || !scratch.responses.is_empty() {
            let mut out = std::mem::take(&mut self.log.scratch);
            let mut no_completions = Vec::new();
            self.flush(now + hit_time, &mut out, &mut no_completions);
            debug_assert!(no_completions.is_empty());
            self.log.scratch = out;
        }
        match result {
            L1Access::Hit { value } => {
                if !self.poisoned.is_empty() && self.poisoned.contains(&block_of(access.addr())) {
                    return AccessResult::Poisoned;
                }
                AccessResult::Hit {
                    finish: now + hit_time,
                    value,
                }
            }
            L1Access::Pending => AccessResult::Pending,
            L1Access::Retry => AccessResult::Retry,
        }
    }

    /// Replays the counter effects of re-attempting an access that returned
    /// [`AccessResult::Retry`] earlier in the same core batch, without
    /// re-running the controller (see [`L1::count_doomed_retry`]).
    pub fn count_doomed_retry(&mut self, access: Access) {
        self.l1.count_doomed_retry(access);
    }

    /// Untimed read of a word through this port's L1, if the block is resident
    /// and readable here (SIMT lane coalescing).
    pub fn peek(&self, paddr: PhysAddr, size: usize) -> Option<u64> {
        self.l1.peek_word(paddr, size)
    }

    /// Untimed write of a word through this port's L1 if it holds the block in
    /// M or E; returns `false` otherwise.
    pub fn poke(&mut self, paddr: PhysAddr, size: usize, value: u64) -> bool {
        self.l1.poke_word(paddr, size, value)
    }

    /// L1 hit latency of this port.
    pub fn hit_time(&self) -> Time {
        self.l1.config.hit_time
    }
}
