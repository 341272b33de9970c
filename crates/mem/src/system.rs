//! The composed coherent memory system: L1s + directory banks + DRAM,
//! exchanging messages over a caller-supplied NoC.

use std::collections::BTreeSet;

use ccsvm_engine::{FaultDomain, FaultPlan, Stats, Time};
use ccsvm_noc::Network;

use crate::addr::{block_of, PhysAddr};
use crate::bank::{Bank, BankOut, TimeoutAction};
use crate::cache::CacheConfig;
use crate::dram::{Dram, DramConfig};
use crate::l1::{L1Config, L1Out, L1State, L1};
use crate::msg::{AtomicOp, BankId, DirToL1, MemEvent, MemEventKind};
use crate::port::{CorePort, PortLog};
use crate::protocol::ProtocolKind;

/// Identifies an L1 cache port (one per core).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub usize);

/// A memory access issued by a core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Load of `size` bytes (1/2/4/8), zero-extended into a `u64`.
    Read {
        /// Physical address (must not straddle a 64 B block).
        paddr: PhysAddr,
        /// Access width in bytes.
        size: usize,
    },
    /// Store of the low `size` bytes of `value`.
    Write {
        /// Physical address.
        paddr: PhysAddr,
        /// Access width in bytes.
        size: usize,
        /// Store data.
        value: u64,
    },
    /// Atomic read-modify-write performed at the L1 with M permission
    /// (paper §3.2.4). Returns the *old* value.
    Rmw {
        /// Physical address.
        paddr: PhysAddr,
        /// Access width in bytes.
        size: usize,
        /// The operation.
        op: AtomicOp,
    },
}

impl Access {
    /// The physical address accessed.
    pub fn addr(&self) -> PhysAddr {
        match *self {
            Access::Read { paddr, .. }
            | Access::Write { paddr, .. }
            | Access::Rmw { paddr, .. } => paddr,
        }
    }

    /// The access width in bytes.
    pub fn size(&self) -> usize {
        match *self {
            Access::Read { size, .. } | Access::Write { size, .. } | Access::Rmw { size, .. } => {
                size
            }
        }
    }
}

/// Outcome of [`MemorySystem::access`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessResult {
    /// L1 hit: the access completes at `finish` with `value` (loads and
    /// atomics; stores echo the stored value).
    Hit {
        /// Completion time (issue time + L1 hit latency).
        finish: Time,
        /// Load/atomic result.
        value: u64,
    },
    /// L1 miss: a [`Completion`] with the same token will be produced later.
    Pending,
    /// All MSHRs are busy; retry after a short delay.
    Retry,
    /// The accessed block was poisoned by an uncorrectable (double-bit) DRAM
    /// ECC error; the access cannot produce trustworthy data and the machine
    /// should abort the run gracefully.
    Poisoned,
}

/// A finished miss, reported from [`MemorySystem::handle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The port that issued the access.
    pub port: PortId,
    /// Caller-chosen identifier passed to [`MemorySystem::access`].
    pub token: u64,
    /// Load/atomic result (stores echo the stored value).
    pub value: u64,
    /// The filled block carries an uncorrectable ECC error; the value must
    /// not be architecturally consumed.
    pub poisoned: bool,
}

/// Configuration of one directory/L2 bank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BankConfig {
    /// NoC node the bank sits at.
    pub node: ccsvm_noc::NodeId,
    /// Bank geometry (per-bank share of the shared L2).
    pub cache: CacheConfig,
    /// Fixed bank access latency (tag + data + directory).
    pub latency: Time,
}

/// Configuration of the whole memory system.
#[derive(Clone, Debug)]
pub struct MemConfig {
    /// One entry per core, in `PortId` order.
    pub l1s: Vec<L1Config>,
    /// The shared-L2 banks; block `b` homes at bank `b % banks.len()`.
    pub banks: Vec<BankConfig>,
    /// Off-chip memory.
    pub dram: DramConfig,
    /// Size of a control message on the NoC (requests, acks).
    pub ctrl_bytes: usize,
    /// Size of a data-bearing message (64 B payload + header).
    pub data_bytes: usize,
    /// Which coherence protocol the hierarchy runs (see the `protocol` module).
    pub protocol: ProtocolKind,
}

/// The coherent memory hierarchy. See the [crate docs](crate) for the
/// protocol description.
#[derive(Debug)]
pub struct MemorySystem {
    pub(crate) l1s: Vec<L1>,
    pub(crate) banks: Vec<Bank>,
    pub(crate) protocol: ProtocolKind,
    bank_cfg: Vec<BankConfig>,
    dram: Dram,
    ctrl_bytes: usize,
    data_bytes: usize,
    /// Blocks whose last DRAM fill carried an uncorrectable ECC error.
    pub(crate) poisoned: BTreeSet<u64>,
    /// Directory response timeout; `None` disables NACK/retry entirely.
    pub(crate) dir_timeout: Option<Time>,
    /// NACK resends allowed per transaction before the run aborts.
    dir_budget: u32,
    /// Set when a transaction spent its whole retry budget (sticky until
    /// [`MemorySystem::take_retry_exhausted`]).
    retry_exhausted: Option<(BankId, u64)>,
    /// Test-only `CorruptResendEpoch` trigger: armed by the machine just
    /// before dispatching the target `DirTimeout` and consumed synchronously
    /// by it, so it is transient by construction and never serialized.
    corrupt_next_resend: bool,
    /// Reusable log for the serial [`MemorySystem::access`] path, so the
    /// buffer-and-replay round trip allocates only once.
    scratch: PortLog,
    /// Reusable L1 output buffer for directory-message delivery, so the hot
    /// `DirArrive` path allocates nothing.
    scratch_out: L1Out,
    /// Reusable bank output buffer, emptied by every
    /// [`MemorySystem::apply_bank_out`], so bank steps allocate nothing.
    bank_out: BankOut,
}

impl MemorySystem {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if no L1s or banks are configured, or more than 32 L1s are
    /// requested (the directory's sharer mask width).
    pub fn new(config: MemConfig) -> MemorySystem {
        assert!(!config.l1s.is_empty(), "need at least one L1");
        assert!(config.l1s.len() <= 32, "directory supports at most 32 L1s");
        assert!(!config.banks.is_empty(), "need at least one bank");
        let n_ports = config.l1s.len();
        MemorySystem {
            l1s: config
                .l1s
                .iter()
                .enumerate()
                .map(|(i, c)| L1::new(PortId(i), *c, config.protocol))
                .collect(),
            banks: {
                let n = config.banks.len();
                assert!(n.is_power_of_two(), "bank count must be a power of two");
                (0..n)
                    .map(|i| {
                        Bank::new(
                            BankId(i),
                            config.banks[i].cache,
                            n.trailing_zeros(),
                            config.protocol,
                            n_ports,
                        )
                    })
                    .collect()
            },
            protocol: config.protocol,
            bank_cfg: config.banks,
            dram: Dram::new(config.dram),
            ctrl_bytes: config.ctrl_bytes,
            data_bytes: config.data_bytes,
            poisoned: BTreeSet::new(),
            dir_timeout: None,
            dir_budget: 0,
            retry_exhausted: None,
            corrupt_next_resend: false,
            scratch: PortLog::new(),
            scratch_out: L1Out::default(),
            bank_out: BankOut::default(),
        }
    }

    /// Installs seeded fault injection: DRAM ECC flips when either rate is
    /// non-zero, and directory NACK/retry when a timeout is configured. With
    /// the default (all-off) plan this is a no-op and the system behaves —
    /// and reports stats — exactly as without faults.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        let cfg = plan.config();
        if cfg.dram.single_bit_rate > 0.0 || cfg.dram.double_bit_rate > 0.0 {
            self.dram
                .install_faults(cfg.dram, plan.stream(FaultDomain::Dram));
        }
        if let Some(timeout) = cfg.dir.timeout {
            self.dir_timeout = Some(timeout);
            self.dir_budget = cfg.dir.retry_budget;
            // NACK resends can race in-flight originals, so duplicate
            // responses become expected rather than protocol errors.
            for b in &mut self.banks {
                b.set_lenient();
            }
            for l1 in &mut self.l1s {
                l1.set_lenient();
            }
        }
    }

    /// Number of L1 ports.
    pub fn ports(&self) -> usize {
        self.l1s.len()
    }

    /// The coherence protocol this hierarchy runs.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// L1 hit latency of `port`.
    pub fn hit_time(&self, port: PortId) -> Time {
        self.l1s[port.0].config.hit_time
    }

    pub(crate) fn home(&self, block: u64) -> usize {
        (block % self.banks.len() as u64) as usize
    }

    fn dir_msg_bytes(&self, msg: &DirToL1) -> usize {
        match msg {
            DirToL1::Data { .. } => self.data_bytes,
            _ => self.ctrl_bytes,
        }
    }

    /// A [`CorePort`] for `port`: mutable access to that L1 only, with uncore
    /// effects buffered into `log` for a later [`PortLog::replay`].
    pub fn core_port<'a>(&'a mut self, port: PortId, log: &'a mut PortLog) -> CorePort<'a> {
        CorePort::new(
            &mut self.l1s[port.0],
            &self.poisoned,
            &self.bank_cfg,
            self.ctrl_bytes,
            self.data_bytes,
            log,
        )
    }

    // --- L1 undo journal ---------------------------------------------------
    //
    // Nothing in the machine speculates. The journal is read only by the
    // ledger's `mem.spec_*` probes, and is removed with them. A caller must
    // not deliver a directory message to a journaling L1, so commit and
    // rollback are purely local to the port.

    /// Opens an undo journal on `port`'s L1. `budget` caps the set-granular
    /// pre-images before the journal falls back to a full L1 snapshot.
    pub fn spec_begin(&mut self, port: PortId, budget: usize) {
        self.l1s[port.0].spec_begin(budget);
    }

    /// Keeps everything `port`'s L1 did since `spec_begin`, discarding the
    /// journal.
    pub fn spec_commit(&mut self, port: PortId) {
        self.l1s[port.0].spec_commit();
    }

    /// Rolls `port`'s L1 back to its `spec_begin` state, byte-exactly.
    /// Returns `true` when the journal had overflowed and the snapshot
    /// restore slow path was taken.
    pub fn spec_rollback(&mut self, port: PortId) -> bool {
        self.l1s[port.0].spec_rollback()
    }

    /// Issues `access` on `port`. `token` identifies the access in a later
    /// [`Completion`] if it misses.
    ///
    /// New events are scheduled through `sched`; the caller must deliver them
    /// back to [`MemorySystem::handle`] at the given times.
    ///
    /// Implemented as a [`CorePort::access`] followed by an immediate
    /// [`PortLog::replay`], so it runs exactly the code a core batch runs.
    pub fn access(
        &mut self,
        now: Time,
        net: &mut Network,
        sched: &mut dyn FnMut(Time, MemEvent),
        port: PortId,
        token: u64,
        access: Access,
    ) -> AccessResult {
        let mut log = std::mem::take(&mut self.scratch);
        let result = self.core_port(port, &mut log).access(now, token, access);
        log.replay(net, sched);
        self.scratch = log;
        result
    }

    /// Processes an internal event, scheduling follow-ups via `sched` and
    /// reporting finished misses into `completions`.
    pub fn handle(
        &mut self,
        now: Time,
        net: &mut Network,
        sched: &mut dyn FnMut(Time, MemEvent),
        event: MemEvent,
        completions: &mut Vec<Completion>,
    ) {
        match event.0 {
            MemEventKind::ReqArrive(req) => {
                let b = self.home(req.block);
                let block = req.block;
                if self.banks[b].req_arrive(req) {
                    let ready = now + self.bank_cfg[b].latency;
                    sched(
                        ready,
                        MemEvent(MemEventKind::BankReady {
                            bank: BankId(b),
                            block,
                        }),
                    );
                }
            }
            MemEventKind::BankReady { bank, block } => {
                self.bank_step(now, bank.0, net, sched, |b, out| b.ready(block, out));
            }
            MemEventKind::DramReadDone { bank, block } => {
                let mut data = [0u8; crate::BLOCK_BYTES as usize];
                self.dram
                    .read_bytes(crate::addr::base_of_block(block), &mut data);
                self.bank_step(now, bank.0, net, sched, |b, out| {
                    b.dram_done(block, data, out)
                });
            }
            MemEventKind::RespArrive(bank, resp) => {
                self.bank_step(now, bank.0, net, sched, |b, out| b.resp_arrive(resp, out));
            }
            MemEventKind::DirArrive(port, msg) => {
                let mut out = std::mem::take(&mut self.scratch_out);
                out.clear();
                self.l1s[port.0].on_dir_msg(msg, &mut out);
                self.flush_l1_out(now, port, &mut out, net, sched, completions);
                self.scratch_out = out;
            }
            MemEventKind::DirTimeout { bank, block, epoch } => {
                let budget = self.dir_budget;
                let corrupt = std::mem::take(&mut self.corrupt_next_resend);
                let action = self.bank_step(now, bank.0, net, sched, |b, out| {
                    b.timeout_fired(block, epoch, budget, corrupt, out)
                });
                if let TimeoutAction::Exhausted = action {
                    self.retry_exhausted = Some((bank, block));
                }
            }
        }
    }

    fn flush_l1_out(
        &mut self,
        now: Time,
        port: PortId,
        out: &mut L1Out,
        net: &mut Network,
        sched: &mut dyn FnMut(Time, MemEvent),
        completions: &mut Vec<Completion>,
    ) {
        let mut log = std::mem::take(&mut self.scratch);
        self.core_port(port, &mut log).flush(now, out, completions);
        log.replay(net, sched);
        self.scratch = log;
    }

    /// Runs one step of bank `bank` into the reusable output buffer and
    /// applies its side effects.
    fn bank_step<R>(
        &mut self,
        now: Time,
        bank: usize,
        net: &mut Network,
        sched: &mut dyn FnMut(Time, MemEvent),
        step: impl FnOnce(&mut Bank, &mut BankOut) -> R,
    ) -> R {
        let mut out = std::mem::take(&mut self.bank_out);
        debug_assert!(out.is_empty(), "bank step starts with a leftover output");
        let r = step(&mut self.banks[bank], &mut out);
        self.apply_bank_out(now, bank, &mut out, net, sched);
        self.bank_out = out;
        r
    }

    /// Applies a bank step's side effects, leaving every field of `out`
    /// empty.
    fn apply_bank_out(
        &mut self,
        now: Time,
        bank: usize,
        out: &mut BankOut,
        net: &mut Network,
        sched: &mut dyn FnMut(Time, MemEvent),
    ) {
        let bank_node = self.bank_cfg[bank].node;
        for (port, msg) in out.sends.drain(..) {
            let bytes = self.dir_msg_bytes(&msg);
            let t = net.send(now, bank_node, self.l1s[port.0].config.node, bytes);
            sched(t, MemEvent(MemEventKind::DirArrive(port, msg)));
        }
        if let Some(block) = out.dram_read.take() {
            let (done, _, poisoned) = self.dram.timed_read_block(now, bank, block);
            if poisoned {
                self.poisoned.insert(block);
            }
            sched(
                done,
                MemEvent(MemEventKind::DramReadDone {
                    bank: BankId(bank),
                    block,
                }),
            );
        }
        for (block, data) in out.dram_writes.drain(..) {
            // Posted writeback: nothing waits on it.
            self.dram.timed_write_block(now, bank, block, &data);
        }
        for block in out.finished.drain(..) {
            if let Some(req) = self.banks[bank].pop_waiting(block) {
                let accepted = self.banks[bank].req_arrive(req);
                debug_assert!(accepted, "drained request immediately re-queued");
                let ready = now + self.bank_cfg[bank].latency;
                sched(
                    ready,
                    MemEvent(MemEventKind::BankReady {
                        bank: BankId(bank),
                        block,
                    }),
                );
            }
        }
        if let Some(block) = out.retry.take() {
            let ready = now + self.bank_cfg[bank].latency;
            sched(
                ready,
                MemEvent(MemEventKind::BankReady {
                    bank: BankId(bank),
                    block,
                }),
            );
        }
        if let Some(timeout) = self.dir_timeout {
            for &(block, epoch) in &out.arm {
                sched(
                    now + timeout,
                    MemEvent(MemEventKind::DirTimeout {
                        bank: BankId(bank),
                        block,
                        epoch,
                    }),
                );
            }
        }
        out.arm.clear();
    }

    /// Untimed read of a word through `port`'s L1, if the block is resident
    /// and readable there (used to coalesce SIMT lane accesses that hit the
    /// same block as a completed access).
    pub fn peek(&self, port: PortId, paddr: PhysAddr, size: usize) -> Option<u64> {
        self.l1s[port.0].peek_word(paddr, size)
    }

    /// Untimed write of a word through `port`'s L1 if it holds the block in
    /// M or E; returns `false` otherwise.
    pub fn poke(&mut self, port: PortId, paddr: PhysAddr, size: usize, value: u64) -> bool {
        self.l1s[port.0].poke_word(paddr, size, value)
    }

    /// Functional, coherence-respecting read of arbitrary bytes: per block it
    /// prefers an owning L1's copy, then the L2, then DRAM. Intended for
    /// loading results after the machine quiesces and for tests.
    pub fn backdoor_read(&self, addr: PhysAddr, buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            let a = PhysAddr(addr.0 + i as u64);
            let block = block_of(a);
            let off = crate::addr::offset_in_block(a);
            let mut byte = None;
            for l1 in &self.l1s {
                let (state, data) = l1.probe(block);
                if matches!(state, L1State::M | L1State::O | L1State::E) {
                    byte = Some(data.expect("owned line has data")[off]);
                    break;
                }
            }
            if byte.is_none() {
                let home = self.home(block);
                byte = self.banks[home].probe(block).map(|d| d[off]);
            }
            *b = byte.unwrap_or_else(|| {
                let mut one = [0u8; 1];
                self.dram.read_bytes(a, &mut one);
                one[0]
            });
        }
    }

    /// Functional write used by loaders **before** simulation starts; bypasses
    /// timing and coherence.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any cache currently holds an affected
    /// block — use regular stores during simulation instead.
    pub fn backdoor_write(&mut self, addr: PhysAddr, bytes: &[u8]) {
        #[cfg(debug_assertions)]
        if let Some(last) = (bytes.len() as u64).checked_sub(1) {
            for block in block_of(addr)..=block_of(PhysAddr(addr.0 + last)) {
                for l1 in &self.l1s {
                    debug_assert!(
                        matches!(l1.probe(block).0, L1State::I),
                        "backdoor_write to cached block {block}"
                    );
                }
                debug_assert!(
                    self.banks[self.home(block)].probe(block).is_none(),
                    "backdoor_write to L2-cached block {block}"
                );
            }
        }
        self.dram.write_bytes(addr, bytes);
    }

    /// Functional write that stays coherent mid-run: patches **every**
    /// resident copy (all L1s, the home L2 bank) and DRAM, so any core's
    /// next read observes the value regardless of where it hits. Intended
    /// for OS shortcuts in test rigs; the real machine issues PTE stores as
    /// coherent writes instead.
    pub fn backdoor_write_coherent(&mut self, addr: PhysAddr, bytes: &[u8]) {
        let mut i = 0usize;
        while i < bytes.len() {
            let a = PhysAddr(addr.0 + i as u64);
            let block = block_of(a);
            let off = crate::addr::offset_in_block(a);
            let n = (crate::BLOCK_BYTES as usize - off).min(bytes.len() - i);
            let chunk = &bytes[i..i + n];
            for l1 in &mut self.l1s {
                l1.backdoor_patch(block, off, chunk);
            }
            let home = (block % self.banks.len() as u64) as usize;
            self.banks[home].backdoor_patch(block, off, chunk);
            self.dram.write_bytes(a, chunk);
            i += n;
        }
    }

    /// Whether every controller is idle (no MSHRs, evictions, transactions or
    /// queued requests).
    pub fn quiescent(&self) -> bool {
        self.l1s.iter().all(L1::quiescent) && self.banks.iter().all(Bank::quiescent)
    }

    /// Outstanding miss blocks per port (ports with none are omitted) — the
    /// watchdog's "who is stuck" diagnostic.
    pub fn outstanding(&self) -> Vec<(PortId, Vec<u64>)> {
        self.l1s
            .iter()
            .enumerate()
            .filter_map(|(i, l1)| {
                let blocks = l1.outstanding_blocks();
                (!blocks.is_empty()).then_some((PortId(i), blocks))
            })
            .collect()
    }

    /// Blocks with an active directory transaction, per bank (banks with none
    /// are omitted).
    pub fn dir_active(&self) -> Vec<(BankId, Vec<u64>)> {
        self.banks
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let blocks = b.active_blocks();
                (!blocks.is_empty()).then_some((BankId(i), blocks))
            })
            .collect()
    }

    /// Phase of the active directory transaction on `block` at its home bank.
    pub fn dir_tx_phase(&self, block: u64) -> Option<String> {
        self.banks[self.home(block)].tx_phase(block)
    }

    /// Blocks poisoned by uncorrectable ECC errors, sorted.
    pub fn poisoned_blocks(&self) -> Vec<u64> {
        self.poisoned.iter().copied().collect()
    }

    /// Takes (and clears) the record of a transaction that exhausted its NACK
    /// retry budget, if one did.
    pub fn take_retry_exhausted(&mut self) -> Option<(BankId, u64)> {
        self.retry_exhausted.take()
    }

    /// Arms the test-only `CorruptResendEpoch` mutation: the next
    /// `DirTimeout` handled corrupts its round instead of resending.
    pub fn arm_corrupt_resend(&mut self) {
        self.corrupt_next_resend = true;
    }

    /// Whether a `DirTimeout` carrying (`bank`, `block`, `epoch`) would hit a
    /// live snoop-collection round (mutation targeting; see `Bank`).
    pub fn snoop_round_current(&self, bank: BankId, block: u64, epoch: u64) -> bool {
        self.banks[bank.0].snoop_round_current(block, epoch)
    }

    /// Whether the `CorruptResendEpoch` mutation is *applicable* to a
    /// `DirTimeout` carrying (`bank`, `block`, `epoch`): the round is live
    /// and the probe it would abandon targets an L1 that actually holds the
    /// block — so completing the round without that answer is guaranteed to
    /// violate coherence (a surviving copy beside an exclusive grant, or an
    /// unpatched sharer), not silently benign.
    pub fn corrupt_resend_applicable(&self, bank: BankId, block: u64, epoch: u64) -> bool {
        if !self.banks[bank.0].snoop_round_current(block, epoch) {
            return false;
        }
        self.banks[bank.0]
            .snoop_pending_lowest(block)
            .is_some_and(|p| self.l1s[p.0].probe(block).0 != crate::l1::L1State::I)
    }

    /// Whether `block`'s home bank is mid write-update round — i.e. a lost
    /// `SnoopResp` for it would be re-solicited rather than lose dirty data
    /// (the `UpdAck` fault domain's safety carrier).
    pub fn upd_round_active(&self, bank: BankId, block: u64) -> bool {
        self.banks[bank.0].upd_round_active(block)
    }

    /// Directory-reported owner of a block (tests / invariant checks).
    pub fn dir_owner(&self, block: u64) -> Option<PortId> {
        self.banks[self.home(block)].owner_of(block)
    }

    /// Directory-reported sharer mask of a block (tests / invariant checks).
    pub fn dir_sharers(&self, block: u64) -> u32 {
        self.banks[self.home(block)].sharers_of(block)
    }

    /// Total DRAM accesses so far — the paper's Figure 9 metric.
    pub fn dram_accesses(&self) -> u64 {
        self.dram.accesses()
    }

    /// Resets the DRAM counters (e.g. after input loading).
    pub fn reset_dram_counters(&mut self) {
        self.dram.reset_counters();
    }

    /// Aggregated statistics of every component.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        for (i, l1) in self.l1s.iter().enumerate() {
            s.merge_prefixed(&format!("l1.{i}"), &l1.stats());
        }
        for (i, b) in self.banks.iter().enumerate() {
            s.merge_prefixed(&format!("l2.{i}"), &b.stats());
        }
        s.merge_prefixed("dram", &self.dram.stats());
        s
    }
}

// ---------------------------------------------------------------------------
// Snapshot codecs.

use ccsvm_snap::{codec, Codec, SnapError, SnapReader, SnapWriter, Snapshot};

codec!(struct PortId(usize));
codec!(enum Access {
    0 => Read { paddr, size },
    1 => Write { paddr, size, value },
    2 => Rmw { paddr, size, op },
});

impl Snapshot for MemorySystem {
    fn save(&self, w: &mut SnapWriter) {
        // The serial-path scratch log is drained after every access, so it is
        // deliberately not serialized; checkpoints happen between dispatched
        // events where it is empty.
        self.l1s.len().put(w);
        self.l1s.iter().for_each(|l1| l1.save(w));
        self.banks.len().put(w);
        self.banks.iter().for_each(|b| b.save(w));
        self.dram.save(w);
        self.poisoned.put(w);
        self.retry_exhausted.put(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.get_len(self.l1s.len(), "L1s")?;
        self.l1s.iter_mut().try_for_each(|l1| l1.load(r))?;
        r.get_len(self.banks.len(), "banks")?;
        self.banks.iter_mut().try_for_each(|b| b.load(r))?;
        self.dram.load(r)?;
        self.poisoned.get_into(r)?;
        self.retry_exhausted = Codec::get(r)?;
        Ok(())
    }
}
