//! A banked shared-L2 slice with the coherence directory embedded in its
//! blocks (paper §3.1/§3.2.2: "the shared L2 cache is banked and co-located
//! with a banked directory that holds state used for cache coherence").
//!
//! The directory is *blocking*: one transaction per block is active at a
//! time; conflicting requests queue in arrival order. All indirections go
//! through the directory (owners send fetched data here, sharers ack
//! invalidations here), which gives a total order of coherence transactions
//! per block — the SWMR invariant the paper relies on (§3.2.2).
//!
//! The L2 is **inclusive**: every block cached in any L1 is present here, so
//! an L2 miss means no L1 holds the block (as in Nehalem, which the paper
//! cites). Installing a block may therefore require a *recall*: invalidating
//! and fetching back the victim's L1 copies before it can be written back.

use std::collections::VecDeque;

use ccsvm_engine::{fx_map_with_capacity, FxHashMap, Stats};

use crate::cache::{CacheArray, CacheConfig};
use crate::msg::{BankId, BlockData, DirToL1, Grant, L1ToDir, ReqKind, Request, SnoopKind};
use crate::protocol::ProtocolKind;
use crate::recover::{bit, Ask, RetryRound, Round};
use crate::system::PortId;

/// Directory state for one L2 block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum DirState {
    /// No L1 holds the block; the L2 data is the freshest on-chip copy.
    #[default]
    Unowned,
    /// One or more L1s hold the block in S; L2 data is valid.
    Shared(u32),
    /// `owner` holds the block in M/E/O (L2 data may be stale); `sharers`
    /// may hold S copies (valid only when the owner is in O).
    Owned { owner: PortId, sharers: u32 },
}

#[derive(Clone, Copy, Debug, Default)]
struct L2Meta {
    dir: DirState,
    dirty: bool,
    /// In the `Owned` state: the L2 copy is still current (the owner holds O
    /// and cannot have written since the last fetch/writeback). Lets GetS be
    /// served from the L2 without re-fetching the owner — the reason MOESI
    /// has an O state at all.
    fresh: bool,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    /// Queued for the bank's fixed access latency.
    Start,
    /// Waiting for a free, non-busy victim way.
    NeedFill,
    /// Recalling a victim's L1 copies.
    AwaitRecall,
    /// Waiting for DRAM read data.
    AwaitDram,
    /// Waiting for invalidation acks and/or an owner fetch.
    AwaitInvFetch,
    /// Snooping protocols: waiting for every other L1's `SnoopResp` to a
    /// broadcast probe (the bank is the per-block bus ordering point).
    AwaitSnoop,
}

/// The victim copy a recall collects: the L2's, replaced by any dirty copy
/// an L1 answers with.
#[derive(Clone, Debug)]
struct Recall {
    victim: u64,
    dirty: bool,
    data: BlockData,
}

#[derive(Clone, Debug)]
struct Tx {
    req: Request,
    phase: Phase,
    /// Requestor already holds a valid copy (upgrade ⇒ AckM instead of Data).
    upgrade: bool,
    /// Data fetched from DRAM, kept across an install-time recall.
    fill_data: Option<BlockData>,
    recall: Option<Recall>,
    /// The open solicitation round (inv/fetch, recall or snoop probes);
    /// between rounds it owes nothing.
    round: Round,
    /// Protocol-generic solicitation-round recovery state: the epoch stamped
    /// into armed timeouts and the bounded resend budget spent so far, one
    /// per transaction across all its rounds.
    retry: RetryRound,
    /// Whether any snooped L1 reported a live copy.
    snoop_had: bool,
    /// Whether the recorded supplier copy was dirty (authoritative).
    snoop_dirty: bool,
    /// Best cache-to-cache supply so far (dirty supplier beats clean).
    snoop_data: Option<BlockData>,
}

/// Side effects of a bank step, applied by the `MemorySystem`.
#[derive(Debug, Default)]
pub(crate) struct BankOut {
    /// Messages to deliver to L1s.
    pub sends: Vec<(PortId, DirToL1)>,
    /// Block to fetch from DRAM (schedule `DramReadDone`).
    pub dram_read: Option<u64>,
    /// Posted (fire-and-forget) writebacks to DRAM.
    pub dram_writes: Vec<(u64, BlockData)>,
    /// Blocks whose transaction finished; their wait queues should drain.
    pub finished: Vec<u64>,
    /// The transaction for this block couldn't find an evictable way; retry
    /// `ready` after another bank latency.
    pub retry: Option<u64>,
    /// `(demand block, epoch)` pairs whose transaction entered (or re-entered)
    /// a response-waiting phase; the system arms a `DirTimeout` for each when
    /// directory timeouts are enabled, and discards them otherwise.
    pub arm: Vec<(u64, u64)>,
}

impl BankOut {
    /// Whether the output holds no side effect.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
            && self.dram_read.is_none()
            && self.dram_writes.is_empty()
            && self.finished.is_empty()
            && self.retry.is_none()
            && self.arm.is_empty()
    }
}

/// What a fired directory timeout did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TimeoutAction {
    /// The transaction moved on (or the epoch advanced): nothing to do.
    Stale,
    /// Missing responses were re-solicited and a fresh timeout armed.
    Resent,
    /// The retry budget is spent; the run should abort.
    Exhausted,
}

#[derive(Debug)]
pub(crate) struct Bank {
    #[allow(dead_code)] // identity is useful in Debug dumps
    pub id: BankId,
    /// Which coherence protocol this bank orders (config-derived, not
    /// serialized). Directory mode runs the embedded blocking directory;
    /// snooping modes make the bank the per-block bus ordering point and
    /// demote the L2 to a plain non-inclusive cache.
    protocol: ProtocolKind,
    /// Bit mask of every L1 port (snooping broadcast domain).
    all_ports: u32,
    array: CacheArray<L2Meta>,
    tx: FxHashMap<u64, Tx>,
    /// victim block → demand block whose transaction is recalling it.
    recall_owner: FxHashMap<u64, u64>,
    waiting: FxHashMap<u64, VecDeque<Request>>,
    /// Tolerate duplicate/stale responses (set when directory timeouts are
    /// enabled: a NACK resend can race the original response). Off by
    /// default so protocol bugs still trip the strict assertions.
    lenient: bool,
    /// Transactions opened so far. Numbers each one's epochs, so a timeout
    /// armed by a finished transaction is stale for every later one on the
    /// same block.
    opened: u64,
    // counters
    gets: u64,
    getm: u64,
    puts: u64,
    hits: u64,
    misses: u64,
    recalls: u64,
    timeouts: u64,
    nack_resends: u64,
    stale_resps: u64,
}

impl Bank {
    pub fn new(
        id: BankId,
        cache: CacheConfig,
        index_shift: u32,
        protocol: ProtocolKind,
        n_ports: usize,
    ) -> Bank {
        debug_assert!(n_ports <= 32, "port mask supports 32 L1s");
        Bank {
            id,
            protocol,
            all_ports: if n_ports >= 32 {
                u32::MAX
            } else {
                (1u32 << n_ports) - 1
            },
            array: CacheArray::with_index_shift(cache, index_shift),
            // One transaction per block can be active at a time, and every
            // active transaction came through some L1 MSHR, so a few dozen
            // slots cover the whole chip without rehashing.
            tx: fx_map_with_capacity(64),
            recall_owner: fx_map_with_capacity(64),
            waiting: fx_map_with_capacity(64),
            lenient: false,
            opened: 0,
            gets: 0,
            getm: 0,
            puts: 0,
            hits: 0,
            misses: 0,
            recalls: 0,
            timeouts: 0,
            nack_resends: 0,
            stale_resps: 0,
        }
    }

    /// Switches the bank to lenient response handling (directory timeouts
    /// enabled: resends may race originals, so duplicates must be ignored
    /// rather than asserted against).
    pub fn set_lenient(&mut self) {
        self.lenient = true;
    }

    fn busy(&self, block: u64) -> bool {
        self.tx.contains_key(&block) || self.recall_owner.contains_key(&block)
    }

    /// Accepts a request: returns `true` if the caller should schedule a
    /// `BankReady` after the bank latency, `false` if it was queued behind an
    /// active transaction on the same block.
    pub fn req_arrive(&mut self, req: Request) -> bool {
        let block = req.block;
        if self.busy(block) {
            self.waiting.entry(block).or_default().push_back(req);
            return false;
        }
        self.opened += 1;
        self.tx.insert(
            block,
            Tx {
                req,
                phase: Phase::Start,
                upgrade: false,
                fill_data: None,
                recall: None,
                round: Round::IDLE,
                retry: RetryRound::new(self.opened),
                snoop_had: false,
                snoop_dirty: false,
                snoop_data: None,
            },
        );
        true
    }

    /// The bank latency elapsed; start (or retry) processing `block`.
    pub fn ready(&mut self, block: u64, out: &mut BankOut) {
        let tx = self.tx.get(&block).expect("ready without transaction");
        match tx.phase {
            Phase::Start => self.dispatch(block, out),
            Phase::NeedFill => self.try_fill(block, out),
            ref p => unreachable!("ready in phase {p:?}"),
        }
    }

    fn dispatch(&mut self, block: u64, out: &mut BankOut) {
        let req = self.tx.get(&block).expect("tx").req.clone();
        match req.kind {
            ReqKind::GetS => {
                self.gets += 1;
                if self.array.lookup(block).is_some() {
                    self.hits += 1;
                    self.dispatch_gets_hit(block, req.from, out);
                } else {
                    self.misses += 1;
                    self.tx.get_mut(&block).expect("tx").phase = Phase::NeedFill;
                    self.try_fill(block, out);
                }
            }
            ReqKind::GetM => {
                self.getm += 1;
                if self.array.lookup(block).is_some() {
                    self.hits += 1;
                    self.dispatch_getm_hit(block, req.from, out);
                } else {
                    self.misses += 1;
                    self.tx.get_mut(&block).expect("tx").phase = Phase::NeedFill;
                    self.try_fill(block, out);
                }
            }
            ReqKind::PutDirty => {
                self.puts += 1;
                if self.protocol.uses_directory() {
                    self.handle_put_dirty(block, &req, out);
                } else {
                    self.snoop_put_dirty(block, &req, out);
                }
                self.finish(block, out);
            }
            ReqKind::PutClean => {
                self.puts += 1;
                self.handle_put_clean(block, req.from, out);
                self.finish(block, out);
            }
            ReqKind::BusRd | ReqKind::BusRdX | ReqKind::BusUpd(_) => {
                self.dispatch_bus(block, &req, out);
            }
        }
    }

    /// Snooping-mode dispatch: broadcast the probe to every other L1 and
    /// wait for their responses; the bank's arrival order *is* the bus order
    /// for this block. The response-collection round arms the same
    /// solicitation-round timeout the directory path uses ([`RetryRound`]):
    /// probes are idempotent (an L1 answers from its current state), so a
    /// timed-out round can simply re-probe the still-pending ports.
    fn dispatch_bus(&mut self, block: u64, req: &Request, out: &mut BankOut) {
        let kind = match req.kind {
            ReqKind::BusRd => {
                self.gets += 1;
                SnoopKind::Rd
            }
            ReqKind::BusRdX => {
                self.getm += 1;
                SnoopKind::RdX
            }
            ReqKind::BusUpd(word) => {
                self.getm += 1;
                SnoopKind::Upd(word)
            }
            _ => unreachable!("dispatch_bus on a directory request"),
        };
        // Update rounds never consult the L2; reads/read-exclusives count a
        // hit when the L2 can source the data without DRAM.
        if !matches!(kind, SnoopKind::Upd(_)) {
            if self.array.lookup(block).is_some() {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
        }
        let others = self.all_ports & !bit(req.from);
        let round = Round::new(block, None, Ask::Snoop(kind), others);
        if !self.open(block, round, Phase::AwaitSnoop, out) {
            self.complete_bus(block, out);
        }
    }

    /// Opens `round` for the transaction on `block`, which waits in `phase`
    /// while any answer is owed. Returns whether one is.
    fn open(&mut self, block: u64, round: Round, phase: Phase, out: &mut BankOut) -> bool {
        let tx = self.tx.get_mut(&block).expect("tx");
        tx.round = round;
        let owed = round.open(block, &tx.retry, out);
        if owed {
            tx.phase = phase;
        }
        owed
    }

    /// Every snoop response is in: source the data, grant, and finish.
    fn complete_bus(&mut self, block: u64, out: &mut BankOut) {
        let tx = self.tx.get(&block).expect("tx");
        let (from, kind) = (tx.req.from, tx.req.kind);
        let (had, dirty, supplied) = (tx.snoop_had, tx.snoop_dirty, tx.snoop_data);
        match kind {
            ReqKind::BusUpd(_) => {
                // The round is ordered; sharers have patched their copies.
                // The writer takes ownership (Sm when live copies remain,
                // M otherwise). Neither the L2 nor DRAM is updated — Dragon
                // defers memory until the owner's writeback.
                out.sends.push((
                    from,
                    DirToL1::UpdDone {
                        block,
                        sharers: had,
                    },
                ));
                self.finish(block, out);
            }
            ReqKind::BusRd => {
                if let Some(data) = supplied {
                    if dirty && self.protocol == ProtocolKind::MesiSnoop {
                        // MESI has no owned state: after the M→S demotion
                        // every copy is clean, so memory must absorb the
                        // dirty data now (Illinois-style supply+writeback).
                        if self.array.peek(block).is_some() {
                            self.array.set_data(block, data);
                            self.array.peek_mut(block).expect("hit").dirty = true;
                        } else {
                            out.dram_writes.push((block, data));
                        }
                    }
                    out.sends.push((
                        from,
                        DirToL1::Data {
                            block,
                            grant: Grant::S,
                            data,
                        },
                    ));
                    self.finish(block, out);
                } else if self.array.peek(block).is_some() {
                    let data = self.array.data(block);
                    let grant = if had { Grant::S } else { Grant::E };
                    out.sends.push((from, DirToL1::Data { block, grant, data }));
                    self.finish(block, out);
                } else {
                    self.tx.get_mut(&block).expect("tx").phase = Phase::AwaitDram;
                    out.dram_read = Some(block);
                }
            }
            ReqKind::BusRdX => {
                // Every other copy was invalidated by the probe; grant M
                // with the best copy (dirty supplier > L2 > DRAM). A stale
                // L2 copy is fine: the M owner's eventual writeback
                // refreshes it, and value checks gate on dirty copies.
                if let Some(data) = supplied {
                    out.sends.push((
                        from,
                        DirToL1::Data {
                            block,
                            grant: Grant::M,
                            data,
                        },
                    ));
                    self.finish(block, out);
                } else if self.array.peek(block).is_some() {
                    let data = self.array.data(block);
                    out.sends.push((
                        from,
                        DirToL1::Data {
                            block,
                            grant: Grant::M,
                            data,
                        },
                    ));
                    self.finish(block, out);
                } else {
                    self.tx.get_mut(&block).expect("tx").phase = Phase::AwaitDram;
                    out.dram_read = Some(block);
                }
            }
            _ => unreachable!("complete_bus on a directory request"),
        }
    }

    /// Snooping-mode writeback: no directory registration to check — the
    /// freshest copy lands in the L2 when resident, else goes to DRAM.
    fn snoop_put_dirty(&mut self, block: u64, req: &Request, out: &mut BankOut) {
        let data = req.data.expect("PutDirty carries data");
        if self.array.peek(block).is_some() {
            self.array.set_data(block, data);
            self.array.peek_mut(block).expect("hit").dirty = true;
        } else {
            out.dram_writes.push((block, data));
        }
        out.sends.push((
            req.from,
            DirToL1::PutAck {
                block,
                retain: req.retain,
            },
        ));
    }

    fn dispatch_gets_hit(&mut self, block: u64, from: PortId, out: &mut BankOut) {
        let meta = *self.array.peek(block).expect("hit");
        match meta.dir {
            DirState::Unowned => {
                // Grant E: no other copies exist (the MOESI exclusive-clean
                // optimization present in the chips the paper cites).
                let data = self.array.data(block);
                {
                    let meta = self.array.peek_mut(block).expect("hit");
                    meta.dir = DirState::Owned {
                        owner: from,
                        sharers: 0,
                    };
                    meta.fresh = false; // E may silently upgrade to M
                }
                out.sends.push((
                    from,
                    DirToL1::Data {
                        block,
                        grant: Grant::E,
                        data,
                    },
                ));
                self.finish(block, out);
            }
            DirState::Shared(s) => {
                debug_assert_eq!(s & bit(from), 0, "sharer re-requesting GetS");
                let data = self.array.data(block);
                self.array.peek_mut(block).expect("hit").dir = DirState::Shared(s | bit(from));
                out.sends.push((
                    from,
                    DirToL1::Data {
                        block,
                        grant: Grant::S,
                        data,
                    },
                ));
                self.finish(block, out);
            }
            DirState::Owned { owner, sharers } => {
                debug_assert_ne!(owner, from, "owner re-requesting GetS");
                if self.array.peek(block).expect("hit").fresh {
                    // The owner is in O and hasn't re-acquired M: the L2 copy
                    // is current; serve the read here.
                    let data = self.array.data(block);
                    self.array.peek_mut(block).expect("hit").dir = DirState::Owned {
                        owner,
                        sharers: sharers | bit(from),
                    };
                    out.sends.push((
                        from,
                        DirToL1::Data {
                            block,
                            grant: Grant::S,
                            data,
                        },
                    ));
                    self.finish(block, out);
                    return;
                }
                let round = Round::new(block, Some((owner, Ask::Fetch)), Ask::Inv, 0);
                self.open(block, round, Phase::AwaitInvFetch, out);
            }
        }
    }

    fn dispatch_getm_hit(&mut self, block: u64, from: PortId, out: &mut BankOut) {
        let meta = *self.array.peek(block).expect("hit");
        // The owner to fetch from, the copies to invalidate, and whether
        // the requestor's own copy is current.
        let (fetch, copies, upgrade) = match meta.dir {
            DirState::Unowned => {
                let data = self.array.data(block);
                {
                    let meta = self.array.peek_mut(block).expect("hit");
                    meta.dir = DirState::Owned {
                        owner: from,
                        sharers: 0,
                    };
                    meta.fresh = false;
                }
                out.sends.push((
                    from,
                    DirToL1::Data {
                        block,
                        grant: Grant::M,
                        data,
                    },
                ));
                self.finish(block, out);
                return;
            }
            DirState::Shared(s) => (None, s, s & bit(from) != 0),
            // Upgrade from O: invalidate the S copies.
            DirState::Owned { owner, sharers } if owner == from => (None, sharers, true),
            // If the requestor held an S copy under an O owner its data is
            // current (O writes require GetM), so upgrade.
            DirState::Owned { owner, sharers } => (
                Some((owner, Ask::FetchInv)),
                sharers,
                sharers & bit(from) != 0,
            ),
        };
        self.tx.get_mut(&block).expect("tx").upgrade = upgrade;
        let round = Round::new(block, fetch, Ask::Inv, copies & !bit(from));
        if !self.open(block, round, Phase::AwaitInvFetch, out) {
            self.complete_getm(block, out);
        }
    }

    fn complete_getm(&mut self, block: u64, out: &mut BankOut) {
        let tx = self.tx.get(&block).expect("tx");
        let (from, upgrade) = (tx.req.from, tx.upgrade);
        {
            let meta = self.array.peek_mut(block).expect("hit");
            meta.dir = DirState::Owned {
                owner: from,
                sharers: 0,
            };
            meta.fresh = false;
        }
        if upgrade {
            out.sends.push((from, DirToL1::AckM { block }));
        } else {
            let data = self.array.data(block);
            out.sends.push((
                from,
                DirToL1::Data {
                    block,
                    grant: Grant::M,
                    data,
                },
            ));
        }
        self.finish(block, out);
    }

    fn complete_gets(&mut self, block: u64, out: &mut BankOut) {
        let from = self.tx.get(&block).expect("tx").req.from;
        let meta = self.array.peek_mut(block).expect("hit");
        match meta.dir {
            DirState::Owned { owner, sharers } => {
                meta.dir = DirState::Owned {
                    owner,
                    sharers: sharers | bit(from),
                };
            }
            ref d => unreachable!("GetS fetch completed in state {d:?}"),
        }
        let data = self.array.data(block);
        out.sends.push((
            from,
            DirToL1::Data {
                block,
                grant: Grant::S,
                data,
            },
        ));
        self.finish(block, out);
    }

    fn handle_put_dirty(&mut self, block: u64, req: &Request, out: &mut BankOut) {
        let data = req.data.expect("PutDirty carries data");
        let stale = !matches!(
            self.array.peek(block).map(|m| m.dir),
            Some(DirState::Owned { owner, .. }) if owner == req.from
        );
        if !stale {
            self.array.set_data(block, data);
            let meta = self.array.peek_mut(block).expect("hit");
            meta.dirty = true;
            // A retaining writeback (write-through mode) leaves the sender in
            // M: it may write again, so the L2 copy must NOT serve readers.
            meta.fresh = !req.retain;
            if !req.retain {
                if let DirState::Owned { sharers, .. } = meta.dir {
                    meta.dir = if sharers == 0 {
                        DirState::Unowned
                    } else {
                        DirState::Shared(sharers)
                    };
                }
            }
        }
        out.sends.push((
            req.from,
            DirToL1::PutAck {
                block,
                retain: req.retain,
            },
        ));
    }

    fn handle_put_clean(&mut self, block: u64, from: PortId, out: &mut BankOut) {
        if let Some(meta) = self.array.peek_mut(block) {
            match meta.dir {
                DirState::Owned { owner, sharers } if owner == from => {
                    meta.dir = if sharers == 0 {
                        DirState::Unowned
                    } else {
                        DirState::Shared(sharers)
                    };
                }
                DirState::Owned { owner, sharers } if sharers & bit(from) != 0 => {
                    meta.dir = DirState::Owned {
                        owner,
                        sharers: sharers & !bit(from),
                    };
                }
                DirState::Shared(s) if s & bit(from) != 0 => {
                    let rest = s & !bit(from);
                    meta.dir = if rest == 0 {
                        DirState::Unowned
                    } else {
                        DirState::Shared(rest)
                    };
                }
                _ => {} // stale
            }
        }
        out.sends.push((
            from,
            DirToL1::PutAck {
                block,
                retain: false,
            },
        ));
    }

    /// Finds a way for `block`: free way ⇒ DRAM read; evictable victim ⇒
    /// recall; everything busy ⇒ ask the system to retry later.
    fn try_fill(&mut self, block: u64, out: &mut BankOut) {
        if let Some(data) = self.tx.get(&block).and_then(|t| t.fill_data) {
            // Data already fetched (recall ran after DRAM): try installing.
            if self.array.has_free_way(block) {
                self.install_and_dispatch(block, data, out);
                return;
            }
        } else if self.array.has_free_way(block) {
            self.tx.get_mut(&block).expect("tx").phase = Phase::AwaitDram;
            out.dram_read = Some(block);
            return;
        }
        // Need to evict: pick the LRU non-busy victim.
        let Some(victim) = self.array.victim_lru(block, |v| !self.busy(v)) else {
            out.retry = Some(block);
            return;
        };
        self.recalls += 1;
        let meta = *self.array.peek(victim).expect("victim resident");
        let data = self.array.data(victim);
        let (fetch, copies) = match meta.dir {
            DirState::Unowned => (None, 0),
            DirState::Shared(s) => (None, s),
            DirState::Owned { owner, sharers } => (Some((owner, Ask::FetchInv)), sharers),
        };
        self.recall_owner.insert(victim, block);
        self.tx.get_mut(&block).expect("tx").recall = Some(Recall {
            victim,
            dirty: meta.dirty,
            data,
        });
        let round = Round::new(victim, fetch, Ask::Inv, copies);
        if !self.open(block, round, Phase::AwaitRecall, out) {
            self.finish_recall(block, out);
        }
    }

    /// The victim's copies are all collected: write it back and move on.
    fn finish_recall(&mut self, block: u64, out: &mut BankOut) {
        let tx = self.tx.get_mut(&block).expect("tx");
        let recall = tx.recall.take().expect("recall state");
        self.recall_owner.remove(&recall.victim);
        self.array.remove(recall.victim).expect("victim resident");
        if recall.dirty {
            out.dram_writes.push((recall.victim, recall.data));
        }
        out.finished.push(recall.victim); // drain requests queued on the victim
        if let Some(data) = self.tx.get(&block).and_then(|t| t.fill_data) {
            self.install_and_dispatch(block, data, out);
        } else {
            self.tx.get_mut(&block).expect("tx").phase = Phase::AwaitDram;
            out.dram_read = Some(block);
        }
    }

    /// DRAM returned `data` for `block`.
    pub fn dram_done(&mut self, block: u64, data: BlockData, out: &mut BankOut) {
        let tx = self.tx.get_mut(&block).expect("dram_done without tx");
        debug_assert_eq!(tx.phase, Phase::AwaitDram);
        if !self.protocol.uses_directory() {
            // Serve the bus transaction straight from the DRAM data. Clean
            // reads opportunistically install into the L2 when a way can be
            // freed without waiting (non-inclusive: serving uncached is
            // always legal); read-exclusives skip the install — the copy
            // would be stale the moment the M owner writes.
            let (from, kind) = (tx.req.from, tx.req.kind);
            let grant = match kind {
                ReqKind::BusRd => {
                    if tx.snoop_had {
                        Grant::S
                    } else {
                        Grant::E
                    }
                }
                ReqKind::BusRdX => Grant::M,
                ref k => unreachable!("DRAM fill for {k:?} in snooping mode"),
            };
            if matches!(kind, ReqKind::BusRd) {
                self.snoop_install(block, data, out);
            }
            out.sends.push((from, DirToL1::Data { block, grant, data }));
            self.finish(block, out);
            return;
        }
        tx.fill_data = Some(data);
        if self.array.has_free_way(block) {
            self.install_and_dispatch(block, data, out);
        } else {
            // Another transaction consumed the free way while DRAM was busy.
            tx.phase = Phase::NeedFill;
            self.try_fill(block, out);
        }
    }

    /// Snooping-mode install: free way, or evict a non-busy LRU victim
    /// (writing it back when dirty — no recall: the L2 is non-inclusive).
    /// Gives up silently when every way is busy; the requester is served
    /// uncached.
    fn snoop_install(&mut self, block: u64, data: BlockData, out: &mut BankOut) {
        if !self.array.has_free_way(block) {
            let Some(victim) = self.array.victim_lru(block, |v| !self.busy(v)) else {
                return;
            };
            self.recalls += 1;
            let meta = *self.array.peek(victim).expect("victim resident");
            let vdata = self.array.data(victim);
            self.array.remove(victim).expect("victim resident");
            if meta.dirty {
                out.dram_writes.push((victim, vdata));
            }
        }
        let evicted = self.array.insert(block, L2Meta::default(), data);
        debug_assert!(evicted.is_none(), "install raced an occupied set");
    }

    fn install_and_dispatch(&mut self, block: u64, data: BlockData, out: &mut BankOut) {
        let evicted = self.array.insert(block, L2Meta::default(), data);
        debug_assert!(evicted.is_none(), "install raced an occupied set");
        let req = self.tx.get(&block).expect("tx").req.clone();
        match req.kind {
            ReqKind::GetS => self.dispatch_gets_hit(block, req.from, out),
            ReqKind::GetM => self.dispatch_getm_hit(block, req.from, out),
            _ => unreachable!("fill for a Put"),
        }
    }

    /// An L1 response arrived. One that the transaction's open round
    /// expects is taken from the round and its data folded in by the
    /// phase: written into the L2 line (inv/fetch), kept as the victim's
    /// copy (recall), or weighed as a snoop supplier (the dirty copy is
    /// authoritative; any clean one beats the L2/DRAM path). Any other
    /// response, possible only in lenient mode where a resend can race the
    /// original answer, is counted and ignored.
    pub fn resp_arrive(&mut self, resp: L1ToDir, out: &mut BankOut) {
        let Some(block) = self.answered(&resp) else {
            debug_assert!(self.lenient, "unexpected response {resp:?}");
            self.stale_resps += 1;
            return;
        };
        let tx = self.tx.get_mut(&block).expect("tx");
        let done = tx.round.take(&resp);
        match (tx.phase, resp) {
            (Phase::AwaitRecall, resp) => {
                let recall = tx.recall.as_mut().expect("recall state");
                let dirty_copy = match resp {
                    L1ToDir::InvResp { data, .. } => data,
                    L1ToDir::FetchResp { data, dirty, .. } => dirty.then_some(data),
                    L1ToDir::SnoopResp { .. } => unreachable!("snoop answer to a recall"),
                };
                if let Some(d) = dirty_copy {
                    recall.data = d;
                    recall.dirty = true;
                }
                if done {
                    self.finish_recall(block, out);
                }
            }
            (Phase::AwaitInvFetch, resp) => {
                let kind = tx.req.kind;
                match resp {
                    // A racing writeback: the invalidated copy was dirty.
                    L1ToDir::InvResp { data: Some(d), .. } => {
                        self.array.set_data(block, d);
                        self.array.peek_mut(block).expect("hit").dirty = true;
                    }
                    L1ToDir::FetchResp { data, dirty, .. } => {
                        self.array.set_data(block, data);
                        let meta = self.array.peek_mut(block).expect("hit");
                        meta.dirty |= dirty;
                        meta.fresh = true;
                    }
                    _ => {}
                }
                if done {
                    match kind {
                        ReqKind::GetS => self.complete_gets(block, out),
                        ReqKind::GetM => self.complete_getm(block, out),
                        _ => unreachable!("Put awaiting acks"),
                    }
                }
            }
            (
                Phase::AwaitSnoop,
                L1ToDir::SnoopResp {
                    had, dirty, data, ..
                },
            ) => {
                tx.snoop_had |= had;
                if let Some(d) = data {
                    if dirty {
                        tx.snoop_data = Some(d);
                        tx.snoop_dirty = true;
                    } else if tx.snoop_data.is_none() {
                        tx.snoop_data = Some(d);
                    }
                }
                if done {
                    self.complete_bus(block, out);
                }
            }
            (phase, resp) => unreachable!("{resp:?} expected in phase {phase:?}"),
        }
    }

    /// The block of the transaction whose open round expects `resp`, if
    /// any: a recall's answer names the victim, which maps to the demand
    /// transaction recalling it. The one test of "expected or stale",
    /// shared by [`Bank::resp_arrive`] and [`Bank::expects_resp`].
    fn answered(&self, resp: &L1ToDir) -> Option<u64> {
        let (_, block) = resp.origin();
        let tx_block = self.recall_owner.get(&block).copied().unwrap_or(block);
        self.tx
            .get(&tx_block)?
            .round
            .expects(resp)
            .then_some(tx_block)
    }

    /// A `DirTimeout` armed at `epoch` fired for `block`: if the transaction
    /// still waits on responses from that round, NACK it — re-solicit every
    /// missing response and arm a fresh timeout — until `budget` resends are
    /// spent, at which point the caller aborts the run. Works for every
    /// response-collection phase of every protocol: directory inv/fetch and
    /// recall rounds, and snooping probe/update rounds (probes are
    /// idempotent, so resending to still-pending ports is always safe).
    ///
    /// `corrupt` is the test-only `CorruptResendEpoch` mutation: instead of
    /// resending, the round's epoch bookkeeping is botched so the lowest
    /// still-pending probe is abandoned and the round completes without its
    /// answer — the recovery-layer bug the sanitizer must catch.
    pub fn timeout_fired(
        &mut self,
        block: u64,
        epoch: u64,
        budget: u32,
        corrupt: bool,
        out: &mut BankOut,
    ) -> TimeoutAction {
        let Some(tx) = self.tx.get_mut(&block) else {
            return TimeoutAction::Stale;
        };
        if !tx.retry.is_current(epoch) || tx.round.done() {
            return TimeoutAction::Stale;
        }
        self.timeouts += 1;
        if corrupt && tx.round.snoop().is_some() {
            if tx.round.abandon_lowest_probe() {
                self.complete_bus(block, out);
            } else {
                out.arm.push((block, tx.retry.epoch()));
            }
            return TimeoutAction::Resent;
        }
        let Some(next_epoch) = tx.retry.spend(budget) else {
            return TimeoutAction::Exhausted;
        };
        self.nack_resends += tx.round.resend(&mut out.sends) as u64;
        out.arm.push((block, next_epoch));
        TimeoutAction::Resent
    }

    /// Human-readable phase of the active transaction on `block`, if any
    /// (for the watchdog's diagnostic dump).
    pub fn tx_phase(&self, block: u64) -> Option<String> {
        self.tx.get(&block).map(|t| format!("{:?}", t.phase))
    }

    /// The port the `CorruptResendEpoch` mutation would abandon on a
    /// `DirTimeout` carrying `epoch` for `block`: the lowest probe still
    /// owed to a live snoop round (`None` when the timeout would be stale
    /// or would hit no snoop round).
    pub fn corrupt_target(&self, block: u64, epoch: u64) -> Option<PortId> {
        let t = self.tx.get(&block)?;
        if !t.retry.is_current(epoch) {
            return None;
        }
        t.round.snoop()?;
        t.round.lowest_probe()
    }

    /// Whether the active transaction on `block` is a write-update round
    /// still collecting `SnoopResp`s (the `UpdAck` fault domain's carrier).
    pub fn upd_round_active(&self, block: u64) -> bool {
        self.tx
            .get(&block)
            .is_some_and(|t| matches!(t.round.snoop(), Some(SnoopKind::Upd(_))))
    }

    /// Whether `block` participates in any in-flight directory activity: a
    /// demand transaction, a queued request, or a recall targeting it as a
    /// victim. While busy, directory state and L1 copies are legitimately
    /// transient, so the sanitizer's steady-state checks stand down.
    pub fn busy_on(&self, block: u64) -> bool {
        self.busy(block) || self.waiting.contains_key(&block)
    }

    /// The directory's record for `block` as `(owner, sharer mask)`, or
    /// `None` when not resident in the L2. A `Shared` block reports no owner.
    pub fn dir_record(&self, block: u64) -> Option<(Option<PortId>, u32)> {
        let meta = self.array.peek(block)?;
        Some(match meta.dir {
            DirState::Unowned => (None, 0),
            DirState::Shared(s) => (None, s),
            DirState::Owned { owner, sharers } => (Some(owner), sharers),
        })
    }

    /// Whether the bank expects `resp` right now: the open round of a
    /// transaction (its own, or the recall of its victim) still waits on
    /// this answer. The same test [`Bank::resp_arrive`] applies; the
    /// sanitizer's pre-delivery `MEM-MSG-CONSERVE` check uses it to flag
    /// spurious/duplicated responses in strict mode.
    pub fn expects_resp(&self, resp: &L1ToDir) -> bool {
        self.answered(resp).is_some()
    }

    /// Test-only sanitizer mutation hook: erase the directory's owner
    /// registration for `block` (Owned → Unowned/Shared), leaving the L1
    /// copy unaccounted for (⇒ `MEM-DIR-AGREE`). Returns whether it applied.
    pub fn test_corrupt_owner(&mut self, block: u64) -> bool {
        match self.array.peek_mut(block) {
            Some(meta) => match meta.dir {
                DirState::Owned { sharers, .. } => {
                    meta.dir = if sharers == 0 {
                        DirState::Unowned
                    } else {
                        DirState::Shared(sharers)
                    };
                    true
                }
                _ => false,
            },
            None => false,
        }
    }

    /// Blocks with an active transaction, sorted (for diagnostics).
    pub fn active_blocks(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.tx.keys().copied().collect();
        v.sort_unstable();
        v
    }

    fn finish(&mut self, block: u64, out: &mut BankOut) {
        self.tx.remove(&block);
        out.finished.push(block);
    }

    /// Pops the next queued request for `block`, if any. The system re-enters
    /// it through [`Bank::req_arrive`].
    pub fn pop_waiting(&mut self, block: u64) -> Option<Request> {
        let q = self.waiting.get_mut(&block)?;
        let req = q.pop_front();
        if q.is_empty() {
            self.waiting.remove(&block);
        }
        req
    }

    /// Whether the bank has no transactions or queued work.
    pub fn quiescent(&self) -> bool {
        self.tx.is_empty() && self.waiting.is_empty() && self.recall_owner.is_empty()
    }

    /// Coherent view of a block for the backdoor: `Some((meta-known, data))`
    /// if resident.
    pub fn probe(&self, block: u64) -> Option<BlockData> {
        self.array.peek(block).map(|_| self.array.data(block))
    }

    /// Functionally overwrites bytes of a resident block (coherent backdoor).
    pub fn backdoor_patch(&mut self, block: u64, off: usize, bytes: &[u8]) -> bool {
        if self.array.peek(block).is_some() {
            self.array.write(block, off, bytes);
            true
        } else {
            false
        }
    }

    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("gets", self.gets as f64);
        s.set("getm", self.getm as f64);
        s.set("puts", self.puts as f64);
        s.set("hits", self.hits as f64);
        s.set("misses", self.misses as f64);
        s.set("recalls", self.recalls as f64);
        if self.lenient {
            s.set("dir_timeouts", self.timeouts as f64);
            s.set("dir_nacks", self.nack_resends as f64);
            s.set("stale_resps", self.stale_resps as f64);
        }
        s
    }
}
