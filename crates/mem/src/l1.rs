//! Private L1 cache controller: MOESI states, MSHRs, eviction buffers.
//!
//! Each core (CPU or MTTOP) owns one L1 data cache that is a full peer in the
//! directory protocol — the paper's deliberately *symmetric* design ("our
//! cache coherence protocol does not treat MTTOP cores differently from CPU
//! cores"). Write-back, write-allocate; atomics acquire M and execute in the
//! L1 (§3.2.4). A write-through mode exists solely for the §6.1 ablation.

use ccsvm_engine::{fx_map_with_capacity, FxHashMap, Stats, Time};
use ccsvm_noc::NodeId;

use crate::addr::{block_of, offset_in_block, PhysAddr};
use crate::cache::{CacheArray, CacheConfig};
use crate::dram::word_from_block;
use crate::msg::{BlockData, DirToL1, Grant, L1ToDir, ReqKind, Request, SnoopKind, UpdWord};
use crate::protocol::ProtocolKind;
use crate::system::{Access, PortId};

/// Store policy of an L1 (the paper assumes write-back; write-through exists
/// for the §6.1 "current GPUs have write-through caches" ablation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Dirty data stays in the L1 until eviction or a fetch (the paper's
    /// CCSVM design).
    #[default]
    WriteBack,
    /// Every completed store immediately pushes the whole block to the L2
    /// (keeping a shared copy), modelling a GPU-style write-through L1.
    WriteThrough,
}

/// Configuration of one L1 cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L1Config {
    /// NoC node this cache (and its core) sits at.
    pub node: NodeId,
    /// Geometry.
    pub cache: CacheConfig,
    /// Load-to-use hit latency.
    pub hit_time: Time,
    /// Maximum outstanding distinct-block misses.
    pub max_mshrs: usize,
    /// Store policy.
    pub write_policy: WritePolicy,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum L1State {
    #[default]
    I,
    S,
    E,
    O,
    M,
}

impl L1State {
    fn readable(self) -> bool {
        self != L1State::I
    }
    fn dirty(self) -> bool {
        matches!(self, L1State::M | L1State::O)
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Line {
    state: L1State,
}

#[derive(Clone, Debug, PartialEq)]
struct Waiter {
    token: u64,
    access: Access,
}

#[derive(Clone, Debug, PartialEq)]
struct Mshr {
    /// Whether a GetM has been sent (vs only GetS).
    wants_m: bool,
    waiters: Vec<Waiter>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct EvictEntry {
    data: BlockData,
    dirty: bool,
}

/// The copy a fetch or probe is answered from (see [`L1::supply`]).
struct Supply {
    data: BlockData,
    dirty: bool,
    /// Whether it was the resident line, not the eviction buffer's copy.
    resident: bool,
}

/// Result of a core-side access attempt.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum L1Access {
    Hit { value: u64 },
    Pending,
    Retry,
}

/// Outbound traffic produced by an L1 action.
#[derive(Debug, Default)]
pub(crate) struct L1Out {
    pub requests: Vec<Request>,
    pub responses: Vec<L1ToDir>,
    pub completions: Vec<(u64, u64, u64)>, // (token, value, block)
}

impl L1Out {
    pub(crate) fn clear(&mut self) {
        self.requests.clear();
        self.responses.clear();
        self.completions.clear();
    }
}

#[derive(Clone, Debug)]
pub(crate) struct L1 {
    pub id: PortId,
    pub config: L1Config,
    /// Which coherence protocol this controller speaks (config-derived, not
    /// serialized). Selects the request vocabulary on misses and the
    /// reactions to ordering-point probes.
    protocol: ProtocolKind,
    array: CacheArray<Line>,
    mshrs: FxHashMap<u64, Mshr>,
    evict_buf: FxHashMap<u64, EvictEntry>,
    /// Ways reserved per set for in-flight fills, so a fill can always
    /// install without evicting a line that itself has a pending miss.
    reserved: FxHashMap<u64, usize>,
    /// Tolerate duplicate directory messages (set when directory timeouts
    /// are enabled: a NACK-resent Fetch can arrive after the original
    /// response already gave the block away). Off by default so protocol
    /// bugs still trip the strict assertions.
    lenient: bool,
    /// The copy `spec_begin` saved, while its journal is open. Nothing in
    /// the machine opens one: only the ledger's `mem.spec_*` probes do, and
    /// the journal is removed with them.
    saved: Option<Box<L1>>,
    // counters
    loads: u64,
    stores: u64,
    atomics: u64,
    hits: u64,
    misses: u64,
    merged_misses: u64,
    retries: u64,
    writebacks: u64,
    invalidations: u64,
    fetches: u64,
    spurious_fetches: u64,
}

impl L1 {
    pub fn new(id: PortId, config: L1Config, protocol: ProtocolKind) -> L1 {
        assert!(config.max_mshrs > 0, "need at least one MSHR");
        L1 {
            id,
            config,
            protocol,
            array: CacheArray::new(config.cache),
            mshrs: fx_map_with_capacity(config.max_mshrs),
            evict_buf: fx_map_with_capacity(config.max_mshrs),
            reserved: fx_map_with_capacity(config.max_mshrs),
            lenient: false,
            saved: None,
            loads: 0,
            stores: 0,
            atomics: 0,
            hits: 0,
            misses: 0,
            merged_misses: 0,
            retries: 0,
            writebacks: 0,
            invalidations: 0,
            fetches: 0,
            spurious_fetches: 0,
        }
    }

    /// Switches to lenient handling of duplicate directory messages (see
    /// the field docs); used when directory timeouts are enabled.
    pub fn set_lenient(&mut self) {
        self.lenient = true;
    }

    /// Opens an undo journal: saves a copy of this L1, which
    /// [`L1::spec_rollback`] puts back. A caller must deliver no directory
    /// message while the journal is open.
    pub fn spec_begin(&mut self) {
        debug_assert!(self.saved.is_none(), "nested journal on {:?}", self.id);
        self.saved = Some(Box::new(self.clone()));
    }

    /// Keeps everything done since `spec_begin`, dropping the copy.
    pub fn spec_commit(&mut self) {
        self.saved.take().expect("spec_commit without spec_begin");
    }

    /// Puts back the copy `spec_begin` saved, so the L1 is again exactly as
    /// it was then.
    pub fn spec_rollback(&mut self) {
        *self = *self.saved.take().expect("spec_rollback without spec_begin");
    }

    /// Replays the counter effects of re-attempting an access that returned
    /// [`L1Access::Retry`] earlier in the same core batch. MSHRs, eviction
    /// buffers and way reservations drain only via message deliveries that
    /// happen between core batches, so within one batch the retry outcome is
    /// invariant: the controller run can be skipped, but its counters must
    /// advance exactly as a real attempt would.
    pub fn count_doomed_retry(&mut self, access: Access) {
        match access {
            Access::Read { .. } => self.loads += 1,
            Access::Write { .. } => self.stores += 1,
            Access::Rmw { .. } => self.atomics += 1,
        }
        self.retries += 1;
    }

    fn read_word(&self, addr: PhysAddr, size: usize) -> u64 {
        let data = self.array.data(block_of(addr));
        word_from_block(&data, addr, size)
    }

    fn write_word(&mut self, addr: PhysAddr, size: usize, value: u64) {
        let block = block_of(addr);
        let off = offset_in_block(addr);
        self.array.write(block, off, &value.to_le_bytes()[..size]);
    }

    /// Attempts `access`; on a miss, allocates/merges an MSHR and emits
    /// coherence requests into `out`.
    pub fn access(&mut self, access: Access, token: u64, out: &mut L1Out) -> L1Access {
        let (addr, size) = (access.addr(), access.size());
        debug_assert!(
            offset_in_block(addr) + size <= crate::BLOCK_BYTES as usize,
            "access straddles a block: {addr:?} size {size}"
        );
        match access {
            Access::Read { .. } => self.loads += 1,
            Access::Write { .. } => self.stores += 1,
            Access::Rmw { .. } => self.atomics += 1,
        }
        let block = block_of(addr);
        // One tag lookup resolves the way; the hit paths below reuse the
        // index instead of re-scanning the set per read/write/meta touch.
        // LRU tick behaviour is unchanged: one touch for a read hit, two for
        // a write hit (`lookup` + the old `lookup_mut`).
        let idx = self.array.lookup_idx(block);
        let state = idx.map_or(L1State::I, |i| self.array.meta_at(i).state);
        let needs_m = !matches!(access, Access::Read { .. });

        // Hit paths.
        if state.readable() && !needs_m {
            self.hits += 1;
            let i = idx.expect("readable implies resident");
            return L1Access::Hit {
                value: word_from_block(self.array.data_at(i), addr, size),
            };
        }
        if needs_m && matches!(state, L1State::M | L1State::E) {
            self.hits += 1;
            let i = idx.expect("writable implies resident");
            let off = offset_in_block(addr);
            let data = self.array.data_at_mut(i);
            let value = match access {
                Access::Read { .. } => unreachable!("needs_m excludes reads"),
                Access::Write { value, .. } => {
                    data[off..off + size].copy_from_slice(&value.to_le_bytes()[..size]);
                    value
                }
                Access::Rmw { op, .. } => {
                    let mut v = [0u8; 8];
                    v[..size].copy_from_slice(&data[off..off + size]);
                    let old = u64::from_le_bytes(v);
                    data[off..off + size].copy_from_slice(&op.apply(old).to_le_bytes()[..size]);
                    old
                }
            };
            self.array.touch_at(i);
            self.array.meta_at_mut(i).state = L1State::M;
            self.maybe_write_through(block, out);
            return L1Access::Hit { value };
        }

        // Miss: merge into an existing MSHR for this block if present.
        if let Some(mshr) = self.mshrs.get_mut(&block) {
            self.merged_misses += 1;
            let needs_upgrade = needs_m && !mshr.wants_m;
            mshr.waiters.push(Waiter { token, access });
            if needs_upgrade {
                // Escalate: the in-flight GetS won't satisfy this writer. The
                // fill handler issues the GetM after the GetS data arrives (the
                // directory is already processing / will process our GetS).
            }
            return L1Access::Pending;
        }
        // Upgrades (block resident in S/O) complete in the existing way; only
        // misses that will install into a new way need a reservation.
        if self.mshrs.len() >= self.config.max_mshrs
            || (state == L1State::I && !self.reserve_way(block, out))
        {
            self.retries += 1;
            return L1Access::Retry;
        }
        self.misses += 1;
        self.mshrs.insert(
            block,
            Mshr {
                wants_m: needs_m,
                waiters: vec![Waiter { token, access }],
            },
        );
        out.requests.push(Request {
            kind: self.miss_request_kind(state, access),
            from: self.id,
            block,
            data: None,
            retain: false,
        });
        L1Access::Pending
    }

    /// The coherence request a miss (or upgrade) on a line in `state` sends,
    /// in the configured protocol's vocabulary.
    fn miss_request_kind(&self, state: L1State, access: Access) -> ReqKind {
        let needs_m = !matches!(access, Access::Read { .. });
        match self.protocol {
            ProtocolKind::Directory => {
                if needs_m {
                    ReqKind::GetM
                } else {
                    ReqKind::GetS
                }
            }
            ProtocolKind::MesiSnoop => {
                if needs_m {
                    ReqKind::BusRdX
                } else {
                    ReqKind::BusRd
                }
            }
            ProtocolKind::Dragon => match access {
                Access::Read { .. } => ReqKind::BusRd,
                // Atomics acquire exclusivity: a write-update round cannot
                // serialize a read-modify-write against racing updates.
                Access::Rmw { .. } => ReqKind::BusRdX,
                Access::Write { paddr, size, value } => {
                    if matches!(state, L1State::S | L1State::O) {
                        // Write to a shared block: broadcast the word.
                        ReqKind::BusUpd(UpdWord {
                            off: offset_in_block(paddr) as u8,
                            size: size as u8,
                            value,
                        })
                    } else {
                        // No copy: read-for-write, then update (or write
                        // locally when granted E) from the fill drain.
                        ReqKind::BusRd
                    }
                }
            },
        }
    }

    /// Reserves a way in `block`'s set for an in-flight fill, evicting a
    /// victim if necessary. Victims with pending misses (upgrades in flight)
    /// are never evicted. Returns `false` if no way can be freed right now.
    fn reserve_way(&mut self, block: u64, out: &mut L1Out) -> bool {
        let set = self.array.set_of(block);
        let reserved = self.reserved.entry(set).or_insert(0);
        if self.array.free_ways(block) > *reserved {
            *reserved += 1;
            return true;
        }
        let Some(victim) = self
            .array
            .victim_lru(block, |v| !self.mshrs.contains_key(&v))
        else {
            return false;
        };
        *self.reserved.get_mut(&set).expect("entry") += 1;
        self.evict(victim, out);
        true
    }

    /// An invalidation removed `block` while it had a pending upgrade MSHR:
    /// the eventual fill will now install into a new way, so the way this
    /// removal just freed becomes the MSHR's reservation.
    fn claim_freed_way(&mut self, block: u64) {
        if self.mshrs.contains_key(&block) {
            *self.reserved.entry(self.array.set_of(block)).or_insert(0) += 1;
        }
    }

    /// Evicts `victim`, emitting a writeback/eviction notice.
    fn evict(&mut self, victim: u64, out: &mut L1Out) {
        let (line, data) = self.array.remove(victim).expect("victim resident");
        match line.state {
            L1State::M | L1State::O => {
                self.writebacks += 1;
                self.evict_buf
                    .insert(victim, EvictEntry { data, dirty: true });
                out.requests.push(Request {
                    kind: ReqKind::PutDirty,
                    from: self.id,
                    block: victim,
                    data: Some(data),
                    retain: false,
                });
            }
            // Snooping protocols: clean evictions are silent (there is no
            // directory registration to retire). Memory is current for every
            // clean state, and in-flight dirty writebacks keep answering
            // snoops from the eviction buffer until their PutAck.
            L1State::E | L1State::S if !self.protocol.uses_directory() => {}
            L1State::E => {
                // Clean, but we are the registered owner: the directory may
                // still Fetch us, so buffer the data until PutAck.
                self.evict_buf
                    .insert(victim, EvictEntry { data, dirty: false });
                out.requests.push(Request {
                    kind: ReqKind::PutClean,
                    from: self.id,
                    block: victim,
                    data: None,
                    retain: false,
                });
            }
            L1State::S => {
                out.requests.push(Request {
                    kind: ReqKind::PutClean,
                    from: self.id,
                    block: victim,
                    data: None,
                    retain: false,
                });
            }
            L1State::I => unreachable!("invalid line resident in array"),
        }
    }

    fn perform_write(&mut self, access: Access) -> u64 {
        match access {
            Access::Read { .. } => unreachable!("perform_write on read"),
            Access::Write { paddr, size, value } => {
                self.write_word(paddr, size, value);
                value
            }
            Access::Rmw { paddr, size, op } => {
                let old = self.read_word(paddr, size);
                self.write_word(paddr, size, op.apply(old));
                old
            }
        }
    }

    fn maybe_write_through(&mut self, block: u64, out: &mut L1Out) {
        if self.config.write_policy != WritePolicy::WriteThrough {
            return;
        }
        // Push the whole dirty block to the L2. The line stays in M (we remain
        // the registered owner); the modelled cost of write-through is the
        // per-store data traffic, which this captures.
        let data = self.array.data(block);
        self.writebacks += 1;
        out.requests.push(Request {
            kind: ReqKind::PutDirty,
            from: self.id,
            block,
            data: Some(data),
            retain: true,
        });
    }

    /// Handles a directory → L1 message.
    pub fn on_dir_msg(&mut self, msg: DirToL1, out: &mut L1Out) {
        match msg {
            DirToL1::Data { block, grant, data } => self.on_fill(block, grant, data, out),
            DirToL1::AckM { block } => {
                debug_assert!(
                    self.array.peek(block).is_some(),
                    "AckM for non-resident block {block}"
                );
                self.array.lookup_mut(block).expect("resident").state = L1State::M;
                self.drain_waiters(block, out);
            }
            DirToL1::Inv { block } => {
                self.invalidations += 1;
                let data = match self.remove_line(block) {
                    Some((line, data)) if line.state.dirty() => Some(data),
                    _ => None,
                };
                out.responses.push(L1ToDir::InvResp {
                    from: self.id,
                    block,
                    data,
                });
            }
            DirToL1::Fetch { block } | DirToL1::FetchInv { block } => {
                self.fetches += 1;
                let invalidate = matches!(msg, DirToL1::FetchInv { .. });
                if let Some(copy) = self.supply(block, invalidate, |_| L1State::O) {
                    out.responses.push(L1ToDir::FetchResp {
                        from: self.id,
                        block,
                        data: copy.data,
                        dirty: copy.dirty,
                    });
                } else {
                    // Only reachable in lenient mode: a NACK-resent fetch
                    // arrived after this L1 already answered and dropped the
                    // block. Stay silent — the data cannot be resent — and
                    // let the original answer (or the retry budget) decide.
                    assert!(self.lenient, "{msg:?}: block neither resident nor evicting");
                    self.spurious_fetches += 1;
                }
            }
            DirToL1::PutAck { block, retain } => {
                // A retaining (write-through) push ends no eviction: the
                // buffered copy, if any, belongs to a later real writeback
                // that the bank may still fetch.
                if !retain {
                    self.evict_buf.remove(&block);
                }
            }
            DirToL1::Snoop { block, kind } => self.on_snoop(block, kind, out),
            DirToL1::UpdDone { block, sharers } => self.on_upd_done(block, sharers, out),
        }
    }

    /// Removes `block`'s line, if resident; a pending upgrade's MSHR claims
    /// the freed way.
    fn remove_line(&mut self, block: u64) -> Option<(Line, BlockData)> {
        let removed = self.array.remove(block);
        if removed.is_some() {
            self.claim_freed_way(block);
        }
        removed
    }

    /// The copy of `block` that a fetch or probe is answered from: the
    /// resident line, which is removed when `invalidate` and otherwise
    /// re-stated by `keep`, else a writeback still in the eviction buffer.
    fn supply(
        &mut self,
        block: u64,
        invalidate: bool,
        keep: impl FnOnce(L1State) -> L1State,
    ) -> Option<Supply> {
        let resident = if invalidate {
            self.remove_line(block)
                .map(|(line, data)| (line.state, data))
        } else {
            self.array.peek_idx(block).map(|i| {
                let state = self.array.meta_at(i).state;
                self.array.meta_at_mut(i).state = keep(state);
                (state, *self.array.data_at(i))
            })
        };
        match resident {
            Some((state, data)) => Some(Supply {
                data,
                dirty: state.dirty(),
                resident: true,
            }),
            None => self.evict_buf.get(&block).map(|e| Supply {
                data: e.data,
                dirty: e.dirty,
                resident: false,
            }),
        }
    }

    /// Answers an ordering-point probe (snooping protocols). Every probe gets
    /// exactly one `SnoopResp`; `had` reports a live copy (resident line or a
    /// dirty writeback still in the eviction buffer), and `data` rides along
    /// whenever one existed so the ordering point can source cache-to-cache.
    fn on_snoop(&mut self, block: u64, kind: SnoopKind, out: &mut L1Out) {
        let protocol = self.protocol;
        let (had, dirty, data) = match kind {
            SnoopKind::Rd | SnoopKind::RdX => {
                let invalidate = kind == SnoopKind::RdX;
                // Another cache reads: demote a writable copy to shared.
                // MESI: M/E → S (the ordering point writes the dirty data
                // back, so every surviving copy is clean). Dragon: the dirty
                // owner keeps ownership as Sm (`O`), E → Sc (`S`) — memory
                // is *not* updated on cache-to-cache supply.
                let demote = |state| match (protocol, state) {
                    (ProtocolKind::Dragon, L1State::M) => L1State::O,
                    (ProtocolKind::Dragon, L1State::E) => L1State::S,
                    (ProtocolKind::Dragon, s) => s,
                    (_, L1State::M | L1State::E) => L1State::S,
                    (_, s) => s,
                };
                match self.supply(block, invalidate, demote) {
                    Some(copy) if copy.resident => {
                        if invalidate {
                            self.invalidations += 1;
                        } else {
                            self.fetches += 1;
                        }
                        (true, copy.dirty, Some(copy.data))
                    }
                    Some(copy) => (copy.dirty, copy.dirty, copy.dirty.then_some(copy.data)),
                    None => (false, false, None),
                }
            }
            SnoopKind::Upd(word) => {
                // Dragon write-update: patch a live shared copy in place; an
                // Sm owner demotes to Sc (the writer becomes the owner). A
                // copy that raced to M/E via the invalidating RdX path does
                // not apply — the writer was invalidated by that same round
                // and will re-read before retrying its store.
                match self.array.peek_idx(block) {
                    Some(i) if matches!(self.array.meta_at(i).state, L1State::S | L1State::O) => {
                        self.array.meta_at_mut(i).state = L1State::S;
                        word.apply(self.array.data_at_mut(i));
                        (true, false, None)
                    }
                    _ => (false, false, None),
                }
            }
        };
        out.responses.push(L1ToDir::SnoopResp {
            from: self.id,
            block,
            had,
            dirty,
            data,
        });
    }

    /// Dragon: the ordering point serialized our write-update round. Apply
    /// the store that headed the round, take ownership (Sm when sharers
    /// acknowledged live copies, M when we are now alone), and keep draining.
    fn on_upd_done(&mut self, block: u64, sharers: bool, out: &mut L1Out) {
        let state = self.array.peek(block).map_or(L1State::I, |l| l.state);
        if !state.readable() {
            // A racing RdX invalidated our copy after the round was issued:
            // re-read first (the invalidation's `claim_freed_way` converted
            // the freed way into our fill reservation), then the fill drain
            // retries the store.
            out.requests.push(Request {
                kind: ReqKind::BusRd,
                from: self.id,
                block,
                data: None,
                retain: false,
            });
            return;
        }
        let mshr = self.mshrs.get_mut(&block).expect("UpdDone without MSHR");
        let w = mshr.waiters.remove(0);
        debug_assert!(
            matches!(w.access, Access::Write { .. }),
            "update round headed by a non-store"
        );
        let value = self.perform_write(w.access);
        self.array.lookup_mut(block).expect("resident").state =
            if sharers { L1State::O } else { L1State::M };
        out.completions.push((w.token, value, block));
        self.maybe_write_through(block, out);
        self.drain_waiters(block, out);
    }

    fn on_fill(&mut self, block: u64, grant: Grant, data: BlockData, out: &mut L1Out) {
        let state = match grant {
            Grant::S => L1State::S,
            Grant::E => L1State::E,
            Grant::M => L1State::M,
        };
        // Snooping protocols grant data even on upgrades (a `BusRdX` from S
        // answers with `Data{M}`, dissolving the upgrade/invalidate race the
        // directory resolves with `AckM`): install in place, no reservation
        // was taken for a resident line.
        if !self.protocol.uses_directory() {
            if let Some(i) = self.array.peek_idx(block) {
                // A dirty resident copy is the block's most current version
                // (Dragon: the Sm owner re-serializing through `BusRdX` for an
                // atomic) — the fill's bytes may be a stale L2 copy, so only
                // the permission upgrade applies.
                if !self.array.meta_at(i).state.dirty() {
                    self.array.set_data(block, data);
                }
                self.array.meta_at_mut(i).state = state;
                self.drain_waiters(block, out);
                return;
            }
        }
        let set = self.array.set_of(block);
        let r = self
            .reserved
            .get_mut(&set)
            .expect("fill without reservation");
        *r -= 1;
        if *r == 0 {
            self.reserved.remove(&set);
        }
        let evicted = self.array.insert(block, Line { state }, data);
        debug_assert!(evicted.is_none(), "reservation failed to hold a way");
        self.drain_waiters(block, out);
    }

    /// Completes as many waiters as the current state allows; escalates to a
    /// GetM if writers remain with only read permission.
    fn drain_waiters(&mut self, block: u64, out: &mut L1Out) {
        let Some(mut mshr) = self.mshrs.remove(&block) else {
            return;
        };
        let mut remaining = Vec::new();
        for w in mshr.waiters.drain(..) {
            let state = self.array.peek(block).map_or(L1State::I, |l| l.state);
            match w.access {
                Access::Read { paddr, size } => {
                    debug_assert!(state.readable(), "fill left block unreadable");
                    out.completions.push((
                        w.token,
                        {
                            let d = self.array.data(block);
                            word_from_block(&d, paddr, size)
                        },
                        block,
                    ));
                }
                Access::Write { .. } | Access::Rmw { .. } => {
                    if matches!(state, L1State::M | L1State::E) {
                        let value = self.perform_write(w.access);
                        self.array.lookup_mut(block).expect("resident").state = L1State::M;
                        out.completions.push((w.token, value, block));
                        self.maybe_write_through(block, out);
                    } else {
                        remaining.push(w);
                    }
                }
            }
        }
        if !remaining.is_empty() {
            // Escalate in the protocol's vocabulary: GetM (directory) /
            // BusRdX (snooping MESI) for the whole batch, or — Dragon — an
            // update round for the store at the head of the queue (each
            // UpdDone drains back through here for the next one).
            let state = self.array.peek(block).map_or(L1State::I, |l| l.state);
            let kind = self.miss_request_kind(state, remaining[0].access);
            self.mshrs.insert(
                block,
                Mshr {
                    wants_m: true,
                    waiters: remaining,
                },
            );
            out.requests.push(Request {
                kind,
                from: self.id,
                block,
                data: None,
                retain: false,
            });
        }
    }

    /// Untimed read of a resident block (used for coalesced lane accesses and
    /// the backdoor). Returns `None` when the block is not readable here.
    pub fn peek_word(&self, addr: PhysAddr, size: usize) -> Option<u64> {
        let block = block_of(addr);
        let i = self.array.peek_idx(block)?;
        if !self.array.meta_at(i).state.readable() {
            return None;
        }
        Some(word_from_block(self.array.data_at(i), addr, size))
    }

    /// Untimed write to a block held in M or E (E silently upgrades to M).
    /// Returns `false` when the cache lacks write permission.
    pub fn poke_word(&mut self, addr: PhysAddr, size: usize, value: u64) -> bool {
        let block = block_of(addr);
        match self.array.peek_idx(block) {
            Some(i) if matches!(self.array.meta_at(i).state, L1State::M | L1State::E) => {
                self.array.meta_at_mut(i).state = L1State::M;
                let off = offset_in_block(addr);
                self.array.data_at_mut(i)[off..off + size]
                    .copy_from_slice(&value.to_le_bytes()[..size]);
                true
            }
            _ => false,
        }
    }

    /// Functionally overwrites bytes of a resident block (any valid state),
    /// for the machine's coherent backdoor. Returns `false` if not resident.
    pub fn backdoor_patch(&mut self, block: u64, off: usize, bytes: &[u8]) -> bool {
        match self.array.peek(block) {
            Some(line) if line.state.readable() => {
                self.array.write(block, off, bytes);
                true
            }
            _ => false,
        }
    }

    /// State of `block` for tests/assertions and the coherent backdoor.
    pub fn probe(&self, block: u64) -> (L1State, Option<BlockData>) {
        match self.array.peek(block) {
            Some(line) => (line.state, Some(self.array.data(block))),
            None => (L1State::I, None),
        }
    }

    /// Whether this L1 has any outstanding misses or evictions in flight.
    pub fn quiescent(&self) -> bool {
        self.mshrs.is_empty() && self.evict_buf.is_empty()
    }

    /// Blocks resident in any valid state, with their states (the
    /// sanitizer's whole-cache sweep).
    pub fn resident_blocks(&self) -> Vec<(u64, L1State)> {
        self.array.iter().map(|(b, line)| (b, line.state)).collect()
    }

    /// Whether this L1 has an in-flight miss (MSHR) on `block`. The
    /// snooping-protocol sanitizer checks stand down on such blocks: between
    /// a sharer applying an update and the writer's `UpdDone` (or between an
    /// invalidating probe and its grant) the copies legitimately disagree.
    pub fn mshr_on(&self, block: u64) -> bool {
        self.mshrs.contains_key(&block)
    }

    /// Whether this L1 holds `block` in its eviction buffer (a writeback in
    /// flight that still answers snoops until its PutAck).
    pub fn evicting(&self, block: u64) -> bool {
        self.evict_buf.contains_key(&block)
    }

    /// Blocks with an in-flight miss (MSHR allocated), sorted — the
    /// per-port "outstanding accesses" line of the watchdog's diagnostic
    /// dump.
    pub fn outstanding_blocks(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.mshrs.keys().copied().collect();
        v.sort_unstable();
        v
    }

    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("loads", self.loads as f64);
        s.set("stores", self.stores as f64);
        s.set("atomics", self.atomics as f64);
        s.set("hits", self.hits as f64);
        s.set("misses", self.misses as f64);
        s.set("merged_misses", self.merged_misses as f64);
        s.set("retries", self.retries as f64);
        s.set("writebacks", self.writebacks as f64);
        s.set("invalidations", self.invalidations as f64);
        s.set("fetches", self.fetches as f64);
        if self.lenient {
            s.set("spurious_fetches", self.spurious_fetches as f64);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::msg::Grant;

    fn test_l1() -> L1 {
        L1::new(
            PortId(0),
            L1Config {
                node: NodeId(0),
                cache: CacheConfig { sets: 4, ways: 2 },
                hit_time: Time::from_ps(690),
                max_mshrs: 4,
                write_policy: WritePolicy::WriteBack,
            },
            ProtocolKind::Directory,
        )
    }

    /// Everything a journal restores: the whole L1, counters included.
    fn state(l1: &L1) -> String {
        format!("{l1:?}")
    }

    /// Miss on `block` and deliver the fill, leaving it resident in `grant`.
    fn install(l1: &mut L1, block: u64, grant: Grant) {
        let mut out = L1Out::default();
        let r = l1.access(
            Access::Read {
                paddr: PhysAddr(block * crate::BLOCK_BYTES),
                size: 8,
            },
            0xB000 + block,
            &mut out,
        );
        assert_eq!(r, L1Access::Pending);
        let mut data = [0u8; crate::BLOCK_BYTES as usize];
        data[..8].copy_from_slice(&(0xD00D_0000 + block).to_le_bytes());
        l1.on_dir_msg(DirToL1::Data { block, grant, data }, &mut out);
    }

    /// Speculative mutations across several sets: write hits, an eviction
    /// (set pressure), a fresh miss, a doomed retry and a poke.
    fn churn(l1: &mut L1, out: &mut L1Out) {
        let w = |block: u64| Access::Write {
            paddr: PhysAddr(block * crate::BLOCK_BYTES),
            size: 8,
            value: 0xFEED + block,
        };
        assert!(matches!(l1.access(w(1), 1, out), L1Access::Hit { .. }));
        assert!(matches!(l1.access(w(5), 2, out), L1Access::Hit { .. }));
        // Set 1 holds blocks 1 and 5; a third conflicting miss evicts.
        assert_eq!(l1.access(w(9), 3, out), L1Access::Pending);
        // Fresh miss in an untouched set.
        assert_eq!(
            l1.access(
                Access::Read {
                    paddr: PhysAddr(2 * crate::BLOCK_BYTES),
                    size: 4
                },
                4,
                out
            ),
            L1Access::Pending
        );
        l1.count_doomed_retry(w(9));
        l1.poke_word(PhysAddr(crate::BLOCK_BYTES + 16), 8, 0xCAFE);
    }

    /// Rollback puts the L1 back exactly as it was at begin.
    #[test]
    fn spec_rollback_restores_snapshot_bytes() {
        let mut l1 = test_l1();
        for (b, g) in [(1, Grant::M), (5, Grant::E), (3, Grant::S)] {
            install(&mut l1, b, g);
        }
        let state0 = state(&l1);
        l1.spec_begin();
        churn(&mut l1, &mut L1Out::default());
        l1.spec_rollback();
        assert_eq!(state(&l1), state0, "rollback must be exact");
    }

    /// Commit leaves the L1 exactly as an unjournaled twin that did the
    /// same work.
    #[test]
    fn spec_commit_matches_unspeculated_twin() {
        let mut spec = test_l1();
        let mut plain = test_l1();
        for l1 in [&mut spec, &mut plain] {
            for (b, g) in [(1, Grant::M), (5, Grant::E), (3, Grant::S)] {
                install(l1, b, g);
            }
        }
        let mut out_s = L1Out::default();
        let mut out_p = L1Out::default();
        spec.spec_begin();
        churn(&mut spec, &mut out_s);
        spec.spec_commit();
        churn(&mut plain, &mut out_p);
        assert_eq!(state(&spec), state(&plain));
        assert_eq!(format!("{out_s:?}"), format!("{out_p:?}"));
    }
}
