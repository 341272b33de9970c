//! Coherence protocol messages and memory-system events.

use ccsvm_isa::AmoKind;

use crate::addr::BLOCK_BYTES;
use crate::system::PortId;

/// Read-modify-write operations the MTTOP ISA provides (paper §3.2.4: the
/// OpenCL-style atomics `atomic_cas`, `atomic_add`, `atomic_inc`,
/// `atomic_dec`, plus exchange). All are performed at the L1 after acquiring
/// exclusive (M) coherence permission.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AtomicOp {
    /// Compare-and-swap: if current == `expected`, store `value`. The old
    /// value is returned either way.
    Cas {
        /// Value the location must hold for the swap to happen.
        expected: u64,
        /// Replacement value.
        value: u64,
    },
    /// Fetch-and-add of `value` (wrapping).
    Add {
        /// Addend.
        value: u64,
    },
    /// Fetch-and-increment.
    Inc,
    /// Fetch-and-decrement.
    Dec,
    /// Exchange with `value`.
    Exch {
        /// New value.
        value: u64,
    },
}

impl AtomicOp {
    /// The operation an ISA atomic of kind `kind` performs, given the values
    /// of its operand registers: `a` is the addend, exchange value or CAS
    /// expected value, and `b` the CAS replacement.
    pub fn from_amo(kind: AmoKind, a: u64, b: u64) -> AtomicOp {
        match kind {
            AmoKind::Cas => AtomicOp::Cas {
                expected: a,
                value: b,
            },
            AmoKind::Add => AtomicOp::Add { value: a },
            AmoKind::Inc => AtomicOp::Inc,
            AmoKind::Dec => AtomicOp::Dec,
            AmoKind::Exch => AtomicOp::Exch { value: a },
        }
    }

    /// Applies the operation to `old`, returning the new stored value.
    pub fn apply(self, old: u64) -> u64 {
        match self {
            AtomicOp::Cas { expected, value } => {
                if old == expected {
                    value
                } else {
                    old
                }
            }
            AtomicOp::Add { value } => old.wrapping_add(value),
            AtomicOp::Inc => old.wrapping_add(1),
            AtomicOp::Dec => old.wrapping_sub(1),
            AtomicOp::Exch { value } => value,
        }
    }
}

/// Identifies an L2/directory bank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BankId(pub usize);

/// Cache-block payload carried by data messages.
pub type BlockData = [u8; BLOCK_BYTES as usize];

/// One word-granular store broadcast by the Dragon write-update protocol:
/// instead of invalidating sharers, the writer pushes the stored bytes to
/// every valid copy through the block's home-bank ordering point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct UpdWord {
    /// Byte offset of the store within its cache block.
    pub off: u8,
    /// Store width in bytes (1/2/4/8).
    pub size: u8,
    /// The stored value (little-endian, low `size` bytes significant).
    pub value: u64,
}

impl UpdWord {
    /// Applies the store to a block payload in place.
    pub fn apply(self, data: &mut BlockData) {
        let off = self.off as usize;
        let size = (self.size as usize).min(8);
        data[off..off + size].copy_from_slice(&self.value.to_le_bytes()[..size]);
    }
}

/// Coherence request types an L1 sends to a block's home bank. `GetS`..
/// `PutClean` form the directory protocol's vocabulary; `BusRd`/`BusRdX`/
/// `BusUpd` are the bus-transaction kinds of the snooping protocols, for
/// which the home bank acts as the per-block bus ordering point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// Read permission (grants S, or E when unshared).
    GetS,
    /// Write permission (grants M; invalidates other copies).
    GetM,
    /// Writeback of a dirty block (from M or O).
    PutDirty,
    /// Eviction notice for a clean block (from E or S).
    PutClean,
    /// Snooping read: broadcast `Snoop(Rd)`, source data from the best
    /// supplier (dirty cache > clean cache > L2 > DRAM), grant E when no
    /// other cache held a copy.
    BusRd,
    /// Snooping read-exclusive: broadcast `Snoop(RdX)`, invalidate every
    /// other copy, grant M with data.
    BusRdX,
    /// Dragon write-update round: broadcast `Snoop(Upd)` carrying the
    /// store, collect acks, answer the writer with `UpdDone`.
    BusUpd(UpdWord),
}

/// A request message travelling L1 → directory.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Request {
    pub kind: ReqKind,
    pub from: PortId,
    pub block: u64,
    /// Dirty data for `PutDirty`.
    pub data: Option<BlockData>,
    /// For `PutDirty`: the sender keeps ownership (write-through mode) rather
    /// than dropping the block.
    pub retain: bool,
}

/// Messages travelling directory → L1.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum DirToL1 {
    /// Grant with data and an installation state.
    Data {
        block: u64,
        grant: Grant,
        data: BlockData,
    },
    /// Upgrade grant (requestor already holds valid data).
    AckM { block: u64 },
    /// Invalidate a shared/owned copy; respond with `InvResp`.
    Inv { block: u64 },
    /// Owner must send current data to the directory and downgrade to O.
    Fetch { block: u64 },
    /// Owner must send current data to the directory and invalidate.
    FetchInv { block: u64 },
    /// A Put transaction finished (possibly as a stale no-op). `retain`
    /// echoes the `PutDirty`'s: a retaining (write-through) push's ack does
    /// not end an eviction.
    PutAck { block: u64, retain: bool },
    /// Snooping protocols: the ordering point probes this L1 for `block`;
    /// respond with `SnoopResp` (and react per [`SnoopKind`]).
    Snoop { block: u64, kind: SnoopKind },
    /// Dragon: the write-update round for `block` is ordered; the writer may
    /// now apply its store locally, as Sm (owner) when other sharers
    /// acknowledged a copy, else as M.
    UpdDone { block: u64, sharers: bool },
}

/// What a snooped L1 must do besides answering [`L1ToDir::SnoopResp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum SnoopKind {
    /// Another cache reads: supply data, demote a writable copy to shared
    /// (MESI: M/E→S; Dragon: M→Sm, E→Sc).
    Rd,
    /// Another cache writes: supply dirty data and invalidate.
    RdX,
    /// Dragon write-update: apply the word to a valid copy in place
    /// (Sm demotes to Sc — the writer becomes the owner).
    Upd(UpdWord),
}

/// Installation state granted with a data response.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Grant {
    /// Shared, clean.
    S,
    /// Exclusive, clean (no other sharers existed).
    E,
    /// Modified (write permission).
    M,
}

/// Responses travelling L1 → directory.
#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::enum_variant_names)] // they *are* all responses; the prefix names the sender
pub(crate) enum L1ToDir {
    /// Acknowledges an `Inv`; carries data when the L1 held the block dirty
    /// in its eviction buffer.
    InvResp {
        from: PortId,
        block: u64,
        data: Option<BlockData>,
    },
    /// Responds to `Fetch`/`FetchInv` with the owner's current data.
    FetchResp {
        from: PortId,
        block: u64,
        data: BlockData,
        dirty: bool,
    },
    /// Answers a [`DirToL1::Snoop`] probe. `had` reports whether this L1
    /// held a valid copy (or a dirty writeback in flight); `data` carries
    /// the copy when one existed, `dirty` whether it was modified.
    SnoopResp {
        from: PortId,
        block: u64,
        had: bool,
        dirty: bool,
        data: Option<BlockData>,
    },
}

impl L1ToDir {
    /// The responding port and the block the response names.
    pub(crate) fn origin(&self) -> (PortId, u64) {
        match *self {
            L1ToDir::InvResp { from, block, .. }
            | L1ToDir::FetchResp { from, block, .. }
            | L1ToDir::SnoopResp { from, block, .. } => (from, block),
        }
    }
}

/// An internal memory-system event. The machine model wraps these in its own
/// event type and hands them back to [`crate::MemorySystem::handle`] at the
/// scheduled time.
#[derive(Clone, Debug)]
pub struct MemEvent(pub(crate) MemEventKind);

#[derive(Clone, Debug)]
pub(crate) enum MemEventKind {
    /// A request arrived at its home bank.
    ReqArrive(Request),
    /// A directory message arrived at an L1.
    DirArrive(PortId, DirToL1),
    /// An L1 response arrived back at a bank.
    RespArrive(BankId, L1ToDir),
    /// A DRAM read for `block` completed at `bank`.
    DramReadDone { bank: BankId, block: u64 },
    /// Bank finished its fixed access latency and can start working on the
    /// transaction for `block`.
    BankReady { bank: BankId, block: u64 },
    /// A directory transaction at `bank` for `block` has waited long enough
    /// on invalidation/fetch responses to NACK and re-solicit them. `epoch`
    /// identifies which solicitation round armed the timer; a re-solicit
    /// bumps the transaction's epoch, turning older timeout events stale.
    DirTimeout {
        bank: BankId,
        block: u64,
        epoch: u64,
    },
}

impl MemEvent {
    /// Whether this event delivers a directory→L1 data grant (the message
    /// that completes a miss). Exposed for fault-injection test knobs that
    /// simulate a lost completion.
    pub fn is_data_delivery(&self) -> bool {
        matches!(self.0, MemEventKind::DirArrive(_, DirToL1::Data { .. }))
    }

    /// The block of an L1→directory response event, if this is one. Exposed
    /// for fault-injection test knobs that black-hole a responder.
    pub fn resp_block(&self) -> Option<u64> {
        match &self.0 {
            MemEventKind::RespArrive(_, resp) => Some(resp.origin().1),
            _ => None,
        }
    }

    /// The cache block this event concerns (the sanitizer's scoped
    /// post-event checks re-verify exactly this block's invariants).
    pub fn block(&self) -> u64 {
        match &self.0 {
            MemEventKind::ReqArrive(req) => req.block,
            MemEventKind::DirArrive(_, msg) => match msg {
                DirToL1::Data { block, .. }
                | DirToL1::AckM { block }
                | DirToL1::Inv { block }
                | DirToL1::Fetch { block }
                | DirToL1::FetchInv { block }
                | DirToL1::PutAck { block, .. }
                | DirToL1::Snoop { block, .. }
                | DirToL1::UpdDone { block, .. } => *block,
            },
            MemEventKind::RespArrive(_, resp) => resp.origin().1,
            MemEventKind::DramReadDone { block, .. }
            | MemEventKind::BankReady { block, .. }
            | MemEventKind::DirTimeout { block, .. } => *block,
        }
    }

    /// Whether this event delivers an L1→directory response.
    pub fn is_resp(&self) -> bool {
        matches!(self.0, MemEventKind::RespArrive(..))
    }

    /// The event's kind and endpoint, for the machine's trace: the
    /// requesting port of a `ReqArrive`, the receiving port of a
    /// `DirArrive`, and the bank of every other kind.
    pub fn kind(&self) -> (MemKind, usize) {
        match &self.0 {
            MemEventKind::ReqArrive(req) => (MemKind::ReqArrive, req.from.0),
            MemEventKind::DirArrive(port, _) => (MemKind::DirArrive, port.0),
            MemEventKind::RespArrive(bank, _) => (MemKind::RespArrive, bank.0),
            MemEventKind::DramReadDone { bank, .. } => (MemKind::DramReadDone, bank.0),
            MemEventKind::BankReady { bank, .. } => (MemKind::BankReady, bank.0),
            MemEventKind::DirTimeout { bank, .. } => (MemKind::DirTimeout, bank.0),
        }
    }

    /// Whether this event delivers a shared-grant data fill (the class the
    /// grant/payload mutations count when locating their nth target).
    pub fn is_s_grant(&self) -> bool {
        matches!(
            &self.0,
            MemEventKind::DirArrive(
                _,
                DirToL1::Data {
                    grant: Grant::S,
                    ..
                }
            )
        )
    }

    /// Test-only sanitizer mutation: upgrade a shared-grant data delivery to
    /// a modified grant (manufactures a second writable copy ⇒ `MEM-SWMR`).
    /// Returns whether this event matched.
    pub fn test_upgrade_s_grant(&mut self) -> bool {
        if let MemEventKind::DirArrive(_, DirToL1::Data { grant, .. }) = &mut self.0 {
            if *grant == Grant::S {
                *grant = Grant::M;
                return true;
            }
        }
        false
    }

    /// Test-only sanitizer mutation: flip one payload byte of a shared-grant
    /// data delivery (⇒ `MEM-DATA-VALUE`). Returns whether it matched.
    pub fn test_flip_s_fill_byte(&mut self) -> bool {
        if let MemEventKind::DirArrive(_, DirToL1::Data { grant, data, .. }) = &mut self.0 {
            if *grant == Grant::S {
                data[0] ^= 0xFF;
                return true;
            }
        }
        false
    }

    /// Whether this event delivers a snoop response that reported a live
    /// shared copy (the class [`ccsvm_engine::MutationKind::CorruptSnoopShared`] counts).
    pub fn is_shared_snoop_resp(&self) -> bool {
        matches!(
            &self.0,
            MemEventKind::RespArrive(_, L1ToDir::SnoopResp { had: true, .. })
        )
    }

    /// Test-only sanitizer mutation: erase a snoop response's report of a
    /// live copy, so the ordering point grants exclusive while that sharer
    /// survives (⇒ `MEM-SWMR` under the snooping protocols). Returns whether
    /// this event matched.
    pub fn test_clear_snoop_shared(&mut self) -> bool {
        if let MemEventKind::RespArrive(
            _,
            L1ToDir::SnoopResp {
                had, dirty, data, ..
            },
        ) = &mut self.0
        {
            if *had {
                *had = false;
                *dirty = false;
                *data = None;
                return true;
            }
        }
        false
    }

    /// Whether this event delivers a Dragon write-update probe (the class
    /// [`ccsvm_engine::MutationKind::CorruptUpdValue`] counts).
    pub fn is_upd_snoop(&self) -> bool {
        matches!(
            &self.0,
            MemEventKind::DirArrive(
                _,
                DirToL1::Snoop {
                    kind: SnoopKind::Upd(_),
                    ..
                }
            )
        )
    }

    /// Test-only sanitizer mutation: flip the payload of a write-update
    /// probe, so one sharer applies a different value than the writer
    /// (⇒ `MEM-DATA-VALUE` under Dragon). Returns whether it matched.
    pub fn test_corrupt_upd_value(&mut self) -> bool {
        if let MemEventKind::DirArrive(
            _,
            DirToL1::Snoop {
                kind: SnoopKind::Upd(word),
                ..
            },
        ) = &mut self.0
        {
            word.value ^= 0xFF;
            return true;
        }
        false
    }

    /// Whether this event delivers any bank→L1 snoop probe (the
    /// `SnoopProbe` fault domain's carrier — probes are idempotent, so a
    /// dropped one is always recoverable by a timeout resend).
    pub fn is_snoop_probe(&self) -> bool {
        matches!(&self.0, MemEventKind::DirArrive(_, DirToL1::Snoop { .. }))
    }

    /// For an L1→bank `SnoopResp`, the `(home bank, block)` it answers to —
    /// the `UpdAck` fault domain needs them to check whether the response
    /// belongs to a write-update round (where losing it is recoverable)
    /// before rolling the drop dice.
    pub fn snoop_resp_target(&self) -> Option<(BankId, u64)> {
        match &self.0 {
            MemEventKind::RespArrive(bank, L1ToDir::SnoopResp { block, .. }) => {
                Some((*bank, *block))
            }
            _ => None,
        }
    }

    /// For a solicitation-round timeout, its `(bank, block, epoch)` — the
    /// `CorruptResendEpoch` mutation counts timeouts that would hit a live
    /// snoop round.
    pub fn dir_timeout(&self) -> Option<(BankId, u64, u64)> {
        match &self.0 {
            MemEventKind::DirTimeout { bank, block, epoch } => Some((*bank, *block, *epoch)),
            _ => None,
        }
    }
}

/// The six kinds of [`MemEvent`], without their payloads: what the
/// machine's trace records of a memory event. A DRAM read shows up as its
/// `DramReadDone`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// A request arrived at its home bank.
    ReqArrive,
    /// A directory message arrived at an L1.
    DirArrive,
    /// An L1 response arrived back at a bank.
    RespArrive,
    /// A DRAM read completed at a bank.
    DramReadDone,
    /// A bank finished its access latency for a transaction.
    BankReady,
    /// A directory solicitation round timed out.
    DirTimeout,
}

// ---------------------------------------------------------------------------
// Trace codec.

use ccsvm_snap::{Codec, SnapError, SnapReader, SnapWriter};

/// The machine's trace stores a kind as a `u64`: its index in declaration
/// order.
impl Codec for MemKind {
    const MIN_BYTES: usize = 8;

    fn put(&self, w: &mut SnapWriter) {
        (*self as u64).put(w);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<MemKind, SnapError> {
        use MemKind::*;
        let all = [
            ReqArrive,
            DirArrive,
            RespArrive,
            DramReadDone,
            BankReady,
            DirTimeout,
        ];
        let tag = u64::get(r)?;
        usize::try_from(tag)
            .ok()
            .and_then(|i| all.get(i).copied())
            .ok_or_else(|| SnapError::Corrupt {
                what: format!("unknown MemKind tag {tag}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_ops_apply() {
        assert_eq!(
            AtomicOp::Cas {
                expected: 3,
                value: 9
            }
            .apply(3),
            9
        );
        assert_eq!(
            AtomicOp::Cas {
                expected: 3,
                value: 9
            }
            .apply(4),
            4
        );
        assert_eq!(AtomicOp::Add { value: 5 }.apply(10), 15);
        assert_eq!(AtomicOp::Add { value: 1 }.apply(u64::MAX), 0);
        assert_eq!(AtomicOp::Inc.apply(7), 8);
        assert_eq!(AtomicOp::Dec.apply(7), 6);
        assert_eq!(AtomicOp::Dec.apply(0), u64::MAX);
        assert_eq!(AtomicOp::Exch { value: 2 }.apply(99), 2);
    }

    #[test]
    fn unknown_tag_is_corrupt_not_panic() {
        let tag = 6u64.to_le_bytes();
        assert!(matches!(
            MemKind::get(&mut SnapReader::new(&tag)),
            Err(SnapError::Corrupt { .. })
        ));
        assert!(matches!(
            MemKind::get(&mut SnapReader::new(&tag[..3])),
            Err(SnapError::Truncated { .. })
        ));
    }
}
