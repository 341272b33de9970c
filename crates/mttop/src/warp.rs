//! Lane and warp state: each context's registers and PC, the memory op a
//! lane has staged, the warp's scheduling state, and its cursor into the
//! decoded image.

use ccsvm_isa::{Instr, MemOperand, Reg};
use ccsvm_mem::{Access, AtomicOp, PhysAddr};
use ccsvm_vm::VirtAddr;

use crate::pipeline::Plan;

#[derive(Clone, Debug)]
pub(crate) struct Lane {
    pub(crate) regs: [u64; 32],
    pub(crate) pc: usize,
    pub(crate) live: bool,
    /// This lane's share of its warp's memory instruction in progress.
    /// Meaningful only while a [`Plan::lanes`] or
    /// [`crate::pipeline::Flight::lanes`] set names the lane: plans,
    /// coalesced groups and flights are lane *sets* over these slots, so
    /// none of them owns (or allocates) op storage.
    pub(crate) op: LaneOp,
}

/// The lanes selected by `set`, in ascending order.
pub(crate) fn lanes_of(mut set: u8) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let li = set.trailing_zeros() as usize;
            set &= set - 1;
            li
        })
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WarpState {
    Free,
    Ready,
    /// Waiting for outstanding memory flights.
    Mem,
    /// A PTE read for this warp's walk is in flight.
    Walk,
    /// Waiting for the core's single walker to free up.
    WalkQueued,
    /// Waiting for the machine to resolve a fault.
    Fault,
}

/// Per-warp execution context. The scheduler-scanned fields (`state`,
/// `ready_at`) live in compact parallel arrays on [`crate::MttopCore`]
/// instead: the ready scan runs every core cycle over every warp, and
/// walking one large struct per warp made that scan touch a cache line per
/// warp.
#[derive(Clone, Debug)]
pub(crate) struct Warp {
    pub(crate) lanes: Vec<Lane>,
    pub(crate) outstanding: usize,
    /// Memory plan being translated/issued.
    pub(crate) plan: Option<Plan>,
}

impl Warp {
    pub(crate) fn live(&self) -> bool {
        self.lanes.iter().any(|l| l.live)
    }
}

/// What kind of access each lane performs: a [`MemOperand`] with its
/// atomic resolved to the [`AtomicOp`] the L1 performs.
#[derive(Clone, Copy, Debug)]
pub(crate) enum LaneKind {
    Ld { rd: Reg, size: u8 },
    St { size: u8, value: u64 },
    Amo { rd: Reg, op: AtomicOp },
}

impl From<MemOperand> for LaneKind {
    fn from(m: MemOperand) -> LaneKind {
        match m {
            MemOperand::Ld { rd, size } => LaneKind::Ld { rd, size },
            MemOperand::St { size, value } => LaneKind::St { size, value },
            MemOperand::Amo { rd, op, a, b } => LaneKind::Amo {
                rd,
                op: AtomicOp::from_amo(op, a, b),
            },
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct LaneOp {
    pub(crate) va: VirtAddr,
    pub(crate) paddr: Option<PhysAddr>,
    pub(crate) kind: LaneKind,
}

impl LaneOp {
    /// Content of a [`Lane::op`] slot no lane set names.
    pub(crate) const IDLE: LaneOp = LaneOp {
        va: VirtAddr(0),
        paddr: None,
        kind: LaneKind::Ld {
            rd: Reg(0),
            size: 0,
        },
    };

    /// The untranslated op of memory instruction `instr` for a lane with
    /// register file `regs`.
    ///
    /// # Panics
    ///
    /// Panics if `instr` is not `Ld`/`St`/`Amo`.
    pub(crate) fn of(instr: Instr, regs: &[u64; 32]) -> LaneOp {
        let (va, operand) = instr.mem_operand(regs).expect("memory instruction");
        LaneOp {
            va: VirtAddr(va),
            paddr: None,
            kind: operand.into(),
        }
    }

    /// The timed access this translated op performs.
    pub(crate) fn access(&self) -> Access {
        let paddr = self.paddr.expect("translated");
        match self.kind {
            LaneKind::Ld { size, .. } => Access::Read {
                paddr,
                size: size as usize,
            },
            LaneKind::St { size, value } => Access::Write {
                paddr,
                size: size as usize,
                value,
            },
            LaneKind::Amo { op, .. } => Access::Rmw { paddr, size: 8, op },
        }
    }
}

/// Per-warp cursor into a straight-line run of the decoded image
/// (`ccsvm_isa::decode`). While valid (`rem > 0`), `MttopCore::issue`
/// retires one micro-op per issue slot for the cached participating-lane set
/// without recomputing the min-PC set or re-matching the `Instr` enum.
/// Strictly host-side: cleared on task assignment and revalidated (expected
/// PC) before every use, so a stale cursor is harmless.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SbCursor {
    /// Micro-ops this warp may still execute from the run; `0` = invalid.
    /// Capped at entry so the run ends exactly where a lagging live lane's
    /// PC forces the min-PC participating set to be recomputed
    /// (reconvergence — see the crate docs).
    pub(crate) rem: u32,
    /// Expected participating-lane PC at the next issue (validation); it
    /// also indexes the image.
    pub(crate) pc: u32,
    /// Participating lane set (bit per lane; `lanes <= 8`).
    pub(crate) mask: u8,
    /// Participating lane count.
    pub(crate) np: u8,
    /// Live lane count at block entry (for the `divergent_issues` counter;
    /// liveness cannot change while the warp is mid-block — only `exit`
    /// kills lanes, and `exit` is a superblock boundary).
    pub(crate) live: u8,
}

impl SbCursor {
    pub(crate) const INVALID: SbCursor = SbCursor {
        rem: 0,
        pc: 0,
        mask: 0,
        np: 0,
        live: 0,
    };
}
