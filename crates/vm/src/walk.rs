//! Virtual addresses and the 4-level hardware page-table walk.

use ccsvm_mem::PhysAddr;
use std::fmt;

/// Page size (x86 4 KiB pages).
pub const PAGE_BYTES: u64 = 4096;
/// Present bit in a PTE; the rest of the low 12 bits are reserved-zero and
/// bits 12+ hold the frame base.
pub const PTE_PRESENT: u64 = 1;

const LEVELS: u8 = 4;
const IDX_BITS: u64 = 9;
const IDX_MASK: u64 = (1 << IDX_BITS) - 1;

/// A virtual address in the process's shared address space.
///
/// # Examples
///
/// ```
/// use ccsvm_vm::VirtAddr;
/// let va = VirtAddr(0x7000_1234);
/// assert_eq!(va.page_offset(), 0x234);
/// assert_eq!(va.vpn(), 0x7000_1234 >> 12);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// Offset within the 4 KiB page.
    pub fn page_offset(self) -> u64 {
        self.0 % PAGE_BYTES
    }

    /// Virtual page number.
    pub fn vpn(self) -> u64 {
        self.0 / PAGE_BYTES
    }

    /// Base address of the containing page.
    pub fn page_base(self) -> VirtAddr {
        VirtAddr(self.0 & !(PAGE_BYTES - 1))
    }

    /// Page-table index at `level` (3 = root .. 0 = leaf).
    pub fn index(self, level: u8) -> u64 {
        debug_assert!(level < LEVELS);
        (self.0 >> (12 + IDX_BITS * level as u64)) & IDX_MASK
    }

    /// Byte offset addition.
    pub fn offset(self, bytes: u64) -> VirtAddr {
        VirtAddr(self.0 + bytes)
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VA({:#x})", self.0)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A page fault discovered by the walker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The faulting virtual address.
    pub va: VirtAddr,
    /// The level whose PTE was not present (3 = root .. 0 = leaf).
    pub level: u8,
}

/// In-progress hardware page-table walk.
///
/// The walker itself performs no memory accesses: the owning core reads
/// [`Walk::pte_addr`] through its cache hierarchy (PTEs are physically
/// addressed, cacheable and coherent) and feeds the value to [`Walk::feed`].
///
/// # Examples
///
/// ```
/// use ccsvm_mem::PhysAddr;
/// use ccsvm_vm::{VirtAddr, Walk, WalkResult, PTE_PRESENT};
///
/// let mut walk = Walk::new(PhysAddr(0x1000), VirtAddr(0x2000));
/// // Pretend every level points at table frame 0x5000.
/// for _ in 0..3 {
///     match walk.feed(0x5000 | PTE_PRESENT) {
///         WalkResult::Continue(w) => walk = w,
///         other => panic!("unexpected {other:?}"),
///     }
/// }
/// match walk.feed(0x9000 | PTE_PRESENT) {
///     WalkResult::Done(pa) => assert_eq!(pa, PhysAddr(0x9000)),
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Walk {
    va: VirtAddr,
    level: u8,
    table: PhysAddr,
}

/// Outcome of feeding one PTE to a [`Walk`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkResult {
    /// Another level to read.
    Continue(Walk),
    /// Translation complete: the physical base of the mapped frame.
    Done(PhysAddr),
    /// Not present at some level.
    Fault(Fault),
}

impl Walk {
    /// Starts a walk of `va` from the root table at `cr3`.
    pub fn new(cr3: PhysAddr, va: VirtAddr) -> Walk {
        Walk {
            va,
            level: LEVELS - 1,
            table: cr3,
        }
    }

    /// The virtual address being translated.
    pub fn va(&self) -> VirtAddr {
        self.va
    }

    /// Physical address of the PTE the core must read next.
    pub fn pte_addr(&self) -> PhysAddr {
        PhysAddr(self.table.0 + self.va.index(self.level) * 8)
    }

    /// Consumes the PTE value read at [`Walk::pte_addr`].
    pub fn feed(self, pte: u64) -> WalkResult {
        if pte & PTE_PRESENT == 0 {
            return WalkResult::Fault(Fault {
                va: self.va,
                level: self.level,
            });
        }
        let next = PhysAddr(pte & !(PAGE_BYTES - 1));
        if self.level == 0 {
            WalkResult::Done(next)
        } else {
            WalkResult::Continue(Walk {
                va: self.va,
                level: self.level - 1,
                table: next,
            })
        }
    }
}

/// Combines a frame base with the page offset of `va`.
pub fn frame_plus_offset(frame: PhysAddr, va: VirtAddr) -> PhysAddr {
    PhysAddr(frame.0 + va.page_offset())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn va_decomposition() {
        let va = VirtAddr(0x0000_7FFF_FFFF_FFFF);
        assert_eq!(va.index(3), 0xFF);
        assert_eq!(va.index(2), 0x1FF);
        assert_eq!(va.index(1), 0x1FF);
        assert_eq!(va.index(0), 0x1FF);
        assert_eq!(va.page_offset(), 0xFFF);
        let va = VirtAddr(0x4000_1000);
        assert_eq!(va.vpn(), 0x40001);
        assert_eq!(va.page_base(), VirtAddr(0x4000_1000));
        assert_eq!(VirtAddr(0x4000_1234).page_base(), VirtAddr(0x4000_1000));
    }

    #[test]
    fn walk_addresses_follow_indices() {
        let va = VirtAddr(0x4000_1234);
        let w = Walk::new(PhysAddr(0x10_0000), va);
        assert_eq!(w.pte_addr(), PhysAddr(0x10_0000 + va.index(3) * 8));
        let w2 = match w.feed(0x20_0000 | PTE_PRESENT) {
            WalkResult::Continue(w) => w,
            other => panic!("{other:?}"),
        };
        assert_eq!(w2.pte_addr(), PhysAddr(0x20_0000 + va.index(2) * 8));
    }

    #[test]
    fn walk_faults_at_any_level() {
        let va = VirtAddr(0x1000);
        let w = Walk::new(PhysAddr(0x10_0000), va);
        assert_eq!(w.feed(0), WalkResult::Fault(Fault { va, level: 3 }));
        let w = Walk::new(PhysAddr(0x10_0000), va);
        let w = match w.feed(0x20_0000 | PTE_PRESENT) {
            WalkResult::Continue(w) => w,
            other => panic!("{other:?}"),
        };
        assert_eq!(w.feed(2), WalkResult::Fault(Fault { va, level: 2 }));
    }

    #[test]
    fn walk_completes_with_offset() {
        let va = VirtAddr(0x4000_1234);
        let mut w = Walk::new(PhysAddr(0x10_0000), va);
        for _ in 0..3 {
            w = match w.feed(0x20_0000 | PTE_PRESENT) {
                WalkResult::Continue(w) => w,
                other => panic!("{other:?}"),
            };
        }
        match w.feed(0x55_5000 | PTE_PRESENT) {
            WalkResult::Done(frame) => {
                assert_eq!(frame, PhysAddr(0x55_5000));
                assert_eq!(frame_plus_offset(frame, va), PhysAddr(0x55_5234));
            }
            other => panic!("{other:?}"),
        }
    }
}
