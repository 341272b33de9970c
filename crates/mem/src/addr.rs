//! Physical addresses and cache-block arithmetic.

use std::fmt;

/// Size of a cache block in bytes (Table 2 systems use 64 B lines).
pub const BLOCK_BYTES: u64 = 64;

/// A physical memory address.
///
/// Newtype so physical and virtual addresses (the `ccsvm-vm` crate's `VirtAddr`)
/// cannot be confused — the whole point of the paper is who translates what.
///
/// # Examples
///
/// ```
/// use ccsvm_mem::{block_of, offset_in_block, PhysAddr};
/// let a = PhysAddr(0x1234);
/// assert_eq!(block_of(a), 0x1234 / 64);
/// assert_eq!(offset_in_block(a), 0x34 % 64);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Byte offset addition.
    pub fn offset(self, bytes: u64) -> PhysAddr {
        PhysAddr(self.0 + bytes)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PA({:#x})", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// The block number containing `addr`.
#[inline]
pub fn block_of(addr: PhysAddr) -> u64 {
    addr.0 / BLOCK_BYTES
}

/// The byte offset of `addr` within its block.
#[inline]
pub fn offset_in_block(addr: PhysAddr) -> usize {
    (addr.0 % BLOCK_BYTES) as usize
}

/// The base address of block number `block`.
#[inline]
pub fn block_base(block: u64) -> PhysAddr {
    PhysAddr(block * BLOCK_BYTES)
}

pub(crate) use block_base as base_of_block;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_math() {
        assert_eq!(block_of(PhysAddr(0)), 0);
        assert_eq!(block_of(PhysAddr(63)), 0);
        assert_eq!(block_of(PhysAddr(64)), 1);
        assert_eq!(offset_in_block(PhysAddr(64)), 0);
        assert_eq!(offset_in_block(PhysAddr(127)), 63);
        assert_eq!(block_base(3), PhysAddr(192));
    }

    #[test]
    fn display_formats() {
        assert_eq!(PhysAddr(0x40).to_string(), "0x40");
        assert_eq!(format!("{:?}", PhysAddr(0x40)), "PA(0x40)");
    }

    #[test]
    fn offset_adds() {
        assert_eq!(PhysAddr(8).offset(8), PhysAddr(16));
    }
}
