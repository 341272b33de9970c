//! The guest heap allocator behind `malloc`/`mttop_malloc`.
//!
//! The paper's xthreads runtime offloads MTTOP dynamic allocation to a CPU
//! thread that performs ordinary `malloc` calls (§5.3.2). This is that
//! allocator: a first-fit free list over a virtual address range. It hands
//! out *virtual* addresses only; pages materialize later through demand
//! paging when the guest touches them.

use std::collections::BTreeMap;

use crate::walk::VirtAddr;

/// First-fit guest-heap allocator over a fixed virtual range.
///
/// # Examples
///
/// ```
/// use ccsvm_vm::{GuestHeap, VirtAddr};
/// let mut h = GuestHeap::new(VirtAddr(0x4000_0000), 1 << 20);
/// let a = h.malloc(100).unwrap();
/// let b = h.malloc(100).unwrap();
/// assert_ne!(a, b);
/// h.free(a);
/// ```
#[derive(Clone, Debug)]
pub struct GuestHeap {
    base: u64,
    len: u64,
    /// Free regions: start → length.
    free: BTreeMap<u64, u64>,
    /// Live allocations: start → length.
    live: BTreeMap<u64, u64>,
    align: u64,
}

impl GuestHeap {
    /// Creates a heap spanning `[base, base + len)` with 8-byte alignment.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or `base` is not 8-byte aligned.
    pub fn new(base: VirtAddr, len: u64) -> GuestHeap {
        assert!(len > 0, "empty heap");
        assert!(base.0.is_multiple_of(8), "heap base must be 8-byte aligned");
        let mut free = BTreeMap::new();
        free.insert(base.0, len);
        GuestHeap {
            base: base.0,
            len,
            free,
            live: BTreeMap::new(),
            align: 8,
        }
    }

    /// Allocates `size` bytes (rounded up to the alignment); returns `None`
    /// when no free region fits.
    pub fn malloc(&mut self, size: u64) -> Option<VirtAddr> {
        let size = size.max(1).next_multiple_of(self.align);
        let (start, region_len) = self
            .free
            .iter()
            .find(|(_, &l)| l >= size)
            .map(|(&s, &l)| (s, l))?;
        self.free.remove(&start);
        if region_len > size {
            self.free.insert(start + size, region_len - size);
        }
        self.live.insert(start, size);
        Some(VirtAddr(start))
    }

    /// Releases an allocation, coalescing with free neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a live allocation (double free / wild free).
    pub fn free(&mut self, addr: VirtAddr) {
        let size = self
            .live
            .remove(&addr.0)
            .unwrap_or_else(|| panic!("free of non-allocated address {addr}"));
        let mut start = addr.0;
        let mut len = size;
        // Coalesce with the region immediately after.
        if let Some(&next_len) = self.free.get(&(start + len)) {
            self.free.remove(&(start + len));
            len += next_len;
        }
        // Coalesce with the region immediately before.
        if let Some((&prev_start, &prev_len)) = self.free.range(..start).next_back() {
            if prev_start + prev_len == start {
                self.free.remove(&prev_start);
                start = prev_start;
                len += prev_len;
            }
        }
        self.free.insert(start, len);
    }

    /// Size of the live allocation at `addr`, if any.
    pub fn size_of(&self, addr: VirtAddr) -> Option<u64> {
        self.live.get(&addr.0).copied()
    }

    /// Total bytes currently allocated.
    pub fn live_bytes(&self) -> u64 {
        self.live.values().sum()
    }

    /// The heap's full capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.len
    }

    /// The heap's base address.
    pub fn base(&self) -> VirtAddr {
        VirtAddr(self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> GuestHeap {
        GuestHeap::new(VirtAddr(0x4000_0000), 1024)
    }

    #[test]
    fn allocations_are_disjoint_and_aligned() {
        let mut h = heap();
        let a = h.malloc(10).unwrap();
        let b = h.malloc(10).unwrap();
        assert_eq!(a.0 % 8, 0);
        assert_eq!(b.0 % 8, 0);
        assert!(b.0 >= a.0 + 16, "rounded to 16 bytes");
        assert_eq!(h.live_bytes(), 32);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut h = heap();
        assert!(h.malloc(1024).is_some());
        assert!(h.malloc(1).is_none());
    }

    #[test]
    fn free_coalesces_both_sides() {
        let mut h = heap();
        let a = h.malloc(128).unwrap();
        let b = h.malloc(128).unwrap();
        let c = h.malloc(128).unwrap();
        h.free(a);
        h.free(c);
        h.free(b); // middle free must merge into one region
        assert!(h.malloc(1024).is_some(), "full capacity available again");
    }

    #[test]
    fn reuse_after_free() {
        let mut h = heap();
        let a = h.malloc(1024).unwrap();
        h.free(a);
        let b = h.malloc(512).unwrap();
        assert_eq!(a, b, "first fit reuses the freed region");
    }

    #[test]
    #[should_panic(expected = "free of non-allocated")]
    fn double_free_panics() {
        let mut h = heap();
        let a = h.malloc(8).unwrap();
        h.free(a);
        h.free(a);
    }

    #[test]
    fn size_of_reports_rounded_size() {
        let mut h = heap();
        let a = h.malloc(5).unwrap();
        assert_eq!(h.size_of(a), Some(8));
        assert_eq!(h.size_of(VirtAddr(0x9999)), None);
    }
}

/// Seeded property runs over malloc/free sequences.
#[cfg(test)]
mod properties {
    use super::*;
    use ccsvm_engine::SplitMix64;

    /// Random malloc/free sequences never hand out overlapping regions,
    /// and freeing everything restores full capacity.
    #[test]
    fn no_overlap_and_full_recovery() {
        let mut rng = SplitMix64::new(0x4EA9);
        for _ in 0..256 {
            let mut h = GuestHeap::new(VirtAddr(0x1000), 16 * 1024);
            let mut live: Vec<(u64, u64)> = Vec::new();
            for i in 0..1 + rng.next_below(59) as usize {
                let sz = 1 + rng.next_below(199);
                if i % 3 == 2 && !live.is_empty() {
                    let (addr, _) = live.swap_remove(i % live.len());
                    h.free(VirtAddr(addr));
                } else if let Some(a) = h.malloc(sz) {
                    let rounded = h.size_of(a).unwrap();
                    for &(s, l) in &live {
                        assert!(a.0 + rounded <= s || s + l <= a.0, "overlap");
                    }
                    live.push((a.0, rounded));
                }
            }
            for (addr, _) in live.drain(..) {
                h.free(VirtAddr(addr));
            }
            assert_eq!(h.live_bytes(), 0);
            assert!(h.malloc(16 * 1024).is_some());
        }
    }
}
