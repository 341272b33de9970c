//! `OsLite`: the kernel-lite managing physical frames and page tables.
//!
//! The paper runs unmodified Linux on the CPU cores; the only OS services its
//! evaluation actually exercises are address-space management (mmap/brk),
//! demand paging, page-fault handling (including faults forwarded from MTTOP
//! cores via the MIFD), and TLB shootdown. `OsLite` provides exactly those.
//!
//! All page-table *modifications* are returned as [`PteWrite`] lists rather
//! than applied directly: during simulation the machine model issues them as
//! coherent stores from the CPU core running the handler (so they cost real
//! time and traffic, and hardware walkers at other cores observe them through
//! the coherence protocol); before simulation the loader applies them through
//! the memory backdoor.

use ccsvm_engine::FxHashMap;
use ccsvm_mem::PhysAddr;

use crate::walk::{VirtAddr, PAGE_BYTES, PTE_PRESENT};

/// A single page-table-entry store the OS wants performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PteWrite {
    /// Physical address of the 8-byte PTE.
    pub addr: PhysAddr,
    /// Value to store.
    pub value: u64,
}

/// The kernel-lite: physical frames, page tables, PTE-write generation.
///
/// # Examples
///
/// ```
/// use ccsvm_vm::{OsLite, VirtAddr};
/// let mut os = OsLite::new(0x10_0000, 0x8000_0000);
/// let writes = os.map_page(VirtAddr(0x4000_0000));
/// assert!(!writes.is_empty());
/// assert!(os.translate(VirtAddr(0x4000_0123)).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct OsLite {
    /// Next never-allocated frame cursor (counts allocations).
    next_frame: u64,
    /// End of the physical memory pool (exclusive).
    phys_end: u64,
    /// Recycled frames.
    free_frames: Vec<u64>,
    /// Authoritative mirror of every PTE the OS has written.
    mirror: FxHashMap<u64, u64>,
    /// Root page table (the process CR3).
    root: PhysAddr,
    /// Leaf mapping mirror: vpn → frame base (fast host-side translate).
    pages: FxHashMap<u64, u64>,
    faults_handled: u64,
}

impl OsLite {
    /// Creates the kernel with a physical pool `[phys_base, phys_end)` and
    /// allocates the root page table from it.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty or misaligned.
    pub fn new(phys_base: u64, phys_end: u64) -> OsLite {
        assert!(
            phys_base.is_multiple_of(PAGE_BYTES),
            "pool must be page-aligned"
        );
        assert!(phys_end > phys_base, "empty physical pool");
        let mut os = OsLite {
            next_frame: phys_base,
            phys_end,
            free_frames: Vec::new(),
            mirror: FxHashMap::default(),
            root: PhysAddr(0),
            pages: FxHashMap::default(),
            faults_handled: 0,
        };
        os.root = PhysAddr(os.alloc_frame());
        os
    }

    /// The process page-table root (loaded into each core's CR3).
    pub fn cr3(&self) -> PhysAddr {
        self.root
    }

    /// Allocates one physical frame.
    ///
    /// # Panics
    ///
    /// Panics if physical memory is exhausted.
    pub fn alloc_frame(&mut self) -> u64 {
        if let Some(f) = self.free_frames.pop() {
            return f;
        }
        assert!(
            self.next_frame < self.phys_end,
            "out of physical memory at {:#x}",
            self.next_frame
        );
        let f = self.next_frame;
        self.next_frame += PAGE_BYTES;
        f
    }

    /// Maps the page containing `va` to a newly allocated frame (the page
    /// fault handler), creating intermediate tables as needed. No-op (empty
    /// list) if already mapped.
    pub fn map_page(&mut self, va: VirtAddr) -> Vec<PteWrite> {
        let frame = match self.pages.get(&va.vpn()) {
            Some(_) => return Vec::new(),
            None => self.alloc_frame(),
        };
        self.faults_handled += 1;
        self.map_fixed(va, PhysAddr(frame))
    }

    /// Maps the page containing `va` to the given frame base.
    ///
    /// # Panics
    ///
    /// Panics if the page is already mapped or `frame` is not page-aligned.
    pub fn map_fixed(&mut self, va: VirtAddr, frame: PhysAddr) -> Vec<PteWrite> {
        assert!(
            frame.0.is_multiple_of(PAGE_BYTES),
            "frame must be page-aligned"
        );
        assert!(
            !self.pages.contains_key(&va.vpn()),
            "page {va} already mapped"
        );
        let mut writes = Vec::new();
        let mut table = self.root;
        for level in (1..4).rev() {
            let pte_addr = table.0 + va.index(level) * 8;
            let pte = self.mirror.get(&pte_addr).copied().unwrap_or(0);
            if pte & PTE_PRESENT == 0 {
                let child = self.alloc_frame();
                let value = child | PTE_PRESENT;
                self.mirror.insert(pte_addr, value);
                writes.push(PteWrite {
                    addr: PhysAddr(pte_addr),
                    value,
                });
                table = PhysAddr(child);
            } else {
                table = PhysAddr(pte & !(PAGE_BYTES - 1));
            }
        }
        let pte_addr = table.0 + va.index(0) * 8;
        let value = frame.0 | PTE_PRESENT;
        self.mirror.insert(pte_addr, value);
        writes.push(PteWrite {
            addr: PhysAddr(pte_addr),
            value,
        });
        self.pages.insert(va.vpn(), frame.0);
        writes
    }

    /// Unmaps the page containing `va`, recycling its frame. Returns the PTE
    /// clear to perform; the caller is responsible for the TLB shootdown.
    /// Returns an empty list if the page was not mapped.
    pub fn unmap_page(&mut self, va: VirtAddr) -> Vec<PteWrite> {
        let Some(frame) = self.pages.remove(&va.vpn()) else {
            return Vec::new();
        };
        self.free_frames.push(frame);
        // Find the leaf PTE address by mirror-walking.
        let mut table = self.root;
        for level in (1..4).rev() {
            let pte_addr = table.0 + va.index(level) * 8;
            let pte = self.mirror[&pte_addr];
            table = PhysAddr(pte & !(PAGE_BYTES - 1));
        }
        let pte_addr = table.0 + va.index(0) * 8;
        self.mirror.insert(pte_addr, 0);
        vec![PteWrite {
            addr: PhysAddr(pte_addr),
            value: 0,
        }]
    }

    /// Whether `va`'s page has a mapping.
    pub fn is_mapped(&self, va: VirtAddr) -> bool {
        self.pages.contains_key(&va.vpn())
    }

    /// Host-side translation using the mirror (loaders, tests, assertions —
    /// the simulated cores use hardware walks instead).
    pub fn translate(&self, va: VirtAddr) -> Option<PhysAddr> {
        self.pages
            .get(&va.vpn())
            .map(|f| PhysAddr(f + va.page_offset()))
    }

    /// Number of demand-paging faults handled.
    pub fn faults_handled(&self) -> u64 {
        self.faults_handled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::{Walk, WalkResult};
    use std::collections::HashMap;

    fn os() -> OsLite {
        OsLite::new(0x10_0000, 0x10_0000 + 64 * 1024 * 1024)
    }

    /// Applies OsLite's writes to a flat map and runs the *hardware* walk
    /// against it, proving the generated PTEs are what walkers need.
    fn hw_translate(os: &OsLite, mem: &HashMap<u64, u64>, va: VirtAddr) -> Option<PhysAddr> {
        let mut walk = Walk::new(os.cr3(), va);
        loop {
            let pte = mem.get(&walk.pte_addr().0).copied().unwrap_or(0);
            match walk.feed(pte) {
                WalkResult::Continue(w) => walk = w,
                WalkResult::Done(frame) => return Some(crate::walk::frame_plus_offset(frame, va)),
                WalkResult::Fault(_) => return None,
            }
        }
    }

    #[test]
    fn map_page_generates_walkable_tables() {
        let mut os = os();
        let mut mem = HashMap::new();
        let va = VirtAddr(0x4000_2000);
        for w in os.map_page(va) {
            mem.insert(w.addr.0, w.value);
        }
        let hw = hw_translate(&os, &mem, VirtAddr(0x4000_2ABC)).expect("mapped");
        assert_eq!(Some(hw), os.translate(VirtAddr(0x4000_2ABC)));
        assert!(hw_translate(&os, &mem, VirtAddr(0x4000_3000)).is_none());
    }

    #[test]
    fn first_map_writes_four_levels_second_writes_one() {
        let mut os = os();
        let w1 = os.map_page(VirtAddr(0x4000_0000));
        assert_eq!(w1.len(), 4);
        let w2 = os.map_page(VirtAddr(0x4000_1000)); // same leaf table
        assert_eq!(w2.len(), 1);
        let far = os.map_page(VirtAddr(0x7000_0000_0000)); // different L3 subtree
        assert_eq!(far.len(), 4);
    }

    #[test]
    fn double_map_is_noop() {
        let mut os = os();
        assert_eq!(os.map_page(VirtAddr(0x1000)).len(), 4);
        assert!(os.map_page(VirtAddr(0x1000)).is_empty());
        assert!(os.map_page(VirtAddr(0x1FFF)).is_empty());
        assert_eq!(os.faults_handled(), 1);
    }

    #[test]
    fn unmap_then_walk_faults_and_frame_recycles() {
        let mut os = os();
        let mut mem = HashMap::new();
        for w in os.map_page(VirtAddr(0x5000)) {
            mem.insert(w.addr.0, w.value);
        }
        let frame = os.translate(VirtAddr(0x5000)).unwrap();
        for w in os.unmap_page(VirtAddr(0x5000)) {
            mem.insert(w.addr.0, w.value);
        }
        assert!(hw_translate(&os, &mem, VirtAddr(0x5000)).is_none());
        assert!(!os.is_mapped(VirtAddr(0x5000)));
        // The freed frame is reused.
        os.map_page(VirtAddr(0x9000));
        assert_eq!(os.translate(VirtAddr(0x9000)), Some(PhysAddr(frame.0)));
        assert!(os.unmap_page(VirtAddr(0x5000)).is_empty(), "double unmap");
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut os = os();
        os.map_page(VirtAddr(0x0000));
        os.map_page(VirtAddr(0x1000));
        let a = os.translate(VirtAddr(0x0000)).unwrap();
        let b = os.translate(VirtAddr(0x1000)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of physical memory")]
    fn pool_exhaustion_panics() {
        // Pool of 4 frames: root + 3 table levels leaves nothing for data.
        let mut os = OsLite::new(0x10_0000, 0x10_0000 + 4 * PAGE_BYTES);
        os.map_page(VirtAddr(0x0));
    }

    #[test]
    fn map_fixed_controls_frame() {
        let mut os = os();
        os.map_fixed(VirtAddr(0x2000), PhysAddr(0x123000));
        assert_eq!(os.translate(VirtAddr(0x2004)), Some(PhysAddr(0x123004)));
    }
}
