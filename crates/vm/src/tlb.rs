//! Fully-associative translation lookaside buffer.

use ccsvm_engine::Stats;
use ccsvm_mem::PhysAddr;

use crate::walk::VirtAddr;

#[derive(Clone, Copy, Debug)]
struct Entry {
    vpn: u64,
    frame: PhysAddr,
    lru: u64,
}

/// A fully-associative, true-LRU TLB (Table 2: 64 entries per core, for CPU
/// and MTTOP cores alike).
///
/// # Examples
///
/// ```
/// use ccsvm_mem::PhysAddr;
/// use ccsvm_vm::{Tlb, VirtAddr};
/// let mut tlb = Tlb::new(64);
/// assert_eq!(tlb.lookup(VirtAddr(0x1000)), None);
/// tlb.insert(VirtAddr(0x1000), PhysAddr(0x7000));
/// assert_eq!(tlb.lookup(VirtAddr(0x1234)), Some(PhysAddr(0x7000)));
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: Vec<Entry>,
    capacity: usize,
    /// Direct-mapped position hints: `memo[memo_slot(vpn)]` is the index in
    /// `entries` where that page was last found. Purely a host-side lookup
    /// accelerator: every hint is validated against the entry's `vpn` before
    /// use, so stale hints (after `swap_remove` or flushes) simply fall back
    /// to the linear scan.
    memo: [u32; MEMO_SLOTS],
    tick: u64,
    hits: u64,
    misses: u64,
    flushes: u64,
    shootdown_invalidations: u64,
}

const MEMO_BITS: u32 = 6;
const MEMO_SLOTS: usize = 1 << MEMO_BITS;

/// The memo slot of `vpn`: its page number XOR-folded to `MEMO_BITS` bits.
/// `vpn % 64` puts pages a multiple of 64 apart in one slot: streams over
/// arrays 384 pages apart, or the 16-page-strided tops of per-thread stacks.
/// The fold spreads those and still gives any 64 aligned consecutive pages
/// distinct slots.
#[inline]
fn memo_slot(vpn: u64) -> usize {
    let w = MEMO_BITS;
    ((vpn ^ (vpn >> w) ^ (vpn >> (2 * w)) ^ (vpn >> (3 * w))) as usize) % MEMO_SLOTS
}

impl Tlb {
    /// Creates an empty TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Tlb {
        assert!(capacity > 0, "TLB needs at least one entry");
        Tlb {
            entries: Vec::with_capacity(capacity),
            capacity,
            memo: [u32::MAX; MEMO_SLOTS],
            tick: 0,
            hits: 0,
            misses: 0,
            flushes: 0,
            shootdown_invalidations: 0,
        }
    }

    /// Finds `vpn`'s index, trying the memo hint before the linear scan, and
    /// refreshing the hint on a scan hit. Does not touch LRU or counters.
    #[inline]
    fn find(&mut self, vpn: u64) -> Option<usize> {
        let slot = memo_slot(vpn);
        let hint = self.memo[slot] as usize;
        if let Some(e) = self.entries.get(hint) {
            if e.vpn == vpn {
                return Some(hint);
            }
        }
        let idx = self.entries.iter().position(|e| e.vpn == vpn)?;
        self.memo[slot] = idx as u32;
        Some(idx)
    }

    /// Looks up the translation of `va`'s page, counting a hit or miss.
    /// Returns the *frame base* (combine with the page offset).
    pub fn lookup(&mut self, va: VirtAddr) -> Option<PhysAddr> {
        let vpn = va.vpn();
        self.tick += 1;
        match self.find(vpn) {
            Some(idx) => {
                let e = &mut self.entries[idx];
                e.lru = self.tick;
                self.hits += 1;
                Some(e.frame)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Like [`Tlb::lookup`] on a hit (LRU touch, hit count), but a **no-op on
    /// a miss**: no tick advance, no miss count. Fast paths use this as a
    /// combined `holds` + `lookup` probe; on `None` they fall back to the
    /// generic path, whose own `lookup` then performs the one counted miss —
    /// so composing `try_lookup` + fallback is observably identical to the
    /// generic path alone.
    pub fn try_lookup(&mut self, va: VirtAddr) -> Option<PhysAddr> {
        let vpn = va.vpn();
        let idx = self.find(vpn)?;
        self.tick += 1;
        let e = &mut self.entries[idx];
        e.lru = self.tick;
        self.hits += 1;
        Some(e.frame)
    }

    /// Installs a translation, evicting LRU if full.
    pub fn insert(&mut self, va: VirtAddr, frame: PhysAddr) {
        let vpn = va.vpn();
        self.tick += 1;
        if let Some(idx) = self.find(vpn) {
            let e = &mut self.entries[idx];
            e.frame = frame;
            e.lru = self.tick;
            return;
        }
        if self.entries.len() == self.capacity {
            let (idx, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .expect("nonempty");
            self.entries.swap_remove(idx);
        }
        self.memo[memo_slot(vpn)] = self.entries.len() as u32;
        self.entries.push(Entry {
            vpn,
            frame,
            lru: self.tick,
        });
    }

    /// Removes the entry for `va`'s page (selective shootdown, used for CPU
    /// TLBs).
    pub fn invalidate(&mut self, va: VirtAddr) {
        let vpn = va.vpn();
        if let Some(idx) = self.entries.iter().position(|e| e.vpn == vpn) {
            self.entries.swap_remove(idx);
            self.shootdown_invalidations += 1;
        }
    }

    /// Empties the TLB (the paper's conservative MTTOP shootdown: "we extend
    /// shootdown by having the CPU core signal the TLBs at all MTTOP cores to
    /// flush").
    pub fn flush(&mut self) {
        self.entries.clear();
        self.flushes += 1;
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Every live `(vpn, frame base)` translation, in storage order — the
    /// sanitizer's TLB⊆page-table check compares these against the OS's
    /// authoritative mappings. Read-only: does not touch LRU or counters.
    pub fn entries(&self) -> Vec<(u64, PhysAddr)> {
        self.entries.iter().map(|e| (e.vpn, e.frame)).collect()
    }

    /// Whether the TLB holds a live translation for `va`'s page. Read-only
    /// (unlike [`Tlb::lookup`], no LRU update, no hit/miss accounting).
    pub fn holds(&self, va: VirtAddr) -> bool {
        let vpn = va.vpn();
        self.entries.iter().any(|e| e.vpn == vpn)
    }

    /// Test-only corruption hook for sanitizer mutation tests: offsets the
    /// frame of the first live entry so it no longer matches the page table.
    /// Returns `false` when the TLB is empty.
    pub fn test_corrupt_first_entry(&mut self) -> bool {
        match self.entries.first_mut() {
            Some(e) => {
                e.frame = PhysAddr(e.frame.0 ^ 0x1_0000);
                true
            }
            None => false,
        }
    }

    /// Whether the TLB holds no translations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss/flush counters.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("hits", self.hits as f64);
        s.set("misses", self.misses as f64);
        s.set("flushes", self.flushes as f64);
        s.set(
            "shootdown_invalidations",
            self.shootdown_invalidations as f64,
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_with_offset() {
        let mut t = Tlb::new(4);
        t.insert(VirtAddr(0x5000), PhysAddr(0x9000));
        assert_eq!(t.lookup(VirtAddr(0x5FFF)), Some(PhysAddr(0x9000)));
        assert_eq!(t.lookup(VirtAddr(0x6000)), None);
        assert_eq!(t.stats().get("hits"), 1.0);
        assert_eq!(t.stats().get("misses"), 1.0); // only the 0x6000 lookup
    }

    #[test]
    fn lru_eviction_when_full() {
        let mut t = Tlb::new(2);
        t.insert(VirtAddr(0x1000), PhysAddr(0x1000));
        t.insert(VirtAddr(0x2000), PhysAddr(0x2000));
        t.lookup(VirtAddr(0x1000)); // 0x2000 now LRU
        t.insert(VirtAddr(0x3000), PhysAddr(0x3000));
        assert!(t.lookup(VirtAddr(0x2000)).is_none());
        assert!(t.lookup(VirtAddr(0x1000)).is_some());
        assert!(t.lookup(VirtAddr(0x3000)).is_some());
    }

    #[test]
    fn insert_existing_updates() {
        let mut t = Tlb::new(2);
        t.insert(VirtAddr(0x1000), PhysAddr(0xA000));
        t.insert(VirtAddr(0x1000), PhysAddr(0xB000));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(VirtAddr(0x1000)), Some(PhysAddr(0xB000)));
    }

    /// Fully-associative true-LRU reference: most recent at the back.
    struct ReferenceTlb {
        pages: std::collections::VecDeque<(u64, PhysAddr)>,
        capacity: usize,
    }

    impl ReferenceTlb {
        fn lookup(&mut self, vpn: u64) -> Option<PhysAddr> {
            let i = self.pages.iter().position(|&(v, _)| v == vpn)?;
            let e = self.pages.remove(i).expect("found");
            self.pages.push_back(e);
            Some(e.1)
        }

        fn insert(&mut self, vpn: u64, frame: PhysAddr) {
            if self.lookup(vpn).is_some() {
                self.pages.back_mut().expect("just touched").1 = frame;
                return;
            }
            if self.pages.len() == self.capacity {
                self.pages.pop_front();
            }
            self.pages.push_back((vpn, frame));
        }
    }

    /// Page streams that share a `vpn % 64` memo slot — three arrays 384
    /// pages apart, walked a page at a time as a streaming vector add does,
    /// then the stack-top pages of 64 KiB per-thread stacks (16 pages apart)
    /// across more threads than the TLB holds — translate, count and evict
    /// exactly like a reference fully-associative LRU TLB.
    #[test]
    fn conflicting_streams_match_reference_lru() {
        const PAGE: u64 = 4096;
        let mut t = Tlb::new(64);
        let mut r = ReferenceTlb {
            pages: Default::default(),
            capacity: 64,
        };
        let (mut hits, mut misses) = (0.0, 0.0);
        let mut touch = |t: &mut Tlb, r: &mut ReferenceTlb, vpn: u64, off: u64| {
            let frame = PhysAddr((vpn * 7 + 3) * PAGE);
            let got = t.lookup(VirtAddr(vpn * PAGE + off));
            assert_eq!(got, r.lookup(vpn), "vpn {vpn}");
            if got.is_some() {
                hits += 1.0;
            } else {
                misses += 1.0;
                t.insert(VirtAddr(vpn * PAGE), frame);
                r.insert(vpn, frame);
            }
            let mut held: Vec<u64> = t.entries().iter().map(|&(v, _)| v).collect();
            let mut want: Vec<u64> = r.pages.iter().map(|&(v, _)| v).collect();
            held.sort_unstable();
            want.sort_unstable();
            assert_eq!(held, want, "same resident set after vpn {vpn}");
            assert_eq!(t.stats().get("hits"), hits);
            assert_eq!(t.stats().get("misses"), misses);
        };
        let (a, b, c) = (0x1000, 0x1000 + 384, 0x1000 + 2 * 384);
        for page in 0..200 {
            for off in (0..PAGE).step_by(512) {
                for base in [a, b, c] {
                    touch(&mut t, &mut r, base + page, off);
                }
            }
        }
        for round in 0..6 {
            for ctx in 0..80 {
                let top = 0x7000_0000 + (ctx + 1) * 0x1_0000 - 16;
                touch(&mut t, &mut r, top / PAGE, top % PAGE - round * 8);
            }
        }
    }

    #[test]
    fn invalidate_and_flush() {
        let mut t = Tlb::new(4);
        t.insert(VirtAddr(0x1000), PhysAddr(0x1000));
        t.insert(VirtAddr(0x2000), PhysAddr(0x2000));
        t.invalidate(VirtAddr(0x1000));
        assert!(t.lookup(VirtAddr(0x1000)).is_none());
        assert!(t.lookup(VirtAddr(0x2000)).is_some());
        t.flush();
        assert!(t.is_empty());
        assert_eq!(t.stats().get("flushes"), 1.0);
        assert_eq!(t.stats().get("shootdown_invalidations"), 1.0);
    }
}
