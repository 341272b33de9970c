//! Generic set-associative cache array with true LRU and real block data.

use crate::addr::BLOCK_BYTES;

/// Geometry of a cache array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two is *not* required; indexing is
    /// modulo).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// A config from a total capacity in bytes and associativity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a multiple of `ways * 64` bytes.
    pub fn from_capacity(bytes: usize, ways: usize) -> CacheConfig {
        let line = BLOCK_BYTES as usize;
        assert!(
            bytes > 0 && bytes.is_multiple_of(ways * line),
            "capacity {bytes} not divisible into {ways}-way sets of {line}B lines"
        );
        CacheConfig {
            sets: bytes / (ways * line),
            ways,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways * BLOCK_BYTES as usize
    }
}

/// Sentinel tag for an invalid way. A real block number is `addr >> 6`,
/// which cannot reach `u64::MAX` for any physical address the simulator can
/// produce.
const TAG_INVALID: u64 = u64::MAX;

/// A set-associative array of 64-byte blocks carrying metadata `M`.
///
/// Used for L1 caches (`M` = MOESI state), the shared L2 (`M` = directory
/// entry + dirty bit), and the APU GPU's write-through caches.
///
/// # Examples
///
/// ```
/// use ccsvm_mem::{CacheArray, CacheConfig};
/// let mut c: CacheArray<bool> = CacheArray::new(CacheConfig { sets: 2, ways: 2 });
/// assert!(c.lookup(10).is_none());
/// let evicted = c.insert(10, false, [0u8; 64]);
/// assert!(evicted.is_none());
/// assert!(c.lookup(10).is_some());
/// ```
/// Storage is struct-of-arrays: the tag scan in `find` runs on every access
/// of every cache in the machine, and a dense `tags` vector keeps one set's
/// tags in a single cache line instead of striding across ~100-byte
/// way structs.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheArray<M> {
    config: CacheConfig,
    /// Block number per way, or `TAG_INVALID`.
    tags: Vec<u64>,
    /// LRU timestamp per way (monotone counter value at last touch).
    lru: Vec<u64>,
    /// Protocol metadata per way (state bits, dirty bit, sharer set...).
    metas: Vec<M>,
    /// Cached bytes per way.
    data: Vec<[u8; BLOCK_BYTES as usize]>,
    tick: u64,
    /// Low block bits skipped when computing the set index (a banked shared
    /// cache selects the bank with those bits, so indexing with them again
    /// would leave most sets unused).
    index_shift: u32,
    /// `sets - 1` when `sets` is a power of two, else `u64::MAX` as a
    /// "divide instead" sentinel — `set_of` sits on every access's tag
    /// lookup, and `h & mask` is an order of magnitude cheaper than `h %
    /// sets` (identical result for power-of-two set counts).
    set_mask: u64,
    /// Precomputed XOR-fold width for `hash_index`.
    fold_w: u32,
}

/// An evicted block returned by [`CacheArray::insert`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evicted<M> {
    /// Block number that was displaced.
    pub block: u64,
    /// Its metadata at eviction time.
    pub meta: M,
    /// Its data at eviction time.
    pub data: [u8; BLOCK_BYTES as usize],
}

impl<M> CacheArray<M> {
    /// Creates an empty (all-invalid) array.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(config: CacheConfig) -> CacheArray<M>
    where
        M: Default + Clone,
    {
        CacheArray::with_index_shift(config, 0)
    }

    /// Creates an array whose set index skips the low `index_shift` block
    /// bits (use `log2(n_banks)` for a bank of an interleaved shared cache).
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn with_index_shift(config: CacheConfig, index_shift: u32) -> CacheArray<M>
    where
        M: Default + Clone,
    {
        assert!(config.sets > 0 && config.ways > 0, "degenerate cache");
        let n = config.sets * config.ways;
        CacheArray {
            config,
            tags: vec![TAG_INVALID; n],
            lru: vec![0; n],
            metas: vec![M::default(); n],
            data: vec![[0; BLOCK_BYTES as usize]; n],
            tick: 0,
            index_shift,
            set_mask: if config.sets.is_power_of_two() {
                (config.sets - 1) as u64
            } else {
                u64::MAX
            },
            fold_w: usize::BITS - (config.sets.max(2) - 1).leading_zeros(),
        }
    }

    /// The geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    fn set_range(&self, block: u64) -> std::ops::Range<usize> {
        let set = self.set_of(block) as usize;
        set * self.config.ways..(set + 1) * self.config.ways
    }

    /// XOR-folded set index: mixes tag bits into the index so power-of-two
    /// strides (page-aligned hot lines such as per-thread stack tops) spread
    /// across all sets — the hashed indexing real caches use. The fold width
    /// matches the index width so the lowest tag bits (which vary fastest
    /// across page-strided footprints) land in the index.
    fn hash_index(&self, block: u64) -> u64 {
        let x = block >> self.index_shift;
        let w = self.fold_w;
        x ^ (x >> w) ^ (x >> (2 * w)) ^ (x >> (3 * w))
    }

    fn find(&self, block: u64) -> Option<usize> {
        debug_assert_ne!(block, TAG_INVALID);
        self.set_range(block).find(|&i| self.tags[i] == block)
    }

    /// Shared access to a resident block's metadata, touching LRU.
    pub fn lookup(&mut self, block: u64) -> Option<&M> {
        let i = self.lookup_idx(block)?;
        Some(&self.metas[i])
    }

    /// Mutable access to a resident block's metadata, touching LRU.
    pub fn lookup_mut(&mut self, block: u64) -> Option<&mut M> {
        let i = self.lookup_idx(block)?;
        Some(&mut self.metas[i])
    }

    /// Resolves `block` to its way index, touching LRU exactly like
    /// [`CacheArray::lookup`]. The `_at` accessors below then operate on that
    /// way without re-running the set scan — the hot hit path does exactly
    /// one tag lookup per access instead of one per read/write/meta touch.
    pub fn lookup_idx(&mut self, block: u64) -> Option<usize> {
        let i = self.find(block)?;
        self.tick += 1;
        self.lru[i] = self.tick;
        Some(i)
    }

    /// Resolves `block` to its way index without disturbing LRU.
    pub fn peek_idx(&self, block: u64) -> Option<usize> {
        self.find(block)
    }

    /// Touches LRU on way `i` (one tick, same as a `lookup` would charge).
    pub fn touch_at(&mut self, i: usize) {
        self.tick += 1;
        self.lru[i] = self.tick;
    }

    /// Metadata of way `i` (from `lookup_idx`/`peek_idx`).
    pub fn meta_at(&self, i: usize) -> &M {
        &self.metas[i]
    }

    /// Mutable metadata of way `i` without an LRU touch.
    pub fn meta_at_mut(&mut self, i: usize) -> &mut M {
        &mut self.metas[i]
    }

    /// Block data of way `i`.
    pub fn data_at(&self, i: usize) -> &[u8; BLOCK_BYTES as usize] {
        &self.data[i]
    }

    /// Mutable block data of way `i`.
    pub fn data_at_mut(&mut self, i: usize) -> &mut [u8; BLOCK_BYTES as usize] {
        &mut self.data[i]
    }

    /// Metadata access without disturbing LRU (for snoops/invalidations).
    pub fn peek(&self, block: u64) -> Option<&M> {
        self.find(block).map(|i| &self.metas[i])
    }

    /// Mutable metadata access without disturbing LRU.
    pub fn peek_mut(&mut self, block: u64) -> Option<&mut M> {
        self.find(block).map(move |i| &mut self.metas[i])
    }

    /// Reads bytes from a resident block.
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident or the range exceeds the block.
    pub fn read(&self, block: u64, offset: usize, buf: &mut [u8]) {
        let i = self.find(block).expect("read of non-resident block");
        buf.copy_from_slice(&self.data[i][offset..offset + buf.len()]);
    }

    /// Writes bytes into a resident block.
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident or the range exceeds the block.
    pub fn write(&mut self, block: u64, offset: usize, bytes: &[u8]) {
        let i = self.find(block).expect("write of non-resident block");
        self.data[i][offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// Copy of a resident block's full data.
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident.
    pub fn data(&self, block: u64) -> [u8; BLOCK_BYTES as usize] {
        let i = self.find(block).expect("data of non-resident block");
        self.data[i]
    }

    /// Replaces the full data of a resident block.
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident.
    pub fn set_data(&mut self, block: u64, data: [u8; BLOCK_BYTES as usize]) {
        let i = self.find(block).expect("set_data of non-resident block");
        self.data[i] = data;
    }

    /// Whether inserting `block` would evict a valid block (i.e. its set is
    /// full and `block` is absent).
    pub fn would_evict(&self, block: u64) -> Option<u64> {
        if self.find(block).is_some() {
            return None;
        }
        let mut victim: Option<(u64, u64)> = None; // (lru, block)
        for i in self.set_range(block) {
            match self.tags[i] {
                TAG_INVALID => return None,
                b => {
                    let lru = self.lru[i];
                    if victim.is_none_or(|(vl, _)| lru < vl) {
                        victim = Some((lru, b));
                    }
                }
            }
        }
        victim.map(|(_, b)| b)
    }

    /// The least-recently-used resident block in `block`'s set that
    /// `evictable` accepts, if any. Callers that can't evict a particular
    /// victim (e.g. a directory bank whose victim has an active transaction)
    /// pass that as the predicate. Candidates are offered in `(lru, tag)`
    /// order, each found by a scan of the set, so the usual case (the LRU
    /// way is evictable) asks the predicate once and allocates nothing.
    pub fn victim_lru(&self, block: u64, mut evictable: impl FnMut(u64) -> bool) -> Option<u64> {
        let mut floor: Option<(u64, u64)> = None;
        loop {
            let next = self
                .set_range(block)
                .filter(|&i| self.tags[i] != TAG_INVALID)
                .map(|i| (self.lru[i], self.tags[i]))
                .filter(|&k| floor.is_none_or(|f| k > f))
                .min()?;
            if evictable(next.1) {
                return Some(next.1);
            }
            floor = Some(next);
        }
    }

    /// Whether `block`'s set has an invalid (free) way.
    pub fn has_free_way(&self, block: u64) -> bool {
        self.find(block).is_some() || self.set_range(block).any(|i| self.tags[i] == TAG_INVALID)
    }

    /// Number of invalid (free) ways in `block`'s set.
    pub fn free_ways(&self, block: u64) -> usize {
        self.set_range(block)
            .filter(|&i| self.tags[i] == TAG_INVALID)
            .count()
    }

    /// The set index `block` maps to.
    pub fn set_of(&self, block: u64) -> u64 {
        let h = self.hash_index(block);
        if self.set_mask != u64::MAX {
            h & self.set_mask
        } else {
            h % self.config.sets as u64
        }
    }

    /// Installs `block`, evicting the LRU way of its set if necessary.
    ///
    /// Returns the displaced block, if any. If `block` is already resident its
    /// metadata and data are replaced in place.
    pub fn insert(
        &mut self,
        block: u64,
        meta: M,
        data: [u8; BLOCK_BYTES as usize],
    ) -> Option<Evicted<M>>
    where
        M: Clone,
    {
        self.tick += 1;
        let tick = self.tick;
        if let Some(i) = self.find(block) {
            self.metas[i] = meta;
            self.data[i] = data;
            self.lru[i] = tick;
            return None;
        }
        // Prefer an invalid way; otherwise evict true-LRU.
        let mut slot = None;
        let mut lru_slot = None;
        for i in self.set_range(block) {
            if self.tags[i] == TAG_INVALID {
                slot = Some(i);
                break;
            }
            if lru_slot.is_none_or(|j: usize| self.lru[i] < self.lru[j]) {
                lru_slot = Some(i);
            }
        }
        let (i, evicted) = match slot {
            Some(i) => (i, None),
            None => {
                let i = lru_slot.expect("set has ways");
                (
                    i,
                    Some(Evicted {
                        block: self.tags[i],
                        meta: self.metas[i].clone(),
                        data: self.data[i],
                    }),
                )
            }
        };
        self.tags[i] = block;
        self.lru[i] = tick;
        self.metas[i] = meta;
        self.data[i] = data;
        evicted
    }

    /// Removes `block` from the array, returning its metadata and data.
    pub fn remove(&mut self, block: u64) -> Option<(M, [u8; BLOCK_BYTES as usize])>
    where
        M: Default,
    {
        let i = self.find(block)?;
        self.tags[i] = TAG_INVALID;
        let meta = std::mem::take(&mut self.metas[i]);
        Some((meta, self.data[i]))
    }

    /// Iterates over all resident blocks as `(block, &meta)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &M)> {
        self.tags
            .iter()
            .zip(&self.metas)
            .filter(|(&t, _)| t != TAG_INVALID)
            .map(|(&t, m)| (t, m))
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.tags.iter().filter(|&&t| t != TAG_INVALID).count()
    }

    /// Whether the array holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(sets: usize, ways: usize) -> CacheConfig {
        CacheConfig { sets, ways }
    }

    #[test]
    fn capacity_math() {
        let c = CacheConfig::from_capacity(64 * 1024, 4);
        assert_eq!(c.sets, 256);
        assert_eq!(c.capacity(), 64 * 1024);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_capacity_panics() {
        CacheConfig::from_capacity(100, 4);
    }

    #[test]
    fn insert_lookup_remove() {
        let mut c: CacheArray<u8> = CacheArray::new(cfg(4, 2));
        assert!(c.is_empty());
        assert!(c.insert(5, 7, [1; 64]).is_none());
        assert_eq!(c.lookup(5), Some(&7));
        assert_eq!(c.peek(5), Some(&7));
        *c.lookup_mut(5).unwrap() = 9;
        let (meta, data) = c.remove(5).unwrap();
        assert_eq!(meta, 9);
        assert_eq!(data[0], 1);
        assert!(c.lookup(5).is_none());
        assert!(c.remove(5).is_none());
    }

    /// First `n` blocks that share block 0's (hashed) set.
    fn conflicting<M: Default + Clone>(c: &CacheArray<M>, n: usize) -> Vec<u64> {
        let set0 = c.set_of(0);
        (0u64..100_000)
            .filter(|&b| c.set_of(b) == set0)
            .take(n)
            .collect()
    }

    #[test]
    fn lru_eviction_order() {
        let mut c: CacheArray<()> = CacheArray::new(cfg(4, 2));
        let b = conflicting(&c, 3);
        c.insert(b[0], (), [0; 64]);
        c.insert(b[1], (), [0; 64]);
        c.lookup(b[0]); // b0 is now MRU; b1 is LRU
        assert_eq!(c.would_evict(b[2]), Some(b[1]));
        let e = c.insert(b[2], (), [0; 64]).unwrap();
        assert_eq!(e.block, b[1]);
        assert!(c.peek(b[0]).is_some());
        assert!(c.peek(b[2]).is_some());
    }

    #[test]
    fn insert_existing_replaces_in_place() {
        let mut c: CacheArray<u8> = CacheArray::new(cfg(2, 1));
        c.insert(2, 1, [1; 64]);
        assert!(c.insert(2, 2, [2; 64]).is_none());
        assert_eq!(c.peek(2), Some(&2));
        assert_eq!(c.data(2)[0], 2);
    }

    #[test]
    fn would_evict_none_when_room() {
        let mut c: CacheArray<()> = CacheArray::new(cfg(1, 2));
        c.insert(0, (), [0; 64]);
        assert_eq!(c.would_evict(1), None); // free way
        assert_eq!(c.would_evict(0), None); // already resident
    }

    #[test]
    fn hashed_index_spreads_page_strides() {
        // Page-strided hot blocks (64 blocks apart) must spread over many
        // sets instead of aliasing into a handful.
        let c: CacheArray<()> = CacheArray::new(cfg(64, 4));
        let sets: std::collections::HashSet<u64> =
            (0..64u64).map(|k| c.set_of(63 + 64 * k)).collect();
        assert!(sets.len() >= 32, "only {} distinct sets", sets.len());
    }

    #[test]
    fn read_write_data() {
        let mut c: CacheArray<()> = CacheArray::new(cfg(1, 1));
        c.insert(3, (), [0; 64]);
        c.write(3, 8, &42u64.to_le_bytes());
        let mut buf = [0u8; 8];
        c.read(3, 8, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 42);
        let mut full = c.data(3);
        full[0] = 0xFF;
        c.set_data(3, full);
        assert_eq!(c.data(3)[0], 0xFF);
    }

    #[test]
    fn iter_and_len() {
        let mut c: CacheArray<u8> = CacheArray::new(cfg(4, 2));
        c.insert(1, 10, [0; 64]);
        c.insert(2, 20, [0; 64]);
        let mut items: Vec<_> = c.iter().map(|(b, m)| (b, *m)).collect();
        items.sort();
        assert_eq!(items, vec![(1, 10), (2, 20)]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut c: CacheArray<()> = CacheArray::new(cfg(1, 2));
        c.insert(0, (), [0; 64]);
        c.insert(1, (), [0; 64]);
        c.peek(0); // must NOT promote 0
        assert_eq!(c.would_evict(2), Some(0));
        c.lookup(0); // promotes 0
        assert_eq!(c.would_evict(2), Some(1));
    }

    #[test]
    fn set_of_is_stable_and_in_range() {
        let c: CacheArray<()> = CacheArray::new(cfg(64, 4));
        for b in 0..1000u64 {
            let s = c.set_of(b);
            assert!(s < 64);
            assert_eq!(s, c.set_of(b));
        }
    }

    /// `victim_lru` picks the first evictable block of the set in
    /// `(lru, tag)` order, asking the predicate about exactly the blocks
    /// before it in that order, over random fills, touches, removals and
    /// predicates (including ones that accept nothing).
    #[test]
    fn victim_lru_is_first_evictable_in_lru_order() {
        let mut c: CacheArray<()> = CacheArray::new(cfg(4, 8));
        let mut rng = ccsvm_engine::SplitMix64::new(0x71C7);
        for step in 0..20_000u64 {
            let r = rng.next_u64();
            let block = (r >> 8) % 96;
            match r % 4 {
                0 | 1 => {
                    c.insert(block, (), [0; 64]);
                }
                2 => {
                    c.lookup(block);
                }
                _ => {
                    c.remove(block);
                }
            }
            let keep = rng.next_u64();
            let modulus = 1 + keep % 4; // 1 accepts nothing
            let evictable = |v: u64| !(v ^ keep).is_multiple_of(modulus);
            let mut order: Vec<(u64, u64)> = c
                .set_range(block)
                .filter(|&i| c.tags[i] != TAG_INVALID)
                .map(|i| (c.lru[i], c.tags[i]))
                .collect();
            order.sort();
            let (mut want_asked, mut asked) = (Vec::new(), Vec::new());
            let want = order.into_iter().map(|(_, b)| b).find(|&b| {
                want_asked.push(b);
                evictable(b)
            });
            let got = c.victim_lru(block, |b| {
                asked.push(b);
                evictable(b)
            });
            assert_eq!(got, want, "step {step}");
            assert_eq!(asked, want_asked, "step {step}: predicate order");
        }
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn read_missing_panics() {
        let c: CacheArray<()> = CacheArray::new(cfg(1, 1));
        let mut buf = [0u8; 1];
        c.read(9, 0, &mut buf);
    }
}

/// Seeded property runs over access sequences.
#[cfg(test)]
mod properties {
    use super::*;
    use ccsvm_engine::SplitMix64;
    use std::collections::HashMap;

    /// The array never holds more blocks per set than its associativity,
    /// and data written to resident blocks reads back unless evicted.
    #[test]
    fn associativity_respected() {
        let mut rng = SplitMix64::new(0xCA5E);
        for _ in 0..256 {
            let config = CacheConfig { sets: 4, ways: 2 };
            let mut c: CacheArray<()> = CacheArray::new(config);
            let mut shadow: HashMap<u64, u8> = HashMap::new();
            for _ in 0..1 + rng.next_below(199) {
                let (block, val) = (rng.next_below(32), rng.next_u64() as u8);
                if c.peek(block).is_none() {
                    if let Some(e) = c.insert(block, (), [0; 64]) {
                        shadow.remove(&e.block);
                    }
                }
                c.write(block, 0, &[val]);
                shadow.insert(block, val);
                // Set population bound (hashed indexing).
                for set in 0..config.sets as u64 {
                    let n = c.iter().filter(|(b, _)| c.set_of(*b) == set).count();
                    assert!(n <= config.ways);
                }
            }
            for (block, val) in shadow {
                if c.peek(block).is_some() {
                    let mut buf = [0u8; 1];
                    c.read(block, 0, &mut buf);
                    assert_eq!(buf[0], val);
                }
            }
        }
    }
}
