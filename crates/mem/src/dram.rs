//! Off-chip DRAM model: sparse backing store + fixed latency + channel
//! bandwidth, with the access counters behind the paper's Figure 9.

use ccsvm_engine::{DramFaultConfig, FxHashMap, SplitMix64, Stats, Time};

use crate::addr::{offset_in_block, PhysAddr, BLOCK_BYTES};
use crate::msg::BlockData;

const PAGE_BYTES: u64 = 4096;

/// SECDED ECC fault model on the read path, present only when fault
/// injection is installed. Single-bit flips are corrected (the stored data
/// is untouched — SECDED recovers it — and the event is counted);
/// double-bit flips are detected but uncorrectable: the block is marked
/// poisoned and the requester sees `AccessResult::Poisoned` instead of
/// silently consuming corrupt data.
#[derive(Clone, Debug, PartialEq)]
struct DramFaults {
    cfg: DramFaultConfig,
    rng: SplitMix64,
    corrected: u64,
    poisoned_events: u64,
}

/// DRAM timing parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DramConfig {
    /// Fixed access latency (Table 2: 100 ns for the CCSVM system, 72 ns for
    /// the APU).
    pub latency: Time,
    /// Channel bandwidth in bytes per nanosecond (DDR3-1600 ≈ 12.8).
    pub bytes_per_ns: f64,
    /// Number of independent channels (one per L2 bank by default).
    pub channels: usize,
}

impl DramConfig {
    /// The paper's CCSVM system DRAM: 100 ns, DDR3-class bandwidth, one
    /// channel per L2 bank.
    pub fn paper_default() -> DramConfig {
        DramConfig {
            latency: Time::from_ns(100),
            bytes_per_ns: 12.8,
            channels: 4,
        }
    }
}

/// Off-chip memory: functional backing store plus timing/counters.
///
/// Storage is sparse (4 KiB frames allocated on first touch), so a simulated
/// 2 GB DRAM costs only what the workload actually touches.
///
/// # Examples
///
/// ```
/// use ccsvm_mem::{Dram, DramConfig, PhysAddr};
/// let mut d = Dram::new(DramConfig::paper_default());
/// d.write_bytes(PhysAddr(0x1000), &[1, 2, 3]);
/// let mut buf = [0u8; 3];
/// d.read_bytes(PhysAddr(0x1000), &mut buf);
/// assert_eq!(buf, [1, 2, 3]);
/// ```
#[derive(Clone, Debug)]
pub struct Dram {
    config: DramConfig,
    pages: FxHashMap<u64, Box<[u8; PAGE_BYTES as usize]>>,
    channel_free: Vec<Time>,
    reads: u64,
    writes: u64,
    faults: Option<DramFaults>,
}

impl Dram {
    /// Creates an empty DRAM.
    pub fn new(config: DramConfig) -> Dram {
        assert!(config.channels > 0, "need at least one channel");
        Dram {
            config,
            pages: FxHashMap::default(),
            channel_free: vec![Time::ZERO; config.channels],
            reads: 0,
            writes: 0,
            faults: None,
        }
    }

    /// Enables the SECDED ECC fault model with its own RNG stream.
    pub fn install_faults(&mut self, cfg: DramFaultConfig, rng: SplitMix64) {
        self.faults = Some(DramFaults {
            cfg,
            rng,
            corrected: 0,
            poisoned_events: 0,
        });
    }

    /// The timing configuration.
    pub fn config(&self) -> DramConfig {
        self.config
    }

    fn page_mut(&mut self, frame: u64) -> &mut [u8; PAGE_BYTES as usize] {
        self.pages
            .entry(frame)
            .or_insert_with(|| Box::new([0; PAGE_BYTES as usize]))
    }

    /// Functional (untimed) byte read; unallocated memory reads as zero.
    /// One page lookup per page-contiguous span.
    pub fn read_bytes(&self, addr: PhysAddr, mut buf: &mut [u8]) {
        let mut a = addr.0;
        while !buf.is_empty() {
            let off = (a % PAGE_BYTES) as usize;
            let n = (PAGE_BYTES as usize - off).min(buf.len());
            let (span, rest) = std::mem::take(&mut buf).split_at_mut(n);
            match self.pages.get(&(a / PAGE_BYTES)) {
                Some(p) => span.copy_from_slice(&p[off..off + n]),
                None => span.fill(0),
            }
            a += n as u64;
            buf = rest;
        }
    }

    /// Functional (untimed) byte write. Allocates exactly the pages the
    /// bytes land in.
    pub fn write_bytes(&mut self, addr: PhysAddr, mut bytes: &[u8]) {
        let mut a = addr.0;
        while !bytes.is_empty() {
            let off = (a % PAGE_BYTES) as usize;
            let n = (PAGE_BYTES as usize - off).min(bytes.len());
            let (span, rest) = bytes.split_at(n);
            self.page_mut(a / PAGE_BYTES)[off..off + n].copy_from_slice(span);
            a += n as u64;
            bytes = rest;
        }
    }

    /// Timed read of block `block` on the channel for `channel_key`:
    /// returns the completion time, the data, and whether ECC declared the
    /// block poisoned (uncorrectable double-bit error); counts one DRAM
    /// access. The stored data is never corrupted: a single-bit flip is
    /// corrected by SECDED before the data leaves the controller, and a
    /// double-bit flip is *detected*, so the block is tagged rather than
    /// corrupt data silently returned.
    pub fn timed_read_block(
        &mut self,
        now: Time,
        channel_key: usize,
        block: u64,
    ) -> (Time, BlockData, bool) {
        self.reads += 1;
        let done = self.reserve(now, channel_key);
        let mut data = [0u8; BLOCK_BYTES as usize];
        self.read_bytes(crate::addr::base_of_block(block), &mut data);
        let mut poisoned = false;
        if let Some(f) = &mut self.faults {
            let u = f.rng.next_f64();
            if u < f.cfg.double_bit_rate {
                f.poisoned_events += 1;
                poisoned = true;
            } else if u < f.cfg.double_bit_rate + f.cfg.single_bit_rate {
                f.corrected += 1;
            }
        }
        (done, data, poisoned)
    }

    /// Timed writeback of a block; returns completion time and counts one
    /// DRAM access.
    pub fn timed_write_block(
        &mut self,
        now: Time,
        channel_key: usize,
        block: u64,
        data: &BlockData,
    ) -> Time {
        self.writes += 1;
        let done = self.reserve(now, channel_key);
        self.write_bytes(crate::addr::base_of_block(block), data);
        done
    }

    /// Timed bulk transfer of `bytes` (used by the APU's DMA model); returns
    /// completion time and counts `ceil(bytes / 64)` accesses in the given
    /// direction.
    pub fn timed_bulk(
        &mut self,
        now: Time,
        channel_key: usize,
        bytes: u64,
        is_write: bool,
    ) -> Time {
        let blocks = bytes.div_ceil(BLOCK_BYTES);
        if is_write {
            self.writes += blocks;
        } else {
            self.reads += blocks;
        }
        let ch = channel_key % self.channel_free.len();
        let start = now.max(self.channel_free[ch]) + self.config.latency;
        let xfer = Time::from_ps((bytes as f64 * 1_000.0 / self.config.bytes_per_ns).ceil() as u64);
        let done = start + xfer;
        self.channel_free[ch] = done;
        done
    }

    fn reserve(&mut self, now: Time, channel_key: usize) -> Time {
        let ch = channel_key % self.channel_free.len();
        let xfer =
            Time::from_ps((BLOCK_BYTES as f64 * 1_000.0 / self.config.bytes_per_ns).ceil() as u64);
        let start = now.max(self.channel_free[ch]);
        let done = start + self.config.latency + xfer;
        self.channel_free[ch] = start + xfer; // pipelined: occupancy is the burst
        done
    }

    /// Total accesses (reads + writes) — the paper's Figure 9 metric.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Read / write counters. ECC counters appear only when the fault model
    /// is installed, keeping healthy-run reports unchanged.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("reads", self.reads as f64);
        s.set("writes", self.writes as f64);
        s.set("accesses", self.accesses() as f64);
        if let Some(f) = &self.faults {
            s.set("ecc_corrected", f.corrected as f64);
            s.set("ecc_poisoned", f.poisoned_events as f64);
        }
        s
    }

    /// Resets access counters (e.g. after warm-up or input loading).
    pub fn clear_counters(&mut self) {
        self.reads = 0;
        self.writes = 0;
    }
}

/// Helper to read an 8-byte little-endian word out of a block image.
pub(crate) fn word_from_block(data: &BlockData, addr: PhysAddr, size: usize) -> u64 {
    let off = offset_in_block(addr);
    let mut v = [0u8; 8];
    v[..size].copy_from_slice(&data[off..off + size]);
    u64::from_le_bytes(v)
}

/// Helper to write an 8-byte little-endian word into a block image.
#[cfg(test)]
pub(crate) fn word_to_block(data: &mut BlockData, addr: PhysAddr, size: usize, value: u64) {
    let off = offset_in_block(addr);
    data[off..off + size].copy_from_slice(&value.to_le_bytes()[..size]);
    debug_assert_eq!(
        crate::addr::block_of(addr),
        crate::addr::block_of(PhysAddr(addr.0 + size as u64 - 1))
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_rw_sparse() {
        let mut d = Dram::new(DramConfig::paper_default());
        let mut buf = [9u8; 4];
        d.read_bytes(PhysAddr(0xdead_0000), &mut buf);
        assert_eq!(buf, [0; 4]); // untouched memory is zero
        d.write_bytes(PhysAddr(0xFFF), &[1, 2]); // straddles a page boundary
        let mut two = [0u8; 2];
        d.read_bytes(PhysAddr(0xFFF), &mut two);
        assert_eq!(two, [1, 2]);
    }

    /// Span copies against a byte-map reference: seeded reads and writes
    /// that straddle one or more pages, reads of never-written pages, block
    /// reads, and the set of pages writes allocate.
    #[test]
    fn spans_match_byte_map_reference() {
        let mut d = Dram::new(DramConfig::paper_default());
        let mut bytes: std::collections::HashMap<u64, u8> = Default::default();
        let mut rng = SplitMix64::new(0xD4A3);
        let expect = |bytes: &std::collections::HashMap<u64, u8>, a: u64, n: usize| {
            (a..a + n as u64)
                .map(|x| bytes.get(&x).copied().unwrap_or(0))
                .collect::<Vec<u8>>()
        };
        for step in 0..3_000u64 {
            let r = rng.next_u64();
            let len = match (r >> 2) % 4 {
                0 => (r >> 8) % 9,
                1 => (r >> 8) % 130,
                2 => (r >> 8) % (2 * PAGE_BYTES + 130),
                _ => BLOCK_BYTES,
            } as usize;
            // Sixteen pages, a few bytes either side of page boundaries half
            // the time; writes only reach the first ten.
            let page = (r >> 24) % 16;
            let off = if r & 2 == 0 {
                (r >> 32) % PAGE_BYTES
            } else {
                (PAGE_BYTES - 8 + (r >> 32) % 16) % PAGE_BYTES
            };
            let addr = page * PAGE_BYTES + off;
            if r.is_multiple_of(2) && page < 10 {
                let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                d.write_bytes(PhysAddr(addr), &data);
                for (i, &b) in data.iter().enumerate() {
                    bytes.insert(addr + i as u64, b);
                }
            } else {
                let mut buf = vec![0xEE; len];
                d.read_bytes(PhysAddr(addr), &mut buf);
                assert_eq!(buf, expect(&bytes, addr, len), "step {step}");
            }
            let block = (r >> 40) % (16 * PAGE_BYTES / BLOCK_BYTES);
            let (_, data, _) = d.timed_read_block(Time::ZERO, 0, block);
            let mut via_bytes = [0u8; BLOCK_BYTES as usize];
            d.read_bytes(crate::addr::base_of_block(block), &mut via_bytes);
            assert_eq!(data, via_bytes, "step {step}");
            assert_eq!(
                data.to_vec(),
                expect(&bytes, block * BLOCK_BYTES, BLOCK_BYTES as usize)
            );
        }
        let mut allocated: Vec<u64> = d.pages.keys().copied().collect();
        allocated.sort_unstable();
        let mut written: Vec<u64> = bytes.keys().map(|a| a / PAGE_BYTES).collect();
        written.sort_unstable();
        written.dedup();
        assert_eq!(allocated, written, "writes allocate exactly their pages");
    }

    #[test]
    fn timed_read_counts_and_delays() {
        let mut d = Dram::new(DramConfig::paper_default());
        d.write_bytes(PhysAddr(64), &[7]);
        let (done, data, poisoned) = d.timed_read_block(Time::ZERO, 0, 1);
        assert!(!poisoned);
        assert!(done >= Time::from_ns(100));
        assert_eq!(data[0], 7);
        assert_eq!(d.accesses(), 1);
        assert_eq!(d.stats().get("reads"), 1.0);
    }

    #[test]
    fn timed_write_roundtrip() {
        let mut d = Dram::new(DramConfig::paper_default());
        let mut blk = [0u8; 64];
        blk[3] = 0xAB;
        let done = d.timed_write_block(Time::from_ns(5), 1, 2, &blk);
        assert!(done > Time::from_ns(5));
        let mut buf = [0u8; 1];
        d.read_bytes(PhysAddr(2 * 64 + 3), &mut buf);
        assert_eq!(buf[0], 0xAB);
        assert_eq!(d.stats().get("writes"), 1.0);
    }

    #[test]
    fn channel_contention_serializes() {
        let cfg = DramConfig {
            latency: Time::from_ns(100),
            bytes_per_ns: 6.4, // 64B burst = 10 ns
            channels: 1,
        };
        let mut d = Dram::new(cfg);
        let (a, _, _) = d.timed_read_block(Time::ZERO, 0, 0);
        let (b, _, _) = d.timed_read_block(Time::ZERO, 0, 1);
        assert_eq!(a, Time::from_ns(110));
        // Second burst starts after the first burst's occupancy (10ns), fully
        // pipelined behind the latency.
        assert_eq!(b, Time::from_ns(120));
    }

    #[test]
    fn bulk_counts_blocks() {
        let mut d = Dram::new(DramConfig::paper_default());
        d.timed_bulk(Time::ZERO, 0, 100, true);
        assert_eq!(d.stats().get("writes"), 2.0); // ceil(100/64)
        d.clear_counters();
        assert_eq!(d.accesses(), 0);
    }

    #[test]
    fn ecc_corrects_singles_poisons_doubles_deterministically() {
        let cfg = DramFaultConfig {
            single_bit_rate: 0.3,
            double_bit_rate: 0.1,
        };
        let run = |seed: u64| {
            let mut d = Dram::new(DramConfig::paper_default());
            d.write_bytes(PhysAddr(0), &[5]);
            d.install_faults(cfg, SplitMix64::new(seed));
            let mut poisons = Vec::new();
            for i in 0..200u64 {
                let (_, data, poisoned) = d.timed_read_block(Time::ZERO, 0, i % 8);
                if i % 8 == 0 {
                    assert_eq!(data[0], 5, "corrected reads return true data");
                }
                if poisoned {
                    poisons.push(i);
                }
            }
            (
                poisons,
                d.stats().get("ecc_corrected"),
                d.stats().get("ecc_poisoned"),
            )
        };
        let (p1, c1, d1) = run(11);
        let (p2, c2, d2) = run(11);
        assert_eq!(
            (&p1, c1, d1),
            (&p2, c2, d2),
            "same seed replays bit-for-bit"
        );
        assert!(c1 > 0.0 && d1 > 0.0, "rates high enough to observe both");
        assert_eq!(d1 as usize, p1.len());
        let (p3, _, _) = run(12);
        assert_ne!(p1, p3, "different seeds diverge");
    }

    #[test]
    fn word_block_helpers() {
        let mut blk = [0u8; 64];
        word_to_block(&mut blk, PhysAddr(8), 8, 0x1122334455667788);
        assert_eq!(word_from_block(&blk, PhysAddr(8), 8), 0x1122334455667788);
        assert_eq!(word_from_block(&blk, PhysAddr(8), 4), 0x55667788);
        word_to_block(&mut blk, PhysAddr(16), 2, 0xFFFF_0001);
        assert_eq!(word_from_block(&blk, PhysAddr(16), 2), 1);
    }
}
