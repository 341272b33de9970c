//! `FlatMem` against a byte-at-a-time reference: a sparse map from address
//! to byte, where an absent byte reads as zero. Seeded random sequences of
//! reads and writes of every access size, clustered on a few pages and
//! their boundaries so that page-straddling accesses, unmapped reads and
//! overwrites all occur, must read back identically.

use std::collections::HashMap;

use ccsvm_isa::FlatMem;

/// The byte-at-a-time model `FlatMem` must agree with.
#[derive(Default)]
struct ByteMem(HashMap<u64, u8>);

impl ByteMem {
    fn read(&self, addr: u64, size: u8) -> u64 {
        (0..u64::from(size)).fold(0, |v, i| {
            let b = self.0.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
            v | u64::from(b) << (8 * i)
        })
    }

    fn write(&mut self, addr: u64, size: u8, value: u64) {
        for i in 0..u64::from(size) {
            self.0
                .insert(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }
}

/// SplitMix64: a small seeded stream, so every run draws the same accesses.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Page bases the accesses cluster on: low memory, neighbours, a far page,
/// one below a high boundary, and the stack and heap regions the ABI uses.
const PAGES: [u64; 7] = [
    0,
    0x1000,
    0x2000,
    0x7f_ffff_f000,
    0xffff_ffff_0000,
    ccsvm_isa::abi::HEAP_BASE,
    ccsvm_isa::abi::STACK_BASE,
];

fn random_addr(rng: &mut Rng) -> u64 {
    let page = PAGES[(rng.next() % PAGES.len() as u64) as usize];
    let r = rng.next();
    // Half the accesses land within 8 bytes of a page boundary, so sizes
    // above one byte regularly straddle it.
    let off = if r & 1 == 0 {
        0x1000 - 8 + (r >> 1) % 16
    } else {
        (r >> 1) % 0x1000
    };
    page.wrapping_add(off)
}

#[test]
fn flatmem_matches_a_byte_at_a_time_reference() {
    for seed in 0..64u64 {
        let mut rng = Rng(seed);
        let (mut mem, mut model) = (FlatMem::new(), ByteMem::default());
        let (mut straddles, mut unmapped_reads) = (0, 0);
        for step in 0..2_000 {
            let addr = random_addr(&mut rng);
            let size = [1u8, 2, 4, 8][(rng.next() % 4) as usize];
            if addr % 0x1000 + u64::from(size) > 0x1000 {
                straddles += 1;
            }
            if rng.next().is_multiple_of(3) {
                let value = rng.next();
                mem.write(addr, size, value);
                model.write(addr, size, value);
            } else {
                if (0..u64::from(size)).all(|i| !model.0.contains_key(&(addr + i))) {
                    unmapped_reads += 1;
                }
                assert_eq!(
                    mem.read(addr, size),
                    model.read(addr, size),
                    "seed {seed} step {step}: read {size} at {addr:#x}"
                );
            }
        }
        assert!(straddles > 0 && unmapped_reads > 0, "seed {seed}");
        // A clone reads back the same bytes.
        let copy = mem.clone();
        for &page in &PAGES {
            for off in (0..0x1000).step_by(8) {
                let a = page + off;
                assert_eq!(copy.read(a, 8), model.read(a, 8), "seed {seed}: {a:#x}");
            }
        }
    }
}

#[test]
fn unmapped_memory_reads_zero_and_writes_allocate_zeroed_pages() {
    let mut mem = FlatMem::default();
    assert_eq!(mem.read(0x5000, 8), 0);
    mem.write(0x5ffe, 4, 0xaabb_ccdd);
    assert_eq!(mem.read(0x5ffe, 4), 0xaabb_ccdd);
    assert_eq!(mem.read(0x5ffe, 2), 0xccdd);
    assert_eq!(mem.read(0x6000, 2), 0xaabb);
    // The rest of both touched pages is zero.
    assert_eq!(mem.read(0x5000, 8), 0);
    assert_eq!(mem.read(0x5ff8, 8), 0xccdd_0000_0000_0000);
    assert_eq!(mem.read(0x6002, 8), 0);
    // Format must not panic on a populated memory.
    assert!(!format!("{mem:?}").is_empty());
}
