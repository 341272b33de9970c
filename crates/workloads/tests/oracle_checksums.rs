//! The functional oracle's answers, pinned. Every workload test and every
//! benchmark rep judges a timed run against `ccsvm_isa::Interp` over
//! `FlatMem`, so a change to the interpreter or its memory that moved a
//! checksum would move the yardstick itself. The values were recorded with
//! the byte-at-a-time `FlatMem`.

use ccsvm_workloads as wl;

const STEPS: u64 = 200_000_000;

#[test]
fn barnes_hut_oracle_checksums_are_pinned() {
    for (seed, want) in [(1, 0x1a3_2056), (7, 0x244_811a)] {
        let got = wl::barnes_hut::oracle_checksum(&wl::barnes_hut::BhParams::new(32, seed));
        assert_eq!(got, want, "barnes_hut 32 bodies, seed {seed}: {got:#x}");
    }
}

#[test]
fn matmul_apsp_and_spmm_oracle_checksums_are_pinned() {
    let cases = [
        (
            "matmul xthreads n=8 seed 1",
            wl::matmul::xthreads_source(&wl::matmul::MatmulParams::new(8, 1)),
            0xa7_0b0f,
        ),
        (
            "matmul xthreads n=8 seed 42",
            wl::matmul::xthreads_source(&wl::matmul::MatmulParams::new(8, 42)),
            0xab_9771,
        ),
        // apsp's kernel waits on a CPU barrier and spmm's on the CPU's
        // malloc server, neither of which a synchronous launch reaches, so
        // the oracle runs their CPU versions.
        (
            "apsp cpu n=8 seed 1",
            wl::apsp::cpu_source(&wl::apsp::ApspParams::new(8, 1)),
            0x25e5,
        ),
        (
            "apsp cpu n=8 seed 42",
            wl::apsp::cpu_source(&wl::apsp::ApspParams::new(8, 42)),
            0x1ee8,
        ),
        (
            "spmm cpu n=64 seed 1",
            wl::spmm::cpu_source(&wl::spmm::SpmmParams::one_percent(64, 1)),
            0xa797,
        ),
        (
            "spmm cpu n=64 seed 42",
            wl::spmm::cpu_source(&wl::spmm::SpmmParams::one_percent(64, 42)),
            0x6aa8,
        ),
    ];
    let mut wrong = Vec::new();
    for (name, src, want) in &cases {
        let got = wl::run_functional(src, STEPS);
        if got != *want {
            wrong.push(format!("{name}: {got:#x} (want {want:#x})"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
