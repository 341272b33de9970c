//! Write-through L1s (the §6.1 ablation's `WritePolicy::WriteThrough`) on
//! the APU's lockstep 8-lane GPU chip: matmul n = 32 must complete with the
//! oracle's checksum under every coherence protocol. Every store pushes its
//! block to the L2 as a retaining `PutDirty`, so the L1 sees a stream of
//! `PutAck`s next to its real evictions, and the coalesced lanes of a warp
//! hit blocks that a write-through push has just left in flight.

use ccsvm::{Machine, Outcome, ProtocolKind};
use ccsvm_bench::apu::ApuConfig;
use ccsvm_mem::WritePolicy;
use ccsvm_workloads as wl;

fn run_write_through(protocol: ProtocolKind) {
    let mut cfg = ApuConfig::paper_scaled().gpu_chip;
    cfg.protocol = protocol;
    cfg.l1_write_policy = WritePolicy::WriteThrough;
    let p = wl::matmul::MatmulParams::new(32, 42);
    let r = Machine::new(cfg, wl::build(&wl::matmul::xthreads_source(&p))).run();
    assert_eq!(
        r.outcome,
        Outcome::Completed,
        "{protocol}: {:?}",
        r.diagnostic
    );
    assert_eq!(
        r.exit_code,
        wl::matmul::reference_checksum(&p),
        "{protocol}: matmul checksum"
    );
}

/// A retaining push's `PutAck` must not retire the eviction-buffer copy of
/// a later real eviction of the same block, which the directory may still
/// `FetchInv`.
#[test]
fn directory_write_through_matmul_completes() {
    run_write_through(ProtocolKind::Directory);
}

/// A coalesced lane whose untimed `peek`/`poke` fails re-issues alone and
/// may draw `Retry`; the warp must back off and re-queue that lane.
#[test]
fn dragon_write_through_matmul_completes() {
    run_write_through(ProtocolKind::Dragon);
}

#[test]
fn mesi_snoop_write_through_matmul_completes() {
    run_write_through(ProtocolKind::MesiSnoop);
}
