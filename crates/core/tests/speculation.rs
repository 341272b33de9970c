//! Differential tests for the zone bounds in `SystemConfig::speculation`
//! (DESIGN §7). `sim_threads > 1` runs same-timestamp MTTOP batches as
//! fork-join zones; nothing executes across timestamps or rolls back.
//! `max_epoch` caps a zone's members (1 forms no zone at all) and
//! `max_scan` caps how far formation looks. Both are host knobs only: every
//! `RunReport` must equal the serial reference loop at every bound and
//! every `sim_threads` value, also under fault plans, with the coherence
//! sanitizer observing, and on an abort. `parallel.rs` holds the same
//! differential at the default bounds only.

use ccsvm::{Machine, Outcome, RunReport, SystemConfig};

mod common;
use common::{compile, faulty_cfg, matmul_n16, vecadd_src};

/// `(max_epoch, max_scan)`: zones off, the tightest zones that still form,
/// and the defaults.
const BOUNDS: [(usize, usize); 3] = [(1, 64), (2, 4), (16, 64)];

/// Runs `src` to the end and returns the report with the machine, whose
/// host counters the tests read.
fn run_at(
    mut cfg: SystemConfig,
    src: &str,
    sim_threads: usize,
    bounds: (usize, usize),
) -> (RunReport, Machine) {
    cfg.sim_threads = sim_threads;
    (cfg.speculation.max_epoch, cfg.speculation.max_scan) = bounds;
    let mut m = Machine::new(cfg, compile(src));
    (m.run(), m)
}

/// Runs `src` serially, then at `sim_threads ∈ {2, 4}` under every entry of
/// [`BOUNDS`], asserting every report matches the serial reference.
/// Returns the serial report.
fn differential(cfg: &SystemConfig, src: &str, label: &str) -> RunReport {
    let serial = Machine::new(cfg.clone(), compile(src)).run();
    for sim_threads in [2, 4] {
        for bounds in BOUNDS {
            let (par, _) = run_at(cfg.clone(), src, sim_threads, bounds);
            assert_eq!(
                serial, par,
                "{label}: sim_threads={sim_threads} bounds={bounds:?} diverged from serial"
            );
        }
    }
    serial
}

#[test]
fn speculation_on_off_is_identical_across_sim_threads() {
    let src = vecadd_src(64);
    let r = differential(&SystemConfig::tiny(), &src, "vecadd_n64");
    assert_eq!(r.outcome, Outcome::Completed);
    assert_eq!(r.exit_code, (0..64).map(|i| i * 3 + i + 7).sum::<u64>());

    // `max_epoch = 1` is the off switch: the head batch runs alone.
    let (_, off) = run_at(SystemConfig::tiny(), &src, 4, BOUNDS[0]);
    assert_eq!(off.host_phases().zones, 0, "max_epoch = 1 formed a zone");
    let (_, on) = run_at(SystemConfig::tiny(), &src, 4, BOUNDS[2]);
    assert!(
        on.host_phases().zones > 0,
        "the default bounds formed no zone"
    );
}

#[test]
fn paper_default_offload_is_identical_and_epochs_commit() {
    // Full-size machine (10 MTTOP cores), where zones are widest. Every
    // live batch a zone claims commits exactly once, so the batch count
    // equals the serial loop's; the speculation counters the ledger still
    // reads stay 0.
    let src = matmul_n16();
    let cfg = SystemConfig::paper_default();
    let r = differential(&cfg, &src, "matmul_n16");
    assert_eq!(r.outcome, Outcome::Completed);

    let serial = run_at(cfg.clone(), &src, 1, BOUNDS[2]).1.spec_stats();
    for bounds in &BOUNDS[1..] {
        let (_, m) = run_at(cfg.clone(), &src, 4, *bounds);
        let ph = m.host_phases();
        assert!(ph.zones > 0, "bounds {bounds:?}: no zone formed");
        assert!(
            ph.zone_batches >= 2 * ph.zones,
            "bounds {bounds:?}: zones must hold ≥2 batches"
        );
        let s = m.spec_stats();
        assert_eq!(
            s.batches_total, serial.batches_total,
            "bounds {bounds:?}: zones committed a different number of batches"
        );
        assert_eq!(
            (
                s.epochs,
                s.members,
                s.committed,
                s.rolled_back,
                s.overflows,
                s.rollback_all
            ),
            (0, 0, 0, 0, 0, 0),
            "bounds {bounds:?}: nothing speculates: {s:?}"
        );
    }
}

#[test]
fn fault_plan_and_sanitizer_matrix_is_identical() {
    // NoC drops, correctable DRAM ECC flips and transient TLB-walk
    // failures, with and without the coherence sanitizer observing: no zone
    // bound may change results or trip an invariant.
    for seed in [3, 7] {
        for sanitize in [false, true] {
            let mut cfg = faulty_cfg(seed);
            cfg.sanitizer.enabled = sanitize;
            let r = differential(
                &cfg,
                &vecadd_src(32),
                &format!("faulty seed {seed} sanitize {sanitize}"),
            );
            assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
            assert!(
                r.stats.get("noc.retransmissions") > 0.0,
                "seed {seed}: NoC faults must actually fire in the compared runs"
            );
        }
    }
}

#[test]
fn poison_abort_under_speculation_is_identical() {
    // ECC poison appears mid-offload, after zones have formed; from then
    // on no zone forms. The abort must stay bit-identical, diagnostics
    // included, at every bound.
    let mut cfg = SystemConfig::tiny();
    cfg.fault.dram.double_bit_rate = 0.02;
    let r = differential(&cfg, &vecadd_src(32), "poison offload");
    assert_eq!(r.outcome, Outcome::Poisoned);
    let (_, m) = run_at(cfg, &vecadd_src(32), 4, BOUNDS[2]);
    assert!(
        m.host_phases().zones > 0,
        "poison struck before any zone formed"
    );
    assert!(!r.diagnostic.expect("dump").poisoned_blocks.is_empty());
}
