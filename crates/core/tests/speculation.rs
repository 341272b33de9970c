//! Differential tests for the speculative epoch executor (DESIGN §12):
//! cross-timestamp MTTOP batches execute optimistically with undo-log
//! rollback, and every observable — `RunReport`, stats, diagnostics,
//! printed output — must stay bit-identical to the serial reference loop
//! with speculation on or off, at every `sim_threads` value, under fault
//! plans, and with the coherence sanitizer observing.

use ccsvm::{Machine, Outcome, RunReport, SystemConfig, Time};

mod common;
use common::{compile, matmul_n16, vecadd_src};

fn run_at(mut cfg: SystemConfig, src: &str, sim_threads: usize, speculation: bool) -> RunReport {
    cfg.sim_threads = sim_threads;
    cfg.speculation.enabled = speculation;
    Machine::new(cfg, compile(src)).run()
}

/// Runs `src` serially, then at `sim_threads ∈ {2, 4}` with speculation on
/// and off, asserting every report matches the serial reference. Returns
/// the serial report.
fn differential(cfg: &SystemConfig, src: &str, label: &str) -> RunReport {
    let serial = run_at(cfg.clone(), src, 1, true);
    for sim_threads in [2, 4] {
        for speculation in [true, false] {
            let par = run_at(cfg.clone(), src, sim_threads, speculation);
            assert_eq!(
                serial, par,
                "{label}: sim_threads={sim_threads} speculation={speculation} \
                 diverged from serial"
            );
        }
    }
    serial
}

#[test]
fn speculation_on_off_is_identical_across_sim_threads() {
    let r = differential(&SystemConfig::tiny(), &vecadd_src(64), "vecadd_n64");
    assert_eq!(r.outcome, Outcome::Completed);
    assert_eq!(r.exit_code, (0..64).map(|i| i * 3 + i + 7).sum::<u64>());
}

#[test]
fn paper_default_offload_is_identical_and_epochs_commit() {
    // Full-size machine (10 MTTOP cores), the configuration where epochs
    // are widest. Also guards against the speculative path being vacuous:
    // the run must form epochs and commit speculated members.
    let src = matmul_n16();
    let r = differential(&SystemConfig::paper_default(), &src, "matmul_n16");
    assert_eq!(r.outcome, Outcome::Completed);

    let mut cfg = SystemConfig::paper_default();
    cfg.sim_threads = 4;
    let mut m = Machine::new(cfg, compile(&src));
    assert_eq!(m.run().outcome, Outcome::Completed);
    let s = m.spec_stats();
    assert!(s.epochs > 0, "no epochs formed: {s:?}");
    assert!(
        s.committed > s.epochs,
        "epochs never committed a speculated member (only heads): {s:?}"
    );
}

#[test]
fn conflict_on_last_epoch_member_rolls_back_and_matches_serial() {
    // `max_epoch = 2` makes every epoch a head plus exactly one speculated
    // member, so any conflict-driven rollback is necessarily on the *last*
    // member of its epoch — the boundary where commit-order bookkeeping is
    // easiest to get wrong. The run must both exercise that path and stay
    // bit-identical to serial.
    let src = matmul_n16();
    let mut cfg = SystemConfig::paper_default();
    cfg.speculation.max_epoch = 2;
    let serial = run_at(cfg.clone(), &src, 1, true);
    cfg.sim_threads = 4;
    let mut m = Machine::new(cfg, compile(&src));
    let par = m.run();
    assert_eq!(serial, par, "max_epoch=2 diverged from serial");
    let s = m.spec_stats();
    assert!(s.epochs > 0, "no epochs formed: {s:?}");
    assert!(
        s.rolled_back > 0,
        "no last-member rollback exercised — workload or conflict rules \
         changed shape: {s:?}"
    );
}

#[test]
fn undo_overflow_falls_back_to_snapshot_restore() {
    // A one-set undo budget overflows on essentially every speculative
    // member that touches the L1, forcing the journal's full-snapshot
    // fallback. Rollback correctness must not depend on which mechanism
    // restored the cache.
    let src = matmul_n16();
    let mut cfg = SystemConfig::paper_default();
    cfg.speculation.undo_sets = 1;
    let serial = run_at(cfg.clone(), &src, 1, true);
    cfg.sim_threads = 4;
    let mut m = Machine::new(cfg, compile(&src));
    let par = m.run();
    assert_eq!(serial, par, "undo_sets=1 diverged from serial");
    let s = m.spec_stats();
    assert!(s.rolled_back > 0, "no rollbacks exercised: {s:?}");
    assert!(
        s.overflows > 0,
        "undo journal never overflowed with a 1-set budget: {s:?}"
    );
}

#[test]
fn rollback_across_checkpoint_boundary_is_identical() {
    // Pause mid-offload, checkpoint, restore, and finish under the
    // speculative executor: the stitched run must equal the uninterrupted
    // serial run exactly, even though epochs (and their rollbacks) straddle
    // state that crossed a serialization boundary.
    let src = matmul_n16();
    let cfg = SystemConfig::paper_default();
    let uninterrupted = run_at(cfg.clone(), &src, 1, true);
    assert_eq!(uninterrupted.outcome, Outcome::Completed);

    let half = Time::from_ps(uninterrupted.time.as_ps() / 2);
    let mut cfg_pause = cfg.clone();
    cfg_pause.sim_threads = 4;
    let mut m = Machine::new(cfg_pause, compile(&src));
    assert!(
        m.run_until(half).is_none(),
        "run finished before the checkpoint point"
    );
    let image = m.checkpoint_bytes();

    for (sim_threads, speculation) in [(4, true), (1, true), (4, false)] {
        let mut cfg_resume = cfg.clone();
        cfg_resume.sim_threads = sim_threads;
        cfg_resume.speculation.enabled = speculation;
        let mut fork = Machine::restore_bytes(cfg_resume, compile(&src), &image)
            .unwrap_or_else(|e| panic!("restore: {e}"));
        let resumed = fork.run();
        assert_eq!(
            uninterrupted, resumed,
            "resumed run (sim_threads={sim_threads}, speculation={speculation}) \
             diverged from the uninterrupted serial run"
        );
    }
}

#[test]
fn fault_plan_and_sanitizer_matrix_is_identical() {
    // The `faults.rs` fault plan (NoC drops + correctable DRAM ECC flips +
    // transient TLB-walk failures), with and without the coherence
    // sanitizer observing: speculation must neither change results nor
    // trip an invariant, whichever executor runs.
    for seed in [3, 7] {
        for sanitize in [false, true] {
            let mut cfg = SystemConfig::tiny();
            cfg.fault.seed = seed;
            cfg.fault.noc.drop_rate = 0.02;
            cfg.fault.dram.single_bit_rate = 0.2;
            cfg.fault.tlb.transient_rate = 0.02;
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
    // ECC poison rolls back every uncommitted member and the head runs
    // serially from then on; the abort must stay bit-identical,
    // diagnostics included.
    let mut cfg = SystemConfig::tiny();
    cfg.fault.dram.double_bit_rate = 0.02;
    let r = differential(&cfg, &vecadd_src(32), "poison offload");
    assert_eq!(r.outcome, Outcome::Poisoned);
    assert!(!r.diagnostic.expect("dump").poisoned_blocks.is_empty());
}

#[test]
fn retry_budget_abort_mid_epoch_dumps_the_serial_state() {
    // A blackholed responder exhausts the directory's retry budget while a
    // memory event drains between two member slots. The abort's dump is
    // captured inside that dispatch, with later members still speculating:
    // their speculative misses must not show up as outstanding.
    let src = matmul_n16();
    for nth in [16, 76, 118] {
        let mut cfg = SystemConfig::paper_default();
        cfg.fault.dir.timeout = Some(Time::from_us(5));
        cfg.fault.dir.retry_budget = 0;
        cfg.fault.blackhole_resp = Some(nth);
        let r = differential(&cfg, &src, &format!("blackhole_resp {nth}"));
        assert_eq!(r.outcome, Outcome::RetryBudgetExhausted, "nth {nth}");
    }
}
