//! Differential determinism tests for the fork-join executor (DESIGN §7):
//! every run — happy path, fault-injected, and aborting — must produce a
//! `RunReport` (outcome, stats, diagnostics, printed output, event count)
//! identical to the serial reference loop at every `sim_threads` value.

use ccsvm::{Machine, Outcome, RunReport, SystemConfig, Time};

mod common;
use common::{compile, faulty_cfg, matmul_n16, vecadd_src};

fn run_at(mut cfg: SystemConfig, src: &str, sim_threads: usize) -> RunReport {
    cfg.sim_threads = sim_threads;
    Machine::new(cfg, compile(src)).run()
}

/// Runs `src` serially and at `sim_threads ∈ {2, 4}`, asserting the full
/// reports match, and returns the serial report.
fn differential(cfg: &SystemConfig, src: &str, label: &str) -> RunReport {
    let serial = run_at(cfg.clone(), src, 1);
    for sim_threads in [2, 4] {
        let par = run_at(cfg.clone(), src, sim_threads);
        assert_eq!(
            serial, par,
            "{label}: sim_threads={sim_threads} diverged from serial"
        );
    }
    serial
}

#[test]
fn fault_free_offload_is_identical_across_sim_threads() {
    let r = differential(&SystemConfig::tiny(), &vecadd_src(64), "vecadd_n64");
    assert_eq!(r.outcome, Outcome::Completed);
    assert_eq!(r.exit_code, (0..64).map(|i| i * 3 + i + 7).sum::<u64>());
}

#[test]
fn paper_default_offload_is_identical_across_sim_threads() {
    // Full-size machine (10 MTTOP cores): the configuration where zones are
    // widest and the executor actually forks.
    let src = matmul_n16();
    let r = differential(&SystemConfig::paper_default(), &src, "matmul_n16");
    assert_eq!(r.outcome, Outcome::Completed);
}

#[test]
fn zones_actually_form_under_offload() {
    // Guard against zone formation being vacuous: the full-size machine
    // running a real offload must execute multi-batch zones.
    let mut cfg = SystemConfig::paper_default();
    cfg.sim_threads = 4;
    let mut m = Machine::new(cfg, compile(&matmul_n16()));
    assert_eq!(m.run().outcome, Outcome::Completed);
    let ph = m.host_phases();
    assert!(ph.zones > 0, "no zone formed — executor never forked");
    assert!(
        ph.zone_batches >= 2 * ph.zones,
        "zones must hold ≥2 batches"
    );
}

#[test]
fn fault_injection_matrix_is_identical_across_sim_threads() {
    // NoC drops, correctable DRAM ECC flips and transient TLB-walk
    // failures, with the coherence sanitizer observing at two seeds: zones
    // must neither change results nor trip an invariant.
    for (seed, sanitize) in [(3, false), (7, false), (11, false), (3, true), (7, true)] {
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

#[test]
fn deadlock_abort_is_identical_across_sim_threads() {
    // A dropped data grant deadlocks the machine; outcome, watchdog timing
    // and the DiagnosticDump must match the serial reference exactly.
    let mut cfg = SystemConfig::tiny();
    cfg.fault.drop_data_delivery = Some(1);
    cfg.fault.watchdog.period = Time::from_us(100);
    cfg.fault.watchdog.quanta = 4;
    let r = differential(
        &cfg,
        "_CPU_ fn main() -> int { return 41 + 1; }",
        "deadlock",
    );
    assert_eq!(r.outcome, Outcome::Deadlock);
    assert!(r.diagnostic.is_some());
}

#[test]
fn ecc_poison_abort_is_identical_across_sim_threads() {
    // Poisoned blocks suppress zone formation; the abort path must still be
    // bit-identical, diagnostics included: in a CPU-only program, and in an
    // offload where poison appears after zones have formed.
    let cpu_only = "_CPU_ fn main() -> int { return 41 + 1; }".to_string();
    for (src, rate) in [(cpu_only, 1.0), (vecadd_src(32), 0.02)] {
        let mut cfg = SystemConfig::tiny();
        cfg.fault.dram.double_bit_rate = rate;
        let r = differential(&cfg, &src, &format!("poison at rate {rate}"));
        assert_eq!(r.outcome, Outcome::Poisoned, "rate {rate}");
        assert!(!r.diagnostic.expect("dump").poisoned_blocks.is_empty());
    }
}

#[test]
fn retry_budget_abort_mid_offload_is_identical_across_sim_threads() {
    // A blackholed responder exhausts the directory's retry budget while
    // MTTOP batches run; the abort's dump must be the serial one.
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
