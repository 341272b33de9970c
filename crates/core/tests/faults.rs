//! Fault injection and watchdog integration tests: seeded fault runs must
//! replay bit-for-bit, lost messages must end in a graceful typed abort
//! (never a hang), and the directory's NACK/retry path must recover from
//! recoverable losses.

use ccsvm::{Machine, Outcome, ProtocolKind, SystemConfig, Time};

mod common;
use common::{faulty_cfg, matmul_n16, run, vecadd_src, PINGPONG};

#[test]
fn same_seed_fault_runs_replay_bit_identical() {
    // Seed 7, then seeds 3 and 7 with the coherence sanitizer observing: a
    // sanitized faulty run must complete, not trip an invariant.
    for (seed, sanitize) in [(7, false), (3, true), (7, true)] {
        let mut cfg = faulty_cfg(seed);
        cfg.sanitizer.enabled = sanitize;
        let label = format!("seed {seed} sanitize {sanitize}");
        let a = run(cfg.clone(), &vecadd_src(32));
        let b = run(cfg, &vecadd_src(32));
        assert_eq!(a.outcome, Outcome::Completed, "{label}: {:?}", a.diagnostic);
        // Faults really fired and are part of the compared state.
        assert!(
            a.stats.get("noc.retransmissions") > 0.0,
            "{label}: NoC faults fired"
        );
        if seed == 7 {
            assert!(
                a.stats.get("mem.dram.ecc_corrected") > 0.0,
                "{label}: ECC singles fired"
            );
        }
        assert_eq!(a, b, "{label}: same seed must replay bit-for-bit");
    }
}

#[test]
fn different_seeds_diverge() {
    let a = run(faulty_cfg(7), &vecadd_src(32));
    let b = run(faulty_cfg(8), &vecadd_src(32));
    assert_eq!(a.outcome, Outcome::Completed);
    assert_eq!(b.outcome, Outcome::Completed);
    assert_eq!(
        a.exit_code, b.exit_code,
        "results stay correct under faults"
    );
    assert_ne!(a, b, "different seeds must draw different fault schedules");
}

#[test]
fn dropped_completion_aborts_as_deadlock_with_dump() {
    let mut cfg = SystemConfig::tiny();
    // Lose the very first directory data grant: its L1 waits forever.
    cfg.fault.drop_data_delivery = Some(1);
    cfg.fault.watchdog.period = Time::from_us(100);
    cfg.fault.watchdog.quanta = 4;
    let r = run(cfg, "_CPU_ fn main() -> int { return 41 + 1; }");
    assert_eq!(r.outcome, Outcome::Deadlock);
    let d = r.diagnostic.expect("deadlock carries a diagnostic dump");
    assert!(!d.outstanding.is_empty(), "dump names the stuck port: {d}");
    // Bounded abort: a handful of 100 us watchdog periods, not max_sim_time.
    assert!(
        r.time.as_ms() < 10.0,
        "aborted at {} — watchdog too slow",
        r.time
    );
}

#[test]
fn watchdog_dump_records_the_last_progress_cycle() {
    // Same wedge as above. The dump's `at` must be the simulated time where
    // forward progress actually stopped — the interesting cycle for
    // debugging — not the (quanta x period) later tick that noticed.
    let mut cfg = SystemConfig::tiny();
    cfg.fault.drop_data_delivery = Some(1);
    cfg.fault.watchdog.period = Time::from_us(100);
    cfg.fault.watchdog.quanta = 4;
    let r = run(cfg, "_CPU_ fn main() -> int { return 41 + 1; }");
    assert_eq!(r.outcome, Outcome::Deadlock);
    let d = r.diagnostic.expect("deadlock carries a diagnostic dump");
    assert!(
        d.at < r.time,
        "dump.at {} must be the wedge cycle, not the abort tick {}",
        d.at,
        r.time
    );
    // The watchdog saw >= `quanta` stale periods between the wedge and the
    // abort, so the two times differ by at least that much.
    assert!(
        r.time.as_ps() - d.at.as_ps() >= 3 * Time::from_us(100).as_ps(),
        "wedge at {} vs abort at {}: gap shorter than the stale window",
        d.at,
        r.time
    );
}

#[test]
fn double_bit_ecc_error_poisons_the_run() {
    // Every DRAM fill uncorrectable, on a CPU-only program; then a rare
    // double-bit error that strikes mid-offload, while MTTOP batches run.
    let cpu_only = "_CPU_ fn main() -> int { return 41 + 1; }".to_string();
    for (src, rate) in [(cpu_only, 1.0), (vecadd_src(32), 0.02)] {
        let mut cfg = SystemConfig::tiny();
        cfg.fault.dram.double_bit_rate = rate;
        let r = run(cfg, &src);
        assert_eq!(r.outcome, Outcome::Poisoned, "rate {rate}");
        let d = r
            .diagnostic
            .expect("poison abort carries a diagnostic dump");
        assert!(
            !d.poisoned_blocks.is_empty(),
            "rate {rate}: dump lists the poisoned block"
        );
    }
}

#[test]
fn dropped_response_recovers_via_directory_nack() {
    let mut cfg = SystemConfig::tiny();
    cfg.fault.dir.timeout = Some(Time::from_us(5));
    // Lose one L1 response in transit; the directory must NACK and
    // re-solicit rather than wait forever.
    cfg.fault.drop_one_resp = Some(1);
    let r = run(cfg, PINGPONG);
    assert_eq!(r.outcome, Outcome::Completed, "diag: {:?}", r.diagnostic);
    assert_eq!(r.exit_code, 5);
    let timeouts: f64 = (0..2)
        .map(|i| r.stats.get(&format!("mem.l2.{i}.dir_timeouts")))
        .sum();
    assert!(timeouts >= 1.0, "the dropped response forced a NACK round");
}

/// With directory timeouts on and nothing lost, no round resends: a
/// timeout armed by a finished transaction must be stale for every later
/// transaction on the same block, not resend into its round. Small L2 banks
/// make the matmul reuse blocks through recalls and refills, where the
/// epochs of successive transactions used to meet.
#[test]
fn no_lost_message_means_no_resend() {
    let src = matmul_n16();
    for (bytes, ways) in [(32 * 1024, 4), (8 * 1024, 2)] {
        let mut cfg = SystemConfig::paper_default();
        cfg.fault.dir.timeout = Some(Time::from_us(5));
        cfg.l2_bank = ccsvm_mem::CacheConfig::from_capacity(bytes, ways);
        let r = run(cfg, &src);
        assert_eq!(r.outcome, Outcome::Completed, "{bytes} B {ways}-way");
        let count = |c: &str| -> f64 {
            (0..4)
                .map(|i| r.stats.get(&format!("mem.l2.{i}.{c}")))
                .sum()
        };
        assert!(count("recalls") > 0.0, "{bytes} B {ways}-way: no recall");
        assert_eq!(count("dir_nacks"), 0.0, "{bytes} B {ways}-way resent");
    }
}

#[test]
fn blackholed_responder_exhausts_retry_budget() {
    let mut cfg = SystemConfig::tiny();
    cfg.fault.dir.timeout = Some(Time::from_us(5));
    cfg.fault.dir.retry_budget = 3;
    // Drop a response and every later response for the same block: no NACK
    // round can ever succeed, so the budget must run out — gracefully.
    cfg.fault.blackhole_resp = Some(1);
    let r = run(cfg, PINGPONG);
    assert_eq!(r.outcome, Outcome::RetryBudgetExhausted);
    let d = r
        .diagnostic
        .expect("budget abort carries a diagnostic dump");
    assert!(d.reason.contains("retry budget"), "reason: {}", d.reason);
    assert!(r.time.as_ms() < 10.0, "bounded abort, got {}", r.time);

    // The same abort mid-offload on the paper machine, at responses early
    // in, in the middle of and late in the matmul's MTTOP phase.
    let src = matmul_n16();
    for nth in [16, 76, 118] {
        let mut cfg = SystemConfig::paper_default();
        cfg.fault.dir.timeout = Some(Time::from_us(5));
        cfg.fault.dir.retry_budget = 0;
        cfg.fault.blackhole_resp = Some(nth);
        let r = run(cfg, &src);
        assert_eq!(r.outcome, Outcome::RetryBudgetExhausted, "nth {nth}");
        let d = r
            .diagnostic
            .expect("budget abort carries a diagnostic dump");
        assert!(d.reason.contains("retry budget"), "nth {nth}: {}", d.reason);
    }
}

#[test]
fn fault_free_runs_are_unaffected_by_the_watchdog() {
    // Default config: watchdog armed, all injectors off.
    let base = run(SystemConfig::tiny(), &vecadd_src(32));
    assert_eq!(base.outcome, Outcome::Completed);
    assert!(base.diagnostic.is_none());
    // Disabling the watchdog changes nothing observable.
    let mut cfg = SystemConfig::tiny();
    cfg.fault.watchdog.enabled = false;
    let off = run(cfg, &vecadd_src(32));
    assert_eq!(base, off, "watchdog ticks must not perturb the simulation");
    // No fault counters appear in a fault-free report.
    assert!(!base.stats.contains("noc.retransmissions"));
    assert!(!base.stats.contains("mem.dram.ecc_corrected"));
}

// ---------------------------------------------------------------------------
// Watchdog / fault-plan edge cases (DESIGN §9 triage prerequisites).
// ---------------------------------------------------------------------------

/// A run that is *going to* wedge, checkpointed exactly at the cycle forward
/// progress stops (the dump's `at` — a checkpoint boundary by construction),
/// must restore and abort bit-identically to the uninterrupted run.
#[test]
fn watchdog_abort_at_checkpoint_boundary_restores_identically() {
    let mut cfg = SystemConfig::tiny();
    cfg.fault.drop_data_delivery = Some(1);
    cfg.fault.watchdog.period = Time::from_us(100);
    cfg.fault.watchdog.quanta = 4;
    let src = "_CPU_ fn main() -> int { return 41 + 1; }";
    let prog = ccsvm_xthreads::build(src).unwrap();

    let baseline = Machine::new(cfg.clone(), prog.clone()).run();
    assert_eq!(baseline.outcome, Outcome::Deadlock);
    let wedge_at = baseline.diagnostic.as_ref().unwrap().at;

    // Checkpoint exactly at the wedge cycle: the machine is healthy there
    // (the watchdog only notices `quanta` periods later)...
    let mut m = Machine::new(cfg.clone(), prog.clone());
    assert!(
        m.run_until(wedge_at).is_none(),
        "no abort yet at the wedge cycle itself"
    );
    let snap = m.checkpoint_bytes();

    // ...and the restored run must re-derive the identical abort.
    let mut r = Machine::restore_bytes(cfg, prog, &snap).unwrap();
    assert_eq!(
        r.run(),
        baseline,
        "restored wedge must abort bit-identically"
    );
}

/// Sweep the drop-Nth-delivery injector past the end of the run: the first
/// N with no Nth occurrence must complete bit-identical to fault-free
/// (an armed-but-unfired injector is invisible), and N-1 — the run's
/// *final* data delivery — must still abort gracefully with a dump.
#[test]
fn fault_on_final_event_still_aborts_gracefully() {
    let src = "_CPU_ fn main() -> int { return 41 + 1; }";
    let clean = run(SystemConfig::tiny(), src);
    assert_eq!(clean.outcome, Outcome::Completed);

    let wedged_cfg = |n: u64| {
        let mut cfg = SystemConfig::tiny();
        cfg.fault.drop_data_delivery = Some(n);
        cfg.fault.watchdog.period = Time::from_us(100);
        cfg.fault.watchdog.quanta = 4;
        cfg
    };
    // Find the first N whose Nth data delivery never happens.
    let mut past_end = None;
    for n in 1..=512u64 {
        if run(wedged_cfg(n), src).outcome == Outcome::Completed {
            past_end = Some(n);
            break;
        }
    }
    let past_end = past_end.expect("a trivial run has < 512 data deliveries");
    assert!(past_end > 1, "the run performs at least one data delivery");

    // Armed but unfired: bit-identical to the injector-free run.
    let unfired = run(wedged_cfg(past_end), src);
    assert_eq!(unfired, clean, "unfired injector must not perturb the run");

    // Dropping the very last delivery of the run still aborts in bounded
    // time with a dump naming the stuck port.
    let last = run(wedged_cfg(past_end - 1), src);
    assert_eq!(last.outcome, Outcome::Deadlock);
    let d = last
        .diagnostic
        .expect("final-event fault still carries a dump");
    assert!(!d.outstanding.is_empty(), "dump names the stuck port: {d}");
    assert!(last.time.as_ms() < 10.0, "bounded abort, got {}", last.time);
}

/// A zero retry budget: the very first directory timeout exhausts it. Must
/// be a typed abort with a diagnostic dump, never a panic or a hang.
#[test]
fn zero_retry_budget_aborts_with_dump_on_first_timeout() {
    let mut cfg = SystemConfig::tiny();
    cfg.fault.dir.timeout = Some(Time::from_us(5));
    cfg.fault.dir.retry_budget = 0;
    cfg.fault.blackhole_resp = Some(1);
    let r = run(cfg, PINGPONG);
    assert_eq!(r.outcome, Outcome::RetryBudgetExhausted);
    let d = r.diagnostic.expect("zero-budget abort carries a dump");
    assert!(d.reason.contains("retry budget"), "reason: {}", d.reason);
    assert!(
        !d.dir_active.is_empty() || !d.outstanding.is_empty(),
        "dump points at the stuck transaction: {d}"
    );
    assert!(
        r.time.as_ms() < 1.0,
        "first timeout aborts promptly, got {}",
        r.time
    );
}

// ---------------------------------------------------------------------------
// Cross-protocol fault matrix (DESIGN §14): all three protocols survive the
// same seeded fault plans, deterministically.
// ---------------------------------------------------------------------------

/// `faulty_cfg` plus the protocol-specific loss domains: seeded snoop-probe
/// loss for both snooping protocols, update-ack loss for Dragon, and the
/// solicitation-round timeout armed so lost probes are resent, not hung on.
fn matrix_cfg(protocol: ProtocolKind, seed: u64) -> SystemConfig {
    let mut cfg = faulty_cfg(seed);
    cfg.protocol = protocol;
    if protocol != ProtocolKind::Directory {
        cfg.fault.dir.timeout = Some(Time::from_us(5));
        cfg.fault.snoop_probe.drop_rate = 0.05;
    }
    if protocol == ProtocolKind::Dragon {
        cfg.fault.upd_ack.drop_rate = 0.05;
    }
    cfg
}

#[test]
fn fault_matrix_is_deterministic_for_every_protocol() {
    for protocol in ProtocolKind::ALL {
        let cfg = matrix_cfg(protocol, 7);
        let a = run(cfg.clone(), &vecadd_src(32));
        let b = run(cfg, &vecadd_src(32));
        assert_eq!(
            a.outcome,
            Outcome::Completed,
            "{}: diag {:?}",
            protocol.as_str(),
            a.diagnostic
        );
        assert_eq!(
            a,
            b,
            "{}: same seed must replay bit-for-bit",
            protocol.as_str()
        );
    }
}

/// Crank the loss rates on a sharing-heavy workload with a small retry
/// budget: the run may complete, wedge, or exhaust the budget — but the
/// outcome must always be typed, diagnosed, and bounded. Never a panic.
#[test]
fn heavy_loss_matrix_always_ends_in_a_typed_outcome() {
    for protocol in ProtocolKind::ALL {
        let mut cfg = matrix_cfg(protocol, 13);
        cfg.fault.noc.drop_rate = 0.05;
        cfg.fault.dir.timeout = Some(Time::from_us(5));
        cfg.fault.dir.retry_budget = 4;
        if protocol != ProtocolKind::Directory {
            cfg.fault.snoop_probe.drop_rate = 0.3;
        }
        let r = run(cfg, PINGPONG);
        assert!(
            matches!(
                r.outcome,
                Outcome::Completed | Outcome::Deadlock | Outcome::RetryBudgetExhausted
            ),
            "{}: outcome {:?} not a typed loss outcome",
            protocol.as_str(),
            r.outcome
        );
        if r.outcome != Outcome::Completed {
            assert!(
                r.diagnostic.is_some(),
                "{}: abnormal outcome must carry a dump",
                protocol.as_str()
            );
        }
        assert!(
            r.time.as_ms() <= 200.0,
            "{}: unbounded run, got {}",
            protocol.as_str(),
            r.time
        );
    }
}

#[test]
fn dropped_snoop_probes_recover_via_solicitation_timeout() {
    let mut cfg = SystemConfig::tiny();
    cfg.protocol = ProtocolKind::MesiSnoop;
    cfg.fault.seed = 11;
    cfg.fault.dir.timeout = Some(Time::from_us(5));
    cfg.fault.snoop_probe.drop_rate = 0.2;
    let r = run(cfg, PINGPONG);
    assert_eq!(r.outcome, Outcome::Completed, "diag: {:?}", r.diagnostic);
    assert_eq!(r.exit_code, 5);
    assert!(
        r.stats.get("fault.snoop_probe_drops") >= 1.0,
        "seeded probe drops fired"
    );
    let timeouts: f64 = (0..2)
        .map(|i| r.stats.get(&format!("mem.l2.{i}.dir_timeouts")))
        .sum();
    assert!(timeouts >= 1.0, "a lost probe forced a solicitation resend");
}

#[test]
fn dropped_update_acks_recover_via_solicitation_timeout() {
    // Dragon atomics serialize via BusRdX; only plain stores to a *shared*
    // block broadcast BusUpd. A spinning reader keeps the flag line shared,
    // so every store in the worker's loop is a write-update round.
    const UPDATE_STORM: &str = "global flag: int;
         fn worker(arg: int) -> int {
             for (let i = 1; i <= arg; i = i + 1) { flag = i; }
             return 0;
         }
         _CPU_ fn main() -> int {
             flag = 0;
             let t1 = spawn_cthread(worker, 40);
             if (t1 < 0) { return -1; }
             while (flag != 40) { }
             return flag;
         }";
    let mut cfg = SystemConfig::tiny();
    cfg.protocol = ProtocolKind::Dragon;
    cfg.fault.seed = 11;
    cfg.fault.dir.timeout = Some(Time::from_us(5));
    cfg.fault.upd_ack.drop_rate = 0.3;
    let r = run(cfg, UPDATE_STORM);
    assert_eq!(r.outcome, Outcome::Completed, "diag: {:?}", r.diagnostic);
    assert_eq!(r.exit_code, 40);
    assert!(
        r.stats.get("fault.upd_ack_drops") >= 1.0,
        "seeded update-ack drops fired"
    );
    let timeouts: f64 = (0..2)
        .map(|i| r.stats.get(&format!("mem.l2.{i}.dir_timeouts")))
        .sum();
    assert!(timeouts >= 1.0, "a lost UpdDone forced a BusUpd resend");
}

/// The probe/ack loss domains have no carrier events under the directory
/// protocol: arming them draws nothing and perturbs nothing observable.
#[test]
fn probe_loss_domains_are_inert_under_the_directory_protocol() {
    let base = run(SystemConfig::tiny(), PINGPONG);
    assert_eq!(base.outcome, Outcome::Completed);
    let mut cfg = SystemConfig::tiny();
    cfg.fault.snoop_probe.drop_rate = 0.5;
    cfg.fault.upd_ack.drop_rate = 0.5;
    let armed = run(cfg, PINGPONG);
    assert_eq!(armed.outcome, base.outcome);
    assert_eq!(armed.exit_code, base.exit_code);
    assert_eq!(armed.time, base.time, "armed-but-unfired streams are inert");
    assert_eq!(armed.stats.get("fault.snoop_probe_drops"), 0.0);
    assert_eq!(armed.stats.get("fault.upd_ack_drops"), 0.0);
}

/// A checkpoint taken mid-run under an active cross-protocol fault plan —
/// with solicitation rounds and retry state potentially in flight — must
/// restore and finish bit-identically, for every protocol.
#[test]
fn faulty_checkpoint_restores_bit_identically_for_every_protocol() {
    for protocol in ProtocolKind::ALL {
        let cfg = matrix_cfg(protocol, 7);
        let prog = ccsvm_xthreads::build(&vecadd_src(32)).unwrap();
        let baseline = Machine::new(cfg.clone(), prog.clone()).run();
        assert_eq!(baseline.outcome, Outcome::Completed);

        let at = Time::from_ps(baseline.time.as_ps() / 2);
        let mut m = Machine::new(cfg.clone(), prog.clone());
        assert!(m.run_until(at).is_none(), "no abort expected mid-run");
        let snap = m.checkpoint_bytes();
        let mut r = Machine::restore_bytes(cfg, prog, &snap).unwrap();
        assert_eq!(
            r.run(),
            baseline,
            "{}: restored faulty run diverged",
            protocol.as_str()
        );
    }
}
