//! Coherence-sanitizer suite (DESIGN §9): the sanitizer must be a pure
//! observer — enabling it changes no simulated behavior and every
//! `RunReport` stays bit-identical — yet each seeded protocol mutation must
//! be caught with the correct invariant ID at a definite cycle, and the
//! triage pipeline must bisect a failure to its first failing cycle and
//! emit a replay bundle that deterministically reproduces it.

use ccsvm::{
    replay_bundle, run_with_triage, InvariantId, Machine, Mutation, MutationKind, Outcome,
    ProtocolKind, ReplayBundle, RunReport, SystemConfig, Time, Violation,
};

mod common;
use common::{faulty_cfg, run, vecadd_src, PINGPONG};

/// A shootdown workload where the *remote* CPU has cached the doomed
/// translation: the worker reads the page (filling CPU 1's TLB), then main
/// munmaps it, so the shootdown IPI must invalidate a live remote entry.
const SHOOTDOWN: &str = "global sync: int;
     global addr: int;
     fn worker(arg: int) -> int {
         let p: int* = addr as int*;
         let x = p[0];
         atomic_add(&sync, 1 + x);
         return 0;
     }
     _CPU_ fn main() -> int {
         let p: int* = malloc(4096);
         p[0] = 0;
         addr = p as int;
         sync = 0;
         let t1 = spawn_cthread(worker, 1);
         if (t1 < 0) { return -1; }
         while (sync != 1) { }
         munmap(p as int);
         return 7;
     }";

/// Tiny machine with the sanitizer on and one seeded mutation armed.
fn mutated_cfg(kind: MutationKind, nth: u64) -> SystemConfig {
    let mut cfg = SystemConfig::tiny();
    cfg.sanitizer.enabled = true;
    cfg.sanitizer.mutate = Some(Mutation { kind, nth });
    cfg
}

/// Like [`mutated_cfg`] but running a non-default coherence protocol.
fn mutated_cfg_proto(kind: MutationKind, nth: u64, protocol: ProtocolKind) -> SystemConfig {
    let mut cfg = mutated_cfg(kind, nth);
    cfg.protocol = protocol;
    cfg
}

/// The recorded violation behind an `InvariantViolation` abort.
fn violation(r: &RunReport) -> Violation {
    assert_eq!(
        r.outcome,
        Outcome::InvariantViolation,
        "expected a sanitizer abort, got {:?} (diag: {:?})",
        r.outcome,
        r.diagnostic
    );
    let d = r
        .diagnostic
        .as_ref()
        .expect("abnormal outcome carries a dump");
    assert_eq!(d.at, r.time, "dump is stamped at the abort cycle");
    d.violation
        .clone()
        .expect("sanitizer abort records its violation")
}

// ---------------------------------------------------------------------------
// Observer purity: sanitizer on/off is invisible in results.
// ---------------------------------------------------------------------------

#[test]
fn sanitizer_on_is_bit_identical_including_under_faults() {
    let off = run(faulty_cfg(7), &vecadd_src(24));
    let mut cfg = faulty_cfg(7);
    cfg.sanitizer.enabled = true;
    let on = run(cfg, &vecadd_src(24));
    assert_eq!(off.outcome, Outcome::Completed);
    assert_eq!(off, on, "enabling the sanitizer must not change the report");
}

#[test]
fn sanitizer_on_pingpong_bit_identical() {
    let off = run(SystemConfig::tiny(), PINGPONG);
    let mut cfg = SystemConfig::tiny();
    cfg.sanitizer.enabled = true;
    let on = run(cfg, PINGPONG);
    assert_eq!(off.exit_code, 5);
    assert_eq!(off, on);
}

/// A checkpoint captured with the sanitizer *off* restores into a
/// sanitizer-*on* machine (the config hash normalizes observer settings)
/// and the resumed run is still bit-identical to the uninterrupted one.
#[test]
fn off_checkpoint_restores_into_sanitizer_on_machine() {
    let src = vecadd_src(24);
    let prog = ccsvm_xthreads::build(&src).unwrap();
    let baseline = Machine::new(faulty_cfg(7), prog.clone()).run();
    assert_eq!(baseline.outcome, Outcome::Completed);

    let mut m = Machine::new(faulty_cfg(7), prog.clone());
    let pause = Time::from_ps(baseline.time.as_ps() / 2);
    assert!(m.run_until(pause).is_none(), "workload outlives the pause");
    let snap = m.checkpoint_bytes();

    let mut on_cfg = faulty_cfg(7);
    on_cfg.sanitizer.enabled = true;
    let mut resumed = Machine::restore_bytes(on_cfg, prog, &snap)
        .expect("observer-only config delta restores cleanly");
    assert_eq!(resumed.run(), baseline);
}

// ---------------------------------------------------------------------------
// Seeded protocol mutations: each caught with the right invariant ID.
// ---------------------------------------------------------------------------

#[test]
fn mutation_corrupt_dir_owner_caught_as_dir_agree() {
    let r = run(mutated_cfg(MutationKind::CorruptDirOwner, 8), PINGPONG);
    let v = violation(&r);
    assert_eq!(
        v.invariant,
        InvariantId::MemDirAgree,
        "detail: {}",
        v.detail
    );
    assert_eq!(v.at, r.time);
}

#[test]
fn mutation_corrupt_grant_caught() {
    let r = run(mutated_cfg(MutationKind::CorruptGrant, 1), PINGPONG);
    let v = violation(&r);
    assert!(
        v.invariant == InvariantId::MemSwmr || v.invariant == InvariantId::MemDirAgree,
        "an S-grant upgraded to M must break SWMR or dir agreement, got {} ({})",
        v.invariant.as_str(),
        v.detail
    );
    assert_eq!(v.at, r.time);
}

#[test]
fn mutation_corrupt_fill_data_caught_as_data_value() {
    let r = run(mutated_cfg(MutationKind::CorruptFillData, 1), PINGPONG);
    let v = violation(&r);
    assert_eq!(
        v.invariant,
        InvariantId::MemDataValue,
        "detail: {}",
        v.detail
    );
    assert_eq!(v.at, r.time);
}

#[test]
fn mutation_duplicate_resp_caught_as_msg_conserve() {
    let r = run(mutated_cfg(MutationKind::DuplicateResp, 1), PINGPONG);
    let v = violation(&r);
    assert_eq!(
        v.invariant,
        InvariantId::MemMsgConserve,
        "detail: {}",
        v.detail
    );
    assert_eq!(v.at, r.time);
}

/// A silently dropped response wedges the run; the watchdog catches the
/// wedge, and the sanitizer's end-of-run conservation sweep upgrades the
/// symptom (deadlock) to its root cause (a lost message).
#[test]
fn mutation_drop_resp_upgraded_to_noc_conserve() {
    let mut cfg = mutated_cfg(MutationKind::DropResp, 1);
    cfg.fault.watchdog.period = Time::from_us(100);
    cfg.fault.watchdog.quanta = 4;
    let r = run(cfg, PINGPONG);
    let v = violation(&r);
    assert_eq!(
        v.invariant,
        InvariantId::NocConserve,
        "detail: {}",
        v.detail
    );
    let d = r.diagnostic.as_ref().unwrap();
    assert!(
        d.reason.contains("watchdog") || !d.reason.is_empty(),
        "the original wedge context is preserved: {}",
        d.reason
    );
}

#[test]
fn mutation_skip_tlb_invalidate_caught_as_stale_shootdown() {
    let r = run(mutated_cfg(MutationKind::SkipTlbInvalidate, 1), SHOOTDOWN);
    let v = violation(&r);
    assert_eq!(
        v.invariant,
        InvariantId::VmStaleShoot,
        "detail: {}",
        v.detail
    );
    assert_eq!(v.at, r.time);
}

#[test]
fn mutation_corrupt_tlb_entry_caught_as_tlb_pt() {
    let r = run(mutated_cfg(MutationKind::CorruptTlbEntry, 1), PINGPONG);
    let v = violation(&r);
    assert_eq!(v.invariant, InvariantId::VmTlbPt, "detail: {}", v.detail);
    assert_eq!(v.at, r.time);
}

/// Mutations are latched: exactly one firing per run, and the same seeded
/// mutation aborts at the same cycle every time (deterministic triage).
#[test]
fn mutations_replay_deterministically() {
    let a = run(mutated_cfg(MutationKind::CorruptFillData, 1), PINGPONG);
    let b = run(mutated_cfg(MutationKind::CorruptFillData, 1), PINGPONG);
    assert_eq!(a, b);
}

// ---------------------------------------------------------------------------
// Per-protocol mutations (DESIGN §13): the snoop/update message classes only
// exist under their protocols, and each seeded corruption must be caught
// with the invariant that protocol's mask still enforces.
// ---------------------------------------------------------------------------

/// A mutation that strikes mid-offload, while MTTOP batches run, is caught
/// with its invariant, and the abort replays exactly: same cycle and dump.
#[test]
fn mutations_abort_mid_offload_with_their_invariant() {
    for (kind, protocol, invariant) in [
        (
            MutationKind::CorruptFillData,
            ProtocolKind::Directory,
            InvariantId::MemDataValue,
        ),
        (
            MutationKind::CorruptSnoopShared,
            ProtocolKind::MesiSnoop,
            InvariantId::MemSwmr,
        ),
    ] {
        // The 40th target lands after the launch, while MTTOP batches run.
        let cfg = mutated_cfg_proto(kind, 40, protocol);
        let first = run(cfg.clone(), &vecadd_src(64));
        assert_eq!(violation(&first).invariant, invariant, "{kind:?}");
        assert!(
            first.stats.get("mifd.launches") > 0.0,
            "{kind:?}: the abort came before the launch"
        );
        assert_eq!(
            first,
            run(cfg, &vecadd_src(64)),
            "{kind:?}: replay diverged"
        );
    }
}

/// Message-passing shape: main's plain stores hit a line the spinning
/// worker holds shared, so Dragon emits `BusUpd` probes and the snooping
/// protocols emit invalidating snoops.
const MSG_PASS: &str = "global data: int;
     global flag: int;
     global done: int;
     global ready: int;
     fn worker(arg: int) -> int {
         atomic_add(&ready, 1);
         while (flag == 0) { }
         atomic_add(&done, data);
         return 0;
     }
     _CPU_ fn main() -> int {
         data = 0; flag = 0; done = 0; ready = 0;
         let t = spawn_cthread(worker, 0);
         if (t < 0) { return -1; }
         while (ready != 1) { }
         data = 42;
         flag = 1;
         while (done != 42) { }
         return done;
     }";

#[test]
fn mesi_snoop_mutation_clear_snoop_shared_caught_as_swmr() {
    let r = run(
        mutated_cfg_proto(MutationKind::CorruptSnoopShared, 1, ProtocolKind::MesiSnoop),
        PINGPONG,
    );
    let v = violation(&r);
    assert!(
        v.invariant == InvariantId::MemSwmr || v.invariant == InvariantId::MemDataValue,
        "an erased sharer report must leave a stale copy beside an exclusive \
         grant, got {} ({})",
        v.invariant.as_str(),
        v.detail
    );
    assert_eq!(v.at, r.time);
}

#[test]
fn dragon_mutation_corrupt_upd_value_caught_as_data_value() {
    let r = run(
        mutated_cfg_proto(MutationKind::CorruptUpdValue, 1, ProtocolKind::Dragon),
        MSG_PASS,
    );
    let v = violation(&r);
    assert_eq!(
        v.invariant,
        InvariantId::MemDataValue,
        "detail: {}",
        v.detail
    );
    assert_eq!(v.at, r.time);
}

/// The classic mutations still fire — and map to the same invariants —
/// under the snooping protocols.
#[test]
fn mesi_snoop_mutation_corrupt_fill_data_caught_as_data_value() {
    let r = run(
        mutated_cfg_proto(MutationKind::CorruptFillData, 1, ProtocolKind::MesiSnoop),
        PINGPONG,
    );
    let v = violation(&r);
    assert_eq!(
        v.invariant,
        InvariantId::MemDataValue,
        "detail: {}",
        v.detail
    );
}

#[test]
fn dragon_mutation_corrupt_fill_data_caught_as_data_value() {
    let r = run(
        mutated_cfg_proto(MutationKind::CorruptFillData, 1, ProtocolKind::Dragon),
        PINGPONG,
    );
    let v = violation(&r);
    assert_eq!(
        v.invariant,
        InvariantId::MemDataValue,
        "detail: {}",
        v.detail
    );
}

/// Protocol-specific mutation classes have no carrier messages under the
/// other protocols: arming them is inert and the run completes untouched.
#[test]
fn protocol_specific_mutations_are_inert_elsewhere() {
    let r = run(
        mutated_cfg_proto(MutationKind::CorruptSnoopShared, 1, ProtocolKind::Directory),
        PINGPONG,
    );
    assert_eq!(r.outcome, Outcome::Completed);
    assert_eq!(r.exit_code, 5);

    let r = run(
        mutated_cfg_proto(MutationKind::CorruptUpdValue, 1, ProtocolKind::MesiSnoop),
        PINGPONG,
    );
    assert_eq!(r.outcome, Outcome::Completed);
    assert_eq!(r.exit_code, 5);
}

// ---------------------------------------------------------------------------
// Recovery-layer mutation (DESIGN §14): the solicitation-round resend path is
// itself under sanitizer coverage — corrupting a round's epoch bookkeeping so
// a still-pending probe is abandoned must be caught, and the mutation must be
// inert under the protocol without snoop rounds.
// ---------------------------------------------------------------------------

/// Seeded probe losses + the round timeout armed: the first timed-out snoop
/// round whose abandoned probe targets a live copy is the
/// `CorruptResendEpoch` mutation's carrier.
fn resend_mutated_cfg(protocol: ProtocolKind) -> SystemConfig {
    let mut cfg = mutated_cfg_proto(MutationKind::CorruptResendEpoch, 1, protocol);
    cfg.fault.seed = 11;
    cfg.fault.snoop_probe.drop_rate = 0.2;
    cfg.fault.dir.timeout = Some(Time::from_us(5));
    cfg.fault.dir.retry_budget = 32;
    cfg
}

#[test]
fn mesi_snoop_mutation_corrupt_resend_epoch_caught() {
    let r = run(resend_mutated_cfg(ProtocolKind::MesiSnoop), PINGPONG);
    let v = violation(&r);
    assert!(
        v.invariant == InvariantId::MemSwmr || v.invariant == InvariantId::MemDataValue,
        "an abandoned probe must leave a surviving copy beside an exclusive \
         grant (or a stale value), got {} ({})",
        v.invariant.as_str(),
        v.detail
    );
    assert_eq!(v.at, r.time);
}

/// Without the mutation, the identical fault plan *recovers*: the dropped
/// probe times out, the round resends, and the run completes — proving the
/// sanitizer catches the seeded recovery-layer bug, not the fault plan.
#[test]
fn probe_loss_without_mutation_recovers() {
    let mut cfg = resend_mutated_cfg(ProtocolKind::MesiSnoop);
    cfg.sanitizer.mutate = None;
    let r = run(cfg, PINGPONG);
    assert_eq!(r.outcome, Outcome::Completed, "diag: {:?}", r.diagnostic);
    assert_eq!(r.exit_code, 5);
    assert!(
        r.stats.get("fault.snoop_probe_drops") >= 1.0,
        "the seeded drop actually happened"
    );
    let timeouts = r.stats.get("mem.l2.0.dir_timeouts") + r.stats.get("mem.l2.1.dir_timeouts");
    assert!(timeouts >= 1.0, "recovery went through the timeout path");
}

#[test]
fn corrupt_resend_epoch_is_inert_under_directory() {
    // The directory protocol never runs snoop-collection rounds, so the
    // mutation's target class never occurs and the run completes untouched.
    let r = run(resend_mutated_cfg(ProtocolKind::Directory), PINGPONG);
    assert_eq!(r.outcome, Outcome::Completed);
    assert_eq!(r.exit_code, 5);
}

// ---------------------------------------------------------------------------
// Triage: bisect-to-cycle + replay bundles.
// ---------------------------------------------------------------------------

#[test]
fn triage_bisects_and_bundle_replays() {
    let cfg = mutated_cfg(MutationKind::CorruptFillData, 1);
    let t =
        run_with_triage(&cfg, "tiny", PINGPONG, Time::from_us(20)).expect("triage run succeeds");
    assert_eq!(t.report.outcome, Outcome::InvariantViolation);
    let b = t.bundle.expect("abnormal outcome produces a bundle");
    assert_eq!(
        b.first_fail, t.report.time,
        "bisection converges to the manifest cycle"
    );
    assert_eq!(b.outcome, Outcome::InvariantViolation);
    assert_eq!(
        b.violation.as_ref().map(|v| v.invariant),
        Some(InvariantId::MemDataValue)
    );
    assert!(b.snapshot_at < b.first_fail);
    // The triage run traced every event it dispatched, up to the abort.
    assert_eq!(b.trace.total(), t.report.events);
    let last = b.trace.records().last().expect("trace captured");
    assert_eq!(last.at, b.first_fail);

    // The bundle serializes and round-trips bit-exactly.
    let bytes = b.to_bytes();
    let b2 = ReplayBundle::from_bytes(&bytes).expect("bundle decodes");
    assert_eq!(b, b2);

    // And it deterministically reproduces the failure.
    let (replayed, reproduced) = replay_bundle(&b2).expect("replay runs");
    assert!(reproduced, "bundle must reproduce: {:?}", replayed.outcome);
    assert_eq!(replayed.time, b.first_fail);
}

#[test]
fn triage_on_healthy_run_yields_no_bundle() {
    let cfg = SystemConfig::tiny();
    let t = run_with_triage(&cfg, "tiny", PINGPONG, Time::from_us(50)).unwrap();
    assert_eq!(t.report.outcome, Outcome::Completed);
    assert!(t.bundle.is_none());
}

/// Corrupt bundle bytes surface as typed errors, never panics.
#[test]
fn bundle_decode_rejects_corruption() {
    let cfg = mutated_cfg(MutationKind::CorruptFillData, 1);
    let t = run_with_triage(&cfg, "tiny", PINGPONG, Time::from_us(20)).unwrap();
    let bytes = t.bundle.unwrap().to_bytes();
    assert!(ReplayBundle::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    let mut flipped = bytes.clone();
    flipped[0] ^= 0xff; // magic
    assert!(ReplayBundle::from_bytes(&flipped).is_err());
    let mut vflip = bytes.clone();
    vflip[8] ^= 0xff; // version word
    assert!(ReplayBundle::from_bytes(&vflip).is_err());
}
