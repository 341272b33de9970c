//! Checkpoint/restore differential suite: the headline invariant is that a
//! run checkpointed at any cycle T and restored, even by another process,
//! finishes with a `RunReport` bit-for-bit identical to
//! the uninterrupted run, including under active fault plans and for runs
//! that are going to abort. Mismatched snapshots (wrong config, wrong schema,
//! truncated or corrupt bytes) must surface as typed errors, never as a
//! silently-wrong simulation.

use ccsvm::{Machine, Outcome, ProtocolKind, RunReport, SnapError, SystemConfig, Time};

mod common;
use common::{compile, faulty_cfg, vecadd_src};

/// A run wedged by a dropped directory grant: the watchdog aborts it.
fn deadlock_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::tiny();
    cfg.fault.drop_data_delivery = Some(1);
    cfg.fault.watchdog.period = Time::from_us(100);
    cfg.fault.watchdog.quanta = 4;
    cfg
}

/// The uninterrupted reference run.
fn reference(cfg: &SystemConfig, src: &str) -> RunReport {
    Machine::new(cfg.clone(), compile(src)).run()
}

/// Pause a fresh machine at simulated time `at`, checkpoint it, restore the
/// image into a fresh machine, and finish.
fn checkpoint_resume(cfg: &SystemConfig, src: &str, at: Time) -> RunReport {
    let mut m = Machine::new(cfg.clone(), compile(src));
    assert!(
        m.run_until(at).is_none(),
        "run finished before the checkpoint cycle {at} — pick an earlier one"
    );
    let bytes = m.checkpoint_bytes();
    let mut restored =
        Machine::restore_bytes(cfg.clone(), compile(src), &bytes).expect("restore must succeed");
    restored.run()
}

fn fraction_of(t: Time, num: u64, den: u64) -> Time {
    Time::from_ps(t.as_ps() / den * num)
}

#[test]
fn roundtrip_is_bit_identical_fault_free() {
    let cfg = SystemConfig::tiny();
    let src = vecadd_src(32);
    let uninterrupted = reference(&cfg, &src);
    assert_eq!(uninterrupted.outcome, Outcome::Completed);
    // Early and mid-offload checkpoint cycles.
    for (num, den) in [(1, 16), (1, 2)] {
        let at = fraction_of(uninterrupted.time, num, den);
        let resumed = checkpoint_resume(&cfg, &src, at);
        assert_eq!(resumed, uninterrupted, "checkpoint at {at} diverged");
    }
}

#[test]
fn roundtrip_is_bit_identical_under_every_protocol() {
    // Mid-offload checkpoints under the snooping protocols serialize live
    // bus transactions (`AwaitSnoop` phase, collected `SnoopResp` state) and
    // must restore them exactly.
    let src = vecadd_src(32);
    for kind in ProtocolKind::ALL {
        let mut cfg = SystemConfig::tiny();
        cfg.protocol = kind;
        let uninterrupted = reference(&cfg, &src);
        assert_eq!(uninterrupted.outcome, Outcome::Completed, "{kind}");
        for (num, den) in [(1, 16), (1, 2)] {
            let at = fraction_of(uninterrupted.time, num, den);
            let resumed = checkpoint_resume(&cfg, &src, at);
            assert_eq!(
                resumed, uninterrupted,
                "{kind}: checkpoint at {at} diverged"
            );
        }
    }
}

#[test]
fn cross_protocol_restore_is_a_typed_error() {
    let src = vecadd_src(32);
    let mut cfg = SystemConfig::tiny();
    cfg.protocol = ProtocolKind::MesiSnoop;
    let m = Machine::new(cfg.clone(), compile(&src));
    let bytes = m.checkpoint_bytes();
    let mut other = cfg.clone();
    other.protocol = ProtocolKind::Dragon;
    match Machine::restore_bytes(other, compile(&src), &bytes) {
        Err(SnapError::ProtocolMismatch { found, expected }) => {
            assert_eq!(found, "mesi-snoop");
            assert_eq!(expected, "dragon");
        }
        Err(e) => panic!("expected ProtocolMismatch, got {e:?}"),
        Ok(_) => panic!("expected ProtocolMismatch, got a restored machine"),
    }
    // Same protocol, same config: restores fine.
    assert!(Machine::restore_bytes(cfg, compile(&src), &bytes).is_ok());
}

#[test]
fn roundtrip_is_bit_identical_under_active_fault_plan() {
    // The restored machine must pick up the fault schedule exactly where the
    // checkpoint left it: same RNG streams, same pending injections.
    let cfg = faulty_cfg(7);
    let src = vecadd_src(32);
    let uninterrupted = reference(&cfg, &src);
    assert_eq!(uninterrupted.outcome, Outcome::Completed);
    assert!(
        uninterrupted.stats.get("noc.retransmissions") > 0.0,
        "faults really fired in the reference run"
    );
    for (num, den) in [(1, 16), (1, 2)] {
        let at = fraction_of(uninterrupted.time, num, den);
        let resumed = checkpoint_resume(&cfg, &src, at);
        assert_eq!(resumed, uninterrupted, "faulty checkpoint at {at} diverged");
    }
}

#[test]
fn snapshot_bytes_are_identical_across_host_knobs() {
    // Host-side telemetry (the phase clock, the event trace) is neither
    // hashed nor serialized, so pausing at the same cycle with it on or off
    // must produce the same *snapshot bytes*. This is what makes images
    // portable across profiling and tracing settings.
    let src = vecadd_src(32);
    let plain = SystemConfig::tiny();
    let at = fraction_of(reference(&plain, &src).time, 1, 2);
    let mut observed = plain.clone();
    observed.host_profile = true;
    observed.trace_events = 4096;
    let images: Vec<Vec<u8>> = [plain, observed]
        .into_iter()
        .map(|cfg| {
            let mut m = Machine::new(cfg, compile(&src));
            assert!(m.run_until(at).is_none());
            m.checkpoint_bytes()
        })
        .collect();
    assert_eq!(images[0], images[1], "host knobs moved the image");
}

#[test]
fn aborting_run_roundtrips_including_the_diagnostic_dump() {
    // A run that is *going to* deadlock, checkpointed while wedged, must
    // restore and abort with the identical outcome, dump, and cycle. The
    // watchdog's progress tracker is part of the image.
    let cfg = deadlock_cfg();
    let src = "_CPU_ fn main() -> int { return 41 + 1; }";
    let uninterrupted = reference(&cfg, src);
    assert_eq!(uninterrupted.outcome, Outcome::Deadlock);
    for (num, den) in [(1, 16), (1, 2)] {
        let at = fraction_of(uninterrupted.time, num, den);
        let resumed = checkpoint_resume(&cfg, src, at);
        assert_eq!(resumed, uninterrupted, "wedged checkpoint at {at} diverged");
    }
}

#[test]
fn cold_boot_checkpoint_roundtrips() {
    // Checkpointing before the first event is legal: the image records a
    // not-yet-started machine and the restore boots it from scratch.
    let cfg = SystemConfig::tiny();
    let src = vecadd_src(16);
    let uninterrupted = reference(&cfg, &src);
    let m = Machine::new(cfg.clone(), compile(&src));
    let bytes = m.checkpoint_bytes();
    let mut restored = Machine::restore_bytes(cfg, compile(&src), &bytes).expect("cold restore");
    assert_eq!(restored.run(), uninterrupted);
}

#[test]
fn chained_checkpoints_roundtrip() {
    // Checkpoint, restore, run a bit further, checkpoint *again*, restore:
    // images taken from restored machines are as good as first-generation
    // ones.
    let cfg = faulty_cfg(7);
    let src = vecadd_src(32);
    let uninterrupted = reference(&cfg, &src);
    let t1 = fraction_of(uninterrupted.time, 1, 4);
    let t2 = fraction_of(uninterrupted.time, 3, 4);

    let mut gen0 = Machine::new(cfg.clone(), compile(&src));
    assert!(gen0.run_until(t1).is_none());
    let image1 = gen0.checkpoint_bytes();

    let mut gen1 =
        Machine::restore_bytes(cfg.clone(), compile(&src), &image1).expect("first restore");
    assert!(gen1.run_until(t2).is_none());
    let image2 = gen1.checkpoint_bytes();

    let mut gen2 =
        Machine::restore_bytes(cfg.clone(), compile(&src), &image2).expect("second restore");
    assert_eq!(gen2.run(), uninterrupted);
}

#[test]
fn fork_at_region_start_reproduces_cold_run() {
    // The warm-start pattern on Fig. 5's program: simulate up to the
    // region-start marker once, snapshot, and fork runs from the image. Each
    // fork must be the cold run, bit for bit.
    use ccsvm_workloads::{matmul, region_dram, region_time, MARK_START};
    let p = matmul::MatmulParams::new(16, 42);
    let prog = compile(&matmul::xthreads_source(&p));
    let cfg = SystemConfig::paper_default();
    let cold = Machine::new(cfg.clone(), prog.clone()).run();
    let expect = matmul::reference_checksum(&p);
    assert_eq!(cold.exit_code, expect);

    let mut m = Machine::new(cfg.clone(), prog.clone());
    let marker = MARK_START.to_string();
    let step = Time::from_us(10);
    let mut limit = step;
    while !m.printed().contains(&marker) {
        assert!(
            m.run_until(limit).is_none(),
            "run finished before its region-start marker"
        );
        limit = limit.plus(step);
    }
    let image = m.checkpoint_bytes();
    for i in 0..2 {
        let fork = Machine::restore_bytes(cfg.clone(), prog.clone(), &image)
            .expect("restore must succeed")
            .run();
        assert_eq!(fork, cold, "fork {i} diverged");
        assert_eq!(
            region_time(&fork.printed, &fork.printed_at, fork.time),
            region_time(&cold.printed, &cold.printed_at, cold.time)
        );
        assert_eq!(
            region_dram(&fork.printed, &fork.dram_at_print, fork.dram_accesses),
            region_dram(&cold.printed, &cold.dram_at_print, cold.dram_accesses)
        );
        assert_eq!(fork.exit_code, expect);
    }
}

#[test]
fn file_round_trip_via_checkpoint_and_restore() {
    let cfg = SystemConfig::tiny();
    let src = vecadd_src(16);
    let uninterrupted = reference(&cfg, &src);
    let at = fraction_of(uninterrupted.time, 1, 2);
    let mut m = Machine::new(cfg.clone(), compile(&src));
    assert!(m.run_until(at).is_none());
    let path = std::env::temp_dir().join(format!("ccsvm-snap-test-{}.ccsnap", std::process::id()));
    m.checkpoint(&path).expect("checkpoint to file");
    let mut restored = Machine::restore(cfg, compile(&src), &path).expect("restore from file");
    let _ = std::fs::remove_file(&path);
    assert_eq!(restored.run(), uninterrupted);
}

#[test]
fn mismatched_config_is_a_typed_error() {
    let cfg = SystemConfig::tiny();
    let src = vecadd_src(16);
    let mut m = Machine::new(cfg.clone(), compile(&src));
    let limit = fraction_of(reference(&cfg, &src).time, 1, 2);
    assert!(m.run_until(limit).is_none());
    let bytes = m.checkpoint_bytes();
    // A machine with one more CPU is a different machine: restoring the
    // image into it must fail up front, not corrupt the topology.
    let mut other = cfg.clone();
    other.n_cpus += 1;
    match Machine::restore_bytes(other, compile(&src), &bytes) {
        Err(SnapError::ConfigMismatch { found, expected }) => {
            assert_ne!(found, expected);
        }
        Err(other) => panic!("expected ConfigMismatch, got {other:?}"),
        Ok(_) => panic!("expected ConfigMismatch, restore succeeded"),
    }
    // But host-only knobs (host_profile, trace_events) are *not* part of
    // the machine's identity — the same image restores fine.
    let mut host_knobs = cfg.clone();
    host_knobs.host_profile = true;
    host_knobs.trace_events = 64;
    assert!(Machine::restore_bytes(host_knobs, compile(&src), &bytes).is_ok());
}

#[test]
fn mismatched_schema_bad_magic_and_truncation_are_typed_errors() {
    let cfg = SystemConfig::tiny();
    let src = vecadd_src(16);
    let mut m = Machine::new(cfg.clone(), compile(&src));
    let limit = fraction_of(reference(&cfg, &src).time, 1, 2);
    assert!(m.run_until(limit).is_none());
    let bytes = m.checkpoint_bytes();

    // Header layout: magic [0..8], schema u32 [8..12], config hash [12..20].
    let mut wrong_schema = bytes.clone();
    wrong_schema[8..12].copy_from_slice(&(ccsvm::SNAP_SCHEMA_VERSION + 1).to_le_bytes());
    match Machine::restore_bytes(cfg.clone(), compile(&src), &wrong_schema) {
        Err(SnapError::SchemaMismatch { found, expected }) => {
            assert_eq!(found, ccsvm::SNAP_SCHEMA_VERSION + 1);
            assert_eq!(expected, ccsvm::SNAP_SCHEMA_VERSION);
        }
        Err(other) => panic!("expected SchemaMismatch, got {other:?}"),
        Ok(_) => panic!("expected SchemaMismatch, restore succeeded"),
    }

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] ^= 0xff;
    assert!(matches!(
        Machine::restore_bytes(cfg.clone(), compile(&src), &wrong_magic),
        Err(SnapError::BadMagic)
    ));

    // Truncated inside the header.
    assert!(matches!(
        Machine::restore_bytes(cfg.clone(), compile(&src), &bytes[..10]),
        Err(SnapError::Truncated { .. })
    ));
    // Truncated mid-body: still a typed error, never a panic or a partially
    // restored machine.
    assert!(matches!(
        Machine::restore_bytes(cfg.clone(), compile(&src), &bytes[..bytes.len() / 2]),
        Err(SnapError::Truncated { .. } | SnapError::Corrupt { .. })
    ));
    // Trailing garbage after a valid image is rejected too.
    let mut padded = bytes.clone();
    padded.extend_from_slice(b"junk");
    assert!(matches!(
        Machine::restore_bytes(cfg, compile(&src), &padded),
        Err(SnapError::Corrupt { .. })
    ));
}

// Property test: a checkpoint at a *random* cycle — not just the hand-picked
// early/mid points — round-trips bit-for-bit. Needs `proptest`; see the
// `slow-tests` note in Cargo.toml.
#[cfg(feature = "slow-tests")]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn random_checkpoint_cycle_roundtrips(
            percent in 1u64..100,
        ) {
            let cfg = faulty_cfg(7);
            let src = vecadd_src(16);
            let uninterrupted = reference(&cfg, &src);
            let at = fraction_of(uninterrupted.time, percent, 100);
            let resumed = checkpoint_resume(&cfg, &src, at);
            prop_assert_eq!(resumed, uninterrupted);
        }
    }
}

/// Every byte format the snapshot codec writes, pinned by digest: machine
/// images of the paper's matmul (n = 16, `paper_default`) paused at three
/// fixed times under each protocol, an image taken under a NoC + ECC fault
/// plan, the image of an aborted run, the finished runs' `RunReport` bytes
/// and one replay bundle. A codec change that moves any byte fails here
/// even when every round trip still holds. To re-bless after an intended
/// layout change (which also bumps `SCHEMA_VERSION`), run:
///
/// ```text
/// CCSVM_BLESS=1 cargo test -p ccsvm --test snapshot
/// ```
#[test]
fn image_report_and_bundle_bytes_match_their_digests() {
    use ccsvm::{run_with_triage, Mutation, MutationKind};
    use ccsvm_snap::fnv1a;

    let src = common::matmul_n16();
    let mut digests: Vec<(String, u64)> = Vec::new();
    for kind in ProtocolKind::ALL {
        let mut cfg = SystemConfig::paper_default();
        cfg.protocol = kind;
        let mut m = Machine::new(cfg, compile(&src));
        for us in [5, 30, 55] {
            assert!(m.run_until(Time::from_us(us)).is_none(), "{kind} ended");
            digests.push((format!("{kind}.image.{us}us"), fnv1a(&m.checkpoint_bytes())));
        }
        let r = m.run();
        assert_eq!(r.outcome, Outcome::Completed, "{kind}");
        digests.push((format!("{kind}.report"), fnv1a(&r.to_bytes())));
    }

    let mut cfg = SystemConfig::paper_default();
    cfg.fault.seed = 7;
    cfg.fault.noc.drop_rate = 0.02;
    cfg.fault.dram.single_bit_rate = 0.2;
    let mut m = Machine::new(cfg, compile(&src));
    assert!(m.run_until(Time::from_us(30)).is_none(), "faulty run ended");
    digests.push(("faulty.image.30us".into(), fnv1a(&m.checkpoint_bytes())));
    let r = m.run();
    assert!(
        r.stats.get("noc.retransmissions") > 0.0,
        "no NoC drop fired"
    );
    digests.push(("faulty.report".into(), fnv1a(&r.to_bytes())));

    let src_abort = "_CPU_ fn main() -> int { return 41 + 1; }";
    let mut m = Machine::new(deadlock_cfg(), compile(src_abort));
    let r = m.run();
    assert_eq!(r.outcome, Outcome::Deadlock);
    digests.push(("aborted.image".into(), fnv1a(&m.checkpoint_bytes())));
    digests.push(("aborted.report".into(), fnv1a(&r.to_bytes())));

    let mut cfg = SystemConfig::tiny();
    cfg.sanitizer.enabled = true;
    cfg.sanitizer.mutate = Some(Mutation {
        kind: MutationKind::CorruptFillData,
        nth: 1,
    });
    let t = run_with_triage(&cfg, "tiny", &vecadd_src(16), Time::from_us(20)).unwrap();
    let bundle = t.bundle.expect("the mutation aborts the run").to_bytes();
    digests.push(("bundle".into(), fnv1a(&bundle)));

    let schema = ccsvm::SNAP_SCHEMA_VERSION;
    let mut got = format!("schema_version {schema}\n");
    for (name, d) in &digests {
        got.push_str(&format!("{name} {d:016x}\n"));
    }
    let path: std::path::PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "goldens",
        "snapshot_digests.txt",
    ]
    .iter()
    .collect();
    if std::env::var("CCSVM_BLESS").is_ok() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {}: {e} (run with CCSVM_BLESS=1)", path.display()));
    let advice = "if the layout changed, bump SCHEMA_VERSION and document it in \
                  DESIGN §8, then re-bless with CCSVM_BLESS=1";
    let pinned = want.lines().next().unwrap_or_default();
    assert_eq!(
        pinned,
        format!("schema_version {schema}"),
        "the digests were blessed under another SCHEMA_VERSION: {advice}"
    );
    for (g, w) in got.lines().zip(want.lines()).skip(1) {
        assert_eq!(g, w, "bytes moved under SCHEMA_VERSION {schema}: {advice}");
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "digest list length differs: {advice}"
    );
}
