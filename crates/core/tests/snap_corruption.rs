//! Pause-image hardening. An image is 45 bytes (magic, version, config
//! hash, program hash, booted flag, pause time, checksum), and every defect
//! must surface as a typed [`SnapError`] before any machine is handed back:
//! truncation at every offset, any flipped byte, trailing bytes, an image
//! of another config, protocol, fault plan or program, and a pause time the
//! run never reaches.

use ccsvm::{Machine, Outcome, SnapError, SystemConfig, Time};
use ccsvm_isa::Program;
use ccsvm_snap::fnv1a;

const SRC: &str = "_CPU_ fn main() -> int { return 41 + 1; }";

fn compile() -> Program {
    ccsvm_xthreads::build(SRC).unwrap()
}

/// The image of a machine paused halfway through its run.
fn mid_run_image(cfg: &SystemConfig) -> Vec<u8> {
    let baseline = Machine::new(cfg.clone(), compile()).run();
    assert_eq!(baseline.outcome, Outcome::Completed);
    let mut m = Machine::new(cfg.clone(), compile());
    let pause = Time::from_ps(baseline.time.as_ps() / 2);
    assert!(m.run_until(pause).is_none(), "run outlives the pause point");
    m.checkpoint_bytes()
}

/// `image` with its booted flag and pause time replaced and its checksum
/// recomputed: a well-formed image of `(booted, pause)`.
fn repaused(image: &[u8], booted: bool, pause: Time) -> Vec<u8> {
    let mut b = image[..28].to_vec();
    b.push(u8::from(booted));
    b.extend_from_slice(&pause.as_ps().to_le_bytes());
    let check = fnv1a(&b);
    b.extend_from_slice(&check.to_le_bytes());
    b
}

#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    let cfg = SystemConfig::tiny();
    let bytes = mid_run_image(&cfg);
    assert_eq!(bytes.len(), 45);
    // A valid image restores (sanity for the sweep below).
    Machine::restore_bytes(cfg.clone(), compile(), &bytes).expect("intact image restores");
    for len in 0..bytes.len() {
        match Machine::restore_bytes(cfg.clone(), compile(), &bytes[..len]) {
            Err(SnapError::Truncated { .. }) => {}
            Err(e) => panic!("truncation to {len} bytes: {e:?}"),
            Ok(_) => panic!(
                "truncation to {len}/{} bytes restored a machine",
                bytes.len()
            ),
        }
    }
}

#[test]
fn byte_flip_at_every_offset_never_panics_cold_boot() {
    let cfg = SystemConfig::tiny();
    let bytes = Machine::new(cfg.clone(), compile()).checkpoint_bytes();
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0xff;
        assert!(
            Machine::restore_bytes(cfg.clone(), compile(), &corrupt).is_err(),
            "flipping byte {i} of a cold image still restored"
        );
    }
}

#[test]
fn byte_flips_throughout_a_live_image_never_panic() {
    let cfg = SystemConfig::tiny();
    let bytes = mid_run_image(&cfg);
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << bit;
            match Machine::restore_bytes(cfg.clone(), compile(), &corrupt) {
                Err(
                    SnapError::BadMagic
                    | SnapError::SchemaMismatch { .. }
                    | SnapError::Corrupt { .. },
                ) => {}
                Err(e) => panic!("bit {bit} of byte {i}: {e:?}"),
                Ok(_) => panic!("bit {bit} of byte {i} flipped, image still restored"),
            }
        }
    }
}

/// `u64::MAX` stomped over every 8-byte window — where a state dump kept
/// its length fields — is a typed error: the image has a fixed length, and
/// no field value, however large, makes a restore allocate or panic.
#[test]
fn hostile_length_fields_are_bounds_checked() {
    let cfg = SystemConfig::tiny();
    stomp_every_window(&cfg, compile(), &mid_run_image(&cfg));
}

fn stomp_every_window(cfg: &SystemConfig, prog: Program, bytes: &[u8]) {
    for i in 0..=bytes.len() - 8 {
        let mut corrupt = bytes.to_vec();
        corrupt[i..i + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        match Machine::restore_bytes(cfg.clone(), prog.clone(), &corrupt) {
            Err(
                SnapError::BadMagic | SnapError::SchemaMismatch { .. } | SnapError::Corrupt { .. },
            ) => {}
            Err(e) => panic!("window at {i}: {e:?}"),
            Ok(_) => panic!("window at {i} stomped, image still restored"),
        }
    }
}

#[test]
fn empty_and_tiny_inputs_are_typed_errors() {
    let cfg = SystemConfig::tiny();
    for img in [&[][..], &[0u8][..], &[0xff; 7][..], b"CCSVSNAP"] {
        assert!(
            Machine::restore_bytes(cfg.clone(), compile(), img).is_err(),
            "{} bytes must not restore",
            img.len()
        );
    }
}

/// Trailing bytes, another program, a pause the run never reaches, and an
/// unbooted image that names a pause time: each a typed error even though
/// the image's checksum holds.
#[test]
fn every_image_defect_is_a_typed_error() {
    let cfg = SystemConfig::tiny();
    let bytes = mid_run_image(&cfg);

    let mut padded = bytes.clone();
    padded.push(0);
    assert!(matches!(
        Machine::restore_bytes(cfg.clone(), compile(), &padded),
        Err(SnapError::Corrupt { .. })
    ));

    let other = ccsvm_xthreads::build("_CPU_ fn main() -> int { return 7; }").unwrap();
    assert!(matches!(
        Machine::restore_bytes(cfg.clone(), other, &bytes),
        Err(SnapError::ProgramMismatch { .. })
    ));

    let end = Machine::new(cfg.clone(), compile()).run().time;
    for pause in [end, end + Time::from_ps(1), Time::MAX] {
        match Machine::restore_bytes(cfg.clone(), compile(), &repaused(&bytes, true, pause)) {
            Err(SnapError::PauseAfterEnd { pause_ps, end_ps }) => {
                assert_eq!((pause_ps, end_ps), (pause.as_ps(), end.as_ps()));
            }
            Err(e) => panic!("pause at {pause}: {e:?}"),
            Ok(_) => panic!("an image pausing at {pause} restored past the end {end}"),
        }
    }

    assert!(matches!(
        Machine::restore_bytes(cfg.clone(), compile(), &repaused(&bytes, false, end)),
        Err(SnapError::Corrupt { .. })
    ));
    // Re-signing the image at its own pause time reproduces it exactly.
    let pause = Time::from_ps(u64::from_le_bytes(bytes[29..37].try_into().unwrap()));
    assert_eq!(repaused(&bytes, true, pause), bytes);
}

/// An image from one coherence protocol restored into a machine configured
/// for another is a deliberate misuse, not corruption: the protocol is part
/// of the config hash, so it surfaces as [`SnapError::ConfigMismatch`].
#[test]
fn cross_protocol_restore_is_typed_not_a_decode_panic() {
    use ccsvm::ProtocolKind;
    for (from, into) in [
        (ProtocolKind::Directory, ProtocolKind::MesiSnoop),
        (ProtocolKind::MesiSnoop, ProtocolKind::Dragon),
        (ProtocolKind::Dragon, ProtocolKind::Directory),
    ] {
        let mut cfg = SystemConfig::tiny();
        cfg.protocol = from;
        let image = mid_run_image(&cfg);
        let mut other = cfg.clone();
        other.protocol = into;
        match Machine::restore_bytes(other.clone(), compile(), &image) {
            Err(SnapError::ConfigMismatch { found, expected }) => {
                assert_eq!(found, ccsvm::config_hash(&cfg));
                assert_eq!(expected, ccsvm::config_hash(&other));
            }
            Err(e) => panic!("expected ConfigMismatch, got {e:?}"),
            Ok(_) => panic!("cross-protocol restore must fail"),
        }
    }
}

// ---------------------------------------------------------------------------
// Images captured under an active fault plan — probe-loss streams armed,
// solicitation rounds and retry epochs in flight — restore and finish
// bit-identically, and refuse a config with another plan.
// ---------------------------------------------------------------------------

/// A sharing workload that keeps solicitation rounds in flight.
const SHARED_SRC: &str = "global results: int;
     fn worker(arg: int) -> int {
         atomic_add(&results, arg);
         return 0;
     }
     _CPU_ fn main() -> int {
         results = 0;
         let t1 = spawn_cthread(worker, 5);
         if (t1 < 0) { return -1; }
         while (results != 5) { }
         return results;
     }";

/// A config with every protocol-appropriate loss stream armed.
fn faulted_cfg(protocol: ccsvm::ProtocolKind) -> SystemConfig {
    use ccsvm::ProtocolKind;
    let mut cfg = SystemConfig::tiny();
    cfg.protocol = protocol;
    cfg.fault.seed = 11;
    cfg.fault.noc.drop_rate = 0.02;
    cfg.fault.dir.timeout = Some(Time::from_us(5));
    if protocol != ProtocolKind::Directory {
        cfg.fault.snoop_probe.drop_rate = 0.2;
    }
    if protocol == ProtocolKind::Dragon {
        cfg.fault.upd_ack.drop_rate = 0.2;
    }
    cfg
}

fn faulted_image(cfg: &SystemConfig) -> (Vec<u8>, ccsvm::RunReport) {
    let prog = ccsvm_xthreads::build(SHARED_SRC).unwrap();
    let baseline = Machine::new(cfg.clone(), prog.clone()).run();
    assert_eq!(baseline.outcome, Outcome::Completed);
    let mut m = Machine::new(cfg.clone(), prog);
    let pause = Time::from_ps(baseline.time.as_ps() / 2);
    assert!(m.run_until(pause).is_none(), "run outlives the pause point");
    (m.checkpoint_bytes(), baseline)
}

#[test]
fn mid_retry_image_restores_bit_identically_for_every_protocol() {
    for protocol in ccsvm::ProtocolKind::ALL {
        let cfg = faulted_cfg(protocol);
        let (bytes, baseline) = faulted_image(&cfg);
        let prog = ccsvm_xthreads::build(SHARED_SRC).unwrap();
        let mut restored = Machine::restore_bytes(cfg, prog, &bytes)
            .unwrap_or_else(|e| panic!("{protocol:?}: intact image failed: {e:?}"));
        assert_eq!(
            restored.run(),
            baseline,
            "{protocol:?}: restoring mid-retry state diverged"
        );
    }
}

#[test]
fn mid_retry_truncation_at_every_offset_is_a_typed_error() {
    for protocol in ccsvm::ProtocolKind::ALL {
        let cfg = faulted_cfg(protocol);
        let (bytes, _) = faulted_image(&cfg);
        let prog = ccsvm_xthreads::build(SHARED_SRC).unwrap();
        for len in 0..bytes.len() {
            if Machine::restore_bytes(cfg.clone(), prog.clone(), &bytes[..len]).is_ok() {
                panic!(
                    "{protocol:?}: truncation to {len}/{} bytes restored a machine",
                    bytes.len()
                );
            }
        }
    }
}

#[test]
fn mid_retry_hostile_length_fields_are_bounds_checked() {
    for protocol in ccsvm::ProtocolKind::ALL {
        let cfg = faulted_cfg(protocol);
        let (bytes, _) = faulted_image(&cfg);
        stomp_every_window(&cfg, ccsvm_xthreads::build(SHARED_SRC).unwrap(), &bytes);
    }
}

/// The fault plan is part of the config hash: an image whose config armed
/// a loss stream does not restore into a config that disarms it.
#[test]
fn fault_stream_presence_mismatch_is_a_typed_error() {
    let cfg = faulted_cfg(ccsvm::ProtocolKind::MesiSnoop);
    let (bytes, _) = faulted_image(&cfg);
    let mut disarmed = cfg.clone();
    disarmed.fault.snoop_probe.drop_rate = 0.0;
    let prog = ccsvm_xthreads::build(SHARED_SRC).unwrap();
    assert!(
        matches!(
            Machine::restore_bytes(disarmed, prog, &bytes),
            Err(SnapError::ConfigMismatch { .. })
        ),
        "image with an armed probe-loss stream restored into a disarmed config"
    );
}
