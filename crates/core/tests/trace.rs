//! The event trace (`SystemConfig::trace_events`, DESIGN §9) is a pure
//! observer: turning it on changes no `RunReport`, and what it records does
//! not depend on the host-side phase clock. Replay bundles carry it, and
//! their decoder refuses every truncation with a typed error.

use ccsvm::{
    run_with_triage, Machine, Mutation, MutationKind, ProtocolKind, ReplayBundle, RunReport,
    SnapError, SystemConfig, Trace,
};

mod common;
use common::{compile, faulty_cfg, matmul_n16, vecadd_src};

/// Runs `src` under `cfg` and returns the report with the machine's trace.
fn run(cfg: SystemConfig, src: &str) -> (RunReport, Trace) {
    let mut m = Machine::new(cfg, compile(src));
    let r = m.run();
    (r, m.trace().clone())
}

#[test]
fn report_is_identical_with_the_trace_on_or_off() {
    let src = vecadd_src(64);
    for protocol in ProtocolKind::ALL {
        for faulty in [false, true] {
            let mut cfg = if faulty {
                faulty_cfg(7)
            } else {
                SystemConfig::tiny()
            };
            cfg.protocol = protocol;
            let label = format!("{protocol} faulty={faulty}");
            let (off, empty) = run(cfg.clone(), &src);
            cfg.trace_events = 4096;
            let (on, trace) = run(cfg, &src);
            assert_eq!(off.to_bytes(), on.to_bytes(), "{label}: report moved");
            assert_eq!(empty.total(), 0, "{label}: trace off recorded");
            assert_eq!(trace.total(), on.events, "{label}: one record per event");
            assert_eq!(trace.records().len(), on.events.min(4096) as usize);
            let last = trace.records().last().expect("records");
            assert_eq!(
                last.at, on.time,
                "{label}: the last record is the last event"
            );
            if faulty {
                assert!(
                    on.stats.get("noc.retransmissions") > 0.0,
                    "{label}: no NoC drop"
                );
            }
        }
    }
}

#[test]
fn trace_is_identical_with_host_profile_on_or_off() {
    let src = matmul_n16();
    let mut cfg = SystemConfig::paper_default();
    cfg.trace_events = 1 << 20;
    let (plain, reference) = run(cfg.clone(), &src);
    assert_eq!(reference.total(), plain.events);
    assert_eq!(reference.records().len() as u64, plain.events, "all kept");
    cfg.host_profile = true;
    let (profiled, trace) = run(cfg, &src);
    assert_eq!(profiled, plain, "the phase clock moved the report");
    assert!(trace == reference, "the phase clock moved the trace");
}

#[test]
fn bundle_round_trips_and_refuses_every_truncation() {
    let mut cfg = SystemConfig::tiny();
    cfg.sanitizer.enabled = true;
    cfg.sanitizer.mutate = Some(Mutation {
        kind: MutationKind::CorruptFillData,
        nth: 1,
    });
    let t = run_with_triage(&cfg, "tiny", &vecadd_src(16)).unwrap();
    let b = t.bundle.expect("the mutation aborts the run");
    let kept = b.trace.records().len();
    assert!(kept > 0 && kept <= 256, "{kept} records");
    assert_eq!(b.trace.total(), t.report.events);

    let bytes = b.to_bytes();
    assert_eq!(bytes[8..12], 4u32.to_le_bytes(), "bundle version 4");
    assert_eq!(ReplayBundle::from_bytes(&bytes).expect("decodes"), b);
    for cut in 0..bytes.len() {
        match ReplayBundle::from_bytes(&bytes[..cut]) {
            Err(SnapError::Truncated { .. } | SnapError::Corrupt { .. }) => {}
            other => panic!("cut at {cut} of {}: {other:?}", bytes.len()),
        }
    }
}
