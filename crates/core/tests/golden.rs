//! Golden determinism tests: full-system runs whose complete `RunReport`
//! (timing, event count, printed output, and every counter) is pinned to a
//! checked-in snapshot.
//!
//! These goldens were blessed *before* the hot-path data-structure swaps
//! (calendar event queue, FxHash block maps) and guard the
//! bit-for-bit determinism claim: an internal container may change, but the
//! simulated machine must not. To re-bless after an intentional model
//! change, run:
//!
//! ```text
//! CCSVM_BLESS=1 cargo test -p ccsvm --test golden
//! ```
//!
//! and commit the rewritten files under `tests/goldens/`.
//!
//! With `CCSVM_SANITIZE=1` the same runs execute with the coherence
//! sanitizer enabled (DESIGN §9). The sanitizer is a pure observer, so the
//! snapshots must *still* match the blessed goldens byte-for-byte — CI runs
//! both modes to pin that claim. If a sanitized golden run aborts, a triage
//! replay bundle is written to `bundles/` (uploaded as a CI artifact) so
//! the failure can be reproduced locally with `bench --bin replay`.

use std::fmt::Write as _;
use std::path::PathBuf;

use ccsvm::{Machine, Outcome, ProtocolKind, SystemConfig};

fn sanitize_mode() -> bool {
    std::env::var("CCSVM_SANITIZE").is_ok()
}

/// `CCSVM_PROTOCOL={directory,mesi-snoop,dragon}` selects the coherence
/// protocol the golden runs under. Non-default protocols pin their own
/// golden files (`cpu_only.mesi-snoop.txt`, …); the directory files are the
/// original, never-re-blessed seed goldens.
fn protocol_mode() -> ProtocolKind {
    match std::env::var("CCSVM_PROTOCOL") {
        Ok(s) => ProtocolKind::parse(&s).unwrap_or_else(|| {
            panic!("unknown CCSVM_PROTOCOL '{s}' (directory|mesi-snoop|dragon)")
        }),
        Err(_) => ProtocolKind::Directory,
    }
}

/// On a sanitized golden failure, capture a replay bundle for the CI
/// artifact before panicking.
fn capture_bundle(src: &str, cfg: &SystemConfig, context: &str) {
    let out_dir = std::path::Path::new("bundles");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return;
    }
    match ccsvm::run_with_triage(cfg, "paper_default", src) {
        Ok(t) => match t.bundle {
            Some(b) => {
                let path = out_dir.join(format!("golden-{context}.ccbundle"));
                match b.write(&path) {
                    Ok(()) => eprintln!(
                        "replay bundle written to {} (reproduce with `cargo run -p \
                         ccsvm-bench --bin replay -- {}`)",
                        path.display(),
                        path.display()
                    ),
                    Err(e) => eprintln!("cannot write bundle: {e}"),
                }
            }
            None => eprintln!("triage re-run completed cleanly; no bundle to capture"),
        },
        Err(e) => eprintln!("triage re-run failed: {e}"),
    }
}

/// Renders the parts of a run that must be bit-for-bit stable.
fn snapshot(name: &str, src: &str) -> String {
    let prog = ccsvm_xthreads::build(src).unwrap_or_else(|e| panic!("compile: {e}"));
    let mut cfg = SystemConfig::paper_default();
    cfg.sanitizer.enabled = sanitize_mode();
    cfg.protocol = protocol_mode();
    let mut m = Machine::new(cfg.clone(), prog);
    let r = m.run();
    if r.outcome != Outcome::Completed && cfg.sanitizer.enabled {
        capture_bundle(src, &cfg, name.trim_end_matches(".txt"));
    }
    assert_eq!(
        r.outcome,
        Outcome::Completed,
        "golden workload must complete (diag: {:?})",
        r.diagnostic
    );
    let mut out = String::new();
    writeln!(out, "time_ps: {}", r.time.as_ps()).unwrap();
    writeln!(out, "exit_code: {}", r.exit_code).unwrap();
    writeln!(out, "instructions: {}", r.instructions).unwrap();
    writeln!(out, "events: {}", r.events).unwrap();
    writeln!(out, "dram_accesses: {}", r.dram_accesses).unwrap();
    writeln!(out, "printed:").unwrap();
    for (v, at) in r.printed.iter().zip(&r.printed_at) {
        writeln!(out, "  {v} @ {}ps", at.as_ps()).unwrap();
    }
    writeln!(out, "stats:").unwrap();
    for (k, v) in &r.stats {
        // Full precision: format the raw bits so even sub-ulp drift fails.
        writeln!(out, "  {k} = {v} [{:016x}]", v.to_bits()).unwrap();
    }
    out
}

fn check(name: &str, src: &str) {
    let got = snapshot(name, src);
    let protocol = protocol_mode();
    let file = if protocol == ProtocolKind::Directory {
        name.to_string()
    } else {
        name.replace(".txt", &format!(".{protocol}.txt"))
    };
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "goldens", &file]
        .iter()
        .collect();
    if std::env::var("CCSVM_BLESS").is_ok() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} (run with CCSVM_BLESS=1)",
            path.display()
        )
    });
    if got != want {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            if g != w {
                panic!(
                    "golden {name} diverged at line {}:\n  got:  {g}\n  want: {w}",
                    i + 1
                );
            }
        }
        panic!(
            "golden {name} diverged in length: got {} lines, want {}",
            got.lines().count(),
            want.lines().count()
        );
    }
}

/// CPU-only: interpreter loop, demand paging, L1/L2/DRAM, no offload.
#[test]
fn golden_cpu_only() {
    check(
        "cpu_only.txt",
        &ccsvm_workloads::matmul::cpu_source(&ccsvm_workloads::matmul::MatmulParams::new(12, 42)),
    );
}

/// CPU + MTTOP: kernel launch, TLB shootdowns, directory coherence between
/// heterogeneous cores, wait/signal synchronization.
#[test]
fn golden_cpu_mttop() {
    check(
        "cpu_mttop.txt",
        &ccsvm_workloads::matmul::xthreads_source(&ccsvm_workloads::matmul::MatmulParams::new(
            16, 42,
        )),
    );
}
