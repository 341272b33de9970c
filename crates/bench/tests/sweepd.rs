//! End-to-end tests for the `sweepd` binary (DESIGN §10).
//!
//! These drive the real executable (`CARGO_BIN_EXE_sweepd`) and pin what
//! the cached runner promises: a re-run simulates only the jobs with no
//! cache entry and rewrites a byte-identical manifest, a job that does not
//! complete is poisoned next to a replay bundle that reproduces it, and
//! every computed point carries its workload's reference answer.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ccsvm_workloads::matmul;

const SWEEPD: &str = env!("CARGO_BIN_EXE_sweepd");

/// Fresh per-test sweep directory under the target-local tmp area.
fn sweep_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("sweepd")
        .join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `sweepd --dir dir args…`, requires exit 0, and returns its stdout.
fn sweepd(dir: &Path, args: &[&str]) -> String {
    let out: Output = Command::new(SWEEPD)
        .arg("--dir")
        .arg(dir)
        .args(args)
        .output()
        .expect("spawn sweepd");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "sweepd {args:?}\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        !stderr.contains("quarantin"),
        "a healthy run must not quarantine anything: {stderr}"
    );
    stdout
}

fn manifest_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("manifest.txt")).expect("manifest written")
}

/// Parses `simulated N` out of the summary line.
fn simulated(stdout: &str) -> usize {
    stdout
        .split("simulated ")
        .nth(1)
        .and_then(|tail| tail.split(',').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no `simulated N` in the summary: {stdout}"))
}

const GRID: &[&str] = &[
    "--preset",
    "tiny",
    "--workloads",
    "vecadd",
    "--sizes",
    "16,32",
    "--seeds",
    "1",
];

#[test]
fn warm_rerun_is_served_from_cache_and_reproduces_the_manifest() {
    let dir = sweep_dir("warm");
    let out = sweepd(&dir, GRID);
    assert_eq!(simulated(&out), 2, "{out}");
    let first = manifest_bytes(&dir);

    let out = sweepd(&dir, GRID);
    assert!(out.contains("simulated 0, cached 2"), "{out}");
    assert_eq!(manifest_bytes(&dir), first, "warm manifest identical");
}

#[test]
fn resume_simulates_only_points_without_a_cache_entry() {
    let dir = sweep_dir("resume");
    let grid = |sizes| ["--workloads", "vecadd", "--sizes", sizes, "--seeds", "1"];

    // A sweep stopped after its first point left that point's report.
    assert_eq!(simulated(&sweepd(&dir, &grid("16"))), 1);
    let out = sweepd(&dir, &[&grid("16,32")[..], &["--threads", "2"]].concat());
    assert_eq!(simulated(&out), 1, "only the new point runs: {out}");
    let manifest = manifest_bytes(&dir);
    assert_eq!(simulated(&sweepd(&dir, &grid("16,32"))), 0);
    assert_eq!(manifest_bytes(&dir), manifest);

    // Losing one report costs exactly that point.
    let entries: Vec<PathBuf> = std::fs::read_dir(dir.join("cache"))
        .expect("cache directory")
        .map(|e| e.expect("cache entry").path())
        .collect();
    assert_eq!(entries.len(), 2, "{entries:?}");
    std::fs::remove_file(&entries[0]).expect("delete one cache entry");
    assert_eq!(simulated(&sweepd(&dir, &grid("16,32"))), 1);
    assert_eq!(manifest_bytes(&dir), manifest, "manifest byte-identical");
}

#[test]
fn exhausted_retries_poison_with_bundle_and_partial_manifest() {
    // `wedge` spins forever; under tiny_brief's 100 µs budget it ends in a
    // watchdog deadlock, so the job is poisoned on its one run.
    let dir = sweep_dir("poison");
    let grid = [
        "--preset",
        "tiny_brief",
        "--workloads",
        "vecadd,wedge",
        "--sizes",
        "16",
        "--seeds",
        "1",
    ];
    let out = sweepd(&dir, &grid);
    assert!(
        out.contains("1 poisoned: wedge-n16-s1"),
        "summary names the poisoned job: {out}"
    );

    let manifest = String::from_utf8(manifest_bytes(&dir)).unwrap();
    let poisoned_row = manifest
        .lines()
        .find(|l| l.contains("status=poisoned"))
        .expect("manifest has a poisoned row");
    assert!(poisoned_row.starts_with("job wedge-n16-s1 "));
    let bundle_rel = poisoned_row
        .split("bundle=")
        .nth(1)
        .expect("poisoned row names its replay bundle");
    assert!(
        manifest.contains("status=done") && manifest.ends_with("total=2 done=1 poisoned=1\n"),
        "healthy job still lands in the partial manifest: {manifest}"
    );
    let bundle = ccsvm::ReplayBundle::read(&dir.join(bundle_rel)).expect("bundle decodes");
    let (report, reproduced) = ccsvm::replay_bundle(&bundle).expect("bundle replays");
    assert!(
        reproduced,
        "replay reproduces the abort: {:?}",
        report.outcome
    );

    // The poisoned report is cached too: a re-run simulates nothing.
    let out = sweepd(&dir, &grid);
    assert_eq!(simulated(&out), 0, "{out}");
    assert_eq!(manifest_bytes(&dir), manifest.as_bytes());
}

#[test]
fn matmul_points_wider_than_the_preset_compute_the_reference() {
    // tiny has 64 MTTOP contexts; n = 16 has 256 elements, so the launch
    // must be clamped to the chip rather than refused.
    let dir = sweep_dir("matmul");
    sweepd(
        &dir,
        &["--workloads", "matmul", "--sizes", "8,16", "--seeds", "1,2"],
    );
    let manifest = String::from_utf8(manifest_bytes(&dir)).unwrap();
    for (n, seed) in [(8, 1), (8, 2), (16, 1), (16, 2)] {
        let row = manifest
            .lines()
            .find(|l| l.starts_with(&format!("job matmul-n{n}-s{seed} ")))
            .unwrap_or_else(|| panic!("no row for n={n} seed={seed}: {manifest}"));
        let want = matmul::reference_checksum(&matmul::MatmulParams::new(n, seed));
        assert!(row.contains(&format!(" exit={want} ")), "{row}");
    }
}
