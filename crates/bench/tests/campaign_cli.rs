//! The bench binaries refuse a command line they do not understand before
//! they simulate or write anything: a typo must not run a different sweep
//! than the one asked for, and only `--out` writes a results file. What a
//! figure writes does not depend on `--threads`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `binary` with `args` in a fresh, empty working directory, which is
/// returned with the output so a test can check what the run left there.
fn run_in_fresh_dir(case: &str, binary: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("bench-cli-{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test directory");
    let out = Command::new(binary)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn bench binary");
    (out, dir)
}

fn dir_entries(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("read test directory")
        .map(|e| e.expect("directory entry").path())
        .collect()
}

/// A "cell" is any simulated point: a campaign cell, a figure's sweep
/// point, a fault or ablation run.
#[test]
fn unknown_or_malformed_arguments_exit_2_before_any_cell_runs() {
    let cases: &[(&str, &str, &[&str])] = &[
        ("campaign", env!("CARGO_BIN_EXE_campaign"), &["--bogus"]),
        (
            "campaign",
            env!("CARGO_BIN_EXE_campaign"),
            &["--threads", "1,2"],
        ),
        (
            "campaign",
            env!("CARGO_BIN_EXE_campaign"),
            &["--quick", "--protocols", "dragonn"],
        ),
        ("campaign", env!("CARGO_BIN_EXE_campaign"), &["--seed"]),
        (
            "faults",
            env!("CARGO_BIN_EXE_faults"),
            &["--quick", "--protocl", "dragon"],
        ),
        ("ablations", env!("CARGO_BIN_EXE_ablations"), &["--quikc"]),
        ("table1", env!("CARGO_BIN_EXE_table1"), &["--bogus"]),
        ("table2", env!("CARGO_BIN_EXE_table2"), &["--bogus"]),
        ("fig7", env!("CARGO_BIN_EXE_fig7"), &["--threads", "0"]),
        (
            "fig5",
            env!("CARGO_BIN_EXE_fig5"),
            &["--checkpoint-at", "5"],
        ),
        ("fig5", env!("CARGO_BIN_EXE_fig5"), &["--restore-from", "x"]),
        (
            "sweepd",
            env!("CARGO_BIN_EXE_sweepd"),
            &["--dir", "d", "--chaos", "kill=1.0,seed=7"],
        ),
        (
            "sweepd",
            env!("CARGO_BIN_EXE_sweepd"),
            &["--dir", "d", "--ckpt-us", "2"],
        ),
        (
            "sweepd",
            env!("CARGO_BIN_EXE_sweepd"),
            &["--dir", "d", "--max-attempts", "2"],
        ),
        (
            "sweepd",
            env!("CARGO_BIN_EXE_sweepd"),
            &["--dir", "d", "--inflight", "2"],
        ),
        (
            "sweepd",
            env!("CARGO_BIN_EXE_sweepd"),
            &["--dir", "d", "--workloads", "vecadd,matmul", "--sizes", "0"],
        ),
    ];
    for (i, &(name, binary, args)) in cases.iter().enumerate() {
        let (out, dir) = run_in_fresh_dir(&format!("refuse-{i}"), binary, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name} {args:?}: stderr {stderr}"
        );
        assert!(
            stderr.contains(&format!("usage: {name} [")),
            "{name} {args:?}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{name} {args:?}: printed before refusing"
        );
        assert_eq!(
            dir_entries(&dir),
            Vec::<PathBuf>::new(),
            "{name} {args:?}: wrote files"
        );
    }
}

#[test]
fn a_table_run_without_out_writes_no_results_file() {
    let (out, dir) = run_in_fresh_dir("table1-no-out", env!("CARGO_BIN_EXE_table1"), &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("[table1] all API functions present"),
        "{stdout}"
    );
    assert!(!dir.join("results").exists(), "table1 created results/");
    assert_eq!(
        dir_entries(&dir),
        Vec::<PathBuf>::new(),
        "table1 wrote files"
    );
}

/// Every harness runs its points through one `sweep`, so a figure that once
/// ran its points in a serial loop writes the same table at any thread
/// count.
#[test]
fn fig6_writes_the_same_table_at_one_and_three_threads() {
    let table = |threads: &str| {
        let (out, dir) = run_in_fresh_dir(
            &format!("fig6-threads-{threads}"),
            env!("CARGO_BIN_EXE_fig6"),
            &["--quick", "--threads", threads, "--out", "fig6.txt"],
        );
        assert_eq!(
            out.status.code(),
            Some(0),
            "fig6 --threads {threads}: stderr {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(dir.join("fig6.txt")).expect("fig6 wrote its --out file")
    };
    let serial = table("1");
    assert!(!serial.is_empty());
    assert_eq!(serial, table("3"), "fig6 --quick differs at --threads 3");
}

/// A failed qualitative claim is reported on stdout and ends the run with
/// exit status 1 through the binary's typed error path. Listing the larger
/// size first makes Fig. 5's "largest size" claim judge the smallest one,
/// where the no-init APU is still far behind.
#[test]
fn a_failed_claim_exits_1_after_its_summary_line() {
    let (out, _) = run_in_fresh_dir(
        "fig5-failed-claim",
        env!("CARGO_BIN_EXE_fig5"),
        &["--sizes", "16,8"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout {stdout}");
    assert!(stdout.contains("!! claim failed: largest size"), "{stdout}");
    assert!(stdout.ends_with("[fig5] 1 claim(s) FAILED\n"), "{stdout}");
}
