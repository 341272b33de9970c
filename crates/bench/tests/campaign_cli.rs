//! The `campaign` binary refuses a command line it does not understand
//! before it runs a single cell: a typo must not run a different campaign
//! than the one asked for.

use std::path::Path;
use std::process::Command;

const CAMPAIGN: &str = env!("CARGO_BIN_EXE_campaign");

#[test]
fn unknown_or_malformed_arguments_exit_2_before_any_cell_runs() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("campaign-cli");
    let _ = std::fs::remove_dir_all(&dir);
    for extra in [
        &["--bogus"][..],
        &["--threads", "1,2"],
        &["--quick", "--protocols", "dragonn"],
        &["--seed"],
    ] {
        let out = Command::new(CAMPAIGN)
            .arg("--dir")
            .arg(&dir)
            .args(extra)
            .output()
            .expect("spawn campaign");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: stderr {stderr}");
        assert!(stderr.contains("usage: campaign"), "{extra:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{extra:?}: printed before refusing");
        assert!(!dir.exists(), "{extra:?}: wrote {}", dir.display());
    }
}
