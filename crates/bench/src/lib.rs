//! Shared harness utilities for the per-figure benchmark binaries.
//!
//! Host speed is measured in one place, the `benchmark` binary and its
//! committed ledger (`src/bin/benchmark/README.md`); the figure binaries
//! measure the simulated machine. Every figure binary accepts:
//!
//! * `--quick` — smaller sweeps for smoke runs (used by CI),
//! * `--sizes a,b,c` — override the swept sizes,
//! * `--threads N` — simulate sweep points on `N` worker threads (one
//!   independent `Machine` per point; results are reassembled in input
//!   order, so the printed table is byte-identical to a serial run),
//! * `--checkpoint-at NS` — pause each sweep point at simulated time `NS`
//!   nanoseconds, write a snapshot to `snapshots/<label>.ccsnap`, and
//!   continue to completion (the printed table is unchanged),
//! * `--restore-from DIR` — warm-start each sweep point from
//!   `DIR/<label>.ccsnap` when that image exists (falling back to a cold
//!   boot when it does not). Restored runs produce bit-identical reports, so
//!   the table is again unchanged — only wall-time drops,
//! * `--trace-events N` — record each simulated point's last `N` events
//!   (`SystemConfig::trace_events`) and print them to stderr as one block
//!   labelled with the point (the table is unchanged).
//!
//! Output is a fixed-width table whose rows mirror the corresponding figure
//! in the paper; EXPERIMENTS.md records a captured run next to the paper's
//! reported shape.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ccsvm::{Machine, ProtocolKind, RunReport, SystemConfig};
use ccsvm_engine::Time;
use ccsvm_workloads as wl;

/// Directory where `--checkpoint-at` writes its snapshot images.
pub const SNAP_DIR: &str = "snapshots";

/// Typed failure in a bench binary. Every binary's `main` is a thin wrapper
/// around a `Result<(), BenchError>` body handed to [`exit_with`]: CLI
/// misuse exits 2, operational failures (I/O, snapshot/bundle decode, a
/// simulated run producing the wrong answer or aborting) exit 1, and
/// success exits 0 — no panicking `unwrap`/`expect` on the failure paths.
#[derive(Debug)]
pub enum BenchError {
    /// File I/O failed.
    Io {
        /// The path being read or written.
        path: PathBuf,
        /// The underlying error message.
        err: String,
    },
    /// A snapshot or replay-bundle operation failed.
    Snap(ccsvm::SnapError),
    /// A simulated run misbehaved: wrong answer, abnormal outcome, or a
    /// guest program that failed to compile.
    Run(String),
    /// Command-line misuse.
    Cli(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Io { path, err } => write!(f, "{}: {err}", path.display()),
            BenchError::Snap(e) => write!(f, "snapshot: {e}"),
            BenchError::Run(what) => write!(f, "run failed: {what}"),
            BenchError::Cli(what) => write!(f, "usage: {what}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<ccsvm::SnapError> for BenchError {
    fn from(e: ccsvm::SnapError) -> BenchError {
        BenchError::Snap(e)
    }
}

impl BenchError {
    /// Wraps a file I/O error with the path it concerned.
    pub fn io(path: impl Into<PathBuf>, err: &std::io::Error) -> BenchError {
        BenchError::Io {
            path: path.into(),
            err: err.to_string(),
        }
    }

    /// Process exit status for this failure class.
    pub fn exit_code(&self) -> i32 {
        match self {
            BenchError::Cli(_) => 2,
            _ => 1,
        }
    }
}

/// Standard bench-binary epilogue: prints the error (if any) to stderr and
/// exits with its typed status — 0 on success.
pub fn exit_with(result: Result<(), BenchError>) -> ! {
    match result {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}

/// Exit status for a run stopped by SIGINT/SIGTERM after flushing its
/// final checkpoint (POSIX convention: 128 + SIGINT).
pub const EXIT_INTERRUPTED: i32 = 130;

/// Writes a results artifact atomically: same-directory temp file, fsync,
/// rename. A crash mid-write leaves either the old artifact or none — never
/// a torn one. Parent directories are created as needed.
///
/// # Errors
///
/// [`BenchError::Io`] when the directory or file cannot be written.
pub fn write_results_atomic(
    path: impl AsRef<std::path::Path>,
    contents: &str,
) -> Result<(), BenchError> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| BenchError::io(dir, &e))?;
        }
    }
    ccsvm_snap::write_file(path, contents.as_bytes()).map_err(BenchError::from)
}

/// Table sink for figure binaries: every [`Out::line`] goes to stdout
/// immediately (so interactive runs look unchanged) *and* into a buffer
/// that [`Out::finish`] writes atomically to the binary's results file.
pub struct Out {
    path: Option<PathBuf>,
    buf: String,
}

impl Out {
    /// A sink writing to `opts.out` if given, else to `default_path`
    /// (pass `None` to keep a binary stdout-only by default).
    pub fn new(opts: &Opts, default_path: Option<&str>) -> Out {
        Out {
            path: opts.out.clone().or_else(|| default_path.map(PathBuf::from)),
            buf: String::new(),
        }
    }

    /// Prints a table line and records it for the results artifact.
    pub fn line(&mut self, text: impl AsRef<str>) {
        let text = text.as_ref();
        println!("{text}");
        self.buf.push_str(text);
        self.buf.push('\n');
    }

    /// Prints the standard table header (title, column names, rule) into
    /// this sink.
    pub fn header(&mut self, title: &str, columns: &[&str]) {
        self.line(format!("== {title}"));
        self.line(columns.join(" | "));
        self.line("-".repeat(columns.iter().map(|c| c.len() + 3).sum::<usize>()));
    }

    /// Atomically writes the captured table to the results file, if any.
    ///
    /// # Errors
    ///
    /// [`BenchError::Io`] when the artifact cannot be written.
    pub fn finish(&self) -> Result<(), BenchError> {
        if let Some(path) = &self.path {
            write_results_atomic(path, &self.buf)?;
            println!("wrote {}", path.display());
        }
        Ok(())
    }
}

/// Checks a simulated result against its oracle, as a typed error rather
/// than an `assert_eq!` panic.
///
/// # Errors
///
/// [`BenchError::Run`] naming `what` when the values differ.
pub fn check_eq(actual: u64, expect: u64, what: impl std::fmt::Display) -> Result<(), BenchError> {
    if actual == expect {
        Ok(())
    } else {
        Err(BenchError::Run(format!(
            "{what}: got {actual}, expected {expect}"
        )))
    }
}

/// Parsed common CLI options.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Reduced sweep for smoke testing.
    pub quick: bool,
    /// Optional size override.
    pub sizes: Option<Vec<u64>>,
    /// Worker threads for the sweep driver (`--threads N`, default 1).
    pub threads: usize,
    /// Simulated time at which to checkpoint each point (`--checkpoint-at`).
    pub checkpoint_at: Option<Time>,
    /// Directory of snapshot images to warm-start from (`--restore-from`).
    pub restore_from: Option<PathBuf>,
    /// Results-file override (`--out FILE`); binaries with a default results
    /// path still write it when this is unset.
    pub out: Option<PathBuf>,
    /// Decoded-superblock fast-path ablation (`--no-sb-cache` clears it).
    /// Pure host-perf knob: simulated tables are bit-identical either way
    /// (DESIGN §11).
    pub sb_cache: bool,
    /// Coherence protocol for every simulated point (`--protocol`, default
    /// directory). Unlike the host-perf knobs this changes the simulated
    /// machine, so tables differ per protocol (DESIGN §13).
    pub protocol: ProtocolKind,
    /// Event-trace capacity per simulated point (`--trace-events N`,
    /// default 0 = off); see [`print_trace`].
    pub trace_events: usize,
}

/// Prints the shared usage message and exits with status 2 (CLI misuse).
fn usage_exit(binary: &str, error: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!(
        "usage: {binary} [--quick] [--sizes a,b,c] [--threads N]\n\
         \x20                [--checkpoint-at NS] [--restore-from DIR]\n\
         \n\
         \x20 --quick           reduced sweep for smoke runs\n\
         \x20 --sizes LIST      comma-separated sweep sizes (positive integers)\n\
         \x20 --threads N       run sweep points on N worker threads (default 1)\n\
         \x20 --checkpoint-at NS  pause each point at simulated time NS ns,\n\
         \x20                   write {SNAP_DIR}/<label>.ccsnap, then continue\n\
         \x20                   (table output is unchanged)\n\
         \x20 --restore-from DIR  warm-start each point from DIR/<label>.ccsnap\n\
         \x20                   when present (cold boot otherwise); restored\n\
         \x20                   runs are bit-identical, only wall-time drops\n\
         \x20 --out FILE        also write the table to FILE (atomic\n\
         \x20                   temp-file + rename; overrides the binary's\n\
         \x20                   default results path)\n\
         \x20 --no-sb-cache     disable the decoded-superblock fast path on CCSVM\n\
         \x20                   cores (host-perf ablation; simulated tables\n\
         \x20                   are bit-identical either way)\n\
         \x20 --protocol NAME   coherence protocol: directory (default),\n\
         \x20                   mesi-snoop, or dragon; changes the simulated\n\
         \x20                   machine, so tables differ per protocol\n\
         \x20 --trace-events N  print each point's last N simulated events to\n\
         \x20                   stderr (default 0 = off; tables are unchanged)"
    );
    std::process::exit(2);
}

/// The value of `flag`, an integer of at least `min`; exits with the usage
/// message otherwise.
fn count_arg(binary: &str, flag: &str, value: Option<String>, min: usize) -> usize {
    let Some(v) = value else {
        usage_exit(binary, &format!("{flag} needs a value"));
    };
    match v.trim().parse::<usize>() {
        Ok(n) if n >= min => n,
        _ => usage_exit(
            binary,
            &format!("bad {flag} `{v}` (want an integer >= {min})"),
        ),
    }
}

impl Opts {
    /// Parses `std::env::args`. On malformed or unknown arguments it prints
    /// a usage message to stderr and exits with a nonzero status instead of
    /// panicking.
    pub fn parse() -> Opts {
        // Every figure binary parses options first, so this is the one
        // choke point to arm SIGINT/SIGTERM handling: long sweeps stop at
        // the next checkpoint boundary instead of dying mid-run.
        ccsvm_sweepd::sig::install_shutdown_handler();
        let binary = std::env::args()
            .next()
            .unwrap_or_else(|| "bench".to_string());
        let mut quick = false;
        let mut sizes = None;
        let mut threads = 1usize;
        let mut checkpoint_at = None;
        let mut restore_from = None;
        let mut out = None;
        let mut sb_cache = true;
        let mut protocol = ProtocolKind::Directory;
        let mut trace_events = 0usize;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => quick = true,
                "--no-sb-cache" => sb_cache = false,
                "--sizes" => {
                    let Some(list) = args.next() else {
                        usage_exit(&binary, "--sizes needs a value");
                    };
                    let mut parsed = Vec::new();
                    for s in list.split(',') {
                        match s.trim().parse::<u64>() {
                            Ok(v) if v > 0 => parsed.push(v),
                            _ => usage_exit(
                                &binary,
                                &format!("bad size `{s}` in --sizes (want positive integers)"),
                            ),
                        }
                    }
                    if parsed.is_empty() {
                        usage_exit(&binary, "--sizes list is empty");
                    }
                    sizes = Some(parsed);
                }
                "--threads" => threads = count_arg(&binary, &a, args.next(), 1),
                "--trace-events" => trace_events = count_arg(&binary, &a, args.next(), 0),
                "--checkpoint-at" => {
                    let Some(v) = args.next() else {
                        usage_exit(&binary, "--checkpoint-at needs a value (simulated ns)");
                    };
                    match v.trim().parse::<u64>() {
                        Ok(ns) if ns > 0 => checkpoint_at = Some(Time::from_ns(ns)),
                        _ => usage_exit(
                            &binary,
                            &format!("bad checkpoint time `{v}` (want positive nanoseconds)"),
                        ),
                    }
                }
                "--restore-from" => {
                    let Some(v) = args.next() else {
                        usage_exit(&binary, "--restore-from needs a directory");
                    };
                    restore_from = Some(PathBuf::from(v));
                }
                "--out" => {
                    let Some(v) = args.next() else {
                        usage_exit(&binary, "--out needs a file path");
                    };
                    out = Some(PathBuf::from(v));
                }
                "--protocol" => {
                    let Some(v) = args.next() else {
                        usage_exit(&binary, "--protocol needs a value");
                    };
                    match ProtocolKind::parse(v.trim()) {
                        Some(p) => protocol = p,
                        None => usage_exit(
                            &binary,
                            &format!(
                                "unknown protocol `{v}` (want directory, mesi-snoop, or dragon)"
                            ),
                        ),
                    }
                }
                other => usage_exit(&binary, &format!("unknown argument `{other}`")),
            }
        }
        Opts {
            quick,
            sizes,
            threads,
            checkpoint_at,
            restore_from,
            out,
            sb_cache,
            protocol,
            trace_events,
        }
    }

    /// [`bench_cfg`] with this run's machine knobs applied: `--no-sb-cache`,
    /// `--protocol` and `--trace-events`.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = bench_cfg(1);
        cfg.sb_cache = self.sb_cache;
        cfg.protocol = self.protocol;
        cfg.trace_events = self.trace_events;
        cfg
    }

    /// The sweep to use: override > quick > full.
    pub fn pick(&self, full: &[u64], quick: &[u64]) -> Vec<u64> {
        match &self.sizes {
            Some(s) => s.clone(),
            None if self.quick => quick.to_vec(),
            None => full.to_vec(),
        }
    }
}

/// Runs `f(0..n)` across `threads` worker threads and returns the results
/// **in input order**.
///
/// Each sweep point gets its own independent `Machine`, so points are
/// embarrassingly parallel; indices are claimed dynamically (an atomic
/// counter) for load balance. With `threads == 1` the closure runs inline on
/// the caller's thread. Because each point is deterministic and results are
/// reassembled by index, the caller's printed table is byte-identical
/// regardless of the thread count.
pub fn sweep<R: Send>(n: usize, threads: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    assert!(threads >= 1, "need at least one sweep thread");
    if threads == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                *slots[i].lock().expect("sweep result slot") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("sweep result slot")
                .expect("sweep point computed")
        })
        .collect()
}

/// The standard benchmark configuration (paper defaults, 60 s cap).
///
/// The argument is ignored: it was the host-thread count of the deleted
/// zone executor, and stays only because the benchmark's workload table
/// still passes one. Removed with the ledger's `matmul_epochs`.
pub fn bench_cfg(_sim_threads: usize) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.max_sim_time = Time::from_ms(60_000);
    cfg
}

/// Extracts the (measured region, DRAM accesses, exit code) triple a figure
/// binary tabulates from a finished run.
pub fn region_numbers(r: &RunReport) -> (Time, u64, u64) {
    let t = wl::region_time(&r.printed, &r.printed_at, r.time);
    let d = wl::region_dram(&r.printed, &r.dram_at_print, r.dram_accesses);
    (t, d, r.exit_code)
}

/// Runs an xthreads program on the CCSVM chip under the standard benchmark
/// configuration and returns (measured region, DRAM accesses, exit code),
/// honouring the harness's `--checkpoint-at` / `--restore-from` options.
/// `label` names this sweep point's snapshot image, `<dir>/<label>.ccsnap`;
/// the simulated results are identical to a cold run in every mode
/// (checkpointing continues the run, restoring replays it bit-for-bit), so
/// tables never change — only wall-time does.
pub fn run_ccsvm_point(src: &str, opts: &Opts, label: &str) -> (Time, u64, u64) {
    let cfg = opts.config();
    if let Some(dir) = &opts.restore_from {
        let path = dir.join(format!("{label}.ccsnap"));
        if path.exists() {
            match Machine::restore(cfg.clone(), wl::build(src), &path) {
                Ok(mut m) => return region_numbers(&run_to_exit(&mut m, label)),
                Err(e) => eprintln!(
                    "warning: {}: {e}; cold-booting `{label}` instead",
                    path.display()
                ),
            }
        }
    }
    let mut m = Machine::new(cfg, wl::build(src));
    let report = match opts.checkpoint_at {
        Some(at) => match m.run_until(at) {
            // The point finished before the checkpoint cycle: nothing to save.
            Some(r) => {
                print_trace(&m, label);
                r
            }
            None => {
                if let Err(e) = std::fs::create_dir_all(SNAP_DIR) {
                    eprintln!("warning: cannot create {SNAP_DIR}/: {e}");
                } else {
                    let path = std::path::Path::new(SNAP_DIR).join(format!("{label}.ccsnap"));
                    if let Err(e) = m.checkpoint(&path) {
                        eprintln!("warning: checkpoint {}: {e}", path.display());
                    }
                }
                run_to_exit(&mut m, label)
            }
        },
        None => run_to_exit(&mut m, label),
    };
    region_numbers(&report)
}

/// Prints `m`'s event trace to stderr as one block headed `label`, when the
/// machine records one (`--trace-events N`).
pub fn print_trace(m: &Machine, label: &str) {
    if m.config().trace_events > 0 {
        eprintln!("== {label} {}", m.trace());
    }
}

/// Runs a machine to completion, polling for SIGINT/SIGTERM every 1 ms of
/// simulated time, then prints its trace ([`print_trace`]). On
/// interruption the machine's state is flushed to
/// `snapshots/<label>.interrupted.ccsnap` — resumable via `--restore-from`
/// after renaming — and the process exits with [`EXIT_INTERRUPTED`].
/// Uninterrupted, the report is bit-identical to `Machine::run` (pausing
/// never perturbs the simulation).
pub fn run_to_exit(m: &mut Machine, label: &str) -> RunReport {
    use ccsvm_sweepd::sig;
    match m.run_with_cadence(Time::from_ms(1), |_| !sig::shutdown_requested()) {
        Some(report) => {
            print_trace(m, label);
            report
        }
        None => {
            let path = std::path::Path::new(SNAP_DIR).join(format!("{label}.interrupted.ccsnap"));
            let flushed = std::fs::create_dir_all(SNAP_DIR)
                .map_err(|e| ccsvm::SnapError::Io(e.to_string()))
                .and_then(|()| m.checkpoint(&path));
            match flushed {
                Ok(()) => eprintln!(
                    "interrupted at {}; state flushed to {}",
                    m.now(),
                    path.display()
                ),
                Err(e) => eprintln!("interrupted at {}; checkpoint failed: {e}", m.now()),
            }
            std::process::exit(EXIT_INTERRUPTED);
        }
    }
}

/// Formats a time as milliseconds with 3 significant decimals.
pub fn ms(t: Time) -> String {
    format!("{:10.4}", t.as_ms())
}

/// Formats a runtime relative to a baseline (paper figures plot
/// log-scale "runtime relative to the AMD CPU core").
pub fn rel(t: Time, base: Time) -> String {
    format!("{:8.3}", t.as_ps() as f64 / base.as_ps() as f64)
}

/// Asserts a qualitative claim, printing rather than panicking so a full
/// sweep always completes; the harness exits nonzero at the end if any
/// claim failed.
pub struct Claims {
    failures: Vec<String>,
}

impl Claims {
    /// Empty set.
    pub fn new() -> Claims {
        Claims {
            failures: Vec::new(),
        }
    }

    /// Records a claim.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            println!("  !! claim failed: {what}");
            self.failures.push(what.to_string());
        }
    }

    /// Prints a summary and exits nonzero on failures.
    pub fn finish(self, figure: &str) {
        if self.failures.is_empty() {
            println!("[{figure}] all qualitative claims hold");
        } else {
            println!("[{figure}] {} claim(s) FAILED", self.failures.len());
            std::process::exit(1);
        }
    }
}

impl Default for Claims {
    fn default() -> Self {
        Claims::new()
    }
}
