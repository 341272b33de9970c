//! Shared harness for the binaries that regenerate the paper's tables and
//! figures.
//!
//! Host speed is measured in one place, the `benchmark` binary and its
//! committed ledger (`src/bin/benchmark/README.md`); the table and figure
//! binaries measure the simulated machine, one way:
//!
//! * [`Opts::parse`] takes the flags a binary honours (from [`FLAGS`]) and
//!   refuses any other argument with the usage text and exit status 2;
//! * a binary lists its simulated points up front as [`Job`]s and runs them
//!   all in one [`run_jobs`] call: each is one cold run through
//!   [`ccsvm_sweepd::run_point`], on `--threads N` host threads, returned in
//!   input order so the table is the same at any thread count;
//! * tables print through [`Out`], which writes a results file only when
//!   `--out FILE` is given, so a `--quick`, `--sizes` or `--protocol` run
//!   never overwrites a committed `results/` file.
//!
//! Output is a fixed-width table whose rows mirror the corresponding figure
//! in the paper; EXPERIMENTS.md records a captured run next to the paper's
//! reported shape. A grid that should resume after being stopped runs under
//! `sweepd` instead, which caches every finished point (DESIGN §10).

#![forbid(unsafe_code)]

pub mod apu;

use std::path::{Path, PathBuf};

use ccsvm::{ProtocolKind, RunReport, SystemConfig};
use ccsvm_engine::Time;
use ccsvm_workloads as wl;

use crate::apu::ApuConfig;

/// Typed failure in a bench binary. Every binary's `main` is a thin wrapper
/// around a `Result<(), BenchError>` body handed to [`exit_with`]: CLI
/// misuse exits 2, operational failures (I/O, bundle or report decode, a
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
    /// A replay-bundle, pause-image or report decode failed.
    Snap(ccsvm::SnapError),
    /// A simulated run misbehaved (wrong answer, abnormal outcome, a guest
    /// program that failed to compile), or a qualitative claim failed.
    Run(String),
    /// Command-line misuse.
    Cli(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Io { path, err } => write!(f, "{}: {err}", path.display()),
            BenchError::Snap(e) => write!(f, "decode: {e}"),
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

/// Table sink for the table and figure binaries: every [`Out::line`] goes
/// to stdout immediately *and* into a buffer that [`Out::finish`] writes
/// atomically to `--out FILE`, when one was given.
pub struct Out {
    path: Option<PathBuf>,
    buf: String,
}

impl Out {
    /// A sink that writes to `opts.out` if given and to stdout only
    /// otherwise.
    pub fn new(opts: &Opts) -> Out {
        Out {
            path: opts.out.clone(),
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

    /// Writes the captured table to the results file, if any, creating its
    /// directory as needed. The write is atomic (same-directory temp file,
    /// fsync, rename), so a crash leaves the old artifact or none, never a
    /// torn one.
    ///
    /// # Errors
    ///
    /// [`BenchError::Io`] or [`BenchError::Snap`] when the artifact cannot
    /// be written.
    pub fn finish(&self) -> Result<(), BenchError> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| BenchError::Io {
                path: dir.into(),
                err: e.to_string(),
            })?;
        }
        ccsvm_snap::write_file(path, self.buf.as_bytes())?;
        println!("wrote {}", path.display());
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

/// Parses a comma-separated `flag` value element by element, trimming each.
///
/// # Errors
///
/// The problem text, naming `flag` and the first element `parse` refuses.
pub fn parse_list<T>(
    flag: &str,
    raw: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    raw.split(',')
        .map(|s| {
            let s = s.trim();
            parse(s).ok_or_else(|| format!("{flag}: bad element {s:?}"))
        })
        .collect()
}

/// Every flag [`Opts::parse`] knows, with its value and its help line.
pub const FLAGS: &[(&str, &str)] = &[
    ("--quick", "reduced sweep for smoke runs"),
    (
        "--sizes LIST",
        "comma-separated sweep sizes (positive integers)",
    ),
    (
        "--threads N",
        "simulate sweep points on N host threads (default 1; same table)",
    ),
    (
        "--out FILE",
        "write the table to FILE (atomically); without it nothing is written",
    ),
    (
        "--no-sb-cache",
        "disable the decoded-superblock fast path on CCSVM points (same table)",
    ),
    (
        "--protocol NAME",
        "directory (default), mesi-snoop or dragon; changes the simulated machine",
    ),
    (
        "--trace-events N",
        "print each point's last N simulated events to stderr (default 0 = off)",
    ),
];

/// The flags of a figure binary: every flag in [`FLAGS`].
pub const FIGURE_FLAGS: &[&str] = &[
    "--quick",
    "--sizes",
    "--threads",
    "--out",
    "--no-sb-cache",
    "--protocol",
    "--trace-events",
];

/// Parsed command-line options of a table or figure binary.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Reduced sweep for smoke testing.
    pub quick: bool,
    /// Optional size override.
    pub sizes: Option<Vec<u64>>,
    /// Worker threads for the sweep driver (`--threads N`, default 1).
    pub threads: usize,
    /// Results file (`--out FILE`); nothing is written without it.
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
    /// default 0 = off); see [`ccsvm_sweepd::run_point`].
    pub trace_events: usize,
}

impl Opts {
    /// Parses `std::env::args` against `accepted`, the flag names (from
    /// [`FLAGS`], without their values) this binary honours.
    ///
    /// # Errors
    ///
    /// [`BenchError::Cli`], carrying the binary's usage text, for any
    /// other argument, a missing value or a malformed one.
    pub fn parse(accepted: &[&str]) -> Result<Opts, BenchError> {
        let mut args = std::env::args();
        let binary = args.next().unwrap_or_default();
        let binary = Path::new(&binary).file_name().unwrap_or_default();
        let usage = |problem: String| {
            let flags = FLAGS
                .iter()
                .filter(|(f, _)| accepted.iter().any(|a| f.split(' ').next() == Some(*a)));
            let synopsis: String = flags.clone().map(|(f, _)| format!(" [{f}]")).collect();
            let help: String = flags.map(|(f, h)| format!("\n  {f:18}{h}")).collect();
            BenchError::Cli(format!(
                "{}{synopsis}: {problem}{help}",
                binary.to_string_lossy()
            ))
        };
        let mut opts = Opts {
            quick: false,
            sizes: None,
            threads: 1,
            out: None,
            sb_cache: true,
            protocol: ProtocolKind::Directory,
            trace_events: 0,
        };
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .ok_or_else(|| usage(format!("{flag} needs a value")))
            };
            let count =
                |v: String, min: usize| {
                    v.trim().parse().ok().filter(|&n| n >= min).ok_or_else(|| {
                        usage(format!("bad {flag} `{v}` (want an integer >= {min})"))
                    })
                };
            let known = if accepted.contains(&flag.as_str()) {
                flag.as_str()
            } else {
                ""
            };
            match known {
                "--quick" => opts.quick = true,
                "--no-sb-cache" => opts.sb_cache = false,
                "--sizes" => {
                    let list = value()?;
                    let sizes = list
                        .split(',')
                        .map(|s| s.trim().parse().ok().filter(|&v| v > 0))
                        .collect::<Option<Vec<u64>>>();
                    opts.sizes = Some(sizes.ok_or_else(|| {
                        usage(format!("bad --sizes `{list}` (want positive integers)"))
                    })?);
                }
                "--threads" => opts.threads = count(value()?, 1)?,
                "--trace-events" => opts.trace_events = count(value()?, 0)?,
                "--out" => opts.out = Some(value()?.into()),
                "--protocol" => {
                    let v = value()?;
                    opts.protocol = ProtocolKind::parse(v.trim()).ok_or_else(|| {
                        usage(format!(
                            "unknown protocol `{v}` (want directory, mesi-snoop or dragon)"
                        ))
                    })?;
                }
                _ => return Err(usage(format!("unknown argument `{flag}`"))),
            }
        }
        Ok(opts)
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

    /// The three points of one size of an APU comparison (Figs. 5, 6 and
    /// 9), in this order: `cpu` on the APU's CPU chip, `kernel` on its GPU
    /// chip, and `kernel` on this run's CCSVM chip ([`Opts::config`]).
    pub fn apu_jobs(&self, apu: &ApuConfig, label: &str, cpu: String, kernel: String) -> [Job; 3] {
        [
            (format!("{label}-cpu"), apu.cpu_chip.clone(), cpu),
            (format!("{label}-apu"), apu.gpu_chip.clone(), kernel.clone()),
            (label.into(), self.config(), kernel),
        ]
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

/// One simulated point: its label (which heads its `--trace-events` block),
/// the machine it runs on, and the XC source it runs.
pub type Job = (String, SystemConfig, String);

/// Runs every job through [`ccsvm_sweepd::run_point`] on `threads` host
/// threads and returns the reports in input order.
///
/// # Errors
///
/// [`BenchError::Run`] for the first job, in input order, whose source did
/// not compile or whose simulator panicked.
pub fn run_jobs(jobs: &[Job], threads: usize) -> Result<Vec<RunReport>, BenchError> {
    ccsvm_sweepd::sweep(jobs.len(), threads, |i| {
        let (label, cfg, source) = &jobs[i];
        match ccsvm_sweepd::run_point(label, cfg, source) {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(panic)) => Err(BenchError::Run(format!("{label}: panicked: {panic}"))),
            Err(e) => Err(BenchError::Run(format!("{label}: {e}"))),
        }
    })
    .into_iter()
    .collect()
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
#[derive(Default)]
pub struct Claims {
    failures: Vec<String>,
}

impl Claims {
    /// Empty set.
    pub fn new() -> Claims {
        Claims::default()
    }

    /// Records a claim.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            println!("  !! claim failed: {what}");
            self.failures.push(what.to_string());
        }
    }

    /// Prints a summary line.
    ///
    /// # Errors
    ///
    /// [`BenchError::Run`] when any claim failed, so the binary exits 1.
    pub fn finish(self, figure: &str) -> Result<(), BenchError> {
        if self.failures.is_empty() {
            println!("[{figure}] all qualitative claims hold");
            Ok(())
        } else {
            println!("[{figure}] {} claim(s) FAILED", self.failures.len());
            Err(BenchError::Run(format!(
                "{figure}: {} qualitative claim(s) failed",
                self.failures.len()
            )))
        }
    }
}

/// The APU model's unit tests.
#[cfg(test)]
mod tests {
    use crate::apu::ApuConfig;
    use ccsvm_engine::Time;

    #[test]
    fn paper_scaled_is_consistent() {
        let c = ApuConfig::paper_scaled();
        assert_eq!(c.cpu_chip.cpu.cycles_per_instr_den, 4, "max IPC 4");
        assert_eq!(c.gpu_chip.mttop.vliw_ops_per_lane, 4, "VLIW 4");
        assert_eq!(c.cpu_chip.dram.latency, Time::from_ns(72));
        assert!(c.compile_time > c.launch_overhead);
    }

    #[test]
    fn dma_time_scales_with_bytes() {
        let cfg = ApuConfig::paper_scaled();
        assert!(cfg.dma_transfer(1 << 20) > cfg.dma_transfer(64));
        assert_eq!(cfg.dma_transfer(0), Time::ZERO);
    }
}
