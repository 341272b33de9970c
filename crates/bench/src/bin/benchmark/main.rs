//! The ccsvm perf ledger: one command measures one workload.
//!
//! ```text
//! benchmark --workload NAME [--seed S] [--trace 0|1] [--seconds T | --reps N] [--trace-out PATH]
//! benchmark [--seed S] [--seconds T | --reps N] [--out PATH]     all eight, in child processes
//! benchmark --selfcheck [--seed S] [--seconds T | --reps N]      two sets, compared to the bounds
//! ```
//!
//! Output: `#` comment lines, then every metric as `name value unit`, then
//! one JSON object on the last line. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` is a separate run that gives the
//! per-layer metrics and writes its spans as Chrome-trace JSON. README.md in
//! this directory is the glossary and the recorded ledger.

mod json;
mod layers;
mod ledger;
mod metrics;
mod probes;
mod run;
mod spans;
mod summary;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use metrics::{Better, END_TO_END, PER_LAYER};
use run::{Budget, Measured, MIN_REPS};
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage: benchmark --workload NAME [--seed S] [--trace 0|1] [--seconds T | --reps N] [--trace-out PATH]
       benchmark [--seed S] [--seconds T | --reps N] [--out PATH]
       benchmark --selfcheck [--seed S] [--seconds T | --reps N]

  --workload NAME   one of: matmul_mttop matmul_cpu matmul_snoop matmul_dragon
                    matmul_epochs vecadd_stream bh_pointer apsp_barrier;
                    without it, all eight run in child processes
  --seed S          feeds the workload's *Params only (default 42)
  --trace 0|1       0: end-to-end metrics, tracing off (default)
                    1: per-layer metrics from a separate traced run
  --seconds T       rep window in whole seconds (default 10, floor 8 reps)
  --reps N          exactly N timed reps, for smoke runs
  --trace-out PATH  where --trace 1 writes its spans
                    (default <target dir>/benchmark/<workload>-seed<S>.trace.json)
  --out PATH        where the all-workloads run writes its combined JSON
                    (default <target dir>/benchmark/ledger-seed<S>.json)
  --selfcheck       run the whole set twice; exit nonzero if an end-to-end
                    metric differs by more than its bound or a sim_* differs
  --no-ledger-check do not hold sim_* to ledger/seed42.json and seed7.json:
                    for re-recording them after a change to the modelled machine";

#[derive(Debug)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    trace: bool,
    budget: Budget,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    selfcheck: bool,
    ledger_check: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 42,
        trace: false,
        budget: Budget::Window(Duration::from_secs(metrics::RUN_SECONDS)),
        trace_out: None,
        out: None,
        selfcheck: false,
        ledger_check: true,
    };
    let mut args = args;
    while let Some(a) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => o.workload = Some(value("a workload name")?),
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative whole number".to_string())?;
            }
            "--trace" => {
                o.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                }
            }
            "--seconds" => match value("whole seconds")?.parse::<u64>() {
                Ok(s) if (1..=3600).contains(&s) => {
                    o.budget = Budget::Window(Duration::from_secs(s))
                }
                _ => return Err("--seconds needs a whole number from 1 to 3600".to_string()),
            },
            "--reps" => match value("a rep count")?.parse::<u32>() {
                Ok(n) if n > 0 => o.budget = Budget::Reps(n),
                _ => return Err("--reps needs a positive whole number".to_string()),
            },
            "--trace-out" => o.trace_out = Some(PathBuf::from(value("a path")?)),
            "--out" => o.out = Some(PathBuf::from(value("a path")?)),
            "--selfcheck" => o.selfcheck = true,
            "--no-ledger-check" => o.ledger_check = false,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &o.workload {
        if workloads::find(name).is_none() {
            return Err(format!("unknown workload `{name}`"));
        }
        if o.selfcheck || o.out.is_some() {
            return Err("--selfcheck and --out run every workload; drop --workload".to_string());
        }
    }
    Ok(o)
}

/// Where run products go: under the build's target directory, which the
/// repository's `.gitignore` covers.
fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("benchmark")
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn budget_text(b: Budget) -> String {
    match b {
        Budget::Window(w) => format!("window {} s (floor {MIN_REPS} reps)", w.as_secs()),
        Budget::Reps(n) => format!("exactly {n} reps"),
    }
}

fn budget_args(b: Budget) -> [String; 2] {
    match b {
        Budget::Window(w) => ["--seconds".to_string(), w.as_secs().to_string()],
        Budget::Reps(n) => ["--reps".to_string(), n.to_string()],
    }
}

/// Measures one workload in this process and prints the result.
fn run_one(w: &Workload, o: &Opts) -> Result<bool, String> {
    let measured = if o.trace {
        let default = out_dir().join(format!("{}-seed{}.trace.json", w.name, o.seed));
        layers::traced(
            w,
            o.seed,
            o.budget,
            o.trace_out.as_ref().unwrap_or(&default),
        )?
    } else {
        run::end_to_end(w, o.seed, o.budget, o.ledger_check)?
    };
    let table: Vec<(&str, &str)> = if o.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    if !measured
        .values
        .iter()
        .map(|(n, _)| *n)
        .eq(table.iter().map(|(n, _)| *n))
    {
        return Err("internal: measured metrics are not the metric table".to_string());
    }
    print_result(w, o, &measured, &table);
    Ok(measured.failed == 0)
}

/// One entry of a `metrics` object; `value` is the number as printed.
fn metric_field(name: &str, value: &str, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {value}, \"unit\": {}}}",
        json::string(name),
        json::string(unit)
    )
}

fn print_result(w: &Workload, o: &Opts, m: &Measured, table: &[(&str, &str)]) {
    println!(
        "# benchmark {}: host_cpus {}, sim_threads {}, protocol {}, seed {}, {}, {} machine runs, \
         build release, trace {}; closed loop, one client, one process; each rep is a cold boot: \
         modelled caches start empty; model unvalidated against hardware",
        w.name,
        host_cpus(),
        w.sim_threads,
        w.protocol.as_str(),
        o.seed,
        budget_text(o.budget),
        m.attempted,
        u8::from(o.trace),
    );
    println!("# why {}: {}", w.name, w.why);
    for note in &m.notes {
        println!("{note}");
    }
    println!("runs_attempted {} count", m.attempted);
    println!("runs_failed {} count", m.failed);
    let mut fields = Vec::with_capacity(m.values.len());
    for ((name, value), (_, unit)) in m.values.iter().zip(table) {
        let value = json::number(*value);
        println!("{name} {value} {unit}");
        fields.push(metric_field(name, &value, unit));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.failed == 0,
        m.attempted,
        m.failed,
        fields.join(", ")
    );
}

/// One child's `name value unit` lines, values kept as printed so that
/// simulated numbers compare digit for digit.
#[derive(Clone, Debug, Default, PartialEq)]
struct ChildResult {
    lines: Vec<(String, String, String)>,
}

impl ChildResult {
    fn parse(stdout: &str) -> ChildResult {
        let lines = stdout
            .lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with('{'))
            .filter_map(|l| {
                let mut f = l.split_whitespace();
                match (f.next(), f.next(), f.next(), f.next()) {
                    (Some(n), Some(v), Some(u), None) if v.parse::<f64>().is_ok() => {
                        Some((n.to_string(), v.to_string(), u.to_string()))
                    }
                    _ => None,
                }
            })
            .collect();
        ChildResult { lines }
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.lines
            .iter()
            .find(|(n, ..)| n == name)
            .map(|(_, v, _)| v.as_str())
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.text(name).and_then(|v| v.parse().ok())
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .lines
            .iter()
            .map(|(n, v, u)| metric_field(n, v, u))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Runs one workload in a child process and waits for it.
fn run_child(w: &Workload, o: &Opts, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &o.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(budget_args(o.budget))
        .args((!o.ledger_check).then_some("--no-ledger-check"))
        .output()
        .map_err(|e| format!("cannot start a child for {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}:\n{stdout}{}",
            w.name,
            u8::from(trace),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(ChildResult::parse(&stdout))
}

/// One untraced result per workload, in table order.
fn run_set(o: &Opts, label: &str) -> Result<Vec<ChildResult>, String> {
    WORKLOADS
        .iter()
        .map(|w| {
            let r = run_child(w, o, false)?;
            println!(
                "# {label} {:<14} run_wall_ms {} setup_s {}",
                w.name,
                r.text("run_wall_ms").unwrap_or("?"),
                r.text("setup_s").unwrap_or("?"),
            );
            Ok(r)
        })
        .collect()
}

/// `matmul_epochs` runs `matmul_mttop`'s program on another executor, so
/// every simulated number of the two must agree. Returns the ones that do not.
fn epochs_mismatches(set: &[ChildResult]) -> Vec<String> {
    let at = |name: &str| {
        WORKLOADS
            .iter()
            .position(|w| w.name == name)
            .expect("workload exists")
    };
    let (serial, epochs) = (&set[at("matmul_mttop")], &set[at("matmul_epochs")]);
    END_TO_END
        .iter()
        .filter(|m| metrics::is_simulated(m.name) && serial.text(m.name) != epochs.text(m.name))
        .map(|m| {
            format!(
                "{}: matmul_mttop {:?}, matmul_epochs {:?}",
                m.name,
                serial.text(m.name),
                epochs.text(m.name)
            )
        })
        .collect()
}

/// All eight workloads, untraced then traced, combined into one JSON file.
fn run_all(o: &Opts) -> Result<bool, String> {
    println!(
        "# benchmark, all workloads: host_cpus {}, seed {}, {}, build release; each in a child process, \
         one at a time; modelled caches start empty; model unvalidated against hardware",
        host_cpus(),
        o.seed,
        budget_text(o.budget)
    );
    let untraced = run_set(o, "trace 0")?;
    let traced: Vec<ChildResult> = WORKLOADS
        .iter()
        .map(|w| {
            let r = run_child(w, o, true)?;
            println!(
                "# trace 1 {:<14} core.unattributed_share {} core.profile_overhead_share {}",
                w.name,
                r.text("core.unattributed_share").unwrap_or("?"),
                r.text("core.profile_overhead_share").unwrap_or("?"),
            );
            Ok(r)
        })
        .collect::<Result<_, String>>()?;
    let mismatches = epochs_mismatches(&untraced);
    for m in &mismatches {
        println!("# FAILED matmul_epochs differs from matmul_mttop on {m}");
    }

    let rows: Vec<String> = WORKLOADS
        .iter()
        .zip(untraced.iter().zip(&traced))
        .map(|(w, (e, l))| {
            format!(
                "    {{\"name\": {}, \"protocol\": {}, \"sim_threads\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
                json::string(w.name),
                json::string(w.protocol.as_str()),
                w.sim_threads,
                e.json(),
                l.json()
            )
        })
        .collect();
    let text = format!(
        "{{\n  \"schema\": \"ccsvm-benchmark-ledger-v1\",\n  \"host_cpus\": {},\n  \"seed\": {},\n  \
         \"budget\": {},\n  \"build\": \"release\",\n  \
         \"note\": \"modelled caches start empty; model unvalidated against hardware\",\n  \
         \"epochs_equal_serial\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        host_cpus(),
        o.seed,
        json::string(&budget_text(o.budget)),
        mismatches.is_empty(),
        rows.join(",\n")
    );
    let default = out_dir().join(format!("ledger-seed{}.json", o.seed));
    let path = o.out.as_ref().unwrap_or(&default);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(mismatches.is_empty())
}

/// How much worse `second` is than `first`, as a share of `first`; negative
/// when it is better.
fn worsening(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Two sets of runs of the same code must agree within the benchmark's own
/// bounds, and exactly on everything simulated.
fn selfcheck(o: &Opts) -> Result<bool, String> {
    println!(
        "# selfcheck: two sets of {} workloads, host_cpus {}, seed {}, {}",
        WORKLOADS.len(),
        host_cpus(),
        o.seed,
        budget_text(o.budget)
    );
    let first = run_set(o, "set 1")?;
    let second = run_set(o, "set 2")?;
    let mut ok = true;
    println!("# workload metric set1 set2 worsening bound verdict");
    for (w, (a, b)) in WORKLOADS.iter().zip(first.iter().zip(&second)) {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (a.value(m.name), b.value(m.name)) else {
                return Err(format!("{}: a set did not print {}", w.name, m.name));
            };
            let (worse, verdict) = if metrics::is_simulated(m.name) {
                let same = a.text(m.name) == b.text(m.name);
                (0.0, if same { "identical" } else { "DIFFERS" })
            } else {
                let worse = worsening(x, y, m.better);
                (
                    worse,
                    if worse.abs() <= m.bound {
                        "within"
                    } else {
                        "BEYOND"
                    },
                )
            };
            ok &= verdict == "identical" || verdict == "within";
            println!(
                "{} {} {x} {y} {worse:+.4} {} {verdict}",
                w.name, m.name, m.bound
            );
        }
    }
    for set in [&first, &second] {
        for m in epochs_mismatches(set) {
            ok = false;
            println!("# FAILED matmul_epochs differs from matmul_mttop on {m}");
        }
    }
    println!("# selfcheck {}", if ok { "green" } else { "RED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let o = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("error: this is a debug build; the benchmark measures release builds only");
        return ExitCode::from(2);
    }
    // `CCSVM_DRAM_TRACE` is read on every DRAM access and `CCSVM_TRACE` in
    // every executor: a set variable changes what is measured.
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("CCSVM_"))
    {
        eprintln!(
            "error: {} is set; unset every CCSVM_* variable",
            k.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let outcome = match o.workload.as_deref().and_then(workloads::find) {
        Some(w) => run_one(w, &o),
        None if o.selfcheck => selfcheck(&o),
        None => run_all(&o),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_command_line_parses() {
        let o = parse(&[
            "--workload",
            "bh_pointer",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("bh_pointer"));
        assert_eq!((o.seed, o.trace), (7, true));
        assert_eq!(o.budget, Budget::Window(Duration::from_secs(10)));
        let o = parse(&["--reps", "2"]).unwrap();
        assert_eq!(
            (o.workload, o.budget, o.trace, o.seed),
            (None, Budget::Reps(2), false, 42)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "spmm"][..],
            &["--trace", "2"],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--reps", "0"],
            &["--seed"],
            &["--frobnicate"],
            &["--workload", "bh_pointer", "--selfcheck"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn child_output_reads_back_digit_for_digit() {
        let r = ChildResult::parse(
            "# benchmark x: host_cpus 2, seed 42\n# run_wall_ms over 28 reps\nruns_failed 0 count\n\
             run_wall_ms 346.485211 ms\nsim_time_ticks 668586000 ticks\nnot a metric line at all\n\
             {\"correct\": true}\n",
        );
        assert_eq!(r.lines.len(), 3);
        assert_eq!(r.text("sim_time_ticks"), Some("668586000"));
        assert_eq!(r.value("run_wall_ms"), Some(346.485211));
        assert_eq!(r.text("absent"), None);
        assert_eq!(
            r.json(),
            "{\"runs_failed\": {\"value\": 0, \"unit\": \"count\"}, \
             \"run_wall_ms\": {\"value\": 346.485211, \"unit\": \"ms\"}, \
             \"sim_time_ticks\": {\"value\": 668586000, \"unit\": \"ticks\"}}"
        );
    }

    #[test]
    fn worsening_follows_the_better_direction() {
        assert_eq!(worsening(100.0, 110.0, Better::Lower), 0.10);
        assert_eq!(worsening(100.0, 90.0, Better::Lower), -0.10);
        assert_eq!(worsening(100.0, 90.0, Better::Higher), 0.10);
    }

    #[test]
    fn epochs_must_match_serial_on_every_simulated_metric() {
        let result = |events: &str| ChildResult {
            lines: END_TO_END
                .iter()
                .map(|m| {
                    let v = if m.name == "sim_events" { events } else { "5" };
                    (m.name.to_string(), v.to_string(), m.unit.to_string())
                })
                .collect(),
        };
        let mut set = vec![result("350781"); WORKLOADS.len()];
        assert!(epochs_mismatches(&set).is_empty());
        set[4] = result("350782"); // matmul_epochs
        let bad = epochs_mismatches(&set);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].starts_with("sim_events"), "{bad:?}");
    }

    /// README.md is the glossary: it names every metric and every workload.
    #[test]
    fn readme_names_every_metric_and_workload() {
        let readme = include_str!("README.md");
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name));
        for name in names {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md does not explain `{name}`"
            );
        }
    }

    /// `--trace 1` end to end on the smallest workload: every per-layer
    /// metric comes out, named as in the table, and the span file loads as
    /// the tree the README describes. Each test writes to a path of its own.
    #[test]
    fn traced_run_prints_the_per_layer_table_and_writes_spans() {
        let dir =
            std::env::temp_dir().join(format!("ccsvm-benchmark-{}-traced", std::process::id()));
        let path = dir.join("matmul_cpu.trace.json");
        let w = workloads::find("matmul_cpu").unwrap();
        let m = layers::traced(w, 3, Budget::Reps(1), &path).unwrap();
        let names: Vec<&str> = m.values.iter().map(|(n, _)| *n).collect();
        let table: Vec<&str> = PER_LAYER.iter().map(|l| l.name).collect();
        assert_eq!(names, table);
        assert_eq!(m.failed, 0, "{:?}", m.notes);
        assert!(m.values.iter().all(|(_, v)| v.is_finite()));
        let trace = std::fs::read_to_string(&path).unwrap();
        for span in [
            "bench",
            "setup",
            "workloads.generate",
            "xcc.compile",
            "workloads.oracle",
            "rep",
            "core.machine_new",
            "core.run",
            "core.run_slice",
            "core.machine_drop",
            "snap.checkpoint",
            "snap.restore",
            "probe.mem.system",
        ] {
            assert!(
                trace.contains(&format!("\"name\":\"{span}\"")),
                "no {span} span"
            );
        }
        assert!(
            !path.with_extension("journal-probe").exists(),
            "probe file left behind"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
