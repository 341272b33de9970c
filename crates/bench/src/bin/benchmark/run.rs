//! One workload, end to end: set-up, cold-boot reps for a time window, the
//! check of every rep against the oracle, and the end-to-end metrics.
//! Nothing here records spans; the traced run is `layers.rs`.

use std::time::{Duration, Instant};

use ccsvm::{Machine, Outcome, RunReport, SystemConfig};
use ccsvm_isa::Program;
use ccsvm_workloads as wl;

use crate::ledger;
use crate::summary::{median, min, quartiles, tail_percentile};
use crate::workloads::Workload;

/// How the run is sized: a time window with a floor of reps, or an exact
/// rep count (`--reps`, for CI smoke runs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    Window(Duration),
    Reps(u32),
}

/// Fewest reps a window may end with.
pub const MIN_REPS: u32 = 8;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

impl Budget {
    /// Whether a loop that has made `reps` reps since `start` goes on.
    /// `share` scales the window (the traced run spends half on reps) and
    /// `floor` is the fewest reps it may end with.
    pub fn more(self, reps: u32, start: Instant, share: f64, floor: u32) -> bool {
        match self {
            Budget::Window(w) => reps < floor || start.elapsed() < w.mul_f64(share),
            Budget::Reps(n) => reps < n,
        }
    }
}

/// What one command measured, ready to print.
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values in table order.
    pub values: Vec<(&'static str, f64)>,
    /// Comment lines printed before the metrics.
    pub notes: Vec<String>,
}

/// The simulated side of a run; bit-equal across reps, executors and hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sim {
    pub time_ps: u64,
    pub region_ps: u64,
    pub region_dram: u64,
    pub instructions: u64,
    pub events: u64,
    pub noc_bytes: u64,
}

impl Sim {
    pub fn of(r: &RunReport) -> Sim {
        let (region, region_dram, _) = ccsvm_bench::region_numbers(r);
        Sim {
            time_ps: r.time.as_ps(),
            region_ps: region.as_ps(),
            region_dram,
            instructions: r.instructions,
            events: r.events,
            noc_bytes: r.stats.get("noc.bytes") as u64,
        }
    }
}

/// Why a rep failed, or `None` when it completed with the oracle's exit code
/// and the simulated numbers in `expected` (the first rep's, or the ledger's).
pub fn rep_failure(r: &RunReport, oracle: u64, expected: Option<&Sim>) -> Option<String> {
    if r.outcome != Outcome::Completed {
        return Some(format!("ended {:?}", r.outcome));
    }
    if r.exit_code != oracle {
        return Some(format!(
            "exit code {} is not the oracle's {oracle}",
            r.exit_code
        ));
    }
    match expected {
        Some(e) if *e != Sim::of(r) => Some(format!("simulated {:?}, expected {e:?}", Sim::of(r))),
        _ => None,
    }
}

/// One rep: a cold boot (`Machine::new`, empty modelled caches), the run, and
/// the drop, which is what every sweep point pays. Returns wall milliseconds.
pub fn cold_rep(cfg: &SystemConfig, prog: &Program) -> (f64, RunReport) {
    let t0 = Instant::now();
    let mut m = Machine::new(cfg.clone(), prog.clone());
    let report = m.run();
    drop(m);
    (t0.elapsed().as_secs_f64() * 1e3, report)
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("host_peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Runs `w` with tracing off and returns the end-to-end metrics. With
/// `ledger_check`, the run first replays the recorded seed's inputs and fails
/// unless everything simulated is what the ledger recorded (`ledger.rs`).
pub fn end_to_end(
    w: &Workload,
    seed: u64,
    budget: Budget,
    ledger_check: bool,
) -> Result<Measured, String> {
    let cfg = w.config(false);
    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();

    if ledger_check {
        let prog = wl::build(&w.source(ledger::REPLAY_SEED));
        let (_, replay) = cold_rep(&cfg, &prog);
        attempted += 1;
        let recorded = ledger::recorded(ledger::REPLAY_SEED, w.name);
        failures.extend(
            rep_failure(&replay, w.oracle(ledger::REPLAY_SEED), recorded.as_ref())
                .map(|e| format!("replay of ledger seed {}: {e}", ledger::REPLAY_SEED)),
        );
    }

    // Set-up: generate, compile, oracle, one warm-up rep. Done several times
    // so that `setup_s` is a median; the last one's products are used.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    let mut first: Option<Sim> = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let source = w.source(seed);
        let prog = wl::build(&source);
        let oracle = w.oracle(seed);
        let (_, warm) = cold_rep(&cfg, &prog);
        setup_s.push(t0.elapsed().as_secs_f64());
        attempted += 1;
        failures
            .extend(rep_failure(&warm, oracle, first.as_ref()).map(|e| format!("warm-up: {e}")));
        first.get_or_insert(Sim::of(&warm));
        prepared = Some((prog, oracle));
    }
    let (prog, oracle) = prepared.expect("SETUPS > 0");
    let sim = first.expect("SETUPS > 0");

    let mut wall_ms: Vec<f64> = Vec::new();
    let start = Instant::now();
    while budget.more(wall_ms.len() as u32, start, 1.0, MIN_REPS) {
        let (ms, report) = cold_rep(&cfg, &prog);
        attempted += 1;
        match rep_failure(&report, oracle, Some(&sim)) {
            None => wall_ms.push(ms),
            Some(e) => {
                failures.push(format!("rep {attempted}: {e}"));
                if failures.len() >= MIN_REPS as usize {
                    break; // a broken simulator fails every rep; stop early
                }
            }
        }
    }
    if wall_ms.is_empty() {
        return Err(format!("no rep succeeded: {}", failures.join("; ")));
    }

    let med = median(&wall_ms);
    let (q1, q3) = quartiles(&wall_ms);
    let tail = match tail_percentile(&wall_ms) {
        Some((p, v)) => format!("p{p} {v:.3}"),
        None => "no tail percentile (needs 21 reps)".to_string(),
    };
    let mut notes = vec![format!(
        "# run_wall_ms over {} reps: min {:.3} q1 {q1:.3} median {med:.3} q3 {q3:.3} {tail}",
        wall_ms.len(),
        min(&wall_ms)
    )];
    if ledger_check {
        notes.push(format!(
            "# sim_* held to the ledger: seed {} replayed once against ledger/seed{0}.json",
            ledger::REPLAY_SEED
        ));
    }
    notes.extend(failures.iter().map(|f| format!("# FAILED {f}")));

    let values = vec![
        ("run_wall_ms", med),
        (
            "host_minstr_per_s",
            sim.instructions as f64 / (med / 1e3) / 1e6,
        ),
        ("host_peak_rss_mb", peak_rss_mb()?),
        ("setup_s", median(&setup_s)),
        ("sim_time_ticks", sim.time_ps as f64),
        ("sim_region_ticks", sim.region_ps as f64),
        ("sim_region_dram", sim.region_dram as f64),
        ("sim_instructions", sim.instructions as f64),
        ("sim_events", sim.events as f64),
        ("sim_noc_bytes", sim.noc_bytes as f64),
    ];
    Ok(Measured {
        attempted,
        failed: failures.len() as u64,
        values,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_window_has_a_floor_and_reps_are_exact() {
        let start = Instant::now();
        let none = Budget::Window(Duration::ZERO);
        assert!(none.more(0, start, 1.0, MIN_REPS));
        assert!(none.more(MIN_REPS - 1, start, 1.0, MIN_REPS));
        assert!(!none.more(MIN_REPS, start, 1.0, MIN_REPS));
        assert!(Budget::Window(Duration::from_secs(3600)).more(10_000, start, 0.5, 3));
        assert!(Budget::Reps(2).more(1, start, 1.0, MIN_REPS));
        assert!(!Budget::Reps(2).more(2, start, 1.0, MIN_REPS));
    }

    #[test]
    fn end_to_end_values_follow_the_metric_table() {
        // A tiny real run: the smallest workload, one rep.
        let w = crate::workloads::find("matmul_cpu").unwrap();
        let m = end_to_end(w, 3, Budget::Reps(1), true).unwrap();
        let names: Vec<&str> = m.values.iter().map(|(n, _)| *n).collect();
        let table: Vec<&str> = crate::metrics::END_TO_END.iter().map(|e| e.name).collect();
        assert_eq!(names, table);
        // The ledger replay, the warm-ups, and the rep.
        assert_eq!(
            (m.attempted, m.failed),
            (SETUPS as u64 + 2, 0),
            "{:?}",
            m.notes
        );
        assert!(m.values.iter().all(|(_, v)| *v > 0.0), "{:?}", m.values);
    }

    /// The modelled machine still reports what the ledger recorded, on every
    /// workload and both recorded seeds. A change that moves a number here
    /// changed the model and has to re-record the ledger.
    #[test]
    fn every_workload_simulates_what_the_ledger_recorded() {
        for seed in [42, 7] {
            for w in &crate::workloads::WORKLOADS {
                let (_, r) = cold_rep(&w.config(false), &wl::build(&w.source(seed)));
                let recorded = ledger::recorded(seed, w.name);
                assert_eq!(
                    rep_failure(&r, w.oracle(seed), recorded.as_ref()),
                    None,
                    "{} seed {seed}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn a_wrong_exit_code_or_drifting_sim_fails_the_rep() {
        let w = crate::workloads::find("matmul_cpu").unwrap();
        let prog = wl::build(&w.source(3));
        let (_, r) = cold_rep(&w.config(false), &prog);
        let oracle = w.oracle(3);
        assert_eq!(rep_failure(&r, oracle, None), None);
        assert_eq!(rep_failure(&r, oracle, Some(&Sim::of(&r))), None);
        assert!(rep_failure(&r, oracle + 1, None)
            .unwrap()
            .contains("oracle"));
        let mut other = Sim::of(&r);
        other.events += 1;
        assert!(rep_failure(&r, oracle, Some(&other))
            .unwrap()
            .contains("expected"));
    }
}
