//! Hot-path throughput benchmark: events/sec and simulated-ns per host-ms
//! over a fixed end-to-end workload matrix, written to
//! `results/BENCH_hotpath.json`.
//!
//! The paper's figures are produced by sweeping many full-system runs, so
//! simulator wall-clock throughput *is* the experiment budget. This binary
//! gives that throughput a recorded trajectory:
//!
//! * each matrix point builds one `Machine`, runs it to completion, and
//!   reports dispatched events, host wall time, and simulated time;
//! * every point runs twice and keeps the faster wall time (coarse noise
//!   rejection, same policy as `bench_loop`); a third run with
//!   `host_profile` enabled records the per-phase host-time breakdown
//!   (core-exec vs uncore vs merge) without perturbing the timed runs;
//! * totals land in the JSON report together with the mode-keyed baseline
//!   (see below), so a regression is visible per-PR.
//!
//! The phase breakdown is what makes the `--sim-threads` Amdahl ceiling
//! visible in the artifact rather than guessed: `core_exec_ms` is the only
//! parallelizable share, and `zones`/`zone_batches` show how much of it
//! actually forks.
//!
//! `--write-baseline` captures the current numbers as the comparison
//! baseline in `results/BENCH_hotpath_baseline_<mode>.json`; later runs in
//! the same mode load that file and report `speedup_vs_baseline`. Quick and
//! full baselines are keyed separately so a CI smoke run is never compared
//! against a full-matrix capture.
//!
//! Usage: `perf [--quick] [--threads N] [--sim-threads N] [--out PATH]
//!              [--write-baseline]`

use std::time::Instant;

use ccsvm::{HostPhases, Machine, Outcome, SbStats, SpecStats, SystemConfig};
use ccsvm_bench::{exit_with, sweep, BenchError};
use ccsvm_workloads as wl;

/// One matrix point: a named workload source.
struct Point {
    name: &'static str,
    source: String,
}

/// The fixed workload matrix. Mixed on purpose: CPU-only interpretation,
/// launch-heavy offload, memory-bound offload, and an irregular
/// pointer-chasing workload stress different slices of the hot path.
fn matrix(quick: bool) -> Vec<Point> {
    let mm = |n| wl::matmul::MatmulParams::new(n, 42);
    let sp = |n| wl::spmm::SpmmParams::one_percent(n, 42);
    let bh = |bodies| wl::barnes_hut::BhParams {
        bodies,
        steps: 1,
        max_threads: 1280,
        seed: 42,
    };
    let va = |n| wl::vecadd::VecaddParams { n, seed: 42 };
    if quick {
        vec![
            Point {
                name: "cpu_matmul_n16",
                source: wl::matmul::cpu_source(&mm(16)),
            },
            Point {
                name: "vecadd_n2048",
                source: wl::vecadd::xthreads_source(&va(2048)),
            },
            Point {
                name: "matmul_n24",
                source: wl::matmul::xthreads_source(&mm(24)),
            },
            Point {
                name: "barnes_hut_b128",
                source: wl::barnes_hut::xthreads_source(&bh(128)),
            },
        ]
    } else {
        vec![
            Point {
                name: "cpu_matmul_n24",
                source: wl::matmul::cpu_source(&mm(24)),
            },
            Point {
                name: "vecadd_n8192",
                source: wl::vecadd::xthreads_source(&va(8192)),
            },
            Point {
                name: "matmul_n48",
                source: wl::matmul::xthreads_source(&mm(48)),
            },
            Point {
                name: "spmm_n64",
                source: wl::spmm::xthreads_source(&sp(64)),
            },
            Point {
                name: "barnes_hut_b256",
                source: wl::barnes_hut::xthreads_source(&bh(256)),
            },
        ]
    }
}

/// Timing results for one matrix point.
struct Measure {
    name: &'static str,
    events: u64,
    host_ms: f64,
    sim_ms: f64,
    phases: HostPhases,
    /// Decoded-image counters from the profiled run (host telemetry;
    /// identical work across the timed runs).
    sb: SbStats,
    /// Speculative-epoch counters from the profiled run (DESIGN §12).
    spec: SpecStats,
}

fn run_point(
    p: &Point,
    sim_threads: usize,
    sb_cache: bool,
    speculation: bool,
    checkpoint_at: Option<ccsvm::Time>,
    restore_from: Option<&std::path::Path>,
) -> Result<Measure, BenchError> {
    let prog = wl::build(&p.source);
    let make_cfg = |host_profile: bool| {
        let mut cfg = SystemConfig::paper_default();
        cfg.max_sim_time = ccsvm::Time::from_ms(60_000);
        cfg.sim_threads = sim_threads;
        cfg.host_profile = host_profile;
        cfg.sb_cache = sb_cache;
        cfg.speculation.enabled = speculation;
        cfg
    };
    // `--restore-from`: warm-start the timed runs from this point's image
    // when one exists. The wall time then covers restore + the resumed tail
    // only, while `events`/`sim_ms` still describe the whole run (both are
    // part of the restored state), so warm captures are not comparable to
    // cold ones — that difference is exactly what the flag is for.
    let image = restore_from
        .map(|dir| dir.join(format!("perf-{}.ccsnap", p.name)))
        .filter(|path| path.exists());
    let mut best: Option<Measure> = None;
    for _ in 0..2 {
        let start = Instant::now();
        let mut m = match &image {
            Some(path) => Machine::restore(make_cfg(false), prog.clone(), path)?,
            None => Machine::new(make_cfg(false), prog.clone()),
        };
        let r = m.run();
        let host_ms = start.elapsed().as_secs_f64() * 1e3;
        if r.outcome != Outcome::Completed {
            return Err(BenchError::Run(format!(
                "{}: run ended {:?} instead of completing",
                p.name, r.outcome
            )));
        }
        let candidate = Measure {
            name: p.name,
            events: r.events,
            host_ms,
            sim_ms: r.time.as_ms(),
            phases: HostPhases::default(),
            sb: SbStats::default(),
            spec: SpecStats::default(),
        };
        best = Some(match best {
            Some(b) if b.host_ms <= candidate.host_ms => b,
            _ => candidate,
        });
    }
    let mut best = best.expect("loop above ran twice");
    // Separate profiled run: the per-batch `Instant` reads would skew the
    // timed runs above, so the breakdown comes from its own execution (the
    // simulated machine is bit-identical either way).
    let mut m = Machine::new(make_cfg(true), prog.clone());
    let r = m.run();
    if r.outcome != Outcome::Completed {
        return Err(BenchError::Run(format!(
            "{}: profiled run ended {:?}",
            p.name, r.outcome
        )));
    }
    best.phases = m.host_phases();
    best.sb = m.sb_stats();
    best.spec = m.spec_stats();
    // `--checkpoint-at`: one extra untimed run pauses at the requested cycle
    // and writes this point's image, so the timed numbers above are never
    // perturbed by serialization or disk writes.
    if let Some(at) = checkpoint_at {
        let mut m = Machine::new(make_cfg(false), prog);
        if m.run_until(at).is_none() {
            std::fs::create_dir_all(ccsvm_bench::SNAP_DIR)
                .map_err(|e| BenchError::io(ccsvm_bench::SNAP_DIR, &e))?;
            let path =
                std::path::Path::new(ccsvm_bench::SNAP_DIR).join(format!("perf-{}.ccsnap", p.name));
            m.checkpoint(&path)?;
        }
    }
    Ok(best)
}

/// Cold-vs-warm sweep wall-time for the fig5-style warm-start protocol
/// (EXPERIMENTS.md): repetitions of the matrix's offload matmul point, once
/// re-simulating initialization every time and once forked from a snapshot
/// taken at the region-start marker. Returns the `warm_start` JSON object
/// and the measured speedup.
///
/// Only the *marginal repetitions* are timed on both sides: the one-off
/// snapshot capture (which itself simulates the initialization it exists to
/// amortize) is setup, reported separately as `setup_wall_ms`. Folding it
/// into the warm wall — as this harness once did — understated the win
/// enough to report speedups below 1.0 on fast full-matrix machines.
fn measure_warm_start(
    quick: bool,
    sim_threads: usize,
    speculation: bool,
) -> Result<(String, f64), BenchError> {
    // Full mode measures fig5's largest point: initialization there is worth
    // hundreds of host-ms per repetition, so the amortization is well above
    // run-to-run noise. Quick keeps the matrix's small matmul — the capture
    // records the protocol (and asserts determinism), not a wall-time win.
    let n = if quick { 24 } else { 128 };
    let reps = 3usize;
    let p = wl::matmul::MatmulParams::new(n, 42);
    let src = wl::matmul::xthreads_source(&p);
    let prog = wl::build(&src);
    let make_cfg = || {
        let mut cfg = ccsvm_bench::bench_cfg(sim_threads);
        cfg.speculation.enabled = speculation;
        cfg
    };

    // Setup (untimed side of the comparison): simulate to the region-start
    // marker once and capture the fork image every warm rep restores from.
    // The image crosses speculation settings freely (`config_hash`
    // normalizes host-only knobs).
    let t_setup = Instant::now();
    let paused = ccsvm_bench::pause_at_region_start(&src, sim_threads).ok_or_else(|| {
        BenchError::Run("matmul finished before its region-start marker".to_string())
    })?;
    let image = paused.checkpoint_bytes();
    let setup_wall_ms = t_setup.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let mut cold = Vec::new();
    for _ in 0..reps {
        let mut m = Machine::new(make_cfg(), prog.clone());
        cold.push(ccsvm_bench::region_numbers(&m.run()));
    }
    let cold_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let mut warm = Vec::new();
    for _ in 0..reps {
        let mut fork = Machine::restore_bytes(make_cfg(), prog.clone(), &image)?;
        warm.push(ccsvm_bench::region_numbers(&fork.run()));
    }
    let warm_wall_ms = t1.elapsed().as_secs_f64() * 1e3;

    let region_match = warm == cold;
    if !region_match {
        return Err(BenchError::Run(
            "warm-start repetitions diverged from cold runs".to_string(),
        ));
    }
    let speedup = cold_wall_ms / warm_wall_ms;
    println!(
        "warm-start (matmul n={n}, {reps} reps): cold {cold_wall_ms:.1} ms, \
         warm {warm_wall_ms:.1} ms ({speedup:.2}x, setup {setup_wall_ms:.1} ms), \
         image {} bytes",
        image.len()
    );
    let json = format!(
        "{{\"workload\": \"matmul_n{n}\", \"reps\": {reps}, \
         \"cold_wall_ms\": {cold_wall_ms:.3}, \"warm_wall_ms\": {warm_wall_ms:.3}, \
         \"setup_wall_ms\": {setup_wall_ms:.3}, \
         \"speedup\": {speedup:.3}, \"region_match\": {region_match}, \
         \"image_bytes\": {}}}",
        image.len()
    );
    Ok((json, speedup))
}

/// One scaling-matrix measurement: `(sim_threads, events_per_sec, coverage)`.
type ScalingPoint = (usize, f64, f64);

/// `--sim-threads` scaling matrix over the matrix's offload matmul point:
/// the same workload at `sim_threads` {1, 2, 4} with speculation as
/// configured, so the artifact records how the epoch executor scales rather
/// than a single operating point. Returns the `scaling` JSON object and the
/// measured `(sim_threads, events_per_sec)` pairs.
///
/// The host's available parallelism is recorded alongside: the executors
/// clamp their worker count to it, so on a single-CPU host every
/// `sim_threads` value runs the same speculative machinery inline and the
/// ev/s ordering reflects pure bookkeeping overhead, not scaling. The gate
/// in `main` therefore only enforces `sim_threads 4 > sim_threads 1` when
/// the host can actually run workers in parallel.
fn measure_scaling(
    quick: bool,
    sb_cache: bool,
    speculation: bool,
) -> Result<(String, Vec<ScalingPoint>), BenchError> {
    let (name, n) = if quick {
        ("matmul_n24", 24)
    } else {
        ("matmul_n48", 48)
    };
    let p = Point {
        name,
        source: wl::matmul::xthreads_source(&wl::matmul::MatmulParams::new(n, 42)),
    };
    let host_cpus = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let mut points = Vec::new();
    let mut rows = String::new();
    for &t in &[1usize, 2, 4] {
        let m = run_point(&p, t, sb_cache, speculation, None, None)?;
        let eps = m.events as f64 / (m.host_ms / 1e3);
        println!(
            "scaling {name}: sim_threads {t} -> {eps:.0} events/s \
             (epochs {}, coverage {:.1}%)",
            m.spec.epochs,
            m.spec.coverage() * 100.0
        );
        rows.push_str(&format!(
            "{{\"sim_threads\": {t}, \"events_per_sec\": {eps:.0}, \
             \"host_ms\": {:.3}, \"coverage\": {:.4}}}, ",
            m.host_ms,
            m.spec.coverage(),
        ));
        points.push((t, eps, m.spec.coverage()));
    }
    let rows = rows.trim_end_matches(", ").to_string();
    let json = format!(
        "{{\"workload\": \"{name}\", \"host_cpus\": {host_cpus}, \
         \"points\": [{rows}]}}"
    );
    Ok((json, points))
}

/// Extracts `"key": <number>` from a minimal JSON text (no nesting of the
/// same key). Good enough to read our own baseline file without a JSON
/// dependency.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn usage_exit(error: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!(
        "usage: perf [--quick] [--threads N] [--sim-threads N] [--out PATH] [--write-baseline]\n\
         \x20            [--checkpoint-at NS] [--restore-from DIR] [--no-sb-cache]\n\
         \x20            [--no-speculation] [--gate-drop PCT]\n\
         \n\
         \x20 --quick           smaller matrix for CI smoke runs\n\
         \x20 --threads N       run matrix points on N worker threads (default 1;\n\
         \x20                   use 1 for trustworthy per-point wall times)\n\
         \x20 --sim-threads N   fork-join workers inside each machine (default 1;\n\
         \x20                   simulated results are bit-identical at every value)\n\
         \x20 --out PATH        where to write the JSON report\n\
         \x20                   (default results/BENCH_hotpath.json)\n\
         \x20 --write-baseline  record these numbers as the mode-keyed baseline\n\
         \x20                   results/BENCH_hotpath_baseline_<mode>.json\n\
         \x20 --checkpoint-at NS  after the timed runs, pause an extra untimed run\n\
         \x20                   of each point at simulated time NS ns and write\n\
         \x20                   snapshots/perf-<name>.ccsnap (timed numbers are\n\
         \x20                   never perturbed)\n\
         \x20 --restore-from DIR  warm-start each point's timed runs from\n\
         \x20                   DIR/perf-<name>.ccsnap when present; warm captures\n\
         \x20                   measure restore + the resumed tail and are not\n\
         \x20                   comparable to cold ones\n\
         \x20 --no-sb-cache     disable the decoded-superblock fast path (host-perf\n\
         \x20                   ablation; simulated results are bit-identical)\n\
         \x20 --no-speculation  disable the speculative epoch executor (host-perf\n\
         \x20                   ablation; simulated results are bit-identical)\n\
         \x20 --gate-drop PCT   CI regression gate: exit nonzero when\n\
         \x20                   events_per_sec_total drops more than PCT% below\n\
         \x20                   the committed mode-keyed baseline (errors if no\n\
         \x20                   baseline file exists); also fails when warm-start\n\
         \x20                   speedup < 1.0 or, with speculation on and\n\
         \x20                   sim-threads > 1, when the offload matmul point\n\
         \x20                   commits zero epochs"
    );
    std::process::exit(2);
}

/// The comparison baseline, keyed by matrix mode so quick CI captures never
/// get compared against the checked-in full-matrix numbers.
fn baseline_path(quick: bool) -> String {
    format!(
        "results/BENCH_hotpath_baseline_{}.json",
        if quick { "quick" } else { "full" }
    )
}

fn main() {
    exit_with(run());
}

fn run() -> Result<(), BenchError> {
    let mut quick = false;
    let mut threads = 1usize;
    let mut sim_threads = 1usize;
    let mut out_path = "results/BENCH_hotpath.json".to_string();
    let mut write_baseline = false;
    let mut checkpoint_at = None;
    let mut restore_from: Option<std::path::PathBuf> = None;
    let mut sb_cache = true;
    let mut speculation = true;
    let mut gate_drop: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--no-sb-cache" => sb_cache = false,
            "--no-speculation" => speculation = false,
            "--gate-drop" => match args.next().and_then(|v| v.trim().parse::<f64>().ok()) {
                Some(pct) if (0.0..100.0).contains(&pct) => gate_drop = Some(pct),
                _ => usage_exit("--gate-drop needs a percentage in [0, 100)"),
            },
            "--threads" => match args.next().and_then(|v| v.trim().parse::<usize>().ok()) {
                Some(n) if n > 0 => threads = n,
                _ => usage_exit("--threads needs a positive integer"),
            },
            "--sim-threads" => match args.next().and_then(|v| v.trim().parse::<usize>().ok()) {
                Some(n) if n > 0 => sim_threads = n,
                _ => usage_exit("--sim-threads needs a positive integer"),
            },
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => usage_exit("--out needs a path"),
            },
            "--write-baseline" => write_baseline = true,
            "--checkpoint-at" => match args.next().and_then(|v| v.trim().parse::<u64>().ok()) {
                Some(ns) if ns > 0 => checkpoint_at = Some(ccsvm::Time::from_ns(ns)),
                _ => usage_exit("--checkpoint-at needs positive nanoseconds"),
            },
            "--restore-from" => match args.next() {
                Some(p) => restore_from = Some(std::path::PathBuf::from(p)),
                None => usage_exit("--restore-from needs a directory"),
            },
            other => usage_exit(&format!("unknown argument `{other}`")),
        }
    }

    let points = matrix(quick);
    println!(
        "== hot-path perf: {} workloads, {} thread(s), {} sim-thread(s)",
        points.len(),
        threads,
        sim_threads
    );
    println!(
        "{:<18} | {:>12} | {:>9} | {:>9} | {:>12} | {:>14} | {:>22}",
        "workload",
        "events",
        "host ms",
        "sim ms",
        "events/s",
        "sim ns/host ms",
        "core/uncore/merge ms"
    );
    if !sb_cache {
        println!("(superblock fast path DISABLED: --no-sb-cache ablation)");
    }
    if !speculation {
        println!("(speculative epochs DISABLED: --no-speculation ablation)");
    }
    let results = sweep(points.len(), threads, |i| {
        run_point(
            &points[i],
            sim_threads,
            sb_cache,
            speculation,
            checkpoint_at,
            restore_from.as_deref(),
        )
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let mut events_total = 0u64;
    let mut host_ms_total = 0.0f64;
    let mut rows = String::new();
    for m in &results {
        let eps = m.events as f64 / (m.host_ms / 1e3);
        let sim_ns_per_host_ms = m.sim_ms * 1e6 / m.host_ms;
        let ph = &m.phases;
        println!(
            "{:<18} | {:>12} | {:>9.2} | {:>9.4} | {:>12.0} | {:>14.1} | {:>6.1}/{:>6.1}/{:>6.1} \
             | sb {}h/{}m len {:.1} | epochs {} cov {:.0}%",
            m.name,
            m.events,
            m.host_ms,
            m.sim_ms,
            eps,
            sim_ns_per_host_ms,
            ph.core_exec_ms,
            ph.uncore_ms,
            ph.merge_ms,
            m.sb.hits,
            m.sb.misses,
            m.sb.mean_decoded_len(),
            m.spec.epochs,
            m.spec.coverage() * 100.0,
        );
        events_total += m.events;
        host_ms_total += m.host_ms;
        rows.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \"host_ms\": {:.3}, \"sim_ms\": {:.6}, \
             \"events_per_sec\": {:.0}, \"sim_ns_per_host_ms\": {:.1}, \
             \"phases\": {{\"core_exec_ms\": {:.3}, \"uncore_ms\": {:.3}, \
             \"merge_ms\": {:.3}, \"other_ms\": {:.3}, \"decode_ms\": {:.3}, \"zones\": {}, \
             \"zone_batches\": {}}}, \
             \"sb\": {{\"hits\": {}, \"misses\": {}, \"mean_decoded_len\": {:.2}}}, \
             \"spec\": {{\"epochs\": {}, \"members\": {}, \"committed\": {}, \
             \"rolled_back\": {}, \"stale\": {}, \"overflows\": {}, \"rollback_all\": {}, \
             \"batches_total\": {}, \"coverage\": {:.4}, \"commit_rate\": {:.4}}}}},\n",
            m.name,
            m.events,
            m.host_ms,
            m.sim_ms,
            eps,
            sim_ns_per_host_ms,
            ph.core_exec_ms,
            ph.uncore_ms,
            ph.merge_ms,
            ph.other_ms,
            ph.decode_ms,
            ph.zones,
            ph.zone_batches,
            m.sb.hits,
            m.sb.misses,
            m.sb.mean_decoded_len(),
            m.spec.epochs,
            m.spec.members,
            m.spec.committed,
            m.spec.rolled_back,
            m.spec.stale,
            m.spec.overflows,
            m.spec.rollback_all,
            m.spec.batches_total,
            m.spec.coverage(),
            m.spec.commit_rate(),
        ));
    }
    let rows = rows.trim_end_matches(",\n").to_string();
    let eps_total = events_total as f64 / (host_ms_total / 1e3);
    println!(
        "total: {events_total} events in {host_ms_total:.1} host ms = {eps_total:.0} events/s"
    );

    let (warm_start_json, warm_speedup) = measure_warm_start(quick, sim_threads, speculation)?;
    let (scaling_json, scaling_points) = measure_scaling(quick, sb_cache, speculation)?;

    let baseline_file = baseline_path(quick);
    let baseline = std::fs::read_to_string(&baseline_file)
        .ok()
        .and_then(|text| json_number(&text, "events_per_sec_total"));
    let (baseline_json, speedup_json) = match baseline {
        Some(b) if b > 0.0 => {
            let speedup = eps_total / b;
            println!("baseline (merge-base): {b:.0} events/s -> speedup {speedup:.2}x");
            (
                format!("{{\"events_per_sec_total\": {b:.0}, \"source\": \"{baseline_file}\"}}"),
                format!("{speedup:.3}"),
            )
        }
        _ => ("null".to_string(), "null".to_string()),
    };

    let json = format!(
        "{{\n  \"schema\": \"ccsvm-hotpath-perf-v6\",\n  \"mode\": \"{mode}\",\n  \
         \"threads\": {threads},\n  \"sim_threads\": {sim_threads},\n  \
         \"sb_cache\": {sb_cache},\n  \"speculation\": {speculation},\n  \
         \"workloads\": [\n{rows}\n  ],\n  \
         \"events_total\": {events_total},\n  \"host_ms_total\": {host_ms_total:.3},\n  \
         \"events_per_sec_total\": {eps_total:.0},\n  \
         \"warm_start\": {warm_start_json},\n  \"scaling\": {scaling_json},\n  \
         \"baseline\": {baseline_json},\n  \
         \"speedup_vs_baseline\": {speedup_json}\n}}\n",
        mode = if quick { "quick" } else { "full" },
    );
    // Atomic temp-file + rename: a crash mid-write can never leave a torn
    // perf artifact for the CI gate (or a later run) to trip over.
    ccsvm_bench::write_results_atomic(&out_path, &json)?;
    println!("wrote {out_path}");
    if write_baseline {
        ccsvm_bench::write_results_atomic(&baseline_file, &json)?;
        println!("wrote {baseline_file}");
    }
    // `--gate-drop`: the CI regression gate. Runs against the *committed*
    // mode-keyed baseline so a hot-path regression fails the build instead
    // of silently shipping.
    if let Some(pct) = gate_drop {
        let Some(b) = baseline.filter(|b| *b > 0.0) else {
            return Err(BenchError::Run(format!(
                "--gate-drop: no baseline at {baseline_file}; run with --write-baseline \
                 on a known-good build and commit it"
            )));
        };
        let floor = b * (1.0 - pct / 100.0);
        if eps_total < floor {
            return Err(BenchError::Run(format!(
                "perf regression gate: {eps_total:.0} events/s is more than {pct}% below \
                 the baseline {b:.0} (floor {floor:.0})"
            )));
        }
        println!("gate: {eps_total:.0} events/s >= floor {floor:.0} ({pct}% below {b:.0}) — ok");
        // Warm-start must actually win: the marginal warm repetition skips
        // re-simulating initialization, so a speedup below 1.0 means the
        // protocol (or its timing) regressed.
        if warm_speedup < 1.0 {
            return Err(BenchError::Run(format!(
                "warm-start gate: speedup {warm_speedup:.3} < 1.0 — forked repetitions \
                 were slower than cold re-simulation"
            )));
        }
        println!("gate: warm-start speedup {warm_speedup:.2}x >= 1.0 — ok");
        // With speculation on and a parallel executor, the offload matmul
        // point must commit epochs: zero coverage means the executor
        // silently degenerated to serial batch-at-a-time execution.
        if speculation && sim_threads > 1 {
            let mm = results
                .iter()
                .find(|m| m.name.starts_with("matmul_n"))
                .ok_or_else(|| BenchError::Run("matrix lost its offload matmul point".into()))?;
            if mm.spec.committed == 0 {
                return Err(BenchError::Run(format!(
                    "speculation gate: {} committed zero epoch members \
                     ({} batches ran) with speculation enabled",
                    mm.name, mm.spec.batches_total
                )));
            }
            println!(
                "gate: {} epoch coverage {:.1}% ({} committed / {} batches) — ok",
                mm.name,
                mm.spec.coverage() * 100.0,
                mm.spec.committed,
                mm.spec.batches_total
            );
        }
        // Scaling gate: with speculation on, `--sim-threads 4` must beat
        // `--sim-threads 1` — but only where the claim is testable. The
        // executors clamp workers to the host's available parallelism, so
        // on a single-CPU host every thread count runs the same machinery
        // inline and "scaling" would gate on noise; record the skip
        // instead of pretending.
        if speculation {
            let host_cpus = std::thread::available_parallelism()
                .map(|c| c.get())
                .unwrap_or(1);
            let t1 = scaling_points.iter().find(|(t, _, _)| *t == 1);
            let t4 = scaling_points.iter().find(|(t, _, _)| *t == 4);
            match (t1, t4) {
                (Some(&(_, eps1, _)), Some(&(_, eps4, _))) if host_cpus >= 2 => {
                    if eps4 <= eps1 {
                        return Err(BenchError::Run(format!(
                            "scaling gate: sim_threads 4 ({eps4:.0} ev/s) did not beat \
                             sim_threads 1 ({eps1:.0} ev/s) on a {host_cpus}-CPU host"
                        )));
                    }
                    println!(
                        "gate: scaling {eps1:.0} -> {eps4:.0} ev/s \
                         (sim_threads 1 -> 4, {host_cpus} host CPUs) — ok"
                    );
                }
                (Some(&(_, eps1, _)), Some(&(_, eps4, _))) => println!(
                    "gate: scaling SKIPPED — single-CPU host \
                     (sim_threads 1: {eps1:.0} ev/s, 4: {eps4:.0} ev/s, \
                     parallel executors run inline)"
                ),
                _ => {
                    return Err(BenchError::Run(
                        "scaling gate: matrix lost its sim_threads 1/4 points".into(),
                    ))
                }
            }
        }
    }
    Ok(())
}
