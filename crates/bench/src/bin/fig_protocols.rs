//! Cross-protocol evaluation (DESIGN §13): the same CPU+MTTOP workloads
//! under the directory-MOESI, snooping-MESI, and Dragon write-update
//! protocols. The simulated table (runtime, event count, DRAM accesses, NoC
//! traffic) is deterministic; a separate host-throughput footer reports
//! ev/s per protocol, which — like the hotpath baselines — depends on the
//! host machine.
//!
//! The expected shape: all three protocols compute identical results
//! (architectural equivalence), the snooping protocols pay a broadcast
//! event/traffic premium over the directory, and Dragon's in-place updates
//! keep DRAM traffic at directory level where invalidating MESI re-fetches.

#![forbid(unsafe_code)]

use std::time::Instant;

use ccsvm::{Outcome, ProtocolKind, RunReport};
use ccsvm_bench::{check_eq, exit_with, ms, rel, run_program, BenchError, Claims, Opts, Out};
use ccsvm_workloads as wl;

struct Point {
    report: RunReport,
    host_secs: f64,
}

fn run_point(kind: ProtocolKind, src: &str, opts: &Opts, label: &str) -> Result<Point, BenchError> {
    let mut cfg = opts.config();
    cfg.protocol = kind;
    let started = Instant::now();
    let report = run_program(cfg, src, label);
    let host_secs = started.elapsed().as_secs_f64();
    if report.outcome != Outcome::Completed {
        return Err(BenchError::Run(format!(
            "{kind}: run aborted with {:?} (diag: {:?})",
            report.outcome, report.diagnostic
        )));
    }
    Ok(Point { report, host_secs })
}

fn main() {
    exit_with(run());
}

fn run() -> Result<(), BenchError> {
    // Every point runs under each protocol in turn, so `--protocol` is not
    // among the flags this binary honours.
    let opts = Opts::parse(&[
        "--quick",
        "--sizes",
        "--threads",
        "--out",
        "--no-sb-cache",
        "--trace-events",
    ])?;
    let sizes = opts.pick(&[8, 16, 24], &[8]);
    let mut claims = Claims::new();
    let mut out = Out::new(&opts);

    out.header(
        "Cross-protocol: matmul on CPU+MTTOP under each coherence protocol",
        &[
            "   n",
            "protocol  ",
            "  time ms",
            " rel dir",
            "    events",
            "    dram",
            " noc KB",
        ],
    );

    // protocol-major within each size: every (size, protocol) pair is an
    // independent machine, swept in parallel under `--threads N` and
    // reassembled in input order so the table is byte-identical at any
    // thread count.
    let grid: Vec<(u64, ProtocolKind)> = sizes
        .iter()
        .flat_map(|&n| ProtocolKind::ALL.iter().map(move |&p| (n, p)))
        .collect();
    let points = ccsvm_sweepd::sweep(grid.len(), opts.threads, |i| -> Result<_, BenchError> {
        let (n, kind) = grid[i];
        let p = wl::matmul::MatmulParams::new(n, 42);
        let src = wl::matmul::xthreads_source(&p);
        let point = run_point(kind, &src, &opts, &format!("fig_protocols/{kind}/n{n}"))?;
        check_eq(
            point.report.exit_code,
            wl::matmul::reference_checksum(&p),
            format!("n={n} {kind}: result checksum"),
        )?;
        Ok(point)
    });
    let points = points.into_iter().collect::<Result<Vec<_>, _>>()?;

    let mut footer = Vec::new();
    for (chunk, &n) in points.chunks(ProtocolKind::ALL.len()).zip(&sizes) {
        let dir = &chunk[0].report;
        for (point, &kind) in chunk.iter().zip(ProtocolKind::ALL.iter()) {
            let r = &point.report;
            out.line(format!(
                "{n:4} | {:10} | {} | {} | {:9} | {:7} | {:6.1}",
                kind.to_string(),
                ms(r.time),
                rel(r.time, dir.time),
                r.events,
                r.dram_accesses,
                r.stats.get("noc.bytes") / 1024.0,
            ));
            footer.push(format!(
                "n={n} {kind}: {:.0} ev/s host",
                r.events as f64 / point.host_secs.max(1e-9)
            ));
            claims.check(
                r.exit_code == dir.exit_code,
                &format!("n={n} {kind}: same program result as directory"),
            );
        }
        let mesi = &chunk[1].report;
        let dragon = &chunk[2].report;
        claims.check(
            mesi.events > dir.events,
            &format!("n={n}: snooping broadcast costs events over the directory"),
        );
        claims.check(
            dragon.dram_accesses <= mesi.dram_accesses,
            &format!("n={n}: Dragon updates avoid MESI's re-fetch DRAM traffic"),
        );
        claims.check(
            dir.time <= mesi.time && dir.time <= dragon.time,
            &format!("n={n}: the directory protocol is the fastest simulated machine"),
        );
    }
    out.finish()?;

    // Host-dependent, so kept out of the results artifact (like the hotpath
    // harness, throughput belongs to the machine that measured it).
    println!("-- host throughput (not in the artifact) --");
    for line in footer {
        println!("{line}");
    }
    claims.finish("fig-protocols");
    Ok(())
}
