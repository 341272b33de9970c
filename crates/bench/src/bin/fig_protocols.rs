//! Cross-protocol evaluation (DESIGN §13): the same CPU+MTTOP workloads
//! under the directory-MOESI, snooping-MESI, and Dragon write-update
//! protocols. The table (runtime, event count, DRAM accesses, NoC traffic)
//! is deterministic; host throughput per protocol is the ledger's to
//! measure (`BENCHMARK.json`).
//!
//! The expected shape: all three protocols compute identical results
//! (architectural equivalence), the snooping protocols pay a broadcast
//! event/traffic premium over the directory, and Dragon's in-place updates
//! keep DRAM traffic at directory level where invalidating MESI re-fetches.

#![forbid(unsafe_code)]

use ccsvm::{Outcome, ProtocolKind};
use ccsvm_bench::{check_eq, exit_with, ms, rel, run_jobs, BenchError, Claims, Opts, Out};
use ccsvm_workloads as wl;

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

    // Protocol-major within each size.
    let mut jobs = Vec::new();
    for &n in &sizes {
        let src = wl::matmul::xthreads_source(&wl::matmul::MatmulParams::new(n, 42));
        for &kind in &ProtocolKind::ALL {
            let mut cfg = opts.config();
            cfg.protocol = kind;
            jobs.push((format!("fig_protocols/{kind}/n{n}"), cfg, src.clone()));
        }
    }
    let reports = run_jobs(&jobs, opts.threads)?;

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
    for (chunk, &n) in reports.chunks(ProtocolKind::ALL.len()).zip(&sizes) {
        let expect = wl::matmul::reference_checksum(&wl::matmul::MatmulParams::new(n, 42));
        let dir = &chunk[0];
        for (r, &kind) in chunk.iter().zip(ProtocolKind::ALL.iter()) {
            if r.outcome != Outcome::Completed {
                return Err(BenchError::Run(format!(
                    "{kind}: run aborted with {:?} (diag: {:?})",
                    r.outcome, r.diagnostic
                )));
            }
            check_eq(
                r.exit_code,
                expect,
                format!("n={n} {kind}: result checksum"),
            )?;
            out.line(format!(
                "{n:4} | {:10} | {} | {} | {:9} | {:7} | {:6.1}",
                kind.to_string(),
                ms(r.time),
                rel(r.time, dir.time),
                r.events,
                r.dram_accesses,
                r.stats.get("noc.bytes") / 1024.0,
            ));
            claims.check(
                r.exit_code == dir.exit_code,
                &format!("n={n} {kind}: same program result as directory"),
            );
        }
        let (mesi, dragon) = (&chunk[1], &chunk[2]);
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
    claims.finish("fig-protocols")
}
