//! Fault-injection sweep: robustness characterisation of the CCSVM chip.
//!
//! 1. **Disabled-path identity** — `FaultConfig::default()` must leave every
//!    simulated result bit-identical to a fault-free build (the injectors
//!    are fully off, the watchdog only observes), so the figure/table
//!    binaries are unaffected by this subsystem.
//! 2. **NoC retransmission sweep** — message-loss rate vs runtime and
//!    retransmission count (bounded-backoff recovery).
//! 3. **DRAM ECC sweep** — single-bit corrections are absorbed silently;
//!    results stay correct.
//! 4. **Transient TLB-walk sweep** — walk failures retry and converge.
//! 5. **Replay** — the same seed reproduces a faulty run bit-for-bit; a
//!    different seed draws a different schedule.

#![forbid(unsafe_code)]

use ccsvm::{Outcome, SystemConfig};
use ccsvm_bench::{exit_with, region_numbers, rel, run_jobs, BenchError, Claims, Opts};
use ccsvm_workloads as wl;

fn main() {
    exit_with(run());
}

fn run() -> Result<(), BenchError> {
    // `--protocol` runs the whole sweep under the named coherence protocol,
    // so CI covers every protocol with one binary.
    let opts = Opts::parse(&["--quick", "--threads", "--protocol"])?;
    let (quick, protocol) = (opts.quick, opts.protocol);
    let n = if quick { 64 } else { 256 };
    let p = wl::vecadd::VecaddParams { n, seed: 7 };
    let src = wl::vecadd::xthreads_source(&p);
    let expect = wl::vecadd::reference_checksum(&p);
    let mut claims = Claims::new();
    // A vecadd point on the paper's chip under `--protocol`, changed by `tweak`.
    let job = |tweak: &dyn Fn(&mut SystemConfig)| {
        let mut cfg = SystemConfig::paper_default();
        cfg.protocol = protocol;
        tweak(&mut cfg);
        ("faults".to_string(), cfg, src.clone())
    };

    let noc_rates: &[f64] = if quick {
        &[0.0, 1e-3, 1e-2]
    } else {
        &[0.0, 1e-4, 1e-3, 1e-2, 5e-2]
    };
    // DRAM single-bit ECC (doubles poison; swept in tests).
    let ecc_rates: &[f64] = if quick {
        &[1e-3, 1e-1]
    } else {
        &[1e-4, 1e-3, 1e-2, 1e-1]
    };
    let tlb_rates: &[f64] = if quick { &[1e-2] } else { &[1e-3, 1e-2, 1e-1] };
    // Every point of the five sections below, in the order they print.
    let mut jobs = vec![job(&|_| {}), job(&|c| c.fault.watchdog.enabled = false)];
    for &rate in noc_rates {
        jobs.push(job(&|c| c.fault.noc.drop_rate = rate));
    }
    for &rate in ecc_rates {
        jobs.push(job(&|c| c.fault.dram.single_bit_rate = rate));
    }
    for &rate in tlb_rates {
        jobs.push(job(&|c| c.fault.tlb.transient_rate = rate));
    }
    // Replay: seed 7 twice, then seed 8, every injector on.
    for seed in [7, 7, 8] {
        jobs.push(job(&|c| {
            c.fault.seed = seed;
            c.fault.noc.drop_rate = 1e-2;
            c.fault.dram.single_bit_rate = 1e-2;
            c.fault.tlb.transient_rate = 1e-2;
        }));
    }
    let mut reports = run_jobs(&jobs, opts.threads)?.into_iter();
    let mut next = || {
        let r = reports.next().expect("one report per job");
        (region_numbers(&r).0, r)
    };

    println!(
        "== Fault sweep (vecadd n={n}, paper-default chip, protocol {})",
        protocol.as_str()
    );

    // 1. Disabled path: default fault config vs watchdog fully off.
    let (t0, base) = next();
    let (_, no_wd) = next();
    claims.check(
        base == no_wd,
        "default FaultConfig is bit-identical to watchdog-off",
    );
    claims.check(base.exit_code == expect, "baseline checksum");
    claims.check(
        !base.stats.contains("noc.retransmissions")
            && !base.stats.contains("mem.dram.ecc_corrected"),
        "disabled injectors leave no trace in the report",
    );
    println!("  baseline region {t0}  (watchdog observes, injects nothing)");

    // 2. NoC message-loss sweep.
    println!("== NoC loss rate | region ms | rel | retransmissions | outcome");
    let mut last_retx = -1.0f64;
    for &rate in noc_rates {
        let (t, r) = next();
        let retx = r.stats.get("noc.retransmissions");
        println!(
            "  {rate:12.0e} | {:9.4} | {} | {retx:15.0} | {:?}",
            t.as_ms(),
            rel(t, t0),
            r.outcome
        );
        claims.check(
            r.outcome == Outcome::Completed,
            "NoC losses recover by retransmission",
        );
        claims.check(r.exit_code == expect, "results stay correct under NoC loss");
        claims.check(
            retx >= last_retx || rate == 0.0,
            "retransmissions grow with loss rate",
        );
        last_retx = retx;
    }

    // 3. DRAM single-bit ECC sweep.
    println!("== ECC single-bit rate | region ms | corrected | outcome");
    for &rate in ecc_rates {
        let (t, r) = next();
        println!(
            "  {rate:18.0e} | {:9.4} | {:9.0} | {:?}",
            t.as_ms(),
            r.stats.get("mem.dram.ecc_corrected"),
            r.outcome
        );
        claims.check(
            r.outcome == Outcome::Completed,
            "corrected singles never abort",
        );
        claims.check(
            r.exit_code == expect,
            "SECDED corrections are invisible to results",
        );
    }

    // 4. Transient TLB-walk failures.
    println!("== TLB transient rate | region ms | transients | outcome");
    for &rate in tlb_rates {
        let (t, r) = next();
        let transients: f64 = (0..4)
            .map(|i| r.stats.get(&format!("cpu.{i}.tlb_transients")))
            .sum();
        println!(
            "  {rate:17.0e} | {:9.4} | {transients:10.0} | {:?}",
            t.as_ms(),
            r.outcome
        );
        claims.check(
            r.outcome == Outcome::Completed,
            "transient walks retry and converge",
        );
        claims.check(
            r.exit_code == expect,
            "results stay correct under TLB transients",
        );
    }

    // 5. Replay: same seed, same bits; different seed, different schedule.
    println!("== Replay determinism");
    let (_, a) = next();
    let (_, b) = next();
    let (_, c) = next();
    claims.check(a == b, "same seed replays bit-for-bit");
    claims.check(a != c, "different seed draws a different fault schedule");
    claims.check(
        a.stats.get("noc.retransmissions") > 0.0,
        "the replayed runs actually injected faults",
    );
    println!(
        "  seed 7 twice: identical = {}; seed 8: retransmissions {} vs {}",
        a == b,
        a.stats.get("noc.retransmissions"),
        c.stats.get("noc.retransmissions"),
    );

    claims.finish("faults")
}
