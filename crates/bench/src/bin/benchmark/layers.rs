//! The traced run (`--trace 1`): per-layer metrics, every one taken from
//! outside the layer. Sources are a `Machine`'s public accessors, spans this
//! file records around its own calls into a layer, and the microprobes. It is
//! a separate, shorter run and never feeds an end-to-end number.

use std::path::Path;
use std::time::Instant;

use ccsvm::{HostPhases, Machine, RunReport, SbStats, SpecStats, SystemConfig, Time};
use ccsvm_isa::Program;
use ccsvm_snap::journal::JournalWriter;
use ccsvm_workloads as wl;

use crate::probes;
use crate::run::{rep_failure, Budget, Measured, Sim};
use crate::spans::{chrome_trace, Recorder};
use crate::summary::median;
use crate::workloads::Workload;

/// Fewest plain and fewest profiled reps of a traced run.
const MIN_TRACED_REPS: u32 = 3;

/// Span indices of one rep.
struct RepSpans {
    rep: usize,
    run: usize,
}

/// One rep under spans: `rep` → `core.machine_new`, `core.run`,
/// `core.machine_drop`. `run` drives the machine to its report inside the
/// `core.run` span; `inspect` reads the finished machine before the drop.
fn spanned_rep<T>(
    rec: &mut Recorder,
    id: u32,
    cfg: &SystemConfig,
    prog: &Program,
    run: impl FnOnce(&mut Recorder, &mut Machine) -> RunReport,
    inspect: impl FnOnce(&Machine) -> T,
) -> (RepSpans, RunReport, T) {
    rec.set_rep(Some(id));
    let rep = rec.enter("rep");
    let mut m = rec.scope("core.machine_new", |_| {
        Machine::new(cfg.clone(), prog.clone())
    });
    let run_span = rec.enter("core.run");
    let report = run(rec, &mut m);
    rec.exit(run_span);
    let seen = inspect(&m);
    rec.scope("core.machine_drop", |_| drop(m));
    rec.exit(rep);
    rec.set_rep(None);
    (RepSpans { rep, run: run_span }, report, seen)
}

/// A run cut into about 32 `run_until` steps: the host time each slice of
/// simulated time took, as `core.run_slice` spans carrying `sim_us`.
fn run_sliced(rec: &mut Recorder, m: &mut Machine, sim: &Sim) -> RunReport {
    const SLICES: u64 = 32;
    let step = sim.time_ps.div_ceil(SLICES).max(1);
    let mut limit = step;
    loop {
        let slice = rec.enter("core.run_slice");
        let done = m.run_until(Time::from_ps(limit));
        rec.set_sim_us(slice, m.now().as_us());
        rec.exit(slice);
        match done {
            Some(report) => return report,
            None => limit += step,
        }
    }
}

/// What the checkpoint/restore exercise found.
struct SnapNumbers {
    checkpoint_ms: f64,
    restore_ms: f64,
    image_bytes: usize,
    journal_append_us: f64,
}

/// Checkpoints a machine paused just past the region-start marker, restores
/// the image, and holds the restored run's report equal to `reference`. The
/// journal probe appends image-header-sized records to a file beside the
/// trace (each append is an fsync).
fn snapshot_exercise(
    rec: &mut Recorder,
    cfg: &SystemConfig,
    prog: &Program,
    reference: &RunReport,
    journal_path: &Path,
) -> Result<SnapNumbers, String> {
    const TAKES: usize = 3;
    // `ccsvm_bench::pause_at_region_start` does this for the directory
    // protocol only; the image here is of the workload's own protocol.
    let mut m = Machine::new(cfg.clone(), prog.clone());
    let start_marker = wl::MARK_START.to_string();
    let step = Time::from_us(10);
    let mut limit = step;
    while !m.printed().contains(&start_marker) {
        if m.run_until(limit).is_some() {
            return Err("program finished before its region-start marker".to_string());
        }
        limit = limit.plus(step);
    }
    let mut image = Vec::new();
    for _ in 0..TAKES {
        image = rec.scope("snap.checkpoint", |_| m.checkpoint_bytes());
    }
    drop(m);
    let mut restored = None;
    for _ in 0..TAKES {
        let r = rec.scope("snap.restore", |_| {
            Machine::restore_bytes(cfg.clone(), prog.clone(), &image)
        });
        restored = Some(r.map_err(|e| format!("restore of a fresh checkpoint failed: {e}"))?);
    }
    let resumed = restored.expect("TAKES > 0").run();
    if resumed != *reference {
        return Err(
            "a run restored at region start did not reproduce the cold run's report".to_string(),
        );
    }

    let mut journal = JournalWriter::create(journal_path, 0)
        .map_err(|e| format!("{}: {e}", journal_path.display()))?;
    let record = [0xA5u8; 256];
    let appends: Vec<f64> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            let r = journal.append(&record);
            r.map(|()| t0.elapsed().as_secs_f64() * 1e6)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", journal_path.display()))?;
    drop(journal);
    // The file was only there to be written to.
    let _ = std::fs::remove_file(journal_path);

    Ok(SnapNumbers {
        checkpoint_ms: median(&rec.durations_ms("snap.checkpoint")),
        restore_ms: median(&rec.durations_ms("snap.restore")),
        image_bytes: image.len(),
        journal_append_us: median(&appends),
    })
}

/// Sums and ratios over a report's per-component counters.
struct Counters(Vec<(String, f64)>);

impl Counters {
    fn of(r: &RunReport) -> Counters {
        Counters(r.stats.iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Sum of every counter named `<prefix><index>.<leaf>`.
    fn sum(&self, prefix: &str, leaf: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(prefix)
                    .and_then(|rest| rest.split_once('.'))
                    .is_some_and(|(index, l)| {
                        l == leaf && index.bytes().all(|b| b.is_ascii_digit())
                    })
            })
            .map(|(_, v)| v)
            .sum()
    }

    fn get(&self, key: &str) -> f64 {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// `part / whole`, or 0 when there was nothing to take a share of.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Runs `w` traced, writes the span file to `trace_out`, and returns every
/// per-layer metric.
pub fn traced(
    w: &Workload,
    seed: u64,
    budget: Budget,
    trace_out: &Path,
) -> Result<Measured, String> {
    if let Some(dir) = trace_out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let cfg = w.config(false);
    let cfg_profiled = w.config(true);
    let mut rec = Recorder::new();
    let bench = rec.enter("bench");
    let mut failures: Vec<String> = Vec::new();

    let setup = rec.enter("setup");
    let source = rec.scope("workloads.generate", |_| w.source(seed));
    let prog = rec.scope("xcc.compile", |_| wl::build(&source));
    let oracle = rec.scope("workloads.oracle", |_| w.oracle(seed));
    let reference = Machine::new(cfg.clone(), prog.clone()).run();
    rec.exit(setup);
    if let Some(e) = rep_failure(&reference, oracle, None) {
        return Err(format!("warm-up: {e}"));
    }
    let sim = Sim::of(&reference);

    // Plain and profiled reps alternate, so host drift lands on both sides of
    // `core.profile_overhead_share`.
    let mut check = |id: u32, report: &RunReport| {
        failures.extend(rep_failure(report, oracle, Some(&sim)).map(|e| format!("rep {id}: {e}")));
    };
    let mut plain: Vec<RepSpans> = Vec::new();
    let mut profiled: Vec<(RepSpans, HostPhases, SbStats, SpecStats)> = Vec::new();
    let mut rep_id = 0u32;
    let start = Instant::now();
    while budget.more(plain.len() as u32, start, 0.5, MIN_TRACED_REPS) {
        let (spans, report, ()) =
            spanned_rep(&mut rec, rep_id, &cfg, &prog, |_, m| m.run(), |_| ());
        check(rep_id, &report);
        plain.push(spans);
        let (spans, report, (phases, sb, spec)) = spanned_rep(
            &mut rec,
            rep_id + 1,
            &cfg_profiled,
            &prog,
            |_, m| m.run(),
            |m| (m.host_phases(), m.sb_stats(), m.spec_stats()),
        );
        check(rep_id + 1, &report);
        profiled.push((spans, phases, sb, spec));
        rep_id += 2;
    }
    let (_, sliced, ()) = spanned_rep(
        &mut rec,
        rep_id,
        &cfg,
        &prog,
        |rec, m| run_sliced(rec, m, &sim),
        |_| (),
    );
    check(rep_id, &sliced);
    // The warm-up, the reps above, and the restored run below.
    let attempted = u64::from(rep_id) + 3;

    let journal_path = trace_out.with_extension("journal-probe");
    let snap = snapshot_exercise(&mut rec, &cfg, &prog, &reference, &journal_path)?;

    let queue_push_pop_ns = rec.scope("probe.engine.queue", |_| probes::queue_push_pop_ns());
    let sb_exec_ns_per_uop = rec.scope("probe.isa.sb_exec", |_| probes::sb_exec_ns_per_uop(&prog));
    let (interp_minstr_per_s, interp_exit) =
        rec.scope("probe.isa.interp", |_| probes::interp_minstr_per_s(&prog))?;
    match interp_exit {
        Some(exit) if exit != oracle => {
            failures.push(format!(
                "functional run returned {exit}, the oracle {oracle}"
            ));
        }
        _ => {}
    }
    let cache_lookup_ns = rec.scope("probe.mem.cache_lookup", |_| probes::cache_lookup_ns(&cfg));
    let dram_read_ns = rec.scope("probe.mem.dram_read", |_| probes::dram_read_ns(&cfg));
    let mem = rec.scope("probe.mem.system", |_| probes::mem_probes(&cfg));
    let noc_send_ns = rec.scope("probe.noc.send", |_| probes::noc_send_ns(&cfg));
    let tlb_lookup_ns = rec.scope("probe.vm.tlb_lookup", |_| probes::tlb_lookup_ns(&cfg));
    let map_page_ns = rec.scope("probe.vm.map_page", |_| probes::map_page_ns(&cfg));
    let report_codec_us = rec.scope("probe.core.report_codec", |_| {
        let t0 = Instant::now();
        let decoded = RunReport::from_bytes(&reference.to_bytes());
        let us = t0.elapsed().as_secs_f64() * 1e6;
        decoded.map(|d| (us, d == reference))
    });
    let report_codec_us = match report_codec_us {
        Ok((us, true)) => us,
        Ok((_, false)) => return Err("RunReport did not survive its own codec".to_string()),
        Err(e) => return Err(format!("RunReport codec: {e}")),
    };
    rec.exit(bench);

    std::fs::write(
        trace_out,
        chrome_trace(rec.spans(), &format!("benchmark {} seed {seed}", w.name)),
    )
    .map_err(|e| format!("{}: {e}", trace_out.display()))?;

    // --- from spans -------------------------------------------------------
    let ms = |i: usize| rec.spans()[i].dur_ns() as f64 / 1e6;
    let plain_ms = median(&plain.iter().map(|s| ms(s.rep)).collect::<Vec<_>>());
    let profiled_ms = median(&profiled.iter().map(|(s, ..)| ms(s.rep)).collect::<Vec<_>>());
    let run_ms = median(&profiled.iter().map(|(s, ..)| ms(s.run)).collect::<Vec<_>>());
    let phase = |f: fn(&HostPhases) -> f64| {
        median(&profiled.iter().map(|(_, p, ..)| f(p)).collect::<Vec<_>>())
    };
    let unattributed = median(
        &profiled
            .iter()
            .map(|(s, p, ..)| {
                1.0 - (p.core_exec_ms + p.uncore_ms + p.merge_ms + p.other_ms) / ms(s.run)
            })
            .collect::<Vec<_>>(),
    );
    let one = |name: &str| median(&rec.durations_ms(name));

    // --- from the machine's accessors (identical on every profiled rep) ----
    let (_, phases, sb, spec) = &profiled[0];
    let c = Counters::of(&reference);
    let l1 = |leaf: &str| c.sum("mem.l1.", leaf);
    let l2 = |leaf: &str| c.sum("mem.l2.", leaf);
    let (cpu_tlb_hits, cpu_tlb_misses) = (c.sum("cpu.", "tlb.hits"), c.sum("cpu.", "tlb.misses"));
    let mttop_misses = c.sum("mttop.", "miss_count");
    let mttop_miss_ns: f64 = (0..cfg.n_mttops)
        .map(|i| c.get(&format!("mttop.{i}.avg_miss_ns")) * c.get(&format!("mttop.{i}.miss_count")))
        .sum();
    let l1_attempts = l1("hits") + l1("misses") + l1("retries");

    let values: Vec<(&'static str, f64)> = vec![
        ("engine.events_per_s", sim.events as f64 / (plain_ms / 1e3)),
        ("engine.queue_push_pop_ns", queue_push_pop_ns),
        ("core.run_ms", run_ms),
        ("core.core_exec_ms", phase(|p| p.core_exec_ms)),
        ("core.uncore_ms", phase(|p| p.uncore_ms)),
        ("core.merge_ms", phase(|p| p.merge_ms)),
        ("core.other_ms", phase(|p| p.other_ms)),
        ("core.unattributed_share", unattributed),
        ("core.machine_new_ms", one("core.machine_new")),
        ("core.machine_drop_ms", one("core.machine_drop")),
        ("core.zones", phases.zones as f64),
        ("core.zone_batches", phases.zone_batches as f64),
        ("core.spec_epochs", spec.epochs as f64),
        ("core.spec_members", spec.members as f64),
        ("core.spec_coverage", spec.coverage()),
        ("core.spec_commit_rate", spec.commit_rate()),
        ("core.spec_rolled_back", spec.rolled_back as f64),
        ("core.mifd_launches", c.get("mifd.launches")),
        ("core.mifd_chunks", c.get("mifd.chunks")),
        ("core.mifd_faults_forwarded", c.get("mifd.faults_forwarded")),
        ("core.report_codec_us", report_codec_us),
        ("core.profile_overhead_share", profiled_ms / plain_ms - 1.0),
        ("isa.sb_hits", sb.hits as f64),
        ("isa.sb_misses", sb.misses as f64),
        (
            "isa.sb_hit_rate",
            ratio(sb.hits as f64, (sb.hits + sb.misses) as f64),
        ),
        ("isa.sb_mean_decoded_len", sb.mean_decoded_len()),
        ("isa.decode_ms", phase(|p| p.decode_ms)),
        ("isa.interp_minstr_per_s", interp_minstr_per_s),
        ("isa.sb_exec_ns_per_uop", sb_exec_ns_per_uop),
        ("cpu.instructions", c.sum("cpu.", "instructions")),
        ("cpu.mem_ops", c.sum("cpu.", "mem_ops")),
        ("cpu.busy_us", c.sum("cpu.", "busy_us")),
        (
            "cpu.tlb_hit_rate",
            ratio(cpu_tlb_hits, cpu_tlb_hits + cpu_tlb_misses),
        ),
        ("cpu.page_faults", c.sum("cpu.", "page_faults")),
        (
            "mttop.thread_instructions",
            c.sum("mttop.", "thread_instructions"),
        ),
        (
            "mttop.warp_instructions",
            c.sum("mttop.", "warp_instructions"),
        ),
        (
            "mttop.mem_instructions",
            c.sum("mttop.", "mem_instructions"),
        ),
        (
            "mttop.coalesced_accesses",
            c.sum("mttop.", "coalesced_accesses"),
        ),
        ("mttop.miss_count", mttop_misses),
        ("mttop.avg_miss_ns", ratio(mttop_miss_ns, mttop_misses)),
        ("mttop.tlb_walks", c.sum("mttop.", "tlb_walks")),
        ("mttop.tasks", c.sum("mttop.", "tasks")),
        ("mem.l1_accesses", l1("hits") + l1("misses")),
        (
            "mem.l1_hit_rate",
            ratio(l1("hits"), l1("hits") + l1("misses")),
        ),
        ("mem.l1_misses", l1("misses")),
        ("mem.l1_merged_misses", l1("merged_misses")),
        ("mem.l1_retries", l1("retries")),
        ("mem.l1_retry_ratio", ratio(l1("retries"), l1_attempts)),
        ("mem.l1_invalidations", l1("invalidations")),
        ("mem.l1_writebacks", l1("writebacks")),
        ("mem.l2_requests", l2("gets") + l2("getm") + l2("puts")),
        (
            "mem.l2_hit_rate",
            ratio(l2("hits"), l2("hits") + l2("misses")),
        ),
        ("mem.l2_recalls", l2("recalls")),
        ("mem.dram_reads", c.get("mem.dram.reads")),
        ("mem.dram_writes", c.get("mem.dram.writes")),
        ("mem.cache_lookup_ns", cache_lookup_ns),
        ("mem.l1_hit_ns", mem.l1_hit_ns),
        ("mem.miss_txn_ns", mem.miss_txn_ns),
        ("mem.miss_txn_events", mem.miss_txn_events),
        ("mem.dram_read_ns", dram_read_ns),
        ("mem.portlog_replay_ns", mem.portlog_replay_ns),
        ("mem.spec_commit_ns", mem.spec_commit_ns),
        ("mem.spec_rollback_ns", mem.spec_rollback_ns),
        ("noc.messages", c.get("noc.messages")),
        ("noc.bytes", c.get("noc.bytes")),
        ("noc.hops", c.get("noc.hops")),
        (
            "noc.hops_per_msg",
            ratio(c.get("noc.hops"), c.get("noc.messages")),
        ),
        ("noc.send_ns", noc_send_ns),
        ("vm.page_faults", c.get("os.page_faults")),
        (
            "vm.tlb_misses",
            c.sum("cpu.", "tlb.misses") + c.sum("mttop.", "tlb.misses"),
        ),
        (
            "vm.tlb_walks",
            c.sum("cpu.", "tlb_walks") + c.sum("mttop.", "tlb_walks"),
        ),
        (
            "vm.shootdown_invalidations",
            c.sum("cpu.", "tlb.shootdown_invalidations")
                + c.sum("mttop.", "tlb.shootdown_invalidations"),
        ),
        ("vm.heap_live_bytes", c.get("heap.live_bytes")),
        ("vm.tlb_lookup_ns", tlb_lookup_ns),
        ("vm.map_page_ns", map_page_ns),
        ("xcc.compile_ms", one("xcc.compile")),
        ("xcc.source_bytes", source.len() as f64),
        ("xcc.program_instrs", prog.text.len() as f64),
        ("workloads.generate_ms", one("workloads.generate")),
        ("workloads.oracle_ms", one("workloads.oracle")),
        ("snap.checkpoint_ms", snap.checkpoint_ms),
        ("snap.restore_ms", snap.restore_ms),
        ("snap.image_kb", snap.image_bytes as f64 / 1024.0),
        (
            "snap.encode_mb_per_s",
            snap.image_bytes as f64 / 1e6 / (snap.checkpoint_ms / 1e3),
        ),
        ("snap.journal_append_us", snap.journal_append_us),
    ];

    let mut notes = vec![
        format!(
            "# traced: {} plain + {} profiled reps (plain median {plain_ms:.3} ms, profiled {profiled_ms:.3} ms), \
             1 sliced rep, checkpoint/restore at region start, probes",
            plain.len(),
            profiled.len()
        ),
        format!(
            "# profiled core.run {run_ms:.3} ms = core_exec + uncore + merge + other + {:.1}% unattributed",
            unattributed * 100.0
        ),
        format!("# spans: {} written to {}", rec.spans().len(), trace_out.display()),
    ];
    if interp_exit.is_none() {
        notes.push(
            "# isa.interp_minstr_per_s: the kernel waits on a CPU-side barrier, which synchronous \
             launches never reach; the rate is over the instructions retired until the step budget ended"
                .to_string(),
        );
    }
    notes.extend(failures.iter().map(|f| format!("# FAILED {f}")));
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
    fn counters_sum_only_indexed_components() {
        let c = Counters(
            [
                ("cpu.0.instructions", 5.0),
                ("cpu.1.instructions", 7.0),
                ("cpu.0.tlb.hits", 3.0),
                ("cpu.1.tlb.hits", 4.0),
                ("cpu.0.tlb_walks", 1.0),
                ("mem.l1.12.hits", 9.0),
                ("mem.l2.0.hits", 100.0),
                ("mem.dram.reads", 2.0),
            ]
            .map(|(k, v)| (k.to_string(), v))
            .to_vec(),
        );
        assert_eq!(c.sum("cpu.", "instructions"), 12.0);
        assert_eq!(c.sum("cpu.", "tlb.hits"), 7.0);
        assert_eq!(c.sum("cpu.", "hits"), 0.0);
        assert_eq!(c.sum("mem.l1.", "hits"), 9.0);
        assert_eq!(c.sum("mem.", "reads"), 0.0, "`dram` is not an index");
        assert_eq!(c.get("mem.dram.reads"), 2.0);
        assert_eq!(c.get("absent"), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
