//! Differential suite for the decoded-superblock fast path (DESIGN §11,
//! the `SystemConfig::sb_cache` knob): the decoded image is a host-side
//! function of the text only, so every observable of a run — outcome, exit
//! code, stats, simulated timings, printed output, event count, even the
//! snapshot image bytes — must be bit-identical with the knob on and off,
//! fault-free and under an active fault plan,
//! and across checkpoint/restore in either direction (checkpoint with it
//! on, restore with it off, and vice versa — snapshots are portable across
//! the host knob).

use ccsvm::{Machine, Outcome, RunReport, SystemConfig, Time};
use ccsvm_mttop::MttopConfig;

mod common;
use common::{compile, faulty_cfg, matmul_n16};

/// The CPU+MTTOP workload shape the fault and snapshot suites use: real
/// NoC/L2/DRAM traffic, MTTOP offload, and straight-line ALU bodies long
/// enough for the decoder to form multi-op superblocks.
fn vecadd_src(n: u64) -> String {
    format!(
        "struct Args {{ v1: int*; v2: int*; sum: int*; done: int*; }}
         _MTTOP_ fn add(tid: int, a: Args*) {{
             a->sum[tid] = a->v1[tid] * 5 + a->v2[tid] * 3 + tid;
             xt_msignal(a->done, tid);
         }}
         _CPU_ fn main() -> int {{
             let n = {n};
             let a: Args* = malloc(sizeof(Args));
             a->v1 = malloc(n * 8);
             a->v2 = malloc(n * 8);
             a->sum = malloc(n * 8);
             a->done = malloc(n * 8);
             for (let i = 0; i < n; i = i + 1) {{
                 a->v1[i] = i * 3;
                 a->v2[i] = i + 7;
                 a->done[i] = 0;
             }}
             let err = xt_create_mthread(add, a as int, 0, n - 1);
             if (err != 0) {{ return -1; }}
             xt_wait(a->done, 0, n - 1);
             let total = 0;
             for (let i = 0; i < n; i = i + 1) {{ total = total + a->sum[i]; }}
             return total;
         }}"
    )
}

fn run_with(mut cfg: SystemConfig, src: &str, sb_cache: bool) -> RunReport {
    cfg.sb_cache = sb_cache;
    Machine::new(cfg, compile(src)).run()
}

/// Runs `src` with the decoded image off and on, asserting both reports
/// are equal, and returns the image-off reference.
fn differential(cfg: &SystemConfig, src: &str, label: &str) -> RunReport {
    let reference = run_with(cfg.clone(), src, false);
    let r = run_with(cfg.clone(), src, true);
    assert_eq!(
        reference, r,
        "{label}: the decoded image diverged from the image-off reference"
    );
    reference
}

#[test]
fn cache_toggle_is_invisible_on_tiny_machine() {
    let r = differential(&SystemConfig::tiny(), &vecadd_src(64), "vecadd_n64");
    assert_eq!(r.outcome, Outcome::Completed);
    assert_eq!(
        r.exit_code,
        (0..64).map(|i| i * 3 * 5 + (i + 7) * 3 + i).sum::<u64>()
    );
}

#[test]
fn cache_toggle_is_invisible_on_paper_default_machine() {
    // Full-size machine (10 MTTOP cores of 128 single-lane, fine-grained
    // contexts): every MTTOP issue with the knob on goes through the
    // single-lane step.
    let r = differential(&SystemConfig::paper_default(), &matmul_n16(), "matmul_n16");
    assert_eq!(r.outcome, Outcome::Completed);
}

#[test]
fn cache_toggle_is_invisible_on_lockstep_warps() {
    // The APU baseline's 8-lane lockstep warps on the full-size machine: the
    // warp path with min-PC reconvergence, the cursor's lagging-lane cap and
    // the ALU sprint (`try_sprint` requires lockstep).
    let mut cfg = SystemConfig::paper_default();
    cfg.mttop = MttopConfig::apu_gpu(0);
    let r = differential(&cfg, &matmul_n16(), "matmul_n16 lockstep");
    assert_eq!(r.outcome, Outcome::Completed);
}

#[test]
fn fine_grained_control_flow_is_invisible() {
    // The single-lane step executes branches, calls, returns and memory
    // instructions in place. Barrier spinning (apsp) and recursive tree
    // traversal (barnes_hut's force phase) lean on exactly those.
    use ccsvm_workloads::{apsp, barnes_hut};
    let cfg = SystemConfig::paper_default();
    let ap = apsp::ApspParams::new(16, 42);
    let bh = barnes_hut::BhParams::new(32, 42);
    let apsp_src = apsp::xthreads_source(&ap);
    let bh_src = barnes_hut::xthreads_source(&bh);
    let cases = [
        (&apsp_src, "apsp_n16", apsp::reference_checksum(&ap)),
        (&bh_src, "bh_b32", barnes_hut::oracle_checksum(&bh)),
    ];
    let references: Vec<RunReport> = cases
        .iter()
        .map(|(src, label, expected)| {
            let r = differential(&cfg, src, label);
            assert_eq!(r.outcome, Outcome::Completed, "{label}");
            assert_eq!(r.exit_code, *expected, "{label}");
            let mut on = cfg.clone();
            on.sb_cache = true;
            let mut m = Machine::new(on, compile(src));
            m.run();
            assert!(m.sb_stats().hits > 0, "{label}: no run entered");
            r
        })
        .collect();
    let uninterrupted = &references[0];
    let at = Time::from_ps(uninterrupted.time.as_ps() / 2);
    for checkpoint_on in [false, true] {
        let resumed = checkpoint_cross_restore(&cfg, &apsp_src, at, checkpoint_on);
        assert_eq!(
            &resumed, uninterrupted,
            "apsp_n16: checkpoint at {at} with sb_cache={checkpoint_on} restored with \
             the opposite setting diverged"
        );
    }
}

#[test]
fn cache_toggle_is_invisible_under_fault_plan() {
    for seed in [3, 7] {
        let r = differential(
            &faulty_cfg(seed),
            &vecadd_src(32),
            &format!("faulty seed {seed}"),
        );
        assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
        assert!(
            r.stats.get("noc.retransmissions") > 0.0,
            "seed {seed}: NoC faults must actually fire in the compared runs"
        );
    }
}

#[test]
fn cache_actually_hits_in_the_compared_runs() {
    // Guard against the differential being vacuous: with the decoded image
    // on, the cores must enter runs of it.
    let mut cfg = SystemConfig::tiny();
    cfg.sb_cache = true;
    let mut m = Machine::new(cfg, compile(&vecadd_src(64)));
    let r = m.run();
    assert_eq!(r.outcome, Outcome::Completed);
    let sb = m.sb_stats();
    assert!(
        sb.hits > 0,
        "no run entered — the decoded image never engaged"
    );
    assert!(sb.decoded_ops > 0, "nothing was decoded");

    // And with the decoded image off, no core may enter it.
    let mut cfg = SystemConfig::tiny();
    cfg.sb_cache = false;
    let mut m = Machine::new(cfg, compile(&vecadd_src(64)));
    m.run();
    assert_eq!(m.sb_stats().hits, 0, "--no-sb-cache still served hits");
}

/// The text is decoded once per machine, not once per core: what the build
/// reports cannot depend on how many cores read the image, while the run
/// entries do come from the cores.
#[test]
fn decode_happens_once_per_machine() {
    let prog = compile(&vecadd_src(64));
    let mut built = Vec::new();
    for cfg in [SystemConfig::tiny(), SystemConfig::paper_default()] {
        for sb_cache in [true, false] {
            let mut cfg = cfg.clone();
            cfg.sb_cache = sb_cache;
            let label = format!("{}+{} cores, sb_cache {sb_cache}", cfg.n_cpus, cfg.n_mttops);
            let mut m = Machine::new(cfg, prog.clone());
            assert_eq!(m.run().outcome, Outcome::Completed, "{label}");
            let sb = m.sb_stats();
            assert_eq!(sb.hits > 0, sb_cache, "{label}: {} run entries", sb.hits);
            built.push((sb.misses, sb.decoded_ops));
        }
    }
    assert!(built[0].0 > 0 && built[0].1 > built[0].0, "{:?}", built[0]);
    assert!(built.iter().all(|b| *b == built[0]), "{built:?}");
}

/// Pause a fresh machine (decoded image on iff `checkpoint_on`) at
/// simulated time `at`, then restore the snapshot into a machine with the
/// opposite setting and finish the run.
fn checkpoint_cross_restore(
    cfg: &SystemConfig,
    src: &str,
    at: Time,
    checkpoint_on: bool,
) -> RunReport {
    let mut ccfg = cfg.clone();
    ccfg.sb_cache = checkpoint_on;
    let mut m = Machine::new(ccfg, compile(src));
    assert!(
        m.run_until(at).is_none(),
        "run finished before the checkpoint cycle {at} — pick an earlier one"
    );
    let bytes = m.checkpoint_bytes();
    let mut rcfg = cfg.clone();
    rcfg.sb_cache = !checkpoint_on;
    let mut restored =
        Machine::restore_bytes(rcfg, compile(src), &bytes).expect("restore must succeed");
    restored.run()
}

#[test]
fn checkpoint_restore_crosses_the_cache_boundary() {
    let cfg = SystemConfig::tiny();
    let src = vecadd_src(32);
    let uninterrupted = run_with(cfg.clone(), &src, false);
    assert_eq!(uninterrupted.outcome, Outcome::Completed);
    // Early and mid-offload checkpoints, in both toggle directions.
    for den in [16, 2] {
        let at = Time::from_ps(uninterrupted.time.as_ps() / den);
        for checkpoint_on in [false, true] {
            let resumed = checkpoint_cross_restore(&cfg, &src, at, checkpoint_on);
            assert_eq!(
                resumed, uninterrupted,
                "checkpoint at {at} with sb_cache={checkpoint_on} restored with \
                 the opposite setting diverged"
            );
        }
    }
}

#[test]
fn snapshot_bytes_are_identical_on_vs_off() {
    // The decoded image is excluded from the snapshot entirely, so pausing
    // runs with it on and off at the same cycle must produce byte-identical
    // snapshots — this is what makes images portable across the
    // `--no-sb-cache` knob.
    let cfg = SystemConfig::tiny();
    let src = vecadd_src(32);
    let done = run_with(cfg.clone(), &src, false);
    let at = Time::from_ps(done.time.as_ps() / 2);
    let mut imgs = Vec::new();
    for sb_cache in [false, true] {
        let mut c = cfg.clone();
        c.sb_cache = sb_cache;
        let mut m = Machine::new(c, compile(&src));
        assert!(m.run_until(at).is_none());
        imgs.push(m.checkpoint_bytes());
    }
    assert_eq!(
        imgs[0], imgs[1],
        "snapshot bytes differ between decoded-image-off and -on runs"
    );
}
