//! The eight workloads: program, machine configuration, oracle, and why each
//! is here. The seed reaches the program only through its `*Params`.

use ccsvm::{ProtocolKind, SystemConfig};
use ccsvm_workloads as wl;

/// The XC program a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Program {
    /// `matmul::xthreads_source`, `n × n`, one MTTOP launch.
    MatmulMttop(u64),
    /// `matmul::cpu_source`, `n × n`, on one CPU core.
    MatmulCpu(u64),
    /// Vector addition over `n` elements on one CPU core ([`vecadd_stream_source`]).
    VecaddStream(u64),
    /// `barnes_hut::xthreads_source`, this many bodies, one step.
    BarnesHut(u64),
    /// `apsp::xthreads_source`, `n` vertices: one launch, `n` barrier rounds.
    Apsp(u64),
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why it was chosen; also the `why` of `BENCHMARK.json` (one line).
    pub why: &'static str,
    program: Program,
    pub protocol: ProtocolKind,
    /// `1` runs the serial event loop; `2` the speculative epoch executor.
    pub sim_threads: usize,
}

pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "matmul_mttop",
        why: "Fig. 5/9's program (xthreads matmul n=48, directory): MTTOP batch execution is 2/3 of \
              run(), 165 k TLB walks, 47 % of L1 attempts are retries; continues the old matmul_n48 row",
        program: Program::MatmulMttop(48),
        protocol: ProtocolKind::Directory,
        sim_threads: 1,
    },
    Workload {
        name: "matmul_cpu",
        why: "matmul n=64 on one CPU core (98 KB > 64 KB L1): cpu, superblock dispatch, L1-miss-to-L2; \
              MTTOP/MIFD idle, so the bypass for every MTTOP or executor change",
        program: Program::MatmulCpu(64),
        protocol: ProtocolKind::Directory,
        sim_threads: 1,
    },
    Workload {
        name: "matmul_snoop",
        why: "xthreads matmul n=32 under mesi-snoop: broadcast probes (30 events a cold miss, 7 under \
              the directory) make mem, noc and engine, not the cores, most of run()",
        program: Program::MatmulMttop(32),
        protocol: ProtocolKind::MesiSnoop,
        sim_threads: 1,
    },
    Workload {
        name: "matmul_dragon",
        why: "same program under dragon write-update: a protocol-table change that helps one \
              protocol and costs the other shows against matmul_snoop",
        program: Program::MatmulMttop(32),
        protocol: ProtocolKind::Dragon,
        sim_threads: 1,
    },
    Workload {
        name: "matmul_epochs",
        why: "matmul_mttop's program at sim_threads 2 with speculation: run_epochs, PortLog merge, \
              spec save/undo; every sim_* must equal matmul_mttop's",
        program: Program::MatmulMttop(48),
        protocol: ProtocolKind::Directory,
        sim_threads: 2,
    },
    Workload {
        name: "vecadd_stream",
        why: "vecadd n=196,608 on one CPU core (4.5 MB > 4 MB L2): 115 k DRAM accesses, 25 k L2 recalls, \
              1.4 M events; event queue, banks, NoC and DRAM dominate, dram.rs's per-access env::var is paid",
        program: Program::VecaddStream(196_608),
        protocol: ProtocolKind::Directory,
        sim_threads: 1,
    },
    Workload {
        name: "bh_pointer",
        why: "Fig. 7 (barnes_hut 256 bodies, 1 step): CPU builds the tree with guest malloc (0.9 M CPU \
              instructions), MTTOP chases its pointers: 35 k misses and the most L1 invalidations; sim_* move with the seed",
        program: Program::BarnesHut(256),
        protocol: ProtocolKind::Directory,
        sim_threads: 1,
    },
    Workload {
        name: "apsp_barrier",
        why: "Fig. 6 (apsp n=32): 1 launch, 32 spin-wait barrier rounds: 4.4 M MTTOP instructions over \
              68 k events; sim_* vary with the seed, so their bound is wide: the ledger replay holds \
              them exact",
        program: Program::Apsp(32),
        protocol: ProtocolKind::Directory,
        sim_threads: 1,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Generates the XC source for `seed`.
    pub fn source(&self, seed: u64) -> String {
        match self.program {
            Program::MatmulMttop(n) => {
                wl::matmul::xthreads_source(&wl::matmul::MatmulParams::new(n, seed))
            }
            Program::MatmulCpu(n) => {
                wl::matmul::cpu_source(&wl::matmul::MatmulParams::new(n, seed))
            }
            Program::VecaddStream(n) => vecadd_stream_source(&wl::vecadd::VecaddParams { n, seed }),
            Program::BarnesHut(bodies) => wl::barnes_hut::xthreads_source(&bh_params(bodies, seed)),
            Program::Apsp(n) => wl::apsp::xthreads_source(&wl::apsp::ApspParams::new(n, seed)),
        }
    }

    /// The exit code a correct run returns, from the Rust oracle.
    pub fn oracle(&self, seed: u64) -> u64 {
        match self.program {
            Program::MatmulMttop(n) | Program::MatmulCpu(n) => {
                wl::matmul::reference_checksum(&wl::matmul::MatmulParams::new(n, seed))
            }
            Program::VecaddStream(n) => {
                wl::vecadd::reference_checksum(&wl::vecadd::VecaddParams { n, seed })
            }
            Program::BarnesHut(bodies) => wl::barnes_hut::oracle_checksum(&bh_params(bodies, seed)),
            Program::Apsp(n) => wl::apsp::reference_checksum(&wl::apsp::ApspParams::new(n, seed)),
        }
    }

    /// The figure binaries' machine (`bench_cfg`: the paper's Table 2, 60 s
    /// simulated-time cap) under this workload's protocol and executor.
    pub fn config(&self, host_profile: bool) -> SystemConfig {
        let mut cfg = ccsvm_bench::bench_cfg(self.sim_threads);
        cfg.protocol = self.protocol;
        cfg.host_profile = host_profile;
        cfg
    }
}

fn bh_params(bodies: u64, seed: u64) -> wl::barnes_hut::BhParams {
    wl::barnes_hut::BhParams {
        bodies,
        steps: 1,
        max_threads: 1280,
        seed,
    }
}

/// Vector addition that streams: `workloads::vecadd`'s data and checksum, so
/// `vecadd::reference_checksum` is its oracle, computed by one CPU core.
///
/// The Figure 4 form launches one MTTOP thread per element. The MIFD refuses
/// a launch of more threads than the chip has contexts (1280), `main` then
/// returns -1, and no size above 1280 elements passes its oracle. A size that
/// exceeds the L2 therefore cannot use it. What such a run still simulated
/// before the refused launch, the CPU streaming the arrays through L1, L2 and
/// DRAM, is the stress this workload is here for.
fn vecadd_stream_source(p: &wl::vecadd::VecaddParams) -> String {
    format!(
        "{lcg}
         const N = {n};
         const SEED = {seed};
         _CPU_ fn main() -> int {{
             let v1: int* = malloc(N * 8);
             let v2: int* = malloc(N * 8);
             let sum: int* = malloc(N * 8);
             let x = SEED;
             for (let i = 0; i < N; i = i + 1) {{
                 x = x * LCG_MUL + LCG_ADD;
                 v1[i] = (x >> 33) % 1000;
                 x = x * LCG_MUL + LCG_ADD;
                 v2[i] = (x >> 33) % 1000;
             }}
             print_int({start});
             for (let i = 0; i < N; i = i + 1) {{ sum[i] = v1[i] + v2[i]; }}
             print_int({end});
             let s = 0;
             for (let i = 0; i < N; i = i + 1) {{ s = s + sum[i]; }}
             return s;
         }}",
        lcg = wl::lcg_xc(),
        n = p.n,
        seed = p.seed,
        start = wl::MARK_START,
        end = wl::MARK_END,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_whys_are_one_line() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::metrics::valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(
                WORKLOADS[..i].iter().all(|o| o.name != w.name),
                "{}",
                w.name
            );
            assert!(
                w.sim_threads <= 2,
                "{}: load is at most nproc threads",
                w.name
            );
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("spmm").is_none());
    }

    #[test]
    fn epochs_workload_runs_mttop_workloads_program() {
        let (a, b) = (
            find("matmul_mttop").unwrap(),
            find("matmul_epochs").unwrap(),
        );
        assert_eq!(a.source(9), b.source(9));
        assert_eq!(a.protocol, b.protocol);
        assert_eq!((a.sim_threads, b.sim_threads), (1, 2));
    }

    #[test]
    fn seed_reaches_the_source_and_the_oracle() {
        for w in &WORKLOADS {
            assert_eq!(w.source(5), w.source(5), "{}", w.name);
            assert_ne!(w.source(5), w.source(6), "{}", w.name);
        }
        let v = find("vecadd_stream").unwrap();
        assert_ne!(v.oracle(5), v.oracle(6));
    }

    /// The streaming vecadd shares `workloads::vecadd`'s oracle; check that
    /// on the functional interpreter at a size that takes no time.
    #[test]
    fn vecadd_stream_matches_the_vecadd_oracle() {
        let p = wl::vecadd::VecaddParams { n: 100, seed: 5 };
        let got = wl::run_functional(&vecadd_stream_source(&p), 1_000_000);
        assert_eq!(got, wl::vecadd::reference_checksum(&p));
    }
}
