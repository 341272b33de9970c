//! Dense matrix multiplication (paper §5.2, Figures 5 and 9).
//!
//! "a (dense) matrix multiplication kernel that is launched from a CPU to as
//! many MTTOP cores as can be utilized for the matrix size". Threads use a
//! grid-stride loop so one launch covers any `n` with at most
//! `max_threads` MTTOP threads.

use crate::{lcg_xc, MARK_END, MARK_START};

/// Inputs are `n×n` integer matrices filled from the LCG (`% 100`).
#[derive(Clone, Copy, Debug)]
pub struct MatmulParams {
    /// Matrix dimension.
    pub n: u64,
    /// MTTOP threads to launch (clamped to the work and the chip).
    pub max_threads: u64,
    /// LCG seed.
    pub seed: u64,
}

impl MatmulParams {
    /// `n×n` with the paper-default 1280-thread chip.
    pub fn new(n: u64, seed: u64) -> MatmulParams {
        MatmulParams {
            n,
            max_threads: 1280,
            seed,
        }
    }

    /// Threads actually launched.
    pub fn threads(&self) -> u64 {
        (self.n * self.n).min(self.max_threads).max(1)
    }
}

/// Shared program prologue: allocate and LCG-fill `a` and `b`.
fn init_xc(p: &MatmulParams) -> String {
    format!(
        "{lcg}
         const N = {n};
         const SEED = {seed};
         fn fill(a: int*, b: int*) {{
             let x = SEED;
             for (let i = 0; i < N * N; i = i + 1) {{
                 x = x * LCG_MUL + LCG_ADD;
                 a[i] = (x >> 33) % 100;
                 x = x * LCG_MUL + LCG_ADD;
                 b[i] = (x >> 33) % 100;
             }}
         }}
         fn checksum(c: int*) -> int {{
             let s = 0;
             for (let i = 0; i < N * N; i = i + 1) {{ s = s + c[i] * (i % 17 + 1); }}
             return s;
         }}",
        lcg = lcg_xc(),
        n = p.n,
        seed = p.seed,
    )
}

/// The CCSVM/xthreads version: init on CPU, one launch, wait, checksum.
pub fn xthreads_source(p: &MatmulParams) -> String {
    format!(
        "{init}
         struct Args {{ a: int*; b: int*; c: int*; done: int*; nt: int; }}
         _MTTOP_ fn mm(tid: int, g: Args*) {{
             let n = N;
             let total = n * n;
             let idx = tid;
             while (idx < total) {{
                 let i = idx / n;
                 let j = idx % n;
                 let s = 0;
                 for (let k = 0; k < n; k = k + 1) {{
                     s = s + g->a[i * n + k] * g->b[k * n + j];
                 }}
                 g->c[idx] = s;
                 idx = idx + g->nt;
             }}
             xt_msignal(g->done, tid);
         }}
         _CPU_ fn main() -> int {{
             let g: Args* = malloc(sizeof(Args));
             g->a = malloc(N * N * 8);
             g->b = malloc(N * N * 8);
             g->c = malloc(N * N * 8);
             g->nt = {threads};
             g->done = malloc(g->nt * 8);
             fill(g->a, g->b);
             for (let t = 0; t < g->nt; t = t + 1) {{ g->done[t] = 0; }}
             print_int({start});
             if (xt_create_mthread(mm, g as int, 0, g->nt - 1) != 0) {{ return -1; }}
             xt_wait(g->done, 0, g->nt - 1);
             print_int({end});
             return checksum(g->c);
         }}",
        init = init_xc(p),
        threads = p.threads(),
        start = MARK_START,
        end = MARK_END,
    )
}

/// Single-CPU version (the denominator of Figures 5/6: "relative to the AMD
/// CPU core").
pub fn cpu_source(p: &MatmulParams) -> String {
    format!(
        "{init}
         _CPU_ fn main() -> int {{
             let a: int* = malloc(N * N * 8);
             let b: int* = malloc(N * N * 8);
             let c: int* = malloc(N * N * 8);
             fill(a, b);
             print_int({start});
             for (let i = 0; i < N; i = i + 1) {{
                 for (let j = 0; j < N; j = j + 1) {{
                     let s = 0;
                     for (let k = 0; k < N; k = k + 1) {{
                         s = s + a[i * N + k] * b[k * N + j];
                     }}
                     c[i * N + j] = s;
                 }}
             }}
             print_int({end});
             return checksum(c);
         }}",
        init = init_xc(p),
        start = MARK_START,
        end = MARK_END,
    )
}

/// Rust reference: the expected checksum.
pub fn reference_checksum(p: &MatmulParams) -> u64 {
    let n = p.n as usize;
    let mut a = vec![0i64; n * n];
    let mut b = vec![0i64; n * n];
    let mut x = p.seed;
    for i in 0..n * n {
        x = crate::lcg_next(x);
        a[i] = ((x >> 33) % 100) as i64;
        x = crate::lcg_next(x);
        b[i] = ((x >> 33) % 100) as i64;
    }
    let mut s: i64 = 0;
    for i in 0..n {
        for j in 0..n {
            let mut c: i64 = 0;
            for k in 0..n {
                c = c.wrapping_add(a[i * n + k].wrapping_mul(b[k * n + j]));
            }
            s = s.wrapping_add(c.wrapping_mul((i * n + j) as i64 % 17 + 1));
        }
    }
    s as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_matches_reference_both_versions() {
        for n in [1, 2, 4, 7] {
            let p = MatmulParams {
                n,
                max_threads: 16,
                seed: 42,
            };
            let expect = reference_checksum(&p);
            let got = crate::run_functional(&xthreads_source(&p), 500_000_000);
            assert_eq!(got, expect, "xthreads n={n}");
            let got = crate::run_functional(&cpu_source(&p), 500_000_000);
            assert_eq!(got, expect, "cpu n={n}");
        }
    }

    #[test]
    fn thread_clamping() {
        assert_eq!(MatmulParams::new(4, 0).threads(), 16);
        assert_eq!(MatmulParams::new(64, 0).threads(), 1280);
        let p = MatmulParams {
            n: 64,
            max_threads: 64,
            seed: 0,
        };
        assert_eq!(p.threads(), 64);
    }

    #[test]
    fn different_seeds_differ() {
        let a = reference_checksum(&MatmulParams::new(4, 1));
        let b = reference_checksum(&MatmulParams::new(4, 2));
        assert_ne!(a, b);
    }
}
