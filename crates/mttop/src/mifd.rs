//! The MTTOP InterFace Device.

use ccsvm_engine::Stats;

/// The MTTOP InterFace Device (§3.1): abstracts the number and identity of
/// MTTOP cores behind a single device. CPU cores launch tasks at it via a
/// write syscall; it splits tasks into warp-sized chunks and assigns them
/// round-robin; it forwards MTTOP page faults to a CPU core as interrupts;
/// it sets an error register when a launch doesn't fit.
#[derive(Debug)]
pub struct Mifd {
    cursor: usize,
    error_register: bool,
    launches: u64,
    chunks: u64,
    rejected: u64,
    faults_forwarded: u64,
}

impl Default for Mifd {
    fn default() -> Self {
        Mifd::new()
    }
}

/// A planned chunk assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkAssign {
    /// Target MTTOP core index.
    pub core: usize,
    /// First tid of the chunk.
    pub first_tid: u64,
    /// Last tid (inclusive).
    pub last_tid: u64,
}

impl Mifd {
    /// A fresh device.
    pub fn new() -> Mifd {
        Mifd {
            cursor: 0,
            error_register: false,
            launches: 0,
            chunks: 0,
            rejected: 0,
            faults_forwarded: 0,
        }
    }

    /// Plans a launch of threads `first..=last` over cores with the given
    /// free-warp counts, round-robin from the device cursor (§3.1: "task
    /// assignment is done in a simple round-robin manner").
    ///
    /// Returns `None` — and sets the error register — when the task needs
    /// more warp contexts than are free.
    ///
    /// # Panics
    ///
    /// Panics if `last < first` or `free_warps` is empty.
    pub fn plan_launch(
        &mut self,
        first: u64,
        last: u64,
        lanes: usize,
        free_warps: &[usize],
    ) -> Option<Vec<ChunkAssign>> {
        assert!(last >= first, "empty launch");
        assert!(!free_warps.is_empty(), "no MTTOP cores");
        self.launches += 1;
        let nthreads = last - first + 1;
        let nchunks = nthreads.div_ceil(lanes as u64);
        let total_free: usize = free_warps.iter().sum();
        if (total_free as u64) < nchunks {
            self.error_register = true;
            self.rejected += 1;
            return None;
        }
        let mut remaining: Vec<usize> = free_warps.to_vec();
        let n = remaining.len();
        let mut out = Vec::with_capacity(nchunks as usize);
        let mut tid = first;
        for _ in 0..nchunks {
            while remaining[self.cursor % n] == 0 {
                self.cursor = (self.cursor + 1) % n;
            }
            let core = self.cursor % n;
            remaining[core] -= 1;
            self.cursor = (self.cursor + 1) % n;
            let last_tid = (tid + lanes as u64 - 1).min(last);
            out.push(ChunkAssign {
                core,
                first_tid: tid,
                last_tid,
            });
            tid = last_tid + 1;
        }
        self.chunks += out.len() as u64;
        Some(out)
    }

    /// Reads and clears the error register.
    pub fn take_error(&mut self) -> bool {
        std::mem::take(&mut self.error_register)
    }

    /// Counts a forwarded page-fault interrupt (§3.2.1).
    pub fn count_fault_forward(&mut self) {
        self.faults_forwarded += 1;
    }

    /// Device counters.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("launches", self.launches as f64);
        s.set("chunks", self.chunks as f64);
        s.set("rejected", self.rejected as f64);
        s.set("faults_forwarded", self.faults_forwarded as f64);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mifd_round_robin_assignment() {
        let mut m = Mifd::new();
        let plan = m.plan_launch(0, 31, 8, &[16, 16, 16]).unwrap();
        assert_eq!(plan.len(), 4);
        assert_eq!(
            plan[0],
            ChunkAssign {
                core: 0,
                first_tid: 0,
                last_tid: 7
            }
        );
        assert_eq!(plan[1].core, 1);
        assert_eq!(plan[2].core, 2);
        assert_eq!(plan[3].core, 0, "wraps around");
        assert_eq!(plan[3].first_tid, 24);
        assert_eq!(plan[3].last_tid, 31);
    }

    #[test]
    fn mifd_partial_tail_chunk() {
        let mut m = Mifd::new();
        let plan = m.plan_launch(0, 9, 8, &[16]).unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[1].first_tid, 8);
        assert_eq!(plan[1].last_tid, 9);
    }

    #[test]
    fn mifd_error_register_on_overflow() {
        let mut m = Mifd::new();
        assert!(m.plan_launch(0, 99, 8, &[4, 4]).is_none());
        assert!(m.take_error());
        assert!(!m.take_error(), "error register clears on read");
        assert_eq!(m.stats().get("rejected"), 1.0);
    }

    #[test]
    fn mifd_skips_busy_cores() {
        let mut m = Mifd::new();
        let plan = m.plan_launch(0, 15, 8, &[0, 2, 0]).unwrap();
        assert!(plan.iter().all(|c| c.core == 1));
    }
}
