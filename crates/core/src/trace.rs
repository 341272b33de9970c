//! The machine's event trace (DESIGN §9.4): a bounded ring of typed
//! records, one per event the run loop dispatches.
//!
//! [`SystemConfig::trace_events`](crate::SystemConfig::trace_events) is the
//! capacity; 0 records nothing. The machine records each event
//! `Machine::drain` pops. Pause images leave it out; replay bundles carry it.

use std::collections::VecDeque;
use std::fmt;

use ccsvm_engine::Time;
use ccsvm_mem::MemKind;
use ccsvm_snap::{Codec, SnapError, SnapReader, SnapWriter};

/// Declares [`TraceEv`] and its bundle codec from one list of tagged
/// variants, so the two cannot drift apart. Every operand is a `u64`,
/// `usize` or [`MemKind`], each of which a bundle stores as a `u64`.
macro_rules! trace_ev {
    ($($(#[doc = $doc:literal])* $tag:literal $name:ident { $($f:ident: $t:ty),* })*) => {
        /// One dispatched machine event without its payload: a variant per
        /// event kind of the machine's run loop.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum TraceEv {
            $($(#[doc = $doc])* $name { $($f: $t),* },)*
        }

        ccsvm_snap::codec!(enum TraceEv { $($tag => $name { $($f),* },)* });
    };
}

trace_ev! {
    /// A coherence message or DRAM completion. `endpoint` is the requesting
    /// port of a `ReqArrive`, the receiving port of a `DirArrive`, and the
    /// bank of every other kind.
    0 Mem { kind: MemKind, block: u64, endpoint: usize }
    /// A CPU core's batch, with its schedule sequence.
    1 CpuBatch { core: usize, seq: u64 }
    /// An MTTOP core's batch, with its schedule sequence.
    2 MttopBatch { core: usize, seq: u64 }
    /// A launch syscall for threads `first..=last` reached the MIFD.
    3 MifdLaunch { cpu: usize, first: u64, last: u64 }
    /// A task chunk starting at thread `first` reached an MTTOP core.
    4 ChunkArrive { core: usize, first: u64 }
    /// A device or OS response released a blocked syscall.
    5 ResumeSyscall { cpu: usize, ret: u64 }
    /// An MTTOP page fault on `va`, forwarded by the MIFD, reached CPU 0.
    6 FaultToCpu { mcore: usize, va: u64 }
    /// The fault's resolution reached the MTTOP core.
    7 FaultAckAtMttop { mcore: usize, warp: usize }
    /// A shootdown IPI for `va` reached a CPU.
    8 IpiArrive { target: usize, va: u64 }
    /// A shootdown flush for `va` reached an MTTOP core.
    9 FlushArrive { target: usize, va: u64 }
    /// A shootdown ack reached its initiator.
    10 ShootAck { initiator: usize }
    /// An OS handler retried a PTE store.
    11 HandlerRetry { cpu: usize }
    /// A forward-progress watchdog check.
    12 WatchdogTick {}
}

/// One trace entry: the `seq`-th event recorded, dispatched at `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Events recorded before this one.
    pub seq: u64,
    /// Simulated time of the event.
    pub at: Time,
    /// What happened.
    pub ev: TraceEv,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>8}] {:>12} {:?}",
            self.seq,
            self.at.to_string(),
            self.ev
        )
    }
}

/// A bounded ring of the most recent [`TraceRecord`]s, oldest first.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    cap: usize,
    total: u64,
    records: VecDeque<TraceRecord>,
}

impl Trace {
    /// A ring holding at most `cap` records; 0 records nothing.
    pub fn new(cap: usize) -> Trace {
        Trace {
            cap,
            ..Trace::default()
        }
    }

    /// Appends the record `ev` builds, evicting the oldest once the ring is
    /// full. At capacity 0 it returns without calling `ev`, so a machine
    /// with the trace off pays one branch per event.
    pub(crate) fn record(&mut self, at: Time, ev: impl FnOnce() -> TraceEv) {
        if self.cap == 0 {
            return;
        }
        if self.records.len() == self.cap {
            self.records.pop_front();
        }
        let seq = self.total;
        self.records.push_back(TraceRecord { seq, at, ev: ev() });
        self.total += 1;
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl ExactSizeIterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Events recorded in total, retained or not.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// A header line, then one line per retained record.
impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.records.len();
        write!(f, "trace: last {n} of {} events", self.total)?;
        self.records.iter().try_for_each(|r| write!(f, "\n{r}"))
    }
}

/// Capacity, total, then each retained record's time and event (its `seq`
/// follows from the total).
impl Codec for Trace {
    fn put(&self, w: &mut SnapWriter) {
        (self.cap, self.total, self.records.len()).put(w);
        self.records.iter().for_each(|r| (r.at, r.ev).put(w));
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Trace, SnapError> {
        let (cap, total): (usize, u64) = Codec::get(r)?;
        let n = r.get_count(<(Time, TraceEv)>::MIN_BYTES)?;
        if n > cap || n as u64 > total {
            return Err(SnapError::Corrupt {
                what: format!("trace holds {n} records, capacity {cap}, total {total}"),
            });
        }
        let mut records = VecDeque::with_capacity(n);
        for seq in total - n as u64..total {
            let (at, ev) = Codec::get(r)?;
            records.push_back(TraceRecord { seq, at, ev });
        }
        Ok(Trace {
            cap,
            total,
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_last_k_in_order() {
        let mut t = Trace::new(4);
        let mut off = Trace::new(0);
        for cpu in 0..10 {
            t.record(Time::from_ns(cpu as u64), || TraceEv::HandlerRetry { cpu });
            off.record(Time::ZERO, || unreachable!("capacity 0 builds no record"));
        }
        assert_eq!(t.total(), 10);
        let seqs: Vec<u64> = t.records().map(|r| r.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9]);
        assert_eq!((off.total(), off.records().len()), (0, 0));
    }
}
