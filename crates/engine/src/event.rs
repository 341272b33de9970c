//! Deterministic timestamped event queue.
//!
//! The contract: pop in non-decreasing time order, FIFO among equal
//! timestamps.
//!
//! [`EventQueue`] is a two-level calendar queue: a ring of per-tick FIFO
//! buckets for the near future plus an overflow heap for the far future.
//! Pushes into the active window are O(1); pops scan one small bucket.
//! Discrete-event simulators schedule almost everything within a few hundred
//! nanoseconds of "now" (cache hits, NoC hops, DRAM bursts), so nearly all
//! traffic stays in the ring and never pays a heap sift.
//!
//! The original `BinaryHeap` with an explicit (time, seq) ordering survives
//! in this file's tests as `ReferenceEventQueue`, the executable
//! specification: the differential tests drive both queues with identical
//! operation sequences and assert identical drain order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Time;

/// Bucket width: 2^10 ps ≈ 1 ns, finer than every clock period in the
/// modelled chip (2.9 GHz CPU = 345 ps is the fastest tick).
const BUCKET_SHIFT: u32 = 10;
/// Ring size: 1024 buckets × 1 ns ≈ 1.05 µs window, comfortably past the
/// longest common latency (DRAM ≈ 100 ns); only rare long timers (directory
/// timeouts, the watchdog) land in the overflow heap.
const NUM_BUCKETS: usize = 1024;
/// Picoseconds covered by the ring window.
const SPAN: u64 = (NUM_BUCKETS as u64) << BUCKET_SHIFT;

/// A deterministic priority queue of timestamped events.
///
/// Events pop in non-decreasing time order; events with equal timestamps pop
/// in the order they were pushed (FIFO). This makes whole-simulation replay
/// bit-for-bit deterministic regardless of container internals. The
/// structure is a calendar queue (Brown 1988) specialised for the
/// simulator: the window never rotates mid-flight, it *jumps* to the next
/// populated era whenever the ring drains, which keeps the mapping from
/// time to bucket a pair of shifts.
///
/// Invariants:
///
/// * Every ring event lives in a bucket index ≥ `cursor`; buckets below the
///   cursor are empty.
/// * Events in bucket `b > cursor` have time ≥ the bucket's start, which
///   exceeds the time of everything in the cursor bucket. Hence the global
///   minimum (time, seq) is always inside the cursor bucket (or, if the
///   ring is empty, at the top of the overflow heap — overflow times are ≥
///   the window end, i.e. later than the entire ring).
/// * Pushes that land before the cursor (re-scheduling at "now" after
///   earlier same-tick pops, or an out-of-window past time) are clamped
///   *into* the cursor bucket; the min-scan on pop still yields the exact
///   (time, seq) order, so clamping never reorders anything.
///
/// # Examples
///
/// ```
/// use ccsvm_engine::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(2), "b");
/// q.push(Time::from_ns(1), "a");
/// q.push(Time::from_ns(2), "c"); // same time as "b", pushed later
/// let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Near-future ring: per-bucket FIFO vectors of (time, seq, event).
    buckets: Vec<Vec<(Time, u64, E)>>,
    /// One bit per bucket; lets the pop path skip runs of empty buckets
    /// with `trailing_zeros` instead of probing vectors.
    occupied: [u64; NUM_BUCKETS / 64],
    /// Start of the ring window in ps, always a multiple of `SPAN`.
    window_start: u64,
    /// Lowest possibly-nonempty bucket index.
    cursor: usize,
    /// Events in the ring.
    ring_len: usize,
    /// Far future: everything at or beyond `window_start + SPAN`.
    overflow: BinaryHeap<Entry<E>>,
    /// Next push sequence number (FIFO tiebreak).
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; NUM_BUCKETS / 64],
            window_start: 0,
            cursor: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let ps = at.as_ps();
        if self.ring_len == 0 && self.overflow.is_empty() {
            // Empty queue: re-anchor the window around the new event so a
            // long-idle jump (e.g. resuming after a 100 µs timeout) does not
            // funnel everything through the overflow heap.
            self.window_start = align_down(ps);
            self.cursor = 0;
        }
        if ps >= self.window_start + SPAN {
            self.overflow.push(Entry {
                time: at,
                seq,
                event,
            });
            return;
        }
        let idx = if ps < self.window_start {
            self.cursor
        } else {
            (((ps - self.window_start) >> BUCKET_SHIFT) as usize).max(self.cursor)
        };
        self.buckets[idx].push((at, seq, event));
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.ring_len += 1;
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_until(Time::MAX)
    }

    /// Removes and returns the earliest event if its time is at most
    /// `bound`. When the queue is empty or its head lies past `bound`,
    /// returns `None` and leaves the queue exactly as it was;
    /// [`EventQueue::is_empty`] tells the two apart. The head is found with
    /// one scan of its bucket.
    pub fn pop_until(&mut self, bound: Time) -> Option<(Time, E)> {
        if self.ring_len == 0 {
            if self.overflow.peek()?.time > bound {
                return None;
            }
            self.refill_from_overflow();
        }
        let idx = self
            .first_occupied()
            .expect("ring_len > 0 implies an occupied bucket");
        let best = self.head_of(idx);
        let t = self.buckets[idx][best].0;
        if t > bound {
            return None;
        }
        self.cursor = idx;
        let bucket = &mut self.buckets[idx];
        let (t, _, event) = bucket.swap_remove(best);
        if bucket.is_empty() {
            self.occupied[idx / 64] &= !(1 << (idx % 64));
        }
        self.ring_len -= 1;
        Some((t, event))
    }

    /// Position of the earliest (time, seq) entry in the non-empty bucket
    /// `idx`.
    fn head_of(&self, idx: usize) -> usize {
        let bucket = &self.buckets[idx];
        let mut best = 0;
        for i in 1..bucket.len() {
            let (bt, bs, _) = bucket[best];
            let (t, s, _) = bucket[i];
            if (t, s) < (bt, bs) {
                best = i;
            }
        }
        best
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        if self.ring_len == 0 {
            return self.overflow.peek().map(|e| e.time);
        }
        let idx = self
            .first_occupied()
            .expect("ring_len > 0 implies an occupied bucket");
        Some(self.buckets[idx][self.head_of(idx)].0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All pending events in exact drain order — (time, seq) ascending —
    /// without disturbing the queue. This is the snapshot view: a restore
    /// pushes the events back in this order into a fresh queue, which
    /// renumbers sequence tiebreaks from zero but preserves their *relative*
    /// FIFO order, so the rebuilt queue drains identically.
    pub fn ordered_entries(&self) -> Vec<(Time, &E)> {
        let mut v: Vec<(Time, u64, &E)> = Vec::with_capacity(self.len());
        for bucket in &self.buckets {
            for (t, s, e) in bucket {
                v.push((*t, *s, e));
            }
        }
        for e in &self.overflow {
            v.push((e.time, e.seq, &e.event));
        }
        v.sort_by_key(|&(t, s, _)| (t, s));
        v.into_iter().map(|(t, _, e)| (t, e)).collect()
    }

    /// First occupied bucket at or after the cursor, via the bitmap.
    fn first_occupied(&self) -> Option<usize> {
        let from = self.cursor;
        let mut word = from / 64;
        // Mask off bits below `from` in its word.
        let mut bits = self.occupied[word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word == self.occupied.len() {
                return None;
            }
            bits = self.occupied[word];
        }
    }

    /// Ring is empty, overflow is not: jump the window to the overflow
    /// minimum's era and move every now-in-window event into the ring.
    fn refill_from_overflow(&mut self) {
        let head = self
            .overflow
            .peek()
            .expect("refill needs overflow events")
            .time;
        self.window_start = align_down(head.as_ps());
        self.cursor = 0;
        let end = self.window_start + SPAN;
        while let Some(e) = self.overflow.peek() {
            if e.time.as_ps() >= end {
                break;
            }
            let Entry { time, seq, event } = self.overflow.pop().expect("peeked");
            let idx = ((time.as_ps() - self.window_start) >> BUCKET_SHIFT) as usize;
            self.buckets[idx].push((time, seq, event));
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.ring_len += 1;
        }
    }
}

fn align_down(ps: u64) -> u64 {
    ps & !(SPAN - 1)
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// The original `BinaryHeap`-backed deterministic queue, retained as the
/// executable specification the calendar queue is checked against.
/// Semantics are identical to [`EventQueue`]; only the cost model differs
/// (O(log n) sift per push/pop, no windowing).
#[cfg(test)]
#[derive(Debug)]
struct ReferenceEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[cfg(test)]
impl<E> ReferenceEventQueue<E> {
    fn new() -> ReferenceEventQueue<E> {
        ReferenceEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, at: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    fn pop_until(&mut self, bound: Time) -> Option<(Time, E)> {
        if self.heap.peek()?.time > bound {
            return None;
        }
        self.pop()
    }

    fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), 3);
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(20), 2);
        assert_eq!(q.pop(), Some((Time::from_ns(10), 1)));
        assert_eq!(q.pop(), Some((Time::from_ns(20), 2)));
        assert_eq!(q.pop(), Some((Time::from_ns(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_ns(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_len_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_ns(1), 7);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(Time::from_ns(1)));
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(4), "d");
        q.push(Time::from_ns(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(Time::from_ns(2), "b");
        q.push(Time::from_ns(3), "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "d");
    }

    #[test]
    fn far_future_goes_through_overflow() {
        let mut q = EventQueue::new();
        // Watchdog-style long timer way beyond the ring window, plus
        // near-term traffic.
        q.push(Time::from_ms(10), "watchdog");
        q.push(Time::from_ns(3), "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.peek_time(), Some(Time::from_ms(10)));
        assert_eq!(q.pop().unwrap().1, "watchdog");
        assert!(q.is_empty());
    }

    #[test]
    fn window_jump_preserves_order_and_fifo() {
        let mut q = EventQueue::new();
        // Several distinct eras, each far beyond the previous window, with
        // same-time bursts inside each era.
        for era in 0..5u64 {
            let base = era * 7 * SPAN;
            for i in 0..10u64 {
                q.push(Time::from_ps(base + 512), era * 100 + i);
            }
            q.push(Time::from_ps(base), era * 100 + 50);
        }
        let mut got = Vec::new();
        while let Some((_, v)) = q.pop() {
            got.push(v);
        }
        let mut want = Vec::new();
        for era in 0..5u64 {
            want.push(era * 100 + 50);
            want.extend((0..10).map(|i| era * 100 + i));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn push_into_past_is_clamped_not_lost() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(100), "later");
        q.push(Time::from_ns(200), "latest");
        assert_eq!(q.pop().unwrap().1, "later");
        // Cursor has advanced past the ns-5 bucket; a push behind it must
        // still pop before everything scheduled later.
        q.push(Time::from_ns(5), "past");
        assert_eq!(q.peek_time(), Some(Time::from_ns(5)));
        assert_eq!(q.pop(), Some((Time::from_ns(5), "past")));
        assert_eq!(q.pop().unwrap().1, "latest");
    }

    #[test]
    fn empty_queue_reanchors_window() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(1), 1);
        assert_eq!(q.pop(), Some((Time::from_ns(1), 1)));
        // Queue now empty; a push eons later must not be misfiled.
        q.push(Time::from_ms(500), 2);
        q.push(Time::from_ms(500) + Time::from_ps(1), 3);
        assert_eq!(q.pop(), Some((Time::from_ms(500), 2)));
        assert_eq!(q.pop().unwrap().1, 3);
    }

    /// Snapshot view: `ordered_entries` must list pending events in exact
    /// drain order, and a queue rebuilt by re-pushing them must drain
    /// identically to the original — including same-timestamp FIFO runs,
    /// clamped past-pushes, and overflow-era events.
    #[test]
    fn ordered_entries_rebuild_drains_identically() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(100), 0);
        q.push(Time::from_ns(100), 1); // FIFO pair
        q.push(Time::from_ms(10), 2); // overflow era
        q.push(Time::from_ns(50), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        q.push(Time::from_ns(1), 4); // clamped behind the cursor
        q.push(Time::from_ns(100), 5); // extends the FIFO run

        let mut rebuilt = EventQueue::new();
        for (t, &e) in q.ordered_entries() {
            rebuilt.push(t, e);
        }
        assert_eq!(rebuilt.len(), q.len());
        loop {
            let (a, b) = (q.pop(), rebuilt.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Satellite: differential test — identical operation sequences on the
    /// calendar queue and the reference heap drain identically, including
    /// heavy same-timestamp bursts, interleaved push/pop, and bounded pops
    /// whose bound falls on a burst tick, just before or at the head, or
    /// past the ring while the overflow heap holds events.
    #[test]
    fn differential_vs_reference_heap() {
        let mut cal = EventQueue::new();
        let mut reference = ReferenceEventQueue::new();
        let mut rng = crate::SplitMix64::new(0xD1FF);
        let mut pending = 0u32;
        for step in 0..20_000u64 {
            let r = rng.next_u64();
            if pending > 0 && r.is_multiple_of(3) {
                assert_eq!(cal.pop(), reference.pop(), "step {step}");
                pending -= 1;
            } else if r % 7 == 1 {
                let b = rng.next_u64();
                let bound = match b % 4 {
                    // A burst tick.
                    0 => Time::from_ps((b >> 8) % 4 * 1000),
                    // Anywhere in or past the window.
                    1 => Time::from_ps((b >> 8) % (100 * SPAN)),
                    // Just before or exactly at the head's time.
                    _ => match reference.heap.peek() {
                        Some(h) => Time::from_ps(h.time.as_ps().saturating_sub((b >> 8) % 2)),
                        None => Time::ZERO,
                    },
                };
                let got = cal.pop_until(bound);
                assert_eq!(got, reference.pop_until(bound), "step {step}");
                if got.is_some() {
                    pending -= 1;
                }
                assert_eq!(cal.is_empty(), pending == 0, "step {step}");
            } else {
                let t = match r % 10 {
                    // Heavy same-timestamp bursts at a handful of ticks.
                    0..=4 => Time::from_ps((r >> 8) % 4 * 1000),
                    // Near-future spread within the window.
                    5..=7 => Time::from_ps((r >> 8) % (SPAN / 2)),
                    // Mid-window and overflow range, forcing jumps.
                    8 => Time::from_ps((r >> 8) % (4 * SPAN)),
                    _ => Time::from_ps((r >> 8) % (100 * SPAN)),
                };
                cal.push(t, step);
                reference.push(t, step);
                pending += 1;
            }
            assert_eq!(cal.len(), reference.len(), "step {step}");
            assert_eq!(cal.peek_time(), reference.peek_time(), "step {step}");
        }
        loop {
            let (a, b) = (cal.pop(), reference.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

#[cfg(all(test, feature = "slow-tests"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The queue drains in non-decreasing time order, FIFO within a time,
        /// for arbitrary push sequences.
        #[test]
        fn drain_order_is_stable_sort(times in proptest::collection::vec(0u64..50, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(Time::from_ps(t), i);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            expected.sort(); // stable order == (time, push index)
            let mut got = Vec::new();
            while let Some((t, i)) = q.pop() {
                got.push((t.as_ps(), i));
            }
            prop_assert_eq!(got, expected);
        }

        /// Differential drain order vs the reference heap under arbitrary
        /// interleavings of pushes (across eras and bursts) and pops.
        #[test]
        fn differential_matches_reference(
            ops in proptest::collection::vec(
                prop_oneof![
                    (0u64..200_000_000).prop_map(Some), // push at t (spans many windows)
                    Just(None),                         // pop
                ],
                0..400,
            )
        ) {
            let mut cal = EventQueue::new();
            let mut reference = ReferenceEventQueue::new();
            for (i, op) in ops.iter().enumerate() {
                match op {
                    Some(t) => {
                        cal.push(Time::from_ps(*t), i);
                        reference.push(Time::from_ps(*t), i);
                    }
                    None => prop_assert_eq!(cal.pop(), reference.pop()),
                }
                prop_assert_eq!(cal.len(), reference.len());
                prop_assert_eq!(cal.peek_time(), reference.peek_time());
            }
            loop {
                let (a, b) = (cal.pop(), reference.pop());
                prop_assert_eq!(a, b);
                if a.is_none() { break; }
            }
        }
    }
}
