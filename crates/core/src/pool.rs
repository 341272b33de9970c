//! Spin-then-park ticket rounds: the fork-join primitive under the event
//! loop's same-timestamp zones (DESIGN §7).
//!
//! A `sim_threads > 1` run forms *thousands* of small rounds — a
//! handful of core batches of a few tens of microseconds each — so the
//! hand-off, not the work, sets the round's cost. A round here costs the
//! caller three atomic stores and no system call while the workers are
//! awake: no channel, no boxed job, no allocation.
//!
//! # Protocol
//!
//! One word, [`Shared::ticket`], holds `(generation << 16) | unclaimed`.
//! [`WorkerPool::round`] writes the type-erased slice into [`Shared::job`],
//! zeroes `done`, and publishes a ticket with a fresh generation and
//! `unclaimed = tasks.len()`. Every thread — the caller included — claims by
//! compare-and-swap decrementing the ticket; a successful claim owns task
//! `len - unclaimed` of exactly the round that ticket belongs to (the
//! generation makes a stale compare-and-swap fail), runs it, and bumps
//! `done`. The caller returns once `done == len`.
//!
//! Workers wait for `unclaimed > 0`, the caller for `done == len`; both spin
//! for [`SPIN_BUDGET`] and only then park. A parked worker is counted in
//! `parked` so the caller knows to unpark; a parked caller leaves its handle
//! in `waiter` for whichever thread finishes the last task.
//!
//! # Soundness of the lifetime erasure
//!
//! `job` holds raw pointers to the caller's slice and closure. They are
//! dereferenced only between a successful claim and the matching `done`
//! increment, and `round` neither returns nor unwinds before `done == len`
//! (the wait sits in a drop guard), so every dereference happens while the
//! caller's borrows are live. `job` itself is rewritten only by `round`,
//! which takes `&mut self` and starts after the previous round's barrier:
//! no claim on an older ticket can succeed any more, so no thread reads
//! `job` during the write.

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// How long a thread spins for the next round (worker) or the last task
/// (caller) before it parks. A constant, not a knob: it only has to cover
/// the serial stretch between two rounds (commit, drain and formation, tens
/// of microseconds) and stay far below a scheduler time slice, and the park
/// path behind it is correct for any value.
const SPIN_BUDGET: Duration = Duration::from_micros(200);

const COUNT_BITS: u32 = 16;
const COUNT_MASK: u64 = (1 << COUNT_BITS) - 1;

/// The open round's slice and step function, type-erased.
#[derive(Clone, Copy)]
struct Job {
    tasks: *mut (),
    len: usize,
    step: *const (),
    /// [`call`] at the slice's and closure's types.
    call: unsafe fn(*mut (), *const (), usize),
}

/// Runs `step` on `tasks[i]`.
///
/// # Safety
///
/// `tasks` and `step` must be the erased `&mut [T]` and `&F` of a round that
/// is still open, `i` must be in bounds, and no other thread may touch
/// `tasks[i]` — which a successful claim of `i` guarantees.
unsafe fn call<T, F: Fn(&mut T)>(tasks: *mut (), step: *const (), i: usize) {
    (*step.cast::<F>())(&mut *tasks.cast::<T>().add(i));
}

struct Shared {
    /// `(generation << COUNT_BITS) | unclaimed tasks`.
    ticket: AtomicU64,
    job: UnsafeCell<Option<Job>>,
    /// Tasks of the open round that have finished.
    done: AtomicUsize,
    /// Workers parked, or committed to parking unless a ticket shows up.
    parked: AtomicUsize,
    shutdown: AtomicBool,
    /// The caller's handle while it is parked on the barrier.
    waiter: Mutex<Option<Thread>>,
    /// First panic payload of the open round.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `job`'s raw pointers are the only non-`Sync` state. They are
// written by `round` alone while no claim can succeed, and dereferenced only
// under a claim, which `round`'s `T: Send`/`F: Sync` bounds make legal on
// any thread (module docs).
unsafe impl Sync for Shared {}
// SAFETY: as above; the pointers are dead whenever no round is open, which
// is the only time a pool can move between threads.
unsafe impl Send for Shared {}

/// No update under these mutexes can be observed half-done (a single
/// `Option` assignment), so a poisoned guard is still valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One slice of a spin wait: long enough to amortise the clock read that
/// follows it, with a yield so an oversubscribed host runs the thread we
/// are waiting for instead of the wait.
fn spin_slice() {
    for _ in 0..32 {
        std::hint::spin_loop();
    }
    thread::yield_now();
}

impl Shared {
    /// Claims the next task of the open round, if any is unclaimed.
    fn claim(&self) -> Option<(Job, usize)> {
        let mut t = self.ticket.load(SeqCst);
        loop {
            let left = t & COUNT_MASK;
            if left == 0 {
                return None;
            }
            match self.ticket.compare_exchange_weak(t, t - 1, SeqCst, SeqCst) {
                Ok(_) => {
                    // SAFETY: the claim succeeded against a ticket of the
                    // open round, so `job` was written before that ticket
                    // was published and is not rewritten until this task is
                    // counted in `done`.
                    let job = unsafe { *self.job.get() }.expect("a ticket follows its job");
                    return Some((job, job.len - left as usize));
                }
                Err(now) => t = now,
            }
        }
    }

    /// Claims and runs tasks until none is unclaimed.
    fn work(&self) {
        while let Some((job, i)) = self.claim() {
            // SAFETY: `job` is the open round's, and the claim makes task
            // `i` ours alone until it is counted in `done` (module docs).
            let r = catch_unwind(AssertUnwindSafe(|| unsafe {
                (job.call)(job.tasks, job.step, i)
            }));
            if let Err(p) = r {
                lock(&self.panic).get_or_insert(p);
            }
            if self.done.fetch_add(1, SeqCst) + 1 == job.len {
                // Either this lock section precedes the caller's (which then
                // reads `done == len` and never parks) or it sees the handle.
                if let Some(t) = lock(&self.waiter).as_ref() {
                    t.unpark();
                }
            }
        }
    }

    /// Blocks until `n` tasks of the open round have finished.
    fn wait_done(&self, n: usize) {
        let deadline = Instant::now() + SPIN_BUDGET;
        while self.done.load(SeqCst) != n {
            if Instant::now() < deadline {
                spin_slice();
                continue;
            }
            *lock(&self.waiter) = Some(thread::current());
            while self.done.load(SeqCst) != n {
                thread::park();
            }
            *lock(&self.waiter) = None;
        }
    }

    fn idle(&self) -> bool {
        self.ticket.load(SeqCst) & COUNT_MASK == 0 && !self.shutdown.load(SeqCst)
    }

    fn worker(&self) {
        loop {
            let deadline = Instant::now() + SPIN_BUDGET;
            while self.idle() {
                if Instant::now() < deadline {
                    spin_slice();
                    continue;
                }
                // `parked` is raised before the re-check and the publisher
                // reads it after storing the ticket (both SeqCst), so one of
                // the two always sees the other: no lost wake-up.
                self.parked.fetch_add(1, SeqCst);
                while self.idle() {
                    thread::park();
                }
                self.parked.fetch_sub(1, SeqCst);
            }
            if self.shutdown.load(SeqCst) {
                return;
            }
            self.work();
        }
    }
}

/// Holds `round` at the barrier on every exit path, unwinding included.
struct Barrier<'a>(&'a Shared, usize);

impl Drop for Barrier<'_> {
    fn drop(&mut self) {
        self.0.wait_done(self.1);
    }
}

/// A persistent pool of host worker threads for core-batch rounds. The
/// worker count is `exec_threads - 1` — `sim_threads` clamped to the host's
/// available parallelism — because on a host with fewer CPUs than
/// `sim_threads` the extra workers would only time-slice; with zero workers
/// a round runs inline on the calling thread.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    generation: u64,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    pub(crate) fn new(workers: usize) -> WorkerPool {
        let shared = Arc::new(Shared {
            ticket: AtomicU64::new(0),
            job: UnsafeCell::new(None),
            done: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            waiter: Mutex::new(None),
            panic: Mutex::new(None),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name("ccsvm-round".into())
                    .spawn(move || shared.worker())
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            generation: 0,
            handles,
        }
    }

    /// Runs `step` once on every element of `tasks`, spread over the workers
    /// and the calling thread by dynamic claiming, and returns only after
    /// all of them finish. A panic in any task is re-raised here — after the
    /// barrier, so borrowed data is never freed under a still-running task.
    pub(crate) fn round<T: Send, F: Fn(&mut T) + Sync>(&mut self, tasks: &mut [T], step: F) {
        let n = tasks.len();
        if self.handles.is_empty() || n < 2 {
            tasks.iter_mut().for_each(step);
            return;
        }
        assert!(
            n as u64 <= COUNT_MASK,
            "round of {n} tasks overflows the ticket"
        );
        let s = &*self.shared;
        // SAFETY: no round is open — the previous one passed its barrier and
        // `&mut self` excludes a concurrent one — so no claim can succeed and
        // no thread reads `job` (module docs).
        unsafe {
            *s.job.get() = Some(Job {
                tasks: tasks.as_mut_ptr().cast(),
                len: n,
                step: (&step as *const F).cast(),
                call: call::<T, F>,
            });
        }
        s.done.store(0, SeqCst);
        self.generation += 1;
        s.ticket
            .store(self.generation << COUNT_BITS | n as u64, SeqCst);
        let barrier = Barrier(s, n);
        if s.parked.load(SeqCst) > 0 {
            for h in &self.handles {
                h.thread().unpark();
            }
        }
        s.work();
        drop(barrier);
        if let Some(p) = lock(&s.panic).take() {
            resume_unwind(p);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, SeqCst);
        for h in self.handles.drain(..) {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    /// Host work that differs per task, so claims interleave unevenly.
    fn burn(k: usize) {
        for _ in 0..k * 50 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn ten_thousand_uneven_rounds_run_every_task_exactly_once() {
        let mut pool = WorkerPool::new(2);
        let mut tasks = [0u32; 9];
        for r in 0..10_000usize {
            let n = 2 + r % 8;
            pool.round(&mut tasks[..n], |t| {
                burn(*t as usize % 7);
                *t += 1;
            });
            let want = |i: usize| (0..=r).filter(|q| 2 + q % 8 > i).count() as u32;
            if r % 997 == 0 || r == 9_999 {
                for (i, &t) in tasks.iter().enumerate() {
                    assert_eq!(t, want(i), "task {i} after round {r}");
                }
            }
        }
    }

    #[test]
    fn zero_workers_run_inline() {
        let mut pool = WorkerPool::new(0);
        let me = thread::current().id();
        let mut tasks: Vec<Option<ThreadId>> = vec![None; 5];
        pool.round(&mut tasks, |t| *t = Some(thread::current().id()));
        assert!(tasks.iter().all(|&t| t == Some(me)));
    }

    #[test]
    fn more_tasks_than_threads() {
        let mut pool = WorkerPool::new(1);
        let mut tasks: Vec<usize> = (0..200).collect();
        pool.round(&mut tasks, |t| {
            burn(*t % 5);
            *t += 1000;
        });
        assert!(tasks.iter().enumerate().all(|(i, &t)| t == i + 1000));
    }

    /// Runs one four-task round on a one-worker pool in which the first task
    /// claimed by the caller (`on_caller`) or by the worker panics — after
    /// waiting for the other thread to hold a task too, so both are inside
    /// the round when it happens — and checks that the panic surfaces from
    /// `round` only once every other task has finished.
    fn panic_reraised_after_barrier(on_caller: bool) {
        let mut pool = WorkerPool::new(1);
        let me = thread::current().id();
        let entered = [AtomicBool::new(false), AtomicBool::new(false)];
        let tripped = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let mut tasks = [0u8; 4];
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.round(&mut tasks, |t| {
                let mine = thread::current().id() == me;
                entered[mine as usize].store(true, SeqCst);
                while !entered[!mine as usize].load(SeqCst) {
                    spin_slice();
                }
                if mine == on_caller && !tripped.swap(true, SeqCst) {
                    panic!("task failed");
                }
                burn(200);
                *t = 1;
                finished.fetch_add(1, SeqCst);
            })
        }));
        let p = r.expect_err("the task's panic is re-raised");
        assert_eq!(p.downcast_ref::<&str>(), Some(&"task failed"));
        assert_eq!(finished.load(SeqCst), 3, "re-raised before the barrier");
        assert_eq!(tasks.iter().filter(|&&t| t == 1).count(), 3);
        // The pool survives a panicked round.
        pool.round(&mut tasks, |t| *t = 2);
        assert_eq!(tasks, [2; 4]);
    }

    #[test]
    fn worker_task_panic_is_reraised_after_the_barrier() {
        panic_reraised_after_barrier(false);
    }

    #[test]
    fn caller_task_panic_is_reraised_after_the_barrier() {
        panic_reraised_after_barrier(true);
    }

    #[test]
    fn drop_joins_spinning_and_parked_workers() {
        // Dropped inside the spin budget: the workers are still spinning.
        drop(WorkerPool::new(2));
        let pool = WorkerPool::new(2);
        while pool.shared.parked.load(SeqCst) != 2 {
            thread::yield_now();
        }
        drop(pool);
        // A parked pool still serves a round.
        let mut pool = WorkerPool::new(2);
        while pool.shared.parked.load(SeqCst) != 2 {
            thread::yield_now();
        }
        let mut tasks = [0u8; 6];
        pool.round(&mut tasks, |t| *t += 1);
        assert_eq!(tasks, [1; 6]);
    }
}
