//! Shared scoped fan-out executor for the workspace.
//!
//! There is exactly one threading code path in the simulator:
//! [`map_into`], whose width callers take from [`default_threads`] (the
//! `SP_THREADS` override) or set explicitly. The horizon windows in
//! `ClusterSim` fan out through it.
//!
//! Two properties matter more than raw speed here:
//!
//! * **Order determinism.** Output slot `i` always holds `f(&items[i])`,
//!   no matter how indices were interleaved across threads, so callers
//!   that demand byte-identical results at any thread count can use the
//!   executor freely.
//! * **Re-entrancy.** A task that itself calls [`map_into`] (say, one
//!   that builds and runs a `ClusterSim`, whose horizon windows fan out
//!   in turn) degrades to an inline sequential loop instead of
//!   deadlocking on the pool.
//!
//! The executor keeps a single lazily-grown, process-wide pool of parked
//! worker threads; fan-outs are typically sub-millisecond windows, so
//! spawning per call would dominate the work. Workers live for the
//! process lifetime (they are parked on a condvar when idle).

pub mod profile;

use std::any::Any;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, TryLockError};
use std::thread;

/// Hard cap on pool workers, regardless of what `SP_THREADS` asks for.
const MAX_WORKERS: usize = 64;

/// The default fan-out width: the `SP_THREADS` environment variable if
/// it parses as a positive integer, otherwise the machine's available
/// parallelism (and `1` if even that is unknown).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("SP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Applies `f` to every element of `items` across at most `threads`
/// concurrent claimers (the calling thread is one of them): `out` is
/// cleared and filled with `f(&items[i])` in input order, reusing its
/// existing capacity. Hot callers (the `ClusterSim` horizon windows fan
/// out once per window) keep one buffer alive across calls so the
/// steady state allocates nothing.
///
/// Runs inline — same results, one thread — when `threads <= 1`, when
/// called from inside a pool worker (re-entrant fan-out), or when
/// another fan-out already occupies the pool.
///
/// # Panics
///
/// If `f` panics for some element, the first such payload is re-raised
/// on the calling thread once every claimed element has finished. A
/// pool fan-out leaves `out` empty (already-written results leak rather
/// than risk a double drop — a fan-out panic is fatal to the run
/// anyway); an inline one leaves the results before the panic.
pub fn map_into<T, R, F>(threads: usize, items: &[T], f: F, out: &mut Vec<R>)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    out.clear();
    let n = items.len();
    if n == 0 {
        return;
    }
    let threads = threads.min(n).min(MAX_WORKERS + 1);
    if threads <= 1 || IN_WORKER.with(|w| w.get()) {
        out.extend(items.iter().map(f));
        return;
    }
    let pool = pool();
    let _submit = match pool.submit.try_lock() {
        Ok(g) => g,
        // A poisoned submit lock just means an earlier fan-out panicked;
        // the pool itself is healthy, so keep using it.
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        // Another fan-out is mid-flight (a sibling call from a different
        // thread): run inline rather than interleave two jobs.
        Err(TryLockError::WouldBlock) => {
            out.extend(items.iter().map(f));
            return;
        }
    };
    pool.ensure_workers(threads - 1);

    // Output slots in `out`'s spare capacity, each written exactly once
    // by whichever participant claims that index; the length is only
    // raised once every slot is initialized.
    out.reserve(n);
    let out_ptr = SendPtr(out.spare_capacity_mut().as_mut_ptr());
    let task = move |i: usize| {
        // Rebind the wrapper so edition-2021 precise capture takes the
        // `Send + Sync` wrapper, not the bare raw pointer inside it.
        #[allow(clippy::redundant_locals)]
        let out_ptr = out_ptr;
        let r = f(&items[i]);
        // SAFETY: each index in 0..n is claimed exactly once (the shared
        // cursor hands them out), so this write is unaliased; the
        // coordinator does not read the slots until `done == n`.
        unsafe { (out_ptr.0.add(i)).write(MaybeUninit::new(r)) };
    };
    let task_obj: &(dyn Fn(usize) + Sync) = &task;
    // SAFETY: the job is fully retired (every participant has left
    // `run_job` and decremented `in_flight`) before this function
    // returns, so the erased borrow never outlives `task`.
    let task_ptr: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute(task_obj as *const (dyn Fn(usize) + Sync + '_)) };
    let job = Job {
        task: task_ptr,
        n,
        cursor: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        panic: Mutex::new(None),
    };

    {
        let mut st = lock(&pool.state);
        debug_assert_eq!(st.in_flight, 0, "previous job not fully retired");
        st.epoch = st.epoch.wrapping_add(1);
        st.job = Some(JobPtr(&job));
        st.slots = threads - 1;
        pool.work_cv.notify_all();
    }
    // The coordinator is a claimer too — on a saturated machine it does
    // most of the work itself.
    run_job(&job);
    // Every index is claimed; spin out the claimed-but-unfinished tail.
    while job.done.load(Ordering::Acquire) < n {
        thread::yield_now();
    }
    {
        let mut st = lock(&pool.state);
        st.job = None;
        st.slots = 0;
        // Workers may still hold a pointer to `job` (they copied it when
        // joining); wait until every one of them has left before the
        // stack frame — and `task` — can be dropped.
        while st.in_flight > 0 {
            st = pool.idle_cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    if let Some(payload) = lock(&job.panic).take() {
        // Leak the slots that were written (len stays 0) rather than
        // guess which ones are initialized; a fan-out panic is fatal to
        // the run anyway.
        resume_unwind(payload);
    }
    // SAFETY: `done == n` with Release increments paired by the Acquire
    // load above, so every slot write happens-before this point, and
    // each of the n slots was written exactly once.
    unsafe { out.set_len(n) };
}

thread_local! {
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A published fan-out. Participants claim indices `0..n` from `cursor`,
/// run `task(i)`, and bump `done` once per finished index.
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    n: usize,
    cursor: AtomicUsize,
    done: AtomicUsize,
    /// First panic payload raised by `task`, re-raised by the coordinator.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

#[derive(Clone, Copy)]
struct JobPtr(*const Job);
// SAFETY: the coordinator keeps the pointee alive until `in_flight`
// drops to zero, and `Job` only exposes Sync interior (atomics + mutex).
unsafe impl Send for JobPtr {}

struct SendPtr<R>(*mut MaybeUninit<R>);
// Manual impls: the derive would demand `R: Copy` for a plain pointer.
impl<R> Clone for SendPtr<R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<R> Copy for SendPtr<R> {}
// SAFETY: distinct participants write disjoint slots (see `map_into`).
unsafe impl<R: Send> Send for SendPtr<R> {}
unsafe impl<R: Send> Sync for SendPtr<R> {}

struct PoolState {
    /// Bumped once per published job so parked workers can tell a fresh
    /// job from the one they already worked on.
    epoch: u64,
    job: Option<JobPtr>,
    /// Remaining worker claim slots for the current job; bounds actual
    /// parallelism to what the caller asked for even when the pool has
    /// more parked workers.
    slots: usize,
    /// Workers currently inside `run_job` for the current (or just
    /// retired) job.
    in_flight: usize,
    workers: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    idle_cv: Condvar,
    /// Serializes top-level fan-outs; `try_lock` failure means another
    /// one is mid-flight and the caller should run inline.
    submit: Mutex<()>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState { epoch: 0, job: None, slots: 0, in_flight: 0, workers: 0 }),
        work_cv: Condvar::new(),
        idle_cv: Condvar::new(),
        submit: Mutex::new(()),
    })
}

impl Pool {
    /// Grows the pool to at least `target` parked workers (capped at
    /// [`MAX_WORKERS`]); workers are spawned once and live forever.
    fn ensure_workers(&'static self, target: usize) {
        let target = target.min(MAX_WORKERS);
        let mut st = lock(&self.state);
        while st.workers < target {
            st.workers += 1;
            let name = format!("sp-core-{}", st.workers);
            thread::Builder::new()
                .name(name)
                .spawn(move || self.worker_loop())
                .expect("spawning sp-core pool worker");
        }
    }

    fn worker_loop(&'static self) {
        IN_WORKER.with(|w| w.set(true));
        let mut seen = 0u64;
        loop {
            let job_ptr = {
                let mut st = lock(&self.state);
                loop {
                    if st.epoch != seen {
                        seen = st.epoch;
                        if st.slots > 0 {
                            if let Some(j) = st.job {
                                st.slots -= 1;
                                st.in_flight += 1;
                                break j;
                            }
                        }
                    }
                    st = self.work_cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            // SAFETY: `in_flight` was incremented under the lock while
            // the job was still published, so the coordinator will not
            // retire the pointee until this participant decrements it.
            run_job(unsafe { &*job_ptr.0 });
            let mut st = lock(&self.state);
            st.in_flight -= 1;
            if st.in_flight == 0 {
                self.idle_cv.notify_all();
            }
        }
    }
}

/// Claims indices from the job's shared cursor until exhausted. Panics
/// from the task are captured (first wins) and the index still counts as
/// done, so the coordinator's completion spin always terminates.
fn run_job(job: &Job) {
    // SAFETY: see the coordinator — the closure outlives the job.
    let task = unsafe { &*job.task };
    loop {
        let i = job.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= job.n {
            break;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
            let mut first = lock(&job.panic);
            if first.is_none() {
                *first = Some(payload);
            }
        }
        job.done.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `map_into` into a fresh buffer.
    fn map<T: Sync, R: Send>(threads: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let mut out = Vec::new();
        map_into(threads, items, f, &mut out);
        out
    }

    #[test]
    fn map_into_preserves_input_order_at_any_width() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64, 1000] {
            let got = map(threads, &items, |&x| x * x);
            assert_eq!(got, expect, "order broke at {threads} threads");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let mut out = vec![7u32];
        map_into(8, &[] as &[u32], |_| unreachable!(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn nested_fan_out_runs_inline_and_stays_correct() {
        let outer: Vec<u64> = (0..16).collect();
        let got = map(4, &outer, |&x| {
            let inner: Vec<u64> = (0..8).collect();
            map(4, &inner, |&y| x * 100 + y).iter().sum::<u64>()
        });
        let expect: Vec<u64> = outer.iter().map(|&x| (0..8).map(|y| x * 100 + y).sum()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let items: Vec<u32> = (0..64).collect();
        let mut out = Vec::new();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map_into(
                4,
                &items,
                |&x| {
                    assert!(x != 40, "boom at 40");
                    x
                },
                &mut out,
            )
        }));
        assert!(caught.is_err(), "panic in task must reach the caller");
        // The pool must still be usable after a panicked job.
        map_into(4, &items, |&x| x + 1, &mut out);
        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let items: Vec<u64> = (0..100).collect();
        let seq = map(1, &items, |&x| x.wrapping_mul(0x9E37_79B9).rotate_left(7));
        for threads in [2, 8] {
            let par = map(threads, &items, |&x| x.wrapping_mul(0x9E37_79B9).rotate_left(7));
            assert_eq!(par, seq);
        }
    }

    #[test]
    fn map_into_reuses_the_callers_buffer() {
        let items: Vec<u64> = (0..300).collect();
        let mut out: Vec<u64> = Vec::new();
        map_into(8, &items, |&x| x + 1, &mut out);
        let expect: Vec<u64> = items.iter().map(|x| x + 1).collect();
        assert_eq!(out, expect);
        let cap = out.capacity();
        let ptr = out.as_ptr();
        // Refilling an equal-or-smaller fan-out must not reallocate.
        for threads in [1, 2, 8] {
            map_into(threads, &items, |&x| x * 2, &mut out);
            assert_eq!(out.capacity(), cap, "buffer reallocated at {threads} threads");
            assert_eq!(out.as_ptr(), ptr, "buffer moved at {threads} threads");
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
        map_into(4, &items[..10], |&x| x, &mut out);
        assert_eq!(out.len(), 10);
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn sp_threads_env_overrides_default() {
        std::env::set_var("SP_THREADS", "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var("SP_THREADS", "0");
        assert_eq!(default_threads(), 1, "zero clamps to one");
        std::env::remove_var("SP_THREADS");
        assert!(default_threads() >= 1);
    }
}
