//! The persistent worker pool.
//!
//! A [`WorkerPool`] spawns its OS threads **once** (at
//! `Device::cpu_parallel(n)` construction) and keeps them parked on a
//! condvar between passes, so a pipeline of chained canvas operators
//! pays a few microseconds of wake/park latency per pass instead of the
//! tens of microseconds of thread spawn/join that `std::thread::scope`
//! cost at every one of the four fork sites the raster crate used to
//! have. Workers are joined on drop — no detached threads outlive the
//! owning `Device` (asserted by the pool-shutdown leak check, which
//! reads [`live_worker_count`]).
//!
//! ## Execution & determinism contract
//!
//! Every entry point hands workers *indexed* work items through an
//! atomic claim counter and merges outputs **in item order**, so the
//! result of a parallel pass is bit-identical to the sequential run no
//! matter how the scheduler interleaves workers. The calling thread
//! always participates as one of the executors (a pool built with
//! `threads = n` spawns `n - 1` background workers), which is why
//! `WorkerPool::new(1)` spawns nothing and runs everything inline.
//!
//! ## Safety model
//!
//! A pass shares one type-erased `&closure` with the workers and does
//! not return until every worker has finished running it (even when the
//! closure panics), which is the same borrow-validity argument scoped
//! threads make: non-`'static` captures stay alive for the whole pass.

use crate::policy::Policy;
use crate::schedule::{FairGate, SchedulerStats, TicketId};
use canvas_obs as obs;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

std::thread_local! {
    /// The pass ticket the current thread dispatches under (see
    /// [`WorkerPool::with_ticket`]). 0 = the anonymous default ticket.
    static CURRENT_TICKET: std::cell::Cell<TicketId> = const { std::cell::Cell::new(0) };
    /// Whether the current thread is running its share of a pass: a
    /// pool worker always, a dispatching thread while it runs its own
    /// share. A pass started there runs inline (see `run_pass`).
    static IN_PASS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Process-wide count of live pool workers (incremented when a worker
/// thread starts, decremented as its last action). The CI leak check
/// asserts this returns to its baseline once a `Device` is dropped.
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Number of pool worker threads currently alive in the process.
pub fn live_worker_count() -> usize {
    LIVE_WORKERS.load(Ordering::SeqCst)
}

/// A type-erased pass closure: `call(ctx)` invokes the caller's
/// `&F where F: Fn() + Sync` once on the worker's thread.
#[derive(Clone, Copy)]
struct Job {
    call: unsafe fn(*const ()),
    ctx: *const (),
    /// Trace context captured at dispatch, so worker-side spans
    /// attribute to the query that submitted the pass (the same
    /// hand-off that carries the fair-gate ticket). The flight
    /// recorder's rings ride this too: a worker's spans land in the
    /// worker thread's own ring stamped with the submitting query's
    /// id, and `obs::flight::collect` reassembles the cross-thread
    /// tree at tail-sampling time.
    obs: obs::Ctx,
}

// SAFETY: `ctx` points at a `F: Fn() + Sync` that outlives the pass
// (the dispatching thread blocks until all workers are done with it),
// and `&F` may be shared across threads because `F: Sync`.
unsafe impl Send for Job {}

struct State {
    /// Bumped once per dispatched pass; workers run the job exactly
    /// once per epoch they observe.
    epoch: u64,
    job: Option<Job>,
    /// Workers still running the current epoch's job.
    remaining: usize,
    /// Set when any worker's job invocation panicked this epoch.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work_ready: Condvar,
    work_done: Condvar,
}

/// A persistent fork-join worker pool (see module docs).
///
/// # Examples
///
/// An indexed pass returns its results in item order, bit-identical to
/// the sequential run at any thread count:
///
/// ```
/// use canvas_executor::WorkerPool;
///
/// let pool = WorkerPool::new(4); // this thread + 3 parked workers
/// let squares = pool.run_indexed(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// // Workers are joined when `pool` drops — nothing outlives it.
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes passes — one pass at a time even if many threads
    /// share the handle — but *fairly*: concurrent submitters are
    /// interleaved pass-by-pass under a bounded quantum instead of
    /// whoever wins a mutex (see [`crate::schedule`]).
    pass_gate: FairGate,
    /// Ticket allocator for [`register_ticket`](Self::register_ticket)
    /// (0 is reserved for the anonymous default).
    next_ticket: AtomicU64,
    threads: usize,
    policy: Policy,
    /// Lock-free override of `policy.min_parallel_items` installed by
    /// load-aware recalibration (0 = no override). Lives outside
    /// [`Policy`] so a refresh needs only `&self` and can run
    /// mid-workload without touching the policy the caller configured.
    min_work_override: AtomicUsize,
    /// Passes dispatched since construction — the cadence clock for
    /// periodic recalibration.
    passes: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("policy", &self.policy)
            .finish()
    }
}

fn worker_loop(shared: Arc<Shared>) {
    IN_PASS.with(|p| p.set(true));
    let mut my_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if st.shutdown {
                    drop(st);
                    LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
                if st.epoch > my_epoch {
                    my_epoch = st.epoch;
                    break st.job.expect("epoch advanced without a job");
                }
                st = shared
                    .work_ready
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // SAFETY: the dispatcher keeps the closure alive until
        // `remaining` hits zero, which happens strictly after this call
        // returns (or unwinds into the catch below).
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            obs::trace::with_ctx(job.obs, || {
                let _span = obs::span("pass_worker", "executor");
                unsafe { (job.call)(job.ctx) }
            })
        }));
        let mut st = shared
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if outcome.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.work_done.notify_all();
        }
    }
}

impl WorkerPool {
    /// Builds a pool that executes passes on `threads` concurrent
    /// executors: the calling thread plus `threads - 1` background
    /// workers spawned here, parked between passes, and joined on drop.
    /// `threads <= 1` spawns no threads at all.
    pub fn new(threads: usize) -> Self {
        Self::with_policy(threads, Policy::default())
    }

    /// [`new`](Self::new) with an explicit scheduling policy.
    pub fn with_policy(threads: usize, policy: Policy) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                LIVE_WORKERS.fetch_add(1, Ordering::SeqCst);
                std::thread::Builder::new()
                    .name(format!("canvas-executor-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            pass_gate: FairGate::new(),
            next_ticket: AtomicU64::new(1),
            threads,
            policy,
            min_work_override: AtomicUsize::new(0),
            passes: AtomicU64::new(0),
        }
    }

    /// Allocates a fresh pass-scheduling ticket (one per in-flight
    /// query, typically). Pass it to [`with_ticket`](Self::with_ticket)
    /// around the work that should be fair-shared against other
    /// submitters. Tickets are never reused.
    pub fn register_ticket(&self) -> TicketId {
        self.next_ticket.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` with every pass the current thread dispatches to this
    /// (or any) pool attributed to `ticket` at the fair gate. Restores
    /// the previous ticket afterwards (nesting-safe), including on
    /// unwind.
    pub fn with_ticket<R>(&self, ticket: TicketId, f: impl FnOnce() -> R) -> R {
        struct Restore(TicketId);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT_TICKET.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(CURRENT_TICKET.with(|c| c.replace(ticket)));
        f()
    }

    /// Grant accounting of the fair pass gate since construction.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.pass_gate.stats()
    }

    /// Concurrent executors of a pass (caller + background workers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Background worker threads owned by this pool.
    pub fn worker_count(&self) -> usize {
        self.handles.len()
    }

    /// The scheduling policy every helper consults.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Replaces the policy and drops any recalibration override: an
    /// explicitly configured policy wins until the next recalibration.
    pub fn set_policy(&mut self, policy: Policy) {
        self.policy = policy;
        self.min_work_override.store(0, Ordering::Relaxed);
    }

    /// True when a pass over `items` work units should fan out (the
    /// centralized minimum-work threshold — see [`Policy`]).
    pub fn should_parallelize(&self, items: usize) -> bool {
        self.worker_count() > 0 && items >= self.effective_min_parallel_items()
    }

    /// The live minimum-work threshold: the recalibration override when
    /// one is installed, the policy value otherwise.
    pub fn effective_min_parallel_items(&self) -> usize {
        match self.min_work_override.load(Ordering::Relaxed) {
            0 => self.policy.min_parallel_items,
            n => n,
        }
    }

    /// Installs a minimum-work override (`&self` — safe to call from a
    /// recalibration probe while queries are in flight). Callers are
    /// expected to pass a value already clamped to the calibration band;
    /// see [`WorkerPool::recalibrate`](crate::calibrate).
    pub fn set_min_work_override(&self, items: usize) {
        self.min_work_override.store(items, Ordering::Relaxed);
    }

    /// Passes dispatched through this pool since construction (counts
    /// inline single-thread passes too).
    pub fn passes(&self) -> u64 {
        self.passes.load(Ordering::Relaxed)
    }

    /// Runs `f()` once on the calling thread and once on every
    /// background worker, returning after **all** invocations complete.
    /// `f` typically loops over an atomic claim counter. Panics from any
    /// invocation are re-raised here after the pass has fully quiesced.
    ///
    /// Passes never nest: one started from inside a pass — on a worker,
    /// or on the dispatching thread while it runs its share (a canvas
    /// folding its planes on first read inside a walk, say) — runs `f`
    /// once inline, which claims every item.
    fn run_pass<F: Fn() + Sync>(&self, f: &F) {
        self.passes.fetch_add(1, Ordering::Relaxed);
        if self.handles.is_empty() || IN_PASS.with(|p| p.get()) {
            let _span = obs::span("pass", "executor");
            f();
            return;
        }
        let ticket = CURRENT_TICKET.with(|c| c.get());
        let _gate = {
            let mut wait = obs::span("gate_wait", "executor");
            wait.arg_u64("ticket", ticket);
            self.pass_gate.acquire(ticket, self.policy.pass_quantum)
        };
        let mut pass_span = obs::span("pass", "executor");
        pass_span.arg_u64("ticket", ticket);
        unsafe fn call_erased<F: Fn()>(ctx: *const ()) {
            (*(ctx as *const F))()
        }
        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.job = Some(Job {
                call: call_erased::<F>,
                ctx: f as *const F as *const (),
                obs: obs::trace::current_ctx(),
            });
            st.epoch += 1;
            st.remaining = self.handles.len();
            self.shared.work_ready.notify_all();
        }
        // The caller participates; its panic (if any) is deferred until
        // the workers have quiesced so the borrow of `f` stays valid.
        IN_PASS.with(|p| p.set(true));
        let caller_outcome = catch_unwind(AssertUnwindSafe(f));
        IN_PASS.with(|p| p.set(false));
        let worker_panicked = {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while st.remaining > 0 {
                st = self
                    .shared
                    .work_done
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            st.job = None;
            std::mem::replace(&mut st.panicked, false)
        };
        if let Err(payload) = caller_outcome {
            resume_unwind(payload);
        }
        if worker_panicked {
            panic!("executor pool worker panicked");
        }
    }

    /// Runs `f(0..n)` across the pool and returns the results **in item
    /// order**. Items are claimed dynamically (atomic counter), results
    /// are written straight into their slot — no post-pass sort.
    ///
    /// `threads <= 1` (or a single item) runs inline with zero
    /// overhead; the sequential and parallel paths execute the exact
    /// same per-item closure, which is what makes them bit-identical.
    pub fn run_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.handles.is_empty() || n <= 1 {
            return (0..n).map(f).collect();
        }
        let slots = SlotVec::new(n);
        let counter = AtomicUsize::new(0);
        self.run_pass(&|| loop {
            let i = counter.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let value = f(i);
            // SAFETY: `i` was claimed by exactly one executor.
            unsafe { slots.write(i, value) };
        });
        // The pass returned without panicking, so all n slots are
        // initialized.
        slots.into_vec()
    }

    /// [`run_indexed`](Self::run_indexed) over owned items: runs
    /// `f(i, items[i])` once per item, dynamically claimed, and returns
    /// the results in item order. Items can be disjoint `&mut` views
    /// (a tile's row segments), so workers write in place without
    /// sharing a raw buffer.
    pub fn run_claimed<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.run_indexed(slots.len(), |i| {
            let item = slots[i]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take();
            f(i, item.expect("each item is claimed once"))
        })
    }

    /// Chunk-claiming iteration: the range `0..n` is cut into
    /// `chunk_size`-long chunks which executors claim dynamically. `f`
    /// receives each chunk exactly once; chunks are disjoint and cover
    /// `0..n`. Chunk boundaries are identical at every thread count, so
    /// callers whose per-chunk work is independent get deterministic
    /// results for free.
    pub fn for_each_chunk<F>(&self, n: usize, chunk_size: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let chunk = chunk_size.max(1);
        if self.handles.is_empty() || n <= chunk {
            let mut start = 0;
            while start < n {
                f(start..(start + chunk).min(n));
                start += chunk;
            }
            return;
        }
        let counter = AtomicUsize::new(0);
        self.run_pass(&|| loop {
            let start = counter.fetch_add(1, Ordering::Relaxed) * chunk;
            if start >= n {
                break;
            }
            f(start..(start + chunk).min(n));
        });
    }

    /// Row count per band when splitting `rows` across the executors.
    fn band_rows(&self, rows: usize) -> usize {
        rows.div_ceil(self.threads).max(1)
    }

    /// Splits one plane (`width` texels per row) into horizontal bands
    /// and runs `f(first_row, band)` on each, in parallel. Single-plane
    /// sibling of [`for_each_band2`](Self::for_each_band2).
    pub fn for_each_band1<A, F>(&self, width: usize, a: &mut [A], f: F)
    where
        A: Send,
        F: Fn(usize, &mut [A]) + Sync,
    {
        if width == 0 || a.is_empty() {
            return;
        }
        let rows = a.len() / width;
        let band = self.band_rows(rows) * width;
        if rows <= 1 || !self.should_parallelize(a.len()) {
            for (bi, ba) in a.chunks_mut(band).enumerate() {
                f(bi * band / width, ba);
            }
            return;
        }
        let n = a.len();
        let base = SendPtr(a.as_mut_ptr());
        self.for_each_chunk(n.div_ceil(band), 1, |r| {
            let start = r.start * band;
            let end = (start + band).min(n);
            // SAFETY: band index claimed exactly once ⇒ disjoint &mut
            // sub-slices of `a`, all within bounds.
            let ba = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
            f(start / width, ba);
        });
    }

    /// Splits two parallel planes (equal length, `width` texels per
    /// row) into horizontal bands and runs `f(first_row, band_a,
    /// band_b)` on each band, returning the per-band outputs in
    /// top-to-bottom order. Used by the Mask operator: per-pixel tests
    /// over the texel + cover planes with band-local collection of
    /// refined boundary entries.
    pub fn for_each_band2<A, C, T, F>(&self, width: usize, a: &mut [A], c: &mut [C], f: F) -> Vec<T>
    where
        A: Send,
        C: Send,
        T: Send,
        F: Fn(usize, &mut [A], &mut [C]) -> T + Sync,
    {
        assert_eq!(a.len(), c.len(), "planes must have equal texel counts");
        if width == 0 || a.is_empty() {
            return Vec::new();
        }
        let rows = a.len() / width;
        let band = self.band_rows(rows) * width;
        if rows <= 1 || !self.should_parallelize(a.len()) {
            return a
                .chunks_mut(band)
                .zip(c.chunks_mut(band))
                .enumerate()
                .map(|(bi, (ba, bc))| f(bi * band / width, ba, bc))
                .collect();
        }
        let n = a.len();
        let n_bands = n.div_ceil(band);
        let pa = SendPtr(a.as_mut_ptr());
        let pc = SendPtr(c.as_mut_ptr());
        let slots = SlotVec::new(n_bands);
        let counter = AtomicUsize::new(0);
        self.run_pass(&|| loop {
            let bi = counter.fetch_add(1, Ordering::Relaxed);
            if bi >= n_bands {
                break;
            }
            let start = bi * band;
            let end = (start + band).min(n);
            // SAFETY: band index claimed exactly once ⇒ disjoint &mut
            // sub-slices; slot `bi` written exactly once.
            let (ba, bc) = unsafe {
                (
                    std::slice::from_raw_parts_mut(pa.get().add(start), end - start),
                    std::slice::from_raw_parts_mut(pc.get().add(start), end - start),
                )
            };
            let out = f(start / width, ba, bc);
            unsafe { slots.write(bi, out) };
        });
        slots.into_vec()
    }

    /// Band-parallel in-place combine of `dst` with a same-length
    /// read-only `src` (the full-screen Blend pass). `f` receives
    /// aligned chunks of `band_len` items (last chunk may be shorter).
    pub fn for_each_band_pair<D, S, F>(&self, band_len: usize, dst: &mut [D], src: &[S], f: F)
    where
        D: Send,
        S: Sync,
        F: Fn(&mut [D], &[S]) + Sync,
    {
        assert_eq!(dst.len(), src.len(), "planes must have equal texel counts");
        let band = band_len.max(1);
        if dst.len() <= band || !self.should_parallelize(dst.len()) {
            for (d, s) in dst.chunks_mut(band).zip(src.chunks(band)) {
                f(d, s);
            }
            return;
        }
        let n = dst.len();
        let pd = SendPtr(dst.as_mut_ptr());
        self.for_each_chunk(n.div_ceil(band), 1, |r| {
            let start = r.start * band;
            let end = (start + band).min(n);
            // SAFETY: chunk index claimed exactly once ⇒ disjoint &mut
            // sub-slices of `dst`; `src` is only read.
            let d = unsafe { std::slice::from_raw_parts_mut(pd.get().add(start), end - start) };
            f(d, &src[start..end]);
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for h in self.handles.drain(..) {
            // A worker only panics outside a job if the pool's own state
            // handling is broken; surface that loudly.
            h.join().expect("pool worker exited abnormally");
        }
    }
}

/// Raw pointer wrapper so disjoint `&mut` sub-slices can be carved out
/// on worker threads. Soundness is the caller's obligation: every index
/// region must be claimed by exactly one executor.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the
    /// `Sync` wrapper, not the raw pointer inside it — edition-2021
    /// disjoint capture would otherwise pull out the bare `*mut T`.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Write-once result slots indexed by work item — the deterministic
/// merge primitive (each executor writes the slots it claimed; the
/// dispatcher reads them all afterwards, in order).
struct SlotVec<T> {
    /// `Option` rather than `MaybeUninit` so the ordinary `Drop` frees
    /// whatever was produced when a pass panics mid-way — the pool
    /// survives panicked passes and is reused, so results from the
    /// non-panicking executors must not leak.
    slots: Vec<std::cell::UnsafeCell<Option<T>>>,
}

// SAFETY: slots are only written through `write` with unique indices
// (caller contract) and only read after the pass quiesces.
unsafe impl<T: Send> Sync for SlotVec<T> {}

impl<T> SlotVec<T> {
    fn new(n: usize) -> Self {
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, || std::cell::UnsafeCell::new(None));
        SlotVec { slots }
    }

    /// SAFETY: each index must be written at most once, with no
    /// concurrent reads.
    unsafe fn write(&self, i: usize, value: T) {
        *self.slots[i].get() = Some(value);
    }

    /// Consumes the slots in index order. Panics on an unfilled slot —
    /// only reachable if a pass was miscounted, since every claimed
    /// index writes exactly once and the pass quiesces first.
    fn into_vec(self) -> Vec<T> {
        self.slots
            .into_iter()
            .map(|c| c.into_inner().expect("pass left a result slot unfilled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_started_inside_a_pass_runs_inline() {
        // Every item of the outer pass (on workers and on the caller)
        // starts an inner pass on the same pool: each runs inline on its
        // thread, in order, and nothing waits on the gate the outer
        // pass holds.
        let pool = WorkerPool::new(3);
        let got = pool.run_indexed(12, |i| pool.run_indexed(5, |j| i * 10 + j));
        let want: Vec<Vec<usize>> = (0..12)
            .map(|i| (0..5).map(|j| i * 10 + j).collect())
            .collect();
        assert_eq!(got, want);
        // The caller leaves the pass: its next pass fans out again.
        assert_eq!(pool.run_indexed(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn run_indexed_order_is_deterministic() {
        let pool = WorkerPool::new(4);
        let seq: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(pool.run_indexed(100, |i| i * i), seq);
        assert_eq!(pool.run_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run_indexed(1, |i| i + 5), vec![5]);
    }

    #[test]
    fn run_claimed_hands_each_item_out_once_and_keeps_order() {
        // Disjoint `&mut` chunks of one buffer, written in place.
        for threads in [1usize, 4] {
            let pool = WorkerPool::new(threads);
            let mut buf = vec![0u32; 100];
            let sums = pool.run_claimed(buf.chunks_mut(7).collect(), |i, chunk: &mut [u32]| {
                chunk.iter_mut().for_each(|v| *v = i as u32);
                chunk.len()
            });
            assert_eq!(sums.iter().sum::<usize>(), 100);
            assert!(buf.iter().enumerate().all(|(j, &v)| v == (j / 7) as u32));
        }
    }

    // Worker liveness is asserted per pool — every live worker holds one
    // reference to its pool's shared state — because sibling tests in
    // this binary spawn pools concurrently; the process-wide
    // `live_worker_count` check lives in `tests/pool_shutdown.rs`, which
    // runs alone in its process.
    #[test]
    fn single_thread_pool_spawns_no_workers() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.worker_count(), 0);
        assert_eq!(Arc::strong_count(&pool.shared), 1);
        assert_eq!(pool.run_indexed(10, |i| i), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pool_reusable_across_many_passes() {
        let pool = WorkerPool::new(3);
        for pass in 0..50usize {
            let out = pool.run_indexed(17, |i| i + pass);
            assert_eq!(out, (pass..pass + 17).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunks_cover_range_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..103).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each_chunk(103, 10, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn band_helpers_match_inline_reference() {
        // Use a zero threshold so small planes exercise the threaded
        // path too.
        let policy = Policy {
            min_parallel_items: 0,
            ..Policy::default()
        };
        let pool = WorkerPool::with_policy(4, policy);
        let width = 8;
        let rows = 13;
        let mut a = vec![0u32; width * rows];
        let mut c = vec![0u16; width * rows];
        let starts = pool.for_each_band2(width, &mut a, &mut c, |row0, ba, bc| {
            for v in ba.iter_mut() {
                *v += 1;
            }
            for v in bc.iter_mut() {
                *v += 1;
            }
            (row0, ba.len())
        });
        assert!(a.iter().all(|&v| v == 1));
        assert!(c.iter().all(|&v| v == 1));
        let mut expect_row = 0;
        for (row0, len) in starts {
            assert_eq!(row0, expect_row);
            expect_row += len / width;
        }
        assert_eq!(expect_row, rows);

        let mut b1 = vec![0u64; width * rows];
        pool.for_each_band1(width, &mut b1, |_, band| {
            for v in band.iter_mut() {
                *v += 1;
            }
        });
        assert!(b1.iter().all(|&v| v == 1));

        let src: Vec<u32> = (0..100).collect();
        let mut dst = vec![1u32; 100];
        pool.for_each_band_pair(17, &mut dst, &src, |d, s| {
            for (dv, sv) in d.iter_mut().zip(s) {
                *dv += *sv;
            }
        });
        let want: Vec<u32> = (0..100).map(|i| i + 1).collect();
        assert_eq!(dst, want);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(64, |i| {
                if i == 13 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(result.is_err());
        // The pool is still usable after a panicked pass.
        assert_eq!(pool.run_indexed(4, |i| i * 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(5);
        assert_eq!(pool.worker_count(), 4);
        assert_eq!(Arc::strong_count(&pool.shared), 1 + 4);
        let _ = pool.run_indexed(10, |i| i);
        let shared = Arc::downgrade(&pool.shared);
        drop(pool);
        assert_eq!(shared.strong_count(), 0, "workers leaked after drop");
    }

    #[test]
    fn concurrent_tickets_interleave_passes_fairly() {
        let pool = Arc::new(WorkerPool::new(4));
        let mut clients = Vec::new();
        for _ in 0..3 {
            let pool = Arc::clone(&pool);
            clients.push(std::thread::spawn(move || {
                let ticket = pool.register_ticket();
                pool.with_ticket(ticket, || {
                    for pass in 0..40usize {
                        let out = pool.run_indexed(8, |i| i + pass);
                        assert_eq!(out, (pass..pass + 8).collect::<Vec<_>>());
                    }
                });
                ticket
            }));
        }
        let tickets: Vec<u64> = clients.into_iter().map(|h| h.join().unwrap()).collect();
        let stats = pool.scheduler_stats();
        assert_eq!(stats.grants, 120);
        for t in &tickets {
            let granted = stats
                .per_ticket
                .iter()
                .find(|&&(id, _)| id == *t)
                .map(|&(_, g)| g)
                .unwrap_or(0);
            assert_eq!(granted, 40, "every client's passes reach the gate");
        }
        // Three clients all finished: grants are perfectly even, so the
        // fairness index is 1 by construction; the interesting signal
        // is that the gate changed hands at all (no whole-query
        // head-of-line blocking).
        assert_eq!(stats.jain_index(), Some(1.0));
        assert!(stats.handovers >= 2, "tickets never interleaved");
    }

    #[test]
    fn with_ticket_restores_previous_ticket() {
        let pool = WorkerPool::new(2);
        let a = pool.register_ticket();
        let b = pool.register_ticket();
        assert_ne!(a, b);
        pool.with_ticket(a, || {
            pool.with_ticket(b, || {
                let _ = pool.run_indexed(4, |i| i);
            });
            // Nested scope restored the outer ticket.
            let _ = pool.run_indexed(4, |i| i);
        });
        let stats = pool.scheduler_stats();
        let get = |t: u64| {
            stats
                .per_ticket
                .iter()
                .find(|&&(id, _)| id == t)
                .map(|&(_, g)| g)
                .unwrap_or(0)
        };
        assert_eq!(get(a), 1);
        assert_eq!(get(b), 1);
    }

    #[test]
    fn min_work_threshold_runs_inline() {
        let pool = WorkerPool::new(4);
        assert!(!pool.should_parallelize(100));
        assert!(pool.should_parallelize(1 << 16));
        // Below the threshold the bands still cover everything.
        let mut a = vec![0u8; 64];
        pool.for_each_band1(8, &mut a, |_, band| {
            for v in band.iter_mut() {
                *v += 1;
            }
        });
        assert!(a.iter().all(|&v| v == 1));
    }
}
