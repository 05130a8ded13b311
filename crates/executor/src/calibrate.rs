//! Startup calibration of the minimum-work threshold.
//!
//! [`Policy::min_parallel_items`](crate::Policy::min_parallel_items) answers "how many texels must a
//! full-screen pass touch before waking the pool pays off?". The static
//! default ([`crate::MIN_PARALLEL_ITEMS`]) bakes in one assumed
//! dispatch latency, but real wake/park cost varies an order of
//! magnitude across hosts (core count, condvar implementation, CPU
//! frequency scaling). [`calibrate_min_work`] measures both sides of
//! the trade on the live pool — the fork/join latency of an empty pass
//! and the per-texel cost of a representative full-screen rewrite —
//! and derives the break-even item count:
//!
//! ```text
//! fan-out wins when  items · per_item · (1 − 1/threads)  >  dispatch
//! ⇒  min_items ≈ dispatch_ns / (per_item_ns · (1 − 1/threads))
//! ```
//!
//! The derived value is clamped to a sane band and the static default
//! is kept as the fallback whenever measurement is impossible (no
//! workers) or degenerate (zero timings on coarse clocks). Calibration
//! only moves a wall-clock knob; the decomposition is deterministic
//! either way, so results can never depend on it.

use crate::pool::WorkerPool;
use std::time::Instant;

/// Derived values never leave this band: below 4Ki texels even an
/// optimistic dispatch estimate is noise-dominated; above 1Mi the pool
/// would practically never engage on interactive canvases.
pub const MIN_WORK_FLOOR: usize = 1 << 12;
pub const MIN_WORK_CEIL: usize = 1 << 20;

/// Outcome of [`calibrate_min_work`].
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Measured empty-pass fork/join latency (pool wake → quiesce).
    pub dispatch_ns_per_pass: f64,
    /// Measured per-item cost of the reference full-screen rewrite.
    pub per_item_ns: f64,
    /// The break-even threshold derived from the two (clamped).
    pub derived_min_parallel_items: usize,
    /// False when measurement was impossible/degenerate and the static
    /// default should stand.
    pub applied: bool,
}

/// Measures dispatch latency and per-item cost on `pool` and returns
/// the derived [`Policy::min_parallel_items`](crate::Policy::min_parallel_items) (see module docs). Does
/// **not** mutate the pool — use [`WorkerPool::calibrate`] for the
/// measure-and-apply form.
pub fn calibrate_min_work(pool: &WorkerPool) -> Calibration {
    let fallback = |dispatch, per_item| Calibration {
        dispatch_ns_per_pass: dispatch,
        per_item_ns: per_item,
        derived_min_parallel_items: pool.policy().min_parallel_items,
        applied: false,
    };
    let threads = pool.threads();
    if pool.worker_count() == 0 {
        // Nothing ever fans out on a 1-thread pool; the threshold is moot.
        return fallback(0.0, 0.0);
    }

    // Empty-pass fork/join latency (warm the park/wake paths first).
    const WARMUP: usize = 20;
    const PASSES: usize = 200;
    for _ in 0..WARMUP {
        let _ = pool.run_indexed(threads, |i| i);
    }
    let t0 = Instant::now();
    for _ in 0..PASSES {
        let _ = pool.run_indexed(threads, |i| i);
    }
    let dispatch_ns = t0.elapsed().as_nanos() as f64 / PASSES as f64;

    // Per-item cost of a representative full-screen rewrite (a cheap
    // read-modify-write per texel), measured inline on this thread.
    const ITEMS: usize = 1 << 16;
    const REPS: usize = 4;
    let mut plane = vec![1u64; ITEMS];
    let t0 = Instant::now();
    for r in 0..REPS {
        for (i, t) in plane.iter_mut().enumerate() {
            *t = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + r as u64);
        }
        std::hint::black_box(&mut plane);
    }
    let per_item_ns = t0.elapsed().as_nanos() as f64 / (ITEMS * REPS) as f64;

    if dispatch_ns <= 0.0 || per_item_ns <= 0.0 {
        return fallback(dispatch_ns, per_item_ns);
    }
    let saved_fraction = 1.0 - 1.0 / threads as f64;
    let derived = (dispatch_ns / (per_item_ns * saved_fraction)).ceil() as usize;
    Calibration {
        dispatch_ns_per_pass: dispatch_ns,
        per_item_ns,
        derived_min_parallel_items: derived.clamp(MIN_WORK_FLOOR, MIN_WORK_CEIL),
        applied: true,
    }
}

impl WorkerPool {
    /// Measures this host once and replaces
    /// [`Policy::min_parallel_items`](crate::Policy::min_parallel_items) with the derived break-even value
    /// (static default kept when measurement is degenerate). Returns
    /// the measurement either way so callers can record it.
    pub fn calibrate(&mut self) -> Calibration {
        let c = calibrate_min_work(self);
        if c.applied {
            let mut p = *self.policy();
            p.min_parallel_items = c.derived_min_parallel_items;
            self.set_policy(p);
        }
        c
    }

    /// Load-aware refresh of the minimum-work threshold: re-derives the
    /// break-even item count from a *fresh* per-item measurement (the
    /// caller typically times a representative SIMD kernel row, so the
    /// threshold tracks the active vector width) against a dispatch
    /// latency measured earlier — no empty-pass storm, so this is cheap
    /// enough to run every N passes or on engine idle. Applies through
    /// the lock-free override consulted by
    /// [`should_parallelize`](WorkerPool::should_parallelize) (needs
    /// only `&self`), clamped to the same
    /// [`MIN_WORK_FLOOR`]`..=`[`MIN_WORK_CEIL`] band as startup
    /// calibration. Returns the installed threshold, or `None` when the
    /// pool has no workers or a timing is degenerate (the previous
    /// threshold then stands).
    pub fn recalibrate(&self, dispatch_ns_per_pass: f64, per_item_ns: f64) -> Option<usize> {
        if self.worker_count() == 0 || dispatch_ns_per_pass <= 0.0 || per_item_ns <= 0.0 {
            return None;
        }
        let saved_fraction = 1.0 - 1.0 / self.threads() as f64;
        let derived = (dispatch_ns_per_pass / (per_item_ns * saved_fraction)).ceil() as usize;
        let clamped = derived.clamp(MIN_WORK_FLOOR, MIN_WORK_CEIL);
        self.set_min_work_override(clamped);
        Some(clamped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;

    #[test]
    fn single_thread_pool_keeps_static_default() {
        let mut pool = WorkerPool::new(1);
        let before = pool.policy().min_parallel_items;
        let c = pool.calibrate();
        assert!(!c.applied);
        assert_eq!(pool.policy().min_parallel_items, before);
    }

    #[test]
    fn recalibrate_installs_clamped_override() {
        let pool = WorkerPool::new(3);
        let before = pool.policy().min_parallel_items;
        // Huge dispatch cost vs cheap items → ceiling.
        assert_eq!(pool.recalibrate(1e12, 1.0), Some(MIN_WORK_CEIL));
        assert_eq!(pool.effective_min_parallel_items(), MIN_WORK_CEIL);
        assert!(pool.should_parallelize(MIN_WORK_CEIL));
        assert!(!pool.should_parallelize(MIN_WORK_CEIL - 1));
        // Cheap dispatch vs slow items → floor.
        assert_eq!(pool.recalibrate(1.0, 1e6), Some(MIN_WORK_FLOOR));
        assert_eq!(pool.effective_min_parallel_items(), MIN_WORK_FLOOR);
        // The configured policy itself is untouched by the override.
        assert_eq!(pool.policy().min_parallel_items, before);
        // Degenerate timings leave the previous threshold standing.
        assert_eq!(pool.recalibrate(0.0, 1.0), None);
        assert_eq!(pool.recalibrate(1.0, -3.0), None);
        assert_eq!(pool.effective_min_parallel_items(), MIN_WORK_FLOOR);
    }

    #[test]
    fn recalibrate_noop_without_workers_and_cleared_by_set_policy() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.recalibrate(100.0, 1.0), None);
        let mut pool = WorkerPool::new(2);
        pool.recalibrate(1e12, 1.0).unwrap();
        assert_eq!(pool.effective_min_parallel_items(), MIN_WORK_CEIL);
        // An explicit policy wins until the next recalibration.
        let p = *pool.policy();
        pool.set_policy(p);
        assert_eq!(
            pool.effective_min_parallel_items(),
            p.min_parallel_items,
            "set_policy drops the override"
        );
    }

    #[test]
    fn pass_counter_counts_dispatches() {
        let pool = WorkerPool::new(2);
        let before = pool.passes();
        let _ = pool.run_indexed(4, |i| i);
        let _ = pool.run_indexed(4, |i| i);
        assert_eq!(pool.passes(), before + 2);
    }

    #[test]
    fn calibration_applies_within_band() {
        let mut pool = WorkerPool::new(3);
        let c = pool.calibrate();
        if c.applied {
            assert!(c.dispatch_ns_per_pass > 0.0);
            assert!(c.per_item_ns > 0.0);
            assert!((MIN_WORK_FLOOR..=MIN_WORK_CEIL).contains(&c.derived_min_parallel_items));
            assert_eq!(
                pool.policy().min_parallel_items,
                c.derived_min_parallel_items
            );
        }
        // Other knobs are untouched.
        assert_eq!(pool.policy().pass_quantum, Policy::default().pass_quantum);
    }
}
