//! # canvas-executor
//!
//! The **persistent execution substrate** of the canvas-algebra
//! workspace: a std-only worker pool that is spawned once per `Device`,
//! kept hot across operator chains, and joined on drop.
//!
//! The paper's algebra is fast because every operator decomposes into
//! uniform data-parallel passes over canvases; resident engines like
//! SPADE show that the win survives only if per-pass launch latency is
//! tiny. Before this crate, every parallel pass forked and joined fresh
//! OS threads (`std::thread::scope`); now passes are dispatched to
//! parked workers through a condvar — microseconds instead of tens of
//! microseconds, gated by `perf_gate_pool_dispatch` in the workspace's
//! `tests/perf_gates.rs` and tracked per workload by the repo
//! benchmark's `executor.dispatch_us`.
//!
//! Four execution shapes, all with the same determinism contract
//! (outputs merged in item order ⇒ parallel runs are bit-identical to
//! sequential at any thread count):
//!
//! * [`WorkerPool::run_indexed`] — indexed fork-join with in-order
//!   results (tile binning, tile rasterization),
//! * [`WorkerPool::for_each_chunk`] / `for_each_band*` — chunk-claiming
//!   in-place passes over planes (Blend, Mask, Value Transform),
//! * [`WorkerPool::run_streaming`] — bounded-window produce/merge
//!   pipelining (the streaming tile merge; peak memory capped by
//!   [`Policy::stream_window`]),
//! * [`WorkerPool::run_streaming_chain`] — the multi-stage
//!   generalization: every produced item flows through a sequence of
//!   per-item transform stages (fused operator chains — a tile rendered
//!   by one worker can be blended/masked by another while later tiles
//!   are still rasterizing), still claim-gated and merged in order.
//!
//! All scheduling tunables live in one [`Policy`] so every operator
//! shares a single knob set.
//!
//! Passes from **concurrent submitters** (a serving engine's queries)
//! serialize on a *fair* gate rather than a plain mutex: callers tag
//! their work with a ticket ([`WorkerPool::register_ticket`] /
//! [`WorkerPool::with_ticket`]) and the gate interleaves tickets
//! pass-by-pass under a bounded quantum
//! ([`Policy::pass_quantum`](policy::Policy::pass_quantum)) — no
//! whole-query head-of-line blocking; accounting in [`SchedulerStats`].
//! The minimum-work threshold can be **calibrated** per host from the
//! measured dispatch latency ([`WorkerPool::calibrate`]).

pub mod calibrate;
pub mod policy;
pub mod pool;
pub mod schedule;
pub mod stream;

pub use calibrate::{calibrate_min_work, Calibration};
pub use policy::{Policy, MIN_PARALLEL_ITEMS, PASS_QUANTUM};
pub use pool::{live_worker_count, WorkerPool};
pub use schedule::{SchedulerStats, TicketId};
pub use stream::{ChainStage, StreamReport};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn streaming_merges_in_order_and_matches_sequential() {
        let pool = WorkerPool::new(4);
        let mut merged = Vec::new();
        pool.run_streaming(100, |i| i * 3, |i, v| merged.push((i, v)));
        let want: Vec<(usize, usize)> = (0..100).map(|i| (i, i * 3)).collect();
        assert_eq!(merged, want);
    }

    #[test]
    fn streaming_sequential_fallback() {
        let pool = WorkerPool::new(1);
        let mut merged = Vec::new();
        pool.run_streaming(10, |i| i, |i, v| merged.push((i, v)));
        assert_eq!(merged.len(), 10);
        assert!(merged
            .iter()
            .enumerate()
            .all(|(k, &(i, v))| k == i && v == i));
    }

    #[test]
    fn streaming_bounds_in_flight_items() {
        // Track the high-water mark of produced-but-unmerged items; it
        // must respect the policy window (+1 for the item being merged).
        let policy = Policy {
            stream_window_per_worker: 1,
            ..Policy::default()
        };
        let pool = WorkerPool::with_policy(4, policy);
        let window = pool.policy().stream_window(pool.worker_count());
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.run_streaming(
            200,
            |i| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                i
            },
            |_, _| {
                live.fetch_sub(1, Ordering::SeqCst);
            },
        );
        let peak = peak.load(Ordering::SeqCst);
        assert!(
            peak <= window + 1,
            "peak in-flight {peak} exceeds window {window}+1"
        );
    }

    #[test]
    fn streaming_producer_panic_propagates() {
        let pool = WorkerPool::new(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_streaming(
                50,
                |i| {
                    if i == 20 {
                        panic!("producer boom");
                    }
                    i
                },
                |_, _| {},
            );
        }));
        assert!(result.is_err());
        // Pool still healthy afterwards.
        let mut n = 0;
        pool.run_streaming(5, |i| i, |_, _| n += 1);
        assert_eq!(n, 5);
    }

    #[test]
    fn streaming_window_one_completes() {
        // A clamped window of 1 (per-worker factor 0) fully serializes
        // produce→merge but must never deadlock the claim gate.
        let policy = Policy {
            stream_window_per_worker: 0,
            ..Policy::default()
        };
        for threads in [2usize, 4, 8] {
            let pool = WorkerPool::with_policy(threads, policy);
            assert_eq!(pool.policy().stream_window(pool.worker_count()), 1);
            let mut merged = Vec::new();
            let report = pool.run_streaming_chain(
                64,
                |i| i + 1,
                &[&|_i: usize, v: &mut usize| *v *= 2],
                |i, v| merged.push((i, v)),
            );
            let want: Vec<(usize, usize)> = (0..64).map(|i| (i, (i + 1) * 2)).collect();
            assert_eq!(merged, want, "at {threads} threads");
            assert_eq!(
                report.peak_in_flight, 1,
                "window-1 run exceeded one live item"
            );
        }
    }

    #[test]
    fn streaming_window_larger_than_item_count() {
        // Window ≥ n: every item may be claimed immediately; merge
        // order must still be ascending.
        let policy = Policy {
            stream_window_per_worker: 64,
            ..Policy::default()
        };
        let pool = WorkerPool::with_policy(4, policy);
        let window = pool.policy().stream_window(pool.worker_count());
        assert!(window >= 10);
        let mut merged = Vec::new();
        let report = pool.run_streaming_chain(10, |i| i, &[], |i, v| merged.push((i, v)));
        assert_eq!(merged, (0..10).map(|i| (i, i)).collect::<Vec<_>>());
        assert!(report.peak_in_flight <= 10);
    }

    #[test]
    fn streaming_zero_and_single_item_passes() {
        // n = 0 and n = 1 take the inline path at every thread count.
        for threads in [1usize, 3] {
            let pool = WorkerPool::new(threads);
            let mut merged = Vec::new();
            let report = pool.run_streaming_chain(
                0,
                |i| i,
                &[&|_i: usize, v: &mut usize| *v += 1],
                |i, v| merged.push((i, v)),
            );
            assert!(merged.is_empty());
            assert_eq!(report.peak_in_flight, 0);
            let report = pool.run_streaming_chain(
                1,
                |i| i + 7,
                &[&|_i: usize, v: &mut usize| *v += 1],
                |i, v| merged.push((i, v)),
            );
            assert_eq!(merged, vec![(0, 8)]);
            assert_eq!(report.peak_in_flight, 1);
        }
    }

    #[test]
    fn chain_matches_sequential_composition() {
        // Multi-stage hand-off: any thread count, any stage depth, the
        // result equals the inline produce→stages→merge loop.
        let stage_a = |i: usize, v: &mut u64| *v = *v * 3 + i as u64;
        let stage_b = |_i: usize, v: &mut u64| *v ^= 0x5DEECE66D;
        let stage_c = |i: usize, v: &mut u64| *v = v.rotate_left((i % 7) as u32);
        let stages: Vec<ChainStage<u64>> = vec![&stage_a, &stage_b, &stage_c];
        let mut want = Vec::new();
        for i in 0..200usize {
            let mut v = (i as u64).wrapping_mul(0x9E3779B9);
            for s in &stages {
                s(i, &mut v);
            }
            want.push((i, v));
        }
        for threads in [1usize, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let mut merged = Vec::new();
            let report = pool.run_streaming_chain(
                200,
                |i| (i as u64).wrapping_mul(0x9E3779B9),
                &stages,
                |i, v| merged.push((i, v)),
            );
            assert_eq!(merged, want, "at {threads} threads");
            assert_eq!(report.items, 200);
            let window = pool.policy().stream_window(pool.worker_count());
            assert!(
                report.peak_in_flight <= window.max(1),
                "peak {} exceeds window {} at {threads} threads",
                report.peak_in_flight,
                window
            );
        }
    }

    #[test]
    fn chain_bounds_live_items_under_skew() {
        // Claimed-but-unmerged items must respect the claim window even
        // when stage work piles up behind a slow merge frontier.
        let policy = Policy {
            stream_window_per_worker: 1,
            ..Policy::default()
        };
        let pool = WorkerPool::with_policy(4, policy);
        let window = pool.policy().stream_window(pool.worker_count());
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let stage = |_i: usize, _v: &mut usize| {
            // Let other executors race ahead while an item sits in a
            // stage, maximizing pressure on the gate.
            std::thread::yield_now();
        };
        let stages: Vec<ChainStage<usize>> = vec![&stage, &stage];
        let report = pool.run_streaming_chain(
            300,
            |i| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                i
            },
            &stages,
            |_, _| {
                live.fetch_sub(1, Ordering::SeqCst);
            },
        );
        let observed = peak.load(Ordering::SeqCst);
        assert!(
            observed <= window,
            "observed peak {observed} exceeds window {window}"
        );
        // The gate samples claimed-but-unmerged at claim time, which
        // dominates the produce-side live count.
        assert!(observed <= report.peak_in_flight);
        assert!(report.peak_in_flight <= window);
    }

    #[test]
    fn chain_stage_panic_propagates() {
        let pool = WorkerPool::new(3);
        let stage = |i: usize, _v: &mut usize| {
            if i == 17 {
                panic!("stage boom");
            }
        };
        let stages: Vec<ChainStage<usize>> = vec![&stage];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_streaming_chain(50, |i| i, &stages, |_, _| {});
        }));
        assert!(result.is_err());
        // Pool still healthy afterwards.
        let mut n = 0;
        pool.run_streaming(5, |i| i, |_, _| n += 1);
        assert_eq!(n, 5);
    }

    #[test]
    fn streaming_merge_panic_propagates() {
        let pool = WorkerPool::new(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_streaming(
                50,
                |i| i,
                |i, _| {
                    if i == 10 {
                        panic!("merge boom");
                    }
                },
            );
        }));
        assert!(result.is_err());
        let mut n = 0;
        pool.run_streaming(5, |i| i, |_, _| n += 1);
        assert_eq!(n, 5);
    }
}
