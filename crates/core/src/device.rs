//! Execution device: a software pipeline plus the profile that models it.
//!
//! Queries execute against a [`Device`]; all pipeline work is counted and
//! can be converted to modeled GPU time (see `canvas_raster::device` for
//! the substitution rationale — this container has no physical GPU).

use canvas_raster::{DeviceProfile, Pipeline, PipelineStats, WorkerPool};
use std::sync::Arc;

/// A pipeline bound to a device profile.
///
/// A `Device` owns its pipeline and, through it, a persistent
/// [`WorkerPool`]: `cpu_parallel(n)` spawns the pool's `n - 1` workers
/// **once**, every subsequent pass re-uses them (parked on a condvar
/// between passes), and dropping the device joins them — no threads
/// outlive it (the pool-shutdown leak check asserts this).
#[derive(Debug)]
pub struct Device {
    pipeline: Pipeline,
    profile: DeviceProfile,
}

impl Device {
    pub fn new(profile: DeviceProfile) -> Self {
        Device {
            pipeline: Pipeline::new(),
            profile,
        }
    }

    /// The discrete GPU of the paper's evaluation (modeled).
    pub fn nvidia() -> Self {
        Device::new(DeviceProfile::nvidia_gtx_1070_max_q())
    }

    /// The integrated GPU of the paper's evaluation (modeled).
    pub fn intel() -> Self {
        Device::new(DeviceProfile::intel_uhd_630())
    }

    /// Single-threaded CPU execution of the tiled software pipeline —
    /// the sequential reference the parallel mode is verified against.
    pub fn cpu() -> Self {
        Device::new(DeviceProfile::cpu_parallel_n(1))
    }

    /// `n`-thread CPU execution: the same tiled pipeline with tiles and
    /// full-screen bands spread across the device's persistent worker
    /// pool (spawned here, once). Results are bit-identical to
    /// [`Device::cpu`] at any `n` (tiles merge in a fixed order;
    /// per-pixel blend order is the input order).
    pub fn cpu_parallel(threads: usize) -> Self {
        let mut dev = Device::new(DeviceProfile::cpu_parallel_n(threads));
        dev.pipeline.set_threads(threads);
        dev
    }

    /// A device whose pipeline executes on an **existing** worker pool
    /// instead of spawning its own — how a serving engine gives many
    /// concurrently-evaluating queries one set of executor threads.
    /// Construction is cheap (no thread spawn); dropping it never joins
    /// the shared workers.
    pub fn with_pool(profile: DeviceProfile, pool: Arc<WorkerPool>) -> Self {
        let mut dev = Device::new(profile);
        dev.pipeline.set_pool(pool);
        dev
    }

    /// Worker threads the pipeline fans work out to (1 = sequential).
    pub fn threads(&self) -> usize {
        self.pipeline.threads()
    }

    /// The persistent worker pool executing this device's passes
    /// (shared with every operator; sized by [`cpu_parallel`](Self::cpu_parallel)).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        self.pipeline.pool()
    }

    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    pub fn pipeline(&mut self) -> &mut Pipeline {
        &mut self.pipeline
    }

    pub fn stats(&self) -> PipelineStats {
        self.pipeline.stats()
    }

    pub fn reset_stats(&mut self) {
        self.pipeline.reset_stats();
    }

    /// Modeled execution time (seconds) of all work since the last reset.
    pub fn modeled_time(&self) -> f64 {
        self.profile.estimate(&self.pipeline.stats())
    }

    /// Modeled transfer-only time (seconds).
    pub fn modeled_transfer_time(&self) -> f64 {
        self.profile.transfer_time(&self.pipeline.stats())
    }
}

impl Default for Device {
    /// Defaults to the discrete-GPU profile, the paper's primary target.
    fn default() -> Self {
        Device::nvidia()
    }
}

/// The shared-state evaluation path: one worker pool + profile + stats
/// accumulator that **many threads** can evaluate plans against through
/// `&self` — the concurrency surface `Expr::eval(&mut Device, …)`
/// cannot offer.
///
/// A [`Device`] is deliberately single-caller (`&mut` everywhere): its
/// pipeline owns scratch planes and work counters. `SharedDevice`
/// splits that state instead of wrapping it in one big lock: the
/// expensive part (the executor pool and its parked worker threads) is
/// shared by reference, while each evaluation [`lease`](Self::lease)s
/// a throwaway `Device` around the shared pool (cheap: a couple of
/// allocations, no thread spawn) and folds its work counters back into
/// the shared total on [`reclaim`](Self::reclaim). Evaluations from
/// different threads therefore run genuinely concurrently — their
/// passes interleave fairly on the pool's pass gate — and the modeled
/// cost accounting still adds up across all of them.
#[derive(Debug)]
pub struct SharedDevice {
    pool: Arc<WorkerPool>,
    profile: DeviceProfile,
    stats: std::sync::Mutex<PipelineStats>,
}

impl SharedDevice {
    /// Shares an existing pool under the given profile.
    pub fn with_pool(profile: DeviceProfile, pool: Arc<WorkerPool>) -> Self {
        SharedDevice {
            pool,
            profile,
            stats: std::sync::Mutex::new(PipelineStats::default()),
        }
    }

    /// Spawns a fresh `threads`-wide pool (the shared sibling of
    /// [`Device::cpu_parallel`], with the matching modeled profile).
    pub fn cpu_parallel(threads: usize) -> Self {
        let threads = threads.max(1);
        Self::with_pool(
            DeviceProfile::cpu_parallel_n(threads),
            Arc::new(WorkerPool::new(threads)),
        )
    }

    /// The shared executor pool.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Concurrent executors of the shared pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Checks out a private `Device` over the shared pool. Pair with
    /// [`reclaim`](Self::reclaim) (or use [`run`](Self::run)) so the
    /// work it counts lands in the shared totals.
    pub fn lease(&self) -> Device {
        Device::with_pool(self.profile.clone(), Arc::clone(&self.pool))
    }

    /// Folds a leased device's work counters into the shared totals.
    pub fn reclaim(&self, dev: Device) {
        let mut stats = self
            .stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *stats = stats.merged(&dev.stats());
    }

    /// Lease → run → reclaim in one call; safe to invoke from any
    /// number of threads simultaneously.
    pub fn run<R>(&self, f: impl FnOnce(&mut Device) -> R) -> R {
        // The guard owns the leased device so its counted work is
        // folded back in even when `f` unwinds.
        struct Reclaim<'a>(&'a SharedDevice, Option<Device>);
        impl Drop for Reclaim<'_> {
            fn drop(&mut self) {
                if let Some(dev) = self.1.take() {
                    self.0.reclaim(dev);
                }
            }
        }
        let mut guard = Reclaim(self, Some(self.lease()));
        f(guard.1.as_mut().expect("leased device present"))
    }

    /// Total counted work of all reclaimed evaluations.
    pub fn stats(&self) -> PipelineStats {
        *self
            .stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Modeled execution time (seconds) of all reclaimed work.
    pub fn modeled_time(&self) -> f64 {
        self.profile.estimate(&self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_counts_and_models() {
        let mut dev = Device::nvidia();
        dev.pipeline().note_upload(1_000_000);
        assert_eq!(dev.stats().bytes_uploaded, 1_000_000);
        assert!(dev.modeled_time() > 0.0);
        assert!(dev.modeled_transfer_time() > 0.0);
        dev.reset_stats();
        assert_eq!(dev.modeled_time(), 0.0);
    }

    #[test]
    fn profiles_differ() {
        assert_ne!(
            Device::nvidia().profile().name,
            Device::intel().profile().name
        );
    }

    #[test]
    fn shared_device_accumulates_stats_across_threads() {
        let shared = std::sync::Arc::new(SharedDevice::cpu_parallel(2));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let shared = std::sync::Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                shared.run(|dev| dev.pipeline().note_upload(1000));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.stats().bytes_uploaded, 3000);
        assert!(shared.modeled_time() > 0.0);
    }

    #[test]
    fn shared_device_leases_share_one_pool() {
        // Per-pool assertions only: sibling tests spawn pools too, so
        // the process-wide worker count is checked where it can be, in
        // `tests/pool_shutdown.rs`.
        let shared = SharedDevice::cpu_parallel(3);
        let a = shared.lease();
        let b = shared.lease();
        // No additional workers were spawned for the leases.
        assert!(Arc::ptr_eq(a.pool(), b.pool()));
        assert_eq!(a.pool().worker_count(), 2);
        shared.reclaim(a);
        shared.reclaim(b);
    }

    #[test]
    fn shared_run_reclaims_on_panic() {
        let shared = SharedDevice::cpu_parallel(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.run(|dev| {
                dev.pipeline().note_upload(77);
                panic!("query failed");
            })
        }));
        assert!(result.is_err());
        assert_eq!(shared.stats().bytes_uploaded, 77);
    }
}
