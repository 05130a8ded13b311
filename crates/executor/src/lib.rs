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
//! Two execution shapes, both with the same determinism contract
//! (outputs merged in item order ⇒ parallel runs are bit-identical to
//! sequential at any thread count):
//!
//! * [`WorkerPool::run_indexed`] / [`WorkerPool::run_claimed`] —
//!   indexed fork-join with in-order results (tile binning; tile
//!   rasterization, each tile writing its own row segments of the
//!   planes in place; scatter rounds),
//! * [`WorkerPool::for_each_chunk`] / `for_each_band*` — chunk-claiming
//!   in-place passes over planes (Blend, Mask, Value Transform, chains
//!   over a finished canvas).
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

pub use calibrate::{calibrate_min_work, Calibration};
pub use policy::{Policy, MIN_PARALLEL_ITEMS, PASS_QUANTUM};
pub use pool::{live_worker_count, WorkerPool};
pub use schedule::{SchedulerStats, TicketId};
