//! The concurrent query-serving engine.
//!
//! [`QueryEngine::execute`] is the single entry point: any number of
//! client threads call it simultaneously with a [`Query`] and a
//! viewport. A submission flows through five stations (diagram in
//! the crate docs):
//!
//! 1. **Prepare** lowers the descriptor (plans are normalized) and
//!    computes its fingerprint ([`Query::prepare`]).
//! 2. **Cache** — a hit returns the shared result immediately
//!    (bit-identical by construction: the cache stores the `Arc` the
//!    original evaluation produced).
//! 3. **In-flight dedup** — a submission whose key is already being
//!    evaluated *coalesces*: it parks until the leader publishes, then
//!    shares that outcome instead of re-evaluating.
//! 4. **Admission control** bounds concurrently-executing queries and
//!    the waiting line behind them; beyond the line the engine sheds
//!    load ([`EngineError::Overloaded`]) instead of collapsing.
//! 5. **Execution** leases a device over the shared worker pool
//!    ([`SharedDevice`]) under a fresh pass-scheduling ticket, so
//!    concurrent queries interleave *passes* fairly on the pool
//!    instead of queueing whole-query behind a lock. A maintainable
//!    query (a live heatmap over a versioned table) first probes the
//!    cache for a canvas of a *predecessor generation* and, on a hit,
//!    patches only the append delta's dirty tiles instead of
//!    rendering.
//!
//! The leader then **publishes**: result into the cache, followers
//! woken with the same `Arc`. Every obligation a leader takes on the
//! way is a guard — the in-flight slot (`Lead`), the admission
//! `Permit`, the spans — so a panic at any station unwinds into the
//! state a clean failure leaves: followers resolved with
//! [`EngineError::LeaderFailed`], permit returned, counters conserved
//! (`submitted = computed + cache_hits + coalesced +
//! incremental_refreshes + shed + failed`). The leader/follower
//! mechanism (`Flights`) is keyed by whole-plan fingerprints only.
//! Plan interiors are shared through the cache alone: at every cut
//! point evaluation probes the engine's [`SubplanCache`], renders on a
//! miss and publishes — it never waits on another query.

use crate::cache::{CacheKey, CacheStats, CanvasCache, DataPin};
use crate::query::{Prepared, Query};
use crate::result::QueryResult;
use canvas_core::algebra::{Fingerprint, SubplanCache};
use canvas_core::{Canvas, SharedDevice};
use canvas_obs as obs;
use canvas_raster::{Calibration, SchedulerStats, Viewport};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Engine construction knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Concurrent executors of the shared worker pool (1 = inline).
    pub threads: usize,
    /// Queries evaluating simultaneously; more wait at admission.
    /// Also the width of the cache's viewport window: the cache keeps
    /// interiors for the `max_concurrent` most recently computed-at
    /// viewports, plus any viewport an evaluation is running at, and
    /// retires them once their viewport falls out (see
    /// [`CanvasCache::new`]). The width rests on each evaluation
    /// running at one viewport; that this suits several concurrent
    /// clients is unverified by the benchmark, whose computing
    /// workloads are single-client.
    pub max_concurrent: usize,
    /// Submissions allowed to wait at admission before the engine
    /// sheds load.
    pub max_queue: usize,
    /// Canvas cache budget in bytes; 0 disables caching. The budget
    /// caps what stays resident; entries usually leave earlier:
    /// interiors when their viewport leaves the window
    /// (`max_concurrent`), roots never asked again once they outgrow a
    /// quarter of the budget at cold viewports. Protected roots —
    /// asked again, or patchable — leave only under budget pressure.
    pub cache_budget_bytes: usize,
    /// Measure pool dispatch latency at startup and derive
    /// `Policy::min_parallel_items` from it (the static default stays
    /// as fallback).
    pub calibrate: bool,
    /// Tail-sampling bar of the always-on flight recorder: a query
    /// whose end-to-end service time exceeds this (or that was shed,
    /// failed, or panicked) has its span tree promoted from the
    /// bounded per-thread rings into the retained slow-query log
    /// ([`QueryEngine::slow_queries`]) as a measured
    /// [`ExecReport`](canvas_obs::ExecReport). Fast queries pay only
    /// the ring pushes. `Duration::MAX` disables capture entirely.
    pub slow_query_threshold: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        EngineConfig {
            threads,
            max_concurrent: threads.max(2),
            max_queue: 64,
            cache_budget_bytes: 256 << 20,
            calibrate: true,
            // An interactive engine's latency budget is ~100ms (the
            // paper's interactivity bar); captures start at 2.5× that
            // so the log holds genuine outliers, not the daily p95.
            slow_query_threshold: Duration::from_millis(250),
        }
    }
}

/// Why a submission was not served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// Admission queue full; retry later (classic load shedding).
    Overloaded { executing: usize, queued: usize },
    /// The leader evaluating this same query panicked; the coalesced
    /// followers get the panic message instead of hanging.
    LeaderFailed(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Overloaded { executing, queued } => {
                write!(
                    f,
                    "engine overloaded ({executing} executing, {queued} queued)"
                )
            }
            EngineError::LeaderFailed(msg) => write!(f, "deduplicated leader failed: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// How a served response was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Evaluated here, now cached.
    Computed,
    /// Returned straight from the canvas cache.
    CacheHit,
    /// Shared an in-flight evaluation of the same key.
    Coalesced,
    /// Maintained incrementally: a cached predecessor generation's
    /// canvas was cloned and only the append delta's dirty tiles were
    /// redrawn, then published under this generation's fingerprint
    /// (bit-identical to a full render — the full render was avoided,
    /// not approximated).
    Incremental,
}

impl Served {
    /// The provenance string reports carry.
    pub fn as_str(&self) -> &'static str {
        match self {
            Served::Computed => "computed",
            Served::CacheHit => "cache",
            Served::Coalesced => "coalesced",
            Served::Incremental => "incremental",
        }
    }
}

/// A served query result.
pub struct Response {
    /// The result payload — shared, immutable; a canvas for the
    /// rendering classes, a derived value (ids, flow matrix, series,
    /// hull ring) for the promoted classes.
    pub result: QueryResult,
    pub fingerprint: Fingerprint,
    pub served: Served,
    /// Time spent waiting at admission (zero for hits/coalesced).
    pub queue_wait: Duration,
    /// Evaluation time (zero for cache hits; the leader's wall time is
    /// *not* charged to coalesced followers — they report their park
    /// time here).
    pub exec: Duration,
    /// End-to-end service time of this submission.
    pub service: Duration,
    /// The query's span-track id (0 when both tracing and the flight
    /// recorder are off) — [`report`](Self::report) joins the flight
    /// rings on it.
    query_span: u64,
    /// The prepared form that served this response; carries the
    /// EXPLAIN skeleton ([`Prepared::explain`]).
    prepared: Arc<Prepared>,
}

impl Response {
    /// The result canvas — the convenience accessor for the
    /// canvas-producing query classes.
    ///
    /// # Panics
    ///
    /// Panics when the response carries a non-canvas payload; use
    /// [`Response::result`] and its `as_*` accessors for the promoted
    /// classes.
    pub fn canvas(&self) -> &Arc<Canvas> {
        self.result.canvas()
    }

    /// EXPLAIN ANALYZE for this response: the prepared plan's skeleton
    /// annotated with this submission's measured spans, collected from
    /// the always-on flight rings (per-node wall time, passes, tiles,
    /// bytes, provenance, and the engine-station timings). Collect
    /// promptly — ring slots recycle under later traffic; rows whose
    /// spans were already overwritten report `provenance: missing`.
    /// When the recorder was off for this query the report stays
    /// plan-only measurements-wise (`spans_joined == 0`).
    pub fn report(&self) -> obs::ExecReport {
        measured_report(
            &self.prepared,
            self.served.as_str(),
            self.service,
            self.query_span,
        )
    }
}

/// The EXPLAIN skeleton of `prepared` stamped with one submission's
/// provenance and service time and, when the submission recorded spans
/// (`query_span != 0`), joined with them from the flight rings.
fn measured_report(
    prepared: &Prepared,
    provenance: &str,
    service: Duration,
    query_span: u64,
) -> obs::ExecReport {
    let mut r = prepared.explain();
    r.provenance = provenance.to_string();
    r.service_ns = nanos(service);
    r.simd_backend = canvas_raster::simd::active_backend().name().to_string();
    if query_span == 0 {
        return r;
    }
    r.measure(query_span, &obs::flight::collect(query_span))
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Locks `m`, recovering the guard from a poisoned mutex: every update
/// made under the engine's locks leaves the data valid at every step,
/// and a panicking query must not take the engine down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a leader hands its followers. The full outcome — including a
/// structured [`EngineError`] — so a follower coalesced onto a shed
/// leader still sees `Overloaded` (the retry signal), not a generic
/// failure.
type Outcome = Result<QueryResult, EngineError>;

/// One in-flight evaluation other submitters can latch onto.
struct Flight {
    slot: Mutex<Option<Outcome>>,
    done: Condvar,
}

impl Flight {
    /// Parks until the leader resolves the flight, then shares its
    /// outcome **directly from the slot** — even if the cache evicted
    /// (or never admitted) the result, a follower's answer can never go
    /// stale or vanish.
    fn wait(&self) -> Outcome {
        let slot = self
            .done
            .wait_while(lock(&self.slot), |slot| slot.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        slot.clone().expect("woken by a resolved slot")
    }
}

/// A keyed table of in-flight whole-plan evaluations — the one
/// leader/follower mechanism.
#[derive(Default)]
struct Flights(Mutex<HashMap<CacheKey, Arc<Flight>>>);

/// The caller's role in a [`Flights::join`].
enum Joined<'a> {
    /// First under the key: evaluate, then [`Lead::publish`].
    Lead(Lead<'a>),
    /// Someone is already evaluating it: [`Flight::wait`] for them.
    Follow(Arc<Flight>),
}

impl Flights {
    fn join(&self, key: CacheKey) -> Joined<'_> {
        let mut table = lock(&self.0);
        if let Some(flight) = table.get(&key) {
            return Joined::Follow(Arc::clone(flight));
        }
        let flight = Arc::new(Flight {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        table.insert(key, Arc::clone(&flight));
        Joined::Lead(Lead {
            flights: self,
            key,
            flight,
            blame: None,
            resolved: false,
        })
    }
}

/// A leader's obligation to its followers, discharged by construction:
/// [`publish`](Self::publish) hands them an outcome; dropping the guard
/// unresolved — the leader panicked or bailed — hands them
/// [`EngineError::LeaderFailed`] instead of leaving them parked.
struct Lead<'a> {
    flights: &'a Flights,
    key: CacheKey,
    flight: Arc<Flight>,
    /// The failure followers are told about if the guard drops
    /// unresolved (a caught panic's message).
    blame: Option<String>,
    resolved: bool,
}

impl Lead<'_> {
    /// Resolves the flight — at most once: wakes the followers with
    /// `outcome` and retires the table entry.
    fn publish(&mut self, outcome: Outcome) {
        debug_assert!(!self.resolved, "a flight resolves once");
        self.resolved = true;
        *lock(&self.flight.slot) = Some(outcome);
        self.flight.done.notify_all();
        lock(&self.flights.0).remove(&self.key);
    }
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        if !self.resolved {
            let msg = self.blame.take();
            self.publish(Err(EngineError::LeaderFailed(
                msg.unwrap_or_else(|| "query evaluation panicked".to_string()),
            )));
        }
    }
}

/// The engine's [`SubplanCache`]: cut-point canvases come from and go
/// to the shared class of the engine's cache. Created per execution so
/// published entries carry the query's dataset pins.
struct Exchange<'e> {
    engine: &'e QueryEngine,
    /// Pins of the whole query — a superset of any subplan's pins
    /// (over-pinning is harmless; under-pinning would let a dataset
    /// address be reused under a live key).
    pins: &'e [DataPin],
}

impl SubplanCache for Exchange<'_> {
    fn get(&self, fp: Fingerprint, vp: &Viewport) -> Option<Arc<Canvas>> {
        let canvas = self.engine.cache.get_shared(&CacheKey::new(fp, vp))?;
        self.engine.metrics_mut().subplan_hits += 1;
        Some(canvas)
    }

    fn publish(&self, fp: Fingerprint, vp: &Viewport, canvas: &Arc<Canvas>) {
        self.engine.cache.insert_shared(
            CacheKey::new(fp, vp),
            Arc::clone(canvas),
            self.pins.to_vec(),
        );
        self.engine.metrics_mut().subplan_published += 1;
    }
}

/// Counting semaphore with a bounded **FIFO** waiting line: waiters
/// hold arrival sequence numbers and only the front waiter may take a
/// freed permit, so a fresh arrival can never barge past a parked one
/// (unbounded tail latency would contradict the engine's fair-share
/// story).
struct Admission {
    state: Mutex<AdmState>,
    freed: Condvar,
}

struct AdmState {
    permits: usize,
    executing: usize,
    next_seq: u64,
    queue: VecDeque<u64>,
    peak_queued: usize,
    shed: u64,
}

/// One executing slot of an [`Admission`] gate, returned on drop —
/// including when the holder unwinds.
struct Permit<'a>(&'a Admission);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        lock(&self.0.state).executing -= 1;
        // Only the front waiter may proceed; wake everyone and let the
        // predicate sort it out (lines are short — max_queue bounded).
        self.0.freed.notify_all();
    }
}

impl Admission {
    fn new(permits: usize) -> Self {
        Admission {
            state: Mutex::new(AdmState {
                permits: permits.max(1),
                executing: 0,
                next_seq: 0,
                queue: VecDeque::new(),
                peak_queued: 0,
                shed: 0,
            }),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self, max_queue: usize) -> Result<Permit<'_>, EngineError> {
        let mut st = lock(&self.state);
        // Fast path only when nobody is queued — otherwise join the
        // line behind them even if a permit is momentarily free.
        if st.executing < st.permits && st.queue.is_empty() {
            st.executing += 1;
            return Ok(Permit(self));
        }
        if st.queue.len() >= max_queue {
            st.shed += 1;
            return Err(EngineError::Overloaded {
                executing: st.executing,
                queued: st.queue.len(),
            });
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.queue.push_back(seq);
        st.peak_queued = st.peak_queued.max(st.queue.len());
        while !(st.executing < st.permits && st.queue.front() == Some(&seq)) {
            st = self.freed.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.queue.pop_front();
        st.executing += 1;
        // The next-in-line waiter may also be eligible (multiple
        // permits freed while we were at the front).
        drop(st);
        self.freed.notify_all();
        Ok(Permit(self))
    }
}

/// What stations 2–5 hand back for a served submission — the
/// [`Response`] fields decided there.
struct Serving {
    result: QueryResult,
    how: Served,
    queue_wait: Duration,
    exec: Duration,
}

/// A cached predecessor generation's canvas an incremental refresh
/// patches instead of re-rendering `snapshot` from scratch.
struct RefreshBase<'a> {
    key: CacheKey,
    canvas: Arc<Canvas>,
    /// Length of the generation the canvas was rendered from; the
    /// refresh patches in only `snapshot.delta_from(prefix_len)`.
    prefix_len: usize,
    snapshot: &'a canvas_core::TableSnapshot,
}

/// Computed-response cadence of load-aware minimum-work recalibration
/// (see `QueryEngine::maybe_recalibrate`): frequent enough to track
/// load shifts on a serving engine, rare enough that the ~µs kernel
/// probe never shows up in service latency.
const RECALIBRATE_EVERY: u64 = 64;

/// Retained slow-query captures before the log evicts its oldest
/// entry. Reports are small (a few KB of strings + counters), so the
/// cap bounds the recorder's retained footprint, not its coverage —
/// `slow_captured` counts every promotion including evicted ones.
const SLOW_LOG_CAP: usize = 64;

/// Latency distribution (seconds) over one response class — a
/// histogram snapshot, not a mean-only aggregate: tail percentiles
/// (p95/p99) are what a serving engine is tuned by, and a mean hides
/// exactly the latencies that matter.
///
/// Recording happens in the engine's live `canvas_obs::Histogram`s
/// (lock-free, nanosecond-bucketed); this type is the point-in-time
/// copy [`QueryEngine::metrics`] folds into [`EngineMetrics`].
#[derive(Clone, Debug, Default)]
pub struct LatencyStats(pub obs::HistogramSnapshot);

impl LatencyStats {
    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    pub fn mean_secs(&self) -> f64 {
        self.0.mean_secs()
    }

    pub fn max_secs(&self) -> f64 {
        self.0.max_secs()
    }

    /// Median latency in seconds (log-bucket interpolated, ≤ 2×
    /// relative error).
    pub fn p50_secs(&self) -> f64 {
        self.0.quantile_secs(0.50)
    }

    pub fn p95_secs(&self) -> f64 {
        self.0.quantile_secs(0.95)
    }

    pub fn p99_secs(&self) -> f64 {
        self.0.quantile_secs(0.99)
    }
}

/// Engine-level counters (cache traffic lives in [`CacheStats`],
/// scheduler fairness in [`SchedulerStats`]).
#[derive(Clone, Debug, Default)]
pub struct EngineMetrics {
    pub submitted: u64,
    pub computed: u64,
    pub cache_hits: u64,
    pub coalesced: u64,
    pub shed: u64,
    pub failed: u64,
    pub peak_queued: usize,
    /// Cut-point canvases served from the shared subplan cache
    /// instead of rendered.
    pub subplan_hits: u64,
    /// Always 0: evaluation no longer waits on another query's
    /// in-flight intermediate, so no render is avoided that way. Kept
    /// only because the repo benchmark still reads it; a
    /// benchmark-only follow-up deletes it.
    pub shared_renders_avoided: u64,
    /// Cut-point canvases published for cross-query sharing.
    pub subplan_published: u64,
    /// Point batches appended to versioned tables through
    /// [`QueryEngine::ingest_append`] (each bumps its table's
    /// generation and retires that table's cached canvases by key).
    pub ingest_appends: u64,
    /// Queries served by patching a cached predecessor generation's
    /// canvas instead of re-rendering ([`Served::Incremental`]).
    pub incremental_refreshes: u64,
    /// Tiles redrawn across all incremental refreshes (the O(delta)
    /// work actually done; compare against `incremental_refreshes` ×
    /// tiles-per-viewport for the work skipped).
    pub dirty_tiles_redrawn: u64,
    /// End-to-end latency of successfully served submissions.
    pub service: LatencyStats,
    /// Evaluation-only latency of computed submissions.
    pub exec: LatencyStats,
    /// Admission-wait latency of computed submissions.
    pub queue_wait: LatencyStats,
    /// SIMD backend the tile kernels dispatch to on this host
    /// (`"scalar"`, `"sse2"`, or `"avx2"` — selected once at first
    /// kernel use, `CANVAS_SIMD` overrides).
    pub simd_backend: &'static str,
    /// Texel lanes per vector operation of that backend (1 = scalar).
    pub simd_width: usize,
    /// Load-aware minimum-work recalibrations applied since
    /// construction (see `WorkerPool::recalibrate`).
    pub recalibrations: u64,
}

impl EngineMetrics {
    /// Hits + coalesced over all served submissions: the fraction of
    /// traffic that never re-evaluated anything.
    pub fn reuse_rate(&self) -> f64 {
        let served = self.computed + self.cache_hits + self.coalesced;
        if served == 0 {
            0.0
        } else {
            (self.cache_hits + self.coalesced) as f64 / served as f64
        }
    }
}

/// The serving engine (see module docs). Cheap to share: wrap in an
/// `Arc` and hand clones to every client thread.
///
/// # Examples
///
/// Serve a Figure-5 selection; a resubmission is a cache hit returning
/// the *same* shared canvas:
///
/// ```
/// use canvas_core::prelude::*;
/// use canvas_engine::{EngineConfig, Query, QueryEngine, Served};
/// use canvas_geom::{BBox, Point, Polygon};
/// use std::sync::Arc;
///
/// let engine = QueryEngine::with_config(EngineConfig {
///     threads: 2,
///     calibrate: false, // skip startup measurement in examples
///     ..EngineConfig::default()
/// });
/// let data = Arc::new(PointBatch::from_points(vec![Point::new(2.0, 2.0)]));
/// let q = Polygon::simple(vec![
///     Point::new(1.0, 1.0),
///     Point::new(5.0, 1.0),
///     Point::new(5.0, 5.0),
///     Point::new(1.0, 5.0),
/// ])
/// .unwrap();
/// let vp = Viewport::new(
///     BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
///     16,
///     16,
/// );
///
/// let first = engine.execute(&Query::SelectPoints { data: data.clone(), q: q.clone() }, vp)?;
/// assert_eq!(first.served, Served::Computed);
/// assert_eq!(first.canvas().point_records(), vec![0]);
///
/// let again = engine.execute(&Query::SelectPoints { data, q }, vp)?;
/// assert_eq!(again.served, Served::CacheHit);
/// assert!(Arc::ptr_eq(first.canvas(), again.canvas()));
/// # Ok::<(), canvas_engine::EngineError>(())
/// ```
pub struct QueryEngine {
    shared: SharedDevice,
    cache: CanvasCache,
    admission: Admission,
    /// The construction knobs consulted while serving (`max_queue`,
    /// `slow_query_threshold`).
    cfg: EngineConfig,
    /// In-flight whole-plan evaluations.
    roots: Flights,
    metrics: Mutex<EngineMetrics>,
    /// Named counters + latency histograms, snapshot-able as JSON /
    /// Prometheus ([`QueryEngine::metrics_json`]). The histograms below
    /// are cached handles into this registry, so hot-path recording
    /// never takes the registry's name-lookup lock.
    registry: obs::Registry,
    /// End-to-end latency of successfully served submissions (ns).
    lat_service: Arc<obs::Histogram>,
    /// The same per query class (`service_ns_<label>`, e.g.
    /// `service_ns_knn`), indexed by class and resolved on the class's
    /// first response.
    lat_class: [OnceLock<Arc<obs::Histogram>>; Query::CLASSES],
    /// Evaluation-only latency of computed submissions (ns).
    lat_exec: Arc<obs::Histogram>,
    /// Admission-wait latency of computed submissions (ns).
    lat_queue_wait: Arc<obs::Histogram>,
    calibration: Option<Calibration>,
    /// Load-aware recalibrations applied (see `maybe_recalibrate`).
    recalibrations: AtomicU64,
    /// Retained slow-query captures ([`QueryEngine::slow_queries`]).
    slow_log: obs::SlowQueryLog,
}

impl QueryEngine {
    /// Engine over a fresh `threads`-wide pool with default limits.
    pub fn new(threads: usize) -> Self {
        Self::with_config(EngineConfig {
            threads,
            ..EngineConfig::default()
        })
    }

    pub fn with_config(cfg: EngineConfig) -> Self {
        let mut pool = canvas_raster::WorkerPool::new(cfg.threads.max(1));
        let calibration = if cfg.calibrate {
            Some(pool.calibrate())
        } else {
            None
        };
        let threads = pool.threads();
        let shared = SharedDevice::with_pool(
            canvas_raster::DeviceProfile::cpu_parallel_n(threads),
            Arc::new(pool),
        );
        let registry = obs::Registry::new();
        let lat_service = registry.histogram("service_ns");
        let lat_exec = registry.histogram("exec_ns");
        let lat_queue_wait = registry.histogram("queue_wait_ns");
        let engine = QueryEngine {
            shared,
            cache: CanvasCache::new(cfg.cache_budget_bytes, cfg.max_concurrent),
            admission: Admission::new(cfg.max_concurrent),
            cfg,
            roots: Flights::default(),
            metrics: Mutex::new(EngineMetrics::default()),
            registry,
            lat_service,
            lat_class: Default::default(),
            lat_exec,
            lat_queue_wait,
            calibration,
            recalibrations: AtomicU64::new(0),
            slow_log: obs::SlowQueryLog::new(SLOW_LOG_CAP),
        };
        // Stamp the process-level metadata into both the metrics
        // registry and the trace header, so snapshots and trace files
        // are self-describing across hosts.
        engine.refresh_process_meta();
        engine
    }

    /// Upserts process-level metadata (SIMD backend, calibration
    /// state, host core count) into the metrics registry **and** the
    /// global trace sink header. Called at construction and refreshed
    /// on every snapshot/export, so `recalibrations` and the live
    /// minimum-work threshold stay current.
    fn refresh_process_meta(&self) {
        let be = canvas_raster::simd::active_backend();
        let host_cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let min_items = self.shared.pool().effective_min_parallel_items();
        let recals = self.recalibrations.load(Ordering::Relaxed);
        let meta: [(&str, String); 5] = [
            ("simd_backend", be.name().to_string()),
            ("simd_width", be.width().to_string()),
            ("host_cores", host_cores.to_string()),
            ("min_parallel_items", min_items.to_string()),
            ("recalibrations", recals.to_string()),
        ];
        for (k, v) in meta {
            self.registry.set_meta(k, v.clone());
            obs::sink().set_meta(k, v);
        }
    }

    /// Serves one query (callable from any number of threads).
    ///
    /// Each call records a per-query span tree — `execute → prepare →
    /// cache_probe → inflight_wait → admission_wait → eval → …` down
    /// through the executor's pass and per-tile raster spans — under its
    /// own query track, into the always-on flight rings (and, when
    /// `canvas_obs::set_tracing` is enabled, the tracing sink too; see
    /// `docs/OBSERVABILITY.md`). On completion the service time is
    /// checked against [`EngineConfig::slow_query_threshold`]
    /// (**tail sampling**): slow, shed, failed, and panicked queries
    /// have their span trees promoted into the retained slow-query
    /// log as measured [`ExecReport`](canvas_obs::ExecReport)s
    /// ([`QueryEngine::slow_queries`]). Successful responses expose
    /// the same report on demand via [`Response::report`].
    pub fn execute(&self, query: &Query, vp: Viewport) -> Result<Response, EngineError> {
        let t_submit = Instant::now();
        let mut root = obs::span_with_query("execute", "engine");
        root.arg_str("query", || query.label().to_string());
        let query_span = root.query();
        self.metrics_mut().submitted += 1;
        // Station 1: prepare.
        let prepared = Arc::new({
            let _s = obs::span("prepare", "engine");
            query.prepare()
        });
        let outcome = catch_unwind(AssertUnwindSafe(|| self.serve(&prepared, vp)));
        // Close the root span *before* the tail-sampling decision so
        // its record is resident in the flight ring when `collect`
        // joins the tree.
        drop(root);
        let service = t_submit.elapsed();
        let reason = match &outcome {
            Ok(Ok(_)) if service > self.cfg.slow_query_threshold => {
                Some(obs::CaptureReason::SlowService)
            }
            Ok(Ok(_)) => None,
            Ok(Err(EngineError::Overloaded { .. })) => Some(obs::CaptureReason::Shed),
            Ok(Err(EngineError::LeaderFailed(_))) => Some(obs::CaptureReason::Failed),
            Err(_) => Some(obs::CaptureReason::Panicked),
        };
        // Tail sampling: promote this query's spans out of the flight
        // rings into the retained log (nothing to keep when the
        // recorder and tracing are both off).
        if let (Some(reason), true) = (reason, query_span != 0) {
            let provenance = match &outcome {
                Ok(Ok(served)) => served.how.as_str(),
                _ => reason.as_str(),
            };
            self.slow_log.push(obs::SlowQuery {
                query_id: query_span,
                label: prepared.label.to_string(),
                reason,
                service_ns: nanos(service),
                report: measured_report(&prepared, provenance, service, query_span),
            });
        }
        match outcome {
            Ok(served) => served.map(|s| self.respond(prepared, query_span, service, s)),
            Err(payload) => {
                self.metrics_mut().failed += 1;
                resume_unwind(payload)
            }
        }
    }

    /// Stations 2–5 of one submission (cache probe → in-flight dedup →
    /// admission → execute → publish). Split from
    /// [`execute`](Self::execute) so the wrapper can close the root
    /// span and tail-sample *every* terminal outcome — including a
    /// panic, which unwinds through here dropping the guards that
    /// return the permit and fail the followers.
    fn serve(&self, prepared: &Prepared, vp: Viewport) -> Result<Serving, EngineError> {
        let key = CacheKey::new(prepared.fingerprint, &vp);
        let probe = || {
            let _s = obs::span("cache_probe", "engine");
            self.cache.get(&key)
        };
        let unqueued = |result, how, exec| Serving {
            result,
            how,
            queue_wait: Duration::ZERO,
            exec,
        };

        // Station 2: the cache.
        if let Some(result) = probe() {
            return Ok(unqueued(result, Served::CacheHit, Duration::ZERO));
        }

        // Station 3: in-flight dedup — one leader per key, everyone
        // else coalesces onto its outcome (and reports its park time
        // as `exec`).
        let mut lead = match self.roots.join(key) {
            Joined::Lead(lead) => lead,
            Joined::Follow(flight) => {
                let t_park = Instant::now();
                let _wait = obs::span("inflight_wait", "engine");
                return match flight.wait() {
                    Ok(result) => Ok(unqueued(result, Served::Coalesced, t_park.elapsed())),
                    Err(e) => {
                        self.metrics_mut().failed += 1;
                        Err(e)
                    }
                };
            }
        };
        // Re-probe as leader: between the miss above and winning
        // leadership here, the previous leader for this key may have
        // published (it inserts into the cache *before* retiring its
        // flight, so this double-check can never miss a completed
        // evaluation).
        if let Some(result) = probe() {
            lead.publish(Ok(result.clone()));
            return Ok(unqueued(result, Served::CacheHit, Duration::ZERO));
        }

        // Station 4: admission. A shed leader's followers receive the
        // same structured `Overloaded` (shed/peak_queued are tracked by
        // the gate itself and folded in by `metrics()`).
        let t_adm = Instant::now();
        let admitted = {
            let _s = obs::span("admission_wait", "engine");
            self.admission.acquire(self.cfg.max_queue)
        };
        let queue_wait = t_adm.elapsed();
        let permit = match admitted {
            Ok(permit) => permit,
            Err(e) => {
                lead.publish(Err(e.clone()));
                return Err(e);
            }
        };
        // Until this evaluation's root is published, its viewport's
        // interiors stay resident however far other evaluations move
        // the cache's viewport window.
        let hold = self.cache.hold(key.viewport);

        // Station 5: execute — patch a cached predecessor generation
        // when there is one, run the class's run arm otherwise. The
        // predecessor probe sits after admission because the patch is
        // device work and must respect the concurrency bound.
        let base = self.refresh_base(prepared, &vp);
        let t_exec = Instant::now();
        let evaluated = catch_unwind(AssertUnwindSafe(|| {
            self.evaluate(prepared, vp, base.as_ref())
        }));
        drop(permit);
        let exec = t_exec.elapsed();
        let result = evaluated.unwrap_or_else(|payload| {
            // Caught only to tell the followers why; the unwinding
            // guards do the rest.
            lead.blame = panic_message(&*payload);
            resume_unwind(payload)
        });

        // Publish. The entry pins the query's dataset handles:
        // fingerprints identify datasets by Arc address, so a cached
        // result must keep those addresses alive (a freed-and-reused
        // allocation could otherwise alias a different dataset onto an
        // old key). A result the next generation is patched forward
        // from enters protected, so probation never retires it.
        self.cache.insert(
            key,
            result.clone(),
            prepared.pins().to_vec(),
            prepared.refresh().is_some(),
        );
        let how = match &base {
            Some(base) => {
                // The patched predecessor is superseded: retire its
                // entry eagerly so the stale generation's bytes are
                // reclaimed, not merely unreachable by new probes.
                self.cache.remove(&base.key);
                Served::Incremental
            }
            None => Served::Computed,
        };
        drop(hold);
        lead.publish(Ok(result.clone()));
        Ok(Serving {
            result,
            how,
            queue_wait,
            exec,
        })
    }

    /// For a maintainable query, the freshest cached predecessor
    /// generation's canvas. `None` for every other class, for a first
    /// generation, and when every predecessor was evicted — the caller
    /// then pays the full render.
    fn refresh_base<'p>(&self, prepared: &'p Prepared, vp: &Viewport) -> Option<RefreshBase<'p>> {
        let (snapshot, mut predecessors) = prepared.refresh()?;
        let _s = obs::span("refresh_probe", "engine");
        predecessors.find_map(|(prev_fp, prefix_len)| {
            let key = CacheKey::new(prev_fp, vp);
            match self.cache.get(&key) {
                Some(QueryResult::Canvas(canvas)) => Some(RefreshBase {
                    key,
                    canvas,
                    prefix_len,
                    snapshot,
                }),
                _ => None,
            }
        })
    }

    /// The device work of station 5, on a leased device under a fresh
    /// fair-share ticket: patch `base` forward with only the append
    /// delta's dirty tiles, or run the class's run arm through the
    /// engine's [`Exchange`], so cut-point canvases are reused if
    /// another query already published them and published otherwise.
    fn evaluate(
        &self,
        prepared: &Prepared,
        vp: Viewport,
        base: Option<&RefreshBase<'_>>,
    ) -> QueryResult {
        let pool = self.shared.pool();
        let ticket = pool.register_ticket();
        let mut eval_span = obs::span("eval", "engine");
        eval_span.arg_u64("ticket", ticket);
        pool.with_ticket(ticket, || {
            self.shared.run(|dev| {
                let Some(base) = base else {
                    let ex = Exchange {
                        engine: self,
                        pins: prepared.pins(),
                    };
                    return prepared.execute_via(dev, vp, Some(&ex));
                };
                // Mirror `execute_via`'s per-class span so the report's
                // descriptor row (node 0) still joins this submission's
                // measured work.
                let mut class_span = obs::span(prepared.label, "query");
                class_span.arg_u64("node", 0);
                let mut span = obs::span("incremental_patch", "engine");
                let delta = base.snapshot.delta_from(base.prefix_len);
                let (canvas, out) =
                    canvas_core::patch_live_heatmap(dev, vp, &base.canvas, &delta.batch, 0, None);
                span.arg_u64("delta_chunks", delta.chunks as u64);
                span.arg_u64("dirty_tiles", out.dirty_tiles as u64);
                span.arg_u64("total_tiles", out.total_tiles as u64);
                span.arg_u64("delta_points", out.delta_points as u64);
                span.arg_u64("levels", out.levels as u64);
                span.arg_u64("compacted", out.compacted as u64);
                drop(span);
                self.metrics_mut().dirty_tiles_redrawn += out.dirty_tiles as u64;
                let result = QueryResult::from(canvas);
                class_span.arg_u64("bytes", result.size_bytes() as u64);
                result
            })
        })
    }

    /// Builds every [`Response`], and records what serving it cost:
    /// the latency histograms (all-traffic and per-class service time;
    /// evaluation and admission wait for the submissions that
    /// evaluated) and the served-outcome counter.
    fn respond(
        &self,
        prepared: Arc<Prepared>,
        query_span: u64,
        service: Duration,
        served: Serving,
    ) -> Response {
        let evaluated = matches!(served.how, Served::Computed | Served::Incremental);
        if evaluated {
            self.lat_exec.record(nanos(served.exec));
            self.lat_queue_wait.record(nanos(served.queue_wait));
        }
        self.lat_service.record(nanos(service));
        self.lat_class[prepared.class]
            .get_or_init(|| {
                self.registry
                    .histogram(&format!("service_ns_{}", prepared.label))
            })
            .record(nanos(service));
        let computed = {
            let mut m = self.metrics_mut();
            match served.how {
                Served::Computed => m.computed += 1,
                Served::CacheHit => m.cache_hits += 1,
                Served::Coalesced => m.coalesced += 1,
                Served::Incremental => m.incremental_refreshes += 1,
            }
            m.computed
        };
        // Only a response that advanced `computed` can cross the cadence;
        // an incremental refresh leaves it standing on a multiple.
        if served.how == Served::Computed {
            self.maybe_recalibrate(computed);
        }
        Response {
            result: served.result,
            fingerprint: prepared.fingerprint,
            served: served.how,
            queue_wait: served.queue_wait,
            exec: served.exec,
            service,
            query_span,
            prepared,
        }
    }

    /// The retained slow-query captures, oldest first: every query
    /// whose service time crossed the threshold (or that was shed,
    /// failed, or panicked), with its full measured
    /// [`ExecReport`](canvas_obs::ExecReport). Bounded — the log
    /// evicts its oldest entry beyond the 64-capture cap; the
    /// `slow_captured` registry counter keeps the lifetime total.
    pub fn slow_queries(&self) -> Vec<obs::SlowQuery> {
        self.slow_log.entries()
    }

    fn metrics_mut(&self) -> MutexGuard<'_, EngineMetrics> {
        lock(&self.metrics)
    }

    /// Engine counters snapshot (latency fields are histogram
    /// snapshots — see [`LatencyStats`]).
    pub fn metrics(&self) -> EngineMetrics {
        let mut m = self.metrics_mut().clone();
        let st = lock(&self.admission.state);
        m.peak_queued = st.peak_queued;
        m.shed = st.shed;
        drop(st);
        m.service = LatencyStats(self.lat_service.snapshot());
        m.exec = LatencyStats(self.lat_exec.snapshot());
        m.queue_wait = LatencyStats(self.lat_queue_wait.snapshot());
        let be = canvas_raster::simd::active_backend();
        m.simd_backend = be.name();
        m.simd_width = be.width();
        m.recalibrations = self.recalibrations.load(Ordering::Relaxed);
        m
    }

    /// Service-latency distribution of one query class (keyed by
    /// [`Query::label`], e.g. `"knn"` → histogram `service_ns_knn`).
    /// Empty when the class has not been served yet.
    pub fn class_latency(&self, class: &str) -> LatencyStats {
        LatencyStats(
            self.registry
                .histogram(&format!("service_ns_{class}"))
                .snapshot(),
        )
    }

    /// Syncs the counter side of the registry from the engine's
    /// internal counters (the histograms record in place) and refreshes
    /// the process metadata.
    fn sync_registry(&self) {
        let m = self.metrics();
        let counters: [(&str, u64); 16] = [
            ("queries_submitted", m.submitted),
            ("queries_computed", m.computed),
            ("cache_hits", m.cache_hits),
            ("coalesced", m.coalesced),
            ("shed", m.shed),
            ("failed", m.failed),
            ("peak_queued", m.peak_queued as u64),
            ("subplan_hits", m.subplan_hits),
            ("subplan_published", m.subplan_published),
            ("ingest_appends", m.ingest_appends),
            ("incremental_refreshes", m.incremental_refreshes),
            ("dirty_tiles_redrawn", m.dirty_tiles_redrawn),
            // Observability health: tracing-sink drops at its cap,
            // slow-query promotions, and flight-ring loss accounting
            // (normal fast-path recycling vs spans a capture wanted
            // but the rings had already overwritten).
            ("obs_dropped_spans", obs::sink().dropped()),
            ("slow_captured", self.slow_log.captured()),
            ("flight_recycled", obs::flight::recycled()),
            ("flight_dropped", obs::flight::dropped()),
        ];
        for (name, value) in counters {
            self.registry.counter(name).set(value);
        }
        self.refresh_process_meta();
    }

    /// The full metrics registry as a JSON object: process metadata,
    /// counters, and latency histograms with count/mean/max and
    /// p50/p95/p99 (nanoseconds).
    pub fn metrics_json(&self) -> String {
        self.sync_registry();
        self.registry.snapshot_json()
    }

    /// The full metrics registry as Prometheus text exposition
    /// (histograms as summaries with quantile labels, metadata as a
    /// `canvas_engine_process_info` gauge).
    pub fn metrics_prometheus(&self) -> String {
        self.sync_registry();
        self.registry.snapshot_prometheus("canvas_engine")
    }

    /// Load-aware recalibration, every [`RECALIBRATE_EVERY`] computed
    /// responses: re-times one texel of the dispatched blend kernel
    /// (`per_texel_probe_ns`, so the measurement reflects the active
    /// SIMD width *and* current machine load) and re-derives the pool's
    /// minimum-work threshold against the dispatch latency measured at
    /// startup. Lock-free apply; a skipped or degenerate refresh leaves
    /// the previous threshold standing. No-op when startup calibration
    /// was disabled — there is no dispatch measurement to derive from.
    fn maybe_recalibrate(&self, computed: u64) {
        let Some(cal) = self.calibration.as_ref() else {
            return;
        };
        if !cal.applied || !computed.is_multiple_of(RECALIBRATE_EVERY) {
            return;
        }
        let per_item_ns = canvas_raster::simd::per_texel_probe_ns::<canvas_core::Texel>();
        if self
            .shared
            .pool()
            .recalibrate(cal.dispatch_ns_per_pass, per_item_ns)
            .is_some()
        {
            self.recalibrations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Appends a point batch to a versioned table through the engine,
    /// counting it toward `ingest_appends`. The append bumps the
    /// table's generation, which retires every cached canvas of older
    /// generations *by key* (their fingerprints embed the old stamp) —
    /// the next [`Query::LiveHeatmap`] submission over a fresh
    /// snapshot either patches a predecessor's canvas incrementally or
    /// re-renders, but can never be served stale bits.
    pub fn ingest_append(
        &self,
        table: &canvas_core::VersionedTable,
        batch: &canvas_core::PointBatch,
    ) -> canvas_core::AppendOutcome {
        let mut span = obs::span("ingest_append", "engine");
        let out = table.append(batch);
        span.arg_u64("generation", out.generation);
        span.arg_u64("appended", out.appended as u64);
        self.metrics_mut().ingest_appends += 1;
        out
    }

    /// Canvas cache traffic snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Fair-gate grant accounting of the shared pool.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.shared.pool().scheduler_stats()
    }

    /// The shared evaluation substrate (pool + accumulated work stats).
    pub fn shared(&self) -> &SharedDevice {
        &self.shared
    }

    /// The startup calibration, if [`EngineConfig::calibrate`] ran and
    /// produced a measurement.
    pub fn calibration(&self) -> Option<&Calibration> {
        self.calibration.as_ref()
    }
}

/// The message of a caught panic, when it carried one.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<String> {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_report_simd_backend() {
        let engine = QueryEngine::with_config(EngineConfig {
            threads: 1,
            calibrate: false,
            ..EngineConfig::default()
        });
        let m = engine.metrics();
        assert!(["scalar", "sse2", "avx2"].contains(&m.simd_backend));
        assert!(m.simd_width >= 1);
        assert_eq!(m.recalibrations, 0, "no traffic, no recalibration");
    }

    #[test]
    fn admission_sheds_beyond_queue_bound() {
        let adm = Admission::new(1);
        let held = adm.acquire(4).unwrap();
        // Permit taken, queue bound 0: immediate shed.
        assert!(matches!(
            adm.acquire(0),
            Err(EngineError::Overloaded { queued: 0, .. })
        ));
        drop(held);
        drop(adm.acquire(0).unwrap());
        let st = lock(&adm.state);
        assert_eq!(st.shed, 1);
        assert_eq!(st.executing, 0);
    }

    #[test]
    fn admission_is_fifo_no_barging() {
        let adm = Arc::new(Admission::new(1));
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let held = adm.acquire(8).unwrap(); // main holds the only permit
        let w = {
            let adm = Arc::clone(&adm);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                let _permit = adm.acquire(8).unwrap();
                order.lock().unwrap().push("first-waiter");
            })
        };
        // Let the first waiter park, then race a late arrival against
        // the permit release: with FIFO handoff the late arrival must
        // queue behind the parked waiter even if it observes a free
        // permit first.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let late = {
            let adm = Arc::clone(&adm);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                let _permit = adm.acquire(8).unwrap();
                order.lock().unwrap().push("late-arrival");
            })
        };
        drop(held);
        w.join().unwrap();
        late.join().unwrap();
        assert_eq!(*order.lock().unwrap(), vec!["first-waiter", "late-arrival"]);
    }
}
