//! The flight recorder: always-on, bounded, per-thread span rings with
//! tail-sampled slow-query capture.
//!
//! [`trace`](crate::trace) spans are either **off** (pre-PR-9 default:
//! blind in production) or recorded into one unbounded-ish global sink
//! (the tracing mode — great for a deliberate capture session, wrong
//! as an always-on default). The flight recorder is the third mode and
//! the new production default: every span is recorded into a small
//! **ring buffer owned by the recording thread**, overwriting the
//! oldest slot when full. Nothing is retained and nothing is decided
//! at record time — recording cost is one uncontended mutex push.
//!
//! The *decision* happens at query completion (**tail sampling**): the
//! engine checks the service time against its slow-query threshold
//! (and always captures shed / failed / panicked queries). Only then
//! are the query's spans [`collect`]ed out of the rings — joined by
//! their query-track id across every thread that worked on the query —
//! and promoted into a retained [`SlowQueryLog`] entry carrying the
//! full [`crate::report::ExecReport`]. Fast queries pay
//! nothing beyond the ring pushes; their slots are recycled by later
//! spans ([`recycled`] counts the overwrites).
//!
//! ## Loss accounting
//!
//! Rings are bounded, so a query that outlives its span volume can
//! lose early spans before capture. Loss is *detected*, not prevented:
//! [`collect`] counts orphans — collected spans whose parent id is
//! neither the flow root nor present in the collection — as a lower
//! bound on overwritten ancestors, surfaced through [`dropped`] and
//! per-report as `spans_missing`. The root `execute` span is recorded
//! last (RAII), so a captured report always has its root.
//!
//! ## Kill switch
//!
//! [`set_flight_recording`]`(false)` (or `CANVAS_FLIGHT=off` in the
//! environment) returns spans to the pre-PR-9 behavior: one relaxed
//! atomic load when tracing is also off. `perf_gate_flight_overhead`
//! (the workspace's `tests/perf_gates.rs`) measures the on-vs-off
//! per-span delta and gates the always-on overhead at ≤ 3% of mean
//! service time.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::report::ExecReport;
use crate::trace::SpanRecord;

/// Per-thread ring capacity in span records. Sized to hold the full
/// span tree of a large query on that thread (a 2048² draw rasterizes
/// ~1k tiles → ~1k tile spans spread across the worker rings)
/// while keeping the always-on footprint at a few hundred KiB per
/// thread.
pub const FLIGHT_RING_CAPACITY: usize = 4096;

/// Process-level flight-recording flag. On by default; `CANVAS_FLIGHT=off`
/// or [`set_flight_recording`] disables. Relaxed ordering: a span
/// racing a toggle is either fully recorded or fully skipped.
static FLIGHT: AtomicBool = AtomicBool::new(true);
static FLIGHT_ENV_READ: std::sync::Once = std::sync::Once::new();

/// Spans overwritten in a ring before any capture wanted them — the
/// normal recycling of fast queries' slots.
static RECYCLED: AtomicU64 = AtomicU64::new(0);

/// Lower bound on spans a capture *wanted* but the rings had already
/// recycled (orphan-parent detection in [`collect`]).
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Turns the flight recorder on or off process-wide.
pub fn set_flight_recording(on: bool) {
    FLIGHT_ENV_READ.call_once(|| {});
    FLIGHT.store(on, Ordering::Relaxed);
}

/// True when spans are being recorded into the per-thread rings.
/// The first call consults `CANVAS_FLIGHT` (`off`/`0` disables).
#[inline]
pub fn flight_enabled() -> bool {
    FLIGHT_ENV_READ.call_once(|| {
        if let Ok(v) = std::env::var("CANVAS_FLIGHT") {
            if v.eq_ignore_ascii_case("off") || v == "0" {
                FLIGHT.store(false, Ordering::Relaxed);
            }
        }
    });
    FLIGHT.load(Ordering::Relaxed)
}

/// Ring-slot overwrites since process start (fast-query recycling).
pub fn recycled() -> u64 {
    RECYCLED.load(Ordering::Relaxed)
}

/// Spans detected missing at capture time (lower bound; see module
/// docs).
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// One thread's bounded span ring. The owning thread is the only
/// writer; [`collect`] is the rare cross-thread reader, so a plain
/// mutex around the deque is uncontended on the hot path.
struct Ring {
    slots: Mutex<VecDeque<SpanRecord>>,
}

/// Every ring ever registered (threads never unregister — rings are
/// bounded and thread counts are small, so the registry is too).
static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

std::thread_local! {
    static MY_RING: std::cell::OnceCell<Arc<Ring>> = const { std::cell::OnceCell::new() };
}

fn my_ring() -> Arc<Ring> {
    MY_RING.with(|cell| {
        Arc::clone(cell.get_or_init(|| {
            let ring = Arc::new(Ring {
                slots: Mutex::new(VecDeque::with_capacity(FLIGHT_RING_CAPACITY)),
            });
            rings()
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(Arc::clone(&ring));
            ring
        }))
    })
}

/// Records one finished span into the current thread's ring,
/// recycling the oldest slot when full. Called from `Span::drop`.
pub(crate) fn record(rec: SpanRecord) {
    let ring = my_ring();
    let mut slots = ring
        .slots
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if slots.len() >= FLIGHT_RING_CAPACITY {
        slots.pop_front();
        RECYCLED.fetch_add(1, Ordering::Relaxed);
    }
    slots.push_back(rec);
}

/// Collects every resident span of one query track out of all thread
/// rings (non-destructively — slots stay until recycled, so a
/// [`Response::report`](../../canvas_engine/struct.Response.html) after
/// a slow-query capture sees the same tree). Orphans — spans whose
/// parent was already recycled — bump the global [`dropped`] counter.
pub fn collect(query: u64) -> Vec<SpanRecord> {
    if query == 0 {
        return Vec::new();
    }
    let ring_list: Vec<Arc<Ring>> = rings()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    let mut out = Vec::new();
    for ring in &ring_list {
        let slots = ring
            .slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        out.extend(slots.iter().filter(|r| r.query == query).cloned());
    }
    let missing = missing_parents(&out);
    if missing > 0 {
        DROPPED.fetch_add(missing, Ordering::Relaxed);
    }
    out
}

/// Distinct parent ids referenced by `spans` but absent from it (and
/// not flow roots) — the recycled-ancestor lower bound.
pub fn missing_parents(spans: &[SpanRecord]) -> u64 {
    let ids: std::collections::HashSet<u64> = spans.iter().map(|r| r.id).collect();
    let mut missing: Vec<u64> = spans
        .iter()
        .filter(|r| r.parent != 0 && !ids.contains(&r.parent))
        .map(|r| r.parent)
        .collect();
    missing.sort_unstable();
    missing.dedup();
    missing.len() as u64
}

/// Why a query was promoted into the [`SlowQueryLog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaptureReason {
    /// Service time exceeded the engine's slow-query threshold.
    SlowService,
    /// Shed at admission (`EngineError::Overloaded`).
    Shed,
    /// Failed — a coalesced follower saw its leader's failure.
    Failed,
    /// The evaluating leader panicked.
    Panicked,
}

impl CaptureReason {
    pub fn as_str(&self) -> &'static str {
        match self {
            CaptureReason::SlowService => "slow_service",
            CaptureReason::Shed => "shed",
            CaptureReason::Failed => "failed",
            CaptureReason::Panicked => "panicked",
        }
    }
}

/// One retained slow-query capture: identity, why it was kept, and the
/// full measured [`ExecReport`].
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// The query's span-track id (joins to a Perfetto `pid` when the
    /// same run was also traced).
    pub query_id: u64,
    /// Query-class label (`"knn"`, `"selection_heatmap"`, …).
    pub label: String,
    pub reason: CaptureReason,
    pub service_ns: u64,
    pub report: ExecReport,
}

/// The retained tail of captured slow queries: bounded, evicting the
/// least-recently-captured entry when full. The engine owns one and
/// exposes it via `QueryEngine::slow_queries()`.
pub struct SlowQueryLog {
    entries: Mutex<VecDeque<SlowQuery>>,
    cap: usize,
    captured: AtomicU64,
}

impl SlowQueryLog {
    /// A log retaining at most `cap` captures (≥ 1).
    pub fn new(cap: usize) -> Self {
        SlowQueryLog {
            entries: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
            captured: AtomicU64::new(0),
        }
    }

    /// Retains a capture, evicting the oldest beyond the cap.
    pub fn push(&self, entry: SlowQuery) {
        self.captured.fetch_add(1, Ordering::Relaxed);
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if entries.len() >= self.cap {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    /// All retained captures, oldest first.
    pub fn entries(&self) -> Vec<SlowQuery> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Captures since construction (including evicted ones).
    pub fn captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// Retained entry count (≤ cap).
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::TRACE_TEST_LOCK;
    use crate::trace::{span, span_with_query};

    #[test]
    fn rings_capture_spans_without_tracing() {
        let _guard = TRACE_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        crate::trace::set_tracing(false);
        crate::trace::sink().clear();
        set_flight_recording(true);
        let qid = {
            let root = span_with_query("execute", "engine");
            let _child = span("eval", "engine");
            root.query()
        };
        assert_ne!(qid, 0, "flight-on spans carry real ids");
        let spans = collect(qid);
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|r| r.name == "execute").unwrap();
        let child = spans.iter().find(|r| r.name == "eval").unwrap();
        assert_eq!(root.query, qid);
        assert_eq!(child.parent, root.id);
        assert!(
            crate::trace::sink().is_empty(),
            "flight-only spans never reach the tracing sink"
        );
    }

    #[test]
    fn rings_recycle_and_collect_detects_loss() {
        let _guard = TRACE_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        crate::trace::set_tracing(false);
        set_flight_recording(true);
        let before = recycled();
        let qid = {
            let root = span_with_query("execute", "engine");
            // Overflow this thread's ring so early children recycle.
            for _ in 0..(FLIGHT_RING_CAPACITY + 64) {
                let parent = span("pass", "executor");
                let _inner = span("tile_raster", "raster");
                drop(parent);
            }
            root.query()
        };
        assert!(recycled() > before, "overflow must recycle slots");
        let spans = collect(qid);
        assert!(
            spans.iter().any(|r| r.name == "execute"),
            "the root, recorded last, survives"
        );
        assert!(
            spans.len() <= FLIGHT_RING_CAPACITY,
            "collection is ring-bounded"
        );
        // The oldest inner spans' parents are gone: loss is detected.
        assert!(missing_parents(&spans) > 0);
    }

    #[test]
    fn disabled_flight_records_nothing() {
        let _guard = TRACE_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        crate::trace::set_tracing(false);
        set_flight_recording(false);
        let s = span_with_query("execute", "engine");
        assert_eq!(s.id(), 0);
        assert!(!s.is_recording());
        drop(s);
        set_flight_recording(true);
    }

    #[test]
    fn slow_query_log_caps_and_evicts_oldest() {
        let log = SlowQueryLog::new(2);
        for i in 0..3u64 {
            log.push(SlowQuery {
                query_id: i + 1,
                label: format!("q{i}"),
                reason: CaptureReason::SlowService,
                service_ns: i * 100,
                report: ExecReport::default(),
            });
        }
        assert_eq!(log.captured(), 3);
        assert_eq!(log.len(), 2);
        let ids: Vec<u64> = log.entries().iter().map(|e| e.query_id).collect();
        assert_eq!(ids, vec![2, 3], "oldest capture evicted first");
    }

    #[test]
    fn collect_untracked_is_empty() {
        assert!(collect(0).is_empty());
    }
}
