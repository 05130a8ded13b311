//! Trace spans: timed, named, nested regions attributed to a query.
//!
//! ## Model
//!
//! A [`Span`] is an RAII guard: creating it notes the start time,
//! dropping it records a [`SpanRecord`] into the process-global
//! [`TraceSink`]. Records form trees through three ids:
//!
//! * `id` — unique per span,
//! * `parent` — the span that was open on the same logical flow when
//!   this one started (0 = root),
//! * `query` — the **track**: the root span of the query this work
//!   belongs to. Every span of one served query shares the `query` id
//!   no matter which thread recorded it, which is what lets the
//!   exporter render per-query timelines.
//!
//! ## Propagation
//!
//! Parent/query context lives in a thread-local [`Ctx`]. Within one
//! thread, nesting is automatic (spans save and restore the context).
//! Across threads the dispatcher captures [`current_ctx`] and the
//! worker runs under [`with_ctx`] — the executor's pool does exactly
//! this when it hands a pass to its workers, piggybacking on the same
//! dispatch hand-off as its fair-share ticket, so worker-side pass and
//! tile spans attribute to the owning query.
//!
//! ## Recording modes and overhead
//!
//! Span creation consults two process-level flags:
//!
//! * **Tracing** ([`set_tracing`], off by default) — finished spans
//!   are retained in the global [`TraceSink`] for export
//!   (Chrome-trace capture sessions).
//! * **Flight recording** ([`crate::flight::set_flight_recording`],
//!   *on* by default) — finished spans go into the recording thread's
//!   bounded ring ([`crate::flight`]), where they recycle for free
//!   unless the engine tail-samples the query as slow.
//!
//! Both may be on at once (one `SpanRecord` is built, the sink gets a
//! clone). With **both** off, [`span`] performs two relaxed atomic
//! loads and returns an inert guard whose drop is a no-op — tens of
//! nanoseconds at worst, cheap enough for per-pass and per-tile
//! instrumentation to stay compiled in permanently.
//! `perf_gate_flight_overhead` (the workspace's `tests/perf_gates.rs`)
//! measures the all-off span cost and the flight-on increment and
//! gates both at ≤ 3% of mean service time.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Process-level tracing flag. Relaxed ordering: a span that races an
/// enable/disable transition is either fully recorded or fully skipped;
/// both are acceptable at a toggle boundary.
static TRACING: AtomicBool = AtomicBool::new(false);

/// Turns span recording on or off process-wide.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// True when spans are currently being recorded.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// The propagation context of one logical flow: which query track work
/// belongs to and which span is the innermost open one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ctx {
    /// Root span id of the owning query (0 = untracked).
    pub query: u64,
    /// Innermost open span id (0 = none — new spans become roots).
    pub parent: u64,
}

std::thread_local! {
    static CTX: std::cell::Cell<Ctx> = const { std::cell::Cell::new(Ctx { query: 0, parent: 0 }) };
    /// Lazily-assigned small ordinal for the current OS thread (trace
    /// track id — stable for the thread's lifetime).
    static THREAD_ORD: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

static NEXT_THREAD_ORD: AtomicU32 = AtomicU32::new(1);

/// Small per-thread ordinal (1-based) used as the exporter's thread
/// track id.
pub fn thread_ordinal() -> u32 {
    THREAD_ORD.with(|c| {
        let mut t = c.get();
        if t == 0 {
            t = NEXT_THREAD_ORD.fetch_add(1, Ordering::Relaxed);
            c.set(t);
        }
        t
    })
}

/// The context of the current thread (capture before dispatching work
/// to another thread; see [`with_ctx`]).
pub fn current_ctx() -> Ctx {
    CTX.with(|c| c.get())
}

/// Runs `f` under `ctx` — the receiving half of cross-thread span
/// propagation. Restores the previous context afterwards, including on
/// unwind.
pub fn with_ctx<R>(ctx: Ctx, f: impl FnOnce() -> R) -> R {
    struct Restore(Ctx);
    impl Drop for Restore {
        fn drop(&mut self) {
            CTX.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CTX.with(|c| c.replace(ctx)));
    f()
}

/// One argument value attached to a span.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    U64(u64),
    F64(f64),
    Str(String),
}

/// A finished span, as stored in the [`TraceSink`].
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u64,
    /// Enclosing span id (0 = root of its flow).
    pub parent: u64,
    /// Owning query track (root span id of the query; 0 = untracked).
    pub query: u64,
    /// Recording thread's [`thread_ordinal`].
    pub thread: u32,
    pub name: &'static str,
    /// Category (layer): `"engine"`, `"executor"`, `"raster"`,
    /// `"algebra"`, …
    pub cat: &'static str,
    /// Start offset from the sink epoch, nanoseconds.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Hard cap on buffered records: a runaway traced workload degrades to
/// counted drops instead of unbounded memory growth.
pub const MAX_BUFFERED_RECORDS: usize = 1 << 21;

/// The process-global span buffer (see [`sink`]).
pub struct TraceSink {
    epoch: Instant,
    records: Mutex<Vec<SpanRecord>>,
    next_id: AtomicU64,
    dropped: AtomicU64,
    meta: Mutex<Vec<(String, String)>>,
}

static SINK: OnceLock<TraceSink> = OnceLock::new();

/// The process-global [`TraceSink`].
pub fn sink() -> &'static TraceSink {
    SINK.get_or_init(|| TraceSink {
        epoch: Instant::now(),
        records: Mutex::new(Vec::new()),
        next_id: AtomicU64::new(1),
        dropped: AtomicU64::new(0),
        meta: Mutex::new(Vec::new()),
    })
}

impl TraceSink {
    /// Nanoseconds since the sink epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, rec: SpanRecord) {
        let mut records = self
            .records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if records.len() >= MAX_BUFFERED_RECORDS {
            drop(records);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        records.push(rec);
    }

    /// Buffered record count.
    pub fn len(&self) -> usize {
        self.records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records dropped at the [`MAX_BUFFERED_RECORDS`] cap.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drains and returns all buffered records.
    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(
            &mut *self
                .records
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Clones the buffered records without draining.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Discards buffered records and the drop counter (metadata stays).
    pub fn clear(&self) {
        self.take();
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Upserts a header metadata entry (`simd_backend`, `host_cores`,
    /// …) — exported with every trace so files are self-describing
    /// across hosts.
    pub fn set_meta(&self, key: &str, value: impl Into<String>) {
        let mut meta = self
            .meta
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let value = value.into();
        match meta.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => meta.push((key.to_string(), value)),
        }
    }

    /// The current header metadata.
    pub fn meta(&self) -> Vec<(String, String)> {
        self.meta
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

/// Live state of an open span (absent on the all-off fast path).
struct ActiveSpan {
    id: u64,
    parent: u64,
    query: u64,
    prev: Ctx,
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    /// Tracing was enabled at creation: the finished record is retained
    /// in the [`TraceSink`] (in addition to the flight ring when that
    /// is on too).
    to_sink: bool,
    args: Vec<(&'static str, ArgValue)>,
}

/// RAII span guard from [`span`] / [`span_with_query`]. Dropping it
/// records the span (when tracing and/or flight recording was enabled
/// at creation).
pub struct Span(Option<ActiveSpan>);

/// Opens a span on the current flow (see module docs). With tracing
/// and flight recording both disabled this is two atomic loads and an
/// inert guard.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> Span {
    let to_sink = tracing_enabled();
    if !to_sink && !crate::flight::flight_enabled() {
        return Span(None);
    }
    open_span(name, cat, false, to_sink)
}

/// Opens a span that **starts a new query track**: this span becomes
/// the root (`query == id`) and everything nested under it — on this
/// thread or propagated to workers — attributes to it. The engine
/// opens one per `execute`.
#[inline]
pub fn span_with_query(name: &'static str, cat: &'static str) -> Span {
    let to_sink = tracing_enabled();
    if !to_sink && !crate::flight::flight_enabled() {
        return Span(None);
    }
    open_span(name, cat, true, to_sink)
}

fn open_span(name: &'static str, cat: &'static str, new_query: bool, to_sink: bool) -> Span {
    let s = sink();
    let id = s.next_id.fetch_add(1, Ordering::Relaxed);
    let prev = current_ctx();
    let (query, parent) = if new_query {
        (id, prev.parent)
    } else {
        (prev.query, prev.parent)
    };
    CTX.with(|c| c.set(Ctx { query, parent: id }));
    Span(Some(ActiveSpan {
        id,
        parent,
        query,
        prev,
        name,
        cat,
        start_ns: s.now_ns(),
        to_sink,
        args: Vec::new(),
    }))
}

impl Span {
    /// This span's id (0 when tracing was disabled at creation).
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |a| a.id)
    }

    /// The query track this span belongs to (0 when inert/untracked).
    pub fn query(&self) -> u64 {
        self.0.as_ref().map_or(0, |a| a.query)
    }

    /// True when this span is actually recording.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    pub fn arg_u64(&mut self, key: &'static str, v: u64) {
        if let Some(a) = self.0.as_mut() {
            a.args.push((key, ArgValue::U64(v)));
        }
    }

    pub fn arg_f64(&mut self, key: &'static str, v: f64) {
        if let Some(a) = self.0.as_mut() {
            a.args.push((key, ArgValue::F64(v)));
        }
    }

    /// Attaches a string argument. The closure form means callers never
    /// pay the formatting cost on the disabled path.
    pub fn arg_str(&mut self, key: &'static str, v: impl FnOnce() -> String) {
        if let Some(a) = self.0.as_mut() {
            a.args.push((key, ArgValue::Str(v())));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        CTX.with(|c| c.set(a.prev));
        let s = sink();
        let end_ns = s.now_ns();
        let rec = SpanRecord {
            id: a.id,
            parent: a.parent,
            query: a.query,
            thread: thread_ordinal(),
            name: a.name,
            cat: a.cat,
            start_ns: a.start_ns,
            dur_ns: end_ns.saturating_sub(a.start_ns),
            args: a.args,
        };
        // One record, two possible destinations: the tracing sink
        // (when tracing was on at creation) and the flight ring (when
        // the recorder is on now). A span opened for a mode that was
        // disabled meanwhile is simply discarded.
        if a.to_sink {
            if crate::flight::flight_enabled() {
                s.push(rec.clone());
                crate::flight::record(rec);
            } else {
                s.push(rec);
            }
        } else if crate::flight::flight_enabled() {
            crate::flight::record(rec);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Tracing is process-global: tests that toggle it serialize here
    /// (shared with the chrome exporter's tests).
    pub(crate) static TRACE_TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Runs `f` with tracing enabled on a clean sink, returning the
    /// records it produced.
    pub(crate) fn traced(f: impl FnOnce()) -> Vec<SpanRecord> {
        let _guard = TRACE_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        sink().clear();
        set_tracing(true);
        f();
        set_tracing(false);
        sink().take()
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TRACE_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_tracing(false);
        crate::flight::set_flight_recording(false);
        sink().clear();
        let before = sink().len();
        {
            let mut s = span("noop", "test");
            assert_eq!(s.id(), 0);
            assert!(!s.is_recording());
            s.arg_u64("k", 1);
            s.arg_str("expensive", || {
                unreachable!("must not format when disabled")
            });
        }
        assert_eq!(sink().len(), before);
        crate::flight::set_flight_recording(true);
    }

    #[test]
    fn nesting_links_parents_and_query_track() {
        let records = traced(|| {
            let root = span_with_query("execute", "engine");
            let rid = root.id();
            assert_eq!(root.query(), rid);
            {
                let child = span("prepare", "engine");
                assert_eq!(child.query(), rid);
                let grandchild = span("fingerprint", "engine");
                assert_eq!(grandchild.query(), rid);
            }
            let sibling = span("eval", "engine");
            assert_eq!(sibling.query(), rid);
        });
        assert_eq!(records.len(), 4);
        let by_name = |n: &str| records.iter().find(|r| r.name == n).unwrap();
        let root = by_name("execute");
        assert_eq!(root.parent, 0);
        assert_eq!(root.query, root.id);
        assert_eq!(by_name("prepare").parent, root.id);
        assert_eq!(by_name("fingerprint").parent, by_name("prepare").id);
        assert_eq!(by_name("eval").parent, root.id);
        assert!(records.iter().all(|r| r.query == root.id));
        // Durations nest: children end before the root's record (the
        // root dropped last) and never exceed it.
        assert!(by_name("prepare").dur_ns <= root.dur_ns);
    }

    #[test]
    fn ctx_propagates_across_threads() {
        let records = traced(|| {
            let root = span_with_query("execute", "engine");
            let rid = root.id();
            let ctx = current_ctx();
            assert_eq!(ctx.query, rid);
            std::thread::scope(|s| {
                s.spawn(move || {
                    with_ctx(ctx, || {
                        let w = span("pass", "executor");
                        assert_eq!(w.query(), rid);
                    });
                    // Outside with_ctx the worker thread is untracked.
                    assert_eq!(current_ctx(), Ctx::default());
                });
            });
        });
        let pass = records.iter().find(|r| r.name == "pass").unwrap();
        let root = records.iter().find(|r| r.name == "execute").unwrap();
        assert_eq!(pass.query, root.id);
        assert_eq!(pass.parent, root.id);
        assert_ne!(pass.thread, root.thread, "worker ran on another thread");
    }

    #[test]
    fn args_survive_into_records() {
        let records = traced(|| {
            let mut s = span("draw", "raster");
            s.arg_u64("tiles", 64);
            s.arg_f64("ratio", 0.5);
            s.arg_str("backend", || "avx2".to_string());
        });
        let r = &records[0];
        assert_eq!(r.args[0], ("tiles", ArgValue::U64(64)));
        assert_eq!(r.args[1], ("ratio", ArgValue::F64(0.5)));
        assert_eq!(r.args[2], ("backend", ArgValue::Str("avx2".into())));
    }

    #[test]
    fn meta_upserts() {
        sink().set_meta("test_meta_key", "a");
        sink().set_meta("test_meta_key", "b");
        let meta = sink().meta();
        let hits: Vec<_> = meta.iter().filter(|(k, _)| k == "test_meta_key").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, "b");
    }
}
