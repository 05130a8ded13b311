//! The harness's own span recorder. Spans are taken in the benchmark's
//! files around each call into a layer — `Query::prepare`,
//! `QueryEngine::execute`, `ingest_append`, the shadow
//! `Prepared::execute`, the probes — kept in memory, and written as
//! Chrome-trace JSON when the traced run ends. In-program spans are a
//! later issue.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span. `parent` is an index into the owning buffer + 1
/// (0 = root), rewritten to a global id when buffers are merged.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// `<layer>.<what>`; the layer is the crate the call enters.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Step the span belongs to (`u32::MAX` for probes outside steps).
    pub step: u32,
    pub tid: u32,
    /// Free-form detail (query class, how it was served).
    pub detail: &'static str,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub const NO_STEP: u32 = u32::MAX;

/// A per-thread span buffer; spans nest by open order.
pub struct SpanBuf {
    t0: Instant,
    tid: u32,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
}

impl SpanBuf {
    /// `t0` is the run's epoch, shared by every buffer of the run.
    pub fn new(t0: Instant, tid: u32) -> Self {
        SpanBuf {
            t0,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span; returns its handle for [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, step: u32) -> u32 {
        let parent = self.open.last().map_or(0, |&i| i + 1);
        let idx = self.spans.len() as u32;
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            step,
            tid: self.tid,
            detail: "",
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span (which must be `idx`) and returns
    /// its duration.
    pub fn end(&mut self, idx: u32) -> u64 {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close in nesting order");
        let now = self.t0.elapsed().as_nanos() as u64;
        let s = &mut self.spans[idx as usize];
        s.end_ns = now;
        s.dur_ns()
    }

    pub fn set_detail(&mut self, idx: u32, detail: &'static str) {
        self.spans[idx as usize].detail = detail;
    }

    /// Times `f` under a span.
    pub fn scope<R>(&mut self, name: &'static str, step: u32, f: impl FnOnce() -> R) -> (R, u64) {
        let idx = self.begin(name, step);
        let r = f();
        (r, self.end(idx))
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }
}

/// All spans of a traced run, with global parent ids (index + 1).
pub struct Trace {
    t0: Instant,
    pub spans: Vec<SpanRec>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// A fresh buffer on this trace's clock for thread `tid`.
    pub fn buf(&self, tid: u32) -> SpanBuf {
        SpanBuf::new(self.t0, tid)
    }

    pub fn absorb(&mut self, buf: SpanBuf) {
        let base = self.spans.len() as u32;
        self.spans.extend(buf.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time per span: duration minus the part its children cover.
    /// Children of one parent run on the parent's thread and never
    /// overlap, so their cover is the sum of their durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(SpanRec::dur_ns).collect();
        for s in &self.spans {
            if s.parent != 0 {
                let p = (s.parent - 1) as usize;
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Self time summed per layer, over spans chosen by `keep`.
    pub fn layer_self_ns(&self, keep: impl Fn(&SpanRec) -> bool) -> Vec<(&'static str, u64)> {
        let own = self.self_ns();
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(own) {
            if !keep(s) {
                continue;
            }
            match out.iter_mut().find(|(l, _)| *l == s.layer()) {
                Some((_, total)) => *total += ns,
                None => out.push((s.layer(), ns)),
            }
        }
        out
    }

    /// Writes the Chrome trace-event form (`chrome://tracing`,
    /// `ui.perfetto.dev`): one complete (`X`) event per span, `ts` and
    /// `dur` in microseconds, span id / parent / step in `args`.
    pub fn write_chrome(&self, path: &Path, meta: &[(&str, String)]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"displayTimeUnit\": \"ms\", \"otherData\": {{")?;
        for (i, (k, v)) in meta.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            write!(w, "{sep}\"{k}\": \"{v}\"")?;
        }
        writeln!(w, "}}, \"traceEvents\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let step = if s.step == NO_STEP {
                -1
            } else {
                i64::from(s.step)
            };
            writeln!(
                w,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"step\": {}, \"detail\": \"{}\"}}}}{sep}",
                s.name,
                s.layer(),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i + 1,
                s.parent,
                step,
                s.detail,
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn nesting_gives_parents_and_self_time() {
        let mut buf = SpanBuf::new(Instant::now(), 0);
        let step = buf.begin("harness.step", 3);
        let a = buf.begin("engine.execute", 3);
        std::thread::sleep(std::time::Duration::from_millis(2));
        buf.end(a);
        let b = buf.begin("engine.execute", 3);
        buf.end(b);
        buf.end(step);
        let mut trace = Trace::default();
        trace.absorb(SpanBuf::new(Instant::now(), 1));
        trace.absorb(buf);
        assert_eq!(trace.spans[0].parent, 0);
        assert_eq!(trace.spans[1].parent, 1);
        assert_eq!(trace.spans[2].parent, 1);
        let own = trace.self_ns();
        let children = trace.spans[1].dur_ns() + trace.spans[2].dur_ns();
        assert_eq!(own[0], trace.spans[0].dur_ns() - children);
        assert!(own[1] >= 2_000_000);
        let layers = trace.layer_self_ns(|_| true);
        assert_eq!(layers.len(), 2);
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let mut buf = SpanBuf::new(Instant::now(), 0);
        let (_, _) = buf.scope("raster.draw_points", NO_STEP, || 1 + 1);
        let mut trace = Trace::default();
        trace.absorb(buf);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("trace.json");
        trace
            .write_chrome(&path, &[("workload", "test".to_string())])
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v = Json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
