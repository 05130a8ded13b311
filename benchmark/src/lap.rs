//! One lap of a single-client workload: the fixed op list replayed
//! step by step in a closed loop, every step timed, every response
//! digested (and, in the traced lap, explained and shadowed) outside
//! the step timers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use canvas_core::{Device, PointBatch, VersionedTable};
use canvas_engine::{EngineConfig, Query, QueryEngine, Response, Served};
use canvas_raster::{PipelineStats, Viewport};

use crate::digest::{result_digest, Digest};
use crate::spans::{SpanBuf, Trace};

/// Engine and client threads: `min(nproc, 2)`. Pinned so a many-core
/// host runs the same schedule as the 2-core reference host.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// The engine every timed lap runs against: default cache budget
/// (256 MiB), subplan sharing on, and **no start-up calibration** —
/// calibration picks a different `min_parallel_items` per run and with
/// it different parallelisation decisions; it is measured once as
/// `executor.calibrate_ms` instead.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        threads: threads(),
        calibrate: false,
        ..EngineConfig::default()
    }
}

/// Engine-side counters over one lap (a difference of two readings).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub computed: u64,
    pub cache_hits: u64,
    pub coalesced: u64,
    pub incremental: u64,
    pub shed: u64,
    pub failed: u64,
    pub subplan_hits: u64,
    pub subplan_published: u64,
    pub renders_avoided: u64,
    pub dirty_tiles: u64,
    pub evictions: u64,
    /// High-water mark of cached bytes (a level, not a difference).
    pub cache_peak_bytes: usize,
    pub shared_hits: u64,
    pub shared_misses: u64,
    pub grants: u64,
    pub contended_grants: u64,
    pub handovers: u64,
    pub quantum_preemptions: u64,
    pub pipeline: PipelineStats,
    /// Device-model seconds for the counted work — repeats exactly.
    pub modeled_s: f64,
}

impl Counters {
    pub fn read(engine: &QueryEngine) -> Counters {
        let m = engine.metrics();
        let c = engine.cache_stats();
        let s = engine.scheduler_stats();
        Counters {
            computed: m.computed,
            cache_hits: m.cache_hits,
            coalesced: m.coalesced,
            incremental: m.incremental_refreshes,
            shed: m.shed,
            failed: m.failed,
            subplan_hits: m.subplan_hits,
            subplan_published: m.subplan_published,
            renders_avoided: m.shared_renders_avoided,
            dirty_tiles: m.dirty_tiles_redrawn,
            evictions: c.evictions,
            cache_peak_bytes: c.peak_bytes,
            shared_hits: c.shared_hits,
            shared_misses: c.shared_misses,
            grants: s.grants,
            contended_grants: s.contended_grants,
            handovers: s.handovers,
            quantum_preemptions: s.quantum_preemptions,
            pipeline: engine.shared().stats(),
            modeled_s: engine.shared().modeled_time(),
        }
    }

    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            computed: self.computed - before.computed,
            cache_hits: self.cache_hits - before.cache_hits,
            coalesced: self.coalesced - before.coalesced,
            incremental: self.incremental - before.incremental,
            shed: self.shed - before.shed,
            failed: self.failed - before.failed,
            subplan_hits: self.subplan_hits - before.subplan_hits,
            subplan_published: self.subplan_published - before.subplan_published,
            renders_avoided: self.renders_avoided - before.renders_avoided,
            dirty_tiles: self.dirty_tiles - before.dirty_tiles,
            evictions: self.evictions - before.evictions,
            cache_peak_bytes: self.cache_peak_bytes,
            shared_hits: self.shared_hits - before.shared_hits,
            shared_misses: self.shared_misses - before.shared_misses,
            grants: self.grants - before.grants,
            contended_grants: self.contended_grants - before.contended_grants,
            handovers: self.handovers - before.handovers,
            quantum_preemptions: self.quantum_preemptions - before.quantum_preemptions,
            pipeline: self.pipeline.delta(&before.pipeline),
            modeled_s: self.modeled_s - before.modeled_s,
        }
    }

    /// Queries served one way or another.
    pub fn served(&self) -> u64 {
        self.computed + self.cache_hits + self.coalesced + self.incremental
    }
}

/// How responses were served, as the harness saw them (the engine's
/// own counters say the same; both are kept so a miscount shows).
#[derive(Clone, Copy, Debug, Default)]
pub struct Seen {
    pub computed: u64,
    pub hits: u64,
    pub coalesced: u64,
    pub incremental: u64,
}

impl Seen {
    pub fn count(&mut self, served: Served) {
        match served {
            Served::Computed => self.computed += 1,
            Served::CacheHit => self.hits += 1,
            Served::Coalesced => self.coalesced += 1,
            Served::Incremental => self.incremental += 1,
        }
    }

    pub fn add(&mut self, other: &Seen) {
        self.computed += other.computed;
        self.hits += other.hits;
        self.coalesced += other.coalesced;
        self.incremental += other.incremental;
    }
}

/// What the traced lap learns about one query.
#[derive(Clone, Debug)]
pub struct Sample {
    pub class: &'static str,
    /// `None`: refused or panicked.
    pub served: Option<Served>,
    /// Harness span around `QueryEngine::execute`.
    pub execute_ns: u64,
    /// Harness span around a separate `Query::prepare`.
    pub prepare_ns: u64,
    /// Harness span around the shadow `Prepared::execute` on a plain
    /// `Device::cpu_parallel(threads)` — the core layer without the
    /// engine (`Served::Computed` only).
    pub shadow_ns: Option<u64>,
    /// From `Response::report()`: station and node times the program's
    /// own always-on flight recorder measured.
    pub queue_wait_ns: u64,
    pub gate_wait_ns: u64,
    pub eval_ns: u64,
    pub node_wall_ns: u64,
    pub spans_joined: u64,
}

/// One served-or-failed op of a step.
pub struct Served1 {
    pub class: &'static str,
    pub response: Option<Response>,
    pub execute_ns: u64,
    /// Traced laps keep the op for the shadow evaluation.
    op: Option<(Query, Viewport)>,
    report: Option<canvas_engine::ExecReport>,
}

/// The step's window onto the engine: every call a step makes into the
/// program goes through here so it is timed, spanned and caught the
/// same way on every workload.
pub struct StepIo<'a> {
    step: u32,
    /// Present in the traced lap only.
    spans: Option<&'a mut SpanBuf>,
    /// The step's ops, in order.
    pub served: Vec<Served1>,
    /// Nanoseconds the harness itself spent inside the step timer
    /// (traced laps: collecting reports). Subtracted from the step.
    pub harness_ns: u64,
    /// Traced laps: nanoseconds under spans that are not queries
    /// (appends, snapshots).
    pub other_ns: u64,
}

impl<'a> StepIo<'a> {
    pub fn new(step: u32, spans: Option<&'a mut SpanBuf>) -> Self {
        StepIo {
            step,
            spans,
            served: Vec::new(),
            harness_ns: 0,
            other_ns: 0,
        }
    }

    /// Runs a call into a layer that is neither a query nor an append
    /// (a table snapshot), spanned in the traced lap.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match self.spans.as_mut() {
            Some(spans) => {
                let (r, ns) = spans.scope(name, self.step, f);
                self.other_ns += ns;
                r
            }
            None => f(),
        }
    }

    /// Submits one query, closed loop: returns when the engine does.
    /// A refusal (`EngineError`) or a panic leaves `response: None`.
    pub fn execute(&mut self, engine: &QueryEngine, q: &Query, vp: Viewport) {
        let class = q.label();
        let span = self
            .spans
            .as_mut()
            .map(|s| s.begin("engine.execute", self.step));
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| engine.execute(q, vp)));
        let execute_ns = t.elapsed().as_nanos() as u64;
        let response = match outcome {
            Ok(Ok(resp)) => Some(resp),
            Ok(Err(e)) => {
                eprintln!("step {}: {class} refused: {e}", self.step);
                None
            }
            Err(_) => {
                eprintln!("step {}: {class} panicked", self.step);
                None
            }
        };
        let mut report = None;
        let mut op = None;
        if let Some(spans) = self.spans.as_mut() {
            let idx = span.expect("opened above");
            spans.set_detail(idx, class);
            spans.end(idx);
            // The flight rings recycle under later traffic, so the
            // report is collected now — under a harness span the step
            // wall is charged net of.
            let t = Instant::now();
            let (r, _) = spans.scope("harness.report", self.step, || {
                response.as_ref().map(Response::report)
            });
            report = r;
            op = Some((q.clone(), vp));
            self.harness_ns += t.elapsed().as_nanos() as u64;
        }
        self.served.push(Served1 {
            class,
            response,
            execute_ns,
            op,
            report,
        });
    }

    /// Appends one feed batch through the engine.
    pub fn append(&mut self, engine: &QueryEngine, table: &VersionedTable, batch: &PointBatch) {
        let span = self
            .spans
            .as_mut()
            .map(|s| s.begin("engine.ingest_append", self.step));
        engine.ingest_append(table, batch);
        if let (Some(spans), Some(idx)) = (self.spans.as_mut(), span) {
            self.other_ns += spans.end(idx);
        }
    }
}

/// A single-client workload: a fixed list of steps against per-lap
/// state built outside the timed window.
pub trait SingleClient {
    type Lap;
    fn steps(&self) -> usize;
    /// Untimed per-lap set-up (fresh engine, fresh table).
    fn new_lap(&self) -> Self::Lap;
    fn engine<'a>(&self, lap: &'a Self::Lap) -> &'a QueryEngine;
    /// Step `i`: the unit a user waits for.
    fn step(&self, lap: &mut Self::Lap, i: usize, io: &mut StepIo<'_>);
    /// Checks a step's responses against what its inputs imply, beyond
    /// the digests (e.g. a live heatmap shows its own generation).
    fn check(&self, _lap: &Self::Lap, _i: usize, _served: &[Served1]) -> bool {
        true
    }
}

/// Everything one lap produced.
#[derive(Clone, Debug, Default)]
pub struct LapOutcome {
    /// Measured wall of every step, nanoseconds, in op order (pooled
    /// over clients on the two-client workload).
    pub step_ns: Vec<u64>,
    /// Steps refused, panicked or failing their check, by index into
    /// `step_ns`.
    pub failed: Vec<bool>,
    /// What `steps ÷ lap wall` divides by: the closed loop's busy wall
    /// (sum of step walls) for one client, barrier-to-join wall for two.
    pub wall_s: f64,
    /// Lap wall including the harness's own work between steps
    /// (digests, checks, shadow evaluations) but not `setup_s`.
    pub total_s: f64,
    /// Untimed per-lap set-up: fresh engine, fresh table.
    pub setup_s: f64,
    /// Digest per response, per unit (a step; a cache slot on the
    /// two-client workload). Equal across laps for a correct program.
    pub digests: Vec<Vec<u128>>,
    pub counters: Counters,
    pub samples: Vec<Sample>,
    pub seen: Seen,
    /// Traced laps: wall of the steps that ran under spans (net of the
    /// harness's own spans), and the part of it under non-query spans.
    pub traced_wall_ns: u64,
    pub traced_other_ns: u64,
}

impl LapOutcome {
    pub fn steps(&self) -> usize {
        self.step_ns.len()
    }

    /// One digest for the whole lap.
    pub fn result_digest(&self) -> u128 {
        let mut d = Digest::new();
        for unit in &self.digests {
            d.word(unit.len() as u64);
            for r in unit {
                d.word((r >> 64) as u64);
                d.word(*r as u64);
            }
        }
        d.finish()
    }
}

/// Runs one lap of a single-client workload; with a trace, harness
/// spans are on and every op is explained and shadowed after its step.
pub fn run_lap<W: SingleClient>(w: &W, trace: Option<&mut Trace>) -> LapOutcome {
    let t_setup = Instant::now();
    let mut lap = w.new_lap();
    let before = Counters::read(w.engine(&lap));
    let mut out = LapOutcome {
        setup_s: t_setup.elapsed().as_secs_f64(),
        ..LapOutcome::default()
    };
    let mut buf = trace.as_ref().map(|t| t.buf(0));
    // The shadow device of the traced lap: the core layer alone.
    let mut shadow = buf.as_ref().map(|_| Device::cpu_parallel(threads()));
    let lap_t0 = Instant::now();
    for i in 0..w.steps() {
        let step_span = buf.as_mut().map(|s| s.begin("harness.step", i as u32));
        let mut io = StepIo::new(i as u32, buf.as_mut());
        let t = Instant::now();
        let panicked = catch_unwind(AssertUnwindSafe(|| w.step(&mut lap, i, &mut io))).is_err();
        let wall_ns = t.elapsed().as_nanos() as u64;
        let StepIo {
            served,
            harness_ns,
            other_ns,
            ..
        } = io;
        if let (Some(s), Some(idx)) = (buf.as_mut(), step_span) {
            s.end(idx);
            out.traced_wall_ns += wall_ns.saturating_sub(harness_ns);
            out.traced_other_ns += other_ns;
        }
        out.step_ns.push(wall_ns.saturating_sub(harness_ns));

        // Everything below is the harness's own work, outside the step
        // timer: digests, checks, shadow evaluations.
        let refused = served.iter().any(|s| s.response.is_none());
        let checked = w.check(&lap, i, &served);
        out.failed.push(panicked || refused || !checked);
        let mut unit: Vec<u128> = Vec::with_capacity(served.len());
        for (k, s) in served.iter().enumerate() {
            let Some(resp) = &s.response else {
                unit.push(0);
                continue;
            };
            out.seen.count(resp.served);
            // The very allocation an earlier op of this step was served
            // (a re-ask that hit) has the digest already taken.
            let earlier = served[..k].iter().position(|p| {
                p.response
                    .as_ref()
                    .is_some_and(|r| r.result.ptr_eq(&resp.result))
            });
            unit.push(match earlier {
                Some(j) => unit[j],
                None => result_digest(&resp.result),
            });
        }
        out.digests.push(unit);
        if let (Some(spans), Some(dev)) = (buf.as_mut(), shadow.as_mut()) {
            for s in served {
                out.samples.push(sample_of(s, spans, dev, i as u32));
            }
        }
    }
    out.total_s = lap_t0.elapsed().as_secs_f64();
    out.wall_s = out.step_ns.iter().sum::<u64>() as f64 / 1e9;
    out.counters = Counters::read(w.engine(&lap)).since(&before);
    if let (Some(trace), Some(buf)) = (trace, buf) {
        trace.absorb(buf);
    }
    out
}

/// Folds one traced op into a [`Sample`]: report fields, a separately
/// timed `Query::prepare`, and — for computed responses — the shadow
/// evaluation of the same `Prepared` without the engine.
pub fn sample_of(s: Served1, spans: &mut SpanBuf, dev: &mut Device, step: u32) -> Sample {
    let (q, vp) = s.op.expect("traced ops keep their query");
    let (prepared, prepare_ns) = spans.scope("engine.prepare", step, || q.prepare());
    let served = s.response.as_ref().map(|r| r.served);
    let shadow_ns = (served == Some(Served::Computed)).then(|| {
        let idx = spans.begin("core.execute", step);
        spans.set_detail(idx, s.class);
        std::hint::black_box(prepared.execute(dev, vp));
        spans.end(idx)
    });
    let r = s.report.unwrap_or_default();
    Sample {
        class: s.class,
        served,
        execute_ns: s.execute_ns,
        prepare_ns,
        shadow_ns,
        queue_wait_ns: r.queue_wait_ns,
        gate_wait_ns: r.gate_wait_ns,
        eval_ns: r.eval_ns,
        node_wall_ns: r.nodes.iter().map(|n| n.wall_ns).sum(),
        spans_joined: r.spans_joined,
    }
}
