//! `dashboard_revisit` — two clients replay a revisiting walk over six
//! viewports × the four linked views against one engine whose cache
//! holds the whole working set. A step is one session replay of 64 pans
//! = 256 queries.
//!
//! Why: only prepare/fingerprint, the cache probe under two-thread
//! contention, metrics and flight-recorder spans run; raster and
//! executor do nothing. An engine-station or cache-lock change shows
//! here, and a raster change must show no movement.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::Instant;

use canvas_core::Device;
use canvas_engine::{Query, QueryEngine, QueryResult};
use canvas_geom::Point;
use canvas_raster::Viewport;

use crate::digest::{result_digest, Digest};
use crate::lap::{engine_config, sample_of, threads, Counters, LapOutcome, Seen, StepIo};
use crate::spans::{SpanBuf, Trace};
use crate::spec::WorkloadKind;
use crate::world::{window, Rng, World, JITTER};

use super::{reference_digest, Workload};

/// Pans per session replay (one step).
pub const PANS: usize = 64;
/// In the traced lap one step in this many runs with spans and reports;
/// the rest run bare, so the trace stays loadable.
const TRACE_EVERY: usize = 200;

const VIEWPORTS: usize = 6;

pub struct DashboardRevisit {
    world: World,
    views: Vec<Query>,
    viewports: Vec<Viewport>,
    /// Per client: viewport index of every pan, `steps × PANS` long.
    sessions: Vec<Vec<u8>>,
    /// One engine for the whole run: warm laps take the misses, timed
    /// laps find everything cached.
    engine: QueryEngine,
}

/// What one client brings back from a lap.
struct ClientLap {
    step_ns: Vec<u64>,
    failed: Vec<bool>,
    /// The payload each (viewport, view) was served with.
    slots: Vec<Option<QueryResult>>,
    seen: Seen,
    begin: Instant,
    end: Instant,
    spans: Option<SpanBuf>,
    samples: Vec<crate::lap::Sample>,
    traced_wall_ns: u64,
}

impl DashboardRevisit {
    pub fn generate(seed: u64, smoke: bool) -> Self {
        let kind = WorkloadKind::DashboardRevisit;
        let world = World::generate(kind, seed, smoke);
        let mut rng = Rng::stream(seed, kind, 2, 0);
        let res = world.sizes.resolution;
        // Overview, two districts at mid zoom, three close-ups — a
        // dashboard's bookmarks. Sizes are fixed; seeds jitter places.
        let mut spot = |x: f64, y: f64, side: f64| {
            window(
                Point::new(x + rng.jitter(JITTER), y + rng.jitter(JITTER)),
                side,
                res,
            )
        };
        let viewports = vec![
            spot(50.0, 50.0, 96.0),
            spot(40.0, 55.0, 60.0),
            spot(65.0, 45.0, 60.0),
            spot(45.0, 55.0, 32.0),
            spot(25.0, 30.0, 32.0),
            spot(70.0, 65.0, 32.0),
        ];
        let clients = threads().max(1);
        let steps = world.sizes.steps;
        let sessions = (0..clients)
            .map(|c| {
                let mut rng = Rng::stream(seed, kind, 3, c as u64);
                let mut at = rng.below(VIEWPORTS);
                (0..steps * PANS)
                    .map(|_| {
                        // A pan moves to a neighbouring bookmark or jumps.
                        at = match rng.below(4) {
                            0 => (at + 1) % VIEWPORTS,
                            1 => (at + VIEWPORTS - 1) % VIEWPORTS,
                            2 => rng.below(VIEWPORTS),
                            _ => at,
                        };
                        at as u8
                    })
                    .collect()
            })
            .collect();
        DashboardRevisit {
            views: world.four_views(),
            world,
            viewports,
            sessions,
            engine: QueryEngine::with_config(engine_config()),
        }
    }

    fn slot(&self, viewport: usize, view: usize) -> usize {
        viewport * self.views.len() + view
    }

    /// Books one response into the client's slot table. A slot keeps
    /// the first payload it saw; later responses must be that very
    /// allocation (a cache hit is) or, after an eviction, equal content.
    fn book(slots: &mut [Option<QueryResult>], slot: usize, result: &QueryResult) -> bool {
        match &slots[slot] {
            Some(seen) if seen.ptr_eq(result) => true,
            Some(seen) => {
                let same = result_digest(seen) == result_digest(result);
                slots[slot] = Some(result.clone());
                same
            }
            None => {
                slots[slot] = Some(result.clone());
                true
            }
        }
    }

    fn client_lap(
        &self,
        client: usize,
        barrier: &Barrier,
        mut spans: Option<SpanBuf>,
    ) -> ClientLap {
        let session = &self.sessions[client];
        let steps = session.len() / PANS;
        let mut out = ClientLap {
            step_ns: Vec::with_capacity(steps),
            failed: Vec::with_capacity(steps),
            slots: vec![None; VIEWPORTS * self.views.len()],
            seen: Seen::default(),
            begin: Instant::now(),
            end: Instant::now(),
            spans: None,
            samples: Vec::new(),
            traced_wall_ns: 0,
        };
        let mut shadow = spans.as_ref().map(|_| Device::cpu_parallel(threads()));
        barrier.wait();
        out.begin = Instant::now();
        for s in 0..steps {
            let pans = &session[s * PANS..(s + 1) * PANS];
            if let (Some(buf), true) = (spans.as_mut(), s % TRACE_EVERY == 0) {
                self.traced_step(s, pans, buf, shadow.as_mut().expect("paired"), &mut out);
                continue;
            }
            let t = Instant::now();
            let ok = catch_unwind(AssertUnwindSafe(|| {
                let mut ok = true;
                for &v in pans {
                    let vp = self.viewports[v as usize];
                    for (k, q) in self.views.iter().enumerate() {
                        match self.engine.execute(q, vp) {
                            Ok(resp) => {
                                out.seen.count(resp.served);
                                ok &= Self::book(
                                    &mut out.slots,
                                    self.slot(v as usize, k),
                                    &resp.result,
                                );
                            }
                            Err(_) => ok = false,
                        }
                    }
                }
                ok
            }))
            .unwrap_or(false);
            out.step_ns.push(t.elapsed().as_nanos() as u64);
            out.failed.push(!ok);
        }
        out.end = Instant::now();
        out.spans = spans;
        out
    }

    /// One step of the traced lap with harness spans, reports and
    /// shadow evaluations (the latter outside the step timer).
    fn traced_step(
        &self,
        s: usize,
        pans: &[u8],
        buf: &mut SpanBuf,
        shadow: &mut Device,
        out: &mut ClientLap,
    ) {
        let step_span = buf.begin("harness.step", s as u32);
        let mut io = StepIo::new(s as u32, Some(buf));
        let t = Instant::now();
        for &v in pans {
            for q in &self.views {
                io.execute(&self.engine, q, self.viewports[v as usize]);
            }
        }
        let wall = t.elapsed().as_nanos() as u64;
        let StepIo {
            served, harness_ns, ..
        } = io;
        buf.end(step_span);
        out.step_ns.push(wall.saturating_sub(harness_ns));
        out.traced_wall_ns += wall.saturating_sub(harness_ns);
        let mut ok = true;
        for (n, one) in served.into_iter().enumerate() {
            let slot = self.slot(pans[n / self.views.len()] as usize, n % self.views.len());
            match &one.response {
                Some(resp) => {
                    out.seen.count(resp.served);
                    ok &= Self::book(&mut out.slots, slot, &resp.result);
                }
                None => ok = false,
            }
            out.samples.push(sample_of(one, buf, shadow, s as u32));
        }
        out.failed.push(!ok);
    }
}

impl Workload for DashboardRevisit {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::DashboardRevisit
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn op_list_digest(&self) -> u128 {
        let mut d = Digest::new();
        d.merge(self.world.digest());
        for vp in &self.viewports {
            d.viewport(vp);
        }
        for s in &self.sessions {
            d.bytes(s);
        }
        d.finish()
    }

    fn steps_per_lap(&self) -> usize {
        self.sessions.iter().map(|s| s.len() / PANS).sum()
    }

    fn clients(&self) -> usize {
        self.sessions.len()
    }

    fn lap(&self, mut trace: Option<&mut Trace>) -> LapOutcome {
        let before = Counters::read(&self.engine);
        let clients = self.sessions.len();
        let barrier = Barrier::new(clients);
        let lap_t0 = Instant::now();
        let laps: Vec<ClientLap> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let spans = trace.as_ref().map(|t| t.buf(c as u32));
                    let barrier = &barrier;
                    scope.spawn(move || self.client_lap(c, barrier, spans))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads catch their steps' panics"))
                .collect()
        });
        let mut out = LapOutcome {
            total_s: lap_t0.elapsed().as_secs_f64(),
            ..LapOutcome::default()
        };
        let begin = laps.iter().map(|l| l.begin).min().expect("a client");
        let end = laps.iter().map(|l| l.end).max().expect("a client");
        out.wall_s = end.duration_since(begin).as_secs_f64();
        // One digest per slot; clients that saw different payloads for
        // a slot must have seen equal content.
        let mut slots: Vec<Option<QueryResult>> = vec![None; VIEWPORTS * self.views.len()];
        let mut agree = true;
        for lap in laps {
            out.step_ns.extend(&lap.step_ns);
            out.failed.extend(&lap.failed);
            out.seen.add(&lap.seen);
            out.samples.extend(lap.samples);
            out.traced_wall_ns += lap.traced_wall_ns;
            for (slot, seen) in lap.slots.iter().enumerate() {
                if let Some(r) = seen {
                    agree &= Self::book(&mut slots, slot, r);
                }
            }
            if let (Some(trace), Some(buf)) = (trace.as_deref_mut(), lap.spans) {
                trace.absorb(buf);
            }
        }
        out.digests = slots
            .iter()
            .map(|s| vec![s.as_ref().map_or(0, result_digest)])
            .collect();
        if !agree {
            out.failed.iter_mut().for_each(|f| *f = true);
        }
        out.counters = Counters::read(&self.engine).since(&before);
        out
    }

    fn units(&self) -> usize {
        VIEWPORTS * self.views.len()
    }

    fn reference(&self, unit: usize) -> Vec<u128> {
        let (v, k) = (unit / self.views.len(), unit % self.views.len());
        vec![reference_digest(&self.views[k], self.viewports[v])]
    }

    /// Every step pans over most bookmarks, so a wrong slot spoils them
    /// all.
    fn fail_unit(&self, lap: &mut LapOutcome, _unit: usize) {
        lap.failed.iter_mut().for_each(|f| *f = true);
    }

    fn query_boxes(&self) -> Vec<canvas_geom::BBox> {
        self.viewports.iter().map(|vp| *vp.world()).collect()
    }

    fn violations(&self, lap: &LapOutcome) -> Vec<String> {
        let mut v = Vec::new();
        if lap.counters.computed != 0 || lap.seen.computed != 0 {
            v.push(format!(
                "dashboard_revisit is all hits: {} queries computed in a timed lap",
                lap.counters.computed.max(lap.seen.computed)
            ));
        }
        if lap.counters.evictions != 0 {
            v.push(format!(
                "the working set fits the cache: {} evictions in a timed lap",
                lap.counters.evictions
            ));
        }
        if lap.counters.pipeline.passes != 0 {
            v.push(format!(
                "raster stays idle: {} passes in a timed lap",
                lap.counters.pipeline.passes
            ));
        }
        v
    }
}
