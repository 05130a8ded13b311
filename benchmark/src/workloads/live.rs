//! `live_ingest` — one client, writes beside reads, in a deterministic
//! interleave (no racing appender). A step is one tick: `ingest_append`
//! of the next feed batch, then three `LiveHeatmap` reads of the new
//! snapshot — viewport A (incremental refresh), A again (hit), zoomed
//! viewport B (incremental refresh).
//!
//! Why: the raster and engine layers the other workloads read with are
//! used here for writes — `patch_points_tiled`, canvas clone,
//! predecessor retirement, incremental grid growth — so a render
//! optimisation that makes patches or clones dearer, or an engine
//! change that breaks refresh, shows here.

use canvas_core::{PointBatch, VersionedTable};
use canvas_datagen as datagen;
use canvas_engine::{Query, QueryEngine};
use canvas_geom::Point;
use canvas_raster::Viewport;

use crate::digest::{result_digest, Digest};
use crate::lap::{engine_config, run_lap, LapOutcome, Served1, SingleClient, StepIo};
use crate::spans::Trace;
use crate::spec::WorkloadKind;
use crate::world::{extent, window, Rng, World, JITTER};

use super::Workload;

/// Points per feed tick, on average (the feed assigns trips to ticks at
/// random, so ticks differ by a few percent).
const BATCH_POINTS: usize = 2_000;

pub struct LiveIngest {
    /// `world.points` is the standing table every lap starts from.
    world: World,
    batches: Vec<PointBatch>,
    vp_a: Viewport,
    vp_b: Viewport,
    /// Points inside A / B once tick `i` is ingested.
    in_a: Vec<usize>,
    in_b: Vec<usize>,
}

pub struct Lap {
    engine: QueryEngine,
    table: VersionedTable,
}

fn count_inside(vp: &Viewport, points: &[Point]) -> usize {
    points
        .iter()
        .filter(|p| vp.world_to_pixel(**p).is_some())
        .count()
}

impl LiveIngest {
    pub fn generate(seed: u64, smoke: bool) -> Self {
        let kind = WorkloadKind::LiveIngest;
        let world = World::generate(kind, seed, smoke);
        let mut rng = Rng::stream(seed, kind, 2, 0);
        let ticks = world.sizes.steps;
        let per_tick = if smoke {
            BATCH_POINTS / 10
        } else {
            BATCH_POINTS
        };
        let feed = datagen::trip_feed(&extent(), ticks * per_tick, ticks as u16, rng.next_u64());
        let batches: Vec<PointBatch> = feed.batches().collect();
        // A shows the whole town; B is zoomed on the downtown hotspot.
        let res = world.sizes.resolution;
        let vp_a = window(
            Point::new(50.0 + rng.jitter(JITTER), 50.0 + rng.jitter(JITTER)),
            96.0,
            res,
        );
        let vp_b = window(
            Point::new(45.0 + rng.jitter(JITTER), 55.0 + rng.jitter(JITTER)),
            40.0,
            res,
        );
        let running = |vp: &Viewport| {
            let mut total = count_inside(vp, &world.points.points);
            batches
                .iter()
                .map(|b| {
                    total += count_inside(vp, &b.points);
                    total
                })
                .collect::<Vec<_>>()
        };
        LiveIngest {
            in_a: running(&vp_a),
            in_b: running(&vp_b),
            world,
            batches,
            vp_a,
            vp_b,
        }
    }

    /// The table as of tick `i`, as one batch with arrival-order ids —
    /// exactly what a snapshot of that generation holds.
    fn batch_at(&self, i: usize) -> PointBatch {
        let mut points = self.world.points.points.clone();
        let mut weights = self.world.points.weights.clone();
        for b in &self.batches[..=i] {
            points.extend_from_slice(&b.points);
            weights.extend_from_slice(&b.weights);
        }
        PointBatch::with_weights(points, weights)
    }
}

impl SingleClient for LiveIngest {
    type Lap = Lap;

    fn steps(&self) -> usize {
        self.batches.len()
    }

    /// A fresh table and engine, with generation 0 already on screen at
    /// both viewports — the state a dashboard is in when a tick arrives.
    fn new_lap(&self) -> Lap {
        let lap = Lap {
            engine: QueryEngine::with_config(engine_config()),
            table: VersionedTable::new("live", extent(), (*self.world.points).clone()),
        };
        let q = Query::LiveHeatmap {
            snapshot: lap.table.snapshot(),
        };
        for vp in [self.vp_a, self.vp_b] {
            lap.engine
                .execute(&q, vp)
                .expect("an idle engine serves generation 0");
        }
        lap
    }

    fn engine<'a>(&self, lap: &'a Lap) -> &'a QueryEngine {
        &lap.engine
    }

    fn step(&self, lap: &mut Lap, i: usize, io: &mut StepIo<'_>) {
        io.append(&lap.engine, &lap.table, &self.batches[i]);
        let snapshot = io.scope("core.snapshot", || lap.table.snapshot());
        let q = Query::LiveHeatmap { snapshot };
        io.execute(&lap.engine, &q, self.vp_a);
        io.execute(&lap.engine, &q, self.vp_a);
        io.execute(&lap.engine, &q, self.vp_b);
    }

    /// Every heatmap must show its own generation: as many point
    /// entries as the table held inside the viewport after this tick,
    /// and the re-ask must be the very same canvas.
    fn check(&self, _lap: &Lap, i: usize, served: &[Served1]) -> bool {
        let want = [self.in_a[i], self.in_a[i], self.in_b[i]];
        let shown = |s: &Served1| {
            s.response
                .as_ref()
                .and_then(|r| r.result.as_canvas())
                .map(|c| c.boundary().num_points())
        };
        served.len() == 3
            && served.iter().zip(want).all(|(s, w)| shown(s) == Some(w))
            && match (&served[0].response, &served[1].response) {
                (Some(a), Some(b)) => a.result.ptr_eq(&b.result),
                _ => false,
            }
    }
}

impl Workload for LiveIngest {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::LiveIngest
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn op_list_digest(&self) -> u128 {
        let mut d = Digest::new();
        d.merge(self.world.digest());
        d.viewport(&self.vp_a);
        d.viewport(&self.vp_b);
        d.word(self.batches.len() as u64);
        for b in &self.batches {
            d.word(b.len() as u64);
            for (p, w) in b.points.iter().zip(&b.weights) {
                d.point(*p);
                d.word(u64::from(w.to_bits()));
            }
        }
        d.finish()
    }

    fn steps_per_lap(&self) -> usize {
        self.batches.len()
    }

    fn lap(&self, trace: Option<&mut Trace>) -> LapOutcome {
        run_lap(self, trace)
    }

    fn units(&self) -> usize {
        self.batches.len()
    }

    /// A full sequential render of the tick's generation at A and B.
    /// The engine served these incrementally; the digests must agree.
    fn reference(&self, unit: usize) -> Vec<u128> {
        let table = VersionedTable::new("reference", extent(), self.batch_at(unit));
        let q = Query::LiveHeatmap {
            snapshot: table.snapshot(),
        };
        let prepared = q.prepare();
        let mut dev = canvas_core::Device::cpu();
        let a = result_digest(&prepared.execute(&mut dev, self.vp_a));
        let b = result_digest(&prepared.execute(&mut dev, self.vp_b));
        vec![a, a, b]
    }

    fn query_boxes(&self) -> Vec<canvas_geom::BBox> {
        vec![*self.vp_a.world(), *self.vp_b.world()]
    }

    fn violations(&self, lap: &LapOutcome) -> Vec<String> {
        let mut v = Vec::new();
        let served = lap.counters.served().max(1) as f64;
        let share = lap.counters.incremental as f64 / served;
        if share < 0.6 {
            v.push(format!(
                "live_ingest refreshes incrementally: incremental share {share:.3} < 0.6"
            ));
        }
        if lap.seen.incremental != lap.counters.incremental {
            v.push(format!(
                "engine counted {} incremental refreshes, the client saw {}",
                lap.counters.incremental, lap.seen.incremental
            ));
        }
        v
    }
}
