//! `analytics_batch` — one client asks for region reports. A step is
//! one report with step-seeded parameters, so nothing is reused: `Knn`,
//! `Voronoi`, `SelectOd`, `OdFlowMatrix`, `SpatioTemporalWindow`,
//! `RegionTimeSeries`, `Skyline`, `Hull` and `AggregateByZone` over the
//! point and trip tables, each at the report's own window.
//!
//! Why: geom indexes and `core::queries` — circle ladders, dominance
//! tests, many small passes — dominate and use raster very differently
//! from `explore_cold`; index choice among grid/rtree/bvh and the
//! skyline / OD-flow outliers show here and not in the other three.

use std::sync::Arc;

use canvas_core::canvas::AreaSource;
use canvas_core::queries::od::TripBatch;
use canvas_core::queries::spatiotemporal::TemporalPoints;
use canvas_datagen as datagen;
use canvas_engine::{Query, QueryEngine};
use canvas_geom::{BBox, Point};
use canvas_raster::Viewport;

use crate::digest::Digest;
use crate::lap::{engine_config, run_lap, LapOutcome, SingleClient, StepIo};
use crate::spans::Trace;
use crate::spec::WorkloadKind;
use crate::world::{digest_polygon, extent, lattice_for, place, window, Rng, World};

use super::{reference_digest, Workload};

/// Side of a report's window, city units.
const REPORT_WINDOW: f64 = 56.0;
/// Time slots of the trip table (hours of a day).
pub const TIME_SLOTS: u16 = 24;

pub struct AnalyticsBatch {
    world: World,
    /// Per step: the report's nine queries, all at the step's window.
    reports: Vec<(Viewport, Vec<Query>)>,
    op_digest: u128,
    /// Wall seconds `generate_trips` took (`datagen.trips_ms`).
    pub trips_gen_s: f64,
}

pub struct Lap {
    engine: QueryEngine,
}

/// The trip-side tables of a world: OD pairs and time-stamped pickups.
pub struct TripTables {
    pub od: Arc<TripBatch>,
    pub temporal: Arc<TemporalPoints>,
    pub gen_s: f64,
}

pub fn trip_tables(world: &World) -> TripTables {
    let seed = Rng::stream(world.seed, world.kind, 3, 0).next_u64();
    let t0 = std::time::Instant::now();
    let trips = datagen::generate_trips(&extent(), world.sizes.trips, TIME_SLOTS, seed);
    let gen_s = t0.elapsed().as_secs_f64();
    TripTables {
        od: Arc::new(trips.od_batch()),
        temporal: Arc::new(TemporalPoints::new(
            trips.pickups.clone(),
            trips.time_slots.iter().map(|&t| u32::from(t)).collect(),
        )),
        gen_s,
    }
}

fn square(c: Point, side: f64) -> BBox {
    let h = 0.5 * side;
    BBox::new(Point::new(c.x - h, c.y - h), Point::new(c.x + h, c.y + h))
}

/// One report's nine queries around `c`. Shapes come from `rng`;
/// sizes and places do not, so every seed's report costs the same.
pub fn report_queries(
    world: &World,
    trips: &TripTables,
    od_zones: &AreaSource,
    c: Point,
    rng: &mut Rng,
) -> Vec<Query> {
    let e = extent();
    let inside = |p: Point| Point::new(p.x.clamp(e.min.x, e.max.x), p.y.clamp(e.min.y, e.max.y));
    // Destinations are looked for across town from the origin region.
    let across = Point::new(e.max.x - c.x, e.max.y - c.y);
    let origin_q = datagen::star_polygon(&square(c, 36.0), 24, 0.3, rng.next_u64());
    let dest_q = datagen::star_polygon(&square(across, 44.0), 24, 0.3, rng.next_u64());
    let pocket = datagen::star_polygon(&square(c, 9.0), 16, 0.3, rng.next_u64());
    let sites = Arc::new(datagen::jittered_sites(
        &square(c, REPORT_WINDOW),
        12,
        rng.next_u64(),
    ));
    let sky_sites = Arc::new(
        (0..3)
            .map(|_| inside(Point::new(c.x + rng.jitter(15.0), c.y + rng.jitter(15.0))))
            .collect::<Vec<_>>(),
    );
    let t0 = rng.below(12) as u32;
    vec![
        Query::Knn {
            data: world.points.clone(),
            x: inside(Point::new(c.x + rng.jitter(2.0), c.y + rng.jitter(2.0))),
            k: 16,
        },
        Query::Voronoi { sites },
        Query::SelectOd {
            trips: trips.od.clone(),
            q1: origin_q.clone(),
            q2: dest_q.clone(),
        },
        Query::OdFlowMatrix {
            trips: trips.od.clone(),
            origin_zones: od_zones.clone(),
            dest_zones: od_zones.clone(),
        },
        Query::SpatioTemporalWindow {
            data: trips.temporal.clone(),
            q: origin_q.clone(),
            t0,
            t1: t0 + 8,
        },
        Query::RegionTimeSeries {
            data: trips.temporal.clone(),
            q: origin_q,
            t0: 0,
            t1: u32::from(TIME_SLOTS),
            windows: 8,
        },
        Query::Skyline {
            data: world.points.clone(),
            constraint: pocket,
            sites: sky_sites,
        },
        Query::Hull {
            data: world.points.clone(),
            q: dest_q,
        },
        Query::AggregateByZone {
            data: world.points.clone(),
            zones: world.zones.clone(),
        },
    ]
}

/// The zones of the flow matrix: two halves of town, so a matrix is
/// four OD selections.
pub fn od_zones(world: &World) -> AreaSource {
    let seed = Rng::stream(world.seed, world.kind, 4, 0).next_u64();
    Arc::new(datagen::neighborhoods(&extent(), 2, seed))
}

impl AnalyticsBatch {
    pub fn generate(seed: u64, smoke: bool) -> Self {
        let kind = WorkloadKind::AnalyticsBatch;
        let world = World::generate(kind, seed, smoke);
        let trips = trip_tables(&world);
        let zones = od_zones(&world);
        let cells = lattice_for(world.sizes.steps);
        let n = cells.len();
        let mut order = Rng::stream(seed, kind, 2, 0);
        let start = order.below(n);
        let mut d = Digest::new();
        d.merge(world.digest());
        d.word(trips.od.len() as u64);
        let reports = (0..n)
            .map(|k| {
                let mut rng = Rng::stream(seed, kind, 5, k as u64);
                let c = place(cells[(start + k) % n], REPORT_WINDOW, &mut rng);
                let vp = window(c, REPORT_WINDOW, world.sizes.resolution);
                let queries = report_queries(&world, &trips, &zones, c, &mut rng);
                d.viewport(&vp);
                digest_report(&mut d, &queries);
                (vp, queries)
            })
            .collect();
        AnalyticsBatch {
            world,
            reports,
            op_digest: d.finish(),
            trips_gen_s: trips.gen_s,
        }
    }
}

/// Folds a report's step-seeded parameters into the op-list digest.
fn digest_report(d: &mut Digest, queries: &[Query]) {
    for q in queries {
        d.bytes(q.label().as_bytes());
        match q {
            Query::Knn { x, k, .. } => {
                d.point(*x);
                d.word(u64::from(*k));
            }
            Query::Voronoi { sites } => sites.iter().for_each(|s| d.point(*s)),
            Query::SelectOd { q1, q2, .. } => {
                digest_polygon(d, q1);
                digest_polygon(d, q2);
            }
            Query::SpatioTemporalWindow { q, t0, t1, .. } => {
                digest_polygon(d, q);
                d.word(u64::from(*t0) << 32 | u64::from(*t1));
            }
            Query::RegionTimeSeries { q, windows, .. } => {
                digest_polygon(d, q);
                d.word(u64::from(*windows));
            }
            Query::Skyline {
                constraint, sites, ..
            } => {
                digest_polygon(d, constraint);
                sites.iter().for_each(|s| d.point(*s));
            }
            Query::Hull { q, .. } => digest_polygon(d, q),
            _ => {}
        }
    }
}

impl SingleClient for AnalyticsBatch {
    type Lap = Lap;

    fn steps(&self) -> usize {
        self.reports.len()
    }

    fn new_lap(&self) -> Lap {
        Lap {
            engine: QueryEngine::with_config(engine_config()),
        }
    }

    fn engine<'a>(&self, lap: &'a Lap) -> &'a QueryEngine {
        &lap.engine
    }

    fn step(&self, lap: &mut Lap, i: usize, io: &mut StepIo<'_>) {
        let (vp, queries) = &self.reports[i];
        for q in queries {
            io.execute(&lap.engine, q, *vp);
        }
    }
}

impl Workload for AnalyticsBatch {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::AnalyticsBatch
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn op_list_digest(&self) -> u128 {
        self.op_digest
    }

    fn steps_per_lap(&self) -> usize {
        self.reports.len()
    }

    fn lap(&self, trace: Option<&mut Trace>) -> LapOutcome {
        run_lap(self, trace)
    }

    fn units(&self) -> usize {
        self.reports.len()
    }

    fn reference(&self, unit: usize) -> Vec<u128> {
        let (vp, queries) = &self.reports[unit];
        queries.iter().map(|q| reference_digest(q, *vp)).collect()
    }

    fn query_boxes(&self) -> Vec<canvas_geom::BBox> {
        self.reports.iter().map(|(vp, _)| *vp.world()).collect()
    }

    fn violations(&self, lap: &LapOutcome) -> Vec<String> {
        let mut v = Vec::new();
        let reused = lap.seen.hits + lap.seen.coalesced;
        if reused != 0 || lap.counters.cache_hits != 0 {
            v.push(format!(
                "analytics_batch reuses nothing: {} responses came from the cache",
                reused.max(lap.counters.cache_hits)
            ));
        }
        v
    }
}
