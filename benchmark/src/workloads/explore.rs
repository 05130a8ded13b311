//! `explore_cold` — one client pans and zooms along a walk that never
//! revisits a viewport. A step is one move: the four linked views
//! (`SelectPoints`, `SelectionHeatmap`, `PolygonDensity`,
//! `AggregateByZone`) refreshed at the new viewport.
//!
//! Why: raster kernels, core chains and executor dispatch do nearly all
//! the work, and the whole-plan cache can only cost (inserts and
//! evictions, never a hit) while the four views share `C_P`/`C_Q` —
//! so tile-job unification, fused-vs-materialized chains and
//! cost-aware subplan publishing must show here.

use canvas_engine::{Query, QueryEngine};
use canvas_raster::Viewport;

use crate::digest::Digest;
use crate::lap::{engine_config, run_lap, LapOutcome, SingleClient, StepIo};
use crate::spans::Trace;
use crate::spec::WorkloadKind;
use crate::world::{lattice_for, place, window, Rng, World};

use super::{reference_digest, Workload};

/// Window sides of the zoom ladder, in city units (the city is 100
/// wide). Which cell gets which zoom is fixed; the seed does not move it.
const ZOOMS: [f64; 5] = [64.0, 52.0, 44.0, 36.0, 28.0];

pub struct ExploreCold {
    world: World,
    views: Vec<Query>,
    walk: Vec<Viewport>,
}

pub struct Lap {
    engine: QueryEngine,
}

impl ExploreCold {
    pub fn generate(seed: u64, smoke: bool) -> Self {
        let world = World::generate(WorkloadKind::ExploreCold, seed, smoke);
        let cells = lattice_for(world.sizes.steps);
        let n = cells.len();
        let mut rng = Rng::stream(seed, WorkloadKind::ExploreCold, 2, 0);
        // The walk follows the serpentine from a seeded start, forwards
        // or backwards; every stop is jittered, so no two seeds (and
        // no two stops) share a viewport.
        let start = rng.below(n);
        let backwards = rng.below(2) == 1;
        let walk = (0..n)
            .map(|k| {
                let cell = if backwards {
                    (start + n - k) % n
                } else {
                    (start + k) % n
                };
                let side = ZOOMS[cell % ZOOMS.len()];
                window(
                    place(cells[cell], side, &mut rng),
                    side,
                    world.sizes.resolution,
                )
            })
            .collect();
        ExploreCold {
            views: world.four_views(),
            world,
            walk,
        }
    }
}

impl SingleClient for ExploreCold {
    type Lap = Lap;

    fn steps(&self) -> usize {
        self.walk.len()
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
        for q in &self.views {
            io.execute(&lap.engine, q, self.walk[i]);
        }
    }
}

impl Workload for ExploreCold {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::ExploreCold
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn op_list_digest(&self) -> u128 {
        let mut d = Digest::new();
        d.merge(self.world.digest());
        d.word(self.walk.len() as u64);
        for vp in &self.walk {
            d.viewport(vp);
        }
        d.finish()
    }

    fn steps_per_lap(&self) -> usize {
        self.walk.len()
    }

    fn lap(&self, trace: Option<&mut Trace>) -> LapOutcome {
        run_lap(self, trace)
    }

    fn units(&self) -> usize {
        self.walk.len()
    }

    fn reference(&self, unit: usize) -> Vec<u128> {
        self.views
            .iter()
            .map(|q| reference_digest(q, self.walk[unit]))
            .collect()
    }

    fn query_boxes(&self) -> Vec<canvas_geom::BBox> {
        self.walk.iter().map(|vp| *vp.world()).collect()
    }

    fn violations(&self, lap: &LapOutcome) -> Vec<String> {
        let mut v = Vec::new();
        if lap.counters.cache_hits != 0 || lap.seen.hits != 0 {
            v.push(format!(
                "explore_cold is cold: {} whole-plan cache hits",
                lap.counters.cache_hits.max(lap.seen.hits)
            ));
        }
        v
    }
}
