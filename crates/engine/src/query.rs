//! Query descriptors — the engine's admission surface, and the **one
//! description** of every query class.
//!
//! Clients hand the engine a raw algebra plan ([`Query::Plan`]) or one
//! of the high-level descriptors mirroring the paper's query classes
//! (selection §4.1, heatmaps §4.1 fused, aggregation §4.3, knn §4.4,
//! Voronoi / hull / skyline §4.5, origin–destination and
//! spatio-temporal §4.6). [`Query::prepare`] resolves a descriptor to a
//! [`Prepared`]: the *lowered* query (plan-backed descriptors become
//! one normalized [`Query::Plan`]; every other class is its own lowered
//! form) plus its identity. Everything the engine knows about a class
//! is written once, on [`Query`] itself:
//!
//! * its **label** ([`Query::label`]) — names the class span, the
//!   per-class latency histogram and the execution report;
//! * its **identity arm** (`Query::identity`) — plans are normalized
//!   and fingerprinted structurally, so syntactically different but
//!   equivalent submissions share cache entries and in-flight work; the
//!   other classes fold their descriptor parameters into a fingerprint
//!   under their own domain (`"engine/knn"`, …) by the same contract:
//!   datasets by handle (and pinned), query geometry and scalar
//!   parameters by value;
//! * its **run arm** ([`Prepared::execute_via`]) — `Expr::eval_via`, a
//!   heatmap (`selection_heatmap_via`'s entry walk,
//!   `polygon_density_heatmap`'s canvas chain), or a promoted procedure
//!   (`knn`, `compute_voronoi`, …), wrapped in the [`QueryResult`] kind
//!   the class answers with.
//!
//! ## Adding a query class
//!
//! A [`Query`] variant, then one arm each in `Query::class` (next dense
//! index + label; bump `Query::CLASSES`), `Query::identity` (fresh
//! fingerprint domain, every parameter folded, every by-address handle
//! pinned — or, for sugar over the algebra, only its plan in
//! `Query::lower`) and [`Prepared::execute_via`], plus a
//! [`QueryResult`] kind if no existing one fits the answer. Nothing
//! outside this file changes: cache, dedup, admission, metrics and
//! reports key on the label and the fingerprint
//! (`docs/ARCHITECTURE.md` walks through it).

use crate::cache::DataPin;
use crate::result::QueryResult;
use canvas_core::algebra::{self, Expr, Fingerprint, FingerprintBuilder, SubplanCache};
use canvas_core::canvas::{AreaSource, PointBatch};
use canvas_core::info::BlendFn;
use canvas_core::ops::{CountCond, MaskSpec, ValueMap};
use canvas_core::queries::od::TripBatch;
use canvas_core::queries::spatiotemporal::TemporalPoints;
use canvas_core::queries::{heatmap, hull, knn, od, selection, skyline, spatiotemporal, voronoi};
use canvas_core::{Device, TableSnapshot};
use canvas_geom::polygon::Polygon;
use canvas_geom::Point;
use canvas_obs as obs;
use canvas_raster::Viewport;
use std::sync::Arc;

/// A query submitted to the engine (viewport-free: the viewport is the
/// other half of the cache key and is passed at execution time).
#[derive(Clone)]
pub enum Query {
    /// A raw algebra plan; evaluates to its canvas.
    Plan(Expr),
    /// `SELECT * FROM data WHERE Location INSIDE q` (Figure 5) — the
    /// result canvas's boundary index carries the selected records. The
    /// planner runs the plan's Mask as the entry walk
    /// (`algebra::planner::selection_sink`): `C_P` and `C_Q` are
    /// evaluated (or taken from the subplan cache), then one walk of
    /// `C_P`'s point run writes only the kept pixels and entries; no
    /// blend or mask plane is drawn or published. EXPLAIN labels the
    /// rows `Mp'[#areas>=1] (entries)` and `B[⊙] (fused)`.
    SelectPoints { data: Arc<PointBatch>, q: Polygon },
    /// The selection heatmap `V[log](M[point ∧ area](B[⊙](C_P, C_Q)))`:
    /// the coarse texel mask keeps pixels holding a point inside `q`,
    /// and the value transform writes `ln(1 + count)`. It runs as the
    /// mask's entry walk over `C_P` and `C_Q`, the leaves `SelectPoints`
    /// over the same `data` and `q` evaluates: after that selection at
    /// the same viewport both come from the subplan cache and the
    /// heatmap draws nothing.
    SelectionHeatmap { data: Arc<PointBatch>, q: Polygon },
    /// The choropleth `V[log](M[inside ∧ ≥1](B[⊕](C_Y*, C_tag)))`: the
    /// overlap count of `table`'s polygons, kept inside `q`. `C_Y*` is
    /// the `C_Y*[table, ⊕]` leaf `AggregateByZone` over the same table
    /// evaluates, shared through the subplan cache; the chain runs over
    /// it.
    PolygonDensity { table: AreaSource, q: Polygon },
    /// Per-zone aggregation as the Section 4.3 scatter plan:
    /// `D*[γc](M[Mp'](B[⊙](C_P, B*[⊕](C_Y*))))` — the result canvas is
    /// the group-slot canvas (zone id → slot). The planner runs the plan
    /// in the mask's entry form, as it runs `SelectPoints`
    /// (`algebra::planner::entry_sink`): `C_P` and `C_Y*` are evaluated
    /// (or taken from the subplan cache — a `SelectPoints` over the
    /// same handle and a `PolygonDensity` over the same table publish
    /// them), then one walk of `C_P`'s point run folds each kept
    /// pixel's texel into its zone slot; no blend or mask canvas is
    /// drawn or published. EXPLAIN labels the folded rows
    /// `Mp'[#areas>=1] (entries)` and `B[⊙] (fused)`.
    AggregateByZone {
        data: Arc<PointBatch>,
        zones: AreaSource,
    },
    /// `SELECT * FROM D_P WHERE Location ∈ KNN(X, k)` (Section 4.4) —
    /// the circle-ladder k-nearest-neighbor query. Result:
    /// [`QueryResult::Ids`] ordered by increasing distance.
    Knn {
        data: Arc<PointBatch>,
        x: Point,
        k: u32,
    },
    /// The `ComputeVoronoi` stored procedure (Section 4.5). Result: the
    /// diagram canvas (`s[2] = (site, d², 0)` at every location). Sites
    /// hash by value, so a rebuilt site list still deduplicates.
    Voronoi { sites: Arc<Vec<Point>> },
    /// `SELECT * WHERE Origin INSIDE q1 AND Destination INSIDE q2`
    /// (Section 4.6, Figure 8(a)). Result: [`QueryResult::Ids`].
    SelectOd {
        trips: Arc<TripBatch>,
        q1: Polygon,
        q2: Polygon,
    },
    /// Trip counts for every (origin-zone, destination-zone) pair —
    /// the Section 4.6 group-by. Result: [`QueryResult::FlowMatrix`].
    OdFlowMatrix {
        trips: Arc<TripBatch>,
        origin_zones: AreaSource,
        dest_zones: AreaSource,
    },
    /// `SELECT * WHERE Location INSIDE q AND t ∈ [t0, t1)` — temporal
    /// filter then spatial refinement. Result: [`QueryResult::Ids`].
    SpatioTemporalWindow {
        data: Arc<TemporalPoints>,
        q: Polygon,
        t0: u32,
        t1: u32,
    },
    /// Per-window counts inside a region over `[t0, t1)` — the
    /// dashboard time series. Result: [`QueryResult::Series`].
    RegionTimeSeries {
        data: Arc<TemporalPoints>,
        q: Polygon,
        t0: u32,
        t1: u32,
        windows: u32,
    },
    /// Spatial skyline of the points selected by `constraint` w.r.t.
    /// the query `sites` (Section 4.5). Result: [`QueryResult::Ids`].
    Skyline {
        data: Arc<PointBatch>,
        constraint: Polygon,
        sites: Arc<Vec<Point>>,
    },
    /// Convex hull of the points selected by `q` (Section 4.5).
    /// Result: [`QueryResult::Hull`] (CCW vertex ring).
    Hull { data: Arc<PointBatch>, q: Polygon },
    /// The live-updating density heatmap over one generation of a
    /// [`VersionedTable`](canvas_core::VersionedTable) — the streaming
    /// maintained view. Identity folds the table's stable handle plus
    /// the snapshot's generation stamp, so every append retires all
    /// cached canvases of older generations (unreachable by key) while
    /// same-generation probes still hit. The engine's serve path may
    /// satisfy this query *incrementally*: if a predecessor
    /// generation's canvas is still cached, it is cloned and only the
    /// delta's dirty tiles are redrawn (provenance `incremental`).
    LiveHeatmap { snapshot: TableSnapshot },
}

impl Query {
    /// Number of query classes — sizes the engine's per-class tables.
    pub(crate) const CLASSES: usize = 14;

    /// The class's dense index (`< CLASSES`) and its label.
    fn class(&self) -> (usize, &'static str) {
        match self {
            Query::Plan(_) => (0, "plan"),
            Query::SelectPoints { .. } => (1, "select_points"),
            Query::SelectionHeatmap { .. } => (2, "selection_heatmap"),
            Query::PolygonDensity { .. } => (3, "polygon_density"),
            Query::AggregateByZone { .. } => (4, "aggregate_by_zone"),
            Query::Knn { .. } => (5, "knn"),
            Query::Voronoi { .. } => (6, "voronoi"),
            Query::SelectOd { .. } => (7, "select_od"),
            Query::OdFlowMatrix { .. } => (8, "od_flow_matrix"),
            Query::SpatioTemporalWindow { .. } => (9, "spatiotemporal_window"),
            Query::RegionTimeSeries { .. } => (10, "region_time_series"),
            Query::Skyline { .. } => (11, "skyline"),
            Query::Hull { .. } => (12, "hull"),
            Query::LiveHeatmap { .. } => (13, "live_heatmap"),
        }
    }

    /// Plan-diagram-style label for logs and metrics.
    pub fn label(&self) -> &'static str {
        self.class().1
    }

    /// Resolves the descriptor to its normalized, fingerprinted,
    /// executable form.
    pub fn prepare(&self) -> Prepared {
        let (class, label) = self.class();
        let query = self.lower();
        let (fingerprint, pins) = query.identity();
        Prepared {
            fingerprint,
            label,
            class,
            query,
            pins,
        }
    }

    /// The lowered form: raw plans and the descriptors that are sugar
    /// over the algebra become one normalized [`Query::Plan`] (so a
    /// hand-built Figure 5 plan and `SelectPoints` are the same
    /// question); every other class is its own lowered form.
    fn lower(&self) -> Query {
        let plan = match self {
            Query::Plan(e) => e.clone(),
            Query::SelectPoints { data, q } => {
                selection::points_in_polygon_plan(data.clone(), q.clone())
            }
            Query::AggregateByZone { data, zones } => Expr::map_scatter(
                ValueMap::area_id_slot(),
                zones.len() as u32,
                BlendFn::Accumulate,
                Expr::mask(
                    MaskSpec::PointInAreas(CountCond::Ge(1)),
                    Expr::blend(
                        BlendFn::PointOverArea,
                        Expr::points(data.clone()),
                        Expr::polygon_set(zones.clone(), BlendFn::AreaCount),
                    ),
                ),
            ),
            other => return other.clone(),
        };
        Query::Plan(algebra::normalize(plan))
    }

    /// The class's identity arm: the query's fingerprint, and the
    /// handles that fingerprint identifies **by address**, which every
    /// cache entry under it must pin ([`DataPin`]). Geometry, site
    /// lists and polygon tables hash by value — a client that rebuilds
    /// them still deduplicates, and there is nothing to pin.
    fn identity(&self) -> (Fingerprint, Vec<DataPin>) {
        let fb = FingerprintBuilder::new;
        match self {
            Query::Plan(e) => {
                let mut pins = Vec::new();
                collect_pins(e, &mut pins);
                (algebra::fingerprint(e), pins)
            }
            Query::SelectPoints { .. } | Query::AggregateByZone { .. } => self.lower().identity(),
            Query::SelectionHeatmap { data, q } => (
                fb("engine/selection-heatmap")
                    .handle(data, data.len())
                    .polygon(q)
                    .finish(),
                vec![data.clone()],
            ),
            Query::PolygonDensity { table, q } => (
                fb("engine/polygon-density")
                    .polygons(table)
                    .polygon(q)
                    .finish(),
                Vec::new(),
            ),
            Query::Knn { data, x, k } => (
                fb("engine/knn")
                    .handle(data, data.len())
                    .float(x.x)
                    .float(x.y)
                    .word(*k as u64)
                    .finish(),
                vec![data.clone()],
            ),
            Query::Voronoi { sites } => (fb("engine/voronoi").points(sites).finish(), Vec::new()),
            Query::SelectOd { trips, q1, q2 } => (
                fb("engine/select-od")
                    .handle(trips, trips.len())
                    .polygon(q1)
                    .polygon(q2)
                    .finish(),
                vec![trips.clone()],
            ),
            Query::OdFlowMatrix {
                trips,
                origin_zones,
                dest_zones,
            } => (
                fb("engine/od-flow-matrix")
                    .handle(trips, trips.len())
                    .polygons(origin_zones)
                    .polygons(dest_zones)
                    .finish(),
                vec![trips.clone()],
            ),
            Query::SpatioTemporalWindow { data, q, t0, t1 } => (
                fb("engine/spatiotemporal-window")
                    .handle(data, data.len())
                    .polygon(q)
                    .word(*t0 as u64)
                    .word(*t1 as u64)
                    .finish(),
                vec![data.clone()],
            ),
            Query::RegionTimeSeries {
                data,
                q,
                t0,
                t1,
                windows,
            } => (
                fb("engine/region-time-series")
                    .handle(data, data.len())
                    .polygon(q)
                    .word(*t0 as u64)
                    .word(*t1 as u64)
                    .word(*windows as u64)
                    .finish(),
                vec![data.clone()],
            ),
            Query::Skyline {
                data,
                constraint,
                sites,
            } => (
                fb("engine/skyline")
                    .handle(data, data.len())
                    .polygon(constraint)
                    .points(sites)
                    .finish(),
                vec![data.clone()],
            ),
            Query::Hull { data, q } => (
                fb("engine/hull")
                    .handle(data, data.len())
                    .polygon(q)
                    .finish(),
                vec![data.clone()],
            ),
            // The table handle hashes by address (generation + length
            // disambiguate contents): pin it and the snapshot's chunks.
            Query::LiveHeatmap { snapshot } => (
                live_heatmap_fingerprint(snapshot, snapshot.generation()),
                vec![snapshot.ident_handle(), snapshot.records_handle()],
            ),
        }
    }
}

/// Identity of the live heatmap over `snapshot`'s table as of
/// `generation` — the snapshot's own for [`Query::prepare`], an older
/// one when the engine probes for a patchable predecessor, so both
/// address exactly the entries earlier submissions published.
fn live_heatmap_fingerprint(snapshot: &TableSnapshot, generation: u64) -> Fingerprint {
    let mut fb = FingerprintBuilder::new("engine/live-heatmap");
    snapshot.fold_identity_at(&mut fb, generation);
    fb.finish()
}

impl std::fmt::Debug for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Query::{}", self.label())
    }
}

/// Collects the handles a plan's fingerprint identifies **by address**
/// (point batches, literal canvases, unnamed custom transforms, value
/// maps' lookup tables) so a
/// cache entry can pin them — see [`DataPin`].
fn collect_pins(e: &Expr, out: &mut Vec<DataPin>) {
    use canvas_core::algebra::SourceSpec;
    use canvas_core::ops::PositionMap;
    match e {
        Expr::Source(SourceSpec::Points(b)) => out.push(b.clone()),
        Expr::Source(SourceSpec::Literal(c)) => out.push(c.clone()),
        Expr::Source(_) => {}
        Expr::Blend { left, right, .. } => {
            collect_pins(left, out);
            collect_pins(right, out);
        }
        Expr::MultiBlend { inputs, .. } => {
            for i in inputs {
                collect_pins(i, out);
            }
        }
        Expr::Mask { input, .. } => collect_pins(input, out),
        Expr::GeomTransform { gamma, input } => {
            if let PositionMap::Custom(_) = gamma {
                // Hashed by closure address: hold a clone of the map
                // (and through it the closure Arc) alive.
                out.push(Arc::new(gamma.clone()));
            }
            collect_pins(input, out);
        }
        Expr::MapScatter { gamma, input, .. } => {
            if let canvas_core::ops::MapParam::Table(t) = &gamma.param {
                // A lookup table is hashed by handle: pin it.
                out.push(t.clone());
            }
            collect_pins(input, out);
        }
        Expr::ValueTransform { input, .. } => collect_pins(input, out),
    }
}

/// A normalized, fingerprinted, executable query.
pub struct Prepared {
    pub fingerprint: Fingerprint,
    /// Query-class label ([`Query::label`] of the descriptor this was
    /// prepared from) — names the per-class latency histogram and the
    /// execution report.
    pub label: &'static str,
    /// Dense class index of that descriptor (`< Query::CLASSES`).
    pub(crate) class: usize,
    /// The lowered query — what [`execute_via`](Self::execute_via) runs.
    query: Query,
    pins: Vec<DataPin>,
}

impl Prepared {
    /// The EXPLAIN skeleton: one [`NodeReport`](obs::NodeReport) row
    /// per plan node for plan-backed queries (pre-order ids matching
    /// the evaluator's span stamps, operator labels, per-subtree
    /// fingerprints), a single descriptor row for the promoted
    /// classes. `measured == false`; the engine folds a recorded span
    /// tree in via [`ExecReport::measure`](obs::ExecReport::measure)
    /// (`Response::report()`, slow-query capture).
    pub fn explain(&self) -> obs::ExecReport {
        let row = |node, depth, label, fingerprint: Fingerprint| obs::NodeReport {
            node,
            depth,
            label,
            fingerprint: fingerprint.to_string(),
            provenance: "plan".to_string(),
            ..obs::NodeReport::default()
        };
        let nodes = match &self.query {
            Query::Plan(e) => algebra::plan_nodes(e)
                .into_iter()
                .map(|n| row(n.id, n.depth, n.label, n.fingerprint))
                .collect(),
            _ => vec![row(0, 0, self.label.to_string(), self.fingerprint)],
        };
        obs::ExecReport {
            query: self.label.to_string(),
            fingerprint: self.fingerprint.to_string(),
            provenance: "plan".to_string(),
            nodes,
            ..obs::ExecReport::default()
        }
    }

    /// The dataset handles this query's fingerprint identifies by
    /// address (the cache pins these alongside the result).
    pub fn pins(&self) -> &[DataPin] {
        &self.pins
    }

    /// For maintainable queries (today: [`Query::LiveHeatmap`]), what
    /// the serve path needs to patch a cached predecessor generation
    /// instead of re-rendering: the snapshot to render, and the
    /// `(fingerprint, prefix length)` of every prior generation,
    /// newest first — the freshest predecessor yields the smallest
    /// delta.
    pub(crate) fn refresh(
        &self,
    ) -> Option<(
        &TableSnapshot,
        impl Iterator<Item = (Fingerprint, usize)> + '_,
    )> {
        let Query::LiveHeatmap { snapshot } = &self.query else {
            return None;
        };
        let predecessors = snapshot.predecessors().map(move |g| {
            let prefix = snapshot.len_at(g).expect("known generation");
            (live_heatmap_fingerprint(snapshot, g), prefix)
        });
        Some((snapshot, predecessors))
    }

    /// Evaluates on a device. The engine calls this on a leased shared
    /// device under the query's fair-share ticket; it is public so
    /// harnesses can evaluate the *identical* prepared form on a
    /// reference device (`Device::cpu`) for equivalence checks.
    pub fn execute(&self, dev: &mut Device, vp: Viewport) -> QueryResult {
        self.execute_via(dev, vp, None)
    }

    /// Evaluates with a [`SubplanCache`] consulted at cut points — the
    /// engine's subplan-sharing entry, and the one **run arm** per
    /// class. Plans thread the cache through `Expr::eval_via`; the
    /// heatmaps consult it for the canvases they read — the selection
    /// heatmap for the `C_P` and `C_Q` leaves its entry walk reads, the
    /// choropleth for the zone table's `C_Y*` its chain starts from and
    /// the tagged query region it blends with — never for a chain's
    /// intermediates; the promoted classes over a shared point handle
    /// (skyline, hull) take their `C_P` through it — the same key as the
    /// `C_P` leaf of a zone aggregate or `SelectPoints` plan over that
    /// handle — while the
    /// remaining procedures run on the leased device directly (their
    /// interior batches are derived per call, so there is nothing
    /// stable to share). Results are bit-identical to
    /// [`execute`](Self::execute) regardless of what the cache serves,
    /// because rendering is deterministic.
    ///
    /// Every class but the plan records a per-class trace span
    /// (category `"query"`, named after [`Query::label`]) under the
    /// engine's `eval` span, stamped with `node = 0` and the result's
    /// byte size — the join key
    /// [`ExecReport::measure`](obs::ExecReport::measure) uses to
    /// attribute the work to the class's single descriptor row. Plans
    /// need no extra span: the evaluator stamps one per plan node.
    pub fn execute_via(
        &self,
        dev: &mut Device,
        vp: Viewport,
        cache: Option<&dyn SubplanCache>,
    ) -> QueryResult {
        if let Query::Plan(e) = &self.query {
            return e.eval_via(dev, vp, cache).into();
        }
        let mut class_span = obs::span(self.label, "query");
        class_span.arg_u64("node", 0);
        let result = match &self.query {
            Query::Plan(_) | Query::SelectPoints { .. } | Query::AggregateByZone { .. } => {
                unreachable!("plans return above")
            }
            Query::SelectionHeatmap { data, q } => {
                heatmap::selection_heatmap_via(dev, vp, data, q, cache).into()
            }
            Query::PolygonDensity { table, q } => {
                heatmap::polygon_density_heatmap(dev, vp, table, q, cache).into()
            }
            Query::Knn { data, x, k } => {
                QueryResult::Ids(Arc::new(knn::knn(dev, vp, data, *x, *k as usize)))
            }
            Query::Voronoi { sites } => voronoi::compute_voronoi(dev, vp, sites).into(),
            Query::SelectOd { trips, q1, q2 } => {
                QueryResult::Ids(Arc::new(od::select_od(dev, vp, trips, q1, q2)))
            }
            Query::OdFlowMatrix {
                trips,
                origin_zones,
                dest_zones,
            } => QueryResult::FlowMatrix(Arc::new(od::od_flow_matrix(
                dev,
                vp,
                trips,
                origin_zones,
                dest_zones,
            ))),
            Query::SpatioTemporalWindow { data, q, t0, t1 } => QueryResult::Ids(Arc::new(
                spatiotemporal::select_in_polygon_and_window(dev, vp, data, q, *t0, *t1),
            )),
            Query::RegionTimeSeries {
                data,
                q,
                t0,
                t1,
                windows,
            } => QueryResult::Series(Arc::new(spatiotemporal::region_time_series(
                dev, vp, data, q, *t0, *t1, *windows,
            ))),
            Query::Skyline {
                data,
                constraint,
                sites,
            } => QueryResult::Ids(Arc::new(skyline::skyline_of_selection(
                dev, vp, data, constraint, sites, cache,
            ))),
            Query::Hull { data, q } => {
                QueryResult::Hull(Arc::new(hull::hull_of_selection(dev, vp, data, q, cache)))
            }
            Query::LiveHeatmap { snapshot } => {
                canvas_core::render_live_heatmap(dev, vp, snapshot.batch(), None).into()
            }
        };
        class_span.arg_u64("bytes", result.size_bytes() as u64);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_geom::Point;

    fn square(x0: f64, y0: f64, s: f64) -> Polygon {
        Polygon::simple(vec![
            Point::new(x0, y0),
            Point::new(x0 + s, y0),
            Point::new(x0 + s, y0 + s),
            Point::new(x0, y0 + s),
        ])
        .unwrap()
    }

    #[test]
    fn descriptor_fingerprints_dedupe_rebuilt_geometry() {
        let data = Arc::new(PointBatch::from_points(vec![Point::new(1.0, 1.0)]));
        let a = Query::SelectionHeatmap {
            data: data.clone(),
            q: square(0.0, 0.0, 5.0),
        }
        .prepare();
        let b = Query::SelectionHeatmap {
            data: data.clone(),
            q: square(0.0, 0.0, 5.0),
        }
        .prepare();
        assert_eq!(a.fingerprint, b.fingerprint);
        let c = Query::SelectionHeatmap {
            data,
            q: square(0.0, 0.0, 6.0),
        }
        .prepare();
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn different_query_kinds_never_collide() {
        let data = Arc::new(PointBatch::from_points(vec![Point::new(1.0, 1.0)]));
        let table: AreaSource = Arc::new(vec![square(0.0, 0.0, 5.0)]);
        let q = square(0.0, 0.0, 5.0);
        let fps = [
            Query::SelectPoints {
                data: data.clone(),
                q: q.clone(),
            }
            .prepare()
            .fingerprint,
            Query::SelectionHeatmap {
                data: data.clone(),
                q: q.clone(),
            }
            .prepare()
            .fingerprint,
            Query::PolygonDensity {
                table: table.clone(),
                q: q.clone(),
            }
            .prepare()
            .fingerprint,
            Query::AggregateByZone { data, zones: table }
                .prepare()
                .fingerprint,
        ];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "kinds {i} and {j} collided");
            }
        }
    }

    #[test]
    fn plan_and_descriptor_selection_share_identity() {
        // A hand-built Figure 5 plan and the SelectPoints descriptor
        // are the same question — same fingerprint.
        let data = Arc::new(PointBatch::from_points(vec![Point::new(1.0, 1.0)]));
        let q = square(0.0, 0.0, 5.0);
        let descriptor = Query::SelectPoints {
            data: data.clone(),
            q: q.clone(),
        }
        .prepare();
        let plan = Query::Plan(Expr::mask(
            MaskSpec::PointInAreas(CountCond::Ge(1)),
            Expr::blend(
                BlendFn::PointOverArea,
                Expr::points(data),
                Expr::query_polygon(q, 1),
            ),
        ))
        .prepare();
        assert_eq!(descriptor.fingerprint, plan.fingerprint);
    }
}
