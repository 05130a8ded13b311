//! Emits `BENCH_serve.json`: the serving-engine benchmark. Drives N
//! client threads of mixed selection / heatmap / choropleth /
//! aggregation queries over a pan/zoom viewport walk, three ways:
//!
//! 1. **global lock** — one `Device` behind a `Mutex`, whole queries
//!    serialize (the pre-engine status quo),
//! 2. **engine, cache off** — fair-share pass interleaving + in-flight
//!    dedup only (isolates the scheduler's contribution),
//! 3. **engine** — the full subsystem incl. the budgeted canvas cache
//!    (the paper's interactive pan/zoom reuse case).
//!
//! Records throughput, cache traffic, per-client fairness (Jain index
//! over batch completion times), scheduler grant accounting, and the
//! startup calibration of `Policy::min_parallel_items`.
//!
//! A fourth section exercises **cross-query subplan sharing**: a mixed
//! selection + heatmap workload in which every root plan is distinct
//! (the whole-plan cache is useless) but plans share interior
//! canvases (`C_P`, `C_Q`, the blended density canvas). It runs the
//! job list on one engine, records the sharing counters, and gates
//! `subplan_hits > 0` with a bit-identity spot check against
//! `Device::cpu`.
//!
//! A fifth section drives the **promoted query classes** — knn,
//! voronoi, OD selection / flow matrix, spatio-temporal window / time
//! series, skyline, hull — through one engine as a mixed workload,
//! asserts cache-hit identity per class (the re-ask returns the
//! *identical* shared allocation), and records per-class latency
//! percentiles (`class_<label>_p50_secs` …) from the engine's
//! per-class service histograms.
//!
//! A sixth section measures **streaming ingest**: a `VersionedTable`
//! fed deterministic trip-feed append batches, each generation served
//! by a cache-off engine (full re-render every time) and by a cached
//! engine (incremental refresh: the predecessor canvas patched with
//! the delta's dirty tiles). Per-generation bit-identity is asserted,
//! and the record carries `ingest_incremental_speedup` (gated ≥ 2× on
//! hosts with ≥ 8 cores), `ingest_appends`, `incremental_refreshes`,
//! `dirty_tiles_redrawn`, and `full_renders_avoided`. Run with:
//!
//! ```text
//! cargo run --release -p canvas-bench --bin bench_serve \
//!     [-- output.json] [--smoke] [--trace-out trace.json] \
//!     [--report-out report.json]
//! ```
//!
//! With `--trace-out` the run replays a short slice of the workload
//! with span tracing enabled and writes a Chrome-trace-event JSON file
//! loadable in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`. The
//! traced slice runs outside every timed window; the timed arms always
//! run with tracing disabled, and the JSON records the measured cost of
//! a disabled span (`obs_disabled_span_ns`), the span count per query
//! (`obs_spans_per_query`), and their product as a fraction of mean
//! service time (`obs_overhead_pct`, gated ≤ 3%).
//!
//! The same section prices the **always-on flight recorder**: the cost
//! of a span with the per-thread rings recording but tracing off
//! (`flight_span_ns`), and its marginal overhead over the inert guard
//! as a fraction of mean service time (`flight_overhead_pct`, gated
//! ≤ 3% alongside `obs_overhead_pct`). A tiny-threshold engine then
//! exercises tail sampling end to end and the recorder counters land
//! in the JSON (`slow_captured`, `flight_recycled`, `flight_dropped`).
//! With `--report-out` the first captured query's measured EXPLAIN
//! ANALYZE report is written as JSON for downstream validation.
//!
//! Gates: the cache must see hits everywhere; the subplan workload
//! must see subplan hits everywhere; on hosts with ≥ 4 cores the full
//! engine must beat the global lock by ≥ 1.5× and client fairness must
//! stay ≥ 0.5 (on smaller hosts the numbers are recorded for the
//! trajectory but not asserted, like `bench_baseline`'s wall gate).

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use canvas_bench::city_extent;
use canvas_core::prelude::*;
use canvas_core::queries::spatiotemporal::TemporalPoints;
use canvas_datagen as datagen;
use canvas_engine::{EngineConfig, Query, QueryEngine, Served};
use canvas_geom::{BBox, Point};
use canvas_obs as obs;

const CLIENTS: usize = 4;
const WORKERS: usize = 4;

struct Workload {
    queries: Vec<Query>,
    viewports: Vec<Viewport>,
    per_client: usize,
}

impl Workload {
    /// The (query, viewport) pair client `c` submits at step `s`: a
    /// deterministic pan/zoom walk in which clients revisit viewports
    /// and share query shapes — the interactive reuse pattern.
    fn pick(&self, client: usize, step: usize) -> (&Query, Viewport) {
        let qi = (client + step) % self.queries.len();
        let vi = (client * 2 + step / 2) % self.viewports.len();
        (&self.queries[qi], self.viewports[vi])
    }

    fn total(&self) -> usize {
        CLIENTS * self.per_client
    }
}

fn build_workload(smoke: bool) -> Workload {
    let extent = city_extent();
    let n_points = if smoke { 50_000 } else { 200_000 };
    let resolution = if smoke { 128 } else { 256 };
    let per_client = if smoke { 16 } else { 40 };
    let data = Arc::new(PointBatch::from_points(datagen::taxi_pickups(
        &extent, n_points, 42,
    )));
    let zones: AreaSource = Arc::new(datagen::neighborhoods(&extent, 16, 11));
    let district = datagen::star_polygon(
        &BBox::new(Point::new(15.0, 15.0), Point::new(85.0, 85.0)),
        64,
        0.45,
        7,
    );
    let corridor = datagen::star_polygon(
        &BBox::new(Point::new(35.0, 5.0), Point::new(95.0, 55.0)),
        32,
        0.3,
        9,
    );
    let queries = vec![
        Query::SelectPoints {
            data: data.clone(),
            q: district.clone(),
        },
        Query::SelectionHeatmap {
            data: data.clone(),
            q: district.clone(),
        },
        Query::PolygonDensity {
            table: zones.clone(),
            q: corridor.clone(),
        },
        Query::AggregateByZone {
            data: data.clone(),
            zones: zones.clone(),
        },
        Query::SelectionHeatmap {
            data: data.clone(),
            q: corridor,
        },
    ];
    // A zoom ladder plus pans: 4 distinct viewports revisited often.
    let viewports = vec![
        Viewport::square_pixels(extent, resolution),
        Viewport::square_pixels(
            BBox::new(Point::new(20.0, 20.0), Point::new(70.0, 70.0)),
            resolution,
        ),
        Viewport::square_pixels(
            BBox::new(Point::new(40.0, 35.0), Point::new(90.0, 85.0)),
            resolution,
        ),
        Viewport::square_pixels(extent, resolution / 2),
    ];
    Workload {
        queries,
        viewports,
        per_client,
    }
}

/// The heatmap as an algebra plan sharing the selection's interior
/// blend: `V[log](M[texel](B[⊙](C_P, C_Q)))` — same shape the engine's
/// subplan-sharing tests use.
fn heatmap_plan(data: &Arc<PointBatch>, q: &canvas_geom::Polygon) -> Query {
    Query::Plan(Expr::value_transform(
        "log",
        Arc::new(|_, mut t: Texel| {
            if let Some(mut p) = t.get(0) {
                p.v2 = (1.0 + p.v1).ln();
                t.set(0, p);
            }
            t
        }),
        Expr::mask(
            MaskSpec::Texel("point ∧ area", Arc::new(|t: &Texel| t.has(0) && t.has(2))),
            Expr::blend(
                BlendFn::PointOverArea,
                Expr::points(data.clone()),
                Expr::query_polygon(q.clone(), 1),
            ),
        ),
    ))
}

/// The subplan-sharing job list: every root plan distinct (no
/// whole-plan reuse possible), heavy interior overlap. For each
/// (polygon, viewport) pair three kinds — algebra selection, algebra
/// heatmap, fused-chain heatmap — share `C_P` (per viewport, across
/// all polygons), `C_Q`, and the blended density canvas.
fn build_subplan_jobs(smoke: bool, data: &Arc<PointBatch>) -> Vec<(Query, Viewport)> {
    let n_polys = if smoke { 3 } else { 6 };
    let resolution = if smoke { 128 } else { 256 };
    let extent = city_extent();
    let polys: Vec<canvas_geom::Polygon> = (0..n_polys)
        .map(|i| {
            let inset = 4.0 + 3.0 * i as f64;
            datagen::star_polygon(
                &BBox::new(
                    Point::new(inset, inset),
                    Point::new(100.0 - inset, 100.0 - inset),
                ),
                24,
                0.3 + 0.04 * i as f64,
                5 + i,
            )
        })
        .collect();
    let viewports = [
        Viewport::square_pixels(extent, resolution),
        Viewport::square_pixels(
            BBox::new(Point::new(20.0, 20.0), Point::new(70.0, 70.0)),
            resolution,
        ),
        Viewport::square_pixels(extent, resolution / 2),
    ];
    let mut jobs = Vec::new();
    for q in &polys {
        for vp in &viewports {
            jobs.push((
                Query::SelectPoints {
                    data: data.clone(),
                    q: q.clone(),
                },
                *vp,
            ));
            jobs.push((heatmap_plan(data, q), *vp));
            jobs.push((
                Query::SelectionHeatmap {
                    data: data.clone(),
                    q: q.clone(),
                },
                *vp,
            ));
        }
    }
    jobs
}

/// One canonical query per promoted class (knn §4.4, voronoi / skyline /
/// hull §4.5, OD §4.6, spatio-temporal §6) over shared synthetic
/// datasets, with the viewport each runs on. Labels match
/// `Query::label()` — the JSON field names derive from them.
fn build_promoted_jobs(smoke: bool) -> Vec<(&'static str, Query, Viewport)> {
    let extent = city_extent();
    let resolution = if smoke { 128 } else { 256 };
    let n_points = if smoke { 20_000 } else { 100_000 };
    let n_trips = if smoke { 10_000 } else { 50_000 };
    let vp = Viewport::square_pixels(extent, resolution);
    let data = Arc::new(PointBatch::from_points(datagen::taxi_pickups(
        &extent, n_points, 77,
    )));
    let trips_src = datagen::generate_trips(&extent, n_trips, 24, 78);
    let trips = Arc::new(trips_src.od_batch());
    let temporal = Arc::new(TemporalPoints::new(
        trips_src.pickups.clone(),
        trips_src.time_slots.iter().map(|&t| u32::from(t)).collect(),
    ));
    let sites = Arc::new(datagen::jittered_sites(&extent, 12, 5));
    let skyline_sites = Arc::new(datagen::jittered_sites(&extent, 3, 6));
    let zones: AreaSource = Arc::new(datagen::neighborhoods(&extent, 4, 11));
    let district = datagen::star_polygon(
        &BBox::new(Point::new(15.0, 15.0), Point::new(70.0, 70.0)),
        24,
        0.35,
        3,
    );
    let corridor = datagen::star_polygon(
        &BBox::new(Point::new(30.0, 30.0), Point::new(95.0, 95.0)),
        24,
        0.3,
        4,
    );
    // Small pocket for the skyline: its dominance test is quadratic in
    // the selected count, so the constraint keeps selectivity low.
    let pocket = datagen::star_polygon(
        &BBox::new(Point::new(35.0, 35.0), Point::new(65.0, 65.0)),
        16,
        0.3,
        8,
    );
    vec![
        (
            "knn",
            Query::Knn {
                data: data.clone(),
                x: Point::new(50.0, 50.0),
                k: 32,
            },
            vp,
        ),
        ("voronoi", Query::Voronoi { sites }, vp),
        (
            "select_od",
            Query::SelectOd {
                trips: trips.clone(),
                q1: district.clone(),
                q2: corridor.clone(),
            },
            vp,
        ),
        (
            "od_flow_matrix",
            Query::OdFlowMatrix {
                trips,
                origin_zones: zones.clone(),
                dest_zones: zones,
            },
            vp,
        ),
        (
            "spatiotemporal_window",
            Query::SpatioTemporalWindow {
                data: temporal.clone(),
                q: district.clone(),
                t0: 0,
                t1: 12,
            },
            vp,
        ),
        (
            "region_time_series",
            Query::RegionTimeSeries {
                data: temporal,
                q: district,
                t0: 0,
                t1: 24,
                windows: 8,
            },
            vp,
        ),
        (
            "skyline",
            Query::Skyline {
                data: data.clone(),
                constraint: pocket,
                sites: skyline_sites,
            },
            vp,
        ),
        ("hull", Query::Hull { data, q: corridor }, vp),
    ]
}

/// Drives the job list round-robin across CLIENTS threads (adjacent
/// jobs — the members of a sharing pair — land on different clients).
/// Returns the wall seconds.
fn run_jobs(engine: &QueryEngine, jobs: &[(Query, Viewport)]) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            s.spawn(move || {
                for (i, (q, vp)) in jobs.iter().enumerate() {
                    if i % CLIENTS == client {
                        let resp = engine.execute(q, *vp).expect("served");
                        // Kind-neutral consumption: promoted classes
                        // return ids / matrices / series, not canvases.
                        std::hint::black_box(resp.result.size_bytes());
                    }
                }
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

/// Per-client batch completion seconds → (wall, per_client, jain).
fn run_clients(
    work: &Arc<Workload>,
    serve: impl Fn(usize, &Query, Viewport) + Sync,
) -> (f64, Vec<f64>) {
    let t0 = Instant::now();
    let done: Vec<f64> = std::thread::scope(|s| {
        let serve = &serve;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let work = Arc::clone(work);
                s.spawn(move || {
                    let t_start = Instant::now();
                    for step in 0..work.per_client {
                        let (q, vp) = work.pick(client, step);
                        serve(client, q, vp);
                    }
                    t_start.elapsed().as_secs_f64()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (t0.elapsed().as_secs_f64(), done)
}

fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

/// Cost of one `obs::span` call under the *current* recording flags.
/// With both tracing and the flight recorder off it prices the inert
/// guard every instrumented site pays (one relaxed atomic load); with
/// the flight recorder on it prices the always-on ring append. Both the
/// ≤ 3% gates are grounded in these measurements, not assumptions.
fn measure_span_cost_ns() -> f64 {
    assert!(!obs::tracing_enabled(), "measure with tracing off");
    const ITERS: u32 = 1_000_000;
    let t0 = Instant::now();
    for i in 0..ITERS {
        let span = obs::span("cost_probe", "bench");
        std::hint::black_box(&span);
        std::hint::black_box(i);
    }
    t0.elapsed().as_nanos() as f64 / f64::from(ITERS)
}

/// Replays a short slice of the pan/zoom workload — plus one query per
/// promoted class — with tracing enabled and returns the number of
/// queries replayed. Uses a fresh engine so the slice mixes computed
/// queries with cache hits (a warm engine would serve everything from
/// cache and undercount spans per query), and so every promoted class
/// computes and emits its per-class span (knn, voronoi, …) into the
/// trace. Runs outside every timed window; callers write the sink
/// afterwards.
fn run_traced_slice(work: &Arc<Workload>, promoted: &[(&'static str, Query, Viewport)]) -> usize {
    let engine = QueryEngine::with_config(EngineConfig {
        threads: WORKERS,
        max_concurrent: CLIENTS,
        max_queue: 64,
        cache_budget_bytes: 256 << 20,
        calibrate: false,
        ..EngineConfig::default()
    });
    let engine = &engine;
    let steps = work.per_client.min(4);
    obs::sink().clear();
    obs::set_tracing(true);
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let work = Arc::clone(work);
            s.spawn(move || {
                for step in 0..steps {
                    let (q, vp) = work.pick(client, step);
                    let resp = engine.execute(q, vp).expect("served");
                    std::hint::black_box(resp.canvas().non_null_count());
                }
            });
        }
    });
    for (_, q, vp) in promoted {
        let resp = engine.execute(q, *vp).expect("served");
        std::hint::black_box(resp.result.size_bytes());
    }
    obs::set_tracing(false);
    CLIENTS * steps + promoted.len()
}

fn main() {
    let mut out_path = "BENCH_serve.json".to_string();
    let mut smoke = false;
    let mut trace_out: Option<String> = None;
    let mut report_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            smoke = true;
        } else if arg == "--trace-out" {
            trace_out = Some(args.next().expect("--trace-out takes a path"));
        } else if let Some(path) = arg.strip_prefix("--trace-out=") {
            trace_out = Some(path.to_string());
        } else if arg == "--report-out" {
            report_out = Some(args.next().expect("--report-out takes a path"));
        } else if let Some(path) = arg.strip_prefix("--report-out=") {
            report_out = Some(path.to_string());
        } else {
            out_path = arg;
        }
    }
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let work = Arc::new(build_workload(smoke));
    let total = work.total();

    // --- 1. Global-lock baseline: one device, whole-query mutex. ---
    let lock_dev = Mutex::new(Device::cpu_parallel(WORKERS));
    let (lock_wall, _) = run_clients(&work, |_, q, vp| {
        let prepared = q.prepare();
        let mut dev = lock_dev.lock().unwrap();
        let result = prepared.execute(&mut dev, vp);
        std::hint::black_box(result.canvas().non_null_count());
    });
    let lock_qps = total as f64 / lock_wall;

    // --- 2. Engine with the cache disabled: scheduler + dedup only. ---
    let engine_nc = QueryEngine::with_config(EngineConfig {
        threads: WORKERS,
        max_concurrent: CLIENTS,
        max_queue: 64,
        // Scheduler-only configuration: with no cache budget nothing is
        // kept — neither whole-plan results nor shared subplans — so
        // this arm isolates the fair-share gate's contribution.
        cache_budget_bytes: 0,
        calibrate: false,
        ..EngineConfig::default()
    });
    let (nc_wall, _) = run_clients(&work, |_, q, vp| {
        let resp = engine_nc.execute(q, vp).expect("served");
        std::hint::black_box(resp.canvas().non_null_count());
    });
    let nocache_qps = total as f64 / nc_wall;

    // --- 3. The full engine: fair share + dedup + budgeted cache. ---
    let engine = QueryEngine::with_config(EngineConfig {
        threads: WORKERS,
        max_concurrent: CLIENTS,
        max_queue: 64,
        cache_budget_bytes: 256 << 20,
        calibrate: true,
        ..EngineConfig::default()
    });
    // Result-identity spot check against the locked device (the full
    // bit-identity harness lives in the engine's stress tests).
    {
        let (q, vp) = work.pick(0, 0);
        let resp = engine.execute(q, vp).expect("served");
        let mut dev = lock_dev.lock().unwrap();
        let want = q.prepare().execute(&mut dev, vp);
        assert_eq!(
            resp.canvas().texels(),
            want.canvas().texels(),
            "engine result must be bit-identical to the locked device's"
        );
    }
    let (engine_wall, client_secs) = run_clients(&work, |_, q, vp| {
        let resp = engine.execute(q, vp).expect("served");
        std::hint::black_box(resp.canvas().non_null_count());
    });
    // The spot check ran outside the timed window (and warmed one cache
    // entry — the lock baseline got the same warm-up via the identity
    // probe's locked evaluation).
    let engine_qps = total as f64 / engine_wall;

    let speedup_vs_lock = engine_qps / lock_qps;
    let nocache_speedup_vs_lock = nocache_qps / lock_qps;
    let fairness = jain(&client_secs);
    let m = engine.metrics();
    let cs = engine.cache_stats();
    let ss = engine.scheduler_stats();
    let cal = engine.calibration();
    let quantum = engine.shared().pool().policy().pass_quantum;

    // --- 4. Subplan sharing: an all-distinct-roots job list whose
    //        plans share interior canvases. ---
    let data = match &work.queries[0] {
        Query::SelectPoints { data, .. } => data.clone(),
        _ => unreachable!("workload starts with the selection"),
    };
    let jobs = build_subplan_jobs(smoke, &data);
    let sharing_engine = QueryEngine::with_config(EngineConfig {
        threads: WORKERS,
        max_concurrent: CLIENTS,
        max_queue: 64,
        cache_budget_bytes: 256 << 20,
        calibrate: false,
        ..EngineConfig::default()
    });
    run_jobs(&sharing_engine, &jobs);
    // Shared-intermediate results must be bit-identical to Device::cpu:
    // re-ask the first selection+heatmap pair (now served from the
    // sharing cache) against fresh sequential evaluation.
    for (q, vp) in &jobs[..2] {
        let resp = sharing_engine.execute(q, *vp).expect("served");
        let mut dev = Device::cpu();
        let want = q.prepare().execute(&mut dev, *vp);
        assert_eq!(
            resp.canvas().texels(),
            want.canvas().texels(),
            "shared-intermediate result must be bit-identical to Device::cpu"
        );
        assert_eq!(resp.canvas().cover(), want.canvas().cover());
    }
    let sm = sharing_engine.metrics();
    let sc = sharing_engine.cache_stats();

    // --- 5. Promoted query classes: the six non-canvas descriptors as
    //        a mixed workload through one engine, with per-class
    //        latency percentiles and a cache-hit identity check. ---
    let promoted = build_promoted_jobs(smoke);
    const PROMOTED_REPS: usize = 3;
    let promoted_engine = QueryEngine::with_config(EngineConfig {
        threads: WORKERS,
        max_concurrent: CLIENTS,
        max_queue: 64,
        cache_budget_bytes: 256 << 20,
        calibrate: false,
        ..EngineConfig::default()
    });
    let promoted_jobs: Vec<(Query, Viewport)> = (0..PROMOTED_REPS)
        .flat_map(|_| promoted.iter().map(|(_, q, vp)| (q.clone(), *vp)))
        .collect();
    let promoted_wall = run_jobs(&promoted_engine, &promoted_jobs);
    let promoted_qps = promoted_jobs.len() as f64 / promoted_wall;
    // Cache-hit identity per class: the warm re-ask must return the
    // *identical* shared allocation, not an equal copy.
    for (label, q, vp) in &promoted {
        let a = promoted_engine.execute(q, *vp).expect("served");
        let b = promoted_engine.execute(q, *vp).expect("served");
        assert_eq!(b.served, Served::CacheHit, "{label}: warm re-ask must hit");
        assert!(
            a.result.ptr_eq(&b.result),
            "{label}: cache hit must return the identical allocation"
        );
    }
    let pm = promoted_engine.metrics();
    let pcs = promoted_engine.cache_stats();

    // --- 6. Streaming ingest: a versioned table fed append batches
    //        from the deterministic trip feed, served two ways per
    //        generation — full re-render (cache-off engine: the refresh
    //        probe always misses) vs incremental refresh (the cached
    //        predecessor canvas is patched with the delta's dirty
    //        tiles). Bit-identity is asserted per generation. ---
    // A large standing table and small feed ticks — the live-ingest
    // shape where maintenance pays: each delta is a fraction of a
    // percent of the data a full render would re-draw.
    let ingest_points = if smoke { 40_000 } else { 160_000 };
    let ingest_feed_points = if smoke { 2_000 } else { 5_000 };
    const INGEST_APPENDS: usize = 6;
    let ingest_resolution = if smoke { 128 } else { 256 };
    let ingest_vp = Viewport::square_pixels(city_extent(), ingest_resolution);
    let feed = datagen::trip_feed(
        &city_extent(),
        ingest_feed_points,
        INGEST_APPENDS as u16,
        91,
    );
    let table = VersionedTable::new(
        "bench-live",
        city_extent(),
        PointBatch::from_points(datagen::taxi_pickups(&city_extent(), ingest_points, 91)),
    );
    let mk_ingest_engine = |budget: usize| {
        QueryEngine::with_config(EngineConfig {
            threads: WORKERS,
            max_concurrent: CLIENTS,
            max_queue: 64,
            cache_budget_bytes: budget,
            calibrate: false,
            ..EngineConfig::default()
        })
    };
    let ingest_engine = mk_ingest_engine(256 << 20);
    let ingest_engine_full = mk_ingest_engine(0);
    // Warm generation 0 into the incremental arm's cache; every later
    // generation must then be served by patching its predecessor.
    let warm = ingest_engine
        .execute(
            &Query::LiveHeatmap {
                snapshot: table.snapshot(),
            },
            ingest_vp,
        )
        .expect("served");
    assert_eq!(warm.served, Served::Computed);
    let mut ingest_full_wall = 0.0;
    let mut ingest_incr_wall = 0.0;
    for g in 1..=INGEST_APPENDS {
        ingest_engine.ingest_append(&table, &feed.batch(g - 1));
        let snapshot = table.snapshot();
        let t0 = Instant::now();
        let full = ingest_engine_full
            .execute(
                &Query::LiveHeatmap {
                    snapshot: snapshot.clone(),
                },
                ingest_vp,
            )
            .expect("served");
        ingest_full_wall += t0.elapsed().as_secs_f64();
        assert_eq!(full.served, Served::Computed);
        let t0 = Instant::now();
        let incr = ingest_engine
            .execute(&Query::LiveHeatmap { snapshot }, ingest_vp)
            .expect("served");
        ingest_incr_wall += t0.elapsed().as_secs_f64();
        assert_eq!(
            incr.served,
            Served::Incremental,
            "generation {g} must be served by patching the cached predecessor"
        );
        assert_eq!(
            incr.canvas().texels(),
            full.canvas().texels(),
            "patched generation {g} must be bit-identical to the full render"
        );
        assert_eq!(incr.canvas().cover(), full.canvas().cover());
    }
    let ingest_speedup = ingest_full_wall / ingest_incr_wall;
    let im = ingest_engine.metrics();

    // --- 7. Observability cost: disabled-span price, always-on flight
    //        ring price, spans per query, and (optionally) a Perfetto
    //        trace of a replayed slice. Runs after every timed arm so
    //        tracing never touches them. ---
    // Both-off baseline: the flight recorder defaults on, so it must be
    // switched off to price the truly inert span guard.
    obs::set_flight_recording(false);
    let obs_disabled_span_ns = measure_span_cost_ns();
    obs::set_flight_recording(true);
    // Always-on price: what every span site pays in production, where
    // the flight rings record and tracing stays off.
    let flight_span_ns = measure_span_cost_ns();
    let traced_queries = run_traced_slice(&work, &promoted);
    let sink = obs::sink();
    let obs_spans_total = sink.len() as u64 + sink.dropped();
    let obs_spans_per_query = obs_spans_total as f64 / traced_queries as f64;
    // What the instrumentation costs a production (tracing-off) query:
    // every span site still pays the disabled-span check, and the
    // flight recorder additionally pays the ring append.
    let service_mean_ns = m.service.mean_secs() * 1e9;
    let obs_overhead_pct = if service_mean_ns > 0.0 {
        obs_spans_per_query * obs_disabled_span_ns / service_mean_ns * 100.0
    } else {
        0.0
    };
    let flight_overhead_pct = if service_mean_ns > 0.0 {
        obs_spans_per_query * (flight_span_ns - obs_disabled_span_ns).max(0.0) / service_mean_ns
            * 100.0
    } else {
        0.0
    };
    if let Some(path) = &trace_out {
        sink.write_chrome_trace(path).expect("write trace JSON");
        eprintln!(
            "wrote {path}: {} span events over {traced_queries} queries",
            sink.len()
        );
    }
    obs::sink().clear();

    // --- 8. Tail-sampled capture: a tiny-threshold engine promotes
    //        every submission into its slow-query log, proving the
    //        capture path end to end in this process and giving
    //        `--report-out` a measured EXPLAIN ANALYZE report. ---
    let capture_engine = QueryEngine::with_config(EngineConfig {
        threads: WORKERS,
        max_concurrent: CLIENTS,
        max_queue: 64,
        cache_budget_bytes: 64 << 20,
        calibrate: false,
        slow_query_threshold: std::time::Duration::from_nanos(1),
    });
    for step in 0..2 {
        let (q, vp) = work.pick(0, step);
        let resp = capture_engine.execute(q, vp).expect("served");
        std::hint::black_box(resp.canvas().non_null_count());
    }
    for (_, q, vp) in promoted.iter().take(2) {
        let resp = capture_engine.execute(q, *vp).expect("served");
        std::hint::black_box(resp.result.size_bytes());
    }
    let slow = capture_engine.slow_queries();
    let slow_captured = slow.len() as u64;
    let flight_recycled = obs::flight::recycled();
    let flight_dropped = obs::flight::dropped();
    if let Some(path) = &report_out {
        let entry = slow.first().expect("tiny threshold captured a query");
        std::fs::write(path, entry.report.to_json()).expect("write report JSON");
        eprintln!(
            "wrote {path}: EXPLAIN ANALYZE report for {} ({})",
            entry.label,
            entry.reason.as_str()
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"clients\": {CLIENTS},");
    let _ = writeln!(json, "  \"worker_threads\": {WORKERS},");
    let _ = writeln!(json, "  \"queries_total\": {total},");
    let _ = writeln!(json, "  \"global_lock_qps\": {lock_qps:.2},");
    let _ = writeln!(json, "  \"engine_nocache_qps\": {nocache_qps:.2},");
    let _ = writeln!(json, "  \"engine_qps\": {engine_qps:.2},");
    let _ = writeln!(json, "  \"engine_speedup_vs_lock\": {speedup_vs_lock:.3},");
    let _ = writeln!(
        json,
        "  \"engine_nocache_speedup_vs_lock\": {nocache_speedup_vs_lock:.3},"
    );
    let _ = writeln!(json, "  \"cache_hit_rate\": {:.4},", cs.hit_rate());
    let _ = writeln!(json, "  \"cache_hits\": {},", cs.hits);
    let _ = writeln!(json, "  \"cache_misses\": {},", cs.misses);
    let _ = writeln!(json, "  \"cache_evictions\": {},", cs.evictions);
    let _ = writeln!(json, "  \"cache_resident_bytes\": {},", cs.bytes);
    let _ = writeln!(json, "  \"cache_peak_bytes\": {},", cs.peak_bytes);
    let _ = writeln!(json, "  \"served_computed\": {},", m.computed);
    let _ = writeln!(json, "  \"served_cache_hits\": {},", m.cache_hits);
    let _ = writeln!(json, "  \"served_coalesced\": {},", m.coalesced);
    let _ = writeln!(json, "  \"reuse_rate\": {:.4},", m.reuse_rate());
    let _ = writeln!(json, "  \"subplan_jobs\": {},", jobs.len());
    let _ = writeln!(json, "  \"subplan_hits\": {},", sm.subplan_hits);
    let _ = writeln!(json, "  \"subplan_published\": {},", sm.subplan_published);
    let _ = writeln!(
        json,
        "  \"subplan_shared_cache_hit_rate\": {:.4},",
        sc.shared_hit_rate()
    );
    let _ = writeln!(json, "  \"subplan_shared_bytes\": {},", sc.shared_bytes);
    let _ = writeln!(json, "  \"promoted_classes\": {},", promoted.len());
    let _ = writeln!(
        json,
        "  \"promoted_queries_total\": {},",
        promoted_jobs.len()
    );
    let _ = writeln!(json, "  \"promoted_qps\": {promoted_qps:.2},");
    let _ = writeln!(json, "  \"promoted_cache_hits\": {},", pm.cache_hits);
    let _ = writeln!(
        json,
        "  \"promoted_result_entries\": {},",
        pcs.result_entries
    );
    let _ = writeln!(json, "  \"promoted_result_bytes\": {},", pcs.result_bytes);
    for (label, _, _) in &promoted {
        let stats = promoted_engine.class_latency(label);
        let _ = writeln!(json, "  \"class_{label}_count\": {},", stats.count());
        let _ = writeln!(
            json,
            "  \"class_{label}_p50_secs\": {:.6},",
            stats.p50_secs()
        );
        let _ = writeln!(
            json,
            "  \"class_{label}_p95_secs\": {:.6},",
            stats.p95_secs()
        );
        let _ = writeln!(
            json,
            "  \"class_{label}_p99_secs\": {:.6},",
            stats.p99_secs()
        );
    }
    let _ = writeln!(json, "  \"ingest_appends\": {},", im.ingest_appends);
    let _ = writeln!(json, "  \"ingest_full_wall_secs\": {ingest_full_wall:.4},");
    let _ = writeln!(
        json,
        "  \"ingest_incremental_wall_secs\": {ingest_incr_wall:.4},"
    );
    let _ = writeln!(
        json,
        "  \"ingest_incremental_speedup\": {ingest_speedup:.3},"
    );
    let _ = writeln!(
        json,
        "  \"incremental_refreshes\": {},",
        im.incremental_refreshes
    );
    let _ = writeln!(
        json,
        "  \"dirty_tiles_redrawn\": {},",
        im.dirty_tiles_redrawn
    );
    let _ = writeln!(
        json,
        "  \"full_renders_avoided\": {},",
        im.full_renders_avoided
    );
    let _ = writeln!(
        json,
        "  \"scheduler_fairness_jain_clients\": {fairness:.4},"
    );
    let _ = writeln!(json, "  \"scheduler_grants\": {},", ss.grants);
    let _ = writeln!(json, "  \"scheduler_handovers\": {},", ss.handovers);
    let _ = writeln!(
        json,
        "  \"scheduler_contended_grants\": {},",
        ss.contended_grants
    );
    let _ = writeln!(
        json,
        "  \"scheduler_quantum_preemptions\": {},",
        ss.quantum_preemptions
    );
    let _ = writeln!(json, "  \"scheduler_pass_quantum\": {quantum},");
    let _ = writeln!(
        json,
        "  \"calibration_applied\": {},",
        cal.map(|c| c.applied).unwrap_or(false)
    );
    let _ = writeln!(
        json,
        "  \"calibrated_min_parallel_items\": {},",
        cal.map(|c| c.derived_min_parallel_items).unwrap_or(0)
    );
    let _ = writeln!(
        json,
        "  \"calibration_dispatch_ns_per_pass\": {:.0},",
        cal.map(|c| c.dispatch_ns_per_pass).unwrap_or(0.0)
    );
    let _ = writeln!(
        json,
        "  \"calibration_per_item_ns\": {:.3},",
        cal.map(|c| c.per_item_ns).unwrap_or(0.0)
    );
    let _ = writeln!(
        json,
        "  \"latency_mean_secs\": {:.6},",
        m.service.mean_secs()
    );
    let _ = writeln!(json, "  \"latency_p50_secs\": {:.6},", m.service.p50_secs());
    let _ = writeln!(json, "  \"latency_p95_secs\": {:.6},", m.service.p95_secs());
    let _ = writeln!(json, "  \"latency_p99_secs\": {:.6},", m.service.p99_secs());
    let _ = writeln!(json, "  \"latency_max_secs\": {:.6},", m.service.max_secs());
    let _ = writeln!(json, "  \"exec_mean_secs\": {:.6},", m.exec.mean_secs());
    let _ = writeln!(json, "  \"exec_p95_secs\": {:.6},", m.exec.p95_secs());
    let _ = writeln!(
        json,
        "  \"queue_wait_mean_secs\": {:.6},",
        m.queue_wait.mean_secs()
    );
    let _ = writeln!(
        json,
        "  \"queue_wait_p95_secs\": {:.6},",
        m.queue_wait.p95_secs()
    );
    let _ = writeln!(
        json,
        "  \"obs_disabled_span_ns\": {obs_disabled_span_ns:.2},"
    );
    let _ = writeln!(json, "  \"obs_spans_per_query\": {obs_spans_per_query:.1},");
    let _ = writeln!(json, "  \"obs_overhead_pct\": {obs_overhead_pct:.4},");
    let _ = writeln!(json, "  \"flight_span_ns\": {flight_span_ns:.2},");
    let _ = writeln!(json, "  \"flight_overhead_pct\": {flight_overhead_pct:.4},");
    let _ = writeln!(json, "  \"slow_captured\": {slow_captured},");
    let _ = writeln!(json, "  \"flight_recycled\": {flight_recycled},");
    let _ = writeln!(json, "  \"flight_dropped\": {flight_dropped}");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    print!("{json}");
    eprintln!("wrote {out_path}");

    // --- Gates (recorded everywhere, asserted per the acceptance bar). ---
    assert_eq!(
        m.computed + m.cache_hits + m.coalesced,
        total as u64 + 1, // + the spot check
        "every submission must be served"
    );
    // The pan/zoom walk revisits keys: the cache must carry real load
    // on every host.
    assert!(
        cs.hits > 0 && cs.hit_rate() > 0.2,
        "cache hit rate {:.3} too low for the reuse workload",
        cs.hit_rate()
    );
    // Concurrent clients must actually interleave passes on the pool.
    assert!(
        ss.handovers > 0,
        "fair gate never changed hands under {CLIENTS} concurrent clients"
    );
    // The traced slice must have produced span trees, and the cost of
    // the instrumentation on an untraced query must stay negligible.
    assert!(
        obs_spans_total > 0,
        "the traced replay slice recorded no spans"
    );
    assert!(
        obs_overhead_pct <= 3.0,
        "disabled-tracing span overhead {obs_overhead_pct:.3}% of mean service \
         time exceeds the 3% budget ({obs_spans_per_query:.0} spans/query x \
         {obs_disabled_span_ns:.1} ns)"
    );
    // The always-on flight recorder must stay within the same budget:
    // its marginal cost over the inert guard, per span, per query.
    assert!(
        flight_overhead_pct <= 3.0,
        "flight-recorder overhead {flight_overhead_pct:.3}% of mean service \
         time exceeds the 3% budget ({obs_spans_per_query:.0} spans/query x \
         ({flight_span_ns:.1} - {obs_disabled_span_ns:.1}) ns)"
    );
    // The tiny-threshold engine must have promoted every submission.
    assert!(
        slow_captured >= 4,
        "tail sampling captured only {slow_captured} of the tiny-threshold \
         submissions"
    );
    // Every root in the subplan workload is distinct, so any reuse is
    // subplan-granular: the sharing engine must have seen it.
    assert!(
        sm.subplan_hits > 0,
        "subplan sharing saw no hits on the selection+heatmap mix: {sm:?}"
    );
    // Promoted classes: every submission served, repeats carried by the
    // cache, per-class histograms populated, and the non-canvas slice
    // of the cache byte-accounted.
    assert_eq!(
        pm.computed + pm.cache_hits + pm.coalesced,
        (promoted_jobs.len() + 2 * promoted.len()) as u64,
        "every promoted submission must be served"
    );
    assert!(
        pm.cache_hits >= (promoted.len() * (PROMOTED_REPS - 1)) as u64,
        "promoted repeats must ride the cache: {pm:?}"
    );
    for (label, _, _) in &promoted {
        assert!(
            promoted_engine.class_latency(label).count() >= (PROMOTED_REPS + 2) as u64,
            "class histogram for {label} missing submissions"
        );
    }
    assert!(
        pcs.result_entries >= 6 && pcs.result_bytes > 0,
        "non-canvas results must be resident and byte-accounted: {pcs:?}"
    );
    // Streaming ingest: every append bumped a generation, every bumped
    // generation was served incrementally, and the counters agree.
    assert_eq!(im.ingest_appends, INGEST_APPENDS as u64);
    assert_eq!(im.incremental_refreshes, INGEST_APPENDS as u64);
    assert_eq!(
        im.full_renders_avoided, INGEST_APPENDS as u64,
        "only successful patches may count as avoided renders"
    );
    assert!(
        im.dirty_tiles_redrawn >= 1,
        "in-viewport appends must have dirtied tiles: {im:?}"
    );
    if host_cores >= 8 {
        assert!(
            ingest_speedup >= 2.0,
            "incremental refresh {ingest_incr_wall:.4}s not >= 2x faster than \
             full re-render {ingest_full_wall:.4}s on a {host_cores}-core host"
        );
    } else {
        eprintln!(
            "note: ingest incremental speedup {ingest_speedup:.2}x recorded, \
             gate applies on hosts with >= 8 cores"
        );
    }
    if host_cores >= 4 {
        assert!(
            speedup_vs_lock >= 1.5,
            "engine {engine_qps:.1} qps not >= 1.5x the global lock {lock_qps:.1} qps \
             on a {host_cores}-core host"
        );
        assert!(
            fairness >= 0.5,
            "client fairness (Jain) {fairness:.3} below 0.5 on a {host_cores}-core host"
        );
    } else {
        eprintln!(
            "note: host has {host_cores} core(s); engine speedup {speedup_vs_lock:.2}x and \
             fairness {fairness:.2} recorded, gates apply on hosts with >= 4 cores"
        );
    }
}
