//! The traced run: one warm lap, one plain lap, one lap with harness
//! spans on, then probes that call each layer directly with the
//! workload's own data — and the per-layer metrics all of it yields.
//!
//! Every layer is measured from outside, through its public functions
//! and public counters. Probes and shadow evaluations run outside the
//! step timers; end-to-end metrics never come from this run.

use std::sync::Arc;
use std::time::Instant;

use canvas_baseline as baseline;
use canvas_core::canvas::AreaSource;
use canvas_core::ops::MaskSpec;
use canvas_core::queries::heatmap;
use canvas_core::{
    patch_live_heatmap, render_live_heatmap, BlendFn, Device, PointBatch, Texel, VersionedTable,
};
use canvas_datagen as datagen;
use canvas_engine::{Query, QueryEngine, Served};
use canvas_geom::bvh::EdgeBvh;
use canvas_geom::hull::convex_hull;
use canvas_geom::rtree::RTree;
use canvas_geom::{BBox, GridIndexBuilder, Point, VisitedMask};
use canvas_obs as obs;
use canvas_raster::simd;
use canvas_raster::{BlendTag, MaskTag, OpChain, Texture, ValueTag, Viewport, WorkerPool};

use crate::lap::{engine_config, sample_of, threads, LapOutcome, Sample, StepIo};
use crate::run::{lap_spread_share, verify, Metric, RunConfig, RunReport};
use crate::spans::{SpanBuf, Trace, NO_STEP};
use crate::spec::{class_metric, per_layer, CLASSES};
use crate::stats::{median, percentile};
use crate::workloads::analytics::{od_zones, report_queries, trip_tables};
use crate::workloads::Workload;
use crate::world::{extent, window, Rng, World};

/// Share of traced step wall left unattributed above which the run
/// warns (it does not fail): that is where in-program tracing is needed
/// first.
const UNATTRIBUTED_WARN: f64 = 0.15;
/// Repetitions of a class probe and of each timed layer probe.
const REPS: usize = 3;
/// Span-buffer id of the probe phase in the Chrome trace.
const PROBE_TID: u32 = 9;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn p50(values: impl Iterator<Item = u64>) -> Option<f64> {
    let v: Vec<f64> = values.map(|n| n as f64).collect();
    (!v.is_empty()).then(|| median(&v))
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// One query per class over the workload's own data, at the overview
/// window and the workload's resolution.
fn class_queries(world: &World) -> (Vec<Query>, Viewport, f64) {
    let trips = trip_tables(world);
    let zones = od_zones(world);
    let mut rng = Rng::stream(world.seed, world.kind, 7, 0);
    let center = Point::new(50.0, 50.0);
    let plan = {
        // A raw plan no descriptor lowers to: the selection with a
        // custom log shading on top.
        use canvas_core::algebra::Expr;
        Expr::value_transform(
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
                    Expr::points(world.points.clone()),
                    Expr::query_polygon(world.district.clone(), 1),
                ),
            ),
        )
    };
    let mut queries = vec![Query::Plan(plan)];
    queries.extend(world.four_views());
    queries.extend(
        report_queries(world, &trips, &zones, center, &mut rng)
            .into_iter()
            .filter(|q| q.label() != "aggregate_by_zone"),
    );
    let vp = window(center, 96.0, world.sizes.resolution);
    (queries, vp, trips.gen_s)
}

/// The feed batches the live probes append: the standing table is the
/// workload's point table, the deltas a small seeded trip feed.
fn delta_batches(world: &World) -> Vec<PointBatch> {
    let per = (world.sizes.points / 250).max(50);
    let seed = Rng::stream(world.seed, world.kind, 8, 0).next_u64();
    datagen::trip_feed(&extent(), per * (REPS + 1), (REPS + 1) as u16, seed)
        .batches()
        .collect()
}

/// Runs every class through a fresh engine (computed, then re-asked: a
/// hit) with spans, reports and the shadow evaluation, like a traced
/// step does — so a class the op list lacks still has its numbers.
fn class_probes(world: &World, buf: &mut SpanBuf) -> (Vec<Sample>, f64) {
    let (queries, vp, trips_gen_s) = class_queries(world);
    let mut shadow = Device::cpu_parallel(threads());
    let mut samples = Vec::new();
    // Asks `q` `asks` times in a row and samples every response.
    let mut probe = |engine: &QueryEngine, q: &Query, asks: usize| {
        let mut io = StepIo::new(NO_STEP, Some(&mut *buf));
        for _ in 0..asks {
            io.execute(engine, q, vp);
        }
        let served = io.served;
        for s in served {
            samples.push(sample_of(s, buf, &mut shadow, NO_STEP));
        }
    };
    for q in &queries {
        for _ in 0..REPS {
            probe(&QueryEngine::with_config(engine_config()), q, 2);
        }
    }
    // The live heatmap: generation 0 computed, then one append and an
    // incremental refresh per repetition.
    let engine = QueryEngine::with_config(engine_config());
    let table = VersionedTable::new("probe", extent(), (*world.points).clone());
    let live = |table: &VersionedTable| Query::LiveHeatmap {
        snapshot: table.snapshot(),
    };
    for (rep, delta) in delta_batches(world).iter().enumerate() {
        if rep > 0 {
            engine.ingest_append(&table, delta);
        }
        probe(&engine, &live(&table), 1);
    }
    // Computed live-heatmap samples beyond generation 0 need a cold
    // engine each.
    for _ in 1..REPS {
        probe(&QueryEngine::with_config(engine_config()), &live(&table), 1);
    }
    (samples, trips_gen_s)
}

/// Times `f` `REPS` times under a span and returns the median
/// nanoseconds.
fn timed(buf: &mut SpanBuf, name: &'static str, mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| buf.scope(name, NO_STEP, &mut f).1 as f64)
        .collect();
    median(&runs)
}

/// Direct calls into raster, executor, geom, core, obs, datagen and
/// baseline. Returns `(metric name, value)` pairs.
fn layer_probes(w: &dyn Workload, buf: &mut SpanBuf) -> Vec<(&'static str, f64)> {
    let world = w.world();
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let res = world.sizes.resolution;
    let vp = window(Point::new(50.0, 50.0), 96.0, res);
    let points = &world.points;
    let zones: &AreaSource = &world.zones;
    let deltas = delta_batches(world);
    let mut dev = Device::cpu_parallel(threads());
    let texels = vp.num_pixels() as f64;

    // ---- raster: the workload's data and resolution through the
    // tiled draws, the fused chain and the patch path.
    let shade_point = |i: u32, _: Point| Texel::point(i, 1.0, 1.0);
    let blend_point = |d: Texel, s: Texel| BlendFn::PointAccumulate.apply(d, s);
    let mut point_plane: Texture<Texel> = Texture::new(vp.width(), vp.height());
    let ns = timed(buf, "raster.draw_points", || {
        point_plane.clear();
        dev.pipeline().draw_points_tiled(
            &vp,
            &mut point_plane,
            &points.points,
            shade_point,
            blend_point,
        );
    });
    out.push(("raster.draw_points_ms", ns / 1e6));
    let mut area_plane: Texture<Texel> = Texture::new(vp.width(), vp.height());
    let mut area_cover: Texture<u16> = Texture::new(vp.width(), vp.height());
    let ns = timed(buf, "raster.draw_polygons", || {
        area_plane.clear();
        area_cover.clear();
        std::hint::black_box(dev.pipeline().draw_polygons_tiled(
            &vp,
            &mut area_plane,
            &mut area_cover,
            zones,
            true,
            |rec, _| Texel::area(rec, 1.0, 0.0),
            |d, s| BlendFn::AreaCount.apply(d, s),
        ));
    });
    out.push(("raster.draw_polygons_ms", ns / 1e6));
    let mut chain_plane: Texture<Texel> = Texture::new(vp.width(), vp.height());
    let mut chain_cover: Texture<u16> = Texture::new(vp.width(), vp.height());
    let heat: OpChain<'_, Texel> = OpChain::new()
        .with_null_test(|t: &Texel| t.is_null())
        .map_tagged(ValueTag::HeatLog);
    let ns = timed(buf, "raster.chain_points", || {
        chain_plane.clear();
        chain_cover.clear();
        std::hint::black_box(dev.pipeline().run_chain_points(
            &vp,
            &mut chain_plane,
            Some(&mut chain_cover),
            &points.points,
            shade_point,
            blend_point,
            &heat,
        ));
    });
    out.push(("raster.chain_points_ms", ns / 1e6));
    let backend = simd::active_backend();
    let mut k = 0;
    let ns = timed(buf, "raster.patch_points", || {
        let delta = &deltas[k % deltas.len()].points;
        k += 1;
        std::hint::black_box(dev.pipeline().patch_points_tiled(
            &vp,
            &mut chain_plane,
            delta,
            shade_point,
            blend_point,
            Some((backend, ValueTag::HeatLog)),
        ));
    });
    out.push(("raster.patch_points_ms", ns / 1e6));

    // ---- raster kernels, per texel, on the planes just drawn.
    let mut blended = point_plane.clone();
    let ns = timed(buf, "raster.blend_kernel", || {
        blended.texels_mut().copy_from_slice(point_plane.texels());
        dev.pipeline()
            .blend_into_tagged(&mut blended, &area_plane, BlendTag::PointOverArea);
    });
    let copy_ns = timed(buf, "raster.plane_copy", || {
        blended.texels_mut().copy_from_slice(point_plane.texels());
        std::hint::black_box(&mut blended);
    });
    out.push((
        "raster.blend_ns_per_texel",
        (ns - copy_ns).max(0.0) / texels,
    ));
    dev.pipeline()
        .blend_into_tagged(&mut blended, &area_plane, BlendTag::PointOverArea);
    let mut masked = blended.clone();
    let mut mask_cover = area_cover.clone();
    let mut bits = vec![0u64; masked.len().div_ceil(64)];
    let ns = timed(buf, "raster.mask_kernel", || {
        masked.texels_mut().copy_from_slice(blended.texels());
        bits.fill(0);
        simd::mask_rows(
            MaskTag::PointAndArea,
            masked.texels_mut(),
            Some(mask_cover.texels_mut()),
            &mut bits,
        );
    });
    out.push(("raster.mask_ns_per_texel", (ns - copy_ns).max(0.0) / texels));
    let ns = timed(buf, "raster.value_kernel", || {
        dev.pipeline()
            .par_map_texels_tagged(&mut masked, ValueTag::HeatLog);
    });
    out.push(("raster.value_ns_per_texel", ns / texels));
    let mut scattered: Texture<Texel> = Texture::new(vp.width(), vp.height());
    let ns = timed(buf, "raster.scatter", || {
        dev.pipeline().scatter_shared(
            &point_plane,
            &vp,
            &mut scattered,
            |x, y, t: &Texel| (!t.is_null()).then(|| vp.pixel_center(x, y)),
            |d, s| BlendFn::Accumulate.apply(d, s),
        );
    });
    out.push(("raster.scatter_ns_per_read", ns / texels));
    drop((blended, masked, scattered, area_plane, chain_plane));

    // ---- core: the same selection heatmap fused and materialized, and
    // the live-heatmap maintenance calls.
    let ns = timed(buf, "core.fused_chain", || {
        std::hint::black_box(heatmap::selection_heatmap(
            &mut dev,
            vp,
            points,
            &world.district,
        ));
    });
    out.push(("core.fused_chain_ms", ns / 1e6));
    let ns = timed(buf, "core.materialized_chain", || {
        std::hint::black_box(heatmap::selection_heatmap_materialized(
            &mut dev,
            vp,
            points,
            &world.district,
        ));
    });
    out.push(("core.materialized_chain_ms", ns / 1e6));
    let table = VersionedTable::new("probe", extent(), (**points).clone());
    let mut canvas = render_live_heatmap(&mut dev, vp, table.snapshot().batch(), None);
    let (mut append_ns, mut patch_ns, mut render_ns) = (Vec::new(), Vec::new(), Vec::new());
    for delta in deltas.iter().take(REPS) {
        let before = table.len();
        append_ns.push(buf.scope("core.append", NO_STEP, || table.append(delta)).1 as f64);
        let snap = table.snapshot();
        let ((patched, _), ns) = buf.scope("core.patch_live", NO_STEP, || {
            patch_live_heatmap(&mut dev, vp, &canvas, snap.batch(), before, None)
        });
        patch_ns.push(ns as f64);
        canvas = patched;
        let (full, ns) = buf.scope("core.render_live", NO_STEP, || {
            render_live_heatmap(&mut dev, vp, snap.batch(), None)
        });
        render_ns.push(ns as f64);
        std::hint::black_box(full);
    }
    out.push(("core.append_ms_p50", median(&append_ns) / 1e6));
    out.push(("core.patch_ms_p50", median(&patch_ns) / 1e6));
    out.push(("core.render_live_ms_p50", median(&render_ns) / 1e6));
    drop((canvas, table));

    // ---- executor: dispatch, a band pass, calibration.
    let pool = WorkerPool::new(threads());
    const DISPATCHES: usize = 2_000;
    let ns = timed(buf, "executor.dispatch", || {
        for _ in 0..DISPATCHES {
            std::hint::black_box(pool.run_indexed(pool.threads(), |i| i));
        }
    });
    out.push(("executor.dispatch_us", ns / 1e3 / DISPATCHES as f64));
    const BAND_SIDE: usize = 512;
    const BAND_PASSES: usize = 50;
    let mut plane = vec![1u64; BAND_SIDE * BAND_SIDE];
    let ns = timed(buf, "executor.band_pass", || {
        for r in 0..BAND_PASSES {
            pool.for_each_band1(BAND_SIDE, &mut plane, |row0, band| {
                for (i, t) in band.iter_mut().enumerate() {
                    *t = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (row0 + i + r) as u64;
                }
            });
        }
        std::hint::black_box(&mut plane);
    });
    out.push(("executor.band_pass_us", ns / 1e3 / BAND_PASSES as f64));
    drop(pool);
    let mut derived = Vec::new();
    let ns = timed(buf, "executor.calibrate", || {
        derived.push(
            WorkerPool::new(threads())
                .calibrate()
                .derived_min_parallel_items as f64,
        );
    });
    out.push(("executor.calibrate_ms", ns / 1e6));
    out.push(("executor.min_parallel_items", median(&derived)));

    // ---- geom: the three indexes over the workload's points, queried
    // with the windows the op list looks through.
    let boxes = w.query_boxes();
    let boxes = &boxes[..boxes.len().min(64)];
    let pts = &points.points;
    let mut grid = None;
    let ns = timed(buf, "geom.grid_build", || {
        let mut b = GridIndexBuilder::with_target_occupancy(extent(), pts.len().max(1024), 8);
        for (i, &p) in pts.iter().enumerate() {
            b.insert_point(i as u32, p);
        }
        grid = Some(b.build());
    });
    out.push(("geom.grid_build_ms", ns / 1e6));
    let grid = grid.expect("built above");
    let mut visited = VisitedMask::new();
    let mut hits = Vec::new();
    let ns = timed(buf, "geom.grid_query", || {
        for b in boxes {
            hits.clear();
            grid.query_into(b, &mut visited, &mut hits);
            std::hint::black_box(hits.len());
        }
    });
    out.push(("geom.grid_query_us", ns / 1e3 / boxes.len() as f64));
    drop(grid);
    let mut rtree = None;
    let ns = timed(buf, "geom.rtree_build", || {
        rtree = Some(RTree::bulk_load(
            pts.iter().map(|&p| BBox::new(p, p)).collect(),
        ));
    });
    out.push(("geom.rtree_build_ms", ns / 1e6));
    let rtree = rtree.expect("built above");
    let ns = timed(buf, "geom.rtree_query", || {
        for b in boxes {
            hits.clear();
            rtree.query_into(b, &mut hits);
            std::hint::black_box(hits.len());
        }
    });
    out.push(("geom.rtree_query_us", ns / 1e3 / boxes.len() as f64));
    drop(rtree);
    let mut bvh = None;
    let ns = timed(buf, "geom.bvh_build", || {
        bvh = Some(EdgeBvh::build(&world.district));
    });
    out.push(("geom.bvh_build_us", ns / 1e3));
    let bvh = bvh.expect("built above");
    let probe_pts = &pts[..pts.len().min(20_000)];
    let ns = timed(buf, "geom.bvh_pip", || {
        let inside = probe_pts
            .iter()
            .filter(|p| bvh.contains_closed(**p))
            .count();
        std::hint::black_box(inside);
    });
    out.push(("geom.bvh_pip_ns", ns / probe_pts.len() as f64));
    let ns = timed(buf, "geom.polygon_pip", || {
        let inside = probe_pts
            .iter()
            .filter(|p| world.district.contains_closed(**p))
            .count();
        std::hint::black_box(inside);
    });
    out.push(("geom.polygon_pip_ns", ns / probe_pts.len() as f64));
    let ns = timed(buf, "geom.hull", || {
        std::hint::black_box(convex_hull(pts));
    });
    out.push(("geom.hull_ms", ns / 1e6));

    // ---- obs: what one span costs with the flight rings on (always,
    // in production) and with everything off.
    const SPANS: usize = 200_000;
    let span_cost = || {
        let t = Instant::now();
        for i in 0..SPANS {
            let s = obs::span("cost_probe", "bench");
            std::hint::black_box((&s, i));
        }
        t.elapsed().as_nanos() as f64 / SPANS as f64
    };
    out.push(("obs.span_flight_ns", span_cost()));
    obs::set_flight_recording(false);
    out.push(("obs.span_disabled_ns", span_cost()));
    obs::set_flight_recording(true);

    // ---- baseline: the CPU reference the paper compares against,
    // same data. It anchors "× over CPU"; nothing should move it.
    let ns = timed(buf, "baseline.select", || {
        std::hint::black_box(baseline::select_scalar(
            pts,
            std::slice::from_ref(&world.district),
        ));
    });
    out.push(("baseline.select_ms", ns / 1e6));
    let ns = timed(buf, "baseline.join", || {
        std::hint::black_box(baseline::join_grid(pts, zones, extent()));
    });
    out.push(("baseline.join_ms", ns / 1e6));
    out
}

/// Lap samples first, probe samples when the lap has none.
fn pick<'a>(
    lap: &'a [Sample],
    probes: &'a [Sample],
    keep: impl Fn(&Sample) -> bool + Copy,
) -> Vec<&'a Sample> {
    let from_lap: Vec<&Sample> = lap.iter().filter(|s| keep(s)).collect();
    if from_lap.is_empty() {
        probes.iter().filter(|s| keep(s)).collect()
    } else {
        from_lap
    }
}

/// The traced run of one workload (see module docs).
pub fn traced_run(cfg: &RunConfig, w: &dyn Workload) -> RunReport {
    let mut notes = Vec::new();
    let mut trace = Trace::default();
    let mut laps: Vec<LapOutcome> = vec![w.lap(None), w.lap(None)];
    let flight_before = (obs::flight::recycled(), obs::flight::dropped());
    laps.push(w.lap(Some(&mut trace)));
    let flight = (
        obs::flight::recycled() - flight_before.0,
        obs::flight::dropped() - flight_before.1,
    );
    let verdict = verify(w, &mut laps, cfg.seed, cfg.inject_mismatch);
    notes.extend(verdict.notes.iter().cloned());

    let mut buf = trace.buf(PROBE_TID);
    let (probe_samples, trips_gen_s) = class_probes(w.world(), &mut buf);
    let probes = layer_probes(w, &mut buf);
    trace.absorb(buf);

    let plain = &laps[1];
    let traced = &laps[2];
    let steps = w.steps_per_lap() as f64;
    let c = &traced.counters;
    let lap_samples = &traced.samples;
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| values.push((name.to_string(), v));

    // ---- per class: the engine's execute span and the core layer alone.
    for class in CLASSES {
        let computed = pick(lap_samples, &probe_samples, |s| {
            s.class == class && s.served == Some(Served::Computed)
        });
        put(
            &class_metric("engine.execute_ms", class),
            p50(computed.iter().map(|s| s.execute_ns)).map_or(0.0, |ns| ns / 1e6),
        );
        put(
            &class_metric("core.eval_ms", class),
            p50(computed.iter().filter_map(|s| s.shadow_ns)).map_or(0.0, |ns| ns / 1e6),
        );
    }

    // ---- engine
    let computed = pick(lap_samples, &probe_samples, |s| {
        s.served == Some(Served::Computed)
    });
    put(
        "engine.self_us_per_query",
        mean(computed.iter().filter_map(|s| {
            s.shadow_ns
                .map(|core| (s.execute_ns as f64 - core as f64) / 1e3)
        })),
    );
    let hits = pick(lap_samples, &probe_samples, |s| {
        s.served == Some(Served::CacheHit)
    });
    put(
        "engine.hit_us_p50",
        p50(hits.iter().map(|s| s.execute_ns)).map_or(0.0, |ns| ns / 1e3),
    );
    let any = pick(lap_samples, &probe_samples, |_| true);
    put(
        "engine.prepare_us_p50",
        p50(any.iter().map(|s| s.prepare_ns)).map_or(0.0, |ns| ns / 1e3),
    );
    let refreshed = pick(lap_samples, &probe_samples, |s| {
        s.served == Some(Served::Incremental)
    });
    put(
        "engine.refresh_ms_p50",
        p50(refreshed.iter().map(|s| s.execute_ns)).map_or(0.0, |ns| ns / 1e6),
    );
    put(
        "engine.queue_wait_us_per_query",
        mean(any.iter().map(|s| us(s.queue_wait_ns))),
    );
    put("engine.served_computed", c.computed as f64);
    put("engine.served_cache_hit", c.cache_hits as f64);
    put("engine.served_coalesced", c.coalesced as f64);
    put("engine.served_incremental", c.incremental as f64);
    put("engine.shed", c.shed as f64);
    put("engine.cache_evictions", c.evictions as f64);
    put("engine.subplan_published", c.subplan_published as f64);
    put("engine.subplan_renders_avoided", c.renders_avoided as f64);
    let served = c.served().max(1) as f64;
    put("engine.cache_hit_share", c.cache_hits as f64 / served);
    put(
        "engine.subplan_hit_share",
        c.shared_hits as f64 / (c.shared_hits + c.shared_misses).max(1) as f64,
    );
    put("engine.incremental_share", c.incremental as f64 / served);
    put(
        "engine.dirty_tiles_per_refresh",
        c.dirty_tiles as f64 / c.incremental.max(1) as f64,
    );
    // The paper's interactivity bar: steps a user waited over 100 ms for.
    put(
        "engine.over_100ms_share",
        traced
            .step_ns
            .iter()
            .filter(|&&ns| ns > 100_000_000)
            .count() as f64
            / traced.steps().max(1) as f64,
    );
    put(
        "engine.cache_peak_mb",
        c.cache_peak_bytes as f64 / (1u64 << 20) as f64,
    );

    // ---- core, raster, executor counts of the traced lap. The model
    // and the work counters are count-derived and repeat exactly.
    put("core.modeled_ms_per_step", c.modeled_s * 1e3 / steps);
    put("raster.passes_per_step", c.pipeline.passes as f64 / steps);
    put(
        "raster.fragments_per_step",
        c.pipeline.fragments as f64 / steps,
    );
    put(
        "raster.fullscreen_texels_per_step",
        c.pipeline.fullscreen_texels as f64 / steps,
    );
    put(
        "raster.blend_ops_per_step",
        c.pipeline.blend_ops as f64 / steps,
    );
    put(
        "raster.scatter_writes_per_step",
        c.pipeline.scatter_writes as f64 / steps,
    );
    put("executor.grants_per_step", c.grants as f64 / steps);
    put(
        "executor.contended_share",
        c.contended_grants as f64 / c.grants.max(1) as f64,
    );
    put("executor.handovers", c.handovers as f64);
    put("executor.quantum_preemptions", c.quantum_preemptions as f64);
    put(
        "executor.gate_wait_us_per_query",
        mean(any.iter().map(|s| us(s.gate_wait_ns))),
    );

    // ---- obs
    put(
        "obs.spans_per_query",
        mean(any.iter().map(|s| s.spans_joined as f64)),
    );
    put("obs.flight_recycled", flight.0 as f64);
    put("obs.flight_dropped", flight.1 as f64);
    let step_p50 = |lap: &LapOutcome| {
        let ms: Vec<f64> = lap.step_ns.iter().map(|&ns| ms(ns)).collect();
        percentile(&ms, 50.0)
    };
    let (plain_p50, traced_p50) = (step_p50(plain), step_p50(traced));
    put(
        "obs.trace_overhead_share",
        if plain_p50 > 0.0 {
            traced_p50 / plain_p50 - 1.0
        } else {
            0.0
        },
    );

    // ---- datagen
    put("datagen.points_ms", w.world().points_gen_s * 1e3);
    put("datagen.trips_ms", trips_gen_s * 1e3);

    // ---- harness: is this run trustworthy, and where does the step go?
    put(
        "harness.self_us_per_step",
        (plain.total_s - plain.wall_s).max(0.0) * 1e6 / (steps / w.clients() as f64),
    );
    put("harness.lap_spread_share", lap_spread_share(&laps[1..]));
    // Reconciliation: what the layers account for, against the wall of
    // the traced steps. Engine self is the execute span less the
    // evaluation station; core (with raster and executor inside it) is
    // the plan-node rows of the program's own reports.
    let wall = traced.traced_wall_ns.max(1) as f64;
    let engine_self: f64 = lap_samples
        .iter()
        .map(|s| s.execute_ns.saturating_sub(s.eval_ns) as f64)
        .sum();
    let core_rows: f64 = lap_samples.iter().map(|s| s.node_wall_ns as f64).sum();
    let gate: f64 = lap_samples.iter().map(|s| s.gate_wait_ns as f64).sum();
    let other = traced.traced_other_ns as f64;
    let unattributed = ((wall - engine_self - core_rows - other) / wall).max(0.0);
    put("harness.unattributed_share", unattributed);
    let traced_steps = trace
        .spans
        .iter()
        .filter(|s| s.name == "harness.step")
        .count()
        .max(1) as f64;
    notes.push(format!(
        "reconciliation per traced step: wall {:.3} ms = engine self {:.3} + core rows {:.3} (executor gate wait {:.3} inside) + appends/snapshots {:.3} + unattributed {:.3} ms ({:.1} %)",
        wall / 1e6 / traced_steps,
        engine_self / 1e6 / traced_steps,
        core_rows / 1e6 / traced_steps,
        gate / 1e6 / traced_steps,
        other / 1e6 / traced_steps,
        unattributed * wall / 1e6 / traced_steps,
        unattributed * 100.0,
    ));
    if unattributed > UNATTRIBUTED_WARN {
        notes.push(format!(
            "warning: {:.1} % of traced step wall is not covered by layer spans (> {:.0} %): in-program tracing is needed here first",
            unattributed * 100.0,
            UNATTRIBUTED_WARN * 100.0
        ));
    }
    for (layer, ns) in trace.layer_self_ns(|s| s.step != NO_STEP) {
        notes.push(format!(
            "harness spans, self time in steps: {layer} {:.3} ms",
            ns as f64 / 1e6
        ));
    }

    for (name, v) in probes {
        put(name, v);
    }

    // Per-layer metrics in spec order; a name the run failed to compute
    // is a bug in this file, not a zero.
    let metrics: Vec<Metric> = per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not computed"))
                .1;
            Metric { name, value, unit }
        })
        .collect();

    let path = cfg.out_dir.join(format!("trace_{}.json", w.kind().name()));
    let meta = [
        ("workload", w.kind().name().to_string()),
        ("seed", cfg.seed.to_string()),
        ("simd_backend", simd::active_backend().name().to_string()),
        ("threads", threads().to_string()),
    ];
    match trace.write_chrome(&path, &meta) {
        Ok(()) => notes.push(format!(
            "wrote {} ({} spans); raster.simd_backend {}",
            path.display(),
            trace.spans.len(),
            simd::active_backend().name()
        )),
        Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
    }
    let mut correct = verdict.correct;
    for v in w.violations(traced) {
        correct = false;
        notes.push(format!("traced lap: {v}"));
    }
    let attempted = traced.steps();
    RunReport {
        kind: cfg.kind,
        seed: cfg.seed,
        correct,
        attempted,
        failed: traced.failed.iter().filter(|&&f| f).count(),
        metrics,
        op_list_digest: w.op_list_digest(),
        result_digest: traced.result_digest(),
        notes,
    }
}
